"""Nested spans and point events.

A :class:`Tracer` produces **spans** — named, attributed regions of work
with wall and CPU time — and **events**, instantaneous points attached to
the innermost open span.  The current span is tracked in a
:mod:`contextvars` context variable, so instrumentation composes across
call boundaries: a span opened inside ``AnalysisSession.explore`` nests
under whatever span the calling decision procedure opened, without either
side knowing about the other.

Spans are emitted to the tracer's :class:`~repro.obs.sinks.Sink` when they
*close* (children before parents), one record per span/event; the tree is
reconstructed from ``id``/``parent`` fields (:mod:`repro.obs.report`).

A tracer without a sink — or with the :class:`~repro.obs.sinks.NullSink`
— is *disabled*: :meth:`Tracer.span` returns a shared no-op context
manager and :meth:`Tracer.event` returns immediately, so leaving
instrumentation in hot-ish paths costs one attribute check and one method
call.  Per-state inner loops should still not be spanned; spans are for
*phases* (an exploration, a saturation, a certificate extraction).
"""

from __future__ import annotations

import contextlib
import secrets
import time
import uuid
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional

from .sinks import NullSink, Sink

#: The innermost open span of the current execution context.
_CURRENT_SPAN: ContextVar[Optional["Span"]] = ContextVar(
    "repro-obs-current-span", default=None
)

#: Trace context adopted by the *next* root span opened in this context
#: (installed by :func:`trace_context`; cleared on scope exit).
_PENDING_CONTEXT: ContextVar[Optional["TraceContext"]] = ContextVar(
    "repro-obs-pending-trace-context", default=None
)

_SPAN_ID_MASK = 0xFFFFFFFFFFFFFFFF

#: ``traceparent`` parent field meaning "no remote parent".
_NO_PARENT = "0" * 16


def current_span() -> Optional["Span"]:
    """The innermost open :class:`Span` of this context, or ``None``."""
    return _CURRENT_SPAN.get()


class TraceContext:
    """Causal identity of one distributed trace.

    A 128-bit trace id plus, optionally, the OTLP span id (16 hex digits)
    of the *remote* parent span — the span on the other side of a process
    or wire boundary under which this process's root span should hang.
    ``span_base`` is a process-local random 64-bit offset mixed into the
    exported OTLP span ids so that two processes contributing sequential
    tracer ids (1, 2, 3, ...) to the same trace cannot collide; it never
    travels on the wire.

    Wire form (:meth:`to_traceparent`) follows the W3C ``traceparent``
    shape — ``00-<32 hex trace id>-<16 hex parent span id>-01`` — with an
    all-zero parent field meaning "trace id only, no remote parent".
    """

    __slots__ = ("trace_id", "parent_span", "span_base")

    def __init__(
        self,
        trace_id: Optional[str] = None,
        parent_span: Optional[str] = None,
        span_base: Optional[int] = None,
    ) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex
        self.parent_span = parent_span
        self.span_base = (
            span_base
            if span_base is not None
            else secrets.randbits(64) & ~0xFFFFFFFF  # keep low bits for ids
        )

    def otlp_span_id(self, local_id: Any) -> str:
        """The 16-hex OTLP span id for a tracer-local integer span id."""
        try:
            value = int(local_id)
        except (TypeError, ValueError):
            value = 0
        return format((self.span_base + value) & _SPAN_ID_MASK, "016x")

    def child(self, local_span_id: Any) -> "TraceContext":
        """A context naming *local_span_id* as the remote parent.

        This is what goes on the wire: same trace, the given span as the
        causal parent of whatever root span the receiver opens.  The
        receiver mints its own ``span_base``.
        """
        return TraceContext(
            trace_id=self.trace_id,
            parent_span=self.otlp_span_id(local_span_id),
        )

    def to_traceparent(self) -> str:
        """Serialise for the ``traceparent`` wire field."""
        return f"00-{self.trace_id}-{self.parent_span or _NO_PARENT}-01"

    @classmethod
    def from_traceparent(cls, value: Any) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` string; ``None`` on anything malformed."""
        if not isinstance(value, str):
            return None
        parts = value.strip().lower().split("-")
        if len(parts) != 4:
            return None
        _version, trace_id, parent, _flags = parts
        if len(trace_id) != 32 or len(parent) != 16:
            return None
        try:
            int(trace_id, 16), int(parent, 16)
        except ValueError:
            return None
        if set(trace_id) == {"0"}:
            return None
        return cls(
            trace_id=trace_id,
            parent_span=None if parent == _NO_PARENT else parent,
        )

    def __repr__(self) -> str:
        return (
            f"TraceContext(trace_id={self.trace_id!r}, "
            f"parent_span={self.parent_span!r})"
        )


@contextlib.contextmanager
def trace_context(context: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Install *context* for the next root span opened in this context.

    ``with trace_context(ctx): ...`` makes every root span (a span with
    no open parent) opened inside the block adopt *ctx* — its trace id,
    its remote parent, its span-id base — instead of minting a fresh
    trace.  ``trace_context(None)`` is a no-op, so callers can pass a
    possibly-absent propagated context straight through.
    """
    if context is None:
        yield None
        return
    token = _PENDING_CONTEXT.set(context)
    try:
        yield context
    finally:
        _PENDING_CONTEXT.reset(token)


def current_trace_context() -> Optional[TraceContext]:
    """The trace context in effect here: innermost open span's, else the
    installed pending one, else ``None``."""
    span = _CURRENT_SPAN.get()
    if span is not None and span.trace is not None:
        return span.trace
    return _PENDING_CONTEXT.get()


class Span:
    """One named, timed region of work.

    Mutable only while open: :meth:`set` adds/overwrites attributes (e.g.
    a result computed just before the span closes).  Timing fields are
    filled in when the span closes; ``wall_seconds``/``cpu_seconds`` are
    ``None`` on a still-open span.
    """

    __slots__ = (
        "name",
        "attrs",
        "span_id",
        "parent_id",
        "trace",
        "start",
        "wall_seconds",
        "cpu_seconds",
        "_cpu_start",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
        trace: Optional[TraceContext] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace = trace
        self.attrs = attrs
        self.start = time.perf_counter()
        self._cpu_start = time.process_time()
        self.wall_seconds: Optional[float] = None
        self.cpu_seconds: Optional[float] = None

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns the span for chaining."""
        self.attrs.update(attrs)
        return self

    def _close(self) -> None:
        self.wall_seconds = time.perf_counter() - self.start
        self.cpu_seconds = time.process_time() - self._cpu_start

    def record(self) -> Dict[str, Any]:
        """The JSON-ready sink record for this (closed) span."""
        out = {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "wall": self.wall_seconds,
            "cpu": self.cpu_seconds,
            "attrs": self.attrs,
        }
        trace = self.trace
        if trace is not None:
            out["trace"] = trace.trace_id
            out["span_base"] = trace.span_base
            if self.parent_id is None and trace.parent_span is not None:
                # the remote (cross-process) parent: deliberately NOT the
                # local ``parent`` field, so local tree reconstruction
                # still sees this span as a root; the OTLP exporter turns
                # it into the span's ``parentSpanId``
                out["remote_parent"] = trace.parent_span
        return out

    def __repr__(self) -> str:
        state = "open" if self.wall_seconds is None else f"{self.wall_seconds:.6f}s"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class _NoopSpan:
    """The do-nothing span handed out by a disabled tracer (a singleton)."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


#: Shared by every disabled tracer; identity-testable in the test-suite.
NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager pairing a span with its contextvar token."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token = _CURRENT_SPAN.set(span)

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        _CURRENT_SPAN.reset(self._token)
        span = self._span
        if exc_type is not None:
            span.attrs.setdefault("error", exc_type.__name__)
        span._close()
        self._tracer._sink.emit(span.record())


class Tracer:
    """A span/event producer writing to one :class:`~repro.obs.sinks.Sink`.

    ``Tracer()`` (no sink) is disabled and safe to leave threaded through
    production code; construct with a :class:`~repro.obs.sinks.JsonlSink`
    or :class:`~repro.obs.sinks.MemorySink` to switch the instrumentation
    on.  Span ids are unique per tracer.
    """

    __slots__ = ("_sink", "_next_id")

    def __init__(self, sink: Optional[Sink] = None) -> None:
        self._sink: Sink = sink if sink is not None else NullSink()
        self._next_id = 0

    @property
    def enabled(self) -> bool:
        """Whether spans/events are actually recorded."""
        return self._sink.enabled

    @property
    def sink(self) -> Sink:
        """The tracer's sink (``NullSink`` when disabled)."""
        return self._sink

    def span(self, name: str, **attrs: Any):
        """Open a span; use as ``with tracer.span("phase", key=val) as s:``.

        Nested under the context's current span automatically.  Disabled
        tracers return the shared no-op context manager.
        """
        if not self._sink.enabled:
            return NOOP_SPAN
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            trace = parent.trace
        else:
            # a root span starts (or continues) a distributed trace: adopt
            # the propagated context if one is installed, else mint a
            # fresh trace id — concurrent queries must never share one
            trace = _PENDING_CONTEXT.get()
            if trace is None:
                trace = TraceContext()
        self._next_id += 1
        span = Span(
            name,
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            attrs=attrs,
            trace=trace,
        )
        return _SpanContext(self, span)

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event attached to the current span (if any)."""
        if not self._sink.enabled:
            return
        parent = _CURRENT_SPAN.get()
        self._sink.emit(
            {
                "type": "event",
                "span": None if parent is None else parent.span_id,
                "name": name,
                "time": time.perf_counter(),
                "attrs": attrs,
            }
        )

    def close(self) -> None:
        """Flush and close the sink (idempotent)."""
        self._sink.close()

    def __repr__(self) -> str:
        return f"Tracer(sink={self._sink!r}, enabled={self.enabled})"
