"""Flight recorder: an always-on bounded buffer of recent telemetry.

Traces written to disk are opt-in; the runs that *need* a post-mortem —
a ``BudgetExhausted`` deep into a deadline, a ``CorruptionDetected``
from a misbehaving backend, an engine bug surfacing as an unexpected
exception — are exactly the runs nobody thought to trace.  A
:class:`FlightRecorder` closes that gap: it is a
:class:`~repro.obs.sinks.Sink` holding the **last N** span/event records
in a ring buffer (``collections.deque(maxlen=N)``), cheap enough to
leave on permanently.  Every :class:`~repro.analysis.session.AnalysisSession`
constructed without an explicit tracer records into the process-wide
:func:`ambient_recorder`; the cost is bounded by the span discipline
(spans are per *phase*, never per state) and measured by
``benchmarks/bench_obs_overhead.py`` against the same < 5% bar as the
rest of the observability layer.

On an incident the recorder **dumps a diagnostic bundle** — schema
``rpcheck-flight/1`` — carrying the buffered records, a metrics
snapshot, the triggering error and (when one exists) a resumable
checkpoint token.  :func:`record_incident` is the one entry point the
engine calls (see :meth:`AnalysisSession.phase` and
:mod:`repro.robust.governance`); it is a no-op unless a dump target is
configured, so library users never find surprise files on disk:

* the ``RPCHECK_FLIGHT_DIR`` environment variable names a directory
  (CI sets it for the tier-1 job and uploads the bundles on failure);
* or the CLI points the run's recorder at the ledger's directory via
  :attr:`FlightRecorder.dump_dir` (bundles land next to the run ledger).

Dumping is idempotent per exception object: an error re-raised through
several instrumented layers produces one bundle, whose path is cached on
the exception as ``_flight_bundle``.

Ambient state is **contextvar-scoped**: a long-lived process serving
concurrent requests (the :mod:`repro.serve` daemon) gives every request
its own :class:`SinkScope` — a private recorder, extra per-request sinks
and a private dump directory — via :func:`sink_scope`, so two
overlapping faulting requests dump *disjoint* incident bundles instead
of interleaving one shared ring buffer.  Inside a scope the
process-ambient defaults (the process-wide recorder, ``RPCHECK_FLIGHT_DIR``)
are **not** consulted: the scope is the whole sink set.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import error_block
from .sinks import Sink

__all__ = [
    "DEFAULT_CAPACITY",
    "FLIGHT_SCHEMA",
    "FLIGHT_DIR_ENV",
    "FlightRecorder",
    "ScopedSink",
    "SinkScope",
    "ambient_recorder",
    "current_sink_scope",
    "find_recorder",
    "record_incident",
    "sink_scope",
]

#: Ring-buffer capacity (records, spans + events) of a default recorder.
DEFAULT_CAPACITY = 512

#: Schema tag written into every diagnostic bundle.
FLIGHT_SCHEMA = "rpcheck-flight/1"

#: Environment variable naming the incident-dump directory (unset = off).
FLIGHT_DIR_ENV = "RPCHECK_FLIGHT_DIR"


class FlightRecorder(Sink):
    """A bounded, thread-safe ring buffer of span/event records.

    An *enabled* sink (tracers built on it construct real records) whose
    memory is capped at ``capacity`` records — old records fall off the
    front, so the buffer always holds the most recent telemetry, which is
    what a post-mortem wants.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Directory incident bundles go to (``None`` = only the
        #: ``RPCHECK_FLIGHT_DIR`` environment variable can enable dumps).
        self.dump_dir: Optional[str] = None
        #: Bundles written so far (diagnostics about the diagnostics).
        self.dumps = 0

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._buffer.append(record)

    def records(self) -> List[Dict[str, Any]]:
        """A point-in-time copy of the buffered records (oldest first)."""
        with self._lock:
            return list(self._buffer)

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)

    def bundle(
        self,
        *,
        reason: str,
        error: Optional[BaseException] = None,
        metrics: Optional[Dict[str, Any]] = None,
        checkpoint: Optional[Dict[str, Any]] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The JSON-ready ``rpcheck-flight/1`` diagnostic bundle."""
        return {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "written_at": time.time(),
            "error": error_block(error),
            "env": {
                "python": platform.python_version(),
                "platform": platform.platform(),
                "pid": os.getpid(),
            },
            "records": self.records(),
            "metrics": metrics,
            "checkpoint": checkpoint,
            "context": context or {},
        }

    def dump(
        self,
        path: str,
        *,
        reason: str,
        error: Optional[BaseException] = None,
        metrics: Optional[Dict[str, Any]] = None,
        checkpoint: Optional[Dict[str, Any]] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> str:
        """Write the bundle to *path* (parent dirs created); returns *path*."""
        payload = self.bundle(
            reason=reason,
            error=error,
            metrics=metrics,
            checkpoint=checkpoint,
            context=context,
        )
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, default=repr)
            handle.write("\n")
        self.dumps += 1
        return path

    def __repr__(self) -> str:
        return f"FlightRecorder({len(self._buffer)}/{self.capacity} records)"


#: The process-wide recorder default sessions record into.
_AMBIENT = FlightRecorder()

#: Process-wide monotone bundle sequence (unique file names per process).
_DUMP_SEQ = 0
_DUMP_SEQ_LOCK = threading.Lock()


class SinkScope:
    """A request-scoped sink set: recorder, extra sinks, dump directory.

    While a scope is active (see :func:`sink_scope`), it *replaces* the
    process-ambient defaults for the current execution context:
    :func:`ambient_recorder` returns the scope's recorder, a
    :class:`ScopedSink` routes emits to the scope's recorder and extra
    sinks, and :func:`record_incident` dumps into the scope's
    ``dump_dir`` only — never into ``RPCHECK_FLIGHT_DIR`` — so
    concurrent requests cannot interleave each other's telemetry or
    incident bundles.
    """

    __slots__ = ("recorder", "sinks", "dump_dir", "context")

    def __init__(
        self,
        recorder: Optional[FlightRecorder] = None,
        *,
        sinks: Tuple[Sink, ...] = (),
        dump_dir: Optional[str] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.recorder = recorder if recorder is not None else FlightRecorder()
        self.sinks = tuple(sinks)
        self.dump_dir = dump_dir
        #: Ambient identification merged into every incident bundle's
        #: ``context`` (the serve daemon stamps ``request_id`` here, so a
        #: bundle is traceable back to the query that produced it).
        self.context = dict(context) if context else {}

    def emit(self, record: Dict[str, Any]) -> None:
        self.recorder.emit(record)
        for sink in self.sinks:
            sink.emit(record)

    def __repr__(self) -> str:
        return (
            f"SinkScope({self.recorder!r}, sinks={len(self.sinks)}, "
            f"dump_dir={self.dump_dir!r})"
        )


#: The active per-context sink scope (None = process-ambient defaults).
_SCOPE: "ContextVar[Optional[SinkScope]]" = ContextVar(
    "rpcheck_sink_scope", default=None
)


def current_sink_scope() -> Optional[SinkScope]:
    """The :class:`SinkScope` active in this execution context, if any."""
    return _SCOPE.get()


@contextmanager
def sink_scope(
    recorder: Optional[FlightRecorder] = None,
    *,
    sinks: Tuple[Sink, ...] = (),
    dump_dir: Optional[str] = None,
    context: Optional[Dict[str, Any]] = None,
) -> Iterator[SinkScope]:
    """Install a :class:`SinkScope` for the duration of the ``with`` body.

    Contextvar-carried, so it follows the logical execution context —
    across ``await`` points, and into worker threads entered via
    ``contextvars.copy_context()`` / ``asyncio.to_thread``.
    """
    scope = SinkScope(recorder, sinks=sinks, dump_dir=dump_dir, context=context)
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


class ScopedSink(Sink):
    """A sink that routes to the active :class:`SinkScope`, else a fallback.

    This is the tracer sink of a *shared* long-lived
    :class:`~repro.analysis.session.AnalysisSession` (the serve pool's):
    the session object is shared between requests, but every span/event
    it emits lands in the sink set of whichever request is executing —
    its private recorder, its streaming sink — and falls back to the
    process-wide recorder outside any scope.
    """

    enabled = True

    def __init__(self, fallback: Optional[Sink] = None) -> None:
        self.fallback = fallback

    def emit(self, record: Dict[str, Any]) -> None:
        scope = _SCOPE.get()
        if scope is not None:
            scope.emit(record)
        elif self.fallback is not None:
            self.fallback.emit(record)
        else:
            _AMBIENT.emit(record)


def ambient_recorder() -> FlightRecorder:
    """The ambient :class:`FlightRecorder` for this execution context.

    Inside a :func:`sink_scope` this is the scope's private recorder;
    otherwise the process-wide one.  This is the sink behind every
    :class:`~repro.analysis.session.AnalysisSession` constructed without
    an explicit ``tracer=`` — the "always on" half of the
    flight-recorder contract.
    """
    scope = _SCOPE.get()
    if scope is not None:
        return scope.recorder
    return _AMBIENT


def find_recorder(sink: Optional[Sink]) -> Optional[FlightRecorder]:
    """The first :class:`FlightRecorder` in *sink* (descending tee chains)."""
    if isinstance(sink, FlightRecorder):
        return sink
    for child in getattr(sink, "sinks", ()):
        found = find_recorder(child)
        if found is not None:
            return found
    return None


def _next_bundle_path(directory: str) -> str:
    global _DUMP_SEQ
    with _DUMP_SEQ_LOCK:
        _DUMP_SEQ += 1
        seq = _DUMP_SEQ
    return os.path.join(directory, f"flight-{os.getpid()}-{seq:03d}.json")


def record_incident(
    session: Any,
    error: BaseException,
    *,
    reason: Optional[str] = None,
    directory: Optional[str] = None,
    checkpoint: Optional[Dict[str, Any]] = None,
    context: Optional[Dict[str, Any]] = None,
) -> Optional[str]:
    """Dump a diagnostic bundle for *error*, if a dump target is configured.

    Resolution order for the target directory: the *directory* argument,
    then — inside a :func:`sink_scope` — the scope's ``dump_dir`` *only*
    (the process-ambient ``RPCHECK_FLIGHT_DIR`` is deliberately not
    consulted, so a daemon request without a dump dir stays quiet
    instead of spraying bundles into a process-wide directory); outside
    any scope, the recorder's own :attr:`~FlightRecorder.dump_dir`, then
    the ``RPCHECK_FLIGHT_DIR`` environment variable.  With no target
    this is a no-op returning ``None``.  The recorder is the scope's
    when one is active, else the one on *session*'s tracer, else the
    process ambient.  Idempotent per exception object; never raises (a
    failed post-mortem must not mask the original error).
    """
    existing = getattr(error, "_flight_bundle", None)
    if existing is not None:
        return existing
    try:
        scope = _SCOPE.get()
        recorder = None
        if scope is not None:
            recorder = scope.recorder
        if recorder is None:
            tracer = getattr(session, "tracer", None)
            if tracer is not None:
                recorder = find_recorder(getattr(tracer, "sink", None))
        if recorder is None:
            recorder = _AMBIENT
        if scope is not None:
            target = directory or scope.dump_dir
        else:
            target = (
                directory or recorder.dump_dir or os.environ.get(FLIGHT_DIR_ENV)
            )
        if not target:
            return None
        if scope is not None and scope.context:
            # scope identification (e.g. the serve request_id) underlies
            # the caller's explicit context, which wins on key clashes
            context = {**scope.context, **(context or {})}
        metrics = None
        registry = getattr(session, "metrics", None)
        if registry is not None:
            metrics = registry.as_dict()
        path = recorder.dump(
            _next_bundle_path(target),
            reason=reason or type(error).__name__,
            error=error,
            metrics=metrics,
            checkpoint=checkpoint,
            context=context,
        )
    except Exception:  # pragma: no cover - post-mortem must never mask
        return None
    try:
        error._flight_bundle = path  # type: ignore[attr-defined]
    except Exception:  # pragma: no cover - exceptions with __slots__
        pass
    return path
