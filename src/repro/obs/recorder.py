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
:mod:`repro.robust.governance`).  It keeps one rule: it dumps the
recorder that the session's tracer reaches (:func:`find_recorder`), into
that recorder's :attr:`~FlightRecorder.dump_dir`, else into the
``RPCHECK_FLIGHT_DIR`` directory; a tracer that reaches no recorder
dumps nothing.  With no target configured it is a no-op, so library
users never find surprise files on disk:

* the ``RPCHECK_FLIGHT_DIR`` environment variable names a directory
  (CI sets it for the tier-1 job and uploads the bundles on failure);
* the CLI points the run's recorder at the ledger's directory via
  :attr:`FlightRecorder.dump_dir` (bundles land next to the run ledger);
* the :mod:`repro.serve` daemon, given a flight directory, builds each
  query its own recorder with that ``dump_dir`` and a ``context`` naming
  the query's ``request_id`` and ``procedure``, and sets it on the
  pooled session's tracer for that query only.  Two overlapping
  faulting queries therefore dump *disjoint* bundles, each holding only
  its own records.

Dumping is idempotent per exception object: an error re-raised through
several instrumented layers produces one bundle, whose path is cached on
the exception as ``_flight_bundle``.
"""

from __future__ import annotations

import json
import os
import platform
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from ..errors import error_block
from .sinks import Sink

__all__ = [
    "DEFAULT_CAPACITY",
    "FLIGHT_SCHEMA",
    "FLIGHT_DIR_ENV",
    "FlightRecorder",
    "ambient_recorder",
    "find_recorder",
    "record_incident",
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

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        dump_dir: Optional[str] = None,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.capacity = capacity
        self._buffer: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        #: Directory incident bundles go to (``None`` = only the
        #: ``RPCHECK_FLIGHT_DIR`` environment variable can enable dumps).
        self.dump_dir = dump_dir
        #: Identification merged under every bundle's ``context`` (the
        #: serve daemon stamps ``request_id`` and ``procedure`` here, so a
        #: bundle is traceable back to the query that produced it).
        self.context = dict(context) if context else {}
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
            "context": {**self.context, **(context or {})},
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


def ambient_recorder() -> FlightRecorder:
    """The process-wide :class:`FlightRecorder`.

    This is the sink behind every
    :class:`~repro.analysis.session.AnalysisSession` constructed without
    an explicit ``tracer=`` — the "always on" half of the
    flight-recorder contract.
    """
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
    checkpoint: Optional[Dict[str, Any]] = None,
    context: Optional[Dict[str, Any]] = None,
) -> Optional[str]:
    """Dump a diagnostic bundle for *error*, if a dump target is configured.

    The bundle holds the records of the :class:`FlightRecorder` that
    *session*'s tracer reaches (:func:`find_recorder`) and goes to that
    recorder's :attr:`~FlightRecorder.dump_dir`, else to the
    ``RPCHECK_FLIGHT_DIR`` directory.  A tracer that reaches no
    recorder, or a recorder with neither target, dumps nothing and this
    returns ``None``.  The recorder's ``context`` underlies *context*,
    which wins on key clashes.  Idempotent per exception object; never
    raises (a failed post-mortem must not mask the original error).
    """
    existing = getattr(error, "_flight_bundle", None)
    if existing is not None:
        return existing
    try:
        tracer = getattr(session, "tracer", None)
        recorder = find_recorder(getattr(tracer, "sink", None))
        if recorder is None:
            return None
        target = recorder.dump_dir or os.environ.get(FLIGHT_DIR_ENV)
        if not target:
            return None
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
