"""Sharded successor computation for ``M_G`` (``AnalysisSession(workers=N)``).

Every decision procedure funnels through one BFS over the reachable
fragment of ``M_G``, and the session's exploration loop
(:meth:`~repro.analysis.AnalysisSession._explore`) is the only code that
applies an expansion to the shared graph.  This module spreads the
expensive half of that BFS — successor computation — across a
``multiprocessing`` worker pool by filling the session's successor cache
ahead of the loop:

1. when the loop is about to expand a frontier state whose successor
   list is not cached yet, it calls the hook :func:`explore_parallel`
   gave it; the hook takes the next *window* of uncached frontier states
   (:data:`WINDOW_STATES_PER_WORKER` × the worker count) and sends
   worker ``i`` the slice ``window[i::N]`` — one message per worker per
   window;
2. each worker runs its own :class:`~repro.core.semantics.
   MemoizingSemantics` over its own copy of the scheme and answers with
   one message: the successor rows of its slice, target states by value,
   plus four counts;
3. the coordinator maps every shipped target onto its canonical instance
   in the session's intern table (:meth:`WorkerPool.adopt`), and once
   the **whole window** has arrived it adopts each list into the
   session's successor cache
   (:meth:`~repro.core.semantics.MemoizingSemantics.adopt_successors`).
   The loop then expands the window's states from the cache.

Determinism needs nothing from this module: the loop pops, appends,
checks budgets and evaluates ``stop_when`` exactly as in a sequential
run, so the grown graph (states, discovery order, transitions, peak
frontier) is the sequential one for any worker count.  Scheduling and
message arrival order only decide *when* a list reaches the cache.  The
``rpcheck-checkpoint/1`` format therefore round-trips unchanged: a
parallel run checkpoints a clean BFS prefix that a sequential run
resumes, and vice versa.

Budget governance stays with the loop, which checks the ambient
:class:`~repro.robust.Budget` once per expansion; the hook also checks it
while waiting for workers, so a deadline, state cap, memory ceiling or
cancellation surfaces as the usual :class:`~repro.errors.BudgetExhausted`
with a resumable frontier — a window interrupted that way is simply not
adopted.  Lists adopted for states the loop does not reach before its cap
or ``stop_when`` stay cached for the next exploration.  The memory
ceiling samples the coordinator process only; worker footprints are
bounded by their successor caches.

Each answer carries its worker's counts for the slice (transitions,
cache hits, cache misses, busy seconds), which the coordinator records
straight into the session registry under ``worker=i`` — so
``parallel.states_expanded{worker=i}``, worker cache hit rates and
per-answer busy seconds land in the same artefacts as every other
metric.

**Tracing.**  When the session's tracer is on, every window opens a
``parallel.window`` span under ``session.explore`` and each slice carries
the window's ``traceparent`` to its worker, which runs a buffering
:class:`~repro.obs.tracer.Tracer` around the expansion (one
``parallel.chunk`` span) and ships the finished records back with its
answer.  The coordinator buffers the shipped records until the window
**commits**, then re-bases their span ids into its own tracer's id space
and re-parents them under the window span — one trace covers
coordinator and workers with correct OTLP parent links, and a window
replayed after a worker death traces its chunks exactly once (the
abandoned attempt's payloads are voided with its rows).  With tracing
off the slices say so and workers skip every tracing allocation,
keeping the <5% overhead bar.

Start method: ``fork`` where available (Linux; ~3ms per worker), else
``spawn``; override with the ``RP_PARALLEL_START`` environment
variable.  Workers import nothing at runtime — everything they need is
imported when this module loads — which keeps ``fork`` safe even when
the pool is spawned from a threaded host like the serve daemon.

**Supervision.**  A worker process dying (OOM kill, crash, operator
mistake) or hanging mid-window does not fail the query.  The hook
detects the failure — a liveness sweep whenever the wait comes up empty
plus a per-window heartbeat deadline for hung-but-alive workers —
respawns the failed worker and computes the window again in a new round.
A survivor's answer to the abandoned round is dropped when it is read:
its round id is stale.  Nothing of the failed attempt was adopted, so
recovery happens inside the same ``session.explore`` pass and is
invisible in states, verdicts, checkpoints and ``peak_frontier``.  After
a bounded respawn budget (``AnalysisSession(max_worker_restarts=...)``,
default ``DEFAULT_MAX_WORKER_RESTARTS``) the session degrades instead:
the pool is reaped and the same loop computes the remaining successor
lists in-process — slower, never wrong, never a failed query — and the
downgrade is recorded in metrics (``parallel.degraded``) and the run
ledger.  Every recovery shows up as ``parallel.worker_restarts`` /
``parallel.windows_replayed`` counters and a flight-recorder incident.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import time
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Dict, List, Optional, Tuple

from ..core.hstate import HState
from ..core.semantics import MemoizingSemantics, Transition
from ..core.serialize import scheme_from_dict, scheme_to_dict
from ..errors import AnalysisError
from ..obs.recorder import record_incident
from ..obs.sinks import MemorySink
from ..obs.tracer import TraceContext, Tracer, trace_context
from .explore import StateGraph

__all__ = [
    "DEFAULT_MAX_WORKER_RESTARTS",
    "DEFAULT_WINDOW_HEARTBEAT",
    "START_METHOD_ENV",
    "WINDOW_STATES_PER_WORKER",
    "WorkerFailure",
    "WorkerPool",
    "default_start_method",
    "explore_parallel",
]

#: Window size in frontier states per worker: each worker gets one
#: slice of at most this many states per window.  Large enough that a
#: message's fixed cost is spread over real work, small enough that a
#: window interrupted by the budget wastes little work and that the
#: loop, which waits for whole windows, is not held up long.
WINDOW_STATES_PER_WORKER = 128

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "RP_PARALLEL_START"

#: Seconds between budget checks while waiting on worker results.
_WAIT_INTERVAL = 0.05

#: Seconds to wait for a worker to exit cleanly before terminating it.
_JOIN_TIMEOUT = 2.0

#: Worker respawns a session tolerates before degrading to sequential
#: exploration (override per session with ``max_worker_restarts=``).
DEFAULT_MAX_WORKER_RESTARTS = 3

#: Seconds of mid-window silence (no message from any worker while
#: slices are outstanding) before the workers still owing their slice
#: are declared hung and respawned.  Generous on purpose: a real slice
#: takes milliseconds, so a minute of silence is a wedged process, not
#: a slow one.
DEFAULT_WINDOW_HEARTBEAT = 60.0


class WorkerFailure(AnalysisError):
    """One or more exploration workers died or hung mid-exploration.

    Raised by :meth:`WorkerPool.check_alive` and the window's
    receive/dispatch paths; the hook :func:`explore_parallel` installs
    catches it and recovers (respawn + window replay) within the
    session's respawn budget, so it only escapes to callers driving the
    pool directly.  ``indices`` names the failed workers.
    """

    def __init__(self, message: str, indices) -> None:
        super().__init__(message)
        self.indices: Tuple[int, ...] = tuple(indices)


def default_start_method() -> str:
    """The multiprocessing start method the pool will use.

    ``RP_PARALLEL_START`` wins when set; otherwise ``fork`` where the
    platform offers it (cheap, shares the already-imported interpreter),
    falling back to ``spawn``.
    """
    methods = get_all_start_methods()
    override = os.environ.get(START_METHOD_ENV)
    if override:
        if override not in methods:
            raise AnalysisError(
                f"{START_METHOD_ENV}={override!r} is not a supported start "
                f"method (available: {', '.join(methods)})"
            )
        return override
    return "fork" if "fork" in methods else "spawn"


# ----------------------------------------------------------------------
# Worker side (runs in the child process)
# ----------------------------------------------------------------------


def _worker_main(connection, scheme_payload: Dict[str, Any], index: int) -> None:
    """One exploration worker: expand slices until told to stop.

    Protocol (coordinator -> worker)::

        ("expand", round_id, [HState, ...], trace_info)
        ("stop",)

    and back, one answer per slice::

        ("result", round_id, rows,
         (transitions, cache_hits, cache_misses, busy_seconds),
         trace_payload)
        ("error", round_id, message)

    where ``rows[i]`` lists ``(label, target, rule, node, path, branch)``
    for the i-th state of the slice.  Targets travel by value; within
    one message pickle sends a repeated instance only once.

    ``trace_info`` is ``None`` when the coordinator's tracer is off
    (the worker then pays nothing for tracing and ships
    ``trace_payload=None``); otherwise it is a dict carrying the
    propagated ``traceparent``, and the worker runs a buffering
    :class:`~repro.obs.tracer.Tracer` around the expansion — one
    ``parallel.chunk`` span — shipping the finished records back as
    ``trace_payload = {"anchor": <epoch - perf_counter>, "records":
    [...]}`` for the coordinator to re-base into its own span-id space.
    """
    import signal

    try:
        # the coordinator owns interruption; workers die via "stop",
        # closed pipes, or their daemon flag
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic hosts
        pass
    scheme = scheme_from_dict(scheme_payload)
    semantics = MemoizingSemantics(scheme)
    try:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            _op, round_id, states, trace_info = message
            try:
                started = time.perf_counter()
                hits_before = semantics.cache_hits
                misses_before = semantics.cache_misses
                rows = []
                fired = 0
                trace_sink = None
                with contextlib.ExitStack() as stack:
                    if trace_info is not None:
                        trace_sink = MemorySink()
                        tracer = Tracer(trace_sink)
                        stack.enter_context(
                            trace_context(
                                TraceContext.from_traceparent(
                                    trace_info.get("traceparent")
                                )
                            )
                        )
                        chunk_span = stack.enter_context(
                            tracer.span(
                                "parallel.chunk",
                                worker=index,
                                round=round_id,
                                chunk=index,
                                states=len(states),
                            )
                        )
                    for state in states:
                        row = [
                            (
                                transition.label,
                                transition.target,
                                transition.rule,
                                transition.node,
                                transition.path,
                                transition.branch,
                            )
                            for transition in semantics.successors(state)
                        ]
                        fired += len(row)
                        rows.append(row)
                    if trace_info is not None:
                        chunk_span.set(transitions=fired)
                trace_payload = None
                if trace_sink is not None:
                    trace_payload = {
                        "anchor": time.time() - time.perf_counter(),
                        "records": trace_sink.snapshot(),
                    }
                counts = (
                    fired,
                    semantics.cache_hits - hits_before,
                    semantics.cache_misses - misses_before,
                    time.perf_counter() - started,
                )
                connection.send(("result", round_id, rows, counts, trace_payload))
            except Exception as error:  # ship the failure, then die
                try:
                    connection.send(
                        ("error", round_id, f"{type(error).__name__}: {error}")
                    )
                except (OSError, ValueError):
                    pass
                raise
    finally:
        try:
            connection.close()
        except OSError:  # pragma: no cover - already gone
            pass


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class _WorkerHandle:
    """Coordinator-side view of one worker process."""

    __slots__ = ("index", "process", "connection", "busy")

    def __init__(self, index, process, connection) -> None:
        self.index = index
        self.process = process
        self.connection = connection
        #: Whether the worker holds a slice it has not answered yet.  It
        #: stays true past a window abandoned by another worker's
        #: failure, until the stale answer is read.
        self.busy = False


class WorkerPool:
    """A pool of exploration workers for one scheme.

    Pools are cheap to keep warm (idle workers block in ``recv``) and
    are reused across explorations of the owning session; they are
    **not** thread-safe — like the session itself, which its callers
    use from one thread at a time (the serve daemon holds a lock per
    pooled scheme around each query).
    """

    def __init__(
        self,
        scheme,
        size: int,
        *,
        start_method: Optional[str] = None,
        heartbeat: Optional[float] = DEFAULT_WINDOW_HEARTBEAT,
    ) -> None:
        if not isinstance(size, int) or isinstance(size, bool) or size < 1:
            raise AnalysisError(f"worker pool size must be a positive int, got {size!r}")
        self.scheme = scheme
        self.size = size
        self.start_method = start_method or default_start_method()
        self.closed = False
        #: Per-window hang deadline (seconds of silence; ``None`` = off).
        self.heartbeat = heartbeat
        #: Window-synchronous rounds run through this pool.
        self.rounds = 0
        #: Workers respawned after a death or hang (see :meth:`respawn`).
        self.restarts = 0
        #: Optional :class:`~repro.robust.ProcessFaultPlan` (chaos hook);
        #: consulted once per round by :meth:`inject_process_faults`.
        self.fault_plan = None
        #: SIGKILLs delivered on behalf of :attr:`fault_plan`.
        self.chaos_kills = 0
        self.workers: List[_WorkerHandle] = []
        self._round_seq = itertools.count(1)
        self._context = get_context(self.start_method)
        self._payload = scheme_to_dict(scheme)
        try:
            for index in range(size):
                process, ours = self._spawn(index)
                self.workers.append(_WorkerHandle(index, process, ours))
        except Exception:
            self.close()
            raise

    def _spawn(self, index: int):
        """Start one worker process; returns ``(process, connection)``."""
        ours, theirs = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(theirs, self._payload, index),
            name=f"rpcheck-explore-{index}",
            daemon=True,
        )
        process.start()
        theirs.close()
        return process, ours

    # ------------------------------------------------------------------

    def adopt(self, state: HState, semantics: MemoizingSemantics) -> HState:
        """The canonical coordinator instance for a worker-shipped state.

        Any signature the state carries unpickled to this process's
        interned instance (``Signature.__reduce__``).
        """
        return semantics.intern(state)

    def check_alive(self) -> None:
        """Raise :class:`WorkerFailure` naming every dead worker."""
        dead = [
            handle
            for handle in self.workers
            if not handle.process.is_alive()
        ]
        if not dead:
            return
        detail = ", ".join(
            f"{handle.index} (exit code {handle.process.exitcode})"
            for handle in dead
        )
        raise WorkerFailure(
            f"exploration worker(s) died: {detail}",
            [handle.index for handle in dead],
        )

    def respawn(self, indices) -> None:
        """Replace the workers at *indices* with fresh processes.

        A hung-but-alive worker is SIGKILLed before its slot is reused.
        """
        for index in indices:
            handle = self.workers[index]
            process = handle.process
            if process.is_alive():  # hung, not dead: reap it ourselves
                process.kill()
            process.join(_JOIN_TIMEOUT)
            try:
                handle.connection.close()
            except OSError:  # pragma: no cover - already gone
                pass
            handle.process, handle.connection = self._spawn(index)
            handle.busy = False
            self.restarts += 1

    def inject_process_faults(self) -> Tuple[int, ...]:
        """SIGKILL this round's victims per :attr:`fault_plan` (chaos hook).

        Returns the indices killed.  No-op without a plan.  Victims are
        killed *before* dispatch so the window exercises the real
        detect/respawn/replay path; the kill is waited on so the
        liveness check cannot race a zombie that still reports alive.
        """
        plan = self.fault_plan
        if plan is None:
            return ()
        remaining = plan.max_kills - self.chaos_kills
        if remaining <= 0:
            return ()
        victims = plan.victims(self.rounds, self.size)[:remaining]
        for index in victims:
            process = self.workers[index].process
            if process.is_alive():
                process.kill()
                process.join(_JOIN_TIMEOUT)
                self.chaos_kills += 1
        return victims

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop and reap every worker (idempotent, bounded).

        Escalation ladder per worker: cooperative ``("stop",)`` →
        ``terminate()`` (SIGTERM) → ``kill()`` (SIGKILL), each given
        ``_JOIN_TIMEOUT`` seconds — so shutdown is bounded even with a
        wedged (e.g. SIGSTOPped) worker that ignores SIGTERM.
        Connections are closed unconditionally.
        """
        if self.closed:
            return
        self.closed = True
        for handle in self.workers:
            try:
                handle.connection.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for handle in self.workers:
            try:
                handle.process.join(_JOIN_TIMEOUT)
                if handle.process.is_alive():  # pragma: no cover - stuck worker
                    handle.process.terminate()
                    handle.process.join(_JOIN_TIMEOUT)
                if handle.process.is_alive():  # pragma: no cover - wedged worker
                    handle.process.kill()
                    handle.process.join(_JOIN_TIMEOUT)
            finally:
                try:
                    handle.connection.close()
                except OSError:  # pragma: no cover - already gone
                    pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self.size} workers"
        return f"WorkerPool({self.scheme.name!r}, {state}, {self.start_method})"


# ----------------------------------------------------------------------
# The window hook of the session's explore loop
# ----------------------------------------------------------------------


def _flush_window_trace(tracer, window_span, batches, coord_anchor) -> None:
    """Re-base worker chunk records into the coordinator's trace.

    Worker tracers allocate span ids from 1 in their own processes, so
    shipped records cannot be emitted as-is: each batch's span ids are
    remapped onto a freshly reserved block of the coordinator tracer's
    id space (:meth:`~repro.obs.tracer.Tracer.reserve_ids`), in-batch
    ``parent`` links and event ``span`` references are rewritten through
    the same mapping, batch roots are re-parented under the enclosing
    ``parallel.window`` span, and every record adopts the window's
    :class:`~repro.obs.tracer.TraceContext` — so one trace spans
    coordinator and workers with consistent OTLP ids.  Worker clocks are
    aligned by shifting ``start``/``time`` by the difference of the two
    processes' epoch anchors.

    Called only after a window *commits*: batches from a window
    abandoned by a worker failure are dropped with the window's rows,
    which is what makes replayed windows trace exactly once.
    """
    trace = window_span.trace
    sink = tracer.sink
    for batch in batches:
        records = batch.get("records") or []
        shift = float(batch.get("anchor", coord_anchor)) - coord_anchor
        span_records = [r for r in records if r.get("type") == "span"]
        base = tracer.reserve_ids(len(span_records))
        mapping = {}
        for offset, record in enumerate(span_records):
            mapping[record.get("id")] = base + offset
        for record in records:
            record = dict(record)
            kind = record.get("type")
            if kind == "span":
                record["id"] = mapping[record["id"]]
                parent = record.get("parent")
                record["parent"] = (
                    mapping.get(parent, window_span.span_id)
                    if parent is not None
                    else window_span.span_id
                )
                record["start"] = float(record.get("start") or 0.0) + shift
                record.pop("remote_parent", None)
                record["trace"] = trace.trace_id
                record["span_base"] = trace.span_base
            elif kind == "event":
                record["span"] = mapping.get(
                    record.get("span"), window_span.span_id
                )
                record["time"] = float(record.get("time") or 0.0) + shift
            else:
                continue
            sink.emit(record)


def _chunk_wall(batch) -> Tuple[float, Optional[int]]:
    """(wall seconds, worker) of a shipped chunk's root span."""
    for record in batch.get("records") or ():
        if record.get("type") == "span" and record.get("name") == "parallel.chunk":
            attrs = record.get("attrs") or {}
            wall = record.get("wall")
            return (
                float(wall) if isinstance(wall, (int, float)) else 0.0,
                attrs.get("worker"),
            )
    return 0.0, None


def _record_counts(metrics, worker: int, states: int, counts) -> None:
    """Record one answer's counts under ``worker=<index>``."""
    transitions, hits, misses, busy_seconds = counts
    label = str(worker)
    for name, description, value in (
        ("parallel.states_expanded", "states expanded by sharded workers", states),
        (
            "parallel.transitions",
            "successor transitions computed by sharded workers",
            transitions,
        ),
        ("parallel.worker_cache_hits", "worker-local successor-cache hits", hits),
        (
            "parallel.worker_cache_misses",
            "worker-local successor-cache misses",
            misses,
        ),
    ):
        metrics.counter(name, description).labels(worker=label).inc(value)
    metrics.histogram(
        "parallel.worker_seconds", "per-chunk worker busy time"
    ).labels(worker=label).observe(busy_seconds)


def explore_parallel(session, max_states=None, *, stop_when=None) -> StateGraph:
    """Grow *session*'s shared graph, its successor lists computed by the pool.

    Ensures the session's :class:`WorkerPool` and runs the session's own
    exploration loop with a hook that, whenever the loop reaches a
    frontier state with no cached successor list, has the pool compute
    the next window of uncached frontier states (:func:`_fill_window`).
    The loop applies every expansion, so budgets, the overshoot rule and
    ``stop_when`` behave exactly as in a sequential run.  Called by
    :meth:`~repro.analysis.AnalysisSession.explore` when ``workers > 1``;
    not part of the public API.
    """
    if not session._queue:
        return session.graph
    pool = session._ensure_pool()
    metrics = session.metrics
    metrics.gauge(
        "parallel.workers", "worker processes of the sharded explorer"
    ).set(pool.size)
    rounds_counter = metrics.counter(
        "parallel.rounds", "window-synchronous exploration rounds"
    )
    metrics.counter(
        "parallel.worker_restarts",
        "exploration workers respawned after a death or hang",
    )
    metrics.counter(
        "parallel.windows_replayed",
        "frontier windows replayed after a worker failure",
    )

    def fill() -> None:
        # nothing of a failed window was adopted, so recovery is just
        # computing it again; once degraded, the loop expands locally
        while not session._parallel_degraded:
            try:
                return _fill_window(session, pool, rounds_counter)
            except WorkerFailure as failure:
                _recover(session, pool, failure)

    return session._explore(
        max_states, stop_when=stop_when, fill=fill, workers=pool.size
    )


def _fill_window(session, pool, rounds_counter) -> None:
    """Compute one window of uncached frontier states and cache every list.

    The window is the first ``WINDOW_STATES_PER_WORKER * pool.size``
    frontier states whose successor lists are not cached yet; worker
    ``i`` expands the slice ``window[i::pool.size]`` and answers once.
    A worker still owing an abandoned round's answer gets its slice when
    that stale answer has been read, so the coordinator never sends to a
    worker that may be blocked sending.  Only when the whole window has
    arrived is every list adopted into the session's
    :class:`~repro.core.semantics.MemoizingSemantics` and every chunk
    span flushed into the trace, so a :class:`WorkerFailure` raised on
    the way leaves the cache and the trace as they were.
    """
    semantics = session.semantics
    metrics = session.metrics
    graph = session.graph
    queue = session._queue
    ambient = session.budget
    tracer = session.tracer
    coord_anchor = time.time() - time.perf_counter()
    pool.check_alive()
    round_id = next(pool._round_seq)
    pool.rounds += 1
    rounds_counter.inc()
    if pool.inject_process_faults():
        pool.check_alive()
    size = pool.size
    window = list(
        itertools.islice(
            (state for state in queue if not semantics.is_cached(state)),
            WINDOW_STATES_PER_WORKER * size,
        )
    )
    slices = [window[index::size] for index in range(size)]

    apply_seconds = 0.0
    #: chunk trace payloads buffered until the window commits (a
    #: replayed window must trace its chunks exactly once, so nothing is
    #: emitted while a worker could still die)
    span_batches: List[Dict[str, Any]] = []
    lists: List[Optional[List[Transition]]] = [None] * len(window)
    with tracer.span(
        "parallel.window",
        round=round_id,
        window=len(window),
        chunks=min(size, len(window)),
    ) as window_span:
        trace_info = (
            {
                "traceparent": window_span.trace.child(
                    window_span.span_id
                ).to_traceparent()
            }
            if tracer.enabled
            else None
        )
        # connection -> handle of every worker whose slice has not arrived
        waiting: Dict[Any, _WorkerHandle] = {
            handle.connection: handle
            for handle in pool.workers
            if slices[handle.index]
        }
        last_message = time.monotonic()
        while waiting:
            for handle in waiting.values():
                if handle.busy:
                    # it still owes an abandoned round's answer, and may
                    # be blocked sending it: read that before sending
                    continue
                try:
                    handle.connection.send(
                        ("expand", round_id, slices[handle.index], trace_info)
                    )
                except (OSError, ValueError) as exc:
                    raise WorkerFailure(
                        f"exploration worker {handle.index} unreachable at "
                        f"dispatch: {exc}",
                        [handle.index],
                    )
                handle.busy = True
            ready = _wait_ready(list(waiting), _WAIT_INTERVAL)
            if not ready:
                # nothing arrived: keep the budget honest and notice dead
                # or hung workers instead of hanging
                if ambient is not None:
                    ambient.check(
                        states=len(graph.states),
                        frontier=len(queue),
                        expanded=session._expanded,
                    )
                pool.check_alive()
                if (
                    pool.heartbeat is not None
                    and time.monotonic() - last_message > pool.heartbeat
                ):
                    hung = sorted(handle.index for handle in waiting.values())
                    raise WorkerFailure(
                        f"exploration worker(s) {hung} silent past the "
                        f"{pool.heartbeat:g}s window heartbeat",
                        hung,
                    )
                continue
            last_message = time.monotonic()
            for connection in ready:
                handle = waiting[connection]
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    raise WorkerFailure(
                        f"exploration worker {handle.index} exited mid-round",
                        [handle.index],
                    )
                handle.busy = False
                if message[0] == "error":
                    raise AnalysisError(
                        f"exploration worker {handle.index} failed: {message[2]}"
                    )
                _op, rid, rows, counts, chunk_trace = message
                _record_counts(metrics, handle.index, len(rows), counts)
                if rid != round_id:
                    continue  # abandoned round: rows (and spans) are void
                del waiting[connection]
                if chunk_trace is not None:
                    span_batches.append(chunk_trace)
                apply_started = time.perf_counter()
                adopt = pool.adopt
                lists[handle.index :: size] = [
                    [
                        Transition(
                            state,
                            label,
                            adopt(target, semantics),
                            rule,
                            node,
                            path,
                            branch,
                        )
                        for label, target, rule, node, path, branch in row
                    ]
                    for state, row in zip(slices[handle.index], rows)
                ]
                apply_seconds += time.perf_counter() - apply_started

        # the whole window arrived: it commits
        apply_started = time.perf_counter()
        for state, transitions in zip(window, lists):
            semantics.adopt_successors(state, transitions)
        apply_seconds += time.perf_counter() - apply_started
        slowest = max(
            map(_chunk_wall, span_batches), key=lambda c: c[0], default=(0.0, None)
        )
        window_span.set(
            apply_seconds=apply_seconds,
            slowest_chunk_seconds=slowest[0],
            slowest_worker=slowest[1],
        )
    # re-base the committed window's chunk spans into the coordinator's
    # id space under the window span
    if span_batches:
        _flush_window_trace(tracer, window_span, span_batches, coord_anchor)


def _recover(session, pool, failure) -> None:
    """Respawn *failure*'s workers, or degrade the session to local expansion.

    After a respawn the caller recomputes the failed window in a new
    round.  Once the respawn budget is spent, the pool is reaped and the
    session marked degraded instead: the same exploration pass goes on
    computing successors in-process, and so does every later one until
    :attr:`AnalysisSession.workers` is assigned again.  The downgrade is
    visible in ``parallel.degraded``, the flight recorder, and the run
    ledger's ``extra.parallel_degraded``.
    """
    metrics = session.metrics
    indices = sorted(set(failure.indices))
    restart_limit = session.max_worker_restarts
    if restart_limit is None:
        restart_limit = DEFAULT_MAX_WORKER_RESTARTS
    if session._worker_restarts + len(indices) > restart_limit:
        record_incident(
            session,
            failure,
            reason="parallel exploration degraded to sequential",
            context={
                "workers": indices,
                "restarts": session._worker_restarts,
                "restart_limit": restart_limit,
            },
        )
        metrics.counter(
            "parallel.degraded",
            "sessions degraded to sequential exploration after exhausting "
            "the worker-respawn budget",
        ).inc()
        session.close()  # reap the surviving workers
        session._parallel_degraded = True
        return
    record_incident(
        session,
        failure,
        reason="exploration worker failure",
        context={
            "workers": indices,
            "round": pool.rounds,
            "restarts_before": session._worker_restarts,
        },
    )
    pool.respawn(indices)
    session._worker_restarts += len(indices)
    metrics.counter(
        "parallel.worker_restarts",
        "exploration workers respawned after a death or hang",
    ).inc(len(indices))
    metrics.counter(
        "parallel.windows_replayed",
        "frontier windows replayed after a worker failure",
    ).inc()
