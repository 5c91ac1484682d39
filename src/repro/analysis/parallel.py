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
with a resumable frontier — a window interrupted that way is not
adopted, and the pool is closed (see **Supervision**).  Lists adopted for states the loop does not reach before its cap
or ``stop_when`` stay cached for the next exploration.  The memory
ceiling samples the coordinator process only; worker footprints are
bounded by their successor caches.

Each answer carries its worker's counts for the slice (transitions,
cache hits, cache misses, seconds spent expanding), which the
coordinator records straight into the session registry under
``worker=i`` — so ``parallel.states_expanded{worker=i}``, worker cache
hit rates and per-answer expansion seconds land in the same artefacts
as every other metric.

**Tracing.**  Workers trace nothing.  When the session's tracer is on,
every window opens one ``parallel.window`` span under
``session.explore``; it records the coordinator's apply time and the
slowest worker of the window (``slowest_worker``,
``slowest_chunk_seconds`` = the most expansion seconds a worker reported,
the value ``parallel.worker_seconds`` records).

Start method: ``fork`` where available (Linux; ~3ms per worker), else
``spawn``; override with the ``RP_PARALLEL_START`` environment
variable.  Workers import nothing at runtime — everything they need is
imported when this module loads — which keeps ``fork`` safe even when
the pool is spawned from a threaded host like the serve daemon.

**Supervision.**  The pool only fills a cache, so its failures cost
speed, never an answer.  A worker dying (OOM kill, crash, operator
mistake) or hanging mid-window — seen by a liveness sweep whenever the
wait comes up empty, by EOF on its pipe, at dispatch, or by a
per-window heartbeat deadline — degrades the session: the pool is
closed, ``parallel.degraded`` and a flight-recorder incident record the
downgrade, and the same exploration pass goes on expanding in-process.
Nothing of the failed window was adopted, so the downgrade is invisible
in states, verdicts, checkpoints and ``peak_frontier``.  Assigning
:attr:`AnalysisSession.workers` re-arms the session.  Any other way a
sharded exploration ends early — a budget stop, a cancellation, a
worker's own error, a detected corruption — closes the pool before the
exception propagates, so no worker is left owing an answer to a window
nobody reads; the next sharded exploration spawns a fresh pool.
"""

from __future__ import annotations

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
from .explore import StateGraph

__all__ = [
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

#: Seconds of mid-window silence (no message from any worker while
#: slices are outstanding) before the workers still owing their slice
#: are declared hung.  Generous on purpose: a real slice takes
#: milliseconds, so a minute of silence is a wedged process, not a slow
#: one.
DEFAULT_WINDOW_HEARTBEAT = 60.0


class WorkerFailure(AnalysisError):
    """One or more exploration workers died or hung mid-exploration.

    Raised by :meth:`WorkerPool.check_alive` and the window's
    receive/dispatch paths; the hook :func:`explore_parallel` installs
    catches it and degrades the session to in-process expansion, so it
    only escapes to callers driving the pool directly.  ``indices``
    names the failed workers.
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


def _worker_main(connection, scheme_payload: Dict[str, Any]) -> None:
    """One exploration worker: expand slices until told to stop.

    Protocol (coordinator -> worker)::

        ("expand", [HState, ...])
        ("stop",)

    and back, one answer per slice::

        ("result", rows, (transitions, cache_hits, cache_misses, seconds))
        ("error", message)

    where ``rows[i]`` lists ``(label, target, rule, node, path, branch)``
    for the i-th state of the slice.  Targets travel by value; within
    one message pickle sends a repeated instance only once.
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
            try:
                started = time.perf_counter()
                hits_before = semantics.cache_hits
                misses_before = semantics.cache_misses
                rows = [
                    [
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
                    for state in message[1]
                ]
                counts = (
                    sum(map(len, rows)),
                    semantics.cache_hits - hits_before,
                    semantics.cache_misses - misses_before,
                    time.perf_counter() - started,
                )
                connection.send(("result", rows, counts))
            except Exception as error:  # ship the failure, then die
                try:
                    connection.send(("error", f"{type(error).__name__}: {error}"))
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

    __slots__ = ("index", "process", "connection")

    def __init__(self, index, process, connection) -> None:
        self.index = index
        self.process = process
        self.connection = connection


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
        #: Optional :class:`~repro.robust.ProcessFaultPlan` (chaos hook);
        #: consulted once per round by :meth:`inject_process_faults`.
        self.fault_plan = None
        #: SIGKILLs delivered on behalf of :attr:`fault_plan`.
        self.chaos_kills = 0
        self.workers: List[_WorkerHandle] = []
        context = get_context(self.start_method)
        payload = scheme_to_dict(scheme)
        try:
            for index in range(size):
                ours, theirs = context.Pipe()
                process = context.Process(
                    target=_worker_main,
                    args=(theirs, payload),
                    name=f"rpcheck-explore-{index}",
                    daemon=True,
                )
                process.start()
                theirs.close()
                self.workers.append(_WorkerHandle(index, process, ours))
        except Exception:
            self.close()
            raise

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

    def inject_process_faults(self) -> Tuple[int, ...]:
        """SIGKILL this round's victims per :attr:`fault_plan` (chaos hook).

        Returns the indices killed.  No-op without a plan.  Victims are
        killed *before* dispatch so the window exercises the real
        detect-and-degrade path; the kill is waited on so the liveness
        check cannot race a zombie that still reports alive.
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


def _record_counts(metrics, worker: int, states: int, counts) -> None:
    """Record one answer's counts under ``worker=<index>``."""
    transitions, hits, misses, seconds = counts
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
        "parallel.worker_seconds", "seconds a worker spent expanding one slice"
    ).labels(worker=label).observe(seconds)


def explore_parallel(session, max_states=None, *, stop_when=None) -> StateGraph:
    """Grow *session*'s shared graph, its successor lists computed by the pool.

    Ensures the session's :class:`WorkerPool` and runs the session's own
    exploration loop with a hook that, whenever the loop reaches a
    frontier state with no cached successor list, has the pool compute
    the next window of uncached frontier states (:func:`_fill_window`).
    The loop applies every expansion, so budgets, the overshoot rule and
    ``stop_when`` behave exactly as in a sequential run.  A worker
    failure degrades the session (:func:`_degrade`); any exception out
    of the loop closes the pool before it propagates.  Called by
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

    def fill() -> None:
        # once degraded, the loop expands locally
        if session._parallel_degraded:
            return
        try:
            _fill_window(session, pool, rounds_counter)
        except WorkerFailure as failure:
            _degrade(session, pool, failure)

    try:
        return session._explore(
            max_states, stop_when=stop_when, fill=fill, workers=pool.size
        )
    except BaseException:
        # an interrupted window leaves workers owing answers nobody will
        # read: close the pool, the next sharded exploration spawns anew
        session.close()
        raise


def _fill_window(session, pool, rounds_counter) -> None:
    """Compute one window of uncached frontier states and cache every list.

    The window is the first ``WINDOW_STATES_PER_WORKER * pool.size``
    frontier states whose successor lists are not cached yet; worker
    ``i`` expands the slice ``window[i::pool.size]`` and answers once.
    Only when the whole window has arrived is every list adopted into
    the session's :class:`~repro.core.semantics.MemoizingSemantics`, so
    an exception raised on the way leaves the cache as it was.
    """
    semantics = session.semantics
    metrics = session.metrics
    graph = session.graph
    queue = session._queue
    ambient = session.budget
    pool.check_alive()
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
    slowest_seconds, slowest_worker = 0.0, None
    lists: List[Optional[List[Transition]]] = [None] * len(window)
    with session.tracer.span(
        "parallel.window",
        round=pool.rounds,
        window=len(window),
        chunks=min(size, len(window)),
    ) as window_span:
        # connection -> handle of every worker whose slice has not arrived
        waiting: Dict[Any, _WorkerHandle] = {}
        for handle in pool.workers:
            if not slices[handle.index]:
                continue
            try:
                handle.connection.send(("expand", slices[handle.index]))
            except (OSError, ValueError) as exc:
                raise WorkerFailure(
                    f"exploration worker {handle.index} unreachable at "
                    f"dispatch: {exc}",
                    [handle.index],
                )
            waiting[handle.connection] = handle
        last_message = time.monotonic()
        while waiting:
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
                handle = waiting.pop(connection)
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    raise WorkerFailure(
                        f"exploration worker {handle.index} exited mid-window",
                        [handle.index],
                    )
                if message[0] == "error":
                    raise AnalysisError(
                        f"exploration worker {handle.index} failed: {message[1]}"
                    )
                _op, rows, counts = message
                _record_counts(metrics, handle.index, len(rows), counts)
                if counts[3] >= slowest_seconds:
                    slowest_seconds, slowest_worker = counts[3], handle.index
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
        window_span.set(
            apply_seconds=apply_seconds,
            slowest_chunk_seconds=slowest_seconds,
            slowest_worker=slowest_worker,
        )


def _degrade(session, pool, failure: WorkerFailure) -> None:
    """Close the pool and let the session expand in-process from now on.

    The same exploration pass computes the remaining successor lists
    locally, and so does every later one until
    :attr:`AnalysisSession.workers` is assigned again.  The downgrade is
    visible in ``parallel.degraded``, the flight recorder, and the run
    ledger's ``extra.parallel_degraded``.
    """
    record_incident(
        session,
        failure,
        reason="parallel exploration degraded to sequential",
        context={"workers": sorted(set(failure.indices)), "round": pool.rounds},
    )
    session.metrics.counter(
        "parallel.degraded",
        "sessions degraded to sequential exploration after a worker failure",
    ).inc()
    session.close()
    session._parallel_degraded = True
