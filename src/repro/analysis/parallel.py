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
   (:data:`DEFAULT_CHUNK_STATES` × :data:`WINDOW_CHUNKS_PER_WORKER` × the
   worker count), shards them by state-signature hash into chunks, and
   hands chunks to workers — a worker that drains its own shard
   **steals** chunks from the largest remaining shard, so an uneven
   signature distribution cannot idle half the pool;
2. each worker runs its own :class:`~repro.core.semantics.
   MemoizingSemantics` over its own copy of the scheme and returns, per
   chunk, the successor rows plus a batch of **newly announced states**
   (ref-interned: a state crosses the pipe at most once per worker,
   repeats travel as integers);
3. the coordinator maps every announced state onto its canonical
   instance in the session's intern table, and once the **whole window**
   has arrived it adopts each list into the session's successor cache
   (:meth:`~repro.core.semantics.MemoizingSemantics.adopt_successors`).
   The loop then expands the window's states from the cache.

Determinism needs nothing from this module: the loop pops, appends,
checks budgets and evaluates ``stop_when`` exactly as in a sequential
run, so the grown graph (states, discovery order, transitions, peak
frontier) is the sequential one for any worker count.  Scheduling,
stealing and message arrival order only decide *when* a list reaches the
cache.  The ``rpcheck-checkpoint/1`` format therefore round-trips
unchanged: a parallel run checkpoints a clean BFS prefix that a
sequential run resumes, and vice versa.

Budget governance stays with the loop, which checks the ambient
:class:`~repro.robust.Budget` once per expansion; the hook also checks it
while waiting for workers, so a deadline, state cap, memory ceiling or
cancellation surfaces as the usual :class:`~repro.errors.BudgetExhausted`
with a resumable frontier — a window interrupted that way is simply not
adopted.  Lists adopted for states the loop does not reach before its cap
or ``stop_when`` stay cached for the next exploration.  The memory
ceiling samples the coordinator process only; worker footprints are
bounded by their successor caches.

Workers report their counters through the established registry
``merge()`` contract (docs/observability.md): each result message
carries a delta ``MetricsRegistry.as_dict()`` snapshot that the
coordinator rebuilds via :func:`~repro.obs.registry_from_dict` and folds
into the session registry, so ``parallel.states_expanded{worker=i}``,
worker cache hit rates and per-chunk busy seconds land in the same
artefacts as every other metric.

**Tracing.**  When the session's tracer is on, every window opens a
``parallel.window`` span under ``session.explore`` and each dispatched
chunk carries the window's ``traceparent`` to its worker, which runs a
buffering :class:`~repro.obs.tracer.Tracer` around the expansion (a
``parallel.chunk`` span with per-shard steal/exchange events) and ships
the finished records back with its result.  The coordinator buffers the
shipped records until the window **commits**, then re-bases their span
ids into its own tracer's id space and re-parents them under the window
span — one trace covers coordinator and workers with correct OTLP
parent links, and a window replayed after a worker death traces its
chunks exactly once (the abandoned attempt's payloads are voided with
its rows).  With tracing off the dispatch messages say so and workers
skip every tracing allocation, keeping the <5% overhead bar.

Start method: ``fork`` where available (Linux; ~3ms per worker), else
``spawn``; override with the ``RP_PARALLEL_START`` environment
variable.  Workers import nothing at runtime — everything they need is
imported when this module loads — which keeps ``fork`` safe even when
the pool is spawned from a threaded host like the serve daemon.

**Supervision.**  A worker process dying (OOM kill, crash, operator
mistake) or hanging mid-window does not fail the query.  The hook
detects the failure — a liveness check on every wait-loop tick plus a
per-window heartbeat deadline for hung-but-alive workers — drains the
surviving messages of the other workers (announcements already on the
wire register exactly once), respawns the failed worker and rebuilds its
ref table from the coordinator's mirror, then computes the window again
in a new round.  Nothing of the failed attempt was adopted, so recovery
happens inside the same ``session.explore`` pass and is invisible in
states, verdicts, checkpoints and ``peak_frontier``.  After a bounded
respawn budget (``AnalysisSession(max_worker_restarts=...)``, default
``DEFAULT_MAX_WORKER_RESTARTS``) the session degrades instead: the pool
is reaped and the same loop computes the remaining successor lists
in-process — slower, never wrong, never a failed query — and the
downgrade is recorded in metrics (``parallel.degraded``) and the run
ledger.  Every recovery shows up as ``parallel.worker_restarts`` /
``parallel.windows_replayed`` counters and a flight-recorder incident.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import time
from collections import deque
from multiprocessing import get_all_start_methods, get_context
from multiprocessing.connection import wait as _wait_ready
from typing import Any, Dict, List, Optional, Tuple

from ..core.hstate import HState, Signature
from ..core.semantics import MemoizingSemantics, Transition
from ..core.serialize import scheme_from_dict, scheme_to_dict
from ..errors import AnalysisError
from ..obs.metrics import MetricsRegistry, registry_from_dict
from ..obs.recorder import record_incident
from ..obs.sinks import MemorySink
from ..obs.tracer import TraceContext, Tracer, trace_context
from .explore import StateGraph

__all__ = [
    "DEFAULT_CHUNK_STATES",
    "DEFAULT_MAX_WORKER_RESTARTS",
    "DEFAULT_WINDOW_HEARTBEAT",
    "START_METHOD_ENV",
    "WINDOW_CHUNKS_PER_WORKER",
    "WorkerFailure",
    "WorkerPool",
    "default_start_method",
    "explore_parallel",
]

#: Frontier states per work chunk (one message each way per chunk).
DEFAULT_CHUNK_STATES = 32

#: Window size in chunks per worker: large enough that stealing has
#: something to steal and the coordinator's handling of arrived chunks
#: overlaps compute, small enough that a window interrupted by the
#: budget wastes little work and that the loop, which waits for whole
#: windows, is not held up long.
WINDOW_CHUNKS_PER_WORKER = 4

#: Environment variable overriding the multiprocessing start method.
START_METHOD_ENV = "RP_PARALLEL_START"

#: Chunks a worker may have in flight (double-buffering hides dispatch).
_MAX_INFLIGHT = 2

#: Seconds between budget checks while waiting on worker results.
_WAIT_INTERVAL = 0.05

#: Seconds to wait for a worker to exit cleanly before terminating it.
_JOIN_TIMEOUT = 2.0

#: Worker respawns a session tolerates before degrading to sequential
#: exploration (override per session with ``max_worker_restarts=``).
DEFAULT_MAX_WORKER_RESTARTS = 3

#: Seconds of mid-window silence (no message from any worker while
#: chunks are in flight) before in-flight workers are declared hung and
#: respawned.  Generous on purpose: a real chunk takes milliseconds, so
#: a minute of silence is a wedged process, not a slow one.
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
    """One exploration worker: expand chunks until told to stop.

    Protocol (coordinator -> worker)::

        ("expand", round_id, chunk_id, [("s", HState) | ("r", ref), ...],
         trace_info)
        ("seed", [HState, ...])
        ("stop",)

    and back::

        ("result", round_id, chunk_id, rows, announced, metrics_dict,
         trace_payload)
        ("error", round_id, chunk_id, message)

    where ``rows[i]`` lists ``(label, ref, rule, node, path, branch)``
    for the i-th chunk state and ``announced`` carries ``(ref, state)``
    pairs for states this worker ships for the first time — refs are
    allocated densely per worker, so both sides mirror one append-only
    table and every repeat crosses the pipe as a single integer.

    ``trace_info`` is ``None`` when the coordinator's tracer is off
    (the worker then pays nothing for tracing and ships
    ``trace_payload=None``); otherwise it is a dict carrying the
    propagated ``traceparent`` plus this chunk's shard and stolen flag,
    and the worker runs a buffering :class:`~repro.obs.tracer.Tracer`
    around the expansion — a ``parallel.chunk`` span with a per-shard
    ``parallel.exchange`` event — shipping the finished records back as
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
    label = str(index)
    by_ref: List[HState] = []
    refs: Dict[HState, int] = {}
    try:
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            if message[0] == "seed":
                # a respawned worker inherits its predecessor's ref table
                # (the coordinator's mirror), so dispatch keeps sending
                # previously-announced states as bare integers
                by_ref = [semantics.intern(state) for state in message[1]]
                refs = {state: ref for ref, state in enumerate(by_ref)}
                continue
            _op, round_id, chunk_id, items, trace_info = message
            try:
                started = time.perf_counter()
                hits_before = semantics.cache_hits
                misses_before = semantics.cache_misses
                announced: List[Tuple[int, HState]] = []
                rows = []
                fired = 0
                trace_sink = tracer = None
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
                                chunk=chunk_id,
                                shard=trace_info.get("shard"),
                                states=len(items),
                                stolen=bool(trace_info.get("stolen")),
                            )
                        )
                    for kind, payload in items:
                        if kind == "r":
                            state = by_ref[payload]
                        else:
                            state = semantics.intern(payload)
                        row = []
                        for transition in semantics.successors(state):
                            target = transition.target
                            ref = refs.get(target)
                            if ref is None:
                                ref = len(by_ref)
                                refs[target] = ref
                                by_ref.append(target)
                                announced.append((ref, target))
                            row.append(
                                (
                                    transition.label,
                                    ref,
                                    transition.rule,
                                    transition.node,
                                    transition.path,
                                    transition.branch,
                                )
                            )
                        fired += len(row)
                        rows.append(row)
                    if trace_info is not None:
                        tracer.event(
                            "parallel.exchange",
                            shard=trace_info.get("shard"),
                            refs=len(announced),
                        )
                        chunk_span.set(announced=len(announced), transitions=fired)
                trace_payload = None
                if trace_sink is not None:
                    trace_payload = {
                        "anchor": time.time() - time.perf_counter(),
                        "records": trace_sink.snapshot(),
                    }
                registry = MetricsRegistry()
                registry.counter(
                    "parallel.states_expanded",
                    "states expanded by sharded workers",
                ).labels(worker=label).inc(len(rows))
                registry.counter(
                    "parallel.transitions",
                    "successor transitions computed by sharded workers",
                ).labels(worker=label).inc(fired)
                registry.counter(
                    "parallel.worker_cache_hits",
                    "worker-local successor-cache hits",
                ).labels(worker=label).inc(semantics.cache_hits - hits_before)
                registry.counter(
                    "parallel.worker_cache_misses",
                    "worker-local successor-cache misses",
                ).labels(worker=label).inc(semantics.cache_misses - misses_before)
                registry.histogram(
                    "parallel.worker_seconds",
                    "per-chunk worker busy time",
                ).labels(worker=label).observe(time.perf_counter() - started)
                connection.send(
                    (
                        "result",
                        round_id,
                        chunk_id,
                        rows,
                        announced,
                        registry.as_dict(),
                        trace_payload,
                    )
                )
            except Exception as error:  # ship the failure, then die
                try:
                    connection.send(
                        (
                            "error",
                            round_id,
                            chunk_id,
                            f"{type(error).__name__}: {error}",
                        )
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

    __slots__ = ("index", "process", "connection", "table")

    def __init__(self, index, process, connection) -> None:
        self.index = index
        self.process = process
        self.connection = connection
        #: Mirror of the worker's announcement table: ref -> canonical
        #: (coordinator-interned) state.
        self.table: List[HState] = []


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
        #: Chunks executed by a worker outside its own signature shard.
        self.steals = 0
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
        #: canonical state -> (worker index, ref) of its first announcer;
        #: lets chunk dispatch send known states back as bare integers.
        self._origin: Dict[HState, Tuple[int, int]] = {}
        #: signature (interned, identity-keyed) -> shard index.
        self._shards: Dict[Signature, int] = {}
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

    def shard_of(self, state: HState) -> int:
        """The worker shard owning *state*, by signature hash.

        States arrive without a signature (workers never read one), so a
        frontier state's first lookup builds it.
        """
        sig = state.signature
        shard = self._shards.get(sig)
        if shard is None:
            key = (sig.size, sig.height, sig.width, tuple(sorted(sig.counts.items())))
            shard = hash(key) % self.size
            self._shards[sig] = shard
        return shard

    def adopt(self, state: HState, semantics: MemoizingSemantics) -> HState:
        """The canonical coordinator instance for a worker-shipped state.

        Any signature the state carries unpickled to this process's
        interned instance (``Signature.__reduce__``).
        """
        return semantics.intern(state)

    def register(self, handle: _WorkerHandle, announced, semantics) -> None:
        """Mirror one result message's state announcements.

        Runs for stale (abandoned-round) messages too — announcement
        tables are append-only and shared across rounds, so every
        message must extend them even when its successor rows (and any
        chunk trace payload: a replayed window re-traces its chunks, so
        the stale spans must be voided with the rows) are discarded.
        """
        table = handle.table
        origin = self._origin
        for ref, state in announced:
            if ref != len(table):
                raise AnalysisError(
                    f"exploration worker {handle.index} announced ref {ref}, "
                    f"expected {len(table)} (protocol corruption)"
                )
            canonical = self.adopt(state, semantics)
            table.append(canonical)
            if canonical not in origin:
                origin[canonical] = (handle.index, ref)

    def drain(self, semantics, registry: Optional[MetricsRegistry] = None) -> int:
        """Consume pending messages from abandoned rounds (keep tables in sync).

        Tolerates dead workers: a worker that died mid-``send`` leaves a
        pipe that polls ready and then raises ``EOFError`` (or a
        truncated-pickle ``OSError``) on ``recv`` — its surviving
        complete messages before the break are still registered, so the
        coordinator's ref-table mirror never desynchronises on the
        respawn path.
        """
        drained = 0
        for handle in self.workers:
            connection = handle.connection
            try:
                while connection.poll():
                    message = connection.recv()
                    if message[0] == "result":
                        self.register(handle, message[4], semantics)
                        if registry is not None and message[5]:
                            registry.merge(registry_from_dict(message[5]))
                    drained += 1
            except (EOFError, OSError):
                continue  # dead worker; survivors' messages already mirrored
        return drained

    def check_alive(self, semantics=None, registry=None) -> None:
        """Raise :class:`WorkerFailure` naming every dead worker.

        When *semantics* is given, surviving result messages are drained
        from **all** workers first (see :meth:`drain`), so in-flight
        progress — states other workers announced while one died — is
        registered exactly once before the recovery path takes over.
        """
        dead = [
            handle
            for handle in self.workers
            if not handle.process.is_alive()
        ]
        if not dead:
            return
        if semantics is not None:
            self.drain(semantics, registry)
        detail = ", ".join(
            f"{handle.index} (exit code {handle.process.exitcode})"
            for handle in dead
        )
        raise WorkerFailure(
            f"exploration worker(s) died: {detail}",
            [handle.index for handle in dead],
        )

    def respawn(self, indices, semantics, registry=None) -> None:
        """Replace the workers at *indices* with fresh processes.

        Surviving messages are drained first, then each replacement is
        seeded with its predecessor's announcement table (the
        coordinator's mirror), so refs the coordinator already knows —
        and will keep sending as bare integers — resolve identically in
        the new process.  A hung-but-alive worker is SIGKILLed before
        its slot is reused.
        """
        self.drain(semantics, registry)
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
            if handle.table:
                handle.connection.send(("seed", list(handle.table)))
            self.restarts += 1

    def inject_process_faults(self) -> Tuple[int, ...]:
        """SIGKILL this round's victims per :attr:`fault_plan` (chaos hook).

        Returns the indices killed.  No-op without a plan.  Victims are
        killed *before* dispatch so the window exercises the real
        detect/drain/respawn/replay path; the kill is waited on so the
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


def _chunk_wall(batch) -> Tuple[float, Optional[int], Optional[int]]:
    """(wall seconds, worker, shard) of a shipped chunk's root span."""
    for record in batch.get("records") or ():
        if record.get("type") == "span" and record.get("name") == "parallel.chunk":
            attrs = record.get("attrs") or {}
            wall = record.get("wall")
            return (
                float(wall) if isinstance(wall, (int, float)) else 0.0,
                attrs.get("worker"),
                attrs.get("shard"),
            )
    return 0.0, None, None


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
    steals_counter = metrics.counter(
        "parallel.steals", "chunks executed outside their signature shard"
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
                return _fill_window(session, pool, rounds_counter, steals_counter)
            except WorkerFailure as failure:
                _recover(session, pool, failure)

    return session._explore(
        max_states, stop_when=stop_when, fill=fill, workers=pool.size
    )


def _fill_window(session, pool, rounds_counter, steals_counter) -> None:
    """Compute one window of uncached frontier states and cache every list.

    The window is the first ``DEFAULT_CHUNK_STATES *
    WINDOW_CHUNKS_PER_WORKER * pool.size`` frontier states whose
    successor lists are not cached yet.  It is sharded by signature into
    chunks that workers expand (stealing from the largest remaining
    shard once their own shard runs dry) while the coordinator turns
    arriving rows into transitions.  Only when the whole window has
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
    pool.drain(semantics, metrics)
    pool.check_alive(semantics, metrics)
    round_id = next(pool._round_seq)
    pool.rounds += 1
    rounds_counter.inc()
    if pool.inject_process_faults():
        pool.check_alive(semantics, metrics)
    # respawns swap pipes out, so the wait set is per-round
    connections = [handle.connection for handle in pool.workers]
    by_connection = {handle.connection: handle for handle in pool.workers}
    window_cap = DEFAULT_CHUNK_STATES * pool.size * WINDOW_CHUNKS_PER_WORKER
    window = list(
        itertools.islice(
            (state for state in queue if not semantics.is_cached(state)),
            window_cap,
        )
    )

    # shard by signature, then cut shards into chunks
    shards: List[List[int]] = [[] for _ in range(pool.size)]
    for position, state in enumerate(window):
        shards[pool.shard_of(state)].append(position)
    pending: List[deque] = []
    total_chunks = 0
    for shard in shards:
        chunks = deque(
            shard[cut : cut + DEFAULT_CHUNK_STATES]
            for cut in range(0, len(shard), DEFAULT_CHUNK_STATES)
        )
        total_chunks += len(chunks)
        pending.append(chunks)

    steals_before = pool.steals
    apply_seconds = 0.0
    #: chunk trace payloads buffered until the window commits (a
    #: replayed window must trace its chunks exactly once, so nothing is
    #: emitted while a worker could still die)
    span_batches: List[Dict[str, Any]] = []
    slowest: Tuple[float, Any, Any] = (0.0, None, None)
    lists: List[Optional[List[Transition]]] = [None] * len(window)
    with tracer.span(
        "parallel.window",
        round=round_id,
        window=len(window),
        chunks=total_chunks,
    ) as window_span:
        wire = (
            window_span.trace.child(window_span.span_id).to_traceparent()
            if tracer.enabled
            else None
        )
        chunk_seq = itertools.count()
        chunk_positions: Dict[int, List[int]] = {}
        inflight = [0] * pool.size
        origin = pool._origin

        def dispatch(worker: int) -> bool:
            """Hand one chunk to *worker* (own shard, else steal)."""
            source = worker
            if not pending[source]:
                candidates = [i for i in range(pool.size) if pending[i]]
                if not candidates:
                    return False
                source = max(candidates, key=lambda i: len(pending[i]))
                pool.steals += 1
                steals_counter.inc()
                tracer.event("parallel.steal", shard=source, worker=worker)
            positions = pending[source].popleft()
            payload = []
            for position in positions:
                state = window[position]
                known = origin.get(state)
                if known is not None and known[0] == worker:
                    payload.append(("r", known[1]))
                else:
                    payload.append(("s", state))
            chunk_id = next(chunk_seq)
            chunk_positions[chunk_id] = positions
            trace_info = (
                {"traceparent": wire, "shard": source, "stolen": source != worker}
                if wire is not None
                else None
            )
            try:
                pool.workers[worker].connection.send(
                    ("expand", round_id, chunk_id, payload, trace_info)
                )
            except (OSError, ValueError) as exc:
                raise WorkerFailure(
                    f"exploration worker {worker} unreachable at dispatch: {exc}",
                    [worker],
                )
            inflight[worker] += 1
            return True

        for worker in range(pool.size):
            while inflight[worker] < _MAX_INFLIGHT and dispatch(worker):
                pass

        completed = 0
        last_message = time.monotonic()
        while completed < total_chunks:
            ready = _wait_ready(connections, _WAIT_INTERVAL)
            if not ready:
                # nothing arrived: keep the budget honest and notice dead
                # or hung workers instead of hanging
                if ambient is not None:
                    ambient.check(
                        states=len(graph.states),
                        frontier=len(queue),
                        expanded=session._expanded,
                    )
                pool.check_alive(semantics, metrics)
                if (
                    pool.heartbeat is not None
                    and time.monotonic() - last_message > pool.heartbeat
                ):
                    hung = [i for i in range(pool.size) if inflight[i] > 0]
                    if hung:
                        raise WorkerFailure(
                            f"exploration worker(s) {hung} silent past the "
                            f"{pool.heartbeat:g}s window heartbeat",
                            hung,
                        )
                continue
            last_message = time.monotonic()
            for connection in ready:
                handle = by_connection[connection]
                try:
                    message = connection.recv()
                except (EOFError, OSError):
                    raise WorkerFailure(
                        f"exploration worker {handle.index} exited mid-round",
                        [handle.index],
                    )
                if message[0] == "error":
                    raise AnalysisError(
                        f"exploration worker {handle.index} failed: {message[3]}"
                    )
                (
                    _op,
                    rid,
                    chunk_id,
                    rows,
                    announced,
                    worker_metrics,
                    chunk_trace,
                ) = message
                pool.register(handle, announced, semantics)
                if worker_metrics:
                    metrics.merge(registry_from_dict(worker_metrics))
                if rid != round_id:
                    continue  # abandoned round: rows (and spans) are void
                inflight[handle.index] -= 1
                completed += 1
                if chunk_trace is not None:
                    span_batches.append(chunk_trace)
                    wall, c_worker, c_shard = _chunk_wall(chunk_trace)
                    if wall > slowest[0]:
                        slowest = (wall, c_worker, c_shard)
                apply_started = time.perf_counter()
                table = handle.table
                for position, row in zip(chunk_positions.pop(chunk_id), rows):
                    state = window[position]
                    lists[position] = [
                        Transition(state, label, table[ref], rule, node, path, branch)
                        for label, ref, rule, node, path, branch in row
                    ]
                apply_seconds += time.perf_counter() - apply_started
                worker = handle.index
                while inflight[worker] < _MAX_INFLIGHT and dispatch(worker):
                    pass

        # the whole window arrived: it commits
        apply_started = time.perf_counter()
        for state, transitions in zip(window, lists):
            semantics.adopt_successors(state, transitions)
        apply_seconds += time.perf_counter() - apply_started
        window_span.set(
            steals=pool.steals - steals_before,
            apply_seconds=apply_seconds,
            slowest_chunk_seconds=slowest[0],
            slowest_worker=slowest[1],
            slowest_shard=slowest[2],
        )
    # re-base the committed window's chunk spans into the coordinator's
    # id space under the window span
    if span_batches:
        _flush_window_trace(tracer, window_span, span_batches, coord_anchor)


def _recover(session, pool, failure) -> None:
    """Respawn *failure*'s workers, or degrade the session to local expansion.

    After a respawn (the dead workers' replacements seeded with the
    coordinator's ref-table mirror) the caller recomputes the failed
    window in a new round.  Once the respawn budget is spent, the pool
    is reaped and the session marked degraded instead: the same
    exploration pass goes on computing successors in-process, and so
    does every later one until :attr:`AnalysisSession.workers` is
    assigned again.  The downgrade is visible in ``parallel.degraded``,
    the flight recorder, and the run ledger's ``extra.parallel_degraded``.
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
    pool.respawn(indices, session.semantics, metrics)
    session._worker_restarts += len(indices)
    metrics.counter(
        "parallel.worker_restarts",
        "exploration workers respawned after a death or hang",
    ).inc(len(indices))
    metrics.counter(
        "parallel.windows_replayed",
        "frontier windows replayed after a worker failure",
    ).inc()
