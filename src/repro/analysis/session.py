"""Shared analysis sessions: explore ``M_G`` once, answer many queries.

Every decision procedure of Section 3 is a search over the same reachable
fragment of ``M_G``.  Historically each entry point built its own
:class:`~repro.analysis.explore.Explorer` and re-ran the full BFS from
``σ0``; an :class:`AnalysisSession` instead owns **one** incrementally
growable :class:`~repro.analysis.explore.StateGraph` that all procedures
share:

* a search that paused at budget ``N`` *resumes* from its frontier when a
  later query asks for more — it never restarts;
* successor computation is memoized per state and all states are
  hash-consed (:class:`~repro.core.semantics.MemoizingSemantics`), so
  repeated queries mostly hit caches;
* :attr:`AnalysisSession.stats` reports everything (states expanded,
  transitions fired, cache hits, peak frontier, per-query wall time) as
  a live :class:`AnalysisStats` view: each counter has exactly one store
  (the graph, the explore cursor, the semantics, the embedding index or
  the metrics registry), read when the view is read, and
  :meth:`AnalysisSession.sync_metrics` exports those stores into the
  registry.

Usage::

    session = AnalysisSession(scheme)
    node_reachable(scheme, "q5", session=session)   # explores
    boundedness(scheme, session=session)            # reuses the graph
    check_ctl(scheme, AF(terminated()), session=session)  # reuses again
    session.stats.explorations                      # == 1

The module-level procedures keep working without a session — they create
a throwaway one per call — so the session is an opt-in optimisation, not
a breaking change.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

from ..core.embedding import EmbeddingIndex
from ..core.hstate import HState
from ..core.scheme import RPScheme
from ..core.semantics import MemoizingSemantics
from ..errors import (
    AnalysisBudgetExceeded,
    AnalysisError,
    BudgetExhausted,
    CorruptionDetected,
    RPError,
)
from ..obs import MetricsRegistry, Tracer
from ..obs.recorder import ambient_recorder, record_incident
from .explore import DEFAULT_MAX_STATES, StateGraph

#: The per-procedure wall-time histogram: the one store of query counts
#: and seconds.
_QUERY_SECONDS = "session.query_seconds"


class AnalysisStats:
    """A read-only, live view of one :class:`AnalysisSession`'s counters.

    The view holds no counter of its own: every attribute reads the one
    store that counts it, at the moment it is read, so work a procedure
    does after exploring (auxiliary searches, antichain saturation,
    embedding checks) is always included.  The stores:

    * graph counts — the shared :class:`StateGraph` and the session's
      explore cursor (O(1) reads, no walk over the graph);
    * successor cache and intern table — the session's
      :class:`~repro.core.semantics.MemoizingSemantics`;
    * embedding counters — the session's
      :class:`~repro.core.embedding.EmbeddingIndex`;
    * peak frontier — the ``explore.frontier`` gauge;
    * per-procedure counts and seconds — the ``session.query_seconds``
      histogram of the session's metrics registry.

    Invariants (asserted in the test-suite): ``states_expanded`` ≤
    ``states_discovered``; all counters are monotone; ``explorations``
    counts *from-scratch* exploration passes — a session resumes its BFS
    instead of re-exploring, so it stays at 1 however many queries run.
    """

    __slots__ = ("_session",)

    def __init__(self, session: AnalysisSession) -> None:
        self._session = session

    #: Distinct states discovered (== the shared graph's size).
    states_discovered = property(lambda self: len(self._session.graph))
    #: States whose successors were expanded into the shared graph.
    states_expanded = property(lambda self: self._session._expanded)
    #: Transitions recorded in the shared graph.
    transitions_fired = property(lambda self: self._session.graph.num_transitions)
    #: From-scratch exploration passes of ``M_G`` (1 for a used session).
    explorations = property(lambda self: self._session._explorations)
    #: Largest frontier (discovered-but-unexpanded set) seen so far.
    peak_frontier = property(lambda self: int(self._session._frontier_gauge.max or 0))
    #: Wall-clock seconds spent growing the shared graph.
    explore_seconds = property(lambda self: self._session._explore_seconds)
    #: Per-query invocation counts, keyed by procedure name.
    queries = property(
        lambda self: {name: child.count for name, child in self._per_procedure()}
    )
    #: Per-query cumulative wall-clock seconds.
    query_seconds = property(
        lambda self: {name: child.sum for name, child in self._per_procedure()}
    )
    #: Successor-cache hits/misses of the memoizing semantics.
    successor_cache_hits = property(lambda self: self._session.semantics.cache_hits)
    successor_cache_misses = property(lambda self: self._session.semantics.cache_misses)
    #: Distinct hash-consed states in the intern table.
    interned_states = property(lambda self: self._session.semantics.interned_states)
    #: Embedding queries answered by the session's EmbeddingIndex.
    embedding_calls = property(lambda self: self._session.embedding_index.calls)
    #: Embedding queries refuted by the signature domination test alone.
    embedding_signature_refutations = property(
        lambda self: self._session.embedding_index.signature_refutations
    )
    #: Embedding queries answered from the session-lifetime pair memo.
    embedding_memo_hits = property(lambda self: self._session.embedding_index.memo_hits)

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-ready snapshot (used by the benchmark harnesses)."""
        return {
            "states_discovered": self.states_discovered,
            "states_expanded": self.states_expanded,
            "transitions_fired": self.transitions_fired,
            "explorations": self.explorations,
            "peak_frontier": self.peak_frontier,
            "explore_seconds": self.explore_seconds,
            "queries": self.queries,
            "query_seconds": self.query_seconds,
            "successor_cache_hits": self.successor_cache_hits,
            "successor_cache_misses": self.successor_cache_misses,
            "interned_states": self.interned_states,
            "embedding_calls": self.embedding_calls,
            "embedding_signature_refutations": self.embedding_signature_refutations,
            "embedding_memo_hits": self.embedding_memo_hits,
        }

    def render(self) -> str:
        """Human-readable multi-line summary (``rpcheck --stats``)."""
        lines = [
            f"states discovered  : {self.states_discovered}",
            f"states expanded    : {self.states_expanded}",
            f"transitions fired  : {self.transitions_fired}",
            f"explorations       : {self.explorations}",
            f"peak frontier      : {self.peak_frontier}",
            f"successor cache    : {self.successor_cache_hits} hits / "
            f"{self.successor_cache_misses} misses",
            f"interned states    : {self.interned_states}",
            f"embedding calls    : {self.embedding_calls} "
            f"({self.embedding_signature_refutations} signature refutations, "
            f"{self.embedding_memo_hits} memo hits)",
            f"explore time       : {self.explore_seconds:.3f}s",
        ]
        queries, seconds = self.queries, self.query_seconds
        for name in sorted(queries):
            lines.append(f"query {name:<18} x{queries[name]}  ({seconds[name]:.3f}s)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        fields = ", ".join(f"{key}={value!r}" for key, value in self.as_dict().items())
        return f"AnalysisStats({fields})"

    def _per_procedure(self):
        """``(procedure, histogram child)`` pairs, in first-query order."""
        histogram = self._session.metrics.get(_QUERY_SECONDS)
        if histogram is None:
            return []
        return [
            (dict(key).get("procedure", "__overflow__"), child)
            for key, child in histogram.children()
        ]


class AnalysisSession:
    """A per-scheme analysis engine with one shared, resumable state graph.

    Parameters
    ----------
    scheme:
        The RP scheme under analysis.
    initial:
        Exploration root (default ``σ0``).  A session answers queries
        about ``Reach(initial)``; procedures asked about a *different*
        initial state transparently use a throwaway session.
    progress_interval:
        Sample the exploration gauges and emit an ``explore.progress``
        trace event every this many state expansions.
    embedding_index:
        The session's :class:`~repro.core.embedding.EmbeddingIndex`
        (default: a fresh accelerated one).  Pass
        ``EmbeddingIndex(accelerated=False)`` to run every embedding
        query through the naive reference path — the A/B switch of
        ``benchmarks/bench_wqo_index.py``.
    semantics:
        The successor engine (default: a fresh
        :class:`MemoizingSemantics`).  Injection point for the chaos
        harness (:class:`repro.robust.ChaosSemantics`) and any other
        instrumented backend; must be built for the same scheme.
    budget:
        The session's ambient :class:`~repro.robust.Budget`.  Checked
        once per state expansion (and inside the procedures' auxiliary
        search loops); usually installed per-call by the governed
        procedure wrappers rather than at construction.
    workers:
        Exploration worker processes (default 1).  With ``workers=1``
        the session runs the historical in-process BFS, byte-identical
        to previous releases; with ``workers=N`` successor computation
        is sharded across a :class:`repro.analysis.parallel.WorkerPool`
        that fills the successor cache ahead of the same loop, so the
        grown graph — and therefore every verdict, checkpoint and
        stat derived from it — matches the sequential run state for
        state.  The pool is spawned lazily on the first parallel
        exploration and torn down by :meth:`close` (or the session's
        finalizer).

    Attributes
    ----------
    graph:
        The shared :class:`StateGraph`.  Always a BFS-order prefix of the
        full exploration: growing it to budget ``2N`` after a pause at
        ``N`` yields state-for-state the same graph as a fresh ``2N`` run.
    semantics:
        The shared :class:`MemoizingSemantics` (successor cache + intern
        table), also used by the procedures' auxiliary searches.
    embedding_index:
        Session-lifetime embedding memoisation (signature-pruned, keyed
        by gap identity) that boundedness, sup-reachability,
        inevitability, coverability and persistence route through.
    stats:
        A live, read-only :class:`AnalysisStats` view of the session's
        counters.
    memo:
        A procedure-managed cache for conclusive verdicts and other
        derived artefacts (CTL checker, sup-reachability antichain, ...).
    """

    def __init__(
        self,
        scheme: RPScheme,
        initial: Optional[HState] = None,
        *,
        progress_interval: int = 8192,
        embedding_index: Optional[EmbeddingIndex] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        semantics: Optional[MemoizingSemantics] = None,
        budget: Optional[Any] = None,
        workers: int = 1,
        max_worker_restarts: Optional[int] = None,
    ) -> None:
        self.scheme = scheme
        if semantics is not None and semantics.scheme is not scheme:
            raise AnalysisError(
                "session semantics was built for a different scheme "
                f"({semantics.scheme.name!r}, session scheme {scheme.name!r})"
            )
        self.semantics = semantics if semantics is not None else MemoizingSemantics(scheme)
        #: Ambient resource budget (duck-typed; see repro.robust.Budget).
        #: ``None`` means ungoverned — the historical behaviour.
        self.budget = budget
        start = initial if initial is not None else self.semantics.initial_state
        self.initial = self.semantics.intern(start)
        self.embedding_index = (
            embedding_index if embedding_index is not None else EmbeddingIndex()
        )
        # Flight-recorder default: sessions without an explicit tracer
        # record their phase spans into the process-wide bounded ring
        # buffer, so an incident dump always has recent telemetry.  Span
        # discipline (phases, never per-state work) keeps this within
        # the <5% obs-overhead bar (benchmarks/bench_obs_overhead.py).
        self.tracer = tracer if tracer is not None else Tracer(ambient_recorder())
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Single source of truth for frontier size (current/peak): the
        #: explore loop samples it, everything else only reads it.
        self._frontier_gauge = self.metrics.gauge(
            "explore.frontier", "discovered-but-unexpanded states"
        )
        self.graph = StateGraph(scheme, self.initial)
        self.graph._add_state(self.initial, None)
        self.graph.unexpanded = [self.initial]
        self.memo: Dict[Any, Any] = {}
        # the explore cursor: frontier queue plus the exploration counters
        # that no other store holds
        self._queue: deque = deque([self.initial])
        self._expanded = 0
        self._explorations = 0
        self._explore_seconds = 0.0
        self._progress_interval = max(1, progress_interval)
        #: Serialises sync_metrics, so two exporting threads never move a
        #: registry total backwards.
        self._export_lock = threading.Lock()
        if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
            raise AnalysisError(
                f"workers must be a positive int, got {workers!r}"
            )
        self._workers = workers
        if max_worker_restarts is not None and (
            not isinstance(max_worker_restarts, int)
            or isinstance(max_worker_restarts, bool)
            or max_worker_restarts < 0
        ):
            raise AnalysisError(
                "max_worker_restarts must be None or a non-negative int, "
                f"got {max_worker_restarts!r}"
            )
        #: Worker respawns tolerated before degrading to sequential
        #: exploration; ``None`` uses the engine default
        #: (:data:`repro.analysis.parallel.DEFAULT_MAX_WORKER_RESTARTS`).
        self.max_worker_restarts = max_worker_restarts
        #: Worker respawns performed on behalf of this session so far.
        self._worker_restarts = 0
        #: Set when the respawn budget ran out: exploration continues
        #: sequentially until :attr:`workers` is assigned again.
        self._parallel_degraded = False
        #: Lazily spawned repro.analysis.parallel.WorkerPool (workers > 1)
        #: and the finalizer that closes it if the session is dropped.
        self._pool = None
        self._pool_finalizer = None
        self._frontier_gauge.set(len(self._queue))

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def stats(self) -> AnalysisStats:
        """A live, read-only view of the session's counters."""
        return AnalysisStats(self)

    @contextmanager
    def phase(self, name: str, **attrs: Any):
        """One top-level query phase: a query timer plus a tracer span.

        Decision procedures wrap their body in this so every query shows
        up both in the ``session.query_seconds{procedure}`` histogram
        (the store behind :attr:`AnalysisStats.queries` and
        :attr:`AnalysisStats.query_seconds`) and in the trace (one span,
        with sub-phase spans nested under it).  Yields the span so
        callers can attach result attributes.

        The phase is also the flight-recorder trigger point: a
        :class:`~repro.errors.BudgetExhausted`, a
        :class:`~repro.errors.CorruptionDetected`, or any *unexpected*
        exception (anything outside the typed :class:`RPError`
        hierarchy) escaping the body dumps a diagnostic bundle via
        :func:`repro.obs.record_incident` — a no-op unless a dump target
        is configured, idempotent per exception, and never masking the
        original error.  Routine :class:`AnalysisBudgetExceeded` state
        overruns stay quiet; they are an answer, not an incident.
        """
        with self._timed(name), self.tracer.span(name, **attrs) as span:
            try:
                yield span
            except (BudgetExhausted, CorruptionDetected) as error:
                record_incident(
                    self, error, reason=f"{type(error).__name__} in {name}"
                )
                raise
            except RPError:
                raise
            except Exception as error:
                record_incident(
                    self,
                    error,
                    reason=f"uncaught {type(error).__name__} in {name}",
                )
                raise

    @contextmanager
    def _timed(self, name: str):
        """Observe one invocation of *name* in ``session.query_seconds``.

        One real sample per query, so the histogram carries bucketed
        p50/p95/p99 as well as the per-procedure counts and seconds.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self.metrics.histogram(
                _QUERY_SECONDS, "per-procedure wall time"
            ).labels(procedure=name).observe(time.perf_counter() - start)

    def _sample_progress(self, started: float) -> None:
        """Periodic mid-exploration sample: gauges plus an
        ``explore.progress`` trace event."""
        states = len(self.graph)
        transitions = self.graph.num_transitions
        metrics = self.metrics
        metrics.gauge("explore.states", "states discovered so far").set(states)
        metrics.gauge("explore.transitions", "transitions recorded so far").set(
            transitions
        )
        semantics = self.semantics
        lookups = semantics.cache_hits + semantics.cache_misses
        if lookups:
            metrics.gauge(
                "explore.cache_hit_rate", "successor-cache hit fraction"
            ).set(semantics.cache_hits / lookups)
        if self.tracer.enabled:
            self.tracer.event(
                "explore.progress",
                states=states,
                transitions=transitions,
                frontier=len(self._queue),
                elapsed=time.perf_counter() - started,
            )

    def sync_metrics(self) -> MetricsRegistry:
        """Export the session's counters into its metrics registry.

        Hot paths (the explore loop, the memoizing semantics, the
        Embedder) keep plain int counters and make no registry calls;
        this is the one export of those stores into the registry, via
        :meth:`~repro.obs.CounterMetric.set_total`.  The CLI, the run
        ledger and the serve daemon's metrics scrape all call it.

        Safe while a query runs on the session in another thread:
        exports are serialised and every store is monotone, so no total
        ever moves backwards.  Returns the registry for convenience.
        """
        stats = self.stats
        metrics = self.metrics
        with self._export_lock:
            metrics.counter(
                "explore.states_discovered", "distinct states in the shared graph"
            ).set_total(stats.states_discovered)
            metrics.counter(
                "explore.states_expanded", "states whose successors were expanded"
            ).set_total(stats.states_expanded)
            metrics.counter(
                "explore.transitions_fired", "transitions recorded in the shared graph"
            ).set_total(stats.transitions_fired)
            metrics.counter(
                "explore.explorations", "from-scratch exploration passes"
            ).set_total(stats.explorations)
            metrics.counter(
                "semantics.cache_hits", "successor-cache hits"
            ).set_total(stats.successor_cache_hits)
            metrics.counter(
                "semantics.cache_misses", "successor-cache misses"
            ).set_total(stats.successor_cache_misses)
            metrics.counter(
                "semantics.interned_states", "distinct hash-consed states"
            ).set_total(stats.interned_states)
            queries = metrics.counter("session.queries", "per-procedure query counts")
            query_time = metrics.histogram(_QUERY_SECONDS, "per-procedure wall time")
            for key, child in query_time.children():
                queries.labels(**dict(key)).set_total(child.count)
            calls = metrics.counter("embedding.calls", "embedding queries answered")
            sig = metrics.counter(
                "embedding.signature_refutations",
                "embedding queries refuted by signature domination alone",
            )
            memo = metrics.counter(
                "embedding.memo_hits", "embedding queries answered from the pair memo"
            )
            for gap_key, embedder in self.embedding_index.embedders():
                label = "*" if gap_key is None else ",".join(sorted(gap_key))
                calls.labels(gap=label).set_total(embedder.calls)
                sig.labels(gap=label).set_total(embedder.sig_refutations)
                memo.labels(gap=label).set_total(embedder.memo_hits)
            calls.set_total(stats.embedding_calls)
            sig.set_total(stats.embedding_signature_refutations)
            memo.set_total(stats.embedding_memo_hits)
        return metrics

    # ------------------------------------------------------------------
    # Parallel exploration pool
    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Exploration worker processes (1 = the sequential fast path)."""
        return self._workers

    @workers.setter
    def workers(self, value: int) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise AnalysisError(f"workers must be a positive int, got {value!r}")
        if value != self._workers and self._pool is not None and self._pool.size != value:
            # wrong-sized pool: tear it down now, respawn lazily on the
            # next parallel exploration (a pool left warm while workers
            # is 1 costs nothing — its processes block in recv)
            self._release_pool()
        self._workers = value
        # an explicit worker-count assignment re-arms a session that
        # degraded to sequential after exhausting its respawn budget
        self._parallel_degraded = False

    def _ensure_pool(self):
        """The session's :class:`~repro.analysis.parallel.WorkerPool`."""
        pool = self._pool
        if pool is None or pool.closed or pool.size != self._workers:
            from .parallel import WorkerPool

            self._release_pool()
            pool = WorkerPool(self.scheme, self._workers)
            self._pool = pool
            # a dropped session must not leak worker processes
            self._pool_finalizer = weakref.finalize(self, pool.close)
        return pool

    def _release_pool(self) -> None:
        """Close the worker pool, if any, and drop it with its finalizer."""
        if self._pool_finalizer is not None:
            self._pool_finalizer()  # closes the pool once, then detaches
            self._pool_finalizer = None
        self._pool = None

    def close(self) -> None:
        """Release the worker pool, if one was spawned (idempotent).

        Sequential sessions hold no external resources; calling this is
        always safe and the session remains usable afterwards — the pool
        respawns lazily if another parallel exploration runs.
        """
        self._release_pool()

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Resource governance & checkpointing
    # ------------------------------------------------------------------

    @property
    def frontier(self):
        """The discovered-but-unexpanded states, in BFS queue order."""
        return self._queue

    @property
    def expanded_count(self) -> int:
        """States whose successors have been expanded into the graph."""
        return self._expanded

    def checkpoint(self) -> Dict[str, Any]:
        """A JSON-ready snapshot of the session's resumable state.

        Captures the scheme, the explored BFS prefix (states in discovery
        order plus the recorded transitions of every expanded state), the
        frontier and the memoized antichains; feed the result to
        :meth:`restore` — in this process or another — to continue
        exactly where this session paused.
        """
        from ..robust.checkpoint import checkpoint_session

        return checkpoint_session(self)

    @classmethod
    def restore(
        cls,
        data: Dict[str, Any],
        *,
        scheme: Optional[RPScheme] = None,
        **session_kwargs: Any,
    ) -> "AnalysisSession":
        """Rebuild a session from a :meth:`checkpoint` snapshot.

        With *scheme* given, the checkpoint must have been taken for a
        structurally identical scheme; otherwise the scheme embedded in
        the checkpoint is used.  Extra keyword arguments pass through to
        the constructor (``tracer=``, ``metrics=``, ``budget=``, ...).
        """
        from ..robust.checkpoint import restore_session

        return restore_session(data, scheme=scheme, **session_kwargs)

    def _restore_frontier(
        self,
        expanded: int,
        complete: bool,
        *,
        explorations: int = 0,
        explore_seconds: float = 0.0,
    ) -> None:
        """Reset the explore cursor after a checkpoint replay.

        The frontier of a BFS prefix is exactly the discovery-ordered
        suffix of un-expanded states, so the queue is rebuilt from the
        graph rather than stored separately.
        """
        self._expanded = expanded
        self._explorations = explorations
        self._explore_seconds = explore_seconds
        self._queue = deque(self.graph.states[expanded:])
        self.graph.unexpanded = list(self._queue)
        self.graph.complete = complete and not self._queue
        self._frontier_gauge.set(len(self._queue))

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------

    def explore(
        self,
        max_states: Optional[int] = None,
        *,
        stop_when: Optional[Callable[[HState], bool]] = None,
    ) -> StateGraph:
        """Grow the shared graph up to *max_states* discovered states.

        Resumes from the saved frontier; already-expanded work is never
        redone.  ``stop_when`` is evaluated on **newly discovered** states
        only (callers scan the existing graph first); when it fires, the
        current state's expansion is finished — keeping the graph a clean
        BFS prefix — and growth pauses.

        **Overshoot contract.**  States are expanded whole and the state
        budget is checked *between* expansions, so the graph may exceed
        ``max_states`` by at most one expansion batch — the out-degree of
        the last state expanded — and never by more.  The rule is
        deterministic, which is what makes paused-and-resumed growth
        bit-identical to a fresh run.

        Under an ambient :attr:`budget`, its ``max_states`` tightens the
        cap and ``budget.check`` runs once per expansion (deadline,
        cancellation, periodic memory sampling).  Expansion is atomic:
        successors are computed and validated *before* the state leaves
        the frontier, so an interruption — budget exhaustion, an injected
        fault, a detected corruption — always leaves the graph a clean
        resumable BFS prefix.

        With :attr:`workers` > 1 the call goes to
        :func:`repro.analysis.parallel.explore_parallel` (looked up at
        call time), which runs this same loop with a hook that has the
        worker pool compute successor lists a window ahead of it.  The
        loop alone applies expansions, so every rule above holds
        unchanged and the graph is the sequential one, state for state.
        """
        if self._workers > 1 and not self._parallel_degraded:
            from .parallel import explore_parallel

            return explore_parallel(self, max_states, stop_when=stop_when)
        return self._explore(max_states, stop_when=stop_when)

    def _explore(
        self,
        max_states: Optional[int],
        *,
        stop_when: Optional[Callable[[HState], bool]] = None,
        fill: Optional[Callable[[], None]] = None,
        **attrs: Any,
    ) -> StateGraph:
        """The exploration loop: the only code that applies an expansion.

        *fill*, when given, is called before the loop expands a frontier
        state whose successor list is not cached yet, and may fill the
        cache for that state and any others; the sharded engine passes
        one.  *attrs* go on the ``session.explore`` span.  However the
        pass ends — saturation, budget, an exception — the graph's
        ``complete``/``unexpanded`` view of the frontier and the cursor's
        exploration counters are closed out.
        """
        budget = self._state_cap(max_states)
        graph = self.graph
        if not self._queue:
            return graph
        queue = self._queue
        semantics = self.semantics
        index = graph.index
        ambient = self.budget
        frontier_gauge = self._frontier_gauge
        stopped = False
        expanded_before = self._expanded
        next_progress = expanded_before + self._progress_interval
        started = time.perf_counter()
        try:
            with self.tracer.span(
                "session.explore", budget=budget, resumed=expanded_before > 0, **attrs
            ) as span:
                while queue and not stopped and len(graph.states) < budget:
                    if ambient is not None:
                        ambient.check(
                            states=len(graph.states),
                            frontier=len(queue),
                            expanded=self._expanded,
                        )
                    state = queue[0]
                    if fill is not None and not semantics.is_cached(state):
                        fill()
                    successors = semantics.successors(state)
                    for transition in successors:
                        if transition.source != state:
                            raise CorruptionDetected(
                                f"successor computation returned a transition "
                                f"sourced at {transition.source.to_notation()} "
                                f"while expanding {state.to_notation()}"
                            )
                    queue.popleft()
                    graph.edges[index[state]].extend(successors)
                    graph.num_transitions += len(successors)
                    for transition in successors:
                        target = transition.target
                        if target in index:
                            continue
                        graph._add_state(target, transition)
                        queue.append(target)
                        if stop_when is not None and not stopped and stop_when(target):
                            stopped = True
                    self._expanded += 1
                    frontier_gauge.set(len(queue))
                    if self._expanded >= next_progress:
                        next_progress += self._progress_interval
                        self._sample_progress(started)
                span.set(
                    states=len(graph.states),
                    expanded=self._expanded - expanded_before,
                    stopped=stopped,
                )
        finally:
            graph.complete = not queue
            graph.unexpanded = list(queue)
            if expanded_before == 0 and self._expanded > 0:
                self._explorations += 1
            self._explore_seconds += time.perf_counter() - started
        return graph

    def _state_cap(self, max_states: Optional[int]) -> int:
        """The state cap of one exploration request: *max_states* (default
        :data:`DEFAULT_MAX_STATES`) tightened by the ambient budget."""
        cap = max_states if max_states is not None else DEFAULT_MAX_STATES
        if self.budget is not None:
            cap = self.budget.effective_max_states(cap)
        return cap

    def explore_or_raise(
        self, max_states: Optional[int] = None, what: str = "exploration"
    ) -> StateGraph:
        """Grow to saturation; raise when the budget does not suffice.

        The exception names the cap that bound (*max_states* tightened by
        the ambient budget) and the *exact* exploration extent at
        exhaustion — discovered states and frontier size — which the
        overshoot contract of :meth:`explore` allows to exceed the cap by
        one batch.
        """
        graph = self.explore(max_states)
        if not graph.complete:
            raise AnalysisBudgetExceeded(
                f"{what}: state budget of {self._state_cap(max_states)} "
                f"exhausted at exactly {len(graph)} discovered states "
                f"({len(graph.unexpanded)} still unexpanded; the scheme may "
                f"be unbounded — raise max_states or use a procedure with an "
                f"unboundedness certificate)",
                explored=len(graph),
            )
        return graph

    # ------------------------------------------------------------------
    # Shared derived artefacts
    # ------------------------------------------------------------------

    def kept_states(self, max_kept: int) -> List[HState]:
        """The full domination-pruned reachable antichain cover (cached).

        This is the sup-reachability engine's kept-state set; persistence
        and every downward-closed emptiness question scan it.  The search
        terminates on every scheme by the wqo property, so a completed
        result is budget-independent and cached for the session's life.
        """
        cached = self.memo.get("kept-states")
        if cached is None:
            cached = self._saturate(max_kept)
            self.memo["kept-states"] = cached
        return cached

    def _saturate(
        self,
        max_kept: int,
        stop_when: Optional[Callable[[HState], bool]] = None,
        **attrs: Any,
    ) -> List[HState]:
        """One run of the sup-reachability engine's antichain saturation,
        timed as the ``sup-reach-engine`` query."""
        from .sup_reachability import _kept_states

        with self._timed("sup-reach-engine"), self.tracer.span(
            "sup-reach.antichain-saturation", max_kept=max_kept, **attrs
        ) as span:
            kept = _kept_states(
                self.semantics,
                self.initial,
                max_kept,
                stop_when=stop_when,
                index=self.embedding_index,
                budget=self.budget,
            )
            span.set(kept=len(kept))
        return kept


def resolve_session(
    scheme: RPScheme,
    session: Optional[AnalysisSession],
    initial: Optional[HState],
) -> AnalysisSession:
    """The session a procedure should use.

    A supplied *session* is validated against *scheme* and used whenever
    the query's initial state matches; otherwise (including the common
    no-session case) a throwaway session is created, which reproduces the
    historical one-exploration-per-call behaviour.
    """
    if session is not None:
        if session.scheme is not scheme:
            raise AnalysisError(
                "analysis session was created for a different scheme "
                f"({session.scheme.name!r}, queried with {scheme.name!r})"
            )
        if initial is None or initial == session.initial:
            return session
    return AnalysisSession(scheme, initial=initial)
