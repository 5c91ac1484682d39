"""Normedness of RP schemes.

A state is *normed* when it can reach the terminated state ``∅``; a scheme
is normed when every reachable state is.  The paper singles normedness out
as a property **not** compatible with ``⊑_d`` (end of Section 4): it is
"mostly interesting if one wants to analyze the uninterpreted model,
without aiming at transferring the information to the interpreted model".
The incompatibility itself is demonstrated in the test-suite on explicit
LTSs.

Decision structure:

* ``∅``-reachability from a single state is plain reachability
  (semi-decision, exact under saturation);
* scheme normedness is decided exactly on bounded schemes by a backward
  sweep over the saturated graph: the co-reachable set of ``∅``, read as
  ``EF terminated`` from the session's CTL checker;
* on unbounded schemes a *non-normed witness* search is available: a
  reachable state from which the (bounded) exploration saturates without
  meeting ``∅`` is a proof of non-normedness.
"""

from __future__ import annotations

from typing import Any, Optional

from ..core.hstate import HState
from ..core.scheme import RPScheme
from ..errors import AnalysisBudgetExceeded, BudgetExhausted, CorruptionDetected
from ..robust.governance import governed
from .certificates import AnalysisVerdict, SaturationCertificate, WitnessPath
from .ctl import EF, session_checker, terminated
from .explore import DEFAULT_MAX_STATES
from .session import AnalysisSession, resolve_session

#: ``EF terminated``: the states of a saturated graph that can reach ``∅``
#: (the co-reachable set the backward sweep reads).
_REACHES_EMPTY = EF(terminated())


def state_is_normed(
    scheme: RPScheme,
    state: HState,
    *,
    max_states: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    budget: Optional[Any] = None,
) -> AnalysisVerdict:
    """Can *state* reach ``∅``?

    Positive answers come from a size-greedy best-first search (states
    shrink towards ∅, so expanding the smallest frontier state first finds
    terminating runs in near-linear time where breadth-first search would
    drown); negative answers are exact when the search saturates.

    The search order is not breadth-first, so it runs beside the session's
    shared graph rather than on it — but it still goes through the
    session's memoizing semantics, sharing the successor cache.
    """
    from heapq import heappop, heappush

    from ..core.semantics import AbstractSemantics

    state_budget = DEFAULT_MAX_STATES if max_states is None else max_states
    semantics = session.semantics if session is not None else AbstractSemantics(scheme)

    def body() -> AnalysisVerdict:
        ambient = session.budget if session is not None else None
        seen = {state}
        counter = 0  # tie-breaker: heap entries must never compare HStates
        frontier = [(state.size, 0, state)]
        while frontier:
            if ambient is not None:
                ambient.check(states=len(seen), frontier=len(frontier))
            _size, _tick, current = heappop(frontier)
            if current.is_empty():
                return AnalysisVerdict(
                    holds=True,
                    method="greedy-termination-search",
                    certificate=None,
                    exact=True,
                    details={"explored": len(seen)},
                )
            for transition in semantics.successors(current):
                if transition.source != current:
                    raise CorruptionDetected(
                        f"state_is_normed: successor computation returned a "
                        f"transition sourced at "
                        f"{transition.source.to_notation()} while expanding "
                        f"{current.to_notation()}"
                    )
                target = transition.target
                if target in seen:
                    continue
                if len(seen) >= state_budget:
                    raise AnalysisBudgetExceeded(
                        f"state_is_normed: {state_budget} states searched "
                        f"without reaching ∅ or saturating",
                        explored=len(seen),
                    )
                seen.add(target)
                counter += 1
                heappush(frontier, (target.size, counter, target))
        return AnalysisVerdict(
            holds=False,
            method="greedy-termination-search",
            certificate=SaturationCertificate(len(seen), 0),
            exact=True,
            details={"explored": len(seen)},
        )

    if session is None:
        if budget is not None:
            raise ValueError("state_is_normed: budget= requires a session=")
        return body()
    return governed(session, budget, "state-is-normed", body)


def normed(
    scheme: RPScheme,
    *,
    initial: Optional[HState] = None,
    max_states: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    max_witness_checks: Optional[int] = None,
    budget: Optional[Any] = None,
) -> AnalysisVerdict:
    """Is every reachable state normed?

    Exact on bounded schemes (backward sweep from ``∅`` over the saturated
    graph); on unbounded schemes the procedure tests up to
    *max_witness_checks* explored states for non-normedness (each test is
    itself a reachability search) and raises
    :class:`~repro.errors.AnalysisBudgetExceeded` when neither a witness
    nor saturation materialises.
    """
    state_budget = max_states if max_states is not None else DEFAULT_MAX_STATES
    max_witness_checks = 10 if max_witness_checks is None else max_witness_checks
    sess = resolve_session(scheme, session, initial)

    def body() -> AnalysisVerdict:
        with sess.phase("normed", budget=state_budget):
            graph = sess.explore(state_budget)
        if graph.complete:
            conormed = session_checker(sess, graph).satisfying(_REACHES_EMPTY)
            for state in graph.states:
                if state not in conormed:
                    return AnalysisVerdict(
                        holds=False,
                        method="backward-sweep",
                        certificate=WitnessPath(tuple(graph.path_to(state))),
                        exact=True,
                        details={"explored": len(graph)},
                    )
            return AnalysisVerdict(
                holds=True,
                method="backward-sweep",
                certificate=SaturationCertificate(len(graph), graph.num_transitions),
                exact=True,
                details={"explored": len(graph)},
            )
        # unbounded fragment: look for an expanded state provably not normed,
        # preferring the largest explored states (blocked waits accumulate
        # there) and capping the number of expensive per-state searches
        pending = set(graph.unexpanded)
        candidates = sorted(
            (s for s in graph.states if s not in pending),
            key=lambda s: -s.size,
        )[:max_witness_checks]
        for state in candidates:
            try:
                verdict = state_is_normed(
                    scheme, state, max_states=state_budget, session=sess
                )
            except BudgetExhausted:
                # the ambient deadline/memory/cancel budget ran out — that
                # is not "this witness was inconclusive", stop the sweep
                raise
            except AnalysisBudgetExceeded:
                continue
            if not verdict.holds:
                return AnalysisVerdict(
                    holds=False,
                    method="non-normed-witness",
                    certificate=WitnessPath(tuple(graph.path_to(state))),
                    exact=True,
                    details={"witness": state.to_notation()},
                )
        raise AnalysisBudgetExceeded(
            f"normedness: no saturation and no non-normed witness within "
            f"{sess._state_cap(state_budget)} states",
            explored=len(graph),
        )

    return governed(sess, budget, "normed", body)

