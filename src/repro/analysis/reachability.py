"""The Reachability and Node Reachability Problems (Theorem 4).

*Reachability*: given ``G`` and states ``σ, σ'``, is there a transition
sequence of ``M_G`` from ``σ`` to ``σ'``?

*Node Reachability*: given ``G``, a node ``q`` and a state ``σ``, can a
state containing an occurrence of ``q`` be reached from ``σ``?

The paper's exact algorithms live in the unpublished [Sch96]; this module
layers the machinery available here (see DESIGN.md):

* **forward search** — positive answers with concrete witness paths, on
  every scheme (a semi-decision that is complete whenever the reachable
  set is finite, where saturation also proves negatives);
* **backward coverability** — for node reachability, negative answers are
  exact on *every* scheme and positive answers on wait-free schemes
  (:mod:`repro.analysis.coverability`).

``state_reachable``/``node_reachable`` combine the layers automatically
and raise :class:`~repro.errors.AnalysisBudgetExceeded` instead of
guessing when no layer is conclusive.

All entry points accept ``session=`` (an
:class:`~repro.analysis.session.AnalysisSession`): the forward search
then runs over the session's shared state graph — scanning what earlier
queries already explored and resuming its frontier instead of restarting
from ``σ0``.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..core.hstate import HState
from ..core.scheme import RPScheme
from ..errors import AnalysisBudgetExceeded
from ..robust.governance import governed
from .certificates import AnalysisVerdict, SaturationCertificate, WitnessPath
from .coverability import backward_coverability
from .explore import DEFAULT_MAX_STATES
from .session import AnalysisSession, resolve_session


def state_reachable(
    scheme: RPScheme,
    target: HState,
    *,
    initial: Optional[HState] = None,
    max_states: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    budget: Optional[Any] = None,
) -> AnalysisVerdict:
    """Decide whether *target* is reachable from *initial* (exactly).

    Positive verdicts carry a :class:`WitnessPath`; negative verdicts are
    produced by saturation and carry a :class:`SaturationCertificate`.
    A ``budget=`` (:class:`repro.robust.Budget`) governs the run; under
    ``on_exhaust="partial"`` exhaustion returns a
    :class:`repro.robust.PartialVerdict` instead of raising.
    """
    state_budget = max_states if max_states is not None else DEFAULT_MAX_STATES
    sess = resolve_session(scheme, session, initial)

    def body() -> AnalysisVerdict:
        with sess.phase("state-reachable", budget=state_budget):
            graph = sess.graph
            if target not in graph and not graph.complete:
                graph = sess.explore(state_budget, stop_when=lambda s: s == target)
            if target in graph:
                return AnalysisVerdict(
                    holds=True,
                    method="forward-search",
                    certificate=WitnessPath(tuple(graph.path_to(target))),
                    exact=True,
                    details={"explored": len(graph)},
                )
            if graph.complete:
                return AnalysisVerdict(
                    holds=False,
                    method="saturation",
                    certificate=SaturationCertificate(
                        len(graph), graph.num_transitions
                    ),
                    exact=True,
                    details={"explored": len(graph)},
                )
            raise AnalysisBudgetExceeded(
                f"reachability: target not found within "
                f"{sess._state_cap(state_budget)} states and the scheme did "
                f"not saturate",
                explored=len(graph),
            )

    return governed(
        sess, budget, f"state-reachable({target.to_notation()})", body
    )


def node_reachable(
    scheme: RPScheme,
    node: str,
    *,
    initial: Optional[HState] = None,
    max_states: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    budget: Optional[Any] = None,
) -> AnalysisVerdict:
    """Decide whether some reachable state contains an occurrence of *node*.

    Layered strategy: forward search (positive answers with witnesses and
    saturation-based negatives), then backward coverability of
    ``↑{(node,∅)}`` — whose negative answers are exact on every scheme.
    """
    scheme.node(node)  # validate early
    return covers(
        scheme,
        targets=[HState.leaf(node)],
        predicate=lambda s: s.contains_node(node),
        initial=initial,
        max_states=max_states,
        session=session,
        budget=budget,
        what=f"node reachability of {node!r}",
    )


def covers(
    scheme: RPScheme,
    targets: Sequence[HState],
    predicate,
    *,
    initial: Optional[HState] = None,
    max_states: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    budget: Optional[Any] = None,
    what: str = "coverability",
) -> AnalysisVerdict:
    """Shared engine: can a state satisfying the upward-closed *predicate*
    (with coverability basis *targets*) be reached from *initial*?

    *predicate* must characterise ``↑targets`` (the callers guarantee it).
    """
    state_budget = max_states if max_states is not None else DEFAULT_MAX_STATES
    sess = resolve_session(scheme, session, initial)

    def body() -> AnalysisVerdict:
        with sess.phase("covers", what=what, budget=state_budget):
            graph = sess.graph
            hit = graph.find(predicate)
            if hit is None and not graph.complete and len(graph) < state_budget:
                already = len(graph)
                graph = sess.explore(state_budget, stop_when=predicate)
                for state in graph.states[already:]:
                    if predicate(state):
                        hit = state
                        break
            if hit is not None:
                return AnalysisVerdict(
                    holds=True,
                    method="forward-search",
                    certificate=WitnessPath(tuple(graph.path_to(hit))),
                    exact=True,
                    details={"explored": len(graph)},
                )
            if graph.complete:
                return AnalysisVerdict(
                    holds=False,
                    method="saturation",
                    certificate=SaturationCertificate(
                        len(graph), graph.num_transitions
                    ),
                    exact=True,
                    details={"explored": len(graph)},
                )
            backward = backward_coverability(
                scheme, targets, initial=sess.initial, session=sess
            )
            if not backward.holds:
                return backward
            if backward.exact:
                return backward
            raise AnalysisBudgetExceeded(
                f"{what}: forward budget of {sess._state_cap(state_budget)} "
                f"states exhausted and the backward answer is only an "
                f"over-approximation on this scheme (wait nodes present)",
                explored=len(graph),
            )

    return governed(sess, budget, what, body)
