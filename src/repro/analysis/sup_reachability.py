"""The Sup-Reachability Problem (Theorem 5).

*Input:* a scheme ``G`` and a state ``σ ∈ M(G)``.
*Output:* a finite basis of the upward closure of ``Reach(σ)``.

Since ``⪯`` is a well-quasi-ordering (Kruskal), ``↑Reach(σ)`` has a finite
basis; the canonical one is the set of *minimal reachable states*.  The
algorithm here is a forward search with **domination pruning**: a newly
discovered state is discarded iff it embeds some already-kept state
(``kept ⪯ new``); kept states form a bad sequence, hence — by the wqo
property — the search terminates on *every* scheme, bounded or not.

Correctness rests on a property of RP schemes proved in
``DESIGN.md``/``EXPERIMENTS.md`` and property-tested in the test-suite:
*(reflexive) downward compatibility*.  If ``σ ⪯ σ'`` and ``σ' → τ'`` then
either ``σ ⪯ τ'`` already, or ``σ → τ`` for some ``τ ⪯ τ'`` — crucially
this holds **including the wait rule** (a wait fired by a token whose
embedding preimage exists forces the preimage childless too), which is the
direction in which ``wait`` does *not* break compatibility.  By induction,
anything reachable from a pruned state dominates something reachable from
the kept state that pruned it, so pruning never loses minimal elements:

    ↑Reach(σ)  =  ↑{kept states}.

The returned basis is the antichain of minimal kept states.  This single
engine also answers every *downward-closed* emptiness question about
``Reach(σ)`` (is some reachable state P-free? is some reachable state of
size ≤ k? ...) via :func:`reaches_downward_closed`, which is how
persistence (§5.2) is decided.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional, Tuple

from ..core.embedding import EmbeddingIndex
from ..core.hstate import HState
from ..core.scheme import RPScheme
from ..core.semantics import AbstractSemantics, Transition
from ..errors import AnalysisBudgetExceeded, CorruptionDetected
from ..robust.governance import governed
from ..wqo.kruskal import EmbeddingBasis
from .certificates import AnalysisVerdict, BasisCertificate
from .session import AnalysisSession, resolve_session

#: Domination-pruned searches terminate by the wqo property; the budget is
#: a safety net against pathological antichain growth, far above anything
#: the scheme families in this repository produce.
DEFAULT_MAX_KEPT = 200_000


def sup_reachability(
    scheme: RPScheme,
    *,
    initial: Optional[HState] = None,
    max_kept: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    budget: Optional[Any] = None,
) -> AnalysisVerdict:
    """Compute a finite basis of ``↑Reach(initial)``.

    The verdict always ``holds`` (the problem is a computation, not a
    yes/no question); the basis is in the certificate.
    """
    kept_budget = DEFAULT_MAX_KEPT if max_kept is None else max_kept
    sess = resolve_session(scheme, session, initial)

    def body() -> AnalysisVerdict:
        with sess.tracer.span("sup-reachability", max_kept=kept_budget) as span:
            basis, kept_count = _minimal_reach(sess, kept_budget)
            span.set(kept=kept_count, basis_size=len(basis))
        return AnalysisVerdict(
            holds=True,
            method="domination-pruned-search",
            certificate=BasisCertificate(basis=tuple(basis)),
            exact=True,
            details={"kept": kept_count, "basis_size": len(basis)},
        )

    return governed(sess, budget, "sup-reachability", body)


def minimal_reachable_states(
    scheme: RPScheme,
    *,
    initial: Optional[HState] = None,
    max_kept: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    budget: Optional[Any] = None,
) -> List[HState]:
    """The minimal elements of ``Reach(initial)`` w.r.t. ``⪯``.

    Returns a plain list, so a ``budget=`` always *raises* on exhaustion
    (no partial-verdict conversion, even under ``on_exhaust="partial"``).
    """
    kept_budget = DEFAULT_MAX_KEPT if max_kept is None else max_kept
    sess = resolve_session(scheme, session, initial)
    return governed(
        sess,
        budget,
        "minimal-reachable-states",
        lambda: _minimal_reach(sess, kept_budget)[0],
        allow_partial=False,
    )


def reaches_downward_closed(
    scheme: RPScheme,
    predicate: Callable[[HState], bool],
    *,
    initial: Optional[HState] = None,
    max_kept: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    budget: Optional[Any] = None,
) -> Optional[HState]:
    """A reachable state satisfying a *downward-closed* predicate, or None.

    The predicate must be downward-closed w.r.t. ``⪯`` (if it holds of σ
    and σ' ⪯ σ then it holds of σ'); under that contract the answer is
    exact on every scheme: ``Reach ∩ D ≠ ∅`` iff some kept state is in D.

    The returned witness is a kept (hence genuinely reachable) state.
    When the session has already computed its full kept-state set (by an
    earlier persistence/sup-reachability query) the answer is a pure scan;
    conversely, a search that completes without a witness *is* the full
    kept set and is cached on the session.

    ``None`` means a conclusive "does not reach", so a ``budget=``
    always *raises* on exhaustion (no partial-verdict conversion).
    """
    kept_budget = DEFAULT_MAX_KEPT if max_kept is None else max_kept
    sess = resolve_session(scheme, session, initial)

    def body() -> Optional[HState]:
        kept = sess.memo.get("kept-states")
        if kept is None:
            kept = sess._saturate(kept_budget, stop_when=predicate, restricted=True)
            witness = next((state for state in kept if predicate(state)), None)
            if witness is None:
                # the search ran to wqo termination: `kept` is the complete
                # domination-pruned set, reusable by any later query
                sess.memo["kept-states"] = kept
            return witness
        return next((state for state in kept if predicate(state)), None)

    return governed(
        sess, budget, "reaches-downward-closed", body, allow_partial=False
    )


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------


def _minimal_reach(sess: AnalysisSession, max_kept: int) -> Tuple[List[HState], int]:
    cached = sess.memo.get("minimal-basis")
    if cached is not None:
        return cached
    kept = sess.kept_states(max_kept)
    with sess.tracer.span("sup-reach.basis-extraction", kept=len(kept)) as span:
        ordered = sorted(kept, key=lambda s: (s.size, s.sort_key()))
        basis = list(EmbeddingBasis(ordered, index=sess.embedding_index).basis)
        span.set(basis_size=len(basis))
    sess.memo["minimal-basis"] = (basis, len(kept))
    return basis, len(kept)


def _kept_states(
    semantics: AbstractSemantics,
    initial: HState,
    max_kept: int,
    stop_when: Optional[Callable[[HState], bool]] = None,
    index: Optional[EmbeddingIndex] = None,
    budget: Optional[Any] = None,
) -> List[HState]:
    """Forward search keeping only non-dominated states.

    A state is *kept* unless some earlier-kept state embeds into it; all
    kept states are expanded.  The kept states form a ``minimal=False``
    :class:`~repro.wqo.kruskal.EmbeddingBasis`, whose scan asks the
    session's :class:`~repro.core.embedding.EmbeddingIndex` only about
    kept states whose node support and size fit the new state.  The
    screens only skip calls that would answer ``False``, so the kept list
    is the unscreened scan's, which ``EmbeddingIndex(accelerated=False)``
    runs: the naive reference arm.

    *budget* (the session's ambient :class:`repro.robust.Budget`) is
    checked once per expansion; successor lists are validated against
    their queried source so a corrupted backend surfaces as
    :class:`~repro.errors.CorruptionDetected` rather than a wrong basis.
    """
    start = initial if initial is not None else semantics.initial_state
    kept = EmbeddingBasis(index=index, minimal=False)
    queue: deque = deque()
    seen = set()

    def offer(state: HState) -> bool:
        """Keep *state* if new and undominated; return True when stopping."""
        if state in seen:
            return False
        seen.add(state)
        if not kept.add(state):
            return False
        queue.append(state)
        if len(kept) > max_kept:
            raise AnalysisBudgetExceeded(
                f"sup-reachability: antichain budget of {max_kept} exceeded",
                explored=len(kept),
            )
        return stop_when is not None and stop_when(state)

    if offer(start):
        return list(kept)
    while queue:
        if budget is not None:
            budget.check(kept=len(kept), frontier=len(queue))
        state = queue.popleft()
        for transition in semantics.successors(state):
            if transition.source != state:
                raise CorruptionDetected(
                    f"sup-reachability: successor computation returned a "
                    f"transition sourced at {transition.source.to_notation()} "
                    f"while expanding {state.to_notation()}"
                )
            if offer(transition.target):
                return list(kept)
    return list(kept)
