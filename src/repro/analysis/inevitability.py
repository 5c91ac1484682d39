"""The Inevitability Problem (Theorem 6) and its halting corollary.

*Input:* a scheme ``G``, a state ``σ``, and a finite basis ``I ⊆ M(G)``.
*Output:* true iff **all** computations starting from ``σ`` eventually
reach a state **not** in the upward closure of ``I`` w.r.t. the
⋆-embedding (:class:`~repro.core.embedding.GapEmbedding`).

A computation is a maximal run (infinite, or ending in the unique terminal
state ``∅``).  Inevitability fails exactly when some maximal run stays in
``↑I`` forever, which can happen in three ways:

1. a finite maximal run entirely inside ``↑I`` — possible only when
   ``∅ ∈ ↑I`` (i.e. ``∅ ∈ I``), since ``∅`` is the only terminal state;
2. a cycle inside the ``↑I``-restricted reachable graph (a concrete lasso,
   always a proof of violation);
3. unbounded growth inside ``↑I`` (an infinite acyclic run, by König's
   lemma applied to the restricted finitely-branching system).

The procedure explores the restriction of ``M_G`` to ``↑I``.  When the
restricted system saturates, the answer is exact: inevitability holds iff
the restricted graph is acyclic and no in-``↑I`` terminated run exists.
Case 3 on non-saturating systems is detected by the same
strict-self-covering machinery as boundedness, additionally demanding that
the replayed pump stay inside ``↑I`` (flagged ``exact=False`` for schemes
with ``wait`` nodes, as in :mod:`repro.analysis.boundedness`).

Corollary 7 falls out by instantiating ``I`` with all single-invocation
states: ``↑I`` is then "not yet terminated" and inevitability is halting —
see :func:`halting_via_inevitability`, cross-checked in the tests against
:mod:`repro.analysis.termination`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional, Sequence

from ..core.embedding import EmbeddingIndex, GapEmbedding, PLAIN_EMBEDDING
from ..core.hstate import HState
from ..core.scheme import RPScheme
from ..errors import AnalysisBudgetExceeded, CorruptionDetected
from ..robust.governance import governed
from ..wqo.kruskal import EmbeddingBasis
from .boundedness import _certify_pump, _covering_ancestor
from .certificates import (
    AnalysisVerdict,
    LassoCertificate,
    SaturationCertificate,
    WitnessPath,
)
from .explore import DEFAULT_MAX_STATES, StateGraph
from .session import AnalysisSession, resolve_session


def inevitability(
    scheme: RPScheme,
    basis: Sequence[HState],
    *,
    initial: Optional[HState] = None,
    embedding: Optional[GapEmbedding] = None,
    max_states: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    replays: Optional[int] = None,
    budget: Optional[Any] = None,
) -> AnalysisVerdict:
    """Decide whether all computations eventually leave ``↑basis``.

    *embedding* selects the ⋆-embedding variant; the default is the
    unrestricted embedding (``GapEmbedding(None)``).

    The ``↑I``-restricted exploration cannot reuse the session's (whole)
    state graph, but runs through the session's memoizing semantics, so
    successor computations are shared with every other query.
    """
    max_states = DEFAULT_MAX_STATES if max_states is None else max_states
    fixed_replays = 2 if replays is None else replays
    ordering = embedding if embedding is not None else PLAIN_EMBEDDING
    sess = resolve_session(scheme, session, initial)

    def body() -> AnalysisVerdict:
        with sess.phase(
            "inevitability", basis_size=len(basis), budget=max_states
        ) as span:
            verdict = _inevitability(sess, basis, ordering, max_states, fixed_replays)
            span.set(holds=verdict.holds, method=verdict.method)
            return verdict

    return governed(sess, budget, "inevitability", body)


def _inevitability(
    sess: AnalysisSession,
    basis: Sequence[HState],
    ordering: GapEmbedding,
    max_states: int,
    replays: int,
) -> AnalysisVerdict:
    scheme = sess.scheme
    semantics = sess.semantics
    start = sess.initial
    index = sess.embedding_index

    upward = EmbeddingBasis(basis, index=index, embedding=ordering, minimal=False)

    def inside(state: HState) -> bool:
        return state in upward

    if not inside(start):
        return AnalysisVerdict(
            holds=True, method="initial-outside", certificate=None, exact=True
        )

    # Restricted exploration: BFS over in-↑I states, recorded as a state
    # graph of the in-↑I subsystem for exact lasso detection at
    # saturation, watching for strict self-coverings (the unbounded-inside
    # case).  transitions_seen also counts the edges that leave ↑I.
    graph = StateGraph(scheme, start)
    graph._add_state(start, None)
    queue: deque = deque([start])
    transitions_seen = 0
    ambient = sess.budget
    with sess.tracer.span(
        "inevitability.restricted-exploration", budget=max_states
    ) as span:
        while queue:
            if ambient is not None:
                ambient.check(states=len(graph), frontier=len(queue))
            state = queue.popleft()
            successors = semantics.successors(state)
            for transition in successors:
                if transition.source != state:
                    raise CorruptionDetected(
                        f"inevitability: successor computation returned a "
                        f"transition sourced at "
                        f"{transition.source.to_notation()} while expanding "
                        f"{state.to_notation()}"
                    )
            if not successors:
                # a maximal run terminates inside ↑I (state is ∅ by Prop 3)
                return AnalysisVerdict(
                    holds=False,
                    method="terminating-run-inside",
                    certificate=WitnessPath(tuple(graph.path_to(state))),
                    exact=True,
                    details={"explored": len(graph)},
                )
            out = graph.edges[graph.index[state]]
            for transition in successors:
                transitions_seen += 1
                target = transition.target
                if not inside(target):
                    continue
                out.append(transition)
                graph.num_transitions += 1
                if target in graph:
                    continue
                graph._add_state(target, transition)
                pump = _covering_ancestor(graph.parent, transition, index)
                if pump is not None:
                    with sess.tracer.span(
                        "inevitability.certificate", pump_length=len(pump)
                    ):
                        certificate = _certify_pump(
                            scheme, semantics, graph.parent, pump, replays, index
                        )
                        stays = certificate is not None and _pump_stays_inside(
                            semantics, certificate, inside, replays, index
                        )
                    if stays:
                        return AnalysisVerdict(
                            holds=False,
                            method="self-covering-inside",
                            certificate=certificate,
                            exact=False,
                            details={"explored": len(graph)},
                        )
                if len(graph) >= max_states:
                    raise AnalysisBudgetExceeded(
                        f"inevitability: restricted system did not saturate "
                        f"within {max_states} states",
                        explored=len(graph),
                    )
                queue.append(target)
        span.set(states=len(graph), transitions=transitions_seen)
    with sess.tracer.span("inevitability.lasso-search", states=len(graph)):
        lasso = graph.find_lasso()
    if lasso is not None:
        stem, loop = lasso
        return AnalysisVerdict(
            holds=False,
            method="lasso-inside",
            certificate=LassoCertificate(stem=tuple(stem), loop=tuple(loop)),
            exact=True,
            details={"explored": len(graph)},
        )
    return AnalysisVerdict(
        holds=True,
        method="restricted-saturation",
        certificate=SaturationCertificate(len(graph), transitions_seen),
        exact=True,
        details={"explored": len(graph)},
    )


def halting_via_inevitability(
    scheme: RPScheme,
    *,
    initial: Optional[HState] = None,
    max_states: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    budget: Optional[Any] = None,
) -> AnalysisVerdict:
    """Corollary 7: halting as inevitability of leaving "non-terminated".

    ``I`` = all single-invocation states ``{(q,∅)}``: ``↑I`` is exactly the
    set of non-empty states, so "eventually leave ``↑I``" means "eventually
    reach ∅" — i.e. every computation terminates.  Cross-checked in the
    tests against the direct bounded-and-acyclic characterisation of
    :mod:`repro.analysis.termination`.
    """
    basis = [HState.leaf(node) for node in scheme.node_ids]
    return inevitability(
        scheme,
        basis,
        initial=initial,
        max_states=max_states,
        session=session,
        budget=budget,
    )


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _pump_stays_inside(
    semantics,
    certificate,
    inside,
    replays: int,
    index: Optional[EmbeddingIndex] = None,
) -> bool:
    """Check the pump's replayed iterations remain in ``↑I`` throughout."""
    if index is None:
        index = EmbeddingIndex()
    for transition in certificate.pump:
        if not inside(transition.target):
            return False
    state = certificate.pumped
    descriptors = list(certificate.pump_descriptors)
    for _ in range(max(1, replays)):
        trace = semantics.replay(state, descriptors)
        if trace is None:
            return False
        if any(not inside(t.target) for t in trace):
            return False
        previous, state = state, trace[-1].target
        if state.size <= previous.size or not index.strictly_embeds(previous, state):
            return False
    return True
