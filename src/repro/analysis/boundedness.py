"""The Boundedness Problem (Theorem 4, last item).

*Input:* a scheme ``G`` and a state ``σ ∈ M(G)``.
*Output:* true iff ``Reach(σ)`` is finite.

The paper's proof of Proposition 16 describes how unboundedness always
shows up as one of two pump shapes along a run — sibling growth
(``C[q,ω] →* C[q, ω+ω']``) or depth growth (``C[q,ω] →* C[ω'[q,ω]]``) —
both of which are instances of a *strict self-covering*: a run
``σ_k →* σ_l`` with ``σ_k ≺ σ_l`` (strict embedding).  The procedure here
is the Karp–Miller-style forward search for such self-coverings, combined
with exhaustive saturation:

* **bounded** verdicts come from saturation: the whole of ``Reach(σ)`` was
  enumerated (always a proof);
* **unbounded** verdicts come from a strict self-covering on a search path.
  For *wait-free* schemes this is a proof: plain embedding is strongly
  compatible with the transition relation (the extra invocations are
  inert), so the covering run can be iterated forever, producing ever
  larger states.  With ``wait`` nodes extra invocations can block a wait,
  so the certificate is additionally *verified by replay*: the pump's
  firing-descriptor sequence is re-fired from the covering state the
  requested number of times, demanding strictly growing results each time.
  Replay-verified verdicts are flagged ``exact=False`` (see DESIGN.md for
  the substitution note — the paper's exact algorithm is in the
  unpublished [Sch96]).

If neither saturation nor a self-covering occurs within the state budget,
:class:`~repro.errors.AnalysisBudgetExceeded` is raised rather than
guessing.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from ..core.embedding import EmbeddingIndex
from ..core.hstate import HState
from ..core.scheme import RPScheme
from ..core.semantics import AbstractSemantics, Transition
from ..errors import AnalysisBudgetExceeded
from ..robust.governance import governed
from .certificates import AnalysisVerdict, PumpCertificate, SaturationCertificate
from .explore import DEFAULT_MAX_STATES
from .session import AnalysisSession, resolve_session


def boundedness(
    scheme: RPScheme,
    *,
    initial: Optional[HState] = None,
    max_states: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    replays: Optional[int] = None,
    budget: Optional[Any] = None,
) -> AnalysisVerdict:
    """Decide whether ``Reach(initial)`` is finite.

    Returns a verdict whose certificate is a
    :class:`~repro.analysis.certificates.SaturationCertificate` (bounded)
    or a :class:`~repro.analysis.certificates.PumpCertificate` (unbounded).

    The BFS-with-self-covering-checks runs over the session's shared
    graph: states already explored by earlier queries are scanned for
    pumps without re-exploration, growth resumes from the saved frontier,
    and conclusive verdicts are memoized on the session (a saturation or
    pump proof is budget-independent).
    """
    state_budget = max_states if max_states is not None else DEFAULT_MAX_STATES
    replays = 2 if replays is None else replays
    sess = resolve_session(scheme, session, initial)

    def body() -> AnalysisVerdict:
        with sess.phase(
            "boundedness", budget=state_budget, replays=replays
        ) as span:
            verdict = _session_boundedness(sess, state_budget, replays)
            span.set(holds=verdict.holds, method=verdict.method)
            return verdict

    return governed(sess, budget, "boundedness", body)


def _session_boundedness(
    sess: AnalysisSession, budget: int, replays: int
) -> AnalysisVerdict:
    cached = sess.memo.get(("boundedness", replays))
    if cached is not None:
        return cached
    graph = sess.graph
    semantics = sess.semantics
    found: List[PumpCertificate] = []

    def check(state: HState) -> bool:
        """Self-covering check for a freshly discovered *state*."""
        via = graph.parent[state]
        if via is None:
            return False
        pump = _covering_ancestor(graph.parent, via, sess.embedding_index)
        if pump is None:
            return False
        with sess.tracer.span(
            "boundedness.certificate", pump_length=len(pump)
        ) as span:
            certificate = _certify_pump(
                sess.scheme,
                semantics,
                graph.parent,
                pump,
                replays,
                sess.embedding_index,
            )
            span.set(certified=certificate is not None)
        if certificate is None:
            return False
        found.append(certificate)
        return True

    # scan states discovered by earlier queries (BFS discovery order, so
    # the first certified pump matches what a fresh search would return),
    # resuming where the last inconclusive boundedness call left off
    scan_key = ("boundedness-scanned", replays)
    scanned = sess.memo.get(scan_key, 0)
    with sess.tracer.span("boundedness.scan", resume_from=scanned) as span:
        for state in graph.states[scanned:]:
            scanned += 1
            if check(state):
                break
        else:
            if not graph.complete:
                graph = sess.explore(budget, stop_when=check)
                scanned = len(graph.states)
        span.set(scanned=scanned, pumps=len(found))
    if found:
        verdict = AnalysisVerdict(
            holds=False,
            method="self-covering",
            certificate=found[0],
            exact=found[0].proof,
            details={"explored": len(graph)},
        )
        sess.memo[("boundedness", replays)] = verdict
        return verdict
    if graph.complete:
        verdict = AnalysisVerdict(
            holds=True,
            method="saturation",
            certificate=SaturationCertificate(
                states=len(graph), transitions=graph.num_transitions
            ),
            exact=True,
            details={"explored": len(graph)},
        )
        sess.memo[("boundedness", replays)] = verdict
        return verdict
    sess.memo[scan_key] = scanned
    raise AnalysisBudgetExceeded(
        f"boundedness: no saturation and no verifiable self-covering "
        f"within {sess._state_cap(budget)} states",
        explored=len(graph),
    )


def _covering_ancestor(
    parent: dict, last: Transition, index: Optional[EmbeddingIndex] = None
) -> Optional[List[Transition]]:
    """The pump segment ending in *last* whose start is strictly covered.

    Walks the BFS-tree ancestors of ``last.target``; returns the transition
    segment from the covered ancestor to ``last.target`` when one strictly
    embeds into it.  Embedding tests go through *index* (the session's
    memoised :class:`~repro.core.embedding.EmbeddingIndex`) when given.
    """
    if index is None:
        index = EmbeddingIndex()
    target = last.target
    segment: List[Transition] = [last]
    via = parent[last.source]
    current = last.source
    while True:
        if current.size < target.size and index.strictly_embeds(current, target):
            segment.reverse()
            return segment
        if via is None:
            return None
        segment.append(via)
        current = via.source
        via = parent[current]


def _certify_pump(
    scheme: RPScheme,
    semantics: AbstractSemantics,
    parent: dict,
    pump: List[Transition],
    replays: int,
    index: Optional[EmbeddingIndex] = None,
) -> Optional[PumpCertificate]:
    """Build (and for wait-bearing schemes, replay-verify) a pump certificate."""
    base = pump[0].source
    pumped = pump[-1].target
    prefix: List[Transition] = []
    via = parent[base]
    current = base
    while via is not None:
        prefix.append(via)
        current = via.source
        via = parent[current]
    prefix.reverse()
    if scheme.is_wait_free:
        return PumpCertificate(
            prefix=tuple(prefix),
            pump=tuple(pump),
            base=base,
            pumped=pumped,
            replays=0,
            proof=True,
        )
    descriptors = [t.descriptor for t in pump]
    state = pumped
    for _ in range(replays):
        trace = _replay_growing(semantics, state, descriptors, index)
        if trace is None:
            return None
        state = trace[-1].target
    return PumpCertificate(
        prefix=tuple(prefix),
        pump=tuple(pump),
        base=base,
        pumped=pumped,
        replays=replays,
        proof=False,
    )


def _replay_growing(
    semantics: AbstractSemantics,
    state: HState,
    descriptors,
    index: Optional[EmbeddingIndex] = None,
) -> Optional[List[Transition]]:
    """Re-fire *descriptors* from *state* demanding a strictly bigger result."""
    if index is None:
        index = EmbeddingIndex()
    trace = semantics.replay(state, descriptors)
    if trace is None:
        return None
    final = trace[-1].target
    if final.size <= state.size or not index.strictly_embeds(state, final):
        return None
    return trace
