"""Backward coverability over the embedding wqo.

*Coverability*: given a scheme ``G``, an initial state ``σ0`` and a finite
set ``T`` of target states, can some state in the upward closure ``↑T``
(w.r.t. ``⪯``) be reached from ``σ0``?  Node reachability and mutual
exclusion (Theorem 4) are coverability questions: "node ``q`` occurs in
some reachable state" is exactly covering ``{(q,∅)}``, and "``q`` and
``q'`` occur simultaneously" is covering one of the three arrangements of
``{q, q'}`` into a forest.

The algorithm is the classic well-structured-transition-system backward
saturation: starting from the basis ``T``, repeatedly add a finite basis of
``Pred(↑b)`` for each basis element ``b`` until the upward-closed set stops
growing (termination by the wqo property), then test ``σ0 ∈ ↑basis``.

Exactness envelope (proved in the module's completeness analysis,
cross-validated by the test-suite against exhaustive exploration):

* the per-step predecessor bases are complete for **all** schemes, so the
  final set always *contains* ``pre*(↑T)`` — a **negative** answer
  (``σ0 ∉ ↑basis``) is therefore a proof for every scheme;
* a **positive** answer is a proof for wait-free schemes (where ``⪯`` is
  strongly compatible, making ``pre*(↑T)`` upward-closed); with ``wait``
  nodes extra invocations can block a wait on the replayed path, so a
  positive backward answer alone is reported with ``exact=False``.  The
  procedures in :mod:`repro.analysis.reachability` pair it with a forward
  witness search, which restores exact positives in practice.

Predecessor bases.  For a basis element ``b`` and each scheme node ``q``:

``action/test q → q'``
    relabel any ``q'``-vertex of ``b`` to ``q``; or insert a fresh
    ``q``-vertex anywhere (the moved token was not needed by ``b``).
``call q → q'`` spawning ``q''``
    relabel a ``q'``-vertex to ``q`` (optionally deleting one childless
    ``q''``-child of it — the spawned invocation); or replace a childless
    ``q''``-vertex by a fresh ``q``-vertex adopting any sub-multiset of its
    sibling subtrees; or insert a fresh ``q``-vertex anywhere.
``wait q → q'``
    relabel a **childless** ``q'``-vertex to ``q``; or insert a fresh
    ``q``-**leaf** anywhere (a wait-token must be childless to fire).
``end q``
    insert a fresh ``q``-vertex anywhere, adopting any sub-multiset of the
    subtrees at the insertion position (the dying invocation's released
    children).

"Insert anywhere" means: at the root forest or below any vertex, adopting
any sub-multiset of the subtrees present at that position as children.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..core.embedding import EmbeddingIndex
from ..core.hstate import EMPTY, HState
from ..core.scheme import NodeKind, RPScheme
from ..errors import AnalysisError
from ..wqo.kruskal import EmbeddingBasis
from .certificates import AnalysisVerdict

#: Widths above this make sub-multiset enumeration explode; the guard turns
#: a silent blow-up into a clear error.
MAX_FOREST_WIDTH = 14


def backward_coverability(
    scheme: RPScheme,
    targets: Sequence[HState],
    *,
    initial: Optional[HState] = None,
    session=None,
    budget: Optional[Any] = None,
) -> AnalysisVerdict:
    """Decide whether ``↑targets`` is coverable from *initial*.

    ``holds`` answers "coverable".  Negative verdicts are exact on every
    scheme; positive verdicts are exact on wait-free schemes only (see the
    module docstring).

    The backward saturation itself runs over the wqo basis, not the state
    graph, so a supplied ``session=`` contributes its initial state,
    query-timing instrumentation, and its :class:`EmbeddingIndex` (the
    saturation's membership/minimality tests share the session memo).
    A ``budget=`` requires a session (the governance layer lives on it)
    and is checked once per basis element processed by the saturation.
    """
    from ..robust.governance import governed

    if session is not None:
        if initial is None:
            initial = session.initial
        start = initial

        def body() -> AnalysisVerdict:
            with session.phase(
                "backward-coverability", targets=len(targets)
            ) as span:
                verdict = _backward_coverability(
                    scheme,
                    targets,
                    start,
                    session.embedding_index,
                    session.tracer,
                    ambient=session.budget,
                )
                span.set(holds=verdict.holds, **verdict.details)
                return verdict

        return governed(session, budget, "backward-coverability", body)
    if budget is not None:
        raise ValueError("backward_coverability: budget= requires a session=")
    return _backward_coverability(scheme, targets, initial, None, None)


def _backward_coverability(
    scheme: RPScheme,
    targets: Sequence[HState],
    initial: Optional[HState],
    index: Optional[EmbeddingIndex],
    tracer=None,
    ambient: Optional[Any] = None,
) -> AnalysisVerdict:
    start = initial if initial is not None else scheme.initial_state()
    if tracer is None:
        from ..obs import Tracer

        tracer = Tracer()
    reached = EmbeddingBasis(targets, index=index)
    frontier: List[HState] = list(reached.basis)
    iterations = 0
    with tracer.span("coverability.saturation", targets=len(targets)) as span:
        while frontier:
            iterations += 1
            fresh: List[HState] = []
            for basis_element in frontier:
                if ambient is not None:
                    ambient.check(
                        basis_size=len(reached),
                        frontier=len(frontier),
                        iterations=iterations,
                    )
                for predecessor in predecessor_basis(scheme, basis_element):
                    if reached.add(predecessor):
                        fresh.append(predecessor)
            frontier = fresh
        span.set(iterations=iterations, basis_size=len(reached))
    covered = start in reached
    return AnalysisVerdict(
        holds=covered,
        method="backward-coverability",
        certificate=tuple(reached.basis),
        exact=(not covered) or scheme.is_wait_free,
        details={"iterations": iterations, "basis_size": len(reached)},
    )


def predecessor_basis(scheme: RPScheme, target: HState) -> List[HState]:
    """A finite basis of ``Pred(↑target)`` (complete for every scheme)."""
    preds: Set[HState] = set()
    for node in scheme:
        if node.kind in (NodeKind.ACTION, NodeKind.TEST):
            for successor in node.successors:
                preds.update(_relabelings(target, successor, node.id))
            preds.update(_insertions(target, node.id))
        elif node.kind is NodeKind.PCALL:
            successor = node.successors[0]
            preds.update(_call_relabelings(target, successor, node.id, node.invoked))
            preds.update(_spawn_replacements(target, node.id, node.invoked))
            preds.update(_insertions(target, node.id))
        elif node.kind is NodeKind.WAIT:
            successor = node.successors[0]
            preds.update(_relabelings(target, successor, node.id, childless_only=True))
            preds.update(_insertions(target, node.id, leaf_only=True))
        elif node.kind is NodeKind.END:
            preds.update(_insertions(target, node.id))
    return sorted(preds, key=lambda s: (s.size, s.sort_key()))


# ----------------------------------------------------------------------
# Forest surgery
# ----------------------------------------------------------------------


def _relabelings(
    state: HState, old: str, new: str, childless_only: bool = False
) -> Iterator[HState]:
    """States obtained by relabelling one ``old``-vertex to ``new``."""
    for path, node, children in state.positions():
        if node != old:
            continue
        if childless_only and not children.is_empty():
            continue
        yield state.replace(path, ((new, children),))


def _call_relabelings(
    state: HState, successor: str, mover: str, spawned: str
) -> Iterator[HState]:
    """Call-rule preds with the moved token matched in the target."""
    for path, node, children in state.positions():
        if node != successor:
            continue
        yield state.replace(path, ((mover, children),))
        if children.count(spawned, EMPTY):
            reduced = children - HState.leaf(spawned)
            yield state.replace(path, ((mover, reduced),))


def _spawn_replacements(state: HState, mover: str, spawned: str) -> Iterator[HState]:
    """Call-rule preds where only the spawned child is matched.

    A childless ``spawned``-vertex of the target is replaced by a fresh
    ``mover``-vertex adopting any sub-multiset of its sibling subtrees.
    The recursion works forest-by-forest so sibling indices stay valid.
    """
    items = state.items
    for index, (node, children) in enumerate(items):
        if node == spawned and children.is_empty():
            siblings = items[:index] + items[index + 1 :]
            if len(siblings) > MAX_FOREST_WIDTH:
                raise AnalysisError(
                    f"backward coverability: forest width {len(siblings)} "
                    f"exceeds the enumeration guard ({MAX_FOREST_WIDTH})"
                )
            for adopted, rest in _sub_multisets(siblings):
                yield HState(rest + ((mover, HState(adopted)),))
        for new_child in _spawn_replacements(children, mover, spawned):
            rebuilt = list(items)
            rebuilt[index] = (node, new_child)
            yield HState(rebuilt)


def _insertions(state: HState, node: str, leaf_only: bool = False) -> Iterator[HState]:
    """States with a fresh ``node``-vertex inserted anywhere.

    The new vertex may adopt any sub-multiset of the subtrees at its
    insertion position (none, when *leaf_only*).
    """
    yield from _adopt_at(state, (), node, leaf_only=leaf_only)
    for path, _vertex, _children in state.positions():
        yield from _adopt_at(state, path, node, leaf_only=leaf_only)


def _adopt_at(
    state: HState, forest_path: Tuple[int, ...], node: str, leaf_only: bool = False
) -> Iterator[HState]:
    """Insert ``node`` into the forest addressed by *forest_path*.

    ``forest_path = ()`` addresses the root forest; otherwise the children
    forest of the vertex at that path.  The inserted vertex adopts each
    sub-multiset of the forest's subtrees in turn.
    """
    if forest_path:
        parent_node, forest = state.subtree(forest_path)
    else:
        forest = state
    if len(forest.items) > MAX_FOREST_WIDTH:
        raise AnalysisError(
            f"backward coverability: forest width {len(forest.items)} exceeds "
            f"the enumeration guard ({MAX_FOREST_WIDTH})"
        )
    for adopted, rest in _sub_multisets(forest.items, leaf_only=leaf_only):
        new_forest = HState(rest + ((node, HState(adopted)),))
        if forest_path:
            yield state.replace(forest_path, ((parent_node, new_forest),))
        else:
            yield new_forest


def _sub_multisets(
    items: Tuple, leaf_only: bool = False
) -> Iterator[Tuple[Tuple, Tuple]]:
    """Distinct (sub-multiset, complement) splits of an item tuple."""
    if leaf_only:
        yield (), items
        return
    seen: Set[Tuple] = set()
    n = len(items)
    for mask in range(1 << n):
        adopted = tuple(items[i] for i in range(n) if mask & (1 << i))
        key = tuple(sorted((node, child.sort_key()) for node, child in adopted))
        if key in seen:
            continue
        seen.add(key)
        rest = tuple(items[i] for i in range(n) if not mask & (1 << i))
        yield adopted, rest


# ----------------------------------------------------------------------
# Arrangements (mutual-exclusion targets)
# ----------------------------------------------------------------------


def arrangements(nodes: Sequence[str]) -> List[HState]:
    """All forests whose vertex multiset is exactly *nodes*.

    A state contains all of *nodes* simultaneously iff it is above one of
    these arrangements, so they form the coverability basis for
    "do these nodes co-occur?" questions.
    """
    results: Set[HState] = set()
    _arrange(tuple(sorted(nodes)), results)
    return sorted(results, key=lambda s: s.sort_key())


def _arrange(nodes: Tuple[str, ...], results: Set[HState]) -> None:
    for forest in _forests_over(nodes):
        results.add(forest)


def _forests_over(nodes: Tuple[str, ...]) -> Iterator[HState]:
    """All unordered forests whose vertex multiset is exactly *nodes*.

    The first node acts as pivot: choose the vertex set of the tree
    containing it (avoiding double counting), build all trees over that
    set, and recurse on the remainder.
    """
    if not nodes:
        yield EMPTY
        return
    pivot, rest = nodes[0], nodes[1:]
    for mask in range(1 << len(rest)):
        inside = tuple(rest[i] for i in range(len(rest)) if mask & (1 << i))
        outside = tuple(rest[i] for i in range(len(rest)) if not mask & (1 << i))
        for tree in _trees_over((pivot,) + inside):
            for sibling_forest in _forests_over(outside):
                yield tree + sibling_forest


def _trees_over(nodes: Tuple[str, ...]) -> Iterator[HState]:
    """All single trees whose vertex multiset is exactly *nodes*."""
    seen_roots: Set[str] = set()
    for index, root in enumerate(nodes):
        if root in seen_roots:
            continue
        seen_roots.add(root)
        others = nodes[:index] + nodes[index + 1 :]
        for children in _forests_over(others):
            yield HState(((root, children),))
