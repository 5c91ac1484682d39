"""Embeddings between hierarchical states.

The paper orders hierarchical states by *forest embedding*: ``σ ⪯ σ'`` iff
``σ`` can be obtained from ``σ'`` by deleting some invocations while
preserving the (transitive) ancestor relationships between the remaining
ones.  By Kruskal's Tree Theorem this is a well-quasi-ordering with the
empty state ``∅`` as minimum, and it is the backbone of the decidability
results of Section 3 (sup-reachability, boundedness).

Section 3 also uses a finer *⋆-embedding* with gap conditions (defined in
[KS96a], not reproduced in the paper text).  We implement a parameterised
gap embedding: ``σ ⪯⋆ σ'`` iff there is an embedding of ``σ`` into ``σ'``
such that every *deleted* invocation of ``σ'`` is at a node from a given
``gap`` set.  With ``gap = all nodes`` this degenerates to plain embedding;
with a restricted gap set it is strictly finer, which is what the
inevitability procedure (Theorem 6) needs — see DESIGN.md for the
substitution note.

Deciding unordered-forest embedding is done by a memoised recursion.  Two
distinct source trees may embed into the *same* target tree provided their
images are incomparable (e.g. ``{a, b}`` embeds into ``{c,{a, b}}``); the
algorithm therefore assigns *groups* of source trees to target trees, with
a bipartite-matching fast path for the common injective case.

Fast path (see docs/performance.md).  Every :class:`~.hstate.HState`
carries an interned :class:`~.hstate.Signature`; a query ``σ ⪯ σ'`` is
*refuted* in O(distinct nodes) whenever σ's size, height or per-node
occurrence counts are not dominated by σ's — checked before any recursive
matching.  Memo tables are keyed by the states themselves (their hashes
are cached), and an :class:`Embedder` can be shared across calls so the
tables persist; :class:`EmbeddingIndex` manages one shared embedder per
gap-predicate identity for the lifetime of an analysis session and counts
calls, signature refutations and memo hits.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import AnalysisError
from .hstate import HState

#: One tree of a hierarchical state: an invocation with its children forest.
Tree = Tuple[str, HState]

#: Most ways the complete forest search may split the source trees
#: between the first target tree and the rest; past it the search raises
#: :class:`~repro.errors.AnalysisError` instead of blowing up.
MAX_FOREST_SPLITS = 1 << 16


def embeds(small: HState, big: HState, *, embedder: Optional["Embedder"] = None) -> bool:
    """Decide the paper's forest embedding ``small ⪯ big``.

    An *embedder* may be supplied to reuse its memo tables (and, if it
    carries a gap condition, to decide that ⋆-embedding instead); without
    one a throwaway signature-pruned embedder is used.

    >>> embeds(HState.parse("a,b"), HState.parse("c,{a,b}"))
    True
    >>> embeds(HState.parse("a,{b}"), HState.parse("b,{a}"))
    False
    """
    if embedder is None:
        embedder = Embedder()
    return embedder.forest_embeds(small, big)


def naive_embeds(
    small: HState, big: HState, gap_nodes: Optional[Iterable[str]] = None
) -> bool:
    """Reference implementation: per-call memo, no signature pruning.

    This is the historical decision procedure, retained verbatim as the
    differential-testing oracle for the accelerated path (and as the
    "naive" arm of ``benchmarks/bench_wqo_index.py``).  Semantics are
    identical to :func:`embeds` / :meth:`GapEmbedding.embeds`.
    """
    gaps = None if gap_nodes is None else frozenset(gap_nodes)
    return Embedder(gap_nodes=gaps, signatures=False).forest_embeds(small, big)


def strictly_embeds(
    small: HState, big: HState, *, embedder: Optional["Embedder"] = None
) -> bool:
    """``small ⪯ big`` and ``small ≠ big``."""
    return small != big and embeds(small, big, embedder=embedder)


def is_minimal_among(
    state: HState,
    others: Iterable[HState],
    *,
    embedder: Optional["Embedder"] = None,
) -> bool:
    """``True`` iff no state in *others* strictly embeds into *state*.

    Pass a shared *embedder* when screening many states against the same
    pool so all pairs reuse one set of memo tables.
    """
    if embedder is None:
        embedder = Embedder()
    return not any(
        strictly_embeds(other, state, embedder=embedder) for other in others
    )


class Embedder:
    """Memoised decision procedure for unordered forest embedding.

    An optional *gap_nodes* set restricts which target invocations may be
    deleted; ``None`` means every deletion is allowed (plain embedding).
    With ``signatures=True`` (the default) queries are first screened by
    the states' cached :class:`~.hstate.Signature`; ``signatures=False``
    reproduces the unaccelerated reference behaviour.

    Instances are reusable and accumulate memo tables plus three counters
    (``calls``, ``sig_refutations``, ``memo_hits``); create one per gap
    set and keep it for as long as the memoised pairs stay relevant — the
    tables only ever grow (see :class:`EmbeddingIndex` for the managed,
    session-lifetime variant).
    """

    __slots__ = (
        "_gap_nodes",
        "_signatures",
        "_pair_memo",
        "_tree_memo",
        "_root_memo",
        "_forest_memo",
        "_deletable_memo",
        "calls",
        "sig_refutations",
        "memo_hits",
    )

    def __init__(
        self,
        gap_nodes: Optional[FrozenSet[str]] = None,
        *,
        signatures: bool = True,
    ) -> None:
        self._gap_nodes = gap_nodes
        self._signatures = signatures
        self._pair_memo: Dict[Tuple[HState, HState], bool] = {}
        self._tree_memo: Dict[Tuple, bool] = {}
        self._root_memo: Dict[Tuple, bool] = {}
        self._forest_memo: Dict[Tuple, bool] = {}
        self._deletable_memo: Dict[Tree, bool] = {}
        self.calls = 0
        self.sig_refutations = 0
        self.memo_hits = 0

    @property
    def gap_nodes(self) -> Optional[FrozenSet[str]]:
        """The allowed gap nodes (``None`` = plain embedding)."""
        return self._gap_nodes

    def reset(self) -> None:
        """Drop all memo tables, keeping the counters (naive-mode A/B)."""
        self._pair_memo.clear()
        self._tree_memo.clear()
        self._root_memo.clear()
        self._forest_memo.clear()
        self._deletable_memo.clear()

    # -- public entry ---------------------------------------------------

    def forest_embeds(self, small: HState, big: HState) -> bool:
        """Decide whether forest *small* embeds into forest *big*."""
        self.calls += 1
        if small is big:
            return True
        key = (small, big)
        cached = self._pair_memo.get(key)
        if cached is not None:
            self.memo_hits += 1
            return cached
        if self._signatures and not small.signature.dominated_by(big.signature):
            self.sig_refutations += 1
            self._pair_memo[key] = False
            return False
        result = self._forest(small.items, big.items)
        self._pair_memo[key] = result
        return result

    # -- deletability (gap condition) ----------------------------------

    def _tree_deletable(self, tree: Tree) -> bool:
        """May the whole target *tree* be absent from the image?"""
        gaps = self._gap_nodes
        if gaps is None:
            return True
        if self._signatures:
            # every node occurring anywhere in the tree must be a gap node;
            # the fingerprint answers this without walking the tree
            return tree[0] in gaps and all(
                node in gaps for node in tree[1].signature.counts
            )
        cached = self._deletable_memo.get(tree)
        if cached is None:
            cached = tree[0] in gaps and all(
                self._tree_deletable(child) for child in tree[1].items
            )
            self._deletable_memo[tree] = cached
        return cached

    def _forest_deletable(self, forest: Sequence[Tree]) -> bool:
        return all(self._tree_deletable(tree) for tree in forest)

    # -- tree-level relations -------------------------------------------

    def _tree(self, s: Tree, t: Tree) -> bool:
        """Source tree *s* embeds into target tree *t* (image root anywhere)."""
        if self._signatures and self._tree_refuted(s, t):
            return False
        key = (s, t)
        cached = self._tree_memo.get(key)
        if cached is not None:
            return cached
        result = self._root(s, t)
        if not result and (self._gap_nodes is None or t[0] in self._gap_nodes):
            # Drop the root of t and descend into one child; all sibling
            # subtrees of that child must then be deletable.
            children = t[1].items
            for index, child in enumerate(children):
                siblings = children[:index] + children[index + 1 :]
                if self._forest_deletable(siblings) and self._tree(s, child):
                    result = True
                    break
        self._tree_memo[key] = result
        return result

    def _tree_refuted(self, s: Tree, t: Tree) -> bool:
        """Signature check for whole trees (roots included): True = impossible."""
        s_sig, t_sig = s[1].signature, t[1].signature
        if s_sig.size > t_sig.size or s_sig.height > t_sig.height:
            self.sig_refutations += 1
            return True
        t_counts, t_root = t_sig.counts, t[0]
        for node, need in s_sig.counts.items():
            if node == s[0]:
                need += 1
            if t_counts.get(node, 0) + (1 if node == t_root else 0) < need:
                self.sig_refutations += 1
                return True
        if s[0] not in s_sig.counts:
            if t_counts.get(s[0], 0) + (1 if s[0] == t_root else 0) < 1:
                self.sig_refutations += 1
                return True
        return False

    def _root(self, s: Tree, t: Tree) -> bool:
        """*s* embeds into *t* with root mapped to root."""
        if s[0] != t[0]:
            return False
        if self._signatures and not s[1].signature.dominated_by(t[1].signature):
            self.sig_refutations += 1
            return False
        key = (s[1], t[1])
        cached = self._root_memo.get(key)
        if cached is None:
            cached = self._forest(s[1].items, t[1].items)
            self._root_memo[key] = cached
        return cached

    # -- forest-level relation ------------------------------------------

    def _forest(self, sources: Sequence[Tree], targets: Sequence[Tree]) -> bool:
        """Each source tree maps into targets with pairwise-incomparable images.

        Unassigned target trees must be deletable under the gap condition.
        """
        if not sources:
            return self._forest_deletable(targets)
        if sum(1 + s[1].size for s in sources) > sum(1 + t[1].size for t in targets):
            return False
        key = (tuple(sources), tuple(targets))
        cached = self._forest_memo.get(key)
        if cached is not None:
            return cached
        result = self._forest_matching(sources, targets) or self._forest_search(
            sources, targets
        )
        self._forest_memo[key] = result
        return result

    def _forest_matching(self, sources: Sequence[Tree], targets: Sequence[Tree]) -> bool:
        """Fast path: injective assignment via bipartite matching.

        Sound but incomplete (two sources may legitimately share a target);
        complete search is attempted when matching fails.  With a gap
        condition the unmatched targets must additionally be deletable, so
        the fast path is only used when all targets are deletable or the
        matching is exact.
        """
        adjacency: List[List[int]] = []
        for s in sources:
            row = [j for j, t in enumerate(targets) if self._tree(s, t)]
            if not row:
                return False
            adjacency.append(row)
        match_of_target: Dict[int, int] = {}

        def augment(i: int, seen: set) -> bool:
            for j in adjacency[i]:
                if j in seen:
                    continue
                seen.add(j)
                if j not in match_of_target or augment(match_of_target[j], seen):
                    match_of_target[j] = i
                    return True
            return False

        for i in range(len(sources)):
            if not augment(i, set()):
                return False
        if self._gap_nodes is not None:
            leftovers = [t for j, t in enumerate(targets) if j not in match_of_target]
            if not self._forest_deletable(leftovers):
                return False
        return True

    def _forest_search(self, sources: Sequence[Tree], targets: Sequence[Tree]) -> bool:
        """Complete search: assign a group of sources to each target tree.

        A group of two or more sources assigned to one target must embed
        entirely into that target's children forest (two roots inside one
        tree cannot both sit on its root, and any node of a tree is
        comparable with its root).  Equal source trees are
        interchangeable, so a group is chosen by how many copies of each
        distinct tree it takes, not by which copies; canonical order keeps
        equal trees adjacent, and both halves of a split stay canonical.
        """
        if not targets:
            return not sources
        first, rest = targets[0], targets[1:]
        runs: List[List] = []  # [tree, copies] per run of equal trees
        for tree in sources:
            if runs and runs[-1][0] == tree:
                runs[-1][1] += 1
            else:
                runs.append([tree, 1])
        splits = 1
        for _tree, count in runs:
            splits *= count + 1
        if splits > MAX_FOREST_SPLITS:
            raise AnalysisError(
                f"forest embedding: {splits} ways to split {len(sources)} "
                f"source trees exceed the enumeration guard "
                f"({MAX_FOREST_SPLITS})"
            )
        for taken in itertools.product(*[range(count + 1) for _tree, count in runs]):
            group: List[Tree] = []
            others: List[Tree] = []
            for (tree, count), k in zip(runs, taken):
                group += [tree] * k
                others += [tree] * (count - k)
            if self._fits(group, first) and self._forest(tuple(others), rest):
                return True
        return False

    def _fits(self, group: Sequence[Tree], target: Tree) -> bool:
        if not group:
            return self._tree_deletable(target)
        if len(group) == 1:
            return self._tree(group[0], target)
        # ≥ 2 incomparable images inside one tree: all strictly below the
        # root, i.e. inside the children forest (root consumed as a gap).
        if self._gap_nodes is not None and target[0] not in self._gap_nodes:
            return False
        return self._forest(tuple(group), target[1].items)


#: Backwards-compatible alias: the embedder used to be module-private.
_Embedder = Embedder


class GapEmbedding:
    """The parameterised ⋆-embedding ``⪯⋆`` (gap-condition embedding).

    ``GapEmbedding(gap_nodes)`` allows only invocations at nodes from
    *gap_nodes* to be deleted; ``GapEmbedding(None)`` allows everything and
    coincides with plain embedding.  Any restriction yields a finer
    ordering: ``σ ⪯⋆ σ'  ⟹  σ ⪯ σ'``.

    Instances are stateless; to reuse memo tables across calls route the
    queries through an :class:`EmbeddingIndex` (which keys its shared
    embedders by the ``gap_nodes`` set) or pass ``embedder=``.
    """

    def __init__(self, gap_nodes: Optional[Iterable[str]] = None) -> None:
        self._gap_nodes: Optional[FrozenSet[str]] = (
            None if gap_nodes is None else frozenset(gap_nodes)
        )

    @property
    def gap_nodes(self) -> Optional[FrozenSet[str]]:
        """The allowed gap nodes, or ``None`` for the unrestricted variant."""
        return self._gap_nodes

    def embedder(self) -> Embedder:
        """A fresh signature-pruned embedder deciding this ⋆-embedding."""
        return Embedder(gap_nodes=self._gap_nodes)

    def embeds(
        self, small: HState, big: HState, *, embedder: Optional[Embedder] = None
    ) -> bool:
        """Decide ``small ⪯⋆ big``."""
        if embedder is None:
            embedder = self.embedder()
        return embedder.forest_embeds(small, big)

    def strictly_embeds(
        self, small: HState, big: HState, *, embedder: Optional[Embedder] = None
    ) -> bool:
        """``small ⪯⋆ big`` and ``small ≠ big``."""
        return small != big and self.embeds(small, big, embedder=embedder)

    def dominates(
        self,
        state: HState,
        basis: Iterable[HState],
        *,
        embedder: Optional[Embedder] = None,
    ) -> bool:
        """``True`` iff *state* is in the upward closure (w.r.t. ⪯⋆) of *basis*."""
        if embedder is None:
            embedder = self.embedder()
        return any(self.embeds(low, state, embedder=embedder) for low in basis)

    def __repr__(self) -> str:
        if self._gap_nodes is None:
            return "GapEmbedding(None)"
        return f"GapEmbedding({sorted(self._gap_nodes)!r})"


#: The unrestricted embedding, exposed with the same interface as
#: :class:`GapEmbedding` so analysis code can take either.
PLAIN_EMBEDDING = GapEmbedding(None)


class EmbeddingIndex:
    """Session-lifetime embedding memoisation, keyed by gap identity.

    One shared :class:`Embedder` per gap-predicate identity (the
    ``gap_nodes`` frozenset; ``None`` for plain embedding, which every
    plain query shares), so the memoised pairs of *all* decision
    procedures running on one :class:`~repro.analysis.session.AnalysisSession`
    accumulate in the same tables.  The embedders' plain int counters are
    the one store of the session's embedding counts: the aggregate
    properties below sum them on read, ``AnalysisStats`` reads those,
    and ``AnalysisSession.sync_metrics`` exports them per gap key.  The
    readers iterate a snapshot of the embedder table, so they are safe
    while a query on another thread adds an embedder.

    ``accelerated=False`` turns the index into the *naive* reference
    harness: signature pruning is disabled and the memo tables are
    dropped before every query (per-call memoisation only), reproducing
    the historical cost model while keeping the counters — this is the
    A/B switch used by ``benchmarks/bench_wqo_index.py``.

    Identity caveat: two gap predicates are considered the same iff their
    ``gap_nodes`` sets are equal; gap conditions not expressible as a
    node set must not be routed through an index (see
    docs/performance.md).
    """

    def __init__(self, *, accelerated: bool = True) -> None:
        self.accelerated = accelerated
        self._embedders: Dict[Optional[FrozenSet[str]], Embedder] = {}

    def embedder_for(self, gap_nodes: Optional[FrozenSet[str]] = None) -> Embedder:
        """The shared embedder deciding the (⋆-)embedding for *gap_nodes*."""
        shared = self._embedders.get(gap_nodes)
        if shared is None:
            shared = Embedder(gap_nodes=gap_nodes, signatures=self.accelerated)
            self._embedders[gap_nodes] = shared
        elif not self.accelerated:
            shared.reset()
        return shared

    def embeds(
        self,
        small: HState,
        big: HState,
        embedding: Optional[GapEmbedding] = None,
    ) -> bool:
        """Decide ``small ⪯ big`` (or ``⪯⋆`` under *embedding*), memoised."""
        gap_nodes = None if embedding is None else embedding.gap_nodes
        return self.embedder_for(gap_nodes).forest_embeds(small, big)

    def strictly_embeds(
        self,
        small: HState,
        big: HState,
        embedding: Optional[GapEmbedding] = None,
    ) -> bool:
        """``small ⪯ big`` (or ``⪯⋆``) and ``small ≠ big``."""
        return small != big and self.embeds(small, big, embedding)

    def dominates(
        self,
        state: HState,
        basis: Iterable[HState],
        embedding: Optional[GapEmbedding] = None,
    ) -> bool:
        """``True`` iff some element of *basis* (⋆-)embeds into *state*."""
        gap_nodes = None if embedding is None else embedding.gap_nodes
        shared = self.embedder_for(gap_nodes)
        return any(shared.forest_embeds(low, state) for low in basis)

    # -- counters -------------------------------------------------------

    @property
    def calls(self) -> int:
        """Top-level embedding queries answered so far."""
        return sum(e.calls for _, e in self.embedders())

    @property
    def signature_refutations(self) -> int:
        """Queries refuted by the signature domination test alone."""
        return sum(e.sig_refutations for _, e in self.embedders())

    @property
    def memo_hits(self) -> int:
        """Top-level queries answered from the session-lifetime pair memo."""
        return sum(e.memo_hits for _, e in self.embedders())

    def counters(self) -> Dict[str, int]:
        """A snapshot of the aggregate counters (JSON-ready)."""
        return {
            "calls": self.calls,
            "signature_refutations": self.signature_refutations,
            "memo_hits": self.memo_hits,
        }

    def embedders(self):
        """``(gap_key, embedder)`` pairs, one per distinct gap identity.

        The per-gap breakdown behind the aggregate counter properties;
        metrics publication labels counters by gap key from this.  A
        snapshot list, so iterating it never races an insertion.
        """
        return list(self._embedders.items())

    def __repr__(self) -> str:
        mode = "accelerated" if self.accelerated else "naive"
        return (
            f"EmbeddingIndex({mode}, gap_keys={len(self._embedders)}, "
            f"calls={self.calls}, refutations={self.signature_refutations}, "
            f"hits={self.memo_hits})"
        )
