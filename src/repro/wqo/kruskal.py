"""Kruskal's Tree Theorem over hierarchical states.

Kruskal's Tree Theorem [Kru60] states that finite trees with labels from a
wqo, ordered by homeomorphic embedding, form a wqo.  The paper applies it
with label equality over the (finite) node set of a scheme: the embedding
``⪯`` of hierarchical states is a well-quasi-ordering, hence every
upward-closed set of states has a finite basis, which drives Theorem 5
(sup-reachability) and the termination arguments of Section 3.

The decision procedure for ``⪯`` itself lives in
:mod:`repro.core.embedding`; this module packages it (and the gap variant)
as :class:`~repro.wqo.orderings.QuasiOrder` instances, keeps finite bases
of states under it (:class:`EmbeddingBasis`, the one domination scan of
the decision procedures), and provides the minimal-bad-sequence utilities
used to test the wqo property empirically.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

from ..core.embedding import EmbeddingIndex, GapEmbedding, embeds
from ..core.hstate import HState
from .orderings import QuasiOrder


def tree_embedding_order(
    leq: Optional[Callable[[HState, HState], bool]] = None
) -> QuasiOrder:
    """The paper's embedding ``⪯`` on hierarchical states, as a wqo.

    *leq* substitutes an equivalent decision procedure — typically the
    session-memoised ``EmbeddingIndex.embeds`` — without changing the
    order's meaning.
    """
    return QuasiOrder(leq if leq is not None else embeds, name="⪯")


def gap_embedding_order(gap_nodes: Optional[Iterable[str]]) -> QuasiOrder:
    """The ⋆-embedding ``⪯⋆`` with the given gap-node set.

    Note: the ⋆-embedding is a wqo over the states of a *fixed finite
    scheme* (labels range over a finite set); over unrestricted gap sets it
    degenerates to plain embedding.
    """
    gap = GapEmbedding(gap_nodes)
    return QuasiOrder(gap.embeds, name=f"⪯⋆{gap!r}")


class EmbeddingBasis:
    """A finite basis of hierarchical states: the one domination scan.

    ``state in basis`` asks whether some member embeds into *state* (under
    ``⪯``, or under the ⋆-embedding *embedding*); :meth:`add` adds a state
    unless a member lies below it.  :attr:`basis` lists the members in
    insertion order.  With ``minimal=True`` every given state is added in
    turn and adding one drops the members above it, so the basis is
    :func:`~repro.wqo.orderings.minimal_elements` of what was added, in
    the same order.  With ``minimal=False`` the given states are the
    members as they are, and no member is ever dropped.

    Members are grouped by *node support*, the scheme nodes a state holds
    (the keys of its signature's ``counts``).  An embedding maps every
    invocation to one at the same node, so ``low ⪯ state`` (and
    ``low ⪯⋆ state``) needs ``support(low) ⊆ support(state)`` and
    ``low.size ≤ state.size``.  A scan tests each group's support with
    one subset test and each member's size; only the members that pass
    both reach :meth:`EmbeddingIndex.embeds
    <repro.core.embedding.EmbeddingIndex.embeds>`, with its signature
    refutation and session-lifetime memo.  The screens skip only calls
    that would answer ``False``.  Under ``EmbeddingIndex(accelerated=False)``
    nothing is screened and every member is scanned in insertion order:
    the naive reference arm.
    """

    __slots__ = ("_index", "_embedding", "_minimal", "_screened", "_members", "_groups")

    def __init__(
        self,
        basis: Iterable[HState] = (),
        *,
        index: Optional[EmbeddingIndex] = None,
        embedding: Optional[GapEmbedding] = None,
        minimal: bool = True,
    ) -> None:
        self._index = index if index is not None else EmbeddingIndex()
        self._embedding = embedding
        self._minimal = minimal
        self._screened = self._index.accelerated
        self._members: List[HState] = []
        self._groups: Dict[FrozenSet[str], List[HState]] = {}
        if minimal:
            for state in basis:
                self.add(state)
        else:
            self._members = list(basis)
            self._regroup()

    @property
    def basis(self) -> Tuple[HState, ...]:
        """The members, in insertion order."""
        return tuple(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[HState]:
        return iter(self._members)

    def __contains__(self, state: HState) -> bool:
        return self._covers(state, _support(state) if self._screened else None)

    def add(self, state: HState) -> bool:
        """Add *state* unless a member lies below it; ``True`` iff added.

        With ``minimal=True`` the members above *state* are dropped.
        """
        support = _support(state) if self._screened else None
        if self._covers(state, support):
            return False
        if self._minimal:
            self._drop_above(state, support)
        self._members.append(state)
        if support is not None:
            self._groups.setdefault(support, []).append(state)
        return True

    def _covers(self, state: HState, support: Optional[FrozenSet[str]]) -> bool:
        """Does some member (⋆-)embed into *state*?"""
        embeds, embedding = self._index.embeds, self._embedding
        if support is None:
            return any(embeds(low, state, embedding) for low in self._members)
        size = state.size
        for nodes, members in self._groups.items():
            if nodes <= support and any(
                low.size <= size and embeds(low, state, embedding) for low in members
            ):
                return True
        return False

    def _drop_above(self, state: HState, support: Optional[FrozenSet[str]]) -> None:
        """Drop the members *state* (⋆-)embeds into."""
        if support is None:
            candidates = self._members
        else:
            size = state.size
            candidates = [
                high
                for nodes, members in self._groups.items()
                if support <= nodes
                for high in members
                if high.size >= size
            ]
        embeds, embedding = self._index.embeds, self._embedding
        dropped = {high for high in candidates if embeds(state, high, embedding)}
        if dropped:
            self._members = [high for high in self._members if high not in dropped]
            self._regroup()

    def _regroup(self) -> None:
        self._groups = {}
        if self._screened:
            for state in self._members:
                self._groups.setdefault(_support(state), []).append(state)


def _support(state: HState) -> FrozenSet[str]:
    """The scheme nodes *state* holds."""
    return frozenset(state.signature.counts)


def bad_sequence_extension(
    order: QuasiOrder, prefix: List[HState], candidates: Iterable[HState]
) -> Optional[HState]:
    """Extend a finite bad sequence if possible.

    Returns a candidate ``x`` such that ``prefix + [x]`` is still bad (no
    earlier element embeds into ``x``), or ``None`` when every candidate
    would close an increasing pair.  The test-suite uses this to grow
    maximal bad sequences and check they stay finite and small, an
    empirical echo of the wqo property.
    """
    for candidate in candidates:
        if not any(order.leq(earlier, candidate) for earlier in prefix):
            return candidate
    return None


def greedy_bad_sequence(
    order: QuasiOrder, candidates: Iterable[HState], limit: int = 10_000
) -> List[HState]:
    """Greedily build a bad sequence from *candidates* (first-fit).

    The result is an antichain-like witness whose length is bounded in
    practice; on a wqo it can never be extended indefinitely.
    """
    sequence: List[HState] = []
    for candidate in candidates:
        if len(sequence) >= limit:
            break
        if not any(order.leq(earlier, candidate) for earlier in sequence):
            sequence.append(candidate)
    return sequence
