"""Antichains and finite bases of upward-closed sets.

The paper (Section 3): a set ``I ⊆ M(G)`` is *upward-closed* iff
``σ' ∈ I`` and ``σ' ⪯ σ`` entail ``σ ∈ I``; the upward closure of a finite
``I0`` is the set of all states above some element of ``I0``, and ``I0`` is
then a *basis*.  Because ``⪯`` is a well-(quasi-)ordering, **every**
upward-closed set has a finite basis — the representation every decision
procedure of Section 3 manipulates.

:class:`UpwardClosedSet` keeps a *minimal* basis (an antichain) under any
:class:`~repro.wqo.orderings.QuasiOrder` and supports membership, union,
inclusion and fixpoint detection, which is what the backward coverability
of Petri-net markings (:mod:`repro.petri.backward`) iterates on.  Bases
of hierarchical states use :class:`~repro.wqo.kruskal.EmbeddingBasis`
instead, which screens its scans by node support and size.
"""

from __future__ import annotations

from typing import Generic, Iterable, Iterator, List, Sequence, TypeVar

from .orderings import QuasiOrder, minimal_elements

T = TypeVar("T")


class UpwardClosedSet(Generic[T]):
    """An upward-closed set represented by its finite minimal basis.

    Parameters
    ----------
    order:
        The quasi-order the closure is taken in.
    basis:
        Initial generators (minimised on construction).
    """

    def __init__(self, order: QuasiOrder, basis: Iterable[T] = ()) -> None:
        self.order = order
        self._basis: List[T] = minimal_elements(order, basis)

    @property
    def basis(self) -> Sequence[T]:
        """The minimal basis (an antichain, up to order-equivalence)."""
        return tuple(self._basis)

    def is_empty(self) -> bool:
        """``True`` iff the set is empty (empty basis)."""
        return not self._basis

    def __contains__(self, item: T) -> bool:
        return any(self.order.leq(low, item) for low in self._basis)

    def __iter__(self) -> Iterator[T]:
        return iter(self._basis)

    def __len__(self) -> int:
        return len(self._basis)

    def add(self, item: T) -> bool:
        """Add ``↑item``; return ``True`` iff the set grew.

        The basis stays minimal: dominated elements are dropped.
        """
        if item in self:
            return False
        self._basis = [low for low in self._basis if not self.order.leq(item, low)]
        self._basis.append(item)
        return True

    def update(self, items: Iterable[T]) -> bool:
        """Add several generators; return ``True`` iff the set grew."""
        grew = False
        for item in items:
            grew |= self.add(item)
        return grew

    def union(self, other: "UpwardClosedSet[T]") -> "UpwardClosedSet[T]":
        """A new set ``self ∪ other``."""
        result = self.copy()
        result.update(other._basis)
        return result

    def includes(self, other: "UpwardClosedSet[T]") -> bool:
        """Set inclusion ``other ⊆ self`` (decided on bases)."""
        return all(low in self for low in other._basis)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UpwardClosedSet):
            return NotImplemented
        return self.includes(other) and other.includes(self)

    def __hash__(self) -> int:  # pragma: no cover - sets are mutable
        raise TypeError("UpwardClosedSet is mutable and unhashable")

    def copy(self) -> "UpwardClosedSet[T]":
        """A shallow copy (bases share elements, which are immutable)."""
        return UpwardClosedSet(self.order, self._basis)

    def __repr__(self) -> str:
        return f"UpwardClosedSet({self.order.name}, basis={self._basis!r})"

