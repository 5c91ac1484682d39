"""Interpreted hierarchical states and global states (Definition 8).

An interpreted hierarchical state is the least set ``M_I(G)`` such that,
for nodes ``q1..qn``, local memories ``v1..vn`` and interpreted states
``σ1..σn``, the multiset ``{(q1,v1,σ1), ..., (qn,vn,σn)}`` belongs to
``M_I(G)``.  A *global* state pairs a shared global memory with one such
state: ``⟨u, σ⟩ ∈ GMem × M_I(G)``.

Like :class:`~repro.core.hstate.HState`, interpreted states are immutable
canonical multisets — sorted by a deterministic key — so they hash and
compare in O(size).  The forgetful projection :meth:`IState.forget`
erases the memories, landing in ``M(G)``; it is the abstraction map of
the Preservation Theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, List, Tuple

from ..core.hstate import HState, Path
from ..errors import StateError

LMem = Hashable

#: One invocation: (scheme node, local memory, children).
IItem = Tuple[str, LMem, "IState"]


def _memory_key(memory: Hashable) -> Tuple:
    """A sortable key for arbitrary hashable memories."""
    sort_key = getattr(memory, "sort_key", None)
    if sort_key is not None:
        return (0, sort_key())
    return (1, repr(memory))


class IState:
    """An immutable interpreted hierarchical state."""

    __slots__ = ("_items", "_key", "_hash", "_size")

    def __init__(self, items: Iterable[IItem] = ()) -> None:
        triples: List[IItem] = []
        for node, memory, child in items:
            if not isinstance(node, str) or not node:
                raise StateError(f"invocation node must be a non-empty string, got {node!r}")
            if not isinstance(child, IState):
                raise StateError(f"children must form an IState, got {type(child).__name__}")
            triples.append((node, memory, child))
        triples.sort(key=lambda item: (item[0], _memory_key(item[1]), item[2]._key))
        self._items: Tuple[IItem, ...] = tuple(triples)
        self._key: Tuple = tuple(
            (node, _memory_key(memory), child._key) for node, memory, child in self._items
        )
        self._hash = hash(self._key)
        self._size = sum(1 + child._size for _, _, child in self._items)

    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "IState":
        return _EMPTY

    @classmethod
    def leaf(cls, node: str, memory: LMem) -> "IState":
        """A single invocation with no children."""
        return cls(((node, memory, _EMPTY),))

    @property
    def items(self) -> Tuple[IItem, ...]:
        return self._items

    @property
    def size(self) -> int:
        return self._size

    def is_empty(self) -> bool:
        return not self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[IItem]:
        return iter(self._items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IState):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "IState") -> "IState":
        if not isinstance(other, IState):
            return NotImplemented
        if not other._items:
            return self
        if not self._items:
            return other
        return IState(self._items + other._items)

    # ------------------------------------------------------------------
    # Positions and surgery (mirror of HState)
    # ------------------------------------------------------------------

    def positions(self) -> Iterator[Tuple[Path, str, LMem, "IState"]]:
        """Iterate over invocations as ``(path, node, memory, children)``."""
        stack: List[Tuple[Path, IState]] = [((), self)]
        while stack:
            prefix, state = stack.pop()
            for index, (node, memory, child) in enumerate(state._items):
                path = prefix + (index,)
                yield path, node, memory, child
                if child._items:
                    stack.append((path, child))

    def replace(self, path: Path, replacement: Iterable[IItem]) -> "IState":
        """Rebuild with the invocation at *path* replaced (cf. HState)."""
        if not path:
            raise StateError("the empty path does not address an invocation")
        return self._replace(path, 0, tuple(replacement))

    def _replace(self, path: Path, depth: int, replacement: Tuple[IItem, ...]) -> "IState":
        index = path[depth]
        if not 0 <= index < len(self._items):
            raise StateError(f"path {path!r} does not address an invocation")
        items = list(self._items)
        if depth == len(path) - 1:
            items[index : index + 1] = list(replacement)
        else:
            node, memory, child = items[index]
            items[index] = (node, memory, child._replace(path, depth + 1, replacement))
        return IState(items)

    # ------------------------------------------------------------------
    # Abstraction
    # ------------------------------------------------------------------

    def forget(self) -> HState:
        """Erase local memories: the projection into ``M(G)``."""
        return HState(
            (node, child.forget()) for node, _memory, child in self._items
        )

    def to_notation(self) -> str:
        """A readable rendering ``q1[v],{...}`` (debugging aid)."""
        if not self._items:
            return "∅"
        parts = []
        for node, memory, child in self._items:
            text = f"{node}[{memory!r}]"
            if child._items:
                text += f",{{{child.to_notation()}}}"
            parts.append(text)
        return ",".join(parts)

    def __repr__(self) -> str:
        return f"IState({self.to_notation()})"


_EMPTY = IState()
IEMPTY = _EMPTY


@dataclass(frozen=True)
class GlobalState:
    """An interpreted global state ``⟨u, σ⟩``."""

    global_memory: Hashable
    state: IState

    def forget(self) -> HState:
        """Project onto ``M(G)`` (drop all memories)."""
        return self.state.forget()

    def is_terminated(self) -> bool:
        return self.state.is_empty()

    def __repr__(self) -> str:
        return f"⟨{self.global_memory!r}, {self.state.to_notation()}⟩"
