"""Hierarchical states (Definition 1 of the paper).

A hierarchical state of a scheme ``G`` is the least set ``M(G)`` such that,
whenever ``q1..qn`` are nodes of ``G`` and ``σ1..σn`` are hierarchical
states, the multiset ``{(q1,σ1), ..., (qn,σn)}`` is a hierarchical state.
In particular the empty multiset ``∅`` is one.

Hierarchical states are thus *unordered forests* whose vertices are labelled
by scheme nodes; the pair ``(q, σ)`` is one invocation, currently at node
``q``, together with the family ``σ`` of children invocations it has spawned.

The implementation is an immutable, canonically-sorted tuple of
``(node, child_state)`` pairs.  Canonicalisation makes equality and hashing
of these nested multisets O(size) after construction, which the analysis
algorithms rely on heavily.

The textual notation of the paper is supported: the state pictured in
Fig. 3 is written ``q1,{q9,{q11},q12,{q10}}`` and both :func:`HState.parse`
and :meth:`HState.to_notation` use exactly that concrete syntax (commas and
braces; commas are optional separators on input).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import NotationError, StateError

#: A path addressing one invocation (token) inside a hierarchical state:
#: the sequence of item indices taken from the root multiset downwards.
Path = Tuple[int, ...]

#: The loose specification formats accepted by :meth:`HState.of`.
Spec = Union[str, Tuple[str, object], "HState"]


class Signature:
    """A constant-size summary of a state used to *refute* embeddings fast.

    Forest embedding is monotone in every component recorded here: if
    ``σ ⪯ σ'`` then ``size(σ) ≤ size(σ')``, ``height(σ) ≤ height(σ')``,
    and every scheme node occurs in ``σ`` at most as often as in ``σ'``.
    :meth:`dominated_by` checks exactly these necessary conditions, so
    ``not a.signature.dominated_by(b.signature)`` disproves ``a ⪯ b``
    without touching the recursive matcher — the fast path of
    :mod:`repro.core.embedding`.

    Signatures are interned: states with identical summaries share one
    instance, making the common ``self is other`` comparison O(1).  The
    per-node occurrence fingerprint is bounded by the scheme's (finite)
    node set, so each signature is constant-size for a fixed scheme.
    """

    __slots__ = ("size", "height", "width", "counts")

    #: Process-lifetime intern table (see docs/performance.md for the
    #: memory note); keyed by the full summary tuple.
    _intern: Dict[Tuple, "Signature"] = {}

    def __init__(self, size: int, height: int, width: int, counts: Mapping[str, int]) -> None:
        self.size = size
        self.height = height
        self.width = width
        self.counts: Dict[str, int] = dict(counts)

    @classmethod
    def of(cls, size: int, height: int, width: int, counts: Mapping[str, int]) -> "Signature":
        """The interned signature with the given components."""
        key = (size, height, width, tuple(sorted(counts.items())))
        cached = cls._intern.get(key)
        if cached is None:
            # setdefault is atomic: threads racing on one summary agree
            # on the instance that landed first
            cached = cls._intern.setdefault(key, cls(size, height, width, counts))
        return cached

    def __reduce__(self):
        # unpickle to the receiving process's interned instance
        return (Signature.of, (self.size, self.height, self.width, self.counts))

    def dominated_by(self, other: "Signature") -> bool:
        """Necessary condition for embedding: every component ≤ *other*'s.

        Returns ``False`` only when the corresponding embedding is
        impossible; ``True`` says nothing beyond "not refuted".
        """
        if self is other:
            return True
        if self.size > other.size or self.height > other.height:
            return False
        if len(self.counts) > len(other.counts):
            return False
        other_counts = other.counts
        for node, count in self.counts.items():
            if other_counts.get(node, 0) < count:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"Signature(size={self.size}, height={self.height}, "
            f"width={self.width}, counts={dict(sorted(self.counts.items()))!r})"
        )


class HState:
    """An immutable hierarchical state (a finite multiset of invocations).

    Instances are canonical: two states built from the same multiset in any
    order are equal, hash equal and share the same notation string.
    """

    __slots__ = ("_items", "_key", "_hash", "_size", "_signature")

    def __init__(self, items: Iterable[Tuple[str, "HState"]] = ()) -> None:
        pairs: List[Tuple[str, HState]] = []
        for node, child in items:
            if not isinstance(node, str) or not node:
                raise StateError(f"invocation node must be a non-empty string, got {node!r}")
            if not isinstance(child, HState):
                raise StateError(f"child state must be an HState, got {type(child).__name__}")
            pairs.append((node, child))
        pairs.sort(key=lambda pair: (pair[0], pair[1]._key))
        self._items: Tuple[Tuple[str, HState], ...] = tuple(pairs)
        self._key: Tuple = tuple((node, child._key) for node, child in self._items)
        self._hash: int = hash(self._key)
        self._size: int = sum(1 + child._size for _, child in self._items)
        # built on first read (see signature): exploring reads none
        self._signature: Optional[Signature] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls) -> "HState":
        """The empty state ``∅`` (every invocation terminated)."""
        return _EMPTY

    @classmethod
    def leaf(cls, node: str) -> "HState":
        """A single invocation at *node* with no children: ``{(q, ∅)}``."""
        return cls(((node, _EMPTY),))

    @classmethod
    def tree(cls, node: str, children: "HState") -> "HState":
        """A single invocation at *node* whose children are *children*."""
        return cls(((node, children),))

    @classmethod
    def of(cls, *specs: Spec) -> "HState":
        """Build a state from a loose specification.

        Each argument is one top-level invocation, given as either

        * a node name string (a childless invocation),
        * a pair ``(node, child_spec)`` where ``child_spec`` is an
          :class:`HState`, a node name, or a list/tuple of specifications, or
        * an :class:`HState` holding exactly one invocation.

        >>> HState.of("q1", ("q2", ["q3", "q4"])).to_notation()
        'q1,q2,{q3,q4}'
        """
        items: List[Tuple[str, HState]] = []
        for spec in specs:
            items.append(cls._item_of(spec))
        return cls(items)

    @classmethod
    def _item_of(cls, spec: Spec) -> Tuple[str, "HState"]:
        if isinstance(spec, str):
            return (spec, _EMPTY)
        if isinstance(spec, HState):
            if len(spec._items) != 1:
                raise StateError("an HState used as a single invocation must hold exactly one invocation")
            return spec._items[0]
        if isinstance(spec, tuple) and len(spec) == 2 and isinstance(spec[0], str):
            node, child_spec = spec
            return (node, cls._state_of(child_spec))
        raise StateError(f"cannot interpret {spec!r} as an invocation")

    @classmethod
    def _state_of(cls, spec: object) -> "HState":
        if isinstance(spec, HState):
            return spec
        if isinstance(spec, str):
            return cls.leaf(spec)
        if isinstance(spec, (list, tuple)):
            if len(spec) == 2 and isinstance(spec[0], str) and not isinstance(spec, list):
                return cls(((spec[0], cls._state_of(spec[1])),))
            return cls.of(*spec)
        raise StateError(f"cannot interpret {spec!r} as a hierarchical state")

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def items(self) -> Tuple[Tuple[str, "HState"], ...]:
        """The canonical tuple of ``(node, child_state)`` invocations."""
        return self._items

    @property
    def size(self) -> int:
        """Total number of invocations (tokens) anywhere in the state."""
        return self._size

    @property
    def height(self) -> int:
        """Depth of the deepest invocation (0 for the empty state)."""
        return self.signature.height

    @property
    def width(self) -> int:
        """Number of top-level invocations."""
        return len(self._items)

    @property
    def signature(self) -> Signature:
        """The interned embedding-refutation summary (see :class:`Signature`).

        Built on first read, with those of every descendant that has none
        yet, and cached on the state.
        """
        signature = self._signature
        if signature is None:
            signature = self._summarise()
        return signature

    def _summarise(self) -> Signature:
        # children first, on an explicit stack so that summarising a tall
        # state does not depend on the recursion limit
        stack: List[HState] = [self]
        while stack:
            state = stack[-1]
            pending = [child for _, child in state._items if child._signature is None]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            if state._signature is not None:
                continue  # a shared subtree, summarised via another parent
            counts: Dict[str, int] = {}
            height = 0
            for node, child in state._items:
                summary = child._signature
                counts[node] = counts.get(node, 0) + 1
                for inner, occurrences in summary.counts.items():
                    counts[inner] = counts.get(inner, 0) + occurrences
                if summary.height >= height:
                    height = summary.height + 1
            state._signature = Signature.of(state._size, height, len(state._items), counts)
        return self._signature

    def is_empty(self) -> bool:
        """``True`` iff this is the terminated state ``∅``."""
        return not self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Tuple[str, "HState"]]:
        return iter(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def __eq__(self, other: object) -> bool:
        if self is other:
            # hash-consed states (see MemoizingSemantics.intern) collapse
            # equality to identity on the exploration hot paths
            return True
        if not isinstance(other, HState):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __setstate__(self, state: Tuple[None, Dict[str, Any]]) -> None:
        # the default slot state, but rehashed: the shipped hash was
        # computed under the sender's string-hash seed, and a process
        # started with ``spawn`` has its own
        for name, value in state[1].items():
            setattr(self, name, value)
        self._hash = hash(self._key)

    def sort_key(self) -> Tuple:
        """A total-order key; used to canonicalise collections of states."""
        return self._key

    def __lt__(self, other: "HState") -> bool:
        if not isinstance(other, HState):
            return NotImplemented
        return self._key < other._key

    # ------------------------------------------------------------------
    # Multiset algebra (the paper's ``+`` and inclusion)
    # ------------------------------------------------------------------

    def __add__(self, other: "HState") -> "HState":
        """Multiset union of top-level invocations (the paper's ``σ + σ'``)."""
        if not isinstance(other, HState):
            return NotImplemented
        if not other._items:
            return self
        if not self._items:
            return other
        return HState(self._items + other._items)

    def __sub__(self, other: "HState") -> "HState":
        """Multiset difference; *other* must be included at top level."""
        if not isinstance(other, HState):
            return NotImplemented
        remaining = Counter(other._items)
        kept: List[Tuple[str, HState]] = []
        for item in self._items:
            if remaining[item] > 0:
                remaining[item] -= 1
            else:
                kept.append(item)
        if any(count > 0 for count in remaining.values()):
            raise StateError("multiset difference: subtrahend is not included in this state")
        return HState(kept)

    def includes(self, other: "HState") -> bool:
        """Top-level multiset inclusion (the paper's ``σ' ⊆ σ``).

        This compares whole trees for equality; for the behavioural
        (Kruskal) embedding ``⪯`` see :mod:`repro.core.embedding`.
        """
        counts = Counter(self._items)
        counts.subtract(Counter(other._items))
        return all(count >= 0 for count in counts.values())

    def count(self, node: str, child: Optional["HState"] = None) -> int:
        """Number of top-level invocations at *node* (with children *child*)."""
        if child is None:
            return sum(1 for n, _ in self._items if n == node)
        return sum(1 for item in self._items if item == (node, child))

    # ------------------------------------------------------------------
    # Node (token) views
    # ------------------------------------------------------------------

    def node_multiset(self) -> Counter:
        """Multiset of all scheme nodes occurring anywhere in the state.

        This is the *marking* view of Fig. 4: how many tokens sit on each
        scheme node, forgetting the parent-child hierarchy.  Answered in
        O(distinct nodes) from the cached :class:`Signature` fingerprint.
        """
        return Counter(self.signature.counts)

    def top_nodes(self) -> Counter:
        """Multiset of the nodes of top-level invocations only."""
        return Counter(node for node, _ in self._items)

    def contains_node(self, node: str) -> bool:
        """``True`` iff some invocation anywhere is at *node* (O(1))."""
        return node in self.signature.counts

    def contains_all_nodes(self, nodes: Sequence[str]) -> bool:
        """``True`` iff every node of *nodes* occurs somewhere in the state.

        Multiplicities are respected: ``contains_all_nodes(["q", "q"])``
        requires two distinct invocations at ``q``.
        """
        counts = self.signature.counts
        needed = Counter(nodes)
        return all(counts.get(node, 0) >= count for node, count in needed.items())

    def contains_any_node(self, nodes: Iterable[str]) -> bool:
        """``True`` iff at least one node of *nodes* occurs in the state."""
        counts = self.signature.counts
        return any(node in counts for node in nodes)

    # ------------------------------------------------------------------
    # Positions and surgery (used by the operational semantics)
    # ------------------------------------------------------------------

    def positions(self) -> Iterator[Tuple[Path, str, "HState"]]:
        """Iterate over all invocations as ``(path, node, children)``.

        Paths address invocations through the canonical item tuples, so they
        are stable identifiers within this state (but not across states).
        Iteration order is outer-first, left-to-right in canonical order.
        """
        stack: List[Tuple[Path, HState]] = [((), self)]
        while stack:
            prefix, state = stack.pop()
            for index, (node, child) in enumerate(state._items):
                path = prefix + (index,)
                yield path, node, child
                if child._items:
                    stack.append((path, child))

    def subtree(self, path: Path) -> Tuple[str, "HState"]:
        """The invocation ``(node, children)`` at *path*.

        Raises :class:`StateError` when *path* addresses no invocation.
        """
        if not path:
            raise StateError("the empty path does not address an invocation")
        items = self._items
        for index in path:
            if not 0 <= index < len(items):
                raise StateError(f"path {path!r} does not address an invocation")
            item = items[index]
            items = item[1]._items
        return item

    def replace(self, path: Path, replacement: Iterable[Tuple[str, "HState"]]) -> "HState":
        """Rebuild the state with the invocation at *path* replaced.

        *replacement* is a (possibly empty) collection of invocations that
        take the place of the addressed one — this single operation expresses
        all transition rules: ``action``/``wait`` replace ``(q,σ)`` by
        ``(q',σ)``, ``call`` by ``(q', σ + {(q'',∅)})``, and ``end`` by the
        items of ``σ`` (children are released into the enclosing context).
        """
        if not path:
            raise StateError("the empty path does not address an invocation")
        return self._replace(path, 0, tuple(replacement))

    def _replace(
        self,
        path: Path,
        depth: int,
        replacement: Tuple[Tuple[str, "HState"], ...],
    ) -> "HState":
        index = path[depth]
        if not 0 <= index < len(self._items):
            raise StateError(f"path {path!r} does not address an invocation")
        items = list(self._items)
        if depth == len(path) - 1:
            items[index : index + 1] = list(replacement)
        else:
            node, child = items[index]
            items[index] = (node, child._replace(path, depth + 1, replacement))
        return HState(items)

    # ------------------------------------------------------------------
    # Notation (the paper's concrete syntax, Fig. 3)
    # ------------------------------------------------------------------

    def to_notation(self) -> str:
        """Render in the paper's notation, e.g. ``q1,{q9,{q11},q12,{q10}}``.

        The empty state renders as ``∅``.
        """
        if not self._items:
            return "∅"
        parts: List[str] = []
        for node, child in self._items:
            if child._items:
                parts.append(f"{node},{{{child.to_notation()}}}")
            else:
                parts.append(node)
        return ",".join(parts)

    @classmethod
    def parse(cls, text: str) -> "HState":
        """Parse the paper's notation back into a state.

        Grammar (commas are optional separators)::

            state    ::=  item*            item ::= NODE group?
            group    ::=  "{" state "}"    NODE ::= [A-Za-z_][A-Za-z0-9_']*

        ``∅``, ``{}`` and the empty string all denote the empty state.

        >>> HState.parse("q1,{q9,{q11},q12,{q10}}").size
        5
        """
        tokens = _tokenize_notation(text)
        state, rest = _parse_state(tokens, 0)
        if rest != len(tokens):
            raise NotationError(f"unexpected {tokens[rest][0]!r} at end of state notation")
        return state

    def __repr__(self) -> str:
        return f"HState.parse({self.to_notation()!r})"


def _tokenize_notation(text: str) -> List[Tuple[str, int]]:
    tokens: List[Tuple[str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in " \t\r\n,":
            i += 1
        elif ch in "{}":
            tokens.append((ch, i))
            i += 1
        elif ch == "∅":
            i += 1
        elif ch.isalnum() or ch == "_":
            start = i
            while i < len(text) and (text[i].isalnum() or text[i] in "_'"):
                i += 1
            tokens.append((text[start:i], start))
        else:
            raise NotationError(f"unexpected character {ch!r} at offset {i} in state notation")
    return tokens


def _parse_state(tokens: List[Tuple[str, int]], pos: int) -> Tuple[HState, int]:
    items: List[Tuple[str, HState]] = []
    while pos < len(tokens) and tokens[pos][0] not in "{}":
        node = tokens[pos][0]
        pos += 1
        child = _EMPTY
        if pos < len(tokens) and tokens[pos][0] == "{":
            child, pos = _parse_group(tokens, pos)
        items.append((node, child))
    return HState(items), pos


def _parse_group(tokens: List[Tuple[str, int]], pos: int) -> Tuple[HState, int]:
    assert tokens[pos][0] == "{"
    state, pos = _parse_state(tokens, pos + 1)
    if pos >= len(tokens) or tokens[pos][0] != "}":
        raise NotationError("unbalanced '{' in state notation")
    return state, pos + 1


#: The unique empty hierarchical state ``∅``.
_EMPTY = HState()
EMPTY = _EMPTY
