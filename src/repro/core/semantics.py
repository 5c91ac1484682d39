"""The abstract behavioural semantics ``M_G`` (Definition 2).

For a scheme ``G``, the transition system ``M_G = ⟨M(G), A_τ, →, σ0⟩`` has
the hierarchical states of ``G`` as states, ``σ0 = {(q0, ∅)}`` as initial
state, and the least transition relation closed under the rules:

``action``  If ``q`` is an ``a``-labelled action (or test) node with
            successor ``q'`` then ``(q,σ) →a (q',σ)``.
``end``     If ``q`` is an end node then ``(q,σ) →τ σ`` — the invocation
            disappears and its children are released into the context.
``call``    If ``q`` is a pcall node with successor ``q'`` and invoked node
            ``q''`` then ``(q,σ) →τ (q', σ + {(q'',∅)})``.
``wait``    If ``q`` is a wait node with successor ``q'`` then
            ``(q,∅) →τ (q',∅)`` — only fireable once every child has
            terminated.
``paral1/2``  Any enabled transition may fire in the presence of brothers
            and below a parent.

The two parallelism rules are realised here by quantifying the four local
rules over every *position* (token) of the state, which yields exactly the
same relation with an explicit event structure that the analysis layers use
for certificates and replay.

Proposition 3 (*schemes have no deadlock*: ``σ ↛`` iff ``σ = ∅``) is a
theorem of this relation and is property-tested in the test-suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..errors import StateError
from .alphabet import TAU
from .hstate import EMPTY, HState, Path
from .scheme import NodeKind, RPScheme

#: A location-independent description of a firing: which scheme node moved,
#: under which rule, choosing which successor branch.  Replay machinery
#: matches descriptors against enabled transitions.
Descriptor = Tuple[str, str, Optional[int]]


@dataclass(frozen=True)
class Transition:
    """One transition of ``M_G`` with its full event structure."""

    source: HState
    label: str
    target: HState
    rule: str
    node: str
    path: Path
    branch: Optional[int] = None

    @property
    def descriptor(self) -> Descriptor:
        """The location-independent firing description."""
        return (self.node, self.rule, self.branch)

    def __repr__(self) -> str:
        return (
            f"Transition({self.source.to_notation()} --{self.label}--> "
            f"{self.target.to_notation()} [{self.rule}@{self.node}])"
        )


class AbstractSemantics:
    """Successor generation for ``M_G``.

    The object is stateless apart from the scheme; all methods are pure.
    """

    def __init__(self, scheme: RPScheme) -> None:
        self.scheme = scheme

    @property
    def initial_state(self) -> HState:
        """``σ0 = {(q0, ∅)}``."""
        return self.scheme.initial_state()

    def successors(self, state: HState) -> List[Transition]:
        """All transitions enabled in *state*, in deterministic order."""
        transitions: List[Transition] = []
        for path, node_id, children in state.positions():
            transitions.extend(self._local(state, path, node_id, children))
        return transitions

    def intern(self, state: HState) -> HState:
        """The instance transitions should point at: *state* itself here.

        :class:`MemoizingSemantics` overrides this with its hash-consing
        table; :meth:`_local` passes every target through it.
        """
        return state

    def _local(
        self, state: HState, path: Path, node_id: str, children: HState
    ) -> Iterator[Transition]:
        node = self.scheme.node(node_id)
        if node.kind in (NodeKind.ACTION, NodeKind.TEST):
            rule = "action" if node.kind is NodeKind.ACTION else "test"
            for branch, succ in enumerate(node.successors):
                target = self.intern(state.replace(path, ((succ, children),)))
                yield Transition(state, node.label, target, rule, node_id, path, branch)
        elif node.kind is NodeKind.PCALL:
            spawned = children + HState.leaf(node.invoked)
            target = self.intern(state.replace(path, ((node.successors[0], spawned),)))
            yield Transition(state, TAU, target, "call", node_id, path, 0)
        elif node.kind is NodeKind.WAIT:
            if children.is_empty():
                target = self.intern(state.replace(path, ((node.successors[0], EMPTY),)))
                yield Transition(state, TAU, target, "wait", node_id, path, 0)
        elif node.kind is NodeKind.END:
            target = self.intern(state.replace(path, children.items))
            yield Transition(state, TAU, target, "end", node_id, path, None)

    # ------------------------------------------------------------------
    # Convenience queries
    # ------------------------------------------------------------------

    def is_terminal(self, state: HState) -> bool:
        """``True`` iff *state* has no successor.

        By Proposition 3 this holds exactly for the empty state; the method
        nevertheless inspects the state so the proposition can be tested
        against the implementation rather than assumed.
        """
        return not self.successors(state)

    def enabled_labels(self, state: HState) -> Tuple[str, ...]:
        """The multiset-free, sorted tuple of labels enabled in *state*."""
        return tuple(sorted({t.label for t in self.successors(state)}))

    def step(self, state: HState, label: str) -> List[HState]:
        """All states reachable from *state* by one *label*-transition."""
        return [t.target for t in self.successors(state) if t.label == label]

    # ------------------------------------------------------------------
    # Replay (used by pump certificates and the steering constructions)
    # ------------------------------------------------------------------

    def matching(self, state: HState, descriptor: Descriptor) -> List[Transition]:
        """Enabled transitions of *state* matching a firing descriptor."""
        return [t for t in self.successors(state) if t.descriptor == descriptor]

    def replay(
        self, state: HState, descriptors: Sequence[Descriptor]
    ) -> Optional[List[Transition]]:
        """Fire a descriptor sequence from *state*, if possible.

        The search backtracks over the (possibly many) tokens matching each
        descriptor and returns one realising transition sequence, or
        ``None`` when no interleaving of matching tokens fires the whole
        sequence.
        """
        trace: List[Transition] = []
        if self._replay(state, descriptors, 0, trace):
            return trace
        return None

    def _replay(
        self,
        state: HState,
        descriptors: Sequence[Descriptor],
        index: int,
        trace: List[Transition],
    ) -> bool:
        if index == len(descriptors):
            return True
        for transition in self.matching(state, descriptors[index]):
            trace.append(transition)
            if self._replay(transition.target, descriptors, index + 1, trace):
                return True
            trace.pop()
        return False

    def run(self, transitions: Sequence[Transition]) -> HState:
        """Check that *transitions* chain correctly and return the final state.

        Raises :class:`StateError` when a step's source does not match the
        previous step's target, or when a step is not actually enabled.
        """
        if not transitions:
            raise StateError("empty transition sequence")
        current = transitions[0].source
        for transition in transitions:
            if transition.source != current:
                raise StateError(
                    f"broken run: expected source {current.to_notation()}, "
                    f"got {transition.source.to_notation()}"
                )
            if transition not in self.successors(current):
                raise StateError(f"transition {transition!r} is not enabled")
            current = transition.target
        return current


class MemoizingSemantics(AbstractSemantics):
    """``AbstractSemantics`` with per-state successor memoization.

    The relation of ``M_G`` is pure, so the successor list of a state never
    changes; analysis sessions compute it at most once and replay it from
    the cache on every later query.  Two further tricks pay on hot paths:

    * **hash-consing** — every state flowing through the cache is interned,
      so equal states collapse to one instance and ``HState.__eq__`` hits
      its identity fast path inside set/dict probes;
    * **interned targets** — :meth:`_local` builds every transition with
      the *interned* target instance, so downstream graphs and frontiers
      only ever hold canonical states.

    The returned lists are owned by the cache: callers must not mutate
    them.  ``cache_hits``/``cache_misses`` and ``interned_states`` are the
    one store of a session's successor-cache counts: the live
    :class:`repro.analysis.session.AnalysisStats` view reads them and
    ``AnalysisSession.sync_metrics`` exports them.
    """

    def __init__(self, scheme) -> None:
        super().__init__(scheme)
        self._successors: Dict[HState, List[Transition]] = {}
        self._intern: Dict[HState, HState] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def intern(self, state: HState) -> HState:
        """The canonical instance equal to *state* (inserting if new)."""
        canonical = self._intern.get(state)
        if canonical is None:
            self._intern[state] = state
            return state
        return canonical

    @property
    def interned_states(self) -> int:
        """Number of distinct states in the intern table."""
        return len(self._intern)

    def successors(self, state: HState) -> List[Transition]:
        cached = self._successors.get(state)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        state = self.intern(state)
        transitions = super().successors(state)
        self._successors[state] = transitions
        return transitions

    def is_cached(self, state: HState) -> bool:
        """Whether *state*'s successor list is already in the cache."""
        return state in self._successors

    def adopt_successors(self, state: HState, transitions: List[Transition]) -> None:
        """Cache a successor list computed elsewhere (counted as one miss).

        Used by the sharded explorer, whose worker processes compute the
        lists: *state* and every transition target must already be the
        interned instances, exactly as :meth:`successors` would build them.
        """
        self.cache_misses += 1
        self._successors[state] = transitions
