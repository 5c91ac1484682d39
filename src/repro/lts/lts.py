"""Generic finite labelled transition systems.

The paper works with three transition-system models — the abstract ``M_G``,
the interpreted ``M_I_G`` and the machine model ``P_G`` — and relates them
by behavioural preorders (Theorem 10).  This module provides the common
finite-LTS substrate those comparisons are computed on: explored fragments
of any of the three models convert to :class:`LTS` (:func:`explore_lts`
builds the reachable fragment of any successor function), and
:mod:`repro.lts.simulation` computes (bi)simulations and the
divergence-preserving simulation ``⊑_d`` between them.

States may be arbitrary hashable objects; labels are strings with
:data:`repro.core.alphabet.TAU` as the silent label.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Dict, FrozenSet, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.alphabet import TAU

State = Hashable

#: A successor function: the ``(label, target)`` pairs of a state.
Steps = Callable[[State], Iterable[Tuple[str, State]]]


class LTS:
    """A finite labelled transition system ``⟨S, A_τ, →, s0⟩``."""

    def __init__(self, initial: State) -> None:
        self.initial = initial
        self.states: Set[State] = {initial}
        self._out: Dict[State, List[Tuple[str, State]]] = defaultdict(list)
        self._edge_set: Set[Tuple[State, str, State]] = set()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_state(self, state: State) -> None:
        """Add an isolated state (no-op when present)."""
        self.states.add(state)

    def add_transition(self, source: State, label: str, target: State) -> None:
        """Add ``source --label--> target``, creating states as needed.

        Duplicate edges are ignored (the relation is a set).
        """
        edge = (source, label, target)
        if edge in self._edge_set:
            return
        self._edge_set.add(edge)
        self.states.add(source)
        self.states.add(target)
        self._out[source].append((label, target))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def successors(self, state: State) -> List[Tuple[str, State]]:
        """Outgoing ``(label, target)`` pairs of *state*."""
        return list(self._out.get(state, ()))

    def post(self, state: State, label: str) -> List[State]:
        """Targets of *label*-transitions from *state*."""
        return [t for lab, t in self._out.get(state, ()) if lab == label]

    def labels(self) -> FrozenSet[str]:
        """All labels appearing on edges."""
        return frozenset(label for _, label, _ in self._edge_set)

    def edges(self) -> Iterator[Tuple[State, str, State]]:
        """All edges (in insertion order per source)."""
        for source, out in self._out.items():
            for label, target in out:
                yield (source, label, target)

    @property
    def num_transitions(self) -> int:
        return len(self._edge_set)

    def is_deterministic(self) -> bool:
        """No state has two distinct same-label successors."""
        for state in self.states:
            seen = set()
            for label, target in self._out.get(state, ()):
                if label in seen:
                    return False
                seen.add(label)
        return True

    def reachable_states(self) -> Set[State]:
        """States reachable from the initial state."""
        seen = {self.initial}
        frontier = [self.initial]
        while frontier:
            state = frontier.pop()
            for _, target in self._out.get(state, ()):
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def restricted_to_reachable(self) -> "LTS":
        """A copy containing only the reachable part."""
        reachable = self.reachable_states()
        out = LTS(self.initial)
        for state in reachable:
            out.add_state(state)
            for label, target in self._out.get(state, ()):
                out.add_transition(state, label, target)
        return out

    # ------------------------------------------------------------------
    # Silent-step structure (used by weak relations and divergence)
    # ------------------------------------------------------------------

    def tau_closure(self, state: State) -> Set[State]:
        """States reachable from *state* by ``τ*``."""
        seen = {state}
        frontier = [state]
        while frontier:
            current = frontier.pop()
            for label, target in self._out.get(current, ()):
                if label == TAU and target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def weak_post(self, state: State, label: str) -> Set[State]:
        """Weak transition targets: ``τ* a τ*`` (or ``τ*`` when ``a = τ``)."""
        before = self.tau_closure(state)
        if label == TAU:
            return before
        after: Set[State] = set()
        for mid in before:
            for lab, target in self._out.get(mid, ()):
                if lab == label:
                    after.update(self.tau_closure(target))
        return after

    def diverges(self, state: State) -> bool:
        """``True`` iff an infinite ``τ``-run starts at *state*.

        On a finite LTS this means a τ-cycle is τ-reachable from *state*.
        """
        return state in self._divergent_states()

    def _divergent_states(self) -> Set[State]:
        # states on a τ-cycle, then backward-closed under τ-predecessor
        tau_succ: Dict[State, List[State]] = defaultdict(list)
        tau_pred: Dict[State, List[State]] = defaultdict(list)
        for source, label, target in self._edge_set:
            if label == TAU:
                tau_succ[source].append(target)
                tau_pred[target].append(source)
        on_cycle = {
            state
            for state in self.states
            if self._tau_cycle_through(state, tau_succ)
        }
        divergent = set(on_cycle)
        frontier = list(on_cycle)
        while frontier:
            state = frontier.pop()
            for pred in tau_pred.get(state, ()):
                if pred not in divergent:
                    divergent.add(pred)
                    frontier.append(pred)
        return divergent

    def _tau_cycle_through(self, state: State, tau_succ: Dict) -> bool:
        seen: Set[State] = set()
        frontier = list(tau_succ.get(state, ()))
        while frontier:
            current = frontier.pop()
            if current == state:
                return True
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(tau_succ.get(current, ()))
        return False

    def __repr__(self) -> str:
        return (
            f"LTS(states={len(self.states)}, "
            f"transitions={self.num_transitions}, initial={self.initial!r})"
        )


def explore_lts(initial: State, steps: Steps, max_states: int) -> Tuple[LTS, bool]:
    """The fragment of *steps* reachable from *initial*, breadth-first.

    Returns ``(lts, complete)``.  Every edge of each expanded state is
    recorded; the search stops at the first new state past *max_states*
    (its edge is kept) and ``complete`` says whether it saturated.
    """
    lts = LTS(initial)
    seen = {initial}
    queue = deque([initial])
    while queue:
        state = queue.popleft()
        for label, target in steps(state):
            lts.add_transition(state, label, target)
            if target in seen:
                continue
            if len(seen) >= max_states:
                return lts, False
            seen.add(target)
            queue.append(target)
    return lts, True
