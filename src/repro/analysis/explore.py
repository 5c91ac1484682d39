"""The explicit state graph of ``M_G`` and a reference explorer.

:class:`StateGraph` is the explored fragment of ``M_G``: states in
discovery order, recorded transitions, parent pointers for witness-path
reconstruction, and full edge recording, so it doubles as a finite LTS
(:meth:`StateGraph.to_lts`) for the simulation machinery of
:mod:`repro.lts`.  The decision procedures grow one shared graph through
:class:`~repro.analysis.session.AnalysisSession`, the resumable, cached
and budgeted engine.

:class:`Explorer` is the uncached, hard-capped reference BFS: a plain
breadth-first construction over :class:`AbstractSemantics` with a state
budget, an optional early-stop predicate and an optional state-size
cap.  :mod:`repro.interp.verify` uses it, and the differential tests
check the session engine against it as an independent implementation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..core.hstate import HState
from ..core.scheme import RPScheme
from ..core.semantics import AbstractSemantics, Transition
from ..errors import AnalysisBudgetExceeded

#: Default exploration budget (number of distinct states).
DEFAULT_MAX_STATES = 50_000


class StateGraph:
    """The explored fragment of ``M_G`` as an explicit graph."""

    def __init__(self, scheme: RPScheme, initial: HState) -> None:
        self.scheme = scheme
        self.initial = initial
        self.index: Dict[HState, int] = {}
        self.states: List[HState] = []
        self.edges: List[List[Transition]] = []
        self.parent: Dict[HState, Optional[Transition]] = {}
        #: Transitions recorded in :attr:`edges`; every writer of an
        #: outgoing-edge list keeps it in step, so reading it is O(1).
        self.num_transitions = 0
        #: ``True`` when every reachable state was visited and expanded.
        self.complete = False
        #: States discovered but not expanded when the budget ran out.
        self.unexpanded: List[HState] = []

    # -- construction helpers (used by the explorers) -------------------

    def _add_state(self, state: HState, via: Optional[Transition]) -> int:
        number = self.index.get(state)
        if number is None:
            number = len(self.states)
            self.index[state] = number
            self.states.append(state)
            self.edges.append([])
            self.parent[state] = via
        return number

    # -- queries ---------------------------------------------------------

    def __contains__(self, state: HState) -> bool:
        return state in self.index

    def __len__(self) -> int:
        return len(self.states)

    def successors(self, state: HState) -> List[Transition]:
        """Recorded outgoing transitions of an *expanded* state."""
        return self.edges[self.index[state]]

    def path_to(self, state: HState) -> List[Transition]:
        """The BFS witness path from the initial state to *state*."""
        path: List[Transition] = []
        current = state
        while True:
            via = self.parent[current]
            if via is None:
                break
            path.append(via)
            current = via.source
        path.reverse()
        return path

    def find(self, predicate: Callable[[HState], bool]) -> Optional[HState]:
        """The first explored state satisfying *predicate* (BFS order)."""
        for state in self.states:
            if predicate(state):
                return state
        return None

    def find_all(self, predicate: Callable[[HState], bool]) -> List[HState]:
        """All explored states satisfying *predicate* (BFS order)."""
        return [state for state in self.states if predicate(state)]

    def has_cycle(self) -> bool:
        """``True`` iff the explored graph contains a directed cycle.

        Every state is reachable from the initial state, so a cycle
        exists iff :meth:`find_lasso` finds one.
        """
        return self.find_lasso() is not None

    def find_lasso(self) -> Optional[Tuple[List[Transition], List[Transition]]]:
        """A (stem, loop) pair witnessing an infinite run, if any.

        The stem leads from the initial state to the loop entry; the loop
        is a non-empty cycle.  Returns ``None`` on acyclic graphs.

        Iterative three-colour DFS with an explicit trail: graphs as deep
        as the state budget allows (long chains, deep pipelines) are
        handled without touching the interpreter recursion limit.
        """
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {state: WHITE for state in self.states}
        trail: List[Transition] = []
        stack: List[Tuple[HState, int]] = [(self.initial, 0)]
        colour[self.initial] = GREY
        while stack:
            state, position = stack[-1]
            out = self.edges[self.index[state]]
            if position < len(out):
                stack[-1] = (state, position + 1)
                transition = out[position]
                target = transition.target
                status = colour.get(target, BLACK)
                if status == GREY:
                    path = trail + [transition]
                    # split the trail at the last occurrence of the entry
                    split = 0
                    for index, step in enumerate(path):
                        if step.source == target:
                            split = index
                    return path[:split], path[split:]
                if status == WHITE:
                    colour[target] = GREY
                    trail.append(transition)
                    stack.append((target, 0))
            else:
                colour[state] = BLACK
                stack.pop()
                if trail:
                    trail.pop()
        return None

    def terminal_states(self) -> List[HState]:
        """Expanded states with no outgoing transition (∅ only, by Prop 3)."""
        pending = set(self.unexpanded)
        return [
            state
            for state, number in self.index.items()
            if not self.edges[number] and state not in pending
        ]

    def to_lts(self):
        """View the explored fragment as a generic finite LTS."""
        from ..lts.lts import LTS

        lts = LTS(initial=self.initial)
        for state in self.states:
            lts.add_state(state)
        for out in self.edges:
            for transition in out:
                lts.add_transition(transition.source, transition.label, transition.target)
        return lts


class Explorer:
    """Uncached reference BFS for ``M_G`` with a hard state cap and early stop."""

    def __init__(
        self,
        scheme: RPScheme,
        max_states: int = DEFAULT_MAX_STATES,
        max_state_size: Optional[int] = None,
    ) -> None:
        self.scheme = scheme
        self.semantics = AbstractSemantics(scheme)
        self.max_states = max_states
        #: Optional cutoff on the *size* of expanded states: schemes whose
        #: invocation count grows multiplicatively produce states whose
        #: successor computation is quadratic in their size, so searches
        #: that only need small-state coverage can cap it.  Oversized
        #: states are recorded but not expanded, and the exploration is
        #: reported incomplete.
        self.max_state_size = max_state_size

    def explore(
        self,
        initial: Optional[HState] = None,
        stop_when: Optional[Callable[[HState], bool]] = None,
    ) -> StateGraph:
        """Explore from *initial* (default σ0).

        ``stop_when`` halts the search as soon as a matching state is
        *discovered* (it is recorded in the graph, reachable via
        :meth:`StateGraph.path_to`).

        The result's ``complete`` flag is ``True`` iff every discovered
        state was expanded before the budget ran out and no early stop
        fired.
        """
        start = initial if initial is not None else self.semantics.initial_state
        graph = StateGraph(self.scheme, start)
        graph._add_state(start, None)
        if stop_when is not None and stop_when(start):
            graph.unexpanded = [start]
            return graph
        queue: deque = deque([start])
        expanded: Set[HState] = set()
        oversized: List[HState] = []
        while queue:
            state = queue.popleft()
            if self.max_state_size is not None and state.size > self.max_state_size:
                oversized.append(state)
                continue
            expanded.add(state)
            out = graph.edges[graph.index[state]]
            for transition in self.semantics.successors(state):
                out.append(transition)
                graph.num_transitions += 1
                target = transition.target
                if target in graph.index:
                    continue
                if len(graph.states) >= self.max_states:
                    graph.unexpanded = [s for s in queue if s not in expanded]
                    return graph
                graph._add_state(target, transition)
                if stop_when is not None and stop_when(target):
                    graph.unexpanded = [s for s in queue if s not in expanded] + [target]
                    return graph
                queue.append(target)
        graph.complete = not oversized
        graph.unexpanded = oversized
        return graph

    def explore_or_raise(
        self, initial: Optional[HState] = None, what: str = "exploration"
    ) -> StateGraph:
        """Explore exhaustively; raise when the budget does not suffice."""
        graph = self.explore(initial)
        if not graph.complete:
            raise AnalysisBudgetExceeded(
                f"{what}: state budget of {self.max_states} exhausted "
                f"(the scheme may be unbounded; raise max_states or use a "
                f"procedure with an unboundedness certificate)",
                explored=len(graph),
            )
        return graph
