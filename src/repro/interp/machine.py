"""The machine model ``P_G``: fixed processors, priority scheduling.

The paper mentions a third model, ``P_G``, formalising "the specific
implementation strategy for controlling and assigning priorities to a
potentially unbounded number of parallel processes on the IPTC parallel
machine with only a fixed number of processors", and notes that the same
``⊑_d`` criterion relates it to ``M_G`` and ``M_I_G``.

The IPTC hardware is unavailable (see the substitution note in DESIGN.md);
this module simulates its documented strategy: with ``processors = K``,
only the ``K`` highest-priority *ready* invocations may fire, priority
going to the **youngest** (deepest) invocations — recursive children run
before their parents, which matches the recursive-parallel workload shape
the machine was built for.  Blocked waits are not ready and do not occupy
a processor.

``P_G`` is thus a sub-behaviour of ``M_I_G`` obtained by restricting the
enabled set; consequently every ``P_G`` run is an ``M_I_G`` run and
``P_G ⊑_d M_I_G ⊑_d M_G`` — the chain the test-suite verifies on finite
instances.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.scheme import RPScheme
from ..errors import AnalysisBudgetExceeded
from ..lts.lts import LTS, explore_lts
from .interpretation import Interpretation
from .isemantics import InterpretedSemantics, ITransition
from .istate import GlobalState


class MachineSemantics:
    """``P_G``: the ``M_I_G`` rules restricted to ``K`` processors."""

    def __init__(
        self,
        scheme: RPScheme,
        interpretation: Interpretation,
        processors: int,
    ) -> None:
        if processors < 1:
            raise ValueError("the machine needs at least one processor")
        self.inner = InterpretedSemantics(scheme, interpretation)
        self.processors = processors

    @property
    def initial_state(self) -> GlobalState:
        return self.inner.initial_state

    def successors(self, state: GlobalState) -> List[ITransition]:
        """Enabled transitions of the ``K`` scheduled invocations.

        Ready invocations are ranked youngest-first (depth, then path);
        the top ``K`` get processors, the rest are preempted.
        """
        enabled = self.inner.successors(state)
        if len(enabled) <= self.processors:
            return enabled
        ranked = sorted(
            enabled, key=lambda t: (-len(t.path), t.path)
        )
        scheduled = ranked[: self.processors]
        order = {id(t): i for i, t in enumerate(enabled)}
        return sorted(scheduled, key=lambda t: order[id(t)])

    def is_terminal(self, state: GlobalState) -> bool:
        return not self.inner.successors(state)


def explore_machine(
    scheme: RPScheme,
    interpretation: Interpretation,
    processors: int,
    max_states: int = 50_000,
    initial: Optional[GlobalState] = None,
) -> Tuple[LTS, bool]:
    """Exhaustive exploration of ``P_G`` (returns LTS + saturation flag)."""
    semantics = MachineSemantics(scheme, interpretation, processors)
    return explore_lts(
        initial if initial is not None else semantics.initial_state,
        lambda state: ((t.label, t.target) for t in semantics.successors(state)),
        max_states,
    )


def explore_machine_or_raise(
    scheme: RPScheme,
    interpretation: Interpretation,
    processors: int,
    max_states: int = 50_000,
) -> LTS:
    """Exhaustive ``P_G`` exploration or budget error."""
    lts, complete = explore_machine(scheme, interpretation, processors, max_states)
    if not complete:
        raise AnalysisBudgetExceeded(
            f"machine exploration: budget of {max_states} states exhausted",
            explored=len(lts.states),
        )
    return lts
