"""Execution and exploration of interpreted programs.

Three ways of running an ``M_I_G``:

* :class:`InterpretedExplorer` — exhaustive BFS over global states with a
  budget, mirroring :class:`repro.analysis.explore.Explorer`; the result
  converts to a finite LTS for the Theorem 10 checks;
* :func:`run_scheduled` — a single maximal run under a pluggable
  scheduler (deterministic round-robin, seeded random, priority);
* :func:`run_program` — the "just run it" entry point for compiled
  concrete programs, returning the final global memory.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from ..errors import AnalysisBudgetExceeded, ExecutionError
from ..core.scheme import RPScheme
from ..lang.compiler import CompiledProgram
from ..lts.lts import LTS, explore_lts
from ..obs import Tracer
from .interpretation import Interpretation, ProgramInterpretation
from .isemantics import InterpretedSemantics, ITransition
from .istate import GlobalState

#: A scheduler picks the next transition among the enabled ones.
Scheduler = Callable[[List[ITransition], int], ITransition]


class InterpretedExplorer:
    """Breadth-first exploration of ``M_I_G`` with a state budget."""

    def __init__(
        self,
        scheme: RPScheme,
        interpretation: Interpretation,
        max_states: int = 50_000,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.semantics = InterpretedSemantics(scheme, interpretation)
        self.max_states = max_states
        self.tracer = tracer if tracer is not None else Tracer()

    def explore(self, initial: Optional[GlobalState] = None) -> Tuple[LTS, bool]:
        """Explore reachable global states.

        Returns ``(lts, complete)`` — the explored fragment as an LTS and
        whether it saturated.
        """
        start = initial if initial is not None else self.semantics.initial_state
        with self.tracer.span(
            "interp.explore", budget=self.max_states
        ) as span:
            lts, complete = explore_lts(
                start,
                lambda state: (
                    (t.label, t.target) for t in self.semantics.successors(state)
                ),
                self.max_states,
            )
            # an incomplete fragment also holds the first state past the
            # budget, which was never explored
            explored = len(lts.states) if complete else len(lts.states) - 1
            span.set(states=explored, complete=complete)
        return lts, complete

    def explore_or_raise(self, initial: Optional[GlobalState] = None) -> LTS:
        """Explore exhaustively or raise on budget exhaustion."""
        lts, complete = self.explore(initial)
        if not complete:
            raise AnalysisBudgetExceeded(
                f"interpreted exploration: budget of {self.max_states} "
                f"global states exhausted",
                explored=len(lts.states),
            )
        return lts


# ----------------------------------------------------------------------
# Schedulers
# ----------------------------------------------------------------------


def round_robin_scheduler(enabled: List[ITransition], step: int) -> ITransition:
    """Deterministic fair-ish choice: rotate through enabled transitions."""
    return enabled[step % len(enabled)]


def first_scheduler(enabled: List[ITransition], step: int) -> ITransition:
    """Always the first enabled transition (canonical order)."""
    return enabled[0]


def random_scheduler(seed: int) -> Scheduler:
    """A seeded random scheduler (reproducible runs)."""
    rng = random.Random(seed)

    def choose(enabled: List[ITransition], step: int) -> ITransition:
        return enabled[rng.randrange(len(enabled))]

    return choose


def deepest_first_scheduler(enabled: List[ITransition], step: int) -> ITransition:
    """Prefer the deepest (youngest) invocation — the IPTC priority rule."""
    return max(enabled, key=lambda t: (len(t.path), t.path))


def run_scheduled(
    scheme: RPScheme,
    interpretation: Interpretation,
    scheduler: Scheduler = first_scheduler,
    max_steps: int = 100_000,
    initial: Optional[GlobalState] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[GlobalState, List[ITransition]]:
    """One maximal run under *scheduler*.

    Stops when the state is terminated; raises
    :class:`~repro.errors.ExecutionError` when *max_steps* is hit first
    (likely divergence).
    """
    semantics = InterpretedSemantics(scheme, interpretation)
    state = initial if initial is not None else semantics.initial_state
    trace: List[ITransition] = []
    if tracer is None:
        tracer = Tracer()
    with tracer.span(
        "interp.scheduled-run",
        scheduler=getattr(scheduler, "__name__", repr(scheduler)),
        max_steps=max_steps,
    ) as span:
        for step in range(max_steps):
            enabled = semantics.successors(state)
            if not enabled:
                span.set(steps=len(trace), terminated=True)
                return state, trace
            transition = scheduler(enabled, step)
            trace.append(transition)
            state = transition.target
        span.set(steps=len(trace), terminated=False)
    raise ExecutionError(
        f"run did not terminate within {max_steps} steps "
        f"(current state: {state!r})"
    )


def run_program(
    compiled: CompiledProgram,
    scheduler: Scheduler = first_scheduler,
    max_steps: int = 100_000,
):
    """Run a compiled concrete RP program to termination.

    Returns ``(final_global_memory, visible_trace)``.
    """
    interpretation = ProgramInterpretation(compiled)
    final, trace = run_scheduled(
        compiled.scheme, interpretation, scheduler=scheduler, max_steps=max_steps
    )
    visible = [t.label for t in trace if t.label != "τ"]
    return final.global_memory, visible
