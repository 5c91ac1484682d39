"""Deterministic fault injection for the analysis stack.

The chaos harness answers the question the robustness suite needs
answered: *when the semantics layer misbehaves, does every decision
procedure fail cleanly?*  A :class:`ChaosSemantics` wraps successor
computation and, at plan-selected points, either

* **raises** a :class:`~repro.errors.FaultInjected` (a transient backend
  failure — the procedure must surface it as a typed error, never hang
  or emit a verdict built on half-computed successors);
* **delays** the computation by a configurable sleep (a slow backend —
  combined with a wall-clock :class:`~repro.robust.Budget`, the
  procedure must degrade to a :class:`~repro.robust.PartialVerdict`);
* **corrupts** the result — returns transitions whose ``source`` is not
  the queried state (a metadata-level corruption the exploration
  engines detect via their transition-source validation, raising
  :class:`~repro.errors.CorruptionDetected` instead of silently
  building a wrong graph).

Injection decisions are a pure function of ``(seed, computation
index)``, so a chaos run is bit-reproducible regardless of call
interleaving, and the memoized successor cache never replays a fault
(faults model the *computation*, not the cached value).

Usage::

    plan = FaultPlan(seed=7, raise_rate=0.05)
    session = AnalysisSession(scheme, semantics=ChaosSemantics(scheme, plan))
    boundedness(scheme, session=session)   # clean RPError or honest verdict
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional

from ..core.semantics import MemoizingSemantics, Transition
from ..errors import FaultInjected

__all__ = [
    "FaultPlan",
    "ChaosSemantics",
    "FAULT_KINDS",
    "ProcessFaultPlan",
    "install_process_faults",
]

#: The injectable fault kinds, in plan-evaluation order.
FAULT_KINDS = ("raise", "delay", "corrupt")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of fault injections.

    Each successor *computation* (cache misses only) gets an index
    ``0, 1, 2, ...``; :meth:`decide` maps the index to a fault kind or
    ``None`` using a PRNG keyed by ``(seed, index)`` — the decision for
    index *i* never depends on how many other computations ran before
    it.  ``immune`` exempts the first computations so the initial state
    is always expandable (keeps tests meaningful: a run that dies on
    σ0 exercises nothing).  ``fault_at`` pins specific indices to
    specific kinds, overriding the rates — the precision tool for
    "controlled points" tests.
    """

    seed: int = 0
    raise_rate: float = 0.0
    delay_rate: float = 0.0
    corrupt_rate: float = 0.0
    delay_seconds: float = 0.0
    immune: int = 1
    fault_at: "FrozenSet[tuple] | tuple" = field(default_factory=tuple)

    def decide(self, index: int) -> Optional[str]:
        """The fault kind injected at computation *index* (or ``None``)."""
        for pinned_index, kind in self.fault_at:
            if pinned_index == index:
                if kind not in FAULT_KINDS:
                    raise ValueError(f"unknown fault kind {kind!r}")
                return kind
        if index < self.immune:
            return None
        draw = random.Random(f"{self.seed}:{index}").random()
        for kind, rate in (
            ("raise", self.raise_rate),
            ("delay", self.delay_rate),
            ("corrupt", self.corrupt_rate),
        ):
            if draw < rate:
                return kind
            draw -= rate
        return None


@dataclass(frozen=True)
class ProcessFaultPlan:
    """A seeded, deterministic schedule of worker-process kills.

    The process-level counterpart of :class:`FaultPlan`: where that one
    makes the *semantics* misbehave, this one SIGKILLs exploration
    worker **processes** of a sharded session
    (``AnalysisSession(workers=N)``), exercising the supervision path in
    :mod:`repro.analysis.parallel`: detection, then degradation of the
    session to in-process expansion.  The first kill that fires closes
    the pool that carries the plan, so kills planned for later windows
    never fire.

    Windows are numbered ``1, 2, ...`` in coordinator round order
    (``WorkerPool.rounds`` after the round-start increment).
    :meth:`victims` is a pure function of ``(seed, window)``, so a chaos
    run is bit-reproducible.  ``kill_at`` pins ``(window, worker)``
    pairs — the precision tool; ``kill_rate`` draws one victim per
    non-immune window with the given probability.
    ``max_kills`` bounds total kills (enforced by the pool, which stops
    injecting once the budget is spent) and ``immune`` exempts the first
    windows so exploration always gets under way.
    """

    seed: int = 0
    kill_rate: float = 0.0
    kill_at: "FrozenSet[tuple] | tuple" = field(default_factory=tuple)
    max_kills: int = 1
    immune: int = 1

    def victims(self, window: int, workers: int) -> tuple:
        """Worker indices to SIGKILL at *window* (usually empty)."""
        chosen = []
        for pinned_window, worker in self.kill_at:
            if pinned_window == window:
                chosen.append(worker % workers)
        if window > self.immune:
            rng = random.Random(f"{self.seed}:process:{window}")
            if rng.random() < self.kill_rate:
                victim = rng.randrange(workers)
                if victim not in chosen:
                    chosen.append(victim)
        return tuple(chosen)


def install_process_faults(session, plan: ProcessFaultPlan):
    """Arm *session*'s worker pool with *plan*; returns the pool.

    The session must be sharded (``workers > 1``).  Spawns the pool if
    it is not warm yet so the plan survives until exploration starts.
    The plan lives on that pool only: once a kill degrades the session,
    or an interrupted exploration closes the pool, a later pool carries
    no plan.
    """
    if session.workers < 2:
        raise ValueError(
            "process faults need a sharded session (workers > 1), "
            f"got workers={session.workers}"
        )
    pool = session._ensure_pool()
    pool.fault_plan = plan
    return pool


class ChaosSemantics(MemoizingSemantics):
    """A :class:`MemoizingSemantics` with plan-driven fault injection.

    Drop-in wherever an :class:`~repro.analysis.AnalysisSession` builds
    its semantics (pass via ``AnalysisSession(scheme,
    semantics=ChaosSemantics(scheme, plan))``); every analysis engine
    then runs against the faulty backend.  Counters record what was
    actually injected so tests can assert the harness exercised each
    mode.
    """

    def __init__(self, scheme, plan: FaultPlan, *, sleep=time.sleep) -> None:
        super().__init__(scheme)
        self.plan = plan
        self._sleep = sleep
        #: Successor computations attempted (== injection indices used).
        self.computations = 0
        #: Injections performed, by kind.
        self.injected = {kind: 0 for kind in FAULT_KINDS}

    def successors(self, state) -> List[Transition]:
        cached = self._successors.get(state)
        if cached is not None:
            self.cache_hits += 1
            return cached
        index = self.computations
        self.computations += 1
        fault = self.plan.decide(index)
        if fault == "raise":
            self.injected["raise"] += 1
            raise FaultInjected(
                f"chaos: injected failure at successor computation #{index} "
                f"(state {state.to_notation()})"
            )
        if fault == "delay":
            self.injected["delay"] += 1
            self._sleep(self.plan.delay_seconds)
        result = super().successors(state)
        if fault == "corrupt":
            self.injected["corrupt"] += 1
            # Metadata corruption: transitions claiming to leave a state
            # they do not leave.  Returned *instead of* the cached list —
            # the cache keeps the truthful value, so a detected
            # corruption does not poison later (or resumed) runs.
            return [self._corrupt(state, t) for t in result]
        return result

    @staticmethod
    def _corrupt(state, transition: Transition) -> Transition:
        from dataclasses import replace

        wrong_source = transition.target if transition.target != state else state
        if wrong_source == transition.source:
            # self-looping metadata; corrupt the rule tag instead so the
            # transition is still detectably inconsistent
            return replace(transition, rule="chaos-corrupted")
        return replace(transition, source=wrong_source)
