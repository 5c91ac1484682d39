"""Place/transition Petri nets.

The paper contrasts RP schemes with Petri nets: hierarchical states can be
seen as markings "with an additional tree-like structure between tokens",
RP schemes and Petri nets generate incomparable language classes, and the
Theorem 9 construction combines "the power of Petri Nets and BPA
synchronization".  This subpackage provides the standard P/T-net substrate
those comparisons live on: nets, markings, firing, the Karp–Miller
coverability tree and backward coverability.

Markings are immutable tuples indexed by place order, so they hash and
compare cheaply; ω (unbounded) components only appear inside the
Karp–Miller machinery (:mod:`repro.petri.karp_miller`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..errors import RPError
from ..lts.lts import LTS, explore_lts
from ..lts.traces import bounded_language


class PetriError(RPError):
    """A malformed Petri net."""


Marking = Tuple[int, ...]


@dataclass(frozen=True)
class PTransition:
    """One net transition with pre/post vectors and a label."""

    name: str
    pre: Marking
    post: Marking
    label: str


class PetriNet:
    """A labelled place/transition net with an initial marking."""

    def __init__(
        self,
        places: Sequence[str],
        transitions: Iterable[Mapping],
        initial: Mapping[str, int],
    ) -> None:
        self.places: Tuple[str, ...] = tuple(places)
        if len(set(self.places)) != len(self.places):
            raise PetriError("duplicate place names")
        self._index: Dict[str, int] = {p: i for i, p in enumerate(self.places)}
        self.transitions: List[PTransition] = []
        for spec in transitions:
            self.transitions.append(
                PTransition(
                    name=spec["name"],
                    pre=self._vector(spec.get("pre", {})),
                    post=self._vector(spec.get("post", {})),
                    label=spec.get("label", spec["name"]),
                )
            )
        self.initial: Marking = self._vector(initial)

    def _vector(self, counts: Mapping[str, int]) -> Marking:
        vector = [0] * len(self.places)
        for place, count in counts.items():
            if place not in self._index:
                raise PetriError(f"unknown place {place!r}")
            if count < 0:
                raise PetriError(f"negative token count for {place!r}")
            vector[self._index[place]] = count
        return tuple(vector)

    def marking(self, **counts: int) -> Marking:
        """Build a marking from keyword place counts."""
        return self._vector(counts)

    def tokens(self, marking: Marking, place: str) -> int:
        """Token count of *place* in *marking*."""
        return marking[self._index[place]]

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def enabled(self, marking: Marking) -> List[PTransition]:
        """Transitions enabled at *marking*."""
        return [
            t
            for t in self.transitions
            if all(m >= p for m, p in zip(marking, t.pre))
        ]

    def fire(self, marking: Marking, transition: PTransition) -> Marking:
        """The marking after firing *transition* (must be enabled)."""
        if any(m < p for m, p in zip(marking, transition.pre)):
            raise PetriError(f"transition {transition.name!r} is not enabled")
        return tuple(
            m - p + q for m, p, q in zip(marking, transition.pre, transition.post)
        )

    def successors(self, marking: Marking) -> List[Tuple[str, Marking]]:
        """``(label, marking')`` for each enabled firing."""
        return [(t.label, self.fire(marking, t)) for t in self.enabled(marking)]

    # ------------------------------------------------------------------
    # Exploration (bounded nets / bounded horizons)
    # ------------------------------------------------------------------

    def reachable_markings(self, max_markings: int = 100_000) -> Optional[set]:
        """The reachability set, or ``None`` when the budget is hit
        (possibly unbounded)."""
        lts, complete = explore_lts(self.initial, self.successors, max_markings)
        return lts.states if complete else None

    def to_lts(self, max_markings: int = 100_000) -> LTS:
        """The reachability graph as an LTS (raises if unbounded)."""
        lts, complete = explore_lts(self.initial, self.successors, max_markings)
        if not complete:
            raise PetriError(
                f"the net has more than {max_markings} reachable markings"
            )
        return lts

    def traces(self, max_length: int) -> frozenset:
        """The prefix-closed label language up to *max_length*."""
        return bounded_language(self.initial, self.successors, max_length)

    def __repr__(self) -> str:
        return (
            f"PetriNet(places={len(self.places)}, "
            f"transitions={len(self.transitions)})"
        )
