"""Simulations, bisimulations and the divergence-preserving ``⊑_d``.

Theorem 10 (the Preservation Theorem) states ``M_I_G ⊑_d M_G`` where
``⊑_d`` is "a divergence preserving version of the classical τ-simulation
quasi-ordering [Wal88]".  On finite LTSs (explored fragments of the
models) the relation is computed here by greatest-fixpoint refinement:

``p ⊑_d q`` iff there is a relation ``R ∋ (p, q)`` such that ``p' R q'``
implies

* for every ``p' →a p''`` there is a weak ``q' ⇒a q''`` with
  ``p'' R q''``  (``⇒a`` is ``τ* a τ*`` for visible ``a`` and ``τ*`` —
  possibly empty — for ``a = τ``), and
* if ``p'`` diverges (has an infinite τ-run) then so does ``q'``.

Dropping the divergence clause gives the classical weak simulation; using
strong transitions gives strong simulation; symmetrising gives the
(bi)simulations.  All computations are exact fixpoints on finite systems.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional, Set, Tuple

from ..core.alphabet import TAU
from .lts import LTS, State

Pair = Tuple[State, State]


def _greatest_simulation(
    left: LTS,
    right: LTS,
    weak: bool,
    divergence: bool,
) -> Set[Pair]:
    """The greatest (weak/strong, divergence-respecting) simulation
    between the state sets of *left* and *right*."""
    left_states = sorted(left.states, key=repr)
    right_states = sorted(right.states, key=repr)
    divergent_left = left._divergent_states() if divergence else set()
    divergent_right = right._divergent_states() if divergence else set()
    relation: Set[Pair] = set()
    for p in left_states:
        for q in right_states:
            if p in divergent_left and q not in divergent_right:
                continue
            relation.add((p, q))

    # memoised weak-successor computation on the right side
    weak_post_cache: Dict[Tuple[State, str], Set[State]] = {}

    def right_post(q: State, label: str) -> Set[State]:
        if not weak:
            return set(right.post(q, label))
        key = (q, label)
        if key not in weak_post_cache:
            weak_post_cache[key] = right.weak_post(q, label)
        return weak_post_cache[key]

    changed = True
    while changed:
        changed = False
        for pair in list(relation):
            p, q = pair
            ok = True
            for label, p2 in left.successors(p):
                candidates = right_post(q, label)
                if not any((p2, q2) in relation for q2 in candidates):
                    ok = False
                    break
            if not ok:
                relation.discard(pair)
                changed = True
    return relation


def strong_simulation(left: LTS, right: LTS) -> Set[Pair]:
    """The greatest strong simulation of *left* by *right*."""
    return _greatest_simulation(left, right, weak=False, divergence=False)


def weak_simulation(left: LTS, right: LTS) -> Set[Pair]:
    """The greatest weak (τ-abstracting) simulation of *left* by *right*."""
    return _greatest_simulation(left, right, weak=True, divergence=False)


def d_simulation(left: LTS, right: LTS) -> Set[Pair]:
    """The greatest divergence-preserving weak simulation (``⊑_d``)."""
    return _greatest_simulation(left, right, weak=True, divergence=True)


def strongly_simulates(left: LTS, right: LTS) -> bool:
    """``left ⊑ right`` (strong): the initial states are related."""
    return (left.initial, right.initial) in strong_simulation(left, right)


def weakly_simulates(left: LTS, right: LTS) -> bool:
    """``left ⊑ right`` (weak)."""
    return (left.initial, right.initial) in weak_simulation(left, right)


def d_simulates(left: LTS, right: LTS) -> bool:
    """``left ⊑_d right`` — the Preservation Theorem's relation."""
    return (left.initial, right.initial) in d_simulation(left, right)


def strong_bisimulation(left: LTS, right: LTS) -> Set[Pair]:
    """The greatest strong bisimulation between *left* and *right*."""
    relation = {
        (p, q)
        for (p, q) in _greatest_simulation(left, right, weak=False, divergence=False)
    }
    changed = True
    while changed:
        changed = False
        for pair in list(relation):
            p, q = pair
            ok = True
            for label, p2 in left.successors(p):
                if not any((p2, q2) in relation for q2 in right.post(q, label)):
                    ok = False
                    break
            if ok:
                for label, q2 in right.successors(q):
                    if not any((p2, q2) in relation for p2 in left.post(p, label)):
                        ok = False
                        break
            if not ok:
                relation.discard(pair)
                changed = True
    return relation


def strongly_bisimilar(left: LTS, right: LTS) -> bool:
    """``left ~ right`` (strong bisimilarity of the initial states)."""
    return (left.initial, right.initial) in strong_bisimulation(left, right)


def weak_bisimulation(left: LTS, right: LTS) -> Set[Pair]:
    """The greatest weak (observational) bisimulation.

    Both transfer directions use weak transitions (``τ* a τ*``; possibly
    empty for ``τ``).
    """
    relation = set(_greatest_simulation(left, right, weak=True, divergence=False))
    left_post: Dict[Tuple[State, str], Set[State]] = {}
    right_post: Dict[Tuple[State, str], Set[State]] = {}

    def weak_post(lts: LTS, cache, state: State, label: str) -> Set[State]:
        key = (state, label)
        if key not in cache:
            cache[key] = lts.weak_post(state, label)
        return cache[key]

    changed = True
    while changed:
        changed = False
        for pair in list(relation):
            p, q = pair
            ok = True
            for label, p2 in left.successors(p):
                if not any(
                    (p2, q2) in relation
                    for q2 in weak_post(right, right_post, q, label)
                ):
                    ok = False
                    break
            if ok:
                for label, q2 in right.successors(q):
                    if not any(
                        (p2, q2) in relation
                        for p2 in weak_post(left, left_post, p, label)
                    ):
                        ok = False
                        break
            if not ok:
                relation.discard(pair)
                changed = True
    return relation


def weakly_bisimilar(left: LTS, right: LTS) -> bool:
    """``left ≈ right`` (weak bisimilarity of the initial states)."""
    return (left.initial, right.initial) in weak_bisimulation(left, right)


def check_simulation_relation(
    left: LTS, right: LTS, relation: Set[Pair], weak: bool = True, divergence: bool = True
) -> Optional[str]:
    """Independently verify that *relation* is a (d-)simulation.

    Returns ``None`` when the relation checks out, or a human-readable
    description of the first violated transfer condition — the test-suite
    uses this to validate certificates produced elsewhere.
    """
    divergent_left = left._divergent_states() if divergence else set()
    divergent_right = right._divergent_states() if divergence else set()
    for (p, q) in relation:
        if p in divergent_left and q not in divergent_right:
            return f"divergence of {p!r} not matched by {q!r}"
        for label, p2 in left.successors(p):
            candidates = right.weak_post(q, label) if weak else set(right.post(q, label))
            if not any((p2, q2) in relation for q2 in candidates):
                return f"{p!r} --{label}--> {p2!r} not matched from {q!r}"
    return None
