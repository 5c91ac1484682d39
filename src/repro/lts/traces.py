"""Bounded-length trace languages of transition systems.

The paper compares the expressive power of RP schemes, PA and Petri nets
through the *languages* they generate.  Those systems are infinite in
general, so we work with bounded-length languages, computed by one
search, :func:`bounded_language`, over any transition system given by
an initial state and a successor function — a finite :class:`LTS`, a
Petri net's markings, PA terms or the hierarchical states of ``M_G``:

* **strong traces**: label sequences of runs, τ included;
* **weak traces**: visible-label sequences, τ abstracted away —
  the notion used for the RP-vs-PA and RP-vs-PN comparisons;
* **completed weak traces**: weak traces of runs ending in a state with no
  outgoing transitions (for RP schemes: runs reaching ``∅``).

All languages returned are prefix-closed except the completed one.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Optional, Set, Tuple

from ..core.alphabet import TAU
from ..errors import AnalysisBudgetExceeded, AnalysisError, too_tall_message
from .lts import LTS, State, Steps

Word = Tuple[str, ...]


def bounded_language(
    initial: State,
    steps: Steps,
    max_length: int,
    *,
    silent: FrozenSet[str] = frozenset(),
    accept: Optional[Callable[[State], bool]] = None,
    max_states: Optional[int] = None,
) -> FrozenSet[Word]:
    """The words of at most *max_length* labels along runs from *initial*.

    ``steps(state)`` yields the ``(label, target)`` pairs of *state*;
    labels in *silent* are left out of the words.  Without *accept* the
    language is prefix-closed: every word read along a run.  With
    *accept* it holds the words of the runs that reach a state
    satisfying it.

    The search visits each ``(state, word)`` pair once, so arbitrarily
    long (even cyclic) silent stretches are handled exactly on finite
    systems.  Past *max_states* pairs it raises
    :class:`~repro.errors.AnalysisBudgetExceeded` (a system growing
    through silent steps alone never runs out of pairs), and a state
    nested deeper than the recursion limit ends it with an
    :class:`~repro.errors.AnalysisError`.
    """
    words: Set[Word] = {()} if accept is None else set()
    start = (initial, ())
    seen = {start}
    stack = [start]
    try:
        while stack:
            state, word = stack.pop()
            if accept is not None and accept(state):
                words.add(word)
            for label, target in steps(state):
                if label in silent:
                    extended = word
                elif len(word) == max_length:
                    continue
                else:
                    extended = word + (label,)
                    if accept is None:
                        words.add(extended)
                pair = (target, extended)
                if pair not in seen:
                    if max_states is not None and len(seen) >= max_states:
                        raise AnalysisBudgetExceeded(
                            f"bounded language search exceeded {max_states} "
                            f"states",
                            explored=len(seen),
                        )
                    seen.add(pair)
                    stack.append(pair)
    except RecursionError as error:
        raise AnalysisError(too_tall_message("bounded language search")) from error
    return frozenset(words)


def strong_traces(lts: LTS, max_length: int) -> FrozenSet[Word]:
    """All label sequences (τ included) of length ≤ *max_length*."""
    return bounded_language(lts.initial, lts.successors, max_length)


def weak_traces(lts: LTS, max_length: int) -> FrozenSet[Word]:
    """All visible-label sequences of length ≤ *max_length* (τ-abstracted)."""
    return bounded_language(
        lts.initial, lts.successors, max_length, silent=frozenset({TAU})
    )


def completed_weak_traces(lts: LTS, max_length: int) -> FrozenSet[Word]:
    """Weak traces of runs ending in a transition-less state."""
    return bounded_language(
        lts.initial,
        lts.successors,
        max_length,
        silent=frozenset({TAU}),
        accept=lambda state: not lts.successors(state),
    )


def weak_trace_equivalent(left: LTS, right: LTS, max_length: int) -> bool:
    """Equality of weak trace languages up to *max_length*."""
    return weak_traces(left, max_length) == weak_traces(right, max_length)


def weak_trace_included(left: LTS, right: LTS, max_length: int) -> bool:
    """Inclusion of weak trace languages up to *max_length*."""
    return weak_traces(left, max_length) <= weak_traces(right, max_length)
