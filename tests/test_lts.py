"""Tests for the generic LTS toolkit: traces, simulations, safety."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alphabet import TAU
from repro.errors import AnalysisError
from repro.lang import compile_source
from repro.lts import (
    LTS,
    at_most_n_occurrences,
    bounded_language,
    check_safety,
    check_simulation_relation,
    completed_weak_traces,
    d_simulates,
    d_simulation,
    lts_terminates,
    never_follows,
    never_occurs,
    strong_traces,
    strongly_bisimilar,
    strongly_simulates,
    weak_trace_equivalent,
    weak_traces,
    weakly_simulates,
)
from repro.pa import scheme_weak_traces
from repro.petri import scheme_bpp_traces, scheme_terminated_words


def chain(*labels):
    lts = LTS(initial=0)
    for i, label in enumerate(labels):
        lts.add_transition(i, label, i + 1)
    return lts


class TestLTSBasics:
    def test_duplicate_edges_ignored(self):
        lts = LTS(initial=0)
        lts.add_transition(0, "a", 1)
        lts.add_transition(0, "a", 1)
        assert lts.num_transitions == 1

    def test_post_and_labels(self):
        lts = chain("a", "b")
        assert lts.post(0, "a") == [1]
        assert lts.labels() == {"a", "b"}

    def test_determinism(self):
        lts = chain("a", "b")
        assert lts.is_deterministic()
        lts.add_transition(0, "a", 2)
        assert not lts.is_deterministic()

    def test_reachability_restriction(self):
        lts = chain("a")
        lts.add_transition(99, "z", 100)
        restricted = lts.restricted_to_reachable()
        assert 99 not in restricted.states
        assert restricted.num_transitions == 1

    def test_tau_closure(self):
        lts = LTS(initial=0)
        lts.add_transition(0, TAU, 1)
        lts.add_transition(1, TAU, 2)
        lts.add_transition(2, "a", 3)
        assert lts.tau_closure(0) == {0, 1, 2}
        assert lts.weak_post(0, "a") == {3}

    def test_weak_post_tau(self):
        lts = LTS(initial=0)
        lts.add_transition(0, TAU, 1)
        assert lts.weak_post(0, TAU) == {0, 1}

    def test_divergence(self):
        lts = LTS(initial=0)
        lts.add_transition(0, TAU, 1)
        lts.add_transition(1, TAU, 0)
        lts.add_transition(1, "a", 2)
        assert lts.diverges(0)
        assert lts.diverges(1)
        assert not lts.diverges(2)

    def test_visible_cycle_is_not_divergence(self):
        lts = LTS(initial=0)
        lts.add_transition(0, "a", 1)
        lts.add_transition(1, "a", 0)
        assert not lts.diverges(0)


class TestTraces:
    def test_strong_traces(self):
        lts = chain("a", TAU, "b")
        traces = strong_traces(lts, 3)
        assert ("a", TAU, "b") in traces
        assert ("a", "b") not in traces

    def test_weak_traces_abstract_tau(self):
        lts = chain("a", TAU, "b")
        traces = weak_traces(lts, 2)
        assert ("a", "b") in traces
        assert ("a",) in traces  # prefix-closed

    def test_weak_traces_with_tau_cycle(self):
        lts = LTS(initial=0)
        lts.add_transition(0, TAU, 1)
        lts.add_transition(1, TAU, 0)
        lts.add_transition(1, "a", 2)
        assert ("a",) in weak_traces(lts, 1)

    def test_completed_traces(self):
        lts = LTS(initial=0)
        lts.add_transition(0, "a", 1)
        lts.add_transition(0, "b", 2)
        lts.add_transition(2, TAU, 3)
        completed = completed_weak_traces(lts, 5)
        assert completed == {("a",), ("b",)}

    def test_trace_equivalence(self):
        assert weak_trace_equivalent(chain("a", "b"), chain("a", TAU, "b"), 5)
        assert not weak_trace_equivalent(chain("a"), chain("b"), 5)

    def test_branching_traces(self):
        lts = LTS(initial=0)
        lts.add_transition(0, "a", 1)
        lts.add_transition(0, "b", 2)
        assert weak_traces(lts, 1) == {(), ("a",), ("b",)}


@st.composite
def small_lts(draw):
    """At most 3 states, out-degree at most 2, labels a, b and τ, and a
    non-empty set of accepting states."""
    size = draw(st.integers(1, 3))
    lts = LTS(initial=0)
    for state in range(size):
        lts.add_state(state)
        edges = st.tuples(st.sampled_from(("a", "b", TAU)), st.integers(0, size - 1))
        for label, target in draw(st.lists(edges, max_size=2)):
            lts.add_transition(state, label, target)
    return lts, draw(st.frozensets(st.integers(0, size - 1), min_size=1))


def path_words(lts, max_steps, silent, accept):
    """The words of all paths of at most *max_steps* steps from the
    initial state (ending in a state satisfying *accept*, when given)."""
    words = set()
    ends = [(lts.initial, ())]
    for _ in range(max_steps + 1):
        words.update(word for state, word in ends if accept is None or accept(state))
        ends = [
            (target, word if label in silent else word + (label,))
            for state, word in ends
            for label, target in lts.successors(state)
        ]
    return words


class TestBoundedLanguage:
    @pytest.mark.parametrize("silent", [frozenset(), frozenset({TAU})], ids=["strong", "weak"])
    @pytest.mark.parametrize("accepting", [False, True], ids=["prefix-closed", "accept"])
    @given(system=small_lts(), max_length=st.integers(0, 2))
    @settings(max_examples=400, deadline=None)
    def test_matches_path_enumeration(self, silent, accepting, system, max_length):
        # the shortest run for a word never repeats a state inside a
        # silent stretch, so (L + 1) · |states| steps reach every word
        lts, accepted = system
        accept = accepted.__contains__ if accepting else None
        max_steps = (max_length + 1) * len(lts.states)
        expected = {
            word
            for word in path_words(lts, max_steps, silent, accept)
            if len(word) <= max_length
        }
        found = bounded_language(
            lts.initial, lts.successors, max_length, silent=silent, accept=accept
        )
        assert found == expected

    @pytest.mark.parametrize(
        "words", [scheme_weak_traces, scheme_terminated_words, scheme_bpp_traces]
    )
    def test_tall_state_is_a_typed_error(self, words):
        # silent pcalls nest main ever deeper; rebuilding a state recurses
        # once per level, so a low recursion limit is passed within a
        # few hundred levels
        scheme = compile_source("program main { pcall main; wait; end; }").scheme
        previous = sys.getrecursionlimit()
        sys.setrecursionlimit(300)
        try:
            with pytest.raises(AnalysisError) as caught:
                words(scheme, 3)
        finally:
            sys.setrecursionlimit(previous)
        assert "too tall" in str(caught.value)
        assert "recursion limit (300)" in str(caught.value)


class TestSimulations:
    def test_strong_simulation_basic(self):
        small = chain("a")
        big = LTS(initial=0)
        big.add_transition(0, "a", 1)
        big.add_transition(0, "b", 2)
        assert strongly_simulates(small, big)
        assert not strongly_simulates(big, small)

    def test_weak_simulation_absorbs_tau(self):
        concrete = chain("a", "b")
        abstract = chain("a", TAU, "b")
        assert weakly_simulates(concrete, abstract)
        assert weakly_simulates(abstract, concrete)
        assert not strongly_simulates(abstract, concrete)

    def test_bisimilarity_vs_trace_equivalence(self):
        # the classic a(b+c) vs ab+ac: trace equivalent, not bisimilar
        left = LTS(initial="s")
        left.add_transition("s", "a", "m")
        left.add_transition("m", "b", "x")
        left.add_transition("m", "c", "y")
        right = LTS(initial="t")
        right.add_transition("t", "a", "m1")
        right.add_transition("t", "a", "m2")
        right.add_transition("m1", "b", "x2")
        right.add_transition("m2", "c", "y2")
        assert weak_trace_equivalent(left, right, 3)
        assert not strongly_bisimilar(left, right)
        # and simulation holds one way only
        assert strongly_simulates(right, left)
        assert not strongly_simulates(left, right)

    def test_d_simulation_rejects_lost_divergence(self):
        # concrete diverges, abstract does not: ⊑_d must fail even though
        # the weak simulation holds
        concrete = LTS(initial=0)
        concrete.add_transition(0, TAU, 0)
        abstract = LTS(initial=0)  # no transitions at all
        assert weakly_simulates(concrete, abstract)
        assert not d_simulates(concrete, abstract)

    def test_d_simulation_accepts_matched_divergence(self):
        concrete = LTS(initial=0)
        concrete.add_transition(0, TAU, 0)
        abstract = LTS(initial="x")
        abstract.add_transition("x", TAU, "x")
        assert d_simulates(concrete, abstract)

    def test_check_simulation_relation_validates(self):
        small, big = chain("a"), chain("a", "b")
        relation = {(0, 0), (1, 1)}
        assert check_simulation_relation(small, big, relation) is None
        bogus = {(0, 1)}
        assert check_simulation_relation(small, big, bogus) is not None

    def test_divergence_is_computed_once_per_lts(self, monkeypatch):
        calls = []
        divergent_states = LTS._divergent_states

        def spy(lts):
            calls.append(lts)
            return divergent_states(lts)

        monkeypatch.setattr(LTS, "_divergent_states", spy)
        concrete = chain("a", TAU, "b")
        concrete.add_transition(2, TAU, 1)
        abstract = chain("a", TAU, TAU, "b")
        abstract.add_transition(3, TAU, 2)
        relation = d_simulation(concrete, abstract)
        assert len(calls) <= 2
        calls.clear()
        assert check_simulation_relation(concrete, abstract, relation) is None
        assert len(calls) <= 2
        assert (concrete.initial, abstract.initial) in relation

    def test_bisimilar_identical_chains(self):
        assert strongly_bisimilar(chain("a", "b"), chain("a", "b"))


class TestSafetyProperties:
    def test_never_occurs(self):
        prop = never_occurs("crash")
        ok, _ = check_safety(chain("a", "b"), prop)
        assert ok
        bad, counterexample = check_safety(chain("a", "crash"), prop)
        assert not bad
        assert counterexample == ["a", "crash"]

    def test_never_follows(self):
        prop = never_follows("lock", "lock")
        ok, _ = check_safety(chain("lock", "unlock"), prop)
        assert ok
        bad, _ = check_safety(chain("lock", "lock"), prop)
        assert not bad

    def test_at_most_n(self):
        prop = at_most_n_occurrences("ping", 2)
        ok, _ = check_safety(chain("ping", "ping"), prop)
        assert ok
        bad, _ = check_safety(chain("ping", "ping", "ping"), prop)
        assert not bad

    def test_tau_does_not_move_the_dfa(self):
        prop = never_follows("a", "b")
        ok, _ = check_safety(chain("a", TAU, TAU, "c"), prop)
        assert ok

    def test_violates_on_words(self):
        prop = never_follows("a", "b")
        assert prop.violates(["a", "x", "b"])
        assert not prop.violates(["b", "a"])

    def test_lts_terminates(self):
        assert lts_terminates(chain("a", "b"))
        loop = LTS(initial=0)
        loop.add_transition(0, "a", 1)
        loop.add_transition(1, "b", 0)
        assert not lts_terminates(loop)


class TestCompatibility:
    """Proposition 12: safety and termination are ⊑_d-compatible."""

    def test_safety_transfers_down_simulation(self):
        # concrete ⊑ abstract; abstract satisfies never(c); so must concrete
        abstract = LTS(initial=0)
        abstract.add_transition(0, "a", 1)
        abstract.add_transition(1, "b", 0)
        concrete = chain("a", "b", "a")
        assert d_simulates(concrete, abstract)
        prop = never_occurs("c")
        abstract_ok, _ = check_safety(abstract, prop)
        concrete_ok, _ = check_safety(concrete, prop)
        assert abstract_ok and concrete_ok

    def test_termination_transfers(self):
        # abstract terminates and concrete ⊑_d abstract ⟹ concrete terminates
        abstract = chain("a", "b")
        concrete = chain("a")
        assert d_simulates(concrete, abstract)
        assert lts_terminates(abstract)
        assert lts_terminates(concrete)

    def test_divergence_clause_is_what_makes_termination_compatible(self):
        # without the divergence clause, a diverging concrete system would
        # be "simulated" by a terminating abstract one — Prop 12 would fail
        concrete = LTS(initial=0)
        concrete.add_transition(0, TAU, 0)
        abstract = LTS(initial="x")
        assert lts_terminates(abstract)
        assert not lts_terminates(concrete)
        assert weakly_simulates(concrete, abstract)  # the unsound relation
        assert not d_simulates(concrete, abstract)  # ⊑_d correctly refuses
