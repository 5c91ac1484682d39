"""Tests for the WQO toolkit: orderings, Higman, Kruskal, bases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wqo import (
    QuasiOrder,
    UpwardClosedSet,
    check_increasing_pair,
    equality_order,
    gap_embedding_order,
    greedy_bad_sequence,
    is_bad_sequence,
    minimal_elements,
    multiset_leq,
    multiset_order,
    natural_order,
    product_order,
    subword_leq,
    subword_order,
    tree_embedding_order,
)
from repro.core.hstate import HState

from .test_hstate import hstates

P = HState.parse


class TestQuasiOrder:
    def test_strict_and_equivalent(self):
        nat = natural_order()
        assert nat.lt(1, 2)
        assert not nat.lt(2, 2)
        assert nat.equivalent(3, 3)

    def test_incomparable(self):
        eq = equality_order()
        assert eq.incomparable("a", "b")
        assert not eq.incomparable("a", "a")

    def test_product_order(self):
        order = product_order(natural_order(), natural_order())
        assert order.leq((1, 2), (2, 2))
        assert not order.leq((1, 3), (2, 2))
        assert not order.leq((1,), (1, 2))

    def test_check_increasing_pair(self):
        nat = natural_order()
        assert check_increasing_pair(nat, [3, 2, 1, 2]) == (1, 3)
        with pytest.raises(ValueError):
            check_increasing_pair(nat, [3, 2, 1])

    def test_is_bad_sequence(self):
        nat = natural_order()
        assert is_bad_sequence(nat, [5, 4, 3])
        assert not is_bad_sequence(nat, [5, 4, 4])

    def test_minimal_elements(self):
        nat = natural_order()
        assert minimal_elements(nat, [3, 1, 2]) == [1]
        pairs = product_order(natural_order(), natural_order())
        assert sorted(minimal_elements(pairs, [(1, 2), (2, 1), (2, 2)])) == [
            (1, 2),
            (2, 1),
        ]


class TestHigman:
    def test_subword_basics(self):
        eq = equality_order()
        assert subword_leq(eq, "ab", "xaxbx")
        assert not subword_leq(eq, "ba", "ab")
        assert subword_leq(eq, "", "anything")

    def test_subword_over_naturals(self):
        nat = natural_order()
        assert subword_leq(nat, [1, 2], [0, 3, 0, 5])
        assert not subword_leq(nat, [4], [1, 2, 3])

    def test_multiset_ignores_order(self):
        eq = equality_order()
        assert multiset_leq(eq, "ba", "ab")
        assert not multiset_leq(eq, "aab", "ab")

    def test_multiset_needs_matching_not_greedy(self):
        # base order: a ≤ a, a ≤ b', b ≤ b' only — a case where greedy
        # assignment of 'a' to the first compatible slot would fail
        def leq(x, y):
            return x == y or (x == "a" and y == "c") or (x == "b" and y == "c")

        order = QuasiOrder(leq)
        assert multiset_leq(order, ["a", "b"], ["c", "a"])
        assert multiset_leq(order, ["b", "a"], ["a", "c"])
        assert not multiset_leq(order, ["b", "b"], ["a", "c"])

    @given(st.lists(st.integers(0, 5)), st.lists(st.integers(0, 5)))
    @settings(max_examples=60, deadline=None)
    def test_subword_implies_multiset(self, small, big):
        nat = natural_order()
        if subword_leq(nat, small, big):
            assert multiset_leq(nat, small, big)

    @given(st.lists(st.integers(0, 3), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_subword_reflexive(self, word):
        assert subword_leq(natural_order(), word, word)

    @given(
        st.lists(st.integers(0, 3), max_size=5),
        st.lists(st.integers(0, 3), max_size=5),
        st.lists(st.integers(0, 3), max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_subword_transitive(self, a, b, c):
        order = subword_order(natural_order())
        if order.leq(a, b) and order.leq(b, c):
            assert order.leq(a, c)

    @given(st.lists(st.lists(st.integers(0, 2), max_size=3), min_size=25, max_size=25))
    @settings(max_examples=20, deadline=None)
    def test_long_sequences_are_good(self, words):
        # an empirical echo of Higman's lemma: with a tiny alphabet and
        # short words, 25 samples always contain an increasing pair
        order = subword_order(natural_order())
        assert not is_bad_sequence(order, words)


class TestKruskalOrder:
    def test_tree_embedding_order_wraps_embeds(self):
        order = tree_embedding_order()
        assert order.leq(P("a,b"), P("c,{a,b}"))
        assert order.lt(P("a"), P("a,b"))

    def test_gap_embedding_order(self):
        order = gap_embedding_order(["x"])
        assert order.leq(P("a"), P("a,x"))
        assert not order.leq(P("a"), P("a,y"))

    @given(st.lists(hstates(max_leaves=3), min_size=30, max_size=30))
    @settings(max_examples=10, deadline=None)
    def test_greedy_bad_sequences_stay_short(self, states):
        # wqo in action: random bad sequences over small states are short
        order = tree_embedding_order()
        bad = greedy_bad_sequence(order, states)
        assert is_bad_sequence(order, bad)
        assert len(bad) < 30  # ∅ or duplicates force an increasing pair


class TestUpwardClosedSet:
    def test_membership(self):
        ucs = UpwardClosedSet(tree_embedding_order(), [P("a")])
        assert P("a") in ucs
        assert P("x,{a}") in ucs
        assert P("b") not in ucs

    def test_empty(self):
        ucs = UpwardClosedSet(tree_embedding_order())
        assert ucs.is_empty()
        assert P("a") not in ucs

    def test_add_keeps_basis_minimal(self):
        ucs = UpwardClosedSet(tree_embedding_order(), [P("a,b")])
        assert ucs.add(P("a"))
        assert list(ucs.basis) == [P("a")]
        assert not ucs.add(P("a,c"))

    def test_add_reports_growth(self):
        ucs = UpwardClosedSet(tree_embedding_order(), [P("a")])
        assert not ucs.add(P("a,b"))
        assert ucs.add(P("c"))

    def test_union_and_inclusion(self):
        order = tree_embedding_order()
        left = UpwardClosedSet(order, [P("a")])
        right = UpwardClosedSet(order, [P("b")])
        both = left.union(right)
        assert both.includes(left)
        assert both.includes(right)
        assert not left.includes(both)

    def test_equality(self):
        order = tree_embedding_order()
        assert UpwardClosedSet(order, [P("a"), P("a,b")]) == UpwardClosedSet(
            order, [P("a")]
        )

    def test_copy_is_independent(self):
        order = tree_embedding_order()
        original = UpwardClosedSet(order, [P("a")])
        copy = original.copy()
        copy.add(P("b"))
        assert P("b") not in original

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(UpwardClosedSet(tree_embedding_order()))

    @given(st.lists(hstates(max_leaves=3), max_size=8), hstates(max_leaves=3))
    @settings(max_examples=40, deadline=None)
    def test_minimization_preserves_membership(self, generators, probe):
        order = tree_embedding_order()
        ucs = UpwardClosedSet(order, generators)
        raw = any(order.leq(g, probe) for g in generators)
        assert (probe in ucs) == raw
