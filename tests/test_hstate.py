"""Unit and property tests for hierarchical states (Definition 1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hstate import EMPTY, HState
from repro.errors import NotationError, StateError

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

NODE_NAMES = ["q0", "q1", "q2", "q7", "q9", "r"]


def hstates(max_leaves: int = 6, max_depth: int = 3) -> st.SearchStrategy:
    """Random hierarchical states of bounded size."""
    return st.recursive(
        st.builds(HState),
        lambda children: st.builds(
            lambda items: HState(items),
            st.lists(
                st.tuples(st.sampled_from(NODE_NAMES), children),
                max_size=max_leaves,
            ),
        ),
        max_leaves=max_leaves,
    )


# ----------------------------------------------------------------------
# Construction and canonicity
# ----------------------------------------------------------------------


class TestConstruction:
    def test_empty_is_singleton_value(self):
        assert HState.empty() == EMPTY
        assert HState.empty().is_empty()
        assert HState(()).to_notation() == "∅"

    def test_leaf(self):
        leaf = HState.leaf("q0")
        assert leaf.size == 1
        assert leaf.height == 1
        assert leaf.items == (("q0", EMPTY),)

    def test_tree(self):
        t = HState.tree("q1", HState.leaf("q2"))
        assert t.size == 2
        assert t.height == 2

    def test_of_mixed_specs(self):
        state = HState.of("q1", ("q2", ["q3", "q4"]))
        assert state.size == 4
        assert state.width == 2

    def test_of_nested_pair_spec(self):
        state = HState.of(("q1", ("q2", "q3")))
        assert state.height == 3

    def test_canonical_ordering_is_input_order_independent(self):
        a = HState.of("q2", "q1", ("q1", ["q9"]))
        b = HState.of(("q1", ["q9"]), "q2", "q1")
        assert a == b
        assert hash(a) == hash(b)
        assert a.to_notation() == b.to_notation()

    def test_duplicates_are_kept(self):
        state = HState.of("q1", "q1")
        assert state.count("q1") == 2
        assert state.size == 2

    def test_rejects_bad_node(self):
        with pytest.raises(StateError):
            HState(((42, EMPTY),))  # type: ignore[arg-type]
        with pytest.raises(StateError):
            HState((("", EMPTY),))

    def test_rejects_bad_child(self):
        with pytest.raises(StateError):
            HState((("q1", "not a state"),))  # type: ignore[arg-type]


class TestAlgebra:
    def test_addition_is_multiset_union(self):
        s = HState.leaf("q1") + HState.leaf("q1")
        assert s.count("q1") == 2

    def test_addition_identity(self):
        s = HState.of("q1", ("q2", ["q3"]))
        assert s + EMPTY == s
        assert EMPTY + s == s

    def test_subtraction(self):
        s = HState.of("q1", "q1", "q2")
        assert (s - HState.leaf("q1")).count("q1") == 1

    def test_subtraction_requires_inclusion(self):
        with pytest.raises(StateError):
            HState.leaf("q1") - HState.leaf("q2")

    def test_includes(self):
        big = HState.of("q1", "q1", ("q2", ["q3"]))
        assert big.includes(HState.of("q1", ("q2", ["q3"])))
        assert not big.includes(HState.of("q1", "q1", "q1"))
        # inclusion compares whole trees, not embedded ones
        assert not big.includes(HState.leaf("q2"))

    @given(hstates(), hstates())
    @settings(max_examples=60, deadline=None)
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(hstates(), hstates(), hstates())
    @settings(max_examples=60, deadline=None)
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(hstates(), hstates())
    @settings(max_examples=60, deadline=None)
    def test_subtraction_inverts_addition(self, a, b):
        assert (a + b) - b == a

    @given(hstates(), hstates())
    @settings(max_examples=60, deadline=None)
    def test_sum_includes_both_parts(self, a, b):
        assert (a + b).includes(a)
        assert (a + b).includes(b)


class TestNodeViews:
    def test_node_multiset_counts_everything(self):
        state = HState.parse("q1,{q9,{q11},q12,{q10}}")
        counts = state.node_multiset()
        assert counts == {"q1": 1, "q9": 1, "q11": 1, "q12": 1, "q10": 1}

    def test_top_nodes(self):
        state = HState.of("q1", ("q2", ["q3"]))
        assert state.top_nodes() == {"q1": 1, "q2": 1}

    def test_contains_node_deep(self):
        state = HState.of(("q1", ("q2", "q3")))
        assert state.contains_node("q3")
        assert not state.contains_node("q4")

    def test_contains_all_nodes_respects_multiplicity(self):
        state = HState.of("q1", ("q2", ["q1"]))
        assert state.contains_all_nodes(["q1", "q1"])
        assert not state.contains_all_nodes(["q2", "q2"])

    def test_contains_any_node(self):
        state = HState.of("q1")
        assert state.contains_any_node(["q9", "q1"])
        assert not state.contains_any_node(["q9"])

    @given(hstates())
    @settings(max_examples=60, deadline=None)
    def test_size_equals_total_node_count(self, state):
        assert state.size == sum(state.node_multiset().values())


class TestPositions:
    def test_positions_enumerate_all_tokens(self):
        state = HState.parse("q1,{q9,{q11},q12,{q10}}")
        positions = list(state.positions())
        assert len(positions) == state.size == 5
        nodes = sorted(node for _, node, _ in positions)
        assert nodes == ["q1", "q10", "q11", "q12", "q9"]

    def test_subtree_roundtrip(self):
        state = HState.parse("q1,{q9,{q11},q12,{q10}}")
        for path, node, children in state.positions():
            assert state.subtree(path) == (node, children)

    def test_replace_with_one_item(self):
        state = HState.of("q1", "q2")
        path = next(p for p, n, _ in state.positions() if n == "q1")
        out = state.replace(path, (("q9", EMPTY),))
        assert out == HState.of("q9", "q2")

    def test_replace_with_nothing_deletes(self):
        state = HState.of("q1", "q2")
        path = next(p for p, n, _ in state.positions() if n == "q1")
        assert state.replace(path, ()) == HState.leaf("q2")

    def test_replace_releases_children(self):
        # the end-rule shape: (q, σ) replaced by the items of σ
        state = HState.of(("q9", ["q11", "q12"]), "q2")
        path = next(p for p, n, _ in state.positions() if n == "q9")
        _, children = state.subtree(path)
        out = state.replace(path, children.items)
        assert out == HState.of("q11", "q12", "q2")

    def test_replace_deep(self):
        state = HState.of(("q1", ("q2", "q3")))
        path = next(p for p, n, _ in state.positions() if n == "q3")
        out = state.replace(path, (("q4", EMPTY),))
        assert out == HState.of(("q1", ("q2", "q4")))

    def test_replace_empty_path_rejected(self):
        with pytest.raises(StateError):
            HState.leaf("q1").replace((), ())

    @pytest.mark.parametrize(
        "path",
        [(-1,), (2,), (5,), (0, 0), (1, -1), (1, 1)],
        ids=lambda path: "/".join(map(str, path)),
    )
    @pytest.mark.parametrize("operation", ["subtree", "replace"])
    def test_path_outside_the_state_rejected(self, operation, path):
        # "a,b,{c}": two top-level invocations, only b has a child
        state = HState.parse("a,b,{c}")
        with pytest.raises(StateError):
            if operation == "subtree":
                state.subtree(path)
            else:
                state.replace(path, [])


class TestNotation:
    def test_paper_sigma1(self):
        sigma1 = HState.parse("q1,{q9,{q11},q12,{q10}}")
        assert sigma1.size == 5
        assert sigma1.width == 1
        assert sigma1.height == 3

    def test_empty_forms(self):
        assert HState.parse("") == EMPTY
        assert HState.parse("∅") == EMPTY

    def test_commas_optional(self):
        assert HState.parse("q1 {q2 q3}") == HState.parse("q1,{q2,q3}")

    def test_unbalanced_braces_rejected(self):
        with pytest.raises(NotationError):
            HState.parse("q1,{q2")
        with pytest.raises(NotationError):
            HState.parse("q1}")

    def test_bad_character_rejected(self):
        with pytest.raises(NotationError):
            HState.parse("q1;q2")

    @given(hstates())
    @settings(max_examples=80, deadline=None)
    def test_roundtrip(self, state):
        assert HState.parse(state.to_notation()) == state


class TestOrderingKey:
    @given(hstates(), hstates())
    @settings(max_examples=60, deadline=None)
    def test_sort_key_consistent_with_equality(self, a, b):
        assert (a.sort_key() == b.sort_key()) == (a == b)

    @given(st.lists(hstates(), max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_states_sortable(self, states):
        ordered = sorted(states)
        assert sorted(ordered) == ordered
