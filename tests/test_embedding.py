"""Tests for the forest embedding ⪯ and the gap (⋆) embedding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.embedding import (
    PLAIN_EMBEDDING,
    Embedder,
    GapEmbedding,
    embeds,
    is_minimal_among,
    naive_embeds,
    strictly_embeds,
)
from repro.core.hstate import EMPTY, HState
from repro.errors import AnalysisError
from repro.wqo import EmbeddingBasis

from .test_hstate import hstates

P = HState.parse


class TestEmbedsBasics:
    def test_empty_embeds_everywhere(self):
        assert embeds(EMPTY, EMPTY)
        assert embeds(EMPTY, P("q1,{q2}"))

    def test_nothing_but_empty_embeds_in_empty(self):
        assert not embeds(P("q1"), EMPTY)

    def test_reflexive_examples(self):
        for text in ["q1", "q1,{q2,q3}", "q1,{q9,{q11},q12,{q10}}"]:
            assert embeds(P(text), P(text))

    def test_leaf_in_deep_tree(self):
        assert embeds(P("q3"), P("q1,{q2,{q3}}"))

    def test_label_mismatch(self):
        assert not embeds(P("q4"), P("q1,{q2,{q3}}"))

    def test_ancestorship_preserved(self):
        # a above b embeds into a above x above b
        assert embeds(P("a,{b}"), P("a,{x,{b}}"))
        # but not into b above a
        assert not embeds(P("a,{b}"), P("b,{a}"))

    def test_two_sources_into_one_target_tree(self):
        # {a, b} embeds into {c,{a,b}}: both images inside c, incomparable
        assert embeds(P("a,b"), P("c,{a,b}"))

    def test_incomparability_required(self):
        # {a, a} needs two incomparable a's; the chain a,{a} only offers a
        # root and its child, which are comparable — so this must FAIL.
        assert not embeds(P("a a"), P("a,{a}"))
        # ...but two separate a's do work
        assert embeds(P("a a"), P("a a"))
        # and a tree with two incomparable a's below one root works too
        assert embeds(P("a a"), P("x,{a,a}"))

    def test_multiplicity_respected(self):
        assert not embeds(P("a,a,a"), P("a,a"))
        assert embeds(P("a,a"), P("a,a,a"))

    def test_deep_mixed_case(self):
        small = P("q1,{q9,q12}")
        big = P("q1,{q9,{q11},q12,{q10}}")
        assert embeds(small, big)
        assert not embeds(big, small)

    def test_children_cannot_migrate_to_other_parent(self):
        assert not embeds(P("a,{b},c"), P("a,c,{b}"))

    def test_forest_split_across_targets(self):
        assert embeds(P("a,b"), P("x,{a},y,{b}"))

    def test_strictly_embeds(self):
        assert strictly_embeds(P("a"), P("a,b"))
        assert not strictly_embeds(P("a"), P("a"))

    def test_is_minimal_among(self):
        assert is_minimal_among(P("a,b"), [P("a,c"), P("b,b")])
        assert not is_minimal_among(P("a,b"), [P("a")])


class TestWideForests:
    """Forests wider than the complete search's old 16-tree cut-off."""

    @pytest.mark.parametrize("n", [3, 16, 17, 40])
    @pytest.mark.parametrize("decide", [embeds, naive_embeds])
    def test_copies_embed_below_a_deleted_root(self, decide, n):
        # n childless a's embed into c,{the same n}: delete c
        copies = HState((("a", EMPTY),) * n)
        assert decide(copies, HState((("c", copies),)))

    @pytest.mark.parametrize("decide", [embeds, naive_embeds])
    def test_splits_leaving_too_much_for_the_rest_skip_fits(
        self, decide, monkeypatch
    ):
        # 16 distinct leaves into c,{the same 16}: no target follows c, so
        # of the 2^16 splits only the one sending all 16 to c can succeed
        groups = []
        fits = Embedder._fits

        def counted(self, group, target):
            groups.append(len(group))
            return fits(self, group, target)

        monkeypatch.setattr(Embedder, "_fits", counted)
        leaves = HState(tuple((f"a{i}", EMPTY) for i in range(16)))
        assert decide(leaves, HState((("c", leaves),)))
        assert groups == [16]

    @pytest.mark.parametrize("decide", [embeds, naive_embeds])
    def test_too_many_distinct_trees_raise_instead_of_answering(self, decide):
        leaves = HState(tuple((f"a{i}", EMPTY) for i in range(17)))
        with pytest.raises(AnalysisError, match="enumeration guard"):
            decide(leaves, HState((("c", leaves),)))


class TestEmbedsProperties:
    @given(hstates())
    @settings(max_examples=60, deadline=None)
    def test_reflexive(self, state):
        assert embeds(state, state)

    @given(hstates())
    @settings(max_examples=60, deadline=None)
    def test_empty_is_minimum(self, state):
        assert embeds(EMPTY, state)

    @given(hstates(), hstates())
    @settings(max_examples=60, deadline=None)
    def test_addition_increases(self, a, b):
        assert embeds(a, a + b)

    @given(hstates(), hstates())
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry_on_size(self, a, b):
        # mutual embedding of equal-size states forces equality
        if embeds(a, b) and embeds(b, a):
            assert a.size == b.size
            assert a == b

    @given(hstates(max_leaves=4), hstates(max_leaves=4), hstates(max_leaves=4))
    @settings(max_examples=30, deadline=None)
    def test_transitive(self, a, b, c):
        if embeds(a, b) and embeds(b, c):
            assert embeds(a, c)

    @given(hstates(), hstates())
    @settings(max_examples=60, deadline=None)
    def test_size_monotone(self, a, b):
        if embeds(a, b):
            assert a.size <= b.size

    @given(hstates(), hstates())
    @settings(max_examples=60, deadline=None)
    def test_node_multiset_monotone(self, a, b):
        if embeds(a, b):
            counts_a, counts_b = a.node_multiset(), b.node_multiset()
            assert all(counts_b[n] >= c for n, c in counts_a.items())

    @given(hstates(), hstates())
    @settings(max_examples=60, deadline=None)
    def test_wrapping_target_preserves(self, a, b):
        if embeds(a, b):
            assert embeds(a, HState.tree("r", b))


class TestGapEmbedding:
    def test_unrestricted_coincides_with_plain(self):
        ge = GapEmbedding(None)
        assert ge.embeds(P("a,b"), P("c,{a,b}"))
        assert not ge.embeds(P("a,{b}"), P("b,{a}"))

    def test_gap_restriction_blocks_disallowed_deletion(self):
        small, big = P("a,{b}"), P("a,{x,{b}}")
        assert GapEmbedding(["x"]).embeds(small, big)
        assert not GapEmbedding(["y"]).embeds(small, big)

    def test_extra_sibling_tree_must_be_fully_deletable(self):
        small, big = P("a"), P("a,x,{y}")
        assert GapEmbedding(["x", "y"]).embeds(small, big)
        assert not GapEmbedding(["x"]).embeds(small, big)

    def test_exact_match_needs_no_gaps(self):
        assert GapEmbedding([]).embeds(P("a,{b}"), P("a,{b}"))
        assert not GapEmbedding([]).embeds(P("a"), P("a,b"))

    def test_gap_finer_than_plain(self):
        # every ⪯⋆ pair is a ⪯ pair
        ge = GapEmbedding(["x"])
        pairs = [
            (P("a"), P("a,x")),
            (P("a,{b}"), P("a,{x,{b}}")),
            (P("a"), P("x,{a}")),
        ]
        for small, big in pairs:
            assert ge.embeds(small, big)
            assert embeds(small, big)

    def test_group_descent_consumes_root_as_gap(self):
        # {a, b} into c,{a,b}: the root c is deleted, so c must be a gap node
        assert GapEmbedding(["c"]).embeds(P("a,b"), P("c,{a,b}"))
        assert not GapEmbedding(["d"]).embeds(P("a,b"), P("c,{a,b}"))

    def test_dominates(self):
        basis = [P("a"), P("b,{c}")]
        upward = EmbeddingBasis(basis, embedding=PLAIN_EMBEDDING, minimal=False)
        assert P("x,{a}") in upward
        assert P("c,{b}") not in upward
        # the scan decides the ⋆-embedding it is given: deleting y is no gap
        gapped = EmbeddingBasis(basis, embedding=GapEmbedding(["x"]), minimal=False)
        assert P("x,{a}") in gapped
        assert P("y,{a}") not in gapped

    @given(hstates(max_leaves=4), hstates(max_leaves=4))
    @settings(max_examples=40, deadline=None)
    def test_restricted_implies_plain(self, a, b):
        ge = GapEmbedding(["q0", "q1"])
        if ge.embeds(a, b):
            assert embeds(a, b)

    @given(hstates(max_leaves=4))
    @settings(max_examples=40, deadline=None)
    def test_gap_reflexive(self, a):
        assert GapEmbedding([]).embeds(a, a)
