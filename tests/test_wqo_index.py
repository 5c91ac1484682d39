"""Differential tests for the WQO embedding fast path.

The accelerated decision procedure (signature refutation + shared memo,
:class:`repro.core.embedding.Embedder` / :class:`EmbeddingIndex`) must
agree with the retained naive reference (:func:`repro.core.embedding.naive_embeds`)
on every query — plain and gap variants alike — and the support-screened
:class:`repro.wqo.EmbeddingBasis` must keep the bases, kept lists,
certificates and verdicts of its unscreened naive arm.  States come from
the seeded generator of :mod:`repro.core.generate` plus hypothesis-drawn
ones, so the space of shapes (shared labels, deep/wide mixes) is swept
reproducibly.
"""

import itertools
import os
import pickle
import sys
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.coverability import backward_coverability
from repro.analysis.inevitability import halting_via_inevitability, inevitability
from repro.analysis.session import AnalysisSession
from repro.analysis.sup_reachability import (
    DEFAULT_MAX_KEPT,
    reaches_downward_closed,
    sup_reachability,
)
from repro.core.embedding import (
    Embedder,
    EmbeddingIndex,
    GapEmbedding,
    embeds,
    is_minimal_among,
    naive_embeds,
    strictly_embeds,
)
from repro.core.generate import random_hstate, random_scheme
from repro.core.hstate import HState, Signature
from repro.errors import AnalysisBudgetExceeded
from repro.wqo import EmbeddingBasis, UpwardClosedSet, tree_embedding_order
from repro.zoo import ZOO_ALL, ZOO_WQO_BENCH, deep_pipeline, mixed_grove

from .test_hstate import hstates

P = HState.parse

GAP_SETS = [None, frozenset(), frozenset({"a"}), frozenset({"a", "b", "c"})]


def _pool(base_seed, count, max_size=7):
    return [random_hstate(base_seed + i, max_size=max_size) for i in range(count)]


# ----------------------------------------------------------------------
# Signatures
# ----------------------------------------------------------------------


class TestSignature:
    def test_interned(self):
        a = P("a,{b,c}")
        b = P("a,{c,b}")
        assert a.signature is b.signature

    def test_domination_is_necessary(self):
        for i, j in itertools.product(range(40), repeat=2):
            small, big = random_hstate(i), random_hstate(1000 + j)
            if naive_embeds(small, big):
                assert small.signature.dominated_by(big.signature)

    def test_domination_fields(self):
        sig = P("a,{b,b}").signature
        assert isinstance(sig, Signature)
        assert sig.size == 3 and sig.height == 2
        assert sig.counts == {"a": 1, "b": 2}

    @given(hstates(), hstates())
    @settings(max_examples=150, deadline=None)
    def test_domination_never_lies(self, small, big):
        if not small.signature.dominated_by(big.signature):
            assert not naive_embeds(small, big)

    @given(hstates())
    @settings(max_examples=150, deadline=None)
    def test_lazy_signature_matches_reference(self, state):
        expected = _reference_summary(state)
        # pickled before its signature was ever read, and after
        unread = pickle.loads(pickle.dumps(state))
        sig = state.signature
        assert (sig.size, sig.height, sig.width, sig.counts) == expected
        assert (state.size, state.height, state.width) == expected[:3]
        read = pickle.loads(pickle.dumps(state))
        assert unread.signature is sig
        assert read.signature is sig

    def test_pickle_round_trip_keeps_the_interned_instance(self):
        state = P("a,{b,c},d")
        assert pickle.loads(pickle.dumps(state)).signature is state.signature
        assert pickle.loads(pickle.dumps(state.signature)) is state.signature

    def test_interning_is_atomic_across_threads(self):
        # more threads than cores, switching as often as the interpreter
        # allows: each summary must still intern to exactly one instance
        threads = (os.cpu_count() or 1) + 4
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            deadline = time.monotonic() + 1.0
            trial = 0
            while time.monotonic() < deadline:
                trial += 1
                for found in _summarise_concurrently(f"stress{trial}", threads):
                    assert len(found) == threads
                    assert all(sig is found[0] for sig in found), f"trial {trial}"
        finally:
            sys.setswitchinterval(previous)


def _reference_summary(state):
    """``(size, height, width, counts)`` recomputed from the items alone."""
    size = height = 0
    counts = Counter()
    for node, child in state.items:
        child_size, child_height, _, child_counts = _reference_summary(child)
        size += 1 + child_size
        height = max(height, 1 + child_height)
        counts[node] += 1
        counts.update(child_counts)
    return size, height, len(state.items), dict(counts)


def _summarise_concurrently(node, threads):
    """Signatures read at once by *threads* threads, as two lists.

    Each thread reads the signature of a fresh leaf at *node* it builds
    itself, then that of one state all threads share.  The two summaries
    are new to the intern table and differ from each other.
    """
    shared = HState.tree(f"{node}_up", HState.leaf(f"{node}_down"))
    barrier = threading.Barrier(threads, timeout=10)
    own, common = [], []

    def read():
        barrier.wait()
        own.append(HState.leaf(node).signature)
        common.append(shared.signature)

    workers = [threading.Thread(target=read) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    return own, common


# ----------------------------------------------------------------------
# Accelerated vs naive decision procedure
# ----------------------------------------------------------------------


class TestDifferentialEmbeds:
    @pytest.mark.parametrize("gap", GAP_SETS, ids=["plain", "empty", "a", "abc"])
    def test_random_pairs_agree(self, gap):
        index = EmbeddingIndex()
        embedding = None if gap is None else GapEmbedding(gap)
        pool = _pool(0, 25)
        for small, big in itertools.product(pool, repeat=2):
            expected = naive_embeds(small, big, gap)
            assert index.embeds(small, big, embedding) == expected
            # ask again: the memoised answer must not drift
            assert index.embeds(small, big, embedding) == expected

    @given(hstates(), hstates())
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_pairs_agree(self, small, big):
        assert embeds(small, big) == naive_embeds(small, big)

    def test_shared_embedder_matches_throwaway(self):
        shared = Embedder()
        pool = _pool(50, 20)
        for small, big in itertools.product(pool, repeat=2):
            assert shared.forest_embeds(small, big) == embeds(small, big)

    def test_strictly_embeds_with_shared_embedder(self):
        shared = Embedder()
        pool = _pool(100, 15)
        for small, big in itertools.product(pool, repeat=2):
            assert strictly_embeds(small, big, embedder=shared) == (
                small != big and naive_embeds(small, big)
            )

    def test_is_minimal_among_with_shared_embedder(self):
        shared = Embedder()
        pool = _pool(150, 15)
        for state in pool:
            expected = not any(
                other != state and naive_embeds(other, state) for other in pool
            )
            assert is_minimal_among(state, pool, embedder=shared) == expected

    def test_counters_move(self):
        index = EmbeddingIndex()
        small, big = P("a,{b}"), P("c,{a,{b},d}")
        assert index.embeds(small, big)
        assert index.embeds(small, big)
        assert index.calls == 2
        assert index.memo_hits == 1
        assert not index.embeds(P("z"), big)
        assert index.signature_refutations >= 1

    def test_naive_mode_agrees_and_never_refutes(self):
        naive = EmbeddingIndex(accelerated=False)
        pool = _pool(200, 15)
        for small, big in itertools.product(pool, repeat=2):
            assert naive.embeds(small, big) == naive_embeds(small, big)
        assert naive.signature_refutations == 0


# ----------------------------------------------------------------------
# Support-screened bases
# ----------------------------------------------------------------------


ARMS = [EmbeddingIndex, lambda: EmbeddingIndex(accelerated=False)]


class TestIndexedBasis:
    """A minimal :class:`EmbeddingBasis`, screened or naive, is the
    unindexed :class:`UpwardClosedSet`'s basis, in the same order."""

    @pytest.mark.parametrize("seed", range(6))
    def test_upward_closed_basis_matches_unindexed(self, seed):
        states = _pool(seed * 100, 30, max_size=6)
        plain = UpwardClosedSet(tree_embedding_order(), states)
        for arm in ARMS:
            indexed = EmbeddingBasis(states, index=arm())
            assert indexed.basis == plain.basis
            for probe in _pool(seed * 100 + 50, 20, max_size=6):
                assert (probe in indexed) == (probe in plain)

    def test_add_reports_growth_identically(self):
        plain = UpwardClosedSet(tree_embedding_order())
        indexed = EmbeddingBasis()
        for state in _pool(900, 40, max_size=5):
            assert indexed.add(state) == plain.add(state)
        assert indexed.basis == plain.basis

    def test_non_minimal_basis_keeps_every_member(self):
        states = [P("a"), P("a,b"), P("c"), P("a")]
        for arm in ARMS:
            given = EmbeddingBasis(states, index=arm(), minimal=False)
            assert given.basis == tuple(states)
            assert not given.add(P("a,{c}"))
            assert given.add(P("b"))
            assert given.basis == tuple(states) + (P("b"),)


# ----------------------------------------------------------------------
# Support-screened kept-state search
# ----------------------------------------------------------------------


def _support(state):
    """The scheme nodes *state* holds."""
    return frozenset(state.signature.counts)


def _screen_schemes():
    """Every ``ZOO_ALL`` scheme, the WQO bench families but the large
    ``grove2x3``, and 100 random schemes."""
    named = [(name, factory()) for name, factory in ZOO_ALL]
    named += [(name, factory()) for name, factory in ZOO_WQO_BENCH if name != "grove2x3"]
    named += [
        (f"random{seed}", random_scheme(seed, max_nodes=8, procedures=3))
        for seed in range(100)
    ]
    return named


def _arms(scheme):
    """Fresh sessions on *scheme*: the indexed engine and the naive arm."""
    return (
        AnalysisSession(scheme),
        AnalysisSession(scheme, embedding_index=EmbeddingIndex(accelerated=False)),
    )


def _outcome(query):
    """A verdict's comparable fields, or the budget overrun it raised."""
    try:
        verdict = query()
    except AnalysisBudgetExceeded as error:
        return ("budget", str(error))
    return (verdict.holds, verdict.method, verdict.exact, verdict.certificate)


def _coverability_and_inevitability(scheme, session):
    """``{question: outcome}`` of backward coverability of every node's
    leaf, halting via inevitability and inevitability of the initial
    state's basis, all on *session*."""
    outcomes = {
        f"covers {node}": _outcome(
            lambda node=node: backward_coverability(
                scheme, [HState.leaf(node)], session=session
            )
        )
        for node in scheme.node_ids
    }
    outcomes["halting"] = _outcome(
        lambda: halting_via_inevitability(scheme, session=session, max_states=2_000)
    )
    outcomes["inevitability"] = _outcome(
        lambda: inevitability(
            scheme, [scheme.initial_state()], session=session, max_states=2_000
        )
    )
    return outcomes


def _scan_calls(monkeypatch):
    """The ``(small, big)`` pairs of every embedding call made from now
    on, except those of ``strictly_embeds`` (pump search and checks)."""
    asked, strict = [], []
    unspied_embeds = EmbeddingIndex.embeds
    unspied_strictly = EmbeddingIndex.strictly_embeds

    def spy(index, small, big, embedding=None):
        if not strict:
            asked.append((small, big))
        return unspied_embeds(index, small, big, embedding)

    def spy_strictly(index, small, big, embedding=None):
        strict.append(True)
        try:
            return unspied_strictly(index, small, big, embedding)
        finally:
            strict.pop()

    monkeypatch.setattr(EmbeddingIndex, "embeds", spy)
    monkeypatch.setattr(EmbeddingIndex, "strictly_embeds", spy_strictly)
    return asked


class TestSupportScreen:
    """Every scan of :class:`EmbeddingBasis` asks the embedder only about
    members whose node support and size fit the state it tests; it must
    keep, answer and certify exactly what the naive arm's unscreened scan
    does, in order."""

    def test_kept_states_and_bases_match_the_naive_arm(self):
        for name, scheme in _screen_schemes():
            indexed, naive = _arms(scheme)
            kept = indexed.kept_states(DEFAULT_MAX_KEPT)
            assert kept == naive.kept_states(DEFAULT_MAX_KEPT), name
            bases = [
                sup_reachability(scheme, session=session).certificate.basis
                for session in (indexed, naive)
            ]
            assert bases[0] == bases[1], name

    def test_downward_closed_witnesses_match_the_naive_arm(self):
        for name, scheme in _screen_schemes():
            predicates = {"size <= 2": lambda state: state.size <= 2}
            for node in scheme.node_ids:
                predicates[f"no {node}"] = (
                    lambda state, node=node: node not in state.signature.counts
                )
            for label, predicate in predicates.items():
                witnesses = [
                    reaches_downward_closed(scheme, predicate, session=session)
                    for session in _arms(scheme)
                ]
                assert witnesses[0] == witnesses[1], (name, label)

    @given(
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from(GAP_SETS),
    )
    @settings(max_examples=300, deadline=None)
    def test_embedding_implies_support_inclusion(self, small_seed, big_seed, gap):
        small = random_hstate(small_seed, max_size=4)
        big = random_hstate(big_seed)
        if naive_embeds(small, big, gap):
            assert _support(small) <= _support(big)

    def test_coverability_and_inevitability_match_the_naive_arm(self):
        for name, scheme in _screen_schemes():
            indexed, naive = (
                _coverability_and_inevitability(scheme, session)
                for session in _arms(scheme)
            )
            assert indexed == naive, name

    @pytest.mark.parametrize(
        "factory",
        [lambda: mixed_grove(2, 2), lambda: deep_pipeline(5)],
        ids=["grove2x2", "pipeline5"],
    )
    def test_no_embedding_call_pairs_incompatible_states(self, factory, monkeypatch):
        asked = _scan_calls(monkeypatch)
        scheme = factory()
        for query in (
            lambda session: sup_reachability(scheme, session=session),
            lambda session: _coverability_and_inevitability(scheme, session),
        ):
            asked.clear()
            query(AnalysisSession(scheme))
            assert asked
            for small, big in asked:
                assert _support(small) <= _support(big), (small, big)
                assert small.size <= big.size, (small, big)
