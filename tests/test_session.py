"""Tests for the shared AnalysisSession engine.

The session contract: every procedure run on a shared session returns
the *same verdict* a fresh per-call exploration would, while exploring
``M_G`` once; pausing at budget ``N`` and resuming to ``2N`` yields
state-for-state the graph a fresh ``2N`` run builds; the stats counters
obey their documented invariants; and positional calls against the
keyword-only signatures raise ``TypeError``.
"""

import warnings

import pytest

from repro.analysis import (
    AnalysisSession,
    AnalysisStats,
    analyze,
    boundedness,
    check_ctl,
    halts,
    mutually_exclusive,
    node_reachable,
    normed,
    persistent,
    state_reachable,
    sup_reachability,
)
from repro.analysis.ctl import AF, terminated
from repro.api import AnalysisRequest, execute
from repro.core.hstate import EMPTY, HState
from repro.core.semantics import AbstractSemantics, MemoizingSemantics
from repro.errors import AnalysisBudgetExceeded, AnalysisError
from repro.obs import scheme_fingerprint
from repro.zoo import (
    ZOO_ALL,
    ZOO_BOUNDED,
    deep_pipeline,
    fig2_scheme,
    mixed_grove,
    spawner_loop,
    terminating_chain,
    wide_mix,
)

#: Budget cap so unbounded zoo schemes stay cheap in the differential runs.
BUDGET = 2_000


def _verdict_key(verdict):
    """The comparable core of a verdict (certificates may differ in type)."""
    return (verdict.holds, verdict.method, verdict.exact)


class TestDifferentialSessionReuse:
    """One shared session must answer exactly like fresh explorations."""

    @pytest.mark.parametrize("name,factory", ZOO_ALL)
    def test_battery_matches_fresh(self, name, factory):
        scheme = factory()
        session = AnalysisSession(scheme)

        def both(procedure, **kwargs):
            try:
                fresh = procedure(scheme, max_states=BUDGET, **kwargs)
            except AnalysisBudgetExceeded:
                fresh = None
            try:
                shared = procedure(scheme, max_states=BUDGET, session=session, **kwargs)
            except AnalysisBudgetExceeded:
                shared = None
            return fresh, shared

        for procedure in (boundedness, halts):
            fresh, shared = both(procedure)
            if fresh is None:
                assert shared is None
            else:
                assert _verdict_key(fresh) == _verdict_key(shared)
        for node in scheme.node_ids:
            fresh, shared = both(node_reachable, node=node)
            if fresh is not None and shared is not None:
                assert fresh.holds == shared.holds

    @pytest.mark.parametrize("name,factory", ZOO_ALL)
    def test_query_order_does_not_change_verdicts(self, name, factory):
        scheme = factory()
        first_node = next(iter(scheme.node_ids))
        forward = AnalysisSession(scheme)
        backward = AnalysisSession(scheme)

        def run(sess, procedures):
            out = []
            for procedure in procedures:
                try:
                    out.append(_verdict_key(procedure(sess)))
                except AnalysisBudgetExceeded:
                    out.append(None)
            return out

        queries = [
            lambda s: boundedness(scheme, max_states=BUDGET, session=s),
            lambda s: node_reachable(
                scheme, first_node, max_states=BUDGET, session=s
            ),
            lambda s: halts(scheme, max_states=BUDGET, session=s),
        ]
        assert sorted(
            run(forward, queries), key=repr
        ) == sorted(run(backward, list(reversed(queries))), key=repr)


class TestIncrementalExploration:
    def test_pause_resume_matches_fresh(self):
        scheme = spawner_loop()
        small, large = 50, 150
        resumed = AnalysisSession(scheme)
        resumed.explore(small)
        assert len(resumed.graph) >= small
        resumed.explore(large)
        fresh = AnalysisSession(scheme)
        fresh.explore(large)
        assert resumed.graph.states == fresh.graph.states
        assert [len(out) for out in resumed.graph.edges] == [
            len(out) for out in fresh.graph.edges
        ]
        assert resumed.graph.complete == fresh.graph.complete

    def test_resume_never_restarts(self):
        scheme = spawner_loop()
        session = AnalysisSession(scheme)
        session.explore(80)
        expanded_before = session.stats.states_expanded
        session.explore(80)  # no growth: budget already reached
        assert session.stats.states_expanded == expanded_before
        session.explore(160)
        assert session.stats.states_expanded > expanded_before
        assert session.stats.explorations == 1

    def test_saturation_is_stable(self):
        scheme = terminating_chain(4)
        session = AnalysisSession(scheme)
        graph = session.explore()
        assert graph.complete
        states = list(graph.states)
        assert session.explore(10 * len(states)).states == states


class TestAnalysisStats:
    def test_counter_invariants(self):
        scheme = fig2_scheme()
        session = AnalysisSession(scheme)
        node_reachable(scheme, "q5", max_states=BUDGET, session=session)
        impossible = HState((("q0", HState.leaf("q0")),))  # main inside main
        with pytest.raises(AnalysisBudgetExceeded):
            state_reachable(scheme, impossible, max_states=BUDGET, session=session)
        stats = session.stats
        assert stats.states_expanded <= stats.states_discovered
        assert stats.states_discovered == len(session.graph)
        assert stats.successor_cache_hits >= 0
        assert stats.successor_cache_misses >= stats.states_expanded
        assert stats.peak_frontier >= 1
        assert stats.transitions_fired == session.graph.num_transitions
        assert sum(stats.queries.values()) >= 2
        snapshot = stats.as_dict()
        assert snapshot["states_discovered"] == stats.states_discovered
        assert "states expanded" in stats.render()

    def test_single_exploration_across_many_queries(self):
        scheme = terminating_chain(5)
        session = AnalysisSession(scheme)
        boundedness(scheme, session=session)
        halts(scheme, session=session)
        normed(scheme, session=session)
        check_ctl(scheme, AF(terminated()), session=session)
        for node in scheme.node_ids:
            node_reachable(scheme, node, session=session)
        assert session.stats.explorations == 1

    def test_analyze_explores_once(self):
        for name, factory in ZOO_BOUNDED[:4]:
            report = analyze(factory(), max_states=BUDGET)
            assert report.stats is not None
            assert report.stats.explorations == 1

    @pytest.mark.parametrize(
        "factory,procedure,params",
        [
            (lambda: wide_mix(4), "normed", {"max_states": 90}),
            (lambda: deep_pipeline(3), "normed", {"max_states": 90}),
            (lambda: mixed_grove(2, 2), "sup_reachability", {}),
        ],
        ids=["widemix4-normed", "pipeline3-normed", "grove2x2-sup"],
    )
    def test_response_stats_include_work_after_exploring(
        self, factory, procedure, params
    ):
        # regression: the counters used to be copied only at the end of
        # AnalysisSession.explore, so successor computations, interning
        # and embedding checks a procedure made afterwards went missing
        scheme = factory()
        session = AnalysisSession(scheme)
        response = execute(
            AnalysisRequest(
                procedure=procedure,
                params=params,
                fingerprint=scheme_fingerprint(scheme),
            ),
            scheme=scheme,
            session=session,
        )
        assert response.ok
        semantics, index = session.semantics, session.embedding_index
        stores = {
            "successor_cache_hits": semantics.cache_hits,
            "successor_cache_misses": semantics.cache_misses,
            "interned_states": semantics.interned_states,
            "embedding_calls": index.calls,
            "embedding_signature_refutations": index.signature_refutations,
            "embedding_memo_hits": index.memo_hits,
        }
        assert {key: response.stats[key] for key in stores} == stores
        # the procedure did real work after (or instead of) exploring
        assert semantics.cache_misses > session.stats.states_expanded

    def test_view_registry_and_stores_agree(self):
        scheme = fig2_scheme()
        resumed = AnalysisSession(scheme)
        resumed.explore(60)
        resumed.explore(200)  # resumes from the saved frontier
        boundedness(scheme, max_states=BUDGET, session=resumed)
        sup_reachability(scheme, session=resumed)
        restored = AnalysisSession.restore(resumed.checkpoint(), scheme=scheme)
        restored.explore(400)
        halts(scheme, max_states=BUDGET, session=restored)
        persistent(scheme, ["q0"], session=restored)
        sharded = AnalysisSession(scheme, workers=2)
        try:
            boundedness(scheme, max_states=BUDGET, session=sharded)
            node_reachable(scheme, "q5", max_states=BUDGET, session=sharded)
            for session in (resumed, restored, sharded):
                _assert_view_registry_and_stores_agree(session)
        finally:
            sharded.close()
        assert restored.stats.explorations == resumed.stats.explorations == 1
        assert restored.stats.states_expanded > resumed.stats.states_expanded


#: ``AnalysisStats.as_dict()`` keys, in their documented order.
STATS_KEYS = [
    "states_discovered",
    "states_expanded",
    "transitions_fired",
    "explorations",
    "peak_frontier",
    "explore_seconds",
    "queries",
    "query_seconds",
    "successor_cache_hits",
    "successor_cache_misses",
    "interned_states",
    "embedding_calls",
    "embedding_signature_refutations",
    "embedding_memo_hits",
]


def _assert_view_registry_and_stores_agree(session):
    """The stats view, the exported registry and the stores show one set
    of numbers."""
    graph, semantics, index = session.graph, session.semantics, session.embedding_index
    stats = session.stats.as_dict()
    assert list(stats) == STATS_KEYS
    stores = {
        "states_discovered": len(graph.states),
        "states_expanded": session.expanded_count,
        "transitions_fired": sum(len(out) for out in graph.edges),
        "peak_frontier": int(session.metrics.gauge("explore.frontier").max),
        "successor_cache_hits": semantics.cache_hits,
        "successor_cache_misses": semantics.cache_misses,
        "interned_states": semantics.interned_states,
        "embedding_calls": index.calls,
        "embedding_signature_refutations": index.signature_refutations,
        "embedding_memo_hits": index.memo_hits,
    }
    assert {key: stats[key] for key in stores} == stores
    registry = session.sync_metrics()
    exported = {
        "states_discovered": "explore.states_discovered",
        "states_expanded": "explore.states_expanded",
        "transitions_fired": "explore.transitions_fired",
        "explorations": "explore.explorations",
        "successor_cache_hits": "semantics.cache_hits",
        "successor_cache_misses": "semantics.cache_misses",
        "interned_states": "semantics.interned_states",
        "embedding_calls": "embedding.calls",
        "embedding_signature_refutations": "embedding.signature_refutations",
        "embedding_memo_hits": "embedding.memo_hits",
    }
    for key, name in exported.items():
        assert registry.counter(name).value == stats[key], name
    timings = list(registry.histogram("session.query_seconds").children())
    counts = registry.counter("session.queries").children()
    assert {dict(k)["procedure"]: h.count for k, h in timings} == stats["queries"]
    assert {dict(k)["procedure"]: h.sum for k, h in timings} == stats["query_seconds"]
    assert {dict(k)["procedure"]: c.value for k, c in counts} == stats["queries"]


class TestMemoization:
    def test_successor_cache_hits_on_requery(self):
        scheme = terminating_chain(4)
        session = AnalysisSession(scheme)
        boundedness(scheme, session=session)
        hits_before = session.stats.successor_cache_hits
        verdict = boundedness(scheme, session=session)
        assert verdict.holds
        # the conclusive verdict is memoized: no new successor computation
        assert session.stats.successor_cache_misses == len(session.graph)
        assert session.stats.successor_cache_hits >= hits_before

    def test_interning_collapses_equal_states(self):
        scheme = fig2_scheme()
        semantics = MemoizingSemantics(scheme)
        first = semantics.successors(semantics.initial_state)
        second = semantics.successors(semantics.initial_state)
        assert first is second  # cached list
        duplicate = HState.leaf("q0")
        assert semantics.intern(duplicate) is semantics.intern(HState.leaf("q0"))
        assert semantics.interned_states >= 1
        # the cached lists are the plain relation, built with interned targets
        for zoo_scheme in (fig2_scheme(), wide_mix(3), mixed_grove(2, 2)):
            memoizing = MemoizingSemantics(zoo_scheme)
            plain = AbstractSemantics(zoo_scheme)
            for state in AnalysisSession(zoo_scheme).explore(30).states:
                transitions = memoizing.successors(state)
                assert transitions == plain.successors(state)
                for transition in transitions:
                    assert transition.target is memoizing.intern(transition.target)

    def test_ctl_checker_shared(self):
        scheme = terminating_chain(3)
        session = AnalysisSession(scheme)
        check_ctl(scheme, AF(terminated()), session=session)
        checker = session.memo["ctl-checker"]
        check_ctl(scheme, AF(terminated()), session=session)
        assert session.memo["ctl-checker"] is checker

    def test_kept_states_cached_across_procedures(self):
        scheme = fig2_scheme()
        session = AnalysisSession(scheme)
        sup_reachability(scheme, session=session)
        kept = session.memo["kept-states"]
        persistent(scheme, ["q0"], session=session)
        assert session.memo["kept-states"] is kept


class TestResolveSession:
    def test_wrong_scheme_rejected(self):
        session = AnalysisSession(terminating_chain(3))
        with pytest.raises(AnalysisError):
            boundedness(fig2_scheme(), session=session)

    def test_other_initial_uses_throwaway(self):
        scheme = fig2_scheme()
        session = AnalysisSession(scheme)
        verdict = boundedness(
            scheme, initial=HState.leaf("q5"), max_states=BUDGET, session=session
        )
        assert verdict.holds
        assert verdict.certificate.states == 3
        # the shared session's graph must be untouched by the foreign query
        assert len(session.graph) == 1

    def test_matching_initial_reuses_session(self):
        scheme = terminating_chain(3)
        session = AnalysisSession(scheme)
        boundedness(scheme, initial=session.initial, session=session)
        assert session.stats.explorations == 1


class TestKeywordOnlySignatures:
    """The PR-1 positional-argument grace period is over: keyword-only
    signatures are the documented contract, and positional calls raise
    ``TypeError`` like any other Python keyword-only violation."""

    def test_positional_calls_raise_type_error(self):
        scheme = terminating_chain(4)
        node = next(iter(scheme.node_ids))
        with pytest.raises(TypeError):
            boundedness(scheme, None, 1_000)
        with pytest.raises(TypeError):
            node_reachable(scheme, node, None, 1_000)
        with pytest.raises(TypeError):
            halts(scheme, None, 1_000)
        with pytest.raises(TypeError):
            state_reachable(scheme, EMPTY, None, 1_000)
        with pytest.raises(TypeError):
            sup_reachability(scheme, None, 1_000)
        with pytest.raises(TypeError):
            normed(scheme, 1_000)
        with pytest.raises(TypeError):
            persistent(scheme, [node], None, 1_000)
        with pytest.raises(TypeError):
            mutually_exclusive(scheme, node, node, None, 1_000)
        with pytest.raises(TypeError):
            analyze(scheme, 1_000)

    def test_keyword_calls_do_not_warn(self):
        scheme = terminating_chain(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            boundedness(scheme, max_states=1_000)
            mutually_exclusive(
                scheme,
                next(iter(scheme.node_ids)),
                next(iter(scheme.node_ids)),
                max_states=1_000,
            )
            analyze(scheme, max_states=1_000)


class TestVerdictShape:
    def test_ctl_result_is_analysis_verdict(self):
        from repro.analysis import AnalysisVerdict, CTLResult

        scheme = terminating_chain(3)
        result = check_ctl(scheme, AF(terminated()))
        assert isinstance(result, CTLResult)
        assert isinstance(result, AnalysisVerdict)
        assert result.method == "ctl-labelling"
        assert result.states == len(result.satisfying) or result.states >= 1
        assert bool(result) == result.holds
