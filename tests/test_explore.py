"""Tests for the exploration engine and state graphs."""

import pytest

from repro.analysis.explore import Explorer, StateGraph
from repro.core.hstate import EMPTY, HState
from repro.errors import AnalysisBudgetExceeded
from repro.zoo import (
    bounded_spawner,
    diverging_loop,
    fig2_scheme,
    nonterminating_choice,
    spawner_loop,
    terminating_chain,
)

P = HState.parse


class TestExplorer:
    def test_chain_exact_state_count(self):
        # q0..qn plus ∅
        graph = Explorer(terminating_chain(5)).explore()
        assert graph.complete
        assert len(graph) == 7
        assert graph.terminal_states() == [EMPTY]

    def test_bounded_spawner_saturates(self):
        graph = Explorer(bounded_spawner(2)).explore()
        assert graph.complete
        assert EMPTY in graph

    def test_budget_exhaustion_marks_incomplete(self):
        graph = Explorer(spawner_loop(), max_states=50).explore()
        assert not graph.complete
        assert len(graph) == 50
        assert graph.unexpanded

    def test_explore_or_raise(self):
        with pytest.raises(AnalysisBudgetExceeded):
            Explorer(spawner_loop(), max_states=50).explore_or_raise()

    def test_stop_when_records_witness(self):
        graph = Explorer(terminating_chain(5)).explore(
            stop_when=lambda s: s.contains_node("q3")
        )
        target = graph.find(lambda s: s.contains_node("q3"))
        assert target is not None
        path = graph.path_to(target)
        assert [t.label for t in path] == ["a0", "a1", "a2"]

    def test_stop_when_on_initial(self):
        scheme = terminating_chain(3)
        graph = Explorer(scheme).explore(stop_when=lambda s: True)
        assert len(graph) == 1
        assert not graph.complete

    def test_path_to_initial_is_empty(self):
        graph = Explorer(terminating_chain(2)).explore()
        assert graph.path_to(graph.initial) == []

    def test_custom_initial_state(self):
        scheme = fig2_scheme()
        graph = Explorer(scheme, max_states=500).explore(initial=P("q5"))
        assert graph.complete
        assert set(graph.states) == {P("q5"), P("q6"), EMPTY}


class TestStateGraph:
    def test_num_transitions(self):
        graph = Explorer(terminating_chain(3)).explore()
        assert graph.num_transitions == 4  # three actions + one end

    def test_successors_recorded(self):
        graph = Explorer(nonterminating_choice()).explore()
        initial_out = graph.successors(graph.initial)
        assert len(initial_out) == 2

    def test_cycle_detection_positive(self):
        graph = Explorer(diverging_loop()).explore()
        assert graph.complete
        assert graph.has_cycle()

    def test_cycle_detection_negative(self):
        graph = Explorer(terminating_chain(4)).explore()
        assert not graph.has_cycle()

    def test_find_lasso_positive(self):
        graph = Explorer(nonterminating_choice()).explore()
        lasso = graph.find_lasso()
        assert lasso is not None
        stem, loop = lasso
        assert loop
        # the loop really cycles
        assert loop[0].source == loop[-1].target
        # the stem really connects the initial state to the loop
        if stem:
            assert stem[0].source == graph.initial
            assert stem[-1].target == loop[0].source
        else:
            assert loop[0].source == graph.initial

    def test_find_lasso_negative(self):
        graph = Explorer(terminating_chain(4)).explore()
        assert graph.find_lasso() is None

    def test_find_all(self):
        graph = Explorer(bounded_spawner(2)).explore()
        with_worker = graph.find_all(lambda s: s.contains_node("c0"))
        assert with_worker
        assert all(s.contains_node("c0") for s in with_worker)

    def test_to_lts(self):
        graph = Explorer(terminating_chain(2)).explore()
        lts = graph.to_lts()
        assert lts.initial == graph.initial
        assert len(lts.states) == len(graph)


class TestDeepGraphs:
    """Regression: traversals must not depend on the recursion limit.

    ``find_lasso`` used to recurse per graph edge and grow
    ``sys.setrecursionlimit`` without bound; these tests pin the
    iterative behaviour on graphs deeper than the interpreter limit.
    """

    def test_find_lasso_on_deep_chain_without_recursion_limit(self, monkeypatch):
        import sys

        depth = sys.getrecursionlimit() * 3
        graph = Explorer(terminating_chain(depth), max_states=depth + 10).explore()
        assert graph.complete and len(graph) == depth + 2

        def forbidden(_limit):
            raise AssertionError("find_lasso must not touch the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
        assert graph.find_lasso() is None

    def test_find_lasso_on_deep_pipeline_prefix(self, monkeypatch):
        import sys

        from repro.analysis.session import AnalysisSession
        from repro.zoo import deep_pipeline

        sess = AnalysisSession(deep_pipeline(4))
        graph = sess.explore(3_000)
        assert not graph.complete  # unbounded family, truncated prefix

        def forbidden(_limit):
            raise AssertionError("find_lasso must not touch the recursion limit")

        monkeypatch.setattr(sys, "setrecursionlimit", forbidden)
        assert graph.find_lasso() is None  # tall acyclic prefix

    def test_find_lasso_split_still_correct_after_rewrite(self):
        graph = Explorer(spawner_loop(), max_states=200).explore()
        lasso = graph.find_lasso()
        assert lasso is not None
        stem, loop = lasso
        assert loop and loop[-1].target == loop[0].source
        for earlier, later in zip(loop, loop[1:]):
            assert earlier.target == later.source
        current = graph.initial
        for step in stem:
            assert step.source == current
            current = step.target
        assert current == loop[0].source


class TestOvershootContract:
    """``AnalysisSession.explore`` may overshoot ``max_states`` by at most
    one expansion batch (the out-degree of the last expanded state)."""

    def test_overshoot_bounded_by_one_batch(self):
        from repro.analysis.session import AnalysisSession

        for cap in (1, 2, 3, 5, 8, 13):
            sess = AnalysisSession(spawner_loop())
            graph = sess.explore(cap)
            max_out_degree = max(
                (len(edges) for edges in graph.edges if edges), default=0
            )
            assert len(graph) >= min(cap, 1)
            assert len(graph) <= cap + max_out_degree

    def test_explore_or_raise_reports_exact_exhaustion_point(self):
        from repro.analysis.session import AnalysisSession

        sess = AnalysisSession(spawner_loop())
        with pytest.raises(AnalysisBudgetExceeded) as info:
            sess.explore_or_raise(10, what="overshoot probe")
        assert f"exactly {len(sess.graph)} discovered states" in str(info.value)
        assert info.value.explored == len(sess.graph)
