"""Resource governance and fault tolerance (`repro.robust`).

The robustness contract under test:

* every decision procedure accepts a ``budget=`` and, when it runs out,
  either raises a structured :class:`BudgetExhausted` (``on_exhaust=
  "raise"``) or returns a :class:`PartialVerdict` with a progress
  certificate and resumable checkpoint (``on_exhaust="partial"``) —
  never a hang, never a silent wrong verdict;
* an interrupted run's checkpoint, resumed, reaches the same final
  verdict as an uninterrupted run (differential, several families ×
  several procedures);
* under seeded fault injection (raises, delays, corrupted successor
  computations) every procedure either delivers the clean verdict or a
  clean :class:`RPError` — corrupted data is detected, transient faults
  are recoverable;
* budget consumption is exported through the ``repro.obs`` metrics.

Budgets are driven deterministically through their injectable ``clock``
and ``memory_sampler`` hooks; chaos runs are seeded (override the seeds
with the ``RP_CHAOS_SEEDS`` environment variable, e.g. ``1,2,3``).
"""

import itertools
import json
import os

import pytest

from repro.analysis import (
    AnalysisSession,
    analyze,
    backward_coverability,
    boundedness,
    check_ctl,
    halts,
    inevitability,
    may_terminate,
    mutually_exclusive,
    normed,
    persistent,
    sup_reachability,
)
from repro.analysis.ctl import AG, node
from repro.core.hstate import HState
from repro.errors import (
    AnalysisBudgetExceeded,
    BudgetExhausted,
    CheckpointError,
    CorruptionDetected,
    FaultInjected,
    RPError,
)
from repro.robust import (
    Budget,
    CancelToken,
    ChaosSemantics,
    FaultPlan,
    PartialVerdict,
    load_checkpoint,
    restore_session,
    save_checkpoint,
)
from repro.zoo import (
    ZOO_ALL,
    fig2_scheme,
    mixed_grove,
    mutex_pair,
    spawner_loop,
    terminating_chain,
    wait_blocked,
)

CHAOS_SEEDS = [int(s) for s in os.environ.get("RP_CHAOS_SEEDS", "1").split(",")]


def ticking_clock(step=1.0):
    """A deterministic clock advancing *step* per call."""
    counter = itertools.count(0.0, step)
    return lambda: next(counter)


def expired_budget(**kwargs):
    """A budget whose deadline is blown at the very first check."""
    kwargs.setdefault("deadline", 0.5)
    kwargs.setdefault("clock", ticking_clock(10.0))
    return Budget(**kwargs)


# ----------------------------------------------------------------------
# The ten governed procedures, uniformly invokable
# ----------------------------------------------------------------------


def _first_nodes(scheme, count):
    return list(scheme.node_ids)[:count]


#: Modest state cap so fault-free baselines stay fast even on the
#: unbounded families (the budgets under test are wall-clock/memory
#: envelopes layered *on top* of this).
CAP = 400

PROCEDURES = {
    "boundedness": lambda s, sess, b: boundedness(
        s, max_states=CAP, session=sess, budget=b
    ),
    "halts": lambda s, sess, b: halts(s, max_states=CAP, session=sess, budget=b),
    "may_terminate": lambda s, sess, b: may_terminate(
        s, max_states=CAP, session=sess, budget=b
    ),
    "normed": lambda s, sess, b: normed(
        s, max_states=CAP, session=sess, budget=b
    ),
    "inevitability": lambda s, sess, b: inevitability(
        s,
        [HState.leaf(n) for n in s.node_ids],
        max_states=CAP,
        session=sess,
        budget=b,
    ),
    "sup_reachability": lambda s, sess, b: sup_reachability(
        s, session=sess, budget=b
    ),
    "persistent": lambda s, sess, b: persistent(
        s, _first_nodes(s, 1), session=sess, budget=b
    ),
    "mutually_exclusive": lambda s, sess, b: mutually_exclusive(
        s, *_first_nodes(s, 2), max_states=CAP, session=sess, budget=b
    ),
    "check_ctl": lambda s, sess, b: check_ctl(
        s, AG(node(_first_nodes(s, 1)[0])), max_states=CAP, session=sess, budget=b
    ),
    "backward_coverability": lambda s, sess, b: backward_coverability(
        s, [HState.leaf(_first_nodes(s, 1)[0])], session=sess, budget=b
    ),
}

FAMILIES = {
    "spawner": spawner_loop,
    "fig2": fig2_scheme,
    "grove": lambda: mixed_grove(2, 2),
}


# ----------------------------------------------------------------------
# Budget unit behaviour (deterministic clock / sampler)
# ----------------------------------------------------------------------


class TestBudget:
    def test_deadline_exhaustion_carries_progress(self):
        budget = Budget(deadline=1.5, clock=ticking_clock(1.0))
        budget.start()
        budget.check(states=7)
        with pytest.raises(BudgetExhausted) as info:
            budget.check(states=9, frontier=3)
        error = info.value
        assert error.resource == "deadline"
        assert error.progress["states"] == 9
        assert error.progress["frontier"] == 3
        assert "checks" in error.progress and "elapsed_seconds" in error.progress
        assert budget.exhausted == "deadline"

    def test_memory_ceiling_sampled_on_interval(self):
        samples = iter([10, 999])
        budget = Budget(
            max_memory_bytes=100,
            check_interval=2,
            memory_sampler=lambda: next(samples),
        )
        budget.check()  # no sample (check 1)
        budget.check()  # sample: 10, under ceiling
        budget.check()  # no sample
        with pytest.raises(BudgetExhausted) as info:
            budget.check()  # sample: 999
        assert info.value.resource == "memory"
        assert budget.last_memory_bytes == 999
        assert budget.memory_samples == 2

    def test_cancellation_with_reason(self):
        token = CancelToken()
        budget = Budget(cancel=token)
        budget.check()
        token.cancel("operator pressed stop")
        with pytest.raises(BudgetExhausted) as info:
            budget.check()
        assert info.value.resource == "cancelled"
        assert "operator pressed stop" in str(info.value)
        token.reset()
        assert not token.cancelled and token.reason is None

    def test_state_cap_folds_into_exploration(self):
        sess = AnalysisSession(spawner_loop(), budget=Budget(max_states=7))
        graph = sess.explore(10_000)
        assert not graph.complete
        # the ambient cap, not the caller's 10k, bounded the exploration
        # (the overshoot contract allows one expansion batch past the cap)
        assert 7 <= len(graph) <= 7 + max(len(e) for e in graph.edges)

    @pytest.mark.parametrize(
        "case",
        [
            "execute-halts",
            "explore-or-raise",
            "boundedness",
            "state-reachable",
            "node-reachable",
            "normed",
        ],
    )
    def test_exhaustion_message_names_the_binding_cap(self, case):
        from repro.analysis import node_reachable, state_reachable
        from repro.api import AnalysisRequest, BudgetSpec, execute
        from repro.obs import scheme_fingerprint
        from repro.zoo import call_ladder

        cap = 20
        if case == "execute-halts":
            scheme = mixed_grove(2, 2)
            response = execute(
                AnalysisRequest(
                    procedure="halts",
                    fingerprint=scheme_fingerprint(scheme),
                    budget=BudgetSpec(max_states=cap, on_exhaust="raise"),
                ),
                scheme=scheme,
            )
            assert response.verdict == "inconclusive"
            message = response.details["message"]
        else:
            budget = Budget(max_states=cap)
            calls = {
                "explore-or-raise": lambda: AnalysisSession(
                    spawner_loop(), budget=budget
                ).explore_or_raise(),
                "boundedness": lambda: boundedness(mixed_grove(2, 2), budget=budget),
                "state-reachable": lambda: state_reachable(
                    mixed_grove(2, 2), HState.leaf("unreached"), budget=budget
                ),
                "node-reachable": lambda: node_reachable(
                    call_ladder(2), "p0_3", budget=budget
                ),
                "normed": lambda: normed(spawner_loop(), budget=budget),
            }
            with pytest.raises(AnalysisBudgetExceeded) as info:
                calls[case]()
            message = str(info.value)
        # the ambient cap bound, not the default request of 50000 states
        assert f" {cap} " in message and "50000" not in message, message

    def test_on_exhaust_validated(self):
        with pytest.raises(ValueError):
            Budget(on_exhaust="explode")

    def test_export_is_monotonic_across_budgets(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        first = expired_budget()
        first.start()
        with pytest.raises(BudgetExhausted):
            first.check()
        first.export(registry)
        first.export(registry)  # re-export must not double-count
        second = Budget(deadline=99.0, clock=ticking_clock(0.0))
        second.start()
        second.check()
        second.export(registry)  # a fresher budget must not go backwards
        data = registry.as_dict()
        assert data["budget.checks"]["value"] == 2
        exhausted = data["budget.exhausted"]["labels"]
        assert exhausted["{resource=deadline}"]["value"] == 1


# ----------------------------------------------------------------------
# Exhaustion across all ten procedures × zoo families (satellite 3)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("procedure", sorted(PROCEDURES))
def test_partial_verdict_everywhere(procedure, family):
    scheme = FAMILIES[family]()
    sess = AnalysisSession(scheme)
    verdict = PROCEDURES[procedure](
        scheme, sess, expired_budget(on_exhaust="partial")
    )
    assert isinstance(verdict, PartialVerdict)
    assert verdict.verdict == "UNKNOWN" and not verdict  # falsy: not a proof
    assert verdict.resource == "deadline"
    assert verdict.progress.states_explored >= 1
    assert verdict.resumable
    # budget consumption reached the session metrics
    data = sess.metrics.as_dict()
    assert data["budget.checks"]["value"] >= 1
    partials = data["analysis.partial_verdicts"]["labels"]
    assert partials["{resource=deadline}"]["value"] == 1


@pytest.mark.parametrize("procedure", sorted(PROCEDURES))
def test_raise_mode_everywhere(procedure):
    scheme = spawner_loop()
    sess = AnalysisSession(scheme)
    with pytest.raises(BudgetExhausted) as info:
        PROCEDURES[procedure](scheme, sess, expired_budget())
    assert info.value.resource == "deadline"
    # the budget wrapper always uninstalls itself
    assert sess.budget is None


def test_nested_procedures_never_misread_partial():
    # halts() consults boundedness(); a budget that exhausts inside the
    # nested call must surface at the *outer* wrapper as UNKNOWN — not be
    # consumed inside and misread as a conclusive sub-answer
    scheme = spawner_loop()
    sess = AnalysisSession(scheme)
    verdict = halts(
        scheme, session=sess, budget=expired_budget(on_exhaust="partial")
    )
    assert isinstance(verdict, PartialVerdict)
    assert verdict.question == "halts"


def test_analyze_degrades_gracefully_under_budget():
    scheme = spawner_loop()
    report = analyze(scheme, budget=expired_budget(on_exhaust="partial"))
    assert report.bounded is None and report.halting is None
    assert not report.conclusive
    assert "inconclusive" in report.render()


# ----------------------------------------------------------------------
# Checkpoint / resume differential (acceptance criterion)
# ----------------------------------------------------------------------

DIFFERENTIAL_FAMILIES = {
    "spawner": spawner_loop,
    "fig2": fig2_scheme,
    "chain": lambda: terminating_chain(40),
    "mutex": mutex_pair,
}

DIFFERENTIAL_PROCEDURES = ["boundedness", "halts", "sup_reachability"]


@pytest.mark.parametrize("family", sorted(DIFFERENTIAL_FAMILIES))
@pytest.mark.parametrize("procedure", DIFFERENTIAL_PROCEDURES)
def test_interrupted_resume_matches_uninterrupted(procedure, family, tmp_path):
    scheme = DIFFERENTIAL_FAMILIES[family]()
    call = PROCEDURES[procedure]

    clean = call(scheme, AnalysisSession(scheme), None)

    # interrupt after a handful of budget checks
    sess = AnalysisSession(scheme)
    interrupted = call(
        scheme,
        sess,
        Budget(deadline=3.0, clock=ticking_clock(1.0), on_exhaust="partial"),
    )
    if not isinstance(interrupted, PartialVerdict):
        # the procedure concluded before the third check — already equal?
        assert interrupted.holds == clean.holds
        return
    assert interrupted.resumable

    # round-trip the checkpoint through disk, as a real restart would
    path = tmp_path / "run.json"
    save_checkpoint(interrupted.checkpoint, str(path))
    resumed_session = restore_session(load_checkpoint(str(path)), scheme=scheme)
    resumed = call(scheme, resumed_session, None)
    assert not isinstance(resumed, PartialVerdict)
    assert resumed.holds == clean.holds
    assert resumed.method == clean.method


def test_checkpoint_progress_is_preserved(tmp_path):
    scheme = spawner_loop()
    sess = AnalysisSession(scheme)
    sess.explore(50)
    data = sess.checkpoint()
    path = tmp_path / "cp.json"
    save_checkpoint(data, str(path))
    restored = restore_session(load_checkpoint(str(path)), scheme=scheme)
    assert [s.to_notation() for s in restored.graph.states] == [
        s.to_notation() for s in sess.graph.states
    ]
    assert restored.expanded_count == sess.expanded_count
    # resuming explores *onwards*, state-for-state like a fresh deep run
    resumed = restored.explore(120)
    fresh = AnalysisSession(scheme).explore(120)
    assert [s.to_notation() for s in resumed.states] == [
        s.to_notation() for s in fresh.states
    ]


@pytest.mark.parametrize("bad", ["-1", "true", "len(states)"])
def test_checkpoint_rejects_bad_target_index(bad):
    # a target index that Python would still accept (-1 is the last
    # state, true is 1) must not restore a silently rewired graph
    scheme = mixed_grove(2, 2)
    sess = AnalysisSession(scheme)
    sess.explore(40)
    data = json.loads(json.dumps(sess.checkpoint()))
    index = len(data["states"]) if bad == "len(states)" else json.loads(bad)
    data["transitions"][0][0][0] = index
    with pytest.raises(CheckpointError, match="malformed checkpoint"):
        restore_session(data, scheme=scheme)


# ----------------------------------------------------------------------
# Chaos: seeded fault injection (the tentpole's harness)
# ----------------------------------------------------------------------


CHAOS_PLANS = [
    ("raising", dict(raise_rate=0.2)),
    ("corrupting", dict(corrupt_rate=0.2)),
    ("mixed", dict(raise_rate=0.1, corrupt_rate=0.1, delay_rate=0.1)),
]


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
@pytest.mark.parametrize("plan_name,rates", CHAOS_PLANS)
@pytest.mark.parametrize("procedure", sorted(PROCEDURES))
def test_chaos_never_hangs_never_lies(procedure, plan_name, rates, seed):
    """Under injected faults: a clean error or the clean verdict, always.

    Delays are bounded (no hang — enforced by the suite's wall-clock
    guard); raised faults and detected corruption surface as structured
    ``RPError``s; any *delivered* verdict must agree with a fault-free
    run.  A silently wrong verdict is the one forbidden outcome.
    """
    scheme = spawner_loop()

    def outcome(semantics=None):
        sess = AnalysisSession(scheme, semantics=semantics)
        try:
            return ("verdict", PROCEDURES[procedure](scheme, sess, None).holds)
        except RPError:
            return ("error", None)

    clean = outcome()
    plan = FaultPlan(seed=seed, delay_seconds=0.001, immune=1, **rates)
    chaotic = outcome(ChaosSemantics(scheme, plan))
    if chaotic[0] == "error":
        return  # clean structured failure: acceptable
    assert clean[0] == "verdict" and chaotic[1] == clean[1], (
        f"chaos (seed={seed}, plan={plan_name}) silently changed the "
        f"{procedure} outcome: clean={clean}, chaotic={chaotic}"
    )


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_raise_faults_are_transient(seed):
    plan = FaultPlan(seed=seed, fault_at=((3, "raise"),))
    chaos = ChaosSemantics(spawner_loop(), plan)
    sess = AnalysisSession(chaos.scheme, semantics=chaos)
    with pytest.raises(FaultInjected):
        sess.explore(50)
    # the graph is a clean BFS prefix; the failed computation was not
    # cached, so simply retrying succeeds and the verdict is truthful
    graph = sess.explore(50)
    clean = AnalysisSession(chaos.scheme).explore(50)
    assert [s.to_notation() for s in graph.states] == [
        s.to_notation() for s in clean.states
    ]
    assert chaos.injected["raise"] == 1


@pytest.mark.parametrize("seed", CHAOS_SEEDS)
def test_chaos_corruption_is_detected_and_recoverable(seed):
    plan = FaultPlan(seed=seed, fault_at=((2, "corrupt"),))
    chaos = ChaosSemantics(spawner_loop(), plan)
    sess = AnalysisSession(chaos.scheme, semantics=chaos)
    with pytest.raises(CorruptionDetected):
        sess.explore(50)
    # the corrupted batch was rejected before recording: retrying reads
    # the truthful cached computation and converges with a clean run
    graph = sess.explore(50)
    clean = AnalysisSession(chaos.scheme).explore(50)
    assert [s.to_notation() for s in graph.states] == [
        s.to_notation() for s in clean.states
    ]
    assert chaos.injected["corrupt"] == 1


def test_fault_plan_is_deterministic_and_immune():
    plan = FaultPlan(seed=7, raise_rate=0.3, corrupt_rate=0.3, immune=2)
    decisions = [plan.decide(i) for i in range(64)]
    assert decisions == [plan.decide(i) for i in range(64)]
    assert decisions[0] is None and decisions[1] is None  # immune prefix
    assert any(d is not None for d in decisions)  # faults do happen
    pinned = FaultPlan(seed=7, fault_at=((5, "delay"),))
    assert pinned.decide(5) == "delay"
    assert all(pinned.decide(i) is None for i in range(64) if i != 5)


def test_chaos_delay_injects_through_sleep_hook():
    naps = []
    plan = FaultPlan(seed=1, fault_at=((1, "delay"),), delay_seconds=0.25)
    chaos = ChaosSemantics(spawner_loop(), plan, sleep=naps.append)
    sess = AnalysisSession(chaos.scheme, semantics=chaos)
    sess.explore(10)
    assert naps == [0.25]
    assert chaos.injected["delay"] == 1


# ----------------------------------------------------------------------
# Partial-verdict surface
# ----------------------------------------------------------------------


def test_partial_verdict_describe_and_certificate():
    scheme = spawner_loop()
    sess = AnalysisSession(scheme)
    verdict = boundedness(
        scheme, session=sess, budget=expired_budget(on_exhaust="partial")
    )
    text = verdict.describe()
    assert "deadline" in text and "boundedness" in text
    cert = verdict.progress
    assert cert.resource == "deadline"
    assert cert.states_explored == len(sess.graph.states)
    # checkpoints are plain JSON-ready data
    json.dumps(verdict.checkpoint)


def test_budget_requires_session_for_sessionless_entry_points():
    from repro.analysis import state_is_normed

    with pytest.raises(ValueError):
        state_is_normed(spawner_loop(), HState.leaf("m0"), budget=Budget())
    with pytest.raises(ValueError):
        backward_coverability(
            spawner_loop(), [HState.leaf("m0")], budget=Budget()
        )


def test_wait_blocked_family_also_governed():
    # a family with wait nodes exercises the non-wait-free code paths
    scheme = wait_blocked()
    verdict = boundedness(
        scheme,
        session=AnalysisSession(scheme),
        budget=expired_budget(on_exhaust="partial"),
    )
    assert isinstance(verdict, PartialVerdict)
