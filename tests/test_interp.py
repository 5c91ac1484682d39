"""Tests for the interpreted semantics M_I_G (Section 4)."""

import pytest

from repro.core.alphabet import TAU
from repro.errors import ExecutionError, InterpretationError, StateError
from repro.interp import (
    GlobalState,
    InterpretedExplorer,
    InterpretedSemantics,
    IState,
    ProgramInterpretation,
    TrivialInterpretation,
    UNIT,
    VarStore,
    first_scheduler,
    random_scheduler,
    round_robin_scheduler,
    run_program,
    run_scheduled,
)
from repro.lang import compile_source
from repro.zoo import FIG1_PROGRAM, fig2_scheme

SUM_PROGRAM = """
global total := 0;
global n := 4;
program main {
    while n > 0 do {
        total := total + n;
        n := n - 1;
    }
    end;
}
"""

PARALLEL_PROGRAM = """
global acc := 0;
program main {
    pcall worker;
    pcall worker;
    wait;
    acc := acc * 10;
    end;
}
procedure worker {
    acc := acc + 1;
    end;
}
"""


class TestVarStore:
    def test_mapping_interface(self):
        store = VarStore(x=1, y=2)
        assert store["x"] == 1
        assert len(store) == 2
        assert set(store) == {"x", "y"}
        assert "x" in store and "z" not in store

    def test_missing_key(self):
        with pytest.raises(KeyError):
            VarStore()["ghost"]

    def test_functional_update(self):
        store = VarStore(x=1)
        updated = store.set("x", 5).set("y", 7)
        assert store["x"] == 1
        assert updated["x"] == 5 and updated["y"] == 7

    def test_equality_and_hash(self):
        assert VarStore(x=1, y=2) == VarStore(y=2, x=1)
        assert hash(VarStore(x=1)) == hash(VarStore({"x": 1}))

    def test_update_many(self):
        assert VarStore(x=1).update({"x": 2, "y": 3}) == VarStore(x=2, y=3)


class TestIState:
    def test_leaf_and_forget(self):
        state = IState.leaf("q0", VarStore(k=1))
        assert state.forget().to_notation() == "q0"

    def test_canonicity(self):
        a = IState(
            (("q1", VarStore(x=1), IState.empty()), ("q0", UNIT, IState.empty()))
        )
        b = IState(
            (("q0", UNIT, IState.empty()), ("q1", VarStore(x=1), IState.empty()))
        )
        assert a == b and hash(a) == hash(b)

    def test_memory_distinguishes_states(self):
        a = IState.leaf("q0", VarStore(x=1))
        b = IState.leaf("q0", VarStore(x=2))
        assert a != b
        assert a.forget() == b.forget()

    def test_addition(self):
        combined = IState.leaf("q0", UNIT) + IState.leaf("q1", UNIT)
        assert combined.size == 2

    def test_replace_deep(self):
        inner = IState.leaf("q2", UNIT)
        state = IState((("q1", UNIT, inner),))
        [(path, node, mem, child)] = [
            p for p in state.positions() if p[1] == "q2"
        ]
        out = state.replace(path, (("q3", UNIT, IState.empty()),))
        assert out.forget().to_notation() == "q1,{q3}"

    @pytest.mark.parametrize(
        "path",
        [(-1,), (-2,), (2,), (0, 0), (1, -1), (1, 1)],
        ids=lambda path: "/".join(map(str, path)),
    )
    def test_replace_outside_the_state_rejected(self, path):
        # a, b,{c}: two top-level invocations, only b has a child; as in
        # HState.replace, a negative index addresses nothing
        state = IState(
            (
                ("a", UNIT, IState.empty()),
                ("b", UNIT, IState.leaf("c", UNIT)),
            )
        )
        with pytest.raises(StateError):
            state.replace(path, (("d", UNIT, IState.empty()),))


class TestTrivialInterpretation:
    def test_runs_are_subbehaviour_of_abstract(self):
        scheme = fig2_scheme()
        interp = TrivialInterpretation(branches={"b1": False, "b2": True})
        final, trace = run_scheduled(scheme, interp, max_steps=500)
        assert final.is_terminated()
        # every step projects to an abstract step
        from repro.core.semantics import AbstractSemantics

        abstract = AbstractSemantics(scheme)
        for step in trace:
            projected = step.forget()
            assert any(
                t.label == projected[0] and t.target == projected[2]
                for t in abstract.successors(projected[1])
            )

    def test_divergent_branches(self):
        scheme = fig2_scheme()
        interp = TrivialInterpretation(branches={"b1": True, "b2": True})
        # b1 = true loops forever spawning children
        with pytest.raises(ExecutionError):
            run_scheduled(scheme, interp, max_steps=200)


class TestProgramExecution:
    def test_sum_program(self):
        compiled = compile_source(SUM_PROGRAM)
        final, visible = run_program(compiled)
        assert final["total"] == 10
        assert final["n"] == 0
        assert all(label != TAU for label in visible)

    def test_parallel_program_all_schedulers(self):
        compiled = compile_source(PARALLEL_PROGRAM)
        for scheduler in (
            first_scheduler,
            round_robin_scheduler,
            random_scheduler(7),
            random_scheduler(99),
        ):
            final, _ = run_program(compiled, scheduler=scheduler)
            # both workers add 1, then main multiplies by 10 after wait
            assert final["acc"] == 20

    def test_interpretation_requires_concrete_tests(self):
        compiled = compile_source("program main { if b then { a; } end; }")
        with pytest.raises(InterpretationError):
            ProgramInterpretation(compiled)

    def test_abstract_actions_are_noops(self):
        compiled = compile_source(
            "global x := 1; program main { log_start; x := x + 1; end; }"
        )
        final, visible = run_program(compiled)
        assert final["x"] == 2
        assert "log_start" in visible

    def test_locals_are_per_invocation(self):
        source = """
        global out := 0;
        program main {
            pcall child;
            pcall child;
            wait;
            end;
        }
        procedure child {
            local mine := 0;
            mine := mine + 1;
            out := out + mine;
            end;
        }
        """
        final, _ = run_program(compile_source(source))
        # each child gets a fresh `mine`, so out = 1 + 1
        assert final["out"] == 2

    def test_nondeterministic_outcomes_explored(self):
        # racing increments: exploring all interleavings finds both orders,
        # but the final memory is the same (addition commutes)
        compiled = compile_source(PARALLEL_PROGRAM)
        interp = ProgramInterpretation(compiled)
        explorer = InterpretedExplorer(compiled.scheme, interp, max_states=5_000)
        lts = explorer.explore_or_raise()
        finals = {
            s.global_memory["acc"]
            for s in lts.states
            if isinstance(s, GlobalState) and s.is_terminated()
        }
        assert finals == {20}

    def test_racy_program_has_outcome_variance(self):
        source = """
        global x := 0;
        program main {
            pcall doubler;
            x := x + 1;
            wait;
            end;
        }
        procedure doubler {
            x := x * 2;
            end;
        }
        """
        compiled = compile_source(source)
        interp = ProgramInterpretation(compiled)
        lts = InterpretedExplorer(compiled.scheme, interp).explore_or_raise()
        finals = {
            s.global_memory["x"] for s in lts.states if s.is_terminated()
        }
        # (0*2)+1 = 1 if doubler first, (0+1)*2 = 2 if increment first
        assert finals == {1, 2}

    def test_determinism_per_invocation(self):
        # a single-invocation concrete program has a deterministic M_I
        compiled = compile_source(SUM_PROGRAM)
        interp = ProgramInterpretation(compiled)
        lts = InterpretedExplorer(compiled.scheme, interp).explore_or_raise()
        assert lts.is_deterministic()


class TestInterpretedSemanticsRules:
    def test_test_rule_is_deterministic(self):
        compiled = compile_source(
            "global n := 1; program main { if n > 0 then { a; } else { b; } end; }"
        )
        semantics = InterpretedSemantics(
            compiled.scheme, ProgramInterpretation(compiled)
        )
        [transition] = semantics.successors(semantics.initial_state)
        assert transition.rule == "test"
        assert transition.branch == 0  # n > 0 holds

    def test_wait_blocked_with_children(self):
        compiled = compile_source(
            "program main { pcall p; wait; end; } procedure p { spin; end; }"
        )
        interp = TrivialInterpretation()
        semantics = InterpretedSemantics(compiled.scheme, interp)
        state = semantics.initial_state
        [call] = semantics.successors(state)
        assert call.rule == "call"
        after_call = call.target
        rules = {t.rule for t in semantics.successors(after_call)}
        assert "wait" not in rules  # parent blocked while the child lives

    def test_end_releases_children_with_memories(self):
        compiled = compile_source(FIG1_PROGRAM)
        interp = TrivialInterpretation(branches={"b1": False, "b2": True})
        semantics = InterpretedSemantics(compiled.scheme, interp)
        final, trace = run_scheduled(compiled.scheme, interp, max_steps=500)
        assert final.is_terminated()

    def test_label_on_tests_is_visible(self):
        compiled = compile_source(
            "global n := 0; program main { if n > 0 then { a; } end; }"
        )
        semantics = InterpretedSemantics(
            compiled.scheme, ProgramInterpretation(compiled)
        )
        [transition] = semantics.successors(semantics.initial_state)
        assert transition.label == "n>0"
