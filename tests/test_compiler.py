"""Tests for the AST → scheme compiler and scheme isomorphism."""

import pytest

from repro.core.isomorphism import find_isomorphism, isomorphic
from repro.core.scheme import NodeKind
from repro.errors import SemanticError
from repro.lang import compile_source
from repro.zoo import FIG1_PROGRAM, fig2_scheme


class TestBasicCompilation:
    def test_single_end(self):
        compiled = compile_source("program main { end; }")
        scheme = compiled.scheme
        assert len(scheme) == 1
        assert scheme.node(scheme.root).kind is NodeKind.END

    def test_action_chain(self):
        compiled = compile_source("program main { a1; a2; end; }")
        scheme = compiled.scheme
        assert len(scheme) == 3
        root = scheme.node(scheme.root)
        assert root.kind is NodeKind.ACTION and root.label == "a1"
        second = scheme.node(root.successors[0])
        assert second.label == "a2"
        assert scheme.node(second.successors[0]).kind is NodeKind.END

    def test_implicit_end(self):
        compiled = compile_source("program main { a1; }")
        scheme = compiled.scheme
        assert len(scheme) == 2
        last = scheme.node(scheme.node(scheme.root).successors[0])
        assert last.kind is NodeKind.END

    def test_empty_body_gets_end(self):
        scheme = compile_source("program main { }").scheme
        assert scheme.node(scheme.root).kind is NodeKind.END

    def test_pcall_wires_procedure_entry(self):
        compiled = compile_source(
            "program main { pcall p; wait; end; } procedure p { w; end; }"
        )
        scheme = compiled.scheme
        root = scheme.node(scheme.root)
        assert root.kind is NodeKind.PCALL
        invoked = scheme.node(root.invoked)
        assert invoked.label == "w"
        assert scheme.procedures["p"] == invoked.id

    def test_if_branches_join(self):
        compiled = compile_source(
            "program main { if b then { a1; } else { a2; } a3; end; }"
        )
        scheme = compiled.scheme
        test = scheme.node(scheme.root)
        assert test.kind is NodeKind.TEST
        then_node = scheme.node(test.successors[0])
        else_node = scheme.node(test.successors[1])
        assert then_node.label == "a1"
        assert else_node.label == "a2"
        # both branches join at a3
        assert then_node.successors[0] == else_node.successors[0]
        join = scheme.node(then_node.successors[0])
        assert join.label == "a3"

    def test_empty_else_falls_through(self):
        compiled = compile_source("program main { if b then { a1; } a2; end; }")
        scheme = compiled.scheme
        test = scheme.node(scheme.root)
        else_target = scheme.node(test.successors[1])
        assert else_target.label == "a2"

    def test_while_desugars_to_test_with_back_edge(self):
        compiled = compile_source("program main { while b do { a1; } a2; end; }")
        scheme = compiled.scheme
        test = scheme.node(scheme.root)
        assert test.kind is NodeKind.TEST
        body = scheme.node(test.successors[0])
        assert body.label == "a1"
        assert body.successors[0] == test.id  # back edge
        assert scheme.node(test.successors[1]).label == "a2"

    def test_goto_backward(self):
        compiled = compile_source("program main { l: a1; goto l; }")
        scheme = compiled.scheme
        action = scheme.node(scheme.root)
        assert action.successors[0] == action.id

    def test_goto_forward(self):
        compiled = compile_source("program main { goto skip; a1; skip: a2; end; }")
        scheme = compiled.scheme
        root = scheme.node(scheme.root)
        assert root.label == "a2"

    def test_recursive_procedure(self):
        compiled = compile_source(
            "program main { pcall p; end; } "
            "procedure p { if b then { pcall p; wait; } end; }"
        )
        scheme = compiled.scheme
        entry = scheme.procedures["p"]
        inner_pcalls = [
            n for n in scheme if n.kind is NodeKind.PCALL and n.invoked == entry
        ]
        assert len(inner_pcalls) == 2  # from main and from p itself


class TestCompilationErrors:
    def test_unknown_procedure(self):
        with pytest.raises(SemanticError):
            compile_source("program main { pcall ghost; end; }")

    def test_unknown_label(self):
        with pytest.raises(SemanticError):
            compile_source("program main { goto nowhere; end; }")

    def test_duplicate_label(self):
        with pytest.raises(SemanticError):
            compile_source("program main { l: a1; l: a2; end; }")

    def test_labels_are_procedure_scoped(self):
        compiled = compile_source(
            "program main { l: a1; goto l; } procedure p { l: a2; goto l; }"
        )
        assert len(compiled.scheme) >= 2

    def test_goto_cycle(self):
        with pytest.raises(SemanticError):
            compile_source("program main { l1: goto l2; l2: goto l1; }")

    def test_long_goto_chain_compiles(self):
        # labels resolve in a loop: a chain far past the recursion limit
        hops = "".join(f" l{i}: goto l{i + 1};\n" for i in range(1500))
        compiled = compile_source(f"program main {{\n goto l0;\n{hops} l1500: end;\n}}")
        (end,) = compiled.scheme
        assert end.kind is NodeKind.END
        assert compiled.scheme.root == end.id

    def test_long_goto_cycle_is_reported(self):
        hops = "".join(f" l{i}: goto l{i + 1};\n" for i in range(1500))
        with pytest.raises(SemanticError, match="goto cycle"):
            compile_source(f"program main {{\n{hops} l1500: goto l0;\n}}")

    def test_duplicate_procedure(self):
        with pytest.raises(SemanticError):
            compile_source(
                "program main { end; } procedure p { end; } procedure p { end; }"
            )

    def test_undeclared_assignment_target(self):
        with pytest.raises(SemanticError):
            compile_source("program main { x := 1; end; }")

    def test_undeclared_expression_variable(self):
        with pytest.raises(SemanticError):
            compile_source("global x := 0; program main { x := y + 1; end; }")

    def test_duplicate_global(self):
        with pytest.raises(SemanticError):
            compile_source("global x; global x; program main { end; }")

    def test_duplicate_local(self):
        with pytest.raises(SemanticError):
            compile_source(
                "program main { local a; local a; end; }"
            )


class TestInterpretationTables:
    def test_assignment_action_def(self):
        compiled = compile_source(
            "global x := 0; program main { x := x + 1; end; }"
        )
        [label] = [l for l in compiled.actions if compiled.actions[l].kind == "assign"]
        definition = compiled.actions[label]
        assert definition.target == "x"
        assert definition.scope == "global"
        assert definition.value.evaluate({"x": 4}, {}) == 5

    def test_local_scope_assignment(self):
        compiled = compile_source(
            "program main { local y := 1; y := y * 2; end; }"
        )
        [definition] = [d for d in compiled.actions.values() if d.kind == "assign"]
        assert definition.scope == "local"

    def test_concrete_test_def(self):
        compiled = compile_source(
            "global n := 2; program main { if n > 0 then { a; } end; }"
        )
        [label] = [l for l in compiled.tests if compiled.tests[l].kind == "expr"]
        assert compiled.tests[label].value.evaluate({"n": 1}, {}) == 1
        assert compiled.is_fully_concrete

    def test_abstract_test_blocks_concreteness(self):
        compiled = compile_source("program main { if b then { a; } end; }")
        assert not compiled.is_fully_concrete

    def test_node_lines_recorded(self):
        compiled = compile_source("program main { a1;\n a2; end; }")
        lines = set(compiled.node_lines.values())
        assert len(lines) >= 2


class TestFig1Fig2:
    """FIG-1/FIG-2: the paper's program compiles to the paper's scheme."""

    def test_fig1_compiles_to_fig2(self):
        compiled = compile_source(FIG1_PROGRAM)
        assert isomorphic(compiled.scheme, fig2_scheme())

    def test_fig1_node_inventory(self):
        scheme = compile_source(FIG1_PROGRAM).scheme
        assert len(scheme) == 13
        by_kind = {
            kind: len(scheme.nodes_of_kind(kind))
            for kind in NodeKind
        }
        assert by_kind[NodeKind.ACTION] == 5
        assert by_kind[NodeKind.TEST] == 2
        assert by_kind[NodeKind.PCALL] == 2
        assert by_kind[NodeKind.WAIT] == 2
        assert by_kind[NodeKind.END] == 2

    def test_isomorphism_mapping_sane(self):
        compiled = compile_source(FIG1_PROGRAM)
        mapping = find_isomorphism(compiled.scheme, fig2_scheme())
        assert mapping is not None
        assert mapping[compiled.scheme.root] == "q0"
        # labels preserved under the mapping
        for node in compiled.scheme:
            assert fig2_scheme().node(mapping[node.id]).label == node.label


class TestIsomorphism:
    def test_reflexive(self):
        scheme = fig2_scheme()
        assert isomorphic(scheme, scheme)

    def test_renamed_schemes_isomorphic(self):
        a = compile_source("program main { a1; a2; end; }").scheme
        b = compile_source("program other { a1; a2; end; }").scheme
        assert isomorphic(a, b)

    def test_label_mismatch_not_isomorphic(self):
        a = compile_source("program main { a1; end; }").scheme
        b = compile_source("program main { a2; end; }").scheme
        assert not isomorphic(a, b)

    def test_structure_mismatch_not_isomorphic(self):
        a = compile_source("program main { if b then { a1; } a1; end; }").scheme
        b = compile_source("program main { if b then { a1; } else { a1; } end; }").scheme
        assert not isomorphic(a, b)

    def test_branch_order_matters(self):
        a = compile_source("program main { if b then { a1; } else { a2; } end; }").scheme
        b = compile_source("program main { if b then { a2; } else { a1; } end; }").scheme
        assert not isomorphic(a, b)
