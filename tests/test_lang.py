"""Tests for the RP language front-end: lexer, parser, expressions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExecutionError, LexError, ParseError
from repro.lang import (
    AbstractAction,
    Assign,
    End,
    Goto,
    If,
    PCall,
    Wait,
    While,
    compile_source,
    parse_expression,
    parse_program,
    render_program,
    tokenize,
)
from repro.interp import run_program
from repro.lang.parser import MAX_EXPRESSION_DEPTH, MAX_NESTING
from repro.lang.tokens import TokenKind


class TestLexer:
    def test_keywords_vs_identifiers(self):
        tokens = tokenize("pcall mypcall wait waiting")
        assert [t.kind for t in tokens[:-1]] == [
            TokenKind.PCALL,
            TokenKind.IDENT,
            TokenKind.WAIT,
            TokenKind.IDENT,
        ]

    def test_operators(self):
        kinds = [t.kind for t in tokenize(":= == != <= >= < > + - * / %")[:-1]]
        assert kinds == [
            TokenKind.ASSIGN,
            TokenKind.EQ,
            TokenKind.NE,
            TokenKind.LE,
            TokenKind.GE,
            TokenKind.LT,
            TokenKind.GT,
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
            TokenKind.PERCENT,
        ]

    def test_line_comments(self):
        tokens = tokenize("a1; // a comment\nb2;")
        texts = [t.text for t in tokens[:-1]]
        assert texts == ["a1", ";", "b2", ";"]

    def test_block_comments(self):
        tokens = tokenize("a1; /* multi\nline */ b2;")
        assert [t.text for t in tokens[:-1]] == ["a1", ";", "b2", ";"]

    def test_unterminated_block_comment(self):
        with pytest.raises(LexError):
            tokenize("a1; /* oops")

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_primed_identifiers(self):
        tokens = tokenize("a1' q0")
        assert tokens[0].text == "a1'"

    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a1 $ b2")

    def test_eof_token(self):
        assert tokenize("")[-1].kind is TokenKind.EOF


class TestExpressions:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.evaluate({}, {}) == 7

    def test_parentheses(self):
        assert parse_expression("(1 + 2) * 3").evaluate({}, {}) == 9

    def test_unary_minus(self):
        assert parse_expression("-2 + 5").evaluate({}, {}) == 3
        assert parse_expression("--3").evaluate({}, {}) == 3

    def test_comparison_returns_01(self):
        assert parse_expression("2 < 3").evaluate({}, {}) == 1
        assert parse_expression("3 < 2").evaluate({}, {}) == 0

    def test_boolean_operators(self):
        assert parse_expression("1 < 2 and 3 < 4").evaluate({}, {}) == 1
        assert parse_expression("1 < 2 and 4 < 3").evaluate({}, {}) == 0
        assert parse_expression("1 > 2 or 3 < 4").evaluate({}, {}) == 1
        assert parse_expression("not 0").evaluate({}, {}) == 1

    def test_truth_literals(self):
        assert parse_expression("true").evaluate({}, {}) == 1
        assert parse_expression("false or true").evaluate({}, {}) == 1

    def test_variable_scoping_locals_shadow_globals(self):
        expr = parse_expression("x + y")
        assert expr.evaluate({"x": 10, "y": 1}, {"x": 2}) == 3

    def test_undefined_variable(self):
        with pytest.raises(ExecutionError):
            parse_expression("nope").evaluate({}, {})

    def test_division(self):
        assert parse_expression("7 / 2").evaluate({}, {}) == 3
        assert parse_expression("7 % 2").evaluate({}, {}) == 1

    def test_division_by_zero(self):
        with pytest.raises(ExecutionError):
            parse_expression("1 / 0").evaluate({}, {})

    def test_render_roundtrip(self):
        for text in ["1+2*3", "x>0 and y<2", "not (a==b)", "-x%3"]:
            expr = parse_expression(text)
            again = parse_expression(expr.render())
            assert again.render() == expr.render()

    def test_variables_collected(self):
        assert parse_expression("x + y * x").variables() == {"x", "y"}

    @given(st.integers(-50, 50), st.integers(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_arith_agrees_with_python(self, a, b):
        env = {"a": a, "b": b}
        assert parse_expression("a+b").evaluate(env, {}) == a + b
        assert parse_expression("a*b-a").evaluate(env, {}) == a * b - a
        assert parse_expression("a<b").evaluate(env, {}) == int(a < b)


class TestParser:
    def test_minimal_program(self):
        program = parse_program("program main { end; }")
        assert program.main.name == "main"
        assert isinstance(program.main.body[0], End)

    def test_missing_program_block(self):
        with pytest.raises(ParseError):
            parse_program("procedure p { end; }")

    def test_duplicate_program_block(self):
        with pytest.raises(ParseError):
            parse_program("program a { end; } program b { end; }")

    def test_statement_kinds(self):
        program = parse_program(
            """
            program main {
                a1;
                pcall p;
                wait;
                goto l;
            l:  x := 1;
                end;
            }
            procedure p { end; }
            global x := 0;
            """
        )
        body = program.main.body
        assert isinstance(body[0], AbstractAction)
        assert isinstance(body[1], PCall)
        assert isinstance(body[2], Wait)
        assert isinstance(body[3], Goto)
        assert isinstance(body[4], Assign)
        assert body[4].labels == ("l",)
        assert isinstance(body[5], End)

    def test_abstract_vs_concrete_test(self):
        program = parse_program(
            """
            global x := 0;
            program main {
                if b1 then { a1; } else { a2; }
                if x > 0 then { a3; }
                end;
            }
            """
        )
        first, second = program.main.body[0], program.main.body[1]
        assert isinstance(first, If) and first.test == "b1"
        assert isinstance(second, If) and not isinstance(second.test, str)

    def test_while_loop(self):
        program = parse_program(
            """
            global n := 3;
            program main { while n > 0 do { n := n - 1; } end; }
            """
        )
        loop = program.main.body[0]
        assert isinstance(loop, While)
        assert len(loop.body) == 1

    def test_abstract_while_test(self):
        program = parse_program("program main { while busy do { a1; } end; }")
        assert program.main.body[0].test == "busy"

    def test_multiple_labels(self):
        program = parse_program("program main { l1: l2: a1; end; }")
        assert program.main.body[0].labels == ("l1", "l2")

    def test_locals_must_precede_statements(self):
        program = parse_program(
            "procedure p { local k := 2; a1; end; } program main { end; }"
        )
        proc = program.procedures[0]
        assert proc.locals[0].name == "k"
        assert proc.locals[0].initial == 2

    def test_local_in_nested_block_rejected(self):
        with pytest.raises(ParseError):
            parse_program(
                "program main { if b then { local x; } end; }"
            )

    def test_negative_initialiser(self):
        program = parse_program("global t := -5; program main { end; }")
        assert program.globals[0].initial == -5

    def test_is_abstract(self):
        abstract = parse_program("program main { a1; if b then { a2; } end; }")
        assert abstract.is_abstract
        concrete = parse_program(
            "global x := 0; program main { x := 1; end; }"
        )
        assert not concrete.is_abstract

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("program main { a1 }")
        assert "1:" in str(excinfo.value)


def _nested(kind: str, levels: int) -> str:
    """A program nested *levels* deep, the procedure body being level 1;
    the last line holds the construct that opens the deepest level."""
    inner = levels - 1
    if kind == "block":
        opening = "if x > 0 then {\n" * inner
        return f"global x;\nprogram main {{\n{opening}x := 1;\n{'}' * inner}\n}}"
    body = {
        "paren": "x := " + "(" * inner + "1" + ")" * inner + ";",
        "not": "if " + "not " * inner + "x > 0 then { x := 1; }",
        "minus": "x := " + "- " * inner + "1;",
    }[kind]
    return f"global x;\nprogram main {{\n{body} end;\n}}"


class TestNestingBound:
    """Blocks, parentheses, ``not`` and unary minus share one bound, so
    nothing downstream of the parser recurses past Python's limit."""

    KINDS = ("block", "paren", "not", "minus")

    @pytest.mark.parametrize("kind", KINDS)
    def test_nesting_at_the_bound_compiles(self, kind):
        compiled = compile_source(_nested(kind, MAX_NESTING))
        assert len(compiled.scheme) >= 2

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_level_past_the_bound_is_a_parse_error(self, kind):
        with pytest.raises(ParseError, match="nesting deeper than") as excinfo:
            compile_source(_nested(kind, MAX_NESTING + 1))
        # reported at the token that opens the level past the bound: the
        # innermost block's brace, or the last "(", "not" or "-"
        expected = {
            "block": (2 + MAX_NESTING, len("if x > 0 then {")),
            "paren": (3, len("x := ") + MAX_NESTING),
            "not": (3, len("if ") + len("not ") * (MAX_NESTING - 1) + 1),
            "minus": (3, len("x := ") + len("- ") * (MAX_NESTING - 1) + 1),
        }[kind]
        assert (excinfo.value.line, excinfo.value.column) == expected

    def test_levels_of_different_kinds_add_up(self):
        inner = "(" * (MAX_NESTING - 3) + "- 1" + ")" * (MAX_NESTING - 3)
        at_bound = f"global x; program main {{ if x > 0 then {{ x := {inner}; }} }}"
        compile_source(at_bound)
        with pytest.raises(ParseError, match="nesting deeper than"):
            compile_source(at_bound.replace("- 1", "- - 1"))

    def test_depth_is_released_when_a_construct_closes(self):
        shallow = "(" * (MAX_NESTING - 1) + "1" + ")" * (MAX_NESTING - 1)
        statements = " ".join(f"x := {shallow};" for _ in range(3))
        compile_source(f"global x; program main {{ {statements} }}")


def _sum(terms: int) -> str:
    """A program assigning the sum of *terms* ones: a chain of
    ``terms - 1`` operators, as many levels deep."""
    chain = " + ".join(["1"] * terms)
    return f"global x := 0; program main {{ x := {chain}; end; }}"


class TestExpressionDepthBound:
    """An operator chain is parsed in a loop but builds one tree level per
    operator, so expression depth is bounded beside the nesting bound."""

    def test_chain_at_the_bound_compiles_renders_and_evaluates(self):
        source = _sum(MAX_EXPRESSION_DEPTH + 1)
        compiled = compile_source(source)
        value = parse_program(source).main.body[0].value
        assert value.render() == "(" * MAX_EXPRESSION_DEPTH + "1" + "+1)" * MAX_EXPRESSION_DEPTH
        final, _ = run_program(compiled)
        assert final["x"] == MAX_EXPRESSION_DEPTH + 1

    def test_one_operator_past_the_bound_is_a_parse_error(self):
        with pytest.raises(ParseError, match="expression deeper than") as excinfo:
            compile_source(_sum(MAX_EXPRESSION_DEPTH + 2))
        # reported at the operator that makes the tree too deep: the last
        # "+", each term before it taking four columns ("1 + ")
        column = len("global x := 0; program main { x := ") + 4 * MAX_EXPRESSION_DEPTH + 3
        assert (excinfo.value.line, excinfo.value.column) == (1, column)

    @pytest.mark.parametrize("operator", ["-", "*", "/", "%", "and", "or"])
    def test_every_binary_operator_counts_a_level(self, operator):
        chain = f" {operator} ".join(["x"] * (MAX_EXPRESSION_DEPTH + 1))
        parse_expression(chain)
        with pytest.raises(ParseError, match="expression deeper than"):
            parse_expression(f"{chain} {operator} x")

    def test_parentheses_unary_operators_and_comparisons_add_up(self):
        # a chain of D - 3 operators, then a parenthesis, a unary minus
        # and a comparison: D levels
        chain = " + ".join(["1"] * (MAX_EXPRESSION_DEPTH - 2))
        parse_expression(f"-({chain}) < 0")
        with pytest.raises(ParseError, match="expression deeper than"):
            parse_expression(f"not -({chain}) < 0")
        with pytest.raises(ParseError, match="expression deeper than"):
            parse_expression(f"-(({chain})) < 0")

    def test_sibling_chains_do_not_add_up(self):
        # two parenthesised chains of D - 2 operators under one "+": D
        chain = " * ".join(["x"] * (MAX_EXPRESSION_DEPTH - 1))
        parse_expression(f"({chain}) + ({chain})")
        statements = " ".join(f"x := {chain} * x;" for _ in range(3))
        compile_source(f"global x; program main {{ {statements} }}")


class TestPretty:
    SAMPLES = [
        "program main { end; }",
        "program main { a1; l1: pcall p; wait; end; }\nprocedure p { end; }",
        """
        global x := 2;
        program main {
            local y := 1;
            while x > 0 do { x := x - 1; }
            if b then { a1; } else { goto l; }
        l:  end;
        }
        """,
        # 63 operators: the longest chain whose rendering, one
        # parenthesis per operator, stays within MAX_NESTING
        _sum(64),
    ]

    @pytest.mark.parametrize("source", SAMPLES)
    def test_roundtrip(self, source):
        program = parse_program(source)
        rendered = render_program(program)
        assert parse_program(rendered) == program

    def test_renders_fig1(self):
        from repro.zoo import FIG1_PROGRAM

        program = parse_program(FIG1_PROGRAM)
        assert parse_program(render_program(program)) == program
