"""Recursive-descent parser for the RP language.

Grammar (see :mod:`repro.lang.ast` for the constructs)::

    program      ::=  (global_decl | main_decl | proc_decl)*
    global_decl  ::=  "global" IDENT [":=" signed] ";"
    main_decl    ::=  "program" IDENT block
    proc_decl    ::=  "procedure" IDENT block
    block        ::=  "{" local_decl* stmt* "}"
    local_decl   ::=  "local" IDENT [":=" signed] ";"
    stmt         ::=  (IDENT ":")* unlabeled
    unlabeled    ::=  "pcall" IDENT ";" | "wait" ";" | "end" ";"
                   |  "goto" IDENT ";"
                   |  "if" test "then" block ["else" block]
                   |  "while" test "do" block
                   |  IDENT ";"            -- abstract action
                   |  IDENT ":=" expr ";"  -- assignment

    test         ::=  IDENT   -- abstract, when directly followed by
                              -- "then"/"do"
                   |  expr    -- concrete otherwise

    expr         ::=  or ; or ::= and ("or" and)* ; and ::= not ("and" not)*
    not          ::=  "not" not | comparison
    comparison   ::=  additive [relop additive]
    additive     ::=  multiplicative (("+" | "-") multiplicative)*
    multiplicative ::= unary (("*" | "/" | "%") unary)*
    unary        ::=  "-" unary | primary
    primary      ::=  NUMBER | IDENT | "true" | "false" | "(" expr ")"

Nesting is bounded by :data:`MAX_NESTING`: a block, a parenthesis, a
``not`` and a unary minus each open one level, and a program nested
deeper is rejected with a :class:`~repro.errors.ParseError`.  Operator
chains such as ``1 + 1 + … + 1`` are parsed in a loop but build one
tree level per operator, so the depth of every expression is bounded
separately by :data:`MAX_EXPRESSION_DEPTH`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

from ..errors import ParseError
from .ast import (
    AbstractAction,
    Assign,
    End,
    Goto,
    If,
    PCall,
    Procedure,
    Program,
    Stmt,
    VarDecl,
    Wait,
    While,
)
from .expr import BinOp, Bool, BoolOp, Compare, Expr, Neg, Not, Num, Var
from .lexer import tokenize
from .tokens import Token, TokenKind

#: Deepest nesting the parser accepts.  Blocks (a procedure body is the
#: first level), parentheses, ``not`` and unary minus each count one
#: level.  A parenthesis costs the recursive descent eight frames, so the
#: bound keeps parsing, and every later recursive walk of the tree, well
#: inside Python's default recursion limit of 1,000 frames.
MAX_NESTING = 64

#: Deepest expression the parser accepts.  Each binary operator
#: (arithmetic, comparison, ``and``, ``or``), ``not``, unary minus and
#: parenthesis counts one level, so a chain of *n* operators is *n*
#: levels deep.  The recursive walks of a tree (rendering, evaluation,
#: equality, pickling) spend up to three frames per level, so even an
#: expression at this bound inside blocks nested to :data:`MAX_NESTING`
#: stays well inside Python's default recursion limit of 1,000 frames.
MAX_EXPRESSION_DEPTH = 128

_ADDITIVE = {TokenKind.PLUS: "+", TokenKind.MINUS: "-"}
_MULTIPLICATIVE = {TokenKind.STAR: "*", TokenKind.SLASH: "/", TokenKind.PERCENT: "%"}

_RELOPS = {
    TokenKind.EQ: "==",
    TokenKind.NE: "!=",
    TokenKind.LT: "<",
    TokenKind.LE: "<=",
    TokenKind.GT: ">",
    TokenKind.GE: ">=",
}


class Parser:
    """Token-stream parser producing a :class:`~repro.lang.ast.Program`."""

    def __init__(self, source: str) -> None:
        self._tokens = tokenize(source)
        self._position = 0
        self._depth = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.kind is not TokenKind.EOF:
            self._position += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _match(self, kind: TokenKind) -> Optional[Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _enter(self, token: Token) -> None:
        """Open one nesting level at *token* (see :data:`MAX_NESTING`)."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels",
                token.line,
                token.column,
            )

    def _deepen(self, token: Token, *depths: int) -> int:
        """The depth of an expression node built at *token* over operands
        of the given *depths* (see :data:`MAX_EXPRESSION_DEPTH`)."""
        depth = 1 + max(depths)
        if depth > MAX_EXPRESSION_DEPTH:
            raise ParseError(
                f"expression deeper than {MAX_EXPRESSION_DEPTH} levels",
                token.line,
                token.column,
            )
        return depth

    def _expect(self, kind: TokenKind, context: str) -> Token:
        token = self._peek()
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r} {context}, found {token.text or token.kind.value!r}",
                token.line,
                token.column,
            )
        return self._advance()

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------

    def parse_program(self) -> Program:
        """Parse a whole program (exactly one ``program`` block required)."""
        main: Optional[Procedure] = None
        procedures: List[Procedure] = []
        globals_: List[VarDecl] = []
        while not self._check(TokenKind.EOF):
            token = self._peek()
            if token.kind is TokenKind.GLOBAL:
                globals_.append(self._global_decl())
            elif token.kind is TokenKind.PROGRAM:
                if main is not None:
                    raise ParseError("duplicate 'program' block", token.line, token.column)
                main = self._procedure_decl(is_main=True)
            elif token.kind is TokenKind.PROCEDURE:
                procedures.append(self._procedure_decl(is_main=False))
            else:
                raise ParseError(
                    f"expected 'program', 'procedure' or 'global', found "
                    f"{token.text or token.kind.value!r}",
                    token.line,
                    token.column,
                )
        if main is None:
            token = self._peek()
            raise ParseError("missing 'program' block", token.line, token.column)
        return Program(main=main, procedures=tuple(procedures), globals=tuple(globals_))

    def _global_decl(self) -> VarDecl:
        keyword = self._expect(TokenKind.GLOBAL, "at declaration")
        name = self._expect(TokenKind.IDENT, "after 'global'").text
        initial = 0
        if self._match(TokenKind.ASSIGN):
            initial = self._signed_number()
        self._expect(TokenKind.SEMI, "after global declaration")
        return VarDecl(name=name, initial=initial, line=keyword.line)

    def _procedure_decl(self, is_main: bool) -> Procedure:
        keyword = self._advance()  # 'program' or 'procedure'
        name = self._expect(TokenKind.IDENT, f"after '{keyword.text}'").text
        locals_, body = self._block()
        return Procedure(
            name=name,
            body=tuple(body),
            locals=tuple(locals_),
            is_main=is_main,
            line=keyword.line,
        )

    def _block(self) -> Tuple[List[VarDecl], List[Stmt]]:
        self._enter(self._expect(TokenKind.LBRACE, "to open a block"))
        locals_: List[VarDecl] = []
        while self._check(TokenKind.LOCAL):
            keyword = self._advance()
            name = self._expect(TokenKind.IDENT, "after 'local'").text
            initial = 0
            if self._match(TokenKind.ASSIGN):
                initial = self._signed_number()
            self._expect(TokenKind.SEMI, "after local declaration")
            locals_.append(VarDecl(name=name, initial=initial, line=keyword.line))
        stmts: List[Stmt] = []
        while not self._check(TokenKind.RBRACE):
            stmts.append(self._statement())
        self._expect(TokenKind.RBRACE, "to close a block")
        self._depth -= 1
        return locals_, stmts

    def _signed_number(self) -> int:
        sign = -1 if self._match(TokenKind.MINUS) else 1
        token = self._expect(TokenKind.NUMBER, "in initialiser")
        return sign * int(token.text)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _statement(self) -> Stmt:
        labels: List[str] = []
        while (
            self._check(TokenKind.IDENT)
            and self._peek(1).kind is TokenKind.COLON
        ):
            labels.append(self._advance().text)
            self._advance()  # ':'
        stmt = self._unlabeled_statement(tuple(labels))
        return stmt

    def _unlabeled_statement(self, labels: Tuple[str, ...]) -> Stmt:
        token = self._peek()
        if token.kind is TokenKind.PCALL:
            self._advance()
            procedure = self._expect(TokenKind.IDENT, "after 'pcall'").text
            self._expect(TokenKind.SEMI, "after pcall")
            return PCall(procedure=procedure, labels=labels, line=token.line)
        if token.kind is TokenKind.WAIT:
            self._advance()
            self._expect(TokenKind.SEMI, "after wait")
            return Wait(labels=labels, line=token.line)
        if token.kind is TokenKind.END:
            self._advance()
            self._expect(TokenKind.SEMI, "after end")
            return End(labels=labels, line=token.line)
        if token.kind is TokenKind.GOTO:
            self._advance()
            label = self._expect(TokenKind.IDENT, "after 'goto'").text
            self._expect(TokenKind.SEMI, "after goto")
            return Goto(label=label, labels=labels, line=token.line)
        if token.kind is TokenKind.IF:
            self._advance()
            test = self._test(TokenKind.THEN)
            self._expect(TokenKind.THEN, "after the if-test")
            then_locals, then_body = self._block()
            else_body: List[Stmt] = []
            if self._match(TokenKind.ELSE):
                else_locals, else_body = self._block()
                if else_locals:
                    raise ParseError(
                        "local declarations are only allowed at procedure top level",
                        token.line,
                        token.column,
                    )
            if then_locals:
                raise ParseError(
                    "local declarations are only allowed at procedure top level",
                    token.line,
                    token.column,
                )
            return If(
                test=test,
                then_body=tuple(then_body),
                else_body=tuple(else_body),
                labels=labels,
                line=token.line,
            )
        if token.kind is TokenKind.WHILE:
            self._advance()
            test = self._test(TokenKind.DO)
            self._expect(TokenKind.DO, "after the while-test")
            body_locals, body = self._block()
            if body_locals:
                raise ParseError(
                    "local declarations are only allowed at procedure top level",
                    token.line,
                    token.column,
                )
            return While(test=test, body=tuple(body), labels=labels, line=token.line)
        if token.kind is TokenKind.IDENT:
            name = self._advance().text
            if self._match(TokenKind.ASSIGN):
                value = self._expression()
                self._expect(TokenKind.SEMI, "after assignment")
                return Assign(target=name, value=value, labels=labels, line=token.line)
            self._expect(TokenKind.SEMI, "after action")
            return AbstractAction(name=name, labels=labels, line=token.line)
        raise ParseError(
            f"expected a statement, found {token.text or token.kind.value!r}",
            token.line,
            token.column,
        )

    def _test(self, terminator: TokenKind) -> Union[str, Expr]:
        # a bare identifier immediately followed by then/do is an abstract
        # test name; anything else is a concrete expression
        if self._check(TokenKind.IDENT) and self._peek(1).kind is terminator:
            return self._advance().text
        return self._expression()

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def _expression(self) -> Expr:
        return self._or()[0]

    # Each method below returns the expression it parsed with its depth.
    # Each operator chain has its own loop: a shared helper would add a
    # frame per precedence level to the eight a parenthesis costs (see
    # MAX_NESTING).

    def _or(self) -> Tuple[Expr, int]:
        left, depth = self._and()
        while self._check(TokenKind.OR):
            token = self._advance()
            right, right_depth = self._and()
            left = BoolOp(op="or", left=left, right=right)
            depth = self._deepen(token, depth, right_depth)
        return left, depth

    def _and(self) -> Tuple[Expr, int]:
        left, depth = self._not()
        while self._check(TokenKind.AND):
            token = self._advance()
            right, right_depth = self._not()
            left = BoolOp(op="and", left=left, right=right)
            depth = self._deepen(token, depth, right_depth)
        return left, depth

    def _not(self) -> Tuple[Expr, int]:
        token = self._match(TokenKind.NOT)
        if token is None:
            return self._comparison()
        self._enter(token)
        operand, depth = self._not()
        self._depth -= 1
        return Not(operand=operand), self._deepen(token, depth)

    def _comparison(self) -> Tuple[Expr, int]:
        left, depth = self._additive()
        token = self._peek()
        if token.kind in _RELOPS:
            self._advance()
            right, right_depth = self._additive()
            compare = Compare(op=_RELOPS[token.kind], left=left, right=right)
            return compare, self._deepen(token, depth, right_depth)
        return left, depth

    def _additive(self) -> Tuple[Expr, int]:
        left, depth = self._multiplicative()
        while self._peek().kind in _ADDITIVE:
            token = self._advance()
            right, right_depth = self._multiplicative()
            left = BinOp(op=_ADDITIVE[token.kind], left=left, right=right)
            depth = self._deepen(token, depth, right_depth)
        return left, depth

    def _multiplicative(self) -> Tuple[Expr, int]:
        left, depth = self._unary()
        while self._peek().kind in _MULTIPLICATIVE:
            token = self._advance()
            right, right_depth = self._unary()
            left = BinOp(op=_MULTIPLICATIVE[token.kind], left=left, right=right)
            depth = self._deepen(token, depth, right_depth)
        return left, depth

    def _unary(self) -> Tuple[Expr, int]:
        token = self._match(TokenKind.MINUS)
        if token is None:
            return self._primary()
        self._enter(token)
        operand, depth = self._unary()
        self._depth -= 1
        return Neg(operand=operand), self._deepen(token, depth)

    def _primary(self) -> Tuple[Expr, int]:
        token = self._peek()
        if token.kind is TokenKind.NUMBER:
            self._advance()
            return Num(value=int(token.text)), 0
        if token.kind is TokenKind.IDENT:
            self._advance()
            return Var(name=token.text), 0
        if token.kind is TokenKind.TRUE:
            self._advance()
            return Bool(value=True), 0
        if token.kind is TokenKind.FALSE:
            self._advance()
            return Bool(value=False), 0
        if token.kind is TokenKind.LPAREN:
            self._enter(self._advance())
            inner, depth = self._or()
            self._expect(TokenKind.RPAREN, "to close parenthesis")
            self._depth -= 1
            return inner, self._deepen(token, depth)
        raise ParseError(
            f"expected an expression, found {token.text or token.kind.value!r}",
            token.line,
            token.column,
        )


def parse_program(source: str) -> Program:
    """Parse RP source text into a :class:`~repro.lang.ast.Program`."""
    return Parser(source).parse_program()


def parse_expression(source: str) -> Expr:
    """Parse a standalone expression (used by tests and the REPL-ish CLI)."""
    parser = Parser(source)
    expr = parser._expression()
    parser._expect(TokenKind.EOF, "after expression")
    return expr
