"""Compilation of RP programs to RP schemes.

The compiler turns each procedure body into a region of the control graph
(Fig. 1 → Fig. 2): actions and assignments become ACTION nodes, tests
become TEST nodes, ``pcall`` becomes a PCALL node invoking the callee's
entry, ``wait``/``end`` map to their node kinds, ``while`` desugars into a
test with a back edge, and ``goto``/labels wire arbitrary jumps.  Control
falling off the end of a procedure body gets an implicit END node.

Besides the scheme, the compiler returns the *interpretation tables* for
the concrete fragment: each assignment/test node label is mapped to its
expression semantics, which :mod:`repro.interp` turns into the
``M_I_G`` interpretation of Section 4.

Node ids are ``q0, q1, ...`` in statement order (main first), matching the
paper's numbering convention for Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.scheme import Node, NodeKind, RPScheme
from ..errors import SemanticError
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
from .expr import Expr
from .parser import parse_program

#: A reference to a control point: a concrete node id, a label to resolve,
#: or a procedure entry to resolve.
Ref = Tuple[str, str]  # ("node"|"label"|"proc", name)


def _render_label(expr: Expr) -> str:
    """Expression text for an action/test label, outer parens stripped."""
    text = expr.render()
    while text.startswith("(") and text.endswith(")"):
        depth = 0
        for index, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0 and index != len(text) - 1:
                    return text  # the outer parens do not wrap everything
        text = text[1:-1]
    return text


@dataclass(frozen=True)
class ActionDef:
    """Semantics of a compiled ACTION node label."""

    kind: str  # "abstract" | "assign"
    target: Optional[str] = None
    scope: Optional[str] = None  # "global" | "local"
    value: Optional[Expr] = None


@dataclass(frozen=True)
class TestDef:
    """Semantics of a compiled TEST node label."""

    kind: str  # "abstract" | "expr"
    value: Optional[Expr] = None


@dataclass(frozen=True)
class CompiledProgram:
    """The result of compilation: scheme + interpretation tables."""

    program: Program
    scheme: RPScheme
    actions: Dict[str, ActionDef]
    tests: Dict[str, TestDef]
    node_lines: Dict[str, int]

    @property
    def is_fully_concrete(self) -> bool:
        """``True`` iff every test is an expression (required to build a
        deterministic interpretation; abstract *actions* are tolerated as
        no-ops)."""
        return all(d.kind == "expr" for d in self.tests.values())


class _NodeSpec:
    """A mutable node under construction (successors hold refs)."""

    __slots__ = ("node_id", "kind", "label", "successors", "invoked", "line")

    def __init__(self, node_id: str, kind: NodeKind, label: Optional[str], line: int) -> None:
        self.node_id = node_id
        self.kind = kind
        self.label = label
        self.successors: List[Optional[Ref]] = []
        self.invoked: Optional[Ref] = None
        self.line = line


class Compiler:
    """Single-use compiler for one program."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.specs: Dict[str, _NodeSpec] = {}
        self.actions: Dict[str, ActionDef] = {}
        self.tests: Dict[str, TestDef] = {}
        self.labels: Dict[Tuple[str, str], Ref] = {}
        self.proc_entries: Dict[str, Ref] = {}
        self._counter = 0
        self._current_proc: Optional[Procedure] = None
        self._global_names = {decl.name for decl in program.globals}

    # ------------------------------------------------------------------

    def compile(self) -> CompiledProgram:
        """Compile the program, returning scheme + interpretation tables."""
        self._check_declarations()
        for procedure in self.program.all_procedures():
            self._compile_procedure(procedure)
        nodes = self._resolve()
        root = self._resolve_ref(self.proc_entries[self.program.main.name])
        scheme = RPScheme(
            nodes,
            root=root,
            name=self.program.main.name,
            procedures={
                name: self._resolve_ref(ref)
                for name, ref in self.proc_entries.items()
            },
        )
        return CompiledProgram(
            program=self.program,
            scheme=scheme,
            actions=self.actions,
            tests=self.tests,
            node_lines={spec.node_id: spec.line for spec in self.specs.values()},
        )

    # ------------------------------------------------------------------
    # Declaration checks
    # ------------------------------------------------------------------

    def _check_declarations(self) -> None:
        seen_procs = set()
        for procedure in self.program.all_procedures():
            if procedure.name in seen_procs:
                raise SemanticError(f"duplicate procedure name {procedure.name!r}")
            seen_procs.add(procedure.name)
        seen_globals = set()
        for decl in self.program.globals:
            if decl.name in seen_globals:
                raise SemanticError(f"duplicate global variable {decl.name!r}")
            seen_globals.add(decl.name)
        for procedure in self.program.all_procedures():
            seen_locals = set()
            for decl in procedure.locals:
                if decl.name in seen_locals:
                    raise SemanticError(
                        f"duplicate local variable {decl.name!r} in {procedure.name!r}"
                    )
                seen_locals.add(decl.name)

    # ------------------------------------------------------------------
    # Procedure compilation
    # ------------------------------------------------------------------

    def _compile_procedure(self, procedure: Procedure) -> None:
        self._current_proc = procedure
        entry, dangling = self._compile_stmts(procedure.body)
        if dangling or entry is None:
            # control can fall off the end: add an implicit end node
            implicit = self._new_spec(NodeKind.END, None, procedure.line)
            self._patch(dangling, ("node", implicit.node_id))
            if entry is None:
                entry = ("node", implicit.node_id)
        self.proc_entries[procedure.name] = entry
        self._current_proc = None

    def _compile_stmts(
        self, stmts: Sequence[Stmt]
    ) -> Tuple[Optional[Ref], List[Tuple[str, int]]]:
        """Compile a statement sequence.

        Returns ``(entry, dangling)``: the entry reference (``None`` for an
        empty sequence — control passes straight through) and the list of
        ``(node_id, successor_index)`` slots to patch with the
        continuation.
        """
        entry: Optional[Ref] = None
        dangling: List[Tuple[str, int]] = []
        for stmt in stmts:
            stmt_entry, stmt_dangling = self._compile_stmt(stmt)
            for label in stmt.labels:
                key = (self._current_proc.name, label)
                if key in self.labels:
                    raise SemanticError(
                        f"duplicate label {label!r} in procedure "
                        f"{self._current_proc.name!r}"
                    )
                self.labels[key] = stmt_entry
            if entry is None:
                entry = stmt_entry
            else:
                self._patch(dangling, stmt_entry)
            dangling = stmt_dangling
        return entry, dangling

    def _compile_stmt(self, stmt: Stmt) -> Tuple[Ref, List[Tuple[str, int]]]:
        if isinstance(stmt, AbstractAction):
            self.actions.setdefault(stmt.name, ActionDef(kind="abstract"))
            spec = self._new_spec(NodeKind.ACTION, stmt.name, stmt.line)
            spec.successors = [None]
            return ("node", spec.node_id), [(spec.node_id, 0)]
        if isinstance(stmt, Assign):
            label = f"{stmt.target}:={_render_label(stmt.value)}"
            definition = ActionDef(
                kind="assign",
                target=stmt.target,
                scope=self._scope_of(stmt.target, stmt.line),
                value=stmt.value,
            )
            existing = self.actions.get(label)
            if existing is not None and existing != definition:
                raise SemanticError(
                    f"action label {label!r} maps to two different semantics "
                    f"(line {stmt.line})"
                )
            self.actions[label] = definition
            self._check_variables(stmt.value, stmt.line)
            spec = self._new_spec(NodeKind.ACTION, label, stmt.line)
            spec.successors = [None]
            return ("node", spec.node_id), [(spec.node_id, 0)]
        if isinstance(stmt, PCall):
            if self.program.procedure(stmt.procedure) is None:
                raise SemanticError(
                    f"pcall of unknown procedure {stmt.procedure!r} (line {stmt.line})"
                )
            spec = self._new_spec(NodeKind.PCALL, None, stmt.line)
            spec.successors = [None]
            spec.invoked = ("proc", stmt.procedure)
            return ("node", spec.node_id), [(spec.node_id, 0)]
        if isinstance(stmt, Wait):
            spec = self._new_spec(NodeKind.WAIT, None, stmt.line)
            spec.successors = [None]
            return ("node", spec.node_id), [(spec.node_id, 0)]
        if isinstance(stmt, End):
            spec = self._new_spec(NodeKind.END, None, stmt.line)
            return ("node", spec.node_id), []
        if isinstance(stmt, Goto):
            return ("label", f"{self._current_proc.name}::{stmt.label}"), []
        if isinstance(stmt, If):
            label = self._test_label(stmt.test, stmt.line)
            spec = self._new_spec(NodeKind.TEST, label, stmt.line)
            spec.successors = [None, None]
            then_entry, then_dangling = self._compile_stmts(stmt.then_body)
            else_entry, else_dangling = self._compile_stmts(stmt.else_body)
            dangling = list(then_dangling) + list(else_dangling)
            if then_entry is None:
                dangling.append((spec.node_id, 0))
            else:
                spec.successors[0] = then_entry
            if else_entry is None:
                dangling.append((spec.node_id, 1))
            else:
                spec.successors[1] = else_entry
            return ("node", spec.node_id), dangling
        if isinstance(stmt, While):
            label = self._test_label(stmt.test, stmt.line)
            spec = self._new_spec(NodeKind.TEST, label, stmt.line)
            spec.successors = [None, None]
            body_entry, body_dangling = self._compile_stmts(stmt.body)
            loop_ref: Ref = ("node", spec.node_id)
            if body_entry is None:
                spec.successors[0] = loop_ref  # empty body: tight loop
            else:
                spec.successors[0] = body_entry
                self._patch(body_dangling, loop_ref)
            return loop_ref, [(spec.node_id, 1)]
        raise SemanticError(f"unknown statement {stmt!r}")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _test_label(self, test: Union[str, Expr], line: int) -> str:
        if isinstance(test, str):
            self.tests.setdefault(test, TestDef(kind="abstract"))
            return test
        self._check_variables(test, line)
        label = _render_label(test)
        definition = TestDef(kind="expr", value=test)
        existing = self.tests.get(label)
        if existing is not None and existing != definition:
            raise SemanticError(
                f"test label {label!r} maps to two different semantics (line {line})"
            )
        self.tests[label] = definition
        return label

    def _scope_of(self, name: str, line: int) -> str:
        local_names = {decl.name for decl in self._current_proc.locals}
        if name in local_names:
            return "local"
        if name in self._global_names:
            return "global"
        raise SemanticError(
            f"assignment to undeclared variable {name!r} (line {line})"
        )

    def _check_variables(self, expr: Expr, line: int) -> None:
        local_names = {decl.name for decl in self._current_proc.locals}
        for name in expr.variables():
            if name not in local_names and name not in self._global_names:
                raise SemanticError(f"undeclared variable {name!r} (line {line})")

    def _new_spec(self, kind: NodeKind, label: Optional[str], line: int) -> _NodeSpec:
        node_id = f"q{self._counter}"
        self._counter += 1
        spec = _NodeSpec(node_id, kind, label, line)
        self.specs[node_id] = spec
        return spec

    def _patch(self, slots: List[Tuple[str, int]], target: Ref) -> None:
        for node_id, index in slots:
            self.specs[node_id].successors[index] = target

    # ------------------------------------------------------------------
    # Reference resolution
    # ------------------------------------------------------------------

    def _resolve(self) -> List[Node]:
        nodes: List[Node] = []
        for spec in self.specs.values():
            successors = [self._resolve_ref(ref) for ref in spec.successors]
            invoked = (
                self._resolve_ref(spec.invoked)
                if spec.invoked is not None
                else None
            )
            nodes.append(
                Node(
                    spec.node_id,
                    spec.kind,
                    label=spec.label,
                    successors=successors,
                    invoked=invoked,
                )
            )
        return nodes

    def _resolve_ref(self, ref: Optional[Ref]) -> str:
        """The node id *ref* leads to, following labels and procedures.

        A loop rather than recursion, so a long chain of ``goto``
        statements costs no stack.
        """
        seen = set()
        while True:
            if ref is None:
                raise SemanticError("internal error: unpatched successor slot")
            kind, name = ref
            if kind == "node":
                return name
            if ref in seen:
                raise SemanticError(f"goto cycle through label {name!r}")
            seen.add(ref)
            if kind == "label":
                proc, _, label = name.partition("::")
                ref = self.labels.get((proc, label))
                if ref is None:
                    raise SemanticError(
                        f"goto to undefined label {label!r} in procedure {proc!r}"
                    )
            elif kind == "proc":
                ref = self.proc_entries[name]
            else:
                raise SemanticError(f"internal error: unknown reference {ref!r}")


def compile_program(program: Program) -> CompiledProgram:
    """Compile a parsed program to a scheme + interpretation tables."""
    return Compiler(program).compile()


def compile_source(source: str) -> CompiledProgram:
    """Parse and compile RP source text in one step."""
    return compile_program(parse_program(source))
