"""Translation of structured RP programs into PA systems.

The paper proves RP schemes and finite PA declarations generate the same
class of languages.  The constructive direction implemented here maps
*structured* RP programs (the image of the front-end, without ``goto``)
to PA:

* an abstract action maps to an ``Act``;
* tests map to a choice between two ``b``-prefixed branches (the abstract
  model resolves tests nondeterministically, and the test label is
  visible on both branches, exactly as in ``M_G``);
* a ``pcall P`` puts ``Var(P)`` in parallel with the *continuation up to
  the next top-level wait*; the matching ``wait`` becomes the point where
  the parallel composition is sequenced with what follows —
  ``pcall P; s1; …; wait; rest`` becomes ``(P ∥ ⟦s1; …⟧) · ⟦rest⟧``,
  nested pcalls accumulating inside the left operand;
* ``while`` loops become fresh guarded process variables;
* ``end`` discards the continuation of the current invocation (children
  already live in an enclosing ``∥`` and keep running).

The translation accepts the structured fragment it can be faithful on
and raises :class:`TranslationError` otherwise:

* no ``goto`` (the control graph must be structured);
* a ``wait`` may not occur *inside* a branch when the corresponding
  pcalls happened outside it (the join structure must nest);
* loop bodies must be self-contained (children spawned in an iteration
  are joined within it).

τ-abstracted trace equality between the compiled scheme's ``M_G`` and the
translated PA system is checked (up to a length bound) by
:func:`traces_agree` and the test-suite — the executable version of the
paper's language-equality statement on the structured fragment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Union

from ..core.alphabet import TAU
from ..core.semantics import AbstractSemantics
from ..errors import RPError
from ..lang.ast import (
    AbstractAction,
    End,
    Goto,
    If,
    PCall,
    Program,
    Stmt,
    Wait,
    While,
)
from ..lts.traces import bounded_language
from .terms import Act, Nil, PASystem, Term, Var, choice, par, seq


class TranslationError(RPError):
    """The program is outside the translatable structured fragment."""


@dataclass(frozen=True)
class _LoopJump(Stmt):
    """Internal marker statement: continue at a loop's process variable."""

    name: str
    labels: tuple = ()


class _Translator:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.definitions: Dict[str, Term] = {}
        self._loop_counter = 0

    def translate(self) -> PASystem:
        for procedure in self.program.all_procedures():
            self.definitions[procedure.name] = self._stmts(
                list(procedure.body), pending=False
            )
        return PASystem(self.definitions, root=Var(self.program.main.name))

    # ------------------------------------------------------------------

    def _stmts(self, stmts: List[Stmt], pending: bool) -> Term:
        """Translate a statement list.

        ``pending`` is ``True`` inside the *before-the-wait* segment of an
        enclosing pcall: children of the enclosing invocation are waiting
        to be joined, so any ``wait`` nested in a branch or loop here would
        join them too — a shape PA's strictly nested ``(…∥…)·…`` cannot
        express, hence rejected.
        """
        if not stmts:
            return Nil()
        head, rest = stmts[0], stmts[1:]
        if isinstance(head, _LoopJump):
            if rest:
                raise TranslationError("statements after a loop back-jump")
            return Var(head.name)
        if isinstance(head, AbstractAction):
            return seq(Act(head.name), self._stmts(rest, pending))
        if isinstance(head, End):
            return Nil()
        if isinstance(head, Goto):
            raise TranslationError(
                "goto is outside the structured fragment (use while)"
            )
        if isinstance(head, Wait):
            # a top-level wait with no pending pcall is a no-op (pcall
            # splits consume the waits that do join children)
            return self._stmts(rest, pending)
        if isinstance(head, PCall):
            return self._pcall(head.procedure, rest, pending)
        if isinstance(head, If):
            test = self._test_label(head)
            then_term = self._branch(list(head.then_body), rest, pending)
            else_term = self._branch(list(head.else_body), rest, pending)
            return choice(seq(Act(test), then_term), seq(Act(test), else_term))
        if isinstance(head, While):
            return self._while(head, rest, pending)
        raise TranslationError(f"untranslatable statement {head!r}")

    def _branch(self, body: List[Stmt], rest: List[Stmt], pending: bool) -> Term:
        if pending and any(isinstance(s, Wait) for s in body):
            raise TranslationError(
                "a wait inside a branch would join children spawned outside "
                "the branch — outside the structured fragment"
            )
        return self._stmts(body + rest, pending)

    def _pcall(self, procedure: str, rest: List[Stmt], pending: bool) -> Term:
        if self.program.procedure(procedure) is None:
            raise TranslationError(f"pcall of unknown procedure {procedure!r}")
        # split the continuation at the first top-level wait
        for index, stmt in enumerate(rest):
            if isinstance(stmt, Wait):
                before, after = rest[:index], rest[index + 1 :]
                joined = par(Var(procedure), self._stmts(list(before), pending=True))
                return seq(joined, self._stmts(list(after), pending))
        # never joined at top level: the child runs in parallel with the
        # whole continuation, which therefore has pending children —
        # a wait nested anywhere in it would join them
        return par(Var(procedure), self._stmts(rest, pending=True))

    def _while(self, loop: While, rest: List[Stmt], pending: bool) -> Term:
        body = list(loop.body)
        pcalls = sum(isinstance(s, PCall) for s in body)
        waits = sum(isinstance(s, Wait) for s in body)
        if pcalls and not waits:
            raise TranslationError(
                "a loop body spawning unjoined children is outside the "
                "structured fragment"
            )
        if pending and waits:
            raise TranslationError(
                "a wait inside a loop would join children spawned outside "
                "the loop — outside the structured fragment"
            )
        test = self._test_label(loop)
        name = f"__loop{self._loop_counter}"
        self._loop_counter += 1
        continue_term = seq(Act(test), self._stmts(body + [_LoopJump(name)], False))
        exit_term = seq(Act(test), self._stmts(list(rest), pending))
        self.definitions[name] = choice(continue_term, exit_term)
        return Var(name)

    def _test_label(self, stmt: Union[If, While]) -> str:
        if not isinstance(stmt.test, str):
            raise TranslationError(
                "only abstract tests are translatable (PA has no memory)"
            )
        return stmt.test


def translate_program(program: Program) -> PASystem:
    """Translate a structured RP program into a PA system."""
    return _Translator(program).translate()


def traces_agree(program: Program, max_length: int, max_states: int = 100_000) -> bool:
    """Check τ-abstracted trace equality of the compiled scheme's ``M_G``
    and the translated PA system, up to *max_length* visible actions."""
    pa_traces = translate_program(program).traces(max_length)
    from ..lang.compiler import compile_program

    scheme = compile_program(program).scheme
    return pa_traces == scheme_weak_traces(scheme, max_length, max_states)


def scheme_weak_traces(scheme, max_length: int, max_states: int = 100_000) -> FrozenSet[tuple]:
    """Weak (visible) traces of ``M_G`` up to *max_length* visible steps.

    The exploration is bounded in visible depth; a scheme that can grow
    unboundedly through silent steps alone would not terminate here, so a
    state budget guards against that (none of the structured programs the
    front-end produces exhibit it — every loop carries a visible test).
    """
    semantics = AbstractSemantics(scheme)
    return bounded_language(
        semantics.initial_state,
        lambda state: ((t.label, t.target) for t in semantics.successors(state)),
        max_length,
        silent=frozenset({TAU}),
        max_states=max_states,
    )
