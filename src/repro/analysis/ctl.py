"""CTL model checking over bounded RP schemes.

The paper's opening frames the field: "systems are commonly modeled by
various types of transition systems [and] most problems of system
analysis reduce to various kinds of reachability problems on these
models" [BCM+92].  For *bounded* schemes the reachable fragment of
``M_G`` is an explicit finite Kripke structure, so full CTL is decidable
by the classical fixpoint labelling algorithm — this module implements
it, with atomic propositions over hierarchical states.

Atoms are predicates on states; ready-made ones cover the questions of
Section 3/5, and the test-suite cross-checks:

* ``EF node(q)``          ⟷  node reachability,
* ``AG ¬(node(q)∧node(r))`` ⟷  mutual exclusion,
* ``AF empty``            ⟷  halting,
* ``AG EF empty``         ⟷  normedness.

Syntax (Python combinators)::

    f = AG(Implies(node("q4"), AF(atom("terminated", HState.is_empty))))

Checking is exact and raises
:class:`~repro.errors.AnalysisBudgetExceeded` on unbounded schemes (the
finite-state hypothesis of the algorithm).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set

from ..core.hstate import HState
from ..core.scheme import RPScheme
from ..robust.governance import governed
from .certificates import AnalysisVerdict
from .explore import DEFAULT_MAX_STATES, StateGraph
from .session import AnalysisSession, resolve_session

# ----------------------------------------------------------------------
# Formulae
# ----------------------------------------------------------------------


class Formula:
    """Base class of CTL formulae (immutable)."""

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Not(self)


@dataclass(frozen=True)
class Atom(Formula):
    """An atomic proposition: a named predicate over states."""

    name: str
    predicate: Callable[[HState], bool]

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TrueF(Formula):
    def __repr__(self) -> str:
        return "⊤"


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def __repr__(self) -> str:
        return f"¬{self.operand!r}"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} ∧ {self.right!r})"


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} ∨ {self.right!r})"


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"({self.left!r} → {self.right!r})"


@dataclass(frozen=True)
class EX(Formula):
    operand: Formula

    def __repr__(self) -> str:
        return f"EX {self.operand!r}"


@dataclass(frozen=True)
class EF(Formula):
    operand: Formula

    def __repr__(self) -> str:
        return f"EF {self.operand!r}"


@dataclass(frozen=True)
class EG(Formula):
    operand: Formula

    def __repr__(self) -> str:
        return f"EG {self.operand!r}"


@dataclass(frozen=True)
class EU(Formula):
    """``E[left U right]``."""

    left: Formula
    right: Formula

    def __repr__(self) -> str:
        return f"E[{self.left!r} U {self.right!r}]"


def AX(operand: Formula) -> Formula:
    """``AX f ≡ ¬EX ¬f``."""
    return Not(EX(Not(operand)))


def AF(operand: Formula) -> Formula:
    """``AF f ≡ ¬EG ¬f``."""
    return Not(EG(Not(operand)))


def AG(operand: Formula) -> Formula:
    """``AG f ≡ ¬EF ¬f``."""
    return Not(EF(Not(operand)))


# -- atoms --------------------------------------------------------------


def atom(name: str, predicate: Callable[[HState], bool]) -> Atom:
    """An arbitrary named atomic proposition."""
    return Atom(name, predicate)


def node(node_id: str) -> Atom:
    """"some invocation is at *node_id*"."""
    return Atom(f"node({node_id})", lambda s: s.contains_node(node_id))


def terminated() -> Atom:
    """"the state is ∅"."""
    return Atom("terminated", lambda s: s.is_empty())


def width_at_least(count: int) -> Atom:
    """"at least *count* invocations are live"."""
    return Atom(f"width≥{count}", lambda s: s.size >= count)


# ----------------------------------------------------------------------
# Checker
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CTLResult(AnalysisVerdict):
    """Outcome of a check: initial-state verdict + full labelling.

    An :class:`~repro.analysis.certificates.AnalysisVerdict` (so the CTL
    entry point fits the uniform analysis API) extended with the formula,
    the full satisfying-state labelling, and the model size.
    """

    formula: Optional[Formula] = None
    satisfying: FrozenSet[HState] = frozenset()
    states: int = 0


class CTLChecker:
    """Fixpoint labelling over a saturated state graph."""

    def __init__(self, graph: StateGraph) -> None:
        if not graph.complete:
            raise ValueError("CTL checking requires a saturated state graph")
        self.graph = graph
        self._predecessors: Dict[HState, List[HState]] = {}
        for state in graph.states:
            for transition in graph.successors(state):
                self._predecessors.setdefault(transition.target, []).append(state)
        self._cache: Dict[Formula, FrozenSet[HState]] = {}

    def satisfying(self, formula: Formula) -> FrozenSet[HState]:
        """The set of states satisfying *formula*."""
        cached = self._cache.get(formula)
        if cached is not None:
            return cached
        result = frozenset(self._evaluate(formula))
        self._cache[formula] = result
        return result

    def holds(self, formula: Formula) -> bool:
        """Does the initial state satisfy *formula*?"""
        return self.graph.initial in self.satisfying(formula)

    # -- evaluation ---------------------------------------------------

    def _evaluate(self, formula: Formula) -> Set[HState]:
        states = self.graph.states
        if isinstance(formula, TrueF):
            return set(states)
        if isinstance(formula, Atom):
            return {s for s in states if formula.predicate(s)}
        if isinstance(formula, Not):
            return set(states) - self.satisfying(formula.operand)
        if isinstance(formula, And):
            return set(self.satisfying(formula.left)) & self.satisfying(formula.right)
        if isinstance(formula, Or):
            return set(self.satisfying(formula.left)) | self.satisfying(formula.right)
        if isinstance(formula, Implies):
            return (set(states) - self.satisfying(formula.left)) | self.satisfying(
                formula.right
            )
        if isinstance(formula, EX):
            good = self.satisfying(formula.operand)
            return {
                s
                for s in states
                if any(t.target in good for t in self.graph.successors(s))
            }
        if isinstance(formula, EF):
            return self._backward_closure(self.satisfying(formula.operand))
        if isinstance(formula, EU):
            holding = self.satisfying(formula.left)
            return self._backward_closure(
                self.satisfying(formula.right), through=holding
            )
        if isinstance(formula, EG):
            return self._greatest_eg(self.satisfying(formula.operand))
        raise TypeError(f"unknown formula {formula!r}")

    def _backward_closure(
        self, seeds: FrozenSet[HState], through: Optional[FrozenSet[HState]] = None
    ) -> Set[HState]:
        result = set(seeds)
        frontier = list(seeds)
        while frontier:
            state = frontier.pop()
            for predecessor in self._predecessors.get(state, ()):
                if predecessor in result:
                    continue
                if through is not None and predecessor not in through:
                    continue
                result.add(predecessor)
                frontier.append(predecessor)
        return result

    def _greatest_eg(self, good: FrozenSet[HState]) -> Set[HState]:
        # EG f: greatest fixpoint — prune states without a good successor.
        # Deadlocked states (∅ only, by Prop 3) have no infinite path; on
        # finite maximal paths the standard convention keeps EG true at a
        # terminal state satisfying f (the maximal path stays in f).
        current = set(good)
        changed = True
        while changed:
            changed = False
            for state in list(current):
                successors = self.graph.successors(state)
                if not successors:
                    continue  # terminal maximal run, stays in f
                if not any(t.target in current for t in successors):
                    current.discard(state)
                    changed = True
        return current


def session_checker(sess: AnalysisSession, graph: StateGraph) -> CTLChecker:
    """The checker over *sess*'s saturated *graph*, built once per session.

    Safe to cache for the session's life: the checker demands a
    saturated graph, and a saturated graph never grows again.
    """
    checker = sess.memo.get("ctl-checker")
    if checker is None:
        checker = CTLChecker(graph)
        sess.memo["ctl-checker"] = checker
    return checker


def check_ctl(
    scheme: RPScheme,
    formula: Formula,
    *,
    initial: Optional[HState] = None,
    max_states: Optional[int] = None,
    session: Optional[AnalysisSession] = None,
    budget: Optional[Any] = None,
) -> CTLResult:
    """Model-check *formula* on the reachable fragment of ``M_G``.

    Raises :class:`~repro.errors.AnalysisBudgetExceeded` when the scheme
    does not saturate within the budget.  With a ``session=``, the
    saturated graph, its predecessor index, and every sub-formula
    labelling are shared between checks (the checker caches by formula).
    A ``budget=`` governs the exploration phase; the fixpoint labelling
    itself runs on the already-saturated finite graph.
    """
    sess = resolve_session(scheme, session, initial)

    def body() -> CTLResult:
        with sess.phase("check-ctl", formula=str(formula)):
            graph = sess.explore_or_raise(max_states, what="CTL model checking")
            satisfying = session_checker(sess, graph).satisfying(formula)
        return CTLResult(
            holds=graph.initial in satisfying,
            method="ctl-labelling",
            details={"explored": len(graph)},
            formula=formula,
            satisfying=satisfying,
            states=len(graph),
        )

    return governed(sess, budget, f"check-ctl({formula!r})", body)
