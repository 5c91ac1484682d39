"""PA process terms (BPA + merge: sequential, parallel, choice, recursion).

The paper situates RP schemes in the process-algebra landscape: "RP
schemes and finite PA programs [BK89, BW90] generate the same class of
languages while Petri nets and RP schemes generate incomparable classes".
This module implements the PA fragment — action prefixing generalised to
full sequential composition ``X·Y``, free merge ``X∥Y`` (interleaving, no
communication), choice ``X+Y`` and guarded recursion — with its standard
structural operational semantics, including the termination predicate
``√`` that sequential composition needs.

Terms are immutable and normalised lightly (units of ``·`` and ``∥``
folded away) so explored state spaces stay canonical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Tuple

from ..errors import RPError
from ..lts.traces import bounded_language


class PAError(RPError):
    """A malformed PA specification (e.g. unguarded recursion)."""


class Term:
    """Base class of PA terms (frozen dataclasses below)."""

    def is_nil(self) -> bool:
        return isinstance(self, Nil)


@dataclass(frozen=True)
class Nil(Term):
    """The terminated process ``ε`` (√, no transitions)."""

    def __repr__(self) -> str:
        return "ε"


@dataclass(frozen=True)
class Act(Term):
    """An atomic action: ``a →a ε``."""

    action: str

    def __repr__(self) -> str:
        return self.action


@dataclass(frozen=True)
class Seq(Term):
    """Sequential composition ``X·Y``."""

    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"({self.left!r}·{self.right!r})"


@dataclass(frozen=True)
class Par(Term):
    """Free merge ``X∥Y`` (pure interleaving)."""

    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"({self.left!r}∥{self.right!r})"


@dataclass(frozen=True)
class Choice(Term):
    """Nondeterministic choice ``X+Y``."""

    left: Term
    right: Term

    def __repr__(self) -> str:
        return f"({self.left!r}+{self.right!r})"


@dataclass(frozen=True)
class Var(Term):
    """A process variable, bound in a :class:`PASystem`."""

    name: str

    def __repr__(self) -> str:
        return self.name


def seq(*terms: Term) -> Term:
    """Right-nested sequential composition with unit folding."""
    result: Term = Nil()
    for term in reversed(terms):
        if isinstance(term, Nil):
            continue
        result = term if isinstance(result, Nil) else Seq(term, result)
    return result


def par(*terms: Term) -> Term:
    """Merge with unit folding."""
    alive = [t for t in terms if not isinstance(t, Nil)]
    if not alive:
        return Nil()
    result = alive[0]
    for term in alive[1:]:
        result = Par(result, term)
    return result


def choice(*terms: Term) -> Term:
    """n-ary choice (must be non-empty)."""
    if not terms:
        raise PAError("empty choice")
    result = terms[0]
    for term in terms[1:]:
        result = Choice(result, term)
    return result


class PASystem:
    """A finite PA specification: defining equations + a root term."""

    def __init__(self, definitions: Mapping[str, Term], root: Term) -> None:
        self.definitions: Dict[str, Term] = dict(definitions)
        self.root = root
        self._check_bound(root, context="root")
        for name, body in self.definitions.items():
            self._check_bound(body, context=f"definition of {name!r}")
        self._check_guarded()

    def _check_bound(self, term: Term, context: str) -> None:
        for var in _variables(term):
            if var not in self.definitions:
                raise PAError(f"unbound variable {var!r} in {context}")

    def _check_guarded(self) -> None:
        """Every variable must be guarded: no cycle in the head-variable
        graph (unfolding variables alone must always hit an action)."""
        graph = {
            name: set(_head_variables(body))
            for name, body in self.definitions.items()
        }
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {name: WHITE for name in graph}

        def visit(name: str) -> None:
            colour[name] = GREY
            for succ in graph[name]:
                if colour[succ] == GREY:
                    raise PAError(f"unguarded recursion through {succ!r}")
                if colour[succ] == WHITE:
                    visit(succ)
            colour[name] = BLACK

        for name in graph:
            if colour[name] == WHITE:
                visit(name)

    # ------------------------------------------------------------------
    # Operational semantics
    # ------------------------------------------------------------------

    def terminated(self, term: Term) -> bool:
        """The termination predicate ``√``."""
        if isinstance(term, Nil):
            return True
        if isinstance(term, Act):
            return False
        if isinstance(term, (Seq, Par)):
            return self.terminated(term.left) and self.terminated(term.right)
        if isinstance(term, Choice):
            return self.terminated(term.left) or self.terminated(term.right)
        if isinstance(term, Var):
            return self._var_terminated(term.name, frozenset())
        raise PAError(f"unknown term {term!r}")

    def _var_terminated(self, name: str, unfolding: frozenset) -> bool:
        if name in unfolding:
            return False  # guarded systems: a cycle without actions is ⊥
        body = self.definitions[name]
        return self._terminated_in(body, unfolding | {name})

    def _terminated_in(self, term: Term, unfolding: frozenset) -> bool:
        if isinstance(term, Var):
            return self._var_terminated(term.name, unfolding)
        if isinstance(term, Nil):
            return True
        if isinstance(term, Act):
            return False
        if isinstance(term, (Seq, Par)):
            return self._terminated_in(term.left, unfolding) and self._terminated_in(
                term.right, unfolding
            )
        if isinstance(term, Choice):
            return self._terminated_in(term.left, unfolding) or self._terminated_in(
                term.right, unfolding
            )
        raise PAError(f"unknown term {term!r}")

    def successors(self, term: Term) -> List[Tuple[str, Term]]:
        """The SOS transitions of *term* (deduplicated, ordered)."""
        seen = set()
        result: List[Tuple[str, Term]] = []
        for label, target in self._successors(term):
            target = _normalise(target)
            key = (label, target)
            if key not in seen:
                seen.add(key)
                result.append((label, target))
        return result

    def _successors(self, term: Term) -> Iterator[Tuple[str, Term]]:
        if isinstance(term, (Nil,)):
            return
        elif isinstance(term, Act):
            yield (term.action, Nil())
        elif isinstance(term, Seq):
            for label, target in self._successors(term.left):
                yield (label, Seq(target, term.right))
            if self.terminated(term.left):
                yield from self._successors(term.right)
        elif isinstance(term, Par):
            for label, target in self._successors(term.left):
                yield (label, Par(target, term.right))
            for label, target in self._successors(term.right):
                yield (label, Par(term.left, target))
        elif isinstance(term, Choice):
            yield from self._successors(term.left)
            yield from self._successors(term.right)
        elif isinstance(term, Var):
            yield from self._successors(self.definitions[term.name])
        else:
            raise PAError(f"unknown term {term!r}")

    # ------------------------------------------------------------------

    def traces(self, max_length: int) -> frozenset:
        """The prefix-closed trace language up to *max_length*."""
        return bounded_language(self.root, self.successors, max_length)

    def completed_traces(self, max_length: int) -> frozenset:
        """Traces of runs reaching a terminated (√) residue."""
        return bounded_language(
            self.root, self.successors, max_length, accept=self.terminated
        )


def _variables(term: Term) -> Iterator[str]:
    if isinstance(term, Var):
        yield term.name
    elif isinstance(term, (Seq, Par, Choice)):
        yield from _variables(term.left)
        yield from _variables(term.right)


def _head_variables(term: Term) -> Iterator[str]:
    """Variables reachable at the head without passing an action."""
    if isinstance(term, Var):
        yield term.name
    elif isinstance(term, (Par,)):
        yield from _head_variables(term.left)
        yield from _head_variables(term.right)
    elif isinstance(term, Choice):
        yield from _head_variables(term.left)
        yield from _head_variables(term.right)
    elif isinstance(term, Seq):
        yield from _head_variables(term.left)


def _normalise(term: Term) -> Term:
    """Fold ε units of · and ∥ (keeps explored state spaces canonical)."""
    if isinstance(term, Seq):
        left, right = _normalise(term.left), _normalise(term.right)
        if isinstance(left, Nil):
            return right
        if isinstance(right, Nil):
            return left
        return Seq(left, right)
    if isinstance(term, Par):
        left, right = _normalise(term.left), _normalise(term.right)
        if isinstance(left, Nil):
            return right
        if isinstance(right, Nil):
            return left
        return Par(left, right)
    if isinstance(term, Choice):
        return Choice(_normalise(term.left), _normalise(term.right))
    return term
