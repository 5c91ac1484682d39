"""Exception hierarchy for the RP framework.

Every error raised by the library derives from :class:`RPError`, so client
code can catch a single base class.  Sub-hierarchies mirror the package
layout: scheme construction, language front-end, analysis and interpretation
each have their own family.  :func:`error_block` is the one serialised
shape of an error, and :func:`too_tall_message` the one wording of a
state nested deeper than the recursion limit.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional


class RPError(Exception):
    """Base class of all errors raised by the RP framework."""


class SchemeError(RPError):
    """An RP scheme is structurally ill-formed."""


class StateError(RPError):
    """A hierarchical state is malformed or used inconsistently."""


class NotationError(StateError):
    """A textual hierarchical-state description could not be parsed."""


class LanguageError(RPError):
    """Base class for RP language front-end errors."""


class LexError(LanguageError):
    """The lexer met an unexpected character."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ParseError(LanguageError):
    """The parser met an unexpected token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class SemanticError(LanguageError):
    """A program is syntactically valid but semantically ill-formed.

    Examples: duplicate procedure names, ``goto`` to an undefined label,
    ``pcall`` of an unknown procedure.
    """


class AnalysisError(RPError):
    """Base class for analysis-engine errors."""


class AnalysisBudgetExceeded(AnalysisError):
    """A semi-decision procedure exhausted its exploration budget.

    The procedures of :mod:`repro.analysis` are exact on their documented
    completeness envelope; outside it they terminate with this exception
    instead of returning an unsound verdict.
    """

    def __init__(self, message: str, explored: int = 0) -> None:
        super().__init__(message)
        self.explored = explored


class BudgetExhausted(AnalysisBudgetExceeded):
    """A governed analysis ran out of a :class:`repro.robust.Budget` resource.

    ``resource`` names what ran out (``"deadline"``, ``"memory"``,
    ``"states"`` or ``"cancelled"``); ``progress`` is a free-form snapshot
    of how far the analysis got (states explored, frontier size, elapsed
    seconds, ...).  Subclassing :class:`AnalysisBudgetExceeded` keeps every
    existing budget guard (``analyze``'s graceful degradation, the CLI's
    inconclusive reporting) working unchanged for governed runs.
    """

    def __init__(
        self,
        message: str,
        *,
        resource: str,
        progress: "dict | None" = None,
        explored: int = 0,
    ) -> None:
        super().__init__(message, explored=explored)
        self.resource = resource
        self.progress = dict(progress or {})


def too_tall_message(question: str) -> str:
    """The :class:`AnalysisError` message for a :class:`RecursionError`.

    Comparing or rebuilding a hierarchical state recurses once per
    nesting level, so a state taller than Python's recursion limit
    ends *question* with this message instead of a bare
    :class:`RecursionError`.
    """
    return (
        f"{question}: a state is too tall for the engine: its nesting "
        f"passed Python's recursion limit ({sys.getrecursionlimit()})"
    )


class FaultInjected(RPError):
    """A fault deliberately injected by the chaos harness surfaced.

    Raised by :class:`repro.robust.chaos.ChaosSemantics` at plan-selected
    successor computations; reaching the caller uncaught *is* the correct
    behaviour (a clean, typed failure instead of a corrupted verdict).
    """


class CorruptionDetected(AnalysisError):
    """An analysis engine noticed semantically inconsistent transitions.

    The exploration loops validate that every transition returned by a
    semantics object actually leaves the state being expanded; a mismatch
    means the semantics layer (or a chaos wrapper) handed back corrupt
    data, and the analysis refuses to build a verdict on top of it.
    """


class CheckpointError(RPError):
    """A checkpoint could not be written, parsed, or restored."""


class InterpretationError(RPError):
    """An interpretation is inconsistent with the scheme it interprets."""


class ExecutionError(RPError):
    """A concrete execution under an interpretation failed."""


def error_block(error: Optional[BaseException]) -> Optional[Dict[str, str]]:
    """*error* as ``{"type": <class name>, "message": str(error)}``.

    The one shape a failure takes in an analysis response, a ledger
    entry and a flight-recorder bundle; ``None`` without an error.
    """
    if error is None:
        return None
    return {"type": type(error).__name__, "message": str(error)}
