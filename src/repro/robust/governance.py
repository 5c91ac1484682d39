"""Budget installation and exhaustion policy for decision procedures.

Every decision procedure accepts a keyword-only ``budget=`` and runs its
body through :func:`governed`, which

1. installs the budget as the session's ambient budget (so the explore
   loop, the sup-reachability engine, the restricted inevitability
   search, ... all observe it without further plumbing);
2. starts the deadline clock and, on the way out, exports the budget's
   counters into the session's metrics registry;
3. applies the exhaustion policy: with ``on_exhaust="raise"`` (or no
   budget at all) a :class:`~repro.errors.BudgetExhausted` /
   :class:`~repro.errors.AnalysisBudgetExceeded` propagates; with
   ``on_exhaust="partial"`` it is converted into a
   :class:`~repro.robust.PartialVerdict` carrying a progress certificate
   and a resumable checkpoint of the session;
4. turns a :class:`RecursionError` (a state nested deeper than the
   engine's recursive state operations can follow) into an
   :class:`~repro.errors.AnalysisError` naming the limit, with or
   without a budget.

Only the procedure that was *called with* the budget converts — nested
procedure calls (``halts`` → ``boundedness``, ``persistent`` →
``reaches_downward_closed``) pass ``budget=None`` and let exhaustion
propagate, so a composite procedure never mistakes an inner UNKNOWN for
a conclusive sub-answer.

Exhaustion is also a **flight-recorder incident**: when a dump target is
configured (``RPCHECK_FLIGHT_DIR`` or a recorder ``dump_dir``), the
wrapper dumps a ``rpcheck-flight/1`` diagnostic bundle — recent spans,
metrics snapshot, the resumable checkpoint — and a partial verdict
carries the bundle path in ``details["flight_bundle"]``.  The dump is
idempotent per exception (the session's :meth:`phase` hook may already
have recorded it) and a no-op when no target is configured.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TypeVar

from ..errors import (
    AnalysisBudgetExceeded,
    AnalysisError,
    BudgetExhausted,
    too_tall_message,
)
from ..obs.recorder import record_incident
from .budget import Budget
from .partial import PartialVerdict, ProgressCertificate

__all__ = ["governed", "partial_verdict_from"]

T = TypeVar("T")


def governed(
    session,
    budget: Optional[Budget],
    question: str,
    body: Callable[[], T],
    *,
    allow_partial: bool = True,
) -> T:
    """Run *body* under *budget* on *session* (see module docstring).

    ``allow_partial=False`` disables the partial-verdict conversion even
    under ``on_exhaust="partial"`` — used by helpers whose return type is
    a witness or a list, where callers test ``is None`` and a truthy
    sentinel object would be misread.  Such helpers always raise on
    exhaustion (the budget is still installed and exported).
    """
    partial = allow_partial and budget is not None and budget.on_exhaust == "partial"
    if budget is not None:
        previous = session.budget
        session.budget = budget
        budget.start()
    try:
        return body()
    except BudgetExhausted as error:
        if not partial:
            raise
        return partial_verdict_from(  # type: ignore[return-value]
            session, question, error.resource, error
        )
    except AnalysisBudgetExceeded as error:
        # a plain state-budget exhaustion (max_states ran out) under a
        # partial-mode budget also degrades to a typed partial verdict
        if not partial:
            raise
        return partial_verdict_from(  # type: ignore[return-value]
            session, question, "states", error
        )
    except RecursionError as error:
        raise AnalysisError(too_tall_message(question)) from error
    finally:
        if budget is not None:
            session.budget = previous
            budget.export(session.metrics)


def partial_verdict_from(
    session, question: str, resource: str, error: Exception
) -> PartialVerdict:
    """Build the UNKNOWN-with-progress verdict for an interrupted run."""
    kept = session.memo.get("kept-states")
    progress_attrs = dict(getattr(error, "progress", None) or {})
    budget = session.budget
    progress = ProgressCertificate(
        resource=resource,
        states_explored=len(session.graph),
        frontier_size=len(session.frontier),
        elapsed_seconds=float(
            progress_attrs.pop("elapsed_seconds", None)
            or (budget.elapsed() if budget is not None else 0.0)
        ),
        checks=int(
            progress_attrs.pop("checks", None)
            or (budget.checks if budget is not None else 0)
        ),
        antichain_size=len(kept) if kept is not None else None,
        details={"message": str(error), **progress_attrs},
    )
    try:
        checkpoint = session.checkpoint()
    except Exception:  # pragma: no cover - checkpointing must never mask
        checkpoint = None
    bundle = record_incident(
        session,
        error,
        reason=f"{type(error).__name__} answering {question!r}",
        context={"question": question, "resource": resource},
    )
    details = {"resource": resource, "question": question}
    if bundle is not None:
        details["flight_bundle"] = bundle
    verdict = PartialVerdict(
        holds=False,
        method="partial",
        certificate=progress,
        exact=False,
        details=details,
        question=question,
        resource=resource,
        progress=progress,
        checkpoint=checkpoint,
    )
    session.metrics.counter(
        "analysis.partial_verdicts", "queries answered with a partial verdict"
    ).labels(resource=resource).inc()
    return verdict
