"""``repro.api`` — the typed request/response facade over the analyses.

Every way of asking this framework a question — the ``rpcheck`` CLI, an
in-process library call, the :mod:`repro.serve` daemon, the benchmark
drivers — goes through the same two dataclasses:

* :class:`AnalysisRequest` — *what to analyse*: an RP program source (or
  the ``sha256:16hex`` fingerprint of a scheme the server already
  holds), the procedure to run, its parameters, an optional budget
  specification and trace options.  Serialises to the versioned
  ``rpcheck-request/1`` JSON shape.
* :class:`AnalysisResponse` — *the answer*: a uniform ``verdict`` string
  plus the conclusive fields (``holds``/``method``/``exact``), the
  partial/exhaustion structure for interrupted runs, per-procedure
  summaries, session stats, the scheme identity block and the run id.
  Serialises to ``rpcheck-response/1``.

:func:`execute` is the one evaluation path: it resolves the scheme,
builds the per-request :class:`~repro.robust.Budget` from the request's
:class:`BudgetSpec`, dispatches to the decision procedure, converts the
result (including :class:`~repro.robust.PartialVerdict` structure and
budget exhaustion) into a response, and optionally appends the query to
a run ledger.  Because the CLI, the serve daemon and library callers are
all thin adapters over ``execute``, the wire protocol, the command line
and the in-process API cannot drift apart: a verdict has exactly one
shape.

The procedure registry (:data:`PROCEDURES`) names the queries a request
may ask for; each entry adapts one keyword-only decision-procedure entry
point from :mod:`repro.analysis`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .analysis import (
    AnalysisSession,
    SchemeReport,
    analyze,
    boundedness,
    halts,
    may_terminate,
    mutually_exclusive,
    node_reachable,
    normed,
    persistent,
    sup_reachability,
)
from .core.scheme import RPScheme
from .errors import AnalysisBudgetExceeded, BudgetExhausted, RPError, error_block
from .obs.ledger import make_entry, new_run_id, scheme_fingerprint, verdict_summary
from .obs.tracer import TraceContext, trace_context

__all__ = [
    "REQUEST_SCHEMA",
    "RESPONSE_SCHEMA",
    "PROCEDURES",
    "ApiError",
    "BudgetSpec",
    "TraceOptions",
    "AnalysisRequest",
    "AnalysisResponse",
    "resolve_scheme",
    "execute",
    "parallel_ledger_fields",
    "worker_expansions",
]

#: Wire schema tag of a serialised :class:`AnalysisRequest`.
REQUEST_SCHEMA = "rpcheck-request/1"

#: Wire schema tag of a serialised :class:`AnalysisResponse`.
RESPONSE_SCHEMA = "rpcheck-response/1"


class ApiError(RPError):
    """A malformed or unanswerable request (bad schema, unknown procedure,
    missing scheme source, unknown fingerprint)."""


# ----------------------------------------------------------------------
# Request-side value objects
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BudgetSpec:
    """A JSON-portable description of a per-request resource budget.

    The spec is pure data (no clocks, no state) so it can cross the wire;
    :meth:`to_budget` instantiates the live
    :class:`~repro.robust.Budget`, optionally wiring in a server-side
    :class:`~repro.robust.CancelToken`.  ``on_exhaust`` defaults to
    ``"partial"`` — a remote caller wants a structured UNKNOWN, not a
    dropped connection.
    """

    deadline: Optional[float] = None
    max_states: Optional[int] = None
    max_memory_mib: Optional[float] = None
    on_exhaust: str = "partial"

    def to_budget(self, *, cancel: Any = None):
        """The live :class:`~repro.robust.Budget` for this spec."""
        from .robust import Budget

        return Budget(
            deadline=self.deadline,
            max_states=self.max_states,
            max_memory_bytes=(
                int(self.max_memory_mib * 1024 * 1024)
                if self.max_memory_mib is not None
                else None
            ),
            cancel=cancel,
            on_exhaust=self.on_exhaust,
        )

    def validate(self) -> "BudgetSpec":
        """Raise :class:`ApiError` on a field of the wrong type or sign;
        returns self."""
        for key, types in (
            ("deadline", (int, float)),
            ("max_states", int),
            ("max_memory_mib", (int, float)),
        ):
            value = getattr(self, key)
            if value is not None and (
                not isinstance(value, types)
                or isinstance(value, bool)
                or not value >= 0  # NaN included
            ):
                raise ApiError(
                    f"budget {key} must be None or a non-negative "
                    f"{'int' if types is int else 'number'}, got {value!r}"
                )
        if self.on_exhaust not in ("raise", "partial"):
            raise ApiError(
                "budget on_exhaust must be 'raise' or 'partial', "
                f"got {self.on_exhaust!r}"
            )
        return self

    def as_dict(self) -> Dict[str, Any]:
        return {
            "deadline": self.deadline,
            "max_states": self.max_states,
            "max_memory_mib": self.max_memory_mib,
            "on_exhaust": self.on_exhaust,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BudgetSpec":
        unknown = set(payload) - {
            "deadline", "max_states", "max_memory_mib", "on_exhaust",
        }
        if unknown:
            raise ApiError(f"budget spec has unknown keys: {sorted(unknown)}")
        return cls(
            deadline=payload.get("deadline"),
            max_states=payload.get("max_states"),
            max_memory_mib=payload.get("max_memory_mib"),
            on_exhaust=payload.get("on_exhaust", "partial"),
        )


@dataclass(frozen=True)
class TraceOptions:
    """What telemetry a request wants back.

    ``stream`` asks the serve daemon to forward span/event records to the
    client as they happen (``{"type": "event", ...}`` lines ahead of the
    final response); ``stats`` includes the session-counter snapshot in
    the response (on by default — it is small and always useful).
    """

    stream: bool = False
    stats: bool = True

    def as_dict(self) -> Dict[str, Any]:
        return {"stream": self.stream, "stats": self.stats}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceOptions":
        unknown = set(payload) - {"stream", "stats"}
        if unknown:
            raise ApiError(f"trace options have unknown keys: {sorted(unknown)}")
        return cls(
            stream=bool(payload.get("stream", False)),
            stats=bool(payload.get("stats", True)),
        )


@dataclass(frozen=True)
class AnalysisRequest:
    """One analysis question, in wire-portable form.

    Exactly one of *source* (RP program text, compiled server-side) or
    *fingerprint* (the ledger's ``sha256:16hex`` scheme fingerprint,
    resolved against a session pool that already holds the scheme) must
    identify the subject.  *params* are the procedure's keyword
    arguments (``max_states``, ``node``, ``first``/``second``, ...);
    unknown parameters are rejected at execution time by the procedure's
    own keyword-only signature.
    """

    procedure: str
    source: Optional[str] = None
    fingerprint: Optional[str] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    budget: Optional[BudgetSpec] = None
    trace: TraceOptions = field(default_factory=TraceOptions)
    request_id: Optional[str] = None
    #: Exploration worker processes for this query (``None`` = the
    #: server's default, which is the sequential path).  Honored by
    #: :func:`execute` and the serve daemon; see docs/performance.md.
    workers: Optional[int] = None
    #: Propagated distributed-trace context (W3C-shaped:
    #: ``00-<32 hex trace id>-<16 hex parent span id>-01``; an all-zero
    #: parent field means "trace id only").  When set, the server's root
    #: span for this query joins the caller's trace instead of minting a
    #: fresh one — see :class:`repro.obs.TraceContext` and
    #: docs/serving.md.  Optional and additive to ``rpcheck-request/1``.
    traceparent: Optional[str] = None

    def validate(self) -> "AnalysisRequest":
        """Raise :class:`ApiError` on structural problems; returns self."""
        if self.procedure not in PROCEDURES:
            raise ApiError(
                f"unknown procedure {self.procedure!r} "
                f"(known: {', '.join(sorted(PROCEDURES))})"
            )
        if self.source is None and self.fingerprint is None:
            raise ApiError("request needs a scheme source or a fingerprint")
        if self.source is not None and self.fingerprint is not None:
            raise ApiError("request may carry a source or a fingerprint, not both")
        if not isinstance(self.params, Mapping):
            raise ApiError("params must be a mapping")
        if self.workers is not None and (
            not isinstance(self.workers, int)
            or isinstance(self.workers, bool)
            or self.workers < 1
        ):
            raise ApiError(f"workers must be a positive int, got {self.workers!r}")
        if self.budget is not None:
            self.budget.validate()
        if self.traceparent is not None and not isinstance(self.traceparent, str):
            raise ApiError(
                f"traceparent must be a string, got {self.traceparent!r}"
            )
        return self

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": REQUEST_SCHEMA,
            "procedure": self.procedure,
            "source": self.source,
            "fingerprint": self.fingerprint,
            "params": dict(self.params),
            "budget": self.budget.as_dict() if self.budget is not None else None,
            "trace": self.trace.as_dict(),
            "request_id": self.request_id,
            "workers": self.workers,
            "traceparent": self.traceparent,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "AnalysisRequest":
        if not isinstance(payload, Mapping):
            raise ApiError("request payload is not an object")
        schema = payload.get("schema")
        if schema != REQUEST_SCHEMA:
            raise ApiError(
                f"request schema is {schema!r}, expected {REQUEST_SCHEMA!r}"
            )
        budget = payload.get("budget")
        trace = payload.get("trace")
        return cls(
            procedure=payload.get("procedure", ""),
            source=payload.get("source"),
            fingerprint=payload.get("fingerprint"),
            params=dict(payload.get("params") or {}),
            budget=BudgetSpec.from_dict(budget) if budget is not None else None,
            trace=TraceOptions.from_dict(trace) if trace is not None else TraceOptions(),
            request_id=payload.get("request_id"),
            workers=payload.get("workers"),
            traceparent=payload.get("traceparent"),
        ).validate()


# ----------------------------------------------------------------------
# Response
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisResponse:
    """The uniform answer shape every consumer reads.

    ``verdict`` is one of ``"yes"``/``"no"`` (a conclusive boolean
    answer), ``"unknown"`` (a partial verdict — see ``partial``),
    ``"inconclusive"`` (a state budget ran out without a partial-mode
    budget), ``"conclusive"`` (a fully answered battery), or ``"error"``
    (see ``error``).  ``procedures`` carries
    :func:`~repro.obs.ledger.verdict_summary`-shaped blocks — one per
    answered question, several for the ``analyze`` battery — which is
    also exactly what the run ledger records, so wire answers and ledger
    history stay comparable.
    """

    procedure: str
    verdict: str
    holds: Optional[bool] = None
    method: Optional[str] = None
    exact: Optional[bool] = None
    partial: Optional[Dict[str, Any]] = None
    procedures: Dict[str, Any] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    scheme: Optional[Dict[str, Any]] = None
    error: Optional[Dict[str, str]] = None
    run_id: Optional[str] = None
    request_id: Optional[str] = None
    elapsed_seconds: float = 0.0
    #: Echo of the request's propagated trace context (``None`` when the
    #: caller sent none) — lets a client confirm its query joined the
    #: intended trace.  Excluded from :meth:`comparable` by design.
    traceparent: Optional[str] = None

    @classmethod
    def failure(
        cls, procedure: str, error: BaseException, **fields: Any
    ) -> "AnalysisResponse":
        """The ``verdict: "error"`` response naming *error*'s class and
        message; *fields* set the rest (``request_id``, ``run_id``, ...)."""
        return cls(
            procedure=procedure, verdict="error", error=error_block(error), **fields
        )

    @property
    def ok(self) -> bool:
        """The request was answered (possibly partially) without erroring."""
        return self.error is None

    def to_json_dict(self) -> Dict[str, Any]:
        return {
            "schema": RESPONSE_SCHEMA,
            "procedure": self.procedure,
            "verdict": self.verdict,
            "holds": self.holds,
            "method": self.method,
            "exact": self.exact,
            "partial": self.partial,
            "procedures": dict(self.procedures),
            "details": dict(self.details),
            "stats": dict(self.stats),
            "scheme": self.scheme,
            "error": self.error,
            "run_id": self.run_id,
            "request_id": self.request_id,
            "elapsed_seconds": self.elapsed_seconds,
            "traceparent": self.traceparent,
        }

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, Any]) -> "AnalysisResponse":
        if not isinstance(payload, Mapping):
            raise ApiError("response payload is not an object")
        schema = payload.get("schema")
        if schema != RESPONSE_SCHEMA:
            raise ApiError(
                f"response schema is {schema!r}, expected {RESPONSE_SCHEMA!r}"
            )
        return cls(
            procedure=payload.get("procedure", ""),
            verdict=payload.get("verdict", "error"),
            holds=payload.get("holds"),
            method=payload.get("method"),
            exact=payload.get("exact"),
            partial=payload.get("partial"),
            procedures=dict(payload.get("procedures") or {}),
            details=dict(payload.get("details") or {}),
            stats=dict(payload.get("stats") or {}),
            scheme=payload.get("scheme"),
            error=payload.get("error"),
            run_id=payload.get("run_id"),
            request_id=payload.get("request_id"),
            elapsed_seconds=float(payload.get("elapsed_seconds") or 0.0),
            traceparent=payload.get("traceparent"),
        )

    def comparable(self) -> Dict[str, Any]:
        """The run-invariant answer fields (the differential-gate view).

        Drops everything that legitimately varies between an in-process
        and a served evaluation of the same request — run ids, timings,
        stats, progress counters — and keeps what must never drift: the
        verdict, the per-procedure summaries, and the partial/exhaustion
        *structure* (which resource ran out, whether a resume token was
        attached).
        """
        partial = None
        if self.partial is not None:
            partial = {
                "resource": self.partial.get("resource"),
                "resumable": self.partial.get("resumable"),
            }
        return {
            "procedure": self.procedure,
            "verdict": self.verdict,
            "holds": self.holds,
            "method": self.method,
            "exact": self.exact,
            "partial": partial,
            "procedures": dict(self.procedures),
            "error": None if self.error is None else self.error.get("type"),
        }


# ----------------------------------------------------------------------
# Procedure registry
# ----------------------------------------------------------------------


def _single(procedure: Callable[..., Any], *required: str):
    """Adapt one single-verdict decision procedure into the registry shape."""

    def run(scheme, session, budget, params: Dict[str, Any]):
        missing = [name for name in required if name not in params]
        if missing:
            raise ApiError(
                f"procedure requires parameter(s): {', '.join(missing)}"
            )
        positional = [params.pop(name) for name in required]
        return procedure(
            scheme, *positional, session=session, budget=budget, **params
        )

    return run


def _run_analyze(scheme, session, budget, params: Dict[str, Any]):
    return analyze(scheme, session=session, budget=budget, **params)


#: Request-addressable procedures.  Values take ``(scheme, session,
#: budget, params)`` and return a verdict object or a ``SchemeReport``.
PROCEDURES: Dict[str, Callable[..., Any]] = {
    "analyze": _run_analyze,
    "boundedness": _single(boundedness),
    "halts": _single(halts),
    "may_terminate": _single(may_terminate),
    "normed": _single(normed),
    "node_reachable": _single(node_reachable, "node"),
    "mutually_exclusive": _single(mutually_exclusive, "first", "second"),
    "sup_reachability": _single(sup_reachability),
    "persistent": _single(persistent, "nodes"),
}


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def worker_expansions(metrics: Mapping[str, Any]) -> Dict[str, int]:
    """Per-worker states-expanded counts from a metrics snapshot.

    Reads the ``parallel.states_expanded{worker=i}`` labelled children a
    sharded exploration folds into the session registry; empty for
    sequential runs.  Keys are worker indices as strings (JSON-stable).
    """
    counter = metrics.get("parallel.states_expanded")
    if not isinstance(counter, Mapping):
        return {}
    labels = counter.get("labels")
    if not isinstance(labels, Mapping):
        return {}
    out: Dict[str, int] = {}
    for key, child in labels.items():
        if not isinstance(child, Mapping):
            continue
        worker = key.strip("{}").split("=", 1)[-1]
        out[worker] = int(child.get("value", 0))
    return out


def parallel_ledger_fields(workers: int, metrics: Mapping[str, Any]) -> Dict[str, Any]:
    """The run ledger's ``extra`` fields for a run with *workers* workers.

    Always ``workers``; then, read from the metrics snapshot, the
    per-worker expansion counts (so ``rpcheck diff`` can tell a
    parallelism win from an algorithmic one) and whether a worker
    failure degraded the run to local expansion — each only when
    present.  ``execute`` and the CLI both record these.
    """
    fields: Dict[str, Any] = {"workers": workers}
    expansions = worker_expansions(metrics)
    if expansions:
        fields["worker_expansions"] = expansions
    if metrics.get("parallel.degraded", {}).get("value"):
        fields["parallel_degraded"] = True
    return fields


def resolve_scheme(request: AnalysisRequest) -> RPScheme:
    """Compile the request's source into a scheme (source requests only)."""
    if request.source is None:
        raise ApiError(
            f"fingerprint {request.fingerprint!r} cannot be resolved without "
            f"a session pool holding that scheme"
        )
    from .lang import compile_source

    return compile_source(request.source).scheme


def _partial_block(verdict: Any) -> Dict[str, Any]:
    progress = getattr(verdict, "progress", None)
    block: Dict[str, Any] = {
        "resource": getattr(verdict, "resource", None),
        "resumable": bool(getattr(verdict, "resumable", False)),
    }
    if progress is not None:
        block.update(
            states_explored=progress.states_explored,
            frontier_size=progress.frontier_size,
            elapsed_seconds=progress.elapsed_seconds,
        )
    return block


def _verdict_fields(procedure: str, result: Any) -> Dict[str, Any]:
    """Map a procedure result onto the response's verdict fields."""
    if isinstance(result, SchemeReport):
        summaries = {
            "boundedness": verdict_summary(result.bounded),
            "halting": verdict_summary(result.halting),
            "normedness": verdict_summary(result.normedness),
        }
        return {
            "verdict": "conclusive" if result.conclusive else "inconclusive",
            "procedures": summaries,
            "details": {
                "conclusive": result.conclusive,
                "wait_free": result.wait_free,
                "unreachable_nodes": list(result.unreachable_nodes),
                "inconclusive_nodes": list(result.inconclusive_nodes),
                "basis": None
                if result.basis is None
                else [state.to_notation() for state in result.basis],
                "render": result.render(),
            },
        }
    if getattr(result, "is_partial", False):
        return {
            "verdict": "unknown",
            "holds": None,
            "method": getattr(result, "method", "partial"),
            "exact": False,
            "partial": _partial_block(result),
            "procedures": {procedure: verdict_summary(result)},
            "details": {"describe": result.describe()},
        }
    # a conclusive AnalysisVerdict (or CTLResult — same surface)
    certificate = getattr(result, "certificate", None)
    details: Dict[str, Any] = {}
    basis = getattr(certificate, "basis", None)
    if basis is not None:
        details["basis"] = [state.to_notation() for state in basis]
    return {
        "verdict": "yes" if result.holds else "no",
        "holds": bool(result.holds),
        "method": getattr(result, "method", None),
        "exact": getattr(result, "exact", None),
        "procedures": {procedure: verdict_summary(result)},
        "details": details,
    }


def execute(
    request: AnalysisRequest,
    *,
    scheme: Optional[RPScheme] = None,
    session: Optional[AnalysisSession] = None,
    budget: Any = None,
    ledger: Any = None,
    ledger_kind: str = "api",
) -> AnalysisResponse:
    """Answer *request*; never raises for analysis-level failures.

    *scheme*/*session* let a caller that already holds a compiled scheme
    (the CLI's one-session-per-invocation, the serve daemon's warm pool)
    skip compilation and share exploration; otherwise the request's
    source is compiled and a throwaway session is used, closed on every
    way out.  *budget* overrides the request's :class:`BudgetSpec` with
    an already-built :class:`~repro.robust.Budget` (the CLI does this to
    keep one cumulative budget across several queries, the serve daemon
    to start the clock at arrival and carry its cancel token).

    With *ledger* (a :class:`~repro.obs.Ledger`), the query is appended
    as one ``rpcheck-ledger/1`` entry of kind *ledger_kind* — served
    queries land in the same history as every other run.

    Structural problems (:class:`ApiError`), analysis errors
    (:class:`~repro.errors.RPError`) and plain state-budget exhaustion
    all come back as responses (``verdict="error"`` /
    ``"inconclusive"``), because a remote caller cannot catch.
    """
    started_wall = time.perf_counter()
    started_cpu = time.process_time()
    rid = new_run_id()
    try:
        request.validate()
        subject = scheme if scheme is not None else resolve_scheme(request)
    except RPError as error:
        return AnalysisResponse.failure(
            request.procedure,
            error,
            run_id=rid,
            request_id=request.request_id,
            elapsed_seconds=time.perf_counter() - started_wall,
            traceparent=request.traceparent,
        )
    owns_session = session is None
    if owns_session:
        sess = AnalysisSession(subject, workers=request.workers or 1)
    else:
        sess = session
        if request.workers is not None:
            # honor the request's knob on a shared (pooled) session; the
            # serve daemon resets this per query so worker counts never
            # leak between requests
            sess.workers = request.workers
    try:
        live_budget = budget
        if live_budget is None and request.budget is not None:
            live_budget = request.budget.to_budget()
        params = dict(request.params)
        fields: Dict[str, Any]
        outcome = "ok"
        run_error: Optional[BaseException] = None
        try:
            # join the caller's distributed trace (no-op without a
            # traceparent): any root span the procedure opens — the
            # daemon's serve.query wrapper, or a bare phase span for
            # direct callers — adopts the propagated trace id and remote
            # parent
            with trace_context(TraceContext.from_traceparent(request.traceparent)):
                result = PROCEDURES[request.procedure](
                    subject, sess, live_budget, params
                )
            fields = _verdict_fields(request.procedure, result)
            if fields["verdict"] == "unknown":
                outcome = "partial"
        except BudgetExhausted as error:
            # a raise-mode governed budget ran out (deadline, memory, or a
            # cooperative cancellation): structurally a partial, like the
            # partial-mode path, so cancellation is visible over the wire
            outcome = "partial"
            fields = {
                "verdict": "unknown",
                "method": "partial",
                "exact": False,
                "partial": {"resource": error.resource, "resumable": False},
                "procedures": {
                    request.procedure: {
                        "verdict": "partial",
                        "resource": error.resource,
                        "method": "partial",
                    }
                },
                "details": {"message": str(error)},
            }
        except AnalysisBudgetExceeded as error:
            outcome = "partial"
            fields = {
                "verdict": "inconclusive",
                "procedures": {request.procedure: {"verdict": "inconclusive"}},
                "details": {"message": str(error), "explored": error.explored},
            }
        except (RPError, TypeError) as error:
            # TypeError: unknown/invalid params hitting the keyword-only
            # procedure signature — a caller mistake, reported structurally
            outcome = "error"
            run_error = error
        elapsed = time.perf_counter() - started_wall
        common: Dict[str, Any] = {
            "run_id": rid,
            "request_id": request.request_id,
            "traceparent": request.traceparent,
            "scheme": {
                "name": subject.name,
                "nodes": len(subject),
                "fingerprint": scheme_fingerprint(subject),
            },
            "stats": sess.stats.as_dict() if request.trace.stats else {},
            "elapsed_seconds": elapsed,
        }
        if run_error is None:
            response = AnalysisResponse(
                procedure=request.procedure, **common, **fields
            )
        else:
            response = AnalysisResponse.failure(
                request.procedure, run_error, **common
            )
        if ledger is not None:
            try:
                sess.sync_metrics()
                metrics_snapshot = sess.metrics.as_dict()
                extra = {
                    "procedure": request.procedure,
                    "request_id": request.request_id,
                    **parallel_ledger_fields(sess.workers, metrics_snapshot),
                }
                ledger.append(
                    make_entry(
                        kind=ledger_kind,
                        scheme=subject,
                        procedures=dict(response.procedures),
                        metrics=metrics_snapshot,
                        budget=live_budget,
                        outcome=outcome,
                        error=run_error,
                        wall_seconds=elapsed,
                        cpu_seconds=time.process_time() - started_cpu,
                        run_id=rid,
                        extra=extra,
                    )
                )
            except (OSError, ValueError):
                # a full disk must not turn an answered query into an error
                response = replace(
                    response,
                    details={**response.details, "ledger_error": True},
                )
        return response
    finally:
        if owns_session:
            sess.close()
