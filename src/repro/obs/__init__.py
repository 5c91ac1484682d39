"""repro.obs — dependency-free tracing and metrics for the whole stack.

One observability layer feeding humans (``rpcheck report``,
``--stats``), CI (BENCH JSON artefacts, trace uploads) and the perf
trajectory (comparable metrics across PRs):

* :class:`Tracer` — nested spans (name, attrs, wall/CPU time) and point
  events, with a :mod:`contextvars`-tracked current span so
  instrumentation composes across call boundaries;
* :class:`MetricsRegistry` — typed counters / gauges / histograms with
  labelled children and a label-cardinality cap;
* sinks — :class:`JsonlSink` (one JSON object per record, offline
  analysis), :class:`MemorySink` (tests), :class:`NullSink` (disabled;
  near-zero overhead, tracers short-circuit), :class:`TeeSink`
  (composition);
* :mod:`repro.obs.report` — rebuild span trees from JSONL, self-time
  accounting, hot-span ranking, collapsed-stack flamegraph export;
* :class:`TraceContext` / :func:`trace_context` — distributed-trace
  identity propagated serve-client → daemon (``traceparent``), so one
  OTLP trace spans the whole query;
* :mod:`repro.obs.recorder` — the always-on :class:`FlightRecorder`
  ring buffer and ``rpcheck-flight/1`` incident bundles;
* :mod:`repro.obs.ledger` — the append-only ``rpcheck-ledger/1`` run
  history (:class:`Ledger`, :class:`LedgerSink`);
* :mod:`repro.obs.diff` — cross-run comparison of ledger entries
  (verdict drift, metric deltas, span self-time deltas).

See ``docs/observability.md`` for the walkthrough.
"""

from .diff import (
    DIFF_SCHEMA,
    RunDiff,
    diff_entries,
    flatten_metrics,
    render_diff,
    resolve_entry,
)
from .export import (
    OTLP_ENV,
    OtlpJsonSink,
    otlp_metrics_request,
    otlp_span,
    otlp_spans_request,
    prometheus_exposition,
)
from .ledger import (
    LEDGER_ENV,
    LEDGER_SCHEMA,
    Ledger,
    LedgerSink,
    default_ledger_path,
    make_entry,
    new_run_id,
    scheme_fingerprint,
    verdict_summary,
)
from .dashboard import render_dashboard
from .profiler import DEFAULT_HZ, SamplingProfiler
from .metrics import (
    DEFAULT_LABEL_CARDINALITY,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    Metric,
    MetricsRegistry,
    registry_from_dict,
)
from .recorder import (
    FLIGHT_DIR_ENV,
    FLIGHT_SCHEMA,
    FlightRecorder,
    ambient_recorder,
    find_recorder,
    record_incident,
)
from .report import (
    SpanNode,
    build_tree,
    collapse_stacks,
    hot_spans,
    latency_percentiles,
    load_records,
    render_report,
    render_tree,
    report_as_dict,
    self_time_rollup,
    tree_as_dict,
)
from .sinks import JsonlSink, MemorySink, NullSink, Sink, TeeSink
from .tracer import (
    NOOP_SPAN,
    Span,
    TraceContext,
    Tracer,
    current_span,
    current_trace_context,
    trace_context,
)

__all__ = [
    "DIFF_SCHEMA",
    "OTLP_ENV",
    "OtlpJsonSink",
    "otlp_metrics_request",
    "otlp_span",
    "otlp_spans_request",
    "prometheus_exposition",
    "SamplingProfiler",
    "DEFAULT_HZ",
    "render_dashboard",
    "RunDiff",
    "diff_entries",
    "flatten_metrics",
    "render_diff",
    "resolve_entry",
    "LEDGER_ENV",
    "LEDGER_SCHEMA",
    "Ledger",
    "LedgerSink",
    "default_ledger_path",
    "make_entry",
    "new_run_id",
    "scheme_fingerprint",
    "verdict_summary",
    "FLIGHT_DIR_ENV",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "ambient_recorder",
    "find_recorder",
    "record_incident",
    "TeeSink",
    "collapse_stacks",
    "latency_percentiles",
    "report_as_dict",
    "self_time_rollup",
    "tree_as_dict",
    "Tracer",
    "Span",
    "TraceContext",
    "current_span",
    "current_trace_context",
    "trace_context",
    "NOOP_SPAN",
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "MetricsRegistry",
    "registry_from_dict",
    "Metric",
    "CounterMetric",
    "GaugeMetric",
    "HistogramMetric",
    "DEFAULT_LABEL_CARDINALITY",
    "SpanNode",
    "load_records",
    "build_tree",
    "hot_spans",
    "render_tree",
    "render_report",
]
