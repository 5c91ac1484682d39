"""End-to-end distributed tracing (PR 10 tentpole).

The contract under test:

* **TraceContext** — the ``traceparent`` wire format round-trips,
  malformed values are rejected to ``None`` (never an exception), and
  local span ids map into the 64-bit OTLP id space injectively per
  process;
* **per-root trace identity** — every root span mints a fresh trace id
  unless a propagated context supplies one, so one long-lived
  :class:`OtlpJsonSink` exports concurrent queries as distinct traces
  (the PR 8 per-sink-trace-id bug, fixed);
* **coordinator → worker propagation** — a traced ``--workers N``
  exploration produces ONE span tree: worker-side ``parallel.chunk``
  spans are shipped back, re-based into the coordinator's id space and
  re-parented under their ``parallel.window`` span, with zero dangling
  parents and zero duplicate ids;
* **span integrity under supervision** — a seeded worker ``SIGKILL``
  and window replay yield exactly one chunk span per (round, chunk);
  replayed windows never double-report;
* **serve propagation** — a client-side span's context flows through
  ``traceparent`` on ``rpcheck-request/1`` into the daemon's
  ``serve.query`` root span and down into worker chunks: one trace id
  from client to worker;
* **request ids** — minted client-side (and daemon-side for raw
  requests) when omitted, stamped on the query's root span, echoed in
  the response;
* **timeline** — ``rpcheck timeline`` renders the per-worker waterfall
  (text, SVG, JSON) from exactly these spans.
"""

import json
import time
import uuid

import pytest

from repro.analysis import AnalysisSession
from repro.obs import (
    MemorySink,
    OtlpJsonSink,
    Tracer,
    build_tree,
    build_timeline,
    collapse_stacks,
    otlp_span,
    render_timeline_svg,
    render_timeline_text,
    timeline_as_dict,
    worker_rollup,
)
from repro.obs.tracer import TraceContext, trace_context
from repro.robust import ProcessFaultPlan, install_process_faults
from repro.serve import ServeClient, daemon_in_thread
from repro.zoo import FIG1_PROGRAM, mixed_grove, wide_mix

from .test_parallel import WORKERS

EXPLORE_CAP = 3000


def _span_records(sink):
    return [r for r in sink.snapshot() if r.get("type") == "span"]


def _otlp(records):
    """Map tracer records to OTLP spans with a recognisable fallback id."""
    anchor = time.time() - time.perf_counter()
    return [
        otlp_span(r, trace_id="f" * 32, epoch_anchor=anchor) for r in records
    ]


def _assert_one_clean_trace(spans):
    """One trace id, unique span ids, every parent resolves."""
    traces = {s["traceId"] for s in spans}
    assert len(traces) == 1, f"expected one trace, got {sorted(traces)}"
    assert "f" * 32 not in traces, "fallback trace id leaked into records"
    ids = [s["spanId"] for s in spans]
    assert len(ids) == len(set(ids)), "duplicate OTLP span ids"
    known = set(ids)
    dangling = [
        (s["name"], s["parentSpanId"])
        for s in spans
        if s.get("parentSpanId") and s["parentSpanId"] not in known
    ]
    assert not dangling, f"dangling parentSpanIds: {dangling}"


class TestTraceContext:
    def test_traceparent_round_trip(self):
        ctx = TraceContext()
        wire = ctx.to_traceparent()
        parsed = TraceContext.from_traceparent(wire)
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.parent_span is None  # all-zero parent = trace only

    def test_child_names_remote_parent(self):
        ctx = TraceContext()
        child = ctx.child(7)
        assert child.trace_id == ctx.trace_id
        assert child.parent_span == ctx.otlp_span_id(7)
        parsed = TraceContext.from_traceparent(child.to_traceparent())
        assert parsed.parent_span == ctx.otlp_span_id(7)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "not-a-traceparent",
            "00-abc-def-01",
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace id
            "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex
            "00-" + "1" * 32 + "-" + "2" * 16,  # missing flags
        ],
    )
    def test_malformed_is_none_not_an_exception(self, bad):
        assert TraceContext.from_traceparent(bad) is None

    def test_span_base_keeps_small_ids_distinct(self):
        ctx = TraceContext()
        ids = {ctx.otlp_span_id(i) for i in range(1000)}
        assert len(ids) == 1000
        assert all(len(i) == 16 for i in ids)


class TestPerRootTraceIdentity:
    def test_two_root_spans_two_traces(self, tmp_path):
        target = str(tmp_path / "otlp.jsonl")
        sink = OtlpJsonSink(target)
        tracer = Tracer(sink)
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        sink.close()
        spans = []
        with open(target, "r", encoding="utf-8") as handle:
            for line in handle:
                request = json.loads(line)
                for rs in request.get("resourceSpans", []):
                    for ss in rs["scopeSpans"]:
                        spans.extend(ss["spans"])
        assert len(spans) == 2
        assert spans[0]["traceId"] != spans[1]["traceId"], (
            "root spans through one sink must be distinct traces"
        )
        assert sink.trace_id not in {s["traceId"] for s in spans}

    def test_children_inherit_the_root_trace(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        spans = _otlp(_span_records(sink))
        _assert_one_clean_trace(spans)

    def test_propagated_context_wins(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        ctx = TraceContext()
        remote_parent = ctx.otlp_span_id(42)
        with trace_context(ctx.child(42)):
            with tracer.span("adopted"):
                pass
        [record] = _span_records(sink)
        assert record["trace"] == ctx.trace_id
        assert record["remote_parent"] == remote_parent
        assert record.get("parent") is None  # still a local root
        [span] = _otlp([record])
        assert span["traceId"] == ctx.trace_id
        assert span["parentSpanId"] == remote_parent

    def test_null_context_is_a_no_op(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with trace_context(None):
            with tracer.span("fresh"):
                pass
        [record] = _span_records(sink)
        assert record["trace"]
        assert "remote_parent" not in record


class TestParallelTraceIntegrity:
    def _traced_explore(self, scheme, workers, plan=None):
        sink = MemorySink()
        session = AnalysisSession(scheme, tracer=Tracer(sink), workers=workers)
        try:
            if plan is not None:
                install_process_faults(session, plan)
            session.explore(EXPLORE_CAP)
        finally:
            session.close()
        return sink

    def test_workers_produce_one_clean_trace(self):
        sink = self._traced_explore(wide_mix(3), WORKERS)
        records = _span_records(sink)
        chunk_spans = [r for r in records if r["name"] == "parallel.chunk"]
        assert chunk_spans, "a traced sharded run must record chunk spans"
        _assert_one_clean_trace(_otlp(records))
        # every chunk span hangs off a window span, windows off explore
        roots = build_tree(records)
        by_name = {}
        for root in roots:
            for node in root.walk():
                by_name.setdefault(node.name, []).append(node)
        for window in by_name.get("parallel.window", []):
            assert all(c.name == "parallel.chunk" for c in window.children)
            # one slice per worker per window, together the whole window
            workers = [c.attrs["worker"] for c in window.children]
            assert len(workers) <= WORKERS
            assert len(set(workers)) == len(workers), workers
            assert (
                sum(c.attrs["states"] for c in window.children)
                == window.attrs["window"]
            )
        for chunk in by_name["parallel.chunk"]:
            assert chunk.attrs.get("worker") is not None
            assert chunk.attrs.get("states")

    def test_chunk_spans_are_unique_per_round_and_chunk(self):
        sink = self._traced_explore(wide_mix(3), WORKERS)
        seen = set()
        for record in _span_records(sink):
            if record["name"] != "parallel.chunk":
                continue
            key = (record["attrs"]["round"], record["attrs"]["chunk"])
            assert key not in seen, f"chunk {key} traced twice"
            seen.add(key)

    def test_sigkill_replay_traces_each_chunk_exactly_once(self):
        plan = ProcessFaultPlan(
            kill_at=((1, 0), (2, 1 % WORKERS)), max_kills=2, immune=0
        )
        sink = self._traced_explore(mixed_grove(3, 3), WORKERS, plan=plan)
        records = _span_records(sink)
        seen = set()
        for record in records:
            if record["name"] != "parallel.chunk":
                continue
            key = (record["attrs"]["round"], record["attrs"]["chunk"])
            assert key not in seen, (
                f"chunk {key} double-traced across a window replay"
            )
            seen.add(key)
        assert seen, "the kills must not have suppressed all chunk tracing"
        _assert_one_clean_trace(_otlp(records))

    @pytest.mark.parametrize("max_restarts", [3, 0], ids=["replayed", "degraded"])
    def test_worker_kill_keeps_one_explore_span_per_call(self, max_restarts):
        def shape(node):
            children = tuple(
                shape(c)
                for c in node.children
                if not c.name.startswith("parallel.")
            )
            return (node.name, children)

        forests = []
        for workers in (1, WORKERS):
            sink = MemorySink()
            session = AnalysisSession(
                wide_mix(3),
                tracer=Tracer(sink),
                workers=workers,
                max_worker_restarts=max_restarts,
            )
            try:
                if workers > 1:
                    pool = install_process_faults(
                        session,
                        ProcessFaultPlan(kill_at=((2, 0),), max_kills=1, immune=0),
                    )
                session.explore(EXPLORE_CAP // 2)
                session.explore(EXPLORE_CAP)
            finally:
                session.close()
            records = _span_records(sink)
            explores = [r for r in records if r["name"] == "session.explore"]
            assert len(explores) == 2, "one session.explore span per explore()"
            forests.append([shape(root) for root in build_tree(records)])
        assert pool.chaos_kills == 1, "the planned kill must actually fire"
        assert session._parallel_degraded is (max_restarts == 0)
        assert forests[0] == forests[1], (
            "recovery must not change the procedure-level span structure"
        )

    def test_parallel_and_sequential_forests_agree_on_procedures(self):
        def shape(node):
            children = tuple(
                shape(c)
                for c in node.children
                if not c.name.startswith("parallel.")
            )
            return (node.name, children)

        shapes = []
        for workers in (1, WORKERS):
            sink = MemorySink()
            session = AnalysisSession(
                wide_mix(3), tracer=Tracer(sink), workers=workers
            )
            try:
                session.explore(EXPLORE_CAP)
            finally:
                session.close()
            roots = build_tree(_span_records(sink))
            shapes.append([shape(root) for root in roots])
        assert shapes[0] == shapes[1], (
            "procedure-level span structure must not depend on sharding"
        )


class TestServePropagation:
    def _streamed_query(self, tmp_path, **query_kwargs):
        sock = str(tmp_path / "rp.sock")
        streamed = []
        client_sink = MemorySink()
        tracer = Tracer(client_sink)
        with daemon_in_thread(sock):
            with ServeClient(sock) as client:
                with tracer.span("client.request"):
                    response = client.query(
                        "boundedness",
                        source=FIG1_PROGRAM,
                        stream=True,
                        on_event=streamed.append,
                        **query_kwargs,
                    )
        server_spans = [r for r in streamed if r.get("type") == "span"]
        return response, _span_records(client_sink), server_spans

    def test_one_trace_spans_client_daemon_and_workers(self, tmp_path):
        response, client_spans, server_spans = self._streamed_query(
            tmp_path, workers=WORKERS
        )
        assert response.ok
        names = {r["name"] for r in server_spans}
        assert {"serve.query", "session.explore", "parallel.window"} <= names
        _assert_one_clean_trace(_otlp(client_spans + server_spans))

    def test_request_id_minted_and_stamped(self, tmp_path):
        response, _, server_spans = self._streamed_query(tmp_path)
        assert response.request_id, "client must mint a request id"
        [query_span] = [r for r in server_spans if r["name"] == "serve.query"]
        assert query_span["attrs"]["request_id"] == response.request_id

    def test_explicit_request_id_is_preserved(self, tmp_path):
        rid = uuid.uuid4().hex
        response, _, server_spans = self._streamed_query(
            tmp_path, request_id=rid
        )
        assert response.request_id == rid
        [query_span] = [r for r in server_spans if r["name"] == "serve.query"]
        assert query_span["attrs"]["request_id"] == rid

    def test_traceparent_echoed_on_response(self, tmp_path):
        response, client_spans, _ = self._streamed_query(tmp_path)
        assert response.traceparent
        parsed = TraceContext.from_traceparent(response.traceparent)
        assert parsed is not None
        [client_root] = client_spans
        assert parsed.trace_id == client_root["trace"]


class TestTimelineAndRollup:
    @pytest.fixture(scope="class")
    def traced_records(self):
        sink = MemorySink()
        session = AnalysisSession(
            wide_mix(3), tracer=Tracer(sink), workers=WORKERS
        )
        try:
            session.explore(EXPLORE_CAP)
        finally:
            session.close()
        return sink.snapshot()

    def test_build_timeline(self, traced_records):
        timeline = build_timeline(traced_records)
        assert timeline.windows
        assert timeline.workers
        total_chunks = sum(len(w.chunks) for w in timeline.windows)
        spans = [
            r
            for r in traced_records
            if r.get("type") == "span" and r["name"] == "parallel.chunk"
        ]
        assert total_chunks == len(spans)
        for window in timeline.windows:
            if window.chunks:
                assert window.critical in window.chunks

    def test_text_and_svg_renderings(self, traced_records):
        timeline = build_timeline(traced_records)
        text = render_timeline_text(timeline)
        assert "critical" in text
        svg = render_timeline_svg(timeline)
        assert svg.startswith("<svg") and "<script" not in svg
        standalone = render_timeline_svg(timeline, standalone=True)
        assert standalone.startswith("<?xml")

    def test_timeline_dict_schema(self, traced_records):
        payload = timeline_as_dict(build_timeline(traced_records))
        assert payload["schema"] == "rpcheck-timeline/1"
        assert payload["windows"]
        json.dumps(payload)  # must be JSON-clean

    def test_worker_rollup_and_flamegraph_frames(self, traced_records):
        spans = [r for r in traced_records if r.get("type") == "span"]
        roots = build_tree(spans)
        rollup = worker_rollup(roots)
        assert rollup, "chunk spans carry worker attrs"
        chunk_count = sum(1 for r in spans if r["name"] == "parallel.chunk")
        assert sum(row["chunks"] for row in rollup.values()) == chunk_count
        stacks = collapse_stacks(roots)
        worker_frames = [l for l in stacks if "parallel.chunk[w" in l]
        assert worker_frames, "flamegraph frames must be worker-qualified"
