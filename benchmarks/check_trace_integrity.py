"""CI gate: distributed-trace integrity of a served ``--workers 2`` query.

Boots the serve daemon in-process, sends streamed queries through
:class:`~repro.serve.ServeClient` from inside a client-side root span
(so the ``traceparent`` propagation path is the one under test), ships
every span — client-side and streamed back from the daemon — through a
real :class:`~repro.obs.OtlpJsonSink`, then audits the export file:

* every request's spans carry exactly ONE trace id (client root,
  ``serve.query``, ``session.explore`` and the coordinator's
  ``parallel.window`` spans all agree; workers record no spans, so no
  ``parallel.chunk`` span may appear);
* no duplicate OTLP span ids;
* no dangling ``parentSpanId`` (every parent resolves in the file);
* two requests export as two *distinct* traces (the per-root minting
  that replaced the old per-sink trace id).

Run as a script::

    PYTHONPATH=src python benchmarks/check_trace_integrity.py

Exits non-zero on any integrity violation.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from repro.obs import OtlpJsonSink, Tracer
from repro.serve import ServeClient, daemon_in_thread
from repro.zoo import FIG1_PROGRAM

WORKERS = 2


def _exported_spans(path):
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            request = json.loads(line)
            for rs in request.get("resourceSpans", []):
                for ss in rs.get("scopeSpans", []):
                    spans.extend(ss.get("spans", []))
    return spans


def check_serve_trace_integrity(tmp_dir: str) -> None:
    """Two served workers=2 queries must export as two clean traces."""
    sock = os.path.join(tmp_dir, "rp.sock")
    otlp_path = os.path.join(tmp_dir, "otlp_integrity.json")
    sink = OtlpJsonSink(otlp_path)
    tracer = Tracer(sink)
    request_traces = []
    with daemon_in_thread(sock):
        with ServeClient(sock) as client:
            for attempt in range(2):
                # the daemon's spans stream back as event records and go
                # through the SAME exporter as the client span, exactly
                # like a collector receiving both services' telemetry
                with tracer.span("client.request", attempt=attempt) as root:
                    response = client.query(
                        "boundedness",
                        source=FIG1_PROGRAM,
                        workers=WORKERS,
                        stream=True,
                        on_event=sink.emit,
                    )
                assert response.ok, f"query failed: {response.error}"
                assert response.request_id, "request id must be minted"
                assert response.traceparent, "traceparent must be echoed"
                request_traces.append(root.trace.trace_id)
    sink.close()

    spans = _exported_spans(otlp_path)
    assert spans, "no spans exported"
    names = {span["name"] for span in spans}
    for expected in ("client.request", "serve.query", "parallel.window"):
        assert expected in names, f"no {expected} span exported ({names})"
    assert "parallel.chunk" not in names, "workers must record no spans"

    ids = [span["spanId"] for span in spans]
    duplicates = len(ids) - len(set(ids))
    assert duplicates == 0, f"{duplicates} duplicate span id(s)"

    known = set(ids)
    dangling = [
        (span["name"], span["parentSpanId"])
        for span in spans
        if span.get("parentSpanId") and span["parentSpanId"] not in known
    ]
    assert not dangling, f"dangling parentSpanIds: {dangling}"

    assert len(set(request_traces)) == 2, "requests must not share a trace"
    for wanted in request_traces:
        per_request = [s for s in spans if s["traceId"] == wanted]
        assert per_request, f"trace {wanted} exported no spans"
    stray = {s["traceId"] for s in spans} - set(request_traces)
    assert not stray, f"spans outside the two request traces: {stray}"
    print(
        f"serve integrity: {len(spans)} spans, 2 requests, 2 traces, "
        "0 duplicates, 0 dangling parents"
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp_dir:
        check_serve_trace_integrity(tmp_dir)
    print("trace integrity: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
