"""Overhead of the observability layer on the WQO benchmark families.

The tracing/metrics instrumentation is permanently threaded through the
analysis engine (``AnalysisSession.explore`` samples the frontier gauge
every iteration; every decision procedure opens a phase span).  This
benchmark quantifies what that costs, per arm:

* **baseline** — the obs hooks monkeypatched to pure no-ops
  (``GaugeMetric.set``, ``Tracer.span``, ``Tracer.event``): a proxy for
  the pre-instrumentation hot path;
* **disabled** — a sink-less :class:`Tracer` (shared no-op span) and a
  live :class:`MetricsRegistry`: what a run with tracing explicitly
  turned off pays;
* **recorder** — the shipped default: a session constructed without a
  tracer, recording into the process-wide ambient
  :class:`~repro.obs.recorder.FlightRecorder` ring buffer.  This is what
  every user who does not pass a tracer runs, so the flight recorder's
  "always on at near-zero cost" claim is measured here;
* **traced** — full JSONL tracing to a scratch file, for context;
* **profiler** — the recorder default plus an active
  :class:`~repro.obs.SamplingProfiler` at its default rate: what
  ``rpcheck flamegraph --sample`` and the harness ``profile=`` knob add
  on top of a normal run.

Workload: one cold ``boundedness`` query per scheme of
:data:`repro.zoo.ZOO_WQO_BENCH` (the embedding/exploration-heavy matrix),
best-of-N with fresh scheme and session per repeat.  Arms are
interleaved round-robin so machine drift hits all of them equally, and
the overhead percentages are computed from **CPU time** rather than
wall clock: instrumentation cost is CPU work, and on a shared
single-core box scheduler preemption inflates wall time by far more
than the effect being measured.  The clock is ``time.thread_time``
(the workload is single-threaded), not ``time.process_time``: an armed
``ITIMER_PROF`` makes ``CLOCK_PROCESS_CPUTIME_ID`` advance in coarse
chunks on some kernels, which would zero out the profiler arm's
sub-millisecond readings, while the per-thread clock stays precise.
Wall-clock cells still land in the artefact for the regression
watchdog.

A second matrix measures **tracing a sharded run**: a full
``workers=2`` sharded exploration (``session.explore`` to the worker
cap — exploration is where the window spans live; a boundedness query
early-exits on a pump and would time noise), spans off (``workers``
arm: a disabled tracer) versus spans on (``workers_traced``: JSONL
tracing, so the coordinator records one ``parallel.window`` span per
window; workers record no spans either way).  These arms are timed on
**wall clock** — the run waits on worker *processes*, whose time is
invisible to the coordinator's thread-CPU clock — and interleaved like
the main matrix.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py [--smoke]

Writes ``BENCH_obs_overhead.json`` (``repro-bench/1`` schema).  The
acceptance bar: **disabled-vs-baseline, recorder-vs-baseline,
profiler-vs-baseline AND worker-tracing aggregate overhead < 5%**; the
artefact records the percentages under ``results.aggregate``.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tempfile
import time

from _harness import BenchHarness
from repro.analysis import boundedness
from repro.analysis.session import AnalysisSession
from repro.errors import AnalysisBudgetExceeded
from repro.obs import JsonlSink, NOOP_SPAN, SamplingProfiler, Tracer
from repro.obs.metrics import GaugeMetric
from repro.zoo import ZOO_WQO_BENCH

MAX_STATES = 2_000
REPEATS = 7

ARMS = ("baseline", "disabled", "recorder", "traced", "profiler")

#: Worker-tracing matrix: sharded sessions are slower to build (process
#: spawn) and wall-clock timed, so fewer repeats on a scheme subset —
#: widemix4 explored to WORKER_MAX_STATES runs ~0.5s/repeat, large
#: enough that per-window tracing cost is measured, not timer noise.
WORKER_ARMS = ("workers", "workers_traced")
WORKER_REPEATS = 5
WORKER_SCHEMES = [("widemix4", 1)]
WORKER_MAX_STATES = 2_000
WORKERS = 2


@contextlib.contextmanager
def _obs_stubbed():
    """Temporarily strip the obs hooks down to no-ops (the baseline arm).

    Approximates the pre-instrumentation engine: the call sites stay (the
    whole point is measuring their residual cost is what we *cannot*
    remove), but gauge sampling, span bookkeeping, and events all reduce
    to constant-time stubs.
    """
    originals = (GaugeMetric.set, Tracer.span, Tracer.event)
    GaugeMetric.set = lambda self, value: None
    Tracer.span = lambda self, name, **attrs: NOOP_SPAN
    Tracer.event = lambda self, name, **attrs: None
    try:
        yield
    finally:
        GaugeMetric.set, Tracer.span, Tracer.event = originals


def _run_boundedness(scheme, tracer):
    session = AnalysisSession(scheme, tracer=tracer)
    try:
        verdict = boundedness(scheme, max_states=MAX_STATES, session=session)
        return {"holds": verdict.holds}
    except AnalysisBudgetExceeded as exc:
        return {"budget_exceeded": True, "explored": exc.explored}


def _run_explore_sharded(scheme, tracer):
    """One cold sharded exploration (pool spawn + explore + reap, timed)."""
    session = AnalysisSession(scheme, tracer=tracer, workers=WORKERS)
    try:
        session.explore(WORKER_MAX_STATES)
        return {
            "states": len(session.graph.states),
            "transitions": session.graph.num_transitions,
        }
    finally:
        session.close()


def _worker_tracing_matrix(harness, repeats):
    """Best-of wall times for the workers / workers_traced arms."""
    trace_path = os.path.join(
        tempfile.gettempdir(), "bench_obs_workers.jsonl"
    )
    cells = []
    totals = {arm: 0.0 for arm in WORKER_ARMS}
    for name, index in WORKER_SCHEMES:
        factory = ZOO_WQO_BENCH[index][1]
        assert ZOO_WQO_BENCH[index][0] == name, "scheme table moved"
        row = {"scheme": name, "workers": WORKERS}
        outcomes = {}
        best = {arm: None for arm in WORKER_ARMS}
        _run_explore_sharded(factory(), Tracer())  # warmup (spawn, caches)
        for _ in range(repeats):
            for arm in WORKER_ARMS:
                traced = arm == "workers_traced"
                tracer = Tracer(JsonlSink(trace_path)) if traced else Tracer()
                wall, outcomes[arm] = harness.measure(
                    f"{name}/{arm}",
                    lambda: _run_explore_sharded(factory(), tracer),
                    warmup=0,
                    repeats=1,
                )
                if traced:
                    tracer.close()
                if best[arm] is None or wall < best[arm]:
                    best[arm] = wall
        if outcomes["workers_traced"] != outcomes["workers"]:
            raise AssertionError(
                f"{name}: worker arms disagree: {outcomes!r}"
            )
        for arm in WORKER_ARMS:
            totals[arm] += best[arm]
            row[f"{arm}_seconds"] = best[arm]
        row["worker_tracing_overhead_pct"] = (
            100.0
            * (row["workers_traced_seconds"] - row["workers_seconds"])
            / row["workers_seconds"]
        )
        row["outcome"] = outcomes["workers"]
        cells.append(row)
    with contextlib.suppress(OSError):
        os.remove(trace_path)
    return cells, totals


def run(smoke: bool = False) -> tuple:
    repeats = 1 if smoke else REPEATS
    harness = BenchHarness("obs_overhead", warmup=1, repeats=repeats)
    trace_path = os.path.join(tempfile.gettempdir(), "bench_obs_overhead.jsonl")
    cells = []
    totals = {arm: 0.0 for arm in ARMS}
    totals_cpu = {arm: 0.0 for arm in ARMS}
    for name, factory in ZOO_WQO_BENCH:
        row = {"scheme": name}
        outcomes = {}
        best = {arm: None for arm in ARMS}
        best_cpu = {arm: None for arm in ARMS}
        # interleave the arms round-robin (one repeat each per round)
        # so slow machine drift hits every arm equally instead of
        # masquerading as per-arm overhead
        trace_sink = JsonlSink(trace_path)
        trace_tracer = Tracer(trace_sink)

        def one(arm):
            if arm == "baseline":
                run = lambda: _run_boundedness(factory(), Tracer())
            elif arm == "disabled":
                run = lambda: _run_boundedness(factory(), Tracer())
            elif arm == "recorder":
                # tracer=None is the shipped default: the ambient recorder
                run = lambda: _run_boundedness(factory(), None)
            elif arm == "profiler":
                # recorder default + active sampling profiler; start/stop
                # lands inside the timed region because a profiled run
                # pays for it too
                def run():
                    with SamplingProfiler():
                        return _run_boundedness(factory(), None)
            else:
                run = lambda: _run_boundedness(factory(), trace_tracer)
            cpu_box = {}

            def timed():
                t0 = time.thread_time()
                out = run()
                cpu_box["cpu"] = time.thread_time() - t0
                return out

            ctx = _obs_stubbed() if arm == "baseline" else contextlib.nullcontext()
            with ctx:
                wall, outcome = harness.measure(
                    f"{name}/{arm}", timed, warmup=0, repeats=1
                )
            return wall, cpu_box["cpu"], outcome

        _run_boundedness(factory(), Tracer())  # shared warmup (cache prime)
        for _ in range(repeats):
            for arm in ARMS:
                wall, cpu, outcomes[arm] = one(arm)
                if best[arm] is None or wall < best[arm]:
                    best[arm] = wall
                if best_cpu[arm] is None or cpu < best_cpu[arm]:
                    best_cpu[arm] = cpu
        trace_tracer.close()
        if any(outcomes[arm] != outcomes["baseline"] for arm in ARMS):
            raise AssertionError(f"{name}: arms disagree: {outcomes!r}")
        for arm in ARMS:
            totals[arm] += best[arm]
            totals_cpu[arm] += best_cpu[arm]
            row[f"{arm}_seconds"] = best[arm]
            row[f"{arm}_cpu_seconds"] = best_cpu[arm]
        base = row["baseline_cpu_seconds"]
        for arm in ARMS[1:]:
            row[f"{arm}_overhead_pct"] = (
                100.0 * (row[f"{arm}_cpu_seconds"] - base) / base
            )
        row["outcome"] = outcomes["disabled"]
        cells.append(row)
    worker_cells, worker_totals = _worker_tracing_matrix(
        harness, 1 if smoke else WORKER_REPEATS
    )
    aggregate = {f"{arm}_seconds": totals[arm] for arm in ARMS}
    aggregate.update({f"{arm}_cpu_seconds": totals_cpu[arm] for arm in ARMS})
    for arm in ARMS[1:]:
        aggregate[f"{arm}_overhead_pct"] = (
            100.0
            * (totals_cpu[arm] - totals_cpu["baseline"])
            / totals_cpu["baseline"]
        )
    for arm in WORKER_ARMS:
        aggregate[f"{arm}_seconds"] = worker_totals[arm]
    aggregate["worker_tracing_overhead_pct"] = (
        100.0
        * (worker_totals["workers_traced"] - worker_totals["workers"])
        / worker_totals["workers"]
    )
    results = {
        "benchmark": "obs_overhead",
        "smoke": smoke,
        "max_states": MAX_STATES,
        "repeats": repeats,
        "workload": (
            "boundedness, cold session per repeat, arms interleaved; "
            "overhead percentages from best-of CPU time"
        ),
        "cells": cells,
        "worker_cells": worker_cells,
        "aggregate": aggregate,
        "acceptance": {
            "disabled_overhead_budget_pct": 5.0,
            "recorder_overhead_budget_pct": 5.0,
            "profiler_overhead_budget_pct": 5.0,
            "worker_tracing_overhead_budget_pct": 5.0,
            "within_budget": (
                aggregate["disabled_overhead_pct"] < 5.0
                and aggregate["recorder_overhead_pct"] < 5.0
                and aggregate["profiler_overhead_pct"] < 5.0
                and aggregate["worker_tracing_overhead_pct"] < 5.0
            ),
        },
    }
    with contextlib.suppress(OSError):
        os.remove(trace_path)
    return results, harness


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    results, harness = run(smoke=smoke)
    agg = results["aggregate"]
    verdict = "PASS" if results["acceptance"]["within_budget"] else "FAIL"
    print(
        f"disabled overhead: {agg['disabled_overhead_pct']:+.2f}% "
        f"(baseline {agg['baseline_cpu_seconds']:.3f}s cpu, "
        f"disabled {agg['disabled_cpu_seconds']:.3f}s cpu)"
    )
    print(
        f"recorder overhead: {agg['recorder_overhead_pct']:+.2f}% "
        f"(recorder {agg['recorder_cpu_seconds']:.3f}s cpu)"
        f"  [budget < 5%: {verdict}]"
    )
    print(
        f"traced overhead  : {agg['traced_overhead_pct']:+.2f}% "
        f"(traced {agg['traced_cpu_seconds']:.3f}s cpu)"
    )
    print(
        f"profiler overhead: {agg['profiler_overhead_pct']:+.2f}% "
        f"(profiler {agg['profiler_cpu_seconds']:.3f}s cpu)"
    )
    print(
        f"worker tracing   : {agg['worker_tracing_overhead_pct']:+.2f}% "
        f"(workers {agg['workers_seconds']:.3f}s wall, "
        f"traced {agg['workers_traced_seconds']:.3f}s wall)"
    )
    if smoke:
        print("smoke run: JSON not written")
        return
    out = harness.write(results=results, meta={"max_states": MAX_STATES})
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
