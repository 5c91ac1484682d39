"""Served-query benchmark: one closed-loop client against ``rpcheck serve``.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_explore --seed 1 --seconds 20 --trace 0

One client process drives one :class:`~repro.serve.ServeClient`
connection, sending the next request only after the previous answer
arrived (a closed loop with one client).  The daemon runs as its own
subprocess with default settings.

* ``--trace 0`` reports the end-to-end metrics: throughput, client
  latency p50/p90, daemon CPU per query, daemon peak RSS, set-up time.
  Every timing is rescaled to a host of nominal speed by the probes of
  :mod:`calibrate`, taken between queries and around each set-up.
* ``--trace 1`` splits the time in two: half against a plain daemon,
  half against the traced launcher (``perfbench/launcher.py``), and
  reports the per-layer metrics of the traced half plus the tracing
  overhead between the two.

Before timing, every query kind is answered in-process by
:func:`repro.api.execute` (the oracle).  A served query fails when the
client raises, the daemon answers ``error`` or ``overloaded``, the
verdict differs from the oracle, or its work counters differ from the
oracle or from the pinned counts in :mod:`workloads`.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON
record of the run (host labels, per-kind counts, counter checks, the
timings as measured before rescaling).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from calibrate import Probe, burst, probe, slowdown

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Scratch directory for sockets, daemon logs and traces (git-ignored).
RUN_DIR = ".perfbench_run"

#: Full set-ups (launch, first pong, warm-up) per untraced run;
#: ``setup_s`` is their median.  The last set-up daemon is the one timed.
SETUPS = 5

#: Serving seconds of one block of the timed window (see :func:`end_to_end`).
BLOCK_SECONDS = 1.0

#: Serving seconds between two host-speed probes (see :mod:`calibrate`).
PROBE_INTERVAL = 0.1

#: Probes taken before and after each set-up, to rescale ``setup_s``.
SETUP_PROBES = 5


def host_labels() -> Dict[str, Any]:
    with open("/proc/loadavg", "r", encoding="ascii") as handle:
        load1 = float(handle.read().split()[0])
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "load1": load1,
    }


# ----------------------------------------------------------------------
# Oracle and per-query checks
# ----------------------------------------------------------------------


@dataclass
class Expected:
    """What every served answer of one query kind must look like."""

    comparable: Dict[str, Any]
    #: Exact per-query counter values.
    counters: Dict[str, int]


@dataclass
class Plan:
    workload: Any
    expected: Dict[str, Expected]
    warmup: List[Tuple[Any, Any]]
    timed: List[Tuple[Any, Any]]
    #: request generation, and the host's slowdown around it
    setup_seconds: float = 0.0
    setup_slowdown: float = 1.0


def _counters(stats: Dict[str, Any]) -> Dict[str, int]:
    from workloads import COUNTERS

    return {name: int(stats.get(name, 0)) for name in COUNTERS}


def build_oracle(workload, templates) -> Dict[str, Expected]:
    """Answer every query kind in-process and derive its expected answer."""
    from repro.analysis import AnalysisSession
    from repro.api import AnalysisRequest, execute
    from repro.lang import compile_source
    from workloads import COUNTERS, PINNED_COLD, SEMANTIC_COUNTERS, SHAPES, WARM_SHAPES

    expected: Dict[str, Expected] = {}
    tag = "koracle"
    if workload.warm:
        # two passes on one session per program: the second pass is the
        # steady state the timed window sees
        sessions = {}
        for shape in WARM_SHAPES:
            scheme = compile_source(SHAPES[shape](tag)).scheme
            sessions[shape] = (scheme, AnalysisSession(scheme))
        for steady in (False, True):
            for template in templates:
                scheme, session = sessions[template.shape]
                before = _counters(session.stats.as_dict())
                response = execute(
                    AnalysisRequest(
                        procedure=template.procedure,
                        source=SHAPES[template.shape](tag),
                        params=dict(template.params),
                    ),
                    scheme=scheme,
                    session=session,
                )
                after = _counters(response.stats)
                delta = {k: after[k] - before[k] for k in COUNTERS}
                if steady:
                    if any(delta.values()):
                        raise RuntimeError(
                            f"warm query {template.key} still does work: {delta}"
                        )
                    expected[template.key] = Expected(response.comparable(), delta)
        return expected
    for template in dict.fromkeys(templates):
        response = execute(
            AnalysisRequest(
                procedure=template.procedure,
                source=SHAPES[template.shape](tag),
                params=dict(template.params),
            )
        )
        if not response.ok:
            raise RuntimeError(f"oracle failed on {template.key}: {response.error}")
        counters = _counters(response.stats)
        pinned = PINNED_COLD[template.key]
        observed = {k: counters[k] for k in SEMANTIC_COUNTERS}
        if observed != pinned:
            raise RuntimeError(
                f"{template.key}: work {observed} differs from pinned {pinned}"
            )
        if workload.embedding is not None and (
            bool(counters["embedding_calls"]) != workload.embedding
        ):
            raise RuntimeError(
                f"{template.key}: embedding_calls={counters['embedding_calls']} "
                f"breaks the {workload.name} contract"
            )
        if workload.workers is not None:
            # the sharded engine interns and caches differently, and under a
            # max_states cut how many states it interns depends on how the
            # workers' windows interleave; only the explored fragment is
            # shared with the sequential oracle
            for name in COUNTERS:
                if name not in SEMANTIC_COUNTERS and not name.startswith("embedding"):
                    del counters[name]
        expected[template.key] = Expected(response.comparable(), counters)
    return expected


def build_plan(workload, seed: int, seconds: float) -> Plan:
    from repro.lang import compile_source
    from repro.serve.pool import DEFAULT_MAX_ENTRIES
    from workloads import SHAPES, WARM_SHAPES, cold_requests, warm_requests, warm_templates

    probes = burst(SETUP_PROBES)
    started = time.perf_counter()
    count = int(workload.max_qps * seconds) + 1
    if workload.warm:
        node_ids = {
            shape: sorted(compile_source(SHAPES[shape]("k")).scheme.node_ids)
            for shape in WARM_SHAPES
        }
        templates = warm_templates(node_ids)
        requests = warm_requests(workload, seed, templates, len(templates) + count)
        warmup, timed = requests[: len(templates)], requests[len(templates):]
    else:
        templates = workload.templates
        # prefill the pool to capacity, so each timed query evicts one session
        requests = cold_requests(workload, seed, DEFAULT_MAX_ENTRIES + count)
        warmup, timed = requests[:DEFAULT_MAX_ENTRIES], requests[DEFAULT_MAX_ENTRIES:]
    generated = time.perf_counter() - started
    probes += burst(SETUP_PROBES)
    plan = Plan(workload, build_oracle(workload, templates), warmup, timed)
    plan.setup_seconds, plan.setup_slowdown = generated, slowdown(probes)
    return plan


class Checker:
    """Per-query verdict and work-counter checks, with failure accounting."""

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        #: last response counters per fingerprint (warm deltas)
        self._last: Dict[str, Dict[str, Any]] = {}

    def fail(self, key: str, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{key}: {reason}")

    def work(self, template, response) -> Dict[str, float]:
        """The query's own work: response counters, or deltas when warm."""
        stats = response.stats
        current = dict(_counters(stats))
        current["query_seconds"] = sum((stats.get("query_seconds") or {}).values())
        current["explore_seconds"] = float(stats.get("explore_seconds") or 0.0)
        if not self.plan.workload.warm:
            return current
        fingerprint = (response.scheme or {}).get("fingerprint", template.shape)
        previous = self._last.get(fingerprint)
        self._last[fingerprint] = current
        if previous is None:
            return current
        return {k: current[k] - previous[k] for k in current}

    def check(self, template, response, warmup: bool) -> Optional[Dict[str, float]]:
        """Validate one answer; returns its work, or ``None`` on failure."""
        self.attempted += 1
        key = template.key
        expected = self.plan.expected[key]
        if not response.ok or response.verdict == "error":
            self.fail(key, f"error {response.error}")
            return None
        if response.comparable() != expected.comparable:
            self.fail(key, f"verdict {response.comparable()} != oracle")
            return None
        work = self.work(template, response)
        if warmup and self.plan.workload.warm:
            return work
        for name, want in expected.counters.items():
            if int(work[name]) != want:
                self.fail(key, f"{name}={int(work[name])}, expected {want}")
                return None
        return work


# ----------------------------------------------------------------------
# One daemon session: set-up, timed closed loop, tear-down
# ----------------------------------------------------------------------


@dataclass
class Sample:
    key: str
    request_id: str
    latency: float
    elapsed: float
    work: Dict[str, float]


@dataclass
class Block:
    """One slice of the timed window (about :data:`BLOCK_SECONDS` of serving)."""

    seconds: float
    cpu_s: float
    latencies: List[float]
    probes: List[Probe]


@dataclass
class Segment:
    setup_s: float = 0.0
    setup_raw_s: float = 0.0
    seconds: float = 0.0
    samples: List[Sample] = field(default_factory=list)
    blocks: List[Block] = field(default_factory=list)
    peak_rss_mib: float = 0.0
    pool: Dict[str, Any] = field(default_factory=dict)
    trace: Optional[Dict[str, Any]] = None

    @property
    def qps(self) -> float:
        return len(self.samples) / self.seconds


def _send(client, request):
    from repro.api import ApiError

    try:
        return client.request(request), None
    except (ApiError, OSError, ValueError) as error:
        return None, error


def _warm_up(plan: Plan, checker: Checker, client) -> None:
    for template, request in plan.warmup:
        response, error = _send(client, request)
        if error is not None:
            checker.attempted += 1
            checker.fail(template.key, repr(error))
        else:
            checker.check(template, response, warmup=True)


def run_segment(
    plan: Plan, checker: Checker, seconds: float, *, traced: bool, setups: int, name: str
) -> Segment:
    """Set up a daemon *setups* times, then time the last one for *seconds*."""
    from repro.serve import ServeClient
    from serveproc import Daemon, peak_rss_mib, tree_cpu_seconds

    segment = Segment()
    socket_path = os.path.join(RUN_DIR, f"{name}.sock")
    log_path = os.path.join(RUN_DIR, f"{name}.log")
    trace_path = os.path.join(RUN_DIR, f"{name}.trace.json")
    raw_setups, setups_at_nominal = [], []
    daemon = client = None
    try:
        for _ in range(setups):
            if daemon is not None:
                client.close()
                daemon.stop()
            around = burst(SETUP_PROBES)
            if traced:
                daemon = Daemon.traced(ROOT, socket_path, log_path, trace_path)
            else:
                daemon = Daemon.serve(ROOT, socket_path, log_path)
            launched = daemon.start()
            started = time.perf_counter()
            client = ServeClient(socket_path, max_retries=0, timeout=120.0)
            _warm_up(plan, checker, client)
            served = launched + (time.perf_counter() - started)
            around += burst(SETUP_PROBES)
            raw_setups.append(served + plan.setup_seconds)
            setups_at_nominal.append(
                served / slowdown(around) + plan.setup_seconds / plan.setup_slowdown
            )
        segment.setup_raw_s = statistics.median(raw_setups)
        segment.setup_s = statistics.median(setups_at_nominal)
        segment.pool = {"before": client.pool_stats()}
        started = block_start = last_probe = time.perf_counter()
        block_cpu = tree_cpu_seconds(daemon.pid)
        block: List[float] = []
        probes: List[Probe] = []
        # seconds spent probing, in this block and in the whole window
        paused = probing = 0.0
        deadline = started + seconds
        for template, request in plan.timed:
            sent = time.perf_counter()
            response, error = _send(client, request)
            received = time.perf_counter()
            if error is not None:
                checker.attempted += 1
                checker.fail(template.key, repr(error))
            else:
                work = checker.check(template, response, warmup=False)
                if work is not None:
                    block.append(received - sent)
                    segment.samples.append(
                        Sample(
                            template.key,
                            request.request_id,
                            received - sent,
                            response.elapsed_seconds,
                            work,
                        )
                    )
            now = time.perf_counter()
            if now - last_probe >= PROBE_INTERVAL:
                # the daemon is idle between two requests of the closed loop
                probes.append(probe())
                last_probe = time.perf_counter()
                paused += last_probe - now
                probing += last_probe - now
                now = last_probe
            if now - block_start - paused >= BLOCK_SECONDS or now >= deadline:
                cpu = tree_cpu_seconds(daemon.pid)
                serving = time.perf_counter() - block_start - paused
                if block and probes and serving >= BLOCK_SECONDS / 2:
                    segment.blocks.append(Block(serving, cpu - block_cpu, block, probes))
                block_start, block_cpu, block, probes = time.perf_counter(), cpu, [], []
                last_probe, paused = block_start, 0.0
            if now >= deadline:
                break
        else:
            raise RuntimeError("request list ran out before the window ended")
        segment.seconds = time.perf_counter() - started - probing
        segment.peak_rss_mib = peak_rss_mib(daemon.pid)
        segment.pool["after"] = client.pool_stats()
    finally:
        if client is not None:
            client.close()
        if daemon is not None:
            daemon.stop()
    if traced:
        with open(trace_path, "r", encoding="utf-8") as handle:
            segment.trace = json.load(handle)
        os.unlink(trace_path)
    if checker.failed == 0 and os.path.exists(log_path):
        os.unlink(log_path)
    return segment


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def _p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


#: Per-block figures: name -> (figure of one block, CPU clock?, higher is better).
FIGURES = {
    "throughput_qps": (lambda b: len(b.latencies) / b.seconds, False, True),
    "latency_p50_ms": (lambda b: statistics.median(b.latencies) * 1000.0, False, False),
    "latency_p90_ms": (lambda b: _p90(b.latencies) * 1000.0, False, False),
    "cpu_ms_per_query": (lambda b: b.cpu_s * 1000.0 / len(b.latencies), True, False),
}


def at_nominal(block: Block, name: str) -> float:
    """A block's figure rescaled to a host of nominal speed (see calibrate)."""
    figure, cpu, higher = FIGURES[name]
    speed = slowdown(block.probes, cpu=cpu)
    return figure(block) * speed if higher else figure(block) / speed


def end_to_end(segment: Segment) -> Dict[str, Dict[str, Any]]:
    """Each timing is the median over the blocks of its rescaled figure.

    Other tenants of a shared host slow the program by tens of percent for
    seconds to minutes; a block's probes, taken between its queries, slow
    down with it, so dividing by their slowdown leaves the program's own
    speed.  Every block still contains the program's own stalls (GC,
    eviction), which recur well within a second.
    """
    metrics = {
        name: {
            "value": statistics.median(at_nominal(b, name) for b in segment.blocks),
            "unit": "1/s" if name == "throughput_qps" else "ms",
        }
        for name in FIGURES
    }
    metrics["peak_rss_mib"] = {"value": segment.peak_rss_mib, "unit": "MiB"}
    metrics["setup_s"] = {"value": segment.setup_s, "unit": "s"}
    return metrics


def as_measured(segment: Segment) -> Dict[str, float]:
    """The same medians before rescaling, and the host's median slowdown."""
    out = {
        name: statistics.median(figure(b) for b in segment.blocks)
        for name, (figure, _, _) in FIGURES.items()
    }
    out["setup_s"] = segment.setup_raw_s
    out["slowdown"] = statistics.median(slowdown(b.probes) for b in segment.blocks)
    out["cpu_slowdown"] = statistics.median(
        slowdown(b.probes, cpu=True) for b in segment.blocks
    )
    return out


def per_kind(segment: Segment) -> Dict[str, Dict[str, float]]:
    """Timed queries and their median latency, per query kind."""
    latencies: Dict[str, List[float]] = {}
    for sample in segment.samples:
        latencies.setdefault(sample.key, []).append(sample.latency)
    return {
        key: {"count": len(values), "p50_ms": statistics.median(values) * 1000.0}
        for key, values in sorted(latencies.items())
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(segment: Segment, baseline: Segment) -> Dict[str, Dict[str, Any]]:
    """Per-layer metrics of a traced segment (timed queries only).

    ``semantics.successor_calls`` (counted from outside) sits next to
    ``semantics.cache_misses_reported`` and ``hstate.interned_reported``
    (the response counters) because they disagree on sup_reachability:
    the response refreshes those counters only at the end of
    ``AnalysisSession.explore``, which that procedure never calls.
    """
    assert segment.trace is not None
    timed = {s.request_id for s in segment.samples}
    records = [r for r in segment.trace["queries"] if r["request_id"] in timed]
    n = len(segment.samples)

    def total(key: str) -> float:
        return sum(r.get(key, 0) for r in records)

    def work(key: str) -> float:
        return sum(s.work[key] for s in segment.samples)

    expanded = work("states_expanded")
    explore_s = total("explore_s")
    hstate = total("hstate_init")
    samples = segment.trace["samples"]
    metrics = {
        "serve.overhead_ms": (
            statistics.median((s.latency - s.elapsed) * 1000.0 for s in segment.samples),
            "ms",
        ),
        "serve.pool_misses_per_query": (total("pool_misses") / n, "count"),
        "serve.pool_evictions_per_query": (total("pool_evictions") / n, "count"),
        "lang.compile_ms": ((total("compile_s") + total("fingerprint_s")) * 1000.0 / n, "ms"),
        "api.execute_ms": (statistics.median(s.elapsed * 1000.0 for s in segment.samples), "ms"),
        "session.explore_ms": (explore_s * 1000.0 / n, "ms"),
        "session.states_expanded": (expanded / n, "count"),
        "session.expanded_per_s": (_ratio(expanded, explore_s), "1/s"),
        "procedure.ms": (
            statistics.median(
                (s.work["query_seconds"] - s.work["explore_seconds"]) * 1000.0
                for s in segment.samples
            ),
            "ms",
        ),
        "semantics.successor_calls": (total("successor_calls") / n, "count"),
        "semantics.cache_misses": (total("successor_computed") / n, "count"),
        "semantics.cache_misses_reported": (work("successor_cache_misses") / n, "count"),
        "hstate.constructed_per_query": (hstate / n, "count"),
        "hstate.constructed_per_expansion": (_ratio(hstate, expanded), "ratio"),
        "hstate.useful_ratio": (_ratio(total("interned_new"), hstate), "ratio"),
        "hstate.interned_reported": (work("interned_states") / n, "count"),
        "hstate.sample_share": (_ratio(samples["hstate"], samples["total"]), "ratio"),
        "embedding.calls": (total("embed_calls") / n, "count"),
        "embedding.signature_refutation_share": (
            _ratio(work("embedding_signature_refutations"), work("embedding_calls")),
            "ratio",
        ),
        "embedding.memo_hits": (work("embedding_memo_hits") / n, "count"),
        "embedding.sample_share": (_ratio(samples["embedding"], samples["total"]), "ratio"),
        "parallel.pool_spawn_ms": (total("pool_spawn_s") * 1000.0 / n, "ms"),
        "parallel.adopt_calls": (total("adopt_calls") / n, "count"),
        "parallel.worker_seconds": (total("worker_seconds") / n, "s"),
        "parallel.coordinator_ms": (
            (total("parallel_s_cpu") - total("pool_spawn_s_cpu")) * 1000.0 / n,
            "ms",
        ),
        "gc.pause_ms_per_query": (total("gc_pause_s") * 1000.0 / n, "ms"),
        "gc.gen2_per_query": (total("gc_gen2") / n, "count"),
        "obs.trace_overhead_pct": ((baseline.qps / segment.qps - 1.0) * 100.0, "%"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _terminate(signum, _frame) -> None:
    # unwind through the ``finally`` blocks that stop the daemon
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="Served-query benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "serve", "daemon.py")):
        print(f"perfbench: no repro sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.chdir(ROOT)
    os.makedirs(RUN_DIR, exist_ok=True)
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    host = {"start": host_labels()}
    plan = build_plan(workload, args.seed, args.seconds)
    checker = Checker(plan)
    name = f"{workload.name}-{os.getpid()}"
    record: Dict[str, Any] = {"workload": workload.name, "seed": args.seed}
    if args.trace:
        half = args.seconds / 2
        baseline = run_segment(
            plan, checker, half, traced=False, setups=1, name=name + "-plain"
        )
        segment = run_segment(
            plan, checker, half, traced=True, setups=1, name=name + "-traced"
        )
        metrics = per_layer(segment, baseline)
        record["profilers"] = segment.trace["profilers"]
    else:
        segment = run_segment(
            plan, checker, args.seconds, traced=False, setups=SETUPS, name=name
        )
        metrics = end_to_end(segment)
        record["as_measured"] = as_measured(segment)
    host["end"] = host_labels()
    host["overloaded"] = max(host["start"]["load1"], host["end"]["load1"]) > host["start"]["nproc"]
    if host["overloaded"]:
        print("perfbench: load average exceeded nproc during this run", file=sys.stderr)
    record.update(
        host=host,
        block_qps=[round(len(b.latencies) / b.seconds, 1) for b in segment.blocks],
        queries=len(segment.samples),
        kinds=per_kind(segment),
        pool={k: {f: v.get(f) for f in ("hits", "misses", "evictions")} for k, v in segment.pool.items()},
        failures=checker.failures,
    )
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
