"""Scaling of the sharded parallel explorer on ``wide_mix``.

``AnalysisSession(workers=N)`` shards successor computation across a
``multiprocessing`` pool that fills the successor cache ahead of the
session's own exploration loop (``repro.analysis.parallel``), so the
grown graph — and every verdict — is state-for-state identical to the
sequential run.
This benchmark pins both halves of that claim:

* **scaling** — one fixed exploration of ``wide_mix(4)`` at
  ``workers=1`` (the untouched sequential path), ``2`` and ``4``, fresh
  session and pool per repeat, best-of-N per cell;
* **zero drift** — the ``workers=4`` run must discover the exact same
  states in the exact same order as the sequential run, and a battery of
  decision procedures (boundedness / halting / normedness) must return
  identical verdict summaries on both.  Any mismatch fails the bench;
* **recovery overhead** — a ``workers=2`` arm with a seeded mid-run
  worker ``SIGKILL`` (:class:`~repro.robust.ProcessFaultPlan`): the
  supervisor detects the death and degrades the session, which finishes
  the exploration in-process, and the whole disturbance must cost at
  most ``MAX_RECOVERY_OVERHEAD`` x the undisturbed ``workers=2`` time —
  and land on the byte-identical graph.  A run where the planned kill
  never fires (so the session never degraded) fails the bench;
* **protocol** — each undisturbed sharded arm reports its windows
  (``parallel.rounds``) and worker messages (the ``count`` of the
  ``parallel.worker_seconds`` histogram: one answer per worker per
  window).  Both are exact, so ``--smoke`` fails unless they equal
  :data:`SMOKE_PROTOCOL`;
* **split** — the full run makes one extra, untimed, traced exploration
  per sharded arm and reduces its ``parallel.window`` and
  ``session.explore`` spans to four totals: worker time on each
  window's critical path (the slowest worker's reported seconds),
  coordinator apply time, the rest of the window time (dispatch,
  pickling and pipe wait), and the loop's time outside windows
  (``session.explore`` wall minus window wall).

**Hardware-aware acceptance.**  Wall-clock speedup needs physical
parallelism: with **4+ cores** the bar is ``workers=4`` at least
2x faster than sequential (the committed scaling contract, enforced by
``watch_regressions.py`` via the acceptance flag).  On smaller hosts —
CI smoke shards, laptops on battery, this repo's 1-core container — a
2x wall-clock demand would measure the scheduler, not the engine, so
the bar degrades honestly: zero drift plus a bounded parallelism
overhead (``workers=4`` no slower than ``MAX_CORE_BOUND_OVERHEAD`` x
sequential, i.e. sharding on starved hardware stays affordable).
``--smoke`` runs arm no timing bar at all — their workload is small
enough that fixed pool-spawn cost dominates — but the drift gate and
the protocol pins stay fatal.  The
artefact records which mode judged the run (``acceptance.mode``), the
core count, and the measured speedups, so a reader of the JSON knows
exactly what was demonstrated.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_parallel_explore.py [--smoke]

Writes ``BENCH_parallel_explore.json`` (``repro-bench/1`` schema).
"""

from __future__ import annotations

import sys

from _harness import BenchHarness, cores as _cores
from repro.analysis import boundedness, halts, normed
from repro.analysis.session import AnalysisSession
from repro.errors import AnalysisBudgetExceeded
from repro.obs import MemorySink, Tracer
from repro.obs.ledger import verdict_summary
from repro.robust import ProcessFaultPlan, install_process_faults
from repro.zoo import wide_mix

#: Exploration size: large enough that successor computation dominates
#: coordination, small enough for CI (sequential ~2s on one 2020s core).
MAX_STATES = 8_000
SMOKE_MAX_STATES = 1_500
REPEATS = 3
WORKER_ARMS = (1, 2, 4)
#: The sharded arms whose time split the full run reports.
SPLIT_ARMS = (2, 4)

#: Exact (windows, worker messages) per sharded arm at
#: :data:`SMOKE_MAX_STATES`: one message per worker per window.
SMOKE_PROTOCOL = {2: (15, 29), 4: (15, 51)}

#: 4-core bar: workers=4 must be at least this much faster than workers=1.
MIN_SPEEDUP_AT_4 = 2.0
#: Core-bound bar: on hosts without 4 cores, workers=4 may cost at most
#: this factor of the sequential time (sharding stays affordable even
#: when the OS multiplexes every worker onto one core).
MAX_CORE_BOUND_OVERHEAD = 3.5
#: State budget for the drift-gate decision procedures (kept below the
#: exploration size so each procedure answers from the shared graph).
DRIFT_MAX_STATES = 2_000

#: Recovery arm: SIGKILL worker 0 at exploration window 2 (early enough
#: that most of the run happens after the degrade, so the arm measures
#: the in-process steady state, not just the blip).
RECOVERY_PLAN = ProcessFaultPlan(kill_at=((2, 0),), max_kills=1, immune=0)
#: The disturbed ``workers=2`` run may cost at most this factor of the
#: undisturbed one: detect + degrade + in-process rest stays < 10%.
MAX_RECOVERY_OVERHEAD = 1.10


def _explore(workers: int, max_states: int):
    """(states, expanded, windows, worker messages) of one exploration."""
    session = AnalysisSession(wide_mix(4), workers=workers)
    try:
        graph = session.explore(max_states)
        metrics = session.metrics.as_dict()
        rounds = (metrics.get("parallel.rounds") or {}).get("value", 0)
        answers = (metrics.get("parallel.worker_seconds") or {}).get("labels") or {}
        messages = sum(child["count"] for child in answers.values())
        return len(graph.states), session.expanded_count, rounds, messages
    finally:
        session.close()


def _split(workers: int, max_states: int) -> dict:
    """Where one traced exploration's time goes (seconds, untimed run)."""
    sink = MemorySink()
    session = AnalysisSession(wide_mix(4), tracer=Tracer(sink), workers=workers)
    try:
        session.explore(max_states)
    finally:
        session.close()
    spans = [record for record in sink.snapshot() if record.get("type") == "span"]
    windows = [span for span in spans if span["name"] == "parallel.window"]
    explore_wall = max(
        span["wall"] for span in spans if span["name"] == "session.explore"
    )
    window_wall = sum(window["wall"] for window in windows)
    critical = sum(window["attrs"]["slowest_chunk_seconds"] for window in windows)
    apply_seconds = sum(window["attrs"]["apply_seconds"] for window in windows)
    return {
        "windows": len(windows),
        "explore_seconds": explore_wall,
        "critical_worker_seconds": critical,
        "apply_seconds": apply_seconds,
        "window_rest_seconds": window_wall - critical - apply_seconds,
        "outside_windows_seconds": explore_wall - window_wall,
    }


def _explore_recovery(max_states: int):
    """One ``workers=2`` exploration with a seeded worker kill."""
    session = AnalysisSession(wide_mix(4), workers=2)
    try:
        install_process_faults(session, RECOVERY_PLAN)
        graph = session.explore(max_states)
        if not session._parallel_degraded:
            raise AssertionError(
                "recovery arm measured nothing: the planned worker kill "
                "never fired (exploration too small to reach window 2?)"
            )
        return len(graph.states), session.expanded_count
    finally:
        session.close()


def _verdict_battery(workers: int, max_states: int, fault_plan=None):
    """Graph prefix + decision-procedure summaries for one worker count."""
    scheme = wide_mix(4)
    session = AnalysisSession(scheme, workers=workers)
    try:
        if fault_plan is not None:
            install_process_faults(session, fault_plan)
        graph = session.explore(max_states)
        states = [state.to_notation() for state in graph.states]
        verdicts = {}
        for name, procedure in (
            ("boundedness", boundedness),
            ("halts", halts),
            ("normed", normed),
        ):
            try:
                verdicts[name] = verdict_summary(
                    procedure(scheme, max_states=DRIFT_MAX_STATES, session=session)
                )
            except AnalysisBudgetExceeded as exc:
                # an inconclusive answer is still an answer: both arms
                # must run out at exactly the same exploration extent
                verdicts[name] = {
                    "verdict": "inconclusive",
                    "explored": exc.explored,
                }
        return states, verdicts
    finally:
        session.close()


def run(smoke: bool = False) -> tuple:
    max_states = SMOKE_MAX_STATES if smoke else MAX_STATES
    repeats = 1 if smoke else REPEATS
    cores = _cores()
    harness = BenchHarness("parallel_explore", warmup=0, repeats=repeats)

    best = {}
    sizes = {}
    protocol = {}
    for workers in WORKER_ARMS:
        seconds, outcome = harness.measure(
            f"wide_mix/workers{workers}",
            lambda workers=workers: _explore(workers, max_states),
        )
        best[workers] = seconds
        sizes[workers] = outcome[:2]
        protocol[workers] = outcome[2:]
    recovery_seconds, recovery_size = harness.measure(
        "wide_mix/workers2_recovery",
        lambda: _explore_recovery(max_states),
    )
    sizes["2+kill"] = recovery_size
    if len(set(sizes.values())) != 1:
        raise AssertionError(
            f"worker arms disagree on exploration size: {sizes!r}"
        )

    # drift gate: the parallel graph and verdicts must match sequential
    drift_states = SMOKE_MAX_STATES if smoke else DRIFT_MAX_STATES
    seq_states, seq_verdicts = _verdict_battery(1, drift_states)
    par_states, par_verdicts = _verdict_battery(4, drift_states)
    rec_states, rec_verdicts = _verdict_battery(
        2, drift_states, fault_plan=RECOVERY_PLAN
    )
    mismatches = []
    if seq_states != par_states:
        mismatches.append(
            f"state drift: {len(seq_states)} sequential vs "
            f"{len(par_states)} parallel states (or same count, "
            f"different order)"
        )
    if seq_states != rec_states:
        mismatches.append(
            f"recovery drift: {len(rec_states)} states after a worker "
            f"kill vs {len(seq_states)} sequential (or same count, "
            f"different order)"
        )
    for name in seq_verdicts:
        if seq_verdicts[name] != par_verdicts[name]:
            mismatches.append(
                f"verdict drift on {name}: {seq_verdicts[name]!r} vs "
                f"{par_verdicts[name]!r}"
            )
        if seq_verdicts[name] != rec_verdicts[name]:
            mismatches.append(
                f"recovery verdict drift on {name}: "
                f"{seq_verdicts[name]!r} vs {rec_verdicts[name]!r}"
            )
    if smoke:
        for workers, expected in SMOKE_PROTOCOL.items():
            if protocol[workers] != expected:
                mismatches.append(
                    f"protocol drift at workers={workers}: (windows, "
                    f"messages) = {protocol[workers]}, expected {expected}"
                )
    if mismatches:
        raise AssertionError("; ".join(mismatches))
    split = (
        {}
        if smoke
        else {str(workers): _split(workers, max_states) for workers in SPLIT_ARMS}
    )

    speedups = {
        str(workers): best[1] / best[workers] if best[workers] > 0 else None
        for workers in WORKER_ARMS
    }
    recovery_overhead = (
        recovery_seconds / best[2] if best[2] > 0 else None
    )
    recovery_ok = (
        recovery_overhead is not None
        and recovery_overhead <= MAX_RECOVERY_OVERHEAD
    )
    if smoke:
        # the smoke workload is deliberately tiny, so fixed pool-spawn
        # cost dominates and any timing bar would measure startup, not
        # scaling; smoke runs are a drift + end-to-end sanity pass
        mode = "smoke"
        within = True
        bar = "zero drift only (timing bar armed on the full run)"
    elif cores >= 4:
        mode = "multi-core"
        within = (
            speedups["4"] is not None
            and speedups["4"] >= MIN_SPEEDUP_AT_4
            and recovery_ok
        )
        bar = (
            f"workers=4 speedup >= {MIN_SPEEDUP_AT_4:g}x and recovery "
            f"overhead <= {MAX_RECOVERY_OVERHEAD:g}x workers=2"
        )
    else:
        mode = "core-bound"
        within = best[4] <= MAX_CORE_BOUND_OVERHEAD * best[1] and recovery_ok
        bar = (
            f"workers=4 <= {MAX_CORE_BOUND_OVERHEAD:g}x sequential and "
            f"recovery overhead <= {MAX_RECOVERY_OVERHEAD:g}x workers=2 "
            f"(only {cores} core(s): wall-clock speedup would measure "
            f"the scheduler, not the engine)"
        )
    results = {
        "benchmark": "parallel_explore",
        "smoke": smoke,
        "max_states": max_states,
        "repeats": repeats,
        "workload": "wide_mix(4) exploration, fresh session+pool per repeat",
        "cells": [
            {
                "workers": workers,
                "seconds": best[workers],
                "states": sizes[workers][0],
                "expanded": sizes[workers][1],
                "windows": protocol[workers][0],
                "worker_messages": protocol[workers][1],
                "speedup_vs_sequential": speedups[str(workers)],
            }
            for workers in WORKER_ARMS
        ]
        + [
            {
                "workers": 2,
                "arm": "recovery",
                "seconds": recovery_seconds,
                "states": recovery_size[0],
                "expanded": recovery_size[1],
                "overhead_vs_workers2": recovery_overhead,
            }
        ],
        "split": split,
        "drift": {
            "checked_states": len(seq_states),
            "procedures": sorted(seq_verdicts),
            "mismatches": 0,
        },
        "acceptance": {
            "mode": mode,
            "cores": cores,
            "bar": bar,
            "speedup_at_4": speedups["4"],
            "min_speedup_at_4": MIN_SPEEDUP_AT_4,
            "max_core_bound_overhead": MAX_CORE_BOUND_OVERHEAD,
            "recovery_overhead": recovery_overhead,
            "max_recovery_overhead": MAX_RECOVERY_OVERHEAD,
            "drift_mismatches": 0,
            "within_budget": bool(within),
        },
    }
    return results, harness


def main(argv=None) -> None:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    results, harness = run(smoke=smoke)
    acceptance = results["acceptance"]
    for cell in results["cells"]:
        if cell.get("arm") == "recovery":
            print(
                f"workers={cell['workers']}+kill: {cell['seconds']:.3f}s "
                f"({cell['states']} states, "
                f"{cell['overhead_vs_workers2']:.2f}x vs undisturbed)"
            )
            continue
        speedup = cell["speedup_vs_sequential"]
        print(
            f"workers={cell['workers']}: {cell['seconds']:.3f}s "
            f"({cell['states']} states, {speedup:.2f}x vs sequential, "
            f"{cell['windows']} windows, {cell['worker_messages']} worker messages)"
        )
    for workers, split in results["split"].items():
        print(
            f"split workers={workers} (traced): explore "
            f"{split['explore_seconds']:.3f}s = critical-path workers "
            f"{split['critical_worker_seconds']:.3f}s + apply "
            f"{split['apply_seconds']:.3f}s + rest of windows "
            f"{split['window_rest_seconds']:.3f}s + outside windows "
            f"{split['outside_windows_seconds']:.3f}s"
        )
    print(
        f"acceptance [{acceptance['mode']}, {acceptance['cores']} core(s)] "
        f"{acceptance['bar']}: "
        f"{'PASS' if acceptance['within_budget'] else 'FAIL'}  "
        f"(drift mismatches: {acceptance['drift_mismatches']})"
    )
    if not acceptance["within_budget"]:
        raise SystemExit(1)
    if smoke:
        print("smoke run: JSON not written")
        return
    out = harness.write(
        results=results,
        meta={"max_states": results["max_states"]},
    )
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
