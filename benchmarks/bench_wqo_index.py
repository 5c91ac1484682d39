"""Naive-vs-indexed A/B benchmark for the WQO embedding fast path.

Runs the three embedding-heavy procedures — boundedness, sup-reachability
(minimal basis) and inevitability (halting instantiation) — on the
parametric deep/wide/mixed families of :data:`repro.zoo.ZOO_WQO_BENCH`,
twice each:

* **naive**: a session whose :class:`~repro.core.embedding.EmbeddingIndex`
  is constructed with ``accelerated=False`` — no signature refutation, no
  session-lifetime memo (tables dropped per top-level query), domination
  scans over every basis member: the historical cost model;
* **indexed**: the default accelerated session.

Verdicts (and, for sup-reachability, the full basis) are required to be
identical between the two arms; the JSON records timings, per-procedure
aggregate speedups and the indexed arm's embedding counters.

Run as a script (no pytest-benchmark dependency)::

    PYTHONPATH=src python benchmarks/bench_wqo_index.py [--smoke] [--trace F]

Writes ``BENCH_wqo_index.json`` at the repository root in the
``repro-bench/1`` schema (see ``benchmarks/_harness.py``).  ``--smoke``
runs a reduced matrix (one repeat, smaller budgets) without writing the
JSON — the CI sanity pass — and exits 1 unless the indexed arm's
embedding calls on each sup-reachability cell equal
:data:`SMOKE_SUP_REACH_CALLS` and those on each inevitability cell equal
:data:`SMOKE_INEVITABILITY_CALLS`.  The counts are exact and do not
depend on ``PYTHONHASHSEED``, so a change that asks the embedder about
more basis members fails the smoke run.  ``--trace FILE`` additionally
records a JSONL span trace of the indexed arm's sessions (uploaded as a
CI artifact).  The PR acceptance bar is a ≥ 2× aggregate speedup on at
least two of the three procedures.
"""

from __future__ import annotations

import sys

from _harness import BenchHarness
from repro.analysis import boundedness, inevitability, sup_reachability
from repro.analysis.session import AnalysisSession
from repro.core.embedding import EmbeddingIndex
from repro.core.hstate import HState
from repro.errors import AnalysisBudgetExceeded
from repro.obs import JsonlSink, Tracer
from repro.zoo import ZOO_WQO_BENCH

MAX_STATES = 2_500
MAX_KEPT = 2_500
REPEATS = 3

PROCEDURES = ("boundedness", "sup_reachability", "inevitability")

#: Exact embedding calls of the indexed arm's sup-reachability cells at
#: the smoke budget (grove2x3 exceeds it: the calls up to that point).
SMOKE_SUP_REACH_CALLS = {"pipeline3": 31, "widemix4": 6, "grove2x3": 5_201}

#: Exact embedding calls of the indexed arm's inevitability cells (the
#: all-leaf basis) at the smoke budget, pump searches included.
SMOKE_INEVITABILITY_CALLS = {"pipeline3": 16, "widemix4": 51, "grove2x3": 4_103}

#: The pinned cells: procedure → scheme → exact indexed-arm calls.
SMOKE_CALLS = {
    "sup_reachability": SMOKE_SUP_REACH_CALLS,
    "inevitability": SMOKE_INEVITABILITY_CALLS,
}


def _run_procedure(procedure: str, scheme, session, budget: int):
    """One timed query; returns a comparable summary of the outcome."""
    try:
        if procedure == "boundedness":
            verdict = boundedness(scheme, max_states=budget, session=session)
            return {"holds": verdict.holds, "method": verdict.method}
        if procedure == "sup_reachability":
            verdict = sup_reachability(scheme, max_kept=budget, session=session)
            basis = sorted(s.to_notation() for s in verdict.certificate.basis)
            return {"holds": verdict.holds, "basis": basis}
        basis = [HState.leaf(node) for node in scheme.node_ids]
        verdict = inevitability(scheme, basis, max_states=budget, session=session)
        return {"holds": verdict.holds, "method": verdict.method}
    except AnalysisBudgetExceeded as exc:
        return {"budget_exceeded": True, "explored": exc.explored}


def _time_arm(
    harness: BenchHarness,
    cell: str,
    procedure: str,
    factory,
    accelerated: bool,
    budget: int,
    repeats: int,
    tracer=None,
):
    """Best-of-*repeats* timing for one (procedure, scheme, arm) cell.

    Every repeat gets a fresh scheme *and* session: the point is the cost
    of one procedure call on a cold session, with only the arm differing.
    Scheme/session construction stays outside the measured region; each
    timed repeat lands in the harness registry under the cell label.
    """
    best = None
    outcome = None
    counters = None
    for _ in range(repeats):
        scheme = factory()
        session = AnalysisSession(
            scheme,
            embedding_index=EmbeddingIndex(accelerated=accelerated),
            tracer=tracer,
        )
        elapsed, result = harness.measure(
            cell,
            lambda: _run_procedure(procedure, scheme, session, budget),
            warmup=0,
            repeats=1,
        )
        if best is None or elapsed < best:
            best, outcome = elapsed, result
            counters = session.embedding_index.counters()
    return best, outcome, counters


def run(smoke: bool = False, trace: str = None) -> tuple:
    budget = 400 if smoke else MAX_STATES
    repeats = 1 if smoke else REPEATS
    harness = BenchHarness("wqo_index", warmup=0, repeats=repeats)
    tracer = Tracer(JsonlSink(trace)) if trace else None
    cells = []
    totals = {proc: {"naive": 0.0, "indexed": 0.0} for proc in PROCEDURES}
    for name, factory in ZOO_WQO_BENCH:
        for procedure in PROCEDURES:
            naive_s, naive_out, naive_counts = _time_arm(
                harness, f"{name}/{procedure}/naive", procedure, factory,
                False, budget, repeats,
            )
            fast_s, fast_out, fast_counts = _time_arm(
                harness, f"{name}/{procedure}/indexed", procedure, factory,
                True, budget, repeats, tracer=tracer,
            )
            if naive_out != fast_out:
                raise AssertionError(
                    f"{name}/{procedure}: naive and indexed arms disagree: "
                    f"{naive_out!r} vs {fast_out!r}"
                )
            totals[procedure]["naive"] += naive_s
            totals[procedure]["indexed"] += fast_s
            cells.append(
                {
                    "scheme": name,
                    "procedure": procedure,
                    "naive_seconds": naive_s,
                    "indexed_seconds": fast_s,
                    "speedup": naive_s / fast_s if fast_s else float("inf"),
                    "outcome": fast_out,
                    "naive_counters": naive_counts,
                    "indexed_counters": fast_counts,
                }
            )
    if tracer is not None:
        tracer.close()
    aggregates = {
        proc: {
            "naive_seconds": t["naive"],
            "indexed_seconds": t["indexed"],
            "speedup": t["naive"] / t["indexed"] if t["indexed"] else float("inf"),
        }
        for proc, t in totals.items()
    }
    results = {
        "benchmark": "wqo_index",
        "smoke": smoke,
        "budget": budget,
        "repeats": repeats,
        "cells": cells,
        "aggregate_by_procedure": aggregates,
        "procedures_at_2x": sorted(
            proc for proc, agg in aggregates.items() if agg["speedup"] >= 2.0
        ),
    }
    return results, harness


def smoke_mismatches(cells) -> list:
    """One line per pinned cell whose indexed-arm embedding calls differ
    from :data:`SMOKE_CALLS`."""
    lines = []
    for cell in cells:
        pins = SMOKE_CALLS.get(cell["procedure"])
        if pins is None:
            continue
        calls = cell["indexed_counters"]["calls"]
        expected = pins[cell["scheme"]]
        if calls != expected:
            lines.append(
                f"{cell['scheme']}/{cell['procedure']}: {calls} embedding "
                f"calls, expected {expected}"
            )
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    trace = None
    if "--trace" in argv:
        trace = argv[argv.index("--trace") + 1]
    results, harness = run(smoke=smoke, trace=trace)
    for proc, agg in results["aggregate_by_procedure"].items():
        print(
            f"  {proc:<18} {agg['speedup']:6.2f}x "
            f"(naive {agg['naive_seconds']:.3f}s, "
            f"indexed {agg['indexed_seconds']:.3f}s)"
        )
    print(f"procedures at >=2x: {results['procedures_at_2x']}")
    if trace:
        print(f"trace written to {trace}")
    if smoke:
        mismatches = smoke_mismatches(results["cells"])
        for line in mismatches:
            print(f"FAIL {line}")
        print("smoke run: JSON not written")
        return 1 if mismatches else 0
    out = harness.write(
        results=results,
        meta={"smoke": smoke, "budget": results["budget"]},
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
