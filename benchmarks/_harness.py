"""Shared benchmark harness: warmup / repeat / minimum-of, on the registry.

Every benchmark in this directory used to hand-roll its own
``time.perf_counter()`` loops and its own ad-hoc JSON shape.  This module
centralises both:

* :class:`BenchHarness` — warmup runs (excluded from timing), N repeats,
  minimum-of aggregation; every measured cell is recorded into a
  :class:`~repro.obs.MetricsRegistry` (``bench.seconds{cell=...}``) and as
  a span in an in-memory trace, so the artefacts carry the raw
  observations, not just the summary;
* the standardized **BENCH schema** (``repro-bench/1``)::

      {
        "schema":  "repro-bench/1",
        "meta":    {"benchmark": ..., "python": ..., "platform": ...,
                    "cores": ...},
        "metrics": <MetricsRegistry.as_dict()>,
        "spans":   [<span/event records>],
        "results": <benchmark-specific payload>
      }

  validated by ``benchmarks/check_bench_schema.py`` in CI.

When the ``RPCHECK_LEDGER`` environment variable names a run-ledger
file, :meth:`BenchHarness.write` additionally appends a ``kind="bench"``
``rpcheck-ledger/1`` entry (cell timings, metrics snapshot, span
rollup), so benchmark runs land in the same cross-run history as
analysis runs and ``rpcheck diff`` / ``rpcheck history`` see them.

Run any benchmark with ``PYTHONPATH=src``; the harness has no
dependencies beyond ``repro.obs``.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import (
    Ledger,
    MemorySink,
    MetricsRegistry,
    SamplingProfiler,
    Tracer,
    make_entry,
)
from repro.obs.ledger import default_ledger_path

#: The BENCH artefact schema version (bump on breaking shape changes).
BENCH_SCHEMA = "repro-bench/1"

#: Repository root (BENCH_*.json artefacts live here).
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class BenchHarness:
    """Warmup/repeat/minimum-of measurement recording into ``repro.obs``.

    Parameters
    ----------
    name:
        The benchmark name (becomes ``meta.benchmark`` and the artefact
        file name ``BENCH_<name>.json``).
    warmup:
        Un-timed runs of each measured callable before timing starts
        (cache priming; 0 for cold-cost benchmarks).
    repeats:
        Timed runs per cell; the reported figure is the minimum.
    profile:
        Opt-in sampling rate in Hz.  When set, a
        :class:`~repro.obs.SamplingProfiler` runs across every timed
        call and its collapsed stacks land in the artefact
        (``results`` consumers find them via :meth:`profile_stacks`).
        Default off — sampling is cheap but not free.
    """

    def __init__(
        self,
        name: str,
        *,
        warmup: int = 0,
        repeats: int = 3,
        profile: Optional[int] = None,
    ) -> None:
        self.name = name
        self.warmup = warmup
        self.repeats = repeats
        self.metrics = MetricsRegistry()
        self.sink = MemorySink()
        self.tracer = Tracer(self.sink)
        self.profiler = SamplingProfiler(hz=profile) if profile else None
        self._seconds = self.metrics.histogram(
            "bench.seconds", "best-of-N seconds per measured cell"
        )
        self._runs = self.metrics.counter(
            "bench.runs", "timed runs executed (excluding warmup)"
        )

    def measure(
        self,
        cell: str,
        fn: Callable[[], Any],
        *,
        warmup: Optional[int] = None,
        repeats: Optional[int] = None,
    ) -> Tuple[float, Any]:
        """Time ``fn()`` and return ``(best_seconds, last_result)``.

        Runs *warmup* un-timed calls, then *repeats* timed ones, keeping
        the minimum.  The cell lands in the registry
        (``bench.seconds{cell=...}``) and in the trace as one span per
        timed run (attrs carry the repeat index), so per-run jitter stays
        inspectable in the artefact.
        """
        warmup = self.warmup if warmup is None else warmup
        repeats = self.repeats if repeats is None else repeats
        for _ in range(max(0, warmup)):
            fn()
        best: Optional[float] = None
        result: Any = None
        for repeat in range(max(1, repeats)):
            if self.profiler is not None:
                self.profiler.start()
            try:
                with self.tracer.span(f"bench.{cell}", repeat=repeat):
                    start = time.perf_counter()
                    result = fn()
                    elapsed = time.perf_counter() - start
            finally:
                if self.profiler is not None:
                    self.profiler.stop()
            self._runs.inc()
            if best is None or elapsed < best:
                best = elapsed
        self._seconds.labels(cell=cell).observe(best)
        return best, result

    def profile_stacks(self) -> list:
        """Collapsed stacks accumulated by the opt-in profiler (or [])."""
        if self.profiler is None:
            return []
        return self.profiler.collapsed()

    def payload(
        self,
        results: Any = None,
        meta: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """The BENCH-schema dict for this harness's recordings."""
        return bench_payload(
            self.name,
            metrics=self.metrics,
            spans=list(self.sink.records),
            results=results,
            meta={"warmup": self.warmup, "repeats": self.repeats, **(meta or {})},
        )

    def write(
        self,
        results: Any = None,
        meta: Optional[Dict[str, Any]] = None,
        path: Optional[pathlib.Path] = None,
    ) -> pathlib.Path:
        """Write ``BENCH_<name>.json`` at the repo root; returns the path.

        With ``RPCHECK_LEDGER`` set, also appends a ``kind="bench"``
        entry to the run ledger (see the module docstring).
        """
        target = path if path is not None else REPO_ROOT / f"BENCH_{self.name}.json"
        payload = self.payload(results=results, meta=meta)
        write_bench(target, payload)
        ledger_path = default_ledger_path()
        if ledger_path:
            Ledger(ledger_path).append(
                make_entry(
                    kind="bench",
                    metrics=payload["metrics"],
                    span_records=payload["spans"],
                    extra={"benchmark": self.name, "artefact": str(target)},
                )
            )
        return target


def cores() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def bench_payload(
    name: str,
    *,
    metrics: MetricsRegistry,
    spans: list,
    results: Any = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a ``repro-bench/1`` payload from its parts."""
    return {
        "schema": BENCH_SCHEMA,
        "meta": {
            "benchmark": name,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cores": cores(),
            **(meta or {}),
        },
        "metrics": metrics.as_dict(),
        "spans": spans,
        "results": results,
    }


def write_bench(path, payload: Dict[str, Any]) -> None:
    """Write one BENCH JSON artefact (pretty-printed, repr-degraded)."""
    text = json.dumps(payload, indent=2, default=repr) + "\n"
    pathlib.Path(path).write_text(text, encoding="utf-8")
