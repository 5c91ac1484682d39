"""Traced ``rpcheck serve`` launcher: measures every layer from outside.

Run as ``python perfbench/launcher.py --out TRACE.json --socket PATH``
with ``src`` on ``PYTHONPATH``.  It wraps the public entry points of each
layer, starts the repository's sampling profiler on each thread that answers
queries and a GC callback, then hands over to :func:`repro.serve.serve_main` with the
remaining arguments.  Nothing is written while the daemon serves: one
record per answered query is kept in memory and the whole trace is
written to ``--out`` when the daemon shuts down.

Functions called too often to time each call (``HState.__init__``,
successor computation, top-level embedding checks) are only counted.
The program under test is not modified; every wrapper is installed on
the imported modules of this process only (forked exploration workers
inherit them, but their counts stay in the worker).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

import repro.analysis.parallel as parallel
import repro.api as api
import repro.lang as lang
import repro.serve.daemon as daemon
import repro.serve.pool as pool
from repro.analysis.session import AnalysisSession
from repro.core.embedding import Embedder
from repro.core.hstate import HState
from repro.core.semantics import AbstractSemantics, MemoizingSemantics
from repro.obs import SamplingProfiler

#: Sampling rate of the query-thread profilers (prime, see repro.obs).
SAMPLE_HZ = 197

#: Frame label that marks a sampled stack as answering a query.
QUERY_FRAME = ".traced_run_query"

#: Leaf-frame module prefixes that make up each sampled layer.
SAMPLE_LAYERS = {
    "hstate": ("repro.core.hstate.",),
    "embedding": ("repro.core.embedding.", "repro.wqo."),
}


class Probe:
    """Per-query counters and timers, filled by the wrappers below."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.active: Dict[int, Dict[str, Any]] = {}
        #: work done outside any query (between requests, at start-up)
        self.idle: Dict[str, Any] = {}
        self._gc_started: Optional[float] = None
        #: one thread-mode profiler per executor thread that ran a query
        self.profilers: Dict[int, SamplingProfiler] = {}

    def current(self) -> Dict[str, Any]:
        record = self.active.get(threading.get_ident())
        return record if record is not None else self.idle

    def count(self, name: str, amount: float = 1) -> None:
        record = self.current()
        record[name] = record.get(name, 0) + amount

    # -- wrappers ------------------------------------------------------

    def counted(self, name: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = self.active.get(threading.get_ident(), self.idle)
            record[name] = record.get(name, 0) + 1
            return original(*args, **kwargs)

        return wrapper

    def timed(self, name: str, original: Callable, *, cpu: bool = False) -> Callable:
        """Accumulate wall seconds (and thread CPU) of outermost calls."""
        depth_key = f"_{name}_depth"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = self.current()
            depth = record.get(depth_key, 0)
            record[depth_key] = depth + 1
            started = time.perf_counter()
            started_cpu = time.thread_time() if cpu else 0.0
            try:
                return original(*args, **kwargs)
            finally:
                record[depth_key] = depth
                if depth == 0:
                    record[name] = record.get(name, 0.0) + (
                        time.perf_counter() - started
                    )
                    record[name + "_calls"] = record.get(name + "_calls", 0) + 1
                    if cpu:
                        record[name + "_cpu"] = record.get(name + "_cpu", 0.0) + (
                            time.thread_time() - started_cpu
                        )

        return wrapper

    def on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        if self._gc_started is None:
            return
        record = self.current()
        record["gc_pause_s"] = record.get("gc_pause_s", 0.0) + (
            time.perf_counter() - self._gc_started
        )
        if info.get("generation") == 2:
            record["gc_gen2"] = record.get("gc_gen2", 0) + 1
        self._gc_started = None

    # -- installation --------------------------------------------------

    def install(self) -> None:
        # serve: one record per answered query, with pool deltas
        run_query = daemon.ServeDaemon._run_query
        probe = self

        @functools.wraps(run_query)
        def traced_run_query(self, request, budget, sinks):
            record: Dict[str, Any] = {"request_id": request.request_id}
            misses, evictions = self.pool.misses, self.pool.evictions
            ident = threading.get_ident()
            if ident not in probe.profilers:
                probe.profilers[ident] = SamplingProfiler(SAMPLE_HZ, mode="thread").start()
            probe.active[ident] = record
            started = time.perf_counter()
            try:
                return run_query(self, request, budget, sinks)
            finally:
                record["run_query_s"] = time.perf_counter() - started
                record["pool_misses"] = self.pool.misses - misses
                record["pool_evictions"] = self.pool.evictions - evictions
                del probe.active[ident]
                probe.records.append(
                    {k: v for k, v in record.items() if not k.startswith("_")}
                )

        daemon.ServeDaemon._run_query = traced_run_query
        # lang: compile and fingerprint, on both the pool and response paths
        lang.compile_source = self.timed("compile_s", lang.compile_source)
        pool.scheme_fingerprint = self.timed("fingerprint_s", pool.scheme_fingerprint)
        api.scheme_fingerprint = self.timed("fingerprint_s", api.scheme_fingerprint)
        # api and session
        daemon.execute = self.timed("execute_s", daemon.execute)
        AnalysisSession.explore = self.timed("explore_s", AnalysisSession.explore)
        # parallel: pool spawn, coordinator CPU, adopted states, worker time
        parallel.WorkerPool.__init__ = self.timed(
            "pool_spawn_s", parallel.WorkerPool.__init__, cpu=True
        )
        parallel.WorkerPool.adopt = self.counted("adopt_calls", parallel.WorkerPool.adopt)
        timed_parallel = self.timed("parallel_s", parallel.explore_parallel, cpu=True)

        @functools.wraps(parallel.explore_parallel)
        def traced_parallel(session, *args, **kwargs):
            before = _worker_seconds(session)
            try:
                return timed_parallel(session, *args, **kwargs)
            finally:
                probe.count("worker_seconds", _worker_seconds(session) - before)

        parallel.explore_parallel = traced_parallel
        # kernel: counted only
        MemoizingSemantics.successors = self.counted(
            "successor_calls", MemoizingSemantics.successors
        )
        AbstractSemantics.successors = self.counted(
            "successor_computed", AbstractSemantics.successors
        )
        intern = MemoizingSemantics.intern

        @functools.wraps(intern)
        def counted_intern(self, state):
            canonical = intern(self, state)
            if canonical is state:
                probe.count("interned_new")
            return canonical

        MemoizingSemantics.intern = counted_intern
        HState.__init__ = self.counted("hstate_init", HState.__init__)
        Embedder.forest_embeds = self.counted("embed_calls", Embedder.forest_embeds)
        gc.callbacks.append(self.on_gc)

    def layer_samples(self) -> Dict[str, int]:
        """Samples taken inside queries, per layer of the leaf frame."""
        out = {"total": 0, **{layer: 0 for layer in SAMPLE_LAYERS}}
        stacks = [p.samples.items() for p in self.profilers.values()]
        for stack, hits in (item for items in stacks for item in items):
            if not any(label.endswith(QUERY_FRAME) for label in stack):
                continue
            out["total"] += hits
            leaf = stack[-1]
            for layer, prefixes in SAMPLE_LAYERS.items():
                if leaf.startswith(prefixes):
                    out[layer] += hits
        return out


def _worker_seconds(session) -> float:
    """Busy seconds the session's exploration workers have reported."""
    metric = session.metrics.as_dict().get("parallel.worker_seconds") or {}
    return sum(
        child.get("sum") or 0.0 for child in (metric.get("labels") or {}).values()
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="trace JSON written at shutdown")
    args, serve_argv = parser.parse_known_args(argv)
    probe = Probe()
    probe.install()
    try:
        code = daemon.serve_main(serve_argv)
    finally:
        for profiler in probe.profilers.values():
            profiler.stop()
        gc.callbacks.remove(probe.on_gc)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "queries": probe.records,
                "idle": dict(probe.idle),
                "samples": probe.layer_samples(),
                "profilers": [p.stats() for p in probe.profilers.values()],
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
