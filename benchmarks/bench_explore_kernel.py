"""The exploration kernel: wall-clock and exact work counts of one BFS.

Every decision procedure grows the reachable fragment of ``M_G`` through
the session's breadth-first loop: successor computation, ``HState``
construction and interning.  This benchmark times that loop alone,
sequentially, per cell:

* ``widemix4`` — ``AnalysisSession(wide_mix(4)).explore(8000)``;
* ``pipeline3`` — ``AnalysisSession(deep_pipeline(3)).explore(8000)``;
* ``grove2x2`` — ``mixed_grove(2, 2)``, which saturates at 93 states.

Each cell records the minimum wall-clock over fresh sessions (session
construction included).  One extra counted run then records the states,
the expansions, the ``HState.__init__`` calls and the ``Signature.of``
calls.  The two call counts come from wrappers this script installs for
the counted run only, as ``perfbench/launcher.py`` does: the program is
not modified and the timed runs are unwrapped.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_explore_kernel.py [--smoke]

Writes ``BENCH_explore_kernel.json`` (``repro-bench/1`` schema).
``--smoke`` writes nothing: it explores each cell to 1,000 states
(``grove2x2`` still saturates) and fails unless the work counts equal
:data:`SMOKE_COUNTS`.  They are exact and do not depend on
``PYTHONHASHSEED``, so a change that builds more states per expansion,
or builds signatures while exploring, fails the smoke run.
"""

from __future__ import annotations

import contextlib
import functools
import sys

from _harness import BenchHarness
from repro.analysis.session import AnalysisSession
from repro.core.hstate import HState, Signature
from repro.zoo import deep_pipeline, mixed_grove, wide_mix

MAX_STATES = 8_000
SMOKE_MAX_STATES = 1_000
REPEATS = 5

#: (cell, scheme factory); every cell explores to the same state cap.
CELLS = [
    ("widemix4", lambda: wide_mix(4)),
    ("pipeline3", lambda: deep_pipeline(3)),
    ("grove2x2", lambda: mixed_grove(2, 2)),
]

#: Exact work per cell at :data:`SMOKE_MAX_STATES`.
SMOKE_COUNTS = {
    "widemix4": {"expansions": 674, "hstate_init_calls": 6_959, "signature_of_calls": 0},
    "pipeline3": {"expansions": 808, "hstate_init_calls": 8_177, "signature_of_calls": 0},
    "grove2x2": {"expansions": 93, "hstate_init_calls": 712, "signature_of_calls": 0},
}


@contextlib.contextmanager
def counted_calls():
    """Count ``HState.__init__`` and ``Signature.of`` calls while open."""
    counts = {"hstate_init_calls": 0, "signature_of_calls": 0}
    init = HState.__init__
    of = Signature.__dict__["of"]

    @functools.wraps(init)
    def counted_init(self, *args, **kwargs):
        counts["hstate_init_calls"] += 1
        return init(self, *args, **kwargs)

    @functools.wraps(of.__func__)
    def counted_of(cls, *args, **kwargs):
        counts["signature_of_calls"] += 1
        return of.__func__(cls, *args, **kwargs)

    HState.__init__ = counted_init
    Signature.of = classmethod(counted_of)
    try:
        yield counts
    finally:
        HState.__init__ = init
        Signature.of = of


def _explore(scheme, max_states: int) -> AnalysisSession:
    session = AnalysisSession(scheme)
    session.explore(max_states)
    return session


def run(smoke: bool = False) -> tuple:
    max_states = SMOKE_MAX_STATES if smoke else MAX_STATES
    harness = BenchHarness(
        "explore_kernel", warmup=0 if smoke else 1, repeats=1 if smoke else REPEATS
    )
    cells = []
    for name, factory in CELLS:
        scheme = factory()
        # keep no session alive across repeats: its states would slow the
        # next run's garbage collections
        seconds, _ = harness.measure(
            name, lambda: len(_explore(scheme, max_states).graph)
        )
        with counted_calls() as counts:
            session = _explore(scheme, max_states)
        expansions = session.expanded_count
        cells.append(
            {
                "cell": name,
                "seconds": seconds,
                "states": len(session.graph),
                "complete": session.graph.complete,
                "expansions": expansions,
                **counts,
                "constructions_per_expansion": counts["hstate_init_calls"] / expansions,
            }
        )
    results = {
        "benchmark": "explore_kernel",
        "smoke": smoke,
        "max_states": max_states,
        "workload": "sequential AnalysisSession.explore, fresh session per run",
        "cells": cells,
    }
    return results, harness


def smoke_mismatches(cells) -> list:
    """One line per work count that differs from :data:`SMOKE_COUNTS`."""
    lines = []
    for cell in cells:
        for key, expected in SMOKE_COUNTS[cell["cell"]].items():
            if cell[key] != expected:
                lines.append(f"{cell['cell']}: {key} = {cell[key]}, expected {expected}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    results, harness = run(smoke=smoke)
    for cell in results["cells"]:
        print(
            f"{cell['cell']:<10} {cell['seconds']:.3f}s  {cell['states']} states  "
            f"{cell['expansions']} expansions  {cell['hstate_init_calls']} HState.__init__  "
            f"{cell['signature_of_calls']} Signature.of  "
            f"({cell['constructions_per_expansion']:.3f} constructions/expansion)"
        )
    if smoke:
        mismatches = smoke_mismatches(results["cells"])
        for line in mismatches:
            print(f"FAIL {line}")
        print("smoke run: JSON not written")
        return 1 if mismatches else 0
    out = harness.write(
        results=results, meta={"max_states": MAX_STATES}
    )
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
