"""Host-speed probe: a fixed piece of pure-Python work, timed.

The benchmark runs on a few cores of a shared host whose speed drifts
by tens of percent over seconds to minutes, as other tenants come and
go.  A probe does the same interpreter work every time (tuple and
frozenset hashing, dict updates, small-object allocation: the kind of
work the analysis kernel does), using no code of the repository, so a
change to the program never changes it.  Its duration measured next to
the program's own figures tells how fast the host ran at that moment;
:func:`run.end_to_end` rescales every timing to a host on which one
probe takes :data:`NOMINAL_SECONDS`, by the power :data:`ELASTICITY`.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import List, Sequence

#: Wall (and CPU) seconds one probe takes between the queries of a run
#: on a quiet 2-vCPU VM under Python 3.11.  Only ratios matter: it sets
#: the scale of the reported figures, not how two commits compare.
NOMINAL_SECONDS = 0.00225

#: The program's timings move as about this power of the probe's: the
#: probe, a tight loop over a small working set, loses more to a busy
#: neighbour than the program does.  Chosen from 21 runs of cold_explore,
#: cold_embed and warm_mix on a 2-vCPU VM whose probe took 2.2-3.8 ms:
#: against 0.5 and 1.0 it gave the smallest run-to-run spread on 10 of the
#: 12 workload/timing pairs, and the smallest largest spread (0.10).
ELASTICITY = 0.75

#: Loop iterations of one probe.
ITERATIONS = 2500


class _Node:
    __slots__ = ("key", "children")

    def __init__(self, key, children) -> None:
        self.key = key
        self.children = children


def _work() -> int:
    table = {}
    nodes = []
    for i in range(ITERATIONS):
        key = (i % 97, (i * 7) % 89, ("q", i % 13))
        marks = frozenset((key[0], key[1], i % 5))
        table[key] = table.get(key, 0) + len(marks)
        nodes.append(_Node(key, (marks,) if i % 3 else ()))
    return sum(table.values()) + sum(len(n.children) for n in nodes[::7])


@dataclass(frozen=True)
class Probe:
    wall: float
    cpu: float


def probe() -> Probe:
    """Run the fixed work once and time it on the wall and thread clocks.

    The collector is off meanwhile: a collection would scan the caller's
    heap, whose size is not the probe's to fix.  The work makes no cycles,
    so reference counting frees all of it.
    """
    gc.disable()
    try:
        started, started_cpu = time.perf_counter(), time.thread_time()
        _work()
        return Probe(time.perf_counter() - started, time.thread_time() - started_cpu)
    finally:
        gc.enable()


def slowdown(probes: Sequence[Probe], cpu: bool = False) -> float:
    """How much slower than nominal the program ran next to *probes* (> 1: slow)."""
    median = statistics.median(p.cpu if cpu else p.wall for p in probes)
    return (median / NOMINAL_SECONDS) ** ELASTICITY


def burst(count: int) -> List[Probe]:
    return [probe() for _ in range(count)]
