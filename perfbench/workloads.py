"""Workload definitions for the served-query benchmark.

Every program is generated as RP source text from a small set of fixed
shapes.  A *tag* renames every procedure, action and test of an
instance, so two instances of one shape compile to the same node ids
(``q0``, ``q1``, ...) and the same state space, but to different scheme
fingerprints: the daemon treats each tagged instance as a program it
has never seen.  That is what makes a query "cold".

All request lists are built from ``--seed`` before any timing starts;
the daemon only ever receives the generated requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import AnalysisRequest

# ----------------------------------------------------------------------
# Program shapes (RP source generators)
# ----------------------------------------------------------------------


def grove(depth: int, width: int, tag: str) -> str:
    """Bushy and bounded: level ``i`` pcalls level ``i+1`` *width* times."""
    parts = []
    for i in range(depth):
        keyword = "program" if i == 0 else "procedure"
        calls = "".join(f"    pcall level{i + 1}_{tag};\n" for _ in range(width))
        parts.append(
            f"{keyword} level{i}_{tag} {{\n{calls}    wait;\n    end;\n}}\n"
        )
    parts.append(f"procedure level{depth}_{tag} {{\n    leaf_{tag};\n    end;\n}}\n")
    return "\n".join(parts)


def wide_mix(kinds: int, tag: str) -> str:
    """Wide and unbounded: a loop spawning one worker of each kind per round."""
    calls = "".join(f"        pcall worker{k}_{tag};\n" for k in range(kinds))
    parts = [
        f"program main_{tag} {{\n    while more_{tag} do {{\n{calls}    }}\n"
        f"    end;\n}}\n"
    ]
    for k in range(kinds):
        parts.append(
            f"procedure worker{k}_{tag} {{\n    work{k}_{tag};\n    end;\n}}\n"
        )
    return "\n".join(parts)


def deep_pipeline(segments: int, tag: str) -> str:
    """Tall and unbounded: self-recursive segments handed over in a chain."""
    parts = []
    for i in range(segments):
        keyword = "program" if i == 0 else "procedure"
        handover = (
            f"    pcall segment{i + 1}_{tag};\n" if i + 1 < segments else ""
        )
        parts.append(
            f"{keyword} segment{i}_{tag} {{\n"
            f"    if b{i}_{tag} then {{\n"
            f"        pcall segment{i}_{tag};\n"
            f"        wait;\n"
            f"    }} else {{\n    }}\n"
            f"{handover}    end;\n}}\n"
        )
    return "\n".join(parts)


def spawner(children: int, tag: str) -> str:
    """Wide and bounded: spawn *children* workers, wait for all, end."""
    calls = "".join(f"    pcall child_{tag};\n" for _ in range(children))
    return (
        f"program main_{tag} {{\n{calls}    wait;\n    end;\n}}\n\n"
        f"procedure child_{tag} {{\n    work_{tag};\n    end;\n}}\n"
    )


def relay(levels: int, tag: str) -> str:
    """Tall and bounded: each level acts, pcalls the next level and waits."""
    parts = []
    for i in range(levels):
        keyword = "program" if i == 0 else "procedure"
        parts.append(
            f"{keyword} stage{i}_{tag} {{\n    step{i}_{tag};\n"
            f"    pcall stage{i + 1}_{tag};\n    wait;\n    end;\n}}\n"
        )
    parts.append(f"procedure stage{levels}_{tag} {{\n    last_{tag};\n    end;\n}}\n")
    return "\n".join(parts)


SHAPES: Dict[str, Callable[[str], str]] = {
    "grove2x2": lambda tag: grove(2, 2, tag),
    "widemix4": lambda tag: wide_mix(4, tag),
    "pipeline3": lambda tag: deep_pipeline(3, tag),
    "pipeline5": lambda tag: deep_pipeline(5, tag),
    "spawn3": lambda tag: spawner(3, tag),
    "relay3": lambda tag: relay(3, tag),
}

# ----------------------------------------------------------------------
# Work counters
# ----------------------------------------------------------------------

#: Response ``stats`` counters recorded for every query.
COUNTERS = (
    "states_discovered",
    "states_expanded",
    "transitions_fired",
    "successor_cache_misses",
    "interned_states",
    "embedding_calls",
    "embedding_signature_refutations",
    "embedding_memo_hits",
)

#: Counters that define *what* a query explores: the reachable fragment
#: of ``M_G`` it builds.  They are properties of the program and the
#: procedure, not of the implementation, so they are pinned here and a
#: workload that silently stops doing its work fails the run.  The other
#: counters (cache misses, interning, embedding calls) may change with an
#: optimisation; every served answer must repeat the in-process oracle's
#: values exactly (on the sharded workload, only the embedding ones).
SEMANTIC_COUNTERS = ("states_discovered", "states_expanded", "transitions_fired")


@dataclass(frozen=True)
class Template:
    """One kind of query: a shape, a procedure and its parameters."""

    shape: str
    procedure: str
    params: Tuple[Tuple[str, Any], ...] = ()

    @property
    def key(self) -> str:
        suffix = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.shape}/{self.procedure}" + (f"({suffix})" if suffix else "")


#: Pinned per-query semantic work of every cold template (a fresh
#: session, so the response counters are the query's own work).
PINNED_COLD: Dict[str, Dict[str, int]] = {
    "grove2x2/normed": {"states_discovered": 93, "states_expanded": 93, "transitions_fired": 239},
    "grove2x2/may_terminate": {"states_discovered": 93, "states_expanded": 92, "transitions_fired": 239},
    "widemix4/normed(max_states=90)": {"states_discovered": 92, "states_expanded": 43, "transitions_fired": 161},
    "pipeline3/normed(max_states=90)": {"states_discovered": 91, "states_expanded": 58, "transitions_fired": 124},
    "grove2x2/sup_reachability": {"states_discovered": 1, "states_expanded": 0, "transitions_fired": 0},
    "pipeline5/sup_reachability": {"states_discovered": 1, "states_expanded": 0, "transitions_fired": 0},
}


@dataclass
class Workload:
    """A traffic mix: which queries, how warm, how many workers."""

    name: str
    templates: List[Template]
    warm: bool = False
    workers: Optional[int] = None
    #: ``True``: every query must make embedding calls; ``False``: no
    #: query may make any; ``None``: no constraint.
    embedding: Optional[bool] = None
    #: Upper bound on the query rate, used to size the request list.
    max_qps: int = 400


#: The unbounded shapes are cut at 90 states, where they cost about what
#: grove2x2 does: with two cost levels in equal shares, the median latency
#: would sit in the gap between them and jump from run to run.
_EXPLORE = [
    Template("grove2x2", "normed"),
    Template("grove2x2", "may_terminate"),
    Template("widemix4", "normed", (("max_states", 90),)),
    Template("pipeline3", "normed", (("max_states", 90),)),
]

#: Programs explored during warm_mix set-up (all bounded, so their graphs
#: complete and no later query expands a state).
WARM_SHAPES = ("grove2x2", "spawn3", "relay3")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # why each workload exists is recorded in BENCHMARK.json
        Workload(
            "cold_explore",
            _EXPLORE,
            embedding=False,
        ),
        Workload(
            "cold_embed",
            # pipeline5 costs about a fifth more than grove2x2; two grove2x2
            # queries to one keep the median inside one kind's latencies
            [
                Template("grove2x2", "sup_reachability"),
                Template("grove2x2", "sup_reachability"),
                Template("pipeline5", "sup_reachability"),
            ],
            embedding=True,
        ),
        Workload(
            "warm_mix",
            [],
            warm=True,
            max_qps=2000,
        ),
        Workload(
            "cold_sharded",
            _EXPLORE,
            workers=2,
            embedding=False,
            max_qps=200,
        ),
    )
}


# ----------------------------------------------------------------------
# Request generation
# ----------------------------------------------------------------------


def warm_templates(node_ids: Dict[str, List[str]]) -> List[Template]:
    """The warm_mix rotation over *node_ids* (shape -> sorted node ids).

    Per program: normed, halts, boundedness, node_reachable for every
    node and mutually_exclusive for every node pair.
    """
    templates: List[Template] = []
    for shape in WARM_SHAPES:
        nodes = node_ids[shape]
        templates += [Template(shape, p) for p in ("normed", "halts", "boundedness")]
        templates += [
            Template(shape, "node_reachable", (("node", n),)) for n in nodes
        ]
        templates += [
            Template(shape, "mutually_exclusive", (("first", a), ("second", b)))
            for i, a in enumerate(nodes)
            for b in nodes[i + 1:]
        ]
    return templates


def request_for(
    template: Template, tag: str, request_id: str, workers: Optional[int]
) -> AnalysisRequest:
    return AnalysisRequest(
        procedure=template.procedure,
        source=SHAPES[template.shape](tag),
        params=dict(template.params),
        request_id=request_id,
        workers=workers,
    )


def cold_requests(
    workload: Workload, seed: int, count: int
) -> List[Tuple[Template, AnalysisRequest]]:
    """*count* cold requests: balanced blocks of the templates, seeded order.

    Each block holds the template list once, in a seeded shuffle, so any
    prefix of the list has the same mix to within one block.  Every
    request carries a program instance with a unique tag.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    salt = f"k{rng.getrandbits(32):08x}"
    out: List[Tuple[Template, AnalysisRequest]] = []
    while len(out) < count:
        block = list(workload.templates)
        rng.shuffle(block)
        for template in block:
            index = len(out)
            tag = f"{salt}n{index:x}"
            out.append(
                (
                    template,
                    request_for(
                        template, tag, f"{workload.name}-{seed}-{index}", workload.workers
                    ),
                )
            )
    return out[:count]


def warm_requests(
    workload: Workload, seed: int, templates: List[Template], count: int
) -> List[Tuple[Template, AnalysisRequest]]:
    """*count* warm requests cycling a seeded shuffle of *templates*.

    The three programs carry one seed-derived tag each, so all requests
    of a shape hit the same pooled session.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    tag = f"k{rng.getrandbits(32):08x}"
    order = list(templates)
    rng.shuffle(order)
    sources = {shape: SHAPES[shape](tag) for shape in WARM_SHAPES}
    out = []
    for index in range(count):
        template = order[index % len(order)]
        out.append(
            (
                template,
                AnalysisRequest(
                    procedure=template.procedure,
                    source=sources[template.shape],
                    params=dict(template.params),
                    request_id=f"{workload.name}-{seed}-{index}",
                ),
            )
        )
    return out
