"""Generic LTS toolkit: traces, simulations, ``⊑_d``, safety transfer."""

from .abstraction import is_projection_consistent, map_lts
from .lts import LTS, explore_lts
from .properties import (
    SafetyProperty,
    at_most_n_occurrences,
    check_safety,
    lts_terminates,
    never_follows,
    never_occurs,
    transfer_safety,
)
from .simulation import (
    check_simulation_relation,
    weak_bisimulation,
    weakly_bisimilar,
    d_simulates,
    d_simulation,
    strong_bisimulation,
    strong_simulation,
    strongly_bisimilar,
    strongly_simulates,
    weak_simulation,
    weakly_simulates,
)
from .traces import (
    bounded_language,
    completed_weak_traces,
    strong_traces,
    weak_trace_equivalent,
    weak_trace_included,
    weak_traces,
)
from .minimize import bisimulation_partition, minimised_size, quotient

__all__ = [
    "bisimulation_partition",
    "minimised_size",
    "quotient",

    "is_projection_consistent",
    "map_lts",
    "LTS",
    "explore_lts",
    "SafetyProperty",
    "at_most_n_occurrences",
    "check_safety",
    "lts_terminates",
    "never_follows",
    "never_occurs",
    "transfer_safety",
    "check_simulation_relation",
    "weak_bisimulation",
    "weakly_bisimilar",
    "d_simulates",
    "d_simulation",
    "strong_bisimulation",
    "strong_simulation",
    "strongly_bisimilar",
    "strongly_simulates",
    "weak_simulation",
    "weakly_simulates",
    "bounded_language",
    "completed_weak_traces",
    "strong_traces",
    "weak_trace_equivalent",
    "weak_trace_included",
    "weak_traces",
]
