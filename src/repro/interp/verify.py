"""The paper's verification methodology, packaged as one call.

Section 4's punchline: "If a given property is compatible with ``⊑_d``,
it is sufficient to establish it on the abstract ``M_G`` model.  Of course
the method is not complete … and the property may fail on ``M_G`` and
still hold of ``M_I_G``."

:func:`verify_safety` runs exactly that pipeline for regular safety
properties over the visible alphabet:

1. **abstract first** — explore ``M_G`` (bounded fragment; exact when it
   saturates) and check the property there.  If it holds on the saturated
   abstract model, it holds for *every* interpretation (Prop. 12 +
   Theorem 10) — no concrete exploration needed;
2. **concrete fallback** — when the abstract check fails or does not
   saturate, and an interpretation is at hand, explore ``M_I_G`` and check
   directly (exact when it saturates).  An abstract counterexample is
   reported either way: it may or may not be realisable, which is the
   incompleteness the paper points out (the concrete verdict settles it).

The returned :class:`SafetyVerdict` says which layer produced the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.explore import Explorer
from ..core.scheme import RPScheme
from ..errors import AnalysisBudgetExceeded
from ..lts.properties import SafetyProperty, check_safety
from .executor import InterpretedExplorer
from .interpretation import Interpretation


@dataclass(frozen=True)
class SafetyVerdict:
    """Outcome of the layered safety check."""

    holds: bool
    layer: str  # "abstract" | "concrete"
    exact: bool
    counterexample: Optional[List[str]] = None
    abstract_counterexample: Optional[List[str]] = None

    def __bool__(self) -> bool:
        return self.holds


def verify_safety(
    scheme: RPScheme,
    prop: SafetyProperty,
    interpretation: Optional[Interpretation] = None,
    max_states: int = 50_000,
) -> SafetyVerdict:
    """Check *prop* using the abstract-first methodology.

    Raises :class:`~repro.errors.AnalysisBudgetExceeded` only when no
    layer can conclude (abstract unbounded and no/unbounded concrete
    model).
    """
    abstract_counterexample: Optional[List[str]] = None
    abstract_graph = Explorer(scheme, max_states=max_states).explore()
    if abstract_graph.complete:
        ok, counterexample = check_safety(abstract_graph.to_lts(), prop)
        if ok:
            # Prop 12: transfers to every interpretation
            return SafetyVerdict(holds=True, layer="abstract", exact=True)
        abstract_counterexample = counterexample
    else:
        # incomplete fragment: a violation found in it is still a real
        # abstract violation (safety is about finite prefixes)
        ok, counterexample = check_safety(abstract_graph.to_lts(), prop)
        if not ok:
            abstract_counterexample = counterexample

    if interpretation is None:
        if abstract_counterexample is not None:
            # without an interpretation, the abstract model *is* the model
            return SafetyVerdict(
                holds=False,
                layer="abstract",
                exact=True,
                counterexample=abstract_counterexample,
                abstract_counterexample=abstract_counterexample,
            )
        raise AnalysisBudgetExceeded(
            f"verify_safety: abstract model did not saturate within "
            f"{max_states} states and no interpretation was given"
        )

    explorer = InterpretedExplorer(scheme, interpretation, max_states=max_states)
    lts, complete = explorer.explore()
    ok, counterexample = check_safety(lts, prop)
    if not ok:
        return SafetyVerdict(
            holds=False,
            layer="concrete",
            exact=True,
            counterexample=counterexample,
            abstract_counterexample=abstract_counterexample,
        )
    if complete:
        return SafetyVerdict(
            holds=True,
            layer="concrete",
            exact=True,
            abstract_counterexample=abstract_counterexample,
        )
    raise AnalysisBudgetExceeded(
        f"verify_safety: neither the abstract nor the concrete model "
        f"saturated within {max_states} states"
    )
