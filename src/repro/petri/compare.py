"""RP schemes versus Petri nets — the expressiveness comparison material.

The paper: "the expressive power of our RP schemes … is in some way larger
than Petri nets because RP schemes allow a distinction between parent and
child invocations.  On the other hand, they do not allow arbitrary
synchronization between concurrent components.  Formally … Petri nets and
RP schemes generate incomparable classes [of languages]."

The incomparability proof is a citation-level theorem; what this module
provides are the two *witness systems* traditionally used for it, each
verified against its mathematical language definition in the test-suite:

* :func:`anbncn_net` — a Petri net whose completed-run language is
  ``{aⁿ bⁿ cⁿ}`` (not context-free, hence not a PA ≡ RP language);
* :func:`nested_anbn_scheme` — an RP scheme whose terminated-run language
  is ``{aⁿ bⁿ | n ≥ 1}`` *generated through recursion depth with a
  wait-join*, i.e. the Dyck-like nesting a net cannot track without a
  stack (the classical argument: with two bracket types the language of
  balanced strings is not a Petri-net language);
* :func:`token_counting_abstraction` — the counting abstraction of a
  scheme (hierarchical state ↦ marking), exhibiting exactly what the
  tree structure adds: the abstraction of an RP scheme is a net, and the
  wait rule is what it fails to capture.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

from ..core.alphabet import TAU
from ..core.builder import SchemeBuilder
from ..core.hstate import HState
from ..core.scheme import NodeKind, RPScheme
from ..core.semantics import AbstractSemantics
from ..lts.traces import bounded_language
from .net import PetriNet


def anbncn_net() -> PetriNet:
    """A net accepting ``aⁿ bⁿ cⁿ`` as completed sequences.

    Phases guarded by a control place; counting places ensure equal
    numbers.  The *completed* language (runs draining the control into
    the final place with counters empty) is ``{aⁿ bⁿ cⁿ | n ≥ 0}``.
    """
    return PetriNet(
        places=["phase_a", "phase_b", "phase_c", "count_ab", "count_bc"],
        transitions=[
            {"name": "a", "pre": {"phase_a": 1}, "post": {"phase_a": 1, "count_ab": 1}},
            {"name": "go_b", "pre": {"phase_a": 1}, "post": {"phase_b": 1}, "label": "τ"},
            {
                "name": "b",
                "pre": {"phase_b": 1, "count_ab": 1},
                "post": {"phase_b": 1, "count_bc": 1},
            },
            {"name": "go_c", "pre": {"phase_b": 1}, "post": {"phase_c": 1}, "label": "τ"},
            {"name": "c", "pre": {"phase_c": 1, "count_bc": 1}, "post": {"phase_c": 1}},
        ],
        initial={"phase_a": 1},
    )


def anbncn_completed_words(net: PetriNet, max_length: int) -> FrozenSet[Tuple[str, ...]]:
    """Completed words: runs ending with all counters empty in phase c."""
    final_phase = net._index["phase_c"]
    count_ab = net._index["count_ab"]
    count_bc = net._index["count_bc"]
    return bounded_language(
        net.initial,
        net.successors,
        max_length,
        silent=frozenset({TAU}),
        accept=lambda marking: (
            marking[final_phase] == 1
            and marking[count_ab] == 0
            and marking[count_bc] == 0
        ),
    )


def nested_anbn_scheme() -> RPScheme:
    """An RP scheme whose terminated language is ``{aⁿ bⁿ | n ≥ 1}``.

    ``p``: action a; test t: *then* → {pcall p; wait}; *else* → skip;
    action b; end.  Because the parent blocks at its wait until the child
    (and recursively the whole nest) has finished, every terminated run
    reads ``aⁿ tⁿ bⁿ`` — projecting the test label away, a perfectly
    nested ``aⁿ bⁿ`` produced by *recursion depth*, the mechanism nets
    lack.  (We keep the test label visible; the language over {a, b} is
    obtained by erasing ``t``, which the comparison functions do.)
    """
    b = SchemeBuilder("anbn")
    b.action("p0", "a", "p1")
    b.test("p1", "t", then="p2", orelse="p4")
    b.pcall("p2", invoked="p0", succ="p3")
    b.wait("p3", "p4")
    b.action("p4", "b", "p5")
    b.end("p5")
    b.procedure("p", "p0")
    return b.build(root="p0")


def scheme_terminated_words(
    scheme: RPScheme, max_length: int, erase: FrozenSet[str] = frozenset({"t"})
) -> FrozenSet[Tuple[str, ...]]:
    """Words of runs reaching ∅, with τ and *erase* labels dropped."""
    semantics = AbstractSemantics(scheme)
    return bounded_language(
        semantics.initial_state,
        lambda state: ((t.label, t.target) for t in semantics.successors(state)),
        max_length,
        silent=frozenset({TAU}) | erase,
        accept=HState.is_empty,
    )


def token_counting_abstraction(scheme: RPScheme) -> PetriNet:
    """The counting abstraction: hierarchical states as plain markings.

    Each scheme node becomes a place; action/test/call/end become net
    transitions moving tokens accordingly.  The ``wait`` rule is the one
    construct this abstraction *cannot* express faithfully — it requires
    "no children", which is not a marking property; here it is
    over-approximated by an unconditional move, so the net simulates the
    scheme but not conversely.  This is the formal content of
    "hierarchical states are markings plus a parent-child structure".
    """
    transitions = []
    for node in scheme:
        if node.kind in (NodeKind.ACTION, NodeKind.TEST):
            for index, succ in enumerate(node.successors):
                transitions.append(
                    {
                        "name": f"{node.id}->{succ}",
                        "pre": {node.id: 1},
                        "post": {succ: 1},
                        "label": node.label,
                    }
                )
        elif node.kind is NodeKind.PCALL:
            transitions.append(
                {
                    "name": f"{node.id}:call",
                    "pre": {node.id: 1},
                    "post": {node.successors[0]: 1, node.invoked: 1},
                    "label": "τ",
                }
            )
        elif node.kind is NodeKind.WAIT:
            transitions.append(
                {
                    "name": f"{node.id}:wait",
                    "pre": {node.id: 1},
                    "post": {node.successors[0]: 1},
                    "label": "τ",
                }
            )
        elif node.kind is NodeKind.END:
            transitions.append(
                {"name": f"{node.id}:end", "pre": {node.id: 1}, "post": {}, "label": "τ"}
            )
    return PetriNet(
        places=list(scheme.node_ids),
        transitions=transitions,
        initial={scheme.root: 1},
    )


def marking_of(scheme: RPScheme, net: PetriNet, state: HState):
    """The marking corresponding to a hierarchical state (Fig. 4 view)."""
    counts = state.node_multiset()
    return net.marking(**{place: counts.get(place, 0) for place in net.places})
