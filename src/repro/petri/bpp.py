"""Communication-free nets (BPP) embedded into RP schemes.

A Petri net is *communication-free* when every transition consumes exactly
one token from exactly one place — the net-side characterisation of Basic
Parallel Processes.  Such nets cannot synchronise, which is precisely the
restriction the paper attributes to RP schemes ("they do not allow
arbitrary synchronization between concurrent components"), and indeed the
BPP fragment embeds into RP schemes constructively:

* each **place** becomes a procedure; a token in ``p`` is a live
  invocation in ``proc_p``;
* each **transition** ``t : p → {q1, …, qk}`` becomes a branch of
  ``proc_p``: perform the visible action ``t``, ``pcall`` each output
  procedure, ``end``;
* the nondeterministic **choice** between the transitions enabled at a
  place is a chain of test nodes labelled :data:`CHOICE_LABEL` — RP
  schemes have no silent choice construct, so the simulation is faithful
  up to erasing that designated label (the same homomorphic-erasure
  convention as the other comparison witnesses in this package);
* the **initial marking** becomes a bootstrap chain of pcalls.

:func:`traces_match` checks the embedding: the transition-label language
of the net equals the ``CHOICE_LABEL``-erased weak-trace language of the
scheme, up to a length bound.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..core.alphabet import TAU
from ..core.builder import SchemeBuilder
from ..core.scheme import RPScheme
from ..core.semantics import AbstractSemantics
from ..lts.traces import bounded_language
from .net import PetriError, PetriNet

#: The erased decision label (see the module docstring).
CHOICE_LABEL = "choose"


def is_communication_free(net: PetriNet) -> bool:
    """Every transition consumes exactly one token from one place."""
    return all(sum(t.pre) == 1 for t in net.transitions)


def bpp_net_to_scheme(net: PetriNet) -> RPScheme:
    """Embed a communication-free net into an RP scheme.

    Raises :class:`PetriError` when the net synchronises (some transition
    has total pre-weight ≠ 1).
    """
    if not is_communication_free(net):
        raise PetriError("the net is not communication-free (BPP)")
    builder = SchemeBuilder(f"bpp_{len(net.places)}p")
    entries: Dict[str, str] = {place: f"pl_{place}" for place in net.places}

    for place in net.places:
        outgoing = [
            t for t in net.transitions if net.tokens(t.pre, place) == 1
        ]
        entry = entries[place]
        if not outgoing:
            # a dead-end token: the invocation can only linger; model it
            # as a self-looping choice (no transition will ever fire)
            builder.test(entry, CHOICE_LABEL, then=entry, orelse=entry)
            continue
        # chain of choice tests, one arm per transition; the final else
        # loops back to re-decide (fair to any interleaving)
        current = entry
        for index, transition in enumerate(outgoing):
            arm_entry = f"pl_{place}_t{index}"
            next_test = (
                f"pl_{place}_c{index + 1}" if index + 1 < len(outgoing) else entry
            )
            builder.test(current, CHOICE_LABEL, then=arm_entry, orelse=next_test)
            # the arm: visible action, then pcalls for each output token
            outputs: List[str] = []
            for output_place, weight in zip(net.places, transition.post):
                outputs.extend([output_place] * weight)
            previous = arm_entry
            builder.action(arm_entry, transition.label, f"{arm_entry}_s0")
            for position, output_place in enumerate(outputs):
                node = f"{arm_entry}_s{position}"
                builder.pcall(
                    node,
                    invoked=entries[output_place],
                    succ=f"{arm_entry}_s{position + 1}",
                )
            builder.end(f"{arm_entry}_s{len(outputs)}")
            current = next_test
        builder.procedure(f"proc_{place}", entry)

    # bootstrap: spawn one invocation per initial token, then end
    boot_positions: List[str] = []
    for place, count in zip(net.places, net.initial):
        boot_positions.extend([place] * count)
    for index, place in enumerate(boot_positions):
        builder.pcall(
            f"boot{index}", invoked=entries[place], succ=f"boot{index + 1}"
        )
    builder.end(f"boot{len(boot_positions)}")
    return builder.build(root="boot0" if boot_positions else f"boot{0}")


def scheme_bpp_traces(scheme: RPScheme, max_length: int, max_states: int = 200_000) -> FrozenSet[Tuple[str, ...]]:
    """Weak traces of the scheme with :data:`CHOICE_LABEL` erased."""
    semantics = AbstractSemantics(scheme)
    return bounded_language(
        semantics.initial_state,
        lambda state: ((t.label, t.target) for t in semantics.successors(state)),
        max_length,
        silent=frozenset({TAU, CHOICE_LABEL}),
        max_states=max_states,
    )


def traces_match(net: PetriNet, max_length: int) -> bool:
    """Does the embedded scheme generate exactly the net's language
    (up to *max_length*, after erasing the choice label)?"""
    scheme = bpp_net_to_scheme(net)
    return scheme_bpp_traces(scheme, max_length) == net.traces(max_length)
