"""Checkpoint/resume for analysis sessions.

A checkpoint freezes everything an :class:`~repro.analysis.AnalysisSession`
needs to continue exploration *across process restarts*:

* the scheme itself (via :mod:`repro.core.serialize`), so a checkpoint
  file is self-contained and restore can verify it matches the scheme
  the caller thinks it is resuming;
* the explored BFS prefix of ``M_G`` — states in discovery order plus
  the recorded transitions of every *expanded* state;
* the frontier (discovered-but-unexpanded states, in queue order), which
  is exactly the session's resume point;
* the session-lifetime antichains memoized by the sup-reachability
  engine (the domination-pruned kept-state cover and the extracted
  minimal basis), when they had been computed.

Because ``AnalysisSession.explore`` is deterministic (states are
expanded whole, in BFS order), a restored session grown to budget ``N``
is state-for-state identical to an uninterrupted session grown to ``N``
— the property the differential tests in ``tests/test_robustness.py``
assert, and the reason a :class:`~repro.robust.PartialVerdict`'s
checkpoint reaches the same final verdict as a fresh run.

The JSON format is versioned (``rpcheck-checkpoint/1``); loading rejects
unknown versions and malformed payloads with
:class:`~repro.errors.CheckpointError` instead of mis-restoring.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..core.hstate import HState
from ..core.scheme import RPScheme
from ..core.serialize import scheme_from_dict, scheme_to_dict
from ..errors import CheckpointError, RPError

__all__ = [
    "CHECKPOINT_FORMAT",
    "checkpoint_session",
    "restore_session",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_FORMAT = "rpcheck-checkpoint/1"


def checkpoint_session(session) -> Dict[str, Any]:
    """A JSON-ready snapshot of *session*'s resumable state.

    Prefer the method form :meth:`repro.analysis.AnalysisSession.checkpoint`.
    """
    graph = session.graph
    index = graph.index
    transitions: List[List[List[Any]]] = []
    for number in range(session.expanded_count):
        out = []
        for t in graph.edges[number]:
            out.append(
                [index[t.target], t.label, t.rule, t.node, list(t.path), t.branch]
            )
        transitions.append(out)
    antichains: Dict[str, Any] = {}
    kept = session.memo.get("kept-states")
    if kept is not None:
        antichains["kept_states"] = [state.to_notation() for state in kept]
    basis = session.memo.get("minimal-basis")
    if basis is not None:
        antichains["minimal_basis"] = [state.to_notation() for state in basis[0]]
        antichains["minimal_basis_kept"] = basis[1]
    return {
        "format": CHECKPOINT_FORMAT,
        "scheme": scheme_to_dict(session.scheme),
        "initial": session.initial.to_notation(),
        "states": [state.to_notation() for state in graph.states],
        "transitions": transitions,
        "expanded": session.expanded_count,
        "complete": graph.complete,
        "antichains": antichains,
        "stats": {
            "explorations": session.stats.explorations,
            "explore_seconds": session.stats.explore_seconds,
        },
    }


def restore_session(
    data: Dict[str, Any],
    *,
    scheme: Optional[RPScheme] = None,
    **session_kwargs: Any,
):
    """Rebuild an :class:`~repro.analysis.AnalysisSession` from a checkpoint.

    With *scheme* given, the checkpoint's embedded scheme must match it
    structurally (same serialised form); otherwise the embedded scheme is
    deserialised and used.  Extra keyword arguments (``tracer=``,
    ``metrics=``, ``budget=``, ...) pass through to the session
    constructor.

    The restored session's graph, frontier and memoized antichains are
    bit-identical (state-for-state, transition-for-transition) to the
    checkpointed session's, so exploration resumes exactly where it
    paused.
    """
    from ..analysis.session import AnalysisSession
    from ..core.semantics import Transition

    if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"unsupported checkpoint format "
            f"{data.get('format') if isinstance(data, dict) else data!r} "
            f"(expected {CHECKPOINT_FORMAT})"
        )
    try:
        embedded = scheme_from_dict(data["scheme"])
        if scheme is not None:
            if scheme_to_dict(scheme) != data["scheme"]:
                raise CheckpointError(
                    f"checkpoint was taken for scheme "
                    f"{data['scheme'].get('name')!r}, which does not match "
                    f"the supplied scheme {scheme.name!r}"
                )
        else:
            scheme = embedded
        initial = HState.parse(data["initial"])
        states = [HState.parse(notation) for notation in data["states"]]
        expanded = int(data["expanded"])
        raw_transitions = data["transitions"]
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, RPError) as error:
        raise CheckpointError(f"malformed checkpoint: {error}") from error
    if not states or states[0] != initial:
        raise CheckpointError("malformed checkpoint: initial state mismatch")
    if not 0 <= expanded <= len(states) or len(raw_transitions) != expanded:
        raise CheckpointError("malformed checkpoint: expansion count mismatch")

    session = AnalysisSession(scheme, initial=initial, **session_kwargs)
    semantics = session.semantics
    canonical = [semantics.intern(state) for state in states]
    graph = session.graph
    # Rebuild discovery order and parents by replaying the recorded
    # expansions; the parent of each state is the transition that first
    # discovered it, exactly as in the original run.
    try:
        for number, state in enumerate(canonical):
            if number == 0:
                continue
            graph._add_state(state, None)
        for number in range(expanded):
            source = canonical[number]
            out = graph.edges[number]
            for target_idx, label, rule, node, path, branch in raw_transitions[number]:
                if (
                    not isinstance(target_idx, int)
                    or isinstance(target_idx, bool)
                    or not 0 <= target_idx < len(canonical)
                ):
                    raise CheckpointError(
                        f"malformed checkpoint: transition target index "
                        f"{target_idx!r} is not a state index"
                    )
                target = canonical[target_idx]
                transition = Transition(
                    source=source,
                    label=label,
                    target=target,
                    rule=rule,
                    node=node,
                    path=tuple(path),
                    branch=branch,
                )
                out.append(transition)
                graph.num_transitions += 1
                if graph.parent.get(target) is None and target is not canonical[0]:
                    graph.parent[target] = transition
    except (IndexError, TypeError, ValueError) as error:
        raise CheckpointError(f"malformed checkpoint: {error}") from error
    stats = data.get("stats") or {}
    session._restore_frontier(
        expanded,
        bool(data.get("complete", False)),
        explorations=int(stats.get("explorations", 0)),
        explore_seconds=float(stats.get("explore_seconds", 0.0)),
    )
    antichains = data.get("antichains") or {}
    try:
        if "kept_states" in antichains:
            session.memo["kept-states"] = [
                semantics.intern(HState.parse(n)) for n in antichains["kept_states"]
            ]
        if "minimal_basis" in antichains:
            session.memo["minimal-basis"] = (
                [
                    semantics.intern(HState.parse(n))
                    for n in antichains["minimal_basis"]
                ],
                int(antichains.get("minimal_basis_kept", 0)),
            )
    except RPError as error:
        raise CheckpointError(f"malformed checkpoint antichain: {error}") from error
    return session


def save_checkpoint(data: Dict[str, Any], path: str) -> None:
    """Write a checkpoint dict to *path* as JSON."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"))
            handle.write("\n")
    except OSError as error:
        raise CheckpointError(f"cannot write checkpoint {path!r}: {error}") from error


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read a checkpoint dict from *path*."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise CheckpointError(f"invalid checkpoint JSON: {error}") from error
