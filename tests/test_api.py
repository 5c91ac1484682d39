"""Tests for the :mod:`repro.api` typed request/response facade (PR 6).

The facade is the single evaluation path shared by the CLI, the serve
daemon and library callers, so these tests pin the contract everything
else leans on: versioned JSON round-trips for both dataclasses,
structural validation errors, the uniform verdict mapping (conclusive /
battery / partial / exhaustion / error), the ledger side-channel, and
the ``comparable()`` view the serve differential gate is built on.
"""

import dataclasses
import json
import multiprocessing

import pytest

from repro.analysis import AnalysisSession, boundedness
from repro.api import (
    PROCEDURES,
    REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
    AnalysisRequest,
    AnalysisResponse,
    ApiError,
    BudgetSpec,
    TraceOptions,
    execute,
)
from repro.obs import Ledger, scheme_fingerprint
from repro.robust import Budget
from repro.zoo import FIG1_PROGRAM, mixed_grove, terminating_chain

#: Budget specs whose keys are known but whose values are not: each must
#: be answered as an ApiError, never raised or run.
MALFORMED_BUDGETS = [
    {"on_exhaust": "foo"},
    {"max_memory_mib": "x"},
    {"deadline": "5"},
    {"max_states": -3},
    {"deadline": float("nan")},
]


class TestRequestRoundTrip:
    def test_minimal_request_round_trips(self):
        request = AnalysisRequest(procedure="boundedness", source=FIG1_PROGRAM)
        payload = request.to_json_dict()
        assert payload["schema"] == REQUEST_SCHEMA
        # the wire shape must be plain JSON
        restored = AnalysisRequest.from_json_dict(json.loads(json.dumps(payload)))
        assert restored == request

    def test_full_request_round_trips(self):
        request = AnalysisRequest(
            procedure="mutually_exclusive",
            fingerprint="sha256:0123456789abcdef",
            params={"first": "q1", "second": "q2", "max_states": 500},
            budget=BudgetSpec(deadline=2.5, max_states=10_000, max_memory_mib=64),
            trace=TraceOptions(stream=True, stats=False),
            request_id="req-42",
        )
        restored = AnalysisRequest.from_json_dict(request.to_json_dict())
        assert restored == request
        assert restored.budget.max_memory_mib == 64

    def test_budget_spec_builds_live_budget(self):
        budget = BudgetSpec(deadline=3.0, max_memory_mib=1).to_budget()
        assert budget.deadline == 3.0
        assert budget.max_memory_bytes == 1024 * 1024
        assert budget.on_exhaust == "partial"

    def test_frozen(self):
        request = AnalysisRequest(procedure="halts", source=FIG1_PROGRAM)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.procedure = "normed"


class TestRequestValidation:
    def test_unknown_procedure_rejected(self):
        with pytest.raises(ApiError, match="unknown procedure"):
            AnalysisRequest(procedure="frobnicate", source="x").validate()

    def test_source_xor_fingerprint(self):
        with pytest.raises(ApiError, match="source or a fingerprint"):
            AnalysisRequest(procedure="halts").validate()
        with pytest.raises(ApiError, match="not both"):
            AnalysisRequest(
                procedure="halts", source="x", fingerprint="sha256:ff"
            ).validate()

    def test_wrong_schema_tag_rejected(self):
        payload = AnalysisRequest(procedure="halts", source="x").to_json_dict()
        payload["schema"] = "rpcheck-request/999"
        with pytest.raises(ApiError, match="schema"):
            AnalysisRequest.from_json_dict(payload)

    def test_unknown_budget_keys_rejected(self):
        with pytest.raises(ApiError, match="unknown keys"):
            BudgetSpec.from_dict({"deadline": 1, "cores": 4})


class TestResponseRoundTrip:
    def test_response_round_trips(self):
        response = execute(
            AnalysisRequest(procedure="boundedness", source=FIG1_PROGRAM)
        )
        assert response.to_json_dict()["schema"] == RESPONSE_SCHEMA
        restored = AnalysisResponse.from_json_dict(
            json.loads(json.dumps(response.to_json_dict(), default=repr))
        )
        assert restored.comparable() == response.comparable()
        assert restored.run_id == response.run_id


class TestExecute:
    def test_conclusive_single_verdict(self):
        response = execute(
            AnalysisRequest(procedure="boundedness", source=FIG1_PROGRAM)
        )
        assert response.ok
        assert response.verdict == "no"
        assert response.holds is False
        assert response.procedures["boundedness"]["verdict"] == "no"
        assert response.scheme["fingerprint"].startswith("sha256:")

    def test_matches_direct_procedure_call(self):
        scheme = terminating_chain(5)
        direct = boundedness(scheme)
        response = execute(
            AnalysisRequest(
                procedure="boundedness",
                fingerprint=scheme_fingerprint(scheme),
            ),
            scheme=scheme,
        )
        assert response.verdict == ("yes" if direct.holds else "no")
        assert response.method == direct.method

    def test_battery_report(self):
        response = execute(
            AnalysisRequest(procedure="analyze", source=FIG1_PROGRAM)
        )
        assert response.verdict in ("conclusive", "inconclusive")
        assert set(response.procedures) == {
            "boundedness", "halting", "normedness",
        }
        assert "render" in response.details

    def test_partial_structure_over_budget(self):
        scheme = mixed_grove(3, 3)
        response = execute(
            AnalysisRequest(
                procedure="boundedness",
                fingerprint=scheme_fingerprint(scheme),
                budget=BudgetSpec(deadline=0.0),
            ),
            scheme=scheme,
        )
        assert response.verdict == "unknown"
        assert response.partial["resource"] == "deadline"
        assert response.partial["resumable"] is True
        assert response.procedures["boundedness"]["verdict"] == "partial"

    def test_budget_override_wins_over_spec(self):
        scheme = terminating_chain(5)
        response = execute(
            AnalysisRequest(
                procedure="boundedness",
                fingerprint=scheme_fingerprint(scheme),
                budget=BudgetSpec(deadline=0.0),
            ),
            scheme=scheme,
            budget=Budget(max_states=10_000, on_exhaust="partial"),
        )
        # the caller-built budget (no deadline) replaced the spec
        assert response.verdict in ("yes", "no")

    @pytest.mark.parametrize("spec", MALFORMED_BUDGETS, ids=str)
    def test_malformed_budget_is_error_response(self, spec):
        response = execute(
            AnalysisRequest(
                procedure="halts",
                source=FIG1_PROGRAM,
                budget=BudgetSpec(**spec),
            )
        )
        assert response.verdict == "error"
        assert response.error["type"] == "ApiError"
        assert str(next(iter(spec))) in response.error["message"]

    def test_budget_spec_bounds_stay_valid(self):
        spec = BudgetSpec(deadline=0.0, max_states=0, max_memory_mib=1)
        assert spec.validate() is spec
        assert BudgetSpec(on_exhaust="raise").validate().on_exhaust == "raise"

    def test_missing_required_param_is_error_response(self):
        response = execute(
            AnalysisRequest(procedure="node_reachable", source=FIG1_PROGRAM)
        )
        assert response.verdict == "error"
        assert response.error["type"] == "ApiError"
        assert "node" in response.error["message"]

    def test_unknown_param_is_error_response(self):
        response = execute(
            AnalysisRequest(
                procedure="halts",
                source=FIG1_PROGRAM,
                params={"warp_factor": 9},
            )
        )
        assert response.verdict == "error"
        assert response.error["type"] == "TypeError"

    def test_parse_error_is_error_response(self):
        response = execute(
            AnalysisRequest(procedure="halts", source="proc { this is not rp")
        )
        assert response.verdict == "error"
        assert response.ok is False

    def test_fingerprint_without_scheme_is_error(self):
        response = execute(
            AnalysisRequest(procedure="halts", fingerprint="sha256:00ff")
        )
        assert response.verdict == "error"

    def test_owned_session_is_closed_when_the_procedure_raises(self, monkeypatch):
        def explode(scheme, session, budget, params):
            session.explore(300)
            raise RuntimeError("injected failure")

        monkeypatch.setitem(PROCEDURES, "halts", explode)
        # the held traceback keeps the session alive: only a close, not
        # garbage collection, can have reaped its workers
        with pytest.raises(RuntimeError, match="injected failure") as held:
            execute(
                AnalysisRequest(procedure="halts", source=FIG1_PROGRAM, workers=2)
            )
        assert held.traceback
        assert not [
            child.name
            for child in multiprocessing.active_children()
            if child.name.startswith("rpcheck-explore-")
        ]

    def test_session_reuse(self):
        scheme = terminating_chain(6)
        session = AnalysisSession(scheme)
        request = AnalysisRequest(
            procedure="halts", fingerprint=scheme_fingerprint(scheme)
        )
        first = execute(request, scheme=scheme, session=session)
        explored = len(session.graph)
        second = execute(request, scheme=scheme, session=session)
        assert first.comparable() == second.comparable()
        assert len(session.graph) == explored  # warm: no re-exploration

    def test_ledger_records_query(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        response = execute(
            AnalysisRequest(
                procedure="boundedness",
                source=FIG1_PROGRAM,
                request_id="req-7",
            ),
            ledger=ledger,
            ledger_kind="serve",
        )
        entries = ledger.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["kind"] == "serve"
        assert entry["run_id"] == response.run_id
        assert entry["procedures"]["boundedness"]["verdict"] == "no"
        assert entry["extra"]["request_id"] == "req-7"
        assert entry["scheme"]["fingerprint"] == response.scheme["fingerprint"]

    def test_registry_covers_documented_procedures(self):
        assert {
            "analyze", "boundedness", "halts", "may_terminate", "normed",
            "node_reachable", "mutually_exclusive", "sup_reachability",
            "persistent",
        } <= set(PROCEDURES)


class TestComparable:
    def test_comparable_drops_run_variant_fields(self):
        request = AnalysisRequest(procedure="boundedness", source=FIG1_PROGRAM)
        first = execute(request)
        second = execute(request)
        assert first.run_id != second.run_id
        assert first.comparable() == second.comparable()

    def test_comparable_keeps_partial_structure(self):
        scheme = mixed_grove(3, 3)
        response = execute(
            AnalysisRequest(
                procedure="boundedness",
                fingerprint=scheme_fingerprint(scheme),
                budget=BudgetSpec(deadline=0.0),
            ),
            scheme=scheme,
        )
        view = response.comparable()
        assert view["partial"] == {"resource": "deadline", "resumable": True}
        # progress counters legitimately vary and must be absent
        assert "states_explored" not in view["partial"]
