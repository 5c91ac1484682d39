"""Differential gate for the sharded parallel explorer (`repro.analysis.parallel`).

The parallelism contract under test:

* **verdict parity** — every decision procedure returns the *same*
  answer (holds/method, or the same structured inconclusive) on a
  ``workers=2`` session as on a sequential one, across the zoo families
  (the ``test_robustness`` matrix);
* **graph identity** — the parallel exploration discovers the exact
  same states in the exact same order with the exact same transitions:
  parity is a construction property (the session's one exploration
  loop applies every expansion), not a statistical hope;
* **checkpoint round-trip** — a parallel run's ``rpcheck-checkpoint/1``
  resumes sequentially and vice versa, landing on the uninterrupted
  run's graph;
* **governance** — budget exhaustion under workers surfaces at the
  coordinator as the usual structured exhaustion/`PartialVerdict` with
  a clean resumable frontier;
* **observability** — per-worker counts land in the session registry
  (``parallel.states_expanded{worker=i}`` etc.);
* **surfaces** — ``workers`` rides ``rpcheck-request/1``, is honored by
  ``execute`` and the serve daemon, and lands in the run ledger.
"""

import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import uuid

import pytest

import repro

from repro.analysis import AnalysisSession
from repro.analysis.parallel import WorkerPool, default_start_method
from repro.api import AnalysisRequest, ApiError, execute, worker_expansions
from repro.errors import AnalysisBudgetExceeded, AnalysisError, BudgetExhausted
from repro.obs import Ledger, registry_from_dict, scheme_fingerprint
from repro.robust import (
    Budget,
    PartialVerdict,
    load_checkpoint,
    restore_session,
    save_checkpoint,
)
from repro.zoo import spawner_loop, wide_mix

from .test_robustness import CAP, FAMILIES, PROCEDURES, ticking_clock

WORKERS = 2


def _outcome(scheme, procedure, workers):
    """(comparable outcome, graph-state notations) for one fresh session."""
    session = AnalysisSession(scheme, workers=workers)
    try:
        try:
            verdict = PROCEDURES[procedure](scheme, session, None)
            outcome = ("verdict", verdict.holds, getattr(verdict, "method", None))
        except AnalysisBudgetExceeded as exc:
            outcome = ("inconclusive", exc.explored, None)
        return outcome, [state.to_notation() for state in session.graph.states]
    finally:
        session.close()


class TestDifferentialGate:
    """Sharded verdicts == sequential verdicts, all procedures x families."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("procedure", sorted(PROCEDURES))
    def test_parallel_matches_sequential(self, family, procedure):
        sequential, seq_states = _outcome(FAMILIES[family](), procedure, 1)
        parallel, par_states = _outcome(FAMILIES[family](), procedure, WORKERS)
        assert parallel == sequential, (
            f"{procedure} on {family}: workers={WORKERS} drifted: "
            f"{parallel!r} != {sequential!r}"
        )
        assert par_states == seq_states, (
            f"{procedure} on {family}: parallel graph diverged "
            f"({len(par_states)} vs {len(seq_states)} states)"
        )


class TestGraphIdentity:
    def test_states_order_and_transitions_identical(self):
        seq = AnalysisSession(wide_mix(3))
        par = AnalysisSession(wide_mix(3), workers=3)
        try:
            g1 = seq.explore(1200)
            g2 = par.explore(1200)
            assert [s.to_notation() for s in g1.states] == [
                s.to_notation() for s in g2.states
            ]
            assert g1.complete == g2.complete
            for out1, out2 in zip(g1.edges, g2.edges):
                assert [
                    (t.label, t.target.to_notation(), t.rule, t.node, t.path, t.branch)
                    for t in out1
                ] == [
                    (t.label, t.target.to_notation(), t.rule, t.node, t.path, t.branch)
                    for t in out2
                ]
            assert seq.stats.states_expanded == par.stats.states_expanded
            assert seq.stats.transitions_fired == par.stats.transitions_fired
            assert seq.stats.peak_frontier == par.stats.peak_frontier
        finally:
            par.close()

    def test_stop_when_pauses_identically(self):
        predicate = lambda state: state.size >= 5
        seq = AnalysisSession(wide_mix(3))
        par = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            g1 = seq.explore(5000, stop_when=predicate)
            g2 = par.explore(5000, stop_when=predicate)
            assert [s.to_notation() for s in g1.states] == [
                s.to_notation() for s in g2.states
            ]
            assert seq.expanded_count == par.expanded_count
        finally:
            par.close()

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="the platform cannot spawn",
    )
    def test_spawned_workers_grow_the_sequential_graph(self, monkeypatch):
        # a spawned worker hashes strings under its own seed, so the
        # states it ships must intern with the coordinator's all the same
        monkeypatch.setenv("RP_PARALLEL_START", "spawn")
        seq = AnalysisSession(wide_mix(3))
        par = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            g1 = seq.explore(500)
            g2 = par.explore(500)
            assert par._pool.start_method == "spawn"
            assert [s.to_notation() for s in g1.states] == [
                s.to_notation() for s in g2.states
            ]
            assert seq.stats.states_expanded == par.stats.states_expanded
            assert seq.stats.transitions_fired == par.stats.transitions_fired
        finally:
            par.close()

    def test_state_pickled_under_another_hash_seed_unpickles_equal(self):
        session = AnalysisSession(wide_mix(3))
        session.explore(200)
        local = session.graph.states[-1]
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        source_root = os.path.dirname(os.path.dirname(repro.__file__))
        shipped = subprocess.run(
            [
                sys.executable,
                "-c",
                "import pickle, sys\n"
                "from repro.core.hstate import HState\n"
                f"state = HState.parse({local.to_notation()!r})\n"
                "sys.stdout.buffer.write(pickle.dumps(state))\n",
            ],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": source_root},
            capture_output=True,
            check=True,
            timeout=60,
        ).stdout
        remote = pickle.loads(shipped)
        assert remote == local
        assert hash(remote) == hash(local)
        assert {local: "interned"}[remote] == "interned"
        assert remote.size == local.size
        assert all(
            child == twin and hash(child) == hash(twin)
            for (_, child), (_, twin) in zip(remote, local)
        )

    def test_workers_1_never_spawns_a_pool(self):
        session = AnalysisSession(spawner_loop(), workers=1)
        session.explore(CAP)
        assert session._pool is None  # the sequential path, untouched
        session.close()

    def test_resumed_parallel_growth_matches_fresh_run(self):
        par = AnalysisSession(wide_mix(3), workers=WORKERS)
        ref = AnalysisSession(wide_mix(3))
        try:
            par.explore(300)
            par.explore(1200)  # resume from the saved frontier
            ref.explore(1200)
            assert [s.to_notation() for s in par.graph.states] == [
                s.to_notation() for s in ref.graph.states
            ]
        finally:
            par.close()

    def test_stale_answer_is_dropped_by_round_id(self):
        # a slice that an abandoned round left unanswered (a budget stop,
        # another worker's death) is answered late: the coordinator reads
        # that answer, drops it by its round id, and only then sends the
        # worker its slice of the current round
        par = AnalysisSession(wide_mix(3), workers=WORKERS)
        ref = AnalysisSession(wide_mix(3))
        try:
            par.explore(300)
            handle = par._pool.workers[1]
            handle.connection.send(("expand", 0, list(par.frontier)[:16], None))
            handle.busy = True
            par.explore(1200)
            assert not handle.busy and not handle.connection.poll()
            ref.explore(1200)
            assert [s.to_notation() for s in par.graph.states] == [
                s.to_notation() for s in ref.graph.states
            ]
        finally:
            par.close()


class TestCheckpointRoundTrip:
    def test_parallel_checkpoint_resumes_sequentially(self, tmp_path):
        par = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            par.explore(400)
            data = par.checkpoint()
        finally:
            par.close()
        path = tmp_path / "par.json"
        save_checkpoint(data, str(path))
        resumed = restore_session(load_checkpoint(str(path)))
        assert resumed.workers == 1
        resumed.explore(1200)
        ref = AnalysisSession(wide_mix(3))
        ref.explore(1200)
        assert [s.to_notation() for s in resumed.graph.states] == [
            s.to_notation() for s in ref.graph.states
        ]

    def test_sequential_checkpoint_resumes_in_parallel(self, tmp_path):
        seq = AnalysisSession(wide_mix(3))
        seq.explore(400)
        path = tmp_path / "seq.json"
        save_checkpoint(seq.checkpoint(), str(path))
        resumed = restore_session(load_checkpoint(str(path)), workers=WORKERS)
        assert resumed.workers == WORKERS
        try:
            resumed.explore(1200)
            ref = AnalysisSession(wide_mix(3))
            ref.explore(1200)
            assert [s.to_notation() for s in resumed.graph.states] == [
                s.to_notation() for s in ref.graph.states
            ]
        finally:
            resumed.close()


class TestBudgetGovernance:
    def test_deadline_exhaustion_surfaces_at_coordinator(self):
        budget = Budget(deadline=5.0, clock=ticking_clock(0.25))
        session = AnalysisSession(wide_mix(3), workers=WORKERS, budget=budget)
        budget.start()
        try:
            with pytest.raises(BudgetExhausted) as excinfo:
                session.explore(100_000)
            assert excinfo.value.resource == "deadline"
            # the interrupted frontier is a clean resumable BFS prefix
            data = session.checkpoint()
        finally:
            session.close()
        resumed = restore_session(data)
        resumed.explore(1200)
        ref = AnalysisSession(wide_mix(3))
        ref.explore(1200)
        assert [s.to_notation() for s in resumed.graph.states] == [
            s.to_notation() for s in ref.graph.states
        ]

    def test_partial_verdict_with_workers_resumes_to_clean_answer(self, tmp_path):
        scheme = spawner_loop()
        clean = PROCEDURES["boundedness"](scheme, AnalysisSession(scheme), None)
        budget = Budget(
            deadline=2.0, clock=ticking_clock(0.9), on_exhaust="partial"
        )
        session = AnalysisSession(scheme, workers=WORKERS)
        try:
            interrupted = PROCEDURES["boundedness"](scheme, session, budget)
        finally:
            session.close()
        if not isinstance(interrupted, PartialVerdict):
            assert interrupted.holds == clean.holds
            return
        assert interrupted.resumable
        path = tmp_path / "partial.json"
        save_checkpoint(interrupted.checkpoint, str(path))
        resumed_session = restore_session(load_checkpoint(str(path)), scheme=scheme)
        resumed = PROCEDURES["boundedness"](scheme, resumed_session, None)
        assert not isinstance(resumed, PartialVerdict)
        assert resumed.holds == clean.holds

    def test_state_cap_respects_overshoot_contract(self):
        seq = AnalysisSession(wide_mix(3))
        par = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            g1 = seq.explore(777)
            g2 = par.explore(777)
            assert len(g2.states) == len(g1.states)  # same overshoot, exactly
        finally:
            par.close()


class TestObservability:
    def test_per_worker_metrics_fold_into_session_registry(self):
        session = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            session.explore(800)
        finally:
            session.close()
        snapshot = session.metrics.as_dict()
        expansions = worker_expansions(snapshot)
        assert set(expansions) <= {str(i) for i in range(WORKERS)}
        assert expansions, "no per-worker states_expanded counters recorded"
        # workers may expand a few window states the coordinator then
        # abandons (budget boundary), so per-worker totals bound above
        assert sum(expansions.values()) >= session.expanded_count
        assert snapshot["parallel.workers"]["value"] == WORKERS
        assert snapshot["parallel.rounds"]["value"] >= 1
        assert session.stats.peak_frontier == int(
            session.metrics.gauge("explore.frontier", "").max or 0
        )

    def test_every_worker_list_is_adopted(self):
        session = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            session.explore(800)
            session.explore(1500)
        finally:
            session.close()
        expansions = worker_expansions(session.metrics.as_dict())
        # lists computed past the first pass's cap stay cached for the
        # second pass: no worker computes a list the coordinator drops
        assert sum(expansions.values()) == session.semantics.cache_misses

    def test_registry_round_trips_through_dict(self):
        session = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            session.explore(600)
        finally:
            session.close()
        snapshot = session.metrics.as_dict()
        rebuilt = registry_from_dict(snapshot)
        assert rebuilt.as_dict() == snapshot


class TestWorkerPool:
    def test_close_is_idempotent_and_reaps_processes(self):
        pool = WorkerPool(spawner_loop(), 2)
        processes = [handle.process for handle in pool.workers]
        pool.close()
        pool.close()
        for process in processes:
            assert not process.is_alive()

    def test_invalid_sizes_rejected(self):
        with pytest.raises(AnalysisError):
            WorkerPool(spawner_loop(), 0)
        with pytest.raises(AnalysisError):
            AnalysisSession(spawner_loop(), workers=0)
        session = AnalysisSession(spawner_loop())
        with pytest.raises(AnalysisError):
            session.workers = -3

    def test_check_alive_drains_survivors_before_raising(self):
        from repro.analysis.parallel import WorkerFailure

        pool = WorkerPool(wide_mix(3), 2)
        try:
            victim = pool.workers[0].process
            victim.kill()
            victim.join()
            with pytest.raises(WorkerFailure) as failure:
                pool.check_alive()
            assert list(failure.value.indices) == [0]
        finally:
            pool.close()

    def test_close_escalates_to_kill_for_wedged_worker(self, monkeypatch):
        import signal
        import time

        import repro.analysis.parallel as parallel_module

        monkeypatch.setattr(parallel_module, "_JOIN_TIMEOUT", 0.2)
        pool = WorkerPool(wide_mix(3), 2)
        processes = [handle.process for handle in pool.workers]
        for process in processes:
            os.kill(process.pid, signal.SIGSTOP)  # ignores stop and SIGTERM
        started = time.monotonic()
        pool.close()
        assert time.monotonic() - started < 10.0, "shutdown must stay bounded"
        for process in processes:
            assert not process.is_alive()
        pool.close()  # still idempotent after the escalation path

    def test_resizing_workers_respawns_pool_lazily(self):
        session = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            session.explore(300)
            first = session._pool
            assert first is not None and first.size == WORKERS
            session.workers = 3
            assert session._pool is None  # torn down, respawn is lazy
            session.explore(600)
            assert session._pool is not None and session._pool.size == 3
            ref = AnalysisSession(wide_mix(3))
            ref.explore(600)
            assert [s.to_notation() for s in session.graph.states] == [
                s.to_notation() for s in ref.graph.states
            ]
        finally:
            session.close()

    def test_closed_pools_are_released(self):
        import gc
        import weakref

        session = AnalysisSession(wide_mix(3), workers=WORKERS)
        closed = []
        try:
            for switch in range(5):
                session.workers = WORKERS
                session.explore(100 * (switch + 1))
                closed.append(weakref.ref(session._pool))
                session.workers = 1  # closes the pool
        finally:
            session.close()
        gc.collect()
        alive = [ref for ref in closed if ref() is not None]
        assert not alive, f"{len(alive)} of {len(closed)} closed pools still referenced"

    def test_start_method_env_override_is_validated(self, monkeypatch):
        monkeypatch.setenv("RP_PARALLEL_START", "not-a-method")
        with pytest.raises(AnalysisError):
            default_start_method()
        monkeypatch.delenv("RP_PARALLEL_START")
        assert default_start_method() in ("fork", "spawn")


class TestApiSurface:
    def test_request_workers_round_trips_json(self):
        request = AnalysisRequest(
            procedure="boundedness", source="x", workers=4
        )
        wire = json.loads(json.dumps(request.to_json_dict()))
        assert wire["workers"] == 4
        assert AnalysisRequest.from_json_dict(wire).workers == 4
        absent = AnalysisRequest(procedure="boundedness", source="x")
        assert absent.to_json_dict()["workers"] is None

    def test_request_workers_validation(self):
        with pytest.raises(ApiError):
            AnalysisRequest(
                procedure="boundedness", source="x", workers=0
            ).validate()
        with pytest.raises(ApiError):
            AnalysisRequest(
                procedure="boundedness", source="x", workers="four"
            ).validate()

    def test_execute_honors_workers_and_matches_sequential(self, tmp_path):
        from repro.zoo import FIG1_PROGRAM

        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        sequential = execute(
            AnalysisRequest(procedure="boundedness", source=FIG1_PROGRAM)
        )
        parallel = execute(
            AnalysisRequest(
                procedure="boundedness", source=FIG1_PROGRAM, workers=WORKERS
            ),
            ledger=ledger,
        )
        assert parallel.comparable() == sequential.comparable()
        (entry,) = ledger.entries()
        assert entry["extra"]["workers"] == WORKERS

    def test_ledger_records_workers_and_per_worker_counts(self, tmp_path):
        scheme = wide_mix(3)
        session = AnalysisSession(scheme, workers=WORKERS)
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        try:
            response = execute(
                AnalysisRequest(
                    procedure="halts",
                    fingerprint=scheme_fingerprint(scheme),
                    params={"max_states": 800},
                    workers=WORKERS,
                ),
                scheme=scheme,
                session=session,
                ledger=ledger,
            )
        finally:
            session.close()
        assert response.ok
        (entry,) = ledger.entries()
        assert entry["extra"]["workers"] == WORKERS
        recorded = entry["extra"].get("worker_expansions")
        assert recorded and sum(recorded.values()) >= session.expanded_count


    def test_cli_ledger_records_workers_and_per_worker_counts(self, tmp_path):
        from repro.cli import main
        from repro.zoo import FIG1_PROGRAM

        program = tmp_path / "prog.rp"
        program.write_text(FIG1_PROGRAM)
        ledger_path = str(tmp_path / "ledger.jsonl")
        code = main(
            [str(program), "--workers", str(WORKERS), "--max-states", "2000",
             "--ledger", ledger_path]
        )
        assert code == 0
        (entry,) = Ledger(ledger_path).entries()
        assert entry["extra"]["workers"] == WORKERS
        assert entry["extra"].get("worker_expansions")


class TestServeSurface:
    def test_daemon_honors_request_workers(self):
        from repro.serve import ServeClient, daemon_in_thread

        tmp = f"/tmp/rpp-{uuid.uuid4().hex[:8]}"
        os.makedirs(tmp, exist_ok=True)
        sock = os.path.join(tmp, "s.sock")
        scheme = wide_mix(3)
        fingerprint = scheme_fingerprint(scheme)
        with daemon_in_thread(sock, flight_dir=tmp) as daemon:
            daemon.pool.adopt(scheme)
            with ServeClient(sock) as client:
                served_parallel = client.query(
                    "boundedness",
                    fingerprint=fingerprint,
                    workers=WORKERS,
                    max_states=CAP,
                )
                entry = daemon.pool.get(fingerprint)
                assert entry is not None
                assert entry.session.workers == WORKERS
                served_sequential = client.query(
                    "halts", fingerprint=fingerprint, max_states=CAP
                )
                # an absent workers field resets the pooled session
                assert entry.session.workers == 1
        local = execute(
            AnalysisRequest(
                procedure="boundedness",
                fingerprint=fingerprint,
                params={"max_states": CAP},
            ),
            scheme=scheme,
            session=AnalysisSession(scheme),
        )
        assert served_parallel.comparable() == local.comparable()
        assert served_sequential.ok


