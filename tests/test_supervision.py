"""Fail-safe supervision under process-level chaos.

The supervision contract under test:

* **chaos differential gate** — with seeded ``SIGKILL``\\ s of chosen
  workers at chosen windows (:class:`~repro.robust.ProcessFaultPlan`),
  every decision procedure still returns *exactly* the sequential
  verdict on *exactly* the sequential graph: nothing of the failed
  window was adopted, and the session finishes the same query
  in-process, so a worker death is invisible in the results;
* **degradation** — the first dead or hung worker (a hung-but-alive
  one trips the per-window heartbeat) closes the pool and marks the
  session degraded (``parallel.degraded``), never failing the query;
  assigning ``workers`` re-arms the session;
* **serve resilience** — the daemon sheds load with a structured
  ``overloaded`` + ``retry_after`` (unix socket and HTTP 429) instead
  of queueing unboundedly, answers ``GET /v1/health``, reaps stuck
  pools via the per-query watchdog, and the client retries idempotent
  queries through overload and daemon restarts.

Worker kills are real ``SIGKILL``\\ s of real processes; seeds follow
``RP_CHAOS_SEEDS`` like the rest of the chaos matrix.
"""

import json
import os
import signal
import threading
import time
import urllib.error
import urllib.request
import uuid

import pytest

from repro.analysis import AnalysisSession
from repro.api import AnalysisRequest, execute
from repro.obs import scheme_fingerprint
from repro.robust import ProcessFaultPlan, install_process_faults
from repro.serve import ServeClient, ServeOverloaded, daemon_in_thread
from repro.zoo import mixed_grove, wide_mix

from .test_parallel import WORKERS, _outcome
from .test_robustness import CHAOS_SEEDS, FAMILIES, PROCEDURES


def _chaos_outcome(scheme, procedure, plan):
    """Like :func:`test_parallel._outcome`, but with seeded worker kills."""
    session = AnalysisSession(scheme, workers=WORKERS)
    try:
        install_process_faults(session, plan)
        try:
            verdict = PROCEDURES[procedure](scheme, session, None)
            outcome = ("verdict", verdict.holds, getattr(verdict, "method", None))
        except Exception as exc:  # AnalysisBudgetExceeded keeps parity shape
            outcome = ("inconclusive", getattr(exc, "explored", None), None)
        return (
            outcome,
            [state.to_notation() for state in session.graph.states],
            session._parallel_degraded,
        )
    finally:
        session.close()


class TestChaosDifferentialGate:
    """Seeded worker SIGKILLs never change a verdict or a graph."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("procedure", sorted(PROCEDURES))
    def test_kills_are_invisible_in_results(self, family, procedure, seed):
        plan = ProcessFaultPlan(
            seed=seed,
            kill_at=((1, seed % WORKERS), (2, (seed + 1) % WORKERS)),
            max_kills=2,
            immune=0,
        )
        sequential, seq_states = _outcome(FAMILIES[family](), procedure, 1)
        recovered, rec_states, degraded = _chaos_outcome(
            FAMILIES[family](), procedure, plan
        )
        assert recovered == sequential, (
            f"{procedure} on {family} (seed {seed}): recovery drifted "
            f"(degraded: {degraded}): {recovered!r} != {sequential!r}"
        )
        assert rec_states == seq_states, (
            f"{procedure} on {family} (seed {seed}): recovered graph "
            f"diverged ({len(rec_states)} vs {len(seq_states)} states)"
        )


class TestRecovery:
    """A worker failure degrades the session byte-identically, and says so."""

    def _sequential_reference(self, cap):
        seq = AnalysisSession(wide_mix(3))
        graph = seq.explore(cap)
        return seq, graph

    def test_single_kill_recovers_byte_identically(self):
        seq, g1 = self._sequential_reference(5000)
        par = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            pool = install_process_faults(
                par, ProcessFaultPlan(kill_at=((2, 0),), max_kills=1, immune=0)
            )
            g2 = par.explore(5000)
            assert pool.chaos_kills == 1, "the planned kill must actually fire"
            assert [s.to_notation() for s in g1.states] == [
                s.to_notation() for s in g2.states
            ]
            for out1, out2 in zip(g1.edges, g2.edges):
                assert [
                    (t.label, t.target.to_notation(), t.rule) for t in out1
                ] == [(t.label, t.target.to_notation(), t.rule) for t in out2]
            assert seq.stats.states_expanded == par.stats.states_expanded
            assert seq.stats.peak_frontier == par.stats.peak_frontier
            assert par._parallel_degraded is True
            assert par._pool is None, "degrading closes the pool"
            snapshot = par.metrics.as_dict()
            assert snapshot["parallel.degraded"]["value"] == 1
        finally:
            par.close()

    def test_pinned_double_kill_and_checkpoint_parity(self, tmp_path):
        seq = AnalysisSession(wide_mix(3))
        seq.explore(1500)
        par = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            pool = install_process_faults(
                par,
                ProcessFaultPlan(
                    kill_at=((1, 0), (2, 1)), max_kills=2, immune=0
                ),
            )
            par.explore(1500)
            # the first kill degrades the session: the pool is gone
            # before window 2, so the second planned kill cannot fire
            assert pool.chaos_kills == 1
            assert par._pool is None
            assert par.metrics.as_dict()["parallel.degraded"]["value"] == 1
            assert [s.to_notation() for s in seq.graph.states] == [
                s.to_notation() for s in par.graph.states
            ]
            # a mid-run checkpoint taken after recovery resumes onto the
            # exact graph an undisturbed run would reach
            from repro.robust import load_checkpoint, restore_session, save_checkpoint

            path = tmp_path / "recovered.json"
            save_checkpoint(par.checkpoint(), str(path))
            resumed = restore_session(load_checkpoint(str(path)))
            resumed.explore(5000)
            ref = AnalysisSession(wide_mix(3))
            ref.explore(5000)
            assert [s.to_notation() for s in resumed.graph.states] == [
                s.to_notation() for s in ref.graph.states
            ]
        finally:
            par.close()

    def test_assigning_workers_rearms_a_degraded_session(self):
        seq, g1 = self._sequential_reference(5000)
        par = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            install_process_faults(
                par, ProcessFaultPlan(kill_at=((2, 0),), max_kills=1, immune=0)
            )
            par.explore(2000)  # must not raise: the query still finishes
            assert par._parallel_degraded is True
            par.explore(3000)  # stays in-process: no pool comes back
            assert par._pool is None
            # explicitly resetting workers re-arms parallelism
            par.workers = WORKERS
            assert par._parallel_degraded is False
            g2 = par.explore(5000)
            assert par._pool is not None, "a re-armed session shards again"
            assert [s.to_notation() for s in g1.states] == [
                s.to_notation() for s in g2.states
            ]
        finally:
            par.close()

    def test_hung_worker_trips_heartbeat_and_recovers(self):
        seq, g1 = self._sequential_reference(2000)
        par = AnalysisSession(wide_mix(3), workers=WORKERS)
        try:
            pool = par._ensure_pool()
            pool.heartbeat = 0.5
            os.kill(pool.workers[0].process.pid, signal.SIGSTOP)
            g2 = par.explore(2000)
            assert par._parallel_degraded is True
            assert par._pool is None
            assert par.metrics.as_dict()["parallel.degraded"]["value"] == 1
            assert [s.to_notation() for s in g1.states] == [
                s.to_notation() for s in g2.states
            ]
        finally:
            par.close()

    def test_install_requires_parallel_session(self):
        session = AnalysisSession(wide_mix(2))
        with pytest.raises(ValueError):
            install_process_faults(session, ProcessFaultPlan(kill_rate=1.0))


OCCUPIER_CAP = 30000  # boundedness on mixed_grove(3, 3): seconds, not ms


def _occupy(client, box):
    """Run the long occupier query; stash the response/exception in *box*."""
    try:
        box["response"] = client.query(
            "boundedness",
            fingerprint=box["fingerprint"],
            max_states=OCCUPIER_CAP,
        )
    except Exception as exc:  # noqa: BLE001 - surfaced by the test body
        box["error"] = exc


def _wait_until(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestServeResilience:
    """Load shedding, retry, health, watchdog, reconnect."""

    def _daemon_dir(self):
        tmp = f"/tmp/rpp-{uuid.uuid4().hex[:8]}"
        os.makedirs(tmp, exist_ok=True)
        return tmp, os.path.join(tmp, "s.sock")

    def test_overload_sheds_structured_and_retry_succeeds(self):
        tmp, sock = self._daemon_dir()
        grove = mixed_grove(3, 3)
        quick = wide_mix(3)
        with daemon_in_thread(
            sock, flight_dir=tmp, concurrency=1, max_queue=0
        ) as daemon:
            daemon.pool.adopt(grove)
            daemon.pool.adopt(quick)
            box = {"fingerprint": scheme_fingerprint(grove)}
            occupier = ServeClient(sock, timeout=300.0)
            thread = threading.Thread(target=_occupy, args=(occupier, box))
            thread.start()
            try:
                assert _wait_until(lambda: daemon._pending >= 1)
                # no retry budget: the shed surfaces as ServeOverloaded
                with ServeClient(sock, max_retries=0) as impatient:
                    with pytest.raises(ServeOverloaded) as shed:
                        impatient.query(
                            "halts",
                            fingerprint=scheme_fingerprint(quick),
                            max_states=400,
                        )
                assert shed.value.retry_after > 0
                assert daemon.shed >= 1
                # a patient client rides retry_after/backoff to the verdict
                with ServeClient(
                    sock, max_retries=60, backoff=0.2, backoff_max=2.0
                ) as patient:
                    response = patient.query(
                        "halts",
                        fingerprint=scheme_fingerprint(quick),
                        max_states=400,
                    )
                    assert response.ok
                    assert patient.retries >= 1
            finally:
                thread.join(timeout=300.0)
                occupier.close()
            assert not thread.is_alive()
            assert "error" not in box, f"occupier failed: {box.get('error')!r}"
            # the accepted query was never disturbed by the shed traffic
            local = execute(
                AnalysisRequest(
                    procedure="boundedness",
                    fingerprint=box["fingerprint"],
                    params={"max_states": OCCUPIER_CAP},
                ),
                scheme=grove,
                session=AnalysisSession(grove),
            )
            assert box["response"].comparable() == local.comparable()

    def test_health_endpoint_reports_readiness(self):
        tmp, sock = self._daemon_dir()
        grove = mixed_grove(3, 3)
        with daemon_in_thread(
            sock, flight_dir=tmp, http_port=0, concurrency=1, max_queue=0
        ) as daemon:
            daemon.pool.adopt(grove)
            base = f"http://127.0.0.1:{daemon.bound_http_port}"
            payload = json.loads(
                urllib.request.urlopen(f"{base}/v1/health", timeout=10).read()
            )
            assert payload["live"] is True and payload["ready"] is True
            box = {"fingerprint": scheme_fingerprint(grove)}
            occupier = ServeClient(sock, timeout=300.0)
            thread = threading.Thread(target=_occupy, args=(occupier, box))
            thread.start()
            try:
                assert _wait_until(lambda: daemon._pending >= 1)
                try:
                    urllib.request.urlopen(f"{base}/v1/health", timeout=10)
                    pytest.fail("saturated daemon must answer 503")
                except urllib.error.HTTPError as error:
                    assert error.code == 503
                    busy = json.loads(error.read())
                    assert busy["live"] is True and busy["ready"] is False
                # HTTP analyze sheds with 429 + structured retry hint
                request = urllib.request.Request(
                    f"{base}/v1/analyze",
                    data=json.dumps(
                        {
                            "schema": "rpcheck-request/1",
                            "procedure": "halts",
                            "fingerprint": box["fingerprint"],
                            "params": {"max_states": 400},
                        }
                    ).encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                try:
                    urllib.request.urlopen(request, timeout=10)
                    pytest.fail("saturated daemon must answer 429")
                except urllib.error.HTTPError as error:
                    assert error.code == 429
                    body = json.loads(error.read())
                    assert body["error"] == "overloaded"
                    assert body["retry_after"] > 0
            finally:
                thread.join(timeout=300.0)
                occupier.close()
            assert "error" not in box, f"occupier failed: {box.get('error')!r}"

    def test_client_reconnects_across_daemon_restart(self):
        tmp, sock = self._daemon_dir()
        quick = wide_mix(3)
        fingerprint = scheme_fingerprint(quick)
        client = None
        try:
            with daemon_in_thread(sock, flight_dir=tmp) as daemon:
                daemon.pool.adopt(quick)
                client = ServeClient(sock, max_retries=60, backoff=0.1)
                first = client.query(
                    "halts", fingerprint=fingerprint, max_states=400
                )
                assert first.ok
            # daemon gone; the held connection is now dead
            with daemon_in_thread(sock, flight_dir=tmp) as daemon:
                daemon.pool.adopt(quick)
                second = client.query(
                    "halts", fingerprint=fingerprint, max_states=400
                )
                assert second.ok
                assert client.retries >= 1
                assert second.comparable() == first.comparable()
        finally:
            if client is not None:
                client.close()

    def test_watchdog_reaps_stuck_parallel_query(self):
        tmp, sock = self._daemon_dir()
        grove = mixed_grove(3, 3)
        fingerprint = scheme_fingerprint(grove)
        with daemon_in_thread(
            sock, flight_dir=tmp, query_timeout=1.0
        ) as daemon:
            daemon.pool.adopt(grove)
            with ServeClient(sock, timeout=300.0) as client:
                started = time.monotonic()
                response = client.query(
                    "boundedness",
                    fingerprint=fingerprint,
                    workers=WORKERS,
                    max_states=OCCUPIER_CAP,
                )
                elapsed = time.monotonic() - started
            assert response.verdict == "unknown"
            assert response.partial is not None
            assert response.partial["resource"] == "cancelled"
            assert elapsed < 30.0, "watchdog must cut the query short"
            assert daemon.watchdog_reaped == 1
            entry = daemon.pool.get(fingerprint)
            assert entry is not None
            assert entry.session._pool is None, "stuck pool must be reaped"
