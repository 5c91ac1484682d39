"""Tests for the run ledger, cross-run diff, and flight recorder (PR 5).

Covers the observability tentpole end to end: ledger entries that
round-trip across process restarts (fresh :class:`Ledger` instances on
the same file), ``rpcheck diff`` on synthetic runs with an injected
slowdown and a verdict flip, flight-recorder dumps on chaos-induced
corruption, the differential guarantee that enabling a
:class:`LedgerSink` changes no verdicts, the thread-safety contract of
:class:`MetricsRegistry`/:class:`MemorySink`, and the
``watch_regressions`` perf watchdog.
"""

import hashlib
import importlib.util
import json
import pathlib
import threading

import pytest

from repro.analysis import AnalysisSession, analyze, boundedness
from repro.api import AnalysisRequest, execute
from repro.cli import main
from repro.core import serialize
from repro.errors import CorruptionDetected
from repro.lang import compile_source
from repro.obs import (
    FlightRecorder,
    Ledger,
    LedgerSink,
    MemorySink,
    MetricsRegistry,
    TeeSink,
    Tracer,
    ambient_recorder,
    diff_entries,
    find_recorder,
    make_entry,
    record_incident,
    resolve_entry,
    scheme_fingerprint,
    verdict_summary,
)
from repro.obs.ledger import LEDGER_SCHEMA, default_ledger_path
from repro.obs.recorder import FLIGHT_DIR_ENV, FLIGHT_SCHEMA
from repro.robust import ChaosSemantics, FaultPlan
from repro.zoo import FIG1_PROGRAM, ZOO_ALL, mutex_pair, spawner_loop

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def fig1_file(tmp_path):
    path = tmp_path / "fig1.rp"
    path.write_text(FIG1_PROGRAM)
    return str(path)


@pytest.fixture(autouse=True)
def _no_ambient_flight_dumps(monkeypatch):
    """Keep incident dumps opt-in per test (CI sets the env globally)."""
    monkeypatch.delenv(FLIGHT_DIR_ENV, raising=False)


def _entry(scheme=None, *, spans=None, procedures=None, **kwargs):
    return make_entry(
        kind="analysis",
        scheme=scheme,
        spans=spans or {},
        procedures=procedures or {},
        **kwargs,
    )


class TestLedgerRoundTrip:
    def test_entries_survive_process_restart(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        scheme = spawner_loop()
        writer = Ledger(path)
        first = writer.append(_entry(scheme, wall_seconds=1.0))
        second = writer.append(_entry(scheme, wall_seconds=2.0))
        # a fresh instance on the same file is the "restarted process"
        reader = Ledger(path)
        entries = reader.entries()
        assert [e["run_id"] for e in entries] == [
            first["run_id"],
            second["run_id"],
        ]
        assert entries == [first, second]
        assert len(reader) == 2
        assert reader.tail(1) == [second]

    def test_append_rejects_wrong_schema(self, tmp_path):
        ledger = Ledger(str(tmp_path / "l.jsonl"))
        with pytest.raises(ValueError, match="schema"):
            ledger.append({"schema": "something-else/9"})

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "l.jsonl"
        ledger = Ledger(str(path))
        ledger.append(_entry())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json\n")
        with pytest.raises(ValueError, match="line 2"):
            Ledger(str(path)).entries()

    def test_missing_file_reads_empty(self, tmp_path):
        assert Ledger(str(tmp_path / "absent.jsonl")).entries() == []

    def test_filter(self, tmp_path):
        ledger = Ledger(str(tmp_path / "l.jsonl"))
        ledger.append(_entry(spawner_loop()))
        ledger.append(make_entry(kind="bench"))
        assert len(ledger.filter(kind="bench")) == 1
        assert len(ledger.filter(scheme="spawner")) == 1
        assert ledger.filter(scheme="nope") == []

    def test_default_path_resolution(self, monkeypatch):
        monkeypatch.delenv("RPCHECK_LEDGER", raising=False)
        assert default_ledger_path(None) is None
        assert default_ledger_path("x.jsonl") == "x.jsonl"
        monkeypatch.setenv("RPCHECK_LEDGER", "env.jsonl")
        assert default_ledger_path(None) == "env.jsonl"
        assert default_ledger_path("x.jsonl") == "x.jsonl"

    def test_fingerprint_stable_and_content_sensitive(self):
        a, b = spawner_loop(), spawner_loop()
        assert scheme_fingerprint(a) == scheme_fingerprint(b)
        assert scheme_fingerprint(a).startswith("sha256:")

    def test_fingerprint_is_computed_once_per_scheme(self, monkeypatch):
        schemes = [factory() for _, factory in ZOO_ALL]
        schemes.append(compile_source(FIG1_PROGRAM).scheme)
        expected = [
            "sha256:"
            + hashlib.sha256(
                serialize.scheme_to_json(scheme).encode("utf-8")
            ).hexdigest()[:16]
            for scheme in schemes
        ]
        serialised = []
        original = serialize.scheme_to_json

        def counting(scheme, *args, **kwargs):
            serialised.append(scheme)
            return original(scheme, *args, **kwargs)

        monkeypatch.setattr(serialize, "scheme_to_json", counting)
        first = [scheme_fingerprint(scheme) for scheme in schemes]
        second = [scheme_fingerprint(scheme) for scheme in schemes]
        assert first == second == expected
        assert len(serialised) == len(schemes)

    def test_entry_fingerprint_equals_the_response_fingerprint(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        response = execute(
            AnalysisRequest(procedure="halts", source=FIG1_PROGRAM), ledger=ledger
        )
        (entry,) = ledger.entries()
        assert entry["scheme"]["fingerprint"] == response.scheme["fingerprint"]
        assert response.scheme["fingerprint"] == scheme_fingerprint(
            compile_source(FIG1_PROGRAM).scheme
        )

    def test_verdict_summary_shapes(self):
        assert verdict_summary(None) == {"verdict": "inconclusive"}
        verdict = boundedness(spawner_loop(), max_states=500)
        summary = verdict_summary(verdict)
        assert summary["verdict"] in ("yes", "no")
        assert summary["method"]


class TestLedgerSink:
    def test_end_to_end_boundedness_run(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        sink = LedgerSink(Ledger(path), kind="analysis")
        scheme = spawner_loop()
        session = AnalysisSession(scheme, tracer=Tracer(sink))
        verdict = boundedness(scheme, max_states=500, session=session)
        entry = sink.finish(
            scheme=scheme,
            procedures={"boundedness": verdict},
            metrics=session.metrics.as_dict(),
            wall_seconds=0.5,
            cpu_seconds=0.4,
        )
        assert entry["schema"] == LEDGER_SCHEMA
        assert entry["scheme"]["fingerprint"] == scheme_fingerprint(scheme)
        assert entry["procedures"]["boundedness"]["verdict"] in ("yes", "no")
        # the spans rollup is built from the records the tracer emitted
        assert "session.explore" in entry["spans"]
        assert entry["spans"]["session.explore"]["self"] >= 0
        # idempotent: a second finish returns the same appended entry
        assert sink.finish() is entry
        assert Ledger(path).entries()[0]["run_id"] == entry["run_id"]

    def test_close_without_finish_leaves_abandoned_entry(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        sink = LedgerSink(Ledger(path))
        session = AnalysisSession(spawner_loop(), tracer=Tracer(sink))
        session.explore(100)
        sink.close()
        entries = Ledger(path).entries()
        assert len(entries) == 1
        assert entries[0]["outcome"] == "abandoned"

    def test_ledger_sink_changes_no_verdicts(self, tmp_path):
        """Differential: the observed run answers exactly like a bare one."""
        scheme = spawner_loop()
        bare = analyze(scheme, max_states=800)
        sink = LedgerSink(Ledger(str(tmp_path / "runs.jsonl")))
        tracer = Tracer(TeeSink([FlightRecorder(), sink]))
        session = AnalysisSession(scheme, tracer=tracer)
        observed = analyze(scheme, max_states=800, session=session)
        sink.finish(scheme=scheme)
        for name in ("bounded", "halting", "normedness"):
            a, b = getattr(bare, name), getattr(observed, name)
            if a is None or b is None:
                assert a is b  # inconclusive on both sides or neither
                continue
            assert a.holds == b.holds
            assert a.method == b.method
        assert bare.wait_free == observed.wait_free


class TestDiff:
    def _pair(self, *, slow=1.0, flip=False):
        scheme = spawner_loop()
        spans_a = {
            "session.explore": {"count": 2, "wall": 0.100, "self": 0.080},
            "boundedness": {"count": 1, "wall": 0.120, "self": 0.020},
        }
        spans_b = {
            "session.explore": {
                "count": 2,
                "wall": 0.100 * slow,
                "self": 0.080 * slow,
            },
            "boundedness": {"count": 1, "wall": 0.120, "self": 0.020},
        }
        verdict_a = {"verdict": "yes", "method": "kruskal"}
        verdict_b = (
            {"verdict": "no", "method": "self-covering"} if flip else verdict_a
        )
        entry_a = _entry(
            scheme, spans=spans_a, procedures={"boundedness": verdict_a}
        )
        entry_b = _entry(
            scheme, spans=spans_b, procedures={"boundedness": verdict_b}
        )
        return entry_a, entry_b

    def test_identical_runs_are_clean(self):
        entry_a, entry_b = self._pair()
        diff = diff_entries(entry_a, entry_b)
        assert diff.same_scheme
        assert diff.verdict_drift == []
        assert diff.flagged_spans == []
        assert diff.clean

    def test_injected_slowdown_is_flagged(self):
        # 25% slowdown on a 80ms span: over the 10% default threshold
        entry_a, entry_b = self._pair(slow=1.25)
        diff = diff_entries(entry_a, entry_b)
        flagged = {d["span"]: d for d in diff.flagged_spans}
        assert "session.explore" in flagged
        assert flagged["session.explore"]["pct"] == pytest.approx(25.0)
        assert "boundedness" not in flagged
        assert diff.clean  # slower, but no verdict drift

    def test_noise_threshold_suppresses_small_deltas(self):
        entry_a, entry_b = self._pair(slow=1.05)
        assert diff_entries(entry_a, entry_b).flagged_spans == []
        # a relatively-huge but absolutely-tiny span stays quiet too
        tiny_a = _entry(spans={"x": {"count": 1, "wall": 1e-5, "self": 1e-5}})
        tiny_b = _entry(spans={"x": {"count": 1, "wall": 9e-5, "self": 9e-5}})
        assert diff_entries(tiny_a, tiny_b).flagged_spans == []

    def test_verdict_flip_is_drift(self):
        entry_a, entry_b = self._pair(flip=True)
        diff = diff_entries(entry_a, entry_b)
        assert not diff.clean
        assert len(diff.verdict_drift) == 1
        drift = diff.verdict_drift[0]
        assert drift["procedure"] == "boundedness"
        assert (drift["a"], drift["b"]) == ("yes", "no")

    def test_as_dict_is_json_ready(self):
        entry_a, entry_b = self._pair(slow=1.5, flip=True)
        payload = json.loads(json.dumps(diff_entries(entry_a, entry_b).as_dict()))
        assert payload["run_a"] == entry_a["run_id"]
        assert payload["run_b"] == entry_b["run_id"]
        assert payload["verdict_drift"]

    def test_resolve_entry(self, tmp_path):
        ledger = Ledger(str(tmp_path / "l.jsonl"))
        first = ledger.append(_entry(run_id="run-aaa-1"))
        second = ledger.append(_entry(run_id="run-abb-2"))
        entries = ledger.entries()
        assert resolve_entry(entries, "run-aaa-1") == first
        assert resolve_entry(entries, "0") == first
        assert resolve_entry(entries, "1") == second
        assert resolve_entry(entries, "run-ab") == second
        with pytest.raises(ValueError, match="ambiguous"):
            resolve_entry(entries, "run-a")
        with pytest.raises(ValueError, match="no ledger entry"):
            resolve_entry(entries, "zzz")


class TestFlightRecorder:
    def test_ring_buffer_keeps_most_recent(self):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.emit({"type": "event", "name": f"e{index}"})
        assert len(recorder) == 4
        assert [r["name"] for r in recorder.records()] == [
            "e6",
            "e7",
            "e8",
            "e9",
        ]

    def test_wraparound_at_exactly_default_capacity(self):
        # the boundary case: record number 512 must evict record 0, and
        # not one record earlier or later
        from repro.obs.recorder import DEFAULT_CAPACITY

        assert DEFAULT_CAPACITY == 512
        recorder = FlightRecorder()
        for index in range(DEFAULT_CAPACITY):
            recorder.emit({"type": "event", "name": f"e{index}"})
        assert len(recorder) == DEFAULT_CAPACITY
        names = [r["name"] for r in recorder.records()]
        assert names[0] == "e0" and names[-1] == f"e{DEFAULT_CAPACITY - 1}"
        recorder.emit({"type": "event", "name": "overflow"})
        assert len(recorder) == DEFAULT_CAPACITY
        names = [r["name"] for r in recorder.records()]
        assert names[0] == "e1" and names[-1] == "overflow"

    def test_default_session_records_into_ambient_recorder(self):
        session = AnalysisSession(spawner_loop())
        assert find_recorder(session.tracer.sink) is ambient_recorder()
        ambient_recorder().clear()
        session.explore(50)
        names = [r.get("name") for r in ambient_recorder().records()]
        assert "session.explore" in names

    def test_find_recorder_descends_tees(self):
        recorder = FlightRecorder()
        tee = TeeSink([MemorySink(), TeeSink([recorder])])
        assert find_recorder(tee) is recorder
        assert find_recorder(MemorySink()) is None

    def test_dump_writes_flight_bundle(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        recorder.emit({"type": "event", "name": "boom"})
        path = recorder.dump(
            str(tmp_path / "bundle.json"),
            reason="unit test",
            error=ValueError("x"),
            metrics={"m": 1},
            context={"k": "v"},
        )
        payload = json.loads(pathlib.Path(path).read_text())
        assert payload["schema"] == FLIGHT_SCHEMA
        assert payload["reason"] == "unit test"
        assert payload["error"]["type"] == "ValueError"
        assert payload["records"][0]["name"] == "boom"
        assert payload["context"] == {"k": "v"}
        assert recorder.dumps == 1

    def test_record_incident_noop_without_target(self, tmp_path):
        session = AnalysisSession(spawner_loop())
        assert record_incident(session, ValueError("x")) is None
        assert list(tmp_path.iterdir()) == []

    def test_chaos_corruption_dumps_one_bundle(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV, str(tmp_path))
        plan = FaultPlan(seed=3, fault_at=((1, "corrupt"),))
        chaos = ChaosSemantics(spawner_loop(), plan)
        session = AnalysisSession(chaos.scheme, semantics=chaos)
        with pytest.raises(CorruptionDetected) as excinfo:
            boundedness(chaos.scheme, max_states=200, session=session)
        bundles = sorted(tmp_path.glob("flight-*.json"))
        # idempotent per exception: one bundle even though the error
        # crossed several instrumented layers
        assert len(bundles) == 1
        payload = json.loads(bundles[0].read_text())
        assert payload["schema"] == FLIGHT_SCHEMA
        assert payload["error"]["type"] == "CorruptionDetected"
        assert "CorruptionDetected" in payload["reason"]
        assert payload["metrics"] is not None
        assert getattr(excinfo.value, "_flight_bundle") == str(bundles[0])


class TestThreadSafety:
    def test_concurrent_label_creation_yields_one_child(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer.labels")
        barrier = threading.Barrier(8)
        children = []

        def work():
            barrier.wait()
            children.append(counter.labels(shard="same"))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(child) for child in children}) == 1

    def test_concurrent_merges_lose_nothing(self):
        target = MetricsRegistry()
        workers = []
        for index in range(8):
            registry = MetricsRegistry()
            registry.counter("work.done").inc(100)
            registry.counter("work.done").labels(worker=str(index)).inc(7)
            registry.histogram("work.seconds").observe(0.5)
            workers.append(registry)
        threads = [
            threading.Thread(target=target.merge, args=(registry,))
            for registry in workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = target.get("work.done")
        assert merged.value == 800
        assert merged.total() == 800 + 8 * 7
        assert target.get("work.seconds").count == 8

    def test_memory_sink_concurrent_emits(self):
        sink = MemorySink()
        barrier = threading.Barrier(8)

        def work(worker):
            barrier.wait()
            for index in range(500):
                sink.emit({"type": "event", "worker": worker, "i": index})

        threads = [
            threading.Thread(target=work, args=(w,)) for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(sink.snapshot()) == 8 * 500


class TestCli:
    def test_analysis_appends_ledger_entry(self, fig1_file, tmp_path, capsys):
        ledger_path = str(tmp_path / "runs" / "ledger.jsonl")
        code = main(
            [fig1_file, "--max-states", "2000", "--ledger", ledger_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ledger    : appended" in out
        entries = Ledger(ledger_path).entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["kind"] == "analysis"
        assert entry["outcome"] == "ok"
        assert entry["procedures"]["boundedness"]["verdict"] == "no"
        assert entry["spans"]
        assert entry["totals"]["wall_seconds"] > 0

    def test_history_and_diff(self, fig1_file, tmp_path, capsys):
        ledger_path = str(tmp_path / "ledger.jsonl")
        for _ in range(2):
            main([fig1_file, "--max-states", "2000", "--ledger", ledger_path])
        capsys.readouterr()
        assert main(["history", "--ledger", ledger_path]) == 0
        out = capsys.readouterr().out
        assert out.count("analysis") == 2
        assert "boundedness=no" in out
        # same scheme, same procedures: diff is clean (exit 0, no drift)
        assert main(["diff", "0", "1", "--ledger", ledger_path]) == 0
        out = capsys.readouterr().out
        assert "identical fingerprint" in out
        assert "no drift" in out

    def test_history_json_and_filters(self, fig1_file, tmp_path, capsys):
        ledger_path = str(tmp_path / "ledger.jsonl")
        main([fig1_file, "--max-states", "2000", "--ledger", ledger_path])
        capsys.readouterr()
        assert main(
            ["history", "--ledger", ledger_path, "--scheme", "main", "--json"]
        ) == 0
        lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert len(lines) == 1
        assert json.loads(lines[0])["scheme"]["name"] == "main"
        assert main(
            ["history", "--ledger", ledger_path, "--scheme", "nope"]
        ) == 0
        assert "no matching runs" in capsys.readouterr().out

    def test_diff_reports_verdict_drift(self, tmp_path, capsys):
        ledger = Ledger(str(tmp_path / "l.jsonl"))
        scheme = spawner_loop()
        ledger.append(
            _entry(scheme, procedures={"halting": {"verdict": "yes"}})
        )
        ledger.append(
            _entry(scheme, procedures={"halting": {"verdict": "no"}})
        )
        code = main(["diff", "0", "1", "--ledger", ledger.path])
        assert code == 1
        assert "halting" in capsys.readouterr().out

    def test_report_json_format(self, fig1_file, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        main([fig1_file, "--max-states", "2000", "--trace", trace])
        capsys.readouterr()
        assert main(["report", trace, "--format", "json", "--top", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "rpcheck-report/1"
        assert payload["roots"][0]["name"] == "rpcheck"
        assert len(payload["hot"]) <= 3
        assert "session.explore" in payload["rollup"]
        # self time sums to the root's wall within float tolerance
        total_self = sum(v["self"] for v in payload["rollup"].values())
        assert total_self == pytest.approx(
            payload["roots"][0]["wall"], rel=1e-6
        )

    def test_flamegraph_export(self, fig1_file, tmp_path, capsys):
        trace = str(tmp_path / "t.jsonl")
        out_path = tmp_path / "stacks.txt"
        main([fig1_file, "--max-states", "2000", "--trace", trace])
        capsys.readouterr()
        assert main(["flamegraph", trace, "--out", str(out_path)]) == 0
        lines = out_path.read_text().splitlines()
        assert lines
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert stack
            assert value.isdigit()
        assert any(line.startswith("rpcheck;") for line in lines)

    def test_bad_trace_path_fails_cleanly(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
        assert main(["flamegraph", str(tmp_path / "missing.jsonl")]) == 2


class TestLedgerCompaction:
    """``rpcheck history --compact N`` retention (:meth:`Ledger.compact`)."""

    def test_compact_keeps_newest_n_per_scheme(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        a, b = spawner_loop(), mutex_pair()
        ids = {"a": [], "b": []}
        for _ in range(5):
            ids["a"].append(ledger.append(_entry(a))["run_id"])
            ids["b"].append(ledger.append(_entry(b))["run_id"])
        kept, dropped = ledger.compact(2)
        assert (kept, dropped) == (4, 6)
        assert [e["run_id"] for e in ledger.entries()] == [
            ids["a"][-2], ids["b"][-2], ids["a"][-1], ids["b"][-1]
        ]  # newest two per scheme, chronological order preserved

    def test_compact_groups_schemeless_entries_by_kind(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        for _ in range(3):
            ledger.append(make_entry(kind="bench"))
        ledger.append(_entry(spawner_loop()))
        kept, dropped = ledger.compact(1)
        assert (kept, dropped) == (2, 2)
        assert [entry["kind"] for entry in ledger.entries()] == [
            "bench",
            "analysis",
        ]

    def test_compact_noop_and_validation(self, tmp_path):
        ledger = Ledger(str(tmp_path / "ledger.jsonl"))
        assert ledger.compact(3) == (0, 0)
        ledger.append(_entry(spawner_loop()))
        assert ledger.compact(5) == (1, 0)  # nothing dropped, file untouched
        assert len(ledger.entries()) == 1
        with pytest.raises(ValueError):
            ledger.compact(0)

    def test_compact_lock_is_per_path_not_per_instance(self, tmp_path):
        # the closed race: compact() through one instance vs append()
        # (LedgerSink.finish) through another on the same file — both
        # must serialise on one shared lock
        path = str(tmp_path / "ledger.jsonl")
        writer, compactor = Ledger(path), Ledger(path)
        assert writer._lock is compactor._lock
        other = Ledger(str(tmp_path / "other.jsonl"))
        assert other._lock is not writer._lock

    def test_compact_never_drops_concurrent_finish(self, tmp_path):
        """Deterministic interleave: while compact() sits between its
        read and its ``os.replace``, a concurrent ``LedgerSink.finish``
        through a *different* instance must block, not vanish."""
        import time as time_module

        path = str(tmp_path / "ledger.jsonl")
        compactor = Ledger(path)
        for _ in range(6):
            compactor.append(_entry(spawner_loop()))
        in_window = threading.Event()
        real_entries = Ledger.entries

        def stalled_entries():
            result = real_entries(compactor)
            in_window.set()
            time_module.sleep(0.5)  # hold the read->replace window open
            return result

        compactor.entries = stalled_entries
        result = {}

        def compact():
            result["compacted"] = compactor.compact(2)

        thread = threading.Thread(target=compact)
        thread.start()
        assert in_window.wait(timeout=10)
        # the "active run" racing the retention pass
        sink = LedgerSink(Ledger(path), kind="analysis")
        sink.emit({"type": "span", "id": 1, "name": "x", "start": 0.0, "wall": 0.1})
        appended = sink.finish(scheme=mutex_pair(), outcome="ok")
        thread.join(timeout=30)
        assert result["compacted"] == (2, 4)
        survivors = [e["run_id"] for e in Ledger(path).entries()]
        assert appended["run_id"] in survivors, (
            "compact() dropped the run appended while it held the lock"
        )
        assert len(survivors) == 3  # 2 kept by retention + the active run

    def test_history_compact_cli(self, tmp_path, capsys):
        path = str(tmp_path / "ledger.jsonl")
        ledger = Ledger(path)
        for _ in range(4):
            ledger.append(_entry(spawner_loop()))
        assert main(["history", "--ledger", path, "--compact", "2"]) == 0
        out = capsys.readouterr().out
        assert "kept 2" in out and "dropped 2" in out
        assert len(ledger.entries()) == 2
        assert main(["history", "--ledger", path, "--compact", "0"]) == 2


def _load_watchdog():
    path = REPO_ROOT / "benchmarks" / "watch_regressions.py"
    spec = importlib.util.spec_from_file_location("watch_regressions", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_payload(seconds, *, within_budget=True):
    return {
        "schema": "repro-bench/1",
        "meta": {"benchmark": "synthetic", "python": "3", "platform": "test"},
        "metrics": {
            "bench.seconds": {
                "type": "histogram",
                "count": len(seconds),
                "sum": sum(seconds.values()),
                "min": min(seconds.values()),
                "max": max(seconds.values()),
                "mean": sum(seconds.values()) / len(seconds),
                "labels": {
                    "{cell=%s}" % cell: {
                        "count": 1,
                        "sum": value,
                        "min": value,
                        "max": value,
                        "mean": value,
                    }
                    for cell, value in seconds.items()
                },
            }
        },
        "spans": [],
        "results": {"acceptance": {"within_budget": within_budget}},
    }


class TestWatchRegressions:
    def test_committed_baselines_audit_clean(self, capsys):
        watchdog = _load_watchdog()
        assert watchdog.main([]) == 0
        assert "clean" in capsys.readouterr().out

    def test_doctored_result_fails(self, tmp_path, capsys):
        watchdog = _load_watchdog()
        base = tmp_path / "BENCH_synthetic.json"
        base.write_text(json.dumps(_bench_payload({"fast": 0.020})))
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        (fresh_dir / base.name).write_text(
            json.dumps(_bench_payload({"fast": 0.040}))
        )
        code = watchdog.main([str(base), "--fresh", str(fresh_dir)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_identical_result_passes(self, tmp_path, capsys):
        watchdog = _load_watchdog()
        base = tmp_path / "BENCH_synthetic.json"
        base.write_text(json.dumps(_bench_payload({"fast": 0.020})))
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        (fresh_dir / base.name).write_text(base.read_text())
        assert watchdog.main([str(base), "--fresh", str(fresh_dir)]) == 0

    def test_tolerance_band_absorbs_noise(self, tmp_path):
        watchdog = _load_watchdog()
        base = tmp_path / "BENCH_synthetic.json"
        base.write_text(json.dumps(_bench_payload({"fast": 0.100})))
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        # +12% on a 100ms cell: above the floor but inside the 25% band
        (fresh_dir / base.name).write_text(
            json.dumps(_bench_payload({"fast": 0.112}))
        )
        assert watchdog.main([str(base), "--fresh", str(fresh_dir)]) == 0

    def test_acceptance_flip_is_a_regression(self, tmp_path, capsys):
        watchdog = _load_watchdog()
        base = tmp_path / "BENCH_synthetic.json"
        base.write_text(json.dumps(_bench_payload({"fast": 0.020})))
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        (fresh_dir / base.name).write_text(
            json.dumps(_bench_payload({"fast": 0.020}, within_budget=False))
        )
        code = watchdog.main([str(base), "--fresh", str(fresh_dir)])
        assert code == 1
        assert "within_budget" in capsys.readouterr().out

    def test_baseline_committed_failing_is_caught(self, tmp_path, capsys):
        watchdog = _load_watchdog()
        base = tmp_path / "BENCH_synthetic.json"
        base.write_text(
            json.dumps(_bench_payload({"fast": 0.020}, within_budget=False))
        )
        assert watchdog.main([str(base)]) == 1

    def test_fresh_artefact_without_baseline_is_a_notice(self, tmp_path, capsys):
        # a brand-new benchmark landing for the first time: its fresh
        # artefact has no committed counterpart, which must be a PASS
        # with notice (audited, not compared), never a failure
        watchdog = _load_watchdog()
        base = tmp_path / "BENCH_old.json"
        base.write_text(json.dumps(_bench_payload({"fast": 0.020})))
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        (fresh_dir / base.name).write_text(base.read_text())
        (fresh_dir / "BENCH_brand_new.json").write_text(
            json.dumps(_bench_payload({"cell": 0.010}))
        )
        assert watchdog.main([str(base), "--fresh", str(fresh_dir)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_brand_new.json: new baseline" in out
        assert "PASS with notice" in out

    def test_fresh_new_baseline_is_still_audited(self, tmp_path, capsys):
        # new-baseline leniency is not an audit bypass: a first-time
        # artefact that fails its own acceptance stays a regression
        watchdog = _load_watchdog()
        base = tmp_path / "BENCH_old.json"
        base.write_text(json.dumps(_bench_payload({"fast": 0.020})))
        fresh_dir = tmp_path / "fresh"
        fresh_dir.mkdir()
        (fresh_dir / base.name).write_text(base.read_text())
        (fresh_dir / "BENCH_brand_new.json").write_text(
            json.dumps(_bench_payload({"cell": 0.010}, within_budget=False))
        )
        assert watchdog.main([str(base), "--fresh", str(fresh_dir)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
