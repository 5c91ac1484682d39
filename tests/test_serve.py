"""Integration tests for the ``repro.serve`` daemon (PR 6 tentpole).

A real daemon on a real unix socket (background thread, tmp-dir socket
kept short for the sockaddr_un limit), exercised the way the ISSUE's
differential gate demands: concurrent mixed-procedure queries must come
back *identical* to in-process :func:`repro.api.execute` answers —
including partial/exhaustion structure — plus the concurrency contracts
(per-request tracers, disconnect cancellation) and the ledger side-channel (one ``kind="serve"`` entry
per query).
"""

import json
import os
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
import uuid

import pytest

import repro.lang
from repro.api import AnalysisRequest, AnalysisResponse, BudgetSpec, execute
from repro.obs import FlightRecorder, Ledger, Span, scheme_fingerprint
from repro.serve import ServeClient, SessionPool, daemon_in_thread
from repro.serve.daemon import MAX_LINE_BYTES
from repro.zoo import (
    FIG1_PROGRAM,
    deep_pipeline,
    mixed_grove,
    wide_mix,
)

from .test_api import MALFORMED_BUDGETS, MALFORMED_FIELDS

# (family name, scheme factory) — the zoo mix the bench also uses
FAMILIES = {
    "pipeline3": deep_pipeline(3),
    "widemix4": wide_mix(4),
    "grove2x3": mixed_grove(2, 3),
}


def _short_tmp() -> str:
    # sockaddr_un paths are ~107 bytes; pytest tmp_path nests too deep
    path = f"/tmp/rps-{uuid.uuid4().hex[:8]}"
    os.makedirs(path, exist_ok=True)
    return path


@pytest.fixture()
def served():
    """A running daemon preloaded with the zoo families; yields
    ``(daemon, socket_path, ledger)``."""
    tmp = _short_tmp()
    sock = os.path.join(tmp, "s.sock")
    ledger_path = os.path.join(tmp, "ledger.jsonl")
    with daemon_in_thread(
        sock, ledger_path=ledger_path, flight_dir=tmp, concurrency=4
    ) as daemon:
        for scheme in FAMILIES.values():
            daemon.pool.adopt(scheme)
        yield daemon, sock, Ledger(ledger_path)


def _http(url, payload=None):
    """``(status, decoded JSON body)`` of a GET, or of a POST of *payload*."""
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    try:
        with urllib.request.urlopen(
            urllib.request.Request(url, data=data), timeout=60
        ) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture(params=["unix", "http"])
def wire(request):
    """``(ask, ping)`` against a fresh daemon, over one of its transports.

    ``ask`` sends a request object and returns the typed response: on one
    unix-socket connection, where the reply must be a response line, or
    through ``POST /v1/analyze``, where the status must be 200.  ``ping``
    reads the daemon's counters over the same transport."""
    sock = os.path.join(_short_tmp(), "s.sock")
    with daemon_in_thread(sock, http_port=0) as daemon:
        if request.param == "unix":
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(60)
                raw.connect(sock)
                reader = raw.makefile("rb")

                def exchange(payload):
                    raw.sendall((json.dumps(payload) + "\n").encode())
                    return json.loads(reader.readline())

                def ask(payload):
                    reply = exchange(payload)
                    assert reply["type"] == "response"
                    return AnalysisResponse.from_json_dict(reply["response"])

                def ping():
                    pong = exchange({"op": "ping"})
                    assert pong["type"] == "pong"
                    return pong

                yield ask, ping
        else:
            base = f"http://127.0.0.1:{daemon.bound_http_port}/v1"

            def ask(payload):
                status, body = _http(f"{base}/analyze", payload)
                assert status == 200
                return AnalysisResponse.from_json_dict(body)

            def ping():
                status, body = _http(f"{base}/ping")
                assert status == 200
                return body

            yield ask, ping


def _query_matrix():
    """(procedure, params) per family — ≥4 procedures, mixed shapes."""
    matrix = []
    for name, scheme in FAMILIES.items():
        fingerprint = scheme_fingerprint(scheme)
        node = sorted(scheme.node_ids)[0]
        matrix.extend(
            [
                (fingerprint, scheme, "boundedness", {}),
                (fingerprint, scheme, "halts", {}),
                (fingerprint, scheme, "node_reachable", {"node": node}),
                (fingerprint, scheme, "normed", {}),
            ]
        )
    return matrix


class TestProtocolBasics:
    def test_ping_and_pool(self, served):
        daemon, sock, _ = served
        with ServeClient(sock) as client:
            pong = client.ping()
            assert pong["pid"] == os.getpid()
            assert pong["schemes"] == len(FAMILIES)
            stats = client.pool_stats()
            assert {e["scheme"] for e in stats["entries"]} == {
                s.name for s in FAMILIES.values()
            }

    def test_source_query_compiles_and_pools(self, served):
        daemon, sock, _ = served
        with ServeClient(sock) as client:
            first = client.query("boundedness", source=FIG1_PROGRAM)
            assert first.verdict == "no"
            before = daemon.pool.misses
            second = client.query("halts", source=FIG1_PROGRAM)
            assert second.verdict in ("yes", "no")
        # the second query hit the pooled compilation of the same source
        assert daemon.pool.misses == before
        assert daemon.pool.hits >= 1

    def test_malformed_line_answers_error(self, served):
        _, sock, _ = served
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.connect(sock)
            raw.sendall(b"this is not json\n")
            reply = json.loads(raw.makefile("rb").readline())
        assert reply["type"] == "error"

    def test_unknown_fingerprint_is_error_response(self, wire):
        ask, ping = wire
        response = ask(
            AnalysisRequest(
                procedure="halts", fingerprint="sha256:feedfacefeedface"
            ).to_json_dict()
        )
        pong = ping()
        assert response.verdict == "error"
        assert response.error["type"] == "ApiError"
        assert (pong["served"], pong["errors"]) == (1, 1)


class TestPoolSourceLookup:
    """The text that created a pooled entry resolves to it without being
    compiled again; every other text compiles, then hits by fingerprint."""

    PROGRAM = "program main { pcall p; wait; end; } procedure p { a; end; }"

    @pytest.fixture()
    def compiled(self, monkeypatch):
        """Every source text the pool compiles, in order."""
        texts = []
        original = repro.lang.compile_source

        def counting(source):
            texts.append(source)
            return original(source)

        monkeypatch.setattr(repro.lang, "compile_source", counting)
        return texts

    def test_repeated_text_compiles_once(self, compiled):
        expected = execute(
            AnalysisRequest(procedure="halts", source=self.PROGRAM)
        ).comparable()
        compiled.clear()
        sock = os.path.join(_short_tmp(), "s.sock")
        with daemon_in_thread(sock) as daemon:
            with ServeClient(sock) as client:
                answers = [
                    client.query("halts", source=self.PROGRAM).comparable()
                    for _ in range(50)
                ]
            assert compiled == [self.PROGRAM]
            assert (daemon.pool.misses, daemon.pool.hits) == (1, 49)
        assert answers == [expected] * 50

    def test_another_text_of_the_program_compiles_and_hits(self, compiled):
        pool = SessionPool()
        entry = pool.get_or_compile(self.PROGRAM)
        reformatted = "/* the same program */\n" + self.PROGRAM.replace(";", " ;\n")
        for _ in range(3):
            assert pool.get_or_compile(reformatted) is entry
        assert compiled == [self.PROGRAM] + [reformatted] * 3
        assert pool.get_or_compile(self.PROGRAM) is entry
        assert len(compiled) == 4
        assert (pool.misses, pool.hits, len(pool)) == (1, 4, 1)
        assert entry.source == self.PROGRAM

    def test_eviction_forgets_the_text(self, compiled):
        pool = SessionPool(max_entries=2)
        a, b, c = (f"program main {{ act{i}; end; }}" for i in range(3))
        for text in (a, b, c, a):
            pool.get_or_compile(text)
            assert len(pool._by_source) <= len(pool)
        # A was evicted by C, so it compiles again and counts as a miss
        assert compiled == [a, b, c, a]
        assert (pool.misses, pool.hits, pool.evictions) == (4, 0, 2)
        assert {entry.source for entry in pool.entries()} == {c, a}
        assert set(pool._by_source) == {c, a}

    def test_a_failing_text_is_compiled_every_time(self, compiled):
        broken = "program main { pcall ; }"
        sock = os.path.join(_short_tmp(), "s.sock")
        with daemon_in_thread(sock) as daemon:
            with ServeClient(sock) as client:
                answers = [
                    client.query("halts", source=broken) for _ in range(3)
                ]
            pool = daemon.pool
            assert (pool.misses, pool.hits, len(pool)) == (0, 0, 0)
        assert compiled == [broken] * 3
        assert [(a.verdict, a.error) for a in answers] == [
            ("error", {"type": "ParseError", "message": answers[0].error["message"]})
        ] * 3

    def test_racing_first_submissions_share_one_entry(self):
        pool = SessionPool()
        text = f"program main {{ act_{uuid.uuid4().hex}; end; }}"
        count = 4 * (os.cpu_count() or 1)
        barrier = threading.Barrier(count)
        entries, errors = [], []

        def submit():
            try:
                barrier.wait(timeout=30)
                entries.append(pool.get_or_compile(text))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [threading.Thread(target=submit) for _ in range(count)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(entries) == count
        assert all(entry is entries[0] for entry in entries)
        assert (pool.misses, pool.hits) == (1, count - 1)
        assert list(pool._by_source.values()) == [entries[0]]


class TestOversizedInput:
    """Programs too deep to compile and lines longer than asyncio's default
    limit are answered, not dropped with the connection."""

    DEEP_PARENS = (
        "global x;\nprogram main { x := " + "(" * 150 + "1" + ")" * 150 + "; end; }"
    )
    DEEP_BLOCKS = (
        "global x;\nprogram main {\n"
        + "if x > 0 then {\n" * 400
        + "x := 1;\n"
        + "}\n" * 400
        + "end;\n}\n"
    )
    LONG_CHAIN = (
        "global x := 0;\nprogram main { x := " + " + ".join(["1"] * 1000) + "; end; }"
    )

    @pytest.mark.parametrize(
        "source",
        [DEEP_PARENS, DEEP_BLOCKS, LONG_CHAIN],
        ids=["parens", "blocks", "chain"],
    )
    def test_too_deep_program_is_a_parse_error_response(self, source):
        local = execute(AnalysisRequest(procedure="halts", source=source))
        assert local.verdict == "error"
        assert local.error["type"] == "ParseError"
        sock = os.path.join(_short_tmp(), "s.sock")
        with daemon_in_thread(sock) as daemon:
            with ServeClient(sock, max_retries=0) as client:
                remote = client.query("halts", source=source)
                after = client.query("halts", source=FIG1_PROGRAM)
                pong = client.ping()
        assert remote.comparable() == local.comparable()
        assert after.verdict == "no"
        assert (pong["served"], pong["errors"]) == (2, 1)

    def test_request_line_longer_than_64_kib_is_served(self):
        padded = FIG1_PROGRAM + ("// " + "-" * 38 + "\n") * 2000
        request = AnalysisRequest(procedure="halts", source=padded)
        assert len(json.dumps(request.to_json_dict())) > 64 * 1024
        local = execute(request)
        sock = os.path.join(_short_tmp(), "s.sock")
        with daemon_in_thread(sock):
            with ServeClient(sock, max_retries=0) as client:
                remote = client.request(request)
        assert remote.verdict == "no"
        assert remote.comparable() == local.comparable()

    def test_over_limit_line_gets_an_error_reply(self):
        sock = os.path.join(_short_tmp(), "s.sock")
        with daemon_in_thread(sock):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
                raw.settimeout(60)
                raw.connect(sock)
                # one byte past the limit: the daemon refuses the line only
                # once it has read all of it, so nothing is left unread
                raw.sendall(b"x" * (MAX_LINE_BYTES + 1))
                reader = raw.makefile("rb")
                reply = json.loads(reader.readline())
                assert reader.readline() == b""  # then the connection closes
            assert reply["type"] == "error"
            assert str(MAX_LINE_BYTES) in reply["message"]
            with ServeClient(sock, max_retries=0) as client:
                assert client.query("halts", source=FIG1_PROGRAM).verdict == "no"

    def test_over_limit_http_body_is_refused_unread(self):
        sock = os.path.join(_short_tmp(), "s.sock")
        with daemon_in_thread(sock, http_port=0) as daemon:
            port = daemon.bound_http_port
            with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
                # headers only: the reply must not wait for the body
                raw.sendall(
                    (
                        f"POST /v1/analyze HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        f"Content-Length: {MAX_LINE_BYTES + 1}\r\n\r\n"
                    ).encode("ascii")
                )
                reply = raw.makefile("rb").read()
            status, pong = _http(f"http://127.0.0.1:{port}/v1/ping")
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 Payload Too Large\r\n")
        assert str(MAX_LINE_BYTES) in json.loads(body)["error"]
        assert status == 200 and pong["served"] == 0


class TestUnexpectedFailure:
    """A query that raises past ``execute``'s own error handling is
    answered with a counted error response, on either transport, and the
    unix connection stays open."""

    def test_exception_is_an_error_response_and_counted(
        self, wire, monkeypatch, capsys
    ):
        def broken(*args):
            raise RuntimeError("injected failure")

        monkeypatch.setitem(repro.api.PROCEDURES, "halts", broken)
        ask, ping = wire
        failed = ask(
            AnalysisRequest(procedure="halts", source=FIG1_PROGRAM).to_json_dict()
        )
        after = ask(
            AnalysisRequest(
                procedure="may_terminate", source=FIG1_PROGRAM
            ).to_json_dict()
        )
        pong = ping()
        assert failed.verdict == "error"
        assert failed.error["type"] == "RuntimeError"
        assert failed.error["message"] == "injected failure"
        assert after.verdict == "yes"
        assert (pong["served"], pong["errors"]) == (2, 1)
        assert "RuntimeError: injected failure" in capsys.readouterr().err

    def test_unparseable_request_is_an_error_response(
        self, wire, monkeypatch, capsys
    ):
        # malformed fields are ApiErrors (TestMalformedBudget); a parse
        # failure of any other type is still answered, counted and logged
        def broken(cls, payload):
            raise TypeError("injected parse failure")

        monkeypatch.setattr(AnalysisRequest, "from_json_dict", classmethod(broken))
        ask, ping = wire
        reply = ask({"schema": "rpcheck-request/1", "procedure": "halts"})
        pong = ping()
        assert reply.verdict == "error"
        assert reply.error["type"] == "TypeError"
        assert pong["errors"] == 1
        assert "TypeError: injected parse failure" in capsys.readouterr().err


class TestMalformedBudget:
    def test_answered_as_api_errors_on_either_transport(self, wire):
        ask, ping = wire
        for spec in MALFORMED_BUDGETS:
            payload = AnalysisRequest(
                procedure="halts", source=FIG1_PROGRAM
            ).to_json_dict()
            payload["budget"] = spec
            response = ask(payload)
            assert response.verdict == "error", spec
            assert response.error["type"] == "ApiError", spec
        pong = ping()
        # refused before admission: counted as errors, never as served
        assert (pong["served"], pong["errors"]) == (0, len(MALFORMED_BUDGETS))

    def test_malformed_fields_answered_as_api_errors(self, wire, capfd):
        ask, ping = wire
        for field in MALFORMED_FIELDS:
            payload = AnalysisRequest(
                procedure="halts", source=FIG1_PROGRAM
            ).to_json_dict()
            payload.update(field)
            response = ask(payload)
            assert response.verdict == "error", field
            assert response.error["type"] == "ApiError", field
        pong = ping()
        assert (pong["served"], pong["errors"]) == (0, len(MALFORMED_FIELDS))
        # an anticipated refusal logs no traceback
        assert capfd.readouterr().err == ""


class TestDifferentialGate:
    def test_concurrent_served_verdicts_match_in_process(self, served):
        """Every (procedure × zoo family), fired concurrently at the
        daemon, must equal the in-process answer — the acceptance gate."""
        daemon, sock, _ = served
        matrix = _query_matrix()
        expected = {}
        for fingerprint, scheme, procedure, params in matrix:
            key = (fingerprint, procedure, tuple(sorted(params.items())))
            expected[key] = execute(
                AnalysisRequest(
                    procedure=procedure,
                    fingerprint=fingerprint,
                    params=params,
                ),
                scheme=scheme,
            ).comparable()

        results, errors = {}, []

        def worker(fingerprint, procedure, params):
            try:
                with ServeClient(sock) as client:
                    response = client.query(
                        procedure, fingerprint=fingerprint, **params
                    )
                key = (fingerprint, procedure, tuple(sorted(params.items())))
                results[key] = response.comparable()
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(fp, proc, params))
            for fp, _, proc, params in matrix
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert results == expected

    def test_partial_exhaustion_structure_matches(self, served):
        """Budget exhaustion comes back as the same structured partial the
        in-process call produces (fresh schemes on both sides so neither
        answers from a warm graph)."""
        daemon, sock, _ = served
        scheme = mixed_grove(3, 2)
        fingerprint = daemon.pool.adopt(scheme).fingerprint
        local = execute(
            AnalysisRequest(
                procedure="boundedness",
                fingerprint=fingerprint,
                budget=BudgetSpec(deadline=0.0),
            ),
            scheme=mixed_grove(3, 2),  # a fresh twin, cold like the pool's
        )
        with ServeClient(sock) as client:
            remote = client.query(
                "boundedness",
                fingerprint=fingerprint,
                budget=BudgetSpec(deadline=0.0),
            )
        assert remote.verdict == "unknown"
        assert remote.partial["resource"] == "deadline"
        assert remote.comparable() == local.comparable()


class TestStreaming:
    def test_events_stream_before_response(self, served):
        daemon, sock, _ = served
        fingerprint = scheme_fingerprint(FAMILIES["pipeline3"])
        events = []
        with ServeClient(sock) as client:
            response = client.query(
                "boundedness",
                fingerprint=fingerprint,
                stream=True,
                on_event=events.append,
            )
        assert response.verdict in ("yes", "no")
        assert events, "expected tracer records to stream ahead of the response"
        assert any(r.get("name") == "boundedness" for r in events)

    def test_no_stream_means_no_event_lines(self, served):
        _, sock, _ = served
        fingerprint = scheme_fingerprint(FAMILIES["widemix4"])
        events = []
        with ServeClient(sock) as client:
            client.query(
                "halts", fingerprint=fingerprint, on_event=events.append
            )
        assert events == []


class TestLedger:
    def test_one_serve_entry_per_query(self, served):
        daemon, sock, ledger = served
        fingerprint = scheme_fingerprint(FAMILIES["pipeline3"])
        queries = [
            ("boundedness", {}),
            ("halts", {}),
            ("normed", {}),
        ]
        with ServeClient(sock) as client:
            for procedure, params in queries:
                client.query(
                    procedure,
                    fingerprint=fingerprint,
                    request_id=f"rq-{procedure}",
                    **params,
                )
        entries = ledger.entries()
        assert len(entries) == len(queries)
        assert {e["kind"] for e in entries} == {"serve"}
        assert [e["extra"]["request_id"] for e in entries] == [
            "rq-boundedness", "rq-halts", "rq-normed",
        ]
        assert {e["scheme"]["fingerprint"] for e in entries} == {fingerprint}


class TestCancellation:
    def test_client_disconnect_cancels_via_token(self, served):
        """Hanging up mid-query trips the request's CancelToken: the
        analysis unwinds cooperatively instead of running to completion."""
        daemon, sock, ledger = served
        scheme = mixed_grove(3, 3)  # big enough to still be running
        fingerprint = daemon.pool.adopt(scheme).fingerprint
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(sock)
        request = AnalysisRequest(
            procedure="boundedness",
            fingerprint=fingerprint,
            params={"max_states": 2_000_000},
            request_id="rq-hangup",
        )
        raw.sendall(json.dumps(request.to_json_dict()).encode() + b"\n")
        time.sleep(0.3)  # let the worker start exploring
        raw.close()  # hang up mid-query
        deadline = time.time() + 30
        while time.time() < deadline:
            entries = [
                e
                for e in ledger.entries()
                if e["extra"].get("request_id") == "rq-hangup"
            ]
            if entries:
                break
            time.sleep(0.1)
        assert entries, "cancelled query never reached the ledger"
        entry = entries[0]
        assert entry["outcome"] == "partial"
        assert entry["procedures"]["boundedness"]["verdict"] == "partial"
        assert entry["procedures"]["boundedness"]["resource"] == "cancelled"

    def test_disconnect_during_sharded_query_reaps_worker_pool(self, served):
        """Hanging up on a ``workers=2`` query cancels it *and* reaps the
        pooled session's exploration worker pool: no orphan processes."""
        daemon, sock, ledger = served
        scheme = mixed_grove(3, 3)  # big enough to still be running
        pooled = daemon.pool.adopt(scheme)
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(sock)
        request = AnalysisRequest(
            procedure="boundedness",
            fingerprint=pooled.fingerprint,
            params={"max_states": 2_000_000},
            workers=2,
            request_id="rq-hangup-par",
        )
        raw.sendall(json.dumps(request.to_json_dict()).encode() + b"\n")
        deadline = time.time() + 30
        workers = []
        while time.time() < deadline and not workers:
            pool = pooled.session._pool  # materialises once sharding starts
            if pool is not None:
                workers = [handle.process for handle in pool.workers]
            else:
                time.sleep(0.05)
        assert len(workers) == 2, "sharded query never spun up its pool"
        # shutdown(2), not just close(): the forked exploration workers
        # inherited this (same-process) client fd, so a bare close would
        # never send the FIN a real remote client's hangup sends
        raw.shutdown(socket.SHUT_RDWR)
        raw.close()  # hang up mid-window
        deadline = time.time() + 30
        entries = []
        while time.time() < deadline and not entries:
            entries = [
                e
                for e in ledger.entries()
                if e["extra"].get("request_id") == "rq-hangup-par"
            ]
            time.sleep(0.1)
        assert entries, "cancelled sharded query never reached the ledger"
        entry = entries[0]
        assert entry["outcome"] == "partial"
        assert entry["procedures"]["boundedness"]["resource"] == "cancelled"
        assert pooled.session._pool is None, "cancel must reap the pool"
        deadline = time.time() + 30
        while time.time() < deadline and any(p.is_alive() for p in workers):
            time.sleep(0.05)
        for process in workers:
            assert not process.is_alive(), "orphaned exploration worker"


class TestRequestIsolation:
    def test_overlapping_faulting_requests_get_disjoint_bundles(self, served):
        """Two concurrently faulting requests must dump two separate
        flight bundles, each holding only its own request's records —
        the regression test for the process-ambient recorder fix."""
        daemon, sock, _ = served
        tmp = daemon.flight_dir
        scheme_a, scheme_b = mixed_grove(2, 4), mixed_grove(4, 2)
        fp_a = daemon.pool.adopt(scheme_a).fingerprint
        fp_b = daemon.pool.adopt(scheme_b).fingerprint
        barrier = threading.Barrier(2)
        failures = []
        request_ids = {}

        def fault(fingerprint, procedure):
            try:
                barrier.wait(timeout=10)
                with ServeClient(sock) as client:
                    response = client.query(
                        procedure,
                        fingerprint=fingerprint,
                        budget=BudgetSpec(deadline=0.05),
                    )
                assert response.verdict == "unknown", response.verdict
                request_ids[procedure] = response.request_id
            except Exception as error:  # noqa: BLE001
                failures.append(error)

        threads = [
            threading.Thread(target=fault, args=(fp_a, "boundedness")),
            threading.Thread(target=fault, args=(fp_b, "normed")),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        bundles = sorted(
            os.path.join(tmp, name)
            for name in os.listdir(tmp)
            if name.endswith(".json")
        )
        assert len(bundles) == 2
        reasons = set()
        traces = set()
        for path in bundles:
            with open(path, "r", encoding="utf-8") as handle:
                bundle = json.load(handle)
            reasons.add(bundle["reason"])
            spans = [r for r in bundle["records"] if r.get("type") == "span"]
            assert spans, "a faulting query's bundle holds its closed spans"
            # each bundle saw exactly one request's spans, not both
            (trace,) = {span["trace"] for span in spans}
            traces.add(trace)
            procedure = bundle["reason"].rsplit(" ", 1)[-1]
            assert bundle["context"] == {
                "request_id": request_ids[procedure],
                "procedure": procedure,
            }
        assert len(traces) == 2
        assert reasons == {
            "BudgetExhausted in boundedness",
            "BudgetExhausted in normed",
        }


class TestQueryTracer:
    """Each query's tracer is built from what the daemon knows: a flight
    recorder only with a flight dir, the stream only when asked for."""

    @staticmethod
    def _constructed(monkeypatch, cls):
        made = []
        init = cls.__init__

        def counted(self, *args, **kwargs):
            made.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
        return made

    def test_unrecorded_query_builds_no_span_and_no_recorder(self, monkeypatch):
        spans = self._constructed(monkeypatch, Span)
        recorders = self._constructed(monkeypatch, FlightRecorder)
        sock = os.path.join(_short_tmp(), "s.sock")
        with daemon_in_thread(sock) as daemon:
            fingerprint = daemon.pool.adopt(FAMILIES["pipeline3"]).fingerprint
            with ServeClient(sock) as client:
                for procedure in ("boundedness", "halts", "normed"):
                    assert client.query(procedure, fingerprint=fingerprint).ok
        assert spans == [] and recorders == []

    def test_faulting_query_dumps_one_bundle_of_its_own(self, monkeypatch):
        recorders = self._constructed(monkeypatch, FlightRecorder)
        tmp = _short_tmp()
        sock = os.path.join(tmp, "s.sock")
        scheme = mixed_grove(2, 4)
        with daemon_in_thread(sock, flight_dir=tmp) as daemon:
            fingerprint = daemon.pool.adopt(scheme).fingerprint
            with ServeClient(sock) as client:
                # an answered query on the same session first: none of
                # its records may reach the faulting query's bundle
                earlier = client.query(
                    "node_reachable",
                    fingerprint=fingerprint,
                    node=sorted(scheme.node_ids)[0],
                )
                faulted = client.query(
                    "boundedness",
                    fingerprint=fingerprint,
                    budget=BudgetSpec(deadline=0.05),
                )
        assert earlier.ok and faulted.verdict == "unknown"
        assert len(recorders) == 2  # one per query
        names = [name for name in os.listdir(tmp) if name.endswith(".json")]
        assert len(names) == 1
        with open(os.path.join(tmp, names[0]), "r", encoding="utf-8") as handle:
            bundle = json.load(handle)
        assert bundle["context"] == {
            "request_id": faulted.request_id,
            "procedure": "boundedness",
        }
        spans = [r for r in bundle["records"] if r["type"] == "span"]
        assert spans
        assert {span["trace"] for span in spans} == {
            faulted.traceparent.split("-")[1]
        }

    def test_streamed_query_carries_its_whole_span_tree(self):
        sock = os.path.join(_short_tmp(), "s.sock")
        with daemon_in_thread(sock) as daemon:
            fingerprint = daemon.pool.adopt(FAMILIES["pipeline3"]).fingerprint
            streams = []
            with ServeClient(sock) as client:
                for procedure in ("boundedness", "boundedness", "halts"):
                    events = []
                    response = client.query(
                        procedure,
                        fingerprint=fingerprint,
                        stream=True,
                        on_event=events.append,
                    )
                    assert response.ok
                    streams.append((response, events))
        for response, events in streams:
            spans = [r for r in events if r["type"] == "span"]
            ids = [span["id"] for span in spans]
            # every query's tracer is its own: ids restart at 1
            assert sorted(ids) == list(range(1, len(ids) + 1))
            (root,) = [span for span in spans if span["parent"] is None]
            assert root["name"] == "serve.query"
            assert root["attrs"]["request_id"] == response.request_id
            assert all(span["parent"] in ids for span in spans if span is not root)
            assert {span["trace"] for span in spans} == {
                response.traceparent.split("-")[1]
            }
            assert len(spans) > 1  # the procedure's phase below the root


class TestIntrospection:
    """The live-introspection surface: ``stats`` op, ``GET /v1/metrics``
    (Prometheus text), ``GET /v1/runs`` — scraped while queries stream."""

    PROM_SAMPLE = re.compile(
        r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+(Inf|NaN)?$"
    )

    def _http_get(self, port, path):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=30
        ) as response:
            return (
                response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"),
            )

    @pytest.fixture()
    def served_http(self):
        tmp = _short_tmp()
        sock = os.path.join(tmp, "s.sock")
        ledger_path = os.path.join(tmp, "ledger.jsonl")
        with daemon_in_thread(
            sock,
            ledger_path=ledger_path,
            flight_dir=tmp,
            concurrency=4,
            http_port=0,
        ) as daemon:
            for scheme in FAMILIES.values():
                daemon.pool.adopt(scheme)
            yield daemon, sock, daemon.bound_http_port

    def test_stats_op(self, served_http):
        daemon, sock, _ = served_http
        with ServeClient(sock) as client:
            client.query(
                "halts", fingerprint=scheme_fingerprint(FAMILIES["pipeline3"])
            )
            stats = client.stats()
        assert stats["served"] >= 1
        assert stats["schemes"] == len(FAMILIES)
        assert "explore.states_discovered" in stats["metrics"]

    def test_runs_endpoint_lists_serve_entries(self, served_http):
        daemon, sock, port = served_http
        with ServeClient(sock) as client:
            client.query(
                "halts", fingerprint=scheme_fingerprint(FAMILIES["widemix4"])
            )
        status, content_type, body = self._http_get(port, "/v1/runs?tail=5")
        assert status == 200
        assert content_type.startswith("application/json")
        payload = json.loads(body)
        assert payload["count"] >= 1
        assert payload["runs"][-1]["kind"] == "serve"

    def test_runs_endpoint_rejects_bad_tail(self, served_http):
        _, _, port = served_http
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._http_get(port, "/v1/runs?tail=bogus")
        assert excinfo.value.code == 400

    def test_metrics_scrape_while_queries_stream(self, served_http):
        """The acceptance gate: /v1/metrics answers valid Prometheus —
        including the per-worker ``parallel.*`` series — while sharded
        queries are actively streaming through the daemon."""
        daemon, sock, port = served_http
        fingerprint = scheme_fingerprint(FAMILIES["grove2x3"])
        stop = threading.Event()
        failures = []

        def stream_queries():
            try:
                while not stop.is_set():
                    with ServeClient(sock) as client:
                        client.query(
                            "boundedness",
                            fingerprint=fingerprint,
                            workers=2,
                            stream=True,
                            on_event=lambda record: None,
                        )
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(error)

        thread = threading.Thread(target=stream_queries)
        thread.start()
        try:
            deadline = time.time() + 60
            worker_series = []
            while time.time() < deadline:
                status, content_type, body = self._http_get(port, "/v1/metrics")
                assert status == 200
                assert content_type.startswith("text/plain")
                assert "version=0.0.4" in content_type
                for line in body.splitlines():
                    if not line or line.startswith("#"):
                        continue
                    assert self.PROM_SAMPLE.match(line), (
                        f"invalid exposition line: {line!r}"
                    )
                assert "serve_served_total" in body
                worker_series = [
                    line
                    for line in body.splitlines()
                    if line.startswith("parallel_") and 'worker="' in line
                ]
                if worker_series:
                    break
                time.sleep(0.2)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not failures
        assert worker_series, "no parallel.*{worker=i} series ever appeared"
        workers_seen = {
            match.group(1)
            for line in worker_series
            for match in [re.search(r'worker="([^"]+)"', line)]
            if match
        }
        assert len(workers_seen) >= 2

    def test_unknown_route_is_404(self, served_http):
        _, _, port = served_http
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._http_get(port, "/v1/nope")
        assert excinfo.value.code == 404


#: A tiny program; each ``tag`` renames its procedure, so every tag
#: compiles to a scheme with its own fingerprint (a fresh pooled session).
TAGGED_PROGRAM = """
global budget := 3;
program main {{
    pcall worker_{tag};
    pcall worker_{tag};
    while budget > 0 do {{ budget := budget - 1; }}
    wait;
    end;
}}
procedure worker_{tag} {{ budget := budget + 1; end; }}
"""


def _session_stores(daemon):
    """Exported counter name -> the pooled sessions' store total."""
    sessions = [entry.session for entry in daemon.pool.entries()]
    return {
        "explore.states_discovered": sum(len(s.graph) for s in sessions),
        "explore.states_expanded": sum(s.expanded_count for s in sessions),
        "semantics.cache_misses": sum(s.semantics.cache_misses for s in sessions),
        "semantics.interned_states": sum(
            s.semantics.interned_states for s in sessions
        ),
        "embedding.calls": sum(s.embedding_index.calls for s in sessions),
        "embedding.memo_hits": sum(s.embedding_index.memo_hits for s in sessions),
    }


class TestSessionMetricsExport:
    """The daemon's metrics carry the pooled sessions' work, with or
    without a ledger, and exporting is safe while queries run."""

    def test_stats_op_carries_session_work_without_ledger(self):
        tmp = _short_tmp()
        sock = os.path.join(tmp, "s.sock")
        scheme = FAMILIES["grove2x3"]
        fingerprint = scheme_fingerprint(scheme)
        with daemon_in_thread(sock, flight_dir=tmp) as daemon:
            daemon.pool.adopt(scheme)
            with ServeClient(sock) as client:
                for procedure in ("normed", "sup_reachability"):
                    response = client.query(procedure, fingerprint=fingerprint)
                    assert response.ok
                metrics = client.stats()["metrics"]
            stores = _session_stores(daemon)
        assert stores["embedding.calls"] > 0
        assert {name: metrics[name]["value"] for name in stores} == stores

    def test_concurrent_exports_while_queries_run(self):
        """Time-bounded stress: more threads than cores scrape the merged
        registry (each scrape exports every pooled session) while query
        threads run on the same sessions and export on the ledger path,
        under a shortened interpreter switch interval."""
        tmp = _short_tmp()
        sock = os.path.join(tmp, "s.sock")
        ledger_path = os.path.join(tmp, "ledger.jsonl")
        scrapers = (os.cpu_count() or 1) + 2
        errors = []
        responses = []
        stop = threading.Event()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with daemon_in_thread(
                sock, ledger_path=ledger_path, flight_dir=tmp, concurrency=4
            ) as daemon:

                def query_loop(worker):
                    try:
                        with ServeClient(sock) as client:
                            round_ = 0
                            while not stop.is_set():
                                source = TAGGED_PROGRAM.format(tag=f"w{worker}r{round_}")
                                for procedure in ("boundedness", "sup_reachability"):
                                    responses.append(
                                        client.query(procedure, source=source)
                                    )
                                round_ += 1
                    except Exception as error:  # noqa: BLE001 - reported below
                        errors.append(error)

                def scrape_loop():
                    try:
                        while not stop.is_set():
                            daemon.metrics_registry()
                    except Exception as error:  # noqa: BLE001 - reported below
                        errors.append(error)

                threads = [
                    threading.Thread(target=query_loop, args=(worker,))
                    for worker in range(2)
                ] + [threading.Thread(target=scrape_loop) for _ in range(scrapers)]
                for thread in threads:
                    thread.start()
                time.sleep(2.0)
                stop.set()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                metrics = daemon.metrics_registry().as_dict()
                stores = _session_stores(daemon)
        finally:
            sys.setswitchinterval(previous)
        assert not errors, errors
        assert responses
        for response in responses:
            assert response.ok, response.error
            assert not response.details.get("ledger_error"), response.details
        assert {name: metrics[name]["value"] for name in stores} == stores


class TestCleanShutdown:
    def test_shutdown_op_stops_daemon(self):
        tmp = _short_tmp()
        sock = os.path.join(tmp, "s.sock")
        with daemon_in_thread(sock) as daemon:
            with ServeClient(sock) as client:
                assert client.shutdown()["type"] == "shutdown"
            deadline = time.time() + 10
            while os.path.exists(sock) and time.time() < deadline:
                time.sleep(0.05)
            assert not os.path.exists(sock)
