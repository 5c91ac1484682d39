"""CI smoke check for the ``repro.serve`` daemon (PR 6).

Boots a daemon on a unix socket and its HTTP front, fires **32
concurrent queries** (one client thread each) across the zoo families
and four procedures, and holds the serving layer to its contract:

* **zero verdict drift** — every served
  :meth:`~repro.api.AnalysisResponse.comparable` view must equal the
  answer from a sequential in-process :func:`repro.api.execute` run;
* **one query path** — the same 32 queries, sent one at a time to
  ``POST /v1/analyze``, must each answer 200 with no drift either;
* **clean shutdown** — the ``shutdown`` op must stop the daemon and
  remove the socket, with every query answered first;
* **trace artefact** — streamed tracer events from the served queries
  are written to ``serve_smoke_trace.jsonl`` (one JSON record per
  line) for upload by CI.

Run from the repository root::

    PYTHONPATH=src python benchmarks/serve_smoke.py

Exits non-zero on any drift, transport failure, or unclean shutdown.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import threading
import urllib.error
import urllib.request
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.api import AnalysisRequest, AnalysisResponse, execute
from repro.serve import ServeClient, daemon_in_thread
from repro.zoo import ZOO_WQO_BENCH

MAX_STATES = 4_000
QUERIES = 32
PROCEDURES = ("boundedness", "halts", "node_reachable", "normed")


def _matrix(schemes) -> List[Tuple[str, str, Dict[str, Any]]]:
    """Family × procedure query matrix, cycled up to ``QUERIES`` entries."""
    base = []
    for family, scheme in schemes.items():
        node = sorted(scheme.node_ids)[0]
        for procedure in PROCEDURES:
            params: Dict[str, Any] = {"max_states": MAX_STATES}
            if procedure == "node_reachable":
                params["node"] = node
            base.append((family, procedure, params))
    return [base[i % len(base)] for i in range(QUERIES)]


def _post(url: str, payload: Dict[str, Any]) -> Tuple[int, Dict[str, Any]]:
    """POST *payload* as JSON: ``(status, decoded body)``, body ``{}`` on
    an error status."""
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=600) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as error:
        return error.code, {}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--trace",
        default="serve_smoke_trace.jsonl",
        help="path for the streamed-event artefact",
    )
    args = parser.parse_args(argv)

    schemes = {name: factory() for name, factory in ZOO_WQO_BENCH}
    queries = _matrix(schemes)

    # the oracle: the same queries, sequentially, in this process
    expected: Dict[int, Dict[str, Any]] = {}
    for index, (family, procedure, params) in enumerate(queries):
        from repro.obs import scheme_fingerprint

        response = execute(
            AnalysisRequest(
                procedure=procedure,
                fingerprint=scheme_fingerprint(schemes[family]),
                params=params,
            ),
            scheme=schemes[family],
        )
        expected[index] = response.comparable()

    tmp = f"/tmp/rps-{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp, exist_ok=True)
    socket_path = os.path.join(tmp, "s.sock")

    served: Dict[int, Dict[str, Any]] = {}
    served_http: Dict[int, Dict[str, Any]] = {}
    events: List[Dict[str, Any]] = []
    events_lock = threading.Lock()
    failures: List[str] = []

    with daemon_in_thread(socket_path, concurrency=4, http_port=0) as daemon:
        fingerprints = {
            family: daemon.pool.adopt(scheme).fingerprint
            for family, scheme in schemes.items()
        }

        def one(index: int) -> None:
            family, procedure, params = queries[index]

            def on_event(record: Dict[str, Any]) -> None:
                with events_lock:
                    events.append(record)

            try:
                with ServeClient(socket_path) as client:
                    response = client.query(
                        procedure,
                        fingerprint=fingerprints[family],
                        stream=True,
                        on_event=on_event,
                        request_id=f"smoke-{index}",
                        **params,
                    )
                served[index] = response.comparable()
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(f"query {index}: {error!r}")

        threads = [
            threading.Thread(target=one, args=(i,)) for i in range(QUERIES)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        analyze_url = f"http://127.0.0.1:{daemon.bound_http_port}/v1/analyze"
        for index, (family, procedure, params) in enumerate(queries):
            request = AnalysisRequest(
                procedure=procedure,
                fingerprint=fingerprints[family],
                params=params,
                request_id=f"smoke-http-{index}",
            )
            try:
                status, body = _post(analyze_url, request.to_json_dict())
            except Exception as error:  # noqa: BLE001 - reported below
                failures.append(f"http query {index}: {error!r}")
                continue
            if status != 200:
                failures.append(f"http query {index}: status {status}")
                continue
            served_http[index] = AnalysisResponse.from_json_dict(body).comparable()

        pool_stats = daemon.pool.snapshot()
        with ServeClient(socket_path) as client:
            client.shutdown()

    shutdown_clean = not os.path.exists(socket_path)

    drift = {
        (transport, index): {"served": answers.get(index), "expected": expected[index]}
        for transport, answers in (("unix", served), ("http", served_http))
        for index in expected
        if answers.get(index) != expected[index]
    }

    trace_path = pathlib.Path(args.trace)
    with trace_path.open("w", encoding="utf-8") as handle:
        for record in events:
            handle.write(json.dumps(record, default=repr) + "\n")

    print(f"queries    : {len(served)}/{QUERIES} answered (unix), "
          f"{len(served_http)}/{QUERIES} (http)")
    print(f"events     : {len(events)} streamed -> {trace_path}")
    print(f"pool       : {pool_stats['hits']} hits, "
          f"{pool_stats['misses']} misses, "
          f"{len(pool_stats['entries'])} sessions")
    print(f"drift      : {len(drift)} queries")
    print(f"shutdown   : {'clean' if shutdown_clean else 'SOCKET LEFT BEHIND'}")
    for failure in failures:
        print(f"FAILURE    : {failure}")
    if drift:
        for transport, index in sorted(drift):
            print(f"DRIFT      : {transport} {queries[index]}: "
                  f"{drift[transport, index]}")
    ok = (
        not drift
        and not failures
        and shutdown_clean
        and len(served) == QUERIES
        and len(served_http) == QUERIES
        and events
    )
    print(f"smoke      : {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
