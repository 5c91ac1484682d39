"""The ``rpcheck serve`` daemon: warm analysis sessions behind a socket.

Transports
----------

* **Unix socket** (primary): newline-delimited JSON.  Each request line
  is either an ``rpcheck-request/1`` object (one analysis query) or an
  operations object ``{"op": "ping" | "pool" | "shutdown"}``.  The
  daemon answers a query with zero or more ``{"type": "event", ...}``
  lines (tracer records, when the request asked for ``trace.stream``)
  followed by exactly one ``{"type": "response", "response": {...}}``
  line carrying the ``rpcheck-response/1`` object.  A line may be up to
  :data:`MAX_LINE_BYTES` long.
* **Localhost HTTP** (optional): a minimal HTTP/1.1 front on
  ``127.0.0.1`` — ``POST /v1/analyze`` with a request JSON body of at
  most :data:`MAX_LINE_BYTES` returns the response JSON (429 when
  shed); ``GET /v1/ping`` and ``GET /v1/pool`` expose the
  health and pool snapshots; ``GET /v1/metrics`` renders the merged
  metrics of every pooled session (plus the daemon's own counters) as
  Prometheus text exposition for scraping; ``GET /v1/runs[?tail=N]``
  returns recent run-ledger entries.  No streaming over HTTP; that is
  the unix socket's job.

Both transports answer a query through one method,
:meth:`ServeDaemon._answer`, so they parse, count and fail alike.

Scheduling
----------

Admission is **FIFO-with-deadline**: a query's
:class:`~repro.robust.Budget` clock starts at *arrival* (so time spent
queued counts against its deadline), then the query waits its turn on a
FIFO semaphore bounding worker-thread concurrency.  A budget that
expires in the queue still runs — its first cooperative
``budget.check()`` fires immediately, so the client gets exactly the
structured partial an in-process caller would get, which is what the
differential gate pins.

Isolation
---------

Each query executes inside its own
:func:`~repro.obs.recorder.sink_scope`: a private
:class:`~repro.obs.FlightRecorder`, the client's streaming sink, and the
daemon's incident-dump directory.  The pooled session's tracer is a
:class:`~repro.obs.recorder.ScopedSink`, so spans from the *shared*
session land in whichever request is executing — two overlapping
faulting requests produce two disjoint flight bundles.

Every served query is appended to the run ledger (``kind="serve"``)
when the daemon was given a ledger path, making served history
first-class in ``rpcheck history`` / ``rpcheck diff``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import os
import sys
import threading
import traceback
import uuid
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from urllib.parse import parse_qs, urlsplit

from ..api import AnalysisRequest, AnalysisResponse, ApiError, execute
from ..errors import RPError
from ..obs import (
    FlightRecorder,
    Ledger,
    MetricsRegistry,
    default_ledger_path,
    prometheus_exposition,
)
from ..obs.recorder import sink_scope
from ..obs.sinks import Sink
from ..obs.tracer import TraceContext, trace_context
from ..robust import Budget, CancelToken
from .pool import DEFAULT_MAX_ENTRIES, SessionPool

__all__ = [
    "DEFAULT_CONCURRENCY",
    "DEFAULT_MAX_QUEUE",
    "MAX_LINE_BYTES",
    "ServeDaemon",
    "daemon_in_thread",
    "serve_main",
]

#: Worker threads executing queries concurrently (per daemon).
DEFAULT_CONCURRENCY = 4

#: Queries allowed to wait for a worker before admission sheds load
#: (``--max-queue``).  Bounds daemon memory and queue latency: request
#: number ``concurrency + max_queue + 1`` gets a structured
#: ``overloaded`` rejection instead of a silently growing queue.
DEFAULT_MAX_QUEUE = 64

#: Longest line the unix socket reads (asyncio's default is 64 KiB), far
#: above any real program.  A longer line gets one error reply naming
#: the limit, then the connection closes: the rest of that line cannot
#: be told apart from the next request.
MAX_LINE_BYTES = 8 * 1024 * 1024

#: The reply to a line longer than :data:`MAX_LINE_BYTES`.
_LINE_TOO_LONG = {
    "type": "error",
    "message": (
        f"request line longer than {MAX_LINE_BYTES} bytes (the unix "
        f"socket's line limit); closing the connection"
    ),
}

#: Cancel reason installed by the per-query watchdog.
_WATCHDOG_REASON = "query watchdog timeout"


class _Overloaded(Exception):
    """Admission rejected a request (queue at ``max_queue``)."""

    def __init__(self, retry_after: float) -> None:
        super().__init__(f"admission queue full; retry after {retry_after}s")
        self.retry_after = retry_after


def _encode(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, separators=(",", ":"), default=repr).encode(
        "utf-8"
    ) + b"\n"


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next line (``b""`` at EOF), or ``None`` if it is too long."""
    try:
        return await reader.readline()
    except ValueError:  # longer than the stream's limit
        return None


def _log_unexpected(error: BaseException) -> None:
    """Write the traceback of a failure no response anticipated to stderr."""
    traceback.print_exception(type(error), error, error.__traceback__, file=sys.stderr)


class _StreamSink(Sink):
    """Forwards tracer records from the worker thread to the event loop.

    ``call_soon_threadsafe`` callbacks run FIFO, and the worker's result
    is delivered through the same mechanism *after* its last emit, so
    every streamed event is written before the final response line.
    """

    enabled = True

    def __init__(
        self,
        loop: asyncio.AbstractEventLoop,
        deliver: Callable[[Dict[str, Any]], None],
    ) -> None:
        self._loop = loop
        self._deliver = deliver

    def emit(self, record: Dict[str, Any]) -> None:
        try:
            self._loop.call_soon_threadsafe(self._deliver, record)
        except RuntimeError:
            pass  # loop already closed (shutdown race); drop the record


class ServeDaemon:
    """A long-lived analysis server over a :class:`SessionPool`."""

    def __init__(
        self,
        socket_path: str,
        *,
        http_port: Optional[int] = None,
        pool_size: int = DEFAULT_MAX_ENTRIES,
        concurrency: int = DEFAULT_CONCURRENCY,
        max_queue: int = DEFAULT_MAX_QUEUE,
        query_timeout: Optional[float] = None,
        ledger_path: Optional[str] = None,
        flight_dir: Optional[str] = None,
    ) -> None:
        self.socket_path = str(socket_path)
        self.http_port = http_port  # 0 = ephemeral; None = no HTTP front
        self.bound_http_port: Optional[int] = None
        self.pool = SessionPool(pool_size)
        self.concurrency = max(1, concurrency)
        self.max_queue = max(0, max_queue)
        #: Per-query wall-clock watchdog: past this many seconds the
        #: query's cancel token fires, so one stuck query cannot pin a
        #: worker thread forever.
        self.query_timeout = query_timeout
        self.ledger = (
            Ledger(ledger_path) if ledger_path is not None else None
        )
        self.flight_dir = flight_dir
        self.served = 0
        self.errors = 0
        #: Requests rejected at admission (queue full).
        self.shed = 0
        #: Queries whose watchdog fired and cancelled.
        self.watchdog_reaped = 0
        #: Queries admitted and not yet answered (executing + queued).
        self._pending = 0
        #: EWMA of recent query seconds — the ``retry_after`` basis.
        self._recent_seconds = 0.1
        self._connections: "set[asyncio.Task]" = set()
        self._servers: List[asyncio.AbstractServer] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._admission: Optional[asyncio.Semaphore] = None
        self._shutdown: Optional[asyncio.Event] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the unix socket (and the optional HTTP port)."""
        self._loop = asyncio.get_running_loop()
        self._admission = asyncio.Semaphore(self.concurrency)
        self._shutdown = asyncio.Event()
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        self._servers.append(
            await asyncio.start_unix_server(
                self._handle_ndjson, self.socket_path, limit=MAX_LINE_BYTES
            )
        )
        if self.http_port is not None:
            server = await asyncio.start_server(
                self._handle_http, host="127.0.0.1", port=self.http_port
            )
            self.bound_http_port = server.sockets[0].getsockname()[1]
            self._servers.append(server)

    async def run(self, on_started: Optional[Callable[[], None]] = None) -> None:
        """Start, serve until shutdown is requested, then clean up."""
        await self.start()
        if on_started is not None:
            on_started()
        assert self._shutdown is not None
        try:
            await self._shutdown.wait()
        finally:
            await self.close()

    async def close(self) -> None:
        for server in self._servers:
            server.close()
        for server in self._servers:
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await server.wait_closed()
        self._servers.clear()
        # connection handlers outlive server.close() (it only stops the
        # listeners); cancel them so shutdown is clean, not best-effort
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._connections.clear()
        # reap exploration worker pools held by warm sessions (no-op for
        # the common all-sequential pool)
        for entry in self.pool.entries():
            entry.session.close()
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)

    # ------------------------------------------------------------------
    # Introspection (shared by the stats op and GET /v1/metrics)
    # ------------------------------------------------------------------

    def metrics_registry(self) -> MetricsRegistry:
        """One merged registry: daemon counters + every pooled session.

        Each pooled session first exports its counter stores
        (:meth:`~repro.analysis.AnalysisSession.sync_metrics`), so the
        ``explore.*``, ``semantics.*`` and ``embedding.*`` work of every
        answered query shows up whether or not a ledger is configured.
        Sessions keep working while this reads them — the export is safe
        against a query running on the same session, and ``merge`` and
        the snapshot accessors are lock-guarded, so the result is a
        consistent-enough scrape (each metric is read atomically;
        cross-metric skew of an in-flight query is acceptable for
        monitoring).  Includes the per-worker ``parallel.*{worker=i}``
        series folded in by sharded sessions.
        """
        merged = MetricsRegistry()
        merged.counter("serve.served", "queries served since daemon start").inc(
            self.served
        )
        merged.counter("serve.errors", "served queries that returned errors").inc(
            self.errors
        )
        merged.counter(
            "serve.shed", "requests rejected at admission (queue full)"
        ).inc(self.shed)
        merged.counter(
            "serve.watchdog_reaped",
            "queries cancelled by the per-query watchdog",
        ).inc(self.watchdog_reaped)
        merged.gauge(
            "serve.queue_depth", "admitted queries waiting for a worker"
        ).set(max(0, self._pending - self.concurrency))
        merged.gauge("serve.pool_schemes", "warm schemes in the pool").set(
            len(self.pool)
        )
        for entry in self.pool.entries():
            merged.merge(entry.session.sync_metrics())
        return merged

    def _recent_runs(self, tail: int) -> Dict[str, Any]:
        """Recent ledger entries, newest last (``GET /v1/runs``)."""
        if self.ledger is None:
            return {"ledger": None, "count": 0, "runs": []}
        try:
            entries = self.ledger.entries()
        except (OSError, ValueError) as error:
            return {
                "ledger": self.ledger.path,
                "count": 0,
                "runs": [],
                "error": str(error),
            }
        if tail > 0:
            recent = entries[-tail:]
        else:
            recent = entries
        return {
            "ledger": self.ledger.path,
            "count": len(entries),
            "runs": recent,
        }

    def _status(self) -> Dict[str, Any]:
        """The daemon fields of ``ping``, ``stats`` and ``GET /v1/ping``."""
        return {
            "pid": os.getpid(),
            "served": self.served,
            "errors": self.errors,
            "schemes": len(self.pool),
        }

    def request_shutdown(self) -> None:
        """Ask the daemon to stop (thread-safe; idempotent)."""
        loop, event = self._loop, self._shutdown
        if loop is None or event is None or loop.is_closed():
            return
        with contextlib.suppress(RuntimeError):
            loop.call_soon_threadsafe(event.set)

    # ------------------------------------------------------------------
    # NDJSON transport (unix socket)
    # ------------------------------------------------------------------

    async def _handle_ndjson(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: sequential queries, EOF cancels in-flight.

        While a query runs, the handler keeps a ``readline`` pending so a
        client hanging up mid-stream is noticed immediately: its
        :class:`~repro.robust.CancelToken` is cancelled and the analysis
        unwinds at the next cooperative budget check.  A *non-empty*
        early line is a pipelined next request; it is parked and served
        after the current query finishes.  A line longer than
        :data:`MAX_LINE_BYTES` is answered with one error line (after
        any query in flight) and closes the connection.
        """
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)
        read_task: Optional["asyncio.Task[bytes]"] = None
        pending: Optional[bytes] = None
        try:
            while True:
                if pending is not None:
                    line, pending = pending, None
                else:
                    if read_task is None:
                        read_task = asyncio.ensure_future(_read_line(reader))
                    line = await read_task
                    read_task = None
                if line is None:
                    await self._send(writer, _LINE_TOO_LONG)
                    return
                if not line:
                    return
                text = line.decode("utf-8", "replace").strip()
                if not text:
                    continue
                try:
                    payload = json.loads(text)
                except ValueError:
                    await self._send(
                        writer, {"type": "error", "message": "malformed JSON line"}
                    )
                    continue
                if not isinstance(payload, dict):
                    await self._send(
                        writer, {"type": "error", "message": "expected a JSON object"}
                    )
                    continue
                if "op" in payload:
                    if await self._handle_op(payload, writer):
                        return
                    continue
                token = CancelToken()
                query = asyncio.ensure_future(
                    self._serve_query(payload, token, writer)
                )
                read_task = asyncio.ensure_future(_read_line(reader))
                done, _ = await asyncio.wait(
                    {query, read_task}, return_when=asyncio.FIRST_COMPLETED
                )
                if read_task in done:
                    head = read_task.result()
                    read_task = None
                    if head is None:
                        await query
                        await self._send(writer, _LINE_TOO_LONG)
                        return
                    if not head:
                        token.cancel("client disconnected")
                        await query
                        return
                    pending = head
                await query
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # only ``close()`` cancels connection tasks; finishing
            # normally here matters because 3.11's StreamReaderProtocol
            # calls ``task.exception()`` on this task without checking
            # ``task.cancelled()`` first and would log the cancellation
            # as a stray callback exception during teardown
            pass
        finally:
            if me is not None:
                self._connections.discard(me)
            if read_task is not None:
                read_task.cancel()
            writer.close()
            # CancelledError included: an already-cancelled handler must
            # still complete this cleanup without logging a stray task
            # exception during event-loop teardown
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def _handle_op(
        self, payload: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> bool:
        """Answer an operations line; ``True`` means close the connection."""
        op = payload.get("op")
        if op == "ping":
            await self._send(writer, {"type": "pong", **self._status()})
            return False
        if op == "pool":
            await self._send(writer, {"type": "pool", **self.pool.snapshot()})
            return False
        if op == "stats":
            registry = await asyncio.to_thread(self.metrics_registry)
            await self._send(
                writer,
                {"type": "stats", **self._status(), "metrics": registry.as_dict()},
            )
            return False
        if op == "shutdown":
            await self._send(writer, {"type": "shutdown"})
            self.request_shutdown()
            return True
        await self._send(
            writer, {"type": "error", "message": f"unknown op {op!r}"}
        )
        return False

    async def _serve_query(
        self,
        payload: Dict[str, Any],
        token: CancelToken,
        writer: asyncio.StreamWriter,
    ) -> None:
        reply = await self._answer(payload, token, writer)
        if not writer.is_closing():
            await self._send(writer, reply)

    async def _send(
        self, writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> None:
        writer.write(_encode(payload))
        with contextlib.suppress(
            ConnectionResetError, BrokenPipeError, asyncio.CancelledError
        ):
            await writer.drain()

    # ------------------------------------------------------------------
    # Query execution (shared by both transports)
    # ------------------------------------------------------------------

    async def _answer(
        self,
        payload: Dict[str, Any],
        token: CancelToken,
        writer: Optional[asyncio.StreamWriter] = None,
    ) -> Dict[str, Any]:
        """Turn one decoded request object into its reply.

        The one query path of both transports.  The reply is
        ``{"type": "response", ...}`` or, when admission sheds the query,
        ``{"type": "overloaded", ...}``.  Tracer records stream to
        *writer* as event lines when one is given and the request asks
        for them.  Every failure is a ``verdict: "error"`` response; the
        traceback of one no response anticipated (a parse failure other
        than :class:`ApiError`, an exception out of the query) goes to
        stderr.  Only this method counts ``served`` and ``errors``.
        """
        try:
            request = AnalysisRequest.from_json_dict(payload)
        except Exception as error:  # noqa: BLE001 - answered, not dropped
            if not isinstance(error, ApiError):
                _log_unexpected(error)
            self.errors += 1
            response = AnalysisResponse.failure(
                str(payload.get("procedure") or ""),
                error,
                request_id=payload.get("request_id"),
            )
            return {"type": "response", "response": response.to_json_dict()}
        if not request.request_id:
            # one id correlates the response, the root span, the event
            # lines and any incident bundle of the query
            request = dataclasses.replace(request, request_id=uuid.uuid4().hex)
        request_id = request.request_id
        deliver: Optional[Callable[[Dict[str, Any]], None]] = None
        if writer is not None and request.trace.stream:

            def deliver(record: Dict[str, Any]) -> None:
                if not writer.is_closing():
                    writer.write(
                        _encode(
                            {"type": "event", "request_id": request_id, "record": record}
                        )
                    )

        try:
            response = await self._execute(request, token, deliver)
        except _Overloaded as overloaded:
            return {
                "type": "overloaded",
                "request_id": request_id,
                "retry_after": overloaded.retry_after,
                "message": str(overloaded),
            }
        except Exception as error:  # noqa: BLE001 - answered, not dropped
            # a failure `execute` does not turn into a response (a bug,
            # not an analysis outcome) is logged and answered like any
            # other error; cancellation is a BaseException and propagates
            _log_unexpected(error)
            response = AnalysisResponse.failure(
                request.procedure, error, request_id=request_id
            )
        self.served += 1
        if response.error is not None:
            self.errors += 1
        return {"type": "response", "response": response.to_json_dict()}

    async def _execute(
        self,
        request: AnalysisRequest,
        token: CancelToken,
        deliver: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> AnalysisResponse:
        # The budget clock starts now — at arrival — so queueing counts
        # against the deadline (the "with-deadline" half of the policy).
        # Without a spec the budget exists only to carry the cancel token;
        # on_exhaust="raise" keeps a plain max_states exhaustion identical
        # to an in-process unbudgeted call (inconclusive, not partial),
        # which the differential gate pins.
        budget = (
            request.budget.to_budget(cancel=token)
            if request.budget is not None
            else Budget(cancel=token, on_exhaust="raise")
        ).start()
        loop = asyncio.get_running_loop()
        sinks: Tuple[Sink, ...] = ()
        if deliver is not None:
            sinks = (_StreamSink(loop, deliver),)
        assert self._admission is not None
        # Bounded admission: past ``concurrency`` executing plus
        # ``max_queue`` waiting, shed instead of queueing — an explicit,
        # immediate ``overloaded`` beats a silent ever-deeper queue.
        if self._pending >= self.concurrency + self.max_queue:
            self.shed += 1
            raise _Overloaded(self._retry_after())
        self._pending += 1
        started = loop.time()
        try:
            async with self._admission:  # FIFO: asyncio wakes waiters in order
                work = asyncio.ensure_future(
                    asyncio.to_thread(self._run_query, request, budget, sinks)
                )
                if self.query_timeout is None:
                    response = await work
                else:
                    try:
                        response = await asyncio.wait_for(
                            asyncio.shield(work), self.query_timeout
                        )
                    except asyncio.TimeoutError:
                        # reap, don't abandon: cancel cooperatively and
                        # wait for the structured partial — the worker
                        # thread unwinds at its next budget check even
                        # with a wedged exploration pool (the wait loop
                        # polls the budget), and the interrupted sharded
                        # exploration closes that pool on its way out
                        token.cancel(_WATCHDOG_REASON)
                        self.watchdog_reaped += 1
                        response = await work
        finally:
            self._pending -= 1
        # EWMA over answered queries: the basis for retry_after hints
        elapsed = max(loop.time() - started, 1e-3)
        self._recent_seconds += 0.2 * (elapsed - self._recent_seconds)
        return response

    def _retry_after(self) -> float:
        """A shed response's backoff hint, from observed service time.

        Estimates when a queue slot frees up: the whole backlog must
        drain through ``concurrency`` workers at the recent per-query
        pace.  Clamped to [0.05s, 10s] — a hint, not a promise.
        """
        backlog = max(1, self._pending - self.concurrency + 1)
        estimate = self._recent_seconds * backlog / self.concurrency
        return round(min(10.0, max(0.05, estimate)), 3)

    def _run_query(
        self,
        request: AnalysisRequest,
        budget: Budget,
        sinks: Tuple[Sink, ...],
    ) -> AnalysisResponse:
        """Worker-thread body: resolve the pooled session, run the query.

        Runs under a fresh :func:`sink_scope` so this request's tracer
        records, flight-recorder ring and incident bundles are disjoint
        from every concurrently executing request's; the scope carries
        the ``request_id`` so any incident bundle names its query.
        """
        with sink_scope(
            FlightRecorder(),
            sinks=sinks,
            dump_dir=self.flight_dir,
            context={
                "request_id": request.request_id,
                "procedure": request.procedure,
            },
        ):
            try:
                if request.fingerprint is not None:
                    entry = self.pool.get(request.fingerprint)
                    if entry is None:
                        raise ApiError(
                            f"no pooled scheme with fingerprint "
                            f"{request.fingerprint!r}"
                        )
                else:
                    entry = self.pool.get_or_compile(request.source or "")
            except RPError as error:
                return AnalysisResponse.failure(
                    request.procedure, error, request_id=request.request_id
                )
            self.pool.checkout(entry)
            try:
                with entry.lock:
                    # per-query worker knob on the pooled session: an
                    # explicit request.workers switches the sharded
                    # explorer on (execute honors it); an absent field
                    # resets to the sequential path so one caller's
                    # worker count never leaks into the next query
                    if request.workers is None:
                        entry.session.workers = 1
                    # the query's root span: joins the client's trace
                    # when the request carried a traceparent (else mints
                    # a fresh trace), and parents everything the
                    # procedure opens — explore, windows — into one
                    # span tree.  A cancelled sharded exploration has
                    # closed its worker pool before execute() returns.
                    with trace_context(
                        TraceContext.from_traceparent(request.traceparent)
                    ), entry.session.tracer.span(
                        "serve.query",
                        procedure=request.procedure,
                        request_id=request.request_id,
                        workers=request.workers or 1,
                    ):
                        return execute(
                            request,
                            scheme=entry.scheme,
                            session=entry.session,
                            budget=budget,
                            ledger=self.ledger,
                            ledger_kind="serve",
                        )
            finally:
                self.pool.checkin(entry)

    # ------------------------------------------------------------------
    # HTTP transport (localhost, optional)
    # ------------------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """A deliberately small HTTP/1.1 front: one request per connection."""
        me = asyncio.current_task()
        if me is not None:
            self._connections.add(me)
        content_type = "application/json"
        try:
            status, body, content_type = await self._http_dispatch(reader)
        except (asyncio.IncompleteReadError, ConnectionResetError, ValueError):
            status, body = 400, {"error": "malformed HTTP request"}
        except asyncio.CancelledError:
            # daemon shutdown: finish normally so the 3.11 streams
            # done-callback does not log the cancellation (see
            # ``_handle_ndjson``)
            if me is not None:
                self._connections.discard(me)
            writer.close()
            return
        except Exception as error:  # pragma: no cover - defensive
            status, body = 500, {"error": repr(error)}
        if isinstance(body, str):
            data = body.encode("utf-8")
        else:
            data = json.dumps(body, default=repr).encode("utf-8")
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            413: "Payload Too Large",
            429: "Too Many Requests",
            503: "Service Unavailable",
        }.get(status, "Internal Server Error")
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("ascii")
            + data
        )
        with contextlib.suppress(ConnectionResetError, BrokenPipeError):
            await writer.drain()
        writer.close()
        if me is not None:
            self._connections.discard(me)
        with contextlib.suppress(Exception, asyncio.CancelledError):
            await writer.wait_closed()

    async def _http_dispatch(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, Any, str]:
        """Route one request; returns (status, body, content type).

        A ``str`` body is written verbatim (the Prometheus scrape); a
        dict body is serialised as JSON.
        """
        json_type = "application/json"
        request_line = (await reader.readline()).decode("ascii", "replace")
        parts = request_line.split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}, json_type
        method, target = parts[0].upper(), parts[1]
        split = urlsplit(target)
        path, query = split.path, parse_qs(split.query)
        content_length = 0
        while True:
            header = (await reader.readline()).decode("ascii", "replace")
            if header in ("\r\n", "\n", ""):
                break
            name, _, value = header.partition(":")
            if name.strip().lower() == "content-length":
                content_length = int(value.strip())
        if method == "GET" and path == "/v1/ping":
            return 200, self._status(), json_type
        if method == "GET" and path == "/v1/pool":
            return 200, self.pool.snapshot(), json_type
        if method == "GET" and path == "/v1/health":
            # liveness is answering at all; readiness is having admission
            # capacity — load balancers and probes read the status code
            ready = self._pending < self.concurrency + self.max_queue
            return (200 if ready else 503), {
                "live": True,
                "ready": ready,
                "executing": min(self._pending, self.concurrency),
                "queued": max(0, self._pending - self.concurrency),
                "max_queue": self.max_queue,
                "shed": self.shed,
                "served": self.served,
            }, json_type
        if method == "GET" and path == "/v1/metrics":
            registry = await asyncio.to_thread(self.metrics_registry)
            text = prometheus_exposition(registry)
            return 200, text, "text/plain; version=0.0.4; charset=utf-8"
        if method == "GET" and path == "/v1/runs":
            try:
                tail = int(query.get("tail", ["20"])[0])
            except ValueError:
                return 400, {"error": "tail must be an integer"}, json_type
            body = await asyncio.to_thread(self._recent_runs, tail)
            return 200, body, json_type
        if method == "POST" and path == "/v1/analyze":
            if content_length > MAX_LINE_BYTES:
                # refused unread, like an over-long unix-socket line
                return 413, {"error": _LINE_TOO_LONG["message"]}, json_type
            body = await reader.readexactly(content_length)
            try:
                payload = json.loads(body)
            except ValueError:
                return 400, {"error": "request body is not JSON"}, json_type
            if not isinstance(payload, dict):
                return 400, {"error": "request body is not an object"}, json_type
            reply = await self._answer(payload, CancelToken())
            if reply["type"] == "overloaded":
                return 429, {
                    "error": "overloaded",
                    "retry_after": reply["retry_after"],
                    "message": reply["message"],
                    "request_id": reply["request_id"],
                }, json_type
            return 200, reply["response"], json_type
        return 404, {"error": f"no route for {method} {path}"}, json_type


# ----------------------------------------------------------------------
# Embedding helpers and CLI entry point
# ----------------------------------------------------------------------


@contextlib.contextmanager
def daemon_in_thread(
    socket_path: str, **kwargs: Any
) -> Iterator[ServeDaemon]:
    """Run a :class:`ServeDaemon` on a background thread (tests, benchmarks).

    Yields the started daemon; on exit requests shutdown and joins the
    thread.  Raises ``RuntimeError`` if the daemon fails to bind.
    """
    daemon = ServeDaemon(socket_path, **kwargs)
    started = threading.Event()
    failure: List[BaseException] = []

    def body() -> None:
        try:
            asyncio.run(daemon.run(on_started=started.set))
        except BaseException as error:  # noqa: BLE001 - reported to starter
            failure.append(error)
            started.set()

    thread = threading.Thread(target=body, name="rpcheck-serve", daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if failure:
        raise RuntimeError(f"serve daemon failed to start: {failure[0]!r}")
    if not os.path.exists(daemon.socket_path):
        daemon.request_shutdown()
        thread.join(timeout=10.0)
        raise RuntimeError("serve daemon did not bind its socket in time")
    try:
        yield daemon
    finally:
        daemon.request_shutdown()
        thread.join(timeout=30.0)


def serve_main(argv: Optional[List[str]] = None) -> int:
    """``rpcheck serve``: run the analysis daemon in the foreground."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rpcheck serve",
        description="Serve warm analysis sessions over a unix socket.",
    )
    parser.add_argument(
        "--socket", required=True, help="unix socket path to bind"
    )
    parser.add_argument(
        "--http-port",
        type=int,
        default=None,
        help="also serve a localhost HTTP front on this port (0 = ephemeral)",
    )
    parser.add_argument(
        "--pool-size",
        type=int,
        default=DEFAULT_MAX_ENTRIES,
        help=f"warm sessions to keep (default {DEFAULT_MAX_ENTRIES})",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=DEFAULT_CONCURRENCY,
        help=f"concurrent query workers (default {DEFAULT_CONCURRENCY})",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=DEFAULT_MAX_QUEUE,
        help="admitted queries allowed to wait for a worker before load "
        f"shedding kicks in (default {DEFAULT_MAX_QUEUE}; excess requests "
        "get a structured 'overloaded' / HTTP 429 with retry_after)",
    )
    parser.add_argument(
        "--query-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query watchdog: cancel a query past this many seconds of "
        "wall clock (default: none)",
    )
    parser.add_argument(
        "--ledger",
        default=None,
        help="ledger file for kind=serve entries (default: $RPCHECK_LEDGER)",
    )
    parser.add_argument(
        "--flight-dir",
        default=None,
        help="directory for per-request incident bundles",
    )
    args = parser.parse_args(argv)
    daemon = ServeDaemon(
        args.socket,
        http_port=args.http_port,
        pool_size=args.pool_size,
        concurrency=args.concurrency,
        max_queue=args.max_queue,
        query_timeout=args.query_timeout,
        ledger_path=default_ledger_path(args.ledger),
        flight_dir=args.flight_dir,
    )

    def announce() -> None:
        print(f"rpcheck serve: listening on {daemon.socket_path}")
        if daemon.bound_http_port is not None:
            print(
                f"rpcheck serve: http on 127.0.0.1:{daemon.bound_http_port}"
            )

    try:
        asyncio.run(daemon.run(on_started=announce))
    except KeyboardInterrupt:
        pass
    return 0
