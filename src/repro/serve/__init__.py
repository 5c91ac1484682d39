"""``repro.serve`` — a long-lived analysis daemon over the typed API.

Every ``rpcheck`` invocation historically paid cold start: one process,
one scheme, one battery, exit — discarding the warm
:class:`~repro.analysis.AnalysisSession` that answers repeat queries
several times faster than a cold one.  This package turns the battery
into a **daemon**:

* :class:`SessionPool` (:mod:`repro.serve.pool`) — warm
  ``AnalysisSession``\\ s keyed by the ledger's ``sha256:16hex`` scheme
  fingerprint, one query lock per scheme, LRU-bounded;
* :class:`ServeDaemon` (:mod:`repro.serve.daemon`) — an asyncio server
  speaking newline-delimited JSON (``rpcheck-request/1`` in,
  streamed events + ``rpcheck-response/1`` out) over a unix socket
  and, optionally, localhost TCP; per-request
  :class:`~repro.robust.Budget`\\ s under fair FIFO-with-deadline
  admission, a tracer of each query's own, a ``kind="serve"``
  ledger entry per query;
* :class:`ServeClient` (:mod:`repro.serve.client`) — the synchronous
  client the CLI (``rpcheck client``), the tests and the throughput
  benchmark share.

See ``docs/serving.md`` for the protocol walkthrough.
"""

from .client import ServeClient, ServeError, ServeOverloaded, client_main
from .daemon import ServeDaemon, daemon_in_thread, serve_main
from .pool import PooledScheme, SessionPool

__all__ = [
    "PooledScheme",
    "ServeClient",
    "ServeDaemon",
    "ServeError",
    "ServeOverloaded",
    "SessionPool",
    "client_main",
    "daemon_in_thread",
    "serve_main",
]
