"""Warm :class:`~repro.analysis.AnalysisSession` pooling for the daemon.

The ledger's scheme fingerprint (``sha256:`` + 16 hex chars over the
canonical scheme JSON, :func:`repro.obs.scheme_fingerprint`) is the
natural cache key: two requests whose programs compile to the same
scheme — whatever their formatting — share one warm session, one
explored fragment of ``M_G``, one successor cache, one embedding index.
In front of it, each entry remembers the source text that created it,
so resubmitting that exact text finds the entry without compiling or
fingerprinting anything.

Concurrency model (the contract ``docs/serving.md`` documents):

* the pool's own bookkeeping is guarded by one pool lock (cheap:
  dict lookups and LRU counters only);
* each :class:`PooledScheme` carries a **query lock** — every query
  against the shared session runs under it, which serializes same-scheme
  queries (reads included: procedure bodies mutate session memo/stats,
  and exploration grows the shared graph in place) while different
  schemes proceed fully in parallel;
* eviction (LRU beyond ``max_entries``) never removes an entry with
  queries in flight.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from ..analysis import AnalysisSession
from ..core.scheme import RPScheme
from ..obs import Tracer, scheme_fingerprint

__all__ = ["PooledScheme", "SessionPool", "DEFAULT_MAX_ENTRIES"]

#: Warm sessions kept before LRU eviction kicks in.
DEFAULT_MAX_ENTRIES = 32


class PooledScheme:
    """One warm scheme: its session, its query lock, its usage counters."""

    def __init__(self, scheme: RPScheme, fingerprint: str) -> None:
        self.scheme = scheme
        self.fingerprint = fingerprint
        # disabled between queries: the daemon sets each query's own
        # tracer on the session while it holds the query lock
        self.session = AnalysisSession(scheme, tracer=Tracer())
        #: Serializes queries against the shared session (see module doc).
        self.lock = threading.Lock()
        self.created_at = time.time()
        self.last_used = self.created_at
        self.queries = 0
        self.in_flight = 0
        #: The source text that created this entry (``None`` if adopted).
        self.source: Optional[str] = None

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready view for the daemon's ``pool`` operation."""
        return {
            "fingerprint": self.fingerprint,
            "scheme": self.scheme.name,
            "nodes": len(self.scheme),
            "states": len(self.session.graph),
            "complete": self.session.graph.complete,
            "queries": self.queries,
            "in_flight": self.in_flight,
            "created_at": self.created_at,
            "last_used": self.last_used,
        }

    def __repr__(self) -> str:
        return (
            f"PooledScheme({self.scheme.name!r}, {self.fingerprint}, "
            f"{len(self.session.graph)} states, {self.queries} queries)"
        )


class SessionPool:
    """Warm sessions keyed by scheme fingerprint, LRU-bounded."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self.max_entries = max(1, max_entries)
        self._entries: Dict[str, PooledScheme] = {}
        #: Each live entry's creating text, mapped to the entry: one
        #: text per entry, forgotten when the entry is evicted.
        self._by_source: Dict[str, PooledScheme] = {}
        self._lock = threading.Lock()
        #: Pool-level counters (hits = warm-session reuse).
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------

    def get_or_compile(self, source: str) -> PooledScheme:
        """The pooled entry for *source*, compiling on first sight.

        The text that created a live entry resolves to it directly.  Any
        other text is compiled outside the pool lock (it can be slow and
        is idempotent) and looked up by fingerprint; the insertion is
        check-again-then-insert so two racing first requests converge on
        one entry.  A text that fails to compile is not remembered.
        """
        with self._lock:
            entry = self._by_source.get(source)
            if entry is not None:
                self.hits += 1
                entry.last_used = time.time()
                return entry
        from ..lang import compile_source

        scheme = compile_source(source).scheme
        fingerprint = scheme_fingerprint(scheme)
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self.hits += 1
                entry.last_used = time.time()
                return entry
            self.misses += 1
            entry = PooledScheme(scheme, fingerprint)
            entry.source = source
            self._entries[fingerprint] = entry
            self._by_source[source] = entry
            self._evict_locked()
            return entry

    def adopt(self, scheme: RPScheme) -> PooledScheme:
        """Pool an already-built scheme (in-process embedders: tests, bench).

        Wire clients can then address it by fingerprint without shipping
        source text — zoo schemes have no concrete syntax to ship.
        """
        fingerprint = scheme_fingerprint(scheme)
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                entry = PooledScheme(scheme, fingerprint)
                self._entries[fingerprint] = entry
                self._evict_locked()
            return entry

    def get(self, fingerprint: str) -> Optional[PooledScheme]:
        """The warm entry for *fingerprint*, or ``None`` (no compile path)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self.hits += 1
                entry.last_used = time.time()
            return entry

    def checkout(self, entry: PooledScheme) -> None:
        """Mark one query in flight on *entry* (blocks its eviction)."""
        with self._lock:
            entry.in_flight += 1

    def checkin(self, entry: PooledScheme) -> None:
        with self._lock:
            entry.in_flight = max(0, entry.in_flight - 1)
            entry.queries += 1
            entry.last_used = time.time()

    def _evict_locked(self) -> None:
        while len(self._entries) > self.max_entries:
            idle = [e for e in self._entries.values() if e.in_flight == 0]
            if not idle:
                return  # everything busy; over-capacity is temporary
            victim = min(idle, key=lambda e: e.last_used)
            del self._entries[victim.fingerprint]
            if victim.source is not None:
                del self._by_source[victim.source]
            # release any exploration worker pool the session spawned;
            # sequential sessions make this a no-op
            victim.session.close()
            self.evictions += 1

    # ------------------------------------------------------------------

    def entries(self) -> List[PooledScheme]:
        with self._lock:
            return list(self._entries.values())

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready pool summary (the daemon's ``pool`` operation)."""
        with self._lock:
            return {
                "entries": [e.snapshot() for e in self._entries.values()],
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return f"SessionPool({len(self)}/{self.max_entries} schemes)"
