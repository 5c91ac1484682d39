"""The run ledger: a durable, append-only history of analysis runs.

PR 3 gave every run spans and metrics; this module makes them *survive
the process*.  A :class:`Ledger` is an append-only JSONL file — schema
``rpcheck-ledger/1``, one JSON object per run — recording, for every
``AnalysisSession`` battery, decision-procedure query or benchmark:

* identity — a unique ``run_id``, wall-clock timestamp, run ``kind``
  (``"analysis"`` / ``"bench"`` / ...);
* the subject — scheme name, node count and a stable content
  **fingerprint** (SHA-256 over the canonical scheme JSON), so "same
  scheme" is checkable across checkouts and refactors;
* the answers — per-procedure verdicts (``yes``/``no``/``partial``/
  ``inconclusive``/``error`` plus method and exactness);
* the costs — a full metrics-registry snapshot, a per-span-name
  self-time rollup (:func:`repro.obs.report.self_time_rollup`), and
  wall/CPU totals;
* the circumstances — budget outcome (exhausted resource, elapsed,
  checks), env metadata (python, platform, pid, argv) and best-effort
  git metadata (commit, branch, dirty flag).

Entries are written either directly (:meth:`Ledger.append`) or through
a :class:`LedgerSink` composed with the run's other sinks: the sink
buffers span records as the tracer emits them and, on
:meth:`LedgerSink.finish` (or ``close``), rolls them up and appends one
entry.  ``rpcheck history`` tails/filters the ledger, ``rpcheck diff``
compares two entries, and ``benchmarks/watch_regressions.py`` enforces
the perf trajectory the entries record.

The default ledger location is the ``RPCHECK_LEDGER`` environment
variable, falling back to ``rpcheck-ledger.jsonl`` in the working
directory for the CLI subcommands that *read* the ledger.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import error_block
from .report import build_tree, self_time_rollup
from .sinks import Sink

__all__ = [
    "LEDGER_SCHEMA",
    "LEDGER_ENV",
    "DEFAULT_LEDGER_NAME",
    "Ledger",
    "LedgerSink",
    "make_entry",
    "new_run_id",
    "scheme_fingerprint",
    "verdict_summary",
    "env_meta",
    "git_meta",
    "default_ledger_path",
]

#: The ledger entry schema version (bump on breaking shape changes).
LEDGER_SCHEMA = "rpcheck-ledger/1"

#: Environment variable naming the ledger file (analysis *and* bench runs).
LEDGER_ENV = "RPCHECK_LEDGER"

#: Fallback ledger file name (working directory) for the CLI readers.
DEFAULT_LEDGER_NAME = "rpcheck-ledger.jsonl"

_RUN_SEQ = 0
_RUN_SEQ_LOCK = threading.Lock()


def default_ledger_path(explicit: Optional[str] = None) -> Optional[str]:
    """Resolve a ledger path: explicit arg, ``RPCHECK_LEDGER``, else ``None``."""
    if explicit:
        return explicit
    return os.environ.get(LEDGER_ENV) or None


def new_run_id() -> str:
    """A unique, sortable run id (millisecond timestamp + pid + sequence)."""
    global _RUN_SEQ
    with _RUN_SEQ_LOCK:
        _RUN_SEQ += 1
        seq = _RUN_SEQ
    return f"r{int(time.time() * 1000):013d}-{os.getpid()}-{seq}"


def scheme_fingerprint(scheme: Any) -> str:
    """A stable content hash of *scheme* (``sha256:`` + 16 hex chars).

    Computed over the canonical scheme JSON, so two runs fingerprint
    equal exactly when their schemes serialise identically — the
    equality ``rpcheck diff`` uses to decide whether a verdict change is
    *drift* (same subject, different answer) or just a different input.
    A scheme is immutable, so the digest is computed once per scheme
    object and kept on it.
    """
    fingerprint = getattr(scheme, "_fingerprint", None)
    if fingerprint is None:
        from ..core.serialize import scheme_to_json

        digest = hashlib.sha256(scheme_to_json(scheme).encode("utf-8")).hexdigest()
        fingerprint = scheme._fingerprint = f"sha256:{digest[:16]}"
    return fingerprint


def verdict_summary(verdict: Any) -> Dict[str, Any]:
    """One procedure outcome as a small JSON-ready dict.

    ``None`` (budget-exhausted battery slot) becomes ``inconclusive``;
    partial verdicts keep their exhausted resource; everything else
    reduces to ``yes``/``no`` plus method and exactness.
    """
    if verdict is None:
        return {"verdict": "inconclusive"}
    if getattr(verdict, "is_partial", False):
        return {
            "verdict": "partial",
            "resource": getattr(verdict, "resource", None),
            "method": getattr(verdict, "method", None),
        }
    return {
        "verdict": "yes" if verdict.holds else "no",
        "method": getattr(verdict, "method", None),
        "exact": getattr(verdict, "exact", None),
    }


def env_meta() -> Dict[str, Any]:
    """Environment metadata stamped into every entry."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pid": os.getpid(),
        "argv": list(sys.argv),
    }


_GIT_META_CACHE: "Dict[str, Optional[Dict[str, Any]]]" = {}


def git_meta(cwd: Optional[str] = None) -> Optional[Dict[str, Any]]:
    """Best-effort git metadata (commit, branch, dirty) or ``None``.

    Never raises and never blocks for long (2s timeout per command);
    cached per directory for the process lifetime — a ledger append must
    not fork three subprocesses per run.
    """
    key = os.path.abspath(cwd or os.getcwd())
    if key in _GIT_META_CACHE:
        return _GIT_META_CACHE[key]

    def _git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ["git", *args],
                cwd=key,
                capture_output=True,
                text=True,
                timeout=2,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    commit = _git("rev-parse", "--short", "HEAD")
    if commit is None:
        meta: Optional[Dict[str, Any]] = None
    else:
        status = _git("status", "--porcelain")
        meta = {
            "commit": commit,
            "branch": _git("rev-parse", "--abbrev-ref", "HEAD"),
            "dirty": bool(status) if status is not None else None,
        }
    _GIT_META_CACHE[key] = meta
    return meta


def make_entry(
    *,
    kind: str,
    scheme: Any = None,
    procedures: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Any]] = None,
    span_records: Optional[Iterable[Dict[str, Any]]] = None,
    spans: Optional[Dict[str, Dict[str, float]]] = None,
    budget: Any = None,
    outcome: str = "ok",
    error: Optional[BaseException] = None,
    checkpoint: Optional[str] = None,
    wall_seconds: Optional[float] = None,
    cpu_seconds: Optional[float] = None,
    run_id: Optional[str] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble one ``rpcheck-ledger/1`` entry.

    *procedures* values may be raw verdict objects (summarised via
    :func:`verdict_summary`) or pre-built dicts.  *span_records* are raw
    tracer records, rolled up per span name; pass *spans* instead when
    the rollup already exists.  *budget* duck-types
    :class:`repro.robust.Budget` (``exhausted``/``elapsed()``/``checks``).
    *checkpoint* is a path/token string, not the checkpoint payload.
    """
    summarised: Dict[str, Any] = {}
    for name, verdict in (procedures or {}).items():
        summarised[name] = (
            dict(verdict) if isinstance(verdict, dict) else verdict_summary(verdict)
        )
    if spans is None:
        spans = (
            self_time_rollup(build_tree(span_records))
            if span_records is not None
            else {}
        )
    budget_block = None
    if budget is not None:
        try:
            elapsed = float(budget.elapsed())
        except Exception:
            elapsed = None
        budget_block = {
            "exhausted": getattr(budget, "exhausted", None),
            "elapsed_seconds": elapsed,
            "checks": getattr(budget, "checks", None),
        }
    scheme_block = None
    if scheme is not None:
        scheme_block = {
            "name": scheme.name,
            "nodes": len(scheme),
            "fingerprint": scheme_fingerprint(scheme),
        }
    return {
        "schema": LEDGER_SCHEMA,
        "run_id": run_id or new_run_id(),
        "timestamp": time.time(),
        "kind": kind,
        "scheme": scheme_block,
        "procedures": summarised,
        "budget": budget_block,
        "metrics": metrics or {},
        "spans": spans,
        "totals": {"wall_seconds": wall_seconds, "cpu_seconds": cpu_seconds},
        "env": env_meta(),
        "git": git_meta(),
        "checkpoint": checkpoint,
        "outcome": outcome,
        "error": error_block(error),
        "extra": extra or {},
    }


#: One lock per ledger *path* (abspath-keyed), shared by every Ledger
#: instance in the process.  Compaction reads the file, filters, and
#: atomically replaces it — if an append through a *different* Ledger
#: instance landed between the read and the replace, that entry would
#: be silently erased (e.g. ``rpcheck history --compact`` racing a
#: daemon's in-flight ``LedgerSink.finish``).  With a per-instance lock
#: this race was real; keying the lock by path closes it for every
#: in-process combination.  Cross-process appends remain safe against
#: *tearing* (O_APPEND), but cross-process compaction retains the
#: lost-append window — compact from one process at a time.
_PATH_LOCKS: Dict[str, threading.RLock] = {}
_PATH_LOCKS_GUARD = threading.Lock()


def _lock_for_path(path: str) -> threading.RLock:
    key = os.path.abspath(path)
    with _PATH_LOCKS_GUARD:
        lock = _PATH_LOCKS.get(key)
        if lock is None:
            lock = _PATH_LOCKS[key] = threading.RLock()
        return lock


class Ledger:
    """An append-only JSONL run history at a fixed path.

    Appends open the file in ``"a"`` mode and write one line, so
    concurrent writers from different processes interleave whole lines
    (POSIX O_APPEND semantics for line-sized writes) and a reader never
    sees a torn entry it can't diagnose.  Reading is strict: a malformed
    line raises ``ValueError`` naming the line number — history that
    does not round-trip is a bug, not something to skip silently.

    Mutations lock a **per-path** (not per-instance) lock, so an
    ``append`` through one instance cannot vanish under a concurrent
    :meth:`compact` through another instance of the same file.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = _lock_for_path(self.path)

    def append(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """Append one entry (must carry the ledger schema tag)."""
        if entry.get("schema") != LEDGER_SCHEMA:
            raise ValueError(
                f"refusing to append entry with schema {entry.get('schema')!r} "
                f"(expected {LEDGER_SCHEMA!r})"
            )
        line = json.dumps(entry, separators=(",", ":"), default=repr) + "\n"
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line)
        return entry

    def entries(self) -> List[Dict[str, Any]]:
        """Every entry, oldest first (``[]`` when the file doesn't exist)."""
        if not os.path.exists(self.path):
            return []
        out: List[Dict[str, Any]] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{self.path}: ledger line {number} is not valid "
                        f"JSON: {exc}"
                    )
                if not isinstance(entry, dict):
                    raise ValueError(
                        f"{self.path}: ledger line {number} is not an object"
                    )
                out.append(entry)
        return out

    def tail(self, count: int) -> List[Dict[str, Any]]:
        """The last *count* entries, oldest first."""
        return self.entries()[-count:] if count > 0 else []

    def filter(
        self,
        *,
        kind: Optional[str] = None,
        scheme: Optional[str] = None,
        procedure: Optional[str] = None,
        predicate: Optional[Callable[[Dict[str, Any]], bool]] = None,
    ) -> List[Dict[str, Any]]:
        """Entries matching every given criterion, oldest first."""
        out = []
        for entry in self.entries():
            if kind is not None and entry.get("kind") != kind:
                continue
            if scheme is not None:
                block = entry.get("scheme") or {}
                if block.get("name") != scheme:
                    continue
            if procedure is not None and procedure not in (
                entry.get("procedures") or {}
            ):
                continue
            if predicate is not None and not predicate(entry):
                continue
            out.append(entry)
        return out

    def compact(self, keep_per_scheme: int) -> "Tuple[int, int]":
        """Retention: rewrite the ledger keeping the newest entries only.

        Groups entries by scheme fingerprint (entries without a scheme
        block — e.g. free-standing bench artefacts — group by their
        ``kind`` instead, so unrelated histories never crowd each other
        out), keeps the newest *keep_per_scheme* entries of each group in
        their original chronological order, and atomically replaces the
        file (write-temp + ``os.replace``) so a concurrent reader sees
        either the old history or the new one, never a torn file.

        Returns ``(kept, dropped)``.  A strict read precedes the rewrite:
        a malformed ledger raises instead of being silently truncated.
        """
        if keep_per_scheme < 1:
            raise ValueError(
                f"keep_per_scheme must be a positive int, got {keep_per_scheme!r}"
            )
        with self._lock:
            entries = self.entries()
            if not entries:
                return (0, 0)
            budgets: Dict[str, int] = {}
            kept_flags: List[bool] = [False] * len(entries)
            # walk newest-first so "newest N per group" is a simple count
            for position in range(len(entries) - 1, -1, -1):
                entry = entries[position]
                scheme_block = entry.get("scheme") or {}
                group = scheme_block.get("fingerprint") or f"kind:{entry.get('kind')}"
                used = budgets.get(group, 0)
                if used < keep_per_scheme:
                    budgets[group] = used + 1
                    kept_flags[position] = True
            kept = [e for e, flag in zip(entries, kept_flags) if flag]
            dropped = len(entries) - len(kept)
            if dropped == 0:
                return (len(kept), 0)
            tmp_path = f"{self.path}.compact.{os.getpid()}.tmp"
            with open(tmp_path, "w", encoding="utf-8") as handle:
                for entry in kept:
                    handle.write(
                        json.dumps(entry, separators=(",", ":"), default=repr)
                        + "\n"
                    )
            os.replace(tmp_path, self.path)
            return (len(kept), dropped)

    def __len__(self) -> int:
        return len(self.entries())

    def __repr__(self) -> str:
        return f"Ledger({self.path!r})"


class LedgerSink(Sink):
    """A sink that aggregates one run's records into one ledger entry.

    Compose it with the run's other sinks (`TeeSink`): it buffers span
    records as the tracer emits them and, on :meth:`finish`, rolls them
    up (:func:`repro.obs.report.self_time_rollup`) into a single
    appended entry.  ``close()`` finishes with whatever was gathered if
    :meth:`finish` was never called — a crashed run still leaves a
    ledger line — and is a no-op after an explicit finish.
    """

    enabled = True

    def __init__(
        self,
        ledger: Ledger,
        *,
        kind: str = "analysis",
        run_id: Optional[str] = None,
    ) -> None:
        self.ledger = ledger
        self.kind = kind
        self.run_id = run_id or new_run_id()
        self._records: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self.entry: Optional[Dict[str, Any]] = None

    def emit(self, record: Dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)

    def finish(self, **fields: Any) -> Dict[str, Any]:
        """Roll up the buffered records and append the run's entry.

        Keyword arguments pass through to :func:`make_entry` (scheme,
        procedures, metrics, budget, outcome, ...).  Idempotent: a
        second call returns the already-appended entry unchanged.
        """
        if self.entry is not None:
            return self.entry
        with self._lock:
            records = list(self._records)
        fields.setdefault("kind", self.kind)
        fields.setdefault("run_id", self.run_id)
        fields.setdefault("span_records", records)
        self.entry = self.ledger.append(make_entry(**fields))
        return self.entry

    def close(self) -> None:
        if self.entry is None and self._records:
            self.finish(outcome="abandoned")

    def __repr__(self) -> str:
        state = "finished" if self.entry is not None else f"{len(self._records)} records"
        return f"LedgerSink({self.ledger.path!r}, {state})"
