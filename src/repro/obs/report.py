"""Offline trace analysis: rebuild span trees, report self-times.

The consumer side of :class:`~repro.obs.sinks.JsonlSink` output — and the
engine of the ``rpcheck report`` subcommand:

* :func:`load_records` — parse a JSONL trace back into records;
* :func:`build_tree` — reconstruct the span forest from ``id``/``parent``;
* :func:`render_report` — a self-time tree plus the top-k hot spans;
* :func:`report_as_dict` — the same report as a machine-readable dict
  (``rpcheck report --format json``), built on :func:`tree_as_dict`;
* :func:`self_time_rollup` — per-span-name totals (count, wall, self),
  the per-run shape the run ledger stores and ``rpcheck diff`` compares;
* :func:`collapse_stacks` — collapsed-stack export (``a;b;c value``
  lines, self time in integer microseconds) for speedscope or
  ``flamegraph.pl`` (``rpcheck flamegraph``).

**Self time** of a span is its wall time minus its children's wall time:
the work attributed to the span itself.  Summed over a (single-rooted)
tree, self times reproduce the root's wall time exactly, so the report
doubles as a coverage check: the rendered footer states which fraction of
the root's wall clock the tree accounts for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union


@dataclass
class SpanNode:
    """One reconstructed span with its children."""

    span_id: int
    name: str
    start: float
    wall: float
    cpu: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    parent_id: Optional[int] = None
    children: List["SpanNode"] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def self_wall(self) -> float:
        """Wall time not attributed to any child span."""
        return max(0.0, self.wall - sum(child.wall for child in self.children))

    def walk(self) -> Iterable["SpanNode"]:
        """This node and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def load_records(source: Union[str, Iterable[str]]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace (path or iterable of lines) into records.

    Every non-blank line must parse as a JSON object; a malformed line
    raises ``ValueError`` naming the line number — a trace that does not
    round-trip is a bug, not something to skip silently.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise ValueError(f"trace line {number} is not valid JSON: {error}")
        if not isinstance(record, dict) or "type" not in record:
            raise ValueError(f"trace line {number} is not a span/event record")
        records.append(record)
    return records


def build_tree(records: Iterable[Dict[str, Any]]) -> List[SpanNode]:
    """Reconstruct the span forest (roots in start order) from records.

    Events are attached to their span; spans whose parent never closed
    (e.g. a truncated trace) become roots.  Children are ordered by start
    time.
    """
    nodes: Dict[int, SpanNode] = {}
    events: List[Dict[str, Any]] = []
    for record in records:
        if record.get("type") == "span":
            node = SpanNode(
                span_id=record["id"],
                name=record["name"],
                start=record["start"],
                wall=record.get("wall") or 0.0,
                cpu=record.get("cpu") or 0.0,
                attrs=record.get("attrs") or {},
                parent_id=record.get("parent"),
            )
            nodes[node.span_id] = node
        elif record.get("type") == "event":
            events.append(record)
    roots: List[SpanNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent_id) if node.parent_id is not None else None
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda child: child.start)
    for event in events:
        owner = nodes.get(event.get("span"))
        if owner is not None:
            owner.events.append(event)
    roots.sort(key=lambda node: node.start)
    return roots


def hot_spans(roots: Iterable[SpanNode], top: int = 10) -> List[SpanNode]:
    """The *top* spans by self time, across the whole forest."""
    everything = [node for root in roots for node in root.walk()]
    everything.sort(key=lambda node: node.self_wall, reverse=True)
    return everything[:top]


def self_time_rollup(roots: Iterable[SpanNode]) -> Dict[str, Dict[str, float]]:
    """Per-span-name totals across the forest: count, wall, self seconds.

    This is the run ledger's span summary and the unit ``rpcheck diff``
    compares across runs.  Wall times of *nested* same-name spans are
    both counted (wall is a per-occurrence total, not a flattened one);
    self times never double-count, so the self column still sums to the
    roots' wall time.
    """
    rollup: Dict[str, Dict[str, float]] = {}
    for root in roots:
        for node in root.walk():
            row = rollup.setdefault(
                node.name, {"count": 0, "wall": 0.0, "self": 0.0}
            )
            row["count"] += 1
            row["wall"] += node.wall
            row["self"] += node.self_wall
    return rollup


def worker_rollup(roots: Iterable[SpanNode]) -> Dict[str, Dict[str, float]]:
    """Per-worker self-time totals for spans carrying a ``worker`` attr.

    In a traced sharded run the re-based ``parallel.chunk`` spans carry
    the worker index that executed them, so this answers "which worker
    did the wall-clock go to" directly from the one distributed trace.
    Keys are stringified worker indices (JSON-friendly); ``chunks`` is
    how many such spans the worker executed.
    """
    rollup: Dict[str, Dict[str, float]] = {}
    for root in roots:
        for node in root.walk():
            worker = (node.attrs or {}).get("worker")
            if worker is None:
                continue
            row = rollup.setdefault(
                str(worker),
                {"chunks": 0, "wall": 0.0, "self": 0.0},
            )
            row["chunks"] += 1
            row["wall"] += node.wall
            row["self"] += node.self_wall
    return dict(sorted(rollup.items(), key=lambda item: item[0]))


def tree_as_dict(node: SpanNode) -> Dict[str, Any]:
    """One span subtree as a JSON-ready dict (children recursive)."""
    return {
        "id": node.span_id,
        "name": node.name,
        "start": node.start,
        "wall": node.wall,
        "cpu": node.cpu,
        "self": node.self_wall,
        "attrs": node.attrs,
        "events": [
            {"name": event.get("name"), "attrs": event.get("attrs") or {}}
            for event in node.events
        ],
        "children": [tree_as_dict(child) for child in node.children],
    }


def report_as_dict(
    records: Iterable[Dict[str, Any]], top: int = 10
) -> Dict[str, Any]:
    """The ``rpcheck report --format json`` payload.

    Same data as :func:`render_report` — span forest with self times,
    hot spans, per-name rollup — as one JSON-ready object (schema
    ``rpcheck-report/1``).  The ``rollup`` block is byte-compatible with
    the ``spans`` block of a run-ledger entry, so ``rpcheck diff`` and
    offline consumers share one shape.
    """
    roots = build_tree(records)
    payload = {
        "schema": "rpcheck-report/1",
        "roots": [tree_as_dict(root) for root in roots],
        "hot": [
            {
                "name": node.name,
                "self": node.self_wall,
                "wall": node.wall,
                "attrs": node.attrs,
            }
            for node in hot_spans(roots, top=top)
        ],
        "rollup": self_time_rollup(roots),
        "latency": latency_percentiles(roots),
    }
    workers = worker_rollup(roots)
    if workers:
        payload["workers"] = workers
    return payload


def latency_percentiles(
    roots: Iterable[SpanNode],
) -> Dict[str, Dict[str, Any]]:
    """Per-span-name wall-time percentiles, via histogram metrics.

    Feeds every span's wall time into one
    :class:`~repro.obs.metrics.HistogramMetric` per name, so the report
    shows the same bucketed p50/p95/p99 estimates that live registries
    (``--stats``, ``GET /v1/metrics``) expose — a 10000-iteration span
    is summarised, not listed.
    """
    from .metrics import HistogramMetric

    histograms: Dict[str, HistogramMetric] = {}
    for root in roots:
        for node in root.walk():
            metric = histograms.get(node.name)
            if metric is None:
                metric = histograms[node.name] = HistogramMetric(node.name)
            metric.observe(node.wall)
    return {
        name: {
            "count": metric.count,
            "mean": metric.mean,
            "p50": metric.percentile(0.50),
            "p95": metric.percentile(0.95),
            "p99": metric.percentile(0.99),
            "max": metric.max,
        }
        for name, metric in sorted(histograms.items())
    }


def collapse_stacks(roots: Iterable[SpanNode]) -> List[str]:
    """Collapsed-stack lines (``root;child;leaf <microseconds>``).

    One line per distinct span-name stack, value = total **self** time
    in integer microseconds — the input format of ``flamegraph.pl`` and
    speedscope's collapsed-stack importer.  Stacks whose self time
    rounds to zero microseconds are omitted; lines are sorted for
    deterministic output.  Spans carrying a ``worker`` attr (re-based
    ``parallel.chunk`` spans of a traced sharded run) are qualified as
    ``name[wN]`` so the flamegraph separates per-worker time instead of
    melting all workers into one frame.
    """
    totals: Dict[Tuple[str, ...], float] = {}

    def visit(node: SpanNode, prefix: Tuple[str, ...]) -> None:
        frame = node.name
        worker = (node.attrs or {}).get("worker")
        if worker is not None:
            frame = f"{frame}[w{worker}]"
        stack = prefix + (frame,)
        totals[stack] = totals.get(stack, 0.0) + node.self_wall
        for child in node.children:
            visit(child, stack)

    for root in roots:
        visit(root, ())
    lines = []
    for stack, seconds in totals.items():
        micros = round(seconds * 1e6)
        if micros <= 0:
            continue
        lines.append(f"{';'.join(stack)} {micros}")
    return sorted(lines)


def _format_attrs(attrs: Dict[str, Any], limit: int = 60) -> str:
    if not attrs:
        return ""
    text = ", ".join(f"{k}={v}" for k, v in attrs.items())
    if len(text) > limit:
        text = text[: limit - 1] + "…"
    return f"  [{text}]"


def render_tree(root: SpanNode) -> List[str]:
    """The self-time tree of one root, indented, with percentages."""
    total = root.wall or 1e-12
    lines: List[str] = []

    def visit(node: SpanNode, depth: int) -> None:
        share = 100.0 * node.self_wall / total
        lines.append(
            f"{'  ' * depth}{node.name:<{max(1, 36 - 2 * depth)}} "
            f"wall {node.wall * 1000:9.3f}ms  self {node.self_wall * 1000:9.3f}ms "
            f"({share:5.1f}%)"
            f"{_format_attrs(node.attrs)}"
        )
        for child in node.children:
            visit(child, depth + 1)

    visit(root, 0)
    return lines


def render_report(
    records: Iterable[Dict[str, Any]], top: int = 10
) -> str:
    """The full ``rpcheck report`` text: trees, hot spans, coverage."""
    roots = build_tree(records)
    if not roots:
        return "(no spans in trace)"
    lines: List[str] = []
    for root in roots:
        lines.extend(render_tree(root))
        span_count = sum(1 for _ in root.walk())
        accounted = sum(node.self_wall for node in root.walk())
        coverage = 100.0 * accounted / root.wall if root.wall else 100.0
        lines.append(
            f"-- {span_count} spans; self-times account for "
            f"{coverage:.1f}% of root wall time"
        )
        lines.append("")
    lines.append(f"hot spans (top {top} by self time):")
    for rank, node in enumerate(hot_spans(roots, top=top), start=1):
        lines.append(
            f"  {rank:>2}. {node.name:<30} self {node.self_wall * 1000:9.3f}ms  "
            f"wall {node.wall * 1000:9.3f}ms{_format_attrs(node.attrs, limit=40)}"
        )
    workers = worker_rollup(roots)
    if workers:
        lines.append("")
        lines.append("per-worker self time (spans with a worker attr):")
        for worker, row in workers.items():
            lines.append(
                f"  w{worker:<3} chunks {row['chunks']:<5} "
                f"self {row['self'] * 1000:9.3f}ms  "
                f"wall {row['wall'] * 1000:9.3f}ms"
            )
    lines.append("")
    lines.append("span wall-time percentiles (per name, ms):")
    for name, row in latency_percentiles(roots).items():
        lines.append(
            f"  {name:<30} n={row['count']:<6} "
            f"p50 {row['p50'] * 1000:9.3f}  p95 {row['p95'] * 1000:9.3f}  "
            f"p99 {row['p99'] * 1000:9.3f}  max {row['max'] * 1000:9.3f}"
        )
    return "\n".join(lines)
