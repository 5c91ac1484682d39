"""Per-worker timeline of a sharded exploration (``rpcheck timeline``).

The parallel explorer traces every window as a ``parallel.window``
span under ``session.explore``, with the worker-side ``parallel.chunk``
spans (one per worker slice) re-based and re-parented beneath it.  This
module turns that span forest back into the question the tracing was
built to answer: *where did the wall-clock go, and which worker was the
straggler?*

:func:`build_timeline` reduces a record stream (from a JSONL trace or a
:class:`~repro.obs.sinks.MemorySink`) to per-window slices with one bar
per worker chunk; :func:`render_timeline_text` draws a terminal
gantt/waterfall; :func:`render_timeline_svg` renders the same data as a
self-contained ``<svg>`` fragment (no scripts, no external resources)
used both by ``rpcheck timeline -o out.svg`` and as a section of the
ledger dashboard.

Attribution per window:

* **critical path** — the window is synchronous, so its wall time is
  the slowest chunk plus the coordinator's adoption of the window's
  successor lists (``apply_seconds``); the slowest chunk's worker is
  named on the slice.
* **imbalance** — per-worker busy fraction inside the window (busy
  seconds / window wall).
"""

from __future__ import annotations

import html
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Window palette for the SVG rendering (cycled).
_PALETTE = (
    "#4e79a7", "#f28e2b", "#59a14f", "#b07aa1", "#76b7b2",
    "#edc948", "#e15759", "#9c755f", "#ff9da7", "#bab0ac",
)

WINDOW_SPAN = "parallel.window"
CHUNK_SPAN = "parallel.chunk"
EXPLORE_SPAN = "session.explore"


@dataclass
class ChunkBar:
    """One worker chunk: a bar on a worker lane."""

    worker: int
    chunk: int
    start: float  # seconds, same clock as the window span
    wall: float
    states: int = 0

    @property
    def end(self) -> float:
        return self.start + self.wall


@dataclass
class WindowSlice:
    """One exploration window: its chunks, cost split and straggler."""

    round: int
    start: float
    wall: float
    apply_seconds: float = 0.0
    chunks: List[ChunkBar] = field(default_factory=list)

    @property
    def end(self) -> float:
        return self.start + self.wall

    @property
    def critical(self) -> Optional[ChunkBar]:
        """The slowest chunk — the window's critical path."""
        return max(self.chunks, key=lambda c: c.wall, default=None)

    def busy_fraction(self, worker: int) -> float:
        """Fraction of the window wall this worker spent expanding."""
        if self.wall <= 0:
            return 0.0
        busy = sum(c.wall for c in self.chunks if c.worker == worker)
        return min(1.0, busy / self.wall)


@dataclass
class Timeline:
    """The whole run: ordered windows plus the lane (worker) set."""

    windows: List[WindowSlice] = field(default_factory=list)
    workers: List[int] = field(default_factory=list)
    origin: float = 0.0  # start of the first window (bars are relative)
    explore_wall: Optional[float] = None

    @property
    def total_wall(self) -> float:
        if not self.windows:
            return 0.0
        return max(w.end for w in self.windows) - self.origin


def build_timeline(records: Iterable[Dict[str, Any]]) -> Timeline:
    """Reduce tracer records to a :class:`Timeline`.

    Only ``parallel.window`` / ``parallel.chunk`` spans (and the
    enclosing ``session.explore``) participate; anything else in the
    trace is ignored, so the same JSONL file that feeds ``rpcheck
    report`` feeds this.
    """
    windows: Dict[Any, WindowSlice] = {}  # window span id -> slice
    chunks: List[Tuple[Any, ChunkBar]] = []  # (parent window span id, bar)
    explore_wall: Optional[float] = None
    for record in records:
        if record.get("type") != "span":
            continue
        name = record.get("name")
        attrs = record.get("attrs") or {}
        if name == EXPLORE_SPAN:
            wall = record.get("wall")
            if isinstance(wall, (int, float)):
                explore_wall = max(explore_wall or 0.0, float(wall))
        elif name == WINDOW_SPAN:
            windows[record.get("id")] = WindowSlice(
                round=int(attrs.get("round", 0) or 0),
                start=float(record.get("start") or 0.0),
                wall=float(record.get("wall") or 0.0),
                apply_seconds=float(attrs.get("apply_seconds", 0.0) or 0.0),
            )
        elif name == CHUNK_SPAN:
            chunks.append(
                (
                    record.get("parent"),
                    ChunkBar(
                        worker=int(attrs.get("worker", -1)),
                        chunk=int(attrs.get("chunk", -1)),
                        start=float(record.get("start") or 0.0),
                        wall=float(record.get("wall") or 0.0),
                        states=int(attrs.get("states", 0) or 0),
                    ),
                )
            )
    for parent, bar in chunks:
        window = windows.get(parent)
        if window is not None:
            window.chunks.append(bar)
    ordered = sorted(windows.values(), key=lambda w: (w.start, w.round))
    for window in ordered:
        window.chunks.sort(key=lambda c: (c.worker, c.start))
    workers = sorted(
        {c.worker for w in ordered for c in w.chunks if c.worker >= 0}
    )
    origin = min((w.start for w in ordered), default=0.0)
    return Timeline(
        windows=ordered,
        workers=workers,
        origin=origin,
        explore_wall=explore_wall,
    )


def timeline_as_dict(timeline: Timeline) -> Dict[str, Any]:
    """A JSON-ready view (``rpcheck timeline --json``)."""
    return {
        "schema": "rpcheck-timeline/1",
        "workers": timeline.workers,
        "total_wall_seconds": timeline.total_wall,
        "explore_wall_seconds": timeline.explore_wall,
        "windows": [
            {
                "round": w.round,
                "start_seconds": w.start - timeline.origin,
                "wall_seconds": w.wall,
                "apply_seconds": w.apply_seconds,
                "critical": (
                    {
                        "worker": w.critical.worker,
                        "wall_seconds": w.critical.wall,
                    }
                    if w.critical is not None
                    else None
                ),
                "chunks": [
                    {
                        "worker": c.worker,
                        "chunk": c.chunk,
                        "start_seconds": c.start - timeline.origin,
                        "wall_seconds": c.wall,
                        "states": c.states,
                    }
                    for c in w.chunks
                ],
            }
            for w in timeline.windows
        ],
    }


def _fmt(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.1f}ms"


def render_timeline_text(timeline: Timeline, *, width: int = 72) -> str:
    """A terminal gantt: one lane per worker per window.

    Bars (``▓``) are scaled to the window wall, and the trailing
    annotation names the window's critical path.
    """
    if not timeline.windows:
        return "(no parallel.window spans in this trace — run with --workers N and tracing on)"
    lines = [
        f"timeline: {len(timeline.windows)} window(s) · "
        f"{len(timeline.workers)} worker(s) · "
        f"{_fmt(timeline.total_wall)} total"
    ]
    for window in timeline.windows:
        critical = window.critical
        crit_text = (
            f" · critical: worker {critical.worker} ({_fmt(critical.wall)})"
            if critical is not None
            else ""
        )
        lines.append(
            f"window round {window.round}: {_fmt(window.wall)} · "
            f"{len(window.chunks)} chunk(s) · "
            f"apply {_fmt(window.apply_seconds)}{crit_text}"
        )
        span = window.wall or 1.0
        lane_width = max(10, width - 18)
        for worker in timeline.workers:
            lane = [" "] * lane_width
            for chunk in window.chunks:
                if chunk.worker != worker:
                    continue
                lo = int((chunk.start - window.start) / span * lane_width)
                hi = int((chunk.end - window.start) / span * lane_width)
                lo = max(0, min(lane_width - 1, lo))
                hi = max(lo + 1, min(lane_width, hi))
                for index in range(lo, hi):
                    lane[index] = "▓"
            busy = window.busy_fraction(worker)
            lines.append(
                f"  w{worker:<3d} |{''.join(lane)}| {busy * 100:5.1f}% busy"
            )
    return "\n".join(lines)


def render_timeline_svg(
    timeline: Timeline,
    *,
    width: int = 860,
    lane_height: int = 22,
    standalone: bool = False,
) -> str:
    """The timeline as an inline ``<svg>`` fragment.

    One row per worker, chunk rects coloured by window, window
    boundaries as vertical rules, the critical chunk of each window
    outlined, and ``<title>`` tooltips throughout —
    the same no-script idiom as the ledger dashboard, which embeds this
    fragment verbatim.  ``standalone=True`` adds the XML prologue so the
    output is a valid ``.svg`` file (the CI artifact).
    """
    esc = lambda text: html.escape(str(text), quote=True)
    pad_l, pad_r, pad_t = 64, 10, 18
    gap = 6
    workers = timeline.workers or [0]
    height = pad_t + len(workers) * (lane_height + gap) + 28
    total = timeline.total_wall or 1.0
    usable = width - pad_l - pad_r

    def sx(t: float) -> float:
        return pad_l + (t - timeline.origin) / total * usable

    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="per-worker exploration timeline" '
        f'xmlns="http://www.w3.org/2000/svg">'
    ]
    if standalone:
        parts.insert(0, '<?xml version="1.0" encoding="UTF-8"?>')
        parts.append(
            "<style>text{font:11px sans-serif;fill:#555}"
            ".crit{stroke:#c62828;stroke-width:2;fill:none}</style>"
        )
    if not timeline.windows:
        parts.append(
            f'<text x="{pad_l}" y="{pad_t + 14}" class="tick">'
            "no parallel.window spans in this trace</text></svg>"
        )
        return "".join(parts)
    lane_y = {
        worker: pad_t + row * (lane_height + gap)
        for row, worker in enumerate(workers)
    }
    for worker, y in lane_y.items():
        parts.append(
            f'<text x="{pad_l - 8}" y="{y + lane_height - 6}" class="tick" '
            f'text-anchor="end">w{esc(worker)}</text>'
        )
    axis_y = pad_t + len(workers) * (lane_height + gap)
    for index, window in enumerate(timeline.windows):
        color = _PALETTE[index % len(_PALETTE)]
        x0, x1 = sx(window.start), sx(window.end)
        critical = window.critical
        parts.append(
            f'<line x1="{x0:.1f}" y1="{pad_t - 4}" x2="{x0:.1f}" '
            f'y2="{axis_y}" class="axis" stroke="#e0e0e0"/>'
        )
        label = (
            f"round {window.round}: {_fmt(window.wall)}, "
            f"apply {_fmt(window.apply_seconds)}"
        )
        if critical is not None:
            label += f", critical w{critical.worker}"
        parts.append(
            f'<rect x="{x0:.1f}" y="{axis_y + 4}" '
            f'width="{max(x1 - x0, 1.0):.1f}" height="8" fill="{color}" '
            f'opacity="0.5" class="cell"><title>{esc(label)}</title></rect>'
        )
        for chunk in window.chunks:
            y = lane_y.get(chunk.worker)
            if y is None:
                continue
            cx0 = sx(chunk.start)
            cw = max(sx(chunk.end) - cx0, 1.0)
            title = (
                f"window {window.round} chunk {chunk.chunk} on worker "
                f"{chunk.worker}: {_fmt(chunk.wall)}, {chunk.states} state(s)"
            )
            parts.append(
                f'<rect x="{cx0:.1f}" y="{y}" width="{cw:.1f}" '
                f'height="{lane_height}" fill="{color}" class="cell">'
                f"<title>{esc(title)}</title></rect>"
            )
            if critical is not None and chunk is critical:
                parts.append(
                    f'<rect x="{cx0:.1f}" y="{y}" width="{cw:.1f}" '
                    f'height="{lane_height}" class="crit" fill="none" '
                    f'stroke="#c62828" stroke-width="2"/>'
                )
    parts.append(
        f'<text x="{pad_l}" y="{axis_y + 24}" class="tick">0</text>'
    )
    parts.append(
        f'<text x="{width - pad_r}" y="{axis_y + 24}" class="tick" '
        f'text-anchor="end">{_fmt(timeline.total_wall)}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)
