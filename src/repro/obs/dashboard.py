"""Static HTML dashboard over the run ledger (``rpcheck dashboard``).

Renders an ``rpcheck-ledger/1`` history as **one self-contained HTML
file**: inline CSS, server-side-generated inline SVG, zero scripts and
zero network fetches — the file can be opened from disk, attached to a
CI run, or emailed, and looks the same everywhere.

Sections:

* **Summary cards** — run counts by outcome and kind, scheme count,
  covered time span.
* **Runs over time** — wall-clock seconds per run on a time axis,
  coloured by outcome, so regressions and error bursts are visible at a
  glance.
* **Procedures** — per-procedure verdict distribution plus the
  mean/p95 wall time of the runs answering it.
* **Self-time treemap** — the per-span-name self-time rollup carried by
  ledger entries, aggregated across runs and laid out as a slice-and-
  dice treemap: the widest boxes are the hot spans.
* **Worker balance** — for sharded runs (``extra.worker_expansions``),
  a stacked bar of expansions per worker per run; a lopsided bar means
  the frontier sharding is unbalanced.

Everything here is plain data-to-string rendering over ledger entry
dicts; nothing imports the analysis engine.
"""

from __future__ import annotations

import html
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Outcome colours (also used as the legend).
OUTCOME_COLORS = {
    "ok": "#2e7d32",
    "partial": "#ef6c00",
    "error": "#c62828",
}
_FALLBACK_COLOR = "#546e7a"

#: Treemap / bar palette (cycled).
PALETTE = (
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
)


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _fmt_seconds(value: Optional[float]) -> str:
    if not isinstance(value, (int, float)):
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def _percentile(values: Sequence[float], q: float) -> Optional[float]:
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered)) - 1))
    return ordered[index]


# ----------------------------------------------------------------------
# Section renderers
# ----------------------------------------------------------------------


def _summary_cards(entries: List[Dict[str, Any]]) -> str:
    outcomes: Dict[str, int] = {}
    kinds: Dict[str, int] = {}
    schemes = set()
    stamps: List[float] = []
    for entry in entries:
        outcomes[entry.get("outcome") or "?"] = (
            outcomes.get(entry.get("outcome") or "?", 0) + 1
        )
        kinds[entry.get("kind") or "?"] = kinds.get(entry.get("kind") or "?", 0) + 1
        name = (entry.get("scheme") or {}).get("fingerprint")
        if name:
            schemes.add(name)
        stamp = entry.get("timestamp")
        if isinstance(stamp, (int, float)):
            stamps.append(stamp)
    span = "-"
    if stamps:
        fmt = "%Y-%m-%d %H:%M"
        span = (
            time.strftime(fmt, time.localtime(min(stamps)))
            + " — "
            + time.strftime(fmt, time.localtime(max(stamps)))
        )
    outcome_text = " · ".join(f"{k}: {v}" for k, v in sorted(outcomes.items()))
    kind_text = " · ".join(f"{k}: {v}" for k, v in sorted(kinds.items()))
    cards = [
        ("runs", str(len(entries))),
        ("schemes", str(len(schemes))),
        ("outcomes", outcome_text or "-"),
        ("kinds", kind_text or "-"),
        ("span", span),
    ]
    boxes = "".join(
        f'<div class="card"><div class="card-label">{_esc(label)}</div>'
        f'<div class="card-value">{_esc(value)}</div></div>'
        for label, value in cards
    )
    return f'<div class="cards">{boxes}</div>'


def _runs_over_time_svg(entries: List[Dict[str, Any]]) -> str:
    points: List[Tuple[float, float, str, str]] = []
    for entry in entries:
        stamp = entry.get("timestamp")
        wall = (entry.get("totals") or {}).get("wall_seconds")
        if not isinstance(stamp, (int, float)) or not isinstance(wall, (int, float)):
            continue
        outcome = entry.get("outcome") or "?"
        label = (
            f"{entry.get('run_id', '?')} · "
            f"{(entry.get('scheme') or {}).get('name', '?')} · "
            f"{outcome} · {_fmt_seconds(wall)}"
        )
        points.append((float(stamp), max(float(wall), 0.0), outcome, label))
    if not points:
        return "<p class='empty'>(no timestamped runs)</p>"
    width, height, pad = 860, 220, 40
    t_lo = min(p[0] for p in points)
    t_hi = max(p[0] for p in points)
    w_hi = max(p[1] for p in points) or 1.0
    t_range = (t_hi - t_lo) or 1.0

    def sx(t: float) -> float:
        return pad + (t - t_lo) / t_range * (width - 2 * pad)

    def sy(w: float) -> float:
        return height - pad - (w / w_hi) * (height - 2 * pad)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="wall seconds per run over time">',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" class="axis"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" class="axis"/>',
        f'<text x="{pad - 6}" y="{pad + 4}" class="tick" text-anchor="end">'
        f"{_fmt_seconds(w_hi)}</text>",
        f'<text x="{pad - 6}" y="{height - pad}" class="tick" text-anchor="end">0</text>',
    ]
    fmt = "%H:%M:%S" if t_hi - t_lo < 86400 else "%m-%d %H:%M"
    parts.append(
        f'<text x="{pad}" y="{height - pad + 16}" class="tick">'
        f"{time.strftime(fmt, time.localtime(t_lo))}</text>"
    )
    parts.append(
        f'<text x="{width - pad}" y="{height - pad + 16}" class="tick" '
        f'text-anchor="end">{time.strftime(fmt, time.localtime(t_hi))}</text>'
    )
    for stamp, wall, outcome, label in points:
        color = OUTCOME_COLORS.get(outcome, _FALLBACK_COLOR)
        parts.append(
            f'<circle cx="{sx(stamp):.1f}" cy="{sy(wall):.1f}" r="4" '
            f'fill="{color}"><title>{_esc(label)}</title></circle>'
        )
    parts.append("</svg>")
    legend = " ".join(
        f'<span class="chip" style="background:{color}">{_esc(name)}</span>'
        for name, color in OUTCOME_COLORS.items()
    )
    return "".join(parts) + f'<div class="legend">{legend}</div>'


def _procedures_table(entries: List[Dict[str, Any]]) -> str:
    stats: Dict[str, Dict[str, Any]] = {}
    for entry in entries:
        wall = (entry.get("totals") or {}).get("wall_seconds")
        for name, block in (entry.get("procedures") or {}).items():
            row = stats.setdefault(
                name, {"runs": 0, "verdicts": {}, "walls": []}
            )
            row["runs"] += 1
            verdict = (block or {}).get("verdict") or "?"
            row["verdicts"][verdict] = row["verdicts"].get(verdict, 0) + 1
            if isinstance(wall, (int, float)):
                row["walls"].append(float(wall))
    if not stats:
        return "<p class='empty'>(no procedure verdicts recorded)</p>"
    rows = []
    for name in sorted(stats):
        row = stats[name]
        verdicts = " · ".join(
            f"{k}: {v}" for k, v in sorted(row["verdicts"].items())
        )
        mean = (
            sum(row["walls"]) / len(row["walls"]) if row["walls"] else None
        )
        p95 = _percentile(row["walls"], 0.95)
        rows.append(
            f"<tr><td>{_esc(name)}</td><td class='num'>{row['runs']}</td>"
            f"<td>{_esc(verdicts)}</td>"
            f"<td class='num'>{_fmt_seconds(mean)}</td>"
            f"<td class='num'>{_fmt_seconds(p95)}</td></tr>"
        )
    return (
        "<table><thead><tr><th>procedure</th><th>runs</th><th>verdicts</th>"
        "<th>mean wall</th><th>p95 wall</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _treemap_svg(entries: List[Dict[str, Any]], *, top: int = 24) -> str:
    self_time: Dict[str, float] = {}
    for entry in entries:
        for name, block in (entry.get("spans") or {}).items():
            value = (block or {}).get("self")
            if isinstance(value, (int, float)) and value > 0:
                self_time[name] = self_time.get(name, 0.0) + float(value)
    if not self_time:
        return "<p class='empty'>(no span rollups in the ledger)</p>"
    ranked = sorted(self_time.items(), key=lambda kv: kv[1], reverse=True)
    shown = ranked[:top]
    rest = sum(v for _, v in ranked[top:])
    if rest > 0:
        shown.append(("(other)", rest))
    total = sum(v for _, v in shown)
    width, height = 860, 280
    # slice-and-dice layout: split the remaining rectangle for each item
    # in rank order, alternating cut direction — O(n), fine for ~25 boxes
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="span self-time treemap">'
    ]
    x, y, w, h = 0.0, 0.0, float(width), float(height)
    remaining = total
    for index, (name, value) in enumerate(shown):
        frac = value / remaining if remaining > 0 else 1.0
        if index == len(shown) - 1:
            bx, by, bw, bh = x, y, w, h
        elif w >= h:
            bw = w * frac
            bx, by, bh = x, y, h
            x += bw
            w -= bw
        else:
            bh = h * frac
            bx, by, bw = x, y, w
            y += bh
            h -= bh
        remaining -= value
        color = PALETTE[index % len(PALETTE)]
        pct = 100.0 * value / total if total else 0.0
        title = f"{name}: {_fmt_seconds(value)} self ({pct:.1f}%)"
        parts.append(
            f'<rect x="{bx:.1f}" y="{by:.1f}" width="{max(bw, 0.5):.1f}" '
            f'height="{max(bh, 0.5):.1f}" fill="{color}" class="cell">'
            f"<title>{_esc(title)}</title></rect>"
        )
        if bw > 70 and bh > 18:
            short = name if len(name) <= int(bw / 7) else name[: int(bw / 7)] + "…"
            parts.append(
                f'<text x="{bx + 4:.1f}" y="{by + 14:.1f}" class="box-label">'
                f"{_esc(short)}</text>"
            )
    parts.append("</svg>")
    return "".join(parts)


def _worker_balance(entries: List[Dict[str, Any]], *, last: int = 12) -> str:
    sharded = [
        entry
        for entry in entries
        if isinstance((entry.get("extra") or {}).get("worker_expansions"), dict)
        and (entry.get("extra") or {}).get("worker_expansions")
    ]
    if not sharded:
        return (
            "<p class='empty'>(no sharded runs — run with --workers N to "
            "populate this section)</p>"
        )
    sharded = sharded[-last:]
    width, bar_h, gap, pad_l, pad_r = 860, 22, 6, 230, 10
    height = len(sharded) * (bar_h + gap) + gap
    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="per-worker expansion balance">'
    ]
    usable = width - pad_l - pad_r
    for row, entry in enumerate(sharded):
        expansions: Dict[str, Any] = entry["extra"]["worker_expansions"]
        counts = [
            (str(worker), float(count))
            for worker, count in sorted(
                expansions.items(), key=lambda kv: str(kv[0])
            )
            if isinstance(count, (int, float))
        ]
        total = sum(c for _, c in counts) or 1.0
        y = gap + row * (bar_h + gap)
        label = (
            f"{(entry.get('scheme') or {}).get('name', '?')} · "
            f"{entry.get('run_id', '?')[:16]}"
        )
        parts.append(
            f'<text x="{pad_l - 8}" y="{y + bar_h - 6}" class="tick" '
            f'text-anchor="end">{_esc(label)}</text>'
        )
        x = float(pad_l)
        for index, (worker, count) in enumerate(counts):
            seg = usable * count / total
            color = PALETTE[index % len(PALETTE)]
            share = 100.0 * count / total
            parts.append(
                f'<rect x="{x:.1f}" y="{y}" width="{max(seg, 0.5):.1f}" '
                f'height="{bar_h}" fill="{color}" class="cell">'
                f"<title>worker {_esc(worker)}: {int(count)} expansions "
                f"({share:.1f}%)</title></rect>"
            )
            x += seg
    parts.append("</svg>")
    return "".join(parts)


# ----------------------------------------------------------------------
# Page assembly
# ----------------------------------------------------------------------

_CSS = """
:root { color-scheme: light; }
body { font: 14px/1.5 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 0 auto; max-width: 920px; padding: 24px; color: #212121;
       background: #fafafa; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; border-bottom: 1px solid #e0e0e0;
     padding-bottom: 4px; }
.subtitle { color: #757575; margin: 0 0 16px; }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card { background: #fff; border: 1px solid #e0e0e0; border-radius: 6px;
        padding: 10px 14px; min-width: 110px; }
.card-label { font-size: 11px; text-transform: uppercase; color: #9e9e9e; }
.card-value { font-size: 15px; font-weight: 600; }
svg { width: 100%; height: auto; background: #fff; border: 1px solid #e0e0e0;
      border-radius: 6px; }
.axis { stroke: #bdbdbd; stroke-width: 1; }
.tick { font-size: 11px; fill: #757575; }
.box-label { font-size: 11px; fill: #fff; }
.cell:hover { opacity: 0.8; }
.legend { margin-top: 6px; }
.chip { color: #fff; border-radius: 4px; padding: 1px 8px; font-size: 12px;
        margin-right: 6px; }
table { border-collapse: collapse; width: 100%; background: #fff;
        border: 1px solid #e0e0e0; border-radius: 6px; }
th, td { text-align: left; padding: 6px 10px; border-bottom: 1px solid #eee; }
th { font-size: 12px; text-transform: uppercase; color: #757575; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.empty { color: #9e9e9e; font-style: italic; }
footer { margin-top: 32px; color: #9e9e9e; font-size: 12px; }
"""


def render_dashboard(
    entries: List[Dict[str, Any]],
    *,
    title: str = "rpcheck run ledger",
    source: Optional[str] = None,
) -> str:
    """The complete dashboard HTML for a list of ledger entries."""
    generated = time.strftime("%Y-%m-%d %H:%M:%S", time.localtime())
    subtitle_bits = [f"{len(entries)} runs", f"generated {generated}"]
    if source:
        subtitle_bits.insert(0, source)
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>{_esc(title)}</title>
<style>{_CSS}</style>
</head>
<body>
<h1>{_esc(title)}</h1>
<p class="subtitle">{_esc(" · ".join(subtitle_bits))}</p>
{_summary_cards(entries)}
<h2>Runs over time</h2>
{_runs_over_time_svg(entries)}
<h2>Procedures</h2>
{_procedures_table(entries)}
<h2>Span self-time (aggregated across runs)</h2>
{_treemap_svg(entries)}
<h2>Per-worker expansion balance (sharded runs)</h2>
{_worker_balance(entries)}
<footer>rpcheck-ledger/1 · rendered offline, no external resources</footer>
</body>
</html>
"""
