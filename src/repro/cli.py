"""``rpcheck`` — command-line analysis of RP programs.

The stand-in for the tool layer the paper describes ("software tools for
the analysis of RP programs … connected to the RP compiler"): parse a
program, compile it to its scheme, and run the Section 3 analyses.

Usage::

    rpcheck PROGRAM.rp                  # full report
    rpcheck PROGRAM.rp --dot out.dot    # also emit the scheme as DOT
    rpcheck PROGRAM.rp --node q5        # node reachability for one node
    rpcheck PROGRAM.rp --mutex q1,q2    # mutual exclusion of two nodes
    rpcheck PROGRAM.rp --run            # execute (fully concrete programs)
    rpcheck PROGRAM.rp --trace t.jsonl  # record a span trace (JSONL)
    rpcheck PROGRAM.rp --metrics m.json # dump the metrics registry as JSON
    rpcheck PROGRAM.rp --deadline 5     # wall-clock budget (seconds)
    rpcheck PROGRAM.rp --mem-limit 512  # memory budget (MiB)
    rpcheck PROGRAM.rp --checkpoint c.json   # save resumable state
    rpcheck PROGRAM.rp --resume c.json       # continue a saved run
    rpcheck PROGRAM.rp --ledger runs.jsonl   # append this run to a ledger
    rpcheck PROGRAM.rp --workers 4           # sharded parallel exploration
    rpcheck serve --socket /tmp/rp.sock      # warm-session analysis daemon
    rpcheck client --socket /tmp/rp.sock boundedness --file PROGRAM.rp
    rpcheck report t.jsonl              # self-time tree + hot spans
    rpcheck report t.jsonl --format json     # machine-readable span tree
    rpcheck timeline t.jsonl            # per-worker gantt of a sharded run
    rpcheck timeline t.jsonl -o t.svg        # same, as a standalone SVG
    rpcheck history --ledger runs.jsonl      # tail/filter the run ledger
    rpcheck history --compact 50             # keep newest 50 runs per scheme
    rpcheck diff RUN_A RUN_B --ledger runs.jsonl  # compare two runs
    rpcheck flamegraph t.jsonl          # collapsed stacks for flamegraph.pl
    rpcheck flamegraph P.rp --sample 97 # sampling-profiler flamegraph
    rpcheck dashboard -o out.html       # self-contained ledger dashboard

Budgeted runs degrade gracefully: when the deadline or memory ceiling is
hit, finished analyses keep their verdicts, unfinished ones report
``inconclusive``, and ``--checkpoint`` captures the explored prefix so a
later ``--resume`` run continues instead of restarting.

Every analysis run carries a **flight recorder** — a bounded ring buffer
of recent spans/events.  With a ledger configured (``--ledger`` or the
``RPCHECK_LEDGER`` environment variable), the run is appended to the
append-only ``rpcheck-ledger/1`` history, and any incident — budget
exhaustion, detected corruption, an unexpected crash — dumps a
``rpcheck-flight/1`` diagnostic bundle next to the ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from .analysis import AnalysisSession
from .api import AnalysisRequest, execute
from .core.dot import scheme_to_dot
from .errors import RPError
from .interp import run_program
from .lang import compile_source
from .obs import (
    FlightRecorder,
    JsonlSink,
    Ledger,
    LedgerSink,
    TeeSink,
    Tracer,
    default_ledger_path,
    diff_entries,
    load_records,
    render_diff,
    render_report,
    report_as_dict,
    resolve_entry,
    scheme_fingerprint,
)
from .obs.diff import DEFAULT_SPAN_FLOOR_SECONDS, DEFAULT_SPAN_THRESHOLD_PCT
from .obs.export import OTLP_ENV, OtlpJsonSink
from .obs.ledger import DEFAULT_LEDGER_NAME
from .obs.report import build_tree, collapse_stacks


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpcheck",
        description="analyse recursive-parallel (RP) programs",
        epilog="subcommands: rpcheck serve | client | report | timeline | "
        "history | diff | flamegraph | dashboard (each accepts --help)",
    )
    parser.add_argument("program", help="path to an RP source file ('-' for stdin)")
    parser.add_argument("--dot", metavar="FILE", help="write the scheme as DOT")
    parser.add_argument("--node", metavar="NODE", help="check node reachability")
    parser.add_argument(
        "--mutex", metavar="A,B", help="check mutual exclusion of two nodes"
    )
    parser.add_argument(
        "--run", action="store_true", help="execute a fully concrete program"
    )
    parser.add_argument(
        "--races",
        action="store_true",
        help="report write conflicts per global variable (§5.3)",
    )
    parser.add_argument(
        "--optimize",
        action="store_true",
        help="report the effect of the scheme optimiser",
    )
    parser.add_argument(
        "--json", metavar="FILE", help="write the scheme as JSON"
    )
    parser.add_argument(
        "--lint", action="store_true", help="run the static lints"
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=20_000,
        metavar="N",
        help="state budget for the semi-decision procedures (default 20000)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="exploration worker processes (default 1 = sequential; N>1 "
        "shards successor computation across a multiprocessing pool with "
        "identical verdicts — see docs/performance.md)",
    )
    parser.add_argument(
        "--max-worker-restarts",
        type=int,
        default=None,
        metavar="N",
        help="worker respawns tolerated before a sharded run degrades to "
        "sequential exploration (default: engine default; see "
        "docs/robustness.md)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print the analysis session's counters (states, caches, timings)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record a span/event trace of the analyses as JSONL "
        "(inspect with 'rpcheck report FILE')",
    )
    parser.add_argument(
        "--trace-format",
        choices=("jsonl", "otlp"),
        default="jsonl",
        help="format of the --trace file: native JSONL records (jsonl, "
        "default) or OTLP/JSON export requests (otlp) for standard "
        "collectors",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the session's metrics registry as JSON",
    )
    parser.add_argument(
        "--ledger",
        metavar="FILE",
        help="append this run to an rpcheck-ledger/1 JSONL run history "
        "(default: the RPCHECK_LEDGER environment variable); incidents "
        "dump flight-recorder bundles next to the ledger",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget; analyses left unfinished when it expires "
        "are reported inconclusive instead of running on",
    )
    parser.add_argument(
        "--mem-limit",
        type=float,
        metavar="MIB",
        help="memory ceiling in MiB (sampled periodically during analysis)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="FILE",
        help="write a resumable snapshot of the explored state space after "
        "the run (finished or not)",
    )
    parser.add_argument(
        "--resume",
        metavar="FILE",
        help="continue from a snapshot written by --checkpoint "
        "(the program must compile to the same scheme)",
    )
    return parser


# ----------------------------------------------------------------------
# Subcommands: report / history / diff / flamegraph
# ----------------------------------------------------------------------


def _build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpcheck report",
        description="summarise a JSONL trace: self-time tree and hot spans",
    )
    parser.add_argument("trace", help="path to a trace written by --trace")
    parser.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="K",
        help="how many hot spans to list (default 10)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human tree (text) or the rpcheck-report/1 "
        "JSON payload (json)",
    )
    return parser


def _report_main(argv: List[str]) -> int:
    args = _build_report_parser().parse_args(argv)
    try:
        records = load_records(args.trace)
    except (OSError, ValueError) as error:
        print(f"rpcheck report: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report_as_dict(records, top=args.top), indent=2,
                         default=repr))
    else:
        print(render_report(records, top=args.top))
    return 0


def _build_timeline_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpcheck timeline",
        description="per-worker gantt/waterfall of a sharded exploration "
        "trace: window critical path, straggler and imbalance "
        "attribution (needs a --trace recorded with --workers>1)",
    )
    parser.add_argument("trace", help="path to a trace written by --trace")
    parser.add_argument(
        "-o",
        "--out",
        metavar="FILE",
        help="write a standalone SVG to FILE instead of the terminal view",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the rpcheck-timeline/1 JSON payload instead",
    )
    parser.add_argument(
        "--width",
        type=int,
        default=72,
        metavar="COLS",
        help="terminal gantt width in columns (default 72)",
    )
    return parser


def _timeline_main(argv: List[str]) -> int:
    from .obs.timeline import (
        build_timeline,
        render_timeline_svg,
        render_timeline_text,
        timeline_as_dict,
    )

    args = _build_timeline_parser().parse_args(argv)
    try:
        records = load_records(args.trace)
    except (OSError, ValueError) as error:
        print(f"rpcheck timeline: {error}", file=sys.stderr)
        return 2
    timeline = build_timeline(records)
    if not timeline.windows:
        print(
            "rpcheck timeline: no parallel.window spans in "
            f"{args.trace} (record the trace with --workers > 1)",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(timeline_as_dict(timeline), indent=2, default=repr))
        return 0
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(render_timeline_svg(timeline, standalone=True))
        except OSError as error:
            print(f"rpcheck timeline: {error}", file=sys.stderr)
            return 2
        print(
            f"timeline: {len(timeline.windows)} windows across "
            f"{len(timeline.workers)} workers written to {args.out}"
        )
        return 0
    print(render_timeline_text(timeline, width=args.width))
    return 0


def _ledger_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger",
        metavar="FILE",
        help="the run-ledger file (default: $RPCHECK_LEDGER, then "
        f"./{DEFAULT_LEDGER_NAME})",
    )


def _open_ledger(path_arg: Optional[str]) -> Ledger:
    return Ledger(default_ledger_path(path_arg) or DEFAULT_LEDGER_NAME)


def _build_history_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpcheck history",
        description="tail and filter the rpcheck-ledger/1 run history",
    )
    _ledger_argument(parser)
    parser.add_argument("--scheme", metavar="NAME", help="only runs of this scheme")
    parser.add_argument("--kind", metavar="KIND", help="only runs of this kind")
    parser.add_argument(
        "--procedure", metavar="NAME", help="only runs answering this procedure"
    )
    parser.add_argument(
        "--tail", type=int, default=20, metavar="N",
        help="show the last N matching runs (default 20; 0 = all)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print matching entries as JSON lines"
    )
    parser.add_argument(
        "--compact",
        type=int,
        metavar="N",
        help="retention: rewrite the ledger keeping only the newest N "
        "entries per scheme fingerprint (atomic in-place rewrite), then "
        "exit; combines with no other option",
    )
    return parser


def _verdict_digest(entry: dict) -> str:
    parts = []
    for name, block in sorted((entry.get("procedures") or {}).items()):
        parts.append(f"{name}={block.get('verdict')}")
    return " ".join(parts) or "-"


def _history_main(argv: List[str]) -> int:
    args = _build_history_parser().parse_args(argv)
    ledger = _open_ledger(args.ledger)
    if args.compact is not None:
        if args.compact < 1:
            print("rpcheck history: --compact needs a positive N", file=sys.stderr)
            return 2
        try:
            kept, dropped = ledger.compact(args.compact)
        except (OSError, ValueError) as error:
            print(f"rpcheck history: {error}", file=sys.stderr)
            return 2
        print(
            f"compacted {ledger.path}: kept {kept} "
            f"(newest {args.compact} per scheme), dropped {dropped}"
        )
        return 0
    try:
        entries = ledger.filter(
            kind=args.kind, scheme=args.scheme, procedure=args.procedure
        )
    except (OSError, ValueError) as error:
        print(f"rpcheck history: {error}", file=sys.stderr)
        return 2
    if args.tail > 0:
        entries = entries[-args.tail:]
    if not entries:
        print(f"(no matching runs in {ledger.path})")
        return 0
    if args.json:
        for entry in entries:
            print(json.dumps(entry, separators=(",", ":"), default=repr))
        return 0
    for entry in entries:
        stamp = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(entry.get("timestamp", 0))
        )
        scheme = (entry.get("scheme") or {}).get("name") or "-"
        wall = (entry.get("totals") or {}).get("wall_seconds")
        wall_text = f"{wall:8.3f}s" if isinstance(wall, (int, float)) else "       -"
        print(
            f"{entry.get('run_id'):<28} {stamp}  {entry.get('kind', '-'):<8} "
            f"{scheme:<18} {entry.get('outcome', '-'):<9} {wall_text}  "
            f"{_verdict_digest(entry)}"
        )
    return 0


def _build_diff_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpcheck diff",
        description="compare two ledger runs: verdict drift, metric deltas, "
        "per-span self-time deltas",
    )
    parser.add_argument("run_a", help="run id, unique prefix, or ledger index")
    parser.add_argument("run_b", help="run id, unique prefix, or ledger index")
    _ledger_argument(parser)
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_SPAN_THRESHOLD_PCT,
        metavar="PCT",
        help="span self-time noise threshold in percent "
        f"(default {DEFAULT_SPAN_THRESHOLD_PCT:g})",
    )
    parser.add_argument(
        "--floor-ms",
        type=float,
        default=DEFAULT_SPAN_FLOOR_SECONDS * 1000,
        metavar="MS",
        help="spans faster than this on both sides are never flagged "
        f"(default {DEFAULT_SPAN_FLOOR_SECONDS * 1000:g}ms)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the structured diff as JSON"
    )
    return parser


def _diff_main(argv: List[str]) -> int:
    args = _build_diff_parser().parse_args(argv)
    ledger = _open_ledger(args.ledger)
    try:
        entries = ledger.entries()
        entry_a = resolve_entry(entries, args.run_a)
        entry_b = resolve_entry(entries, args.run_b)
    except (OSError, ValueError) as error:
        print(f"rpcheck diff: {error}", file=sys.stderr)
        return 2
    diff = diff_entries(
        entry_a,
        entry_b,
        span_threshold_pct=args.threshold,
        span_floor_seconds=args.floor_ms / 1000.0,
    )
    if args.json:
        print(json.dumps(diff.as_dict(), indent=2, default=repr))
    else:
        print(render_diff(diff))
    return 0 if diff.clean else 1


def _build_flamegraph_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpcheck flamegraph",
        description="export collapsed stacks (flamegraph.pl / speedscope "
        "input; values in µs) — from a recorded JSONL trace, or, with "
        "--sample, by profiling a fresh analysis of an RP program",
    )
    parser.add_argument(
        "trace",
        help="path to a trace written by --trace (or, with --sample, "
        "an RP program to analyse under the sampling profiler)",
    )
    parser.add_argument(
        "--out", metavar="FILE", help="write to FILE instead of stdout"
    )
    parser.add_argument(
        "--sample",
        type=int,
        metavar="HZ",
        help="sample Python stacks at HZ while running the full analysis "
        "battery on the program (SIGPROF timer, thread fallback) instead "
        "of collapsing recorded spans",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=20_000,
        metavar="N",
        help="state budget for the profiled analyses (with --sample)",
    )
    return parser


def _sampled_stacks(args) -> List[str]:
    """Run the analysis battery under the sampling profiler."""
    from .obs.profiler import SamplingProfiler

    compiled = compile_source(_read_source(args.trace))
    scheme = compiled.scheme
    profiler = SamplingProfiler(hz=args.sample)
    with profiler:
        session = AnalysisSession(scheme)
        request = AnalysisRequest(
            procedure="analyze",
            fingerprint=scheme_fingerprint(scheme),
            params={"max_states": args.max_states},
        )
        execute(request, scheme=scheme, session=session)
        session.close()
    stats = profiler.stats()
    print(
        f"flamegraph: sampled {stats['samples']} stacks at {args.sample}Hz "
        f"({stats['mode']} mode) over {stats['elapsed_seconds']:.2f}s",
        file=sys.stderr,
    )
    return profiler.collapsed()


def _flamegraph_main(argv: List[str]) -> int:
    args = _build_flamegraph_parser().parse_args(argv)
    try:
        if args.sample:
            lines = _sampled_stacks(args)
        else:
            lines = collapse_stacks(build_tree(load_records(args.trace)))
    except (OSError, ValueError, RPError) as error:
        print(f"rpcheck flamegraph: {error}", file=sys.stderr)
        return 2
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as error:
            print(f"rpcheck flamegraph: {error}", file=sys.stderr)
            return 2
        print(f"flamegraph: {len(lines)} stacks written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _build_dashboard_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rpcheck dashboard",
        description="render the run ledger as one self-contained HTML file "
        "(inline SVG/CSS, no scripts, no network fetches)",
    )
    _ledger_argument(parser)
    parser.add_argument(
        "-o",
        "--out",
        default="rpcheck-dashboard.html",
        metavar="FILE",
        help="output HTML path (default rpcheck-dashboard.html)",
    )
    parser.add_argument(
        "--scheme", metavar="NAME", help="only runs of this scheme"
    )
    parser.add_argument("--kind", metavar="KIND", help="only runs of this kind")
    parser.add_argument(
        "--tail",
        type=int,
        default=200,
        metavar="N",
        help="render the last N matching runs (default 200; 0 = all)",
    )
    parser.add_argument(
        "--title", default="rpcheck run ledger", help="page title"
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="also embed a worker-timeline section rendered from this "
        "JSONL trace (see 'rpcheck timeline')",
    )
    return parser


def _dashboard_main(argv: List[str]) -> int:
    from .obs.dashboard import render_dashboard

    args = _build_dashboard_parser().parse_args(argv)
    ledger = _open_ledger(args.ledger)
    try:
        entries = ledger.filter(kind=args.kind, scheme=args.scheme)
    except (OSError, ValueError) as error:
        print(f"rpcheck dashboard: {error}", file=sys.stderr)
        return 2
    if args.tail > 0:
        entries = entries[-args.tail:]
    timeline_svg = None
    if args.trace:
        from .obs.timeline import build_timeline, render_timeline_svg

        try:
            timeline = build_timeline(load_records(args.trace))
        except (OSError, ValueError) as error:
            print(f"rpcheck dashboard: {error}", file=sys.stderr)
            return 2
        if timeline.windows:
            timeline_svg = render_timeline_svg(timeline)
        else:
            print(
                f"dashboard: no parallel.window spans in {args.trace}; "
                "timeline section skipped"
            )
    page = render_dashboard(
        entries,
        title=args.title,
        source=ledger.path,
        timeline_svg=timeline_svg,
    )
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(page)
    except OSError as error:
        print(f"rpcheck dashboard: {error}", file=sys.stderr)
        return 2
    print(
        f"dashboard: {len(entries)} runs from {ledger.path} "
        f"rendered to {args.out}"
    )
    return 0


def _serve_main(argv: List[str]) -> int:
    from .serve import serve_main  # deferred: pulls in asyncio machinery

    return serve_main(argv)


def _client_main(argv: List[str]) -> int:
    from .serve import client_main

    return client_main(argv)


_SUBCOMMANDS = {
    "report": _report_main,
    "timeline": _timeline_main,
    "history": _history_main,
    "diff": _diff_main,
    "flamegraph": _flamegraph_main,
    "dashboard": _dashboard_main,
    "serve": _serve_main,
    "client": _client_main,
}


# ----------------------------------------------------------------------
# The analysis command
# ----------------------------------------------------------------------


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _summary_line(name: str, summary: dict) -> str:
    """Render one :func:`~repro.obs.ledger.verdict_summary` block."""
    verdict = summary.get("verdict")
    if verdict in ("yes", "no"):
        exactness = "" if summary.get("exact") else " (replay-verified, not a proof)"
        return f"  {name:<18} {verdict:<4} [{summary.get('method')}]{exactness}"
    if verdict == "partial":
        return f"  {name:<18} unknown [{summary.get('resource')} exhausted]"
    return f"  {name:<18} {verdict}"


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        source = _read_source(args.program)
    except OSError as error:
        print(f"rpcheck: {error}", file=sys.stderr)
        return 2
    try:
        compiled = compile_source(source)
    except RPError as error:
        print(f"rpcheck: {error}", file=sys.stderr)
        return 2
    scheme = compiled.scheme
    print(f"program   : {scheme.name}")
    print(f"nodes     : {len(scheme)}  (procedures: {', '.join(scheme.procedures)})")
    print(f"alphabet  : {', '.join(scheme.alphabet()) or '(none)'}")

    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(scheme_to_dot(scheme))
        print(f"dot       : written to {args.dot}")

    # sink composition: the flight recorder is always on; a --trace file
    # and a --ledger aggregation sink join it on one tee
    recorder = FlightRecorder()
    sinks = [recorder]
    otlp_sink = None
    try:
        if args.trace:
            if args.trace_format == "otlp":
                otlp_sink = OtlpJsonSink(args.trace)
                sinks.append(otlp_sink)
            else:
                sinks.append(JsonlSink(args.trace))
        # RPCHECK_OTLP ships telemetry to a collector (file path or
        # http(s) endpoint) without touching the command line
        otlp_target = os.environ.get(OTLP_ENV)
        if otlp_target and otlp_sink is None:
            otlp_sink = OtlpJsonSink(otlp_target)
            sinks.append(otlp_sink)
    except OSError as error:
        print(f"rpcheck: {error}", file=sys.stderr)
        return 2
    ledger_path = default_ledger_path(args.ledger)
    ledger_sink = None
    if ledger_path:
        ledger_sink = LedgerSink(Ledger(ledger_path), kind="analysis")
        sinks.append(ledger_sink)
        # incidents (budget exhaustion, corruption, crashes) dump their
        # diagnostic bundles next to the ledger
        recorder.dump_dir = os.path.dirname(os.path.abspath(ledger_path))
    tracer = Tracer(sinks[0] if len(sinks) == 1 else TeeSink(sinks))

    budget = None
    if args.deadline is not None or args.mem_limit is not None:
        from .robust import Budget

        budget = Budget(
            deadline=args.deadline,
            max_memory_bytes=(
                int(args.mem_limit * 1024 * 1024)
                if args.mem_limit is not None
                else None
            ),
            on_exhaust="partial",
        )

    # one session for the whole invocation: the report, --node and --mutex
    # all share a single exploration of the scheme's reachable fragment
    if args.resume:
        from .robust import CheckpointError, load_checkpoint

        try:
            session = AnalysisSession.restore(
                load_checkpoint(args.resume), scheme=scheme, tracer=tracer,
                workers=args.workers,
                max_worker_restarts=args.max_worker_restarts,
            )
        except (CheckpointError, RPError) as error:
            print(f"rpcheck: cannot resume from {args.resume}: {error}",
                  file=sys.stderr)
            return 2
        print(
            f"resumed   : {args.resume} "
            f"({len(session.graph)} states, {session.expanded_count} expanded)"
        )
    else:
        session = AnalysisSession(
            scheme, tracer=tracer, workers=args.workers,
            max_worker_restarts=args.max_worker_restarts,
        )

    started_wall = time.perf_counter()
    started_cpu = time.process_time()
    procedures: dict = {}
    outcome, run_error, exit_code = "error", None, 3
    try:
        exit_code = _run_analyses(
            args, compiled, scheme, session, tracer, budget, procedures
        )
        outcome = "partial" if budget is not None and budget.exhausted else "ok"
    except Exception as error:
        # post-mortem path: dump a diagnostic bundle (target permitting)
        # and leave an error entry in the ledger before reporting
        from .obs import record_incident

        bundle = record_incident(
            session, error, reason=f"rpcheck crashed: {type(error).__name__}"
        )
        run_error = error
        print(f"rpcheck: analysis failed: {error}", file=sys.stderr)
        if bundle:
            print(f"rpcheck: flight-recorder bundle: {bundle}", file=sys.stderr)
        if not isinstance(error, RPError):
            raise
    finally:
        if ledger_sink is not None:
            try:
                from .api import parallel_ledger_fields

                metrics_snapshot = session.metrics.as_dict()
                entry = ledger_sink.finish(
                    scheme=scheme,
                    procedures=procedures,
                    metrics=metrics_snapshot,
                    budget=budget,
                    outcome=outcome,
                    error=run_error,
                    checkpoint=args.checkpoint,
                    wall_seconds=time.perf_counter() - started_wall,
                    cpu_seconds=time.process_time() - started_cpu,
                    extra=parallel_ledger_fields(args.workers, metrics_snapshot),
                )
                print(f"ledger    : appended {entry['run_id']} to {ledger_path}")
            except (OSError, ValueError) as ledger_error:
                print(f"rpcheck: cannot append ledger entry: {ledger_error}",
                      file=sys.stderr)
        if otlp_sink is not None:
            # one cumulative metrics snapshot rides along with the spans
            otlp_sink.export_metrics(session.metrics)
        session.close()
        tracer.close()
    return exit_code


def _run_analyses(
    args, compiled, scheme, session, tracer, budget, procedures: dict
) -> int:
    """The analysis body of ``main`` (extracted for post-mortem wrapping).

    Fills *procedures* with verdict objects as queries complete, so the
    ledger entry reflects exactly the answers that were reached even when
    a later step dies.
    """
    with tracer.span("rpcheck", program=scheme.name):
        return _run_analyses_body(
            args, compiled, scheme, session, budget, procedures
        )


def _query(args, procedure: str, fingerprint, scheme, session, budget, **params):
    """One :func:`repro.api.execute` call sharing the CLI's session/budget."""
    request = AnalysisRequest(
        procedure=procedure,
        fingerprint=fingerprint,
        params={"max_states": args.max_states, **params},
    )
    return execute(
        request, scheme=scheme, session=session, budget=budget
    )


def _print_query(name: str, response, procedures: dict, key: str) -> int:
    """Print one query response; returns its contribution to the exit code."""
    summary = next(iter(response.procedures.values()), None)
    procedures[key] = summary
    if response.error is not None:
        print(f"  {name}: {response.error['message']}")
        return 1
    if response.verdict == "inconclusive":
        print(f"  {name}: {response.details.get('message', 'inconclusive')}")
        return 1
    print(_summary_line(name, summary or {"verdict": response.verdict}))
    return 0


def _run_analyses_body(
    args, compiled, scheme, session, budget, procedures: dict
) -> int:
    # the CLI is a thin adapter over repro.api.execute — the same
    # evaluation path the serve daemon and library callers use
    fingerprint = scheme_fingerprint(scheme)
    battery = _query(args, "analyze", fingerprint, scheme, session, budget)
    if battery.error is not None:
        raise RPError(battery.error["message"])
    procedures.update(battery.procedures)
    print(f"wait-free : {'yes' if battery.details.get('wait_free') else 'no'}")
    print("analyses:")
    # skip the scheme/nodes/wait-free header lines the report duplicates
    print("\n".join(battery.details.get("render", "").splitlines()[4:]))
    exit_code = 0 if battery.verdict == "conclusive" else 1
    if budget is not None and budget.exhausted is not None:
        hint = " (checkpoint below resumes this run)" if args.checkpoint else ""
        print(
            f"budget    : {budget.exhausted} exhausted after "
            f"{budget.elapsed():.2f}s — partial results above{hint}"
        )
        exit_code = 1

    if args.node:
        response = _query(
            args, "node_reachable", fingerprint, scheme, session, budget,
            node=args.node,
        )
        exit_code |= _print_query(
            f"reach {args.node}", response, procedures, f"reach:{args.node}"
        )

    if args.mutex:
        first, _, second = args.mutex.partition(",")
        response = _query(
            args, "mutually_exclusive", fingerprint, scheme, session, budget,
            first=first.strip(), second=second.strip(),
        )
        exit_code |= _print_query(
            f"mutex {args.mutex}", response, procedures, f"mutex:{args.mutex}"
        )

    if args.lint:
        from .lang.lint import lint

        findings = lint(compiled.program, compiled.scheme)
        print("lints:")
        if findings:
            for warning in findings:
                print(f"  {warning}")
        else:
            print("  (clean)")

    if args.json:
        from .core.serialize import scheme_to_json

        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(scheme_to_json(scheme))
        print(f"json      : written to {args.json}")

    if args.optimize:
        from .lang.optimize import optimize as optimize_scheme

        opt_report = optimize_scheme(scheme)
        print("optimizer:")
        print(f"  dead nodes removed : {opt_report.removed_dead}")
        print(f"  nodes merged       : {opt_report.merged}")
        print(f"  size               : {len(scheme)} -> {len(opt_report.scheme)}")

    if args.races:
        from .analysis.races import race_report

        races = race_report(compiled, max_states=args.max_states)
        print("write conflicts:")
        if not races.variables:
            print("  (no global-variable writers)")
        for entry in races.variables:
            if entry.is_safe:
                print(f"  {entry.variable:<12} safe "
                      f"(writers: {', '.join(entry.writer_nodes) or 'none'})")
            else:
                pairs = ", ".join(f"{a}~{b}" for (a, b), _ in entry.conflicts)
                print(f"  {entry.variable:<12} CONFLICTS: {pairs}")
                exit_code = 1

    session.sync_metrics()

    if args.checkpoint:
        from .robust import CheckpointError, save_checkpoint

        try:
            save_checkpoint(session.checkpoint(), args.checkpoint)
            print(f"checkpoint: written to {args.checkpoint}")
        except (CheckpointError, OSError) as error:
            print(f"rpcheck: cannot write checkpoint: {error}", file=sys.stderr)
            exit_code = 1

    if args.stats:
        print("session stats:")
        for line in session.metrics.render().splitlines():
            print(f"  {line}")

    if args.metrics:
        try:
            with open(args.metrics, "w", encoding="utf-8") as handle:
                json.dump(session.metrics.as_dict(), handle, indent=2, default=repr)
                handle.write("\n")
            print(f"metrics   : written to {args.metrics}")
        except OSError as error:
            print(f"rpcheck: {error}", file=sys.stderr)
            exit_code = 1

    if args.trace:
        print(f"trace     : written to {args.trace}")

    if args.run:
        try:
            memory, visible = run_program(compiled)
            print("execution:")
            print(f"  trace  : {' '.join(visible) or '(silent)'}")
            print(f"  memory : {dict(memory)!r}")
        except RPError as error:
            print(f"rpcheck: execution failed: {error}", file=sys.stderr)
            exit_code = 1

    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
