"""Command-line interface for the observability layer.

Examples::

    python -m repro.obs report run.jsonl        # aggregate + render a run
    python -m repro.obs report run.jsonl --session s3   # one session only
    python -m repro.obs validate run.jsonl      # schema-check a run (CI)
    python -m repro.obs watch /tmp/repro.sock   # live view of a daemon
    python -m repro.obs trace run.jsonl --chrome trace.json \
        --collapsed stacks.txt                  # export trace spans
    python -m repro.obs convergence run.jsonl [--png gap.png]
    python -m repro.obs bench compare OLD NEW --threshold 25
    python -m repro.obs bench store results/ --snapshot BENCH.json

Exit codes follow the ``repro.analysis`` convention throughout: 0 — clean;
1 — diagnostics found (schema problems, benchmark regressions); 2 — usage
or I/O errors (missing file, unknown snapshot schema, and — except for
``validate``, which reports it as a diagnostic — a line that is not JSON).
Empty and header-only telemetry streams are *clean*: a run killed before
its summary leaves a truncated-but-valid file behind, and both ``report``
and ``validate`` treat it as an empty run rather than a corrupt one.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import aggregate_stream, format_report

    try:
        aggregate = aggregate_stream(args.run, session=args.session)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read {args.run}: {error}")
        return 2
    print(format_report(aggregate))
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.obs.schema import validate_stream

    try:
        problems = validate_stream(args.run)
    except OSError as error:
        print(f"cannot read {args.run}: {error}")
        return 2
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print(f"{args.run}: schema-valid telemetry stream")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import (
        read_spans,
        to_collapsed_stacks,
        write_chrome_trace,
    )

    try:
        spans = read_spans(args.run)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read {args.run}: {error}")
        return 2
    if not spans:
        print(f"{args.run}: no span events (was the run traced with --trace?)")
        return 1
    print(f"{args.run}: {len(spans)} spans")
    if args.chrome is not None:
        write_chrome_trace(args.chrome, spans)
        print(f"wrote Chrome trace_event JSON to {args.chrome}")
    if args.collapsed is not None:
        lines = to_collapsed_stacks(spans)
        args.collapsed.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} collapsed stacks to {args.collapsed}")
    return 0


def _cmd_convergence(args: argparse.Namespace) -> int:
    from repro.obs.convergence import format_report, read_refinements, save_png

    try:
        records = read_refinements(args.run)
    except (OSError, json.JSONDecodeError) as error:
        print(f"cannot read {args.run}: {error}")
        return 2
    print(format_report(records), end="")
    if args.png is not None:
        if not records:
            print(f"skipping {args.png}: no refine events to plot")
        elif save_png(records, args.png):
            print(f"wrote convergence plot to {args.png}")
        else:
            print(
                f"skipping {args.png}: matplotlib is not installed "
                "(text report above is complete)"
            )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.obs.bench import (
        BenchFormatError,
        compare,
        format_comparison,
        load_snapshot,
    )

    if args.bench_command == "store":
        return _cmd_bench_store(args)
    try:
        old = load_snapshot(args.old)
        new = load_snapshot(args.new)
    except BenchFormatError as error:
        print(str(error))
        return 2
    result = compare(old, new, threshold_pct=args.threshold)
    print(format_comparison(result), end="")
    return 0 if result.ok else 1


def _cmd_bench_store(args: argparse.Namespace) -> int:
    from repro.obs.bench import canonical_document, format_store, store_snapshot

    if not args.store.is_dir():
        print(f"{args.store}: not a results-store directory")
        return 2
    print(format_store(args.store), end="")
    if args.snapshot is not None:
        snapshot = store_snapshot(args.store)
        document = canonical_document(
            snapshot.metrics,
            generated_by=f"python -m repro.obs bench store {args.store}",
            source_schemas=["repro-grid/v1"],
        )
        args.snapshot.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(
            f"wrote canonical snapshot to {args.snapshot} "
            f"(gate future sweeps with 'bench compare')"
        )
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import sys
    import time

    from repro.exceptions import ServeError
    from repro.obs.live import SnapshotRing, format_watch
    from repro.serve.client import ServiceClient

    ring = SnapshotRing()
    count = 1 if args.once else args.count
    try:
        client = ServiceClient(args.socket, timeout=args.interval + 30.0)
    except OSError as error:
        print(f"cannot connect to {args.socket}: {error}")
        return 2
    polls = 0
    clear = sys.stdout.isatty()
    with client:
        while True:
            try:
                metrics = client.metrics()
                stats = client.stats()
            except (OSError, ServeError) as error:
                print(f"lost the daemon at {args.socket}: {error}")
                return 2
            # One clock, read only here at the CLI edge, stamps the ring.
            ring.push(time.monotonic(), metrics)  # codelint: ignore[R903]
            screen = format_watch(metrics, stats, ring)
            if clear:
                # ANSI clear+home between frames; plain stdout otherwise
                # (piped output stays a readable frame-per-poll log).
                sys.stdout.write("\x1b[2J\x1b[H")
            sys.stdout.write(screen)
            sys.stdout.flush()
            polls += 1
            if count is not None and polls >= count:
                return 0
            time.sleep(args.interval)


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description=(
            "Inspect telemetry JSONL runs and benchmark snapshots "
            "(report / validate / trace / convergence / bench)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    report = subparsers.add_parser("report", help="aggregate and render a run")
    report.add_argument("run", type=Path, help="telemetry JSONL file")
    report.add_argument(
        "--session",
        default=None,
        metavar="ID",
        help="narrow a multi-session daemon stream to one session's "
        "events (unlabelled shared-state events are kept)",
    )

    validate = subparsers.add_parser(
        "validate", help="schema-check a run (exit 1 on problems)"
    )
    validate.add_argument("run", type=Path, help="telemetry JSONL file")

    trace = subparsers.add_parser(
        "trace", help="export recorded spans (Chrome trace / flamegraph)"
    )
    trace.add_argument("run", type=Path, help="telemetry JSONL file")
    trace.add_argument(
        "--chrome",
        type=Path,
        default=None,
        metavar="PATH",
        help="write Chrome trace_event JSON (chrome://tracing, Perfetto)",
    )
    trace.add_argument(
        "--collapsed",
        type=Path,
        default=None,
        metavar="PATH",
        help="write collapsed-stack flamegraph lines (flamegraph.pl input)",
    )

    convergence = subparsers.add_parser(
        "convergence", help="bound-convergence report from refine events"
    )
    convergence.add_argument("run", type=Path, help="telemetry JSONL file")
    convergence.add_argument(
        "--png",
        type=Path,
        default=None,
        metavar="PATH",
        help="additionally write a gap plot (requires matplotlib)",
    )

    bench = subparsers.add_parser(
        "bench", help="benchmark snapshot operations"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_compare = bench_sub.add_parser(
        "compare", help="compare two snapshots for regressions"
    )
    bench_compare.add_argument("old", type=Path, help="baseline snapshot")
    bench_compare.add_argument("new", type=Path, help="candidate snapshot")
    bench_compare.add_argument(
        "--threshold",
        type=float,
        default=25.0,
        metavar="PCT",
        help="allowed directional drift in percent (default: 25)",
    )
    bench_store = bench_sub.add_parser(
        "store",
        help="render a campaign-grid results store as a benchmark "
        "trajectory; --snapshot exports it for 'bench compare'",
    )
    bench_store.add_argument(
        "store", type=Path, help="results-store directory (cells.jsonl)"
    )
    bench_store.add_argument(
        "--snapshot",
        type=Path,
        default=None,
        metavar="PATH",
        help="additionally write a canonical repro-bench/v1 snapshot "
        "(cell fingerprints as exact metrics)",
    )

    watch = subparsers.add_parser(
        "watch",
        help="live terminal view of a running policy daemon "
        "(plain stdout, no curses)",
    )
    watch.add_argument("socket", help="the daemon's unix-socket path")
    watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="seconds between polls (default: 2)",
    )
    watch.add_argument(
        "--count",
        type=int,
        default=None,
        metavar="N",
        help="stop after N polls (default: poll until interrupted)",
    )
    watch.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (same as --count 1)",
    )

    args = parser.parse_args(argv)
    handlers = {
        "report": _cmd_report,
        "validate": _cmd_validate,
        "trace": _cmd_trace,
        "convergence": _cmd_convergence,
        "bench": _cmd_bench,
        "watch": _cmd_watch,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
