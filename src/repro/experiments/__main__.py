"""Command-line entry point for the experiment harnesses.

Examples::

    python -m repro.experiments table1 --injections 1000
    python -m repro.experiments table1 --injections 10000 --parallel 4
    python -m repro.experiments fig5a --iterations 20
    python -m repro.experiments fig5b
    python -m repro.experiments bounds
    python -m repro.experiments ablations --injections 200
    python -m repro.experiments --profile table1 --injections 100
    python -m repro.experiments --telemetry run.jsonl table1 --injections 100
    python -m repro.experiments --trace trace.json table1 --injections 100

``--profile`` wraps the selected experiment in :mod:`cProfile` and prints
the hottest functions by cumulative time after the experiment's own output.
``--telemetry PATH`` activates the :mod:`repro.obs` observability layer for
the run and writes its JSONL event stream to ``PATH`` (inspect it with
``python -m repro.obs report PATH``).  ``--trace PATH`` additionally
records hierarchical spans (campaign → episode → decision → tree → leaf
batch / solver / cache) and writes a Chrome ``trace_event`` JSON to
``PATH`` — load it in ``chrome://tracing`` or https://ui.perfetto.dev.
All three flags compose; ``--trace`` works with or without
``--telemetry`` (without it, spans are exported but no JSONL is kept).
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import pstats

from repro.experiments import ablations as ablations_module
from repro.experiments import grid as grid_defaults
from repro.experiments.fig5 import format_fig5a, format_fig5b, run_fig5, shape_checks
from repro.experiments.table1 import format_table1, ordering_checks, run_table1
from repro.obs import session as telemetry_session


def _positive_int(text: str) -> int:
    """argparse type: an integer >= 1 (anything else is a usage error)."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1, got {text!r}"
        )
    return int(text)


def _render_checks(checks: dict[str, bool]) -> str:
    lines = ["", "Claim checks:"]
    for claim, passed in checks.items():
        lines.append(f"  [{'PASS' if passed else 'FAIL'}] {claim}")
    return "\n".join(lines)


def _cmd_fig5(args, which: str) -> None:
    result = run_fig5(iterations=args.iterations, seed=args.seed)
    if which == "a":
        print(format_fig5a(result))
    else:
        print(format_fig5b(result))
    print(_render_checks(shape_checks(result)))


def _cmd_table1(args) -> None:
    result = run_table1(
        injections=args.injections, seed=args.seed, parallel=args.parallel
    )
    print(format_table1(result))
    print(_render_checks(ordering_checks(result)))


def _cmd_bounds(args) -> None:
    outcomes = ablations_module.bounds_comparison()
    print(ablations_module.format_bounds_comparison(outcomes))


def _cmd_grid(args) -> None:
    from repro.experiments.grid import GridSpec, format_grid, run_grid

    spec = GridSpec(
        experiments=tuple(args.experiments),
        controllers=tuple(args.controllers),
        seeds=tuple(args.seeds),
        backends=tuple(args.backends),
        injections=args.injections,
        iterations=args.iterations,
    )

    def on_cell(kind, cell, record) -> None:
        if kind == "skip":
            print(f"[checkpoint] {cell.cell_id}")
        else:
            print(
                f"[run]        {cell.cell_id}  "
                f"fingerprint {record['fingerprint'][:12]}  "
                f"({record['wall_seconds']:.2f}s)"
            )

    try:
        result = run_grid(
            spec, args.store, parallel=args.parallel, on_cell=on_cell
        )
    except KeyboardInterrupt:
        print(
            "\ninterrupted — completed cells are checkpointed; re-run the "
            "same command to resume"
        )
        raise SystemExit(130) from None
    print()
    print(format_grid(result))


def _cmd_robustness(args) -> None:
    from repro.experiments.robustness import format_mismatch, run_mismatch_sweep

    points = run_mismatch_sweep(
        injections=args.injections, seed=args.seed, parallel=args.parallel
    )
    print(format_mismatch(points))


def _cmd_scalability(args) -> None:
    from repro.experiments.scalability import (
        ONLINE_REPLICAS,
        format_online,
        format_scalability,
        run_online,
        run_scalability,
        verify_against_dense,
    )
    from repro.systems.tiered import build_tiered_system

    if args.online:
        replicas = (
            ONLINE_REPLICAS if args.replicas is None else (args.replicas,) * 3
        )
        print(format_online(run_online(replicas=replicas, seed=args.seed)))
        return
    checked = (2, 2, 2)
    n_states = build_tiered_system(checked).model.pomdp.n_states
    discrepancy = verify_against_dense(checked)
    print(f"Sparse-vs-dense RA-Bound check ({n_states} states): "
          f"max discrepancy {discrepancy:.2e}")
    print()
    print(format_scalability(run_scalability()))


def _cmd_ablations(args) -> None:
    print(
        ablations_module.format_summary_sweep(
            "t_op (s)",
            ablations_module.operator_response_sweep(
                injections=args.injections, seed=args.seed
            ),
            "Operator-response-time sweep (bounded controller, depth 1)",
        )
    )
    print()
    print(
        ablations_module.format_summary_sweep(
            "Path coverage",
            ablations_module.monitor_quality_sweep(
                injections=args.injections, seed=args.seed
            ),
            "Path-monitor coverage sweep (bounded controller, depth 1)",
        )
    )
    print()
    profile = ablations_module.bound_computation_cost()
    print(f"RA-Bound solve time: {profile.ra_solve_seconds * 1000:.2f} ms")
    if profile.refine_seconds_by_set_size:
        first_size, first_time = profile.refine_seconds_by_set_size[0]
        last_size, last_time = profile.refine_seconds_by_set_size[-1]
        print(
            "Incremental update time: "
            f"{first_time * 1000:.3f} ms at |B|={first_size} -> "
            f"{last_time * 1000:.3f} ms at |B|={last_size}"
        )


def main(argv: list[str] | None = None) -> None:
    """Parse arguments and dispatch to an experiment."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the experiment under cProfile and print the hottest "
        "functions by cumulative time",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="record a repro.obs JSONL telemetry stream of the run to PATH "
        "(read it back with 'python -m repro.obs report PATH')",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record hierarchical spans and write a Chrome trace_event "
        "JSON to PATH (open in chrome://tracing or Perfetto); implies "
        "telemetry collection even without --telemetry",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_seed(sub):
        sub.add_argument("--seed", type=int, default=2006, help="RNG seed")

    def add_parallel(sub):
        sub.add_argument(
            "--parallel",
            type=int,
            default=None,
            metavar="N",
            help="shard each campaign across N worker processes "
            "(deterministic: same metrics as the serial run)",
        )

    for name in ("fig5a", "fig5b"):
        sub = subparsers.add_parser(name, help=f"Figure 5({name[-1]})")
        sub.add_argument("--iterations", type=_positive_int, default=20)
        add_seed(sub)

    table1 = subparsers.add_parser("table1", help="Table 1 fault injections")
    table1.add_argument("--injections", type=_positive_int, default=1000)
    add_seed(table1)
    add_parallel(table1)

    bounds = subparsers.add_parser("bounds", help="Section 3.1 bound comparison")
    add_seed(bounds)

    ablations = subparsers.add_parser("ablations", help="parameter sweeps")
    ablations.add_argument("--injections", type=_positive_int, default=200)
    add_seed(ablations)

    scalability = subparsers.add_parser(
        "scalability", help="RA-Bound solve time vs state count (Section 4.3)"
    )
    scalability.add_argument(
        "--online",
        action="store_true",
        help="run the bounded controller end-to-end on the 300,002-state "
        "sparse tiered model instead of the off-line solve sweep",
    )
    scalability.add_argument(
        "--replicas",
        type=_positive_int,
        default=None,
        metavar="R",
        help="replicas per tier for --online (default 50000; smaller values "
        "give a quick smoke run)",
    )
    add_seed(scalability)

    robustness = subparsers.add_parser(
        "robustness", help="controller-vs-environment model mismatch sweep"
    )
    robustness.add_argument("--injections", type=_positive_int, default=200)
    add_seed(robustness)
    add_parallel(robustness)

    grid = subparsers.add_parser(
        "grid",
        help="resumable checkpointed sweep: experiments x controllers x "
        "seeds x backends (interrupt freely; re-run to resume)",
    )
    grid.add_argument(
        "store",
        help="results-store directory (created if missing; the checkpoint)",
    )
    grid.add_argument(
        "--experiments",
        nargs="+",
        default=["table1"],
        choices=["table1", "fig5", "robustness"],
        help="experiments to sweep (default: table1)",
    )
    grid.add_argument(
        "--controllers",
        nargs="+",
        default=list(grid_defaults.DEFAULT_CONTROLLERS),
        metavar="NAME",
        help="Table 1 controller rows for table1 cells",
    )
    grid.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[2006],
        metavar="SEED",
        help="campaign seeds (one cell per seed)",
    )
    grid.add_argument(
        "--backends",
        nargs="+",
        default=["dense"],
        choices=["dense", "sparse"],
        help="model backends (one cell per backend; dense-only "
        "controllers skip their sparse cells)",
    )
    grid.add_argument(
        "--injections",
        type=_positive_int,
        default=200,
        help="injections per campaign cell (table1/robustness)",
    )
    grid.add_argument(
        "--iterations",
        type=_positive_int,
        default=10,
        help="bootstrap iterations per fig5 cell",
    )
    add_parallel(grid)

    args = parser.parse_args(argv)
    commands = {
        "fig5a": lambda: _cmd_fig5(args, "a"),
        "fig5b": lambda: _cmd_fig5(args, "b"),
        "table1": lambda: _cmd_table1(args),
        "bounds": lambda: _cmd_bounds(args),
        "ablations": lambda: _cmd_ablations(args),
        "scalability": lambda: _cmd_scalability(args),
        "robustness": lambda: _cmd_robustness(args),
        "grid": lambda: _cmd_grid(args),
    }
    command = commands[args.command]
    telemetry = None
    with contextlib.ExitStack() as stack:
        if args.telemetry or args.trace:
            telemetry = stack.enter_context(
                telemetry_session(args.telemetry, trace=bool(args.trace))
            )
        if args.profile:
            profiler = cProfile.Profile()
            profiler.enable()
            try:
                command()
            finally:
                profiler.disable()
                print()
                stats = pstats.Stats(profiler)
                stats.sort_stats(pstats.SortKey.CUMULATIVE).print_stats(40)
        else:
            command()
    if args.telemetry:
        print(f"\nTelemetry written to {args.telemetry} "
              f"(python -m repro.obs report {args.telemetry})")
    if args.trace and telemetry is not None:
        from repro.obs.trace import write_chrome_trace

        write_chrome_trace(args.trace, tuple(telemetry.spans))
        print(f"Chrome trace written to {args.trace} "
              "(open in chrome://tracing or https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
