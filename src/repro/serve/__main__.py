"""``python -m repro.serve`` — run the policy daemon.

Loads the model archive once, warm-starts from the persisted bound set
when ``--bounds`` exists (falling back to RA-Bound seeding plus optional
``--bootstrap`` refinement episodes on first launch), then serves
sessions on the unix socket until SIGTERM/SIGINT, checkpointing the
refined bound set on ``--checkpoint-interval`` and once more on the way
down.

Example::

    python -m repro.serve --model runs/emn-model.npz \\
        --socket /tmp/repro.sock --bounds runs/emn-bounds.npz \\
        --checkpoint-interval 60
"""

from __future__ import annotations

import argparse
import sys

from repro.serve.daemon import PolicyDaemon
from repro.serve.service import PolicyService, ServiceConfig
from repro.util.validation import non_negative_int, positive_int


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve recovery-policy sessions over a unix socket.",
    )
    parser.add_argument(
        "--model", required=True, help="recovery-model .npz archive to load"
    )
    parser.add_argument(
        "--socket", default="repro-serve.sock", help="unix socket path to bind"
    )
    parser.add_argument(
        "--bounds",
        default=None,
        help="bound-set archive: warm-start source when present, checkpoint "
        "target always (omitting it disables persistence)",
    )
    parser.add_argument(
        "--checkpoint-interval",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="seconds between automatic checkpoints (0 disables the timer; "
        "shutdown still checkpoints)",
    )
    parser.add_argument(
        "--depth",
        type=positive_int,
        default=1,
        help="lookahead depth of the bounded policy",
    )
    parser.add_argument(
        "--bootstrap",
        type=non_negative_int,
        default=0,
        metavar="N",
        help="cold-start bootstrap episodes before serving (ignored on warm start)",
    )
    parser.add_argument(
        "--seed", type=int, default=2006, help="RNG seed for the bootstrap phase"
    )
    parser.add_argument(
        "--max-vectors",
        type=positive_int,
        default=None,
        help="bound-vector storage limit for cold starts",
    )
    parser.add_argument(
        "--no-refine",
        action="store_true",
        help="freeze the bound set (sessions may still opt in per open)",
    )
    parser.add_argument(
        "--recertify",
        action="store_true",
        help="force the R3xx soundness sweep on warm start even when the "
        "certificate sidecar matches",
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="how long shutdown waits for live sessions to finish",
    )
    parser.add_argument(
        "--metrics-jsonl",
        default=None,
        metavar="PATH",
        help="append periodic live-metrics snapshots (repro-obs/v3 "
        "metrics_snapshot events) to this JSONL file",
    )
    parser.add_argument(
        "--metrics-interval",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="seconds between flushed metrics snapshots (default: 10)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="log a slow_decision event for decisions slower than this "
        "many milliseconds (with the span subtree when --trace is on)",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record hierarchical trace spans on the service telemetry",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    config = ServiceConfig(
        model_path=args.model,
        socket_path=args.socket,
        bounds_path=args.bounds,
        checkpoint_interval=args.checkpoint_interval,
        depth=args.depth,
        refine_online=not args.no_refine,
        bootstrap_iterations=args.bootstrap,
        bootstrap_seed=args.seed,
        max_vectors=args.max_vectors,
        recertify=args.recertify,
        drain_timeout=args.drain_timeout,
        slow_decision_seconds=(
            None if args.slow_ms is None else args.slow_ms / 1000.0
        ),
        metrics_path=args.metrics_jsonl,
        metrics_interval=args.metrics_interval,
        trace=args.trace,
    )
    service = PolicyService(config)
    start = "warm" if service.started_warm else "cold"
    print(
        f"repro.serve: {start} start in {service.startup_seconds:.3f}s, "
        f"{service.engine.bound_set.vectors.shape[0]} bound vectors, "
        f"listening on {config.socket_path}",
        flush=True,
    )
    stragglers = PolicyDaemon(service).run()
    if stragglers:
        print(
            f"repro.serve: drain timed out with {stragglers} session(s) live",
            file=sys.stderr,
            flush=True,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
