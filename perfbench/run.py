"""Run one benchmark workload and print its result as the last output line.

Usage, from the repository root::

    python3 perfbench/run.py --workload table1_bounded --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation of
its own; ``--trace 1`` installs the span wrappers of ``perfbench/spans.py``
and reports the per-layer split instead.  The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
lines above it carry the run's context and details (sample counts, tail
percentiles, informational figures, the layer table).

The seed picks the inputs; ``--seconds`` fixes how much work the run does
(a fixed number of injections or incidents, sized to take about that long),
so two runs with the same arguments do the same work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table1_bounded", "serve_emn", "serve_tiered300k")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import campaign, serve
    from perfbench.common import run_context

    trace = bool(args.trace)
    if args.workload == "table1_bounded":
        outcome = campaign.run(args.seed, campaign.injections_for(args.seconds), trace)
    else:
        outcome = serve.run(
            serve.WORKLOADS[args.workload],
            args.seed,
            serve.incidents_for(serve.WORKLOADS[args.workload], args.seconds),
            trace,
        )
    details = {
        "context": run_context(args.workload, args.seed, args.seconds, trace),
        "failures": outcome.failures,
        **outcome.details,
    }
    print(json.dumps(details, indent=1, sort_keys=True))
    for failure in outcome.failures:
        print(f"run.py: FAILED: {failure}", file=sys.stderr)
    print(json.dumps(outcome.result_line()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
