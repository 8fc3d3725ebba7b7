"""Run every workload, untraced and traced, and print one report.

Usage, from the repository root::

    python3 perfbench/summary.py --seed 1 --seconds 15

Each workload runs twice through ``run.py`` (a fresh process each time, so
peak memory is the workload's own): untraced for the end-to-end metrics,
traced for the per-layer split.  The report lists every end-to-end metric
by name and unit with its sample count and tail percentile, the figures
recorded for information (observe round trip, the daemon's own
``serve.session_decide`` quantiles, failed share), the per-layer metrics,
the tracing overhead, and whether the split matches the workload design
set out in ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("table1_bounded", "serve_emn", "serve_tiered300k")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads("\n".join(lines[:-1]))


def _value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def design_checks(traced: dict[str, tuple[dict, dict]], untraced) -> dict[str, bool]:
    """The split the workloads were designed to produce."""
    checks = {}
    if "table1_bounded" in traced:
        setup = traced["table1_bounded"][1]["setup_layers"]
        largest = max(setup, key=lambda layer: setup[layer]["self_ms"])
        checks["d2 expansion is the largest share of table1_bounded set-up"] = (
            largest == "pomdp.tree.expand.d2"
        )
    if "serve_emn" in traced:
        result = traced["serve_emn"][0]
        checks["refinement is the largest layer inside serve_emn decisions"] = _value(
            result, "bounds.refine.self_ms"
        ) > max(
            _value(result, "pomdp.tree.d1_self_ms"),
            _value(result, "bounds.value_batch.self_ms"),
            _value(result, "controllers.bounded.self_ms"),
        )
    if "serve_tiered300k" in traced:
        result = traced["serve_tiered300k"][0]
        checks["fused expansion is the largest layer inside serve_tiered300k decisions"] = (
            _value(result, "pomdp.tree.fused_share") == 1.0
            and _value(result, "pomdp.tree.d1_self_ms")
            > _value(result, "controllers.bounded.self_ms")
            + _value(result, "pomdp.cache.lookup_ms")
        )
    if {"serve_emn", "serve_tiered300k"} <= set(traced):
        shares = {}
        for name in ("serve_emn", "serve_tiered300k"):
            result = traced[name][0]
            overhead = _value(result, "serve.transport_ms") + _value(result, "serve.protocol.self_ms")
            shares[name] = overhead / _value(untraced[name][0], "decide_ms.p50")
        checks["transport + protocol is a larger share of decide p50 on serve_emn"] = (
            shares["serve_emn"] > shares["serve_tiered300k"]
        )
    return checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    names = args.workload or list(WORKLOADS)

    untraced = {name: run(name, args.seed, args.seconds, 0) for name in names}
    traced = {name: run(name, args.seed, args.seconds, 1) for name in names}
    for name in names:
        result, details = untraced[name]
        print(f"== {name}  (seed {args.seed}, {args.seconds:g} s)")
        print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for failure in details["failures"]:
            print(f"  FAILED: {failure}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
        print(f"  {'failed_share':32s} {details['failed_share']:14.6g} ratio")
        algo = details["algo_ms_per_fault"]
        print(f"  {'faults':32s} {algo['samples']:14d} tail=p{algo['tail_percentile']:g}")
        if "rtt_ms" in details:
            decide, observe = details["rtt_ms"]["decide"], details["rtt_ms"]["observe"]
            print(f"  {'decide_rtt_ms.tail':32s} {decide['tail']:14.6g} ms (p{decide['tail_percentile']:g} of {decide['samples']})")
            print(f"  {'observe_rtt_ms.p50':32s} {observe['p50']:14.6g} ms")
            daemon = details["daemon"]
            print(f"  {'daemon session_decide p50/p99':32s} {daemon['session_decide_p50_ms']} / {daemon['session_decide_p99_ms']} ms")
        result, _ = traced[name]
        print("  -- per layer (traced run)")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:14.6g} {entry['unit']}")
        overhead = 1.0 - _value(result, "traced.faults_per_s") / _value(untraced[name][0], "faults_per_s")
        print(f"  {'tracing overhead':32s} {overhead:14.3%} of faults_per_s")
    print("== design checks")
    for check, holds in design_checks(traced, untraced).items():
        print(f"  {'ok  ' if holds else 'MISS'} {check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
