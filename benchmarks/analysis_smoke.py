"""Full-analyzer smoke on the 300,002-state sparse tiered instance.

Runs every analyzer pass — no R203 size skips allowed — over the largest
instance the scalability experiments use, then solves the RA-Bound (Eq. 5)
on it through :func:`repro.bounds.ra_bound.ra_bound_vector`, the sparse
front door the controllers and the policy daemon use at this scale.  It
asserts six things:

* **completeness**: the report contains zero ``R203`` findings, i.e. the
  sparse-native passes (CSR reachability, hash-grouped duplicate
  detection, ``csgraph`` SCC labels, the sparse transient-state solve)
  all ran to completion;
* **time**: the analysis itself finishes under a wall-clock ceiling
  (generous — the pass suite takes a few seconds; the ceiling exists to
  catch an accidental quadratic scan, which is minutes, not seconds);
* **memory**: peak RSS stays under a ceiling that a single densified
  ``|S| x |S|`` matrix (~720 GB at 300k states — any attempt dies by
  allocation, but even a dense ``|A| x |S|`` reward tensor is ~360 GB)
  could never fit, so no pass densifies anything;
* **RA-Bound**: the solve returns a finite, non-positive value for every
  state;
* **triangular solve**: the RA-Bound's transient block was solved by one
  sparse triangular solve, not factorised by SuperLU — the instance's
  transient states form no cycle, so a fall-back to LU means the
  strong-component ordering of
  :func:`repro.mdp.linear_solvers.solve_transient_block` broke;
* **one analyzer**: the dense EMN model and its
  ``convert_backend(..., "sparse")`` twin get the same report, finding for
  finding — a dense input is converted to the containers before any pass
  runs, so the two must agree exactly.

The exit-1 analyzer verdict is expected: the instance's expected
random-policy absorption time is ~|A| steps, so R105 legitimately warns
that the RA-Bound is loose — that is a property of the model, not an
analyzer failure, and the smoke treats warnings as success.

Usage::

    python -m benchmarks.analysis_smoke
    python -m benchmarks.analysis_smoke --replicas 10000 --max-seconds 30
"""

from __future__ import annotations

import argparse
import resource
import time

import numpy as np

from repro.analysis import analyze
from repro.bounds.ra_bound import ra_bound_vector
from repro.obs.telemetry import session
from repro.recovery.model import convert_backend
from repro.systems.emn import build_emn_system
from repro.systems.tiered import build_tiered_system

#: Replicas per tier: 3 tiers -> 2 + 2 * 3 * 50,000 = 300,002 states.
DEFAULT_REPLICAS = 50_000

#: Wall-clock ceiling for the analyze() call itself (seconds).
DEFAULT_MAX_SECONDS = 60.0

#: Peak-RSS ceiling.  The sparse analysis run peaks well under 1 GB; any
#: densification at 300k states is hundreds of GB, so the ceiling cleanly
#: separates "sparse-native" from "densified somewhere".
DEFAULT_MAX_RSS_MB = 2_048


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux ru_maxrss is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_smoke(replicas_per_tier: int) -> dict:
    """Build the sparse tiered instance and run the full analyzer on it."""
    started = time.perf_counter()
    system = build_tiered_system(
        replicas=(replicas_per_tier,) * 3, backend="sparse"
    )
    model = system.model
    build_seconds = time.perf_counter() - started
    assert model.pomdp.backend.is_sparse, "tiered build did not select sparse"

    started = time.perf_counter()
    report = analyze(model)
    analyze_seconds = time.perf_counter() - started

    skipped = [d for d in report.findings if d.code == "R203"]
    assert not skipped, "size-cutoff skips on the acceptance instance:\n" + (
        "\n".join(d.format() for d in skipped)
    )
    assert not report.has_errors, (
        "the shipped tiered instance must be error-free:\n" + report.format()
    )

    started = time.perf_counter()
    with session() as telemetry:
        ra_bound = ra_bound_vector(model.pomdp)
    ra_seconds = time.perf_counter() - started
    assert np.all(np.isfinite(ra_bound)) and np.all(ra_bound <= 0.0), (
        "the RA-Bound must be finite and non-positive on every state"
    )
    factorisations = {
        name.rpartition(".")[2]: count
        for name, count in telemetry.counters.items()
        if name.startswith("solver.factorisation.")
    }
    if factorisations != {"triangular": 1}:
        raise SystemExit(
            "the RA-Bound's transient block must take one triangular solve, "
            f"got factorisations {factorisations}: the strong-component "
            "order of solve_transient_block no longer makes it triangular"
        )
    return {
        "n_states": model.pomdp.n_states,
        "n_actions": model.pomdp.n_actions,
        "build_seconds": build_seconds,
        "analyze_seconds": analyze_seconds,
        "ra_seconds": ra_seconds,
        "factorisations": factorisations,
        "findings": {d.code for d in report.findings},
    }


def check_dense_sparse_reports() -> int:
    """Analyze dense EMN and its sparse twin; fail unless the reports agree."""
    dense = build_emn_system().model
    sparse = convert_backend(dense, "sparse")
    reports = [analyze(model).findings for model in (dense, sparse)]
    if reports[0] != reports[1]:
        raise SystemExit(
            "the dense EMN model and its sparse twin analyze differently:\n"
            + "\n".join(
                f"  dense:  {a.format()}\n  sparse: {b.format()}"
                for a, b in zip(*reports)
                if a != b
            )
            + f"\n  ({len(reports[0])} vs {len(reports[1])} findings)"
        )
    return len(reports[0])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="analysis-smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--replicas", type=int, default=DEFAULT_REPLICAS, metavar="R",
        help="replicas per tier (3 tiers; default 50,000 -> 300,002 states)",
    )
    parser.add_argument(
        "--max-seconds", type=float, default=DEFAULT_MAX_SECONDS, metavar="S",
        help="wall-clock ceiling for the analyze() call",
    )
    parser.add_argument(
        "--max-rss-mb", type=float, default=DEFAULT_MAX_RSS_MB, metavar="MB",
        help="peak-RSS ceiling; exceeding it means a pass densified",
    )
    args = parser.parse_args(argv)

    findings = check_dense_sparse_reports()
    print(
        f"dense EMN and its sparse twin: the same {findings} finding(s)"
    )
    report = run_smoke(args.replicas)
    rss = peak_rss_mb()
    print(
        f"analyzer smoke: |S|={report['n_states']:,} "
        f"|A|={report['n_actions']:,}, build {report['build_seconds']:.1f}s, "
        f"full analysis {report['analyze_seconds']:.1f}s "
        f"(codes {sorted(report['findings'])}), RA-Bound solve "
        f"{report['ra_seconds']:.2f}s {report['factorisations']}, "
        f"peak RSS {rss:.0f} MB"
    )
    if report["analyze_seconds"] > args.max_seconds:
        raise SystemExit(
            f"analysis took {report['analyze_seconds']:.1f}s, over the "
            f"{args.max_seconds:.0f}s ceiling — a pass has gone super-linear"
        )
    if rss > args.max_rss_mb:
        raise SystemExit(
            f"peak RSS {rss:.0f} MB exceeded the {args.max_rss_mb:.0f} MB "
            "ceiling — an analysis pass is densifying the model"
        )
    print(
        f"within the {args.max_seconds:.0f}s / {args.max_rss_mb:.0f} MB "
        "ceilings, zero R203 skips"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
