"""Helpers shared by the workloads: statistics, run context, result records."""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Repository root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for model archives, sockets and span dumps.  Every run
#: makes its own subdirectory and removes it before exiting.
WORK_DIR = Path("perfbench") / ".work"

#: Candidate tail percentiles, highest first.  A run reports the highest
#: one that leaves at least :data:`MIN_BEYOND` samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

#: Set-up is repeated this many times per untraced run; ``setup_s`` is the
#: median.
SETUP_REPEATS = 3


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for percentile in TAIL_LADDER:
        beyond = samples - math.ceil(samples * percentile / 100.0)
        if beyond >= MIN_BEYOND:
            return percentile
    return TAIL_LADDER[-1]


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile of ``values`` (numpy's default)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50.0)


def distribution(values_ms) -> dict:
    """Median and tail of one latency sample, with its size and tail rank."""
    values_ms = list(values_ms)
    tail = tail_percentile(len(values_ms))
    return {
        "p50": percentile(values_ms, 50.0),
        "tail": percentile(values_ms, tail),
        "tail_percentile": tail,
        "samples": len(values_ms),
    }


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live child process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def run_context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Where and how a run was made, recorded next to its results."""
    import scipy

    from repro.pomdp.cache import MAX_CACHE_BYTES_ENV, max_cache_bytes

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "max_cache_bytes": max_cache_bytes(),
        "max_cache_bytes_source": (
            "env" if MAX_CACHE_BYTES_ENV in os.environ else "default"
        ),
    }


@dataclass
class Outcome:
    """What one workload run hands back to the command line.

    ``metrics`` maps a metric name to ``(value, unit)``; ``details`` is the
    rest of the record (sample counts, tail percentiles, informational
    figures, the layer report) and is printed above the result line.
    """

    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    details: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def result_line(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }
