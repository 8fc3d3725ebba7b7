"""Benchmarks for the parallel campaign engine (:mod:`repro.sim.parallel`).

Serial vs sharded execution of the same seeded EMN campaign.  The wall
clock is the benchmark; the assertions are the determinism contract — the
campaign fingerprint (everything except the wall-clock ``algorithm_time``)
must be identical whatever the worker count.

Speedup is bounded by the machine: on a single-core runner the parallel
rows measure pure engine overhead.  Counts default small; scale with
``REPRO_BENCH_INJECTIONS``.
"""

import pytest

from benchmarks.conftest import bench_injections
from repro.controllers.most_likely import MostLikelyPolicyEngine
from repro.sim.campaign import run_campaign
from repro.sim.metrics import campaign_fingerprint
from repro.systems.emn import MONITOR_DURATION
from repro.systems.faults import FaultKind

SEED = 2006


def _campaign(emn_system, injections, parallel):
    return run_campaign(
        MostLikelyPolicyEngine(emn_system.model),
        fault_states=emn_system.fault_states(FaultKind.ZOMBIE),
        injections=injections,
        seed=SEED,
        monitor_tail=MONITOR_DURATION,
        parallel=parallel,
    )


def _record_rate(benchmark, injections):
    """Episodes per second, when the benchmark timed its run.

    ``--benchmark-disable`` runs the body once untimed and leaves
    ``benchmark.stats`` unset; the assertions still run.
    """
    if benchmark.stats is not None:
        benchmark.extra_info["episodes_per_second"] = round(
            injections / benchmark.stats.stats.mean, 2
        )


@pytest.fixture(scope="module")
def serial_fingerprint(emn_system):
    """Fingerprint of the serial run, shared by every parallel row."""
    injections = bench_injections(100)
    result = _campaign(emn_system, injections, parallel=None)
    return injections, campaign_fingerprint(result.episodes)


def test_campaign_serial(benchmark, emn_system, serial_fingerprint):
    """Baseline: the in-process episode loop."""
    injections, _ = serial_fingerprint
    result = benchmark.pedantic(
        lambda: _campaign(emn_system, injections, parallel=None),
        rounds=1,
        iterations=1,
    )
    _record_rate(benchmark, injections)
    assert result.summary.episodes == injections


@pytest.mark.parametrize("workers", [2, 4])
def test_campaign_parallel(benchmark, emn_system, serial_fingerprint, workers):
    """Sharded execution must reproduce the serial fingerprint exactly."""
    injections, expected = serial_fingerprint
    result = benchmark.pedantic(
        lambda: _campaign(emn_system, injections, parallel=workers),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["workers"] = workers
    _record_rate(benchmark, injections)
    assert campaign_fingerprint(result.episodes) == expected
