"""Benchmarks regenerating Table 1 (experiment E3 in DESIGN.md).

One benchmark per controller row: each runs a zombie-fault injection
campaign with the paper's configuration and records the per-fault averages
(cost, recovery time, residual time, algorithm time, actions, monitor
calls) in the benchmark's extra info, asserting the never-give-up property
along the way.  Row-vs-row ordering claims are asserted in the cross-row
benchmark at the bottom.

Counts default small so the suite stays fast; scale with
``REPRO_BENCH_INJECTIONS`` (the paper uses 10,000; EXPERIMENTS.md reports a
300-injection run of this exact harness).
"""

import pytest

from benchmarks.conftest import bench_injections
from repro.controllers.bounded import BoundedPolicyEngine
from repro.controllers.heuristic import HeuristicPolicyEngine
from repro.controllers.most_likely import MostLikelyPolicyEngine
from repro.controllers.oracle import OraclePolicyEngine
from repro.sim.campaign import run_campaign
from repro.systems.emn import MONITOR_DURATION
from repro.systems.faults import FaultKind

SEED = 2006


def _campaign(engine, emn_system, injections):
    return run_campaign(
        engine,
        fault_states=emn_system.fault_states(FaultKind.ZOMBIE),
        injections=injections,
        seed=SEED,
        monitor_tail=MONITOR_DURATION,
    )


def _record(benchmark, summary):
    benchmark.extra_info.update(
        {
            "cost": round(summary.cost, 2),
            "recovery_time_s": round(summary.recovery_time, 2),
            "residual_time_s": round(summary.residual_time, 2),
            "algorithm_time_ms": round(summary.algorithm_time_ms, 3),
            "actions": round(summary.actions, 3),
            "monitor_calls": round(summary.monitor_calls, 3),
        }
    )
    assert summary.early_terminations == 0
    assert summary.unrecovered == 0


def test_table1_most_likely(benchmark, emn_system):
    """E3 row 1: Bayes diagnosis + cheapest fixing action."""
    injections = bench_injections(100)
    result = benchmark.pedantic(
        lambda: _campaign(
            MostLikelyPolicyEngine(emn_system.model), emn_system, injections
        ),
        rounds=1,
        iterations=1,
    )
    _record(benchmark, result.summary)


@pytest.mark.parametrize("depth", [1, 2])
def test_table1_heuristic(benchmark, emn_system, depth):
    """E3 rows 2-3: heuristic lookahead controllers."""
    injections = bench_injections(60 if depth == 1 else 20)
    result = benchmark.pedantic(
        lambda: _campaign(
            HeuristicPolicyEngine(emn_system.model, depth=depth),
            emn_system,
            injections,
        ),
        rounds=1,
        iterations=1,
    )
    _record(benchmark, result.summary)


def test_table1_heuristic_depth3(benchmark, emn_system):
    """E3 row 4: the depth-3 heuristic — the latency outlier of Table 1."""
    injections = bench_injections(3)
    result = benchmark.pedantic(
        lambda: _campaign(
            HeuristicPolicyEngine(emn_system.model, depth=3),
            emn_system,
            injections,
        ),
        rounds=1,
        iterations=1,
    )
    _record(benchmark, result.summary)


def test_table1_bounded(benchmark, emn_system, bootstrapped_bounds):
    """E3 row 5: the bounded controller (depth 1, bootstrapped 10x depth 2)."""
    injections = bench_injections(100)
    result = benchmark.pedantic(
        lambda: _campaign(
            BoundedPolicyEngine(
                emn_system.model,
                depth=1,
                bound_set=bootstrapped_bounds,
                refine_min_improvement=1.0,
            ),
            emn_system,
            injections,
        ),
        rounds=1,
        iterations=1,
    )
    _record(benchmark, result.summary)


def test_table1_oracle(benchmark, emn_system):
    """E3 row 6: the omniscient oracle — Table 1's floor."""
    injections = bench_injections(100)
    result = benchmark.pedantic(
        lambda: _campaign(
            OraclePolicyEngine(emn_system.model), emn_system, injections
        ),
        rounds=1,
        iterations=1,
    )
    _record(benchmark, result.summary)


def test_table1_orderings(benchmark, emn_system, bootstrapped_bounds):
    """E3 cross-row claims: who wins, on one paired fault sequence."""
    injections = bench_injections(60)

    def run():
        summaries = {}
        engines = {
            "most_likely": MostLikelyPolicyEngine(emn_system.model),
            "heuristic_d1": HeuristicPolicyEngine(emn_system.model, depth=1),
            "bounded": BoundedPolicyEngine(
                emn_system.model,
                depth=1,
                bound_set=bootstrapped_bounds,
                refine_min_improvement=1.0,
            ),
            "oracle": OraclePolicyEngine(emn_system.model),
        }
        for name, engine in engines.items():
            summaries[name] = _campaign(engine, emn_system, injections).summary
        return summaries

    summaries = benchmark.pedantic(run, rounds=1, iterations=1)
    assert summaries["oracle"].cost <= summaries["bounded"].cost
    assert summaries["bounded"].cost < summaries["heuristic_d1"].cost
    assert summaries["bounded"].cost < summaries["most_likely"].cost
    assert (
        summaries["bounded"].recovery_time
        < summaries["heuristic_d1"].recovery_time
    )
    benchmark.extra_info["costs"] = {
        name: round(summary.cost, 2) for name, summary in summaries.items()
    }
