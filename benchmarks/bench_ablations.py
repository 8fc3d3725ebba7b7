"""Ablation benchmarks (experiment E7 in DESIGN.md).

Sweeps the paper motivates but does not tabulate: the operator response
time ``t_op`` (Section 3.1 predicts more aggressive recovery and rarer
early termination as it grows), the bounded controller's lookahead depth
(quality vs decision latency), and path-monitor coverage (the
coverage/accuracy trade-off from the introduction).
"""

import pytest

from benchmarks.conftest import bench_injections
from repro.controllers.bootstrap import bootstrap_bounds
from repro.controllers.bounded import BoundedController
from repro.sim.campaign import run_campaign
from repro.systems.emn import MONITOR_DURATION, build_emn_system
from repro.systems.faults import FaultKind

SEED = 7


def _bounded_campaign(system, injections, depth=1):
    bound_set, _ = bootstrap_bounds(
        system.model, iterations=10, depth=2, variant="average", seed=0
    )
    controller = BoundedController(
        system.model, depth=depth, bound_set=bound_set,
        refine_min_improvement=1.0,
    )
    return run_campaign(
        controller,
        fault_states=system.fault_states(FaultKind.ZOMBIE),
        injections=injections,
        seed=SEED,
        monitor_tail=MONITOR_DURATION,
    )


@pytest.mark.parametrize("t_op", [600.0, 21_600.0, 86_400.0])
def test_operator_response_time_sweep(benchmark, t_op):
    """E7a: t_op controls the terminate-early economics (Section 3.1)."""
    system = build_emn_system(operator_response_time=t_op)
    injections = bench_injections(50)
    result = benchmark.pedantic(
        lambda: _bounded_campaign(system, injections), rounds=1, iterations=1
    )
    summary = result.summary
    benchmark.extra_info.update(
        {
            "t_op": t_op,
            "cost": round(summary.cost, 2),
            "monitor_calls": round(summary.monitor_calls, 2),
            "early_terminations": summary.early_terminations,
        }
    )
    if t_op >= 21_600.0:
        # With a 6h+ response time the controller must never walk away
        # from a live fault (the paper's Table 1 observation).
        assert summary.early_terminations == 0


@pytest.mark.parametrize("depth", [1, 2])
def test_lookahead_depth_sweep(benchmark, emn_system, depth):
    """E7b: decision quality vs latency across lookahead depths."""
    injections = bench_injections(30 if depth == 1 else 10)
    result = benchmark.pedantic(
        lambda: _bounded_campaign(emn_system, injections, depth=depth),
        rounds=1,
        iterations=1,
    )
    summary = result.summary
    assert summary.unrecovered == 0
    benchmark.extra_info.update(
        {
            "depth": depth,
            "cost": round(summary.cost, 2),
            "algorithm_time_ms": round(summary.algorithm_time_ms, 2),
        }
    )


@pytest.mark.parametrize("depth", [1, 2])
def test_branch_and_bound_pruning(benchmark, emn_system, depth):
    """E7d: upper-bound pruning (the paper's future work) vs plain lookahead.

    Records the fraction of action expansions the sawtooth upper bound
    proves unnecessary; at depth 2 the pruning typically removes well over
    half of them.
    """
    from repro.controllers.branch_and_bound import BranchAndBoundController
    from repro.obs.telemetry import Telemetry, activated

    injections = bench_injections(20 if depth == 1 else 8)

    def run():
        controller = BranchAndBoundController(
            emn_system.model, depth=depth, refine_min_improvement=1.0
        )
        telemetry = Telemetry()
        with activated(telemetry):
            result = run_campaign(
                controller,
                fault_states=emn_system.fault_states(FaultKind.ZOMBIE),
                injections=injections,
                seed=SEED,
                monitor_tail=MONITOR_DURATION,
            )
        return telemetry.counters, result

    counters, result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.summary.unrecovered == 0
    pruned = counters["controller.pruned_actions"]
    total = counters["controller.expanded_actions"] + pruned
    benchmark.extra_info.update(
        {
            "depth": depth,
            "pruned_fraction": round(pruned / total, 3),
            "cost": round(result.summary.cost, 2),
        }
    )


@pytest.mark.parametrize("coverage", [0.5, 1.0])
def test_monitor_coverage_sweep(benchmark, coverage):
    """E7c: worse path-monitor coverage slows diagnosis and raises cost."""
    system = build_emn_system(path_monitor_coverage=coverage)
    injections = bench_injections(50)
    result = benchmark.pedantic(
        lambda: _bounded_campaign(system, injections), rounds=1, iterations=1
    )
    summary = result.summary
    assert summary.unrecovered == 0
    benchmark.extra_info.update(
        {
            "coverage": coverage,
            "cost": round(summary.cost, 2),
            "monitor_calls": round(summary.monitor_calls, 2),
        }
    )
