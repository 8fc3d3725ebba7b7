"""Quickstart: automatic recovery on the paper's EMN e-commerce system.

Builds the Figure 4 deployment model, bootstraps the bounded controller's
lower bounds (Section 4.1), injects a handful of hard-to-diagnose zombie
faults, and prints per-fault recovery metrics — a miniature of the paper's
Table 1 experiment.

Run:  python examples/quickstart.py
"""

from repro import BoundedPolicyEngine, bootstrap_bounds, build_emn_system, run_campaign
from repro.systems import FaultKind
from repro.util import render_table

INJECTIONS = 50
SEED = 2006


def main() -> None:
    # 1. Generate the recovery POMDP for the EMN deployment (14 system
    #    states + terminate state, 10 actions, 128 joint monitor outputs).
    system = build_emn_system()
    print(f"Model: {system.model.pomdp}")
    print(f"Recovery notification: {system.model.recovery_notification}")

    # 2. Bootstrapping phase: refine the RA-Bound on simulated recoveries
    #    before any real fault occurs (the paper uses 10 runs at depth 2).
    bound_set, trace = bootstrap_bounds(
        system.model, iterations=10, depth=2, variant="average", seed=SEED
    )
    print(
        f"Bound at the uniform belief: {-trace.initial_bound:.0f} -> "
        f"{trace.cost_upper_bounds[-1]:.0f} dropped requests "
        f"(|B| = {len(bound_set)})"
    )

    # 3. Online recovery: inject zombie faults (invisible to ping monitors)
    #    and let the bounded controller diagnose and repair them.
    engine = BoundedPolicyEngine(
        system.model, depth=1, bound_set=bound_set, refine_min_improvement=1.0
    )
    result = run_campaign(
        engine,
        fault_states=system.fault_states(FaultKind.ZOMBIE),
        injections=INJECTIONS,
        seed=SEED,
        monitor_tail=5.0,
    )

    summary = result.summary
    print()
    print(
        render_table(
            ["Metric", "Per-fault average"],
            [
                ["Cost (dropped requests)", summary.cost],
                ["Recovery time (s)", summary.recovery_time],
                ["Residual time (s)", summary.residual_time],
                ["Algorithm time (ms)", summary.algorithm_time_ms],
                ["Recovery actions", summary.actions],
                ["Monitor calls", summary.monitor_calls],
            ],
            title=f"Bounded controller over {INJECTIONS} zombie injections",
        )
    )
    print()
    print(
        f"Early terminations: {summary.early_terminations} "
        f"(the controller never quits before the system is repaired)"
    )


if __name__ == "__main__":
    main()
