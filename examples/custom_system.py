"""Modelling your own system with the recovery-model builder.

Builds a recovery model for a deployment the paper never saw — a payment
service with a primary/replica database pair behind an API tier — entirely
through the public builder API, lets the library auto-detect whether the
monitor suite provides recovery notification, and runs the bounded
controller against injected faults.

This is the path a downstream user follows to adopt the library: describe
states, actions, and monitors; everything else (Condition 1/2 checks, the
Figure 2 augmentation, RA-Bound seeding, refinement) is automatic.

Run:  python examples/custom_system.py
"""

import numpy as np

from repro import (
    BoundedPolicyEngine,
    RecoveryModelBuilder,
    bootstrap_bounds,
    run_campaign,
)
from repro.util import render_table

SEED = 11


def build_payment_service():
    """A 4-fault-state payment service with imperfect health checks."""
    builder = RecoveryModelBuilder()
    # Cost rates: fraction of payments failing per second in each state.
    builder.add_state("healthy", rate_cost=0.0, null=True)
    builder.add_state("api-hung", rate_cost=1.0)
    builder.add_state("db-primary-degraded", rate_cost=0.6)
    builder.add_state("db-replica-lagging", rate_cost=0.1)
    builder.add_state("cache-poisoned", rate_cost=0.3)

    # Recovery actions: deterministic repairs, durations in seconds.
    builder.add_action(
        "restart-api", duration=30.0,
        transitions={"api-hung": {"healthy": 1.0}},
    )
    builder.add_action(
        "failover-db", duration=90.0,
        transitions={
            "db-primary-degraded": {"healthy": 1.0},
            # Failover while only the replica lags makes things healthy too,
            # but at full outage cost during the switch.
            "db-replica-lagging": {"healthy": 1.0},
        },
        costs={"db-replica-lagging": 90.0},
    )
    builder.add_action(
        "resync-replica", duration=120.0,
        transitions={"db-replica-lagging": {"healthy": 1.0}},
    )
    builder.add_action(
        "flush-cache", duration=15.0,
        transitions={"cache-poisoned": {"healthy": 1.0}},
    )
    builder.add_action("probe", duration=2.0, passive=True)

    # Monitor suite: an HTTP health check and an end-to-end payment probe.
    # Neither separates "healthy" perfectly (lagging replicas often look
    # fine), so the builder will detect the absence of recovery
    # notification and append the terminate state/action automatically.
    observations = np.array(
        #  hc-ok,probe-ok   hc-ok,probe-fail  hc-fail,probe-ok  hc-fail,probe-fail
        [
            [0.98, 0.01, 0.01, 0.00],  # healthy (rare false alarms)
            [0.00, 0.05, 0.05, 0.90],  # api-hung
            [0.10, 0.80, 0.00, 0.10],  # db-primary-degraded
            [0.70, 0.30, 0.00, 0.00],  # db-replica-lagging (often hidden!)
            [0.15, 0.80, 0.05, 0.00],  # cache-poisoned
        ]
    )
    builder.set_observation_matrix(
        ("hc-ok,probe-ok", "hc-ok,probe-fail", "hc-fail,probe-ok",
         "hc-fail,probe-fail"),
        observations,
    )
    # Auto-detection picks the right Figure 2 augmentation; t_op: a human
    # gets paged and responds in ~15 minutes.
    return builder.build(operator_response_time=900.0)


def main() -> None:
    model = build_payment_service()
    print(f"Model: {model.pomdp}")
    print(f"Recovery notification detected: {model.recovery_notification}")
    print(f"Terminate action appended: {model.terminate_action is not None}")
    print()

    bound_set, trace = bootstrap_bounds(
        model, iterations=15, depth=1, seed=SEED, min_improvement=0.1
    )
    print(
        f"RA-Bound refined from {-trace.initial_bound:.1f} to "
        f"{trace.cost_upper_bounds[-1]:.1f} failed payments at the uniform "
        f"belief (|B| = {len(bound_set)})"
    )

    engine = BoundedPolicyEngine(
        model, depth=1, bound_set=bound_set, refine_min_improvement=0.1
    )
    faults = np.flatnonzero(model.fault_states)
    result = run_campaign(
        engine, fault_states=faults, injections=200, seed=SEED
    )
    summary = result.summary

    print()
    print(
        render_table(
            ["Metric", "Per-fault average"],
            [
                ["Cost (failed payments)", summary.cost],
                ["Recovery time (s)", summary.recovery_time],
                ["Residual time (s)", summary.residual_time],
                ["Recovery actions", summary.actions],
                ["Monitor calls", summary.monitor_calls],
                ["Early terminations", summary.early_terminations],
            ],
            title="Bounded controller on the custom payment service",
        )
    )


if __name__ == "__main__":
    main()
