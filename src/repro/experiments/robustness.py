"""Model-mismatch robustness (the introduction's imprecise-knowledge theme).

The paper evaluates the controller under a *correct* model: the
environment's dynamics are exactly the POMDP the controller plans with.
Real monitors drift.  This experiment runs the bounded controller with a
model built for one path-monitor coverage against an environment whose
actual coverage differs, and measures how recovery quality degrades.

Headline finding (asserted by the test suite): the never-give-up behaviour
of Table 1 does *not* survive overtrust.  A controller whose model claims
perfect probe coverage treats an all-clear reading as near-proof of
recovery; when the real monitors miss half the time, it sometimes
terminates with the fault still live.  Modelling monitors *pessimistically*
(model coverage at or below reality) is therefore the safe direction — a
practical deployment guideline the paper's correct-model evaluation cannot
exhibit.

The mechanics exercise :func:`repro.sim.campaign.run_campaign`'s ``model``
parameter (environment-side model distinct from the controller's).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.controllers.bootstrap import bootstrap_bounds
from repro.controllers.bounded import BoundedPolicyEngine
from repro.sim.campaign import run_campaign
from repro.sim.metrics import MetricSummary
from repro.systems.emn import MONITOR_DURATION, build_emn_system
from repro.systems.faults import FaultKind
from repro.util.tables import render_table


@dataclass(frozen=True)
class MismatchPoint:
    """One controller-vs-environment coverage pairing."""

    model_coverage: float
    environment_coverage: float
    summary: MetricSummary


def run_mismatch_sweep(
    model_coverage: float = 1.0,
    environment_coverages: tuple[float, ...] = (1.0, 0.9, 0.75, 0.5),
    injections: int = 200,
    seed: int = 7,
    parallel: int | None = None,
) -> list[MismatchPoint]:
    """Fix the controller's model, degrade the real monitors underneath it.

    The controller plans with ``model_coverage``; each sweep point runs the
    campaign against an environment whose path monitors actually achieve
    ``environment_coverage``.  Observations the controller's model deems
    impossible trigger its re-diagnosis fallback
    (:meth:`~repro.controllers.engine.RecoverySession.observe`), so the
    sweep also exercises that path when the model says coverage is perfect
    but probes miss.
    ``parallel`` shards each campaign across worker processes without
    changing any deterministic metric (see :mod:`repro.sim.parallel`).
    """
    controller_system = build_emn_system(path_monitor_coverage=model_coverage)
    bound_set, _ = bootstrap_bounds(
        controller_system.model, iterations=10, depth=2, variant="average",
        seed=0,
    )
    points = []
    for coverage in environment_coverages:
        environment_system = build_emn_system(path_monitor_coverage=coverage)
        engine = BoundedPolicyEngine(
            controller_system.model,
            depth=1,
            bound_set=bound_set,
            refine_min_improvement=1.0,
        )
        result = run_campaign(
            engine,
            fault_states=environment_system.fault_states(FaultKind.ZOMBIE),
            injections=injections,
            seed=seed,
            monitor_tail=MONITOR_DURATION,
            model=environment_system.model,
            parallel=parallel,
        )
        points.append(
            MismatchPoint(
                model_coverage=model_coverage,
                environment_coverage=coverage,
                summary=result.summary,
            )
        )
    return points


def format_mismatch(points: list[MismatchPoint]) -> str:
    """Render the sweep as a table."""
    rows = [
        [
            point.model_coverage,
            point.environment_coverage,
            point.summary.cost,
            point.summary.residual_time,
            point.summary.actions,
            point.summary.monitor_calls,
            point.summary.early_terminations,
            point.summary.unrecovered,
        ]
        for point in points
    ]
    return render_table(
        ["Model cov.", "Actual cov.", "Cost", "Residual (s)", "Actions",
         "Monitor calls", "Early terms", "Unrecovered"],
        rows,
        title=(
            "Model-mismatch robustness: bounded controller planning with "
            "one\npath-monitor coverage while the real monitors achieve "
            "another"
        ),
    )
