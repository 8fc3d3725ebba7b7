"""Episode and campaign drivers.

An *episode* injects one fault and runs one controller against the
environment until the controller terminates recovery (or a safety cap
trips).  A *campaign* runs many episodes — Section 5 injects 10,000 faults —
and aggregates per-fault averages into a Table 1 row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.controllers.base import RecoveryController
from repro.controllers.engine import Decision, RecoverySession
from repro.obs.telemetry import active as telemetry_active
from repro.obs.telemetry import span
from repro.recovery.model import RecoveryModel
from repro.sim.environment import NO_OBSERVATION, ExecutionResult, RecoveryEnvironment
from repro.sim.metrics import EpisodeMetrics, MetricSummary, summarize

#: Safety cap: no reasonable controller needs this many steps on the EMN
#: model; hitting it means the controller is stuck in the loop that
#: Property 1 exists to rule out.
DEFAULT_MAX_STEPS = 500


@dataclass(frozen=True)
class CampaignResult:
    """All episodes of a campaign plus their aggregate."""

    controller_name: str
    episodes: list[EpisodeMetrics]
    summary: MetricSummary


def run_episode(
    controller: RecoveryController | RecoverySession,
    environment: RecoveryEnvironment,
    fault_state: int,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> EpisodeMetrics:
    """Inject ``fault_state`` and drive ``controller`` until it terminates.

    ``controller`` is anything speaking the session protocol — a
    :class:`~repro.controllers.engine.RecoverySession` spawned from a
    warm :class:`~repro.controllers.engine.PolicyEngine` (what the chunk
    runner passes), or a classic :class:`RecoveryController` adapter,
    which forwards to its live session.

    Loop structure, following Section 4's controller description: the
    session starts from the all-faults-equally-likely belief, folds in
    the detection-time monitor outputs, then repeatedly decides, executes,
    and observes until it chooses to terminate.
    """
    return _drive_episode(controller, environment, fault_state, max_steps)


def _drive_episode(
    controller: RecoveryController | RecoverySession,
    environment: RecoveryEnvironment,
    fault_state: int,
    max_steps: int,
    record: Callable[[Decision, ExecutionResult, int], None] | None = None,
) -> EpisodeMetrics:
    """The loop of :func:`run_episode`, shared with ``trace_episode``.

    ``record(decision, result, observation)`` runs after every executed
    action, ``a_T`` included; ``observation`` is what the controller was
    fed (``NO_OBSERVATION`` when no monitors ran).
    """
    model = controller.model
    uses_monitors = controller.uses_monitors
    environment.inject(fault_state)
    controller.reset()
    controller.stopwatch.reset()
    controller.sync_true_state(environment.state)

    passive = np.flatnonzero(model.passive_actions)
    if uses_monitors and passive.size:
        controller.observe(int(passive[0]), environment.initial_observation())

    actions = 0
    monitor_calls = 0
    steps = 0
    terminated = False
    for _ in range(max_steps):
        decision = controller.decide()
        if decision.is_terminate:
            terminated = True
            # Execute a_T where the decision carries it so the model's
            # termination reward is charged; the NO_ACTION sentinel
            # (notification models, which have no a_T) executes nothing.
            if decision.executes_action and decision.action == model.terminate_action:
                result = environment.execute(decision.action)
                if record is not None:
                    record(decision, result, NO_OBSERVATION)
            break
        steps += 1
        result = environment.execute(decision.action)
        if model.recovery_actions[decision.action]:
            actions += 1
        observation = NO_OBSERVATION
        if uses_monitors:
            monitor_calls += 1
            observation = result.observation
            controller.observe(decision.action, observation)
        controller.sync_true_state(environment.state)
        if record is not None:
            record(decision, result, observation)

    telemetry = telemetry_active()
    if telemetry is not None:
        telemetry.count("sim.episodes")
        telemetry.count("sim.steps", steps)
        if environment.recovered:
            telemetry.count("sim.recovered")
        if terminated and not environment.recovered:
            telemetry.count("sim.early_terminations")
        if not terminated:
            telemetry.count("sim.step_cap_hits")

    return EpisodeMetrics(
        fault_state=fault_state,
        cost=environment.cost,
        recovery_time=environment.time,
        residual_time=environment.residual_time(),
        algorithm_time=controller.stopwatch.total_seconds,
        actions=actions,
        monitor_calls=monitor_calls,
        recovered=environment.recovered,
        terminated=terminated,
        steps=steps,
    )


def run_campaign(
    controller: RecoveryController,
    fault_states: np.ndarray,
    injections: int,
    seed=None,
    max_steps: int = DEFAULT_MAX_STEPS,
    monitor_tail: float = 0.0,
    model: RecoveryModel | None = None,
    fault_probabilities: np.ndarray | None = None,
    parallel: int | None = None,
    chunk_size: int | None = None,
    on_chunk=None,
) -> CampaignResult:
    """Run ``injections`` episodes with randomly drawn faults.

    Episodes are scheduled by the campaign engine of
    :mod:`repro.sim.parallel`: faults and per-episode environment streams
    are derived up front from ``seed`` via ``SeedSequence`` spawning, and
    episodes run in fixed-size chunks against clones of ``controller``
    whose bound refinements are merged back on completion.  The metrics are
    therefore a function of ``(seed, injections, chunk_size)`` alone —
    serial and parallel runs of the same campaign agree episode for episode
    (``algorithm_time`` excepted: it is a wall-clock measurement).

    Args:
        controller: the controller under test.  It is never driven
            directly — chunks run clones — but it receives every refinement
            the clones produce (deduplicated and dominance-pruned), so its
            bound set ends the campaign as a long-lived controller
            process's would.
        fault_states: candidate fault-state indices; Section 5 draws only
            zombie faults.
        injections: number of episodes (the paper uses 10,000).
        seed: seed for both fault draws and environment sampling.
        max_steps: per-episode step cap.
        monitor_tail: see :class:`RecoveryEnvironment`.
        model: environment-side model; defaults to the controller's own
            (the paper's setting — pass a different one to study model
            mismatch).
        fault_probabilities: draw weights aligned with ``fault_states``;
            uniform (the paper's fault load) when None.  Use for
            criticality-weighted fault loads.
        parallel: worker-process count; ``None``, 0, or 1 runs in-process.
        chunk_size: episodes per controller-isolation chunk (default
            :data:`repro.sim.parallel.DEFAULT_CHUNK_SIZE`).  Changing it
            changes refinement visibility and hence, potentially, metrics;
            worker count never does.
        on_chunk: per-chunk scheduling hook forwarded to
            :func:`repro.sim.parallel.execute_plan` — called in chunk
            order at join time, which is what the grid runner uses for
            per-cell progress without touching determinism.
    """
    from repro.sim.parallel import execute_plan, plan_campaign

    if injections <= 0:
        raise ValueError(f"injections must be positive, got {injections}")
    fault_states = np.asarray(fault_states, dtype=int)
    if fault_states.size == 0:
        raise ValueError("fault_states must not be empty")
    if fault_probabilities is not None:
        fault_probabilities = np.asarray(fault_probabilities, dtype=float)
        if fault_probabilities.shape != fault_states.shape:
            raise ValueError(
                "fault_probabilities must align with fault_states"
            )
        if np.any(fault_probabilities < 0) or not np.isclose(
            fault_probabilities.sum(), 1.0
        ):
            raise ValueError("fault_probabilities must be a distribution")
    plan = plan_campaign(
        controller,
        fault_states=fault_states,
        injections=injections,
        seed=seed,
        max_steps=max_steps,
        monitor_tail=monitor_tail,
        model=model,
        fault_probabilities=fault_probabilities,
        chunk_size=chunk_size,
    )
    telemetry = telemetry_active()
    if telemetry is not None:
        telemetry.count("sim.campaigns")
        telemetry.event(
            "campaign_start",
            controller=controller.name,
            injections=injections,
            chunk_size=plan.chunk_size,
            workers=parallel,
        )
    # The campaign span stays open while execute_plan absorbs chunk
    # snapshots, so chunk-side episode spans are re-parented under it.
    with span("campaign", category="sim", controller=controller.name):
        episodes = execute_plan(plan, workers=parallel, on_chunk=on_chunk)
    if telemetry is not None:
        telemetry.event(
            "campaign_end",
            controller=controller.name,
            episodes=len(episodes),
        )
    return CampaignResult(
        controller_name=controller.name,
        episodes=episodes,
        summary=summarize(episodes),
    )
