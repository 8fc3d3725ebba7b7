"""Step-by-step episode traces for debugging and post-mortems.

The campaign driver reports only per-fault aggregates (Table 1's columns).
When a recovery goes wrong — or when explaining why the controller chose a
particular restart — operators need the step-level story: which action ran,
what the monitors said, how the belief moved, what it cost.  This module
runs a single instrumented episode and records exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.controllers.base import RecoveryController
from repro.controllers.engine import Decision
from repro.sim.campaign import _drive_episode
from repro.sim.environment import NO_OBSERVATION, ExecutionResult, RecoveryEnvironment
from repro.sim.metrics import EpisodeMetrics
from repro.util.tables import render_table


@dataclass(frozen=True)
class TraceStep:
    """One executed step of a traced episode.

    Attributes:
        index: step number, from 0.
        action: action index the controller chose.
        action_label: its display name.
        observation: sampled observation index
            (:data:`~repro.sim.environment.NO_OBSERVATION` when no
            monitors ran).
        observation_label: its display name ("" when no monitors ran).
        true_state_after: ground-truth state after the action.
        reward: single-step reward incurred.
        time_after: wall-clock seconds elapsed at the end of the step.
        recovered_probability: the *controller's* post-update P[recovered].
        tree_value: root value of the controller's lookahead, when any.
    """

    index: int
    action: int
    action_label: str
    observation: int
    observation_label: str
    true_state_after: int
    reward: float
    time_after: float
    recovered_probability: float
    tree_value: float | None


@dataclass(frozen=True)
class EpisodeTrace:
    """A full episode: its steps plus the usual per-fault metrics."""

    fault_label: str
    steps: tuple[TraceStep, ...]
    metrics: EpisodeMetrics

    def render(self) -> str:
        """Human-readable table of the episode."""
        rows = [
            [
                step.index,
                step.action_label,
                step.observation_label or "-",
                f"{step.recovered_probability:.4f}",
                step.reward,
                step.time_after,
            ]
            for step in self.steps
        ]
        table = render_table(
            ["Step", "Action", "Observation", "P[recovered]", "Reward",
             "t (s)"],
            rows,
            title=f"Recovery trace for {self.fault_label}",
        )
        outcome = (
            "recovered" if self.metrics.recovered else "NOT recovered"
        )
        return (
            f"{table}\n"
            f"Outcome: {outcome}, cost {self.metrics.cost:.2f}, "
            f"residual {self.metrics.residual_time:.1f} s"
        )


def trace_episode(
    controller: RecoveryController,
    environment: RecoveryEnvironment,
    fault_state: int,
    max_steps: int = 200,
) -> EpisodeTrace:
    """Run one instrumented episode (the loop behind ``run_episode``).

    The metrics in the result are exactly what ``run_episode`` would have
    produced for the same seed; the trace adds one :class:`TraceStep` per
    executed action, the terminating ``a_T`` included.
    """
    model = controller.model
    pomdp = model.pomdp
    steps: list[TraceStep] = []

    def record(decision: Decision, result: ExecutionResult, observation: int) -> None:
        steps.append(
            TraceStep(
                index=len(steps),
                action=decision.action,
                action_label=pomdp.action_labels[decision.action],
                observation=observation,
                observation_label=(
                    pomdp.observation_labels[observation]
                    if observation != NO_OBSERVATION
                    else ""
                ),
                true_state_after=environment.state,
                reward=result.reward,
                time_after=environment.time,
                recovered_probability=model.recovered_probability(
                    controller.belief
                ),
                tree_value=decision.value,
            )
        )

    metrics = _drive_episode(
        controller, environment, fault_state, max_steps, record=record
    )
    return EpisodeTrace(
        fault_label=pomdp.state_labels[fault_state],
        steps=tuple(steps),
        metrics=metrics,
    )
