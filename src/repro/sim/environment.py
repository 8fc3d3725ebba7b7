"""The simulated target system.

The environment is the ground-truth side of an episode: it knows the true
fault state (the controller never sees it), executes the controller's
actions by sampling the model's transition function, keeps wall-clock time
and accumulated cost, and runs the monitors — sampling the observation
function ``q`` — after every action, exactly as the paper's simulation-based
evaluation does.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ControllerError
from repro.linalg.ops import reward_scalar
from repro.pomdp.simulator import POMDPSimulator
from repro.recovery.model import RecoveryModel
from repro.util.rng import as_generator

#: Observation sentinel for executions that sample no monitors (the
#: terminate action is a controller decision, not a physical action).  It
#: must never be fed back into a belief update; see
#: :meth:`repro.controllers.engine.RecoverySession.observe`, which rejects
#: it loudly.
NO_OBSERVATION = -1


@dataclass(frozen=True)
class ExecutionResult:
    """Ground-truth outcome of one executed action.

    Attributes:
        observation: sampled monitor outputs (index into the observation
            space), or :data:`NO_OBSERVATION` when no monitors ran; the
            campaign forwards real observations to monitor-using
            controllers and never forwards the sentinel.
        reward: the model reward actually incurred (non-positive).
        state: the true post-action state (for the oracle hook and metrics).
    """

    observation: int
    reward: float
    state: int


class RecoveryEnvironment:
    """One fault-injection episode's worth of simulated system.

    Args:
        model: the recovery model (shared with the controller — the paper
            evaluates the controller under a *correct* model; model-mismatch
            experiments can pass the controller a different model).
        seed: RNG seed for transition and monitor sampling.
        monitor_tail: seconds of monitor execution folded into the tail of
            every action's duration (5 s in the EMN model).  Used only to
            back the repair instant out of the action duration when
            computing residual time; it does not change costs, which come
            from the model's rewards.
    """

    def __init__(self, model: RecoveryModel, seed=None, monitor_tail: float = 0.0):
        if monitor_tail < 0:
            raise ControllerError("monitor_tail must be >= 0")
        self.model = model
        self.monitor_tail = monitor_tail
        self._simulator = POMDPSimulator(model.pomdp, seed=as_generator(seed))
        self._injected = False
        self.time = 0.0
        self.cost = 0.0
        self.termination_penalty = 0.0
        self.recovered_at: float | None = None

    @property
    def state(self) -> int:
        """The true system state (ground truth; not for controllers)."""
        return self._simulator.state

    @property
    def recovered(self) -> bool:
        """True once the system is in a null-fault state."""
        return self.model.is_recovered(self.state)

    def inject(self, fault_state: int) -> None:
        """Start an episode with ``fault_state`` active at time zero."""
        if not self.model.fault_states[fault_state]:
            raise ControllerError(
                f"state {fault_state} is not an injectable fault state"
            )
        self._simulator.reset(fault_state)
        self._injected = True
        self.time = 0.0
        self.cost = 0.0
        self.termination_penalty = 0.0
        self.recovered_at = None

    def initial_observation(self) -> int:
        """Monitor outputs available at detection time (free of charge).

        The controller is invoked *because* monitors flagged a problem; the
        outputs that triggered the invocation are handed to it without
        advancing time, and are not counted as a monitor call in Table 1's
        sense.
        """
        if not self._injected:
            raise ControllerError("initial_observation() before inject()")
        passive = np.flatnonzero(self.model.passive_actions)
        if passive.size == 0:
            raise ControllerError(
                "the model has no passive action to sample detection "
                "observations with"
            )
        return self._simulator.observe(int(passive[0]))

    def execute(self, action: int) -> ExecutionResult:
        """Run ``action`` against the true system.

        Advances time by the action's duration, accrues the model's reward
        as cost, performs the state transition, samples the post-action
        monitor outputs, and pins down the repair instant for the
        residual-time metric.
        """
        if not self._injected:
            raise ControllerError("execute() before inject()")
        was_recovered = self.recovered
        if action == self.model.terminate_action:
            # Terminating is a controller decision, not a physical action:
            # the true system stays where it is.  The model's termination
            # reward — the cost of leaving a live fault to the operator
            # (zero once recovered, by construction of r(s, a_T)) — is
            # charged exactly once here; no transition or monitor sampling
            # happens, and the loop below never sees a_T.
            reward = reward_scalar(self.model.pomdp.rewards, action, self.state)
            self.cost += -reward
            if not was_recovered:
                self.termination_penalty += -reward
            return ExecutionResult(
                observation=NO_OBSERVATION, reward=reward, state=self.state
            )
        step = self._simulator.step(action)
        self.time += float(self.model.durations[action])
        self.cost += -step.reward
        if not was_recovered and self.model.is_recovered(step.state):
            # The repair lands when the action's work completes, before the
            # trailing monitor execution folded into its duration.
            self.recovered_at = max(self.time - self.monitor_tail, 0.0)
        return ExecutionResult(
            observation=step.observation, reward=step.reward, state=step.state
        )

    def residual_time(self) -> float:
        """Wall-clock seconds the fault has been (or will be) present.

        After a successful repair this is the repair instant.  If the
        episode ended unrecovered, the fault stays live until the human
        operator responds, ``t_op`` after the controller walked away.
        """
        if self.recovered_at is not None:
            return self.recovered_at
        extra = self.model.operator_response_time or 0.0
        return self.time + extra
