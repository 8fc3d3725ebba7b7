"""Uniform-random recovery policy.

Chooses uniformly among the model's recovery actions regardless of belief.
This is exactly the policy whose expected cost the RA-Bound computes
(Section 3.1 constructs the bound "by replacing the non-deterministic
actions with probabilistic transitions with a transition probability of
1/|A|"), so the test suite uses it to validate the bound empirically:
the mean episode reward of this controller can be no better than the
optimal value, and the RA-Bound can be no better than this controller when
evaluated over the *full* action set.  It also serves as the sanity floor
in ablation tables.

The RNG lives on the engine — one stream shared by every session it
serves, exactly the stream the single pre-session controller carried — so
per-chunk engine clones in the campaign driver keep historical draws (and
fingerprints) bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.controllers.base import RecoveryController
from repro.controllers.bounded import NOTIFICATION_CERTAINTY
from repro.controllers.engine import Decision, PolicyEngine, RecoverySession
from repro.recovery.model import RecoveryModel
from repro.util.rng import as_generator


class RandomPolicyEngine(PolicyEngine):
    """Picks actions uniformly at random.

    Args:
        model: the recovery model.
        include_all_actions: when True the draw covers *every* model action
            (including observe and ``a_T``), which is the exact RA-Bound
            policy; when False only repairing actions are drawn and
            termination falls back to the recovered-probability threshold.
        termination_probability: threshold used when ``a_T`` is excluded.
        seed: RNG seed.
    """

    def __init__(
        self,
        model: RecoveryModel,
        include_all_actions: bool = True,
        termination_probability: float = 0.9999,
        seed=None,
        preflight: bool = False,
    ):
        super().__init__(model, preflight=preflight)
        self._rng = as_generator(seed)
        if include_all_actions:
            self._choices = np.arange(model.pomdp.n_actions)
        else:
            self._choices = np.flatnonzero(model.recovery_actions)
        self.include_all_actions = include_all_actions
        self.termination_probability = termination_probability
        self.name = "random"

    def decide(self, session: RecoverySession) -> Decision:
        belief = session.belief_view()
        if not self.include_all_actions:
            recovered = self.model.recovered_probability(belief)
            if recovered >= self.termination_probability:
                return self.terminate_decision()
        action = int(self._rng.choice(self._choices))
        is_terminate = action == self.model.terminate_action
        if (
            self.model.recovery_notification
            and self.model.recovered_probability(belief) >= NOTIFICATION_CERTAINTY
        ):
            is_terminate = True
        return Decision(action=action, is_terminate=is_terminate)


class RandomController(RecoveryController):
    """Campaign-facing adapter over a :class:`RandomPolicyEngine`."""

    def __init__(
        self,
        model: RecoveryModel,
        include_all_actions: bool = True,
        termination_probability: float = 0.9999,
        seed=None,
        preflight: bool = False,
    ):
        super().__init__(
            engine=RandomPolicyEngine(
                model,
                include_all_actions=include_all_actions,
                termination_probability=termination_probability,
                seed=seed,
                preflight=preflight,
            )
        )

    @property
    def include_all_actions(self) -> bool:
        return self.engine.include_all_actions

    @property
    def termination_probability(self) -> float:
        return self.engine.termination_probability
