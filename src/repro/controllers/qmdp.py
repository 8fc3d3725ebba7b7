"""QMDP baseline policy.

A classic POMDP heuristic (Littman et al.) added as an extra baseline: act
greedily with respect to the *fully observable* Q-values,
``argmax_a pi . Q_m(., a)``.  QMDP assumes all uncertainty resolves for
free after one step, which produces a characteristic pathology on recovery
models: at a belief split across faults, observing scores
``pi . Q(., observe)`` — the cheap action under the
everything-will-be-revealed assumption — so when the observation function
*cannot* actually resolve the split (the EMN model's zombie(S1)/zombie(S2)
pair is observationally identical), the controller procrastinates
indefinitely, racking up monitor calls without ever committing to a
restart.  Belief-space lookahead does not share the pathology because it
evaluates what observations really reveal.  Keeping QMDP in the controller
zoo makes that argument measurable (see
``tests/test_controllers_qmdp.py::test_procrastinates_on_unresolvable_ambiguity``).

Termination uses the recovered-probability threshold, like the other
baselines without bound-based termination semantics.
"""

from __future__ import annotations

import numpy as np

from repro.bounds.upper import QMDPBound
from repro.controllers.engine import Decision, PolicyEngine, RecoverySession
from repro.recovery.model import RecoveryModel
from repro.util.validation import check_termination_probability


class QMDPPolicyEngine(PolicyEngine):
    """Greedy in the fully-observable Q-values.

    Args:
        model: the recovery model.
        termination_probability: recovered-probability threshold at which
            recovery stops.
        allow_terminate_action: let the policy pick ``a_T`` when the
            Q-values favour it (the default); when False, ``a_T`` is masked
            and only the threshold ends recovery.
    """

    def __init__(
        self,
        model: RecoveryModel,
        termination_probability: float = 0.9999,
        allow_terminate_action: bool = True,
        preflight: bool = False,
    ):
        super().__init__(model, preflight=preflight)
        self.termination_probability = check_termination_probability(
            termination_probability
        )
        self.q_values = QMDPBound(model.pomdp).q_values  # (|A|, |S|)
        self._allowed = np.ones(model.pomdp.n_actions, dtype=bool)
        if not allow_terminate_action and model.terminate_action is not None:
            self._allowed[model.terminate_action] = False
        self.name = "qmdp"

    def decide(self, session: RecoverySession) -> Decision:
        belief = session.belief_view()
        recovered = self.model.recovered_probability(belief)
        if recovered >= self.termination_probability:
            return self.terminate_decision()
        scores = self.q_values @ belief
        scores[~self._allowed] = -np.inf
        action = int(np.argmax(scores))
        return Decision(
            action=action,
            is_terminate=action == self.model.terminate_action,
            value=float(scores[action]),
        )
