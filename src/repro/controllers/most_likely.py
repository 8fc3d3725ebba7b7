"""The "most likely" baseline policy (Section 5).

"A controller that performs probabilistic diagnosis on the system using the
Bayes rule, and chooses the cheapest recovery action that recovers from the
most likely fault."  Belief tracking is the same Bayesian machinery as the
POMDP controllers (Eq. 4); the difference is that it collapses the belief to
its fault-state mode before acting, so it never hedges across hypotheses and
never plans ahead.  Like the heuristic controller, it terminates through a
recovered-probability threshold.
"""

from __future__ import annotations

import numpy as np

from repro.controllers.engine import Decision, PolicyEngine, RecoverySession
from repro.exceptions import ModelError
from repro.recovery.model import RecoveryModel
from repro.util.validation import check_termination_probability

#: Transition mass into S_phi needed to count an action as "recovering" a state.
FIX_PROBABILITY = 1.0 - 1e-9


def cheapest_fixing_actions(
    model: RecoveryModel, policy: str = "the most-likely baseline"
) -> dict[int, int]:
    """For every fault state, the cheapest action that surely repairs it.

    An action "recovers from" fault state ``s`` when it moves ``s`` into
    ``S_phi`` with probability one (the EMN model's recovery actions are
    deterministic, Section 5).  Cost ties break toward the shorter action,
    then the lower index.  Raises :class:`~repro.exceptions.ModelError`,
    naming ``policy``, on a sparse model or if some fault state has no
    surely-fixing action — such a model would need a lookahead controller,
    not this baseline.
    """
    pomdp = model.pomdp
    if pomdp.backend.is_sparse:
        raise ModelError(
            f"{policy} requires the dense backend (it scans the full "
            "transition tensor for surely-fixing actions); convert the "
            "model with repro.recovery.convert_backend(model, 'dense')"
        )
    null_mass = pomdp.transitions[:, :, model.null_states].sum(axis=2)  # (A, S)
    mapping: dict[int, int] = {}
    for state in np.flatnonzero(model.fault_states):
        candidates = [
            action
            for action in np.flatnonzero(model.recovery_actions)
            if null_mass[action, state] >= FIX_PROBABILITY
        ]
        if not candidates:
            raise ModelError(
                f"no recovery action surely fixes state "
                f"{pomdp.state_labels[state]!r}; {policy} requires "
                "deterministic repairs"
            )
        mapping[int(state)] = min(
            candidates,
            key=lambda action: (
                -pomdp.rewards[action, state],  # cheapest (least negative) first
                model.durations[action],
                action,
            ),
        )
    return mapping


class MostLikelyPolicyEngine(PolicyEngine):
    """Bayes diagnosis + cheapest fixing action for the belief's mode."""

    def __init__(
        self,
        model: RecoveryModel,
        termination_probability: float = 0.9999,
        preflight: bool = False,
    ):
        super().__init__(model, preflight=preflight)
        self.termination_probability = check_termination_probability(
            termination_probability
        )
        self._fixing_action = cheapest_fixing_actions(model)
        self._fault_indices = np.flatnonzero(model.fault_states)
        self.name = "most likely"

    def decide(self, session: RecoverySession) -> Decision:
        belief = session.belief_view()
        recovered = self.model.recovered_probability(belief)
        if recovered >= self.termination_probability:
            return self.terminate_decision()
        fault_mass = belief[self._fault_indices]
        most_likely = int(self._fault_indices[np.argmax(fault_mass)])
        return Decision(action=self._fixing_action[most_likely])
