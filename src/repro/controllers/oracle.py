"""The oracle policy (Section 5) — the unattainable ideal.

"A hypothetical controller that knows the fault in the system, and can
always recover from it via a single action."  It exists to put a floor under
Table 1: no diagnosing controller can beat it.  The campaign driver feeds it
the ground-truth state through ``sync_true_state``, the hook every honest
controller ignores; the engine reads it back off the *session* (each
concurrent recovery has its own ground truth).  It makes no monitor calls
at all (``uses_monitors`` is False), matching the zeros in its Table 1 row.
"""

from __future__ import annotations

from repro.controllers.engine import Decision, PolicyEngine, RecoverySession
from repro.controllers.most_likely import cheapest_fixing_actions
from repro.exceptions import ControllerError
from repro.recovery.model import RecoveryModel


class OraclePolicyEngine(PolicyEngine):
    """Knows the true fault; repairs it with the single cheapest action."""

    #: The campaign skips monitor invocations for policies that opt out.
    uses_monitors: bool = False

    def __init__(self, model: RecoveryModel, preflight: bool = False):
        super().__init__(model, preflight=preflight)
        self._fixing_action = cheapest_fixing_actions(model, "the oracle")
        self.name = "oracle"

    def decide(self, session: RecoverySession) -> Decision:
        true_state = session.true_state
        if true_state is None:
            raise ControllerError(
                "oracle controller was never given the true state; the "
                "campaign must call sync_true_state() after reset"
            )
        if self.model.is_recovered(true_state):
            return self.terminate_decision()
        return Decision(action=self._fixing_action[true_state])
