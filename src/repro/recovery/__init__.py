"""Recovery-model layer.

Wraps a plain POMDP with the recovery semantics of Section 3: the null-fault
state set ``S_phi`` (Condition 1), non-positive costs (Condition 2), rate
rewards, action durations, and the two model modifications of Figure 2 —
absorbing null states for systems *with* recovery notification, and the
terminate state/action pair ``(s_T, a_T)`` with operator-response-time
termination rewards for systems *without*.
"""

from repro.recovery.builder import RecoveryModelBuilder
from repro.recovery.model import (
    RecoveryModel,
    check_condition_1,
    check_condition_2,
    convert_backend,
    make_null_absorbing,
    termination_rewards,
    with_termination_action,
)
from repro.recovery.notification import detect_recovery_notification

__all__ = [
    "RecoveryModel",
    "RecoveryModelBuilder",
    "check_condition_1",
    "check_condition_2",
    "convert_backend",
    "detect_recovery_notification",
    "make_null_absorbing",
    "termination_rewards",
    "with_termination_action",
]
