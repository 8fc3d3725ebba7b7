"""Recovery-notification detection from the observation function.

Section 3.1: "We believe that it is possible to automatically determine
whether a system has recovery notification by examining the observation
function q, but we leave details to future work."  This module implements
the natural criterion: a system has recovery notification exactly when
observations *separate* the null-fault set from its complement — every
observation that can be generated in some null state can never be generated
in a fault state (and vice versa), under every action.  When that holds, any
single monitor reading tells the controller with certainty whether the
system has recovered.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError
from repro.linalg.containers import SparseObservations
from repro.pomdp.model import POMDP

#: Observation probabilities below this count as "cannot be generated".
SUPPORT_EPSILON = 1e-12


def observation_overlap(observations, null_states: np.ndarray) -> np.ndarray:
    """``(|A|, |O|)`` mask of the observations that do not separate ``S_phi``.

    Entry ``[a, o]`` is True when, under action ``a``, observation ``o``
    can be generated both by some null state and by some fault state.
    Takes a dense ``(|A|, |S|, |O|)`` observation tensor, validated or not.

    Raises:
        ModelError: when ``null_states`` is not a mask over the tensor's
            states, or when ``observations`` are sparse containers.
    """
    mask = np.asarray(null_states, dtype=bool)
    if mask.shape != (observations.shape[1],):
        raise ModelError(
            f"null_states must be a mask of length {observations.shape[1]}"
        )
    if isinstance(observations, SparseObservations):
        raise ModelError(
            "recovery-notification detection scans the full observation "
            "tensor and requires the dense backend; pass "
            "recovery_notification explicitly when building sparse models, "
            "or detect on the dense model before converting"
        )
    support = np.asarray(observations, dtype=float) > SUPPORT_EPSILON
    return support[:, mask].any(axis=1) & support[:, ~mask].any(axis=1)


def detect_recovery_notification(
    pomdp: POMDP, null_states: np.ndarray
) -> bool:
    """True when ``q`` lets the controller detect entry into ``S_phi``.

    For every action ``a`` and observation ``o``, the support
    ``{s : q(o|s,a) > 0}`` must lie entirely inside ``S_phi`` or entirely
    outside it.  If some observation can be produced both by a null state
    and by a fault state (e.g. "all monitors clear" while a zombie is being
    routed around, as in the EMN system of Section 5), the controller can
    never be certain recovery has completed and the model needs the
    terminate-action augmentation instead.
    """
    return not observation_overlap(pomdp.observations, null_states).any()


def ambiguous_observations(
    pomdp: POMDP, null_states: np.ndarray
) -> list[tuple[int, int]]:
    """The ``(action, observation)`` pairs that break notification.

    Diagnostic companion to :func:`detect_recovery_notification`: each
    returned pair is an observation that both some null state and some fault
    state can generate under that action.
    """
    overlap = observation_overlap(pomdp.observations, null_states)
    return [(int(a), int(o)) for a, o in np.argwhere(overlap)]
