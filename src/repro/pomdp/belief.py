"""Belief states and Bayesian belief updates (Eqs. 3 and 4).

A belief state ``pi`` is a probability distribution over the POMDP's states.
These functions are the innermost loop of every controller, so they operate
on plain :class:`numpy.ndarray` vectors; validation is the caller's job (the
model constructors validate the matrices once).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BeliefError
from repro.linalg.ops import (
    GAMMA_EPSILON,
    belief_update_batch,
    observation_column,
    observation_matrix_dense,
    observation_probabilities_from_predicted,
    predict,
    reward_row,
)
from repro.pomdp.cache import get_joint_cache
from repro.pomdp.model import POMDP

__all__ = [
    "GAMMA_EPSILON",
    "belief_bellman_backup",
    "belief_reward",
    "next_beliefs",
    "observation_probabilities",
    "point_belief",
    "predicted_belief",
    "uniform_belief",
    "update_belief",
    "update_belief_batch",
]


def uniform_belief(pomdp: POMDP, support: np.ndarray | None = None) -> np.ndarray:
    """The uniform belief, optionally restricted to a ``support`` mask.

    The paper's controller starts "from a belief-state in which all faults
    are equally likely" (Section 4); the recovery layer passes the fault-state
    mask as ``support`` to build exactly that belief.
    """
    if support is None:
        return np.full(pomdp.n_states, 1.0 / pomdp.n_states)
    mask = np.asarray(support, dtype=bool)
    if mask.shape != (pomdp.n_states,) or not mask.any():
        raise BeliefError("support must be a non-empty state mask")
    belief = np.zeros(pomdp.n_states)
    belief[mask] = 1.0 / mask.sum()
    return belief


def point_belief(pomdp: POMDP, state: int) -> np.ndarray:
    """A belief concentrated on a single ``state``."""
    if not 0 <= state < pomdp.n_states:
        raise BeliefError(f"state {state} out of range for {pomdp.n_states} states")
    belief = np.zeros(pomdp.n_states)
    belief[state] = 1.0
    return belief


def predicted_belief(pomdp: POMDP, belief: np.ndarray, action: int) -> np.ndarray:
    """The pre-observation next-state distribution ``sum_s p(.|s,a) pi(s)``."""
    return predict(pomdp.transitions, belief, action)


def observation_probabilities(
    pomdp: POMDP, belief: np.ndarray, action: int
) -> np.ndarray:
    """Eq. 3: ``gamma^{pi,a}(o)`` for every observation ``o``.

    ``gamma[o]`` is the probability of observing ``o`` after choosing
    ``action`` in ``belief``.
    """
    return observation_probabilities_from_predicted(
        pomdp.observations, predicted_belief(pomdp, belief, action), action
    )


def update_belief(
    pomdp: POMDP, belief: np.ndarray, action: int, observation: int
) -> np.ndarray:
    """Eq. 4: the posterior belief ``pi^{pi,a,o}``.

    Raises :class:`~repro.exceptions.BeliefError` when ``observation`` has
    zero probability under ``belief`` and ``action`` — i.e., the model says
    the observation cannot happen, which indicates a model/environment
    mismatch the caller must handle.
    """
    predicted = predicted_belief(pomdp, belief, action)
    joint = predicted * observation_column(pomdp.observations, action, observation)
    total = joint.sum()
    if total <= GAMMA_EPSILON:
        raise BeliefError(
            f"observation {observation} has probability ~0 under action "
            f"{action} and the current belief"
        )
    return joint / total


def update_belief_batch(
    pomdp: POMDP,
    beliefs: np.ndarray,
    action: int,
    observations: np.ndarray | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised Eq. 4 over a ``(m, |S|)`` stack of beliefs.

    With ``observations=None`` returns ``(gamma, posteriors)`` of shapes
    ``(m, |O|)`` and ``(m, |O|, |S|)`` — every observation branch of every
    belief, with impossible branches (``gamma <= GAMMA_EPSILON``) zeroed.

    With ``observations`` given (one index, or one per belief) the chosen
    branches are selected and the shapes collapse to ``(m,)`` and
    ``(m, |S|)``.  Mirroring the scalar path's strictness, a zero-probability
    selection raises :class:`~repro.exceptions.BeliefError`, and so does a
    negative index: the environment's ``NO_OBSERVATION`` sentinel (``-1``)
    marks "no observation was emitted" and must never reach Eq. 4 — numpy
    would silently wrap it to the last observation column and corrupt every
    posterior in the batch.
    """
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    gamma, posteriors = belief_update_batch(
        pomdp.transitions, pomdp.observations, beliefs, action
    )
    if observations is None:
        return gamma, posteriors
    chosen = np.asarray(observations, dtype=np.int64)
    if chosen.ndim == 0:
        chosen = np.full(beliefs.shape[0], int(chosen), dtype=np.int64)
    if chosen.shape != (beliefs.shape[0],):
        raise BeliefError(
            f"need one observation per belief: got {chosen.shape} "
            f"for {beliefs.shape[0]} beliefs"
        )
    if np.any(chosen < 0):
        raise BeliefError(
            "negative observation index (the NO_OBSERVATION sentinel) "
            "cannot be folded into Eq. 4"
        )
    if np.any(chosen >= pomdp.n_observations):
        raise BeliefError(
            f"observation index out of range for {pomdp.n_observations} "
            "observations"
        )
    rows = np.arange(beliefs.shape[0])
    selected_gamma = gamma[rows, chosen]
    impossible = np.flatnonzero(selected_gamma <= GAMMA_EPSILON)
    if impossible.size:
        i = int(impossible[0])
        raise BeliefError(
            f"observation {int(chosen[i])} has probability ~0 under action "
            f"{action} and belief {i} of the batch"
        )
    return selected_gamma, posteriors[rows, chosen]


def next_beliefs(
    pomdp: POMDP, belief: np.ndarray, action: int, epsilon: float = GAMMA_EPSILON
) -> tuple[np.ndarray, np.ndarray]:
    """All reachable posteriors for ``(belief, action)`` in one shot.

    Returns ``(observation_indices, beliefs)`` where ``beliefs`` has shape
    ``(len(observation_indices), |S|)`` and row ``i`` is the posterior after
    observing ``observation_indices[i]``.  Only observations with
    ``gamma(o) > epsilon`` are included; this is the branch pruning that
    makes the finite-depth tree of Figure 1(b) tractable.

    The joint factor comes from the shared per-model
    :class:`~repro.pomdp.cache.JointFactorCache` when the model is small
    enough to cache: one action's block of its memoised every-action joint,
    so enumerating several actions from one belief does one matrix product.
    """
    cache = get_joint_cache(pomdp)
    if cache is not None:
        joint = cache.joint_all(belief)[action]  # (|S|, |O|)
    else:
        predicted = predicted_belief(pomdp, belief, action)
        joint = predicted[:, None] * observation_matrix_dense(
            pomdp.observations, action
        )
    gamma = joint.sum(axis=0)
    reachable = np.flatnonzero(gamma > epsilon)
    posteriors = (joint[:, reachable] / gamma[reachable]).T
    return reachable, posteriors


def belief_reward(pomdp: POMDP, belief: np.ndarray, action: int) -> float:
    """Expected single-step reward ``pi . r(a)`` of ``action`` in ``belief``."""
    if pomdp.backend.is_sparse:
        return float(reward_row(pomdp.rewards, action) @ belief)
    return float(belief @ pomdp.rewards[action])


def belief_bellman_backup(pomdp: POMDP, belief: np.ndarray, value_fn) -> float:
    """One application of the operator ``L_p`` of Eq. 2 at ``belief``.

    ``value_fn(next_belief) -> float`` supplies the value of successor
    beliefs.  Used by the bound-invariant checker (Property 1(b) requires
    ``V_B^- <= L_p V_B^-``) and by the tests that validate the tree
    expansion against a direct implementation.
    """
    best = -np.inf
    for action in range(pomdp.n_actions):
        gamma = observation_probabilities(pomdp, belief, action)
        total = belief_reward(pomdp, belief, action)
        for observation in np.flatnonzero(gamma > GAMMA_EPSILON):
            posterior = update_belief(pomdp, belief, action, int(observation))
            total += pomdp.discount * gamma[observation] * value_fn(posterior)
        best = max(best, total)
    return best
