"""Backend-dispatching operations over model tensors.

Every belief-side hot path (:mod:`repro.pomdp.belief`, the lookahead tree,
the incremental bound refinement, the simulator) goes through these
functions instead of indexing raw ndarrays, so each path works unchanged
whether the model stores dense tensors or the sparse containers of
:mod:`repro.linalg.containers`.

Dense inputs take the exact code path the dense-only implementation used
(`belief @ transitions[action]` and friends), so the dense backend stays
bit-for-bit identical to the pre-refactor behaviour — the determinism
contract of the campaign fingerprints depends on that.

The belief-side hot operations (``predict``, ``transition_matvec``,
``observation_probabilities_from_predicted``, ``rewards_matvec``, and the
batch and block forms of the first three) count their dispatches under
``linalg.<op>.<dense|sparse>`` when telemetry is on,
so dense and sparse traces of the same campaign can be compared operation
for operation.  The counts are a pure function of the decision sequence,
hence worker-count invariant like the other deterministic counters.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.containers import (
    SparseObservations,
    SparseTransitions,
    StructuredRewards,
)
from repro.obs.telemetry import active as telemetry_active

#: Observation probabilities below this are treated as impossible branches.
#: Canonical home of the constant (re-exported by :mod:`repro.pomdp.belief`
#: for compatibility): the batched primitives below need it without creating
#: an import cycle through the belief module.
GAMMA_EPSILON = 1e-12

#: Scores within this of the maximum count as tied; ties break toward the
#: lowest index.  Symmetric models produce exactly-tied backup candidates,
#: and the two storage backends agree only to linear-solver precision
#: (~1e-13), so an exact argmax would let representation noise pick
#: different winners on each backend.  Canonical home of the constant
#: (re-exported by :mod:`repro.bounds.incremental` for compatibility).
BACKUP_TIE_EPSILON = 1e-9


def tie_break_argmax(
    scores: np.ndarray, epsilon: float = BACKUP_TIE_EPSILON, axis: int = 0
) -> np.ndarray | np.intp:
    """Lowest index within ``epsilon`` of the max along ``axis``.

    The shared tie-break used by the incremental Eq. 7 backups, the
    lookahead tree's branch winners, and :meth:`BoundVectorSet.value_batch`
    usage accounting: ``argmax`` over the boolean "within tolerance of the
    max" array returns the *first* tied index, so winner selection is
    deterministic and backend-independent.  Works on any score array; for
    a 1-D input with ``axis=0`` it returns a scalar index like
    :func:`numpy.argmax`.
    """
    scores = np.asarray(scores)
    tied = scores >= scores.max(axis=axis, keepdims=True) - epsilon
    return np.argmax(tied, axis=axis)


def _count_dispatch(op: str, sparse: bool) -> None:
    telemetry = telemetry_active()
    if telemetry is not None:
        telemetry.count(f"linalg.{op}.{'sparse' if sparse else 'dense'}")


# -- transitions --------------------------------------------------------


def predict(transitions, belief: np.ndarray, action: int) -> np.ndarray:
    """``belief @ T_a`` (the Eq. 3 prediction step), dense output."""
    if isinstance(transitions, SparseTransitions):
        _count_dispatch("predict", sparse=True)
        return transitions.predict(belief, action)
    _count_dispatch("predict", sparse=False)
    return belief @ transitions[action]


def predict_batch(
    transitions, beliefs: np.ndarray, action: int
) -> np.ndarray:
    """``beliefs @ T_a`` for a ``(m, |S|)`` stack of beliefs at once.

    Row ``i`` of the result is bit-identical to ``predict(transitions,
    beliefs[i], action)``: the sparse path runs one CSR-transpose product
    against the whole dense block (scipy evaluates a sparse x dense-block
    product column by column with the same axpy kernel as the matvec), and
    the incremental override correction touches only the columns whose base
    rows the action replaces, so shared structure is computed once per
    batch instead of once per belief.
    """
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    if isinstance(transitions, SparseTransitions):
        _count_dispatch("predict_batch", sparse=True)
        return transitions.predict_batch(beliefs, action)
    _count_dispatch("predict_batch", sparse=False)
    return beliefs @ transitions[action]


def transition_row(transitions, action: int, state: int) -> np.ndarray:
    """Dense outgoing distribution of ``(action, state)``."""
    if isinstance(transitions, SparseTransitions):
        return transitions.row(action, state)
    return np.asarray(transitions[action, state])


def transition_matvec(transitions, action: int, values: np.ndarray) -> np.ndarray:
    """``T_a @ values`` (the Bellman-backup direction), dense output."""
    if isinstance(transitions, SparseTransitions):
        _count_dispatch("transition_matvec", sparse=True)
        return transitions.matvec(action, values)
    _count_dispatch("transition_matvec", sparse=False)
    return transitions[action] @ values


def predict_block(transitions, belief: np.ndarray, actions: slice) -> np.ndarray:
    """``belief @ T_a`` for every action of the block ``actions``: ``(c, |S'|)``.

    Row ``i`` is bit-identical to ``predict(transitions, belief, a_i)``: the
    dense path is one batched product whose per-action kernel is that of
    :func:`predict`, the sparse path calls it per action.
    """
    if isinstance(transitions, SparseTransitions):
        _count_dispatch("predict_block", sparse=True)
        return np.stack(
            [transitions.predict(belief, a) for a in _block_range(actions)]
        )
    _count_dispatch("predict_block", sparse=False)
    return belief @ transitions[actions]


def transition_matvec_block(
    transitions, actions: slice, values: np.ndarray
) -> np.ndarray:
    """``T_a @ values[i]`` for the ``i``-th action of ``actions``: ``(c, |S|)``.

    Row ``i`` is bit-identical to ``transition_matvec(transitions, a_i,
    values[i])``, by the same construction as :func:`predict_block`.
    """
    if isinstance(transitions, SparseTransitions):
        _count_dispatch("transition_matvec_block", sparse=True)
        return np.stack(
            [
                transitions.matvec(a, row)
                for a, row in zip(_block_range(actions), values)
            ]
        )
    _count_dispatch("transition_matvec_block", sparse=False)
    return (transitions[actions] @ values[:, :, None])[:, :, 0]


def _block_range(actions: slice) -> range:
    return range(actions.start, actions.stop)


def mean_transition_matrix(transitions):
    """``mean_a T_a`` — dense array or CSR, matching the backend."""
    if isinstance(transitions, SparseTransitions):
        return transitions.mean_matrix()
    return np.asarray(transitions).mean(axis=0)


# -- observations -------------------------------------------------------


def observation_matrix(observations, action: int):
    """``(|S|, |O|)`` matrix of ``action`` — dense view or CSR."""
    if isinstance(observations, SparseObservations):
        return observations.matrix(action)
    return observations[action]


def observation_matrix_dense(observations, action: int) -> np.ndarray:
    if isinstance(observations, SparseObservations):
        return observations.matrix(action).toarray()
    return np.asarray(observations[action])


def observation_block(observations, actions: slice) -> np.ndarray:
    """Dense ``(c, |S|, |O|)`` observation matrices of the block ``actions``."""
    if isinstance(observations, SparseObservations):
        return np.stack(
            [observations.matrix(a).toarray() for a in _block_range(actions)]
        )
    return np.asarray(observations[actions])


def observation_row(observations, action: int, state: int) -> np.ndarray:
    """Dense observation distribution of ``(action, state)``."""
    if isinstance(observations, SparseObservations):
        return observations.row(action, state)
    return np.asarray(observations[action, state])


def observation_column(observations, action: int, observation: int) -> np.ndarray:
    """Dense likelihood column ``p(o | s', a)`` over successor states."""
    if isinstance(observations, SparseObservations):
        return observations.column(action, observation)
    return np.asarray(observations[action, :, observation])


def observation_probabilities_from_predicted(
    observations, predicted: np.ndarray, action: int
) -> np.ndarray:
    """``predicted @ Z_a`` — the Eq. 4 denominator for every observation."""
    if isinstance(observations, SparseObservations):
        _count_dispatch("observation_probabilities", sparse=True)
        matrix = observations.matrix(action)
        return np.asarray(matrix.T @ predicted).ravel()
    _count_dispatch("observation_probabilities", sparse=False)
    return predicted @ observations[action]


def observation_probabilities_batch(
    observations, predicted: np.ndarray, action: int
) -> np.ndarray:
    """``predicted @ Z_a`` for a ``(m, |S|)`` stack of predictions.

    The batched Eq. 3 denominator: row ``i`` is
    ``observation_probabilities_from_predicted(observations, predicted[i],
    action)`` computed through one product over the whole stack.
    """
    predicted = np.atleast_2d(np.asarray(predicted, dtype=float))
    if isinstance(observations, SparseObservations):
        _count_dispatch("observation_probabilities_batch", sparse=True)
        matrix = observations.matrix(action)
        return np.asarray(matrix.T @ predicted.T).T
    _count_dispatch("observation_probabilities_batch", sparse=False)
    return predicted @ observations[action]


def belief_update_batch(
    transitions,
    observations,
    beliefs: np.ndarray,
    action: int,
    epsilon: float = GAMMA_EPSILON,
) -> tuple[np.ndarray, np.ndarray]:
    """Eqs. 3-4 for every observation over a ``(m, |S|)`` belief stack.

    Returns ``(gamma, posteriors)`` with shapes ``(m, |O|)`` and
    ``(m, |O|, |S|)``: ``gamma[i, o]`` is the probability of observing
    ``o`` after choosing ``action`` in belief ``i``, and
    ``posteriors[i, o]`` is the Eq. 4 posterior.  Branches with
    ``gamma <= epsilon`` are impossible under the model; their posterior
    rows are zeroed rather than divided through, so callers mask on
    ``gamma`` exactly like the scalar path raises ``BeliefError``.

    The sparse path is two CSR x dense-block products (prediction through
    the shared transition base plus the per-action override correction,
    then the observation weighting); only the joint factor expansion is
    dense, so cost scales with ``m * |S| * |O|``, not with the model's
    dense tensor sizes.
    """
    beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
    predicted = predict_batch(transitions, beliefs, action)  # (m, |S|)
    if isinstance(observations, SparseObservations):
        matrix = observations.matrix(action)
        gamma = np.asarray(matrix.T @ predicted.T).T  # (m, |O|)
        obs_dense = matrix.toarray()
    else:
        obs_dense = np.asarray(observations[action])
        gamma = predicted @ obs_dense
    # joint[i, o, s'] = predicted[i, s'] * q(o | s', a)
    joint = predicted[:, None, :] * obs_dense.T[None, :, :]
    reachable = gamma > epsilon
    safe = np.where(reachable, gamma, 1.0)
    posteriors = np.where(
        reachable[:, :, None], joint / safe[:, :, None], 0.0
    )
    return gamma, posteriors


# -- rewards ------------------------------------------------------------


def reward_scalar(rewards, action: int, state: int) -> float:
    """``r[a, s]`` — bit-exact on both backends (feeds fingerprints)."""
    if isinstance(rewards, StructuredRewards):
        return rewards.scalar(action, state)
    return float(rewards[action, state])


def reward_row(rewards, action: int) -> np.ndarray:
    """Dense reward row ``r[a, :]``."""
    if isinstance(rewards, StructuredRewards):
        return rewards.row(action)
    return np.asarray(rewards[action])


def reward_block(rewards, actions: slice) -> np.ndarray:
    """Dense ``(c, |S|)`` reward rows of the block ``actions``."""
    if isinstance(rewards, StructuredRewards):
        return np.stack([rewards.row(a) for a in _block_range(actions)])
    return np.asarray(rewards[actions])


def reward_column(rewards, state: int) -> np.ndarray:
    """Dense reward column ``r[:, s]``."""
    if isinstance(rewards, StructuredRewards):
        return rewards.column(state)
    return np.asarray(rewards[:, state])


def rewards_matvec(rewards, weights: np.ndarray) -> np.ndarray:
    """``r @ weights`` over all actions (expected reward per action).

    ``weights`` may also be a ``(|S|, m)`` block of beliefs, giving the
    ``(|A|, m)`` expected rewards of each.
    """
    if isinstance(rewards, StructuredRewards):
        _count_dispatch("rewards_matvec", sparse=True)
        return rewards.matvec(weights)
    _count_dispatch("rewards_matvec", sparse=False)
    return rewards @ weights


def rewards_mean_over_actions(rewards) -> np.ndarray:
    if isinstance(rewards, StructuredRewards):
        return rewards.mean_over_actions()
    return np.asarray(rewards).mean(axis=0)


def rewards_max_value(rewards) -> float:
    if isinstance(rewards, StructuredRewards):
        return rewards.max_value()
    return float(np.max(rewards))


def bellman_backup_envelope(
    transitions: SparseTransitions, rewards, values: np.ndarray, discount: float
) -> np.ndarray:
    """``max_a [ r_a + discount * T_a @ values ]`` per state, exact.

    The fully-observable Bellman backup of ``values``, maximised over
    actions.  This is the right-hand side of the static bound-soundness
    certificate (:mod:`repro.analysis.certify`): every vector of a bound
    set produced by the Eq. 7 refinement is pointwise below the envelope
    of the set's pointwise maximum.  Exact per-action evaluation — reward
    overrides and transition row overrides are honoured entry for entry,
    never approximated by the rank-one envelope — so the certificate can
    not be loosened by override placement.

    Works on the sparse containers the analyzer's views hold; the cost is
    O(|A| * |S|) after two sparse matvecs.  Bound sets are only ever
    certified against models small enough to have been solved, so this
    stays off the 300k-state analyzer budget.
    """
    values = np.asarray(values, dtype=float)
    base_backed = np.asarray(transitions.base @ values).ravel()
    rows_backed = np.asarray(transitions.rows @ values).ravel()
    envelope = np.full(transitions.n_states, -np.inf)
    for action in range(transitions.n_actions):
        backed = reward_row(rewards, action) + discount * base_backed
        block = transitions._override_slice(action)
        if block.start != block.stop:
            states = transitions.row_state[block]
            backed[states] += discount * (
                rows_backed[block] - base_backed[states]
            )
        np.maximum(envelope, backed, out=envelope)
    return envelope


__all__ = [
    "BACKUP_TIE_EPSILON",
    "GAMMA_EPSILON",
    "belief_update_batch",
    "bellman_backup_envelope",
    "mean_transition_matrix",
    "observation_block",
    "observation_column",
    "observation_matrix",
    "observation_matrix_dense",
    "observation_probabilities_batch",
    "observation_probabilities_from_predicted",
    "observation_row",
    "predict",
    "predict_batch",
    "predict_block",
    "reward_block",
    "reward_column",
    "reward_row",
    "reward_scalar",
    "rewards_matvec",
    "rewards_max_value",
    "rewards_mean_over_actions",
    "tie_break_argmax",
    "transition_matvec",
    "transition_matvec_block",
    "transition_row",
]
