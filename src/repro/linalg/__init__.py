"""Array-backend abstraction for the model core.

``repro.linalg`` lets every belief-side operation run on either dense
ndarrays (the original representation) or sparse shared-structure
containers built on ``scipy.sparse`` CSR — the representation that makes
online decisions feasible on the 300,002-state tiered system where the
dense tensors would need hundreds of terabytes.

* :mod:`repro.linalg.containers` — :class:`SparseTransitions`,
  :class:`SparseObservations`, :class:`StructuredRewards`.
* :mod:`repro.linalg.backends` — ``DenseBackend`` / ``SparseBackend``,
  the ``backend="auto"`` selection heuristic, and lossless
  dense<->sparse conversion.
* :mod:`repro.linalg.ops` — dispatch functions used by the belief, tree,
  bounds, recovery and simulation layers.
"""

from repro.linalg.backends import (
    Backend,
    DenseBackend,
    SparseBackend,
    backend_of,
    densify_observations,
    densify_rewards,
    densify_transitions,
    resolve_backend,
    sparsify_observations,
    sparsify_rewards,
    sparsify_transitions,
    transition_density,
)
from repro.linalg.containers import (
    SparseObservations,
    SparseTransitions,
    StructuredRewards,
)
from repro.linalg.ops import (
    mean_transition_matrix,
    observation_column,
    observation_matrix,
    observation_matrix_dense,
    observation_probabilities_from_predicted,
    observation_row,
    predict,
    reward_column,
    reward_row,
    reward_scalar,
    rewards_matvec,
    rewards_max_value,
    rewards_mean_over_actions,
    transition_matvec,
    transition_row,
)

__all__ = [
    "Backend",
    "DenseBackend",
    "SparseBackend",
    "SparseObservations",
    "SparseTransitions",
    "StructuredRewards",
    "backend_of",
    "densify_observations",
    "densify_rewards",
    "densify_transitions",
    "mean_transition_matrix",
    "observation_column",
    "observation_matrix",
    "observation_matrix_dense",
    "observation_probabilities_from_predicted",
    "observation_row",
    "predict",
    "resolve_backend",
    "reward_column",
    "reward_row",
    "reward_scalar",
    "rewards_matvec",
    "rewards_max_value",
    "rewards_mean_over_actions",
    "sparsify_observations",
    "sparsify_rewards",
    "sparsify_transitions",
    "transition_density",
    "transition_matvec",
    "transition_row",
]
