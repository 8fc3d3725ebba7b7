"""Backend selection and dense/sparse model conversion.

A model's *backend* is determined by what its transition container is:
raw ndarrays mean :data:`DENSE`, the containers of
:mod:`repro.linalg.containers` mean :data:`SPARSE`.  Model constructors
accept ``backend="auto" | "dense" | "sparse"`` and use
:func:`resolve_backend` — the same size/density heuristic that routes the
RA-Bound linear solve (:func:`repro.mdp.linear_solvers.select_method`) —
to decide whether a dense input should be converted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ModelError
from repro.linalg.containers import (
    SparseObservations,
    SparseTransitions,
    StructuredRewards,
)
from repro.mdp.linear_solvers import SPARSE_DENSITY_CUTOFF, SPARSE_MIN_STATES

#: Entries smaller than this count as structural zeros when estimating
#: density and when converting dense tensors to sparse containers.
STRUCTURAL_EPSILON = 0.0


@dataclass(frozen=True)
class Backend:
    """A named storage strategy for model tensors."""

    name: str

    @property
    def is_sparse(self) -> bool:
        return self.name == "sparse"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


DenseBackend = Backend("dense")
SparseBackend = Backend("sparse")

_BACKENDS = {"dense": DenseBackend, "sparse": SparseBackend}


def backend_of(transitions) -> Backend:
    """The backend a transition container implies."""
    if isinstance(transitions, SparseTransitions):
        return SparseBackend
    return DenseBackend


def resolve_backend(
    spec: str, n_states: int, density: float | None = None
) -> Backend:
    """Resolve a ``backend=`` argument to a concrete :class:`Backend`.

    ``"auto"`` reuses the PR 2 solver heuristic: go sparse at or above
    :data:`~repro.mdp.linear_solvers.SPARSE_MIN_STATES` states when the
    transition density is at or below
    :data:`~repro.mdp.linear_solvers.SPARSE_DENSITY_CUTOFF` (unknown
    density counts as sparse-friendly — callers that already hold dense
    tensors pass the measured density).
    """
    if spec in _BACKENDS:
        return _BACKENDS[spec]
    if spec != "auto":
        raise ModelError(
            f"unknown backend {spec!r}: expected 'auto', 'dense' or 'sparse'"
        )
    if n_states < SPARSE_MIN_STATES:
        return DenseBackend
    if density is not None and density > SPARSE_DENSITY_CUTOFF:
        return DenseBackend
    return SparseBackend


def transition_density(transitions) -> float:
    """Fraction of structurally non-zero transition entries."""
    if isinstance(transitions, SparseTransitions):
        filled = transitions.base.nnz * transitions.n_actions + transitions.rows.nnz
        return filled / float(transitions.n_actions * transitions.n_states**2)
    array = np.asarray(transitions)
    return float(np.count_nonzero(array)) / max(array.size, 1)


# -- dense -> sparse ----------------------------------------------------


def _csr_where(array: np.ndarray, stored: np.ndarray) -> sp.csr_matrix:
    """CSR of the 2-D ``array`` holding exactly the entries ``stored`` marks.

    Built straight from the row-major ``np.nonzero`` order, without the
    COO round trip of ``sp.csr_matrix(array)``.
    """
    rows, cols = np.nonzero(stored)
    indptr = np.searchsorted(rows, np.arange(array.shape[0] + 1))
    return sp.csr_matrix((array[rows, cols], cols, indptr), shape=array.shape)


def sparsify_transitions(transitions: np.ndarray) -> SparseTransitions:
    """Convert a dense ``(|A|, |S|, |S|)`` tensor to row-override form.

    The base is the first action's matrix, and every row of every other
    action that differs from it becomes an override; all override rows go
    into one CSR matrix.  Exact comparison keeps the conversion lossless:
    densifying any action matrix reproduces the input bit for bit (a
    probability stored as ``-0.0`` comes back as ``0.0``).
    """
    tensor = np.asarray(transitions, dtype=float)
    base = tensor[0]
    row_action, row_state = np.nonzero(np.any(tensor != base, axis=2))
    rows = tensor[row_action, row_state]
    return SparseTransitions(
        base=_csr_where(base, base != 0.0),
        row_action=row_action,
        row_state=row_state,
        rows=_csr_where(rows, rows != 0.0),
        n_actions=tensor.shape[0],
    )


def sparsify_observations(observations: np.ndarray) -> SparseObservations:
    """Convert a dense ``(|A|, |S|, |O|)`` tensor to base + overrides."""
    tensor = np.asarray(observations, dtype=float)
    base = tensor[0]
    overrides = {
        action: _csr_where(tensor[action], tensor[action] != 0.0)
        for action in range(1, tensor.shape[0])
        if np.any(tensor[action] != base)
    }
    return SparseObservations(
        base=_csr_where(base, base != 0.0),
        overrides=overrides,
        n_actions=tensor.shape[0],
    )


def sparsify_rewards(rewards: np.ndarray) -> StructuredRewards:
    """Convert a dense ``(|A|, |S|)`` reward array to structured form.

    The generic conversion uses a zero rank-one part and stores every
    non-zero entry, and every negative zero, as a replacement override.
    Scalar lookups and :meth:`~StructuredRewards.full` therefore reproduce
    the dense source bit for bit, sign bits included; a ``-0.0`` left to
    the rank-one part would come back as ``+0.0``.  Builders that know
    their reward decomposition construct :class:`StructuredRewards`
    directly instead.
    """
    array = np.asarray(rewards, dtype=float)
    n_actions, n_states = array.shape
    return StructuredRewards(
        time_scale=np.zeros(n_actions),
        rate=np.zeros(n_states),
        fixed=np.zeros(n_actions),
        override=_csr_where(array, (array != 0.0) | np.signbit(array)),
    )


# -- sparse -> dense ----------------------------------------------------


def densify_transitions(transitions) -> np.ndarray:
    """Materialise per-action transition matrices as a dense tensor."""
    if not isinstance(transitions, SparseTransitions):
        return np.asarray(transitions, dtype=float)
    tensor = np.broadcast_to(
        transitions.base.toarray(),
        (transitions.n_actions, transitions.n_states, transitions.n_states),
    ).copy()
    block = transitions.rows.toarray()
    tensor[transitions.row_action, transitions.row_state] = block
    return tensor


def densify_observations(observations) -> np.ndarray:
    if not isinstance(observations, SparseObservations):
        return np.asarray(observations, dtype=float)
    tensor = np.broadcast_to(
        observations.base.toarray(), observations.shape
    ).copy()
    for action, matrix in observations.overrides.items():
        tensor[action] = matrix.toarray()
    return tensor


def densify_rewards(rewards) -> np.ndarray:
    if isinstance(rewards, StructuredRewards):
        return rewards.full()
    return np.asarray(rewards, dtype=float)


__all__ = [
    "Backend",
    "DenseBackend",
    "SparseBackend",
    "backend_of",
    "densify_observations",
    "densify_rewards",
    "densify_transitions",
    "resolve_backend",
    "sparsify_observations",
    "sparsify_rewards",
    "sparsify_transitions",
    "transition_density",
]
