"""Sparse model containers — the storage side of the backend abstraction.

The dense backend stores a POMDP as three ndarrays: transitions
``(|A|, |S|, |S|)``, observations ``(|A|, |S|, |O|)`` and rewards
``(|A|, |S|)``.  On the tiered recovery family those tensors are
infeasible long before the 300,002-state acceptance point (the transition
tensor alone would be hundreds of terabytes), yet almost all of their
content is *shared structure*: every action leaves most states untouched,
every action observes through the same monitor suite, and every reward is
"rate times duration plus a probe fee" with a handful of exceptions.

The three containers here store exactly that shared structure plus the
exceptions:

* :class:`SparseTransitions` — one base CSR matrix plus per-action *row
  overrides* (action ``a`` behaves like ``base`` with a few rows replaced).
* :class:`SparseObservations` — one base CSR matrix plus per-action
  *whole-matrix* overrides (only the terminate action observes
  differently).
* :class:`StructuredRewards` — the rank-one form
  ``r[a, s] = time_scale[a] * rate[s] - fixed[a]`` plus sparse
  *replacement* overrides.  Scalar lookups return the stored replacement
  bit-for-bit (simulated costs feed campaign fingerprints), while batched
  products use a precomputed additive-delta matrix.

Everything here is pure storage + linear algebra; backend selection and
dispatch live in :mod:`repro.linalg.backends` / :mod:`repro.linalg.ops`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ModelError
from repro.util.validation import NEGATIVITY_ATOL, SUM_ATOL


def _as_csr(matrix, shape=None) -> sp.csr_matrix:
    """Coerce ``matrix`` to canonical CSR (sorted indices, no duplicates)."""
    csr = sp.csr_matrix(matrix, shape=shape)
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


#: Fibonacci-hash multiplier for :func:`csr_row_hashes` (2^64 / phi).
_HASH_PRIME = np.uint64(0x9E3779B97F4A7C15)


def csr_row_hashes(matrix: sp.csr_matrix) -> np.ndarray:
    """Order-insensitive ``uint64`` content hash of every CSR row.

    Two rows with identical ``(column, value)`` entry sets hash equally
    (explicit zeros are dropped first, so padding does not perturb the
    hash).  Collisions are possible — callers group rows by hash and then
    compare candidate groups exactly — which keeps the duplicate-action
    pass O(|rows|) instead of O(|rows|^2).
    """
    cleaned = matrix.tocsr(copy=True)
    cleaned.eliminate_zeros()
    hashes = np.zeros(cleaned.shape[0], dtype=np.uint64)
    if cleaned.nnz:
        mixed = (
            (cleaned.indices.astype(np.uint64) + np.uint64(1)) * _HASH_PRIME
        ) ^ cleaned.data.astype(np.float64).view(np.uint64)
        row_nnz = np.diff(cleaned.indptr)
        occupied = np.flatnonzero(row_nnz)
        sums = np.add.reduceat(mixed, cleaned.indptr[occupied])
        hashes[occupied] = sums * _HASH_PRIME + row_nnz[occupied].astype(np.uint64)
    return hashes


def _check_rows_stochastic(rows: sp.csr_matrix, labels: np.ndarray, name: str) -> None:
    """Validate that every row of CSR ``rows`` is a distribution.

    ``labels`` maps local row numbers to reportable identifiers.
    """
    if rows.nnz and rows.data.min() < -NEGATIVITY_ATOL:
        raise ModelError(f"{name} has negative entries: min={rows.data.min():.3g}")
    sums = np.asarray(rows.sum(axis=1)).ravel()
    bad = np.flatnonzero(~np.isclose(sums, 1.0, atol=SUM_ATOL))
    if bad.size:
        shown = np.asarray(labels)[bad][:8]
        raise ModelError(
            f"{name} rows {shown.tolist()} do not sum to 1 "
            f"(sums {sums[bad][:8].tolist()})"
        )


@dataclass(frozen=True)
class SparseTransitions:
    """Per-action transition matrices as ``base`` + row overrides.

    Action ``a`` is ``base`` with the rows listed in
    ``row_state[action_ptr[a]:action_ptr[a + 1]]`` replaced by the matching
    rows of ``rows``.  ``row_action`` must be sorted ascending so per-action
    override blocks are contiguous slices.
    """

    base: sp.csr_matrix
    row_action: np.ndarray
    row_state: np.ndarray
    rows: sp.csr_matrix
    n_actions: int
    _action_ptr: np.ndarray = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", _as_csr(self.base))
        object.__setattr__(
            self, "row_action", np.asarray(self.row_action, dtype=np.int64)
        )
        object.__setattr__(
            self, "row_state", np.asarray(self.row_state, dtype=np.int64)
        )
        n_states = self.base.shape[0]
        if self.base.shape != (n_states, n_states):
            raise ModelError(f"transition base must be square, got {self.base.shape}")
        object.__setattr__(
            self, "rows", _as_csr(self.rows, shape=(len(self.row_action), n_states))
        )
        if self.row_action.shape != self.row_state.shape:
            raise ModelError("row_action and row_state must align")
        if np.any(np.diff(self.row_action) < 0):
            raise ModelError("row_action must be sorted ascending")
        if self.row_action.size > 1:
            same_action = np.diff(self.row_action) == 0
            if np.any(same_action & (np.diff(self.row_state) <= 0)):
                raise ModelError(
                    "row_state must be strictly ascending within each action"
                )
        if self.row_action.size and (
            self.row_action.min() < 0 or self.row_action.max() >= self.n_actions
        ):
            raise ModelError("row_action out of range")
        if self.row_state.size and (
            self.row_state.min() < 0 or self.row_state.max() >= n_states
        ):
            raise ModelError("row_state out of range")
        object.__setattr__(
            self,
            "_action_ptr",
            np.searchsorted(self.row_action, np.arange(self.n_actions + 1)),
        )

    # -- shape protocol -------------------------------------------------
    @property
    def n_states(self) -> int:
        return int(self.base.shape[0])

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_actions, self.n_states, self.n_states)

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes (CSR data + index arrays)."""
        total = 0
        for csr in (self.base, self.rows):
            total += csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        return total + self.row_action.nbytes + self.row_state.nbytes

    # -- derived structure ---------------------------------------------
    def _override_slice(self, action: int) -> slice:
        return slice(int(self._action_ptr[action]), int(self._action_ptr[action + 1]))

    @property
    def delta_rows(self) -> sp.csr_matrix:
        """``rows - base[row_state]`` — the additive form of the overrides."""
        cached = self._cache.get("delta_rows")
        if cached is None:
            cached = _as_csr(self.rows - self.base[self.row_state])
            self._cache["delta_rows"] = cached
        return cached

    # -- linear algebra -------------------------------------------------
    def predict_base(self, belief: np.ndarray) -> np.ndarray:
        """``belief @ base`` as a dense vector."""
        return np.asarray(self.base.T @ belief).ravel()

    def predict_base_batch(self, beliefs: np.ndarray) -> np.ndarray:
        """``beliefs @ base`` for a ``(m, |S|)`` stack, row for row.

        One CSR-transpose x dense-block product; scipy evaluates it column
        by column with the matvec kernel, so each output row is
        bit-identical to :meth:`predict_base` on that belief.
        """
        return np.asarray(self.base.T @ beliefs.T).T

    def predict_batch(
        self, beliefs: np.ndarray, action: int, base: np.ndarray | None = None
    ) -> np.ndarray:
        """``beliefs @ T_a`` for a ``(m, |S|)`` stack (batched Eq. 3).

        The incremental fast path of the batched belief update: the shared
        base product may be passed in as ``base`` (and is computed here
        otherwise), and the override correction adds only the delta rows
        the action replaces, scaled by each belief's mass on the origin
        states — unchanged rows are reused across the whole batch.
        """
        predicted = (
            self.predict_base_batch(beliefs) if base is None else base.copy()
        )
        block = self._override_slice(action)
        if block.start != block.stop:
            mass = beliefs[:, self.row_state[block]]
            predicted += np.asarray(self.delta_rows[block].T @ mass.T).T
        return predicted

    def live_corrections(self, belief: np.ndarray) -> tuple[np.ndarray, sp.csr_matrix]:
        """The override corrections ``belief`` sets off.

        Returns ``(touched, corrections)``: ``touched`` lists, ascending,
        the actions with an override row on a state ``belief`` gives mass
        to, and row ``i`` of the CSR ``corrections`` is
        ``belief @ T_a - belief @ base`` for ``a = touched[i]``.

        Only these *live* rows are read: they are gathered straight from
        :attr:`delta_rows` and scaled by their origin state's mass.  As
        ``row_action`` is sorted they come grouped by action, so an
        action's row is its live rows laid end to end; its columns may
        repeat and are not sorted.  scipy's products and ``toarray`` sum
        duplicate entries, so the rows are never canonicalised.
        """
        mass = np.asarray(belief, dtype=float)[self.row_state]
        live = np.flatnonzero(mass)
        rows = self.delta_rows[live]
        rows.data *= np.repeat(mass[live], np.diff(rows.indptr))
        row_action = self.row_action[live]
        first = np.flatnonzero(np.diff(row_action, prepend=-1))
        corrections = sp.csr_matrix(
            (rows.data, rows.indices, np.append(rows.indptr[first], rows.nnz)),
            shape=(first.size, self.n_states),
        )
        return row_action[first], corrections

    def predict(self, belief: np.ndarray, action: int) -> np.ndarray:
        """``belief @ T_a`` as a dense vector (Eq. 3 numerator)."""
        predicted = self.predict_base(belief)
        block = self._override_slice(action)
        if block.start != block.stop:
            mass = belief[self.row_state[block]]
            predicted += np.asarray(self.delta_rows[block].T @ mass).ravel()
        return predicted

    def matvec(self, action: int, values: np.ndarray) -> np.ndarray:
        """``T_a @ values`` as a dense vector (the Bellman-backup direction)."""
        out = np.asarray(self.base @ values).ravel()
        block = self._override_slice(action)
        if block.start != block.stop:
            out[self.row_state[block]] = np.asarray(
                self.rows[block] @ values
            ).ravel()
        return out

    def row(self, action: int, state: int) -> np.ndarray:
        """Dense outgoing distribution of ``(action, state)``."""
        block = self._override_slice(action)
        local = np.searchsorted(self.row_state[block], state)
        states = self.row_state[block]
        if local < states.size and states[local] == state:
            return np.asarray(self.rows[block.start + local].todense()).ravel()
        return np.asarray(self.base[state].todense()).ravel()

    def action_matrix(self, action: int) -> sp.csr_matrix:
        """``T_a`` materialised as its own CSR matrix."""
        block = self._override_slice(action)
        if block.start == block.stop:
            return self.base
        matrix = self.base.tolil(copy=True)
        states = self.row_state[block]
        matrix[states] = self.rows[block]
        return _as_csr(matrix)

    def action_column(self, action: int, state: int) -> np.ndarray:
        """Dense incoming column ``T_a[:, s]`` (used by the analyzer)."""
        column = np.asarray(self.base[:, state].todense()).ravel().copy()
        block = self._override_slice(action)
        if block.start != block.stop:
            column[self.row_state[block]] = (
                np.asarray(self.rows[block][:, state].todense()).ravel()
            )
        return column

    def self_loop_values(self, state: int) -> np.ndarray:
        """``T_a[s, s]`` for every action ``a`` (absorbing-state checks)."""
        values = np.full(self.n_actions, float(self.base[state, state]))
        hits = np.flatnonzero(self.row_state == state)
        if hits.size:
            values[self.row_action[hits]] = (
                np.asarray(self.rows[hits][:, state].todense()).ravel()
            )
        return values

    def override_row_hashes(self) -> tuple[np.ndarray, np.ndarray]:
        """``(hashes, noop)`` per override row, both vectorised.

        ``hashes[i]`` is the content hash of override row ``i``
        (:func:`csr_row_hashes`); ``noop[i]`` is True when the override
        row equals its base row exactly, i.e. replacing it changes
        nothing.  Together they give each action an effective-content
        signature without densifying anything: the analyzer's
        duplicate-action pass groups actions by their non-noop
        ``(state, hash)`` pairs.
        """
        cached = self._cache.get("override_row_hashes")
        if cached is None:
            delta = self.delta_rows.copy()
            delta.eliminate_zeros()
            noop = np.diff(delta.indptr) == 0
            cached = (csr_row_hashes(self.rows), noop)
            self._cache["override_row_hashes"] = cached
        return cached

    def override_self_loops(self) -> np.ndarray:
        """``rows[i][row_state[i]]`` for every override row, vectorised.

        The self-loop entry each override row assigns to its own state —
        the per-row counterpart of :meth:`self_loop_values`, computed for
        all override rows at once (absorbing-state passes over large
        ``S_phi`` sets).
        """
        if not len(self.row_state):
            return np.zeros(0)
        picked = self.rows[np.arange(len(self.row_state)), self.row_state]
        return np.asarray(picked).ravel()

    def effective_nnz(self) -> int:
        """Total stored entries summed over the |A| effective matrices."""
        base_row_nnz = np.diff(self.base.indptr)
        rows_nnz = np.diff(self.rows.indptr)
        masked = base_row_nnz[self.row_state].sum()
        return int(
            self.n_actions * self.base.nnz - masked + rows_nnz.sum()
        )

    def mean_matrix(self) -> sp.csr_matrix:
        """``mean_a T_a`` in CSR form (the Eq. 5 uniform-random chain)."""
        collapsed = sp.csr_matrix(
            (
                np.ones(len(self.row_state)),
                (self.row_state, np.arange(len(self.row_state))),
            ),
            shape=(self.n_states, len(self.row_state)),
        )
        mean = self.base + (collapsed @ self.delta_rows) / float(self.n_actions)
        return _as_csr(mean)

    def union_support(self) -> sp.csr_matrix:
        """The analyzer's union graph: an edge wherever some action has a
        positive transition probability.

        Its support is that of the element-wise max over actions; the
        values are not (override rows at one state are summed, positive
        parts only, so a negative entry of a broken row cannot cancel
        another action's edge).  Conservative: a base row replaced by
        *every* action still contributes its edges (no shipped model
        overrides a row in all actions except the terminate action, whose
        base rows remain live through the passive actions).
        """
        collapsed = sp.csr_matrix(
            (
                np.ones(len(self.row_state)),
                (self.row_state, np.arange(len(self.row_state))),
            ),
            shape=(self.n_states, len(self.row_state)),
        )
        stacked = (collapsed @ self.rows.maximum(0.0)).tocsr()
        return _as_csr(self.base.maximum(stacked))

    # -- validation -----------------------------------------------------
    def validate(self, name: str = "transitions") -> None:
        """Check every *effective* row is stochastic.

        Base rows are checked once; overridden rows are checked from their
        override content, so a non-stochastic base row masked by overrides
        in every action still fails (it would surface through
        :meth:`mean_matrix` otherwise).
        """
        _check_rows_stochastic(
            self.base, np.arange(self.n_states), f"{name} (base)"
        )
        if len(self.row_action):
            labels = np.stack([self.row_action, self.row_state], axis=1)
            _check_rows_stochastic(self.rows, labels, f"{name} (overrides)")


@dataclass(frozen=True)
class SparseObservations:
    """Per-action observation matrices as ``base`` + whole-matrix overrides."""

    base: sp.csr_matrix
    overrides: dict[int, sp.csr_matrix]
    n_actions: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "base", _as_csr(self.base))
        shape = self.base.shape
        fixed = {}
        for action, matrix in self.overrides.items():
            if not 0 <= int(action) < self.n_actions:
                raise ModelError(f"observation override action {action} out of range")
            csr = _as_csr(matrix)
            if csr.shape != shape:
                raise ModelError(
                    f"observation override for action {action} has shape "
                    f"{csr.shape}, expected {shape}"
                )
            fixed[int(action)] = csr
        object.__setattr__(self, "overrides", fixed)

    @property
    def n_states(self) -> int:
        return int(self.base.shape[0])

    @property
    def n_observations(self) -> int:
        return int(self.base.shape[1])

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_actions, self.n_states, self.n_observations)

    @property
    def nbytes(self) -> int:
        total = 0
        for csr in (self.base, *self.overrides.values()):
            total += csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
        return total

    def matrix(self, action: int) -> sp.csr_matrix:
        """The full ``(|S|, |O|)`` CSR matrix of ``action``."""
        return self.overrides.get(action, self.base)

    def row(self, action: int, state: int) -> np.ndarray:
        """Dense observation distribution of ``(action, state)``."""
        return np.asarray(self.matrix(action)[state].todense()).ravel()

    def column(self, action: int, observation: int) -> np.ndarray:
        """Dense likelihood column ``p(o | s', a)`` over states."""
        return (
            np.asarray(self.matrix(action)[:, observation].todense()).ravel()
        )

    def max_per_observation(self) -> np.ndarray:
        """``max_{a, s} p(o | s, a)`` per observation (dead-signal check)."""
        best = np.asarray(self.base.max(axis=0).todense()).ravel()
        for matrix in self.overrides.values():
            best = np.maximum(
                best, np.asarray(matrix.max(axis=0).todense()).ravel()
            )
        return best

    def validate(self, name: str = "observations") -> None:
        _check_rows_stochastic(
            self.base, np.arange(self.n_states), f"{name} (base)"
        )
        for action, matrix in sorted(self.overrides.items()):
            _check_rows_stochastic(
                matrix, np.arange(self.n_states), f"{name} (action {action})"
            )


@dataclass(frozen=True)
class StructuredRewards:
    """``r[a, s] = time_scale[a] * rate[s] - fixed[a]``, plus replacements.

    The rank-one part captures the paper's reward decomposition — each
    action costs "lost request rate times how long it takes, plus a fixed
    fee" — and the overrides carry the exceptions (repaired-state
    discounts, the terminate action's walk-away penalties).

    Overrides are *replacements*: ``scalar`` returns the stored value
    bit-for-bit, so simulated episode costs (which feed campaign
    fingerprints) cannot pick up floating-point drift from the
    decomposition.  Batched products go through a precomputed additive
    delta matrix instead.
    """

    time_scale: np.ndarray
    rate: np.ndarray
    fixed: np.ndarray
    override: sp.csr_matrix
    _cache: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "time_scale", np.asarray(self.time_scale, dtype=float)
        )
        object.__setattr__(self, "rate", np.asarray(self.rate, dtype=float))
        object.__setattr__(self, "fixed", np.asarray(self.fixed, dtype=float))
        csr = _as_csr(self.override, shape=(self.n_actions, self.n_states))
        object.__setattr__(self, "override", csr)
        if self.time_scale.shape != self.fixed.shape:
            raise ModelError("time_scale and fixed must align")

    @property
    def n_actions(self) -> int:
        return int(self.time_scale.shape[0])

    @property
    def n_states(self) -> int:
        return int(self.rate.shape[0])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_actions, self.n_states)

    @property
    def nbytes(self) -> int:
        return (
            self.time_scale.nbytes
            + self.rate.nbytes
            + self.fixed.nbytes
            + self.override.data.nbytes
            + self.override.indices.nbytes
            + self.override.indptr.nbytes
        )

    def _base_at(self, actions: np.ndarray, states: np.ndarray) -> np.ndarray:
        return self.time_scale[actions] * self.rate[states] - self.fixed[actions]

    @property
    def _additive(self) -> sp.csr_matrix:
        """Override deltas relative to the rank-one base (for products)."""
        cached = self._cache.get("additive")
        if cached is None:
            coo = self.override.tocoo()
            data = coo.data - self._base_at(coo.row, coo.col)
            cached = sp.csr_matrix(
                (data, (coo.row, coo.col)), shape=self.override.shape
            )
            self._cache["additive"] = cached
        return cached

    @property
    def _override_csc(self) -> sp.csc_matrix:
        cached = self._cache.get("override_csc")
        if cached is None:
            cached = self.override.tocsc()
            self._cache["override_csc"] = cached
        return cached

    def scalar(self, action: int, state: int) -> float:
        """``r[a, s]`` — bit-exact for overridden entries."""
        start, stop = self.override.indptr[action], self.override.indptr[action + 1]
        columns = self.override.indices[start:stop]
        local = np.searchsorted(columns, state)
        if local < columns.size and columns[local] == state:
            return float(self.override.data[start + local])
        return float(
            self.time_scale[action] * self.rate[state] - self.fixed[action]
        )

    def row(self, action: int) -> np.ndarray:
        """Dense reward row ``r[a, :]``."""
        values = self.time_scale[action] * self.rate - self.fixed[action]
        start, stop = self.override.indptr[action], self.override.indptr[action + 1]
        values[self.override.indices[start:stop]] = self.override.data[start:stop]
        return values

    def column(self, state: int) -> np.ndarray:
        """Dense reward column ``r[:, s]``."""
        values = self.time_scale * self.rate[state] - self.fixed
        csc = self._override_csc
        start, stop = csc.indptr[state], csc.indptr[state + 1]
        values[csc.indices[start:stop]] = csc.data[start:stop]
        return values

    def matvec(self, weights: np.ndarray) -> np.ndarray:
        """``r @ weights`` over all actions (expected reward per action).

        ``weights`` is one ``(|S|,)`` vector or a ``(|S|, m)`` block of
        them, giving ``(|A|,)`` or ``(|A|, m)``.
        """
        base = np.multiply.outer(self.time_scale, self.rate @ weights)
        base -= np.multiply.outer(self.fixed, weights.sum(axis=0))
        return base + np.asarray(self._additive @ weights).reshape(base.shape)

    def mean_over_actions(self) -> np.ndarray:
        """``mean_a r[a, :]`` (the Eq. 5 uniform-random-chain rewards)."""
        base = float(self.time_scale.mean()) * self.rate - float(self.fixed.mean())
        delta = np.asarray(self._additive.sum(axis=0)).ravel() / self.n_actions
        return base + delta

    def max_value(self) -> float:
        """Upper bound on ``max r[a, s]`` (tight on shipped models)."""
        rate_extreme = np.where(
            self.time_scale >= 0.0, self.rate.max(), self.rate.min()
        )
        best = float(np.max(self.time_scale * rate_extreme - self.fixed))
        if self.override.nnz:
            best = max(best, float(self.override.data.max()))
        return best

    def full(self) -> np.ndarray:
        """Densify to an ``(|A|, |S|)`` array (small models only)."""
        values = np.outer(self.time_scale, self.rate) - self.fixed[:, None]
        coo = self.override.tocoo()
        values[coo.row, coo.col] = coo.data
        return values

    def validate(self, name: str = "rewards") -> None:
        for label, array in (
            ("time_scale", self.time_scale),
            ("rate", self.rate),
            ("fixed", self.fixed),
        ):
            if not np.all(np.isfinite(array)):
                raise ModelError(f"{name}.{label} has non-finite entries")
        if self.override.nnz and not np.all(np.isfinite(self.override.data)):
            raise ModelError(f"{name} overrides have non-finite entries")


__all__ = [
    "SparseObservations",
    "SparseTransitions",
    "StructuredRewards",
    "csr_row_hashes",
]
