"""Per-model cache of the joint transition-observation factors.

Every belief-side hot path — the lookahead tree of Figure 1(b), the
incremental bound refinement of Section 4.1, and posterior enumeration —
needs the same quantity for a belief ``pi`` and action ``a``::

    joint[s', o] = sum_s pi(s) p(s'|s, a) q(o|s', a)

The belief-independent part, ``F_a[s, s', o] = p(s'|s, a) q(o|s', a)``, only
depends on the model, yet the naive evaluation rebuilds the ``(|S'|, |O|)``
product from ``transitions`` and ``observations`` at every decision node.
:class:`JointFactorCache` precomputes ``F`` once per :class:`POMDP` as one
``(|S|, |A|*|S'|*|O|)`` matrix, so ``joint_all(beliefs)`` is a single
``(m, |S|) @ (|S|, |A|*|S'|*|O|)`` product that yields every action's joint
for a whole stack of beliefs at once.  That is how the lookahead tree
expands a level and how the Eq. 7 refinement scores every action;
posterior enumeration reads one action's block of it.

Both cache classes remember the joint of the last single belief they were
asked for (a read-only array), so a decision that refines the bound at its
belief and then expands the tree from it computes that joint once.

POMDPs are frozen dataclasses whose arrays are never mutated after
validation, so a cache entry is valid for the lifetime of its model object;
derived models (``with_discount`` and friends) are new objects and get their
own entries.  Caches are registered per model *instance* and dropped
automatically when the model is garbage-collected.  Models whose factor
tensor would exceed the :func:`max_cache_bytes` budget are not cached —
:func:`get_joint_cache` returns ``None`` and callers fall back to the
two-product path, so memory use stays bounded on very large models.
"""

from __future__ import annotations

import weakref

import numpy as np
import scipy.sparse as sp

from repro.obs.telemetry import active as telemetry_active
from repro.obs.telemetry import span
from repro.pomdp.model import POMDP
from repro.util.validation import int_setting

#: Default upper limit on the bytes a single model's factor tensor may
#: occupy.  Past this, caching is declined.  The same budget sizes the
#: chunks of the fused sparse depth-1 kernel (:mod:`repro.pomdp.tree`).
#: The effective limit is resolved per call by :func:`max_cache_bytes`:
#: the ``REPRO_MAX_CACHE_BYTES`` environment variable, else this default.
MAX_CACHE_BYTES = 256 * 1024 * 1024

#: Environment variable overriding :data:`MAX_CACHE_BYTES`.
MAX_CACHE_BYTES_ENV = "REPRO_MAX_CACHE_BYTES"


def max_cache_bytes() -> int:
    """The effective cache budget: ``REPRO_MAX_CACHE_BYTES`` in the
    environment, else the :data:`MAX_CACHE_BYTES` default.  ``0`` is a
    valid budget: it declines every cache.

    Raises:
        ValueError: the variable is not an integer >= 0; the message
            names it.
    """
    return int_setting(
        None, MAX_CACHE_BYTES_ENV, MAX_CACHE_BYTES_ENV, MAX_CACHE_BYTES, 0
    )


class _LastJointMemo:
    """The joint of the last single belief, remembered for the next caller.

    A decision asks twice for the joint at its belief: the Eq. 7 refinement
    passes ``(|S|,)``, then the lookahead tree's root ``(1, |S|)``.  Both
    shapes share one entry, keyed on the belief's bytes, so a different
    belief, or the same array changed in place, recomputes.  The entry (the
    key and a read-only joint) is swapped as one tuple, so sessions deciding
    on other threads never see a key paired with another belief's joint.
    """

    _last: tuple[bytes, np.ndarray] | None = None

    def joint_all(self, beliefs: np.ndarray) -> np.ndarray:
        """Every action's joint at once: ``(|A|, |S'|, |O|)`` for one belief,
        ``(m, |A|, |S'|, |O|)`` for a ``(m, |S|)`` stack."""
        beliefs = np.asarray(beliefs, dtype=float)
        if beliefs.ndim == 2 and beliefs.shape[0] != 1:
            return self._joint_all(beliefs)
        belief = beliefs.reshape(-1)
        key = belief.tobytes()
        last = self._last
        if last is None or last[0] != key:
            joint = self._joint_all(belief)
            joint.flags.writeable = False
            last = self._last = (key, joint)
        return last[1] if beliefs.ndim == 1 else last[1][None]

    def _joint_all(self, beliefs: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class JointFactorCache(_LastJointMemo):
    """Precomputed ``p(s', o | s, a)`` factors for one POMDP, stacked into
    one contiguous ``(|S|, |A|*|S'|*|O|)`` matrix."""

    def __init__(self, pomdp: POMDP):
        n_actions = pomdp.n_actions
        n_states = pomdp.n_states
        n_observations = pomdp.n_observations
        factors = (
            pomdp.transitions[:, :, :, None] * pomdp.observations[:, None, :, :]
        )
        self._stacked = np.ascontiguousarray(
            factors.transpose(1, 0, 2, 3).reshape(
                n_states, n_actions * n_states * n_observations
            )
        )
        self.n_actions = n_actions
        self.n_states = n_states
        self.n_observations = n_observations
        self._model_ref = weakref.ref(pomdp)

    @property
    def nbytes(self) -> int:
        """Memory the cached factor matrix occupies."""
        return self._stacked.nbytes

    def _joint_all(self, beliefs: np.ndarray) -> np.ndarray:
        return (beliefs @ self._stacked).reshape(
            beliefs.shape[:-1]
            + (self.n_actions, self.n_states, self.n_observations)
        )


class SparseJointFactorCache(_LastJointMemo):
    """Per-action CSR joint factors ``p(s', o | s, a)`` for a sparse POMDP.

    The dense cache flattens ``F_a`` into contiguous GEMV operands; on the
    sparse backend the same tensor is the per-action CSR product of ``T_a``
    with the observation matrix, built row-expansion style without ever
    densifying: entry ``(s, s')`` of ``T_a`` fans out into the non-zeros of
    observation row ``s'``, landing at flattened column ``s' * |O| + o``.
    ``joint_all`` returns dense arrays shaped exactly like the dense
    cache's, so every downstream consumer is backend-agnostic.
    """

    def __init__(self, pomdp: POMDP):
        self.n_actions = pomdp.n_actions
        self.n_states = pomdp.n_states
        self.n_observations = pomdp.n_observations
        self._factors = [
            _sparse_joint_factor(
                pomdp.transitions.action_matrix(action),
                pomdp.observations.matrix(action),
            )
            for action in range(pomdp.n_actions)
        ]
        self._model_ref = weakref.ref(pomdp)

    @property
    def nbytes(self) -> int:
        """Memory the cached CSR factors occupy."""
        return sum(
            factor.data.nbytes + factor.indices.nbytes + factor.indptr.nbytes
            for factor in self._factors
        )

    def _joint_all(self, beliefs: np.ndarray) -> np.ndarray:
        lead = beliefs.shape[:-1]
        out = np.empty(lead + (self.n_actions, self.n_states, self.n_observations))
        for action, factor in enumerate(self._factors):
            # A CSR x dense-block product runs the matvec kernel column by
            # column, so each row of a stack equals its single-belief joint.
            flat = np.asarray(factor.T @ beliefs.T).T
            out[..., action, :, :] = flat.reshape(
                lead + (self.n_states, self.n_observations)
            )
        return out


def _sparse_joint_factor(
    transition: sp.csr_matrix, observation: sp.csr_matrix
) -> sp.csr_matrix:
    """CSR ``(|S|, |S'|*|O|)`` with ``F[s, s'*|O| + o] = p(s'|s) q(o|s')``."""
    t = transition.tocoo()
    obs = observation.tocsr()
    n_observations = obs.shape[1]
    counts = np.diff(obs.indptr)[t.col]
    rows = np.repeat(t.row, counts)
    # Flattened observation indices of each destination state's non-zeros.
    starts = obs.indptr[t.col]
    offsets = np.arange(counts.sum()) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    obs_pos = np.repeat(starts, counts) + offsets
    cols = np.repeat(t.col, counts) * n_observations + obs.indices[obs_pos]
    data = np.repeat(t.data, counts) * obs.data[obs_pos]
    return sp.csr_matrix(
        (data, (rows, cols)),
        shape=(transition.shape[0], transition.shape[1] * n_observations),
    )


def cache_size_bytes(pomdp: POMDP) -> int:
    """Bytes the factor cache would need for ``pomdp``.

    Dense backend: the stacked matrix, ``8 * |A| * |S|^2 * |O|``.  Sparse
    backend: a CSR estimate from the stored non-zero counts (each
    transition entry fans out into at most the densest observation row,
    12 bytes per CSR non-zero).
    """
    if pomdp.backend.is_sparse:
        transitions = pomdp.transitions
        obs_nnz_per_row = max(
            1, int(np.diff(pomdp.observations.base.indptr).max(initial=1))
        )
        t_nnz = transitions.base.nnz * transitions.n_actions + transitions.rows.nnz
        return 12 * t_nnz * obs_nnz_per_row
    return 8 * pomdp.n_actions * pomdp.n_states**2 * pomdp.n_observations


#: Live caches keyed by model identity (the model may be unhashable, so the
#: registry keys on ``id``; a finalizer removes the entry when the model is
#: collected, and identity is re-checked on every hit to survive id reuse).
_CACHES: dict[int, JointFactorCache | SparseJointFactorCache] = {}


def get_joint_cache(pomdp: POMDP) -> JointFactorCache | SparseJointFactorCache | None:
    """The shared factor cache for ``pomdp``, or ``None`` when it would
    exceed :func:`max_cache_bytes`.

    The first call for a model builds the cache (an ``O(|A| |S|^2 |O|)``
    one-off on the dense backend, a CSR product per action on the sparse
    one); subsequent calls return the same object.
    """
    # Cache outcomes are *process-local* telemetry: a build happens once per
    # process per model, so hit/build/decline splits legitimately vary with
    # the campaign worker count (unlike the deterministic counters).
    # The cache.lookup histogram shows hit-path cost vs. first-build cost
    # as distribution tails rather than a single averaged total.
    telemetry = telemetry_active()
    with span("cache.lookup", category="cache"):
        return _lookup_joint_cache(pomdp, telemetry)


def _lookup_joint_cache(
    pomdp: POMDP, telemetry
) -> JointFactorCache | SparseJointFactorCache | None:
    limit = max_cache_bytes()
    required = cache_size_bytes(pomdp)
    if required > limit:
        if telemetry is not None:
            telemetry.count_process("cache.declines")
            telemetry.event(
                "cache_decline",
                n_states=pomdp.n_states,
                required_bytes=required,
                limit_bytes=limit,
                backend=pomdp.backend.name,
            )
        return None
    key = id(pomdp)
    cache = _CACHES.get(key)
    if cache is not None and cache._model_ref() is pomdp:
        if telemetry is not None:
            telemetry.count_process("cache.hits")
        return cache
    if pomdp.backend.is_sparse:
        cache = SparseJointFactorCache(pomdp)
    else:
        cache = JointFactorCache(pomdp)
    _CACHES[key] = cache
    weakref.finalize(pomdp, _CACHES.pop, key, None)
    if telemetry is not None:
        telemetry.count_process("cache.builds")
        telemetry.event(
            "cache_build", n_states=pomdp.n_states, nbytes=cache.nbytes
        )
    return cache


def clear_caches() -> None:
    """Drop every registered cache (tests and long-lived processes)."""
    _CACHES.clear()
