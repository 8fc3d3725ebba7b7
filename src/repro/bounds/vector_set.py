"""Sets of bounding hyperplanes (Eq. 6).

A piecewise-linear lower bound is represented as a set ``B`` of "bound
vectors"; the bound at belief ``pi`` is ``V_B^-(pi) = max_{b in B} pi . b``.
The set starts from the RA-Bound hyperplane and grows by incremental updates
(Section 4.1).  Section 4.3 notes that the number of vectors is not bounded
in general and suggests finite storage with least-used eviction; this class
implements that suggestion behind the ``max_vectors`` knob while defaulting
to the paper's unlimited behaviour.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.exceptions import ModelError
from repro.linalg.ops import BACKUP_TIE_EPSILON, tie_break_argmax
from repro.obs.telemetry import active as telemetry_active
from repro.pomdp import alpha

#: Component-wise tolerance under which two hyperplanes count as duplicates.
DUPLICATE_ATOL = 1e-12


class BoundVectorSet:
    """A mutable set of bounding hyperplanes over the belief simplex.

    Implements the :class:`repro.pomdp.tree.LeafValue` protocol so it can be
    plugged directly into the lookahead tree.

    Args:
        initial: one vector ``(|S|,)`` or a stack ``(k, |S|)`` to seed the
            set; for recovery controllers this is the RA-Bound vector.
        max_vectors: optional storage limit.  When adding a vector would
            exceed it, the least-used *non-seed* vector is evicted; the seed
            (index 0) is pinned because Property 1(b) is guaranteed when the
            RA-Bound hyperplane is present.
    """

    def __init__(self, initial: np.ndarray, max_vectors: int | None = None):
        stack = np.atleast_2d(np.asarray(initial, dtype=float)).copy()
        if stack.ndim != 2 or stack.shape[0] == 0:
            raise ModelError(f"initial vectors must be (k, |S|), got {stack.shape}")
        if max_vectors is not None and max_vectors < stack.shape[0]:
            raise ModelError(
                f"max_vectors={max_vectors} below initial count {stack.shape[0]}"
            )
        self._vectors = stack
        self._usage = np.zeros(stack.shape[0], dtype=np.int64)
        # Usage credits are the one write on the read path: sessions that
        # only read the set may evaluate it from several threads at once.
        self._usage_lock = threading.Lock()
        self._pinned = stack.shape[0]  # seed vectors are never evicted
        self.max_vectors = max_vectors
        self.additions = 0
        self.rejections = 0
        self.duplicates = 0
        self.dominated = 0
        self.evictions = 0

    def __getstate__(self) -> dict:
        # Campaign chunks deep-copy the set and spawned workers unpickle it;
        # a lock can be neither, so each copy gets a fresh one.
        state = self.__dict__.copy()
        del state["_usage_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._usage_lock = threading.Lock()

    @property
    def vectors(self) -> np.ndarray:
        """Read-only view of the current ``(k, |S|)`` hyperplane stack."""
        view = self._vectors.view()
        view.flags.writeable = False
        return view

    @property
    def n_states(self) -> int:
        """Dimension of the belief simplex the bound lives on."""
        return self._vectors.shape[1]

    def __len__(self) -> int:
        return self._vectors.shape[0]

    def value(self, belief: np.ndarray) -> float:
        """``V_B^-(belief)`` per Eq. 6; records usage for eviction.

        The returned value is the exact maximum; the usage credit goes to
        the first vector within :data:`~repro.linalg.ops.BACKUP_TIE_EPSILON`
        of it, the same tie-break the Eq. 7 backups and the lookahead tree
        use, so eviction order cannot depend on backend representation
        noise.
        """
        scores = self._vectors @ belief
        winner = int(tie_break_argmax(scores, BACKUP_TIE_EPSILON))
        with self._usage_lock:
            self._usage[winner] += 1
        return float(np.max(scores))

    def value_batch(
        self, beliefs: np.ndarray, weights: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorised :meth:`value` over a ``(m, |S|)`` belief stack.

        One ``(|B|, |S|) x (|S|, m)`` matmul evaluates the whole bound set
        against the whole stack.  A single belief may be passed 1-D; an
        empty stack returns an empty result.  Returned values are the exact
        per-column maxima (bit-identical to :meth:`value`); only the usage
        accounting goes through the shared tie-break.  ``weights`` gives
        each row's integer multiplicity: its winner is credited that many
        uses, as the lookahead does for a belief that stands for several
        tree branches (:mod:`repro.pomdp.tree`).
        """
        if self._vectors.shape[0] == 0:  # unreachable via the constructor
            raise ModelError("bound set has no vectors to evaluate")
        beliefs = np.atleast_2d(np.asarray(beliefs, dtype=float))
        if beliefs.shape[1] != self.n_states:
            raise ModelError(
                f"beliefs must have shape (m, {self.n_states}), "
                f"got {beliefs.shape}"
            )
        if beliefs.shape[0] == 0:
            return np.zeros(0)
        scores = self._vectors @ beliefs.T
        winners = tie_break_argmax(scores, BACKUP_TIE_EPSILON, axis=0)
        with self._usage_lock:
            np.add.at(self._usage, winners, 1 if weights is None else weights)
        return scores.max(axis=0)

    def record_wins(self, counts: np.ndarray) -> None:
        """Credit ``counts[j]`` won evaluations to vector ``j``.

        The fused sparse lookahead (:mod:`repro.pomdp.tree`) counts the
        branches each hyperplane wins without calling :meth:`value`, so it
        reports the counts here to keep the least-used eviction order
        identical to the dense path.
        """
        counts = np.asarray(counts, dtype=np.int64)
        with self._usage_lock:
            self._usage += counts

    def improvement_at(self, vector: np.ndarray, belief: np.ndarray) -> float:
        """How much ``vector`` would raise the bound at ``belief``."""
        return float(vector @ belief - np.max(self._vectors @ belief))

    def add(
        self,
        vector: np.ndarray,
        belief: np.ndarray | None = None,
        min_improvement: float = 0.0,
    ) -> bool:
        """Add ``vector`` to the set if it is useful.

        A vector is useful if it is not pointwise-dominated by an existing
        vector ("any additional bound hyperplanes that are not better in at
        least some regions of the probability simplex can be discarded",
        Section 4.1).  When ``belief`` is given, the vector is additionally
        required to improve the bound *at that belief* by more than
        ``min_improvement`` — the acceptance test of the incremental update
        procedure.  A non-zero ``min_improvement`` keeps the set compact by
        rejecting marginal hyperplanes, trading a slightly looser bound for
        bounded storage and update cost (the paper observes exactly this
        rapid-then-stable improvement profile in Figures 5(a)/(b)).

        Returns True when the vector was added.
        """
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.n_states,):
            raise ModelError(
                f"vector must have shape ({self.n_states},), got {vector.shape}"
            )
        telemetry = telemetry_active()
        threshold = max(alpha.LP_EPSILON, min_improvement)
        # "not >" so that a NaN improvement (a malformed belief) is rejected.
        if belief is not None and not (
            self.improvement_at(vector, belief) > threshold
        ):
            self.rejections += 1
            if telemetry is not None:
                telemetry.count("bounds.vectors_rejected")
            return False
        if self.contains(vector):
            # Exact-duplicate fast path: a copy of an existing hyperplane is
            # always pointwise-dominated, but checking equality first keeps
            # the common case of merging near-identical refinement streams
            # (parallel campaign workers all start from the same seed set)
            # cheap and makes the rejection reason observable.
            self.rejections += 1
            self.duplicates += 1
            if telemetry is not None:
                telemetry.count("bounds.vectors_rejected")
                telemetry.count("bounds.duplicates")
            return False
        if alpha.pointwise_dominated(vector, self._vectors):
            self.rejections += 1
            self.dominated += 1
            if telemetry is not None:
                telemetry.count("bounds.vectors_rejected")
                telemetry.count("bounds.dominated")
            return False
        if self.max_vectors is not None and len(self) >= self.max_vectors:
            self._evict()
        self._vectors = np.vstack([self._vectors, vector])
        self._usage = np.append(self._usage, 0)
        self.additions += 1
        if telemetry is not None:
            telemetry.count("bounds.vectors_added")
            telemetry.gauge("bounds.set_size", len(self))
        return True

    def contains(self, vector: np.ndarray, atol: float = DUPLICATE_ATOL) -> bool:
        """True when an (almost) identical hyperplane is already stored."""
        return bool(
            np.any(
                np.all(np.abs(self._vectors - vector) <= atol, axis=1)
            )
        )

    def merge(
        self,
        vectors: np.ndarray,
        min_improvement: float = 0.0,
        prune_after: bool = False,
    ) -> int:
        """Fold a stack of candidate hyperplanes into the set.

        This is the join step of the parallel campaign engine
        (:mod:`repro.sim.parallel`): workers refine their private copies of
        the bound set, and their new vectors are merged back here.  Each
        candidate goes through :meth:`add`'s duplicate and
        pointwise-dominance rejection, so merging the same refinement stream
        twice is a no-op; with ``prune_after`` the merged set is additionally
        swept for vectors that *became* dominated by later arrivals (the
        dominance-prune-on-join policy).

        Returns the number of vectors actually inserted.
        """
        stack = np.atleast_2d(np.asarray(vectors, dtype=float))
        if stack.size == 0:
            return 0
        if stack.shape[1] != self.n_states:
            raise ModelError(
                f"merge vectors must have shape (k, {self.n_states}), "
                f"got {stack.shape}"
            )
        added = 0
        # Intentionally row-wise: each add() can change the dominance set the
        # next candidate is tested against, so the merge cannot batch.
        for vector in stack:  # codelint: ignore[R904]
            if self.add(vector, min_improvement=min_improvement):
                added += 1
        if prune_after and added:
            self.prune(method="pointwise")
        return added

    def _evict(self) -> None:
        """Drop the least-used evictable vector (Section 4.3's suggestion)."""
        if len(self) <= self._pinned:
            raise ModelError("cannot evict: only pinned seed vectors remain")
        candidates = np.arange(self._pinned, len(self))
        victim = candidates[np.argmin(self._usage[candidates])]
        self._vectors = np.delete(self._vectors, victim, axis=0)
        self._usage = np.delete(self._usage, victim)
        self.evictions += 1
        telemetry = telemetry_active()
        if telemetry is not None:
            telemetry.count("bounds.evictions")
            telemetry.event("bound_evict", set_size=len(self))

    def prune(self, method: str = "pointwise") -> int:
        """Remove redundant vectors; returns how many were dropped.

        ``"pointwise"`` drops pointwise-dominated vectors; ``"lp"`` runs the
        exact witness-LP prune.  Rows are kept by index, so of several equal
        rows only the first survives.  Seed rows may be dropped too (once
        refinement has swept past them they are truly redundant, so dropping
        them is sound); the pin count becomes the number of seed rows kept.
        """
        before = len(self)
        if method == "lp":
            kept = alpha.lp_survivors(self._vectors)
        elif method == "pointwise":
            kept = alpha.pointwise_survivors(self._vectors)
        else:
            raise ValueError(f"unknown prune method {method!r}")
        self._vectors = self._vectors[kept]
        self._usage = self._usage[kept]
        self._pinned = int(np.count_nonzero(kept < self._pinned))
        return before - len(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"BoundVectorSet(|B|={len(self)}, additions={self.additions}, "
            f"rejections={self.rejections}, evictions={self.evictions})"
        )
