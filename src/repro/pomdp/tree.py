"""Finite-depth Max-Avg lookahead (Figure 1(b)).

The online controller chooses actions by unrolling the belief-state Bellman
recursion (Eq. 2) to a small fixed depth and substituting a value estimate —
a lower bound, in the bounded controller — at the leaf beliefs.  The tree is
a Max-Avg tree: values of sibling observation branches are averaged with the
observation probabilities ``gamma^{pi,a}(o)`` (Eq. 3), and the maximum over
actions is taken at each decision node.

Per-decision cost matters — Table 1's "algorithm time" column is this
expansion, and the Table 1 bootstrap is a few dozen depth-2 trees — so the
tree is built a level at a time rather than one belief at a time:

* every belief of a level goes through the joint factors
  ``p(s', o | s, a)`` as one stack, in chunks: one product with the shared
  :class:`~repro.pomdp.cache.JointFactorCache` (or the CSR factors of
  :class:`~repro.pomdp.cache.SparseJointFactorCache`) yields every action's
  joint for the whole chunk, and :func:`~repro.linalg.ops.belief_update_batch`
  does the same one action at a time where the cache is declined;
* branches with ``gamma <= GAMMA_EPSILON`` are dropped, and the reachable
  posteriors of a chunk form the next level's stack; at the bottom they go
  to the leaf in one :meth:`LeafValue.value_batch` call per chunk;
* values back up with array reductions: a gamma-weighted sum per (parent,
  action), then a max over actions; the root's ``allowed_actions`` mask
  applies at the root only.

Python work per tree is thus one pass per chunk rather than one per node.

Each distinct belief below the root is expanded once.  On EMN the
deterministic monitors and the indistinguishable zombie faults send most
``(a, o)`` branches to a handful of posteriors: from the uniform zombie
belief the first level holds 18 distinct beliefs among 164 branches, and
a depth-3 heuristic tree (215.8 M leaf evaluations) takes about 20 ms
instead of about 35 s (2-vCPU container).  A level's stack is keyed on
the exact bytes of its rows, without the rounding of
:mod:`repro.pomdp.belief_mdp`, so only equal beliefs merge; the distinct
rows are expanded in chunks as above and their values scattered back to
every copy.  A distinct belief stands for the tree branches of all its copies
and passes that count down, so ``TreeDecision.nodes`` and
``leaf_evaluations`` count tree branches, and a leaf that keeps usage
credits gets the counts as
:meth:`~repro.bounds.vector_set.BoundVectorSet.value_batch`'s
``weights``, so least-used eviction sees every branch.  The
``tree.leaf_batch`` span's ``beliefs`` counts the rows the leaf
evaluated.  Neither the root nor the bottom-level leaf batches are
merged, and a depth-1 expansion passes no counts, so depth-1 decisions
run as before: a leaf row costs one column of the leaf's product, less
than finding its copies (for the 164 rows of a depth-1 EMN decision,
about 55 us against 40 us for scoring them all on the bound set).

Two choices keep the level expander from costing time or memory
elsewhere:

* Bottom-level leaf work covers the *reachable* branches only, so it grows
  with ``leaf_evaluations x |B|`` for a bound set ``B``.  Most ``(a, o)``
  branches are unreachable at a typical recovery belief (about 13% of the
  EMN model's 1,280 are reachable at a depth-1 decision), and scoring every
  branch would make large bound sets pay for all of them.
* Every transient block is sized from one small byte budget,
  :data:`BLOCK_BYTES`.  A chunk's joint block, its posteriors and its leaf
  values are all reduced inside the chunk, and a level whose next stack
  would not fit is expanded chunk by chunk, each down to the bottom before
  the next starts, so peak memory stays that of a single chunk per level.
  Each level keeps the blocks that hold its posteriors and reuses them
  for all its chunks: allocating them afresh per chunk made the C
  allocator grow and trim the heap around most leaf calls, and the page
  faults cost about a third of a Table 1 bootstrap.  Larger blocks buy
  little speed: past a few beliefs per chunk the per-chunk Python work is
  already small next to the arithmetic.

On the sparse backend with a linear-function leaf and no factor cache, the
depth-1 expansion skips posteriors entirely, and its work follows what the
belief touches rather than the model: actions with no override row on a
state the belief covers share one closed-form backup, the touched actions'
``(k, c, |O|)`` score blocks come from a few CSR × sparse products in
chunks sized from a fixed working-set budget, :data:`WORKING_SET_BYTES`
(or the cache budget when that is smaller), and an observation-override
action is scored over the support of its own prediction.  A 300,002-state
decision after a single-tier alarm thus scores about 50,000 of its
150,002 actions, and one after a zombie alarm 150,000 in chunks of a few
MB each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.linalg.ops import (
    BACKUP_TIE_EPSILON,
    belief_update_batch,
    rewards_matvec,
    tie_break_argmax,
)
from repro.obs.telemetry import active as telemetry_active
from repro.obs.telemetry import span
from repro.pomdp.belief import GAMMA_EPSILON
from repro.pomdp.cache import (
    JointFactorCache,
    SparseJointFactorCache,
    get_joint_cache,
    max_cache_bytes,
)
from repro.pomdp.model import POMDP

#: Root values within this of the maximum count as tied.  Ties break toward
#: the lowest action index; the tolerance (rather than exact argmax) keeps
#: the winning action identical across storage backends, whose bound vectors
#: agree only to solver precision (~1e-13), not bit-for-bit.
DECISION_TIE_EPSILON = 1e-9

#: Byte budget of one transient block of the level expander: a chunk holds
#: as many beliefs as fit their ``(|A|, |S'|, |O|)`` joint blocks into it
#: (at least one).  The chunk's posteriors are a subset of its joint block,
#: so they fit too.  Each level of an expansion keeps two such blocks.  The
#: Eq. 7 refinement (:mod:`repro.bounds.incremental`) sizes its chunks of
#: actions from the same budget.
BLOCK_BYTES = 512 * 1024

#: Working-set budget of one chunk of the fused sparse depth-1 kernel
#: (:func:`_expand_depth1_sparse`), capped by
#: :func:`~repro.pomdp.cache.max_cache_bytes`.  Blocks this size come
#: from the C allocator's heap and are reused by the next decision.
#: Measured on the 300,002-state model after a zombie alarm (150,000
#: touched actions, one bound vector, 2-vCPU container), a warm decision
#: took 47-54 ms at 8 to 32 MiB, 51-61 ms at 4 MiB, 60-62 ms at 1 MiB and
#: 110-185 ms at 256 KiB, where per-chunk scipy overhead dominates.  Sized
#: from the 256 MiB cache budget, one chunk held every action, its blocks
#: went back to the kernel when freed, and each decision took 63-72 ms
#: and 5,093 minor faults to map them again.
WORKING_SET_BYTES = 8 * 1024 * 1024


def _best_action(action_values: np.ndarray) -> int:
    """Lowest-index action within :data:`DECISION_TIE_EPSILON` of the max."""
    return int(tie_break_argmax(action_values, DECISION_TIE_EPSILON))


class LeafValue(Protocol):
    """A value estimate evaluated at the leaves of the lookahead tree.

    A leaf that keeps per-vector usage credits has ``record_wins`` (as
    :class:`~repro.bounds.vector_set.BoundVectorSet` does) and accepts
    ``value_batch(beliefs, weights)``, crediting each row ``weights``
    times; the expander passes it how many tree branches each row stands
    for.
    """

    def value(self, belief: np.ndarray) -> float:
        """Estimate of the POMDP value at ``belief``."""
        ...  # pragma: no cover - protocol

    def value_batch(self, beliefs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`value` over a ``(k, |S|)`` stack of beliefs."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class TreeDecision:
    """Outcome of one lookahead expansion.

    Attributes:
        action: index of the maximising action at the root.
        value: root value (the max over ``action_values``).
        action_values: per-action root values; disallowed actions are
            ``-inf``.
        leaf_evaluations: number of leaf-value evaluations performed.
        nodes: number of internal decision nodes expanded.
    """

    action: int
    value: float
    action_values: np.ndarray
    leaf_evaluations: int
    nodes: int


def _action_mask(allowed_actions, n_actions: int) -> np.ndarray | None:
    """``allowed_actions`` checked to be a usable root mask."""
    if allowed_actions is None:
        return None
    mask = np.asarray(allowed_actions)
    if mask.dtype != np.bool_ or mask.shape != (n_actions,):
        raise ValueError(
            f"allowed_actions must be a boolean vector of length {n_actions}, "
            f"got dtype {mask.dtype} and shape {mask.shape}"
        )
    if not mask.any():
        raise ValueError("allowed_actions must allow at least one action")
    return mask


def expand_tree(
    pomdp: POMDP,
    belief: np.ndarray,
    depth: int,
    leaf: LeafValue,
    allowed_actions: np.ndarray | None = None,
) -> TreeDecision:
    """Expand the Max-Avg tree of Figure 1(b) and pick the best root action.

    Args:
        pomdp: the model being controlled.
        belief: root belief state.
        depth: number of action layers to expand; must be at least 1.
        leaf: value estimate substituted at depth-0 beliefs.
        allowed_actions: optional boolean mask of length ``|A|`` restricting
            the *root* decision (inner nodes always consider every action,
            matching the recursion of Eq. 2); it must allow at least one
            action.

    Returns:
        A :class:`TreeDecision`; ties at the root break toward the
        lowest-index action, so action ordering in the model is the
        deterministic tie-breaker.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    allowed_actions = _action_mask(allowed_actions, pomdp.n_actions)
    cache = get_joint_cache(pomdp)
    fused = (
        depth == 1
        and cache is None
        and pomdp.backend.is_sparse
        and getattr(leaf, "vectors", None) is not None
    )
    # Mode-tagged so dense and sparse traces of the same campaign are
    # directly comparable (the fused path replaces the generic one).
    mode = "fused_sparse" if fused else "generic"
    telemetry = telemetry_active()
    if telemetry is not None:
        telemetry.count(f"tree.expansions.{mode}")
    with span("tree.expand", category="tree", depth=depth, mode=mode):
        return _expand(pomdp, belief, depth, leaf, allowed_actions, cache, fused)


def _expand(
    pomdp: POMDP,
    belief: np.ndarray,
    depth: int,
    leaf: LeafValue,
    allowed_actions: np.ndarray | None,
    cache: JointFactorCache | SparseJointFactorCache | None,
    fused: bool,
) -> TreeDecision:
    """Dispatch to the fused sparse depth-1 path or the level expander."""
    if fused:
        return _expand_depth1_sparse(pomdp, belief, leaf, allowed_actions)
    expander = _LevelExpander(pomdp, leaf, cache)
    action_values = expander.root_values(belief, depth, allowed_actions)
    best_action = _best_action(action_values)
    return TreeDecision(
        action=best_action,
        value=float(action_values[best_action]),
        action_values=action_values,
        leaf_evaluations=expander.leaves,
        nodes=expander.nodes,
    )


class _LevelExpander:
    """Max-Avg values of belief stacks, one chunk of a level at a time.

    Branch arrays of a chunk of ``c`` beliefs are action-major,
    ``(|A|, c, |O|)``, and a chunk's reachable posteriors are stacked in
    the same order, so the gamma-weighted backup is a masked scatter and a
    sum over observations.
    """

    def __init__(
        self,
        pomdp: POMDP,
        leaf: LeafValue,
        cache: JointFactorCache | SparseJointFactorCache | None,
    ):
        self.pomdp = pomdp
        self.leaf = leaf
        self.cache = cache
        self._joint_size = pomdp.n_actions * pomdp.n_states * pomdp.n_observations
        self.chunk = max(1, BLOCK_BYTES // (8 * self._joint_size))
        self._blocks: dict[int, np.ndarray] = {}
        # A leaf that credits per-vector usage (a bound set) is told how
        # many tree branches each row stands for.
        self._credits = getattr(leaf, "record_wins", None) is not None
        self.nodes = 0
        self.leaves = 0

    def root_values(
        self, belief: np.ndarray, depth: int, allowed: np.ndarray | None
    ) -> np.ndarray:
        """Per-action root values; disallowed actions are ``-inf``."""
        self.nodes += 1
        root = np.asarray(belief, dtype=float)[None, :]
        action_values = self._action_values(root, depth, allowed, None)[:, 0]
        if allowed is not None:
            action_values[~allowed] = -np.inf
        return action_values

    def _values(
        self, beliefs: np.ndarray, remaining: int, weights: np.ndarray | None
    ) -> np.ndarray:
        """Max-Avg value of every belief of a level, ``remaining`` above the
        leaves.  Each distinct belief is expanded once, in chunks, each to
        the bottom; it stands for the tree branches of all its copies
        (``weights`` each, one when ``None``) and passes that count down."""
        distinct, inverse = _distinct_rows(beliefs)
        counts = np.bincount(inverse, weights).astype(np.int64)
        self.nodes += int(counts.sum())
        values = np.empty(distinct.shape[0])
        for start in range(0, distinct.shape[0], self.chunk):
            stop = start + self.chunk
            values[start:stop] = self._action_values(
                distinct[start:stop], remaining, None, counts[start:stop]
            ).max(axis=0)
        return values[inverse]

    def _action_values(
        self,
        block: np.ndarray,
        remaining: int,
        allowed: np.ndarray | None,
        weights: np.ndarray | None,
    ) -> np.ndarray:
        """``(|A|, c)`` Max-Avg action values of a chunk of beliefs, each
        standing for ``weights`` tree branches (one when ``None``)."""
        gamma, reachable, posteriors = self._branches(block, remaining, allowed)
        if weights is not None:
            weights = np.broadcast_to(weights[:, None], gamma.shape)[reachable]
        if remaining == 1:
            futures = self._leaf_values(posteriors, weights)
        else:
            futures = self._values(posteriors, remaining - 1, weights)
        weighted = np.zeros(gamma.shape)
        weighted[reachable] = gamma[reachable] * futures
        rewards = rewards_matvec(self.pomdp.rewards, block.T)
        return rewards + self.pomdp.discount * weighted.sum(axis=2)

    def _branches(
        self, block: np.ndarray, remaining: int, allowed: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(gamma, reachable, posteriors)`` of a chunk's branches.

        ``gamma`` and ``reachable`` are ``(|A|, c, |O|)``; ``posteriors``
        holds the reachable branches' posterior beliefs in that order.
        """
        pomdp = self.pomdp
        n_actions, n_states = pomdp.n_actions, pomdp.n_states
        n_observations, count = pomdp.n_observations, block.shape[0]
        if self.cache is None:
            gamma = np.zeros((n_actions, count, n_observations))
            stacks = []
            if allowed is None:
                allowed = np.ones(n_actions, dtype=bool)
            for action in np.flatnonzero(allowed):
                gamma[action], action_posteriors = belief_update_batch(
                    pomdp.transitions, pomdp.observations, block, int(action)
                )
                stacks.append(action_posteriors[gamma[action] > GAMMA_EPSILON])
            return gamma, gamma > GAMMA_EPSILON, np.concatenate(stacks)
        # One product yields every action's joint at every belief.  Its
        # successor-major copy, (|S'|, |A|, c, |O|), makes gamma a sum of
        # contiguous rows and the reachable posteriors one column selection.
        successor_major, spare = self._level_blocks(remaining, count)
        successor_major = successor_major.reshape(
            n_states, n_actions, count, n_observations
        )
        joints = self.cache.joint_all(block)  # (c, |A|, |S'|, |O|)
        np.copyto(successor_major, joints.transpose(2, 1, 0, 3))
        gamma = successor_major.sum(axis=0)
        reachable = gamma > GAMMA_EPSILON
        if allowed is not None:
            reachable &= allowed[:, None, None]
        # Laid out (|S'|, n), so the leaf's (|B|, |S|) x (|S|, n) product
        # reads a contiguous operand.
        n_reachable = int(np.count_nonzero(reachable))
        posteriors = spare[: n_states * n_reachable].reshape(n_states, n_reachable)
        np.compress(
            reachable.ravel(),
            successor_major.reshape(n_states, -1),
            axis=1,
            out=posteriors,
        )
        posteriors /= gamma[reachable]
        return gamma, reachable, posteriors.T

    def _level_blocks(
        self, remaining: int, count: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Two flat blocks of ``count`` joint blocks each, reused by every
        chunk of the level ``remaining`` above the leaves."""
        size = count * self._joint_size
        blocks = self._blocks.get(remaining)
        if blocks is None or blocks.size < 2 * size:
            blocks = self._blocks[remaining] = np.empty(2 * size)
        return blocks[:size], blocks[size : 2 * size]

    def _leaf_values(
        self, posteriors: np.ndarray, weights: np.ndarray | None
    ) -> np.ndarray:
        """One leaf call over a chunk's bottom-level posteriors, each
        standing for ``weights`` tree branches (one when ``None``)."""
        self.leaves += len(posteriors) if weights is None else int(weights.sum())
        telemetry = telemetry_active()
        if telemetry is not None:
            telemetry.count("tree.leaf_batches")
        with span(
            "tree.leaf_batch", category="tree", beliefs=int(posteriors.shape[0])
        ):
            if weights is None or not self._credits:
                return self.leaf.value_batch(posteriors)
            return self.leaf.value_batch(posteriors, weights)


def _distinct_rows(beliefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``beliefs`` (equal when their bytes are) and
    the index of each row's copy among them."""
    rows = np.ascontiguousarray(beliefs)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return rows[first], inverse


def _expand_depth1_sparse(
    pomdp: POMDP,
    belief: np.ndarray,
    leaf: LeafValue,
    allowed_actions: np.ndarray | None,
) -> TreeDecision:
    """Fused depth-1 expansion on the sparse backend (no factor cache).

    At depth 1 with a linear-function leaf set ``B``, an action's value is

        ``V(a) = r_a . pi + beta * sum_o max_b (pred_a * Z_a[:, o]) . b``

    — the posterior normalisation ``1/gamma_a(o)`` cancels against the
    Max-Avg weighting, so no posterior is ever materialised.  The work
    follows the override rows the belief touches, not the model:

    * an action with no live override row (none on a state the belief
      covers) and no observation override shares the base branches: value
      ``r_a + beta * future_base``, the base leaf count and the base
      winners, from one backup for all of them;
    * the touched actions' corrections
      (:meth:`~repro.linalg.containers.SparseTransitions.live_corrections`)
      go through the base observation matrix ``Z`` in chunks: one
      ``corrections @ Z`` product for gamma and one per bound vector (the
      correction data scaled by that vector) for the ``(k, c, |O|)`` score
      block.  A chunk holds as many actions as fit their
      :func:`depth1_action_bytes` into :data:`WORKING_SET_BYTES`, or into
      :func:`~repro.pomdp.cache.max_cache_bytes` when that is smaller, at
      least one.  The budget bounds the kernel's transient memory, not the
      joint-factor cache's: sized from the cache budget, one chunk held
      all 150,000 actions touched after a 300,002-state zombie alarm, and
      each decision faulted its blocks in afresh.  Each action's row is computed on its own, so every
      budget gives the same results bit for bit;
    * an observation-override action is scored over the support of its own
      prediction (``a_T``'s is ``s_T`` alone after any fault belief).

    Bound-set usage is credited from per-vector win counts
    (``leaf.record_wins``, when the leaf has it), tie-broken like
    :meth:`~repro.bounds.vector_set.BoundVectorSet.value_batch`.
    """
    transitions = pomdp.transitions
    observations = pomdp.observations
    base_obs = observations.base
    n_actions, n_observations = pomdp.n_actions, pomdp.n_observations
    vectors = np.atleast_2d(np.asarray(leaf.vectors, dtype=float))
    n_vectors = vectors.shape[0]
    allowed = (
        np.ones(n_actions, dtype=bool) if allowed_actions is None else allowed_actions
    )
    own = np.zeros(n_actions, dtype=bool)  # observes through its own matrix
    own[list(observations.overrides)] = True
    touched, corrections = transitions.live_corrections(belief)
    rewards = rewards_matvec(pomdp.rewards, belief)
    action_values = np.full(n_actions, -np.inf)

    pred_base = transitions.predict_base(belief)
    gamma_base = np.asarray(base_obs.T @ pred_base).ravel()
    scores_base = np.asarray(base_obs.T @ (vectors * pred_base).T).T  # (k, |O|)
    shared = allowed & ~own
    shared[touched] = False
    future, base_wins = _backup(gamma_base[None, :], scores_base[:, None, :].copy())
    action_values[shared] = rewards[shared] + pomdp.discount * future
    wins = base_wins * np.count_nonzero(shared)

    through_base = np.flatnonzero(allowed[touched] & ~own[touched])
    action_bytes = depth1_action_bytes(n_vectors, n_observations)
    chunk = max(1, min(max_cache_bytes(), WORKING_SET_BYTES) // action_bytes)
    for start in range(0, through_base.size, chunk):
        rows = through_base[start : start + chunk]
        future, block_wins = _chunk_backup(
            corrections[rows], base_obs, vectors, gamma_base, scores_base
        )
        actions = touched[rows]
        action_values[actions] = rewards[actions] + pomdp.discount * future
        wins += block_wins

    for action in np.flatnonzero(own & allowed):
        pred = pred_base.copy()
        position = np.searchsorted(touched, action)
        if position < touched.size and touched[position] == action:
            pred += corrections[position].toarray()[0]
        support = np.flatnonzero(pred)
        matrix = observations.matrix(int(action))[support].T
        gamma = np.asarray(matrix @ pred[support]).reshape(1, n_observations)
        scores = np.asarray(matrix @ (vectors[:, support] * pred[support]).T).T
        future, block_wins = _backup(gamma, scores[:, None, :])
        action_values[action] = rewards[action] + pomdp.discount * future[0]
        wins += block_wins

    record = getattr(leaf, "record_wins", None)
    if record is not None:
        record(wins)
    best_action = _best_action(action_values)
    return TreeDecision(
        action=best_action,
        value=float(action_values[best_action]),
        action_values=action_values,
        leaf_evaluations=int(wins.sum()),
        nodes=1,
    )


def _chunk_backup(
    block, base_obs, vectors: np.ndarray, gamma_base: np.ndarray, scores_base: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_backup` of a chunk of touched actions observing through the
    base matrix, from their rows of the corrections.  Its blocks are
    freed on return, before the next chunk allocates its own."""
    gamma = (block @ base_obs).toarray() + gamma_base
    scores = np.empty((vectors.shape[0], block.shape[0], base_obs.shape[1]))
    scaled = block.copy()
    for j, vector in enumerate(vectors):
        scaled.data = block.data * vector[block.indices]
        scores[j] = (scaled @ base_obs).toarray()
    scores += scores_base[:, None, :]
    return _backup(gamma, scores)


def depth1_action_bytes(n_vectors: int, n_observations: int) -> int:
    """Bytes the fused depth-1 kernel holds per touched action at its peak,
    in ``|O|``-wide rows: ``k`` rows of double scores, the tie-break's two
    ``k``-row boolean masks (``tie_break_argmax`` and argmax's contiguous
    copy of it), and four rows of doubles (gamma, the branch maxima and
    the backup temporaries)."""
    return (10 * n_vectors + 32) * n_observations


def _backup(gamma: np.ndarray, scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depth-1 futures of a block of actions, and the bound vectors' wins.

    ``gamma`` is ``(n, |O|)`` and ``scores`` ``(k, n, |O|)``, which this
    consumes.  Returns each action's ``sum_o max_b score`` over its
    reachable branches, and how many reachable branches each vector wins.
    """
    reachable = gamma > GAMMA_EPSILON
    if scores.shape[0] == 1:
        # One vector wins every branch; skip the (k, n, |O|) reductions.
        best = scores[0]
        wins = np.array([np.count_nonzero(reachable)])
    else:
        winners = tie_break_argmax(scores, BACKUP_TIE_EPSILON, axis=0)
        wins = np.bincount(winners[reachable], minlength=scores.shape[0])
        best = scores.max(axis=0)
    best[~reachable] = 0.0
    return best.sum(axis=1), wins
