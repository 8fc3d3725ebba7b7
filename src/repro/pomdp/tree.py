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
Two choices keep that from costing time or memory elsewhere:

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
depth-1 expansion skips posteriors entirely: a batched kernel builds the
full ``(k, |A|, |O|)`` score block from a few CSR × dense-block products,
with a per-action looped fallback when the block is declined by the cache
budget.
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
    charge_block,
    get_joint_cache,
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
#: so they fit too.  Each level of an expansion keeps two such blocks.
BLOCK_BYTES = 512 * 1024


def _best_action(action_values: np.ndarray) -> int:
    """Lowest-index action within :data:`DECISION_TIE_EPSILON` of the max."""
    return int(tie_break_argmax(action_values, DECISION_TIE_EPSILON))


class LeafValue(Protocol):
    """A value estimate evaluated at the leaves of the lookahead tree."""

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
        self.nodes = 0
        self.leaves = 0

    def root_values(
        self, belief: np.ndarray, depth: int, allowed: np.ndarray | None
    ) -> np.ndarray:
        """Per-action root values; disallowed actions are ``-inf``."""
        self.nodes += 1
        root = np.asarray(belief, dtype=float)[None, :]
        action_values = self._action_values(root, depth, allowed)[:, 0]
        if allowed is not None:
            action_values[~allowed] = -np.inf
        return action_values

    def _values(self, beliefs: np.ndarray, remaining: int) -> np.ndarray:
        """Max-Avg value of every belief of a level, ``remaining`` above the
        leaves; the stack is expanded in chunks, each to the bottom."""
        self.nodes += beliefs.shape[0]
        values = np.empty(beliefs.shape[0])
        for start in range(0, beliefs.shape[0], self.chunk):
            stop = start + self.chunk
            values[start:stop] = self._action_values(
                beliefs[start:stop], remaining, None
            ).max(axis=0)
        return values

    def _action_values(
        self, block: np.ndarray, remaining: int, allowed: np.ndarray | None
    ) -> np.ndarray:
        """``(|A|, c)`` Max-Avg action values of a chunk of beliefs."""
        gamma, reachable, posteriors = self._branches(block, remaining, allowed)
        if remaining == 1:
            futures = self._leaf_values(posteriors)
        else:
            futures = self._values(posteriors, remaining - 1)
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

    def _leaf_values(self, posteriors: np.ndarray) -> np.ndarray:
        """One leaf call over a chunk's bottom-level posteriors."""
        self.leaves += posteriors.shape[0]
        telemetry = telemetry_active()
        if telemetry is not None:
            telemetry.count("tree.leaf_batches")
        with span(
            "tree.leaf_batch", category="tree", beliefs=int(posteriors.shape[0])
        ):
            return self.leaf.value_batch(posteriors)


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
    Max-Avg weighting, so no posterior is ever materialised.  Two kernels
    implement the identity: the batched one materialises the full
    ``(k, |A|, |O|)`` score block in a handful of CSR × dense-block
    products, the looped one visits one action at a time and never holds
    more than one action's scores.  The block is charged against the cache
    budget (:func:`~repro.pomdp.cache.charge_block`) *before* it exists;
    a decline falls back to the looped kernel.
    """
    vectors = np.atleast_2d(np.asarray(leaf.vectors, dtype=float))
    block_bytes = (
        8 * (vectors.shape[0] + 3) * pomdp.n_actions * pomdp.n_observations
    )
    if charge_block(
        block_bytes, n_states=pomdp.n_states, kind="tree.depth1_block"
    ):
        return _expand_depth1_sparse_batched(
            pomdp, belief, vectors, leaf, allowed_actions
        )
    return _expand_depth1_sparse_looped(
        pomdp, belief, vectors, leaf, allowed_actions
    )


def _expand_depth1_sparse_batched(
    pomdp: POMDP,
    belief: np.ndarray,
    vectors: np.ndarray,
    leaf: LeafValue,
    allowed_actions: np.ndarray | None,
) -> TreeDecision:
    """All-actions-at-once kernel of the fused sparse depth-1 expansion.

    The per-action correction loop of the looped kernel collapses into CSR
    × dense-block products: one ``corrections @ Z`` product yields every
    action's observation-probability correction, and one such product per
    bound vector (with the correction data scaled by that vector) yields
    the full ``(k, |A|, |O|)`` score block.  Actions with observation
    overrides are recomputed exactly as the looped kernel computes them,
    since they do not observe through the shared base matrix.

    Values agree with the looped kernel to summation re-association
    (~1e-16): sparse row-times-matrix products may add the same terms in a
    different order.  Branch bookkeeping (reachability, usage winners,
    record order) is identical.
    """
    transitions = pomdp.transitions
    observations = pomdp.observations
    base_obs = observations.base
    k = vectors.shape[0]

    pred_base = transitions.predict_base(belief)
    corrections = transitions.correction_matrix(belief).tocsr()
    gamma_base = np.asarray(base_obs.T @ pred_base).ravel()
    scores_base = np.asarray(base_obs.T @ (vectors * pred_base).T).T  # (k, |O|)

    # gamma_all[a, o] = gamma_base[o] + (corrections[a] @ base_obs)[o]
    gamma_all = (corrections @ base_obs).toarray() + gamma_base[None, :]
    scores_all = np.empty((k, pomdp.n_actions, pomdp.n_observations))
    scaled = corrections.copy()
    for j in range(k):
        scaled.data = corrections.data * vectors[j, corrections.indices]
        scores_all[j] = (scaled @ base_obs).toarray()
    scores_all += scores_base[:, None, :]

    for action in sorted(observations.overrides):
        # Overridden observation rows bypass the base matrix entirely;
        # recompute them exactly as the looped kernel does.
        matrix = observations.matrix(action)
        start, stop = corrections.indptr[action], corrections.indptr[action + 1]
        pred = pred_base.copy()
        pred[corrections.indices[start:stop]] += corrections.data[start:stop]
        gamma_all[action] = np.asarray(matrix.T @ pred).ravel()
        scores_all[:, action, :] = np.asarray(matrix.T @ (vectors * pred).T).T

    rewards = rewards_matvec(pomdp.rewards, belief)
    reachable = gamma_all > GAMMA_EPSILON  # (|A|, |O|)
    if allowed_actions is not None:
        reachable &= np.asarray(allowed_actions, dtype=bool)[:, None]
    leaf_evaluations = int(np.count_nonzero(reachable))

    record = getattr(leaf, "record_wins", None)
    if record is not None and leaf_evaluations:
        # Row-major selection is action-major, observation-ascending — the
        # exact order the looped kernel concatenates its winners in.  A
        # single bound vector wins every branch by construction.
        if k == 1:
            record(np.zeros(leaf_evaluations, dtype=np.intp))
        else:
            winners = tie_break_argmax(scores_all, BACKUP_TIE_EPSILON, axis=0)
            record(winners[reachable])

    # max over one vector is the vector itself; skip the (k, |A|, |O|)
    # reduction on the single-seed hot path.  scores_all is not read again,
    # so zeroing the unreachable branches in place is safe.
    best = scores_all[0] if k == 1 else scores_all.max(axis=0)
    best[~reachable] = 0.0
    future = best.sum(axis=1)
    action_values = rewards + pomdp.discount * future
    if allowed_actions is not None:
        action_values[~np.asarray(allowed_actions, dtype=bool)] = -np.inf
    best_action = _best_action(action_values)
    return TreeDecision(
        action=best_action,
        value=float(action_values[best_action]),
        action_values=action_values,
        leaf_evaluations=leaf_evaluations,
        nodes=1,
    )


def _expand_depth1_sparse_looped(
    pomdp: POMDP,
    belief: np.ndarray,
    vectors: np.ndarray,
    leaf: LeafValue,
    allowed_actions: np.ndarray | None,
) -> TreeDecision:
    """Per-action kernel of the fused sparse depth-1 expansion.

    The base quantities (prediction through the shared transition base,
    scores through the shared observation matrix) are computed once per
    decision; each action then contributes only a correction of the size
    of its overrides.  Actions whose override rows carry no belief mass
    and that observe through the base matrix reuse the base score
    unchanged, which is what makes a 150,002-action decision tractable
    even when the batched block is declined.

    Leaf-usage accounting matches the generic path: the winning bound
    vector of every reachable ``(a, o)`` branch is recorded via
    ``leaf.record_wins`` when the leaf supports it.
    """
    transitions = pomdp.transitions
    observations = pomdp.observations
    base_obs = observations.base

    pred_base = transitions.predict_base(belief)
    corrections = transitions.correction_matrix(belief).tocsr()
    gamma_base = np.asarray(base_obs.T @ pred_base).ravel()
    scores_base = np.asarray(base_obs.T @ (vectors * pred_base).T).T  # (k, |O|)
    reachable_base = gamma_base > GAMMA_EPSILON
    if reachable_base.any():
        branch_scores = scores_base[:, reachable_base]
        winners_base = tie_break_argmax(
            branch_scores, BACKUP_TIE_EPSILON, axis=0
        )
        future_base = float(branch_scores.max(axis=0).sum())
    else:
        winners_base = np.zeros(0, dtype=int)
        future_base = 0.0

    rewards = rewards_matvec(pomdp.rewards, belief)
    action_values = np.full(pomdp.n_actions, -np.inf)
    all_winners: list[np.ndarray] = []
    leaves = 0
    indptr = corrections.indptr
    for action in range(pomdp.n_actions):
        if allowed_actions is not None and not allowed_actions[action]:
            continue
        start, stop = indptr[action], indptr[action + 1]
        overridden_obs = action in observations.overrides
        if start == stop and not overridden_obs:
            action_values[action] = rewards[action] + pomdp.discount * future_base
            all_winners.append(winners_base)
            leaves += winners_base.size
            continue
        cols = corrections.indices[start:stop]
        vals = corrections.data[start:stop]
        if overridden_obs:
            matrix = observations.matrix(action)
            pred = pred_base.copy()
            pred[cols] += vals
            gamma = np.asarray(matrix.T @ pred).ravel()
            scores = np.asarray(matrix.T @ (vectors * pred).T).T
        else:
            gamma = gamma_base + np.asarray(base_obs[cols].T @ vals).ravel()
            scores = scores_base + np.asarray(
                base_obs[cols].T @ (vectors[:, cols] * vals).T
            ).T
        reachable = gamma > GAMMA_EPSILON
        if reachable.any():
            branch_scores = scores[:, reachable]
            winners = tie_break_argmax(branch_scores, BACKUP_TIE_EPSILON, axis=0)
            future = float(branch_scores.max(axis=0).sum())
        else:
            winners = np.zeros(0, dtype=int)
            future = 0.0
        action_values[action] = rewards[action] + pomdp.discount * future
        all_winners.append(winners)
        leaves += winners.size

    record = getattr(leaf, "record_wins", None)
    if record is not None and all_winners:
        record(np.concatenate(all_winners))
    best_action = _best_action(action_values)
    return TreeDecision(
        action=best_action,
        value=float(action_values[best_action]),
        action_values=action_values,
        leaf_evaluations=leaves,
        nodes=1,
    )
