"""Tests for the Max-Avg lookahead tree (Figure 1(b))."""

import copy
import os
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds.sawtooth import SawtoothUpperBound
from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.heuristic import HeuristicLeaf
from repro.linalg.backends import (
    sparsify_observations,
    sparsify_rewards,
    sparsify_transitions,
)
from repro.linalg.ops import observation_matrix_dense, predict, rewards_matvec
from repro.pomdp import tree
from repro.pomdp.belief import GAMMA_EPSILON, belief_bellman_backup
from repro.pomdp.cache import MAX_CACHE_BYTES_ENV, get_joint_cache
from repro.pomdp.model import POMDP
from repro.pomdp.tree import DECISION_TIE_EPSILON, expand_tree
from tests.conftest import random_pomdp
from tests.test_pomdp_model import tiny_pomdp


def reference_expand(pomdp, belief, depth, leaf, allowed_actions=None):
    """The node-at-a-time recursion of Eq. 2 that the level expander replaced.

    Kept as a test oracle: every node builds its children with one joint
    product, bottom nodes make one leaf call each, and values back up
    through a Python ``max`` per node.
    """
    cache = get_joint_cache(pomdp)
    counters = {"leaves": 0, "nodes": 0}

    def children(node_belief, mask=None):
        joint_all = cache.joint_all(node_belief) if cache is not None else None
        out = []
        for action in range(pomdp.n_actions):
            if mask is not None and not mask[action]:
                out.append(None)
                continue
            if joint_all is not None:
                joint = joint_all[action]
            else:
                joint = predict(pomdp.transitions, node_belief, action)[
                    :, None
                ] * observation_matrix_dense(pomdp.observations, action)
            gamma = joint.sum(axis=0)
            reachable = gamma > GAMMA_EPSILON
            out.append(
                (gamma[reachable], (joint[:, reachable] / gamma[reachable]).T)
            )
        return out

    def futures(kids, remaining):
        live = [kid for kid in kids if kid is not None]
        if remaining == 0:
            values = leaf.value_batch(np.vstack([kid[1] for kid in live]))
            counters["leaves"] += values.shape[0]
            split = np.cumsum([kid[1].shape[0] for kid in live])[:-1]
            per_action = iter(np.split(values, split))
        else:
            per_action = iter(
                np.array([node_value(child, remaining) for child in kid[1]])
                for kid in live
            )
        return [None if kid is None else next(per_action) for kid in kids]

    def backup(node_belief, remaining, mask=None):
        counters["nodes"] += 1
        rewards = rewards_matvec(pomdp.rewards, node_belief)
        kids = children(node_belief, mask)
        values = np.full(pomdp.n_actions, -np.inf)
        for action, (kid, future) in enumerate(
            zip(kids, futures(kids, remaining - 1))
        ):
            if kid is not None:
                values[action] = rewards[action] + pomdp.discount * float(
                    kid[0] @ future
                )
        return values

    def node_value(node_belief, remaining):
        return max(backup(node_belief, remaining))

    action_values = backup(belief, depth, allowed_actions)
    best = int(
        np.argmax(action_values >= action_values.max() - DECISION_TIE_EPSILON)
    )
    return tree.TreeDecision(
        action=best,
        value=float(action_values[best]),
        action_values=action_values,
        leaf_evaluations=counters["leaves"],
        nodes=counters["nodes"],
    )


class ZeroLeaf:
    def value(self, belief):
        return 0.0

    def value_batch(self, beliefs):
        return np.zeros(np.atleast_2d(beliefs).shape[0])


class LinearLeaf:
    """pi . w — a single-hyperplane leaf for cross-checks."""

    def __init__(self, weights):
        self.weights = np.asarray(weights, dtype=float)

    def value(self, belief):
        return float(belief @ self.weights)

    def value_batch(self, beliefs):
        return np.atleast_2d(beliefs) @ self.weights


class TestDepthOne:
    def test_equals_bellman_backup(self):
        pomdp = tiny_pomdp()
        belief = np.array([0.5, 0.5])
        leaf = LinearLeaf([-2.0, 0.0])
        decision = expand_tree(pomdp, belief, depth=1, leaf=leaf)
        direct = belief_bellman_backup(pomdp, belief, leaf.value)
        assert np.isclose(decision.value, direct)

    def test_picks_repair_in_fault_belief(self):
        pomdp = tiny_pomdp()
        decision = expand_tree(
            pomdp, np.array([1.0, 0.0]), depth=1, leaf=LinearLeaf([-2.0, 0.0])
        )
        assert decision.action == 0  # repair beats idle (-0.5 vs -1-2)

    def test_action_values_complete(self):
        pomdp = tiny_pomdp()
        decision = expand_tree(
            pomdp, np.array([0.5, 0.5]), depth=1, leaf=ZeroLeaf()
        )
        assert decision.action_values.shape == (pomdp.n_actions,)
        assert np.isfinite(decision.action_values).all()

    def test_counts_leaves(self):
        pomdp = tiny_pomdp()
        decision = expand_tree(
            pomdp, np.array([0.5, 0.5]), depth=1, leaf=ZeroLeaf()
        )
        assert decision.leaf_evaluations > 0
        assert decision.nodes == 1


class TestAllowedActions:
    def test_masked_action_excluded(self):
        pomdp = tiny_pomdp()
        allowed = np.array([False, True])
        decision = expand_tree(
            pomdp,
            np.array([1.0, 0.0]),
            depth=1,
            leaf=ZeroLeaf(),
            allowed_actions=allowed,
        )
        assert decision.action == 1
        assert decision.action_values[0] == -np.inf

    def test_mask_only_applies_to_root(self):
        pomdp = tiny_pomdp()
        allowed = np.array([False, True])
        # Depth 2: the inner node may still use action 0, which the root value
        # of action 1 benefits from — just check it runs and yields finite v.
        decision = expand_tree(
            pomdp,
            np.array([1.0, 0.0]),
            depth=2,
            leaf=ZeroLeaf(),
            allowed_actions=allowed,
        )
        assert np.isfinite(decision.value)

    INVALID_MASKS = {
        "none_allowed": lambda n: np.zeros(n, dtype=bool),
        "too_long": lambda n: np.ones(n + 1, dtype=bool),
        "too_short": lambda n: np.ones(n - 1, dtype=bool),
        "not_boolean": lambda n: np.ones(n, dtype=int),
        "not_a_vector": lambda n: np.ones((1, n), dtype=bool),
    }

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("kind", sorted(INVALID_MASKS))
    def test_invalid_mask_rejected(self, depth, kind):
        pomdp = tiny_pomdp()
        with pytest.raises(ValueError, match="allowed_actions"):
            expand_tree(
                pomdp,
                np.array([1.0, 0.0]),
                depth=depth,
                leaf=ZeroLeaf(),
                allowed_actions=self.INVALID_MASKS[kind](pomdp.n_actions),
            )

    @pytest.mark.parametrize("kind", sorted(INVALID_MASKS))
    def test_invalid_mask_rejected_on_fused_sparse_path(self, monkeypatch, kind):
        from repro.obs.telemetry import session

        pomdp, belief, stack = TestFusedSparseKernels._setup()
        monkeypatch.setenv(MAX_CACHE_BYTES_ENV, "0")
        allowed = np.ones(pomdp.n_actions, dtype=bool)
        allowed[0] = False
        with session() as telemetry:
            decision = expand_tree(
                pomdp, belief, 1, BoundVectorSet(stack), allowed_actions=allowed
            )
        assert telemetry.counters["tree.expansions.fused_sparse"] == 1
        assert decision.action != 0
        with pytest.raises(ValueError, match="allowed_actions"):
            expand_tree(
                pomdp,
                belief,
                1,
                BoundVectorSet(stack),
                allowed_actions=self.INVALID_MASKS[kind](pomdp.n_actions),
            )


class TestDeeperTrees:
    def test_depth_two_matches_nested_backup(self):
        pomdp = tiny_pomdp()
        belief = np.array([0.6, 0.4])
        leaf = LinearLeaf([-3.0, -0.1])
        decision = expand_tree(pomdp, belief, depth=2, leaf=leaf)
        nested = belief_bellman_backup(
            pomdp,
            belief,
            lambda b: belief_bellman_backup(pomdp, b, leaf.value),
        )
        assert np.isclose(decision.value, nested, atol=1e-10)

    def test_deeper_never_worse_with_zero_leaf_upper_bound(self):
        # With the trivial zero *upper* bound at the leaves, value estimates
        # shrink (get more realistic) as depth grows: more real costs folded.
        pomdp = tiny_pomdp()
        belief = np.array([0.5, 0.5])
        v1 = expand_tree(pomdp, belief, depth=1, leaf=ZeroLeaf()).value
        v2 = expand_tree(pomdp, belief, depth=2, leaf=ZeroLeaf()).value
        assert v2 <= v1 + 1e-12

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            expand_tree(
                tiny_pomdp(), np.array([0.5, 0.5]), depth=0, leaf=ZeroLeaf()
            )


class TestMonotonicityInLeaf:
    def test_better_leaf_never_lowers_root(self):
        rng = np.random.default_rng(5)
        pomdp = random_pomdp(rng)
        belief = rng.dirichlet(np.ones(pomdp.n_states))
        low = LinearLeaf(-rng.uniform(1, 3, size=pomdp.n_states))
        high = LinearLeaf(low.weights + rng.uniform(0, 1, size=pomdp.n_states))
        v_low = expand_tree(pomdp, belief, depth=2, leaf=low).value
        v_high = expand_tree(pomdp, belief, depth=2, leaf=high).value
        assert v_high >= v_low - 1e-9


class TestFusedSparseKernels:
    """The batched and looped fused depth-1 kernels agree with each other
    and with the generic expansion, branch bookkeeping included."""

    @staticmethod
    def _setup(seed=3, n_vectors=4):
        from repro.bounds.ra_bound import ra_bound_vector
        from repro.systems.tiered import build_tiered_system

        system = build_tiered_system(replicas=(2, 2, 2), backend="sparse")
        pomdp = system.model.pomdp
        rng = np.random.default_rng(seed)
        seed_vector = ra_bound_vector(pomdp)
        stack = [seed_vector]
        for _ in range(n_vectors - 1):
            stack.append(seed_vector - rng.uniform(0.0, 2.0, pomdp.n_states))
        belief = rng.dirichlet(np.ones(pomdp.n_states))
        return pomdp, belief, np.array(stack)

    @staticmethod
    def _leaf(stack):
        from repro.bounds.vector_set import BoundVectorSet

        return BoundVectorSet(stack)

    def test_batched_matches_looped_kernel(self):
        from repro.pomdp.tree import (
            _expand_depth1_sparse_batched,
            _expand_depth1_sparse_looped,
        )

        pomdp, belief, stack = self._setup()
        vectors = np.atleast_2d(stack)
        batched_leaf, looped_leaf = self._leaf(stack), self._leaf(stack)
        batched = _expand_depth1_sparse_batched(
            pomdp, belief, vectors, batched_leaf, None
        )
        looped = _expand_depth1_sparse_looped(
            pomdp, belief, vectors, looped_leaf, None
        )
        assert batched.action == looped.action
        np.testing.assert_allclose(
            batched.action_values, looped.action_values, atol=1e-12
        )
        assert batched.leaf_evaluations == looped.leaf_evaluations
        assert batched.nodes == looped.nodes == 1
        np.testing.assert_array_equal(
            batched_leaf._usage, looped_leaf._usage
        )

    def test_kernels_match_generic_expansion(self):
        from repro.pomdp.tree import _expand, _expand_depth1_sparse_batched

        pomdp, belief, stack = self._setup(seed=11)
        vectors = np.atleast_2d(stack)
        fused = _expand_depth1_sparse_batched(
            pomdp, belief, vectors, self._leaf(stack), None
        )
        generic = _expand(
            pomdp, belief, 1, self._leaf(stack), None, cache=None, fused=False
        )
        assert fused.action == generic.action
        np.testing.assert_allclose(
            fused.action_values, generic.action_values, atol=1e-10
        )
        assert fused.leaf_evaluations == generic.leaf_evaluations

    def test_action_mask_respected_by_both_kernels(self):
        from repro.pomdp.tree import (
            _expand_depth1_sparse_batched,
            _expand_depth1_sparse_looped,
        )

        pomdp, belief, stack = self._setup(seed=7)
        vectors = np.atleast_2d(stack)
        mask = np.ones(pomdp.n_actions, dtype=bool)
        mask[::2] = False
        batched = _expand_depth1_sparse_batched(
            pomdp, belief, vectors, self._leaf(stack), mask
        )
        looped = _expand_depth1_sparse_looped(
            pomdp, belief, vectors, self._leaf(stack), mask
        )
        assert np.all(np.isneginf(batched.action_values[~mask]))
        np.testing.assert_allclose(
            batched.action_values, looped.action_values, atol=1e-12
        )
        assert mask[batched.action]
        assert batched.leaf_evaluations == looped.leaf_evaluations

    def test_cache_budget_decline_falls_back_to_looped(self, monkeypatch):
        """REPRO_MAX_CACHE_BYTES=0 declines both the joint cache and the
        batched block; expand_tree then runs the fused looped kernel and
        still agrees with the unconstrained decision."""
        from repro.pomdp.cache import MAX_CACHE_BYTES_ENV, clear_caches
        from repro.obs.telemetry import session

        pomdp, belief, stack = self._setup(seed=19)
        clear_caches()
        free = expand_tree(pomdp, belief, depth=1, leaf=self._leaf(stack))
        monkeypatch.setenv(MAX_CACHE_BYTES_ENV, "0")
        clear_caches()
        with session() as telemetry:
            constrained = expand_tree(
                pomdp, belief, depth=1, leaf=self._leaf(stack)
            )
        assert constrained.action == free.action
        np.testing.assert_allclose(
            constrained.action_values, free.action_values, atol=1e-10
        )
        counters = dict(telemetry.process_counters)
        assert counters.get("cache.declines", 0) >= 1
        events = [
            r
            for r in telemetry.snapshot().events
            if r["event"] == "cache_decline"
        ]
        assert any(r.get("kind") == "tree.depth1_block" for r in events)
        clear_caches()


# -- the level expander against the recursive reference ------------------------

LEAF_KINDS = ("one_vector", "vectors", "heuristic", "sawtooth")
SETTINGS = ("dense", "dense_no_cache", "sparse", "sparse_no_cache")

#: Root values may differ from the reference's by summation order only.
#: Fixed at the root tie tolerance, as a literal so it cannot drift with it.
ROOT_VALUE_TOLERANCE = 1e-9


def _pruned_pomdp(rng):
    """A random POMDP whose observation rows have zeros, so some branches
    are unreachable and the gamma pruning matters."""
    n_states, n_actions, n_observations = (int(v) for v in rng.integers(2, 5, 3))
    base = random_pomdp(rng, n_states, n_actions, n_observations)
    observations = base.observations * (rng.random(base.observations.shape) < 0.6)
    observations[..., 0] += observations.sum(axis=-1) == 0
    observations /= observations.sum(axis=-1, keepdims=True)
    return POMDP(
        transitions=base.transitions,
        observations=observations,
        rewards=base.rewards,
        discount=base.discount,
    )


def _make_leaf(kind, pomdp, rng):
    n_states = pomdp.n_states
    if kind == "one_vector":
        return BoundVectorSet(-rng.uniform(1.0, 3.0, n_states))
    if kind == "vectors":
        return BoundVectorSet(-rng.uniform(1.0, 3.0, (4, n_states)))
    if kind == "heuristic":
        recovered = np.zeros(n_states, dtype=bool)
        recovered[-1] = True
        model = SimpleNamespace(
            pomdp=pomdp,
            recovery_actions=np.ones(pomdp.n_actions, dtype=bool),
            null_states=recovered,
            terminate_state=None,
        )
        return HeuristicLeaf(model)
    leaf = SawtoothUpperBound(pomdp, corner_values=-rng.uniform(0.0, 1.0, n_states))
    for point in rng.dirichlet(np.ones(n_states), size=3):
        leaf.points.append((point, float(point @ leaf.corner_values) - 0.5))
    return leaf


class TestLevelExpanderMatchesRecursion:
    """One batched expander for every depth: same decisions, node and leaf
    counts and bound-set usage as the node-at-a-time recursion."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(1, 3),
        leaf_kind=st.sampled_from(LEAF_KINDS),
        setting=st.sampled_from(SETTINGS),
        masked=st.booleans(),
        chunk_beliefs=st.sampled_from([1, 2, None]),
    )
    def test_matches_reference(
        self, seed, depth, leaf_kind, setting, masked, chunk_beliefs
    ):
        rng = np.random.default_rng(seed)
        pomdp = _pruned_pomdp(rng)
        if setting.startswith("sparse"):
            pomdp = POMDP(
                transitions=sparsify_transitions(pomdp.transitions),
                observations=sparsify_observations(pomdp.observations),
                rewards=sparsify_rewards(pomdp.rewards),
                discount=pomdp.discount,
            )
        belief = rng.dirichlet(np.ones(pomdp.n_states))
        leaf = _make_leaf(leaf_kind, pomdp, rng)
        reference_leaf = copy.deepcopy(leaf)
        allowed = None
        if masked:
            allowed = rng.random(pomdp.n_actions) < 0.5
            allowed[rng.integers(pomdp.n_actions)] = True
        budget = tree.BLOCK_BYTES  # whole levels fit in one chunk
        if chunk_beliefs is not None:
            joint_bytes = 8 * pomdp.n_actions * pomdp.n_states * pomdp.n_observations
            budget = chunk_beliefs * joint_bytes
        environment = {MAX_CACHE_BYTES_ENV: "0"} if setting.endswith("no_cache") else {}
        with mock.patch.dict(os.environ, environment), mock.patch.object(
            tree, "BLOCK_BYTES", budget
        ):
            expected = reference_expand(pomdp, belief, depth, reference_leaf, allowed)
            decision = expand_tree(pomdp, belief, depth, leaf, allowed)

        assert decision.action == expected.action
        assert decision.nodes == expected.nodes
        assert decision.leaf_evaluations == expected.leaf_evaluations
        np.testing.assert_allclose(
            decision.action_values,
            expected.action_values,
            rtol=0.0,
            atol=ROOT_VALUE_TOLERANCE,
        )
        assert decision.value == decision.action_values[decision.action]
        if isinstance(leaf, BoundVectorSet):
            np.testing.assert_array_equal(leaf._usage, reference_leaf._usage)
