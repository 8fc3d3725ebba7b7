"""Tests for the Max-Avg lookahead tree (Figure 1(b))."""

import copy
import functools
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


def _fused_decision(pomdp, belief, stack, allowed=None, budget=None):
    """The fused kernel's decision and the bound set's usage after it.

    ``budget`` sets ``REPRO_MAX_CACHE_BYTES`` for the call (``0`` gives one
    action per chunk); ``None`` runs under the default budget.
    """
    leaf = BoundVectorSet(stack)
    with mock.patch.dict(os.environ):
        os.environ.pop(MAX_CACHE_BYTES_ENV, None)
        if budget is not None:
            os.environ[MAX_CACHE_BYTES_ENV] = str(budget)
        decision = tree._expand(
            pomdp, belief, 1, leaf, allowed, cache=None, fused=True
        )
    return decision, leaf._usage


def _level_decision(pomdp, belief, stack, allowed=None):
    """The level expander's decision (joint cache declined) and usage."""
    leaf = BoundVectorSet(stack)
    decision = tree._expand(pomdp, belief, 1, leaf, allowed, cache=None, fused=False)
    return decision, leaf._usage


def _assert_same_decision(decision, usage, expected, expected_usage, atol=None):
    """Same action, leaf count and usage; values within ``atol``, or
    bit-identical when ``atol`` is None."""
    assert decision.action == expected.action
    assert decision.leaf_evaluations == expected.leaf_evaluations
    assert decision.nodes == expected.nodes == 1
    np.testing.assert_array_equal(usage, expected_usage)
    if atol is None:
        np.testing.assert_array_equal(decision.action_values, expected.action_values)
    else:
        np.testing.assert_allclose(
            decision.action_values, expected.action_values, rtol=0.0, atol=atol
        )


class TestFusedSparseKernels:
    """The fused depth-1 kernel agrees with the level expander, and its
    chunking never changes a result: one chunk of every touched action
    (batched) and one action per chunk (looped) give bit-identical
    decisions, branch bookkeeping included."""

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
            stack.append(seed_vector + rng.normal(0.0, 1.0, pomdp.n_states))
        belief = rng.dirichlet(np.ones(pomdp.n_states))
        return pomdp, belief, np.array(stack)

    @staticmethod
    def _chunk_budget(pomdp, stack, actions):
        """A budget holding ``actions`` touched actions per chunk."""
        return actions * tree.depth1_action_bytes(len(stack), pomdp.n_observations)

    def test_batched_matches_looped_kernel(self):
        pomdp, belief, stack = self._setup()
        batched, batched_usage = _fused_decision(pomdp, belief, stack)
        for actions_per_chunk in (1, 3):
            budget = self._chunk_budget(pomdp, stack, actions_per_chunk)
            looped, looped_usage = _fused_decision(
                pomdp, belief, stack, budget=budget
            )
            _assert_same_decision(looped, looped_usage, batched, batched_usage)
        assert batched_usage.sum() == batched.leaf_evaluations
        assert np.count_nonzero(batched_usage) > 1  # the vectors cross

    def test_kernels_match_generic_expansion(self):
        pomdp, belief, stack = self._setup(seed=11)
        fused, fused_usage = _fused_decision(pomdp, belief, stack)
        level, level_usage = _level_decision(pomdp, belief, stack)
        _assert_same_decision(fused, fused_usage, level, level_usage, atol=1e-10)

    def test_action_mask_respected_by_both_kernels(self):
        pomdp, belief, stack = self._setup(seed=7)
        mask = np.ones(pomdp.n_actions, dtype=bool)
        mask[::2] = False
        batched, batched_usage = _fused_decision(pomdp, belief, stack, mask)
        looped, looped_usage = _fused_decision(pomdp, belief, stack, mask, budget=0)
        level, level_usage = _level_decision(pomdp, belief, stack, mask)
        assert np.all(np.isneginf(batched.action_values[~mask]))
        assert mask[batched.action]
        _assert_same_decision(looped, looped_usage, batched, batched_usage)
        _assert_same_decision(batched, batched_usage, level, level_usage, atol=1e-10)

    def test_cache_budget_decline_falls_back_to_looped(self, monkeypatch):
        """REPRO_MAX_CACHE_BYTES=0 declines the joint cache, so expand_tree
        runs the fused kernel one touched action per chunk; the decision
        still agrees with the unconstrained one (joint cache, level
        expander)."""
        from repro.obs.telemetry import session
        from repro.pomdp.cache import clear_caches

        pomdp, belief, stack = self._setup(seed=19)
        clear_caches()
        monkeypatch.delenv(MAX_CACHE_BYTES_ENV, raising=False)
        free_leaf = BoundVectorSet(stack)
        with session() as telemetry:
            free = expand_tree(pomdp, belief, depth=1, leaf=free_leaf)
        assert telemetry.counters["tree.expansions.generic"] == 1
        monkeypatch.setenv(MAX_CACHE_BYTES_ENV, "0")
        clear_caches()
        constrained_leaf = BoundVectorSet(stack)
        with session() as telemetry:
            constrained = expand_tree(pomdp, belief, depth=1, leaf=constrained_leaf)
        assert telemetry.counters["tree.expansions.fused_sparse"] == 1
        assert telemetry.process_counters["cache.declines"] == 1
        _assert_same_decision(
            constrained,
            constrained_leaf._usage,
            free,
            free_leaf._usage,
            atol=1e-10,
        )
        clear_caches()


@pytest.mark.slow
def test_fused_kernel_transient_memory_is_one_working_set(monkeypatch):
    """A uniform-belief decision on the 12,002-state model touches 6,000
    actions; with eight bound vectors their score blocks need more than
    one working set.  The kernel's traced peak stays under
    ``WORKING_SET_BYTES`` plus a few ``|S|``-vectors (sized from the cache
    budget, one chunk would hold them all), and the decision equals the
    one made an action per chunk, bit for bit."""
    import tracemalloc

    from repro.bounds.ra_bound import ra_bound_vector
    from repro.systems.tiered import build_tiered_system

    monkeypatch.delenv(MAX_CACHE_BYTES_ENV, raising=False)
    pomdp = build_tiered_system((2000,) * 3, backend="sparse").model.pomdp
    seed_vector = ra_bound_vector(pomdp)
    rng = np.random.default_rng(23)
    stack = np.array(
        [seed_vector]
        + [seed_vector + rng.normal(0.0, 1.0, pomdp.n_states) for _ in range(7)]
    )
    belief = np.full(pomdp.n_states, 1.0 / pomdp.n_states)
    touched, _ = pomdp.transitions.live_corrections(belief)
    action_bytes = tree.depth1_action_bytes(len(stack), pomdp.n_observations)
    assert touched.size * action_bytes > tree.WORKING_SET_BYTES

    leaf = BoundVectorSet(stack)
    tracemalloc.start()
    try:
        decision = tree._expand(pomdp, belief, 1, leaf, None, cache=None, fused=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < tree.WORKING_SET_BYTES + 12 * 8 * pomdp.n_states

    looped, looped_usage = _fused_decision(pomdp, belief, stack, budget=0)
    _assert_same_decision(looped, looped_usage, decision, leaf._usage)


# -- the fused kernel on beliefs that touch a few override rows --------------

SUPPORT_KINDS = (
    "single_fault",
    "tier_crashes",
    "crash_and_zombie",
    "null_and_terminal",
    "full",
)
MASK_KINDS = ("none", "random", "no_terminate", "untouched_only")


@functools.lru_cache(maxsize=None)
def _tiered(replicas):
    """A small sparse tiered system and its RA-Bound vector."""
    from repro.bounds.ra_bound import ra_bound_vector
    from repro.systems.tiered import build_tiered_system

    system = build_tiered_system(replicas=replicas, backend="sparse")
    return system, ra_bound_vector(system.model.pomdp)


def _support_belief(system, kind, rng):
    """A belief whose support is of the given kind.

    States are laid out ``null, crash(c), zombie(c), ..., s_T`` in
    component order, and components in tier order.
    """
    n_states = system.model.pomdp.n_states
    n_components = len(system.components)
    crashes = 1 + 2 * np.arange(n_components)
    if kind == "single_fault":
        support = rng.integers(1, n_states - 1, size=1)
    elif kind == "tier_crashes":
        tier = int(rng.integers(len(system.replicas)))
        first = sum(system.replicas[:tier])
        support = crashes[first : first + system.replicas[tier]]
    elif kind == "crash_and_zombie":
        # Both fault states of one component, so one action has two live
        # override rows, plus a random handful of other fault states.
        component = int(rng.integers(n_components))
        others = rng.integers(1, n_states - 1, size=int(rng.integers(0, 4)))
        support = np.concatenate([[crashes[component], crashes[component] + 1], others])
    elif kind == "null_and_terminal":
        support = rng.choice([0, n_states - 1], size=int(rng.integers(1, 3)), replace=False)
    else:
        support = np.arange(n_states)
    support = np.unique(support)
    belief = np.zeros(n_states)
    belief[support] = rng.dirichlet(np.ones(support.size))
    return belief


def _root_mask(model, belief, kind, rng):
    """A root mask of the given kind allowing at least one action."""
    pomdp = model.pomdp
    if kind == "none":
        return None
    if kind == "untouched_only":
        mask = np.ones(pomdp.n_actions, dtype=bool)
        touched, _ = pomdp.transitions.live_corrections(belief)
        mask[touched] = False
        mask[list(pomdp.observations.overrides)] = False
        return mask
    mask = rng.random(pomdp.n_actions) < 0.5
    if kind == "no_terminate":
        mask[model.terminate_action] = False
        mask[rng.integers(pomdp.n_actions - 1)] = True
    else:
        mask[rng.integers(pomdp.n_actions)] = True
    return mask


class TestFusedKernelSparseSupport:
    """Beliefs that leave actions untouched: the closed-form shared backup,
    the touched chunks and the observation-override action together match
    the level expander, under any chunk budget."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        replicas=st.sampled_from([(2, 2, 2), (3, 1, 2)]),
        support=st.sampled_from(SUPPORT_KINDS),
        n_vectors=st.integers(1, 4),
        mask_kind=st.sampled_from(MASK_KINDS),
    )
    def test_matches_level_expander(self, seed, replicas, support, n_vectors, mask_kind):
        system, seed_vector = _tiered(replicas)
        model = system.model
        pomdp = model.pomdp
        rng = np.random.default_rng(seed)
        belief = _support_belief(system, support, rng)
        stack = np.vstack(
            [seed_vector]
            + [
                seed_vector + rng.normal(0.0, 1.0, pomdp.n_states)
                for _ in range(n_vectors - 1)
            ]
        )
        allowed = _root_mask(model, belief, mask_kind, rng)

        fused, fused_usage = _fused_decision(pomdp, belief, stack, allowed)
        level, level_usage = _level_decision(pomdp, belief, stack, allowed)
        _assert_same_decision(fused, fused_usage, level, level_usage, atol=1e-10)
        looped, looped_usage = _fused_decision(pomdp, belief, stack, allowed, budget=0)
        _assert_same_decision(looped, looped_usage, fused, fused_usage)


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
        leaf.add_point(point, float(point @ leaf.corner_values) - 0.5)
    return leaf


def _repeating_pomdp(rng):
    """A random POMDP built to repeat beliefs: one action is duplicated in
    T, Z and R, so every branch of its copy repeats one of the original's
    posteriors, and observation rows have zeros."""
    base = _pruned_pomdp(rng)
    copied = int(rng.integers(base.n_actions))

    def duplicated(array):
        return np.concatenate([array, array[copied : copied + 1]])

    return POMDP(
        transitions=duplicated(base.transitions),
        observations=duplicated(base.observations),
        rewards=duplicated(base.rewards),
        discount=base.discount,
    )


def _in_setting(pomdp, setting):
    """``pomdp`` on the backend of ``setting``, and the environment that
    declines the joint-factor cache where the setting asks for it."""
    if setting.startswith("sparse"):
        pomdp = POMDP(
            transitions=sparsify_transitions(pomdp.transitions),
            observations=sparsify_observations(pomdp.observations),
            rewards=sparsify_rewards(pomdp.rewards),
            discount=pomdp.discount,
        )
    environment = {MAX_CACHE_BYTES_ENV: "0"} if setting.endswith("no_cache") else {}
    return pomdp, environment


def _check_against_reference(
    pomdp, rng, depth, leaf_kind, setting, masked, chunk_beliefs
):
    """Expand ``pomdp`` both ways in ``setting`` under a chunk budget of
    ``chunk_beliefs`` beliefs (whole levels when None) and compare."""
    pomdp, environment = _in_setting(pomdp, setting)
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
        _check_against_reference(
            _pruned_pomdp(rng), rng, depth, leaf_kind, setting, masked, chunk_beliefs
        )

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(2, 3),
        leaf_kind=st.sampled_from(LEAF_KINDS),
        setting=st.sampled_from(SETTINGS),
        masked=st.booleans(),
        chunk_beliefs=st.sampled_from([1, 2, None]),
    )
    def test_repeated_beliefs_match_reference(
        self, seed, depth, leaf_kind, setting, masked, chunk_beliefs
    ):
        """Merged beliefs count every tree branch they stand for: nodes,
        leaf evaluations and bound-set usage match the recursion, which
        expands each copy."""
        rng = np.random.default_rng(seed)
        merged = []
        distinct_rows = tree._distinct_rows

        def spy(beliefs):
            distinct, inverse = distinct_rows(beliefs)
            merged.append(beliefs.shape[0] - distinct.shape[0])
            return distinct, inverse

        with mock.patch.object(tree, "_distinct_rows", spy):
            _check_against_reference(
                _repeating_pomdp(rng),
                rng,
                depth,
                leaf_kind,
                setting,
                masked,
                chunk_beliefs,
            )
        if depth == 3 or not masked:
            # Inner nodes expand every action, so the copy's branches merge
            # below the first level, and below the root unless it is masked.
            assert sum(merged) > 0

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_depth_one_never_merges(self, setting):
        """Depth-1 decisions, generic and fused sparse, run no merge."""
        rng = np.random.default_rng(23)
        pomdp, environment = _in_setting(_repeating_pomdp(rng), setting)
        belief = rng.dirichlet(np.ones(pomdp.n_states))
        with mock.patch.dict(os.environ, environment), mock.patch.object(
            tree, "_distinct_rows", side_effect=AssertionError("merged at depth 1")
        ):
            for leaf_kind in LEAF_KINDS:
                expand_tree(pomdp, belief, 1, _make_leaf(leaf_kind, pomdp, rng))
