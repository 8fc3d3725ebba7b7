"""The joint-factor compute cache (:mod:`repro.pomdp.cache`)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.pomdp.cache import (
    MAX_CACHE_BYTES,
    MAX_CACHE_BYTES_ENV,
    JointFactorCache,
    SparseJointFactorCache,
    cache_size_bytes,
    clear_caches,
    get_joint_cache,
    max_cache_bytes,
)
from tests.conftest import random_pomdp
from tests.test_linalg_backends import _sparse_twin


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_caches()
    yield
    clear_caches()


def _manual_joint(pomdp, belief, action):
    """The uncached two-product reference: predict, then factor in q."""
    predicted = belief @ pomdp.transitions[action]
    return predicted[:, None] * pomdp.observations[action]


class TestJointFactorCache:
    def test_joint_matches_two_product_path(self):
        rng = np.random.default_rng(0)
        pomdp = random_pomdp(rng, n_states=5, n_actions=4, n_observations=3)
        cache = JointFactorCache(pomdp)
        for _ in range(5):
            belief = rng.dirichlet(np.ones(pomdp.n_states))
            joint = cache.joint_all(belief)
            for action in range(pomdp.n_actions):
                assert np.allclose(
                    joint[action], _manual_joint(pomdp, belief, action)
                )

    def test_joint_all_consistent_with_joint(self):
        """A stack of beliefs gives, row for row, each belief's own joint."""
        rng = np.random.default_rng(1)
        pomdp = random_pomdp(rng, n_states=6, n_actions=3, n_observations=4)
        cache = JointFactorCache(pomdp)
        beliefs = rng.dirichlet(np.ones(pomdp.n_states), size=3)
        stacked = cache.joint_all(beliefs)
        assert stacked.shape == (
            3,
            pomdp.n_actions,
            pomdp.n_states,
            pomdp.n_observations,
        )
        for row, belief in enumerate(beliefs):
            assert np.allclose(stacked[row], cache.joint_all(belief))

    def test_joint_columns_sum_to_observation_likelihoods(self):
        """Summing the joint over s' gives gamma, the per-observation
        normaliser of Eq. 4 — the quantity the tree's children need."""
        rng = np.random.default_rng(2)
        pomdp = random_pomdp(rng)
        cache = JointFactorCache(pomdp)
        belief = rng.dirichlet(np.ones(pomdp.n_states))
        gamma = cache.joint_all(belief)[0].sum(axis=0)
        assert np.isclose(gamma.sum(), 1.0)


class TestLastJointMemo:
    """Both cache classes remember the joint of the last single belief."""

    @pytest.fixture(params=["dense", "sparse"])
    def cache(self, request, monkeypatch):
        pomdp = random_pomdp(
            np.random.default_rng(11), n_states=6, n_actions=3, n_observations=4
        )
        if request.param == "sparse":
            cache = SparseJointFactorCache(_sparse_twin(pomdp))
        else:
            cache = JointFactorCache(pomdp)
        cache.computed = 0
        compute = cache._joint_all

        def counting(beliefs):
            cache.computed += 1
            return compute(beliefs)

        monkeypatch.setattr(cache, "_joint_all", counting)
        return cache

    def _belief(self, seed):
        return np.random.default_rng(seed).dirichlet(np.ones(6))

    def test_same_belief_twice_returns_the_same_array(self, cache):
        belief = self._belief(0)
        first = cache.joint_all(belief)
        assert cache.joint_all(belief.copy()) is first
        assert cache.computed == 1
        assert not first.flags.writeable

    def test_vector_and_row_share_the_entry(self, cache):
        """Refinement passes ``(|S|,)``, the tree root ``(1, |S|)``; the
        shared joint equals what each shape computes on its own."""
        belief = self._belief(1)
        from_vector = cache.joint_all(belief)
        from_row = cache.joint_all(belief[None, :])
        assert cache.computed == 1
        assert from_row.shape == (1,) + from_vector.shape
        assert np.shares_memory(from_row, from_vector)
        assert np.array_equal(from_row, cache._joint_all(belief[None, :]))
        assert np.array_equal(from_vector, cache._joint_all(belief))

    def test_new_belief_or_in_place_change_recomputes(self, cache):
        belief = self._belief(2)
        cache.joint_all(belief)
        other = self._belief(3)
        assert np.array_equal(cache.joint_all(other), cache._joint_all(other))
        assert cache.computed == 3  # the miss, plus the direct reference
        other[[0, 1]] = other[[1, 0]]
        assert np.array_equal(cache.joint_all(other), cache._joint_all(other))
        assert cache.computed == 5

    def test_stacks_bypass_the_memo(self, cache):
        beliefs = np.stack([self._belief(4), self._belief(5)])
        cache.joint_all(beliefs[0])
        stacked = cache.joint_all(beliefs)
        assert stacked.shape[0] == 2 and cache.computed == 2
        assert cache.joint_all(beliefs[0]) is cache._last[1]
        assert cache.computed == 2

    def test_writing_to_the_result_raises(self, cache):
        belief = self._belief(6)
        for joint in (cache.joint_all(belief), cache.joint_all(belief[None, :])):
            with pytest.raises(ValueError):
                joint[(0,) * joint.ndim] = 1.0

    def test_threads_always_get_their_own_beliefs_joint(self, cache):
        """Eight threads on two cores alternate four beliefs through one
        memo with a tiny switch interval; a key and joint swapped apart
        would hand some thread another belief's joint."""
        beliefs = [self._belief(10 + i) for i in range(4)]
        expected = [cache._joint_all(belief) for belief in beliefs]
        start = threading.Barrier(8)
        failures = []

        def ask(index):
            start.wait()
            try:
                for _ in range(1000):
                    joint = cache.joint_all(beliefs[index])
                    if not np.array_equal(joint, expected[index]):
                        failures.append(index)
            except Exception as error:  # reported below
                failures.append(repr(error))

        threads = [
            threading.Thread(target=ask, args=(i % 4,), daemon=True) for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


class TestRegistry:
    def test_same_model_returns_same_cache(self):
        pomdp = random_pomdp(np.random.default_rng(3))
        assert get_joint_cache(pomdp) is get_joint_cache(pomdp)

    def test_distinct_models_get_distinct_caches(self):
        rng = np.random.default_rng(4)
        first, second = random_pomdp(rng), random_pomdp(rng)
        assert get_joint_cache(first) is not get_joint_cache(second)

    def test_size_gate_declines_large_models(self, monkeypatch):
        """A model whose factor matrix exceeds the budget is declined; one
        that fits it exactly is cached."""
        pomdp = random_pomdp(np.random.default_rng(5))
        required = cache_size_bytes(pomdp)
        monkeypatch.setenv(MAX_CACHE_BYTES_ENV, str(required - 1))
        assert get_joint_cache(pomdp) is None
        monkeypatch.setenv(MAX_CACHE_BYTES_ENV, str(required))
        assert get_joint_cache(pomdp) is not None

    def test_budget_precedence(self, monkeypatch):
        """REPRO_MAX_CACHE_BYTES wins over the compile-time default."""
        monkeypatch.delenv(MAX_CACHE_BYTES_ENV, raising=False)
        assert max_cache_bytes() == MAX_CACHE_BYTES
        monkeypatch.setenv(MAX_CACHE_BYTES_ENV, "12345")
        assert max_cache_bytes() == 12345

    def test_env_var_declines_caching(self, monkeypatch):
        monkeypatch.setenv(MAX_CACHE_BYTES_ENV, "8")
        pomdp = random_pomdp(np.random.default_rng(8))
        assert get_joint_cache(pomdp) is None
        monkeypatch.delenv(MAX_CACHE_BYTES_ENV)
        assert get_joint_cache(pomdp) is not None

    def test_cache_size_accounting(self):
        pomdp = random_pomdp(np.random.default_rng(6))
        cache = get_joint_cache(pomdp)
        assert cache.nbytes == cache_size_bytes(pomdp)

    def test_entry_dropped_when_model_collected(self):
        import gc

        from repro.pomdp import cache as cache_module

        pomdp = random_pomdp(np.random.default_rng(7))
        get_joint_cache(pomdp)
        key = id(pomdp)
        assert key in cache_module._CACHES
        del pomdp
        gc.collect()
        assert key not in cache_module._CACHES


class TestBudgetParsing:
    """``max_cache_bytes`` rejects budgets that are not integers >= 0 and
    names where the bad value came from."""

    @pytest.mark.parametrize("raw", ["abc", "1.5", "-5"])
    def test_bad_env_value_names_the_variable(self, monkeypatch, raw):
        monkeypatch.setenv(MAX_CACHE_BYTES_ENV, raw)
        with pytest.raises(ValueError, match=MAX_CACHE_BYTES_ENV):
            max_cache_bytes()
        with pytest.raises(ValueError, match=MAX_CACHE_BYTES_ENV):
            get_joint_cache(random_pomdp(np.random.default_rng(9)))

    def test_zero_still_declines(self, monkeypatch):
        monkeypatch.setenv(MAX_CACHE_BYTES_ENV, "0")
        assert max_cache_bytes() == 0
        assert get_joint_cache(random_pomdp(np.random.default_rng(10))) is None
