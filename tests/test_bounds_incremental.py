"""Tests for incremental bound refinement (Eqs. 6-7) and Property 1(b)."""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import incremental
from repro.bounds.incremental import (
    incremental_update,
    refine_at,
    sample_reachable_beliefs,
    verify_lower_bound_invariant,
)
from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.vector_set import BoundVectorSet
from repro.linalg.ops import (
    BACKUP_TIE_EPSILON,
    observation_matrix_dense,
    predict,
    reward_row,
    tie_break_argmax,
    transition_matvec,
)
from repro.pomdp.cache import MAX_CACHE_BYTES_ENV, get_joint_cache
from repro.pomdp.exact import solve_exact
from repro.systems.simple import build_simple_system
from tests.test_linalg_backends import _sparse_twin


@pytest.fixture()
def seeded_set(simple_system):
    return BoundVectorSet(ra_bound_vector(simple_system.model.pomdp))


class TestIncrementalUpdate:
    def test_backup_never_below_current_bound(self, simple_system, seeded_set):
        """One L_p application of a valid lower bound can only raise it."""
        pomdp = simple_system.model.pomdp
        rng = np.random.default_rng(0)
        for belief in rng.dirichlet(np.ones(pomdp.n_states), size=32):
            vector, action = incremental_update(
                pomdp, seeded_set.vectors, belief
            )
            current = float(np.max(seeded_set.vectors @ belief))
            assert float(vector @ belief) >= current - 1e-9
            assert 0 <= action < pomdp.n_actions

    def test_refine_improves_at_target_belief(self, simple_system, seeded_set):
        pomdp = simple_system.model.pomdp
        belief = simple_system.model.initial_belief()
        before = seeded_set.value(belief)
        result = refine_at(pomdp, seeded_set, belief)
        after = seeded_set.value(belief)
        assert after >= before - 1e-9
        assert result.improvement >= 0.0

    def test_repeated_refinement_converges(self, simple_system, seeded_set):
        """Refinement at a fixed belief is monotone and settles."""
        pomdp = simple_system.model.pomdp
        belief = simple_system.model.initial_belief()
        values = []
        for _ in range(50):
            refine_at(pomdp, seeded_set, belief)
            values.append(seeded_set.value(belief))
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert values[-1] - values[-10] <= 1e-6  # settled

    def test_min_improvement_rejects_small_gains(self, simple_system, seeded_set):
        pomdp = simple_system.model.pomdp
        belief = simple_system.model.initial_belief()
        for _ in range(30):
            refine_at(pomdp, seeded_set, belief, min_improvement=1e9)
        assert len(seeded_set) == 1  # nothing could clear the bar


def _reference_update(pomdp, vectors, belief):
    """The per-action Eq. 7 loop that :func:`incremental_update` replaced."""
    belief = np.asarray(belief, dtype=float)
    candidates = np.empty((pomdp.n_actions, pomdp.n_states))
    cache = get_joint_cache(pomdp)
    mass_all = cache.joint_all(belief) if cache is not None else None
    for action in range(pomdp.n_actions):
        if mass_all is not None:
            mass = mass_all[action]
        else:
            predicted = predict(pomdp.transitions, belief, action)
            mass = predicted[:, None] * observation_matrix_dense(
                pomdp.observations, action
            )
        scores = vectors @ mass  # (|B|, |O|)
        chosen = tie_break_argmax(scores, BACKUP_TIE_EPSILON)  # (|O|,)
        selected = vectors[chosen]  # (|O|, |S'|)
        backup = (
            observation_matrix_dense(pomdp.observations, action) * selected.T
        ).sum(axis=1)
        candidates[action] = reward_row(pomdp.rewards, action) + pomdp.discount * (
            transition_matvec(pomdp.transitions, action, backup)
        )
    best_action = int(tie_break_argmax(candidates @ belief, BACKUP_TIE_EPSILON))
    return candidates[best_action], best_action


@pytest.fixture(scope="module")
def backup_models(simple_system, emn_system):
    """Dense models and their sparse twins, each with its RA-Bound vector."""
    models = {}
    for name, system in (("simple", simple_system), ("emn", emn_system)):
        dense = system.model.pomdp
        seed_vector = ra_bound_vector(dense)
        models[name, "dense"] = (dense, seed_vector)
        models[name, "sparse"] = (_sparse_twin(dense), seed_vector)
    return models


def _test_belief(rng, n_states, support):
    """A full-support, 1-3-state-support, or point belief."""
    if support == "full":
        return rng.dirichlet(np.ones(n_states))
    size = 1 if support == "point" else int(rng.integers(1, 4))
    states = rng.choice(n_states, size=size, replace=False)
    belief = np.zeros(n_states)
    belief[states] = rng.dirichlet(np.ones(size))
    return belief


def _test_bound_stack(rng, seed_vector, count):
    """``count`` hyperplanes grown from the RA-Bound: raised copies that
    cross each other, exact duplicates, and copies tied within
    ``BACKUP_TIE_EPSILON`` (shifted by at most a quarter of it)."""
    scale = 0.5 * float(np.abs(seed_vector).max())
    stack = [seed_vector]
    while len(stack) < count:
        base = stack[int(rng.integers(len(stack)))]
        kind = int(rng.integers(3))
        if kind == 0:
            raised = rng.uniform(0.0, scale, seed_vector.size)
            stack.append(seed_vector + raised * (rng.random(seed_vector.size) < 0.5))
        elif kind == 1:
            stack.append(base.copy())
        else:
            shift = rng.uniform(-0.25, 0.25, seed_vector.size)
            stack.append(base + shift * BACKUP_TIE_EPSILON)
    return np.array(stack)


@given(
    model=st.sampled_from(
        [("simple", "dense"), ("simple", "sparse"), ("emn", "dense"), ("emn", "sparse")]
    ),
    cached=st.booleans(),
    one_action_chunks=st.booleans(),
    support=st.sampled_from(["full", "partial", "point"]),
    n_vectors=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_stacked_backup_matches_reference_loop(
    backup_models, model, cached, one_action_chunks, support, n_vectors, seed
):
    """The stacked Eq. 7 backup is the per-action loop, bit for bit, on
    both backends, with the joint cache present or declined, and for any
    chunking of the actions."""
    pomdp, seed_vector = backup_models[model]
    rng = np.random.default_rng(seed)
    belief = _test_belief(rng, pomdp.n_states, support)
    vectors = _test_bound_stack(rng, seed_vector, n_vectors)
    environment = {} if cached else {MAX_CACHE_BYTES_ENV: "0"}
    block_bytes = 1 if one_action_chunks else incremental.BLOCK_BYTES
    with mock.patch.dict(os.environ, environment), mock.patch.object(
        incremental, "BLOCK_BYTES", block_bytes
    ):
        assert (get_joint_cache(pomdp) is not None) == cached
        expected_vector, expected_action = _reference_update(pomdp, vectors, belief)
        vector, action = incremental_update(pomdp, vectors, belief)
    assert np.array_equal(vector, expected_vector)
    assert action == expected_action


class TestLowerBoundSoundness:
    def test_refined_bound_still_below_exact_value(self):
        """Refinement must never push the bound above the true value."""
        system = build_simple_system(recovery_notification=False, discount=0.85)
        pomdp = system.model.pomdp
        bound_set = BoundVectorSet(ra_bound_vector(pomdp))
        solution = solve_exact(pomdp, tol=1e-6)
        rng = np.random.default_rng(1)
        beliefs = rng.dirichlet(np.ones(pomdp.n_states), size=64)
        for belief in beliefs[:32]:
            refine_at(pomdp, bound_set, belief)
        for belief in beliefs:
            assert (
                bound_set.value(belief)
                <= solution.value(belief) + solution.error_bound + 1e-7
            )


class TestProperty1Invariant:
    def test_holds_for_ra_seed(self, simple_system, seeded_set):
        """Condition (b) 'can be shown to hold if the RA-Bound is the only
        bound vector present in B' — checked over reachable beliefs."""
        pomdp = simple_system.model.pomdp
        beliefs = sample_reachable_beliefs(
            pomdp, simple_system.model.initial_belief(), depth=2, max_beliefs=64
        )
        assert verify_lower_bound_invariant(pomdp, seeded_set, beliefs)

    def test_survives_refinement(self, simple_system, seeded_set):
        pomdp = simple_system.model.pomdp
        beliefs = sample_reachable_beliefs(
            pomdp, simple_system.model.initial_belief(), depth=2, max_beliefs=48
        )
        for belief in beliefs[:24]:
            refine_at(pomdp, seeded_set, belief)
        assert verify_lower_bound_invariant(pomdp, seeded_set, beliefs)

    def test_detects_violations(self, simple_system):
        """A deliberately too-optimistic set must fail the check."""
        pomdp = simple_system.model.pomdp
        optimistic = BoundVectorSet(np.full(pomdp.n_states, -1e-3))
        beliefs = simple_system.model.initial_belief()[None, :]
        assert not verify_lower_bound_invariant(pomdp, optimistic, beliefs)

    def test_holds_on_emn(self, emn_system):
        pomdp = emn_system.model.pomdp
        bound_set = BoundVectorSet(ra_bound_vector(pomdp))
        beliefs = sample_reachable_beliefs(
            pomdp, emn_system.model.initial_belief(), depth=1, max_beliefs=24
        )
        assert verify_lower_bound_invariant(pomdp, bound_set, beliefs)


class TestSampleReachableBeliefs:
    def test_contains_initial(self, simple_system):
        pomdp = simple_system.model.pomdp
        initial = simple_system.model.initial_belief()
        beliefs = sample_reachable_beliefs(pomdp, initial, depth=1)
        assert np.allclose(beliefs[0], initial)

    def test_respects_cap(self, emn_system):
        beliefs = sample_reachable_beliefs(
            emn_system.model.pomdp,
            emn_system.model.initial_belief(),
            depth=3,
            max_beliefs=10,
        )
        assert beliefs.shape[0] <= 10

    def test_all_rows_are_distributions(self, simple_system):
        beliefs = sample_reachable_beliefs(
            simple_system.model.pomdp,
            simple_system.model.initial_belief(),
            depth=2,
            max_beliefs=64,
        )
        assert np.allclose(beliefs.sum(axis=1), 1.0)
        assert np.all(beliefs >= -1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_refinement_monotone_at_random_beliefs(seed):
    """Property: refine_at never lowers the bound anywhere."""
    system = build_simple_system(recovery_notification=False)
    pomdp = system.model.pomdp
    bound_set = BoundVectorSet(ra_bound_vector(pomdp))
    rng = np.random.default_rng(seed)
    target = rng.dirichlet(np.ones(pomdp.n_states))
    probes = rng.dirichlet(np.ones(pomdp.n_states), size=8)
    before = [bound_set.value(p) for p in probes]
    refine_at(pomdp, bound_set, target)
    after = [bound_set.value(p) for p in probes]
    assert all(b >= a - 1e-9 for a, b in zip(before, after))
