"""Tests for the sawtooth upper bound."""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import sawtooth
from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.sawtooth import SUPPORT_EPSILON, SawtoothUpperBound
from repro.exceptions import ModelError
from repro.pomdp.exact import solve_exact
from repro.systems.simple import build_simple_system


def reference_value(bound, belief):
    """The scalar interpolation loop the array kernel replaced, verbatim."""
    belief = np.asarray(belief, dtype=float)
    corner = float(belief @ bound.corner_values)
    best = corner
    for point, point_value in zip(bound.points, bound.point_values):
        gap = point_value - float(point @ bound.corner_values)
        if gap >= 0:
            continue  # the point is no tighter than the corners
        support = point > SUPPORT_EPSILON
        if np.any(belief[~support] > SUPPORT_EPSILON):
            # pi is not absolutely continuous w.r.t. b_i along the
            # sawtooth: the interpolation coefficient is min over the
            # support, which is 0 here -> no improvement from this point.
            continue
        ratio = float(np.min(belief[support] / point[support]))
        best = min(best, corner + gap * ratio)
    return best


def _sparse_beliefs(rng, n_states, count):
    """Beliefs on random supports, some entries below SUPPORT_EPSILON."""
    weights = rng.dirichlet(np.ones(n_states), size=count)
    weights[rng.random(weights.shape) < 0.4] = 0.0
    weights[rng.random(weights.shape) < 0.1] = SUPPORT_EPSILON / 4
    weights[np.arange(count), rng.integers(n_states, size=count)] += 0.5
    return weights / weights.sum(axis=1, keepdims=True)


@pytest.fixture(scope="module")
def discounted():
    system = build_simple_system(recovery_notification=False, discount=0.85)
    return system, solve_exact(system.model.pomdp, tol=1e-6)


class TestInitialisation:
    def test_qmdp_corners_by_default(self, simple_system):
        bound = SawtoothUpperBound(simple_system.model.pomdp)
        assert bound.corner_values.shape == (
            simple_system.model.pomdp.n_states,
        )
        assert len(bound) == 0

    def test_bad_corner_shape_rejected(self, simple_system):
        with pytest.raises(ModelError):
            SawtoothUpperBound(
                simple_system.model.pomdp, corner_values=np.zeros(2)
            )


class TestUpperBoundValidity:
    def test_above_exact_value_before_refinement(self, discounted):
        system, exact = discounted
        bound = SawtoothUpperBound(system.model.pomdp)
        rng = np.random.default_rng(0)
        for belief in rng.dirichlet(np.ones(4), size=64):
            assert bound.value(belief) >= exact.value(belief) - 1e-7

    def test_above_exact_value_after_refinement(self, discounted):
        system, exact = discounted
        bound = SawtoothUpperBound(system.model.pomdp)
        rng = np.random.default_rng(1)
        beliefs = rng.dirichlet(np.ones(4), size=32)
        for belief in beliefs:
            bound.refine_at(belief)
        for belief in beliefs:
            assert (
                bound.value(belief)
                >= exact.value(belief) - exact.error_bound - 1e-7
            )

    def test_above_ra_lower_bound_on_emn(self, emn_system):
        pomdp = emn_system.model.pomdp
        upper = SawtoothUpperBound(pomdp)
        lower = ra_bound_vector(pomdp)
        rng = np.random.default_rng(2)
        beliefs = rng.dirichlet(np.ones(pomdp.n_states), size=16)
        for belief in beliefs[:8]:
            upper.refine_at(belief)
        for belief in beliefs:
            assert upper.value(belief) >= float(belief @ lower) - 1e-7


class TestRefinement:
    def test_refinement_monotone_decrease(self, discounted):
        system, _ = discounted
        bound = SawtoothUpperBound(system.model.pomdp)
        belief = system.model.initial_belief()
        values = []
        for _ in range(10):
            bound.refine_at(belief)
            values.append(bound.value(belief))
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_refinement_tightens_below_corner_interpolation(self, discounted):
        system, _ = discounted
        pomdp = system.model.pomdp
        bound = SawtoothUpperBound(pomdp)
        belief = system.model.initial_belief()
        corner_only = bound.value(belief)
        gain = bound.refine_at(belief)
        assert gain >= 0.0
        assert bound.value(belief) <= corner_only

    def test_max_points_evicts_oldest(self, discounted):
        system, _ = discounted
        pomdp = system.model.pomdp
        bound = SawtoothUpperBound(pomdp, max_points=3)
        rng = np.random.default_rng(3)
        for belief in rng.dirichlet(np.ones(4), size=12):
            bound.refine_at(belief)
        assert len(bound) <= 3

    def test_value_batch_matches_scalar(self, discounted):
        system, _ = discounted
        pomdp = system.model.pomdp
        bound = SawtoothUpperBound(pomdp)
        rng = np.random.default_rng(4)
        beliefs = rng.dirichlet(np.ones(4), size=16)
        for belief in beliefs[:8]:
            bound.refine_at(belief)
        batch = bound.value_batch(beliefs)
        singles = [bound.value(belief) for belief in beliefs]
        assert np.allclose(batch, singles)

    def test_point_beliefs_match_corners(self, discounted):
        system, _ = discounted
        pomdp = system.model.pomdp
        bound = SawtoothUpperBound(pomdp)
        for state in range(pomdp.n_states):
            belief = np.zeros(pomdp.n_states)
            belief[state] = 1.0
            assert np.isclose(
                bound.value(belief), bound.corner_values[state]
            )

    def test_add_point_skips_duplicates_and_evicts_oldest(self, discounted):
        system, _ = discounted
        pomdp = system.model.pomdp
        bound = SawtoothUpperBound(pomdp, max_points=2)
        beliefs = np.eye(pomdp.n_states)[:3]
        bound.add_point(beliefs[0], -1.0)
        bound.add_point(beliefs[0].copy(), -1.0)
        assert np.array_equal(bound.points, beliefs[:1])
        bound.add_point(beliefs[1], -1.0)
        bound.add_point(beliefs[2], -2.0)
        assert np.array_equal(bound.points, beliefs[1:])
        assert np.array_equal(bound.point_values, [-1.0, -2.0])
        assert np.array_equal(
            bound.gaps, bound.point_values - bound.points @ bound.corner_values
        )

    def test_max_points_must_be_positive(self, simple_system):
        with pytest.raises(ValueError):
            SawtoothUpperBound(simple_system.model.pomdp, max_points=0)


@given(
    n_states=st.integers(min_value=2, max_value=6),
    n_points=st.integers(min_value=0, max_value=30),
    points_per_chunk=st.sampled_from([1, 3, None]),
    order=st.sampled_from(["C", "F"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_interpolation_matches_reference_loop(
    n_states, n_points, points_per_chunk, order, seed
):
    """``value`` and ``value_batch`` are the scalar loop, bit for bit: with
    no points, with points whose gap is >= 0, at beliefs with mass outside
    a point's support and at corner beliefs, on C- and F-ordered stacks
    (posteriors are transposes), and with chunks of 1 or 3 points."""
    rng = np.random.default_rng(seed)
    bound = SawtoothUpperBound(
        SimpleNamespace(n_states=n_states),
        corner_values=-rng.uniform(0.0, 10.0, n_states),
    )
    for point in _sparse_beliefs(rng, n_states, n_points):
        gap = rng.uniform(-3.0, 1.0)
        bound.add_point(point, float(point @ bound.corner_values) + gap)
    beliefs = np.asarray(
        np.concatenate(
            [_sparse_beliefs(rng, n_states, 12), np.eye(n_states), bound.points[:4]]
        ),
        order=order,
    )
    expected = np.array([reference_value(bound, belief) for belief in beliefs])
    budget = sawtooth.WORKING_SET_BYTES
    if points_per_chunk is not None:
        budget = points_per_chunk * beliefs.nbytes
    with mock.patch.object(sawtooth, "WORKING_SET_BYTES", budget):
        assert np.array_equal(bound.value_batch(beliefs), expected)
        assert np.array_equal([bound.value(belief) for belief in beliefs], expected)
