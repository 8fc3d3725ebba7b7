"""Tests for the upper bounds (trivial, QMDP, FIB)."""

import numpy as np
import pytest

from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.upper import FIBBound, QMDPBound, TrivialUpperBound, fib_vectors
from repro.controllers import BranchAndBoundPolicyEngine, QMDPPolicyEngine
from repro.exceptions import ModelError
from repro.pomdp.exact import solve_exact
from repro.systems.simple import build_simple_system
from repro.systems.tiered import build_tiered_system


@pytest.fixture(scope="module")
def discounted_system():
    return build_simple_system(recovery_notification=False, discount=0.85)


@pytest.fixture(scope="module")
def discounted_solution(discounted_system):
    return solve_exact(discounted_system.model.pomdp, tol=1e-6)


class TestTrivialUpperBound:
    def test_always_zero(self):
        bound = TrivialUpperBound(3)
        assert bound.value(np.array([0.2, 0.3, 0.5])) == 0.0
        assert np.allclose(bound.value_batch(np.eye(3)), 0.0)

    def test_above_exact_value(self, discounted_system, discounted_solution):
        pomdp = discounted_system.model.pomdp
        rng = np.random.default_rng(0)
        for belief in rng.dirichlet(np.ones(pomdp.n_states), size=16):
            assert 0.0 >= discounted_solution.value(belief) - 1e-9


class TestQMDP:
    def test_upper_bounds_exact_value(self, discounted_system, discounted_solution):
        pomdp = discounted_system.model.pomdp
        bound = QMDPBound(pomdp)
        rng = np.random.default_rng(1)
        for belief in rng.dirichlet(np.ones(pomdp.n_states), size=64):
            assert (
                bound.value(belief)
                >= discounted_solution.value(belief)
                - discounted_solution.error_bound
                - 1e-7
            )

    def test_above_ra_bound(self, discounted_system):
        pomdp = discounted_system.model.pomdp
        upper = QMDPBound(pomdp)
        lower = ra_bound_vector(pomdp)
        rng = np.random.default_rng(2)
        for belief in rng.dirichlet(np.ones(pomdp.n_states), size=32):
            assert upper.value(belief) >= float(belief @ lower) - 1e-9

    def test_exact_at_point_beliefs(self, discounted_system):
        """With full certainty QMDP equals the MDP optimum."""
        pomdp = discounted_system.model.pomdp
        bound = QMDPBound(pomdp)
        for state in range(pomdp.n_states):
            belief = np.zeros(pomdp.n_states)
            belief[state] = 1.0
            assert np.isclose(bound.value(belief), bound.mdp_value[state])

    def test_works_on_undiscounted_recovery_model(self, emn_system):
        bound = QMDPBound(emn_system.model.pomdp)
        belief = emn_system.model.initial_belief()
        assert np.isfinite(bound.value(belief))
        assert bound.value(belief) <= 0.0

    def test_batch_matches_scalar(self, discounted_system):
        pomdp = discounted_system.model.pomdp
        bound = QMDPBound(pomdp)
        beliefs = np.random.default_rng(3).dirichlet(
            np.ones(pomdp.n_states), size=8
        )
        assert np.allclose(
            bound.value_batch(beliefs), [bound.value(b) for b in beliefs]
        )


class TestFIB:
    def test_between_exact_and_qmdp(self, discounted_system, discounted_solution):
        """FIB is tighter than QMDP but still an upper bound."""
        pomdp = discounted_system.model.pomdp
        fib = FIBBound(pomdp)
        qmdp = QMDPBound(pomdp)
        rng = np.random.default_rng(4)
        for belief in rng.dirichlet(np.ones(pomdp.n_states), size=64):
            value = fib.value(belief)
            assert value <= qmdp.value(belief) + 1e-7
            assert (
                value
                >= discounted_solution.value(belief)
                - discounted_solution.error_bound
                - 1e-7
            )

    def test_vectors_shape(self, discounted_system):
        pomdp = discounted_system.model.pomdp
        vectors = fib_vectors(pomdp)
        assert vectors.shape == (pomdp.n_actions, pomdp.n_states)

    def test_converges_on_undiscounted_recovery_model(self, simple_system):
        pomdp = simple_system.model.pomdp
        fib = FIBBound(pomdp)
        belief = simple_system.model.initial_belief()
        assert np.isfinite(fib.value(belief))

    def test_batch_matches_scalar(self, discounted_system):
        pomdp = discounted_system.model.pomdp
        fib = FIBBound(pomdp)
        beliefs = np.random.default_rng(5).dirichlet(
            np.ones(pomdp.n_states), size=8
        )
        assert np.allclose(
            fib.value_batch(beliefs), [fib.value(b) for b in beliefs]
        )


@pytest.mark.parametrize(
    "build",
    [
        lambda model: QMDPBound(model.pomdp),
        lambda model: FIBBound(model.pomdp),
        QMDPPolicyEngine,
        BranchAndBoundPolicyEngine,
    ],
    ids=["QMDPBound", "FIBBound", "QMDPPolicyEngine", "BranchAndBoundPolicyEngine"],
)
def test_sparse_models_rejected(build):
    """The informed bounds, and the policy engines built on them, are
    dense-only and say so instead of failing inside numpy."""
    model = build_tiered_system((2, 2), backend="sparse").model
    with pytest.raises(ModelError, match="requires the dense backend"):
        build(model)
