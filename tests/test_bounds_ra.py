"""Tests for the RA-Bound (Section 3.1) — the paper's core contribution."""

import numpy as np
import pytest

from repro.bounds.ra_bound import check_ra_finiteness, ra_bound, ra_bound_vector
from repro.exceptions import DivergenceError
from repro.mdp.model import MDP
from repro.mdp.value_iteration import value_iteration
from repro.pomdp.exact import solve_exact
from repro.util.validation import SUM_ATOL


class TestHandComputedExample:
    """The Figure 2(b) chain of the two-server example, by hand.

    After augmentation the example has states (null, fault_a, fault_b, s_T)
    and actions (restart_a, restart_b, observe, a_T), each chosen with
    probability 1/4 by the RA chain.
    """

    def test_null_state_value(self, simple_system):
        vector = ra_bound_vector(simple_system.model.pomdp)
        null = simple_system.null_state
        # From null: each step costs (0.5 + 0.5 + 0 + 0)/4 = 0.25 and the
        # chain terminates w.p. 1/4, so E[cost] = 0.25 * 4 = 1.
        assert np.isclose(vector[null], -1.0, atol=1e-8)

    def test_fault_state_values_symmetric(self, simple_system):
        vector = ra_bound_vector(simple_system.model.pomdp)
        assert np.isclose(
            vector[simple_system.fault_a], vector[simple_system.fault_b]
        )

    def test_fault_state_value(self, simple_system):
        """Hand-derived linear system for the fault states.

        From fault_a (t_op = 20, termination reward -10):
        4 v_f = (-0.5 + v_n) + (-1 + v_f) + (-0.5 + v_f) + (-10)
        with v_n = -1  =>  2 v_f = -13  =>  v_f = -6.5.
        """
        vector = ra_bound_vector(simple_system.model.pomdp)
        assert np.isclose(vector[simple_system.fault_a], -6.5, atol=1e-8)

    def test_terminate_state_is_zero(self, simple_system):
        vector = ra_bound_vector(simple_system.model.pomdp)
        terminate = simple_system.model.terminate_state
        assert np.isclose(vector[terminate], 0.0)


class TestSolverAgreement:
    @pytest.mark.parametrize(
        "method", ["gauss-seidel", "jacobi", "direct", "sparse", "auto"]
    )
    def test_methods_agree(self, emn_system, method):
        reference = ra_bound_vector(emn_system.model.pomdp, method="gauss-seidel")
        vector = ra_bound_vector(emn_system.model.pomdp, method=method)
        assert np.allclose(vector, reference, atol=1e-5)

    @pytest.mark.parametrize("seed", range(4))
    def test_property_sparse_and_dense_agree(self, seed):
        """Random discounted MDPs: the sparse backend lands within SUM_ATOL
        of the paper's Gauss-Seidel path."""
        rng = np.random.default_rng(seed)
        n_states = int(rng.integers(3, 8))
        n_actions = int(rng.integers(2, 5))
        mdp = MDP(
            transitions=rng.dirichlet(
                np.ones(n_states), size=(n_actions, n_states)
            ),
            rewards=-rng.uniform(0.0, 2.0, size=(n_actions, n_states)),
            discount=float(rng.uniform(0.5, 0.95)),
        )
        dense = ra_bound_vector(mdp, method="gauss-seidel", tol=1e-12)
        sparse = ra_bound_vector(mdp, method="sparse")
        assert float(np.max(np.abs(dense - sparse))) < SUM_ATOL

    def test_sparse_and_dense_agree_undiscounted(self, simple_system, emn_system):
        """The recovery-augmented undiscounted models: transient-block sparse
        solve vs Gauss-Seidel, within SUM_ATOL."""
        for system in (simple_system, emn_system):
            dense = ra_bound_vector(system.model.pomdp, method="gauss-seidel")
            sparse = ra_bound_vector(system.model.pomdp, method="sparse")
            assert float(np.max(np.abs(dense - sparse))) < SUM_ATOL


class TestLowerBoundProperty:
    def test_below_optimal_mdp_value(self, emn_system):
        """V_m^- <= V_m: random actions can't beat the optimum (Eq. 1 vs 5)."""
        pomdp = emn_system.model.pomdp
        vector = ra_bound_vector(pomdp)
        optimal = value_iteration(pomdp.to_mdp()).value
        assert np.all(vector <= optimal + 1e-8)

    def test_below_exact_pomdp_value_discounted(self):
        """Theorem 3.1 checked against ground truth on a discounted model."""
        from repro.systems.simple import build_simple_system

        system = build_simple_system(recovery_notification=False, discount=0.85)
        pomdp = system.model.pomdp
        vector = ra_bound_vector(pomdp)
        solution = solve_exact(pomdp, tol=1e-6)
        rng = np.random.default_rng(0)
        for belief in rng.dirichlet(np.ones(pomdp.n_states), size=64):
            assert (
                float(belief @ vector)
                <= solution.value(belief) + solution.error_bound + 1e-8
            )

    def test_nonpositive_under_condition2(self, emn_system):
        vector = ra_bound_vector(emn_system.model.pomdp)
        assert np.all(vector <= 1e-12)


class TestFinitenessPreconditions:
    def test_unmodified_model_rejected(self):
        """Without Figure 2 modifications the RA chain accrues cost forever."""
        transitions = np.array([[[1.0]]])
        rewards = np.array([[-1.0]])
        mdp = MDP(transitions=transitions, rewards=rewards)
        with pytest.raises(DivergenceError, match="recurrent"):
            ra_bound_vector(mdp)

    def test_check_passes_for_augmented_models(self, simple_system, emn_system):
        check_ra_finiteness(simple_system.model.pomdp)
        check_ra_finiteness(emn_system.model.pomdp)

    def test_discounted_models_always_pass(self):
        mdp = MDP(
            transitions=np.array([[[1.0]]]),
            rewards=np.array([[-1.0]]),
            discount=0.9,
        )
        check_ra_finiteness(mdp)  # no exception
        vector = ra_bound_vector(mdp)
        assert np.isclose(vector[0], -10.0)

    def test_notified_variant_absorbs_null(self, simple_notified_system):
        """Figure 2(a): null absorbing and free => RA-Bound finite, null = 0."""
        model = simple_notified_system.model
        vector = ra_bound_vector(model.pomdp)
        null = simple_notified_system.null_state
        assert np.isclose(vector[null], 0.0)
        assert np.all(vector <= 1e-12)


class TestConvenienceWrapper:
    def test_ra_bound_at_belief(self, simple_system):
        pomdp = simple_system.model.pomdp
        vector = ra_bound_vector(pomdp)
        belief = np.full(pomdp.n_states, 1.0 / pomdp.n_states)
        assert np.isclose(ra_bound(pomdp, belief), float(belief @ vector))


class TestUniformChainDecomposedOnce:
    @pytest.mark.parametrize("method", ["auto", "sparse"])
    def test_one_decomposition_per_sparse_solve(self, method, monkeypatch):
        import repro.mdp.classify as classify
        from repro.systems.tiered import build_tiered_system

        pomdp = build_tiered_system((2, 2, 2), backend="sparse").model.pomdp
        calls = []
        real = classify.scc_summary

        def counting(chain):
            calls.append(chain)
            return real(chain)

        monkeypatch.setattr(classify, "scc_summary", counting)
        vector = ra_bound_vector(pomdp, method=method)
        assert len(calls) == 1
        assert np.all(np.isfinite(vector))


def _lu_ra_bound(pomdp) -> np.ndarray:
    """V⁻ by SuperLU on the transient block: the solve before the
    triangular path, kept as the reference."""
    import scipy.sparse.linalg as spla

    from repro.mdp.classify import classify_chain
    from repro.mdp.linear_solvers import _transient_system

    mdp = pomdp.to_mdp()
    chain, reward = mdp.uniform_chain()
    transient = classify_chain(chain).transient
    matrix, rhs, mask = _transient_system(chain, reward, mdp.discount, transient)
    value = np.zeros(mdp.n_states)
    value[mask] = spla.spsolve(matrix, rhs)
    return value


def _shipped_pomdp(name):
    from repro.recovery.model import convert_backend
    from repro.systems.emn import build_emn_system
    from repro.systems.simple import build_simple_system
    from repro.systems.tiered import build_tiered_system

    if name == "simple":
        return build_simple_system().model.pomdp
    if name == "emn-sparse":
        return convert_backend(build_emn_system().model, "sparse").pomdp
    replicas = {"tiered-14": 2, "tiered-62": 10, "tiered-602": 100}[name]
    return build_tiered_system((replicas,) * 3, backend="sparse").model.pomdp


class TestTriangularRABound:
    """Every shipped model's transient chain is acyclic apart from
    self-loops, so its RA-Bound takes one triangular solve, and V⁻ matches
    SuperLU's: bit for bit on the tiered family and the simple system, to
    rounding on EMN."""

    @pytest.mark.parametrize(
        "name, bit_identical",
        [
            ("tiered-14", True),
            ("tiered-62", True),
            ("tiered-602", True),
            ("simple", True),
            ("emn-sparse", False),
        ],
    )
    def test_matches_lu(self, name, bit_identical):
        from repro.obs.telemetry import session

        pomdp = _shipped_pomdp(name)
        with session() as telemetry:
            vector = ra_bound_vector(pomdp, method="sparse")
        assert telemetry.counters["solver.factorisation.triangular"] == 1
        assert "solver.factorisation.lu" not in telemetry.counters
        reference = _lu_ra_bound(pomdp)
        if bit_identical:
            np.testing.assert_array_equal(vector, reference)
        else:
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(vector - reference)) <= 1e-15 * scale
