"""Tests for repro.mdp.linear_solvers."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DivergenceError, NotConvergedError
from repro.mdp.classify import EDGE_EPSILON
from repro.mdp.linear_solvers import (
    SPARSE_DENSITY_CUTOFF,
    SPARSE_MIN_STATES,
    chain_density,
    gauss_seidel,
    jacobi,
    select_method,
    solve_direct,
    solve_markov_reward,
    solve_sparse,
    solve_transient_block,
)
from repro.obs.telemetry import session
from repro.util.validation import SUM_ATOL

# Absorbing chain: state 0 -> {0 w.p. .5, 1 w.p. .5}, state 1 absorbing.
CHAIN = np.array([[0.5, 0.5], [0.0, 1.0]])
REWARD = np.array([-1.0, 0.0])
# Expected accumulated reward from state 0: -1 * E[steps] = -2.
EXPECTED = np.array([-2.0, 0.0])


class TestAgreementAcrossSolvers:
    def test_gauss_seidel(self):
        assert np.allclose(gauss_seidel(CHAIN, REWARD), EXPECTED, atol=1e-8)

    def test_jacobi(self):
        assert np.allclose(jacobi(CHAIN, REWARD), EXPECTED, atol=1e-8)

    def test_direct_with_transient_mask(self):
        out = solve_direct(
            CHAIN, REWARD, transient_states=np.array([True, False])
        )
        assert np.allclose(out, EXPECTED, atol=1e-10)

    def test_front_door_dispatch(self):
        for method in ("gauss-seidel", "jacobi"):
            out = solve_markov_reward(CHAIN, REWARD, method=method)
            assert np.allclose(out, EXPECTED, atol=1e-8)
        out = solve_markov_reward(
            CHAIN,
            REWARD,
            method="direct",
            transient_states=np.array([True, False]),
        )
        assert np.allclose(out, EXPECTED, atol=1e-8)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            solve_markov_reward(CHAIN, REWARD, method="magic")


class TestSOR:
    def test_over_relaxation_converges_to_same_answer(self):
        for omega in (0.8, 1.0, 1.3):
            out = gauss_seidel(CHAIN, REWARD, omega=omega)
            assert np.allclose(out, EXPECTED, atol=1e-8)

    def test_invalid_omega_rejected(self):
        with pytest.raises(ValueError, match="omega"):
            gauss_seidel(CHAIN, REWARD, omega=2.5)


class TestDiscounted:
    def test_discounted_absorbing_with_reward(self):
        # Recurrent state with reward -1 and discount 0.5: value = -2.
        chain = np.array([[1.0]])
        reward = np.array([-1.0])
        for solver in (gauss_seidel, jacobi):
            out = solver(chain, reward, discount=0.5)
            assert np.allclose(out, [-2.0], atol=1e-8)
        out = solve_direct(chain, reward, discount=0.5)
        assert np.allclose(out, [-2.0], atol=1e-10)


class TestDivergence:
    def test_absorbing_reward_state_diverges(self):
        chain = np.array([[1.0]])
        reward = np.array([-1.0])
        with pytest.raises(DivergenceError):
            gauss_seidel(chain, reward)
        with pytest.raises(DivergenceError):
            jacobi(chain, reward)

    def test_recurrent_class_with_reward_diverges(self):
        # Two states cycling forever, both accruing cost.
        chain = np.array([[0.0, 1.0], [1.0, 0.0]])
        reward = np.array([-1.0, -1.0])
        with pytest.raises(DivergenceError):
            jacobi(chain, reward)

    def test_slow_linear_divergence_detected(self):
        # A long transient runway into a cost-accruing recurrent state:
        # residuals stall instead of blowing up; the stagnation check must
        # catch it within a couple of windows, not after 1e12 cost.
        chain = np.array([[0.9, 0.1], [0.0, 1.0]])
        reward = np.array([0.0, -0.001])
        with pytest.raises(DivergenceError):
            jacobi(chain, reward, max_iterations=50_000)


class TestDirectSolver:
    def test_no_transient_states_returns_zero(self):
        out = solve_direct(
            np.array([[1.0]]), np.array([0.0]),
            transient_states=np.array([False]),
        )
        assert np.allclose(out, [0.0])

    def test_full_solve_discounted(self):
        out = solve_direct(CHAIN, REWARD, discount=0.9)
        manual = np.linalg.solve(np.eye(2) - 0.9 * CHAIN, REWARD)
        assert np.allclose(out, manual)


class TestSparseBackend:
    def test_sparse_matches_direct(self):
        mask = np.array([True, False])
        assert np.allclose(
            solve_sparse(CHAIN, REWARD, transient_states=mask),
            solve_direct(CHAIN, REWARD, transient_states=mask),
            atol=1e-10,
        )

    def test_accepts_scipy_sparse_input(self):
        mask = np.array([True, False])
        out = solve_sparse(
            sp.csr_matrix(CHAIN), REWARD, transient_states=mask
        )
        assert np.allclose(out, EXPECTED, atol=1e-10)

    def test_no_transient_states_returns_zero(self):
        out = solve_sparse(
            np.array([[1.0]]), np.array([0.0]),
            transient_states=np.array([False]),
        )
        assert np.allclose(out, [0.0])

    def test_inconsistent_singular_system_raises(self):
        # Absorbing state with non-zero reward and no transient mask: the
        # factorisation is singular and no solution exists, so the LGMRES
        # fallback must fail loudly instead of returning garbage.
        with pytest.raises(NotConvergedError):
            solve_sparse(CHAIN, np.array([-1.0, 5.0]), maxiter=200)

    @pytest.mark.parametrize("seed", range(5))
    def test_property_sparse_agrees_with_dense_solvers(self, seed):
        """Random discounted chains: every backend lands within SUM_ATOL."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        chain = rng.dirichlet(np.ones(n), size=n)
        reward = -rng.uniform(0.0, 3.0, size=n)
        discount = float(rng.uniform(0.5, 0.99))
        dense = gauss_seidel(chain, reward, discount=discount, tol=1e-12)
        sparse = solve_sparse(chain, reward, discount=discount)
        assert np.max(np.abs(dense - sparse)) < SUM_ATOL

    @pytest.mark.parametrize("seed", range(3))
    def test_property_sparse_agrees_undiscounted_absorbing(self, seed):
        """Random undiscounted absorbing chains with the transient mask."""
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(3, 10))
        chain = rng.dirichlet(np.ones(n + 1), size=n)
        # Last column is absorption mass into a zero-reward sink state.
        full = np.zeros((n + 1, n + 1))
        full[:n] = chain
        full[n, n] = 1.0
        reward = np.append(-rng.uniform(0.1, 2.0, size=n), 0.0)
        mask = np.append(np.ones(n, dtype=bool), False)
        dense = gauss_seidel(full, reward, tol=1e-12)
        sparse = solve_sparse(full, reward, transient_states=mask)
        assert np.max(np.abs(dense - sparse)) < SUM_ATOL


class TestAutoSelection:
    def test_scipy_sparse_input_selects_sparse(self):
        assert select_method(sp.csr_matrix(CHAIN)) == "sparse"

    def test_small_dense_selects_gauss_seidel(self):
        assert select_method(CHAIN) == "gauss-seidel"

    def test_large_sparse_dense_array_selects_sparse(self):
        n = SPARSE_MIN_STATES
        chain = np.eye(n)
        assert chain_density(chain) <= SPARSE_DENSITY_CUTOFF
        assert select_method(chain) == "sparse"

    def test_large_dense_chain_stays_gauss_seidel(self):
        n = SPARSE_MIN_STATES
        chain = np.full((n, n), 1.0 / n)
        assert select_method(chain) == "gauss-seidel"

    def test_chain_density(self):
        assert chain_density(np.eye(4)) == 0.25
        assert chain_density(sp.eye(4, format="csr")) == 0.25
        assert chain_density(np.ones((2, 2))) == 1.0

    def test_front_door_auto_dispatch(self):
        out = solve_markov_reward(CHAIN, REWARD, method="auto")
        assert np.allclose(out, EXPECTED, atol=1e-8)
        mask = np.array([True, False])
        out = solve_markov_reward(
            sp.csr_matrix(CHAIN), REWARD, method="auto", transient_states=mask
        )
        assert np.allclose(out, EXPECTED, atol=1e-8)

    def test_iterative_solvers_accept_sparse_chains(self):
        sparse_chain = sp.csr_matrix(CHAIN)
        assert np.allclose(
            gauss_seidel(sparse_chain, REWARD), EXPECTED, atol=1e-8
        )
        assert np.allclose(jacobi(sparse_chain, REWARD), EXPECTED, atol=1e-8)


# -- the triangular transient solve ----------------------------------------


def _factorisations(telemetry) -> dict[str, int]:
    """The ``solver.factorisation.<kind>`` counts of a telemetry session."""
    prefix = "solver.factorisation."
    return {
        name[len(prefix):]: count
        for name, count in telemetry.counters.items()
        if name.startswith(prefix)
    }


@st.composite
def absorbing_chains(draw):
    """A random absorbing chain, its transient mask, a discount and whether
    its transient states form a cycle.

    Transient state ``i`` moves to state ``i + 1``, to other later
    transient states, to itself and to an absorbing state, so the
    transient block is acyclic apart from
    self-loops, unless a back edge closes a cycle: an ordinary one, or one
    whose probability lies below ``EDGE_EPSILON``, which the classifier
    reads as a structural zero but the solve must not drop.  The states
    are then permuted at random.
    """
    n_transient = draw(st.integers(2, 12))
    n_absorbing = draw(st.integers(1, 3))
    n = n_transient + n_absorbing
    seed = draw(st.integers(0, 2**32 - 1))
    cycle = draw(st.sampled_from(["none", "ordinary", "tiny"]))
    rng = np.random.default_rng(seed)
    chain = np.zeros((n, n))
    for i in range(n_transient):
        later = np.arange(i, n)
        keep = later[rng.random(later.size) < 0.6]
        # A path 0 -> 1 -> ... runs through every transient state, so a
        # back edge into state 0 closes a cycle.
        keep = np.union1d(keep, [min(i + 1, n - 1), n_transient + rng.integers(n_absorbing)])
        chain[i, keep] = rng.uniform(0.1, 1.0, keep.size)
        chain[i, i] = min(chain[i, i], 0.9)  # absorption stays likely
    if cycle != "none":
        back = 1e-14 if cycle == "tiny" else 0.3
        chain[n_transient - 1, 0] = back
    chain[:n_transient] /= chain[:n_transient].sum(axis=1, keepdims=True)
    if cycle == "tiny":
        # Renormalising must not lift the back edge above EDGE_EPSILON.
        assert 0.0 < chain[n_transient - 1, 0] < EDGE_EPSILON
    for a in range(n_absorbing):
        chain[n_transient + a, n_transient + a] = 1.0
    permutation = rng.permutation(n)
    chain = chain[np.ix_(permutation, permutation)]
    transient = (permutation < n_transient)
    discount = draw(st.sampled_from([1.0, 0.95, 0.6]))
    return chain, transient, discount, cycle != "none"


class TestTriangularTransientSolve:
    """solve_transient_block takes one triangular solve exactly when the
    transient states form no cycle, and matches a dense solve either way."""

    @settings(max_examples=120, deadline=None)
    @given(absorbing_chains(), st.booleans(), st.booleans())
    def test_matches_dense_solve_and_routes_by_cycles(
        self, case, as_csr, full_system
    ):
        chain, transient, discount, cyclic = case
        rng = np.random.default_rng(int(transient.sum()))
        reward = np.where(transient, -rng.uniform(0.1, 2.0, transient.size), 0.0)
        mask = transient
        if discount < 1.0 and full_system:
            mask = None  # discounting makes the whole system regular
        chosen = np.ones(transient.size, dtype=bool) if mask is None else mask
        block = np.eye(int(chosen.sum())) - discount * chain[np.ix_(chosen, chosen)]
        expected = np.zeros(transient.size)
        expected[chosen] = np.linalg.solve(block, reward[chosen])
        chain_in = sp.csr_matrix(chain) if as_csr else chain
        with session() as telemetry:
            sparse = solve_sparse(chain_in, reward, discount, transient_states=mask)
            direct = solve_direct(chain_in, reward, discount, transient_states=mask)
        np.testing.assert_allclose(sparse, expected, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(direct, expected, rtol=0.0, atol=1e-10)
        kind = "lu" if cyclic else "triangular"
        assert _factorisations(telemetry) == {kind: 2}

    @pytest.mark.parametrize("as_csr", [False, True])
    def test_helper_accepts_dense_and_sparse_blocks(self, as_csr):
        block = np.array([[1.0, 0.0, 0.0], [-0.5, 1.0, -0.25], [0.0, 0.0, 0.5]])
        rhs = np.array([1.0, 2.0, 3.0])
        with session() as telemetry:
            solution, kind = solve_transient_block(
                sp.csr_matrix(block) if as_csr else block, rhs
            )
        assert kind == "triangular"
        assert _factorisations(telemetry) == {"triangular": 1}
        np.testing.assert_allclose(solution, np.linalg.solve(block, rhs))

    def test_zero_on_the_diagonal_takes_lu(self):
        # An absorbing state inside the undiscounted block: acyclic, but
        # singular, so it is not solved as triangular.
        block = np.eye(2) - CHAIN
        with session() as telemetry, pytest.warns(spla.MatrixRankWarning):
            _, kind = solve_transient_block(block, np.array([-1.0, 5.0]))
        assert kind == "lu"
        assert _factorisations(telemetry) == {"lu": 1}

    def test_dispatch_event_names_the_factorisation(self):
        mask = np.array([True, False])
        with session() as telemetry:
            solve_markov_reward(CHAIN, REWARD, method="sparse", transient_states=mask)
            solve_markov_reward(CHAIN, REWARD, method="gauss-seidel")
        dispatches = [
            event for event in telemetry.snapshot().events
            if event["event"] == "solver_dispatch"
        ]
        assert [event["factorisation"] for event in dispatches] == [
            "triangular",
            None,
        ]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_scipy_numbers_dag_components_sinks_first(n, seed):
    """Every edge of a DAG runs from a higher strong-component label to a
    lower one.  solve_transient_block relies on this numbering of
    scipy.sparse.csgraph.connected_components for its triangular order; if
    scipy changes it, this fails rather than the RA-Bound silently falling
    back to LU."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    upper = np.triu(rng.random((n, n)) < 0.3, k=1)
    edges = np.zeros((n, n), dtype=bool)
    edges[np.ix_(order, order)] = upper  # edge order[i] -> order[j], i < j
    rows, cols = np.nonzero(edges)
    graph = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    count, labels = csgraph.connected_components(
        graph, directed=True, connection="strong"
    )
    assert count == n
    assert np.all(labels[rows] > labels[cols])
