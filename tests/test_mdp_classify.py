"""Tests for repro.mdp.classify."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.mdp.classify import (
    EDGE_EPSILON,
    classify_chain,
    reachable_set,
    scc_summary,
    strongly_connected_components,
)


class TestClassifyChain:
    def test_absorbing_state_detected(self):
        chain = np.array([[0.5, 0.5], [0.0, 1.0]])
        result = classify_chain(chain)
        assert result.absorbing.tolist() == [False, True]
        assert result.recurrent.tolist() == [False, True]
        assert result.transient.tolist() == [True, False]

    def test_cycle_is_recurrent_not_absorbing(self):
        chain = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = classify_chain(chain)
        assert result.recurrent.all()
        assert not result.absorbing.any()
        assert len(result.recurrent_classes) == 1
        assert result.recurrent_classes[0] == frozenset({0, 1})

    def test_two_recurrent_classes(self):
        chain = np.array(
            [
                [0.5, 0.25, 0.25],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        result = classify_chain(chain)
        assert len(result.recurrent_classes) == 2
        assert result.transient.tolist() == [True, False, False]

    def test_identity_chain_all_absorbing(self):
        result = classify_chain(np.eye(3))
        assert result.absorbing.all()
        assert len(result.recurrent_classes) == 3

    def test_near_zero_probabilities_ignored(self):
        chain = np.array([[1.0 - 1e-15, 1e-15], [0.0, 1.0]])
        result = classify_chain(chain)
        # The 1e-15 edge is structural noise: state 0 stays recurrent.
        assert result.recurrent.tolist() == [True, True]


class TestReachableSet:
    def test_simple_path(self):
        chain = np.array(
            [
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [0.0, 0.0, 1.0],
            ]
        )
        reached = reachable_set(chain, np.array([True, False, False]))
        assert reached.all()

    def test_unreachable_island(self):
        chain = np.eye(2)
        reached = reachable_set(chain, np.array([True, False]))
        assert reached.tolist() == [True, False]

    def test_reverse_reachability_pattern(self):
        # reachable_set on the transpose answers "who can reach the mask".
        chain = np.array([[0.0, 1.0], [0.0, 1.0]])
        can_reach_1 = reachable_set(chain.T, np.array([False, True]))
        assert can_reach_1.all()


class TestStronglyConnectedComponents:
    def test_cycle_plus_tail(self):
        chain = np.array([
            [0.0, 1.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.5, 0.5, 0.0],
        ])
        components = strongly_connected_components(chain)
        assert frozenset({0, 1}) in components
        assert frozenset({2}) in components

    def test_tarjan_matches_networkx_on_random_graphs(self):
        """The strong components (scipy's search is Pearce's iterative form
        of Tarjan's algorithm) equal networkx's on random support graphs,
        given dense and as CSR; networkx is a test-only reference."""
        import networkx as nx

        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 12))
            adjacency = rng.random((n, n)) < 0.25
            graph = nx.from_numpy_array(adjacency, create_using=nx.DiGraph)
            theirs = {frozenset(c) for c in nx.strongly_connected_components(graph)}
            assert set(strongly_connected_components(adjacency)) == theirs
            csr = sp.csr_matrix(adjacency.astype(float))
            assert set(strongly_connected_components(csr)) == theirs
            assert scc_summary(csr).count == len(theirs)

    def test_tarjan_deep_chain_no_recursion_limit(self):
        """A 3,000-state path, far deeper than the default recursion limit:
        every state is its own component, and the classification matches
        the path's closure (the upper triangle)."""
        n = 3000
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[np.arange(n - 1), np.arange(1, n)] = True
        assert len(strongly_connected_components(adjacency)) == n
        states = np.arange(n)
        path = sp.csr_matrix(
            (np.ones(n), (states, np.minimum(states + 1, n - 1))), shape=(n, n)
        )
        _check_against_closure(path, np.triu(np.ones((n, n), dtype=bool)))
        assert scc_summary(path).count == n

    def test_matches_transitive_closure_reference(self):
        """``scc_summary`` and ``classify_chain`` against a brute-force
        reference built from the boolean transitive closure: random dense
        and CSR chains of 2-12 states with 1e-15 noise edges."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 13))
            weights = rng.random((n, n)) * (rng.random((n, n)) < 0.25)
            weights[np.diag_indices(n)] += (rng.random(n) < 0.3) | (
                weights.sum(axis=1) == 0
            )
            chain = weights / weights.sum(axis=1, keepdims=True)
            chain[rng.random((n, n)) < 0.1] += 1e-15
            reach = _transitive_closure(chain > EDGE_EPSILON)
            _check_against_closure(chain, reach)
            _check_against_closure(sp.csr_matrix(chain), reach)


def _transitive_closure(edges: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by repeated squaring."""
    reach = edges | np.eye(edges.shape[0], dtype=bool)
    while True:
        wider = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
        if np.array_equal(wider, reach):
            return reach
        reach = wider


def _check_against_closure(chain, reach: np.ndarray) -> None:
    """SCCs are the classes of mutual reachability; a class is closed when
    no edge leaves it; recurrent states lie in closed classes; absorbing
    states keep probability one on their self-loop."""
    edges = chain > EDGE_EPSILON
    edges = edges.toarray() if sp.issparse(edges) else edges
    mutual = reach & reach.T
    leaves = (edges & ~mutual).any(axis=1)
    recurrent = ~(mutual & leaves[None, :]).any(axis=1)
    components = {frozenset(np.flatnonzero(row).tolist()) for row in mutual}
    closed = {members for members in components if recurrent[min(members)]}

    summary = scc_summary(chain)
    assert summary.count == len(components)
    assert np.array_equal(summary.sizes[summary.labels], mutual.sum(axis=1))
    assert np.array_equal(mutual, summary.labels[:, None] == summary.labels[None, :])
    assert np.array_equal(summary.closed[summary.labels], recurrent)
    result = classify_chain(chain)
    assert len(result.recurrent_classes) == len(closed)
    assert set(result.recurrent_classes) == closed
    assert np.array_equal(result.recurrent, recurrent)
    assert np.array_equal(result.transient, ~recurrent)
    assert np.array_equal(result.absorbing, chain.diagonal() >= 1.0 - EDGE_EPSILON)


class TestClosedComponents:
    def test_absorbing_and_leaky(self):
        from repro.mdp.classify import closed_components

        chain = np.array([
            [1.0, 0.0, 0.0],
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
        ])
        assert closed_components(chain) == [frozenset({0})]

    def test_two_closed_classes(self):
        from repro.mdp.classify import closed_components

        chain = np.array([
            [0.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.25, 0.25, 0.25, 0.25],
        ])
        closed = closed_components(chain)
        assert frozenset({0, 1}) in closed
        assert frozenset({2}) in closed
        assert len(closed) == 2


class TestExpectedAbsorptionTime:
    def test_geometric_absorption(self):
        from repro.mdp.classify import expected_absorption_time

        # Leave with probability p each step: expected time 1/p.
        p = 0.2
        chain = np.array([[1.0 - p, p], [0.0, 1.0]])
        times = expected_absorption_time(chain)
        assert np.isclose(times[0], 1.0 / p)
        assert times[1] == 0.0

    def test_deterministic_path(self):
        from repro.mdp.classify import expected_absorption_time

        chain = np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 1.0],
        ])
        times = expected_absorption_time(chain)
        assert np.allclose(times, [2.0, 1.0, 0.0])

    def test_unreachable_target_is_inf(self):
        from repro.mdp.classify import expected_absorption_time

        chain = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.5, 0.5],
        ])
        targets = np.array([True, False, False])
        times = expected_absorption_time(chain, targets)
        assert times[0] == 0.0
        assert np.isinf(times[1]) and np.isinf(times[2])

    def test_explicit_targets_override_recurrent_set(self):
        from repro.mdp.classify import expected_absorption_time

        chain = np.array([
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [0.0, 0.0, 1.0],
        ])
        times = expected_absorption_time(chain, np.array([False, True, False]))
        assert times[1] == 0.0
        assert np.isclose(times[0], 2.0)  # geometric with p=0.5
        assert np.isinf(times[2])  # state 2 can never re-enter state 1


def test_daemon_import_leaves_networkx_unloaded():
    """The graph analyses run on scipy alone, so starting the policy
    daemon imports no graph library."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, repro.serve.__main__; print('networkx' in sys.modules)",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
