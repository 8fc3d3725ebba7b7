"""Tests for alpha-vector utilities (evaluation, pruning, cross-sums)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pomdp import alpha


class TestEvaluate:
    def test_max_over_vectors(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert alpha.evaluate(vectors, np.array([0.7, 0.3])) == 0.7

    def test_batch_matches_scalar(self):
        vectors = np.array([[1.0, -1.0], [-1.0, 1.0], [0.2, 0.2]])
        beliefs = np.array([[0.5, 0.5], [0.9, 0.1], [0.0, 1.0]])
        batch = alpha.evaluate_batch(vectors, beliefs)
        singles = [alpha.evaluate(vectors, b) for b in beliefs]
        assert np.allclose(batch, singles)

    def test_argmax_vector(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert alpha.argmax_vector(vectors, np.array([0.1, 0.9])) == 1


class TestPointwiseDominance:
    def test_dominated(self):
        vectors = np.array([[1.0, 1.0]])
        assert alpha.pointwise_dominated(np.array([0.5, 0.5]), vectors)

    def test_not_dominated_when_crossing(self):
        vectors = np.array([[1.0, 0.0]])
        assert not alpha.pointwise_dominated(np.array([0.0, 1.0]), vectors)

    def test_empty_set(self):
        assert not alpha.pointwise_dominated(
            np.array([0.0]), np.empty((0, 1))
        )

    def test_prune_removes_duplicates(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        pruned = alpha.prune_pointwise(vectors)
        assert pruned.shape[0] == 2

    def test_prune_keeps_crossing_vectors(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
        pruned = alpha.prune_pointwise(vectors)
        # [0.4, 0.4] crosses neither: it is dominated by neither alone but
        # useless only under LP pruning; pointwise keeps it.
        assert pruned.shape[0] == 3


def _reference_survivors(vectors):
    """The double loop :func:`alpha.pointwise_survivors` replaced."""
    keep = []
    for i, candidate in enumerate(vectors):
        dominated = False
        for j, other in enumerate(vectors):
            if i == j:
                continue
            if np.all(other >= candidate - alpha.LP_EPSILON) and (
                bool(np.any(other > candidate + alpha.LP_EPSILON)) or j < i
            ):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    return keep


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_pointwise_survivors_match_reference_loop(seed, n_states, n_vectors):
    """Random stacks with exact duplicates and copies shifted within (and
    just past) ``LP_EPSILON``, where the keep rule's tie cases live."""
    rng = np.random.default_rng(seed)
    rows = [rng.integers(-3, 3, size=n_states).astype(float)]
    while len(rows) < n_vectors:
        base = rows[int(rng.integers(len(rows)))]
        shift = rng.choice([0.0, 0.5, 1.0, 2.0, 1.0]) * alpha.LP_EPSILON
        kind = int(rng.integers(3))
        if kind == 0:
            rows.append(rng.integers(-3, 3, size=n_states).astype(float))
        elif kind == 1:
            rows.append(base.copy())
        else:
            rows.append(base + shift * rng.choice([-1.0, 0.0, 1.0], size=n_states))
    vectors = np.array(rows)
    survivors = alpha.pointwise_survivors(vectors)
    assert survivors.tolist() == _reference_survivors(vectors)
    assert np.array_equal(alpha.prune_pointwise(vectors), vectors[survivors])


def test_pointwise_survivors_of_an_empty_stack():
    assert alpha.pointwise_survivors(np.empty((0, 3))).size == 0


class TestWitnessLP:
    def test_useful_vector_has_witness(self):
        vectors = np.array([[1.0, 0.0]])
        witness = alpha.witness_belief(np.array([0.0, 1.0]), vectors)
        assert witness is not None
        assert witness[1] > 0.5  # the witness leans on state 1

    def test_dominated_vector_has_no_witness(self):
        vectors = np.array([[1.0, 1.0]])
        assert alpha.witness_belief(np.array([0.0, 0.5]), vectors) is None

    def test_lp_prunes_interior_vector(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.4, 0.4]])
        pruned = alpha.prune_lp(vectors)
        # max(pi, 1-pi) >= 0.5 > 0.4 everywhere: the flat vector is useless.
        assert pruned.shape[0] == 2

    def test_lp_keeps_vector_useful_in_a_region(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.6]])
        pruned = alpha.prune_lp(vectors)
        assert pruned.shape[0] == 3

    def test_lp_on_identical_vectors_keeps_one(self):
        vectors = np.array([[0.5, 0.5], [0.5, 0.5]])
        pruned = alpha.prune_lp(vectors)
        assert pruned.shape[0] == 1


class TestCrossSum:
    def test_all_pairs(self):
        left = np.array([[1.0], [2.0]])
        right = np.array([[10.0], [20.0], [30.0]])
        combined = alpha.cross_sum(left, right)
        assert sorted(combined.ravel().tolist()) == [11, 12, 21, 22, 31, 32]

    def test_empty_operands(self):
        left = np.empty((0, 2))
        right = np.array([[1.0, 2.0]])
        assert np.array_equal(alpha.cross_sum(left, right), right)
        assert np.array_equal(alpha.cross_sum(right, left), right)


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=2, max_value=6),
)
@settings(max_examples=30, deadline=None)
def test_pruning_preserves_value_function(seed, n_states, n_vectors):
    """Pruned sets must induce exactly the same PWLC value function."""
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n_vectors, n_states))
    pruned = alpha.prune_lp(vectors)
    beliefs = rng.dirichlet(np.ones(n_states), size=32)
    for belief in beliefs:
        assert np.isclose(
            alpha.evaluate(vectors, belief),
            alpha.evaluate(pruned, belief),
            atol=1e-7,
        )


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_pointwise_prune_never_lowers_value(seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(6, 3))
    pruned = alpha.prune_pointwise(vectors)
    beliefs = rng.dirichlet(np.ones(3), size=16)
    for belief in beliefs:
        assert alpha.evaluate(pruned, belief) >= alpha.evaluate(
            vectors, belief
        ) - 1e-9
