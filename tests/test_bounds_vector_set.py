"""Tests for BoundVectorSet (Eq. 6 and Section 4.3 storage management)."""

import copy
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.bounds.vector_set import BoundVectorSet
from repro.exceptions import ModelError


def make_set(**kwargs):
    return BoundVectorSet(np.array([-2.0, -3.0]), **kwargs)


class TestConstruction:
    def test_single_vector_seed(self):
        bound_set = make_set()
        assert len(bound_set) == 1
        assert bound_set.n_states == 2

    def test_stack_seed(self):
        bound_set = BoundVectorSet(np.array([[-1.0, 0.0], [0.0, -1.0]]))
        assert len(bound_set) == 2

    def test_max_vectors_below_seed_rejected(self):
        with pytest.raises(ModelError):
            BoundVectorSet(np.array([[-1.0, 0.0], [0.0, -1.0]]), max_vectors=1)


class TestEvaluation:
    def test_value_is_max_hyperplane(self):
        bound_set = BoundVectorSet(np.array([[-1.0, 0.0], [0.0, -1.0]]))
        assert bound_set.value(np.array([1.0, 0.0])) == 0.0
        assert bound_set.value(np.array([0.5, 0.5])) == -0.5

    def test_value_batch_matches_scalar(self):
        bound_set = BoundVectorSet(np.array([[-1.0, 0.0], [0.0, -1.0]]))
        beliefs = np.array([[0.2, 0.8], [0.9, 0.1]])
        batch = bound_set.value_batch(beliefs)
        assert np.allclose(batch, [bound_set.value(b) for b in beliefs])

    def test_improvement_at(self):
        bound_set = make_set()
        better = np.array([-1.0, -3.0])
        assert np.isclose(
            bound_set.improvement_at(better, np.array([1.0, 0.0])), 1.0
        )

    def test_value_batch_accepts_a_single_one_dimensional_belief(self):
        bound_set = BoundVectorSet(np.array([[-1.0, 0.0], [0.0, -1.0]]))
        batch = bound_set.value_batch(np.array([0.5, 0.5]))
        assert batch.shape == (1,)
        assert batch[0] == bound_set.value(np.array([0.5, 0.5]))

    def test_value_batch_empty_belief_stack(self):
        bound_set = make_set()
        result = bound_set.value_batch(np.zeros((0, 2)))
        assert result.shape == (0,)
        assert np.array_equal(bound_set._usage, np.zeros(1, dtype=np.int64))

    def test_value_batch_rejects_mismatched_belief_width(self):
        bound_set = make_set()
        with pytest.raises(ModelError):
            bound_set.value_batch(np.zeros((2, 3)))

    def test_value_batch_returns_exact_maxima(self):
        """Returned values are the exact per-column max — bit-identical to
        value() — with the tie-break applied only to usage accounting."""
        vectors = np.array([[-1.0, -2.0, 0.0], [0.0, -1.0, -2.0]])
        bound_set = BoundVectorSet(vectors)
        rng = np.random.default_rng(0)
        beliefs = rng.dirichlet(np.ones(3), size=8)
        batch = bound_set.value_batch(beliefs)
        np.testing.assert_array_equal(batch, (vectors @ beliefs.T).max(axis=0))

    def test_value_batch_credits_usage_to_winning_vectors(self):
        bound_set = BoundVectorSet(np.array([[-1.0, 0.0], [0.0, -1.0]]))
        bound_set.value_batch(np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]]))
        # Vector 1 wins the two fault-heavy columns, vector 0 the last.
        assert bound_set._usage.tolist() == [1, 2]

    def test_value_batch_tied_columns_credit_the_lowest_index(self):
        bound_set = BoundVectorSet(np.array([[-1.0, -1.0], [-1.0, -1.0]]))
        bound_set.value_batch(np.array([[0.5, 0.5]]))
        assert bound_set._usage.tolist() == [1, 0]

    def test_record_wins_accumulates(self):
        bound_set = BoundVectorSet(np.array([[-1.0, 0.0], [0.0, -1.0]]))
        bound_set.record_wins(np.array([1, 2]))
        bound_set.record_wins(np.zeros(2, dtype=np.int64))
        bound_set.record_wins(np.array([0, 3]))
        assert bound_set._usage.tolist() == [1, 5]


class TestAdd:
    def test_useful_vector_added(self):
        bound_set = make_set()
        assert bound_set.add(np.array([-1.0, -4.0]))
        assert len(bound_set) == 2

    def test_dominated_vector_rejected(self):
        bound_set = make_set()
        assert not bound_set.add(np.array([-3.0, -4.0]))
        assert bound_set.rejections == 1

    def test_belief_gate_rejects_non_improving(self):
        bound_set = make_set()
        # Improves at pi=(0,1) but not at the supplied belief (1,0).
        vector = np.array([-2.5, -2.0])
        assert not bound_set.add(vector, belief=np.array([1.0, 0.0]))

    def test_min_improvement_threshold(self):
        bound_set = make_set()
        vector = np.array([-1.9, -3.0])  # improves by 0.1 at (1,0)
        assert not bound_set.add(
            vector, belief=np.array([1.0, 0.0]), min_improvement=0.5
        )
        assert bound_set.add(
            vector, belief=np.array([1.0, 0.0]), min_improvement=0.05
        )

    def test_wrong_shape_rejected(self):
        with pytest.raises(ModelError):
            make_set().add(np.array([-1.0, -1.0, -1.0]))

    def test_nan_improvement_rejected(self):
        """A malformed (NaN) belief must not let a vector past the gate."""
        bound_set = make_set()
        assert not bound_set.add(
            np.array([-1.0, -1.0]), belief=np.array([np.nan, np.nan])
        )
        assert (len(bound_set), bound_set.rejections) == (1, 1)


class TestEviction:
    def test_least_used_evicted(self):
        bound_set = make_set(max_vectors=2)
        bound_set.add(np.array([-1.0, -4.0]))  # index 1
        # Use index 1 a few times so a later arrival evicts... nothing else
        # is evictable except index 1 itself (index 0 is pinned).
        for _ in range(3):
            bound_set.value(np.array([1.0, 0.0]))
        bound_set.add(np.array([-3.0, -1.0]))  # forces eviction of index 1
        assert len(bound_set) == 2
        assert bound_set.evictions == 1
        # The seed must survive.
        assert np.allclose(bound_set.vectors[0], [-2.0, -3.0])

    def test_seed_never_evicted(self):
        bound_set = make_set(max_vectors=2)
        bound_set.add(np.array([-1.0, -4.0]))
        bound_set.add(np.array([-4.0, -1.0]))
        bound_set.add(np.array([-0.5, -5.0]))
        assert any(
            np.allclose(vector, [-2.0, -3.0]) for vector in bound_set.vectors
        )


class TestPrune:
    def test_pointwise_prune(self):
        bound_set = BoundVectorSet(np.array([[-1.0, 0.0], [0.0, -1.0]]))
        bound_set.add(np.array([-1.5, -0.5]))
        dropped = bound_set.prune("pointwise")
        assert dropped >= 0
        assert len(bound_set) >= 2

    def test_lp_prune_removes_interior(self):
        bound_set = BoundVectorSet(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        # Interior vector below max of the two: useless everywhere.
        bound_set._vectors = np.vstack([bound_set._vectors, [-0.6, -0.6]])
        bound_set._usage = np.append(bound_set._usage, 0)
        dropped = bound_set.prune("lp")
        assert dropped == 1

    @pytest.mark.parametrize("method", ["pointwise", "lp"])
    def test_duplicated_row_keeps_one_copy(self, method):
        v, w = np.array([-1.0, -3.0]), np.array([-3.0, -1.0])
        bound_set = BoundVectorSet(np.stack([v, w, v]))
        bound_set._usage[:] = [5, 6, 7]
        assert bound_set.prune(method) == 1
        assert np.array_equal(bound_set.vectors, np.stack([v, w]))
        assert bound_set._usage.tolist() == [5, 6]
        assert bound_set._pinned == 2

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            make_set().prune("bogus")

    def test_vectors_view_is_readonly(self):
        bound_set = make_set()
        with pytest.raises(ValueError):
            bound_set.vectors[0, 0] = 7.0


class TestSharedReaders:
    """Usage credits from concurrent readers, and copies of the set."""

    @pytest.mark.parametrize(
        "clone",
        [lambda bound_set: pickle.loads(pickle.dumps(bound_set)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_copy_keeps_vectors_usage_and_a_working_lock(self, clone):
        bound_set = BoundVectorSet(np.array([[-1.0, 0.0], [0.0, -1.0]]))
        bound_set.value_batch(np.array([[0.9, 0.1], [0.8, 0.2], [0.1, 0.9]]))
        copied = clone(bound_set)
        np.testing.assert_array_equal(copied.vectors, bound_set.vectors)
        np.testing.assert_array_equal(copied._usage, bound_set._usage)
        assert copied._usage_lock is not bound_set._usage_lock
        assert copied._usage_lock.acquire(timeout=1.0)
        copied._usage_lock.release()
        copied.value(np.array([1.0, 0.0]))
        assert copied._usage.tolist() == [1, 3]
        assert bound_set._usage.tolist() == [1, 2]

    def test_concurrent_credits_are_not_lost(self):
        """Threads crediting one set at once lose no usage count.

        The set is wide enough that numpy releases the interpreter lock
        for a while inside the in-place add, so two unguarded updates
        overlap and one overwrites the other's counts.
        """
        threads_n, rounds, width = 4, 200, 200_000
        bound_set = BoundVectorSet(np.zeros((width, 2)))
        wins = np.ones(width, dtype=np.int64)
        errors: list[Exception] = []

        def credit() -> None:
            try:
                for _ in range(rounds):
                    bound_set.record_wins(wins)
            except Exception as error:  # noqa: BLE001 — collected for the assert
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=credit) for _ in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        np.testing.assert_array_equal(
            bound_set._usage, np.full(width, threads_n * rounds)
        )
