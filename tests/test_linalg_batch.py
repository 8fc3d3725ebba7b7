"""Batched linalg primitives against their looped scalar counterparts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.linalg.ops import (
    BACKUP_TIE_EPSILON,
    GAMMA_EPSILON,
    belief_update_batch,
    bellman_backup_envelope,
    observation_probabilities_batch,
    observation_probabilities_from_predicted,
    predict,
    predict_batch,
    tie_break_argmax,
)
from repro.systems.emn import build_emn_system
from repro.systems.tiered import build_tiered_system
from tests.conftest import random_pomdp


@pytest.fixture(scope="module", params=["dense", "tiered", "emn"])
def pomdp(request):
    if request.param == "dense":
        rng = np.random.default_rng(7)
        return random_pomdp(rng, n_states=6, n_actions=4, n_observations=3)
    if request.param == "tiered":
        return build_tiered_system(replicas=(2, 2, 2), backend="sparse").model.pomdp
    return build_emn_system(backend="sparse").model.pomdp


def _beliefs(pomdp, m=5, seed=13):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(pomdp.n_states), size=m)


class TestTieBreakArgmax:
    def test_exact_argmax_when_scores_are_separated(self):
        scores = np.array([0.1, 0.9, 0.3])
        assert tie_break_argmax(scores) == 1

    def test_ties_break_toward_the_lowest_index(self):
        scores = np.array([0.5, 0.5 + BACKUP_TIE_EPSILON / 2, 0.2])
        assert tie_break_argmax(scores) == 0

    def test_outside_tolerance_is_not_a_tie(self):
        scores = np.array([0.5, 0.5 + 2 * BACKUP_TIE_EPSILON])
        assert tie_break_argmax(scores) == 1

    def test_axis_zero_over_columns(self):
        scores = np.array([[1.0, 0.0], [1.0, 1.0]])
        winners = tie_break_argmax(scores, axis=0)
        assert winners.tolist() == [0, 1]  # column 0 ties toward row 0

    def test_three_dimensional_input(self):
        scores = np.zeros((2, 3, 4))
        scores[1, 2, 3] = 1.0
        winners = tie_break_argmax(scores, axis=0)
        assert winners.shape == (3, 4)
        assert winners[2, 3] == 1
        assert winners[0, 0] == 0


class TestPredictBatch:
    def test_rows_match_looped_predict(self, pomdp):
        """Sparse rows are bit-identical (scipy evaluates CSR × dense-block
        column by column with the matvec kernel); dense GEMM vs GEMV may
        re-associate, so the dense check allows one ulp of drift."""
        exact = pomdp.backend.is_sparse
        beliefs = _beliefs(pomdp)
        for action in range(pomdp.n_actions):
            batched = predict_batch(pomdp.transitions, beliefs, action)
            for i, belief in enumerate(beliefs):
                looped = predict(pomdp.transitions, belief, action)
                if exact:
                    np.testing.assert_array_equal(batched[i], looped)
                else:
                    np.testing.assert_allclose(batched[i], looped, rtol=1e-15)

    def test_single_belief_may_be_one_dimensional(self, pomdp):
        belief = _beliefs(pomdp, m=1)[0]
        batched = predict_batch(pomdp.transitions, belief, action=0)
        assert batched.shape == (1, pomdp.n_states)
        np.testing.assert_array_equal(
            batched[0], predict(pomdp.transitions, belief, 0)
        )


class TestObservationProbabilitiesBatch:
    def test_rows_match_looped_gamma(self, pomdp):
        beliefs = _beliefs(pomdp)
        for action in range(pomdp.n_actions):
            predicted = predict_batch(pomdp.transitions, beliefs, action)
            batched = observation_probabilities_batch(
                pomdp.observations, predicted, action
            )
            assert batched.shape == (beliefs.shape[0], pomdp.n_observations)
            for i in range(beliefs.shape[0]):
                looped = observation_probabilities_from_predicted(
                    pomdp.observations, predicted[i], action
                )
                if pomdp.backend.is_sparse:
                    np.testing.assert_array_equal(batched[i], looped)
                else:
                    np.testing.assert_allclose(batched[i], looped, rtol=1e-15)


class TestBeliefUpdateBatch:
    def test_shapes(self, pomdp):
        beliefs = _beliefs(pomdp, m=4)
        gamma, posteriors = belief_update_batch(
            pomdp.transitions, pomdp.observations, beliefs, action=0
        )
        assert gamma.shape == (4, pomdp.n_observations)
        assert posteriors.shape == (4, pomdp.n_observations, pomdp.n_states)

    def test_gamma_matches_observation_probabilities(self, pomdp):
        beliefs = _beliefs(pomdp)
        for action in range(pomdp.n_actions):
            gamma, _ = belief_update_batch(
                pomdp.transitions, pomdp.observations, beliefs, action
            )
            predicted = predict_batch(pomdp.transitions, beliefs, action)
            np.testing.assert_array_equal(
                gamma,
                observation_probabilities_batch(
                    pomdp.observations, predicted, action
                ),
            )

    def test_posteriors_match_scalar_bayes_rule(self, pomdp):
        from repro.pomdp.belief import update_belief

        beliefs = _beliefs(pomdp)
        for action in range(pomdp.n_actions):
            gamma, posteriors = belief_update_batch(
                pomdp.transitions, pomdp.observations, beliefs, action
            )
            for i, belief in enumerate(beliefs):
                for obs in range(pomdp.n_observations):
                    if gamma[i, obs] > GAMMA_EPSILON:
                        np.testing.assert_allclose(
                            posteriors[i, obs],
                            update_belief(pomdp, belief, action, obs),
                            atol=1e-13,
                        )
                    else:
                        np.testing.assert_array_equal(
                            posteriors[i, obs], np.zeros(pomdp.n_states)
                        )

    def test_unreachable_branches_are_zeroed_not_nan(self):
        rng = np.random.default_rng(5)
        pomdp = random_pomdp(rng, n_states=3, n_actions=2, n_observations=2)
        # Concentrate all observation probability on symbol 0 everywhere so
        # symbol 1 is unreachable for every action.
        from repro.pomdp.model import POMDP

        observations = np.zeros_like(pomdp.observations)
        observations[:, :, 0] = 1.0
        model = POMDP(
            transitions=pomdp.transitions,
            observations=observations,
            rewards=pomdp.rewards,
            discount=pomdp.discount,
        )
        gamma, posteriors = belief_update_batch(
            model.transitions, model.observations, _beliefs(model, m=3), 0
        )
        assert np.all(gamma[:, 1] == 0.0)
        assert np.all(posteriors[:, 1, :] == 0.0)
        assert np.all(np.isfinite(posteriors))


class TestBellmanBackupEnvelopeBatch:
    # The envelope runs on the sparse containers the analyzer's views hold.
    @pytest.mark.parametrize("pomdp", ["tiered", "emn"], indirect=True)
    def test_one_dimensional_shape_is_preserved(self, pomdp):
        values = np.zeros(pomdp.n_states)
        backed = bellman_backup_envelope(
            pomdp.transitions, pomdp.rewards, values, pomdp.discount
        )
        assert backed.shape == (pomdp.n_states,)
