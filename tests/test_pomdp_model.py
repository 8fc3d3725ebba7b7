"""Tests for repro.pomdp.model."""

import copy
import pickle

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.mdp.model import MDP
from repro.pomdp.model import POMDP


def tiny_pomdp(discount: float = 1.0) -> POMDP:
    transitions = np.array(
        [
            [[0.0, 1.0], [0.0, 1.0]],
            [[1.0, 0.0], [0.0, 1.0]],
        ]
    )
    observations = np.array(
        [
            [[0.9, 0.1], [0.2, 0.8]],
            [[0.9, 0.1], [0.2, 0.8]],
        ]
    )
    rewards = np.array([[-0.5, 0.0], [-1.0, 0.0]])
    return POMDP(
        transitions=transitions,
        observations=observations,
        rewards=rewards,
        state_labels=("fault", "null"),
        action_labels=("repair", "idle"),
        observation_labels=("alarm", "clear"),
        discount=discount,
    )


class TestConstruction:
    def test_shapes(self):
        pomdp = tiny_pomdp()
        assert pomdp.n_states == 2
        assert pomdp.n_actions == 2
        assert pomdp.n_observations == 2

    def test_non_stochastic_observations_rejected(self):
        with pytest.raises(ModelError):
            POMDP(
                transitions=np.array([[[1.0]]]),
                observations=np.array([[[0.5, 0.4]]]),
                rewards=np.array([[0.0]]),
            )

    def test_observation_shape_mismatch_rejected(self):
        with pytest.raises(ModelError, match="observations"):
            POMDP(
                transitions=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
                observations=np.array([[[1.0]]]),
                rewards=np.array([[0.0, 0.0]]),
            )

    def test_zero_observations_rejected(self):
        with pytest.raises(ModelError):
            POMDP(
                transitions=np.array([[[1.0]]]),
                observations=np.zeros((1, 1, 0)),
                rewards=np.array([[0.0]]),
            )

    def test_duplicate_observation_labels_rejected(self):
        with pytest.raises(ModelError, match="unique"):
            POMDP(
                transitions=np.array([[[1.0]]]),
                observations=np.array([[[0.5, 0.5]]]),
                rewards=np.array([[0.0]]),
                observation_labels=("o", "o"),
            )


class TestIndices:
    def test_label_lookups(self):
        pomdp = tiny_pomdp()
        assert pomdp.state_index("null") == 1
        assert pomdp.action_index("idle") == 1
        assert pomdp.observation_index("clear") == 1


class TestToMDP:
    def test_strips_observations(self):
        pomdp = tiny_pomdp()
        mdp = pomdp.to_mdp()
        assert np.array_equal(mdp.transitions, pomdp.transitions)
        assert np.array_equal(mdp.rewards, pomdp.rewards)
        assert mdp.state_labels == pomdp.state_labels
        assert mdp.discount == pomdp.discount


def sparse_pomdp() -> POMDP:
    from repro.systems.tiered import build_tiered_system

    return build_tiered_system((2, 2), backend="sparse").model.pomdp


class TestOneMDP:
    """A POMDP validates through one MDP, keeps it and returns it."""

    @pytest.mark.parametrize("build", [tiny_pomdp, sparse_pomdp])
    def test_to_mdp_is_the_kept_mdp_sharing_arrays_and_labels(self, build):
        pomdp = build()
        mdp = pomdp.to_mdp()
        assert mdp is pomdp.to_mdp()
        assert type(mdp) is MDP
        assert mdp.backend == pomdp.backend
        assert mdp.transitions is pomdp.transitions
        assert mdp.rewards is pomdp.rewards
        assert mdp.state_labels is pomdp.state_labels
        assert mdp.action_labels is pomdp.action_labels
        assert mdp.discount == pomdp.discount

    def test_label_maps_built_on_first_lookup(self):
        pomdp = tiny_pomdp()
        mdp = pomdp.to_mdp()
        assert "_state_index" not in vars(mdp)
        assert "_action_index" not in vars(mdp)
        assert "_observation_index" not in vars(pomdp)
        assert pomdp.state_index("fault") == 0
        assert pomdp.action_index("idle") == 1
        assert pomdp.observation_index("clear") == 1
        assert mdp.state_index("null") == 1
        assert mdp.action_index("repair") == 0
        with pytest.raises(KeyError):
            pomdp.state_index("missing")

    @pytest.mark.parametrize("looked_up", [False, True])
    @pytest.mark.parametrize(
        "clone",
        [lambda m: pickle.loads(pickle.dumps(m)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_survives_pickle_and_deepcopy(self, clone, looked_up):
        """Spawn workers unpickle the model; ``_clone_engine`` deep-copies
        engines (sharing the model through its memo, but not always)."""
        pomdp = tiny_pomdp()
        if looked_up:
            pomdp.state_index("null")
        twin = clone(pomdp)
        mdp = twin.to_mdp()
        assert mdp is twin.to_mdp() and mdp is not pomdp.to_mdp()
        assert mdp.transitions is twin.transitions
        assert mdp.rewards is twin.rewards
        assert np.array_equal(twin.transitions, pomdp.transitions)
        assert np.array_equal(twin.observations, pomdp.observations)
        assert twin.state_index("null") == 1
        assert twin.action_index("idle") == 1
        assert twin.observation_index("alarm") == 0

    def test_bad_transitions_still_rejected(self):
        with pytest.raises(ModelError, match=r"transitions\[0\]"):
            POMDP(
                transitions=np.array([[[0.5, 0.4], [0.0, 1.0]]]),
                observations=np.array([[[1.0], [1.0]]]),
                rewards=np.array([[0.0, 0.0]]),
            )

    def test_with_discount_builds_and_validates_a_new_model(self):
        pomdp = tiny_pomdp()
        discounted = pomdp.with_discount(0.7)
        assert discounted.to_mdp() is not pomdp.to_mdp()
        assert discounted.to_mdp().discount == 0.7
        with pytest.raises(ModelError, match="discount"):
            pomdp.with_discount(1.5)


class TestWithDiscount:
    def test_copy_with_new_discount(self):
        pomdp = tiny_pomdp()
        discounted = pomdp.with_discount(0.7)
        assert discounted.discount == 0.7
        assert pomdp.discount == 1.0
        assert np.array_equal(discounted.observations, pomdp.observations)
