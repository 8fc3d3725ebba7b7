"""Tests for the recovery-model layer (conditions, Figure 2 transforms)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConditionViolation, ModelError
from repro.pomdp.model import POMDP
from repro.recovery.model import (
    RecoveryModel,
    check_condition_1,
    check_condition_2,
    make_null_absorbing,
    termination_rewards,
    with_termination_action,
)


def raw_pomdp() -> POMDP:
    """Unaugmented two-state fault/null model with one repair + observe."""
    transitions = np.array(
        [
            [[0.0, 1.0], [0.0, 1.0]],  # repair
            [[1.0, 0.0], [0.0, 1.0]],  # observe
        ]
    )
    observations = np.array(
        [
            [[0.7, 0.3], [0.0, 1.0]],
            [[0.7, 0.3], [0.0, 1.0]],
        ]
    )
    rewards = np.array([[-0.5, -0.1], [-0.2, 0.0]])
    return POMDP(
        transitions=transitions,
        observations=observations,
        rewards=rewards,
        state_labels=("fault", "null"),
        action_labels=("repair", "observe"),
        observation_labels=("alarm", "clear"),
    )


NULL_MASK = np.array([False, True])
RATES = np.array([-0.5, 0.0])


class TestCondition1:
    def test_passes_when_recoverable(self):
        check_condition_1(raw_pomdp(), NULL_MASK)

    def test_empty_null_set_rejected(self):
        with pytest.raises(ConditionViolation) as excinfo:
            check_condition_1(raw_pomdp(), np.array([False, False]))
        assert excinfo.value.condition == 1

    def test_unrecoverable_state_named(self):
        pomdp = raw_pomdp()
        transitions = pomdp.transitions.copy()
        transitions[0] = np.eye(2)  # repair no longer works
        broken = POMDP(
            transitions=transitions,
            observations=pomdp.observations,
            rewards=pomdp.rewards,
            state_labels=pomdp.state_labels,
            action_labels=pomdp.action_labels,
            observation_labels=pomdp.observation_labels,
        )
        with pytest.raises(ConditionViolation, match="fault"):
            check_condition_1(broken, NULL_MASK)

    def test_exempt_states_skipped(self):
        pomdp = raw_pomdp()
        transitions = pomdp.transitions.copy()
        transitions[0] = np.eye(2)
        broken = POMDP(
            transitions=transitions,
            observations=pomdp.observations,
            rewards=pomdp.rewards,
        )
        check_condition_1(
            broken, NULL_MASK, exempt_states=np.array([True, False])
        )

    def test_wrong_mask_length_rejected(self):
        with pytest.raises(ModelError):
            check_condition_1(raw_pomdp(), np.array([True]))


class TestCondition2:
    def test_passes_for_nonpositive(self):
        check_condition_2(raw_pomdp())

    def test_positive_reward_named(self):
        pomdp = raw_pomdp()
        rewards = pomdp.rewards.copy()
        rewards[1, 0] = 0.3
        broken = POMDP(
            transitions=pomdp.transitions,
            observations=pomdp.observations,
            rewards=rewards,
            state_labels=pomdp.state_labels,
            action_labels=pomdp.action_labels,
        )
        with pytest.raises(ConditionViolation) as excinfo:
            check_condition_2(broken)
        assert excinfo.value.condition == 2
        assert "observe" in str(excinfo.value)


class TestTerminationRewards:
    def test_rate_times_top(self):
        rewards = termination_rewards(RATES, 100.0, NULL_MASK)
        assert np.isclose(rewards[0], -50.0)

    def test_null_states_zero(self):
        rewards = termination_rewards(RATES, 100.0, NULL_MASK)
        assert rewards[1] == 0.0

    def test_negative_top_rejected(self):
        with pytest.raises(ModelError):
            termination_rewards(RATES, -1.0, NULL_MASK)


class TestMakeNullAbsorbing:
    def test_null_becomes_absorbing_and_free(self):
        modified = make_null_absorbing(raw_pomdp(), NULL_MASK)
        for action in range(modified.n_actions):
            assert modified.transitions[action, 1, 1] == 1.0
            assert modified.rewards[action, 1] == 0.0

    def test_fault_dynamics_untouched(self):
        original = raw_pomdp()
        modified = make_null_absorbing(original, NULL_MASK)
        assert np.array_equal(
            modified.transitions[:, 0, :], original.transitions[:, 0, :]
        )
        assert np.array_equal(modified.rewards[:, 0], original.rewards[:, 0])


class TestWithTerminationAction:
    def test_shapes_grow_by_one(self):
        augmented, s_t, a_t = with_termination_action(
            raw_pomdp(), NULL_MASK, RATES, 100.0
        )
        assert augmented.n_states == 3
        assert augmented.n_actions == 3
        assert s_t == 2
        assert a_t == 2

    def test_terminate_action_goes_to_s_t(self):
        augmented, s_t, a_t = with_termination_action(
            raw_pomdp(), NULL_MASK, RATES, 100.0
        )
        assert np.allclose(augmented.transitions[a_t, :, s_t], 1.0)

    def test_s_t_absorbing_and_free_under_all_actions(self):
        augmented, s_t, a_t = with_termination_action(
            raw_pomdp(), NULL_MASK, RATES, 100.0
        )
        for action in range(augmented.n_actions):
            assert augmented.transitions[action, s_t, s_t] == 1.0
            assert augmented.rewards[action, s_t] == 0.0

    def test_termination_rewards_wired(self):
        augmented, s_t, a_t = with_termination_action(
            raw_pomdp(), NULL_MASK, RATES, 100.0
        )
        assert np.isclose(augmented.rewards[a_t, 0], -50.0)
        assert augmented.rewards[a_t, 1] == 0.0

    def test_observation_rows_still_stochastic(self):
        augmented, _, _ = with_termination_action(
            raw_pomdp(), NULL_MASK, RATES, 100.0
        )
        assert np.allclose(augmented.observations.sum(axis=2), 1.0)


class TestRecoveryModelType:
    def make_model(self) -> RecoveryModel:
        augmented, s_t, a_t = with_termination_action(
            raw_pomdp(), NULL_MASK, RATES, 100.0
        )
        return RecoveryModel(
            pomdp=augmented,
            null_states=np.append(NULL_MASK, False),
            rate_rewards=np.append(RATES, 0.0),
            durations=np.array([1.0, 1.0, 0.0]),
            passive_actions=np.array([False, True, False]),
            recovery_notification=False,
            terminate_state=s_t,
            terminate_action=a_t,
            operator_response_time=100.0,
        )

    def test_fault_states_excludes_null_and_terminate(self):
        model = self.make_model()
        assert model.fault_states.tolist() == [True, False, False]

    def test_recovery_actions_mask(self):
        model = self.make_model()
        assert model.recovery_actions.tolist() == [True, False, False]

    def test_initial_belief_uniform_over_faults(self):
        model = self.make_model()
        assert np.allclose(model.initial_belief(), [1.0, 0.0, 0.0])

    def test_recovered_probability_includes_s_t(self):
        model = self.make_model()
        assert np.isclose(
            model.recovered_probability(np.array([0.2, 0.5, 0.3])), 0.8
        )

    def test_is_recovered(self):
        model = self.make_model()
        assert model.is_recovered(1)
        assert not model.is_recovered(0)
        assert not model.is_recovered(2)

    def test_positive_rate_rewards_rejected(self):
        augmented, s_t, a_t = with_termination_action(
            raw_pomdp(), NULL_MASK, RATES, 100.0
        )
        with pytest.raises(ModelError, match="rate_rewards"):
            RecoveryModel(
                pomdp=augmented,
                null_states=np.append(NULL_MASK, False),
                rate_rewards=np.array([0.5, 0.0, 0.0]),
                durations=np.zeros(3),
                passive_actions=np.zeros(3, dtype=bool),
                recovery_notification=False,
                terminate_state=s_t,
                terminate_action=a_t,
                operator_response_time=100.0,
            )

    def test_notified_model_must_not_have_terminate_pair(self):
        pomdp = make_null_absorbing(raw_pomdp(), NULL_MASK)
        with pytest.raises(ModelError):
            RecoveryModel(
                pomdp=pomdp,
                null_states=NULL_MASK,
                rate_rewards=RATES,
                durations=np.ones(2),
                passive_actions=np.array([False, True]),
                recovery_notification=True,
                terminate_state=1,
                terminate_action=1,
            )

    def test_unnotified_model_requires_terminate_pair(self):
        pomdp = make_null_absorbing(raw_pomdp(), NULL_MASK)
        with pytest.raises(ModelError):
            RecoveryModel(
                pomdp=pomdp,
                null_states=NULL_MASK,
                rate_rewards=RATES,
                durations=np.ones(2),
                passive_actions=np.array([False, True]),
                recovery_notification=False,
            )


# -- the dense Figure 2 augmentation against its former array cores -------
#
# ``null_absorbing_arrays`` and ``termination_arrays`` are the dense array
# implementations the augmentation had before it ran on the sparse
# containers only, kept verbatim as the reference: the dense result of
# ``make_null_absorbing`` / ``with_termination_action`` must equal them
# byte for byte, signed zeros included.


def null_absorbing_arrays(
    transitions: np.ndarray, rewards: np.ndarray, null_states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Array-level core of :func:`make_null_absorbing`.

    Operates on raw ``(|A|, |S|, |S|)`` / ``(|A|, |S|)`` arrays so the
    static analyzer's report mode can preview the Figure 2(a) rewiring for
    models that would not survive POMDP validation.
    """
    mask = np.asarray(null_states, dtype=bool)
    transitions = np.asarray(transitions, dtype=float).copy()
    rewards = np.asarray(rewards, dtype=float).copy()
    null_index = np.flatnonzero(mask)
    for action in range(transitions.shape[0]):
        transitions[action][null_index, :] = 0.0
        transitions[action][null_index, null_index] = 1.0
        rewards[action][null_index] = 0.0
    return transitions, rewards


def termination_arrays(
    transitions: np.ndarray,
    observations: np.ndarray,
    rewards: np.ndarray,
    null_states: np.ndarray,
    rate_rewards: np.ndarray,
    operator_response_time: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array-level core of :func:`with_termination_action`.

    Returns the augmented ``(transitions, observations, rewards)`` with
    ``s_T`` appended as the last state and ``a_T`` as the last action;
    usable on raw arrays (the analyzer's report mode) as well as on
    validated POMDP fields.
    """
    transitions = np.asarray(transitions, dtype=float)
    observations = np.asarray(observations, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    n_actions, n_states = transitions.shape[0], transitions.shape[1]
    n_observations = observations.shape[2]
    terminate_state = n_states
    terminate_action = n_actions

    new_transitions = np.zeros((n_actions + 1, n_states + 1, n_states + 1))
    new_transitions[:n_actions, :n_states, :n_states] = transitions
    # Every original action self-loops in s_T.
    new_transitions[:n_actions, terminate_state, terminate_state] = 1.0
    # a_T sends every state (including s_T) to s_T.
    new_transitions[terminate_action, :, terminate_state] = 1.0

    new_observations = np.zeros((n_actions + 1, n_states + 1, n_observations))
    new_observations[:n_actions, :n_states, :] = observations
    new_observations[:n_actions, terminate_state, :] = 1.0 / n_observations
    new_observations[terminate_action, :, :] = 1.0 / n_observations

    term_rewards = termination_rewards(
        rate_rewards, operator_response_time, null_states
    )
    new_rewards = np.zeros((n_actions + 1, n_states + 1))
    new_rewards[:n_actions, :n_states] = rewards
    new_rewards[:n_actions, terminate_state] = 0.0
    new_rewards[terminate_action, :n_states] = term_rewards
    new_rewards[terminate_action, terminate_state] = 0.0
    return new_transitions, new_observations, new_rewards


def _bytes_equal(actual, expected) -> bool:
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (
        actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and actual.tobytes() == expected.tobytes()
    )


def assert_augmentations_match_reference(pomdp, null_states, rate, t_op):
    """Both dense augmentations of ``pomdp`` equal the array references."""
    absorbing = make_null_absorbing(pomdp, null_states)
    transitions, rewards = null_absorbing_arrays(
        pomdp.transitions, pomdp.rewards, null_states
    )
    assert _bytes_equal(absorbing.transitions, transitions)
    assert _bytes_equal(absorbing.rewards, rewards)
    assert absorbing.observations is pomdp.observations

    augmented, s_t, a_t = with_termination_action(
        pomdp, null_states, rate, t_op
    )
    assert (s_t, a_t) == (pomdp.n_states, pomdp.n_actions)
    expected = termination_arrays(
        pomdp.transitions,
        pomdp.observations,
        pomdp.rewards,
        null_states,
        rate,
        t_op,
    )
    for actual, reference in zip(
        (augmented.transitions, augmented.observations, augmented.rewards),
        expected,
    ):
        assert _bytes_equal(actual, reference)


def declared_models(monkeypatch, build, *args, **kwargs):
    """The un-augmented POMDPs (with ``S_phi``, ``rbar``, ``t_op``) that
    ``build(*args, **kwargs)`` declares through :class:`RecoveryModelBuilder`."""
    from repro.recovery.builder import RecoveryModelBuilder

    declared = []
    real_build = RecoveryModelBuilder.build

    def capture(
        self,
        recovery_notification=None,
        operator_response_time=None,
        backend="dense",
    ):
        transitions, observations, rewards, null, rate, _, _ = (
            self._assemble_arrays()
        )
        pomdp = POMDP(
            transitions=transitions,
            observations=observations,
            rewards=rewards,
            discount=self.discount,
        )
        declared.append((pomdp, null, rate, operator_response_time or 0.0))
        return real_build(
            self, recovery_notification, operator_response_time, backend
        )

    with monkeypatch.context() as patch:
        patch.setattr(RecoveryModelBuilder, "build", capture)
        build(*args, **kwargs)
    return declared


def _shipped_declarations(monkeypatch):
    from repro.systems.emn import build_emn_system
    from repro.systems.simple import build_simple_system
    from tests.test_systems_tiered import reference_tiered_system

    cases = [
        (build_emn_system, {}),
        (build_simple_system, {"recovery_notification": False}),
        (
            build_simple_system,
            {"recovery_notification": True, "miss_rate": 0.0},
        ),
    ] + [
        (reference_tiered_system, {"replicas": replicas, "probe_cost": cost})
        for replicas in ((3, 2), (2, 2, 2), (5, 5, 5))
        for cost in (0.0, 2.5)
    ]
    declared = []
    for build, kwargs in cases:
        declared.extend(declared_models(monkeypatch, build, **kwargs))
    return declared


class TestDenseAugmentationMatchesReference:
    def test_shipped_and_tiered_reference_models(self, monkeypatch):
        declared = _shipped_declarations(monkeypatch)
        assert len(declared) == 9
        signed_zeros = 0
        for pomdp, null, rate, t_op in declared:
            signed_zeros += int(
                np.sum((pomdp.rewards == 0.0) & np.signbit(pomdp.rewards))
            )
            assert_augmentations_match_reference(pomdp, null, rate, t_op)
        assert signed_zeros > 0  # the probe-free tiered rewards carry -0.0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_states=st.integers(min_value=2, max_value=6),
        n_actions=st.integers(min_value=1, max_value=4),
        n_observations=st.integers(min_value=1, max_value=4),
        t_op=st.sampled_from([0.0, 1.5, 3600.0]),
    )
    def test_random_models(self, seed, n_states, n_actions, n_observations, t_op):
        rng = np.random.default_rng(seed)
        transitions = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
        transitions[rng.random((n_actions, n_states, n_states)) < 0.3] = 0.0
        transitions[..., 0] += 1.0 - transitions.sum(axis=2)  # restochasticise
        transitions = np.abs(transitions)
        transitions /= transitions.sum(axis=2, keepdims=True)
        observations = rng.dirichlet(
            np.ones(n_observations), size=(n_actions, n_states)
        )
        rewards = -rng.uniform(0.0, 2.0, size=(n_actions, n_states))
        rewards[rng.random(rewards.shape) < 0.3] = -0.0
        rewards[rng.random(rewards.shape) < 0.2] = 0.0
        null_states = rng.random(n_states) < 0.4
        rate = -rng.uniform(0.0, 1.0, size=n_states)
        rate[rng.random(n_states) < 0.3] = -0.0
        pomdp = POMDP(
            transitions=transitions,
            observations=observations,
            rewards=rewards,
        )
        assert_augmentations_match_reference(pomdp, null_states, rate, t_op)
