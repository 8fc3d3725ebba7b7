"""Tests for recovery-notification detection (the paper's future work)."""

import numpy as np
import pytest

from repro.exceptions import ModelError
from repro.recovery.notification import (
    ambiguous_observations,
    detect_recovery_notification,
)
from repro.systems.simple import build_simple_system
from tests.test_recovery_model import NULL_MASK, raw_pomdp


class TestDetection:
    def test_ambiguous_model_detected_as_unnotified(self):
        # raw_pomdp's fault state emits "clear" with probability 0.3, the
        # same observation null emits surely: no notification.
        assert not detect_recovery_notification(raw_pomdp(), NULL_MASK)

    def test_separating_observations_detected_as_notified(self):
        pomdp = raw_pomdp()
        observations = pomdp.observations.copy()
        observations[:, 0, :] = [1.0, 0.0]  # fault always alarms
        separated = type(pomdp)(
            transitions=pomdp.transitions,
            observations=observations,
            rewards=pomdp.rewards,
        )
        assert detect_recovery_notification(separated, NULL_MASK)

    def test_simple_system_variants(self):
        notified = build_simple_system(recovery_notification=True, miss_rate=0.0)
        # The builder validated this itself; re-run detection on the raw q.
        assert detect_recovery_notification(
            notified.model.pomdp, notified.model.null_states
        )

    def test_emn_lacks_notification(self, emn_system):
        """Section 5: an all-clear might just be a routed-around zombie."""
        # Run detection on the pre-augmentation states only: mask s_T out by
        # checking the full augmented model (s_T emits uniform observations,
        # which also breaks separation — consistent answer either way).
        assert not detect_recovery_notification(
            emn_system.model.pomdp, emn_system.model.null_states
        )

    def test_wrong_mask_rejected(self):
        with pytest.raises(ModelError):
            detect_recovery_notification(raw_pomdp(), np.array([True]))


class TestAmbiguousObservations:
    def test_wrong_mask_rejected(self, simple_system):
        with pytest.raises(ModelError, match="null_states"):
            ambiguous_observations(
                simple_system.model.pomdp, np.array([True, False])
            )

    def test_lists_clear_as_ambiguous(self):
        pairs = ambiguous_observations(raw_pomdp(), NULL_MASK)
        observations = {observation for _, observation in pairs}
        assert 1 in observations  # "clear" is emitted by both fault and null

    def test_empty_for_separating_model(self):
        pomdp = raw_pomdp()
        observations = pomdp.observations.copy()
        observations[:, 0, :] = [1.0, 0.0]
        separated = type(pomdp)(
            transitions=pomdp.transitions,
            observations=observations,
            rewards=pomdp.rewards,
        )
        assert ambiguous_observations(separated, NULL_MASK) == []
