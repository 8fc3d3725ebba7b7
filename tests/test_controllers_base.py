"""Tests for the session lifecycle and belief tracking every policy shares."""

import numpy as np
import pytest

from repro.controllers import NO_ACTION, Decision
from repro.controllers.engine import PolicyEngine
from repro.exceptions import ControllerError
from repro.sim.campaign import run_campaign
from repro.sim.environment import NO_OBSERVATION


class FixedActionEngine(PolicyEngine):
    """Minimal concrete engine for lifecycle tests."""

    name = "fixed"

    def __init__(self, model, action=0):
        super().__init__(model)
        self.action = action

    def decide(self, session):
        return Decision(action=self.action)


def fixed_session(model, action=0):
    return FixedActionEngine(model, action=action).session()


class TestConstruction:
    def test_non_engine_rejected(self, simple_system):
        """Only a PolicyEngine can run a campaign; anything else fails with
        a ControllerError that names the type it wants."""
        with pytest.raises(ControllerError, match="PolicyEngine"):
            run_campaign(
                object(),
                fault_states=np.array([simple_system.fault_a]),
                injections=1,
                seed=0,
            )


class TestLifecycle:
    def test_decide_before_reset_rejected(self, simple_system):
        session = fixed_session(simple_system.model)
        with pytest.raises(ControllerError):
            session.decide()

    def test_observe_before_reset_rejected(self, simple_system):
        session = fixed_session(simple_system.model)
        with pytest.raises(ControllerError):
            session.observe(0, 0)

    def test_belief_before_reset_rejected(self, simple_system):
        session = fixed_session(simple_system.model)
        with pytest.raises(ControllerError):
            _ = session.belief

    def test_reset_installs_initial_fault_belief(self, simple_system):
        session = fixed_session(simple_system.model)
        session.reset()
        assert np.allclose(session.belief, simple_system.model.initial_belief())
        assert not session.done

    def test_custom_initial_belief(self, simple_system):
        session = fixed_session(simple_system.model)
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.fault_a] = 1.0
        session.reset(initial_belief=belief)
        assert np.allclose(session.belief, belief)

    def test_wrong_length_initial_belief_rejected(self, simple_system):
        session = fixed_session(simple_system.model)
        with pytest.raises(ControllerError):
            session.reset(initial_belief=np.array([1.0]))

    def test_decide_after_terminate_rejected(self, simple_system):
        class Terminator(FixedActionEngine):
            def decide(self, session):
                return Decision(action=-1, is_terminate=True)

        session = Terminator(simple_system.model).session()
        session.reset()
        decision = session.decide()
        assert decision.is_terminate
        assert session.done
        with pytest.raises(ControllerError):
            session.decide()

    def test_belief_returns_copy(self, simple_system):
        session = fixed_session(simple_system.model)
        session.reset()
        session.belief[:] = 0.0
        assert np.isclose(session.belief.sum(), 1.0)


class TestObserve:
    def test_bayes_update_applied(self, simple_system):
        session = fixed_session(simple_system.model)
        session.reset()
        pomdp = simple_system.model.pomdp
        looks_a = pomdp.observation_index("looks(a)")
        session.observe(simple_system.observe_action, looks_a)
        belief = session.belief
        assert belief[simple_system.fault_a] > belief[simple_system.fault_b]

    def test_impossible_observation_triggers_rediagnosis(self, simple_system):
        """An observation with zero probability under the belief must reseed
        from the initial fault distribution instead of crashing."""
        session = fixed_session(simple_system.model)
        pomdp = simple_system.model.pomdp
        n = pomdp.n_states
        certain_null = np.zeros(n)
        certain_null[simple_system.null_state] = 1.0
        session.reset(initial_belief=certain_null)
        looks_a = pomdp.observation_index("looks(a)")
        # From certain-null, observe cannot produce looks(a) (fp = 0).
        session.observe(simple_system.observe_action, looks_a)
        belief = session.belief
        assert np.isclose(belief.sum(), 1.0)
        assert belief[simple_system.fault_a] > 0.0

    def test_sync_true_state_is_noop_by_default(self, simple_system):
        session = fixed_session(simple_system.model)
        session.reset()
        before = session.belief
        session.sync_true_state(simple_system.fault_b)
        assert np.allclose(session.belief, before)

    def test_negative_observation_rejected(self, simple_system):
        """Regression: the NO_OBSERVATION sentinel must never reach Eq. 4 —
        numpy would wrap the -1 to the last observation column and silently
        corrupt the belief instead of failing."""
        session = fixed_session(simple_system.model)
        session.reset()
        with pytest.raises(ControllerError, match="negative observation"):
            session.observe(simple_system.observe_action, NO_OBSERVATION)


class TestTerminateDecision:
    def test_carries_terminate_action_when_model_has_one(self, simple_system):
        engine = FixedActionEngine(simple_system.model)
        decision = engine.terminate_decision(value=1.5)
        assert decision.is_terminate
        assert decision.action == simple_system.model.terminate_action
        assert decision.executes_action
        assert decision.value == 1.5

    def test_falls_back_to_sentinel_on_notification_models(
        self, simple_notified_system
    ):
        engine = FixedActionEngine(simple_notified_system.model)
        decision = engine.terminate_decision()
        assert decision.is_terminate
        assert decision.action == NO_ACTION
        assert not decision.executes_action

    def test_executes_action_property(self):
        assert Decision(action=0).executes_action
        assert not Decision(action=NO_ACTION, is_terminate=True).executes_action


class TestTiming:
    def test_decide_accumulates_stopwatch(self, simple_system):
        session = fixed_session(simple_system.model)
        session.reset()
        session.decide()
        session.decide()
        assert session.stopwatch.laps == 2
