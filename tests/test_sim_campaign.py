"""Tests for episode and campaign drivers."""

import numpy as np
import pytest

from repro.controllers.engine import PolicyEngine
from repro.controllers.most_likely import MostLikelyPolicyEngine
from repro.controllers.oracle import OraclePolicyEngine
from repro.sim.campaign import run_campaign, run_episode
from repro.sim.environment import RecoveryEnvironment
from repro.sim.parallel import plan_campaign


class ImmediateTerminator(PolicyEngine):
    """Gives up on the first decision — exercises the termination paths."""

    name = "terminator"
    uses_monitors = False

    def decide(self, session):
        return self.terminate_decision(value=0.0)


class TestRunEpisode:
    def test_oracle_episode_single_action(self, simple_system):
        session = OraclePolicyEngine(simple_system.model).session()
        environment = RecoveryEnvironment(simple_system.model, seed=0)
        metrics = run_episode(session, environment, simple_system.fault_a)
        assert metrics.recovered
        assert metrics.terminated
        assert metrics.actions == 1
        assert metrics.monitor_calls == 0  # oracle never asks the monitors

    def test_most_likely_episode_recovers(self, simple_system):
        session = MostLikelyPolicyEngine(
            simple_system.model, termination_probability=0.99
        ).session()
        environment = RecoveryEnvironment(simple_system.model, seed=1)
        metrics = run_episode(session, environment, simple_system.fault_b)
        assert metrics.recovered
        assert metrics.monitor_calls == metrics.steps
        assert metrics.cost > 0

    def test_max_steps_caps_episode(self, simple_system):
        session = MostLikelyPolicyEngine(
            simple_system.model, termination_probability=1.0
        ).session()
        environment = RecoveryEnvironment(simple_system.model, seed=2)
        # One step is never enough for this controller to restart both
        # candidate servers, so the cap must be what ends the episode.
        metrics = run_episode(
            session, environment, simple_system.fault_a, max_steps=1
        )
        assert metrics.steps == 1
        assert not metrics.terminated

    def test_algorithm_time_recorded(self, simple_system):
        session = MostLikelyPolicyEngine(
            simple_system.model, termination_probability=0.99
        ).session()
        environment = RecoveryEnvironment(simple_system.model, seed=3)
        metrics = run_episode(session, environment, simple_system.fault_a)
        assert metrics.algorithm_time >= 0.0


class TestTerminationAccounting:
    def test_early_termination_charges_operator_penalty(self, simple_system):
        """Regression: threshold/notification exits used to return a bare
        action=-1 sentinel, so walking away from a live fault never charged
        r(s, a_T).  A terminating decision now carries a_T and the episode
        driver executes it."""
        session = ImmediateTerminator(simple_system.model).session()
        environment = RecoveryEnvironment(simple_system.model, seed=0)
        metrics = run_episode(session, environment, simple_system.fault_a)
        expected = 0.5 * simple_system.model.operator_response_time
        assert metrics.terminated and not metrics.recovered
        assert np.isclose(environment.termination_penalty, expected)
        assert np.isclose(metrics.cost, expected)

    def test_terminate_action_not_counted_as_recovery_action(self, simple_system):
        session = ImmediateTerminator(simple_system.model).session()
        environment = RecoveryEnvironment(simple_system.model, seed=0)
        metrics = run_episode(session, environment, simple_system.fault_a)
        assert metrics.actions == 0
        assert metrics.steps == 0
        assert metrics.monitor_calls == 0

    def test_notification_sentinel_executes_nothing(self, simple_notified_system):
        """Without a_T in the model there is nothing to execute or charge;
        the NO_ACTION sentinel must never reach the environment."""
        session = ImmediateTerminator(simple_notified_system.model).session()
        environment = RecoveryEnvironment(simple_notified_system.model, seed=0)
        metrics = run_episode(
            session, environment, simple_notified_system.fault_a
        )
        assert metrics.terminated
        assert environment.cost == 0.0
        assert environment.time == 0.0


class TestRunCampaign:
    def test_aggregates_over_injections(self, simple_system):
        engine = OraclePolicyEngine(simple_system.model)
        result = run_campaign(
            engine,
            fault_states=np.array(
                [simple_system.fault_a, simple_system.fault_b]
            ),
            injections=20,
            seed=0,
        )
        assert len(result.episodes) == 20
        assert result.summary.episodes == 20
        assert result.summary.actions == 1.0
        assert result.controller_name == "oracle"

    def test_same_seed_reproduces(self, simple_system):
        def run():
            engine = MostLikelyPolicyEngine(
                simple_system.model, termination_probability=0.99
            )
            return run_campaign(
                engine,
                fault_states=np.array([simple_system.fault_a]),
                injections=10,
                seed=42,
            )

        first, second = run(), run()
        assert first.summary.cost == second.summary.cost
        assert first.summary.monitor_calls == second.summary.monitor_calls

    def test_faults_drawn_from_given_states(self, simple_system):
        engine = OraclePolicyEngine(simple_system.model)
        result = run_campaign(
            engine,
            fault_states=np.array([simple_system.fault_b]),
            injections=5,
            seed=0,
        )
        assert all(
            episode.fault_state == simple_system.fault_b
            for episode in result.episodes
        )

    def test_invalid_inputs_rejected(self, simple_system):
        engine = OraclePolicyEngine(simple_system.model)
        with pytest.raises(ValueError):
            run_campaign(engine, np.array([1]), injections=0)
        with pytest.raises(ValueError):
            run_campaign(engine, np.array([], dtype=int), injections=1)
        faults = np.array([simple_system.fault_a])
        for chunk_size in (-1, 0, 2.5):
            with pytest.raises(ValueError, match="chunk_size"):
                run_campaign(engine, faults, injections=4, chunk_size=chunk_size)
        for injections in (2.5, True):
            with pytest.raises(ValueError, match="injections"):
                run_campaign(engine, faults, injections=injections)
        for injections in (-2, 0):
            with pytest.raises(ValueError, match="injections"):
                plan_campaign(engine, faults, injections=injections)
