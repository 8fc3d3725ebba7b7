"""Tests for the bounded controller, including the termination property."""

import numpy as np
import pytest

from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.bounded import BoundedPolicyEngine
from repro.sim.campaign import run_campaign, run_episode
from repro.sim.environment import RecoveryEnvironment


class TestConstruction:
    def test_default_seeds_ra_bound(self, simple_system):
        engine = BoundedPolicyEngine(simple_system.model)
        assert len(engine.bound_set) == 1
        expected = ra_bound_vector(simple_system.model.pomdp)
        assert np.allclose(engine.bound_set.vectors[0], expected)

    def test_shared_bound_set(self, simple_system):
        bound_set = BoundVectorSet(ra_bound_vector(simple_system.model.pomdp))
        engine = BoundedPolicyEngine(simple_system.model, bound_set=bound_set)
        assert engine.bound_set is bound_set

    def test_invalid_depth_rejected(self, simple_system):
        with pytest.raises(ValueError):
            BoundedPolicyEngine(simple_system.model, depth=0)


class TestDecisions:
    def test_repairs_certain_fault(self, simple_system):
        session = BoundedPolicyEngine(simple_system.model, depth=1).session()
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.fault_a] = 1.0
        session.reset(initial_belief=belief)
        decision = session.decide()
        assert decision.action == simple_system.model.pomdp.action_index(
            "restart(a)"
        )

    def test_terminates_when_certainly_recovered(self, simple_system):
        session = BoundedPolicyEngine(simple_system.model, depth=1).session()
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.null_state] = 1.0
        session.reset(initial_belief=belief)
        decision = session.decide()
        assert decision.is_terminate

    def test_tree_value_reported(self, simple_system):
        session = BoundedPolicyEngine(simple_system.model, depth=1).session()
        session.reset()
        decision = session.decide()
        assert decision.value is not None
        assert decision.value <= 0.0


class TestOnlineRefinement:
    def test_refinement_grows_bound_set(self, simple_system):
        engine = BoundedPolicyEngine(
            simple_system.model, depth=1, refine_min_improvement=1e-6
        )
        session = engine.session()
        environment = RecoveryEnvironment(simple_system.model, seed=0)
        run_episode(session, environment, simple_system.fault_a)
        assert len(engine.bound_set) > 1

    def test_refinement_can_be_disabled(self, simple_system):
        engine = BoundedPolicyEngine(
            simple_system.model, depth=1, refine_online=False
        )
        session = engine.session()
        environment = RecoveryEnvironment(simple_system.model, seed=0)
        run_episode(session, environment, simple_system.fault_a)
        assert len(engine.bound_set) == 1


class TestTerminationProperty:
    """Property 1: the controller terminates after finitely many actions,
    and (Table 1's observation) never before actually recovering."""

    def test_simple_system_many_episodes(self, simple_system):
        engine = BoundedPolicyEngine(simple_system.model, depth=1)
        result = run_campaign(
            engine,
            fault_states=np.array(
                [simple_system.fault_a, simple_system.fault_b]
            ),
            injections=100,
            seed=3,
            max_steps=200,
        )
        assert all(episode.terminated for episode in result.episodes)
        assert result.summary.early_terminations == 0
        assert result.summary.unrecovered == 0

    def test_emn_zombie_episodes(self, emn_system):
        from repro.systems.faults import FaultKind

        engine = BoundedPolicyEngine(emn_system.model, depth=1)
        result = run_campaign(
            engine,
            fault_states=emn_system.fault_states(FaultKind.ZOMBIE),
            injections=25,
            seed=11,
            monitor_tail=5.0,
        )
        assert all(episode.terminated for episode in result.episodes)
        assert result.summary.early_terminations == 0

    def test_notified_model_stops_on_certain_recovery(
        self, simple_notified_system
    ):
        engine = BoundedPolicyEngine(simple_notified_system.model, depth=1)
        result = run_campaign(
            engine,
            fault_states=np.array(
                [
                    simple_notified_system.fault_a,
                    simple_notified_system.fault_b,
                ]
            ),
            injections=40,
            seed=4,
        )
        assert result.summary.unrecovered == 0
        assert all(episode.terminated for episode in result.episodes)


class TestDepthTwo:
    def test_depth_two_runs_and_recovers(self, simple_system):
        engine = BoundedPolicyEngine(simple_system.model, depth=2)
        result = run_campaign(
            engine,
            fault_states=np.array([simple_system.fault_a]),
            injections=10,
            seed=6,
        )
        assert result.summary.unrecovered == 0
