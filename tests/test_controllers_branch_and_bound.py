"""Tests for the branch-and-bound controller (paper's future work)."""

import numpy as np
import pytest

from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.bounded import BoundedPolicyEngine
from repro.controllers.branch_and_bound import BranchAndBoundPolicyEngine
from repro.obs.telemetry import Telemetry, activated
from repro.sim.campaign import run_campaign
from repro.systems.faults import FaultKind


class TestConstruction:
    def test_default_bounds_seeded(self, simple_system):
        engine = BranchAndBoundPolicyEngine(simple_system.model)
        assert len(engine.lower) == 1
        assert len(engine.upper) == 0

    def test_invalid_depth_rejected(self, simple_system):
        with pytest.raises(ValueError):
            BranchAndBoundPolicyEngine(simple_system.model, depth=0)


class TestDecisionSoundness:
    def test_agrees_with_bounded_controller(self, simple_system):
        """Pruning must not change the selected action (up to value ties)."""
        pomdp = simple_system.model.pomdp
        shared = BoundVectorSet(ra_bound_vector(pomdp))
        bounded = BoundedPolicyEngine(
            simple_system.model, depth=1, bound_set=shared, refine_online=False
        ).session()
        pruned = BranchAndBoundPolicyEngine(
            simple_system.model, depth=1, lower=shared, refine_online=False
        ).session()
        rng = np.random.default_rng(0)
        for belief in rng.dirichlet(np.ones(pomdp.n_states), size=40):
            bounded.reset(initial_belief=belief)
            pruned.reset(initial_belief=belief)
            a = bounded.decide()
            b = pruned.decide()
            # Values must agree; actions may differ only on exact ties.
            assert np.isclose(a.value, b.value, atol=1e-9)

    def test_prunes_something(self, simple_system):
        session = BranchAndBoundPolicyEngine(
            simple_system.model, depth=2, refine_online=False
        ).session()
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.fault_a] = 1.0
        session.reset(initial_belief=belief)
        telemetry = Telemetry()
        with activated(telemetry):
            session.decide()
        assert telemetry.counters["controller.pruned_actions"] > 0
        assert telemetry.counters["controller.expanded_actions"] > 0

    def test_frozen_session_leaves_bounds_unchanged(self, simple_system):
        """A refine=False session on a refining engine only reads both
        bounds, like the bounded engine's read-only sessions."""
        engine = BranchAndBoundPolicyEngine(simple_system.model, depth=1)
        assert engine.refine_online
        lower = engine.lower.vectors.copy()
        points = len(engine.upper)
        frozen = engine.session(refine=False)
        frozen.reset()
        frozen.observe(simple_system.observe_action, 0)
        frozen.decide()
        np.testing.assert_array_equal(engine.lower.vectors, lower)
        assert len(engine.upper) == points
        # The engine default still refines when the session inherits it.
        inherits = engine.session()
        inherits.reset()
        inherits.observe(simple_system.observe_action, 0)
        inherits.decide()
        assert len(engine.upper) > points
        assert len(engine.lower) > lower.shape[0]

    def test_terminates_on_recovered_belief(self, simple_system):
        session = BranchAndBoundPolicyEngine(simple_system.model, depth=1).session()
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.null_state] = 1.0
        session.reset(initial_belief=belief)
        assert session.decide().is_terminate


class TestEndToEnd:
    def test_recovers_on_simple_system(self, simple_system):
        engine = BranchAndBoundPolicyEngine(simple_system.model, depth=1)
        result = run_campaign(
            engine,
            fault_states=np.array(
                [simple_system.fault_a, simple_system.fault_b]
            ),
            injections=40,
            seed=13,
        )
        assert result.summary.unrecovered == 0
        assert result.summary.early_terminations == 0

    def test_recovers_on_emn(self, emn_system):
        engine = BranchAndBoundPolicyEngine(
            emn_system.model, depth=1, refine_min_improvement=1.0
        )
        telemetry = Telemetry()
        with activated(telemetry):
            result = run_campaign(
                engine,
                fault_states=emn_system.fault_states(FaultKind.ZOMBIE),
                injections=15,
                seed=13,
                monitor_tail=5.0,
            )
        assert result.summary.unrecovered == 0
        assert telemetry.counters["controller.pruned_actions"] > 0

    def test_notified_model_supported(self, simple_notified_system):
        engine = BranchAndBoundPolicyEngine(
            simple_notified_system.model, depth=1
        )
        result = run_campaign(
            engine,
            fault_states=np.array(
                [
                    simple_notified_system.fault_a,
                    simple_notified_system.fault_b,
                ]
            ),
            injections=20,
            seed=5,
        )
        assert result.summary.unrecovered == 0
