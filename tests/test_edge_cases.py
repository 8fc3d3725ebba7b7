"""Edge-case and cross-feature tests not covered by the per-module suites."""

import numpy as np
import pytest

from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.bounded import BoundedPolicyEngine
from repro.controllers.branch_and_bound import BranchAndBoundPolicyEngine
from repro.controllers.heuristic import HeuristicPolicyEngine
from repro.exceptions import ModelError
from repro.io import load_recovery_model, save_bound_set
from repro.sim.campaign import run_campaign
from repro.sim.environment import RecoveryEnvironment
from repro.sim.trace import trace_episode
from repro.systems.faults import FaultKind


class TestIOErrorPaths:
    def test_bound_set_archive_rejected_as_model(self, tmp_path):
        path = tmp_path / "bounds.npz"
        save_bound_set(path, BoundVectorSet(np.array([-1.0, 0.0])))
        with pytest.raises(ModelError, match="expected recovery-model"):
            load_recovery_model(path)


class TestVectorSetEdge:
    def test_cannot_evict_when_only_pinned_remain(self):
        bound_set = BoundVectorSet(np.array([-1.0, -1.0]), max_vectors=1)
        with pytest.raises(ModelError, match="pinned"):
            bound_set.add(np.array([-0.5, -0.5]))


class TestEnvironmentEdge:
    def test_terminating_twice_is_idempotent_on_state(self, simple_system):
        environment = RecoveryEnvironment(simple_system.model, seed=0)
        environment.inject(simple_system.fault_a)
        a_t = simple_system.model.terminate_action
        environment.execute(a_t)
        first_penalty = environment.termination_penalty
        environment.execute(a_t)
        assert environment.state == simple_system.fault_a
        # Each terminate decision books the operator penalty again; the
        # campaign never issues two, but the accounting must stay sane.
        assert environment.termination_penalty == 2 * first_penalty

    def test_observe_never_moves_the_state(self, emn_system):
        environment = RecoveryEnvironment(
            emn_system.model, seed=1, monitor_tail=5.0
        )
        fault = emn_system.model.pomdp.state_index("zombie(VG)")
        environment.inject(fault)
        for _ in range(10):
            environment.execute(emn_system.observe_action)
        assert environment.state == fault


class TestMixedFaultCampaign:
    def test_bounded_controller_handles_all_13_fault_types(self, emn_system):
        """Table 1 injects only zombies; the controller must be just as
        sound on the full fault mix (crashes diagnose trivially)."""
        engine = BoundedPolicyEngine(
            emn_system.model, depth=1, refine_min_improvement=1.0
        )
        result = run_campaign(
            engine,
            fault_states=emn_system.fault_states(),  # all 13
            injections=40,
            seed=23,
            monitor_tail=5.0,
        )
        assert result.summary.unrecovered == 0
        assert result.summary.early_terminations == 0
        # Crash-heavy mixes recover faster than the zombie-only Table 1 row.
        assert result.summary.actions <= 2.0


class TestLiteralMaxHeuristic:
    def test_literal_reading_collapses_to_myopia(self, emn_system):
        """Why the prose reading is the default: the formula's literal
        ``max r(s,a)`` is 0, the lookahead degenerates to immediate-cost
        minimisation, and the controller observes forever instead of
        repairing — it cannot reproduce the paper's heuristic rows."""
        engine = HeuristicPolicyEngine(
            emn_system.model, depth=1, literal_max=True
        )
        result = run_campaign(
            engine,
            fault_states=emn_system.fault_states(FaultKind.ZOMBIE),
            injections=5,
            seed=2,
            monitor_tail=5.0,
            max_steps=120,
        )
        assert result.summary.unrecovered == 5
        assert result.summary.actions == 0.0  # never even tries a restart


class TestTraceWithBranchAndBound:
    def test_trace_records_terminate_step(self, simple_system):
        session = BranchAndBoundPolicyEngine(simple_system.model, depth=1).session()
        environment = RecoveryEnvironment(simple_system.model, seed=4)
        trace = trace_episode(session, environment, simple_system.fault_b)
        assert trace.metrics.recovered
        assert trace.steps[-1].action_label == "terminate"
        assert trace.steps[-1].reward == 0.0  # terminated after recovery
