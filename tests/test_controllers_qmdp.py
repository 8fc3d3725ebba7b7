"""Tests for the QMDP baseline controller."""

import numpy as np
import pytest

from repro.controllers.qmdp import QMDPPolicyEngine
from repro.sim.campaign import run_campaign
from repro.systems.faults import FaultKind


class TestQMDPController:
    def test_repairs_certain_fault(self, simple_system):
        session = QMDPPolicyEngine(simple_system.model).session()
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.fault_a] = 1.0
        session.reset(initial_belief=belief)
        decision = session.decide()
        assert decision.action == simple_system.model.pomdp.action_index(
            "restart(a)"
        )

    def test_observes_when_fault_mass_is_small(self, simple_system):
        """Near-recovered beliefs make observe the Q-cheapest action."""
        session = QMDPPolicyEngine(simple_system.model).session()
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.null_state] = 0.9
        belief[simple_system.fault_a] = 0.1
        session.reset(initial_belief=belief)
        decision = session.decide()
        assert decision.action == simple_system.observe_action

    def test_threshold_termination(self, simple_system):
        session = QMDPPolicyEngine(
            simple_system.model, termination_probability=0.9
        ).session()
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.null_state] = 0.95
        belief[simple_system.fault_a] = 0.05
        session.reset(initial_belief=belief)
        assert session.decide().is_terminate

    def test_terminate_action_maskable(self, simple_system):
        session = QMDPPolicyEngine(
            simple_system.model, allow_terminate_action=False
        ).session()
        a_t = simple_system.model.terminate_action
        rng = np.random.default_rng(1)
        n = simple_system.model.pomdp.n_states
        for belief in rng.dirichlet(np.ones(n), size=50):
            session.reset(initial_belief=belief)
            decision = session.decide()
            if not decision.is_terminate:
                assert decision.action != a_t

    def test_invalid_threshold_rejected(self, simple_system):
        with pytest.raises(ValueError):
            QMDPPolicyEngine(simple_system.model, termination_probability=0.0)

    def test_procrastinates_on_unresolvable_ambiguity(self, emn_system):
        """QMDP's pathology on the EMN model: zombie(S1)/zombie(S2) are
        observationally identical, so the belief never leaves 50/50 — and
        under the everything-resolves-after-one-step assumption, observing
        keeps looking cheaper than committing to a restart.  The campaign
        hits the step cap with enormous monitor-call counts, which is the
        quantitative case for belief-space lookahead."""
        engine = QMDPPolicyEngine(emn_system.model)
        result = run_campaign(
            engine,
            fault_states=emn_system.fault_states(FaultKind.ZOMBIE),
            injections=40,
            seed=9,
            monitor_tail=5.0,
        )
        assert result.summary.monitor_calls > 50  # endless observing
        assert result.summary.unrecovered > 0  # stuck episodes exist
        # The step cap, not an early termination, ends the stuck episodes.
        assert result.summary.early_terminations == 0

    def test_recovers_unambiguous_faults_on_emn(self, emn_system):
        """Component crashes with unique monitor signatures pose no
        information problem, so QMDP handles them.  (crash(DB) is excluded:
        it shares its signature with host_crash(hostC), which re-creates
        the procrastination trap.)"""
        pomdp = emn_system.model.pomdp
        unambiguous = np.array(
            [
                pomdp.state_index(label)
                for label in ("crash(HG)", "crash(VG)", "crash(S1)",
                              "crash(S2)")
            ]
        )
        engine = QMDPPolicyEngine(emn_system.model)
        result = run_campaign(
            engine,
            fault_states=unambiguous,
            injections=30,
            seed=9,
            monitor_tail=5.0,
        )
        assert result.summary.unrecovered == 0
