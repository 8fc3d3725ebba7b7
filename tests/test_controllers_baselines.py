"""Tests for the most-likely, oracle, random, and heuristic controllers."""

import numpy as np
import pytest

from repro.controllers.heuristic import HeuristicLeaf, HeuristicPolicyEngine
from repro.controllers.most_likely import (
    MostLikelyPolicyEngine,
    cheapest_fixing_actions,
)
from repro.controllers.oracle import OraclePolicyEngine
from repro.controllers.random_controller import RandomPolicyEngine
from repro.exceptions import ControllerError, ModelError
from repro.recovery import convert_backend
from repro.sim.campaign import run_campaign, run_episode
from repro.sim.environment import RecoveryEnvironment
from repro.systems.tiered import build_tiered_system


class TestCheapestFixingActions:
    def test_simple_model_mapping(self, simple_system):
        mapping = cheapest_fixing_actions(simple_system.model)
        pomdp = simple_system.model.pomdp
        assert mapping[simple_system.fault_a] == pomdp.action_index("restart(a)")
        assert mapping[simple_system.fault_b] == pomdp.action_index("restart(b)")

    def test_emn_prefers_restart_over_reboot(self, emn_system):
        """Restart fixes a zombie as surely as a reboot but cheaper."""
        mapping = cheapest_fixing_actions(emn_system.model)
        pomdp = emn_system.model.pomdp
        zombie_s1 = pomdp.state_index("zombie(S1)")
        assert mapping[zombie_s1] == pomdp.action_index("restart(S1)")
        host_crash = pomdp.state_index("host_crash(hostA)")
        assert mapping[host_crash] == pomdp.action_index("reboot(hostA)")


@pytest.mark.parametrize(
    "build, policy",
    [
        (MostLikelyPolicyEngine, "the most-likely baseline"),
        (OraclePolicyEngine, "the oracle"),
    ],
    ids=["most_likely", "oracle"],
)
def test_sparse_model_rejected_with_working_hint(build, policy):
    """Both baselines scan dense transitions: on a sparse model the error
    names the controller, and the conversion it suggests works."""
    model = build_tiered_system((2, 2), backend="sparse").model
    with pytest.raises(
        ModelError,
        match=rf"^{policy} requires the dense backend.*"
        r"repro\.recovery\.convert_backend\(model, 'dense'\)",
    ):
        build(model)
    dense = convert_backend(model, "dense")
    repairs = build(dense)._fixing_action
    assert set(repairs) == set(np.flatnonzero(dense.fault_states).tolist())


class TestMostLikely:
    def test_acts_on_belief_mode(self, simple_system):
        session = MostLikelyPolicyEngine(simple_system.model).session()
        pomdp = simple_system.model.pomdp
        n = pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.fault_b] = 0.7
        belief[simple_system.fault_a] = 0.3
        session.reset(initial_belief=belief)
        decision = session.decide()
        assert decision.action == pomdp.action_index("restart(b)")

    def test_terminates_at_threshold(self, simple_system):
        session = MostLikelyPolicyEngine(
            simple_system.model, termination_probability=0.9
        ).session()
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.null_state] = 0.95
        belief[simple_system.fault_a] = 0.05
        session.reset(initial_belief=belief)
        assert session.decide().is_terminate

    def test_invalid_threshold_rejected(self, simple_system):
        with pytest.raises(ValueError):
            MostLikelyPolicyEngine(simple_system.model, termination_probability=0.0)

    def test_recovers_all_faults(self, simple_system):
        engine = MostLikelyPolicyEngine(
            simple_system.model, termination_probability=0.999
        )
        result = run_campaign(
            engine,
            fault_states=np.array(
                [simple_system.fault_a, simple_system.fault_b]
            ),
            injections=40,
            seed=5,
        )
        assert result.summary.unrecovered == 0
        assert result.summary.early_terminations == 0


class TestOracle:
    def test_requires_true_state(self, simple_system):
        session = OraclePolicyEngine(simple_system.model).session()
        session.reset()
        with pytest.raises(ControllerError, match="true state"):
            session.decide()

    def test_fixes_known_fault_in_one_action(self, simple_system):
        session = OraclePolicyEngine(simple_system.model).session()
        environment = RecoveryEnvironment(simple_system.model, seed=0)
        metrics = run_episode(session, environment, simple_system.fault_b)
        assert metrics.actions == 1
        assert metrics.recovered

    def test_terminates_immediately_when_recovered(self, simple_system):
        session = OraclePolicyEngine(simple_system.model).session()
        session.reset()
        session.sync_true_state(simple_system.null_state)
        assert session.decide().is_terminate


class TestRandomController:
    def test_draws_cover_action_space(self, simple_system):
        session = RandomPolicyEngine(simple_system.model, seed=0).session()
        session.reset()
        seen = set()
        for _ in range(200):
            decision = session.decide()
            seen.add(decision.action)
            if decision.is_terminate:
                session.reset()
        assert seen == set(range(simple_system.model.pomdp.n_actions))

    def test_terminate_action_ends_episode(self, simple_system):
        session = RandomPolicyEngine(simple_system.model, seed=0).session()
        session.reset()
        a_t = simple_system.model.terminate_action
        while True:
            decision = session.decide()
            if decision.action == a_t:
                assert decision.is_terminate
                break
            session.reset() if decision.is_terminate else None
        assert session.done

    def test_restricted_draw_excludes_passive_and_terminate(self, simple_system):
        session = RandomPolicyEngine(
            simple_system.model, include_all_actions=False, seed=1
        ).session()
        session.reset()
        recovery = set(np.flatnonzero(simple_system.model.recovery_actions))
        for _ in range(100):
            decision = session.decide()
            if decision.is_terminate:
                session.reset()
                continue
            assert decision.action in recovery

    def test_invalid_threshold_rejected(self, simple_system):
        """The restricted draw quits on the recovered-probability threshold,
        so it must lie in (0, 1] like every threshold policy's: at 0 the
        engine would quit on every belief."""
        for threshold in (0.0, 1.5, -1.0):
            with pytest.raises(ValueError, match="termination_probability"):
                RandomPolicyEngine(
                    simple_system.model,
                    include_all_actions=False,
                    termination_probability=threshold,
                )


class TestHeuristicLeaf:
    def test_value_formula(self, simple_system):
        leaf = HeuristicLeaf(simple_system.model)
        n = simple_system.model.pomdp.n_states
        belief = np.zeros(n)
        belief[simple_system.fault_a] = 1.0
        # Most expensive recovery action: the wrong restart at cost 1.
        assert np.isclose(leaf.value(belief), -1.0)
        belief = np.zeros(n)
        belief[simple_system.null_state] = 1.0
        assert leaf.value(belief) == 0.0

    def test_literal_max_variant_is_zero(self, simple_system):
        """The formula's literal max over r(s,a) is 0 for recovery models
        (e.g. observe in null) — documenting why the prose reading is the
        default."""
        leaf = HeuristicLeaf(simple_system.model, literal_max=True)
        n = simple_system.model.pomdp.n_states
        belief = np.full(n, 1.0 / n)
        assert leaf.value(belief) == 0.0

    def test_batch_matches_scalar(self, simple_system):
        leaf = HeuristicLeaf(simple_system.model)
        rng = np.random.default_rng(0)
        beliefs = rng.dirichlet(
            np.ones(simple_system.model.pomdp.n_states), size=8
        )
        assert np.allclose(
            leaf.value_batch(beliefs), [leaf.value(b) for b in beliefs]
        )


class TestHeuristicController:
    def test_never_chooses_terminate_action(self, simple_system):
        session = HeuristicPolicyEngine(simple_system.model, depth=1).session()
        session.reset()
        a_t = simple_system.model.terminate_action
        for _ in range(10):
            decision = session.decide()
            if decision.is_terminate:
                break
            assert decision.action != a_t

    def test_recovers_and_terminates(self, simple_system):
        # 0.999 rather than 0.99: with a looser threshold the heuristic can
        # legitimately quit while the fault is live (~1% of episodes), which
        # would make this assertion seed-dependent.
        engine = HeuristicPolicyEngine(
            simple_system.model, depth=1, termination_probability=0.999
        )
        result = run_campaign(
            engine,
            fault_states=np.array(
                [simple_system.fault_a, simple_system.fault_b]
            ),
            injections=30,
            seed=9,
        )
        assert result.summary.unrecovered == 0

    def test_invalid_parameters_rejected(self, simple_system):
        with pytest.raises(ValueError):
            HeuristicPolicyEngine(simple_system.model, depth=0)
        with pytest.raises(ValueError):
            HeuristicPolicyEngine(
                simple_system.model, termination_probability=1.5
            )
