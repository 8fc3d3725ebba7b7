"""End-to-end integration tests crossing every layer of the library."""

import numpy as np
import pytest

from repro.bounds.incremental import refine_at, verify_lower_bound_invariant
from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.upper import FIBBound, QMDPBound
from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.bootstrap import bootstrap_bounds
from repro.controllers.bounded import BoundedPolicyEngine
from repro.controllers.heuristic import HeuristicPolicyEngine
from repro.controllers.most_likely import MostLikelyPolicyEngine
from repro.controllers.oracle import OraclePolicyEngine
from repro.pomdp.exact import solve_exact
from repro.sim.campaign import run_campaign
from repro.systems.faults import FaultKind
from repro.systems.simple import build_simple_system


class TestBoundedNearOptimalOnDiscountedModel:
    """Ground-truth check: on a model small enough for exact solution, the
    bootstrapped bounded controller's decisions must track the optimal
    policy's value closely."""

    @pytest.fixture(scope="class")
    def setup(self):
        system = build_simple_system(recovery_notification=False, discount=0.9)
        exact = solve_exact(system.model.pomdp, tol=1e-5)
        bound_set, _ = bootstrap_bounds(
            system.model, iterations=20, depth=1, seed=0, min_improvement=0.0
        )
        return system, exact, bound_set

    def test_refined_bound_close_to_exact_at_visited_beliefs(self, setup):
        system, exact, bound_set = setup
        belief = system.model.initial_belief()
        for _ in range(20):
            refine_at(system.model.pomdp, bound_set, belief)
        gap = exact.value(belief) - bound_set.value(belief)
        assert 0 <= gap + exact.error_bound + 1e-7
        assert gap <= 0.4  # tight after refinement (costs are ~1-2 here)

    def test_bounded_controller_agrees_with_exact_greedy(self, setup):
        system, exact, bound_set = setup
        pomdp = system.model.pomdp
        session = BoundedPolicyEngine(
            system.model, depth=1, bound_set=bound_set
        ).session()
        agreements = 0
        probes = 0
        rng = np.random.default_rng(0)
        for belief in rng.dirichlet(np.ones(pomdp.n_states) * 2, size=30):
            session.reset(initial_belief=belief)
            chosen = session.decide().action
            optimal = exact.greedy_action(pomdp, belief)
            probes += 1
            agreements += int(chosen == optimal or chosen < 0)
        assert agreements / probes >= 0.7


class TestFullStackOnEMN:
    def test_all_controllers_recover_all_zombie_faults(self, emn_system):
        zombies = emn_system.fault_states(FaultKind.ZOMBIE)
        controllers = [
            MostLikelyPolicyEngine(emn_system.model),
            HeuristicPolicyEngine(emn_system.model, depth=1),
            BoundedPolicyEngine(
                emn_system.model, depth=1, refine_min_improvement=1.0
            ),
            OraclePolicyEngine(emn_system.model),
        ]
        costs = {}
        for controller in controllers:
            result = run_campaign(
                controller, zombies, injections=30, seed=17, monitor_tail=5.0
            )
            assert result.summary.unrecovered == 0, controller.name
            costs[controller.name] = result.summary.cost
        assert costs["oracle"] <= min(costs.values()) + 1e-9
        assert costs["bounded (depth 1)"] <= costs["most likely"]

    def test_crash_faults_diagnosed_almost_one_shot(self, emn_system):
        """Crashes are precisely located by ping monitors, so even the
        most-likely baseline repairs them in one action — except the
        crash(DB) / host_crash(hostC) pair, which share an observation
        signature (hostC hosts only DB) and may need a second action."""
        crashes = emn_system.fault_states(FaultKind.CRASH, FaultKind.HOST_CRASH)
        engine = MostLikelyPolicyEngine(emn_system.model)
        result = run_campaign(
            engine, crashes, injections=30, seed=3, monitor_tail=5.0
        )
        assert result.summary.unrecovered == 0
        assert all(episode.actions <= 2 for episode in result.episodes)
        pomdp = emn_system.model.pomdp
        ambiguous = {
            pomdp.state_index("crash(DB)"),
            pomdp.state_index("host_crash(hostC)"),
        }
        for episode in result.episodes:
            if episode.fault_state not in ambiguous:
                assert episode.actions == 1

    def test_bound_hierarchy_on_emn(self, emn_system):
        """lower bounds <= upper bounds at many beliefs, whole stack."""
        pomdp = emn_system.model.pomdp
        lower = BoundVectorSet(ra_bound_vector(pomdp))
        qmdp = QMDPBound(pomdp)
        fib = FIBBound(pomdp)
        rng = np.random.default_rng(1)
        beliefs = rng.dirichlet(np.ones(pomdp.n_states), size=24)
        for belief in beliefs:
            low = lower.value(belief)
            assert low <= fib.value(belief) + 1e-6
            assert fib.value(belief) <= qmdp.value(belief) + 1e-6
            assert low <= 0.0

    def test_invariant_maintained_through_campaign(self, emn_system):
        """Property 1(b) holds after a bootstrap + live campaign."""
        bound_set, _ = bootstrap_bounds(
            emn_system.model, iterations=5, depth=1, seed=0
        )
        engine = BoundedPolicyEngine(
            emn_system.model,
            depth=1,
            bound_set=bound_set,
            refine_min_improvement=1.0,
        )
        run_campaign(
            engine,
            emn_system.fault_states(FaultKind.ZOMBIE),
            injections=10,
            seed=2,
            monitor_tail=5.0,
        )
        beliefs = np.vstack(
            [
                emn_system.model.initial_belief(),
                np.full(
                    emn_system.model.pomdp.n_states,
                    1.0 / emn_system.model.pomdp.n_states,
                ),
            ]
        )
        assert verify_lower_bound_invariant(
            emn_system.model.pomdp, bound_set, beliefs
        )


class TestNotifiedVsUnnotifiedEconomy:
    def test_notified_recovery_cheaper(self):
        """Recovery notification saves the lingering observes."""
        notified = build_simple_system(recovery_notification=True, miss_rate=0.0)
        unnotified = build_simple_system(recovery_notification=False)
        results = {}
        for label, system in (("yes", notified), ("no", unnotified)):
            engine = BoundedPolicyEngine(system.model, depth=1)
            faults = np.array([system.fault_a, system.fault_b])
            results[label] = run_campaign(
                engine, faults, injections=40, seed=21
            ).summary
        assert results["yes"].monitor_calls <= results["no"].monitor_calls
        assert results["yes"].cost <= results["no"].cost + 1e-9
