"""Tests for the parametric tiered system family and its sparse RA chain."""

import numpy as np
import pytest

from repro.bounds.ra_bound import ra_bound_vector
from repro.controllers.bounded import BoundedPolicyEngine
from repro.exceptions import ModelError
from repro.sim.campaign import run_campaign
from repro.systems.tiered import (
    build_tiered_system,
    solve_tiered_ra_bound,
    tiered_ra_chain,
)


@pytest.fixture(scope="module")
def small_tiered():
    return build_tiered_system(replicas=(2, 1, 3), tier_names=("web", "app", "db"))


class TestStructure:
    def test_state_count(self, small_tiered):
        # null + 2 faults per component (6 components) + s_T
        assert small_tiered.model.pomdp.n_states == 14

    def test_action_count(self, small_tiered):
        # 6 restarts + observe + a_T
        assert small_tiered.model.pomdp.n_actions == 8

    def test_observation_count_independent_of_replicas(self):
        small = build_tiered_system(replicas=(1, 1, 1))
        large = build_tiered_system(replicas=(5, 5, 5))
        assert small.model.pomdp.n_observations == 2**4
        assert large.model.pomdp.n_observations == 2**4

    def test_component_names(self, small_tiered):
        assert small_tiered.components == ("web1", "web2", "app1", "db1",
                                           "db2", "db3")

    def test_zombie_and_crash_state_selectors(self, small_tiered):
        assert len(small_tiered.zombie_states()) == 6
        assert len(small_tiered.crash_states()) == 6

    def test_zombie_only_variant(self):
        system = build_tiered_system(replicas=(2, 2), include_crash_faults=False)
        assert len(system.crash_states()) == 0
        assert system.model.pomdp.n_states == 2 + 4  # null + 4 zombies + s_T

    def test_invalid_replicas_rejected(self):
        with pytest.raises(ModelError):
            build_tiered_system(replicas=())
        with pytest.raises(ModelError):
            build_tiered_system(replicas=(2, 0))

    def test_tier_name_count_checked(self):
        with pytest.raises(ModelError):
            build_tiered_system(replicas=(2, 2), tier_names=("only-one",))


class TestSemantics:
    def test_fault_rate_is_one_over_replicas(self, small_tiered):
        pomdp = small_tiered.model.pomdp
        rates = -small_tiered.model.rate_rewards
        assert np.isclose(rates[pomdp.state_index("crash(web1)")], 0.5)
        assert np.isclose(rates[pomdp.state_index("zombie(app1)")], 1.0)
        assert np.isclose(rates[pomdp.state_index("zombie(db2)")], 1.0 / 3.0)

    def test_restart_fixes_both_fault_kinds(self, small_tiered):
        pomdp = small_tiered.model.pomdp
        null = pomdp.state_index("null")
        restart = pomdp.action_index("restart(web2)")
        for label in ("crash(web2)", "zombie(web2)"):
            assert pomdp.transitions[restart, pomdp.state_index(label), null] == 1.0

    def test_crash_trips_tier_ping_zombie_does_not(self, small_tiered):
        pomdp = small_tiered.model.pomdp
        observe = small_tiered.observe_action
        crash = pomdp.state_index("crash(web1)")
        zombie = pomdp.state_index("zombie(web1)")
        # For the crash, every reachable observation has the web ping bit set.
        for obs in np.flatnonzero(pomdp.observations[observe, crash] > 0):
            assert "web!" in pomdp.observation_labels[obs]
        for obs in np.flatnonzero(pomdp.observations[observe, zombie] > 0):
            assert "web!" not in pomdp.observation_labels[obs]

    def test_no_recovery_notification(self, small_tiered):
        assert not small_tiered.model.recovery_notification

    def test_bounded_controller_recovers(self, small_tiered):
        engine = BoundedPolicyEngine(
            small_tiered.model, depth=1, refine_min_improvement=0.5
        )
        result = run_campaign(
            engine,
            fault_states=small_tiered.zombie_states(),
            injections=20,
            seed=3,
            monitor_tail=2.0,
        )
        assert result.summary.unrecovered == 0
        assert result.summary.early_terminations == 0


class TestSparseRAChain:
    def test_matches_dense_model(self):
        """The direct sparse construction must equal the dense RA-Bound."""
        for replicas in [(2, 2, 2), (1, 3), (4,)]:
            system = build_tiered_system(replicas=replicas)
            dense = ra_bound_vector(system.model.pomdp)
            sparse = solve_tiered_ra_bound(replicas)
            assert np.allclose(dense, sparse, atol=1e-8), replicas

    def test_chain_rows_stochastic(self):
        chain, rewards = tiered_ra_chain((3, 3))
        row_sums = np.asarray(chain.sum(axis=1)).ravel()
        assert np.allclose(row_sums, 1.0)
        assert np.all(rewards <= 0)

    def test_scales_to_large_state_counts(self):
        values = solve_tiered_ra_bound((5_000, 5_000))
        assert values.shape == (20_002,)
        assert np.all(np.isfinite(values))
        assert values[-1] == 0.0  # s_T
        assert np.all(values[:-1] < 0)

    def test_invalid_replicas_rejected(self):
        with pytest.raises(ModelError):
            tiered_ra_chain(())
