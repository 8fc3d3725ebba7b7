"""Tests for the experiment harnesses (small-scale smoke + claim checks)."""

import hashlib

import numpy as np
import pytest

from repro.bounds.upper import TrivialUpperBound
from repro.controllers.bounded import TIE_EPSILON
from repro.experiments.ablations import (
    BoundOutcome,
    bound_computation_cost,
    bounds_comparison,
    format_bounds_comparison,
)
from repro.experiments.fig5 import (
    format_fig5a,
    format_fig5b,
    run_fig5,
    shape_checks,
)
from repro.experiments.table1 import (
    PAPER_TABLE1,
    format_table1,
    make_controller,
    ordering_checks,
    run_table1,
)
from repro.pomdp.tree import expand_tree
from repro.sim.campaign import run_episode
from repro.sim.environment import RecoveryEnvironment
from repro.sim.metrics import episode_fingerprint_bytes
from repro.sim.parallel import plan_campaign
from repro.systems.emn import MONITOR_DURATION, build_emn_system
from repro.systems.faults import FaultKind


@pytest.fixture(scope="module")
def small_fig5():
    return run_fig5(iterations=6, seed=0)


@pytest.fixture(scope="module")
def small_table1():
    # Tiny but complete: exercises every controller except depth 3 (slow).
    return run_table1(
        injections=20,
        seed=0,
        controllers=(
            "most likely",
            "heuristic (depth 1)",
            "bounded (depth 1)",
            "oracle",
        ),
    )


class TestFig5:
    def test_traces_have_requested_length(self, small_fig5):
        assert small_fig5.random.bound_values.size == 6
        assert small_fig5.average.bound_values.size == 6

    def test_shape_checks_pass(self, small_fig5):
        checks = shape_checks(small_fig5)
        failed = [claim for claim, ok in checks.items() if not ok]
        assert not failed, failed

    def test_formatting_contains_series(self, small_fig5):
        text_a = format_fig5a(small_fig5)
        assert "Iteration" in text_a
        assert "RA-Bound" in text_a
        text_b = format_fig5b(small_fig5)
        assert "|B|" in text_b

    def test_variant_accessor(self, small_fig5):
        assert small_fig5.variant("random") is small_fig5.random
        with pytest.raises(KeyError):
            small_fig5.variant("other")


class TestTable1:
    def test_all_rows_present(self, small_table1):
        names = [c.controller_name for c in small_table1.campaigns]
        assert names == [
            "most likely",
            "heuristic (depth 1)",
            "bounded (depth 1)",
            "oracle",
        ]

    def test_never_gives_up(self, small_table1):
        for campaign in small_table1.campaigns:
            assert campaign.summary.early_terminations == 0
            assert campaign.summary.unrecovered == 0

    def test_oracle_floor(self, small_table1):
        oracle = small_table1.campaign("oracle").summary.cost
        for campaign in small_table1.campaigns:
            assert oracle <= campaign.summary.cost + 1e-9

    def test_ordering_checks_structure(self, small_table1):
        checks = ordering_checks(small_table1)
        assert "no controller ever quit without recovering" in checks
        assert checks["no controller ever quit without recovering"]

    def test_formatting_includes_paper_rows(self, small_table1):
        text = format_table1(small_table1)
        assert "(paper)" in text
        assert "Never-give-up" in text

    def test_campaign_lookup(self, small_table1):
        assert small_table1.campaign("oracle").controller_name == "oracle"
        with pytest.raises(KeyError):
            small_table1.campaign("ghost")

    def test_paper_reference_table_complete(self):
        for name, row in PAPER_TABLE1.items():
            assert len(row) == 6, name

    def test_make_controller_rejects_unknown(self):
        system = build_emn_system()
        with pytest.raises(KeyError):
            make_controller("ghost", system)


#: The episodes of the 10,000-injection Table 1 run (seed 2006) that quit
#: with the fault still live, and the SHA-256 of each episode's
#: deterministic metrics in that run.
EARLY_QUITS = {
    "heuristic (depth 2)": (
        7217,
        "b5676691cdd4f250e57f1a1be80452811deed5f7cee72ea25d11fbb0b5072a69",
    ),
    "bounded (depth 1)": (
        3206,
        "3372e089f34b7aba7cb84465a2a2b3da144ed97c12217c641175941298e40898",
    ),
}


def _replay_early_quit(system, name):
    """Replay one early quit of the 10,000-injection Table 1 run.

    A campaign runs its episodes in chunks, each on one session of a clone
    of the freshly built engine, so the quitting episode's engine has seen
    only the episodes before it in its chunk; those run first.  Faults and
    environment streams are drawn per episode up front, so a plan that
    stops after the episode reproduces the campaign's.  Returns the
    session, holding its belief at the quit, and the injected fault.
    """
    episode, digest = EARLY_QUITS[name]
    engine = make_controller(name, system)
    session = engine.session()
    plan = plan_campaign(
        engine,
        system.fault_states(FaultKind.ZOMBIE),
        episode + 1,
        seed=2006,
        monitor_tail=MONITOR_DURATION,
    )
    for index in range(episode - episode % plan.chunk_size, episode + 1):
        environment = RecoveryEnvironment(
            plan.model,
            seed=np.random.default_rng(plan.env_seeds[index]),
            monitor_tail=plan.monitor_tail,
        )
        metrics = run_episode(session, environment, int(plan.faults[index]))
    assert hashlib.sha256(episode_fingerprint_bytes(metrics)).hexdigest() == digest
    assert metrics.terminated and not metrics.recovered
    return session, int(plan.faults[episode])


@pytest.mark.slow
class TestTable1EarlyQuits:
    """At 10,000 injections heuristic d2 and the bounded controller each
    quit once with zombie(S2) live.  Both quits are what the controllers
    are specified to do, not defects."""

    def test_heuristic_depth2_quit_clears_its_threshold(self, emn_system):
        session, fault = _replay_early_quit(emn_system, "heuristic (depth 2)")
        belief = session.belief
        recovered = emn_system.model.recovered_probability(belief)
        assert emn_system.model.pomdp.state_labels[fault] == "zombie(S2)"
        # Four clean monitor readings left the live fault 6.1e-5 of the
        # belief: a false quit that the 0.9999 threshold permits.
        assert recovered >= session.engine.termination_probability == 0.9999
        assert 0.0 < belief[fault] < 1e-4

    def test_bounded_quit_is_the_optimal_action(self, emn_system):
        session, fault = _replay_early_quit(emn_system, "bounded (depth 1)")
        model = emn_system.model
        pomdp, terminate = model.pomdp, model.terminate_action
        belief = session.belief
        assert pomdp.state_labels[fault] == "zombie(S2)"
        assert model.recovered_probability(belief) < 0.9999
        # The termination rule fired, with a_T the strict maximum of the
        # lookahead rather than a tie broken toward it.
        decision = expand_tree(pomdp, belief, 1, session.engine.bound_set)
        assert decision.action_values[terminate] >= decision.value - TIE_EPSILON
        assert decision.action == terminate
        # Zero bounds V* from above (Condition 2), so a depth-2 tree with
        # zero leaves bounds every Q*(a) from above, while a_T's value from
        # the lower bound set bounds Q*(a_T) from below: terminating is
        # optimal.  Quitting risks 2.44e-4 x 10,800 = 2.64 requests of
        # operator penalty; one more monitor call costs 2.5 requests and
        # still leaves 0.66 of it.
        upper = expand_tree(pomdp, belief, 2, TrivialUpperBound(pomdp.n_states))
        assert np.delete(upper.action_values, terminate).max() < (
            decision.action_values[terminate]
        )


class TestBoundsComparison:
    @pytest.fixture(scope="class")
    def outcomes(self):
        return bounds_comparison()

    def test_ra_bound_finite_in_both_variants(self, outcomes):
        ra = [o for o in outcomes if o.bound == "RA-Bound"]
        assert len(ra) == 2
        assert all(o.converged for o in ra)

    def test_bi_pomdp_diverges_in_both_variants(self, outcomes):
        bi = [o for o in outcomes if o.bound == "BI-POMDP"]
        assert len(bi) == 2
        assert not any(o.converged for o in bi)

    def test_blind_policy_split(self, outcomes):
        blind = {o.model: o.converged for o in outcomes if o.bound == "blind policy"}
        assert blind == {
            "with notification": False,
            "without notification": True,
        }

    def test_formatting(self, outcomes):
        text = format_bounds_comparison(outcomes)
        assert "DIVERGES" in text
        assert "RA-Bound" in text


class TestBoundComputationCost:
    def test_profile_shapes(self):
        profile = bound_computation_cost(updates=5)
        assert profile.ra_solve_seconds > 0
        assert len(profile.refine_seconds_by_set_size) == 5
        sizes = [size for size, _ in profile.refine_seconds_by_set_size]
        assert sizes == sorted(sizes)  # |B| never shrinks during refinement
