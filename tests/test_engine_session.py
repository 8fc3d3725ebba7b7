"""Engine/session refactor parity: the controller stack split must be invisible.

PR 9 split every controller into a shared :class:`PolicyEngine` and a
per-episode :class:`RecoverySession`.  These tests pin the campaign
fingerprints captured on the pre-refactor stack (same models, seeds, and
injection counts) and assert the refactored stack still produces them —
serial and ``parallel=4``, dense and sparse — plus property-based checks
that an engine-spawned session and the classic controller adapter are
decision-for-decision identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controllers import (
    BoundedController,
    BoundedPolicyEngine,
    BranchAndBoundController,
    HeuristicController,
    MostLikelyController,
    OracleController,
    QMDPController,
    RandomController,
    RecoveryController,
)
from repro.experiments.table1 import make_controller
from repro.obs.telemetry import Telemetry, activated
from repro.sim.campaign import run_campaign, run_episode
from repro.sim.environment import RecoveryEnvironment
from repro.sim.metrics import campaign_fingerprint, episode_fingerprint_bytes
from repro.systems.emn import MONITOR_DURATION
from repro.systems.faults import FaultKind
from repro.systems.simple import build_simple_system
from repro.systems.tiered import build_tiered_system

SEED = 2006
SIMPLE_INJECTIONS = 40
TIERED_INJECTIONS = 24

#: Campaign fingerprints captured on the pre-refactor controller stack
#: (commit 40ae943) with identical models, seeds, and injection counts.
#: ``algorithm_time`` is excluded from the fingerprint, so these are exact.
#: The depth >= 2 campaigns (simple ``bounded_depth2``/``bounded_depth3``,
#: the EMN heuristic at depth 2, and the EMN bounded controller, whose
#: bootstrap runs depth-2 trees) were captured on the node-at-a-time tree
#: expansion that the level-by-level expander replaced.
PRE_REFACTOR_FINGERPRINTS = {
    "simple.bounded": "028766abd5e47d4fccdb8e046a412ae7a73fc7be4ef6fd8d88ce2492abb37016",
    "simple.heuristic": "3abc52204e1d252d998293ca6ad1ef58b718157516b18fc5ef41ae8ba3fb9a4b",
    "simple.most_likely": "edc4ff151e7b0af5480b7d7975e40c597a61950f02b9ab002e162e43d5bd1c77",
    "simple.qmdp": "3abc52204e1d252d998293ca6ad1ef58b718157516b18fc5ef41ae8ba3fb9a4b",
    "simple.oracle": "f5592ddd496615ed29fc2b2c8b25fcb515f8b37a29139d20b3a2572dd36ca913",
    "simple.random": "cfef8fe3afb72a29043661841c5b6aea4594321adb95a2d0c0ba221c2f27b4b8",
    "simple.branch_and_bound": "028766abd5e47d4fccdb8e046a412ae7a73fc7be4ef6fd8d88ce2492abb37016",
    "simple.bounded_depth2": "5a1971ab3718230779b0a403e24c0483127b33e28b493275a30429ce1e594d0b",
    "simple.bounded_depth3": "c0d9a2ff5e127c8c9b5c24a424f70187c749ff702d6979e8707ad7986b3c3534",
    "emn.bounded": "9848721d9931511a73d1c3d16cf833f453959c6397c5b3c46cd8dccf9e4d4ed4",
    "emn.heuristic_depth2": "04a7d174bd9288cf8dce06f7f7d483f083bdc899830c18556cb9bedb983ca22f",
    "tiered_sparse.bounded": "a2bd9a27c78ba1e6797d7d69097a3f25b5aada1da62b68e08631d1482b9dd098",
    "tiered_dense.bounded": "a2bd9a27c78ba1e6797d7d69097a3f25b5aada1da62b68e08631d1482b9dd098",
    "simple.branch_and_bound_depth2": "39ae0b99fab09c432b94b2baccd3bf08b29cb162b6352b6b1319025c80d92b04",
    "impatient.branch_and_bound_certified": "4babef177e5265720c4de6d73cb462bc76530e1146aa0ba4f9fcb5bc79908748",
    "emn.branch_and_bound_depth2": "6329bd931a9311aed578daac8698a10ad51e6aabeb6350ba24fa80075de9571a",
}

#: Expanded / pruned action and withheld-termination totals of the pinned
#: branch-and-bound campaigns, captured with the fingerprints above.
BRANCH_AND_BOUND_COUNTS = {
    "simple.branch_and_bound_depth2": (451, 1269, 0),
    "impatient.branch_and_bound_certified": (1641, 1547, 657),
    "emn.branch_and_bound_depth2": (1598, 8812, 0),
}

SIMPLE_FACTORIES = {
    "bounded": lambda model: BoundedController(model),
    "heuristic": lambda model: HeuristicController(model),
    "most_likely": lambda model: MostLikelyController(model),
    "qmdp": lambda model: QMDPController(model),
    "oracle": lambda model: OracleController(model),
    "random": lambda model: RandomController(model, seed=7),
    "branch_and_bound": lambda model: BranchAndBoundController(model),
    "bounded_depth2": lambda model: BoundedController(model, depth=2),
    "bounded_depth3": lambda model: BoundedController(model, depth=3),
}


def _simple_campaign(system, name, parallel=None):
    controller = SIMPLE_FACTORIES[name](system.model)
    faults = np.array([system.fault_a, system.fault_b])
    return run_campaign(
        controller,
        fault_states=faults,
        injections=SIMPLE_INJECTIONS,
        seed=SEED,
        parallel=parallel,
    )


class TestPinnedFingerprints:
    """The refactored stack reproduces the pre-refactor campaigns bit-for-bit."""

    @pytest.mark.parametrize("name", sorted(SIMPLE_FACTORIES))
    def test_simple_serial(self, simple_system, name):
        result = _simple_campaign(simple_system, name)
        assert (
            campaign_fingerprint(result.episodes)
            == PRE_REFACTOR_FINGERPRINTS[f"simple.{name}"]
        )

    @pytest.mark.parametrize("name", ["bounded", "random", "branch_and_bound"])
    def test_simple_parallel(self, simple_system, name):
        """Workers drive engine-spawned sessions; fingerprints must not move."""
        result = _simple_campaign(simple_system, name, parallel=4)
        assert (
            campaign_fingerprint(result.episodes)
            == PRE_REFACTOR_FINGERPRINTS[f"simple.{name}"]
        )

    @pytest.mark.parametrize("backend", ["sparse", "dense"])
    def test_tiered_both_backends(self, backend):
        system = build_tiered_system((2, 2), backend=backend)
        faults = np.flatnonzero(system.model.fault_states)
        serial = run_campaign(
            BoundedController(system.model),
            fault_states=faults,
            injections=TIERED_INJECTIONS,
            seed=SEED,
        )
        assert (
            campaign_fingerprint(serial.episodes)
            == PRE_REFACTOR_FINGERPRINTS[f"tiered_{backend}.bounded"]
        )
        sharded = run_campaign(
            BoundedController(system.model),
            fault_states=faults,
            injections=TIERED_INJECTIONS,
            seed=SEED,
            parallel=4,
        )
        assert campaign_fingerprint(sharded.episodes) == campaign_fingerprint(
            serial.episodes
        )


class TestEmnPinnedFingerprints:
    """EMN campaigns whose decisions expand trees of depth >= 2."""

    @staticmethod
    def _zombie_campaign(system, controller, injections):
        return run_campaign(
            controller,
            fault_states=system.fault_states(FaultKind.ZOMBIE),
            injections=injections,
            seed=2026,
            monitor_tail=MONITOR_DURATION,
        )

    def test_bootstrapped_bounded(self, emn_system):
        """Table 1's bounded row: a depth-2 bootstrap, then depth-1 decisions."""
        controller = make_controller("bounded (depth 1)", emn_system)
        result = self._zombie_campaign(emn_system, controller, 30)
        assert (
            campaign_fingerprint(result.episodes)
            == PRE_REFACTOR_FINGERPRINTS["emn.bounded"]
        )

    def test_heuristic_depth2(self, emn_system):
        controller = HeuristicController(emn_system.model, depth=2)
        result = self._zombie_campaign(emn_system, controller, 10)
        assert (
            campaign_fingerprint(result.episodes)
            == PRE_REFACTOR_FINGERPRINTS["emn.heuristic_depth2"]
        )


class TestBranchAndBoundPins:
    """Branch-and-bound campaigns: fingerprints and pruning totals."""

    @staticmethod
    def _pinned(key, controller, **campaign):
        telemetry = Telemetry()
        with activated(telemetry):
            result = run_campaign(controller, **campaign)
        counts = tuple(
            telemetry.counters[f"controller.{name}"]
            for name in ("expanded_actions", "pruned_actions", "withheld_terminations")
        )
        assert campaign_fingerprint(result.episodes) == PRE_REFACTOR_FINGERPRINTS[key]
        assert counts == BRANCH_AND_BOUND_COUNTS[key]

    def test_simple_depth2(self, simple_system):
        self._pinned(
            "simple.branch_and_bound_depth2",
            BranchAndBoundController(simple_system.model, depth=2),
            fault_states=np.array([simple_system.fault_a, simple_system.fault_b]),
            injections=12,
            seed=SEED,
        )

    def test_certified_termination(self):
        system = build_simple_system(
            recovery_notification=False, operator_response_time=6.0
        )
        self._pinned(
            "impatient.branch_and_bound_certified",
            BranchAndBoundController(
                system.model,
                depth=1,
                refine_online=False,
                certified_termination=True,
            ),
            fault_states=np.array([system.fault_a, system.fault_b]),
            injections=60,
            seed=2,
        )

    def test_emn_depth2(self, emn_system):
        self._pinned(
            "emn.branch_and_bound_depth2",
            BranchAndBoundController(
                emn_system.model, depth=2, refine_min_improvement=1.0
            ),
            fault_states=emn_system.fault_states(FaultKind.ZOMBIE),
            injections=6,
            seed=2026,
            monitor_tail=MONITOR_DURATION,
        )


class TestEngineDrivenEpisodes:
    """Raw engine sessions and the controller adapter are interchangeable."""

    def test_session_speaks_episode_protocol(self, simple_system):
        """run_episode driven by an engine-spawned session matches the
        classic controller adapter on every deterministic metric."""
        model = simple_system.model
        engine = BoundedPolicyEngine(model, refine_online=False)
        session = engine.session()
        controller = BoundedController(model, refine_online=False)
        for fault in (simple_system.fault_a, simple_system.fault_b):
            left = run_episode(
                session, RecoveryEnvironment(model, seed=99), fault
            )
            right = run_episode(
                controller, RecoveryEnvironment(model, seed=99), fault
            )
            assert episode_fingerprint_bytes(left) == episode_fingerprint_bytes(
                right
            )

    def test_adapter_over_shared_engine(self, simple_system):
        """Campaigns accept an adapter wrapping an externally built engine,
        and refinements land in that engine's bound set."""
        model = simple_system.model
        engine = BoundedPolicyEngine(model)
        controller = RecoveryController(engine=engine)
        faults = np.array([simple_system.fault_a, simple_system.fault_b])
        result = run_campaign(
            controller, fault_states=faults, injections=SIMPLE_INJECTIONS, seed=SEED
        )
        assert (
            campaign_fingerprint(result.episodes)
            == PRE_REFACTOR_FINGERPRINTS["simple.bounded"]
        )
        assert controller.refinement_state() is engine.bound_set

    def test_sessions_isolate_beliefs(self, simple_system):
        """Two sessions of one engine never see each other's beliefs."""
        engine = BoundedPolicyEngine(simple_system.model, refine_online=False)
        one, two = engine.session(), engine.session()
        one.reset()
        two.reset()
        one.observe(simple_system.observe_action, 0)
        assert not np.array_equal(one.belief, two.belief)
        two.reset()
        assert one.steps == 0
        decision = one.decide()
        assert one.steps == (0 if decision.is_terminate else 1)
        assert two.steps == 0

    def test_session_refine_override(self, simple_system):
        """A refine=False session never grows the shared bound set."""
        engine = BoundedPolicyEngine(simple_system.model, refine_online=True)
        frozen = engine.session(refine=False)
        frozen.reset()
        before = engine.bound_set.vectors.shape[0]
        frozen.observe(simple_system.observe_action, 0)
        frozen.decide()
        assert engine.bound_set.vectors.shape[0] == before


@st.composite
def interaction_seeds(draw):
    fault_pick = draw(st.integers(min_value=0, max_value=1))
    env_seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return fault_pick, env_seed


class TestPropertyParity:
    """Property-based: session/adapter parity over arbitrary episodes."""

    @settings(max_examples=25, deadline=None)
    @given(interaction_seeds())
    def test_episode_parity_any_seed(self, simple_system, seeds):
        fault_pick, env_seed = seeds
        model = simple_system.model
        fault = (simple_system.fault_a, simple_system.fault_b)[fault_pick]
        engine = BoundedPolicyEngine(model, refine_online=False)
        left = run_episode(
            engine.session(), RecoveryEnvironment(model, seed=env_seed), fault
        )
        right = run_episode(
            BoundedController(model, refine_online=False),
            RecoveryEnvironment(model, seed=env_seed),
            fault,
        )
        assert episode_fingerprint_bytes(left) == episode_fingerprint_bytes(right)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_belief_trajectory_parity(self, simple_system, env_seed):
        """Step-for-step: identical decisions and identical belief evolution
        between a raw session and the adapter, on the same episode."""
        model = simple_system.model
        engine = BoundedPolicyEngine(model, refine_online=False)
        session = engine.session()
        adapter = BoundedController(model, refine_online=False)
        env_a = RecoveryEnvironment(model, seed=env_seed)
        env_b = RecoveryEnvironment(model, seed=env_seed)
        env_a.inject(simple_system.fault_a)
        env_b.inject(simple_system.fault_a)
        session.reset()
        adapter.reset()
        session.observe(simple_system.observe_action, env_a.initial_observation())
        adapter.observe(simple_system.observe_action, env_b.initial_observation())
        for _ in range(30):
            np.testing.assert_array_equal(session.belief, adapter.belief)
            left, right = session.decide(), adapter.decide()
            assert (left.action, left.is_terminate) == (
                right.action,
                right.is_terminate,
            )
            if left.is_terminate:
                assert session.done and adapter.done
                break
            result_a = env_a.execute(left.action)
            result_b = env_b.execute(right.action)
            assert result_a.observation == result_b.observation
            session.observe(left.action, result_a.observation)
            adapter.observe(right.action, result_b.observation)
