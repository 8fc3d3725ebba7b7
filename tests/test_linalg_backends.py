"""Dense vs sparse backend agreement (:mod:`repro.linalg`).

The backend abstraction's contract is *observational equivalence*: every
belief-side quantity the controller consumes — belief updates, tree
decisions, refinement candidates, RA-Bound vectors, episode costs — must be
the same whether the model is stored as dense tensors or as the sparse
containers.  Hypothesis drives random POMDPs through both representations;
the shipped systems pin the contract at the campaign-fingerprint level,
where a single flipped decision anywhere in 30+ episodes would change the
hash.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.passes import analyze
from repro.bounds.incremental import (
    BACKUP_TIE_EPSILON,
    _first_within,
    incremental_update,
)
from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.bounded import BoundedPolicyEngine
from repro.exceptions import ModelError
from repro.linalg.backends import (
    densify_observations,
    densify_rewards,
    densify_transitions,
    resolve_backend,
    sparsify_observations,
    sparsify_rewards,
    sparsify_transitions,
)
from repro.pomdp.belief import uniform_belief, update_belief
from repro.pomdp.cache import MAX_CACHE_BYTES_ENV
from repro.pomdp.model import POMDP
from repro.pomdp.tree import DECISION_TIE_EPSILON, _best_action, expand_tree
from repro.recovery.model import (
    convert_backend,
    make_null_absorbing,
    with_termination_action,
)
from repro.sim.campaign import run_campaign
from repro.sim.metrics import campaign_fingerprint
from repro.systems.emn import MONITOR_DURATION, build_emn_system
from repro.systems.faults import FaultKind
from repro.systems.simple import build_simple_system
from repro.systems.tiered import build_tiered_system
from tests.conftest import random_pomdp
from tests.test_systems_tiered import reference_tiered_system

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)

#: Cross-backend numeric agreement: dense and sparse paths reorder
#: floating-point sums, so quantities match to accumulation error, not
#: bit-for-bit.
TOL = 1e-12


def _sparse_twin(pomdp: POMDP) -> POMDP:
    """The same POMDP with all three tensors moved to the sparse containers."""
    return POMDP(
        transitions=sparsify_transitions(pomdp.transitions),
        observations=sparsify_observations(pomdp.observations),
        rewards=sparsify_rewards(pomdp.rewards),
        state_labels=pomdp.state_labels,
        action_labels=pomdp.action_labels,
        observation_labels=pomdp.observation_labels,
        discount=pomdp.discount,
    )


class TestContainerAlgebra:
    """Sparse containers reproduce the dense tensors entry for entry."""

    def _pomdp(self, seed=7):
        return random_pomdp(np.random.default_rng(seed), n_states=6, n_actions=4)

    def test_round_trip_is_lossless(self):
        pomdp = self._pomdp()
        sparse = _sparse_twin(pomdp)
        np.testing.assert_array_equal(
            densify_transitions(sparse.transitions), pomdp.transitions
        )
        np.testing.assert_array_equal(
            densify_observations(sparse.observations), pomdp.observations
        )
        np.testing.assert_array_equal(
            densify_rewards(sparse.rewards), pomdp.rewards
        )

    @pytest.mark.parametrize("name", ["simple", "emn", "tiered-probe-free"])
    def test_convert_backend_round_trip_is_byte_identical(self, name):
        """Dense -> sparse -> dense keeps every byte, sign bits included:
        the simple system and the probe-free tiered model carry ``-0.0``
        rewards that a plain ``csr_matrix`` conversion would drop."""
        dense = {
            "simple": lambda: build_simple_system().model,
            "emn": lambda: build_emn_system().model,
            "tiered-probe-free": lambda: build_tiered_system(
                (3, 2), probe_cost=0.0, backend="dense"
            ).model,
        }[name]()
        back = convert_backend(convert_backend(dense, "sparse"), "dense")
        for field in ("transitions", "observations", "rewards"):
            expected = getattr(dense.pomdp, field)
            actual = getattr(back.pomdp, field)
            assert actual.dtype == expected.dtype, field
            assert actual.tobytes() == expected.tobytes(), field

    def test_transition_accessors_match_dense(self):
        pomdp = self._pomdp()
        sparse = _sparse_twin(pomdp)
        transitions = sparse.transitions
        rng = np.random.default_rng(11)
        values = rng.normal(size=pomdp.n_states)
        belief = rng.dirichlet(np.ones(pomdp.n_states))
        for action in range(pomdp.n_actions):
            dense_matrix = pomdp.transitions[action]
            for state in range(pomdp.n_states):
                np.testing.assert_allclose(
                    transitions.row(action, state),
                    dense_matrix[state],
                    atol=TOL,
                )
                np.testing.assert_allclose(
                    transitions.action_column(action, state),
                    dense_matrix[:, state],
                    atol=TOL,
                )
            np.testing.assert_allclose(
                transitions.matvec(action, values),
                dense_matrix @ values,
                atol=TOL,
            )
            np.testing.assert_allclose(
                transitions.predict(belief, action),
                belief @ dense_matrix,
                atol=TOL,
            )

    def test_structural_accessors(self):
        pomdp = self._pomdp()
        transitions = _sparse_twin(pomdp).transitions
        for state in range(pomdp.n_states):
            np.testing.assert_allclose(
                transitions.self_loop_values(state),
                pomdp.transitions[:, state, state],
                atol=TOL,
            )
        # A random dense model has no structural zeros, so the effective
        # non-zero count is exactly the dense entry count.
        assert transitions.effective_nnz() == pomdp.transitions.size
        np.testing.assert_allclose(
            np.asarray(transitions.mean_matrix().todense()),
            pomdp.transitions.mean(axis=0),
            atol=TOL,
        )
        # union_support is documented as conservative: it never drops an
        # edge any action has, but may keep extras (masked base rows).
        union = np.asarray(transitions.union_support().todense())
        assert np.all(union >= pomdp.transitions.max(axis=0) - TOL)

    def test_reward_scalar_is_bit_exact(self):
        """Overridden entries return the stored value bit-for-bit (episode
        costs feed campaign fingerprints, so drift would change hashes)."""
        pomdp = self._pomdp()
        rewards = _sparse_twin(pomdp).rewards
        for action in range(pomdp.n_actions):
            for state in range(pomdp.n_states):
                assert rewards.scalar(action, state) == pomdp.rewards[action, state]

    def test_resolve_backend_modes(self):
        assert resolve_backend("dense", 10, density=0.01).is_sparse is False
        assert resolve_backend("sparse", 10, density=1.0).is_sparse is True
        assert resolve_backend("auto", 500_000, density=1e-5).is_sparse is True
        with pytest.raises(ModelError):
            resolve_backend("ragged", 10, density=0.5)


#: The three sparse containers and the densifier that checks each.
CONTAINER_DENSIFIERS = {
    "transitions": densify_transitions,
    "observations": densify_observations,
    "rewards": densify_rewards,
}


class TestContainerCopies:
    """Default pickling and ``deepcopy`` rebuild value-identical containers.

    Campaign chunks deep-copy engines, and spawned campaign workers
    unpickle the model, so both must reproduce every entry.
    """

    @pytest.fixture(scope="class")
    def pomdp(self):
        return build_tiered_system(replicas=(2, 2, 2), backend="sparse").model.pomdp

    @staticmethod
    def _assert_same_values(name, clone, original):
        assert type(clone) is type(original) and clone is not original
        densify = CONTAINER_DENSIFIERS[name]
        np.testing.assert_array_equal(densify(clone), densify(original))

    @pytest.mark.parametrize("name", sorted(CONTAINER_DENSIFIERS))
    def test_pickle_round_trip(self, pomdp, name):
        original = getattr(pomdp, name)
        self._assert_same_values(
            name, pickle.loads(pickle.dumps(original)), original
        )

    @pytest.mark.parametrize("name", sorted(CONTAINER_DENSIFIERS))
    def test_deepcopy_round_trip(self, pomdp, name):
        original = getattr(pomdp, name)
        self._assert_same_values(name, copy.deepcopy(original), original)


class TestRandomModelAgreement:
    """Hypothesis: both backends agree on every controller-facing quantity."""

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_belief_updates_agree(self, seed):
        rng = np.random.default_rng(seed)
        dense = random_pomdp(rng)
        sparse = _sparse_twin(dense)
        belief = rng.dirichlet(np.ones(dense.n_states))
        for action in range(dense.n_actions):
            for observation in range(dense.n_observations):
                posterior_dense = update_belief(dense, belief, action, observation)
                posterior_sparse = update_belief(sparse, belief, action, observation)
                np.testing.assert_allclose(
                    posterior_sparse, posterior_dense, atol=TOL
                )

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_ra_bound_vectors_agree(self, seed):
        rng = np.random.default_rng(seed)
        dense = random_pomdp(rng)
        sparse = _sparse_twin(dense)
        np.testing.assert_allclose(
            ra_bound_vector(sparse), ra_bound_vector(dense), atol=1e-9
        )

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_tree_decisions_agree(self, seed):
        """Same root action AND same root value on both backends — the
        tolerance tie-break makes the action robust to solver noise."""
        rng = np.random.default_rng(seed)
        dense = random_pomdp(rng)
        sparse = _sparse_twin(dense)
        belief = rng.dirichlet(np.ones(dense.n_states))
        for depth in (1, 2):
            decision_dense = expand_tree(
                dense, belief, depth, BoundVectorSet(ra_bound_vector(dense))
            )
            decision_sparse = expand_tree(
                sparse, belief, depth, BoundVectorSet(ra_bound_vector(sparse))
            )
            assert decision_sparse.action == decision_dense.action
            assert decision_sparse.value == pytest.approx(
                decision_dense.value, abs=1e-9
            )

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_refinement_candidates_agree(self, seed):
        """incremental_update picks the same hyperplane and action — the
        backup tie-break keeps structurally-tied candidates aligned."""
        rng = np.random.default_rng(seed)
        dense = random_pomdp(rng)
        sparse = _sparse_twin(dense)
        vectors = np.vstack(
            [ra_bound_vector(dense), rng.uniform(-3.0, -1.0, dense.n_states)]
        )
        belief = rng.dirichlet(np.ones(dense.n_states))
        vector_dense, action_dense = incremental_update(dense, vectors, belief)
        vector_sparse, action_sparse = incremental_update(sparse, vectors, belief)
        assert action_sparse == action_dense
        np.testing.assert_allclose(vector_sparse, vector_dense, atol=1e-9)


class TestTieBreaks:
    """The tolerance tie-breaks that make cross-backend determinism possible."""

    def test_best_action_prefers_lowest_index_within_tolerance(self):
        values = np.array([-2.0, -1.0 - DECISION_TIE_EPSILON / 2, -1.0])
        assert _best_action(values) == 1
        assert _best_action(np.array([-2.0, -1.0 - 1e-6, -1.0])) == 2

    def test_first_within_prefers_lowest_index_within_tolerance(self):
        scores = np.array([-1.0 - BACKUP_TIE_EPSILON / 2, -1.0, -5.0])
        assert _first_within(scores) == 0
        assert _first_within(np.array([-1.0 - 1e-6, -1.0, -5.0])) == 1


class TestAugmentationParity:
    """Figure 2 rewiring produces identical models on both backends: the
    dense model is augmented through a lossless conversion to the same
    containers its sparse twin starts from."""

    def _recovery_pieces(self, seed=3):
        rng = np.random.default_rng(seed)
        pomdp = random_pomdp(rng, n_states=5, n_actions=3)
        null_states = np.zeros(5, dtype=bool)
        null_states[0] = True
        rate = rng.uniform(0.0, 1.0, size=5)
        rate[0] = 0.0
        return pomdp, null_states, rate

    def test_make_null_absorbing_parity(self):
        pomdp, null_states, _ = self._recovery_pieces()
        dense = make_null_absorbing(pomdp, null_states)
        sparse = make_null_absorbing(_sparse_twin(pomdp), null_states)
        np.testing.assert_allclose(
            densify_transitions(sparse.transitions), dense.transitions, atol=TOL
        )
        np.testing.assert_allclose(
            densify_rewards(sparse.rewards), dense.rewards, atol=TOL
        )

    def test_with_termination_action_parity(self):
        pomdp, null_states, rate = self._recovery_pieces()
        dense, s_t_dense, a_t_dense = with_termination_action(
            pomdp, null_states, rate, operator_response_time=3600.0
        )
        sparse, s_t_sparse, a_t_sparse = with_termination_action(
            _sparse_twin(pomdp), null_states, rate, operator_response_time=3600.0
        )
        assert (s_t_sparse, a_t_sparse) == (s_t_dense, a_t_dense)
        np.testing.assert_allclose(
            densify_transitions(sparse.transitions), dense.transitions, atol=TOL
        )
        np.testing.assert_allclose(
            densify_observations(sparse.observations), dense.observations, atol=TOL
        )
        np.testing.assert_allclose(
            densify_rewards(sparse.rewards), dense.rewards, atol=TOL
        )


class TestShippedSystems:
    """The tiered and EMN builders honour the backend contract end to end."""

    def test_tiered_sparse_build_matches_dense(self):
        """Densifying the sparse build reproduces the declarative dense
        reference bit for bit, signed zeros included."""
        expected = reference_tiered_system((2, 2, 2)).model.pomdp
        sparse = build_tiered_system(replicas=(2, 2, 2), backend="sparse").model
        assert sparse.pomdp.backend.is_sparse
        for actual, reference in (
            (densify_transitions(sparse.pomdp.transitions), expected.transitions),
            (densify_observations(sparse.pomdp.observations), expected.observations),
            (densify_rewards(sparse.pomdp.rewards), expected.rewards),
        ):
            np.testing.assert_array_equal(actual, reference)
            np.testing.assert_array_equal(np.signbit(actual), np.signbit(reference))

    def test_convert_backend_round_trip(self):
        dense = build_tiered_system(replicas=(2, 2, 2), backend="dense").model
        back = convert_backend(convert_backend(dense, "sparse"), "dense")
        np.testing.assert_array_equal(back.pomdp.transitions, dense.pomdp.transitions)
        np.testing.assert_array_equal(
            back.pomdp.observations, dense.pomdp.observations
        )
        np.testing.assert_array_equal(back.pomdp.rewards, dense.pomdp.rewards)

    @pytest.mark.parametrize("replicas_per_tier", [20, 50])
    def test_tiered_decisions_match(self, replicas_per_tier, monkeypatch):
        """The bounded depth-1 decision at the uniform fault belief.  Both
        backends expand it level by level through the joint-factor cache;
        with the cache declined, the sparse side runs the fused depth-1
        kernel instead.  All three must choose the same action at the same
        value."""
        from repro.obs.telemetry import session

        def decide(backend):
            model = build_tiered_system(
                replicas=(replicas_per_tier,) * 3, backend=backend
            ).model
            engine = BoundedPolicyEngine(model, depth=1, refine_online=False)
            recovery = engine.session()
            recovery.reset(
                initial_belief=uniform_belief(
                    model.pomdp, support=model.fault_states
                )
            )
            with session() as telemetry:
                decision = recovery.decide()
            return decision, telemetry.counters

        dense, _ = decide("dense")
        cached, counters = decide("sparse")
        assert counters["tree.expansions.generic"] == 1
        monkeypatch.setenv(MAX_CACHE_BYTES_ENV, "0")
        fused, counters = decide("sparse")
        assert counters["tree.expansions.fused_sparse"] == 1
        for decision in (cached, fused):
            assert decision.action == dense.action
            assert decision.value == pytest.approx(dense.value, abs=1e-9)

    def test_sparse_builds_are_diagnostic_clean(self):
        """The analyzer runs its full pass suite over sparse models and
        finds nothing wrong (informational findings allowed)."""
        for model in (
            build_tiered_system(replicas=(2, 2, 2), backend="sparse").model,
            build_emn_system(backend="sparse").model,
        ):
            report = analyze(model)
            assert not report.errors, [str(d) for d in report.errors]
            assert not report.warnings, [str(d) for d in report.warnings]


class TestCampaignFingerprints:
    """The ISSUE's core invariant: identical campaign hashes across
    backends, serial and parallel."""

    @staticmethod
    def _fingerprint(backend: str, parallel: int | None) -> str:
        from repro.experiments.table1 import make_controller

        system = build_emn_system(backend=backend)
        controller = make_controller("bounded (depth 1)", system)
        result = run_campaign(
            controller,
            fault_states=system.fault_states(FaultKind.ZOMBIE),
            injections=30,
            seed=2026,
            monitor_tail=MONITOR_DURATION,
            parallel=parallel,
        )
        return campaign_fingerprint(result.episodes)

    def test_serial_fingerprints_match(self):
        assert self._fingerprint("dense", None) == self._fingerprint(
            "sparse", None
        )

    @pytest.mark.slow
    def test_parallel_fingerprints_match(self):
        reference = self._fingerprint("dense", None)
        assert self._fingerprint("dense", 4) == reference
        assert self._fingerprint("sparse", 4) == reference


class TestOnlineScalabilitySmoke:
    """`scalability --online` at smoke scale: sparse build, online decisions."""

    def test_run_online_small(self):
        from repro.experiments.scalability import format_online, run_online

        result = run_online(replicas=(40, 40, 40), seed=2006)
        assert result.n_states == 2 + 2 * 3 * 40
        assert result.episode_steps >= 1
        assert result.episode_recovered or result.episode_terminated
        report = format_online(result)
        assert "Bounded controller online" in report
        assert f"|S|={result.n_states:,}" in report
