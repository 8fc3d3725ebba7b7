"""The parallel campaign engine's determinism and merge contracts."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.bounded import BoundedPolicyEngine
from repro.controllers.branch_and_bound import BranchAndBoundPolicyEngine
from repro.controllers.heuristic import HeuristicPolicyEngine
from repro.controllers.most_likely import MostLikelyPolicyEngine
from repro.controllers.oracle import OraclePolicyEngine
from repro.exceptions import ModelError
from repro.obs.telemetry import Telemetry, activated
from repro.sim import parallel as parallel_module
from repro.sim.campaign import run_campaign
from repro.sim.metrics import (
    NONDETERMINISTIC_FIELDS,
    campaign_fingerprint,
    episode_fingerprint_bytes,
)
from repro.sim.parallel import (
    DEFAULT_CHUNK_SIZE,
    CampaignPlan,
    execute_plan,
    plan_campaign,
    seed_to_sequence,
)

INJECTIONS = 24
SEED = 11


def _engines(system):
    """One engine of every controller archetype (fresh per call)."""
    model = system.model
    return {
        "most_likely": MostLikelyPolicyEngine(model),
        "heuristic_d1": HeuristicPolicyEngine(model, depth=1),
        "bounded_d1": BoundedPolicyEngine(model, depth=1),
        "branch_and_bound": BranchAndBoundPolicyEngine(model, depth=1),
        "oracle": OraclePolicyEngine(model),
    }


def _faults(system):
    return np.array([system.fault_a, system.fault_b])


def _run(system, name, parallel, chunk_size=None):
    engine = _engines(system)[name]
    result = run_campaign(
        engine,
        fault_states=_faults(system),
        injections=INJECTIONS,
        seed=SEED,
        parallel=parallel,
        chunk_size=chunk_size,
    )
    return engine, result


class TestDeterminismContract:
    @pytest.mark.parametrize(
        "name",
        ["most_likely", "heuristic_d1", "bounded_d1", "branch_and_bound", "oracle"],
    )
    def test_parallel_matches_serial_per_controller(self, simple_system, name):
        """Every controller: serial and sharded runs agree episode-for-episode
        on every deterministic metric field."""
        _, serial = _run(simple_system, name, parallel=None)
        _, sharded = _run(simple_system, name, parallel=2)
        assert len(serial.episodes) == len(sharded.episodes) == INJECTIONS
        for left, right in zip(serial.episodes, sharded.episodes):
            assert episode_fingerprint_bytes(left) == episode_fingerprint_bytes(
                right
            )
        assert campaign_fingerprint(serial.episodes) == campaign_fingerprint(
            sharded.episodes
        )

    def test_worker_count_invariance(self, simple_system):
        """1, 2, and 3 workers produce one and the same fingerprint."""
        prints = {
            workers: campaign_fingerprint(
                _run(simple_system, "bounded_d1", parallel=workers)[1].episodes
            )
            for workers in (None, 1, 2, 3)
        }
        assert len(set(prints.values())) == 1

    def test_chunk_size_is_part_of_the_contract(self, simple_system):
        """Chunk boundaries bound refinement visibility, so changing the
        chunk size may legitimately change a stateful controller's metrics —
        but for a *stateless* controller it must not."""
        small = _run(simple_system, "most_likely", parallel=2, chunk_size=4)[1]
        large = _run(simple_system, "most_likely", parallel=2, chunk_size=16)[1]
        assert campaign_fingerprint(small.episodes) == campaign_fingerprint(
            large.episodes
        )

    def test_reproducible_across_calls(self, simple_system):
        first = _run(simple_system, "heuristic_d1", parallel=2)[1]
        second = _run(simple_system, "heuristic_d1", parallel=2)[1]
        assert campaign_fingerprint(first.episodes) == campaign_fingerprint(
            second.episodes
        )

    def test_algorithm_time_is_excluded_by_design(self):
        assert "algorithm_time" in NONDETERMINISTIC_FIELDS


class TestPlan:
    def test_chunk_layout_is_worker_independent(self, simple_system):
        engine = MostLikelyPolicyEngine(simple_system.model)
        plan = plan_campaign(
            engine, _faults(simple_system), injections=70, seed=3,
            chunk_size=32,
        )
        assert plan.chunks() == [(0, 32), (32, 64), (64, 70)]
        assert plan.injections == 70

    def test_default_chunk_size(self, simple_system):
        engine = MostLikelyPolicyEngine(simple_system.model)
        plan = plan_campaign(
            engine, _faults(simple_system), injections=100, seed=3
        )
        assert plan.chunk_size == DEFAULT_CHUNK_SIZE

    def test_seed_forms_agree(self, simple_system):
        """SeedSequence and int seeds give identical plans."""
        engine = MostLikelyPolicyEngine(simple_system.model)
        by_int = plan_campaign(
            engine, _faults(simple_system), injections=10, seed=5
        )
        by_sequence = plan_campaign(
            engine,
            _faults(simple_system),
            injections=10,
            seed=np.random.SeedSequence(5),
        )
        assert np.array_equal(by_int.faults, by_sequence.faults)

    def test_generator_seed_supported(self):
        sequence = seed_to_sequence(np.random.default_rng(0))
        assert isinstance(sequence, np.random.SeedSequence)

    def test_generator_seed_consumes_stream_deterministically(self):
        """Two generators at the same state yield the same root sequence —
        the entropy comes from the generator's stream, not from ambient
        randomness — and distinct states yield distinct sequences."""
        first = seed_to_sequence(np.random.default_rng(0))
        second = seed_to_sequence(np.random.default_rng(0))
        assert first.entropy == second.entropy
        other = seed_to_sequence(np.random.default_rng(1))
        assert other.entropy != first.entropy

    def test_generator_stays_usable_after_seeding(self):
        """seed_to_sequence draws from the generator but must not close or
        corrupt it."""
        generator = np.random.default_rng(0)
        seed_to_sequence(generator)
        value = generator.integers(0, 10)
        assert 0 <= value < 10

    def test_generator_entropy_has_four_words(self):
        sequence = seed_to_sequence(np.random.default_rng(0))
        assert len(sequence.entropy) == 4
        assert all(0 <= word < 2**63 for word in sequence.entropy)

    def test_seed_sequence_passthrough_is_identity(self):
        sequence = np.random.SeedSequence(42)
        assert seed_to_sequence(sequence) is sequence

    def test_negative_workers_rejected(self, simple_system):
        engine = MostLikelyPolicyEngine(simple_system.model)
        plan = plan_campaign(
            engine, _faults(simple_system), injections=4, seed=0
        )
        with pytest.raises(ValueError):
            execute_plan(plan, workers=-1)


class TestRefinementMerge:
    def test_caller_controller_receives_refinements(self, simple_system):
        """After a parallel campaign the template engine's bound set has
        grown — clones' refinements were folded back."""
        engine, _ = _run(simple_system, "bounded_d1", parallel=2)
        assert engine.bound_set.vectors.shape[0] > 1

    def test_merged_vectors_match_serial_budget(self, simple_system):
        """Parallel merge never admits duplicate hyperplanes: every vector in
        the merged set is unique."""
        engine, _ = _run(simple_system, "bounded_d1", parallel=3)
        vectors = engine.bound_set.vectors
        unique = {row.tobytes() for row in vectors}
        assert len(unique) == vectors.shape[0]

    def test_counters_merge_back(self, simple_system):
        """Diagnostic counters incremented on clones reach the caller's
        telemetry registry, and the clones' upper-bound points reach the
        caller's sawtooth bound, identically for any worker count: in one
        chunk and, with ``chunk_size=8``, in three."""
        names = [
            f"controller.{name}"
            for name in ("expanded_actions", "pruned_actions", "withheld_terminations")
        ]
        for chunk_size in (None, 8):
            registries, points = {}, {}
            for parallel in (None, 2):
                registries[parallel] = Telemetry()
                with activated(registries[parallel]):
                    engine, _ = _run(
                        simple_system,
                        "branch_and_bound",
                        parallel=parallel,
                        chunk_size=chunk_size,
                    )
                points[parallel] = np.column_stack(
                    [engine.upper.points, engine.upper.point_values]
                )
            serial, sharded = registries[None].counters, registries[2].counters
            assert [sharded[name] for name in names] == [serial[name] for name in names]
            assert serial["controller.pruned_actions"] > 0
            assert len(points[None]) > 0
            assert np.array_equal(points[2], points[None])

    def test_template_controller_not_consumed(self, simple_system):
        """The engine runs episodes on clones; the template is never mid-
        episode afterwards and can immediately run another campaign."""
        engine, _ = _run(simple_system, "bounded_d1", parallel=2)
        again = run_campaign(
            engine,
            fault_states=_faults(simple_system),
            injections=4,
            seed=1,
        )
        assert again.summary.episodes == 4


class TestMergeSemantics:
    def test_merge_rejects_duplicates_and_dominated(self):
        base = BoundVectorSet(np.array([0.0, 0.0]))
        added = base.merge(
            np.array(
                [
                    [0.0, 0.0],  # exact duplicate of the seed
                    [-1.0, -1.0],  # pointwise-dominated by the seed
                    [1.0, 1.0],  # genuinely better everywhere
                ]
            )
        )
        assert added == 1
        assert base.duplicates >= 1

    def test_merge_prune_after_drops_stale_vectors(self):
        base = BoundVectorSet(np.array([0.0, 0.0]))
        base.merge(np.array([[2.0, 2.0]]), prune_after=True)
        # The all-zero seed is now pointwise-dominated and pruned away.
        assert base.vectors.shape[0] == 1
        assert np.allclose(base.vectors[0], [2.0, 2.0])

    def test_merge_validates_shape(self):
        base = BoundVectorSet(np.array([0.0, 0.0]))
        with pytest.raises(ModelError):
            base.merge(np.array([[1.0, 2.0, 3.0]]))


class TestWorkerHandoff:
    """Pool workers run on the caller's plan: bit-identical fingerprints."""

    @staticmethod
    def _tiered_fingerprint(parallel, backend="sparse"):
        from repro.systems.tiered import build_tiered_system

        system = build_tiered_system(replicas=(2, 2, 2), backend=backend)
        engine = BoundedPolicyEngine(system.model, depth=1)
        result = run_campaign(
            engine,
            fault_states=system.zombie_states()[:2],
            injections=INJECTIONS,
            seed=SEED,
            parallel=parallel,
        )
        return campaign_fingerprint(result.episodes)

    def test_serial_and_four_workers_bit_identical(self):
        serial = self._tiered_fingerprint(None)
        assert self._tiered_fingerprint(4) == serial
        assert self._tiered_fingerprint(2) == serial

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="workers inherit the plan only under fork",
    )
    def test_workers_never_pickle_the_plan(self, monkeypatch):
        serial = self._tiered_fingerprint(None)

        def refuse(self, protocol):
            raise AssertionError("campaign plan was pickled")

        monkeypatch.setattr(CampaignPlan, "__reduce_ex__", refuse)
        assert self._tiered_fingerprint(2) == serial

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_spawn_context_matches_serial(self, monkeypatch, backend):
        """Platforms without fork pickle the plan once per worker."""
        monkeypatch.setattr(
            parallel_module,
            "_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        serial = self._tiered_fingerprint(None, backend)
        assert self._tiered_fingerprint(2, backend) == serial
