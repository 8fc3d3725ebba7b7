"""Shared-memory model handoff (:mod:`repro.linalg.shm`)."""

from __future__ import annotations

import copy
import gc
import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from repro.linalg import shm
from repro.linalg.backends import (
    densify_observations,
    densify_rewards,
    densify_transitions,
)
from repro.linalg.containers import (
    SparseObservations,
    SparseTransitions,
    StructuredRewards,
)
from repro.systems.tiered import build_tiered_system


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test starts and ends with a clean /dev/shm."""
    assert shm.leaked_segments() == []
    yield
    gc.collect()
    shm.detach_all()
    assert shm.leaked_segments() == []


@pytest.fixture()
def pomdp():
    return build_tiered_system(replicas=(2, 2, 2), backend="sparse").model.pomdp


class TestSharedArena:
    def test_share_array_round_trip(self):
        arena = shm.SharedArena()
        try:
            array = np.arange(12, dtype=np.float64).reshape(3, 4)
            array_handle = arena.share_array(array)
            assert array_handle.segment.startswith(shm.SEGMENT_PREFIX)
            view = shm._attach(array_handle)
            np.testing.assert_array_equal(view, array)
            del view
        finally:
            gc.collect()
            shm.detach_all()
            arena.close()

    def test_share_csr_round_trip(self):
        arena = shm.SharedArena()
        try:
            matrix = sp.csr_matrix(np.eye(4) + np.diag(np.ones(3), k=1))
            rebuilt = shm._attach_csr(arena.share_csr(matrix))
            assert rebuilt.has_canonical_format
            np.testing.assert_array_equal(rebuilt.toarray(), matrix.toarray())
            del rebuilt
        finally:
            gc.collect()
            shm.detach_all()
            arena.close()

    def test_total_bytes_accounts_every_segment(self):
        arena = shm.SharedArena()
        try:
            arena.share_array(np.zeros(1000))
            assert arena.total_bytes >= 8000
            assert len(arena.segment_names) == 1
        finally:
            arena.close()

    def test_close_is_idempotent_and_unlinks(self):
        arena = shm.SharedArena()
        arena.share_array(np.zeros(8))
        assert shm.leaked_segments()  # visible while the arena is open
        arena.close()
        arena.close()
        assert shm.leaked_segments() == []

    def test_closed_arena_rejects_new_segments(self):
        arena = shm.SharedArena()
        arena.close()
        with pytest.raises(RuntimeError):
            arena.share_array(np.zeros(4))

    def test_nested_exports_rejected(self):
        arena = shm.SharedArena()
        try:
            with shm.exporting(arena):
                with pytest.raises(RuntimeError):
                    with shm.exporting(shm.SharedArena()):
                        pass  # pragma: no cover
        finally:
            arena.close()


class TestContainerRoundTrip:
    def test_pickle_through_arena_rebuilds_identical_model(self, pomdp):
        arena = shm.SharedArena()
        try:
            with shm.exporting(arena):
                payload = pickle.dumps(
                    (pomdp.transitions, pomdp.observations, pomdp.rewards)
                )
            # The payload carries handles, not buffers: it must be far
            # smaller than the raw pickle of the same containers.
            raw = pickle.dumps(
                (pomdp.transitions, pomdp.observations, pomdp.rewards)
            )
            assert len(payload) < len(raw) / 2
            transitions, observations, rewards = pickle.loads(payload)
            assert isinstance(transitions, SparseTransitions)
            assert isinstance(observations, SparseObservations)
            assert isinstance(rewards, StructuredRewards)
            np.testing.assert_array_equal(
                densify_transitions(transitions),
                densify_transitions(pomdp.transitions),
            )
            np.testing.assert_array_equal(
                densify_observations(observations),
                densify_observations(pomdp.observations),
            )
            np.testing.assert_array_equal(
                densify_rewards(rewards), densify_rewards(pomdp.rewards)
            )
            del transitions, observations, rewards
        finally:
            gc.collect()
            shm.detach_all()
            arena.close()

    def test_handles_are_memoised_per_container(self, pomdp):
        arena = shm.SharedArena()
        try:
            with shm.exporting(arena):
                pickle.dumps((pomdp.transitions, pomdp.transitions))
                n_segments = len(arena.segment_names)
                pickle.dumps(pomdp.transitions)
            assert len(arena.segment_names) == n_segments
        finally:
            arena.close()

    def test_pickling_outside_export_is_unchanged(self, pomdp):
        """No active arena: containers pickle their buffers as before and
        create no shared-memory segments."""
        clone = pickle.loads(pickle.dumps(pomdp.transitions))
        np.testing.assert_array_equal(
            densify_transitions(clone), densify_transitions(pomdp.transitions)
        )
        assert shm.leaked_segments() == []

    def test_deepcopy_outside_export_is_unchanged(self, pomdp):
        clone = copy.deepcopy(pomdp.observations)
        np.testing.assert_array_equal(
            densify_observations(clone),
            densify_observations(pomdp.observations),
        )
        assert shm.leaked_segments() == []

    def test_rebuild_rejects_unknown_handles(self):
        with pytest.raises(TypeError):
            shm.rebuild(object())


class TestPlanExport:
    def _plan(self, backend):
        from repro.controllers.bounded import BoundedPolicyEngine
        from repro.sim.parallel import plan_campaign

        system = build_tiered_system(replicas=(2, 2, 2), backend=backend)
        engine = BoundedPolicyEngine(system.model, depth=1)
        faults = system.zombie_states()[:2]
        return plan_campaign(engine, faults, injections=4, seed=3)

    def test_sparse_plan_exports_an_arena(self):
        from repro.sim.parallel import export_plan

        plan = self._plan("sparse")
        arena, payload = export_plan(plan)
        try:
            assert arena is not None
            assert arena.total_bytes > 0
            loaded = pickle.loads(payload)
            assert loaded.model.pomdp.backend.is_sparse
            del loaded
        finally:
            gc.collect()
            shm.detach_all()
            if arena is not None:
                arena.close()

    def test_dense_plan_skips_the_arena(self):
        from repro.sim.parallel import export_plan

        plan = self._plan("dense")
        arena, payload = export_plan(plan)
        assert arena is None
        assert pickle.loads(payload).model.pomdp.n_states == plan.model.pomdp.n_states

    def test_handoff_bytes_shrink_with_shared_memory(self):
        from repro.sim.parallel import model_handoff_bytes

        plan = self._plan("sparse")
        handoff = model_handoff_bytes(plan)
        assert handoff < len(pickle.dumps(plan))
        assert shm.leaked_segments() == []
