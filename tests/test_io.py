"""Tests for model and bound-set serialization."""

import numpy as np
import pytest

from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.vector_set import BoundVectorSet
from repro.exceptions import ModelError
from repro.io import (
    load_bound_set,
    load_pomdp,
    load_recovery_model,
    save_bound_set,
    save_pomdp,
    save_recovery_model,
)
from tests.test_pomdp_model import tiny_pomdp


class TestPOMDPRoundTrip:
    def test_arrays_and_labels_survive(self, tmp_path):
        original = tiny_pomdp(discount=0.9)
        path = tmp_path / "model.npz"
        save_pomdp(path, original)
        loaded = load_pomdp(path)
        assert np.array_equal(loaded.transitions, original.transitions)
        assert np.array_equal(loaded.observations, original.observations)
        assert np.array_equal(loaded.rewards, original.rewards)
        assert loaded.state_labels == original.state_labels
        assert loaded.action_labels == original.action_labels
        assert loaded.observation_labels == original.observation_labels
        assert loaded.discount == original.discount

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bounds.npz"
        save_bound_set(path, BoundVectorSet(np.array([-1.0, 0.0])))
        with pytest.raises(ModelError, match="expected pomdp"):
            load_pomdp(path)


class TestRecoveryModelRoundTrip:
    def test_unnotified_model(self, tmp_path, simple_system):
        path = tmp_path / "recovery.npz"
        save_recovery_model(path, simple_system.model)
        loaded = load_recovery_model(path)
        original = simple_system.model
        assert loaded.terminate_state == original.terminate_state
        assert loaded.terminate_action == original.terminate_action
        assert loaded.operator_response_time == original.operator_response_time
        assert np.array_equal(loaded.null_states, original.null_states)
        assert np.array_equal(loaded.durations, original.durations)
        assert np.array_equal(
            loaded.passive_actions, original.passive_actions
        )
        assert np.array_equal(
            loaded.pomdp.rewards, original.pomdp.rewards
        )

    def test_notified_model(self, tmp_path, simple_notified_system):
        path = tmp_path / "recovery.npz"
        save_recovery_model(path, simple_notified_system.model)
        loaded = load_recovery_model(path)
        assert loaded.recovery_notification
        assert loaded.terminate_state is None
        assert loaded.operator_response_time is None

    def test_emn_round_trip_preserves_behaviour(self, tmp_path, emn_system):
        """The reloaded model must produce the identical RA-Bound."""
        path = tmp_path / "emn.npz"
        save_recovery_model(path, emn_system.model)
        loaded = load_recovery_model(path)
        assert np.allclose(
            ra_bound_vector(loaded.pomdp),
            ra_bound_vector(emn_system.model.pomdp),
        )


class TestBoundSetRoundTrip:
    def test_vectors_usage_and_pinning_survive(self, tmp_path):
        bound_set = BoundVectorSet(np.array([-2.0, -3.0]), max_vectors=5)
        bound_set.add(np.array([-1.0, -4.0]))
        bound_set.value(np.array([1.0, 0.0]))  # bump a usage counter
        path = tmp_path / "bounds.npz"
        save_bound_set(path, bound_set)
        loaded = load_bound_set(path)
        assert np.array_equal(loaded.vectors, bound_set.vectors)
        assert np.array_equal(loaded._usage, bound_set._usage)
        assert loaded._pinned == bound_set._pinned
        assert loaded.max_vectors == 5

    def test_unlimited_storage_round_trip(self, tmp_path):
        bound_set = BoundVectorSet(np.array([-1.0, -1.0]))
        path = tmp_path / "bounds.npz"
        save_bound_set(path, bound_set)
        assert load_bound_set(path).max_vectors is None

    def test_loaded_set_evaluates_identically(self, tmp_path, simple_system):
        pomdp = simple_system.model.pomdp
        bound_set = BoundVectorSet(ra_bound_vector(pomdp))
        path = tmp_path / "bounds.npz"
        save_bound_set(path, bound_set)
        loaded = load_bound_set(path)
        rng = np.random.default_rng(0)
        for belief in rng.dirichlet(np.ones(pomdp.n_states), size=16):
            assert np.isclose(loaded.value(belief), bound_set.value(belief))


# -- v2 format: sparse backends, atomic writes, path normalization ----------

import dataclasses
import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.io import TEMP_SUFFIX, archive_path
from repro.linalg.backends import (
    densify_observations,
    densify_rewards,
    densify_transitions,
    sparsify_observations,
    sparsify_rewards,
    sparsify_transitions,
)
from repro.linalg.containers import StructuredRewards
from repro.recovery.model import RecoveryModel, convert_backend
from repro.systems.tiered import build_tiered_system
from tests.conftest import random_pomdp

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def _sparse_twin(pomdp):
    """The same POMDP with all three tensors in the sparse containers."""
    from repro.pomdp.model import POMDP

    return POMDP(
        transitions=sparsify_transitions(pomdp.transitions),
        observations=sparsify_observations(pomdp.observations),
        rewards=sparsify_rewards(pomdp.rewards),
        state_labels=pomdp.state_labels,
        action_labels=pomdp.action_labels,
        observation_labels=pomdp.observation_labels,
        discount=pomdp.discount,
    )


def _pomdp_digest(pomdp) -> str:
    """Backend-independent content fingerprint of a POMDP's tensors."""
    digest = hashlib.sha256()
    if pomdp.backend.is_sparse:
        tensors = (
            densify_transitions(pomdp.transitions),
            densify_observations(pomdp.observations),
            densify_rewards(pomdp.rewards),
        )
    else:
        tensors = (pomdp.transitions, pomdp.observations, pomdp.rewards)
    for tensor in tensors:
        digest.update(np.ascontiguousarray(tensor, dtype=np.float64).tobytes())
    digest.update(repr(pomdp.state_labels).encode())
    digest.update(repr(pomdp.discount).encode())
    return digest.hexdigest()


def _random_recovery_model(rng, sparse: bool) -> RecoveryModel:
    """A random (notification-style) recovery model for property tests."""
    pomdp = random_pomdp(rng)
    if sparse:
        pomdp = _sparse_twin(pomdp)
    null_states = np.zeros(pomdp.n_states, dtype=bool)
    null_states[int(rng.integers(pomdp.n_states))] = True
    return RecoveryModel(
        pomdp=pomdp,
        null_states=null_states,
        rate_rewards=-rng.uniform(0.0, 2.0, size=pomdp.n_states),
        durations=rng.uniform(0.0, 5.0, size=pomdp.n_actions),
        passive_actions=rng.integers(0, 2, size=pomdp.n_actions).astype(bool),
        recovery_notification=True,
    )


class TestPathNormalization:
    """save_*("foo") writes foo.npz; load_*("foo") must find it again."""

    def test_suffixless_pomdp_round_trip(self, tmp_path):
        pomdp = tiny_pomdp(discount=0.9)
        save_pomdp(tmp_path / "model", pomdp)
        assert (tmp_path / "model.npz").exists()
        loaded = load_pomdp(tmp_path / "model")
        assert np.array_equal(loaded.transitions, pomdp.transitions)

    def test_suffixless_recovery_model(self, tmp_path, simple_system):
        save_recovery_model(tmp_path / "recovery", simple_system.model)
        loaded = load_recovery_model(tmp_path / "recovery")
        assert loaded.terminate_state == simple_system.model.terminate_state

    def test_suffixless_bound_set(self, tmp_path):
        save_bound_set(tmp_path / "bounds", BoundVectorSet(np.array([-1.0])))
        assert len(load_bound_set(tmp_path / "bounds")) == 1

    def test_dotted_names_keep_their_npz_suffix(self, tmp_path):
        assert archive_path(tmp_path / "v1.2").name == "v1.2.npz"
        assert archive_path(tmp_path / "v1.2.npz").name == "v1.2.npz"


class TestSparseArchives:
    """v2 stores CSR/rank-one components natively — never densified."""

    def test_sparse_pomdp_round_trips_bit_identically(self, tmp_path):
        pomdp = _sparse_twin(random_pomdp(np.random.default_rng(3)))
        path = tmp_path / "sparse.npz"
        save_pomdp(path, pomdp)
        loaded = load_pomdp(path)
        assert loaded.backend.is_sparse
        original = pomdp.transitions
        restored = loaded.transitions
        assert np.array_equal(restored.base.data, original.base.data)
        assert np.array_equal(restored.base.indices, original.base.indices)
        assert np.array_equal(restored.base.indptr, original.base.indptr)
        assert _pomdp_digest(loaded) == _pomdp_digest(pomdp)

    def test_archive_holds_no_object_arrays(self, tmp_path):
        """The v1 failure mode: containers pickled as object arrays."""
        pomdp = _sparse_twin(random_pomdp(np.random.default_rng(4)))
        path = tmp_path / "sparse.npz"
        save_pomdp(path, pomdp)
        with np.load(path, allow_pickle=False) as archive:
            for name in archive.files:
                assert archive[name].dtype != object

    def test_sparse_emn_recovery_model_behaviour(self, tmp_path, emn_system):
        sparse_model = convert_backend(emn_system.model, "sparse")
        path = tmp_path / "emn_sparse.npz"
        save_recovery_model(path, sparse_model)
        loaded = load_recovery_model(path)
        assert loaded.pomdp.backend.is_sparse
        assert np.allclose(
            ra_bound_vector(loaded.pomdp),
            ra_bound_vector(emn_system.model.pomdp),
        )

    def test_reward_ndarray_beside_sparse_transitions_round_trips(self, tmp_path):
        """A sparse POMDP given its rewards as an ndarray holds them in the
        structured layout, so both archive writers accept it."""
        model = build_tiered_system((2, 2), backend="sparse").model
        rewards = densify_rewards(model.pomdp.rewards)
        pomdp = dataclasses.replace(model.pomdp, rewards=rewards)
        assert isinstance(pomdp.rewards, StructuredRewards)
        save_pomdp(tmp_path / "pomdp.npz", pomdp)
        save_recovery_model(
            tmp_path / "model.npz", dataclasses.replace(model, pomdp=pomdp)
        )
        for loaded in (
            load_pomdp(tmp_path / "pomdp.npz"),
            load_recovery_model(tmp_path / "model.npz").pomdp,
        ):
            assert _pomdp_digest(loaded) == _pomdp_digest(pomdp)
            assert np.array_equal(loaded.rewards.full(), rewards)

    def test_observation_overrides_survive(self, tmp_path, emn_system):
        sparse_model = convert_backend(emn_system.model, "sparse")
        path = tmp_path / "emn_sparse.npz"
        save_recovery_model(path, sparse_model)
        loaded = load_recovery_model(path)
        original = sparse_model.pomdp.observations
        restored = loaded.pomdp.observations
        assert sorted(restored.overrides) == sorted(original.overrides)
        for action in original.overrides:
            assert np.array_equal(
                restored.overrides[action].data,
                original.overrides[action].data,
            )


class TestV1Compatibility:
    """Archives written before the backend key stay readable."""

    def _write_v1(self, path, pomdp) -> None:
        with open(path, "wb") as stream:
            np.savez_compressed(
                stream,
                kind=np.array("pomdp"),
                version=np.array(1),
                transitions=pomdp.transitions,
                observations=pomdp.observations,
                rewards=pomdp.rewards,
                state_labels=np.array(list(pomdp.state_labels), dtype=np.str_),
                action_labels=np.array(
                    list(pomdp.action_labels), dtype=np.str_
                ),
                observation_labels=np.array(
                    list(pomdp.observation_labels), dtype=np.str_
                ),
                discount=np.array(pomdp.discount),
            )

    def test_v1_pomdp_loads(self, tmp_path):
        pomdp = tiny_pomdp(discount=0.9)
        path = tmp_path / "v1.npz"
        self._write_v1(path, pomdp)
        loaded = load_pomdp(path)
        assert np.array_equal(loaded.transitions, pomdp.transitions)
        assert loaded.state_labels == pomdp.state_labels

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "future.npz"
        with open(path, "wb") as stream:
            np.savez_compressed(
                stream, kind=np.array("pomdp"), version=np.array(99)
            )
        with pytest.raises(ModelError, match="archive format 99"):
            load_pomdp(path)


class TestAtomicWrites:
    """A crash mid-write must never corrupt a previously saved archive."""

    def _crashing_savez(self, monkeypatch, error):
        real = np.savez_compressed

        def partial_write(stream, **arrays):
            del arrays
            stream.write(b"PK\x03\x04 truncated archive")
            raise error

        monkeypatch.setattr(np, "savez_compressed", partial_write)
        return real

    def test_prior_archive_survives_crash(self, tmp_path, monkeypatch):
        path = tmp_path / "bounds.npz"
        good = BoundVectorSet(np.array([-2.0, -3.0]))
        save_bound_set(path, good)
        self._crashing_savez(monkeypatch, RuntimeError("disk full"))
        with pytest.raises(RuntimeError, match="disk full"):
            save_bound_set(path, BoundVectorSet(np.array([-9.0, -9.0])))
        monkeypatch.undo()
        assert np.array_equal(load_bound_set(path).vectors, good.vectors)
        assert list(tmp_path.glob(f"*{TEMP_SUFFIX}")) == []

    def test_interrupt_leaves_no_temp_files(self, tmp_path, monkeypatch):
        self._crashing_savez(monkeypatch, KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            save_bound_set(
                tmp_path / "bounds.npz", BoundVectorSet(np.array([-1.0]))
            )
        assert list(tmp_path.iterdir()) == []

    def test_model_save_is_atomic_too(self, tmp_path, monkeypatch, simple_system):
        path = tmp_path / "recovery.npz"
        save_recovery_model(path, simple_system.model)
        before = path.read_bytes()
        self._crashing_savez(monkeypatch, RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            save_recovery_model(path, simple_system.model)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert list(tmp_path.glob(f"*{TEMP_SUFFIX}")) == []


class TestHypothesisRoundTrips:
    """Property: every archive kind round-trips content-identically on
    both backends (the fingerprint the grid checkpoints relies on)."""

    @given(SEEDS, st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_pomdp_round_trip(self, tmp_path_factory, seed, sparse):
        rng = np.random.default_rng(seed)
        pomdp = random_pomdp(rng)
        if sparse:
            pomdp = _sparse_twin(pomdp)
        directory = tmp_path_factory.mktemp("pomdp")
        path = directory / "model.npz"
        save_pomdp(path, pomdp)
        loaded = load_pomdp(path)
        assert loaded.backend.is_sparse == sparse
        assert _pomdp_digest(loaded) == _pomdp_digest(pomdp)

    @given(SEEDS, st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_recovery_model_round_trip(self, tmp_path_factory, seed, sparse):
        rng = np.random.default_rng(seed)
        model = _random_recovery_model(rng, sparse=sparse)
        directory = tmp_path_factory.mktemp("recovery")
        path = directory / "model.npz"
        save_recovery_model(path, model)
        loaded = load_recovery_model(path)
        assert loaded.pomdp.backend.is_sparse == sparse
        assert _pomdp_digest(loaded.pomdp) == _pomdp_digest(model.pomdp)
        assert np.array_equal(loaded.null_states, model.null_states)
        assert np.array_equal(loaded.rate_rewards, model.rate_rewards)
        assert np.array_equal(loaded.durations, model.durations)
        assert np.array_equal(loaded.passive_actions, model.passive_actions)

    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_bound_set_round_trip(self, tmp_path_factory, seed):
        rng = np.random.default_rng(seed)
        vectors = -rng.uniform(0.0, 10.0, size=(int(rng.integers(1, 6)), 4))
        bound_set = BoundVectorSet(vectors)
        directory = tmp_path_factory.mktemp("bounds")
        path = directory / "bounds.npz"
        save_bound_set(path, bound_set)
        loaded = load_bound_set(path)
        assert loaded.vectors.tobytes() == bound_set.vectors.tobytes()


# -- certification memoisation (the .cert.json sidecar) ---------------------

import json

from repro.exceptions import AnalysisError
from repro.io import certificate_path, model_fingerprint
from repro.obs.telemetry import Telemetry, activated


class TestCertificationCache:
    def _save(self, tmp_path, system):
        bound_set = BoundVectorSet(ra_bound_vector(system.model.pomdp))
        path = tmp_path / "bounds.npz"
        save_bound_set(path, bound_set)
        return path, bound_set

    def test_first_load_writes_sidecar(self, tmp_path, simple_system):
        path, _ = self._save(tmp_path, simple_system)
        sidecar = certificate_path(path)
        assert not sidecar.exists()
        load_bound_set(path, model=simple_system.model)
        assert sidecar.exists()
        record = json.loads(sidecar.read_text())
        assert record["schema"] == "repro-cert/v1"
        assert record["model_sha256"] == model_fingerprint(simple_system.model)

    def test_second_load_skips_certification(self, tmp_path, simple_system):
        path, _ = self._save(tmp_path, simple_system)
        telemetry = Telemetry()
        with activated(telemetry):
            load_bound_set(path, model=simple_system.model)
            load_bound_set(path, model=simple_system.model)
        assert telemetry.process_counters["io.certify_runs"] == 1
        assert telemetry.process_counters["io.certify_skipped"] == 1

    def test_recertify_forces_the_sweep(self, tmp_path, simple_system):
        path, _ = self._save(tmp_path, simple_system)
        telemetry = Telemetry()
        with activated(telemetry):
            load_bound_set(path, model=simple_system.model)
            load_bound_set(path, model=simple_system.model, recertify=True)
        assert telemetry.process_counters["io.certify_runs"] == 2

    def test_archive_change_invalidates_sidecar(self, tmp_path, simple_system):
        path, bound_set = self._save(tmp_path, simple_system)
        load_bound_set(path, model=simple_system.model)
        # Bump a usage counter: same (sound) vectors, different archive bytes.
        bound_set.value(np.ones(bound_set.vectors.shape[1]) / bound_set.vectors.shape[1])
        save_bound_set(path, bound_set)  # new content digest
        telemetry = Telemetry()
        with activated(telemetry):
            load_bound_set(path, model=simple_system.model)
        assert telemetry.process_counters["io.certify_runs"] == 1

    def test_model_change_invalidates_sidecar(
        self, tmp_path, simple_system, simple_discounted_system
    ):
        path, _ = self._save(tmp_path, simple_system)
        load_bound_set(path, model=simple_system.model)
        telemetry = Telemetry()
        with activated(telemetry):
            # Same archive, different model: the memo must not apply (and
            # certification itself still runs — the RA-Bound of the
            # undiscounted model is sound for the discounted one too).
            load_bound_set(path, model=simple_discounted_system.model)
        assert telemetry.process_counters["io.certify_runs"] == 1

    def test_corrupt_sidecar_recertifies(self, tmp_path, simple_system):
        path, _ = self._save(tmp_path, simple_system)
        load_bound_set(path, model=simple_system.model)
        certificate_path(path).write_text("{not json")
        telemetry = Telemetry()
        with activated(telemetry):
            load_bound_set(path, model=simple_system.model)
        assert telemetry.process_counters["io.certify_runs"] == 1

    def test_unsound_archive_still_raises(self, tmp_path, simple_system):
        """A failing certification is never memoised."""
        pomdp = simple_system.model.pomdp
        bad = BoundVectorSet(np.full(pomdp.n_states, 1e6))
        path = tmp_path / "bad.npz"
        save_bound_set(path, bad)
        with pytest.raises(AnalysisError):
            load_bound_set(path, model=simple_system.model)
        assert not certificate_path(path).exists()
        with pytest.raises(AnalysisError):
            load_bound_set(path, model=simple_system.model)

    def test_no_model_no_sidecar(self, tmp_path, simple_system):
        path, _ = self._save(tmp_path, simple_system)
        load_bound_set(path)
        assert not certificate_path(path).exists()

    def test_fingerprint_is_stable_and_model_sensitive(
        self, simple_system, simple_discounted_system
    ):
        left = model_fingerprint(simple_system.model)
        assert left == model_fingerprint(simple_system.model)
        assert left != model_fingerprint(simple_discounted_system.model)


class TestLabelsReadBack:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_loaded_labels_are_equal_str(self, tmp_path, simple_system, sparse):
        from repro.recovery.model import convert_backend

        model = simple_system.model
        if sparse:
            model = convert_backend(model, "sparse")
        path = tmp_path / "model.npz"
        save_recovery_model(path, model)
        loaded = load_recovery_model(path).pomdp
        for kind in ("state_labels", "action_labels", "observation_labels"):
            labels = getattr(loaded, kind)
            assert type(labels) is tuple
            assert all(type(label) is str for label in labels)
            assert labels == getattr(model.pomdp, kind)
        last = model.pomdp.n_states - 1
        assert loaded.state_index(model.pomdp.state_labels[last]) == last
