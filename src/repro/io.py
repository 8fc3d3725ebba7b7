"""Crash-safe serialization for models and bound sets.

Section 4.3 positions the RA-Bound computation and much of the refinement
as *off-line* work; a production controller therefore needs to persist what
it computed — the model it was built for and the bound hyperplanes it has
accumulated — and reload them at startup.  Everything serialises to a
single ``.npz`` archive (arrays) with labels stored as fixed-width unicode
arrays, so an archive is self-contained and loadable without pickle.

**Format v2** stores sparse-backend models natively: the CSR component
arrays (``data`` / ``indices`` / ``indptr`` / ``shape``) of
:class:`~repro.linalg.containers.SparseTransitions` /
:class:`~repro.linalg.containers.SparseObservations` and the rank-one
components of :class:`~repro.linalg.containers.StructuredRewards` are
written as first-class archive entries, so a 300k-state model round-trips
bit-for-bit without ever densifying.  v1 archives (dense tensors only)
remain readable.

**Crash safety**: every save writes to a sibling temporary file and
``os.replace``-s it into place, so an interrupted write can never corrupt
a previously saved archive — the worst case is a leftover ``*.tmp`` file,
which interrupted saves clean up on any Python-level failure and which
:meth:`repro.experiments.store.ResultsStore.sweep_temp` removes after a
hard kill.

**Path normalization**: ``numpy.savez_compressed`` silently appends
``.npz`` to suffixless paths; the loaders here apply the same
normalization, so ``save_*(path)`` followed by ``load_*(path)`` round-trips
for any spelling of ``path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.bounds.vector_set import BoundVectorSet
from repro.exceptions import ModelError
from repro.linalg.containers import (
    SparseObservations,
    SparseTransitions,
    StructuredRewards,
)
from repro.obs.telemetry import active as telemetry_active
from repro.pomdp.model import POMDP
from repro.recovery.model import RecoveryModel

#: Archive format version; bumped on layout changes.  v2 adds native CSR
#: storage for sparse-backend models and is what every save produces.
FORMAT_VERSION = 2

#: Versions :func:`load_pomdp` / :func:`load_recovery_model` /
#: :func:`load_bound_set` accept.  v1 archives are dense-only and keep the
#: exact key layout this module wrote before v2.
READABLE_VERSIONS = (1, 2)

#: Suffix of in-flight temporary files (see :func:`_atomic_savez`).
TEMP_SUFFIX = ".tmp"

#: Schema tag of the certification sidecar (see :func:`certificate_path`).
CERT_SCHEMA = "repro-cert/v1"

#: Suffix appended to the archive path for the certification sidecar.
CERT_SUFFIX = ".cert.json"


def _labels_array(labels: tuple[str, ...]) -> np.ndarray:
    return np.array(list(labels), dtype=np.str_)


def _labels_tuple(array: np.ndarray) -> tuple[str, ...]:
    # One C-level conversion: 0.03 s for the 450,003 labels of the
    # 300,002-state archive, against 0.12 s for str() per label.
    return tuple(array.astype(np.str_, copy=False).tolist())


def archive_path(path) -> Path:
    """``path`` with the ``.npz`` suffix ``numpy.savez`` would give it.

    Both the save and the load side normalise through this helper, fixing
    the historical asymmetry where ``save_pomdp("foo")`` silently wrote
    ``foo.npz`` but ``load_pomdp("foo")`` raised ``FileNotFoundError``.
    """
    path = Path(os.fspath(path))
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _atomic_savez(path, **arrays) -> Path:
    """``np.savez_compressed`` into ``path`` via a sibling temp file.

    The archive is fully written and fsynced under a temporary name in the
    target directory, then atomically renamed over ``path`` with
    ``os.replace``.  A crash mid-write therefore leaves any previous
    archive at ``path`` untouched; a Python-level interruption (including
    ``KeyboardInterrupt``) additionally removes the temp file.
    """
    target = archive_path(path)
    fd, temp_name = tempfile.mkstemp(
        dir=target.parent or Path("."),
        prefix=target.name + ".",
        suffix=TEMP_SUFFIX,
    )
    try:
        with os.fdopen(fd, "wb") as stream:
            np.savez_compressed(stream, **arrays)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_name, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp_name)
        raise
    return target


def _pack_csr(prefix: str, matrix: sp.csr_matrix) -> dict[str, np.ndarray]:
    """The CSR component arrays of ``matrix`` under dotted ``prefix`` keys."""
    return {
        f"{prefix}.data": matrix.data,
        f"{prefix}.indices": matrix.indices,
        f"{prefix}.indptr": matrix.indptr,
        f"{prefix}.shape": np.asarray(matrix.shape, dtype=np.int64),
    }


def _unpack_csr(archive, prefix: str) -> sp.csr_matrix:
    """Rebuild a CSR matrix from its packed component arrays.

    The components were written from a canonical matrix (sorted indices,
    no duplicates), so the rebuilt matrix is bit-identical to the saved
    one — container ``__post_init__`` re-canonicalisation is a no-op.
    """
    return sp.csr_matrix(
        (
            archive[f"{prefix}.data"],
            archive[f"{prefix}.indices"],
            archive[f"{prefix}.indptr"],
        ),
        shape=tuple(int(n) for n in archive[f"{prefix}.shape"]),
    )


def _pack_model_tensors(pomdp: POMDP) -> dict[str, np.ndarray]:
    """Backend-native archive entries for a POMDP's three tensors."""
    if not pomdp.backend.is_sparse:
        return {
            "backend": np.array("dense"),
            "transitions": np.asarray(pomdp.transitions),
            "observations": np.asarray(pomdp.observations),
            "rewards": np.asarray(pomdp.rewards),
        }
    transitions = pomdp.transitions
    observations = pomdp.observations
    rewards = pomdp.rewards
    assert isinstance(transitions, SparseTransitions)
    assert isinstance(observations, SparseObservations)
    assert isinstance(rewards, StructuredRewards)
    arrays: dict[str, np.ndarray] = {"backend": np.array("sparse")}
    arrays.update(_pack_csr("transitions.base", transitions.base))
    arrays["transitions.row_action"] = transitions.row_action
    arrays["transitions.row_state"] = transitions.row_state
    arrays.update(_pack_csr("transitions.rows", transitions.rows))
    arrays["transitions.n_actions"] = np.array(transitions.n_actions)
    arrays.update(_pack_csr("observations.base", observations.base))
    override_actions = sorted(observations.overrides)
    arrays["observations.override_actions"] = np.asarray(
        override_actions, dtype=np.int64
    )
    for action in override_actions:
        arrays.update(
            _pack_csr(
                f"observations.override{action}",
                observations.overrides[action],
            )
        )
    arrays["rewards.time_scale"] = rewards.time_scale
    arrays["rewards.rate"] = rewards.rate
    arrays["rewards.fixed"] = rewards.fixed
    arrays.update(_pack_csr("rewards.override", rewards.override))
    return arrays


def _unpack_model_tensors(archive):
    """The ``(transitions, observations, rewards)`` tensors of an archive.

    v1 archives carry no ``backend`` entry and are always dense.
    """
    backend = str(archive["backend"]) if "backend" in archive else "dense"
    if backend == "dense":
        return (
            archive["transitions"],
            archive["observations"],
            archive["rewards"],
        )
    if backend != "sparse":
        raise ModelError(f"archive names unknown backend {backend!r}")
    transitions = SparseTransitions(
        base=_unpack_csr(archive, "transitions.base"),
        row_action=archive["transitions.row_action"],
        row_state=archive["transitions.row_state"],
        rows=_unpack_csr(archive, "transitions.rows"),
        n_actions=int(archive["transitions.n_actions"]),
    )
    observations = SparseObservations(
        base=_unpack_csr(archive, "observations.base"),
        overrides={
            int(action): _unpack_csr(
                archive, f"observations.override{int(action)}"
            )
            for action in archive["observations.override_actions"]
        },
        n_actions=transitions.n_actions,
    )
    rewards = StructuredRewards(
        time_scale=archive["rewards.time_scale"],
        rate=archive["rewards.rate"],
        fixed=archive["rewards.fixed"],
        override=_unpack_csr(archive, "rewards.override"),
    )
    return transitions, observations, rewards


def save_pomdp(path, pomdp: POMDP) -> None:
    """Write ``pomdp`` to ``path`` as a ``.npz`` archive (atomically)."""
    _atomic_savez(
        path,
        kind=np.array("pomdp"),
        version=np.array(FORMAT_VERSION),
        state_labels=_labels_array(pomdp.state_labels),
        action_labels=_labels_array(pomdp.action_labels),
        observation_labels=_labels_array(pomdp.observation_labels),
        discount=np.array(pomdp.discount),
        **_pack_model_tensors(pomdp),
    )


def _check_kind(archive, expected: str, path) -> None:
    kind = str(archive.get("kind", ""))
    if kind != expected:
        raise ModelError(
            f"{path} holds a {kind or 'unknown'} archive, expected {expected}"
        )
    version = int(archive.get("version", -1))
    if version not in READABLE_VERSIONS:
        raise ModelError(
            f"{path} uses archive format {version}, this build reads "
            f"{sorted(READABLE_VERSIONS)}"
        )


def load_pomdp(path) -> POMDP:
    """Read a POMDP previously written by :func:`save_pomdp`."""
    with np.load(archive_path(path), allow_pickle=False) as archive:
        _check_kind(archive, "pomdp", path)
        transitions, observations, rewards = _unpack_model_tensors(archive)
        return POMDP(
            transitions=transitions,
            observations=observations,
            rewards=rewards,
            state_labels=_labels_tuple(archive["state_labels"]),
            action_labels=_labels_tuple(archive["action_labels"]),
            observation_labels=_labels_tuple(archive["observation_labels"]),
            discount=float(archive["discount"]),
        )


def save_recovery_model(path, model: RecoveryModel) -> None:
    """Write a recovery model (augmented POMDP + recovery metadata)."""
    optional = {}
    if model.terminate_state is not None:
        optional["terminate_state"] = np.array(model.terminate_state)
        optional["terminate_action"] = np.array(model.terminate_action)
        optional["operator_response_time"] = np.array(
            model.operator_response_time
        )
    _atomic_savez(
        path,
        kind=np.array("recovery-model"),
        version=np.array(FORMAT_VERSION),
        state_labels=_labels_array(model.pomdp.state_labels),
        action_labels=_labels_array(model.pomdp.action_labels),
        observation_labels=_labels_array(model.pomdp.observation_labels),
        discount=np.array(model.pomdp.discount),
        null_states=model.null_states,
        rate_rewards=model.rate_rewards,
        durations=model.durations,
        passive_actions=model.passive_actions,
        recovery_notification=np.array(model.recovery_notification),
        **_pack_model_tensors(model.pomdp),
        **optional,
    )


def load_recovery_model(path) -> RecoveryModel:
    """Read a recovery model previously written by :func:`save_recovery_model`."""
    with np.load(archive_path(path), allow_pickle=False) as archive:
        _check_kind(archive, "recovery-model", path)
        transitions, observations, rewards = _unpack_model_tensors(archive)
        pomdp = POMDP(
            transitions=transitions,
            observations=observations,
            rewards=rewards,
            state_labels=_labels_tuple(archive["state_labels"]),
            action_labels=_labels_tuple(archive["action_labels"]),
            observation_labels=_labels_tuple(archive["observation_labels"]),
            discount=float(archive["discount"]),
        )
        has_terminate = "terminate_state" in archive
        return RecoveryModel(
            pomdp=pomdp,
            null_states=archive["null_states"],
            rate_rewards=archive["rate_rewards"],
            durations=archive["durations"],
            passive_actions=archive["passive_actions"],
            recovery_notification=bool(archive["recovery_notification"]),
            terminate_state=(
                int(archive["terminate_state"]) if has_terminate else None
            ),
            terminate_action=(
                int(archive["terminate_action"]) if has_terminate else None
            ),
            operator_response_time=(
                float(archive["operator_response_time"])
                if has_terminate
                else None
            ),
        )


def save_bound_set(path, bound_set: BoundVectorSet) -> None:
    """Persist a refined bound set (the off-line artefact of Section 4.3)."""
    _atomic_savez(
        path,
        kind=np.array("bound-set"),
        version=np.array(FORMAT_VERSION),
        vectors=bound_set.vectors,
        usage=bound_set._usage,
        pinned=np.array(bound_set._pinned),
        max_vectors=np.array(
            -1 if bound_set.max_vectors is None else bound_set.max_vectors
        ),
    )


def certificate_path(path) -> Path:
    """The sidecar recording an archive's last clean R3xx certification."""
    target = archive_path(path)
    return target.with_name(target.name + CERT_SUFFIX)


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def model_fingerprint(model) -> str | None:
    """SHA-256 content digest of a model's tensors, labels, and discount.

    Accepts a :class:`~repro.recovery.model.RecoveryModel` or
    :class:`~repro.pomdp.model.POMDP`; anything else (e.g. a prepared
    :class:`~repro.analysis.view.ModelView`, which may hold derived
    matrices rather than the originals) returns ``None``, meaning "no
    stable fingerprint" — callers must then fall back to certifying.
    """
    pomdp = getattr(model, "pomdp", model)
    if not isinstance(pomdp, POMDP):
        return None
    digest = hashlib.sha256()
    arrays = _pack_model_tensors(pomdp)
    for key in sorted(arrays):
        value = np.asarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(value.dtype).encode())
        digest.update(repr(value.shape).encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    for label in (
        *pomdp.state_labels,
        *pomdp.action_labels,
        *pomdp.observation_labels,
    ):
        digest.update(label.encode())
        digest.update(b"\x00")
    digest.update(repr(float(pomdp.discount)).encode())
    return digest.hexdigest()


def _read_certificate(cert_file: Path) -> dict | None:
    try:
        with open(cert_file, encoding="utf-8") as stream:
            record = json.load(stream)
    except (OSError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) else None


def _write_certificate(cert_file: Path, record: dict) -> None:
    """Atomically persist the sidecar; failure to cache never fails the load."""
    with contextlib.suppress(OSError):
        fd, temp_name = tempfile.mkstemp(
            dir=cert_file.parent or Path("."),
            prefix=cert_file.name + ".",
            suffix=TEMP_SUFFIX,
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as stream:
                json.dump(record, stream, sort_keys=True)
                stream.write("\n")
            os.replace(temp_name, cert_file)
        except BaseException:
            with contextlib.suppress(OSError):
                os.remove(temp_name)
            raise


def _certify_loaded(
    target: Path, path, model, bound_set: BoundVectorSet, recertify: bool
) -> None:
    """Certify a freshly loaded bound set, memoised by content digests.

    The full R3xx sweep (a Bellman-backup envelope over every vector) is
    exactly the cost warm restarts are supposed to avoid, so a clean pass
    is recorded in a sidecar keyed by the SHA-256 of the archive *file*
    and of the model's packed tensors.  A later load of the same archive
    against the same model skips straight through; any change to either —
    a re-saved archive, a different model — misses the cache and pays the
    sweep again.  Models without a stable fingerprint (prepared views)
    always certify.
    """
    telemetry = telemetry_active()
    model_digest = model_fingerprint(model)
    cert_file = certificate_path(target)
    archive_digest = _file_sha256(target)
    if not recertify and model_digest is not None:
        cached = _read_certificate(cert_file)
        if (
            cached is not None
            and cached.get("schema") == CERT_SCHEMA
            and cached.get("archive_sha256") == archive_digest
            and cached.get("model_sha256") == model_digest
        ):
            if telemetry is not None:
                telemetry.count_process("io.certify_skipped")
            return
    from repro.analysis.certify import certify_bound_set

    certify_bound_set(
        model, bound_set, title=f"bound-set certificate for {path}"
    ).raise_if_errors()
    if telemetry is not None:
        telemetry.count_process("io.certify_runs")
    if model_digest is not None:
        _write_certificate(
            cert_file,
            {
                "schema": CERT_SCHEMA,
                "archive_sha256": archive_digest,
                "model_sha256": model_digest,
                "vectors": int(bound_set.vectors.shape[0]),
            },
        )


def load_bound_set(path, model=None, recertify: bool = False) -> BoundVectorSet:
    """Reload a bound set; usage counters and pinning survive the round trip.

    When ``model`` is given (a RecoveryModel, POMDP, or prepared
    :class:`~repro.analysis.view.ModelView`), the loaded set is certified
    against it with the R3xx bound-soundness passes
    (:func:`repro.analysis.certify.certify_bound_set`) before being
    returned; a stale or corrupted archive — wrong dimension, non-finite
    entries, vectors above the Bellman backup of the set's envelope, or
    positive mass on pinned zero-value states — raises
    :class:`~repro.exceptions.AnalysisError` instead of silently steering
    the controller with an unsound bound.

    A clean certification is memoised in a ``.cert.json`` sidecar next to
    the archive, keyed by content digests of the archive and the model, so
    repeated loads of an unchanged pair — a service warm-restarting from
    its checkpoint — skip the Bellman-envelope sweep.  Pass
    ``recertify=True`` to force the sweep regardless of the sidecar (it
    re-records the sidecar on success).
    """
    target = archive_path(path)
    with np.load(target, allow_pickle=False) as archive:
        _check_kind(archive, "bound-set", path)
        max_vectors = int(archive["max_vectors"])
        bound_set = BoundVectorSet(
            archive["vectors"],
            max_vectors=None if max_vectors < 0 else max_vectors,
        )
        bound_set._usage = archive["usage"].copy()
        bound_set._pinned = int(archive["pinned"])
    if model is not None:
        _certify_loaded(target, path, model, bound_set, recertify)
    return bound_set
