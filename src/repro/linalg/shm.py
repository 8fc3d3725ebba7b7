"""Zero-copy model handoff through POSIX shared memory.

The parallel campaign engine ships its :class:`~repro.sim.parallel.CampaignPlan`
to every worker process.  The plan's dominant payload is the model — the CSR
buffers of :class:`~repro.linalg.containers.SparseTransitions`,
:class:`~repro.linalg.containers.SparseObservations` and the arrays of
:class:`~repro.linalg.containers.StructuredRewards` — which is identical in
every worker and read-only for the whole campaign.  Pickling it per worker
costs a serialise/deserialise round trip and a private copy of every buffer.

This module moves those buffers into :mod:`multiprocessing.shared_memory`
segments *once*, at plan-export time, and pickles only lightweight handles
(segment name + shape + dtype).  Workers attach the segments and rebuild the
containers as zero-copy views, so the model's pages are mapped, not copied,
and the pickled plan shrinks from megabytes to kilobytes
(:func:`repro.sim.parallel.model_handoff_bytes` measures it).

Lifecycle contract:

* the exporting process owns the segments through a :class:`SharedArena` and
  must call :meth:`SharedArena.close` (close + unlink) once the pool has
  shut down — :func:`repro.sim.parallel.execute_plan` does this in a
  ``finally`` block, so no ``/dev/shm`` entries outlive the campaign;
* workers keep their attachments alive in a module registry for the life of
  the process (the arrays view the mapped pages directly); the
  :mod:`multiprocessing.resource_tracker` registration CPython performs on
  *attach* (bpo-39959) is suppressed, so a worker exiting never unlinks
  segments the parent still serves and the creator's register/unlink pair
  stays balanced even when the creating process attaches to its own
  segments.

The rebuilt CSR matrices are flagged canonical (the exporter only ever
shares canonicalised matrices), so the container constructors' ``_as_csr``
normalisation is a no-op and no buffer is copied on attach.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np
import scipy.sparse as sp

#: Prefix of every segment this module creates; the smoke benchmarks assert
#: no ``/dev/shm`` entry with this prefix survives a campaign.
SEGMENT_PREFIX = "repro-model"

#: Arena active inside :func:`exporting`; consulted by the containers'
#: ``__reduce__`` hooks.
_EXPORT_ARENA: SharedArena | None = None

#: Worker-side attachments, keyed by segment name.  Kept for the life of
#: the process: the rebuilt arrays are views into these mappings.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


@dataclass(frozen=True)
class ArrayHandle:
    """One ndarray living in a shared-memory segment."""

    segment: str
    shape: tuple
    dtype: str


@dataclass(frozen=True)
class CsrHandle:
    """One canonical CSR matrix as three shared arrays plus its shape."""

    data: ArrayHandle
    indices: ArrayHandle
    indptr: ArrayHandle
    shape: tuple


@dataclass(frozen=True)
class TransitionsHandle:
    """Shared-memory form of :class:`SparseTransitions`."""

    base: CsrHandle
    row_action: ArrayHandle
    row_state: ArrayHandle
    rows: CsrHandle
    n_actions: int


@dataclass(frozen=True)
class ObservationsHandle:
    """Shared-memory form of :class:`SparseObservations`."""

    base: CsrHandle
    overrides: tuple  # ((action, CsrHandle), ...) sorted by action
    n_actions: int


@dataclass(frozen=True)
class RewardsHandle:
    """Shared-memory form of :class:`StructuredRewards`."""

    time_scale: ArrayHandle
    rate: ArrayHandle
    fixed: ArrayHandle
    override: CsrHandle


class SharedArena:
    """Owns the shared-memory segments of one model export.

    ``share_array``/``share_csr`` copy a buffer into a fresh segment and
    return its handle; ``handle_for`` builds (and memoises, by object
    identity) the container-level handles the pickling hooks need.  The
    arena must be :meth:`close`\\ d by its creator — segments are unlinked
    there, not by workers.
    """

    _sequence = 0  # class-wide counter so names never collide in-process

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._handles: dict[int, object] = {}
        self._closed = False

    # -- segment plumbing ----------------------------------------------
    def _new_segment(self, size: int) -> shared_memory.SharedMemory:
        if self._closed:
            raise RuntimeError("arena is closed")
        while True:
            SharedArena._sequence += 1
            name = f"{SEGMENT_PREFIX}-{os.getpid()}-{SharedArena._sequence}"
            try:
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=max(1, size)
                )
                break
            except FileExistsError:  # stale entry from an unrelated process
                continue
        self._segments.append(segment)
        return segment

    def share_array(self, array: np.ndarray) -> ArrayHandle:
        """Copy ``array`` into a new segment and return its handle."""
        array = np.ascontiguousarray(array)
        segment = self._new_segment(array.nbytes)
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[...] = array
        return ArrayHandle(segment.name, tuple(array.shape), array.dtype.str)

    def share_csr(self, matrix: sp.csr_matrix) -> CsrHandle:
        """Share a canonical CSR matrix as three segments."""
        return CsrHandle(
            data=self.share_array(matrix.data),
            indices=self.share_array(matrix.indices),
            indptr=self.share_array(matrix.indptr),
            shape=tuple(matrix.shape),
        )

    @property
    def total_bytes(self) -> int:
        """Bytes resident in this arena's segments."""
        return sum(segment.size for segment in self._segments)

    @property
    def segment_names(self) -> tuple[str, ...]:
        return tuple(segment.name for segment in self._segments)

    # -- container handles ---------------------------------------------
    def handle_for(self, container) -> object:
        """The (memoised) shared-memory handle of a model container."""
        from repro.linalg.containers import (
            SparseObservations,
            SparseTransitions,
            StructuredRewards,
        )

        key = id(container)
        handle = self._handles.get(key)
        if handle is not None:
            return handle
        if isinstance(container, SparseTransitions):
            handle = TransitionsHandle(
                base=self.share_csr(container.base),
                row_action=self.share_array(container.row_action),
                row_state=self.share_array(container.row_state),
                rows=self.share_csr(container.rows),
                n_actions=container.n_actions,
            )
        elif isinstance(container, SparseObservations):
            handle = ObservationsHandle(
                base=self.share_csr(container.base),
                overrides=tuple(
                    (action, self.share_csr(matrix))
                    for action, matrix in sorted(container.overrides.items())
                ),
                n_actions=container.n_actions,
            )
        elif isinstance(container, StructuredRewards):
            handle = RewardsHandle(
                time_scale=self.share_array(container.time_scale),
                rate=self.share_array(container.rate),
                fixed=self.share_array(container.fixed),
                override=self.share_csr(container.override),
            )
        else:
            raise TypeError(f"no shared-memory handle for {type(container)!r}")
        self._handles[key] = handle
        return handle

    def close(self) -> None:
        """Close and unlink every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        self._handles.clear()


@contextmanager
def exporting(arena: SharedArena):
    """Route container pickling through ``arena`` inside the block."""
    global _EXPORT_ARENA
    if _EXPORT_ARENA is not None:
        raise RuntimeError("a shared-memory export is already active")
    _EXPORT_ARENA = arena
    try:
        yield arena
    finally:
        _EXPORT_ARENA = None


def export_handle(container) -> object | None:
    """The active arena's handle for ``container``, or ``None`` outside
    :func:`exporting` (normal pickling applies then)."""
    if _EXPORT_ARENA is None:
        return None
    return _EXPORT_ARENA.handle_for(container)


# -- worker-side reconstruction ----------------------------------------


def _attach(handle: ArrayHandle) -> np.ndarray:
    """A zero-copy ndarray view of the segment behind ``handle``."""
    segment = _ATTACHED.get(handle.segment)
    if segment is None:
        # CPython registers *attached* segments with the resource tracker
        # as if this process owned them (bpo-39959); suppress that so a
        # worker exiting does not unlink segments the parent still serves
        # and the creator's register/unlink bookkeeping stays balanced.
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            segment = shared_memory.SharedMemory(
                name=handle.segment, create=False
            )
        finally:
            resource_tracker.register = original_register
        _ATTACHED[handle.segment] = segment
    return np.ndarray(
        handle.shape, dtype=np.dtype(handle.dtype), buffer=segment.buf
    )


def _attach_csr(handle: CsrHandle) -> sp.csr_matrix:
    matrix = sp.csr_matrix(
        (
            _attach(handle.data),
            _attach(handle.indices),
            _attach(handle.indptr),
        ),
        shape=handle.shape,
        copy=False,
    )
    # The exporter only shares canonicalised matrices; flagging them lets
    # the containers' _as_csr normalisation pass through without copying.
    matrix.has_canonical_format = True
    matrix.has_sorted_indices = True
    return matrix


def rebuild(handle):
    """Rebuild a model container from its shared-memory handle.

    This is the reconstructor the containers' ``__reduce__`` hooks emit
    under :func:`exporting`; it runs in the worker during unpickling.
    """
    from repro.linalg.containers import (
        SparseObservations,
        SparseTransitions,
        StructuredRewards,
    )

    if isinstance(handle, TransitionsHandle):
        return SparseTransitions(
            base=_attach_csr(handle.base),
            row_action=_attach(handle.row_action),
            row_state=_attach(handle.row_state),
            rows=_attach_csr(handle.rows),
            n_actions=handle.n_actions,
        )
    if isinstance(handle, ObservationsHandle):
        return SparseObservations(
            base=_attach_csr(handle.base),
            overrides={
                action: _attach_csr(matrix) for action, matrix in handle.overrides
            },
            n_actions=handle.n_actions,
        )
    if isinstance(handle, RewardsHandle):
        return StructuredRewards(
            time_scale=_attach(handle.time_scale),
            rate=_attach(handle.rate),
            fixed=_attach(handle.fixed),
            override=_attach_csr(handle.override),
        )
    raise TypeError(f"unknown shared-memory handle {type(handle)!r}")


def detach_all() -> None:
    """Drop every worker-side attachment (tests and long-lived processes).

    The arrays rebuilt from these segments become invalid; only call when
    no rebuilt container is live.
    """
    for segment in _ATTACHED.values():
        segment.close()
    _ATTACHED.clear()


def leaked_segments() -> list[str]:
    """``/dev/shm`` entries carrying this module's prefix (leak check)."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    return sorted(
        name for name in os.listdir(shm_dir) if name.startswith(SEGMENT_PREFIX)
    )


__all__ = [
    "ArrayHandle",
    "CsrHandle",
    "ObservationsHandle",
    "RewardsHandle",
    "SEGMENT_PREFIX",
    "SharedArena",
    "TransitionsHandle",
    "detach_all",
    "export_handle",
    "exporting",
    "leaked_segments",
    "rebuild",
]
