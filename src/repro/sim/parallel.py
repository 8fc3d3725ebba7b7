"""Parallel fault-injection campaign engine.

Table 1's 10,000 injections are embarrassingly parallel: episodes share no
simulated state, only (a) the random streams that drive fault draws and
monitor sampling and (b) the controller's bound set, which refinement grows
as a side effect.  This module shards a campaign's episode loop across a
process pool while keeping the results *bit-identical* to the in-process
run, whatever the worker count.  Three design rules make that possible:

**Per-episode random streams.**  A campaign plan draws every fault up front
from one child of the root :class:`~numpy.random.SeedSequence` and spawns
one further child per episode for environment sampling.  Episode ``i``'s
randomness therefore depends only on ``(seed, i)`` — never on which worker
ran it, or what ran before it.

**Chunked dispatch with per-chunk controller isolation.**  Episodes are
grouped into fixed-size chunks whose layout depends only on the injection
count (never on the worker count).  Each chunk runs against a fresh clone
of the pristine controller, so cross-episode controller state (online bound
refinement) is visible within a chunk but never across chunks.  Any worker
may run any chunk and the metrics cannot change.

**Deterministic bound-set merge on join.**  Clones refine their bound sets
locally; after all chunks complete, the new hyperplanes are folded back
into the caller's controller in chunk order through
:meth:`~repro.bounds.vector_set.BoundVectorSet.merge`, which rejects
duplicates and pointwise-dominated vectors and prunes vectors that later
arrivals dominate.  The caller's controller ends the campaign with the
union of every worker's refinements, exactly as a long-lived controller
process would accumulate them.

**Shared-memory model handoff.**  The plan is pickled exactly once per
campaign.  For sparse models the pickling happens inside
:func:`repro.linalg.shm.exporting`, which moves the model's CSR buffers
into ``multiprocessing.shared_memory`` segments and replaces them in the
pickle stream with lightweight handles; workers attach the segments and
rebuild zero-copy container views.  The handoff payload shrinks from the
full model to kilobytes (``model_handoff_bytes``), workers share the
model's pages instead of copying them, and — because the rebuilt
containers are value-identical views — campaign fingerprints stay
bit-identical for any worker count.  Segments are unlinked in a
``finally`` block, so none outlive the campaign.

The one metric outside the determinism contract is ``algorithm_time`` — it
is a wall-clock measurement and varies run to run even serially; use
:func:`repro.sim.metrics.campaign_fingerprint` (which excludes it) to
compare campaigns.
"""

from __future__ import annotations

import copy
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.linalg import shm

from repro.controllers.base import RecoveryController
from repro.obs.telemetry import (
    Telemetry,
    TelemetrySnapshot,
    activated,
    span,
)
from repro.obs.telemetry import (
    active as telemetry_active,
)
from repro.recovery.model import RecoveryModel
from repro.sim.environment import RecoveryEnvironment
from repro.sim.metrics import EpisodeMetrics

#: Episodes per chunk.  A pure function of the campaign (not of the worker
#: count), so chunk boundaries — and therefore refinement visibility — are
#: identical in serial and parallel runs.  32 keeps per-chunk clone cost
#: negligible while giving a 1,000-injection campaign enough chunks to feed
#: 16 workers.
DEFAULT_CHUNK_SIZE = 32


@dataclass(frozen=True)
class CampaignPlan:
    """Everything needed to run (or re-run) a campaign deterministically.

    Attributes:
        controller: the pristine controller template; never mutated by the
            engine (chunks run on clones).
        model: environment-side model (the controller's own unless the
            caller studies model mismatch).
        faults: per-episode injected fault states, drawn up front.
        env_seeds: one spawned :class:`~numpy.random.SeedSequence` per
            episode for environment sampling.
        max_steps: per-episode step cap.
        monitor_tail: see :class:`~repro.sim.environment.RecoveryEnvironment`.
        chunk_size: episodes per isolation chunk.
        collect_telemetry: run each chunk against a private buffering
            :class:`~repro.obs.telemetry.Telemetry` and hand its snapshot
            back for the deterministic chunk-order merge.  Resolved at plan
            time from :func:`repro.obs.telemetry.active` so worker processes
            need no telemetry state of their own.
        collect_trace: additionally record hierarchical trace spans in each
            chunk's private registry (episode → decision → tree expansion
            → ...).  The join step rebases chunk span timestamps end-to-end
            and re-parents chunk roots under the open campaign span, so the
            merged span *tree* is worker-count invariant just like the
            counters.  Resolved at plan time from the active registry's
            ``trace_enabled``.
    """

    controller: RecoveryController
    model: RecoveryModel
    faults: np.ndarray
    env_seeds: tuple
    max_steps: int
    monitor_tail: float
    chunk_size: int
    collect_telemetry: bool = False
    collect_trace: bool = False

    @property
    def injections(self) -> int:
        """Number of episodes in the plan."""
        return int(self.faults.shape[0])

    def chunks(self) -> list[tuple[int, int]]:
        """Half-open ``(start, stop)`` episode ranges, in order."""
        return [
            (start, min(start + self.chunk_size, self.injections))
            for start in range(0, self.injections, self.chunk_size)
        ]


def seed_to_sequence(seed) -> np.random.SeedSequence:
    """Coerce a campaign ``seed`` into a root :class:`SeedSequence`.

    Accepts the library's usual seed forms; a :class:`~numpy.random.Generator`
    contributes entropy from its stream (and stays usable afterwards).
    """
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(
            seed.integers(0, 2**63 - 1, size=4).tolist()
        )
    return np.random.SeedSequence(seed)


def plan_campaign(
    controller: RecoveryController,
    fault_states: np.ndarray,
    injections: int,
    seed=None,
    max_steps: int = 500,
    monitor_tail: float = 0.0,
    model: RecoveryModel | None = None,
    fault_probabilities: np.ndarray | None = None,
    chunk_size: int | None = None,
    collect_telemetry: bool | None = None,
) -> CampaignPlan:
    """Draw all faults and spawn all per-episode streams up front.

    ``collect_telemetry`` defaults to whether telemetry is active in the
    planning process, so ``repro.obs.session`` around ``run_campaign`` is
    all it takes to capture per-chunk instrumentation.
    """
    root = seed_to_sequence(seed)
    fault_sequence, environment_sequence = root.spawn(2)
    faults = np.asarray(
        np.random.default_rng(fault_sequence).choice(
            fault_states, size=injections, p=fault_probabilities
        ),
        dtype=int,
    )
    env_seeds = tuple(environment_sequence.spawn(injections))
    active_telemetry = telemetry_active()
    if collect_telemetry is None:
        collect_telemetry = active_telemetry is not None
    collect_trace = (
        collect_telemetry
        and active_telemetry is not None
        and active_telemetry.trace_enabled
    )
    return CampaignPlan(
        controller=controller,
        model=model or controller.model,
        faults=faults,
        env_seeds=env_seeds,
        max_steps=max_steps,
        monitor_tail=monitor_tail,
        chunk_size=chunk_size or DEFAULT_CHUNK_SIZE,
        collect_telemetry=collect_telemetry,
        collect_trace=collect_trace,
    )


def _clone_controller(plan: CampaignPlan) -> RecoveryController:
    """Deep-copy the template controller, sharing the immutable model."""
    memo = {
        id(plan.controller.model): plan.controller.model,
        id(plan.controller.model.pomdp): plan.controller.model.pomdp,
    }
    return copy.deepcopy(plan.controller, memo)


def _bound_vectors(controller: RecoveryController) -> np.ndarray | None:
    """The controller's refinable bound-vector stack, when it has one."""
    bound_set = controller.refinement_state()
    if bound_set is None or not hasattr(bound_set, "vectors"):
        return None
    return np.array(bound_set.vectors, copy=True)


@dataclass(frozen=True)
class ChunkResult:
    """What one isolation chunk hands back to the join step.

    Attributes:
        episodes: per-episode metrics, in injection order.
        new_vectors: hyperplanes the clone's bound set gained during the
            chunk (``None`` for controllers without bound sets).
        telemetry: snapshot of the chunk's private telemetry registry, when
            the plan collects telemetry (``None`` otherwise).  Snapshots are
            picklable so they survive the process-pool hop, and they carry
            every diagnostic counter a chunk produces.
    """

    episodes: list[EpisodeMetrics]
    new_vectors: np.ndarray | None
    telemetry: TelemetrySnapshot | None = None


def run_chunk(plan: CampaignPlan, start: int, stop: int) -> ChunkResult:
    """Run episodes ``[start, stop)`` on a fresh controller clone.

    When the plan collects telemetry the chunk runs against a *private*
    buffering :class:`Telemetry` — always swapped in, even in-process, so
    the caller's registry never sees chunk-side counts twice.  The snapshot
    travels back in the :class:`ChunkResult` and is absorbed in chunk order
    by :func:`execute_plan`, which is what makes the aggregated counters
    independent of the worker count.
    """
    from repro.sim.campaign import run_episode

    controller = _clone_controller(plan)
    # Drive the adapter's live session directly: one fewer delegation
    # layer per step, and the code path the policy service uses.
    session = controller.session
    baseline = _bound_vectors(controller)
    chunk_telemetry = (
        Telemetry(trace=plan.collect_trace) if plan.collect_telemetry else None
    )
    episodes = []
    with activated(chunk_telemetry):
        for index in range(start, stop):
            environment = RecoveryEnvironment(
                plan.model,
                seed=np.random.default_rng(plan.env_seeds[index]),
                monitor_tail=plan.monitor_tail,
            )
            if chunk_telemetry is not None:
                chunk_telemetry.event(
                    "episode_start",
                    episode=index,
                    fault_state=int(plan.faults[index]),
                )
            with span("episode", category="sim", episode=index):
                metrics = run_episode(
                    session,
                    environment,
                    int(plan.faults[index]),
                    max_steps=plan.max_steps,
                )
            if chunk_telemetry is not None:
                chunk_telemetry.event(
                    "episode_end",
                    episode=index,
                    recovered=metrics.recovered,
                    terminated=metrics.terminated,
                    steps=metrics.steps,
                    cost=metrics.cost,
                )
            episodes.append(metrics)
    new_vectors = None
    if baseline is not None:
        # Diff by exact content rather than position: eviction may have
        # shifted rows, and baseline rows surviving eviction are not "new".
        known = {row.tobytes() for row in baseline}
        refined = _bound_vectors(controller)
        new_rows = [row for row in refined if row.tobytes() not in known]
        if new_rows:
            new_vectors = np.array(new_rows)
    return ChunkResult(
        episodes=episodes,
        new_vectors=new_vectors,
        telemetry=(
            chunk_telemetry.snapshot() if chunk_telemetry is not None else None
        ),
    )


# -- worker-side plumbing ----------------------------------------------------

_WORKER_PLAN: CampaignPlan | None = None


def _init_worker(payload: bytes) -> None:
    """Install the worker's plan from the once-pickled campaign payload.

    The payload is produced by :func:`export_plan`; for sparse models,
    unpickling it attaches the parent's shared-memory segments instead of
    copying the model buffers.
    """
    global _WORKER_PLAN
    _WORKER_PLAN = pickle.loads(payload)


def _worker_chunk(bounds: tuple[int, int]) -> ChunkResult:
    if _WORKER_PLAN is None:
        raise RuntimeError("worker used before _init_worker installed the plan")
    start, stop = bounds
    return run_chunk(_WORKER_PLAN, start, stop)


def _pool_context():
    """Prefer fork (cheap, shares the loaded model pages) where available."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _plan_uses_sparse_model(plan: CampaignPlan) -> bool:
    """True when any model a worker needs stores sparse containers."""
    models = {id(plan.model): plan.model}
    models.setdefault(id(plan.controller.model), plan.controller.model)
    return any(model.pomdp.backend.is_sparse for model in models.values())


def export_plan(plan: CampaignPlan) -> tuple[shm.SharedArena | None, bytes]:
    """Pickle ``plan`` once, moving sparse model buffers into shared memory.

    Returns ``(arena, payload)``.  For sparse models the payload carries
    shared-memory handles instead of CSR buffers and ``arena`` owns the
    segments — the caller must :meth:`~repro.linalg.shm.SharedArena.close`
    it once every worker has shut down.  Dense models pickle as before and
    ``arena`` is ``None``.
    """
    if not _plan_uses_sparse_model(plan):
        return None, pickle.dumps(plan)
    arena = shm.SharedArena()
    try:
        with shm.exporting(arena):
            payload = pickle.dumps(plan)
    except BaseException:
        arena.close()
        raise
    return arena, payload


def model_handoff_bytes(plan: CampaignPlan) -> int:
    """Bytes of the per-worker campaign payload (the pickled plan).

    With the shared-memory handoff this is the size of the *handles*, not
    of the model — the ``parallel.model_handoff_bytes`` snapshot metric.
    """
    arena, payload = export_plan(plan)
    if arena is not None:
        arena.close()
    return len(payload)


def execute_plan(
    plan: CampaignPlan,
    workers: int | None = None,
    on_chunk: Callable[[int, int, ChunkResult], None] | None = None,
) -> list[EpisodeMetrics]:
    """Run every chunk of ``plan`` and merge refinements back.

    Args:
        plan: the campaign plan.
        workers: process count; ``None``, 0, or 1 runs in-process.  The
            metrics are identical either way — only wall-clock (and the
            wall-clock-derived ``algorithm_time`` field) changes.
        on_chunk: scheduling hook, called as ``on_chunk(index, total,
            result)`` for every chunk *in chunk order* during the join —
            never concurrently, and never out of order, so callers (the
            grid runner's per-cell progress accounting) need no locking.

    Returns:
        Episode metrics in injection order.  As a side effect the *caller's*
        controller (the plan's template) receives the merged refinement
        vectors, deduplicated and dominance-pruned.
    """
    chunks = plan.chunks()
    telemetry = telemetry_active()
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers and workers > 1:
        arena, payload = export_plan(plan)
        try:
            with ProcessPoolExecutor(
                max_workers=min(workers, len(chunks)),
                mp_context=_pool_context(),
                initializer=_init_worker,
                initargs=(payload,),
            ) as pool:
                results = list(pool.map(_worker_chunk, chunks, chunksize=1))
        finally:
            # Segments must not outlive the campaign: workers have exited
            # (the executor context joined them), so unlinking here leaves
            # no /dev/shm entry behind.
            if arena is not None:
                arena.close()
    else:
        results = [run_chunk(plan, start, stop) for start, stop in chunks]

    episodes: list[EpisodeMetrics] = []
    bound_set = plan.controller.refinement_state()
    for chunk_index, result in enumerate(results):
        episodes.extend(result.episodes)
        if on_chunk is not None:
            on_chunk(chunk_index, len(chunks), result)
        if telemetry is not None and result.telemetry is not None:
            # Absorbed in chunk order, so counters/gauges/events aggregate
            # identically whatever the worker count.
            telemetry.absorb(result.telemetry, chunk=chunk_index)
        if (
            bound_set is not None
            and result.new_vectors is not None
            and result.new_vectors.size
        ):
            bound_set.merge(result.new_vectors, prune_after=True)
    return episodes
