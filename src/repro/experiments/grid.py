"""Resumable, checkpointed campaign grid runner.

The ROADMAP's "campaign grid platform": sweep controllers × scenarios ×
seeds × backends as individually fingerprinted cells, persist each
completed cell into an append-only :class:`~repro.experiments.store.ResultsStore`,
and on restart skip completed cells — re-running only the incomplete rest,
with campaign fingerprints bit-identical to an uninterrupted run.

A *cell* is one deterministic unit of evaluation:

* ``table1`` cells run one fault-injection campaign of a named Table 1
  controller on the EMN system (zombie faults, paper monitor tail);
* ``robustness`` cells run the bounded controller (model coverage 1.0)
  against an environment whose path monitors actually achieve
  ``coverage-X`` — the model-mismatch sweep;
* ``fig5`` cells run one bootstrap-refinement trace (``random`` /
  ``average``) and fingerprint the refined bound-vector set.

Every cell re-derives all of its randomness from ``(experiment, variant,
seed)`` alone, and each campaign runs through the deterministic engine of
:mod:`repro.sim.parallel` (per-cell chunk scheduling, workers that
inherit the campaign plan), so a cell's fingerprint is independent of
worker count, of which other cells ran before it, and of how many times
the sweep was interrupted and resumed.  Refined bound sets are persisted
per cell through the crash-safe :mod:`repro.io` writer, so bootstrap
refinement amortises across restarts exactly as Section 4.3's off-line
framing intends.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.bootstrap import bootstrap_bounds
from repro.controllers.bounded import BoundedPolicyEngine
from repro.experiments.store import GRID_SCHEMA, ResultsStore
from repro.io import save_bound_set
from repro.obs.telemetry import active as telemetry_active
from repro.obs.telemetry import span
from repro.recovery.model import convert_backend
from repro.sim.campaign import run_campaign
from repro.sim.metrics import campaign_fingerprint
from repro.systems.emn import MONITOR_DURATION, build_emn_system
from repro.systems.faults import FaultKind
from repro.util.timing import Stopwatch

#: Table 1 controllers swept by default.  Depth 2/3 heuristics are omitted
#: (they are orders of magnitude slower per decision and add no coverage
#: to the grid smoke); name them explicitly to include them.
DEFAULT_CONTROLLERS = (
    "most likely",
    "heuristic (depth 1)",
    "bounded (depth 1)",
    "oracle",
)

#: Bootstrap variants of the Figure 5 experiment.
FIG5_VARIANTS = ("random", "average")

#: Environment-side path-monitor coverages of the robustness sweep.
ROBUSTNESS_COVERAGES = (1.0, 0.9, 0.75, 0.5)

#: Experiments the grid knows how to expand into cells.
EXPERIMENTS = ("table1", "fig5", "robustness")

#: Controllers that require the dense tensor backend (the most-likely
#: baseline scans the full transition tensor for surely-fixing actions);
#: :func:`expand_cells` drops their non-dense cells instead of failing
#: mid-sweep.
DENSE_ONLY_CONTROLLERS = ("most likely",)


def _slug(text: str) -> str:
    """``"bounded (depth 1)"`` → ``"bounded_depth_1"`` (cell-id segments)."""
    slug = "".join(ch if ch.isalnum() or ch in ".-" else "_" for ch in text.lower())
    while "__" in slug:
        slug = slug.replace("__", "_")
    return slug.strip("_")


@dataclass(frozen=True)
class GridCell:
    """One fingerprintable unit of the sweep matrix."""

    experiment: str
    variant: str
    seed: int
    backend: str
    injections: int

    @property
    def cell_id(self) -> str:
        """Stable identifier; the checkpoint key in the results store."""
        return "/".join(
            (
                self.experiment,
                _slug(self.variant),
                f"seed{self.seed}",
                self.backend,
                f"n{self.injections}",
            )
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "variant": self.variant,
            "seed": self.seed,
            "backend": self.backend,
            "injections": self.injections,
        }


@dataclass(frozen=True)
class GridSpec:
    """The sweep matrix: experiments × variants × seeds × backends.

    ``injections`` scales the campaign cells; ``iterations`` scales the
    fig5 bootstrap cells.  Cell expansion is deterministic in the order
    the axes are given, so two processes with the same spec agree on the
    cell list (and hence on the grid fingerprint) exactly.
    """

    experiments: tuple[str, ...] = ("table1",)
    controllers: tuple[str, ...] = DEFAULT_CONTROLLERS
    variants: tuple[str, ...] = FIG5_VARIANTS
    coverages: tuple[float, ...] = ROBUSTNESS_COVERAGES
    seeds: tuple[int, ...] = (2006,)
    backends: tuple[str, ...] = ("dense",)
    injections: int = 200
    iterations: int = 10

    def __post_init__(self) -> None:
        unknown = [e for e in self.experiments if e not in EXPERIMENTS]
        if unknown:
            raise ValueError(
                f"unknown experiments {unknown}: expected a subset of "
                f"{list(EXPERIMENTS)}"
            )
        if self.injections <= 0 or self.iterations <= 0:
            raise ValueError("injections and iterations must be positive")


def expand_cells(spec: GridSpec) -> list[GridCell]:
    """The spec's cell list, in deterministic sweep order (deduplicated)."""
    cells: list[GridCell] = []
    seen: set[str] = set()
    for experiment in spec.experiments:
        if experiment == "table1":
            variants: tuple[str, ...] = spec.controllers
            scale = spec.injections
        elif experiment == "fig5":
            variants = spec.variants
            scale = spec.iterations
        else:
            variants = tuple(
                f"coverage-{coverage:g}" for coverage in spec.coverages
            )
            scale = spec.injections
        for variant in variants:
            for seed in spec.seeds:
                for backend in spec.backends:
                    if (
                        experiment == "table1"
                        and variant in DENSE_ONLY_CONTROLLERS
                        and backend != "dense"
                    ):
                        continue
                    cell = GridCell(
                        experiment=experiment,
                        variant=variant,
                        seed=seed,
                        backend=backend,
                        injections=scale,
                    )
                    if cell.cell_id not in seen:
                        seen.add(cell.cell_id)
                        cells.append(cell)
    return cells


def bound_set_fingerprint(bound_set: BoundVectorSet) -> str:
    """SHA-256 over the exact bytes of a bound set's vector stack.

    Bit-stable across runs and restarts of the *same* cell (the resume
    contract).  Dense and sparse backends make identical refinement
    decisions but sum matvec products in different orders, so a dense and
    a sparse fig5 cell agree to ~1e-12 yet hash differently — which is
    why the backend is part of the cell identity rather than collapsed.
    """
    vectors = np.ascontiguousarray(
        np.atleast_2d(bound_set.vectors), dtype=np.float64
    )
    digest = hashlib.sha256()
    digest.update(struct.pack("<qq", *vectors.shape))
    digest.update(vectors.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class CellOutcome:
    """Everything a freshly run cell produces."""

    cell: GridCell
    fingerprint: str
    metrics: dict[str, float]
    bound_set: BoundVectorSet | None
    wall_seconds: float


def _campaign_metrics(summary) -> dict[str, float]:
    """The deterministic scalar metrics of a campaign summary."""
    return {
        "cost": summary.cost,
        "recovery_time": summary.recovery_time,
        "residual_time": summary.residual_time,
        "actions": summary.actions,
        "monitor_calls": summary.monitor_calls,
        "early_terminations": float(summary.early_terminations),
        "unrecovered": float(summary.unrecovered),
    }


def _chunk_counter() -> Callable[..., None] | None:
    """An ``on_chunk`` hook counting completed campaign chunks, if tracing.

    Chunks are the grid's scheduling unit inside a cell (the deterministic
    chunked engine of :mod:`repro.sim.parallel`); the ``grid.chunks``
    counter makes per-cell progress visible in telemetry reports without
    perturbing the fingerprint contract — the hook runs at join time, in
    chunk order.
    """
    telemetry = telemetry_active()
    if telemetry is None:
        return None

    def on_chunk(index: int, total: int, result) -> None:
        del index, total, result
        telemetry.count("grid.chunks")

    return on_chunk


def _run_table1_cell(cell: GridCell, parallel: int | None) -> CellOutcome:
    from repro.experiments.table1 import make_controller

    system = build_emn_system()
    model = convert_backend(system.model, cell.backend)
    engine = make_controller(cell.variant, system, model=model)
    stopwatch = Stopwatch()
    with stopwatch:
        campaign = run_campaign(
            engine,
            fault_states=system.fault_states(FaultKind.ZOMBIE),
            injections=cell.injections,
            seed=cell.seed,
            monitor_tail=MONITOR_DURATION,
            parallel=parallel,
            on_chunk=_chunk_counter(),
        )
    return CellOutcome(
        cell=cell,
        fingerprint=campaign_fingerprint(campaign.episodes),
        metrics=_campaign_metrics(campaign.summary),
        bound_set=engine.refinement_state(),
        wall_seconds=stopwatch.total_seconds,
    )


def _run_robustness_cell(cell: GridCell, parallel: int | None) -> CellOutcome:
    coverage = float(cell.variant.split("-", 1)[1])
    controller_system = build_emn_system(path_monitor_coverage=1.0)
    environment_system = build_emn_system(path_monitor_coverage=coverage)
    controller_model = convert_backend(controller_system.model, cell.backend)
    environment_model = convert_backend(environment_system.model, cell.backend)
    bound_set, _ = bootstrap_bounds(
        controller_model, iterations=10, depth=2, variant="average", seed=0
    )
    engine = BoundedPolicyEngine(
        controller_model,
        depth=1,
        bound_set=bound_set,
        refine_min_improvement=1.0,
    )
    stopwatch = Stopwatch()
    with stopwatch:
        campaign = run_campaign(
            engine,
            fault_states=environment_system.fault_states(FaultKind.ZOMBIE),
            injections=cell.injections,
            seed=cell.seed,
            monitor_tail=MONITOR_DURATION,
            model=environment_model,
            parallel=parallel,
            on_chunk=_chunk_counter(),
        )
    return CellOutcome(
        cell=cell,
        fingerprint=campaign_fingerprint(campaign.episodes),
        metrics=_campaign_metrics(campaign.summary),
        bound_set=engine.refinement_state(),
        wall_seconds=stopwatch.total_seconds,
    )


def _run_fig5_cell(cell: GridCell, parallel: int | None) -> CellOutcome:
    del parallel  # bootstrap traces are inherently sequential
    system = build_emn_system()
    model = convert_backend(system.model, cell.backend)
    stopwatch = Stopwatch()
    with stopwatch:
        bound_set, trace = bootstrap_bounds(
            model,
            iterations=cell.injections,
            depth=1,
            variant=cell.variant,
            seed=cell.seed,
        )
    return CellOutcome(
        cell=cell,
        fingerprint=bound_set_fingerprint(bound_set),
        metrics={
            "initial_upper_bound": float(-trace.initial_bound),
            "final_upper_bound": float(trace.cost_upper_bounds[-1]),
            "vectors": float(len(bound_set)),
            "updates": float(np.sum(trace.update_counts)),
        },
        bound_set=bound_set,
        wall_seconds=stopwatch.total_seconds,
    )


_CELL_RUNNERS: dict[str, Callable[[GridCell, int | None], CellOutcome]] = {
    "table1": _run_table1_cell,
    "robustness": _run_robustness_cell,
    "fig5": _run_fig5_cell,
}


def run_cell(cell: GridCell, parallel: int | None = None) -> CellOutcome:
    """Run one cell from scratch; deterministic given the cell alone."""
    return _CELL_RUNNERS[cell.experiment](cell, parallel)


@dataclass(frozen=True)
class GridResult:
    """Outcome of (one leg of) a sweep: checkpointed + freshly run cells."""

    spec: GridSpec
    cells: tuple[GridCell, ...]
    records: tuple[dict[str, Any], ...]
    ran: int
    skipped: int

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def complete(self) -> bool:
        """True when every cell of the spec has a record."""
        return len(self.records) == len(self.cells)

    @property
    def fingerprint(self) -> str | None:
        """SHA-256 over all cell fingerprints, in sweep order.

        ``None`` until the sweep is complete.  Because cell fingerprints
        are deterministic and the cell order is a pure function of the
        spec, an interrupted-and-resumed sweep reproduces the fingerprint
        of an uninterrupted one bit for bit.
        """
        if not self.complete:
            return None
        digest = hashlib.sha256()
        for record in self.records:
            digest.update(
                f"{record['cell_id']}:{record['fingerprint']}\n".encode()
            )
        return digest.hexdigest()


def _cell_record(outcome: CellOutcome, artifact: str | None) -> dict[str, Any]:
    record: dict[str, Any] = {
        "schema": GRID_SCHEMA,
        "cell_id": outcome.cell.cell_id,
        "cell": outcome.cell.as_dict(),
        "fingerprint": outcome.fingerprint,
        "metrics": outcome.metrics,
        "wall_seconds": outcome.wall_seconds,
        "artifact": artifact,
    }
    if outcome.bound_set is not None:
        record["bound_set_fingerprint"] = bound_set_fingerprint(
            outcome.bound_set
        )
    return record


def run_grid(
    spec: GridSpec,
    store: ResultsStore | str,
    parallel: int | None = None,
    on_cell: Callable[[str, GridCell, dict[str, Any] | None], None] | None = None,
) -> GridResult:
    """Run (or resume) the sweep ``spec`` against ``store``.

    Cells already present in the store are skipped; every other cell runs
    from scratch and appends exactly one record on completion — so killing
    the process at any point and re-invoking with the same arguments
    resumes from the checkpoint, re-running only incomplete cells.

    Args:
        spec: the sweep matrix.
        store: a :class:`ResultsStore` or its directory path.
        parallel: worker count for each cell's campaign (the deterministic
            chunked engine of :mod:`repro.sim.parallel`; forked workers
            inherit the cell's model rather than copying it).
        on_cell: progress hook, called as ``on_cell(kind, cell, record)``
            with ``kind`` one of ``"skip"`` / ``"run"`` — ``"skip"``
            receives the checkpointed record, ``"run"`` the fresh one.
    """
    if not isinstance(store, ResultsStore):
        store = ResultsStore(store)
    swept = store.sweep_temp()
    del swept
    cells = expand_cells(spec)
    checkpointed = store.completed()
    telemetry = telemetry_active()
    ran = skipped = 0
    records: list[dict[str, Any]] = []
    for cell in cells:
        existing = checkpointed.get(cell.cell_id)
        if existing is not None:
            skipped += 1
            records.append(existing)
            if telemetry is not None:
                telemetry.count("grid.cells_skipped")
            if on_cell is not None:
                on_cell("skip", cell, existing)
            continue
        with span("grid.cell", category="grid", cell=cell.cell_id):
            outcome = run_cell(cell, parallel=parallel)
        artifact = None
        if outcome.bound_set is not None:
            path = store.artifact_path(cell.cell_id)
            save_bound_set(path, outcome.bound_set)
            artifact = str(path.relative_to(store.root))
        record = _cell_record(outcome, artifact)
        store.append(record)
        ran += 1
        records.append(record)
        if telemetry is not None:
            telemetry.count("grid.cells_run")
        if on_cell is not None:
            on_cell("run", cell, record)
    return GridResult(
        spec=spec,
        cells=tuple(cells),
        records=tuple(records),
        ran=ran,
        skipped=skipped,
    )


def format_grid(result: GridResult) -> str:
    """Render a sweep result as a table plus the grid fingerprint."""
    from repro.util.tables import render_table

    rows = []
    for record in result.records:
        metrics = record.get("metrics", {})
        headline = next(
            (
                f"{key}={metrics[key]:.4g}"
                for key in ("cost", "final_upper_bound")
                if key in metrics
            ),
            "",
        )
        rows.append(
            [
                record["cell_id"],
                headline,
                record["fingerprint"][:12],
                f"{record.get('wall_seconds', 0.0):.2f}",
            ]
        )
    table = render_table(
        ["cell", "headline metric", "fingerprint", "wall (s)"],
        rows,
        title=(
            f"Campaign grid: {len(result.records)}/{result.total} cells "
            f"({result.ran} run, {result.skipped} from checkpoint)"
        ),
    )
    fingerprint = result.fingerprint
    status = (
        f"grid fingerprint {fingerprint}"
        if fingerprint
        else "grid incomplete — re-run with the same spec to resume"
    )
    return f"{table}\n\n{status}"


__all__ = [
    "DEFAULT_CONTROLLERS",
    "DENSE_ONLY_CONTROLLERS",
    "EXPERIMENTS",
    "FIG5_VARIANTS",
    "ROBUSTNESS_COVERAGES",
    "CellOutcome",
    "GridCell",
    "GridResult",
    "GridSpec",
    "bound_set_fingerprint",
    "expand_cells",
    "format_grid",
    "run_cell",
    "run_grid",
]
