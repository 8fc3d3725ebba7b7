"""Canonical benchmark snapshots and perf-regression comparison.

This module defines the canonical snapshot schema and the comparison that
turns two snapshots into a regression verdict.

**Canonical schema** (``repro-bench/v1``)::

    {
      "schema": "repro-bench/v1",
      "generated_by": "...",
      "machine": {"cpu_count": ..., "platform": ..., "python": ...},
      "seed": 2006,
      "source_schemas": ["repro-grid/v1"],
      "metrics": {
        "<dotted.name>": {"value": ..., "unit": "...", "direction": "..."}
      }
    }

``machine`` and ``seed`` record where a committed snapshot was measured;
nothing reads them back, and ``bench store`` writes them empty.  Every
metric is self-describing: ``direction`` is ``"lower"`` (latency —
regression when the new value exceeds the old by more than the threshold),
``"higher"`` (throughput), ``"exact"`` (fingerprints and parity flags —
any change is a failure at any threshold), or ``"info"`` (recorded but
never compared, e.g. memory footprints that vary with allocator
behaviour).  :func:`load_snapshot` reads this schema only; any other
``schema`` tag is a :class:`BenchFormatError`.

Exit codes follow the ``repro.analysis`` CLI convention: 0 — no
regressions; 1 — at least one regression or exact-metric mismatch;
2 — usage or I/O error (unreadable file, unknown schema).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.util.tables import render_table

#: The canonical snapshot schema tag.
BENCH_SCHEMA = "repro-bench/v1"

#: Default regression threshold (percent) for directional metrics.
DEFAULT_THRESHOLD_PCT = 25.0

#: Valid ``direction`` values of a canonical metric.
DIRECTIONS = frozenset({"lower", "higher", "exact", "info"})


class BenchFormatError(ValueError):
    """A snapshot file is unreadable or not a known benchmark schema."""


@dataclass(frozen=True)
class Metric:
    """One canonical benchmark measurement."""

    value: Any
    unit: str
    direction: str


@dataclass(frozen=True)
class Snapshot:
    """A ``repro-bench/v1`` snapshot's metrics, by dotted name."""

    metrics: dict[str, Metric]


def normalize(document: dict[str, Any]) -> Snapshot:
    """Validate a decoded ``repro-bench/v1`` document into a :class:`Snapshot`."""
    schema = document.get("schema")
    if schema != BENCH_SCHEMA:
        raise BenchFormatError(
            f"unknown benchmark schema {schema!r} (known: {BENCH_SCHEMA!r})"
        )
    metrics: dict[str, Metric] = {}
    for name, entry in document.get("metrics", {}).items():
        if not isinstance(entry, dict) or "value" not in entry:
            raise BenchFormatError(
                f"metric {name!r} must be an object with a 'value' field"
            )
        direction = entry.get("direction", "info")
        if direction not in DIRECTIONS:
            raise BenchFormatError(
                f"metric {name!r} has unknown direction {direction!r}"
            )
        metrics[name] = Metric(
            entry["value"], entry.get("unit", ""), direction
        )
    return Snapshot(metrics)


def load_snapshot(path: str | Path) -> Snapshot:
    """Read and normalise a benchmark snapshot file."""
    try:
        with open(path, encoding="utf-8") as stream:
            document = json.load(stream)
    except OSError as error:
        raise BenchFormatError(f"cannot read {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise BenchFormatError(f"{path} is not JSON: {error}") from error
    if not isinstance(document, dict):
        raise BenchFormatError(f"{path}: snapshot must be a JSON object")
    return normalize(document)


def canonical_document(
    metrics: dict[str, Metric],
    generated_by: str,
    source_schemas: list[str] | None = None,
) -> dict[str, Any]:
    """Assemble a canonical ``repro-bench/v1`` document for serialisation."""
    return {
        "schema": BENCH_SCHEMA,
        "generated_by": generated_by,
        "machine": {},
        "seed": None,
        "source_schemas": source_schemas or [],
        "metrics": {
            name: {
                "value": metric.value,
                "unit": metric.unit,
                "direction": metric.direction,
            }
            for name, metric in sorted(metrics.items())
        },
    }


def store_snapshot(root) -> Snapshot:
    """Normalise a grid results store into a comparable :class:`Snapshot`.

    Every completed cell contributes its deterministic fingerprint as an
    ``exact`` metric named ``grid.<cell id with dots>.fingerprint`` — so
    ``compare(store_snapshot(a), store_snapshot(b))`` fails on any drift
    between two sweeps of the same spec — plus its scalar metrics and wall
    time as ``info`` metrics (recorded in exports, never gated: a code
    change may legitimately move them, and the fingerprint already catches
    unintentional moves bit-exactly).

    Accepts a store directory path or a ``ResultsStore``.  This is how the
    BENCH history becomes a queryable trajectory: sweep into a store,
    export with ``python -m repro.obs bench store DIR --snapshot OUT.json``,
    and gate future sweeps against the export with ``bench compare``.
    """
    from repro.experiments.store import ResultsStore

    store = root if isinstance(root, ResultsStore) else ResultsStore(root)
    metrics: dict[str, Metric] = {}
    completed = store.completed()
    for cell_id in sorted(completed):
        record = completed[cell_id]
        prefix = "grid." + str(cell_id).replace("/", ".")
        metrics[f"{prefix}.fingerprint"] = Metric(
            record["fingerprint"], "sha256", "exact"
        )
        cell_metrics = record.get("metrics", {})
        for name in sorted(cell_metrics):
            metrics[f"{prefix}.{name}"] = Metric(cell_metrics[name], "", "info")
        if "wall_seconds" in record:
            metrics[f"{prefix}.wall_seconds"] = Metric(
                record["wall_seconds"], "s", "info"
            )
    return Snapshot(metrics)


def format_store(root) -> str:
    """Render a results store's full record history as a table.

    Unlike :func:`store_snapshot` (latest record per cell) this shows the
    *trajectory*: every append, including re-runs of the same cell, in
    append order.
    """
    from repro.experiments.store import ResultsStore

    store = root if isinstance(root, ResultsStore) else ResultsStore(root)
    records = store.records()
    if not records:
        return f"{store.root}: no completed cells\n"
    rows = []
    for record in records:
        metrics = record.get("metrics", {})
        rows.append(
            [
                record["cell_id"],
                record["fingerprint"][:12],
                "" if "cost" not in metrics else f"{metrics['cost']:.4g}",
                f"{record.get('wall_seconds', 0.0):.2f}",
                record.get("artifact") or "",
            ]
        )
    skipped = getattr(store, "skipped_lines", 0)
    footer = (
        f"\n({skipped} torn/foreign line(s) skipped)\n" if skipped else "\n"
    )
    table = render_table(
        ["cell", "fingerprint", "cost", "wall (s)", "artifact"],
        rows,
        title=(
            f"{store.root}: {len(records)} record(s), "
            f"{len({r['cell_id'] for r in records})} distinct cell(s)"
        ),
    )
    return table + footer


@dataclass(frozen=True)
class MetricComparison:
    """Verdict for one metric present in both snapshots."""

    name: str
    old: Any
    new: Any
    unit: str
    direction: str
    change_pct: float | None
    regressed: bool


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of comparing two snapshots metric by metric."""

    rows: list[MetricComparison]
    threshold_pct: float

    @property
    def regressions(self) -> list[MetricComparison]:
        return [row for row in self.rows if row.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare(
    old: Snapshot, new: Snapshot, threshold_pct: float = DEFAULT_THRESHOLD_PCT
) -> ComparisonResult:
    """Compare the metrics present in both snapshots.

    Directional metrics regress when they move against their direction by
    more than ``threshold_pct`` percent of the old value; ``exact`` metrics
    (fingerprints, parity flags) fail on *any* difference; ``info`` metrics
    are reported but never fail.  Metrics present in only one snapshot are
    skipped — PR-era snapshots legitimately measure different things.
    """
    rows: list[MetricComparison] = []
    factor = threshold_pct / 100.0
    for name in sorted(old.metrics.keys() & new.metrics.keys()):
        before, after = old.metrics[name], new.metrics[name]
        direction = after.direction if before.direction == "info" else before.direction
        change_pct: float | None = None
        regressed = False
        old_value, new_value = before.value, after.value
        numeric = isinstance(old_value, (int, float)) and isinstance(
            new_value, (int, float)
        ) and not isinstance(old_value, bool) and not isinstance(new_value, bool)
        if direction == "exact":
            regressed = old_value != new_value
        elif numeric and direction in ("lower", "higher"):
            if old_value:
                change_pct = 100.0 * (new_value - old_value) / abs(old_value)
            if direction == "lower":
                regressed = new_value > old_value * (1.0 + factor)
            else:
                regressed = new_value < old_value * (1.0 - factor)
        rows.append(
            MetricComparison(
                name=name,
                old=old_value,
                new=new_value,
                unit=before.unit,
                direction=direction,
                change_pct=change_pct,
                regressed=regressed,
            )
        )
    return ComparisonResult(rows=rows, threshold_pct=threshold_pct)


def format_comparison(result: ComparisonResult) -> str:
    """Render a comparison as a table plus a one-line verdict."""
    if not result.rows:
        return "no overlapping metrics to compare\n"

    def cell(value: Any) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        if isinstance(value, str) and len(value) > 16:
            return value[:13] + "..."
        return str(value)

    rows = [
        [
            row.name,
            cell(row.old),
            cell(row.new),
            "-" if row.change_pct is None else f"{row.change_pct:+.1f}%",
            row.direction,
            "REGRESSED" if row.regressed else "ok",
        ]
        for row in result.rows
    ]
    table = render_table(
        ["metric", "old", "new", "change", "direction", "status"],
        rows,
        title=(
            f"benchmark comparison "
            f"(threshold {result.threshold_pct:g}% on directional metrics)"
        ),
    )
    count = len(result.regressions)
    verdict = (
        f"{count} regression(s) out of {len(result.rows)} compared metrics"
        if count
        else f"no regressions across {len(result.rows)} compared metrics"
    )
    return f"{table}\n\n{verdict}\n"
