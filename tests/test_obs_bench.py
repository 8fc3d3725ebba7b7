"""Benchmark snapshot normalisation and perf-regression comparison."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.__main__ import main
from repro.obs.bench import (
    BENCH_SCHEMA,
    BenchFormatError,
    Metric,
    Snapshot,
    canonical_document,
    compare,
    format_comparison,
    load_snapshot,
    normalize,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PR10 = REPO_ROOT / "BENCH_PR10.json"
#: The committed canonical snapshots, oldest first.
BENCH_CHAIN = ("BENCH_PR5.json", "BENCH_PR7.json", "BENCH_PR9.json", "BENCH_PR10.json")


def _write(path: Path, document: dict) -> Path:
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def _canonical(metrics: dict[str, Metric]) -> dict:
    return canonical_document(metrics, generated_by="tests")


class TestNormalize:
    def test_canonical_round_trip(self):
        metrics = {
            "campaign.bounded.serial_seconds": Metric(1.5, "s", "lower"),
            "campaign.bounded.fingerprint": Metric("abc", "sha256", "exact"),
        }
        document = _canonical(metrics)
        assert document["schema"] == BENCH_SCHEMA
        assert normalize(document).metrics == metrics

    def test_unknown_schema_rejected(self):
        # bench-pr2/v1 and bench-pr4/v1 are the retired pre-canonical
        # layouts of BENCH_PR2.json and BENCH_PR4.json.
        for schema in ("bench-pr99/v1", "bench-pr2/v1", "bench-pr4/v1"):
            with pytest.raises(BenchFormatError, match="unknown benchmark schema"):
                normalize({"schema": schema})

    def test_bad_direction_rejected(self):
        document = _canonical({})
        document["metrics"]["x"] = {"value": 1, "direction": "sideways"}
        with pytest.raises(BenchFormatError, match="unknown direction"):
            normalize(document)

    def test_missing_file_raises_format_error(self, tmp_path):
        with pytest.raises(BenchFormatError, match="cannot read"):
            load_snapshot(tmp_path / "missing.json")

    def test_non_json_raises_format_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(BenchFormatError, match="not JSON"):
            load_snapshot(path)


class TestCompare:
    def _snapshot(self, **values) -> Snapshot:
        metrics = {
            "latency": Metric(values.get("latency", 1.0), "s", "lower"),
            "throughput": Metric(values.get("throughput", 100.0), "eps/s", "higher"),
            "fingerprint": Metric(values.get("fingerprint", "abc"), "sha256", "exact"),
            "footprint": Metric(values.get("footprint", 1000), "bytes", "info"),
        }
        return Snapshot(metrics)

    def test_identical_snapshots_are_clean(self):
        result = compare(self._snapshot(), self._snapshot())
        assert result.ok
        assert len(result.rows) == 4

    def test_latency_regression_beyond_threshold_fails(self):
        result = compare(
            self._snapshot(), self._snapshot(latency=1.30), threshold_pct=25
        )
        assert not result.ok
        (regression,) = result.regressions
        assert regression.name == "latency"
        assert regression.change_pct == pytest.approx(30.0)

    def test_latency_drift_within_threshold_passes(self):
        result = compare(
            self._snapshot(), self._snapshot(latency=1.20), threshold_pct=25
        )
        assert result.ok

    def test_throughput_drop_beyond_threshold_fails(self):
        result = compare(
            self._snapshot(), self._snapshot(throughput=70.0), threshold_pct=25
        )
        assert not result.ok
        assert result.regressions[0].name == "throughput"

    def test_faster_is_never_a_regression(self):
        result = compare(
            self._snapshot(),
            self._snapshot(latency=0.1, throughput=500.0),
            threshold_pct=25,
        )
        assert result.ok

    def test_fingerprint_mismatch_fails_at_any_threshold(self):
        result = compare(
            self._snapshot(),
            self._snapshot(fingerprint="zzz"),
            threshold_pct=1e9,
        )
        assert not result.ok
        assert result.regressions[0].name == "fingerprint"

    def test_info_metrics_never_fail(self):
        result = compare(
            self._snapshot(), self._snapshot(footprint=10**9), threshold_pct=1
        )
        assert result.ok

    def test_disjoint_metrics_are_skipped(self):
        old = Snapshot({"a": Metric(1.0, "s", "lower")})
        new = Snapshot({"b": Metric(1.0, "s", "lower")})
        result = compare(old, new)
        assert result.rows == []
        assert result.ok

    def test_format_mentions_regression(self):
        result = compare(self._snapshot(), self._snapshot(latency=2.0))
        text = format_comparison(result)
        assert "REGRESSED" in text
        assert "1 regression(s)" in text


class TestCli:
    """Acceptance criteria: self-compare of a committed baseline exits 0;
    an injected 30 % latency regression and a fingerprint flip exit 1;
    an unknown schema exits 2."""

    def test_self_compare_of_pr10_baseline_exits_zero(self, capsys):
        assert main(
            ["bench", "compare", str(BENCH_PR10), str(BENCH_PR10)]
        ) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_thirty_percent_regression_exits_one(
        self, tmp_path, capsys
    ):
        regressed = json.loads(BENCH_PR10.read_text())
        for metric in regressed["metrics"].values():
            if metric["direction"] == "lower":
                metric["value"] *= 1.30
        new = _write(tmp_path / "new.json", regressed)
        code = main(
            ["bench", "compare", str(BENCH_PR10), str(new), "--threshold", "25"]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_fingerprint_mismatch_exits_one(self, tmp_path, capsys):
        tampered = json.loads(BENCH_PR10.read_text())
        tampered["metrics"]["campaign.bounded_depth_1.fingerprint"]["value"] = (
            "0" * 64
        )
        new = _write(tmp_path / "new.json", tampered)
        assert main(["bench", "compare", str(BENCH_PR10), str(new)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_unknown_schema_exits_two(self, tmp_path, capsys):
        bad = _write(tmp_path / "bad.json", {"schema": "bench-pr99/v1"})
        assert main(["bench", "compare", str(BENCH_PR10), str(bad)]) == 2
        assert "unknown benchmark schema" in capsys.readouterr().out

    def test_missing_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["bench", "compare", str(BENCH_PR10), str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().out


@pytest.mark.parametrize("old, new", list(zip(BENCH_CHAIN, BENCH_CHAIN[1:])))
def test_committed_chain_exact_metrics_match(old, new):
    """Every fingerprint and parity flag two consecutive committed snapshots
    share agrees.  Their wall-clock metrics are frozen figures from
    different machines, so they are not compared."""
    result = compare(load_snapshot(REPO_ROOT / old), load_snapshot(REPO_ROOT / new))
    exact = [row for row in result.rows if row.direction == "exact"]
    assert exact
    assert [row.name for row in exact if row.regressed] == []


class TestStoreView:
    """The grid results store as a benchmark trajectory."""

    def _store(self, tmp_path):
        from repro.experiments.store import GRID_SCHEMA, ResultsStore

        store = ResultsStore(tmp_path / "store")
        store.append(
            {
                "schema": GRID_SCHEMA,
                "cell_id": "table1/oracle/seed7/dense/n3",
                "fingerprint": "a" * 64,
                "metrics": {"cost": 84.4},
                "wall_seconds": 0.5,
                "artifact": None,
            }
        )
        store.append(
            {
                "schema": GRID_SCHEMA,
                "cell_id": "fig5/random/seed7/dense/n2",
                "fingerprint": "b" * 64,
                "metrics": {"final_upper_bound": 497.8},
                "wall_seconds": 0.1,
                "artifact": "artifacts/fig5__random__seed7__dense__n2.npz",
            }
        )
        return store

    def test_store_snapshot_marks_fingerprints_exact(self, tmp_path):
        from repro.obs.bench import store_snapshot

        snapshot = store_snapshot(self._store(tmp_path))
        fingerprint = snapshot.metrics[
            "grid.table1.oracle.seed7.dense.n3.fingerprint"
        ]
        assert fingerprint.direction == "exact"
        assert fingerprint.value == "a" * 64
        cost = snapshot.metrics["grid.table1.oracle.seed7.dense.n3.cost"]
        assert cost.direction == "info"

    def test_fingerprint_drift_between_sweeps_regresses(self, tmp_path):
        from repro.obs.bench import store_snapshot

        old = store_snapshot(self._store(tmp_path))
        drifted = self._store(tmp_path)  # same dir: appends duplicates
        drifted.append(
            {
                "schema": "repro-grid/v1",
                "cell_id": "fig5/random/seed7/dense/n2",
                "fingerprint": "c" * 64,
                "metrics": {},
            }
        )
        result = compare(old, store_snapshot(drifted))
        assert [row.name for row in result.regressions] == [
            "grid.fig5.random.seed7.dense.n2.fingerprint"
        ]

    def test_cli_store_renders_and_exports(self, tmp_path, capsys):
        store = self._store(tmp_path)
        out = tmp_path / "snapshot.json"
        code = main(["bench", "store", str(store.root), "--snapshot", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "2 record(s), 2 distinct cell(s)" in text
        document = json.loads(out.read_text())
        assert document["schema"] == BENCH_SCHEMA
        assert main(["bench", "compare", str(out), str(out)]) == 0

    def test_cli_store_rejects_non_directory(self, tmp_path, capsys):
        assert main(["bench", "store", str(tmp_path / "missing")]) == 2
        assert "not a results-store" in capsys.readouterr().out
