"""The obs v3 runtime metrics plane: histograms, snapshots, exposition."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.controllers.bounded import BoundedPolicyEngine
from repro.obs.live import (
    SnapshotRing,
    format_watch,
    render_prometheus,
    snapshot,
    snapshot_event,
)
from repro.obs.schema import validate_event, validate_stream
from repro.obs.telemetry import (
    HISTOGRAM_QUANTILES,
    LATENCY_BUCKET_EDGES,
    LatencyHistogram,
    Telemetry,
    session,
)
from repro.sim.campaign import run_campaign
from repro.sim.metrics import campaign_fingerprint


class TestBucketEdges:
    def test_edges_are_log_spaced_constants(self):
        assert len(LATENCY_BUCKET_EDGES) == 29
        assert LATENCY_BUCKET_EDGES[0] == pytest.approx(1e-5)
        assert LATENCY_BUCKET_EDGES[-1] == pytest.approx(100.0)
        ratios = [
            LATENCY_BUCKET_EDGES[i + 1] / LATENCY_BUCKET_EDGES[i]
            for i in range(len(LATENCY_BUCKET_EDGES) - 1)
        ]
        assert all(r == pytest.approx(10.0 ** 0.25) for r in ratios)

    def test_quantile_constants(self):
        assert HISTOGRAM_QUANTILES == (0.5, 0.95, 0.99)


class TestLatencyHistogram:
    def test_record_buckets_by_upper_edge(self):
        histogram = LatencyHistogram()
        histogram.record(1e-5)  # exactly the first edge -> first bucket
        histogram.record(1.5e-5)  # between edges 0 and 1 -> second bucket
        histogram.record(1000.0)  # beyond the last edge -> overflow slot
        assert histogram.counts[0] == 1
        assert histogram.counts[1] == 1
        assert histogram.counts[-1] == 1
        assert histogram.total == 3

    def test_quantiles_are_bucket_edges(self):
        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.record(0.003)
        histogram.record(5.0)
        p50 = histogram.quantile(0.5)
        assert p50 in LATENCY_BUCKET_EDGES
        assert p50 >= 0.003
        assert histogram.quantile(0.99) < histogram.quantile(1.0)
        assert histogram.max_seconds() in LATENCY_BUCKET_EDGES

    def test_empty_and_overflow_quantiles(self):
        assert LatencyHistogram().quantile(0.5) == 0.0
        assert LatencyHistogram().max_seconds() == 0.0
        overflow = LatencyHistogram()
        overflow.record(1e9)
        assert math.isinf(overflow.quantile(0.5))
        assert overflow.summary()["p50_ms"] is None

    def test_summary_payload(self):
        histogram = LatencyHistogram()
        histogram.record(0.01)
        payload = histogram.summary()
        assert payload["count"] == 1
        assert payload["sum_seconds"] == pytest.approx(0.01)
        assert len(payload["counts"]) == len(LATENCY_BUCKET_EDGES) + 1
        assert payload["p50_ms"] == payload["p99_ms"] == payload["max_ms"]

    def test_merge_is_elementwise_addition(self):
        a = LatencyHistogram()
        b = LatencyHistogram()
        a.record(0.001)
        b.record(0.1)
        b.record(10.0)
        a.merge(b.counts, b.sum_seconds)
        assert a.total == 3
        assert a.sum_seconds == pytest.approx(10.101)

    def test_rejects_wrong_slot_count(self):
        with pytest.raises(ValueError, match="slots"):
            LatencyHistogram(counts=[0, 1, 2])


class TestChunkedMergeInvariance:
    """The worker-count-invariance contract, stated on merges.

    Raw latencies differ run to run, so the invariance the histograms
    guarantee — and the campaign engine relies on — is algebraic: for a
    *fixed* sequence of observations, recording serially and recording
    across any chunking absorbed in chunk order produce bucket-for-bucket
    identical aggregates (merge is commutative element-wise addition, the
    same contract as the deterministic counters).
    """

    DURATIONS = [10.0 ** (-4 + (i % 17) / 3.0) for i in range(200)]

    def test_serial_equals_four_chunks(self):
        serial = Telemetry()
        for value in self.DURATIONS:
            serial.observe_latency("decide", value)

        merged = Telemetry()
        for chunk in np.array_split(np.asarray(self.DURATIONS), 4):
            worker = Telemetry()
            for value in chunk:
                worker.observe_latency("decide", float(value))
            merged.absorb(worker.snapshot())

        assert (
            merged.histograms["decide"].counts
            == serial.histograms["decide"].counts
        )
        assert merged.histograms["decide"].sum_seconds == pytest.approx(
            serial.histograms["decide"].sum_seconds
        )
        assert (
            merged.histograms["decide"].summary()["p99_ms"]
            == serial.histograms["decide"].summary()["p99_ms"]
        )

    def test_chunk_order_does_not_matter(self):
        chunks = [
            np.asarray(self.DURATIONS[i::3]) for i in range(3)
        ]
        forward, backward = Telemetry(), Telemetry()
        for chunk in chunks:
            worker = Telemetry()
            for value in chunk:
                worker.observe_latency("decide", float(value))
            forward.absorb(worker.snapshot())
        for chunk in reversed(chunks):
            worker = Telemetry()
            for value in chunk:
                worker.observe_latency("decide", float(value))
            backward.absorb(worker.snapshot())
        assert (
            forward.histograms["decide"].counts
            == backward.histograms["decide"].counts
        )


class TestCampaignHistograms:
    """Campaign integration: histogram counts ride the counter contract."""

    INJECTIONS = 16
    SEED = 7

    def _campaign(self, system, parallel, telemetry_on=True):
        engine = BoundedPolicyEngine(system.model, depth=1)
        faults = np.array([system.fault_a, system.fault_b])
        if not telemetry_on:
            return run_campaign(
                engine,
                fault_states=faults,
                injections=self.INJECTIONS,
                seed=self.SEED,
                parallel=parallel,
            )
        with session() as telemetry:
            result = run_campaign(
                engine,
                fault_states=faults,
                injections=self.INJECTIONS,
                seed=self.SEED,
                parallel=parallel,
            )
        return result, telemetry

    def test_histogram_totals_are_worker_count_invariant(self, simple_system):
        _, serial = self._campaign(simple_system, parallel=None)
        _, sharded = self._campaign(simple_system, parallel=4)
        assert serial.histograms.keys() == sharded.histograms.keys()
        assert "session.decide" in serial.histograms
        for name in serial.histograms:
            # Totals (observation counts) are deterministic; the bucket
            # *placement* of each observation is wall-clock and is not.
            assert (
                serial.histograms[name].total == sharded.histograms[name].total
            ), name
        assert (
            serial.histograms["session.decide"].total
            == serial.counters["controller.decisions"]
        )

    def test_fingerprint_identical_with_telemetry_on_and_off(
        self, simple_system
    ):
        result_on, _ = self._campaign(simple_system, parallel=2)
        result_off = self._campaign(
            simple_system, parallel=2, telemetry_on=False
        )
        assert campaign_fingerprint(result_on.episodes) == campaign_fingerprint(
            result_off.episodes
        )


class TestLiveSnapshot:
    def _loaded(self) -> Telemetry:
        telemetry = Telemetry()
        telemetry.count("controller.decisions", 5)
        telemetry.count_process("cache.hits", 2)
        telemetry.gauge("bounds.set_size", 17.0)
        with telemetry.span("solver.solve"):
            pass
        telemetry.observe_latency("serve.session_decide", 0.004)
        return telemetry

    def test_snapshot_sections(self):
        snap = snapshot(self._loaded())
        assert snap["counters"]["controller.decisions"] == 5
        assert snap["process_counters"]["cache.hits"] == 2
        assert snap["gauges"]["bounds.set_size"] == 17.0
        assert snap["histograms"]["solver.solve"]["count"] == 1
        assert snap["histograms"]["serve.session_decide"]["count"] == 1
        json.dumps(snap)  # JSON-ready throughout

    def test_snapshot_while_writers_race(self):
        import threading

        telemetry = Telemetry()
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                telemetry.count(f"counter.{i % 50}")
                telemetry.observe_latency(f"histogram.{i % 50}", 0.001)
                i += 1

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(50):
                snap = snapshot(telemetry)
                assert isinstance(snap["counters"], dict)
        finally:
            stop.set()
            for thread in threads:
                thread.join()

    def test_snapshot_event_is_schema_valid(self, tmp_path):
        telemetry = self._loaded()
        record = snapshot_event(telemetry, seq=1, t=12.5)
        assert record["event"] == "metrics_snapshot"
        assert validate_event(record) == []
        # A flusher stream: header + snapshots, valid at any truncation.
        path = tmp_path / "metrics.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(
                json.dumps(
                    {
                        "event": "session_start",
                        "seq": 0,
                        "schema": "repro-obs/v3",
                    }
                )
                + "\n"
            )
            stream.write(json.dumps(record) + "\n")
            stream.write(
                json.dumps(snapshot_event(telemetry, seq=2, t=22.5)) + "\n"
            )
        assert validate_stream(path) == []


class TestPrometheusExposition:
    def _snap(self):
        telemetry = Telemetry()
        telemetry.count("controller.decisions", 3)
        telemetry.count_process("serve.decisions", 3)
        telemetry.gauge("serve.live_sessions", 2.0)
        with telemetry.span("bounds.refine"):
            pass
        telemetry.observe_latency("serve.session_decide", 0.004)
        telemetry.observe_latency("serve.session_decide", 0.2)
        return snapshot(telemetry)

    def test_renders_all_metric_families(self):
        text = render_prometheus(self._snap())
        assert "# TYPE repro_controller_decisions_total counter" in text
        assert "repro_controller_decisions_total 3" in text
        assert "repro_serve_live_sessions 2" in text
        assert "repro_bounds_refine_latency_seconds_count 1" in text
        assert (
            "# TYPE repro_serve_session_decide_latency_seconds histogram"
            in text
        )
        assert 'le="+Inf"} 2' in text
        assert "repro_serve_session_decide_latency_seconds_count 2" in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_prometheus(self._snap())
        values = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_serve_session_decide_latency_seconds_bucket")
        ]
        assert len(values) == len(LATENCY_BUCKET_EDGES) + 1
        assert values == sorted(values)
        assert values[-1] == 2

    def test_rendering_is_byte_stable_and_sorted(self):
        snap = self._snap()
        assert render_prometheus(snap) == render_prometheus(snap)
        # Each section renders its metric names in sorted order whatever
        # the insertion order of the underlying dict.
        shuffled = {
            "counters": {"z.last": 1, "a.first": 2, "m.middle": 3},
        }
        names = [
            line.split()[0]
            for line in render_prometheus(shuffled).splitlines()
            if not line.startswith("#")
        ]
        assert names == sorted(names)


class TestSnapshotRing:
    def test_rates_over_window(self):
        ring = SnapshotRing(capacity=4)
        assert ring.rate("serve.decisions", section="process_counters") is None
        for t, count in [(0.0, 0), (1.0, 10), (2.0, 30)]:
            ring.push(t, {"process_counters": {"serve.decisions": count}})
        assert ring.window_seconds == pytest.approx(2.0)
        assert ring.rate(
            "serve.decisions", section="process_counters"
        ) == pytest.approx(15.0)

    def test_capacity_bounds_history(self):
        ring = SnapshotRing(capacity=2)
        for t in range(5):
            ring.push(float(t), {"counters": {"x": t}})
        assert len(ring) == 2
        assert ring.window_seconds == pytest.approx(1.0)

    def test_rejects_degenerate_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            SnapshotRing(capacity=1)


class TestFormatWatch:
    def test_renders_sessions_latency_and_rates(self):
        telemetry = Telemetry()
        telemetry.count("bounds.refinements", 10)
        telemetry.count("bounds.refinements_accepted", 4)
        telemetry.gauge("bounds.set_size", 9.0)
        telemetry.count_process("cache.hits", 8)
        telemetry.count_process("cache.builds", 2)
        telemetry.observe_latency("serve.session_decide", 0.004)
        metrics = snapshot(telemetry)
        stats = {
            "draining": False,
            "live_sessions": 1,
            "decisions": 12,
            "bound_vectors": 9,
            "sessions": {"s0": {"steps": 3, "done": False}},
        }
        ring = SnapshotRing()
        ring.push(0.0, {"process_counters": {"serve.decisions": 0}})
        ring.push(2.0, {"process_counters": {"serve.decisions": 12}})
        screen = format_watch(metrics, stats, ring)
        assert "repro.serve [serving]" in screen
        assert "decisions/s" in screen
        assert "serve.session_decide" in screen
        assert "refinement: 10 attempts, 4 accepted (40.0%), |B| 9" in screen
        assert "joint-factor cache: 8/10 hits (80.0%)" in screen
        assert "s0" in screen and "steps=3" in screen

    def test_metrics_only_view(self):
        screen = format_watch({"counters": {}, "histograms": {}})
        assert screen.startswith("repro live metrics")
