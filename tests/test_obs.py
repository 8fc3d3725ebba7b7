"""The observability layer: registry semantics, sessions, chunk merges."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.controllers.bounded import BoundedPolicyEngine
from repro.controllers.most_likely import MostLikelyPolicyEngine
from repro.obs import (
    SCHEMA_VERSION,
    Telemetry,
    activated,
    active,
    enabled,
    session,
    validate_event,
    validate_stream,
)
from repro.obs.telemetry import EVENTS_DROPPED_COUNTER
from repro.sim.campaign import run_campaign


class TestRegistry:
    def test_counters_accumulate(self):
        telemetry = Telemetry()
        telemetry.count("a")
        telemetry.count("a", 4)
        telemetry.count("b")
        assert telemetry.counters == {"a": 5, "b": 1}

    def test_process_counters_are_a_separate_namespace(self):
        telemetry = Telemetry()
        telemetry.count("cache.hits")
        telemetry.count_process("cache.hits", 3)
        assert telemetry.counters["cache.hits"] == 1
        assert telemetry.process_counters["cache.hits"] == 3

    def test_gauge_keeps_latest_value(self):
        telemetry = Telemetry()
        telemetry.gauge("size", 3)
        telemetry.gauge("size", 2)
        assert telemetry.gauges == {"size": 2.0}

    def test_span_accumulates_time_and_calls(self):
        telemetry = Telemetry()
        for _ in range(3):
            with telemetry.span("work") as window:
                pass
        histogram = telemetry.histograms["work"]
        assert histogram.total == 3
        assert histogram.sum_seconds >= window.seconds >= 0.0

    def test_span_records_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with telemetry.span("work"):
                raise RuntimeError("boom")
        assert telemetry.histograms["work"].total == 1


class TestActivation:
    def test_disabled_by_default(self):
        assert active() is None
        assert not enabled()

    def test_activated_swaps_and_restores(self):
        telemetry = Telemetry()
        with activated(telemetry):
            assert active() is telemetry
            assert enabled()
        assert active() is None

    def test_activated_restores_on_exception(self):
        telemetry = Telemetry()
        with pytest.raises(RuntimeError):
            with activated(telemetry):
                raise RuntimeError("boom")
        assert active() is None

    def test_activated_none_shields_outer_registry(self):
        """Chunks swap to their own registry — even to None — so the
        caller's registry never double-counts chunk-side work."""
        outer = Telemetry()
        with activated(outer):
            with activated(None):
                assert active() is None
            assert active() is outer


class TestSnapshotAbsorb:
    def _loaded(self):
        telemetry = Telemetry()
        telemetry.count("decisions", 2)
        telemetry.count_process("cache.hits", 1)
        telemetry.gauge("set_size", 5)
        with telemetry.span("work"):
            pass
        telemetry.event("episode_start", episode=0, fault_state=3)
        return telemetry

    def test_snapshot_is_picklable(self):
        import pickle

        snapshot = self._loaded().snapshot()
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.counters == snapshot.counters
        assert clone.events == snapshot.events

    def test_absorb_adds_counters_and_maxes_gauges(self):
        target = Telemetry()
        target.count("decisions")
        target.gauge("set_size", 9)
        target.absorb(self._loaded().snapshot())
        assert target.counters["decisions"] == 3
        assert target.process_counters["cache.hits"] == 1
        assert target.gauges["set_size"] == 9.0  # max wins
        assert target.histograms["work"].total == 1

    def test_absorb_replays_events_with_chunk_tag(self):
        target = Telemetry()
        target.absorb(self._loaded().snapshot(), chunk=7)
        snapshot = target.snapshot()
        (record,) = snapshot.events
        assert record["event"] == "episode_start"
        assert record["chunk"] == 7
        assert record["fault_state"] == 3

    def test_absorbed_events_get_fresh_monotonic_seq(self):
        target = Telemetry()
        target.event("session_start", schema=SCHEMA_VERSION)
        target.absorb(self._loaded().snapshot(), chunk=0)
        seqs = [record["seq"] for record in target.snapshot().events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestSession:
    def test_writes_framed_schema_valid_jsonl(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with session(path) as telemetry:
            telemetry.count("decisions")
            telemetry.event("episode_start", episode=0, fault_state=1)
        assert validate_stream(path) == []
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        kinds = [record["event"] for record in records]
        assert kinds[0] == "session_start"
        assert records[0]["schema"] == SCHEMA_VERSION
        assert kinds[-2:] == ["summary", "session_end"]
        assert records[-2]["counters"] == {"decisions": 1}

    def test_buffers_without_path(self):
        with session() as telemetry:
            telemetry.event("episode_start", episode=0, fault_state=1)
        kinds = [r["event"] for r in telemetry.snapshot().events]
        assert kinds == ["session_start", "episode_start", "summary", "session_end"]

    def test_event_buffer_unbounded_by_default(self):
        telemetry = Telemetry()
        for episode in range(3000):
            telemetry.event("episode_start", episode=episode, fault_state=1)
        assert len(telemetry.snapshot().events) == 3000
        assert EVENTS_DROPPED_COUNTER not in telemetry.process_counters

    @pytest.mark.parametrize("max_events", [0, -1])
    def test_event_bound_below_one_rejected(self, max_events):
        with pytest.raises(ValueError, match="max_events"):
            Telemetry(max_events=max_events)

    def test_deactivates_on_exit(self, tmp_path):
        with session(tmp_path / "run.jsonl"):
            assert enabled()
        assert not enabled()


class TestSchemaValidation:
    def test_unknown_kind_rejected(self):
        assert validate_event({"event": "nope", "seq": 0})

    def test_missing_required_fields_rejected(self):
        problems = validate_event({"event": "episode_start", "seq": 0})
        assert any("missing required fields" in p for p in problems)

    def test_valid_event_accepted(self):
        record = {"event": "episode_start", "seq": 0, "episode": 1, "fault_state": 2}
        assert validate_event(record) == []

    def test_non_monotonic_seq_flagged(self, tmp_path):
        path = tmp_path / "run.jsonl"
        lines = [
            {"event": "session_start", "seq": 0, "schema": SCHEMA_VERSION},
            {"event": "session_end", "seq": 0},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        problems = validate_stream(path)
        assert any("not increasing" in p for p in problems)

    def test_unframed_stream_flagged(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps({"event": "session_end", "seq": 0}) + "\n")
        problems = validate_stream(path)
        assert any("session_start" in p for p in problems)
        assert any("summary" in p for p in problems)


class TestCampaignIntegration:
    INJECTIONS = 24
    SEED = 11

    def _campaign(self, system, parallel):
        engine = BoundedPolicyEngine(system.model, depth=1)
        faults = np.array([system.fault_a, system.fault_b])
        with session() as telemetry:
            run_campaign(
                engine,
                fault_states=faults,
                injections=self.INJECTIONS,
                seed=self.SEED,
                parallel=parallel,
            )
        return telemetry

    def test_counters_are_worker_count_invariant(self, simple_system):
        """The acceptance criterion: aggregated deterministic counters (and
        gauges) are identical for serial and 4-worker runs."""
        serial = self._campaign(simple_system, parallel=None)
        sharded = self._campaign(simple_system, parallel=4)
        assert dict(serial.counters) == dict(sharded.counters)
        assert serial.gauges == sharded.gauges

    def test_episode_events_cover_every_injection(self, simple_system):
        telemetry = self._campaign(simple_system, parallel=2)
        events = telemetry.snapshot().events
        starts = [r for r in events if r["event"] == "episode_start"]
        ends = [r for r in events if r["event"] == "episode_end"]
        assert [r["episode"] for r in starts] == list(range(self.INJECTIONS))
        assert [r["episode"] for r in ends] == list(range(self.INJECTIONS))

    def test_stream_from_campaign_is_schema_valid(self, simple_system, tmp_path):
        path = tmp_path / "run.jsonl"
        engine = MostLikelyPolicyEngine(simple_system.model)
        faults = np.array([simple_system.fault_a, simple_system.fault_b])
        with session(path):
            run_campaign(
                engine, fault_states=faults, injections=8, seed=3, parallel=2
            )
        assert validate_stream(path) == []

    def test_numpy_integer_injections_stream_is_schema_valid(
        self, simple_system, tmp_path
    ):
        """A NumPy integer is a valid ``injections``; the JSONL stream must
        still encode the ``campaign_start`` event."""
        path = tmp_path / "run.jsonl"
        engine = MostLikelyPolicyEngine(simple_system.model)
        faults = np.array([simple_system.fault_a])
        with session(path):
            run_campaign(engine, fault_states=faults, injections=np.int64(4))
        assert validate_stream(path) == []

    def test_no_telemetry_outside_session(self, simple_system):
        """Off by default: running a campaign without a session must not
        activate or accumulate anything."""
        engine = MostLikelyPolicyEngine(simple_system.model)
        faults = np.array([simple_system.fault_a])
        run_campaign(engine, fault_states=faults, injections=4, seed=0)
        assert active() is None

    def test_decision_events_never_label_the_sentinel(self, simple_notified_system):
        """Notification models terminate with the NO_ACTION sentinel; the
        decision event carries it as data but no executable action."""
        engine = BoundedPolicyEngine(simple_notified_system.model, depth=1)
        faults = np.array(
            [simple_notified_system.fault_a, simple_notified_system.fault_b]
        )
        with session() as telemetry:
            run_campaign(
                engine, fault_states=faults, injections=6, seed=1
            )
        events = telemetry.snapshot().events
        decisions = [r for r in events if r["event"] == "decision"]
        assert decisions, "expected decision events from the bounded controller"
        for record in decisions:
            if record["action"] < 0:
                assert record["terminate"] is True


class TestThreadSafety:
    """Concurrent sessions share one registry; spans must not cross-link."""

    def test_span_stacks_are_per_thread(self):
        telemetry = Telemetry(trace=True)
        import threading

        barrier = threading.Barrier(4)

        def worker(label: str) -> None:
            barrier.wait()
            for turn in range(20):
                with telemetry.span("decision", session=label, turn=turn):
                    with telemetry.span("inner"):
                        pass

        threads = [
            threading.Thread(target=worker, args=(f"s{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = list(telemetry.spans)
        assert len(spans) == 4 * 20 * 2
        by_id = {span.span_id: span for span in spans}
        # Every inner span's parent is a decision span of the *same* thread's
        # session — interleaving across threads never produces a cross-thread
        # parent link.
        for span in spans:
            if span.name != "inner":
                continue
            parent = by_id[span.parent_id]
            assert parent.name == "decision"
        labelled = [dict(s.args)["session"] for s in spans if s.name == "decision"]
        assert sorted(set(labelled)) == ["s0", "s1", "s2", "s3"]

    def test_concurrent_events_are_not_lost(self):
        telemetry = Telemetry(trace=False)
        import threading

        def worker() -> None:
            for _ in range(200):
                telemetry.event("decision", action=0, terminate=False)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        events = telemetry.snapshot().events
        assert len([e for e in events if e["event"] == "decision"]) == 800
        # seq numbers were allocated under the lock: unique and gap-free.
        seqs = sorted(e["seq"] for e in events)
        assert seqs == list(range(len(events)))
