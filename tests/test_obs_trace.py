"""Hierarchical span tracing: recording, merge determinism, exporters."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro.controllers.bounded import BoundedPolicyEngine
from repro.obs import session
from repro.obs.telemetry import (
    SPANS_DROPPED_COUNTER,
    SpanRecord,
    Telemetry,
    active,
    span,
)
from repro.obs.trace import (
    read_spans,
    span_tree,
    to_chrome_trace,
    to_collapsed_stacks,
    write_chrome_trace,
)
from repro.sim.campaign import run_campaign
from repro.sim.metrics import campaign_fingerprint


class TestSpanRecording:
    def test_nesting_produces_parent_ids(self):
        telemetry = Telemetry(trace=True)
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        spans = {span.name: span for span in telemetry.spans}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id

    def test_children_close_before_parents(self):
        telemetry = Telemetry(trace=True)
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        assert [span.name for span in telemetry.spans] == ["inner", "outer"]

    def test_siblings_share_parent(self):
        telemetry = Telemetry(trace=True)
        with telemetry.span("root"):
            with telemetry.span("a"):
                pass
            with telemetry.span("b"):
                pass
        spans = {span.name: span for span in telemetry.spans}
        assert spans["a"].parent_id == spans["b"].parent_id == spans["root"].span_id

    def test_args_are_recorded_sorted(self):
        telemetry = Telemetry(trace=True)
        with telemetry.span("s", zeta=1, alpha=2):
            pass
        (span,) = telemetry.spans
        assert span.args == (("alpha", 2), ("zeta", 1))

    def test_durations_nest(self):
        telemetry = Telemetry(trace=True)
        with telemetry.span("outer"):
            with telemetry.span("inner"):
                pass
        spans = {span.name: span for span in telemetry.spans}
        assert spans["inner"].seconds <= spans["outer"].seconds
        assert spans["inner"].t_start >= spans["outer"].t_start

    def test_disabled_tracing_records_nothing(self):
        telemetry = Telemetry()  # trace off
        with telemetry.span("outer"):
            pass
        assert len(telemetry.spans) == 0

    def test_inactive_span_is_shared_noop(self):
        assert active() is None
        assert span("a") is span("b", category="tree", k=1)


class TestRingBuffer:
    def test_oldest_spans_dropped_at_capacity(self):
        telemetry = Telemetry(trace=True, max_spans=3)
        for index in range(5):
            with telemetry.span(f"s{index}"):
                pass
        assert [span.name for span in telemetry.spans] == ["s2", "s3", "s4"]
        assert telemetry.events_dropped == 2
        assert telemetry.counters[SPANS_DROPPED_COUNTER] == 2

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_TRACE_SPANS", "2")
        telemetry = Telemetry(trace=True)
        assert telemetry.max_spans == 2

    def test_no_drops_below_capacity(self):
        telemetry = Telemetry(trace=True, max_spans=10)
        for _ in range(5):
            with telemetry.span("s"):
                pass
        assert telemetry.events_dropped == 0

    @pytest.mark.parametrize("max_spans", [0, -1, 2.5])
    def test_bad_capacity_argument_rejected(self, max_spans):
        with pytest.raises(ValueError, match="max_spans must be an integer >= 1"):
            Telemetry(trace=True, max_spans=max_spans)

    @pytest.mark.parametrize("value", ["0", "-1", "abc"])
    def test_bad_env_capacity_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_MAX_TRACE_SPANS", value)
        with pytest.raises(ValueError, match="REPRO_MAX_TRACE_SPANS"):
            Telemetry(trace=True)


class TestAbsorbMerge:
    def _chunk(self, episode: int) -> Telemetry:
        chunk = Telemetry(trace=True)
        with chunk.span("episode", episode=episode):
            with chunk.span("decision"):
                pass
        return chunk

    def test_chunk_roots_reparent_under_open_span(self):
        aggregate = Telemetry(trace=True)
        with aggregate.span("campaign"):
            aggregate.absorb(self._chunk(0).snapshot(), chunk=0)
        spans = {span.name: span for span in aggregate.spans}
        assert spans["episode"].parent_id == spans["campaign"].span_id
        assert spans["decision"].parent_id == spans["episode"].span_id

    def test_span_ids_stay_unique_across_chunks(self):
        aggregate = Telemetry(trace=True)
        with aggregate.span("campaign"):
            for index in range(3):
                aggregate.absorb(self._chunk(index).snapshot(), chunk=index)
        ids = [span.span_id for span in aggregate.spans]
        assert len(ids) == len(set(ids))

    def test_timestamps_rebase_end_to_end(self):
        aggregate = Telemetry(trace=True)
        with aggregate.span("campaign"):
            for index in range(2):
                aggregate.absorb(self._chunk(index).snapshot(), chunk=index)
        episodes = sorted(
            (span for span in aggregate.spans if span.name == "episode"),
            key=lambda span: span.span_id,
        )
        # Chunk 1's episode starts at or after chunk 0's extent.
        first_end = episodes[0].t_start + episodes[0].seconds
        assert episodes[1].t_start >= first_end - 1e-9

    def test_chunk_tag_appended_to_args(self):
        aggregate = Telemetry(trace=True)
        aggregate.absorb(self._chunk(0).snapshot(), chunk=7)
        for span in aggregate.spans:
            assert ("chunk", 7) in span.args


class TestSpanTree:
    def test_canonical_structure(self):
        telemetry = Telemetry(trace=True)
        with telemetry.span("root"):
            with telemetry.span("a", k=1):
                pass
            with telemetry.span("b"):
                pass
        (root,) = span_tree(list(telemetry.spans))
        assert root["name"] == "root"
        assert [child["name"] for child in root["children"]] == ["a", "b"]
        assert root["children"][0]["args"] == {"k": 1}

    def test_orphaned_spans_become_roots(self):
        spans = [
            SpanRecord(5, 99, "orphan", "repro", 0.0, 1.0),
        ]
        assert [node["name"] for node in span_tree(spans)] == ["orphan"]


class TestExporters:
    def _spans(self):
        telemetry = Telemetry(trace=True)
        with telemetry.span("root", phase="x"):
            with telemetry.span("leaf"):
                pass
        return list(telemetry.spans)

    def test_chrome_trace_structure(self):
        document = to_chrome_trace(self._spans())
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert set(event) >= {"name", "cat", "ts", "dur", "pid", "tid", "args"}
        # Sorted by start time: the root opens first.
        assert events[0]["name"] == "root"
        assert events[0]["args"]["phase"] == "x"

    def test_chrome_trace_round_trips_as_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(path, self._spans())
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == 2

    def test_collapsed_stacks_weights_are_self_time(self):
        spans = [
            SpanRecord(0, None, "root", "repro", 0.0, 2.0),
            SpanRecord(1, 0, "leaf", "repro", 0.5, 0.5),
        ]
        lines = dict(
            line.rsplit(" ", 1) for line in to_collapsed_stacks(spans)
        )
        assert int(lines["root"]) == 1_500_000  # 2.0 s - 0.5 s child
        assert int(lines["root;leaf"]) == 500_000

    def test_identical_stacks_merge(self):
        spans = [
            SpanRecord(0, None, "root", "repro", 0.0, 1.0),
            SpanRecord(1, None, "root", "repro", 1.0, 1.0),
        ]
        (line,) = to_collapsed_stacks(spans)
        assert line == "root 2000000"


class TestSessionIntegration:
    def test_session_emits_span_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with session(path, trace=True) as telemetry:
            with telemetry.span("outer"):
                pass
        kinds = [
            json.loads(line)["event"] for line in path.read_text().splitlines()
        ]
        assert "span" in kinds
        # Spans are flushed between the payload events and the summary.
        assert kinds.index("span") < kinds.index("summary")

    def test_read_spans_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with session(path, trace=True) as telemetry:
            with telemetry.span("outer", k=3):
                with telemetry.span("inner"):
                    pass
        recovered = read_spans(path)
        assert span_tree(recovered) == span_tree(list(telemetry.spans))

    def test_untraced_session_emits_no_span_events(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with session(path) as telemetry:
            with telemetry.span("outer"):
                pass
            telemetry.count("x")
        kinds = [
            json.loads(line)["event"] for line in path.read_text().splitlines()
        ]
        assert "span" not in kinds


class TestCampaignTraceDeterminism:
    """Satellite: the sim_parallel determinism contract extended to spans —
    serial and sharded campaigns produce the same span tree (modulo the
    rebased timestamps) and identical aggregated counters."""

    INJECTIONS = 24
    SEED = 11

    def _traced_campaign(self, system, parallel):
        engine = BoundedPolicyEngine(system.model, depth=1)
        faults = np.array([system.fault_a, system.fault_b])
        with session(trace=True) as telemetry:
            run_campaign(
                engine,
                fault_states=faults,
                injections=self.INJECTIONS,
                seed=self.SEED,
                parallel=parallel,
            )
        return telemetry

    @pytest.fixture(scope="class")
    def serial(self, simple_system):
        return self._traced_campaign(simple_system, parallel=None)

    @pytest.fixture(scope="class")
    def sharded(self, simple_system):
        return self._traced_campaign(simple_system, parallel=4)

    def test_span_tree_is_worker_count_invariant(self, serial, sharded):
        assert span_tree(list(serial.spans)) == span_tree(list(sharded.spans))

    def test_aggregated_counters_match_with_tracing_on(self, serial, sharded):
        assert dict(serial.counters) == dict(sharded.counters)
        assert serial.gauges == sharded.gauges

    def test_expected_hierarchy_levels_present(self, serial):
        tree = span_tree(list(serial.spans))
        (campaign,) = tree
        assert campaign["name"] == "campaign"
        episodes = campaign["children"]
        assert len(episodes) == self.INJECTIONS
        assert {node["name"] for node in episodes} == {"episode"}
        decision_names = {
            child["name"]
            for episode in episodes
            for child in episode["children"]
        }
        assert decision_names == {"controller.decision", "belief.update"}
        inner = {
            grandchild["name"]
            for episode in episodes
            for child in episode["children"]
            for grandchild in child["children"]
        }
        assert {"bounds.refine", "tree.expand"} <= inner

    def test_episode_spans_carry_chunk_and_episode_args(self, sharded):
        episode_spans = [
            span for span in sharded.spans if span.name == "episode"
        ]
        assert len(episode_spans) == self.INJECTIONS
        for span in episode_spans:
            args = dict(span.args)
            assert "episode" in args
            assert "chunk" in args


class TestOneWindowOneName:
    """Each timed window records under one name: its latency histogram
    and its trace spans count the same calls, for any worker count, and
    recording them leaves the campaign's behaviour untouched."""

    INJECTIONS = 24
    SEED = 11

    #: The windows a bounded depth-1 campaign must time.
    CAMPAIGN_SPANS = {
        "campaign",
        "episode",
        "controller.decision",
        "bounds.refine",
        "tree.expand",
        "tree.leaf_batch",
        "cache.lookup",
        "belief.update",
        "solver.solve",
    }

    def _campaign(self, system, parallel=None, telemetry=True, trace=True):
        faults = np.array([system.fault_a, system.fault_b])

        def run():
            # Built inside the session so its RA-Bound solve is recorded.
            engine = BoundedPolicyEngine(system.model, depth=1)
            return run_campaign(
                engine,
                fault_states=faults,
                injections=self.INJECTIONS,
                seed=self.SEED,
                parallel=parallel,
            )

        if not telemetry:
            return run(), None
        with session(trace=trace) as registry:
            result = run()
        return result, registry

    @pytest.fixture(scope="class")
    def traced(self, simple_system):
        return {
            parallel: self._campaign(simple_system, parallel=parallel)
            for parallel in (None, 4)
        }

    def test_histogram_totals_equal_span_counts(self, traced):
        for _, telemetry in traced.values():
            assert telemetry.events_dropped == 0
            spans = Counter(record.name for record in telemetry.spans)
            for name, count in spans.items():
                assert telemetry.histograms[name].total == count, name

    def test_histogram_names_are_span_names_plus_session_decide(self, traced):
        names = {
            parallel: (
                {record.name for record in telemetry.spans},
                set(telemetry.histograms),
            )
            for parallel, (_, telemetry) in traced.items()
        }
        span_names, histogram_names = names[None]
        assert histogram_names == span_names | {"session.decide"}
        assert span_names == self.CAMPAIGN_SPANS
        assert names[4] == names[None]

    def test_fingerprint_unchanged_by_telemetry_and_tracing(
        self, simple_system, traced
    ):
        off, _ = self._campaign(simple_system, telemetry=False)
        on, _ = self._campaign(simple_system, trace=False)
        fingerprints = {
            campaign_fingerprint(result.episodes)
            for result in (off, on, *(result for result, _ in traced.values()))
        }
        assert len(fingerprints) == 1


class TestSpanTreeBySession:
    """Grouping interleaved multi-session spans into per-session forests."""

    def _multiplexed(self):
        """Two sessions interleaving decisions on one registry, the way the
        policy service's connection threads produce them (serially here —
        allocation order is what matters to the grouping, not timing)."""
        telemetry = Telemetry(trace=True)
        for turn in range(2):
            for label in ("s0", "s1"):
                with telemetry.span(
                    "controller.decision", session=label, turn=turn
                ):
                    with telemetry.span("tree.expand"):
                        pass
        return telemetry

    def test_groups_by_session_label(self):
        forests = span_tree(list(self._multiplexed().spans), by_session=True)
        assert set(forests) == {"s0", "s1"}
        for label, forest in forests.items():
            assert [node["name"] for node in forest] == [
                "controller.decision",
                "controller.decision",
            ]
            assert [node["args"]["turn"] for node in forest] == [0, 1]
            assert all(node["args"]["session"] == label for node in forest)

    def test_children_inherit_parent_session(self):
        forests = span_tree(list(self._multiplexed().spans), by_session=True)
        for forest in forests.values():
            for node in forest:
                assert [child["name"] for child in node["children"]] == [
                    "tree.expand"
                ]

    def test_unlabelled_spans_group_under_none(self):
        telemetry = Telemetry(trace=True)
        with telemetry.span("warmup"):
            pass
        with telemetry.span("controller.decision", session="s0"):
            pass
        forests = span_tree(list(telemetry.spans), by_session=True)
        assert [node["name"] for node in forests[None]] == ["warmup"]
        assert [node["name"] for node in forests["s0"]] == ["controller.decision"]

    def test_cross_session_child_roots_its_own_forest(self):
        telemetry = Telemetry(trace=True)
        with telemetry.span("controller.decision", session="s0"):
            with telemetry.span("controller.decision", session="s1"):
                pass
        forests = span_tree(list(telemetry.spans), by_session=True)
        assert forests["s0"][0]["children"] == []
        assert [node["name"] for node in forests["s1"]] == ["controller.decision"]

    def test_flat_tree_unchanged_by_default(self):
        spans = list(self._multiplexed().spans)
        flat = span_tree(spans)
        assert isinstance(flat, list)
        assert len(flat) == 4  # the braided timeline, unchanged
