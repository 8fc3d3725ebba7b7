"""The ``python -m repro.obs`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.obs import SCHEMA_VERSION, session
from repro.obs.__main__ import main
from repro.obs.report import aggregate_stream, format_report


@pytest.fixture()
def run_file(tmp_path):
    """A small schema-valid run with one campaign's worth of events."""
    path = tmp_path / "run.jsonl"
    with session(path) as telemetry:
        telemetry.count("sim.episodes", 2)
        telemetry.count_process("cache.hits", 3)
        telemetry.count_process("cache.builds", 1)
        telemetry.event(
            "campaign_start", controller="bounded", injections=2, chunk_size=32
        )
        telemetry.event("episode_start", episode=0, fault_state=1)
        telemetry.event(
            "episode_end",
            episode=0,
            recovered=True,
            terminated=True,
            steps=3,
            cost=12.5,
        )
        telemetry.event(
            "refine", action=2, added=True, improvement=1.5, set_size=4
        )
        telemetry.event(
            "solver_dispatch", requested="auto", method="direct", n_states=8
        )
        for factorisation in ("triangular", "triangular", "lu"):
            telemetry.event(
                "solver_dispatch",
                requested="auto",
                method="sparse",
                n_states=8,
                factorisation=factorisation,
            )
        telemetry.event("campaign_end", controller="bounded", episodes=2)
    return path


class TestReport:
    def test_report_command_renders(self, run_file, capsys):
        assert main(["report", str(run_file)]) == 0
        out = capsys.readouterr().out
        assert "bounded" in out
        assert "Bound refinement" in out
        assert "direct" in out

    def test_report_lists_factorisations_next_to_dispatches(self, run_file):
        aggregate = aggregate_stream(run_file)
        assert aggregate.solver_dispatches == {
            ("direct", "-"): 1,
            ("sparse", "lu"): 1,
            ("sparse", "triangular"): 2,
        }
        report = format_report(aggregate)
        assert "Factorisation" in report
        rows = [line.replace("|", " ").split() for line in report.splitlines()]
        assert ["sparse", "triangular", "2"] in rows
        assert ["sparse", "lu", "1"] in rows

    def test_aggregate_counts_outcomes(self, run_file):
        aggregate = aggregate_stream(run_file)
        report = format_report(aggregate)
        assert "Telemetry report" in report

    def test_report_shows_cache_hit_ratio(self, run_file, capsys):
        main(["report", str(run_file)])
        out = capsys.readouterr().out
        assert "cache" in out.lower()
        assert "75.0%" in out  # 3 hits / 4 lookups


class TestValidate:
    def test_valid_stream_exits_zero(self, run_file, capsys):
        assert main(["validate", str(run_file)]) == 0
        assert "schema-valid" in capsys.readouterr().out

    def test_invalid_stream_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        lines = [
            {"event": "session_start", "seq": 0, "schema": SCHEMA_VERSION},
            {"event": "decision", "seq": 1},  # missing action/terminate
            {"event": "session_end", "seq": 2},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "missing required fields" in out

    def test_garbage_line_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        assert main(["validate", str(path)]) == 1
        assert "not JSON" in capsys.readouterr().out

    def test_unsupported_schema_version_flagged(self, tmp_path, capsys):
        path = tmp_path / "future.jsonl"
        lines = [
            {"event": "session_start", "seq": 0, "schema": "repro-obs/v99"},
            {"event": "summary", "seq": 1, "counters": {},
             "process_counters": {}, "gauges": {}, "timers": {}},
            {"event": "session_end", "seq": 2},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        assert main(["validate", str(path)]) == 1
        assert "unsupported schema" in capsys.readouterr().out

    def test_v1_stream_still_valid(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        lines = [
            {"event": "session_start", "seq": 0, "schema": "repro-obs/v1"},
            {"event": "summary", "seq": 1, "counters": {},
             "process_counters": {}, "gauges": {}, "timers": {}},
            {"event": "session_end", "seq": 2},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_pre_v4_summary_still_requires_timers(self, tmp_path, version, capsys):
        path = tmp_path / "old.jsonl"
        lines = [
            {"event": "session_start", "seq": 0,
             "schema": f"repro-obs/v{version}"},
            {"event": "summary", "seq": 1, "counters": {},
             "process_counters": {}, "gauges": {}},
            {"event": "session_end", "seq": 2},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        assert main(["validate", str(path)]) == 1
        assert "requires the 'timers' field" in capsys.readouterr().out


class TestWallClockTable:
    """The report's wall-clock table reads the latency histograms, and the
    timers only in streams that carry no histograms (v1/v2)."""

    def _report(self, tmp_path, summary):
        path = tmp_path / "run.jsonl"
        lines = [
            {"event": "session_start", "seq": 0, "schema": "repro-obs/v2"},
            {"event": "summary", "seq": 1, "counters": {},
             "process_counters": {}, "gauges": {}, **summary},
            {"event": "session_end", "seq": 2},
        ]
        path.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
        return format_report(aggregate_stream(path))

    def test_histograms_feed_the_table(self, tmp_path):
        report = self._report(tmp_path, {
            "histograms": {"tree.expand": {"count": 7, "sum_seconds": 0.25}},
            "timers": {"controller.expand_tree": {"seconds": 0.2, "calls": 7}},
        })
        assert "tree.expand" in report
        assert "controller.expand_tree" not in report

    def test_timers_feed_the_table_without_histograms(self, tmp_path):
        report = self._report(tmp_path, {
            "timers": {"controller.expand_tree": {"seconds": 0.2, "calls": 7}},
        })
        assert "Wall-clock spans" in report
        assert "controller.expand_tree" in report


class TestDegenerateStreams:
    """Satellite regression tests: empty and header-only streams are clean
    (a run killed before its summary is truncated, not corrupt), and a
    missing file is a usage error (exit 2), never a traceback."""

    def test_empty_stream_validates_clean(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["validate", str(path)]) == 0
        assert "schema-valid" in capsys.readouterr().out

    def test_header_only_stream_validates_clean(self, tmp_path):
        path = tmp_path / "header.jsonl"
        path.write_text(
            json.dumps(
                {"event": "session_start", "seq": 0, "schema": SCHEMA_VERSION}
            )
            + "\n"
        )
        assert main(["validate", str(path)]) == 0

    def test_empty_stream_reports_clean(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out  # renders an (empty) report

    def test_header_only_stream_reports_clean(self, tmp_path):
        path = tmp_path / "header.jsonl"
        path.write_text(
            json.dumps(
                {"event": "session_start", "seq": 0, "schema": SCHEMA_VERSION}
            )
            + "\n"
        )
        assert main(["report", str(path)]) == 0

    @pytest.mark.parametrize("command", ["report", "validate", "convergence"])
    def test_missing_file_is_usage_error(self, tmp_path, command, capsys):
        assert main([command, str(tmp_path / "missing.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["report", "trace", "convergence"])
    def test_non_json_line_is_usage_error(self, run_file, command, capsys):
        with open(run_file, "a", encoding="utf-8") as stream:
            stream.write('{"event": "span", "seq": 99, "na')  # cut by a kill
        assert main([command, str(run_file)]) == 2
        assert f"cannot read {run_file}: " in capsys.readouterr().out


class TestReportSessionFilter:
    """`report --session ID` narrows a multi-session daemon stream."""

    @pytest.fixture()
    def multi_session_file(self, tmp_path):
        path = tmp_path / "daemon.jsonl"
        events = [
            {"event": "session_start", "seq": 0, "schema": SCHEMA_VERSION},
            {"event": "decision", "seq": 1, "action": 1, "terminate": False,
             "session": "alpha"},
            {"event": "decision", "seq": 2, "action": 0, "terminate": True,
             "session": "beta"},
            {"event": "refine", "seq": 3, "action": 1, "added": True,
             "improvement": 2.0, "set_size": 4},
            {"event": "span", "seq": 4, "name": "controller.decision",
             "span_id": 0, "parent_id": None, "t_start": 0.1,
             "seconds": 0.01, "args": {"session": "alpha"}},
            {"event": "slow_decision", "seq": 5, "session": "beta",
             "seconds": 0.5, "threshold": 0.1},
            {"event": "summary", "seq": 6, "counters": {}, "gauges": {},
             "process_counters": {}, "timers": {}},
            {"event": "session_end", "seq": 7},
        ]
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in events),
            encoding="utf-8",
        )
        return path

    def test_filter_drops_other_sessions_keeps_shared(self, multi_session_file):
        aggregate = aggregate_stream(multi_session_file, session="alpha")
        assert aggregate.kinds.get("decision") == 1
        assert "slow_decision" not in aggregate.kinds  # beta's
        assert aggregate.kinds.get("span") == 1  # alpha's, via span args
        assert aggregate.kinds.get("refine") == 1  # shared state stays
        assert aggregate.session_filter == "alpha"

    def test_unfiltered_sees_everything(self, multi_session_file):
        aggregate = aggregate_stream(multi_session_file)
        assert aggregate.kinds.get("decision") == 2
        assert aggregate.kinds.get("slow_decision") == 1

    def test_cli_flag_and_title(self, multi_session_file, capsys):
        assert main(["report", str(multi_session_file), "--session", "beta"]) == 0
        out = capsys.readouterr().out
        assert "session beta" in out

    def test_multi_session_stream_is_schema_valid(self, multi_session_file):
        assert main(["validate", str(multi_session_file)]) == 0
