"""Smoke tests for the experiments CLI and the markdown report module."""

import pytest

from repro.experiments.__main__ import main
from repro.experiments.fig5 import run_fig5
from repro.experiments.report import fig5_markdown, table1_markdown
from repro.experiments.table1 import DEFAULT_CONTROLLERS, run_table1


class TestCLI:
    def test_bounds_command(self, capsys):
        main(["bounds"])
        out = capsys.readouterr().out
        assert "RA-Bound" in out
        assert "DIVERGES" in out

    def test_fig5a_command(self, capsys):
        main(["fig5a", "--iterations", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert "Figure 5(a)" in out
        assert "Claim checks" in out

    def test_fig5b_command(self, capsys):
        main(["fig5b", "--iterations", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert "Figure 5(b)" in out

    def test_table1_command(self, capsys):
        main(["table1", "--injections", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert "Table 1" in out
        for name in DEFAULT_CONTROLLERS:
            assert name in out

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_table1_parallel_flag(self, capsys):
        main([
            "table1", "--injections", "6", "--seed", "1", "--parallel", "2",
        ])
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "bounded (depth 1)" in out

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_scalability_replicas_must_be_positive(self, capsys, value):
        with pytest.raises(SystemExit) as exited:
            main(["scalability", "--online", "--replicas", value])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--replicas: must be an integer >= 1" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--injections", "0"],
            ["ablations", "--injections", "0"],
            ["robustness", "--injections", "-1"],
            ["grid", "store", "--injections", "0"],
            ["fig5a", "--iterations", "0"],
            ["fig5b", "--iterations", "-2"],
            ["grid", "store", "--iterations", "0"],
        ],
        ids=lambda argv: "_".join(
            arg.removeprefix("--") for arg in argv if arg != "store"
        ),
    )
    def test_counts_must_be_positive(self, capsys, tmp_path, argv):
        """Zero or negative counts are usage errors, not tracebacks."""
        argv = [str(tmp_path / arg) if arg == "store" else arg for arg in argv]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert f"{argv[-2]}: must be an integer >= 1" in err

    def test_scalability_online_small(self, capsys):
        main(["scalability", "--online", "--replicas", "2"])
        out = capsys.readouterr().out
        assert "Bounded controller online" in out
        assert "|S|=14 " in out

    def test_scalability_reports_checked_state_count(self, capsys, monkeypatch):
        from repro.experiments import scalability

        sweep = scalability.run_scalability
        monkeypatch.setattr(
            scalability, "run_scalability", lambda: sweep(sizes=(2,))
        )
        main(["scalability"])
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("Sparse-vs-dense RA-Bound check (14 states): ")

    def test_profile_flag_appends_stats(self, capsys):
        main(["--profile", "fig5b", "--iterations", "2", "--seed", "1"])
        out = capsys.readouterr().out
        assert "Figure 5(b)" in out
        # cProfile's cumulative-time report follows the experiment output.
        assert "cumulative" in out
        assert "function calls" in out


class TestReportMarkdown:
    @pytest.fixture(scope="class")
    def fig5_result(self):
        return run_fig5(iterations=3, seed=0)

    @pytest.fixture(scope="class")
    def table1_result(self):
        return run_table1(
            injections=5,
            seed=0,
            controllers=("most likely", "bounded (depth 1)", "oracle"),
        )

    def test_fig5_markdown_structure(self, fig5_result):
        text = fig5_markdown(fig5_result)
        assert text.startswith("| Iteration |")
        assert "RA-Bound" in text
        assert "Shape claims" in text

    def test_table1_markdown_structure(self, table1_result):
        text = table1_markdown(table1_result)
        assert "paper / ours" in text
        assert "most likely" in text
        assert "Qualitative claims" in text
        # Oracle's missing paper algorithm time renders as a dash.
        assert "- /" in text
