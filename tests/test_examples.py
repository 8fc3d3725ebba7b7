"""Smoke tests for the example scripts (the fast ones).

Examples are documentation that must not rot: each test runs a script in a
subprocess exactly as a user would and checks for its signature output.
The long-running campaign examples are exercised with reduced arguments.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, timeout: float = 300.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_paper_worked_example(self):
        out = run_example("paper_worked_example.py")
        assert "RA-Bound on the Figure 2(a)" in out
        assert "BI-POMDP bound: DIVERGES" in out
        assert "chosen action becomes restart" in out

    def test_bounds_improvement(self):
        out = run_example("bounds_improvement.py")
        assert "RA-Bound (this paper)" in out
        assert "Bootstrapping phase" in out

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "Bounded controller over" in out
        assert "Early terminations: 0" in out

    def test_compare_controllers_small(self):
        out = run_example("compare_controllers.py", "10")
        assert "most likely" in out
        assert "oracle" in out

    @pytest.mark.slow
    def test_custom_system(self):
        out = run_example("custom_system.py")
        assert "Recovery notification detected: False" in out
        assert "custom payment service" in out

    @pytest.mark.slow
    def test_traced_recovery(self):
        out = run_example("traced_recovery.py")
        assert "Recovery trace for zombie(S2)" in out
        assert (
            "Branch-and-bound at depth 2: pruned 1216/1720 action "
            "expansions (71%)." in out.splitlines()
        )
