"""Determinism lint (R9xx): rule positives/negatives, suppressions, CLI."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.codelint import lint_paths, lint_source, main


def _codes(source: str) -> list[str]:
    return [d.code for d in lint_source(textwrap.dedent(source))]


class TestR901UnseededRandom:
    def test_global_numpy_sampler(self):
        assert _codes(
            """
            import numpy as np
            x = np.random.uniform(0, 1)
            """
        ) == ["R901"]

    def test_numpy_random_module_alias(self):
        assert _codes(
            """
            import numpy.random as npr
            x = npr.normal()
            """
        ) == ["R901"]

    def test_stdlib_global_sampler(self):
        assert _codes(
            """
            import random
            x = random.choice([1, 2])
            """
        ) == ["R901"]

    def test_stdlib_from_import(self):
        assert _codes(
            """
            from random import shuffle
            shuffle(items)
            """
        ) == ["R901"]

    def test_argless_default_rng(self):
        assert _codes(
            """
            import numpy as np
            rng = np.random.default_rng()
            """
        ) == ["R901"]

    def test_seeded_default_rng_is_clean(self):
        assert _codes(
            """
            import numpy as np
            rng = np.random.default_rng(42)
            x = rng.uniform(0, 1)
            """
        ) == []

    def test_generator_methods_are_clean(self):
        """Samplers on an explicit Generator object don't match the rule."""
        assert _codes(
            """
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.normal()
            y = rng.choice([1, 2])
            """
        ) == []

    def test_seeded_stdlib_instance_is_clean(self):
        assert _codes(
            """
            import random
            rng = random.Random(7)
            x = rng.random()
            """
        ) == []


class TestR902SetIteration:
    def test_for_over_set_literal(self):
        assert _codes(
            """
            for x in {1, 2, 3}:
                print(x)
            """
        ) == ["R902"]

    def test_for_over_set_call(self):
        assert _codes(
            """
            for x in set(items):
                handle(x)
            """
        ) == ["R902"]

    def test_comprehension_over_frozenset(self):
        assert _codes("out = [f(x) for x in frozenset(items)]") == ["R902"]

    def test_set_union_operator(self):
        assert _codes(
            """
            for x in set(a) | set(b):
                handle(x)
            """
        ) == ["R902"]

    def test_sorted_wrapper_is_clean(self):
        assert _codes(
            """
            for x in sorted(set(items)):
                handle(x)
            """
        ) == []

    def test_list_iteration_is_clean(self):
        assert _codes(
            """
            for x in [1, 2, 3]:
                print(x)
            """
        ) == []


class TestR903WallClock:
    def test_time_time(self):
        assert _codes(
            """
            import time
            t = time.time()
            """
        ) == ["R903"]

    def test_perf_counter_from_import(self):
        assert _codes(
            """
            from time import perf_counter
            t = perf_counter()
            """
        ) == ["R903"]

    def test_datetime_now(self):
        assert _codes(
            """
            from datetime import datetime
            stamp = datetime.now()
            """
        ) == ["R903"]

    def test_datetime_module_utcnow(self):
        assert _codes(
            """
            import datetime
            stamp = datetime.datetime.utcnow()
            """
        ) == ["R903"]

    def test_unrelated_now_attribute_is_clean(self):
        assert _codes(
            """
            stamp = clock.now()
            """
        ) == []

    def test_sleep_is_clean(self):
        """time.sleep does not *read* the clock."""
        assert _codes(
            """
            import time
            time.sleep(0.1)
            """
        ) == []


class TestSuppressions:
    def test_inline_ignore(self):
        assert _codes(
            """
            import time
            t = time.time()  # codelint: ignore[R903]
            """
        ) == []

    def test_inline_ignore_wrong_code_does_not_silence(self):
        assert _codes(
            """
            import time
            t = time.time()  # codelint: ignore[R901]
            """
        ) == ["R903"]

    def test_inline_ignore_multiple_codes(self):
        assert _codes(
            """
            import time, random
            t = time.time() + random.random()  # codelint: ignore[R901, R903]
            """
        ) == []

    def test_skip_file(self):
        assert _codes(
            """
            # codelint: skip-file
            import time
            t = time.time()
            """
        ) == []

    def test_locations_are_path_line(self):
        findings = lint_source(
            "import time\nt = time.time()\n", path="pkg/mod.py"
        )
        assert findings[0].location == "pkg/mod.py:2"


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = sorted({1, 2})\n")
        assert main([str(tmp_path)]) == 0
        assert "0 determinism finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import time\nt = time.time()\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R903" in out and "bad.py:2" in out

    def test_unparseable_file_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main([str(tmp_path)]) == 2
        capsys.readouterr()

    def test_single_file_target(self, tmp_path, capsys):
        target = tmp_path / "one.py"
        target.write_text("import random\nrandom.seed(1)\n")
        assert main([str(target)]) == 1
        capsys.readouterr()

    def test_report_order_is_deterministic(self, tmp_path, capsys):
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text("import time\nt = time.time()\n")
        main([str(tmp_path)])
        out = capsys.readouterr().out
        assert out.index("a.py") < out.index("b.py") < out.index("c.py")

    def test_module_entry_point_runs_without_warnings(self, tmp_path):
        """``python -m repro.analysis.codelint`` must not find the module
        already imported by its package (runpy warns, and CI runs it with
        RuntimeWarnings as errors)."""
        (tmp_path / "ok.py").write_text("x = sorted({1, 2})\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "repro.analysis.codelint",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr


class TestRealTreeIsClean:
    def test_src_has_no_determinism_findings(self):
        src = Path(__file__).resolve().parent.parent / "src"
        report = lint_paths([src])
        offenders = [d for d in report.findings if d.code.startswith("R9")]
        assert not offenders, "\n".join(d.format() for d in offenders)
        assert report.exit_code == 0


class TestR904HotPathRowIteration:
    HOT = "src/repro/pomdp/tree.py"
    COLD = "src/repro/sim/engine.py"

    @staticmethod
    def _codes_at(source, path):
        return [d.code for d in lint_source(textwrap.dedent(source), path=path)]

    def test_loop_over_matrix_producer_call(self):
        assert self._codes_at(
            """
            import numpy as np
            for row in np.atleast_2d(beliefs):
                handle(row)
            """,
            self.HOT,
        ) == ["R904"]

    def test_loop_over_name_assigned_from_matrix_producer(self):
        assert self._codes_at(
            """
            import numpy as np
            stack = np.vstack([a, b])
            for row in stack:
                handle(row)
            """,
            self.HOT,
        ) == ["R904"]

    def test_loop_over_vectors_attribute(self):
        assert self._codes_at(
            """
            for vector in leaf.vectors:
                total += vector @ belief
            """,
            self.HOT,
        ) == ["R904"]

    def test_comprehension_over_matrix(self):
        assert self._codes_at(
            """
            import numpy as np
            rows = np.stack(parts)
            out = [f(r) for r in rows]
            """,
            self.HOT,
        ) == ["R904"]

    def test_bounds_paths_are_hot(self):
        assert self._codes_at(
            """
            for vector in bound.vectors:
                use(vector)
            """,
            "src/repro/bounds/incremental.py",
        ) == ["R904"]

    def test_non_hot_path_is_clean(self):
        assert self._codes_at(
            """
            import numpy as np
            for row in np.atleast_2d(beliefs):
                handle(row)
            """,
            self.COLD,
        ) == []

    def test_default_path_is_not_hot(self):
        assert _codes(
            """
            import numpy as np
            for row in np.atleast_2d(beliefs):
                handle(row)
            """
        ) == []

    def test_list_iteration_in_hot_path_is_clean(self):
        assert self._codes_at(
            """
            for action in actions:
                handle(action)
            """,
            self.HOT,
        ) == []

    def test_inline_ignore_silences(self):
        assert self._codes_at(
            """
            import numpy as np
            stack = np.vstack(parts)
            for row in stack:  # codelint: ignore[R904]
                handle(row)
            """,
            self.HOT,
        ) == []
