"""Tests for ``python -m repro.analysis`` (exit codes and rendering)."""

import numpy as np

from repro.analysis.__main__ import main
from repro.io import save_pomdp, save_recovery_model


#: ``python -m repro.analysis --emn --simple --tiered`` as text, pinned:
#: the shipped systems' reports do not depend on how the analyzer stores
#: the model.
SHIPPED_REPORT = """\
Static analysis: EMN system
  R201 info: |S|=15, |A|=10, |O|=128, discount=1, transition density=0.067, |S_phi|=1, terminate pair (Figure 2(b))
  R202 info: union graph has 15 SCC(s) (sizes [1, 1, 1, 1, 1, 1, 1, 1] ...); uniform-random chain has 1 recurrent class(es) over 1 state(s), 1 absorbing
0 error(s), 0 warning(s), 2 info

Static analysis: simple system
  R201 info: |S|=4, |A|=4, |O|=3, discount=1, transition density=0.250, |S_phi|=1, terminate pair (Figure 2(b))
  R202 info: union graph has 4 SCC(s) (sizes [1, 1, 1, 1]); uniform-random chain has 1 recurrent class(es) over 1 state(s), 1 absorbing
0 error(s), 0 warning(s), 2 info

Static analysis: tiered system
  R201 info: |S|=14, |A|=8, |O|=16, discount=1, transition density=0.071, |S_phi|=1, terminate pair (Figure 2(b))
  R202 info: union graph has 14 SCC(s) (sizes [1, 1, 1, 1, 1, 1, 1, 1] ...); uniform-random chain has 1 recurrent class(es) over 1 state(s), 1 absorbing
0 error(s), 0 warning(s), 2 info
"""


class TestBuiltinModels:
    def test_shipped_report_text_is_pinned(self, capsys):
        assert main(["--emn", "--simple", "--tiered"]) == 0
        assert capsys.readouterr().out == SHIPPED_REPORT

    def test_emn_clean_exit_zero(self, capsys):
        assert main(["--emn"]) == 0
        out = capsys.readouterr().out
        assert "Static analysis" in out
        assert "R201" in out
        assert "0 error(s)" in out

    def test_all_shipped_systems(self, capsys):
        assert main(["--emn", "--simple", "--tiered"]) == 0
        out = capsys.readouterr().out
        assert out.count("Static analysis") == 3

    def test_no_info_hides_r2xx(self, capsys):
        main(["--simple", "--no-info"])
        out = capsys.readouterr().out
        assert "R201" not in out

    def test_json_output(self, capsys):
        import json

        assert main(["--simple", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["exit_code"] == 0
        assert any(f["code"] == "R201" for f in payload[0]["findings"])

    def test_format_json(self, capsys):
        import json

        assert main(["--simple", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["exit_code"] == 0
        finding = payload[0]["findings"][0]
        # Machine-readable findings carry the full field set.
        assert set(finding) >= {
            "code",
            "severity",
            "message",
            "location",
            "states",
            "actions",
            "fix_hint",
        }

    def test_format_text_is_default(self, capsys):
        assert main(["--simple", "--format", "text"]) == 0
        assert "Static analysis" in capsys.readouterr().out

    def test_codes_table(self, capsys):
        assert main(["--codes"]) == 0
        out = capsys.readouterr().out
        assert "R001" in out and "R105" in out and "R202" in out
        # The new pass families are registered.
        assert "R302" in out and "R901" in out

    def test_no_target_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "at least one model" in capsys.readouterr().err


class TestArchives:
    def test_saved_model_round_trip(self, tmp_path, simple_system, capsys):
        path = tmp_path / "model.npz"
        save_recovery_model(path, simple_system.model)
        assert main([str(path)]) == 0
        assert str(path) in capsys.readouterr().out

    def test_saved_pomdp_archive(self, tmp_path, simple_system, capsys):
        path = tmp_path / "pomdp.npz"
        save_pomdp(path, simple_system.model.pomdp)
        assert main([str(path)]) == 0
        capsys.readouterr()

    def test_sparse_v2_archive_analyzes_on_native_containers(
        self, tmp_path, simple_system, capsys
    ):
        """A v2 sparse archive loads into a view without densification."""
        from repro.recovery.model import convert_backend

        path = tmp_path / "sparse-model.npz"
        save_recovery_model(path, convert_backend(simple_system.model))
        assert main([str(path)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_broken_model_reports_everything_at_once(self, tmp_path, capsys):
        """Acceptance: positive reward + unrecoverable state => both
        diagnostics in one run, exit code 2 (not fail-fast)."""
        transitions = np.zeros((2, 3, 3))
        transitions[0] = [[1, 0, 0], [1, 0, 0], [0, 0, 1]]  # fault-b stuck
        transitions[1] = np.eye(3)
        observations = np.full((2, 3, 2), 0.5)
        rewards = np.array([[0.0, -1.0, -1.0], [0.0, 0.3, -0.2]])  # positive!
        path = tmp_path / "broken.npz"
        np.savez_compressed(
            path,
            kind=np.array("recovery-model"),
            version=np.array(1),
            transitions=transitions,
            observations=observations,
            rewards=rewards,
            state_labels=np.array(["null", "fault-a", "fault-b"]),
            action_labels=np.array(["repair", "observe"]),
            observation_labels=np.array(["clear", "alarm"]),
            discount=np.array(1.0),
            null_states=np.array([True, False, False]),
            rate_rewards=np.array([0.0, -1.0, -1.0]),
            durations=np.array([10.0, 5.0]),
            passive_actions=np.array([False, True]),
            recovery_notification=np.array(True),
        )
        assert main([str(path)]) == 2
        out = capsys.readouterr().out
        assert "R004" in out  # unrecoverable fault-b
        assert "R005" in out  # positive reward
        assert "fault-b" in out

    def test_unreadable_archive_is_load_error(self, tmp_path, capsys):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"not an archive")
        assert main([str(path)]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_wrong_kind_rejected(self, tmp_path, capsys):
        path = tmp_path / "bounds.npz"
        np.savez_compressed(path, kind=np.array("bound-set"))
        assert main([str(path)]) == 2
        assert "cannot load" in capsys.readouterr().err


class TestForceFlag:
    def test_force_overrides_size_cutoffs(self, monkeypatch, capsys):
        """--force runs gated passes; without it the R203 skip is reported."""
        import repro.analysis.passes as passes
        from repro.analysis import ModelView, analyze
        from repro.linalg.backends import (
            sparsify_observations,
            sparsify_rewards,
            sparsify_transitions,
        )

        monkeypatch.setattr(passes, "SPARSE_SOLVE_SKIP_STATES", 1)
        rng = np.random.default_rng(0)
        transitions = rng.dirichlet(np.ones(3), size=(2, 3))
        view = ModelView(
            transitions=sparsify_transitions(transitions),
            observations=sparsify_observations(
                rng.dirichlet(np.ones(2), size=(2, 3))
            ),
            rewards=sparsify_rewards(-np.ones((2, 3))),
        )
        gated = analyze(view)
        assert any(d.code == "R203" for d in gated.findings)
        forced = analyze(view, force=True)
        assert not any(d.code == "R203" for d in forced.findings)

    def test_force_flag_accepted_by_cli(self, capsys):
        assert main(["--simple", "--force"]) == 0
        capsys.readouterr()


class TestWarningExitCode:
    def test_warnings_only_exit_one(self, tmp_path, capsys):
        # A clean-but-suspicious pomdp: dead observation symbol.
        transitions = np.zeros((1, 2, 2))
        transitions[0] = [[0.5, 0.5], [0.0, 1.0]]
        observations = np.zeros((1, 2, 3))
        observations[0, :, 0] = 1.0  # symbols 1 and 2 never emitted
        rewards = np.array([[-1.0, 0.0]])
        path = tmp_path / "warn.npz"
        np.savez_compressed(
            path,
            kind=np.array("pomdp"),
            version=np.array(1),
            transitions=transitions,
            observations=observations,
            rewards=rewards,
            state_labels=np.array(["a", "b"]),
            action_labels=np.array(["act"]),
            observation_labels=np.array(["o0", "o1", "o2"]),
            discount=np.array(0.9),
        )
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "R104" in out
