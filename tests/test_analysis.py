"""Tests for the static model analyzer (:mod:`repro.analysis`).

One test class per diagnostic code on hand-built broken models, the
non-fail-fast aggregation guarantee, the strict-mode adapters, controller
preflight, the builder's report mode, and a hypothesis property pinning
that every model the :class:`RecoveryModel` constructor accepts is free of
``R0xx`` errors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    CODES,
    AnalysisReport,
    Diagnostic,
    ModelView,
    Severity,
    analyze,
)
from repro.controllers.bounded import BoundedPolicyEngine
from repro.exceptions import AnalysisError, ConditionViolation, ModelError
from repro.pomdp.model import POMDP
from repro.recovery.builder import RecoveryModelBuilder
from repro.recovery.model import RecoveryModel, make_null_absorbing


def healthy_fields() -> dict:
    """Fresh arrays of a 3-state notified model that passes every check."""
    transitions = np.zeros((2, 3, 3))
    transitions[0] = [[1, 0, 0], [1, 0, 0], [0, 1, 0]]  # repair chain
    transitions[1] = np.eye(3)  # observe
    observations = np.zeros((2, 3, 2))
    observations[:, 0] = [1.0, 0.0]
    observations[:, 1:] = [0.0, 1.0]
    rewards = np.array([[0.0, -2.0, -3.0], [0.0, -0.5, -0.5]])
    fields = dict(
        transitions=transitions,
        observations=observations,
        rewards=rewards,
        state_labels=("null", "fault-a", "fault-b"),
        action_labels=("repair", "observe"),
        observation_labels=("clear", "alarm"),
        null_states=np.array([True, False, False]),
        rate_rewards=np.array([0.0, -1.0, -1.0]),
        recovery_notification=True,
    )
    return fields


def healthy_view(**overrides) -> ModelView:
    """The :func:`healthy_fields` model as a view, with ``overrides``."""
    return ModelView(**{**healthy_fields(), **overrides})


class TestDiagnosticType:
    def test_unregistered_code_rejected(self):
        with pytest.raises(ValueError, match="unregistered"):
            Diagnostic(code="R999", message="nope")

    def test_severity_derived_from_code(self):
        assert Diagnostic(code="R001", message="x").severity is Severity.ERROR
        assert Diagnostic(code="R101", message="x").severity is Severity.WARNING
        assert Diagnostic(code="R201", message="x").severity is Severity.INFO

    def test_every_code_band_matches_severity(self):
        bands = {
            0: Severity.ERROR,  # model errors
            1: Severity.WARNING,  # model warnings
            2: Severity.INFO,  # informational
            3: Severity.ERROR,  # bound-certificate errors
            9: Severity.WARNING,  # determinism lint
        }
        exceptions = {"R900": Severity.ERROR}  # unlintable file
        for code, (severity, _) in CODES.items():
            assert severity is exceptions.get(code, bands[int(code[1])])


class TestReport:
    def test_exit_codes(self):
        clean = AnalysisReport(findings=(Diagnostic(code="R201", message="x"),))
        warn = AnalysisReport(findings=(Diagnostic(code="R104", message="x"),))
        error = AnalysisReport(findings=(Diagnostic(code="R005", message="x"),))
        assert (clean.exit_code, warn.exit_code, error.exit_code) == (0, 1, 2)

    def test_sorted_puts_errors_first(self):
        report = AnalysisReport(
            findings=(
                Diagnostic(code="R201", message="i"),
                Diagnostic(code="R104", message="w"),
                Diagnostic(code="R005", message="e"),
            )
        )
        assert [d.code for d in report.sorted().findings] == ["R005", "R104", "R201"]

    def test_format_mentions_counts_and_hints(self):
        report = analyze(healthy_view(rewards=np.array([[0.0, 1.0, -3.0], [0.0, -0.5, -0.5]])))
        text = report.format()
        assert "error(s)" in text and "hint:" in text

    def test_raise_if_errors_noop_when_clean(self):
        AnalysisReport(findings=()).raise_if_errors()


class TestHealthyModel:
    def test_no_errors_or_warnings(self):
        report = analyze(healthy_view())
        assert not report.has_errors
        assert not report.warnings
        assert {"R201", "R202"} <= set(report.codes)


class TestStochasticity:
    def test_r001_bad_transition_row(self):
        fields = healthy_fields()
        transitions = fields["transitions"]
        transitions[0, 1] = [0.4, 0.0, 0.0]  # sums to 0.4
        report = analyze(healthy_view(transitions=transitions))
        (finding,) = report.by_code("R001")
        assert "fault-a" in finding.states
        assert "repair" in finding.actions

    def test_r002_bad_observation_row(self):
        fields = healthy_fields()
        observations = fields["observations"]
        observations[1, 2] = [0.9, 0.4]  # sums to 1.3
        report = analyze(healthy_view(observations=observations))
        (finding,) = report.by_code("R002")
        assert "fault-b" in finding.states

    def test_tolerances_shared_with_validation(self):
        from repro.util.validation import SUM_ATOL

        fields = healthy_fields()
        transitions = fields["transitions"]
        transitions[0, 1, 0] += SUM_ATOL / 2  # within tolerance
        assert not analyze(healthy_view(transitions=transitions)).by_code("R001")
        # validation's isclose() also carries numpy's default rtol, so go
        # well past atol + rtol to be unambiguously out of tolerance.
        transitions[0, 1, 0] += SUM_ATOL * 100
        assert analyze(healthy_view(transitions=transitions)).by_code("R001")

    def test_bad_shared_row_reported_under_each_reading_action(self):
        # Both actions read fault-b's broken row; observe also breaks its
        # own fault-a row, which repair does not share.
        fields = healthy_fields()
        transitions = fields["transitions"]
        transitions[:, 2] = [0.0, 0.5, 0.0]
        transitions[1, 1] = [0.0, 0.7, 0.0]
        report = analyze(healthy_view(transitions=transitions))
        assert [(d.states, d.actions) for d in report.by_code("R001")] == [
            (("fault-b",), ("repair",)),
            (("fault-a", "fault-b"), ("observe",)),
        ]

    def test_findings_capped_on_many_actions(self):
        from repro.analysis.passes import ROW_FINDING_CAP

        n_actions = ROW_FINDING_CAP + 5
        transitions = np.broadcast_to(np.eye(3), (n_actions, 3, 3)).copy()
        transitions[:, 1] = [0.5, 0.0, 0.0]  # one bad row every action reads
        report = analyze(
            ModelView(transitions=transitions, rewards=np.zeros((n_actions, 3)))
        )
        findings = report.by_code("R001")
        assert len(findings) == ROW_FINDING_CAP
        assert all(d.states == ("s1",) for d in findings)
        assert [d.actions for d in findings] == [
            (f"a{a}",) for a in range(ROW_FINDING_CAP)
        ]
        assert "capped" in findings[-1].message
        assert "5 more action(s)" in findings[-1].message
        assert not any("capped" in d.message for d in findings[:-1])


class TestCondition1:
    def test_r003_empty_null_set(self):
        report = analyze(
            healthy_view(null_states=np.array([False, False, False]))
        )
        assert report.by_code("R003")

    def test_r004_unrecoverable_state(self):
        fields = healthy_fields()
        transitions = fields["transitions"]
        transitions[0, 2] = [0.0, 0.0, 1.0]  # repair self-loops in fault-b
        report = analyze(healthy_view(transitions=transitions))
        (finding,) = report.by_code("R004")
        assert finding.states == ("fault-b",)

    def test_terminate_state_exempt(self):
        # s_T is absorbing by design and must not trip Condition 1.
        transitions = np.zeros((2, 3, 3))
        transitions[0] = [[1, 0, 0], [1, 0, 0], [0, 0, 1]]
        transitions[1, :, 2] = 1.0  # a_T
        observations = np.full((2, 3, 2), 0.5)
        rewards = np.zeros((2, 3))
        rewards[1, 1] = -100.0
        view = ModelView(
            transitions=transitions,
            observations=observations,
            rewards=rewards,
            null_states=np.array([True, False, False]),
            rate_rewards=np.array([0.0, -1.0, 0.0]),
            recovery_notification=False,
            terminate_state=2,
            terminate_action=1,
            operator_response_time=100.0,
        )
        assert not analyze(view).by_code("R004")


class TestCondition2:
    def test_r005_positive_reward(self):
        rewards = np.array([[0.0, 0.25, -3.0], [0.0, -0.5, -0.5]])
        report = analyze(healthy_view(rewards=rewards))
        (finding,) = report.by_code("R005")
        assert "fault-a" in finding.states
        assert "0.25" in finding.message


class TestFigure2a:
    def test_r006_non_absorbing_null_state(self):
        fields = healthy_fields()
        transitions = fields["transitions"]
        transitions[0, 0] = [0.0, 1.0, 0.0]  # repair kicks null back to fault
        report = analyze(healthy_view(transitions=transitions))
        (finding,) = report.by_code("R006")
        assert finding.states == ("null",)
        assert "repair" in finding.actions

    def test_r007_rewarded_null_state(self):
        fields = healthy_fields()
        rewards = fields["rewards"]
        rewards[1, 0] = -0.5  # observing in S_phi costs something
        report = analyze(healthy_view(rewards=rewards))
        (finding,) = report.by_code("R007")
        assert finding.states == ("null",)
        assert "observe" in finding.actions

    def test_not_checked_without_notification(self):
        # Figure 2(b) models keep their original null-state dynamics.
        fields = healthy_fields()
        rewards = fields["rewards"]
        rewards[1, 0] = -0.5
        report = analyze(
            healthy_view(rewards=rewards, recovery_notification=False)
        )
        assert not report.by_code("R007")


class TestFigure2b:
    @staticmethod
    def terminated_fields() -> dict:
        transitions = np.zeros((3, 4, 4))
        transitions[0] = [[1, 0, 0, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        transitions[1] = np.eye(4)
        transitions[2, :, 3] = 1.0  # a_T
        observations = np.full((3, 4, 2), 0.5)
        rewards = np.zeros((3, 4))
        rewards[0] = [0.0, -2.0, -3.0, 0.0]
        rewards[1] = [-0.1, -0.5, -0.5, 0.0]
        rewards[2] = [0.0, -100.0, -200.0, 0.0]
        fields = dict(
            transitions=transitions,
            observations=observations,
            rewards=rewards,
            state_labels=("null", "fault-a", "fault-b", "terminate"),
            action_labels=("repair", "observe", "terminate"),
            null_states=np.array([True, False, False, False]),
            rate_rewards=np.array([0.0, -1.0, -2.0, 0.0]),
            recovery_notification=False,
            terminate_state=3,
            terminate_action=2,
            operator_response_time=100.0,
        )
        return fields

    def terminated_view(self, **overrides) -> ModelView:
        return ModelView(**{**self.terminated_fields(), **overrides})

    def test_wired_correctly_is_clean(self):
        assert not analyze(self.terminated_view()).has_errors

    def test_r008_wrong_termination_reward(self):
        fields = self.terminated_fields()
        rewards = fields["rewards"]
        rewards[2, 1] = -40.0  # should be rbar * t_op = -100
        report = analyze(self.terminated_view(rewards=rewards))
        findings = report.by_code("R008")
        assert any("rbar * t_op" in f.message for f in findings)

    def test_r008_a_t_not_routing_to_s_t(self):
        fields = self.terminated_fields()
        transitions = fields["transitions"]
        transitions[2, 1] = [1.0, 0.0, 0.0, 0.0]
        report = analyze(self.terminated_view(transitions=transitions))
        assert any(
            "probability 1" in f.message for f in report.by_code("R008")
        )

    def test_r008_s_t_not_absorbing(self):
        fields = self.terminated_fields()
        transitions = fields["transitions"]
        transitions[0, 3] = [1.0, 0.0, 0.0, 0.0]
        report = analyze(self.terminated_view(transitions=transitions))
        assert any("absorbing" in f.message for f in report.by_code("R008"))

    def test_r008_rewarded_s_t(self):
        fields = self.terminated_fields()
        rewards = fields["rewards"]
        rewards[1, 3] = -1.0
        report = analyze(self.terminated_view(rewards=rewards))
        assert any("accrues reward" in f.message for f in report.by_code("R008"))


class TestRAFiniteness:
    def test_r009_rewarded_recurrent_state(self):
        # Unaugmented model: fault-b self-loops under both actions with
        # nonzero cost, so the uniform chain pays forever.
        fields = healthy_fields()
        transitions = fields["transitions"]
        transitions[0, 2] = [0.0, 0.0, 1.0]
        report = analyze(healthy_view(transitions=transitions))
        (finding,) = report.by_code("R009")
        assert finding.states == ("fault-b",)

    def test_discounted_models_exempt(self):
        fields = healthy_fields()
        transitions = fields["transitions"]
        transitions[0, 2] = [0.0, 0.0, 1.0]
        report = analyze(healthy_view(transitions=transitions, discount=0.9))
        assert not report.by_code("R009")


class TestWarnings:
    def test_r101_unreachable_state(self):
        # fault-b is not in the initial belief and nothing leads to it.
        fields = healthy_fields()
        transitions = fields["transitions"]
        transitions[0] = [[1, 0, 0], [1, 0, 0], [1, 0, 0]]
        report = analyze(
            healthy_view(
                transitions=transitions,
                initial_belief=np.array([0.0, 1.0, 0.0]),
            )
        )
        (finding,) = report.by_code("R101")
        assert finding.states == ("fault-b",)

    def test_r102_duplicate_actions(self):
        fields = healthy_fields()
        transitions = fields["transitions"]
        transitions[1] = transitions[0]
        observations = fields["observations"]
        rewards = fields["rewards"]
        rewards[1] = rewards[0]
        report = analyze(
            healthy_view(
                transitions=transitions,
                observations=observations,
                rewards=rewards,
            )
        )
        (finding,) = report.by_code("R102")
        assert set(finding.actions) == {"repair", "observe"}

    def test_r103_dominated_action(self):
        fields = healthy_fields()
        transitions = fields["transitions"]
        transitions[1] = transitions[0]
        rewards = fields["rewards"]
        rewards[1] = rewards[0] - 1.0  # same dynamics, strictly worse cost
        rewards[1, 0] = 0.0  # keep the null state free (not the point here)
        report = analyze(
            healthy_view(transitions=transitions, rewards=rewards)
        )
        (finding,) = report.by_code("R103")
        assert finding.actions[0] == "observe"  # the dominated one

    def test_r104_dead_observation(self):
        fields = healthy_fields()
        observations = np.zeros((2, 3, 3))
        observations[:, :, :2] = fields["observations"]  # symbol 3 never emitted
        report = analyze(
            healthy_view(
                observations=observations,
                observation_labels=("clear", "alarm", "dead"),
            )
        )
        (finding,) = report.by_code("R104")
        assert "dead" in finding.message

    def test_r105_slow_absorption(self):
        # fault-b repairs with probability 1e-5 -> ~2e5 expected uniform steps.
        fields = healthy_fields()
        transitions = fields["transitions"]
        transitions[0, 2] = [1e-5, 0.0, 1.0 - 1e-5]
        report = analyze(healthy_view(transitions=transitions))
        (finding,) = report.by_code("R105")
        assert "fault-b" in finding.states
        assert not report.has_errors  # loose, but still sound


class TestStrictAdapters:
    def test_condition_violation_still_raised(self, simple_system):
        pomdp = simple_system.model.pomdp
        rewards = pomdp.rewards.copy()
        rewards[0, 0] = 1.0
        broken = POMDP(
            transitions=pomdp.transitions,
            observations=pomdp.observations,
            rewards=rewards,
            state_labels=pomdp.state_labels,
            action_labels=pomdp.action_labels,
            observation_labels=pomdp.observation_labels,
        )
        from repro.recovery.model import check_condition_2

        with pytest.raises(ConditionViolation) as excinfo:
            check_condition_2(broken)
        assert excinfo.value.condition == 2

    def test_analysis_error_carries_report(self):
        report = analyze(
            healthy_view(
                transitions=np.zeros((2, 3, 3)),  # wildly non-stochastic
            )
        )
        with pytest.raises(AnalysisError) as excinfo:
            report.raise_if_errors()
        assert excinfo.value.report is report
        assert excinfo.value.report.has_errors


class TestPreflight:
    def test_clean_model_stores_report(self, simple_system):
        engine = BoundedPolicyEngine(simple_system.model, preflight=True)
        assert engine.preflight_report is not None
        assert engine.preflight_report.exit_code == 0

    def test_default_skips_analysis(self, simple_system):
        engine = BoundedPolicyEngine(simple_system.model)
        assert engine.preflight_report is None

    def test_broken_model_raises(self, simple_system):
        model = simple_system.model
        # Corrupt the augmented arrays post-construction (the one way a
        # controller can see a bad model): re-point a_T away from s_T.
        pomdp = model.pomdp
        transitions = pomdp.transitions.copy()
        transitions[model.terminate_action, 0] = 0.0
        transitions[model.terminate_action, 0, 0] = 1.0
        broken_pomdp = POMDP(
            transitions=transitions,
            observations=pomdp.observations,
            rewards=pomdp.rewards,
            state_labels=pomdp.state_labels,
            action_labels=pomdp.action_labels,
            observation_labels=pomdp.observation_labels,
            discount=pomdp.discount,
        )
        broken = RecoveryModel(
            pomdp=broken_pomdp,
            null_states=model.null_states,
            rate_rewards=model.rate_rewards,
            durations=model.durations,
            passive_actions=model.passive_actions,
            recovery_notification=False,
            terminate_state=model.terminate_state,
            terminate_action=model.terminate_action,
            operator_response_time=model.operator_response_time,
        )
        with pytest.raises(AnalysisError):
            BoundedPolicyEngine(broken, preflight=True)


class TestBuilderReportMode:
    def test_multiple_errors_in_one_report(self):
        builder = RecoveryModelBuilder()
        builder.add_state("null", null=True)
        builder.add_state("fault", rate_cost=1.0)
        builder.add_state("stuck", rate_cost=1.0)
        builder.add_action(
            "repair", duration=10.0, transitions={"fault": {"null": 0.7}}
        )
        builder.set_observation_matrix(
            ("alarm", "clear"),
            np.array([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5]]),
        )
        report = builder.analyze(operator_response_time=100.0)
        assert {"R001", "R004"} <= set(report.codes)
        assert report.exit_code == 2

    def test_clean_builder_matches_build(self):
        builder = RecoveryModelBuilder()
        builder.add_state("null", null=True)
        builder.add_state("fault", rate_cost=1.0)
        builder.add_action(
            "repair", duration=10.0, transitions={"fault": {"null": 1.0}}
        )
        builder.set_observation_matrix(
            ("alarm", "clear"), np.array([[0.0, 1.0], [0.5, 0.5]])
        )
        report = builder.analyze(operator_response_time=100.0)
        assert not report.has_errors
        model = builder.build(operator_response_time=100.0)
        assert not model.analyze().has_errors

    def test_misuse_still_raises(self):
        builder = RecoveryModelBuilder()
        with pytest.raises(ModelError):
            builder.analyze()

    @pytest.mark.parametrize(
        "system, kwargs",
        [
            ("emn", {}),
            ("simple", {"recovery_notification": False}),
            ("simple", {"recovery_notification": True, "miss_rate": 0.0}),
            ("tiered", {"replicas": (3, 2), "probe_cost": 0.0}),
        ],
    )
    def test_report_equals_built_model_report(self, system, kwargs, monkeypatch):
        """On clean shipped builders, analyze() reports exactly what
        build().analyze() does, apart from the title."""
        from repro.systems.emn import build_emn_system
        from repro.systems.simple import build_simple_system
        from tests.test_systems_tiered import reference_tiered_system

        build = {
            "emn": build_emn_system,
            "simple": build_simple_system,
            "tiered": reference_tiered_system,
        }[system]
        captured = []
        real_build = RecoveryModelBuilder.build

        def capture(self, *args, **build_kwargs):
            captured.append((self, args, build_kwargs))
            return real_build(self, *args, **build_kwargs)

        monkeypatch.setattr(RecoveryModelBuilder, "build", capture)
        build(**kwargs)
        ((builder, args, build_kwargs),) = captured
        build_kwargs.pop("backend", None)
        pre_build = builder.analyze(*args, **build_kwargs)
        built = real_build(builder, *args, **build_kwargs).analyze()

        def rendered(report):
            return [
                (d.code, d.message, d.states, d.actions, d.fix_hint)
                for d in report.findings
            ]

        assert rendered(pre_build) == rendered(built)
        assert pre_build.title != built.title


class TestModelViewConstructors:
    def test_from_model_roundtrip(self, simple_system):
        view = ModelView.from_model(simple_system.model)
        assert view.terminate_state == simple_system.model.terminate_state
        assert view.initial_belief is not None

    def test_from_mdp(self, simple_system):
        mdp = simple_system.model.pomdp.to_mdp()
        view = ModelView.from_model(mdp)
        assert view.observations is None
        report = analyze(view)
        assert not report.has_errors

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            ModelView(transitions=np.zeros((2, 3, 4)), rewards=np.zeros((2, 3)))

    def test_dense_input_is_held_as_containers(self):
        from repro.linalg import (
            SparseObservations,
            SparseTransitions,
            StructuredRewards,
        )

        view = healthy_view()
        assert isinstance(view.transitions, SparseTransitions)
        assert isinstance(view.observations, SparseObservations)
        assert isinstance(view.rewards, StructuredRewards)


class TestMalformedMetadata:
    """Bad recovery metadata is reported or rejected, never a crash."""

    def test_out_of_range_terminate_state_reported_by_r008(self):
        report = analyze(healthy_view(terminate_state=7, terminate_action=1))
        (finding,) = report.by_code("R008")
        assert "out of range" in finding.message
        assert report.has_errors

    def test_wrong_length_initial_belief_rejected(self):
        with pytest.raises(ModelError, match="initial_belief"):
            healthy_view(initial_belief=np.array([0.5, 0.5]))

    def test_wrong_length_rate_rewards_rejected(self):
        with pytest.raises(ModelError, match="rate_rewards"):
            healthy_view(
                rate_rewards=np.array([0.0, -1.0]),
                recovery_notification=False,
                terminate_state=2,
                terminate_action=1,
                operator_response_time=10.0,
            )


class TestChainDecomposedOnce:
    def test_one_decomposition_of_the_uniform_chain_per_analysis(
        self, simple_system, monkeypatch
    ):
        import repro.analysis.passes as passes
        import repro.mdp.classify as classify

        calls = []
        real = classify.scc_summary

        def counting(chain):
            calls.append(chain)
            return real(chain)

        monkeypatch.setattr(classify, "scc_summary", counting)
        monkeypatch.setattr(passes, "scc_summary", counting)
        view = ModelView.from_model(simple_system.model)
        analyze(view)
        assert sum(chain is view.mean_chain() for chain in calls) == 1
        assert sum(chain is view.union_graph() for chain in calls) == 1
        assert len(calls) == 2


@st.composite
def random_recovery_models(draw):
    """Random models built the way RecoveryModel's constructor expects."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    n_faults = draw(st.integers(min_value=1, max_value=4))
    n_actions = draw(st.integers(min_value=1, max_value=3))
    n_observations = draw(st.integers(min_value=1, max_value=3))
    notification = draw(st.booleans())
    rng = np.random.default_rng(seed)
    n_states = n_faults + 1
    transitions = rng.dirichlet(np.ones(n_states), size=(n_actions, n_states))
    # Give every fault state a direct route into the null state so
    # Condition 1 holds by construction.
    transitions[:, :, 0] = np.maximum(transitions[:, :, 0], 0.05)
    transitions /= transitions.sum(axis=2, keepdims=True)
    observations = rng.dirichlet(
        np.ones(n_observations), size=(n_actions, n_states)
    )
    rewards = -rng.uniform(0.1, 2.0, size=(n_actions, n_states))
    null_states = np.zeros(n_states, dtype=bool)
    null_states[0] = True
    rate_rewards = np.append(0.0, -rng.uniform(0.1, 1.0, size=n_faults))
    return (
        transitions,
        observations,
        rewards,
        null_states,
        rate_rewards,
        notification,
        rng.uniform(10.0, 1000.0),
    )


class TestAcceptedModelsAreErrorFree:
    """Property: constructor-accepted models yield zero R0xx errors."""

    @settings(max_examples=40, deadline=None)
    @given(random_recovery_models())
    def test_no_r0xx_on_accepted_models(self, drawn):
        from repro.recovery.model import with_termination_action

        (
            transitions,
            observations,
            rewards,
            null_states,
            rate_rewards,
            notification,
            t_op,
        ) = drawn
        pomdp = POMDP(
            transitions=transitions,
            observations=observations,
            rewards=rewards,
        )
        if notification:
            augmented = make_null_absorbing(pomdp, null_states)
            model = RecoveryModel(
                pomdp=augmented,
                null_states=null_states,
                rate_rewards=rate_rewards,
                durations=np.ones(pomdp.n_actions),
                passive_actions=np.zeros(pomdp.n_actions, dtype=bool),
                recovery_notification=True,
            )
        else:
            augmented, s_t, a_t = with_termination_action(
                pomdp, null_states, rate_rewards, t_op
            )
            model = RecoveryModel(
                pomdp=augmented,
                null_states=np.append(null_states, False),
                rate_rewards=np.append(rate_rewards, 0.0),
                durations=np.append(np.ones(pomdp.n_actions), 0.0),
                passive_actions=np.zeros(augmented.n_actions, dtype=bool),
                recovery_notification=False,
                terminate_state=s_t,
                terminate_action=a_t,
                operator_response_time=t_op,
            )
        report = analyze(model)
        errors = [d for d in report.findings if d.severity is Severity.ERROR]
        assert not errors, report.format()


class TestExceptionTypes:
    def test_condition_violation_rejects_unknown_condition(self):
        with pytest.raises(ValueError, match="condition must be one of"):
            ConditionViolation(3, "nope")

    def test_condition_violation_repr(self):
        exc = ConditionViolation(2, "positive reward")
        assert repr(exc) == (
            "ConditionViolation(condition=2, "
            "message='Condition 2 violated: positive reward')"
        )
        assert exc.condition == 2

    def test_analysis_error_carries_report(self):
        report = AnalysisReport(findings=())
        exc = AnalysisError("broken", report=report)
        assert exc.report is report
        assert isinstance(exc, ModelError)

    def test_analysis_error_report_optional(self):
        assert AnalysisError("broken").report is None
