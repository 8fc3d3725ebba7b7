"""Tests for episode tracing."""

from repro.controllers.bounded import BoundedPolicyEngine
from repro.controllers.oracle import OraclePolicyEngine
from repro.sim.campaign import run_episode
from repro.sim.environment import RecoveryEnvironment
from repro.sim.metrics import episode_fingerprint_bytes
from repro.sim.trace import trace_episode


class TestTraceEpisode:
    def test_trace_matches_untraced_metrics(
        self, simple_system, simple_notified_system
    ):
        """Same policy, same seed: trace metrics == run_episode metrics
        on every deterministic field — with and without a_T, whose
        terminate step the trace shows but does not count as a step."""
        factories = (
            lambda model: BoundedPolicyEngine(model, depth=1).session(),
            lambda model: OraclePolicyEngine(model).session(),
        )
        for system in (simple_system, simple_notified_system):
            for factory in factories:
                plain = run_episode(
                    factory(system.model),
                    RecoveryEnvironment(system.model, seed=5),
                    system.fault_a,
                )
                trace = trace_episode(
                    factory(system.model),
                    RecoveryEnvironment(system.model, seed=5),
                    system.fault_a,
                )
                assert episode_fingerprint_bytes(
                    trace.metrics
                ) == episode_fingerprint_bytes(plain)

    def test_steps_carry_labels_and_beliefs(self, simple_system):
        trace = trace_episode(
            BoundedPolicyEngine(simple_system.model, depth=1).session(),
            RecoveryEnvironment(simple_system.model, seed=5),
            simple_system.fault_a,
        )
        assert trace.fault_label == "fault(a)"
        assert len(trace.steps) >= 1
        for step in trace.steps:
            assert 0.0 <= step.recovered_probability <= 1.0 + 1e-9
            assert step.action_label
        # Confidence in recovery must end higher than it started.
        assert (
            trace.steps[-1].recovered_probability
            >= trace.steps[0].recovered_probability
        )

    def test_time_is_monotone(self, simple_system):
        trace = trace_episode(
            BoundedPolicyEngine(simple_system.model, depth=1).session(),
            RecoveryEnvironment(simple_system.model, seed=7),
            simple_system.fault_b,
        )
        times = [step.time_after for step in trace.steps]
        assert times == sorted(times)

    def test_oracle_trace_has_no_observations(self, simple_system):
        trace = trace_episode(
            OraclePolicyEngine(simple_system.model).session(),
            RecoveryEnvironment(simple_system.model, seed=1),
            simple_system.fault_a,
        )
        assert trace.metrics.monitor_calls == 0
        assert all(step.observation == -1 for step in trace.steps)

    def test_render_contains_actions_and_outcome(self, simple_system):
        trace = trace_episode(
            BoundedPolicyEngine(simple_system.model, depth=1).session(),
            RecoveryEnvironment(simple_system.model, seed=3),
            simple_system.fault_a,
        )
        text = trace.render()
        assert "Recovery trace for fault(a)" in text
        assert "recovered" in text
        assert "P[recovered]" in text

    def test_emn_trace(self, emn_system):
        pomdp = emn_system.model.pomdp
        trace = trace_episode(
            BoundedPolicyEngine(
                emn_system.model, depth=1, refine_min_improvement=1.0
            ).session(),
            RecoveryEnvironment(emn_system.model, seed=2, monitor_tail=5.0),
            pomdp.state_index("zombie(DB)"),
        )
        assert trace.metrics.recovered
        # The deterministic DB-zombie signature (both paths fail) should
        # drive a restart(DB) somewhere in the trace.
        assert any("restart(DB)" == step.action_label for step in trace.steps)
