"""Tests for the model-mismatch robustness experiment and weighted faults."""

import numpy as np
import pytest

from repro.controllers.oracle import OraclePolicyEngine
from repro.experiments.robustness import format_mismatch, run_mismatch_sweep
from repro.sim.campaign import run_campaign


class TestMismatchSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return run_mismatch_sweep(
            environment_coverages=(1.0, 0.5), injections=25, seed=3
        )

    def test_matched_point_recovers_cleanly(self, points):
        matched = points[0]
        assert matched.environment_coverage == 1.0
        assert matched.summary.unrecovered == 0

    def test_degraded_environment_costs_more(self, points):
        matched, degraded = points
        assert degraded.summary.cost >= matched.summary.cost * 0.8
        # Weaker real monitors mean slower diagnosis.
        assert (
            degraded.summary.residual_time
            >= matched.summary.residual_time * 0.8
        )

    def test_mismatch_finding_overtrust_causes_early_termination(self, points):
        """The sweep's headline finding: a controller whose model claims
        perfect probe coverage treats an all-clear as near-proof of
        recovery, so when the real monitors miss (coverage 0.5) it
        sometimes terminates with the fault still live.  The metrics layer
        must surface those as early terminations, not hide them."""
        degraded = points[-1]
        assert degraded.environment_coverage == 0.5
        assert (
            degraded.summary.early_terminations
            == degraded.summary.unrecovered
        )
        assert degraded.summary.early_terminations > 0

    def test_formatting(self, points):
        text = format_mismatch(points)
        assert "Model cov." in text
        assert "Unrecovered" in text


class TestWeightedFaultLoad:
    def test_weights_respected(self, simple_system):
        engine = OraclePolicyEngine(simple_system.model)
        faults = np.array([simple_system.fault_a, simple_system.fault_b])
        result = run_campaign(
            engine,
            fault_states=faults,
            injections=300,
            seed=0,
            fault_probabilities=np.array([0.9, 0.1]),
        )
        drawn_a = sum(
            1
            for episode in result.episodes
            if episode.fault_state == simple_system.fault_a
        )
        assert 240 <= drawn_a <= 295  # ~270 expected

    def test_mismatched_weight_shape_rejected(self, simple_system):
        engine = OraclePolicyEngine(simple_system.model)
        with pytest.raises(ValueError, match="align"):
            run_campaign(
                engine,
                fault_states=np.array([simple_system.fault_a]),
                injections=1,
                fault_probabilities=np.array([0.5, 0.5]),
            )

    def test_non_distribution_weights_rejected(self, simple_system):
        engine = OraclePolicyEngine(simple_system.model)
        with pytest.raises(ValueError, match="distribution"):
            run_campaign(
                engine,
                fault_states=np.array(
                    [simple_system.fault_a, simple_system.fault_b]
                ),
                injections=1,
                fault_probabilities=np.array([0.9, 0.9]),
            )
