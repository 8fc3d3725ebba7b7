"""Tests for certified termination (the paper's first future-work item).

"Several ways to extend the approach in the paper are possible, and
include providing of guarantees against early termination of the recovery
process" — implemented as
``BranchAndBoundController(certified_termination=True)``: ``a_T`` is chosen
only when the termination reward dominates every alternative's *upper
bound*, so the model can never prove that continuing would have been
better.
"""

import numpy as np

from repro.controllers.bounded import BoundedController
from repro.controllers.branch_and_bound import BranchAndBoundController
from repro.obs.telemetry import Telemetry, activated
from repro.sim.campaign import run_campaign
from repro.systems.faults import FaultKind
from repro.systems.simple import build_simple_system


def _impatient_system():
    """A variant where loose lower bounds tempt premature termination.

    With t_op = 6, terminating at the uniform fault belief costs 3.0 while
    true recovery costs ~1.3 — but the unrefined RA-Bound prices recovery
    pessimistically enough that a plain bounded controller sometimes quits.
    """
    return build_simple_system(
        recovery_notification=False, operator_response_time=6.0
    )


class TestCertificateBlocksPrematureQuits:
    def test_plain_bounded_quits_early_with_loose_bounds(self):
        system = _impatient_system()
        controller = BoundedController(
            system.model, depth=1, refine_online=False
        )
        result = run_campaign(
            controller,
            fault_states=np.array([system.fault_a, system.fault_b]),
            injections=60,
            seed=2,
        )
        # The premise of the scenario: unrefined bounds cause early quits.
        assert result.summary.early_terminations > 0

    def test_certified_controller_never_quits_early(self):
        system = _impatient_system()
        controller = BranchAndBoundController(
            system.model,
            depth=1,
            refine_online=False,
            certified_termination=True,
        )
        telemetry = Telemetry()
        with activated(telemetry):
            result = run_campaign(
                controller,
                fault_states=np.array([system.fault_a, system.fault_b]),
                injections=60,
                seed=2,
            )
        assert result.summary.early_terminations == 0
        assert result.summary.unrecovered == 0
        assert telemetry.counters["controller.withheld_terminations"] > 0

    def test_certificate_does_not_block_legitimate_termination(self):
        """Once recovery genuinely completes, the certificate must allow
        a_T (episodes still terminate, in bounded time)."""
        system = _impatient_system()
        controller = BranchAndBoundController(
            system.model, depth=1, certified_termination=True
        )
        result = run_campaign(
            controller,
            fault_states=np.array([system.fault_a, system.fault_b]),
            injections=40,
            seed=5,
            max_steps=300,
        )
        assert all(episode.terminated for episode in result.episodes)

    def test_certified_on_emn(self, emn_system):
        controller = BranchAndBoundController(
            emn_system.model,
            depth=1,
            refine_min_improvement=1.0,
            certified_termination=True,
        )
        result = run_campaign(
            controller,
            fault_states=emn_system.fault_states(FaultKind.ZOMBIE),
            injections=15,
            seed=4,
            monitor_tail=5.0,
        )
        assert result.summary.early_terminations == 0
        assert result.summary.unrecovered == 0
