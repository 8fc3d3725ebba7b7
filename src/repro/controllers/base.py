"""The controller adapter shared by every recovery strategy.

A controller's life cycle, mirroring Section 4's description of the decision
loop: ``reset()`` at fault-detection time, then alternating ``observe()``
(Bayesian belief update with the latest monitor outputs, Eq. 4) and
``decide()`` (choose the next recovery action) until a decision with
``is_terminate`` set ends the episode.  The campaign driver in
:mod:`repro.sim` owns the loop; controllers never see the true system state
(except the oracle's engine, which reads the ground truth off its session).

One contract writes a policy: a
:class:`~repro.controllers.engine.PolicyEngine` subclass holds the shared
state and the decision logic, and one live
:class:`~repro.controllers.engine.RecoverySession`
(:attr:`RecoveryController.session`) holds the episode's.  A controller is
a thin adapter binding the two; every method forwards to the session.
Diagnostic counts (decisions, tie-breaks, branch-and-bound expansions) are
telemetry counters (:mod:`repro.obs.telemetry`), merged across campaign
chunks in chunk order.
"""

from __future__ import annotations

import numpy as np

from repro.controllers.engine import (
    NO_ACTION,
    Decision,
    PolicyEngine,
    RecoverySession,
)
from repro.exceptions import ControllerError
from repro.recovery.model import RecoveryModel
from repro.util.timing import Stopwatch

__all__ = [
    "NO_ACTION",
    "Decision",
    "RecoveryController",
]


class RecoveryController:
    """Thin adapter binding one :class:`PolicyEngine` to one live session.

    Raises:
        ControllerError: ``engine`` is not a :class:`PolicyEngine` (say, a
            model passed by a subclass written for the removed ``_decide``
            callback API).
    """

    def __init__(self, engine: PolicyEngine):
        if not isinstance(engine, PolicyEngine):
            raise ControllerError(
                "RecoveryController adapts a PolicyEngine, got "
                f"{type(engine).__name__}; write the policy as a "
                "PolicyEngine subclass and pass an instance"
            )
        self.engine = engine
        self.name = engine.name
        self.preflight_report = engine.preflight_report
        self.session: RecoverySession = engine.session()

    def refinement_state(self):
        """The engine's mutable bound-vector set, if it refines one.

        The campaign engine merges the refinements its controller clones
        produce back into this object (see :mod:`repro.sim.parallel`);
        ``None`` opts out of refinement merging.
        """
        return self.engine.refinement_state()

    # -- session pass-throughs ------------------------------------------------

    @property
    def model(self) -> RecoveryModel:
        """The engine's (shared) recovery model."""
        return self.engine.model

    @property
    def uses_monitors(self) -> bool:
        """Whether the campaign feeds monitor outputs to this controller."""
        return self.engine.uses_monitors

    @property
    def stopwatch(self) -> Stopwatch:
        """The live session's decision stopwatch ("algorithm time")."""
        return self.session.stopwatch

    def reset(self, initial_belief: np.ndarray | None = None) -> None:
        """Start a new recovery episode (see :meth:`RecoverySession.reset`)."""
        self.session.reset(initial_belief)

    @property
    def belief(self) -> np.ndarray:
        """The controller's current belief state (copy)."""
        return self.session.belief

    @property
    def done(self) -> bool:
        """True once the controller has terminated the current episode."""
        return self.session.done

    def observe(self, action: int, observation: int) -> None:
        """Fold the monitor outputs after ``action`` into the belief (Eq. 4)."""
        self.session.observe(action, observation)

    def decide(self) -> Decision:
        """Choose the next action; timed for the "algorithm time" metric."""
        return self.session.decide()

    def sync_true_state(self, state: int) -> None:
        """Ground-truth hook (see :meth:`RecoverySession.sync_true_state`)."""
        self.session.sync_true_state(state)
