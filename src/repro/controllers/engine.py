"""The engine/session split behind every recovery strategy.

Section 4 describes an *online* decision loop: a controller that lives
inside the recovering system, holds a belief per incident, and answers
"what next?" on demand.  Two kinds of state back that loop, with very
different lifetimes:

* **shared, immutable-after-warmup state** — the augmented model, the
  RA-Bound-seeded :class:`~repro.bounds.vector_set.BoundVectorSet`, QMDP
  Q-values, fixing-action tables, preflight reports.  Expensive to build,
  identical for every concurrent recovery, safe to share.  This lives in a
  :class:`PolicyEngine`.
* **per-episode mutable state** — the belief, the step count, the done
  flag, the decision stopwatch, the ground-truth hook, per-episode
  refinement overrides.  Cheap, short-lived, one per recovery incident.
  This lives in a :class:`RecoverySession` spawned from an engine.

One engine multiplexes any number of sessions: the batch campaign drivers
(:mod:`repro.sim`) open one session per isolation chunk and reset it per
episode, while the persistent policy service (:mod:`repro.serve`) keeps
many sessions open concurrently against a single warm engine.

The one deliberately *shared mutable* object is the bound set: Section
4.1's refinements accumulate across episodes ("bounds improve along
beliefs naturally generated during recovery"), so sessions refine their
engine's set in place — exactly the state the campaign engine clones per
chunk and merges back, and the policy service checkpoints to disk.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.exceptions import BeliefError, ControllerError
from repro.obs.telemetry import active as telemetry_active
from repro.obs.telemetry import span
from repro.pomdp.belief import update_belief
from repro.recovery.model import RecoveryModel
from repro.util.timing import Stopwatch
from repro.util.validation import check_distribution

#: Sentinel action index for terminating decisions that execute nothing.
#: Only engines on models *without* a terminate action (recovery
#: notification, Figure 2(a)) may emit it: their termination is a pure
#: bookkeeping step.  Where the model has ``a_T``, terminating decisions
#: carry it (see :meth:`PolicyEngine.terminate_decision`) so the
#: environment charges the termination reward.  The campaign, trace, and
#: metrics layers treat ``NO_ACTION`` as "execute nothing": it is never run
#: against the environment, counted as a recovery action, or rendered as an
#: action label.
NO_ACTION = -1


@dataclass(frozen=True)
class Decision:
    """One policy decision.

    Attributes:
        action: index of the chosen action in the model's action space, or
            :data:`NO_ACTION` when ``is_terminate`` is True and there is
            nothing to execute (models with recovery notification have no
            ``a_T``).
        is_terminate: the policy declares recovery finished.  For the
            bounded policy this coincides with choosing ``a_T``; for
            the baselines it is the probability-threshold test.
        value: the root value of the lookahead tree, when one was built.
    """

    action: int
    is_terminate: bool = False
    value: float | None = None

    @property
    def executes_action(self) -> bool:
        """True when ``action`` is a real model action to run."""
        return self.action >= 0


class RecoverySession:
    """Per-episode mutable state: belief tracking and the decision loop.

    A session mirrors Section 4's controller life cycle — :meth:`reset` at
    fault-detection time, then alternating :meth:`observe` (Bayesian belief
    update with the latest monitor outputs, Eq. 4) and :meth:`decide`
    (delegated to the engine) until a decision with ``is_terminate`` set
    ends the episode.  It owns nothing expensive: everything warm lives on
    the engine, so opening a session is allocation-free in model terms and
    a service can hold thousands of them.

    Args:
        engine: the shared :class:`PolicyEngine` that makes decisions.
        refine: per-session override of the engine's online-refinement
            default — ``True``/``False`` force it, ``None`` inherits.  The
            policy service uses ``False`` for replay/audit sessions that
            must not mutate the shared bound set.
        session_id: optional label carried into telemetry span attributes
            so concurrent sessions' flamegraphs stay separable.
    """

    def __init__(
        self,
        engine: PolicyEngine,
        refine: bool | None = None,
        session_id: str | None = None,
    ):
        self.engine = engine
        self.refine = refine
        self.session_id = session_id
        self.stopwatch = Stopwatch()
        self.steps = 0
        self.true_state: int | None = None
        self._belief: np.ndarray | None = None
        self._done = True

    # -- engine pass-throughs -------------------------------------------------

    @property
    def model(self) -> RecoveryModel:
        """The engine's (shared) recovery model."""
        return self.engine.model

    @property
    def uses_monitors(self) -> bool:
        """Whether the campaign should feed monitor outputs to this session."""
        return self.engine.uses_monitors

    # -- episode life cycle ---------------------------------------------------

    def reset(self, initial_belief: np.ndarray | None = None) -> None:
        """Start a new recovery episode.

        The default initial belief is the paper's "all faults equally
        likely" distribution; the campaign then immediately feeds the first
        monitor outputs through :meth:`observe`.

        Raises:
            ControllerError: ``initial_belief`` has the wrong length.
            ModelError: ``initial_belief`` is not a probability
                distribution (negative or NaN entries, or a sum away from
                one); decisions from it would refine the shared bound set
                with a meaningless vector.
        """
        model = self.engine.model
        if initial_belief is None:
            self._belief = model.initial_belief()
        else:
            belief = np.asarray(initial_belief, dtype=float)
            if belief.shape != (model.pomdp.n_states,):
                raise ControllerError(
                    f"initial belief must have length {model.pomdp.n_states}"
                )
            # Checked, but stored as given: the check's copy clips tiny
            # negative entries to zero, and decisions must see exactly the
            # caller's belief.
            check_distribution(belief, "initial belief")
            self._belief = belief.copy()
        self._done = False
        self.steps = 0
        self.true_state = None

    @property
    def belief(self) -> np.ndarray:
        """The session's current belief state (copy)."""
        if self._belief is None:
            raise ControllerError("session has not been reset onto an episode")
        return self._belief.copy()

    @property
    def done(self) -> bool:
        """True once the session has terminated the current episode."""
        return self._done

    def span_attributes(self) -> dict[str, str]:
        """Telemetry span attributes identifying this session, if labelled.

        Unlabelled sessions (the campaign's) contribute nothing, so batch
        traces are byte-identical to the pre-session era; the policy
        service labels every session so concurrent flamegraphs separate
        (see :func:`repro.obs.trace.span_tree` grouping).
        """
        if self.session_id is None:
            return {}
        return {"session": self.session_id}

    def belief_view(self) -> np.ndarray:
        """The live belief array, *not* a copy.

        For engine internals on the decision hot path (one belief copy per
        decision is measurable at 300k states).  Engines must treat it as
        read-only; external callers want :attr:`belief`.
        """
        if self._belief is None:
            raise ControllerError("session has not been reset onto an episode")
        return self._belief

    def observe(self, action: int, observation: int) -> None:
        """Fold the monitor outputs after ``action`` into the belief (Eq. 4).

        If the observation is impossible under the current belief (a
        model/environment mismatch), the belief is re-seeded from the
        initial fault distribution and the update retried, so the
        session re-diagnoses instead of crashing mid-recovery.

        Raises:
            ControllerError: before :meth:`reset`, or ``action`` /
                ``observation`` outside the model's ranges (numpy would
                wrap a negative index and read another action's row, or
                fail with an ``IndexError`` past the end).
        """
        if self._belief is None:
            raise ControllerError("observe() before reset()")
        if observation < 0:
            # The environment's terminate branch hands back the NO_OBSERVATION
            # sentinel; feeding it to Eq. 4 would silently index the last
            # observation column (numpy wraps negative indices) and corrupt
            # the belief.  No shipped loop does this — fail loudly if a
            # custom driver tries.
            raise ControllerError(
                f"observe() got negative observation {observation}; terminate "
                "executions produce no monitor outputs and must not be fed "
                "back into the belief update"
            )
        model = self.engine.model
        pomdp = model.pomdp
        if not (0 <= action < pomdp.n_actions and observation < pomdp.n_observations):
            raise ControllerError(
                f"observe() got action {action} and observation {observation}; "
                f"the model has {pomdp.n_actions} actions and "
                f"{pomdp.n_observations} observations"
            )
        telemetry = telemetry_active()
        with span("belief.update", category="belief"):
            try:
                self._belief = update_belief(
                    pomdp, self._belief, action, observation
                )
            except BeliefError:
                fallback = model.initial_belief()
                try:
                    self._belief = update_belief(
                        pomdp, fallback, action, observation
                    )
                    fallback_recovered = True
                except BeliefError:
                    self._belief = fallback
                    fallback_recovered = False
                if telemetry is not None:
                    telemetry.count("belief.update_failures")
                    telemetry.event(
                        "belief_update_failure",
                        action=int(action),
                        observation=int(observation),
                        fallback_recovered=fallback_recovered,
                    )

    def decide(self) -> Decision:
        """Ask the engine for the next action; timed for "algorithm time".

        The stopwatch lap also feeds the ``session.decide`` latency
        histogram — the per-decision distribution the policy service's
        SLO gate reads — reusing the stopwatch's own clock reads.
        """
        if self._belief is None:
            raise ControllerError("decide() before reset()")
        if self._done:
            raise ControllerError("decide() after the episode terminated")
        lap_start = self.stopwatch.total_seconds
        with self.stopwatch:
            decision = self.engine.decide(self)
        telemetry = telemetry_active()
        if telemetry is not None:
            telemetry.observe_latency(
                "session.decide", self.stopwatch.total_seconds - lap_start
            )
        if decision.is_terminate:
            self._done = True
        else:
            self.steps += 1
        return decision

    def sync_true_state(self, state: int) -> None:
        """Record the ground truth the campaign exposes after transitions.

        Every honest engine ignores it; only the oracle engine reads it
        back (it models omniscient diagnosis, not something a real
        controller could do).
        """
        self.true_state = int(state)


class PolicyEngine(abc.ABC):
    """Shared, immutable-after-warmup decision state for one policy.

    Subclasses hold whatever is expensive and episode-independent (bound
    sets, Q-value tables, fixing-action maps) and implement
    :meth:`decide`, which reads a session's belief and answers with a
    :class:`Decision`.  Engines never track episode state themselves —
    that is the session's job — so one engine can serve any number of
    sequential or concurrent sessions.

    Args:
        model: the (augmented) recovery model to control.
        preflight: run the static analyzer over ``model`` before the
            first session can be opened.  Error findings raise
            :class:`~repro.exceptions.AnalysisError` (carrying the full
            report); otherwise the report is kept on
            :attr:`preflight_report` so operators can surface warnings
            (loose bounds, dead observations) at deployment time.
    """

    #: Display name used in experiment tables (subclasses override).
    name: str = "policy"

    #: Engines that opt out of monitor feedback (the oracle) set this False.
    uses_monitors: bool = True

    #: Refinement default of sessions that do not override it (see refines).
    refine_online: bool = False

    def __init__(self, model: RecoveryModel, preflight: bool = False):
        self.model = model
        self.preflight_report = None
        if preflight:
            from repro.analysis.passes import analyze

            report = analyze(model)
            report.raise_if_errors()
            self.preflight_report = report

    # -- session factory ------------------------------------------------------

    def session(
        self,
        refine: bool | None = None,
        session_id: str | None = None,
    ) -> RecoverySession:
        """Open a new :class:`RecoverySession` against this engine."""
        return RecoverySession(self, refine=refine, session_id=session_id)

    # -- shared-state protocol ------------------------------------------------

    def refinement_state(self):
        """The mutable bound-vector set this engine refines, if any.

        The campaign engine merges the refinements its engine clones
        produce back into this object (see :mod:`repro.sim.parallel`), and
        the policy service checkpoints it.  Engines with a differently
        named set override this; returning ``None`` opts out.
        """
        return getattr(self, "bound_set", None)

    def refines(self, session: RecoverySession) -> bool:
        """Whether ``session``'s decisions refine the shared bound set.

        The session's ``refine`` override wins; ``None`` inherits
        :attr:`refine_online`.  Refining engines refine by this flag and
        the policy service picks its engine-lock mode by it (a session
        that does not refine only reads the set), so the two cannot
        disagree.
        """
        return self.refine_online if session.refine is None else bool(session.refine)

    # -- decisions ------------------------------------------------------------

    @abc.abstractmethod
    def decide(self, session: RecoverySession) -> Decision:
        """Choose an action for ``session``'s current belief."""

    def terminate_decision(self, value: float | None = None) -> Decision:
        """A terminating decision that executes ``a_T`` where the model has one.

        Threshold and notification exits used to return a bare ``action=-1``
        sentinel; on models with a terminate action that skipped the
        termination-reward charge entirely (the operator-response cost of
        walking away from a live fault, Section 3.1).  The decision
        carries ``a_T`` whenever it exists — the campaign executes it, and
        the environment charges ``r(s, a_T)`` (zero once recovered) — and
        falls back to :data:`NO_ACTION` only for recovery-notification
        models, whose termination is pure bookkeeping.
        """
        action = self.model.terminate_action
        return Decision(
            action=NO_ACTION if action is None else action,
            is_terminate=True,
            value=value,
        )
