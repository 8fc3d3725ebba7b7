"""Declarative construction of recovery models.

The builder assembles the POMDP arrays from named states, actions, and an
observation model, applies the single-step reward composition
``r(s, a) = rbar(s, a) * t_a + rhat(s, a)`` of Section 2, runs the condition
checks, and performs the appropriate Figure 2 augmentation.  The concrete
system models in :mod:`repro.systems` are all expressed through it, and it
is the intended public entry point for users modelling their own systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import ModelError
from repro.linalg.backends import (
    densify_observations,
    densify_rewards,
    densify_transitions,
    sparsify_observations,
    sparsify_rewards,
    sparsify_transitions,
)
from repro.pomdp.model import POMDP
from repro.recovery.model import (
    TERMINATE_LABEL,
    RecoveryModel,
    _null_absorbing_sparse,
    _termination_containers,
    convert_backend,
)
from repro.recovery.notification import observation_overlap

if TYPE_CHECKING:
    from repro.analysis.diagnostics import AnalysisReport


@dataclass
class _StateSpec:
    label: str
    rate_cost: float
    null: bool


@dataclass
class _ActionSpec:
    label: str
    duration: float
    transitions: dict[str, dict[str, float]]
    costs: dict[str, float]
    impulse_costs: dict[str, float]
    passive: bool


@dataclass
class RecoveryModelBuilder:
    """Accumulates states, actions, and observations into a RecoveryModel.

    Typical usage::

        builder = RecoveryModelBuilder()
        builder.add_state("null", rate_cost=0.0, null=True)
        builder.add_state("fault(a)", rate_cost=0.5)
        builder.add_action(
            "restart(a)", duration=60.0,
            transitions={"fault(a)": {"null": 1.0}},
        )
        builder.set_observation_matrix(labels, matrix)
        model = builder.build(recovery_notification=False,
                              operator_response_time=21_600.0)

    Transitions default to self-loops for unlisted states.  Action cost in a
    state defaults to ``rate_cost(state) * duration`` (the system keeps
    dropping requests while the action runs); pass explicit per-state
    ``costs`` when an action makes extra components unavailable, and
    ``impulse_costs`` for one-off penalties (the ``rhat`` term).
    """

    _states: list[_StateSpec] = field(default_factory=list)
    _actions: list[_ActionSpec] = field(default_factory=list)
    _observation_labels: tuple[str, ...] | None = None
    _observation_matrix: np.ndarray | None = None
    _per_action_observations: dict[str, np.ndarray] = field(default_factory=dict)
    discount: float = 1.0

    def add_state(
        self, label: str, rate_cost: float = 0.0, null: bool = False
    ) -> "RecoveryModelBuilder":
        """Declare a state with a non-negative cost *rate* (per second)."""
        if rate_cost < 0:
            raise ModelError(
                f"rate_cost is a magnitude and must be >= 0, got {rate_cost}"
            )
        if any(state.label == label for state in self._states):
            raise ModelError(f"duplicate state label {label!r}")
        if null and rate_cost != 0.0:
            raise ModelError(f"null state {label!r} must have zero cost rate")
        self._states.append(_StateSpec(label=label, rate_cost=rate_cost, null=null))
        return self

    def add_action(
        self,
        label: str,
        duration: float,
        transitions: dict[str, dict[str, float]] | None = None,
        costs: dict[str, float] | None = None,
        impulse_costs: dict[str, float] | None = None,
        passive: bool = False,
    ) -> "RecoveryModelBuilder":
        """Declare an action.

        Args:
            label: action name.
            duration: execution time ``t_a`` in seconds.
            transitions: per-origin-state next-state distributions; states
                not listed keep a deterministic self-loop.
            costs: per-state cost *magnitudes* accrued over the whole action
                (overrides the default ``rate_cost * duration``).
            impulse_costs: per-state one-off cost magnitudes (``rhat``).
            passive: True for observe-style actions that never change state.
        """
        if duration < 0:
            raise ModelError(f"duration must be >= 0, got {duration}")
        if any(action.label == label for action in self._actions):
            raise ModelError(f"duplicate action label {label!r}")
        self._actions.append(
            _ActionSpec(
                label=label,
                duration=duration,
                transitions=transitions or {},
                costs=costs or {},
                impulse_costs=impulse_costs or {},
                passive=passive,
            )
        )
        return self

    def set_observation_matrix(
        self,
        labels: tuple[str, ...],
        matrix: np.ndarray,
        action: str | None = None,
    ) -> "RecoveryModelBuilder":
        """Attach observation distributions.

        ``matrix[s, o]`` is ``q(o | s, .)``; rows follow the order in which
        states were added.  Without ``action`` the matrix applies to every
        action (monitor outputs usually depend only on the system state);
        with ``action`` it overrides the default for that action only.
        """
        matrix = np.asarray(matrix, dtype=float)
        if action is None:
            self._observation_labels = tuple(labels)
            self._observation_matrix = matrix
        else:
            if self._observation_labels is not None and tuple(labels) != tuple(
                self._observation_labels
            ):
                raise ModelError("per-action observation labels must match")
            self._per_action_observations[action] = matrix
        return self

    # -- assembly ---------------------------------------------------------

    def _state_index(self) -> dict[str, int]:
        return {state.label: i for i, state in enumerate(self._states)}

    def _assemble_arrays(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Raw ``(transitions, observations, rewards, null, rates, durations,
        passive)`` arrays, without stochastic validation.

        Shared by :meth:`build` (which validates via the POMDP constructor)
        and :meth:`analyze` (which reports problems instead of raising),
        through :meth:`_augment`.
        """
        if not self._states:
            raise ModelError("no states declared")
        if not self._actions:
            raise ModelError("no actions declared")
        if self._observation_matrix is None:
            raise ModelError("no observation matrix declared")
        index = self._state_index()
        n_states = len(self._states)
        n_actions = len(self._actions)

        transitions = np.zeros((n_actions, n_states, n_states))
        rewards = np.zeros((n_actions, n_states))
        for a, action in enumerate(self._actions):
            for s, state in enumerate(self._states):
                row = action.transitions.get(state.label)
                if row is None:
                    transitions[a, s, s] = 1.0
                else:
                    for target, probability in row.items():
                        if target not in index:
                            raise ModelError(
                                f"action {action.label!r} transitions from "
                                f"{state.label!r} to unknown state {target!r}"
                            )
                        transitions[a, s, index[target]] = probability
                if action.passive and row is not None and (
                    len(row) != 1 or row.get(state.label) != 1.0
                ):
                    raise ModelError(
                        f"passive action {action.label!r} must not change state"
                    )
                rate_cost = action.costs.get(
                    state.label, state.rate_cost * action.duration
                )
                impulse = action.impulse_costs.get(state.label, 0.0)
                if rate_cost < 0 or impulse < 0:
                    raise ModelError(
                        "costs are magnitudes and must be >= 0 "
                        f"(action {action.label!r}, state {state.label!r})"
                    )
                rewards[a, s] = -(rate_cost + impulse)

        observation_matrix = self._observation_matrix
        if observation_matrix.shape[0] != n_states:
            raise ModelError(
                f"observation matrix has {observation_matrix.shape[0]} rows "
                f"for {n_states} states"
            )
        observations = np.broadcast_to(
            observation_matrix,
            (n_actions,) + observation_matrix.shape,
        ).copy()
        for label, matrix in self._per_action_observations.items():
            matching = [
                a for a, action in enumerate(self._actions) if action.label == label
            ]
            if not matching:
                raise ModelError(f"observation override for unknown action {label!r}")
            observations[matching[0]] = matrix

        null_states = np.array([state.null for state in self._states])
        rate_rewards = -np.array([state.rate_cost for state in self._states])
        durations = np.array([action.duration for action in self._actions])
        passive = np.array([action.passive for action in self._actions])
        return (
            transitions,
            observations,
            rewards,
            null_states,
            rate_rewards,
            durations,
            passive,
        )

    def _augment(
        self,
        recovery_notification: bool | None,
        operator_response_time: float | None,
        validate: bool,
    ) -> tuple[tuple, dict]:
        """The step :meth:`build` and :meth:`analyze` share.

        Assembles the arrays (and, with ``validate``, checks them as a
        POMDP, raising the constructor's :class:`ModelError`), detects
        recovery notification on the assembled observation tensor when
        ``recovery_notification`` is None, checks
        ``operator_response_time``, and applies the Figure 2 augmentation
        on the sparse containers.

        Returns ``(tensors, fields)``: the augmented ``(transitions,
        observations, rewards)`` containers, and the labels and recovery
        metadata (``s_T``/``a_T`` appended for Figure 2(b)).
        """
        (
            transitions,
            observations,
            rewards,
            null_states,
            rate_rewards,
            durations,
            passive,
        ) = self._assemble_arrays()
        fields = dict(
            state_labels=tuple(state.label for state in self._states),
            action_labels=tuple(action.label for action in self._actions),
            observation_labels=self._observation_labels,
        )
        if validate:
            POMDP(
                transitions=transitions,
                observations=observations,
                rewards=rewards,
                discount=self.discount,
                **fields,
            )
        if recovery_notification is None:
            recovery_notification = not observation_overlap(
                observations, null_states
            ).any()
        if recovery_notification and operator_response_time is not None:
            raise ModelError(
                "operator_response_time is only used without recovery "
                "notification"
            )
        if not recovery_notification and operator_response_time is None:
            raise ModelError(
                "models without recovery notification need an "
                "operator_response_time to derive termination rewards"
            )
        transitions = sparsify_transitions(transitions)
        rewards = sparsify_rewards(rewards)
        observations = sparsify_observations(observations)
        fields.update(
            null_states=null_states,
            rate_rewards=rate_rewards,
            durations=durations,
            passive_actions=passive,
            recovery_notification=recovery_notification,
        )
        if recovery_notification:
            transitions, rewards = _null_absorbing_sparse(
                transitions, rewards, null_states
            )
            return (transitions, observations, rewards), fields
        tensors = _termination_containers(
            transitions,
            observations,
            rewards,
            null_states,
            rate_rewards,
            operator_response_time,
        )
        fields.update(
            state_labels=fields["state_labels"] + (TERMINATE_LABEL,),
            action_labels=fields["action_labels"] + (TERMINATE_LABEL,),
            null_states=np.append(null_states, False),
            rate_rewards=np.append(rate_rewards, 0.0),
            durations=np.append(durations, 0.0),
            passive_actions=np.append(passive, False),
            terminate_state=len(null_states),
            terminate_action=len(durations),
            operator_response_time=operator_response_time,
        )
        return tensors, fields

    def analyze(
        self,
        recovery_notification: bool | None = None,
        operator_response_time: float | None = None,
    ) -> "AnalysisReport":
        """Static-analysis report for the model this builder would build.

        Performs the same Figure 2 augmentation as :meth:`build` without
        validating the assembled arrays, then runs every analyzer pass — so
        a declaration whose transitions do not even sum to one yields a
        complete diagnostic report (R001 alongside any condition
        violations) instead of the first
        :class:`~repro.exceptions.ModelError`.  Raises only for API misuse
        (no states/actions, missing observation matrix or
        ``operator_response_time``), exactly as :meth:`build` would.
        """
        from repro.analysis.passes import analyze
        from repro.analysis.view import ModelView

        (transitions, observations, rewards), fields = self._augment(
            recovery_notification, operator_response_time, validate=False
        )
        del fields["durations"], fields["passive_actions"]
        view = ModelView(
            transitions=transitions,
            observations=observations,
            rewards=rewards,
            discount=self.discount,
            **fields,
        )
        return analyze(view, title="builder model (pre-build report)")

    def build(
        self,
        recovery_notification: bool | None = None,
        operator_response_time: float | None = None,
        backend: str = "dense",
    ) -> RecoveryModel:
        """Assemble, check conditions, augment, and return a RecoveryModel.

        Args:
            recovery_notification: whether monitors reveal entry into
                ``S_phi``.  ``None`` auto-detects from the observation
                function (:func:`detect_recovery_notification`).
            operator_response_time: ``t_op`` in seconds; required (and only
                meaningful) for models without recovery notification.
            backend: ``"dense"`` (default), ``"sparse"``, or ``"auto"``;
                non-dense resolutions convert the finished model losslessly
                via :func:`repro.recovery.convert_backend`.
        """
        (transitions, observations, rewards), fields = self._augment(
            recovery_notification, operator_response_time, validate=True
        )
        pomdp = POMDP(
            transitions=densify_transitions(transitions),
            observations=densify_observations(observations),
            rewards=densify_rewards(rewards),
            state_labels=fields.pop("state_labels"),
            action_labels=fields.pop("action_labels"),
            observation_labels=fields.pop("observation_labels"),
            discount=self.discount,
        )
        return convert_backend(RecoveryModel(pomdp=pomdp, **fields), backend)
