"""The POMDP model type.

A POMDP extends an MDP with a finite observation set ``O`` and an
observation function ``q(o|s, a)``: the probability of observing ``o`` when
the system *arrives* in state ``s`` as a result of action ``a`` (Section 2).
In the recovery setting, observations are the joint outputs of the system's
monitors.

Like :class:`repro.mdp.MDP`, the tensors may be dense ndarrays or the
sparse containers of :mod:`repro.linalg`; every consumer dispatches through
:mod:`repro.linalg.ops` so the belief-side hot paths run natively on
either backend.  A POMDP validates its transitions, rewards and
state/action labels by building its underlying :class:`~repro.mdp.MDP`
once, keeps it (:meth:`POMDP.to_mdp` returns it), and validates its
observations itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.exceptions import ModelError
from repro.linalg.backends import Backend, backend_of
from repro.linalg.containers import (
    SparseObservations,
    SparseTransitions,
    StructuredRewards,
)
from repro.mdp.model import MDP, _check_unique, _default_labels, _label_index
from repro.util.validation import check_stochastic_matrix


def _validate_observations(observations, n_actions: int, n_states: int):
    """``observations`` checked to be ``(n_actions, n_states, |O|)`` with
    stochastic rows: a sparse container validates its base + override
    structure, an ndarray is coerced to float and checked per action."""
    if isinstance(observations, SparseObservations):
        if observations.shape[:2] != (n_actions, n_states):
            raise ModelError(
                "observations must cover "
                f"({n_actions}, {n_states}, ...), got {observations.shape}"
            )
        observations.validate("observations")
        return observations
    observations = np.asarray(observations, dtype=float)
    if observations.ndim != 3 or observations.shape[:2] != (n_actions, n_states):
        raise ModelError(
            "observations must have shape (|A|, |S|, |O|) = "
            f"({n_actions}, {n_states}, ...), got {observations.shape}"
        )
    for a in range(n_actions):
        check_stochastic_matrix(observations[a], name=f"observations[{a}]")
    return observations


@dataclass(frozen=True)
class POMDP:
    """A finite POMDP with dense or sparse tensor storage.

    Attributes:
        transitions: ``(|A|, |S|, |S|)`` array (``transitions[a, s, s']`` is
            ``p(s'|s, a)``) or :class:`repro.linalg.SparseTransitions`.
        observations: ``(|A|, |S|, |O|)`` array (``observations[a, s', o]``
            is ``q(o|s', a)`` — note the state index is the *arrival* state)
            or :class:`repro.linalg.SparseObservations`.
        rewards: ``(|A|, |S|)`` array (``rewards[a, s]`` is ``r(s, a)``) or
            :class:`repro.linalg.StructuredRewards`.
        state_labels / action_labels / observation_labels: display names.
        discount: ``beta``; recovery models use 1.0 (undiscounted).

    The three tensors share one backend: all dense ndarrays, or all sparse
    containers.  Transitions and observations must be given that way;
    rewards are converted losslessly to the transitions' backend.  The
    label-to-index maps are built on first lookup.
    """

    transitions: np.ndarray | SparseTransitions
    observations: np.ndarray | SparseObservations
    rewards: np.ndarray | StructuredRewards
    state_labels: tuple[str, ...] = ()
    action_labels: tuple[str, ...] = ()
    observation_labels: tuple[str, ...] = ()
    discount: float = 1.0
    _mdp: MDP = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sparse_transitions = isinstance(self.transitions, SparseTransitions)
        if sparse_transitions != isinstance(self.observations, SparseObservations):
            raise ModelError(
                "transitions and observations must use the same backend "
                "(mixing dense arrays with sparse containers is not supported)"
            )
        mdp = MDP(
            transitions=self.transitions,
            rewards=self.rewards,
            state_labels=tuple(self.state_labels),
            action_labels=tuple(self.action_labels),
            discount=self.discount,
        )
        observations = _validate_observations(
            self.observations, mdp.n_actions, mdp.n_states
        )
        n_observations = observations.shape[2]
        if n_observations == 0:
            raise ModelError("a POMDP needs at least one observation")
        observation_labels = tuple(self.observation_labels) or _default_labels(
            "o", n_observations
        )
        if len(observation_labels) != n_observations:
            raise ModelError(
                f"{len(observation_labels)} observation labels for "
                f"{n_observations} observations"
            )
        _check_unique(observation_labels, "observation")

        object.__setattr__(self, "_mdp", mdp)
        object.__setattr__(self, "transitions", mdp.transitions)
        object.__setattr__(self, "observations", observations)
        object.__setattr__(self, "rewards", mdp.rewards)
        object.__setattr__(self, "state_labels", mdp.state_labels)
        object.__setattr__(self, "action_labels", mdp.action_labels)
        object.__setattr__(self, "observation_labels", observation_labels)

    @property
    def n_states(self) -> int:
        """Number of states ``|S|``."""
        return self.transitions.shape[1]

    @property
    def n_actions(self) -> int:
        """Number of actions ``|A|``."""
        return self.transitions.shape[0]

    @property
    def n_observations(self) -> int:
        """Number of observations ``|O|``."""
        return self.observations.shape[2]

    @property
    def backend(self) -> Backend:
        """The storage backend this model uses (dense or sparse)."""
        return backend_of(self.transitions)

    def state_index(self, label: str) -> int:
        """Index of the state labelled ``label``."""
        return self._mdp.state_index(label)

    def action_index(self, label: str) -> int:
        """Index of the action labelled ``label``."""
        return self._mdp.action_index(label)

    @cached_property
    def _observation_index(self) -> dict[str, int]:
        return _label_index(self.observation_labels)

    def observation_index(self, label: str) -> int:
        """Index of the observation labelled ``label``."""
        return self._observation_index[label]

    def to_mdp(self) -> MDP:
        """The underlying fully-observable MDP ``(S, A, p, r)``.

        This is the exponentially smaller model on which the RA-Bound is
        computed (Section 3.1) and on which the oracle controller operates.
        It is the one MDP this POMDP validated through when it was built,
        sharing its arrays and labels, so every call returns the same
        object.  The backend carries over: a sparse POMDP yields a sparse
        MDP.
        """
        return self._mdp

    def with_discount(self, discount: float) -> "POMDP":
        """A copy of this POMDP with a different discount factor."""
        return POMDP(
            transitions=self.transitions,
            observations=self.observations,
            rewards=self.rewards,
            state_labels=self.state_labels,
            action_labels=self.action_labels,
            observation_labels=self.observation_labels,
            discount=discount,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"POMDP(|S|={self.n_states}, |A|={self.n_actions}, "
            f"|O|={self.n_observations}, discount={self.discount}, "
            f"backend={self.backend.name})"
        )
