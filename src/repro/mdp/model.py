"""The Markov decision process model type.

An MDP is the tuple ``(S, A, p(.|s,a), r(s,a))`` of Section 2.  States and
actions carry human-readable labels because recovery models are built from
named components and named recovery actions, and every report in the
experiment harness prints those names.

Transitions and rewards may be dense ndarrays (the default) or the sparse
shared-structure containers of :mod:`repro.linalg` — a single validated
construction path accepts both, and :attr:`MDP.backend` reports which one
a model uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.exceptions import ModelError
from repro.linalg.backends import Backend, backend_of, sparsify_rewards
from repro.linalg.containers import SparseTransitions, StructuredRewards
from repro.linalg.ops import mean_transition_matrix, rewards_mean_over_actions
from repro.util.validation import check_stochastic_matrix


def _default_labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


def _label_index(labels: tuple[str, ...]) -> dict[str, int]:
    """The map from each of ``labels`` to its position."""
    return {label: i for i, label in enumerate(labels)}


def _check_unique(labels: tuple[str, ...], kind: str) -> None:
    if len(set(labels)) != len(labels):
        shown = labels if len(labels) <= 32 else labels[:32] + ("...",)
        raise ModelError(f"{kind} labels must be unique, got {shown}")


def _validate_model_arrays(transitions, rewards):
    """Single validated construction path for both backends.

    Returns ``(transitions, rewards, (n_actions, n_states))``.  Dense
    ndarray inputs are coerced to float and checked row-by-row; sparse
    containers validate their base + override structure instead (each
    effective row checked once, never densified).  Each backend holds one
    reward layout: a reward ndarray beside sparse transitions becomes a
    :class:`StructuredRewards` through the lossless
    :func:`~repro.linalg.backends.sparsify_rewards`, and a
    :class:`StructuredRewards` beside dense transitions becomes an ndarray.
    """
    if isinstance(transitions, SparseTransitions):
        transitions.validate("transitions")
        n_actions, n_states, _ = transitions.shape
        if not isinstance(rewards, StructuredRewards):
            rewards = np.asarray(rewards, dtype=float)
    else:
        transitions = np.asarray(transitions, dtype=float)
        if transitions.ndim != 3 or transitions.shape[1] != transitions.shape[2]:
            raise ModelError(
                "transitions must have shape (|A|, |S|, |S|), "
                f"got {transitions.shape}"
            )
        n_actions, n_states, _ = transitions.shape
        if isinstance(rewards, StructuredRewards):
            rewards = rewards.full()
        rewards = np.asarray(rewards, dtype=float)
    if rewards.shape != (n_actions, n_states):
        raise ModelError(
            f"rewards must have shape ({n_actions}, {n_states}), "
            f"got {rewards.shape}"
        )
    if isinstance(transitions, SparseTransitions):
        if not isinstance(rewards, StructuredRewards):
            rewards = sparsify_rewards(rewards)
        rewards.validate("rewards")
    else:
        for a in range(n_actions):
            check_stochastic_matrix(transitions[a], name=f"transitions[{a}]")
    return transitions, rewards, (n_actions, n_states)


@dataclass(frozen=True)
class MDP:
    """A finite MDP with dense or sparse transition and reward storage.

    Attributes:
        transitions: ``(|A|, |S|, |S|)`` ndarray (``transitions[a, s, s']``
            is ``p(s'|s, a)``, every ``transitions[a]`` row-stochastic) or a
            :class:`repro.linalg.SparseTransitions` container.
        rewards: ``(|A|, |S|)`` ndarray (``rewards[a, s]`` is ``r(s, a)``)
            or a :class:`repro.linalg.StructuredRewards` container.
            Recovery models use non-positive rewards (costs) but the MDP
            type itself does not require that.
        state_labels: one label per state.
        action_labels: one label per action.
        discount: the discounting factor ``beta`` in ``[0, 1]``.  Recovery
            models use the undiscounted criterion ``beta = 1`` (Section 2).

    The label-to-index maps behind :meth:`state_index` and
    :meth:`action_index` are built on first lookup: at 300,002 states they
    hold about 23 MB that a model used only by index never needs.
    """

    transitions: np.ndarray | SparseTransitions
    rewards: np.ndarray | StructuredRewards
    state_labels: tuple[str, ...] = ()
    action_labels: tuple[str, ...] = ()
    discount: float = 1.0

    def __post_init__(self):
        transitions, rewards, (n_actions, n_states) = _validate_model_arrays(
            self.transitions, self.rewards
        )
        if n_actions == 0 or n_states == 0:
            raise ModelError("an MDP needs at least one state and one action")
        if not 0.0 <= self.discount <= 1.0:
            raise ModelError(f"discount must be in [0, 1], got {self.discount}")

        state_labels = self.state_labels or _default_labels("s", n_states)
        action_labels = self.action_labels or _default_labels("a", n_actions)
        if len(state_labels) != n_states:
            raise ModelError(
                f"{len(state_labels)} state labels for {n_states} states"
            )
        if len(action_labels) != n_actions:
            raise ModelError(
                f"{len(action_labels)} action labels for {n_actions} actions"
            )
        _check_unique(tuple(state_labels), "state")
        _check_unique(tuple(action_labels), "action")

        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "state_labels", tuple(state_labels))
        object.__setattr__(self, "action_labels", tuple(action_labels))

    @property
    def n_states(self) -> int:
        """Number of states ``|S|``."""
        return self.transitions.shape[1]

    @property
    def n_actions(self) -> int:
        """Number of actions ``|A|``."""
        return self.transitions.shape[0]

    @property
    def backend(self) -> Backend:
        """The storage backend this model uses (dense or sparse)."""
        return backend_of(self.transitions)

    @cached_property
    def _state_index(self) -> dict[str, int]:
        return _label_index(self.state_labels)

    @cached_property
    def _action_index(self) -> dict[str, int]:
        return _label_index(self.action_labels)

    def state_index(self, label: str) -> int:
        """Index of the state with ``label`` (KeyError if unknown)."""
        return self._state_index[label]

    def action_index(self, label: str) -> int:
        """Index of the action with ``label`` (KeyError if unknown)."""
        return self._action_index[label]

    def uniform_chain(self):
        """The Markov reward chain of the uniformly-random policy.

        This is the chain that defines the RA-Bound (Section 3.1): every
        action is chosen with probability ``1/|A|`` regardless of state.
        Returns ``(P, r)`` where ``P[s, s']`` is the chain's transition
        probability and ``r[s]`` its expected single-step reward; on the
        sparse backend ``P`` is a CSR matrix built without densifying.
        """
        chain = mean_transition_matrix(self.transitions)
        reward = rewards_mean_over_actions(self.rewards)
        return chain, reward

    def policy_chain(self, policy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Markov reward chain induced by a deterministic ``policy``.

        ``policy[s]`` is the action index chosen in state ``s``.  Returns
        ``(P, r)`` as in :meth:`uniform_chain`.  Dense backend only — the
        fancy-indexed gather has no sparse counterpart yet.
        """
        if self.backend.is_sparse:
            raise ModelError(
                "policy_chain requires the dense backend; densify the model "
                "first (repro.linalg.densify_transitions)"
            )
        policy = np.asarray(policy, dtype=int)
        if policy.shape != (self.n_states,):
            raise ModelError(
                f"policy must have shape ({self.n_states},), got {policy.shape}"
            )
        if np.any(policy < 0) or np.any(policy >= self.n_actions):
            raise ModelError("policy contains out-of-range action indices")
        states = np.arange(self.n_states)
        return self.transitions[policy, states, :], self.rewards[policy, states]

    def with_discount(self, discount: float) -> "MDP":
        """A copy of this MDP with a different discount factor."""
        return MDP(
            transitions=self.transitions,
            rewards=self.rewards,
            state_labels=self.state_labels,
            action_labels=self.action_labels,
            discount=discount,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MDP(|S|={self.n_states}, |A|={self.n_actions}, "
            f"discount={self.discount})"
        )
