"""A validation-free view of a model for the static analyzer.

The model classes (:class:`repro.mdp.MDP`, :class:`repro.pomdp.POMDP`,
:class:`repro.recovery.RecoveryModel`) validate eagerly and raise on the
*first* problem.  The analyzer's job is the opposite: accept anything
array-shaped and report *every* problem.  :class:`ModelView` is the common
denominator — the model tensors plus labels plus whatever recovery metadata
is known — buildable from a validated model object, from raw arrays, or
from an ``.npz`` archive written by :mod:`repro.io` (loaded without
validation, so a report can be produced even for archives the loaders
would reject).

A view holds one representation: the sparse containers of
:mod:`repro.linalg.containers`.  Dense ndarray inputs are shape-checked
and then converted losslessly (:func:`~repro.linalg.backends.sparsify_transitions`
and its siblings), so every analyzer pass has one implementation, and a
300k-state sparse model is analyzed without densifying anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ModelError
from repro.linalg.backends import (
    sparsify_observations,
    sparsify_rewards,
    sparsify_transitions,
)
from repro.linalg.containers import (
    SparseObservations,
    SparseTransitions,
    StructuredRewards,
)
from repro.mdp.classify import ChainClassification, classify_chain


def _labels(prefix: str, count: int, given=None) -> tuple[str, ...]:
    if given is not None and len(given) == count:
        return tuple(str(label) for label in given)
    return tuple(f"{prefix}{i}" for i in range(count))


def _state_vector(name: str, values, n_states: int, dtype) -> np.ndarray | None:
    """``values`` as a length-``n_states`` array, or ModelError."""
    if values is None:
        return None
    array = np.asarray(values, dtype=dtype)
    if array.shape != (n_states,):
        raise ModelError(
            f"{name} must be a vector of length {n_states}, got shape "
            f"{array.shape}"
        )
    return array


@dataclass(frozen=True)
class ModelView:
    """Model tensors as sparse containers, plus optional recovery metadata.

    Attributes:
        transitions: :class:`~repro.linalg.SparseTransitions`; an
            ``(|A|, |S|, |S|)`` array is accepted and converted.
        rewards: :class:`~repro.linalg.StructuredRewards`; an
            ``(|A|, |S|)`` array is accepted and converted.
        observations: :class:`~repro.linalg.SparseObservations` (an
            ``(|A|, |S|, |O|)`` array is accepted and converted), or None
            for plain MDPs.
        state_labels / action_labels / observation_labels: display names.
        discount: ``beta``.
        null_states: ``S_phi`` mask, or None when not a recovery model.
        rate_rewards: per-state ``rbar(s)``, or None.
        recovery_notification: Figure 2(a) vs 2(b), or None when unknown.
        terminate_state / terminate_action: ``s_T`` / ``a_T`` indices.
        operator_response_time: ``t_op`` for the termination rewards.
        initial_belief: the belief recovery starts from, or None.
    """

    transitions: SparseTransitions
    rewards: StructuredRewards
    observations: SparseObservations | None = None
    state_labels: tuple[str, ...] = ()
    action_labels: tuple[str, ...] = ()
    observation_labels: tuple[str, ...] = ()
    discount: float = 1.0
    null_states: np.ndarray | None = None
    rate_rewards: np.ndarray | None = None
    recovery_notification: bool | None = None
    terminate_state: int | None = None
    terminate_action: int | None = None
    operator_response_time: float | None = None
    initial_belief: np.ndarray | None = None
    _cache: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        transitions = self.transitions
        if not isinstance(transitions, SparseTransitions):
            transitions = np.asarray(transitions, dtype=float)
            if transitions.ndim != 3 or transitions.shape[1] != transitions.shape[2]:
                raise ModelError(
                    f"transitions must have shape (|A|, |S|, |S|), got "
                    f"{transitions.shape}"
                )
        n_actions, n_states = transitions.shape[0], transitions.shape[1]
        rewards = self.rewards
        if not isinstance(rewards, StructuredRewards):
            rewards = np.asarray(rewards, dtype=float)
        if rewards.shape != (n_actions, n_states):
            raise ModelError(
                f"rewards must have shape ({n_actions}, {n_states}), got "
                f"{rewards.shape}"
            )
        observations = self.observations
        if observations is not None:
            if not isinstance(observations, SparseObservations):
                observations = np.asarray(observations, dtype=float)
            if len(observations.shape) != 3 or observations.shape[:2] != (
                n_actions,
                n_states,
            ):
                raise ModelError(
                    "observations must have shape (|A|, |S|, |O|), got "
                    f"{observations.shape}"
                )
        null_states = _state_vector("null_states", self.null_states, n_states, bool)
        rate_rewards = _state_vector(
            "rate_rewards", self.rate_rewards, n_states, float
        )
        initial_belief = _state_vector(
            "initial_belief", self.initial_belief, n_states, float
        )
        if isinstance(transitions, np.ndarray):
            transitions = sparsify_transitions(transitions)
        if isinstance(rewards, np.ndarray):
            rewards = sparsify_rewards(rewards)
        if isinstance(observations, np.ndarray):
            observations = sparsify_observations(observations)
        object.__setattr__(self, "transitions", transitions)
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "observations", observations)
        object.__setattr__(self, "null_states", null_states)
        object.__setattr__(self, "rate_rewards", rate_rewards)
        object.__setattr__(self, "initial_belief", initial_belief)
        object.__setattr__(
            self, "state_labels", _labels("s", n_states, self.state_labels)
        )
        object.__setattr__(
            self, "action_labels", _labels("a", n_actions, self.action_labels)
        )
        n_observations = 0 if observations is None else observations.shape[2]
        object.__setattr__(
            self,
            "observation_labels",
            _labels("o", n_observations, self.observation_labels),
        )

    @property
    def n_states(self) -> int:
        return self.transitions.shape[1]

    @property
    def n_actions(self) -> int:
        return self.transitions.shape[0]

    @property
    def n_observations(self) -> int:
        return 0 if self.observations is None else self.observations.shape[2]

    def union_graph(self):
        """Structural union of all actions' transition supports, as CSR.

        Cached — reachability (R003/R004), dead-state (R101) and SCC (R202)
        passes all consume the same graph, so a 300k-state view builds it
        once.
        """
        cached = self._cache.get("union_graph")
        if cached is None:
            cached = self.transitions.union_support()
            self._cache["union_graph"] = cached
        return cached

    def mean_chain(self):
        """``mean_a T_a`` — the Eq. 5 uniformly-random chain, cached (CSR)."""
        cached = self._cache.get("mean_chain")
        if cached is None:
            cached = self.transitions.mean_matrix()
            self._cache["mean_chain"] = cached
        return cached

    def mean_chain_classes(self) -> ChainClassification:
        """:func:`~repro.mdp.classify.classify_chain` of :meth:`mean_chain`, cached.

        The RA-finiteness (R009), slow-absorption (R105) and SCC (R202)
        passes share one strong-component decomposition of the chain.
        """
        cached = self._cache.get("mean_chain_classes")
        if cached is None:
            cached = classify_chain(self.mean_chain())
            self._cache["mean_chain_classes"] = cached
        return cached

    @classmethod
    def from_model(cls, model) -> "ModelView":
        """Build a view from an MDP, POMDP, or RecoveryModel (duck-typed).

        Duck typing (rather than isinstance on the model classes) keeps this
        module import-light so the recovery layer can depend on the analyzer
        without an import cycle.
        """
        if hasattr(model, "pomdp"):  # RecoveryModel
            pomdp = model.pomdp
            try:
                initial = model.initial_belief()
            except Exception:
                initial = None
            return cls(
                transitions=pomdp.transitions,
                rewards=pomdp.rewards,
                observations=pomdp.observations,
                state_labels=pomdp.state_labels,
                action_labels=pomdp.action_labels,
                observation_labels=pomdp.observation_labels,
                discount=pomdp.discount,
                null_states=model.null_states,
                rate_rewards=model.rate_rewards,
                recovery_notification=model.recovery_notification,
                terminate_state=model.terminate_state,
                terminate_action=model.terminate_action,
                operator_response_time=model.operator_response_time,
                initial_belief=initial,
            )
        return cls(
            transitions=model.transitions,
            rewards=model.rewards,
            observations=getattr(model, "observations", None),
            state_labels=model.state_labels,
            action_labels=model.action_labels,
            observation_labels=getattr(model, "observation_labels", ()),
            discount=model.discount,
        )

    @classmethod
    def from_npz(cls, path) -> "ModelView":
        """Load a :mod:`repro.io` archive *without* model validation.

        Accepts both ``pomdp`` and ``recovery-model`` archives — v1 dense
        (converted to the containers) and v2 backend-native (sparse
        archives analyze on their own containers, never densified); unlike
        :func:`repro.io.load_recovery_model`, a structurally broken model
        still yields a view (and hence a full diagnostic report) instead of
        an exception naming only the first problem.
        """
        # Lazy: repro.io imports the recovery layer, which preflights
        # through this package — a module-level import would cycle.
        from repro.io import _unpack_model_tensors

        with np.load(path, allow_pickle=False) as archive:
            kind = str(archive.get("kind", ""))
            if kind not in ("pomdp", "recovery-model"):
                raise ModelError(
                    f"{path} holds a {kind or 'unknown'} archive; expected a "
                    "pomdp or recovery-model archive"
                )
            transitions, observations, rewards = _unpack_model_tensors(
                archive
            )
            common = dict(
                transitions=transitions,
                rewards=rewards,
                observations=observations,
                state_labels=tuple(str(s) for s in archive["state_labels"]),
                action_labels=tuple(str(a) for a in archive["action_labels"]),
                observation_labels=tuple(
                    str(o) for o in archive["observation_labels"]
                ),
                discount=float(archive["discount"]),
            )
            if kind == "pomdp":
                return cls(**common)
            has_terminate = "terminate_state" in archive
            return cls(
                null_states=archive["null_states"],
                rate_rewards=np.asarray(archive["rate_rewards"], dtype=float),
                recovery_notification=bool(archive["recovery_notification"]),
                terminate_state=(
                    int(archive["terminate_state"]) if has_terminate else None
                ),
                terminate_action=(
                    int(archive["terminate_action"]) if has_terminate else None
                ),
                operator_response_time=(
                    float(archive["operator_response_time"])
                    if has_terminate
                    else None
                ),
                **common,
            )
