"""The recovery model: a POMDP plus recovery semantics (Section 3).

A :class:`RecoveryModel` is what controllers and the fault-injection
environment consume.  Its POMDP is already *augmented*: for systems with
recovery notification the null states are absorbing and zero-reward
(Figure 2(a)); for systems without, a terminate state ``s_T`` and action
``a_T`` have been appended with termination rewards
``r(s, a_T) = rbar(s) * t_op`` (Figure 2(b)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.analysis.diagnostics import AnalysisReport
from repro.analysis.passes import (
    condition_1_diagnostics,
    condition_2_diagnostics,
)
from repro.analysis.view import ModelView
from repro.exceptions import ModelError
from repro.linalg.backends import (
    densify_observations,
    densify_rewards,
    densify_transitions,
    resolve_backend,
    sparsify_observations,
    sparsify_rewards,
    sparsify_transitions,
    transition_density,
)
from repro.linalg.containers import (
    SparseObservations,
    SparseTransitions,
    StructuredRewards,
)
from repro.pomdp.model import POMDP

#: Label given to the appended terminate state / action.
TERMINATE_LABEL = "terminate"


def _condition_view(pomdp: POMDP, null_states: np.ndarray | None) -> ModelView:
    """The view Conditions 1 and 2 read: transitions, rewards, ``S_phi``."""
    return ModelView(
        transitions=pomdp.transitions,
        rewards=pomdp.rewards,
        state_labels=pomdp.state_labels,
        action_labels=pomdp.action_labels,
        discount=pomdp.discount,
        null_states=null_states,
    )


def check_condition_1(
    pomdp: POMDP,
    null_states: np.ndarray,
    exempt_states: np.ndarray | None = None,
) -> None:
    """Condition 1: every state can reach some null-fault state.

    "Starting in any state s not in S_phi, there is at least one way to
    recover the system" — i.e. ``S_phi`` is reachable from every state in
    the graph whose edges are the union of all actions' transitions.

    This is the strict-mode adapter over the static analyzer's Condition 1
    pass (:func:`repro.analysis.condition_1_diagnostics`); use the analyzer
    directly for a full (non-fail-fast) report.

    Args:
        pomdp: the model to check.
        null_states: the ``S_phi`` mask.
        exempt_states: states excluded from the requirement; the appended
            terminate state ``s_T`` is absorbing *by design* and is the one
            legitimate exemption.

    Raises:
        ConditionViolation: naming the unrecoverable states.
    """
    mask = np.asarray(null_states, dtype=bool)
    if mask.shape != (pomdp.n_states,):
        raise ModelError(
            f"null_states must be a mask of length {pomdp.n_states}"
        )
    view = _condition_view(pomdp, mask)
    findings = condition_1_diagnostics(view, exempt_states=exempt_states)
    AnalysisReport(findings=tuple(findings)).raise_if_errors()


def check_condition_2(pomdp: POMDP) -> None:
    """Condition 2: all single-step rewards are non-positive.

    Strict-mode adapter over :func:`repro.analysis.condition_2_diagnostics`.
    """
    findings = condition_2_diagnostics(_condition_view(pomdp, None))
    AnalysisReport(findings=tuple(findings)).raise_if_errors()


def termination_rewards(
    rate_rewards: np.ndarray,
    operator_response_time: float,
    null_states: np.ndarray,
) -> np.ndarray:
    """Termination rewards ``r(s, a_T)`` (Section 3.1).

    ``r(s, a_T) = rbar(s) * t_op`` for fault states and 0 for null states:
    terminating early leaves the system paying the fault's cost rate until a
    human operator responds, ``t_op`` seconds later.  ``rate_rewards`` are
    non-positive cost rates per second.
    """
    if operator_response_time < 0:
        raise ModelError(
            f"operator response time must be >= 0, got {operator_response_time}"
        )
    rates = np.asarray(rate_rewards, dtype=float)
    rewards = rates * operator_response_time
    rewards = np.where(np.asarray(null_states, dtype=bool), 0.0, rewards)
    return rewards


def _replace_rows_with_self_loops(matrix, row_states, null_mask):
    """Rows of CSR ``matrix`` whose ``row_states`` entry is null become
    ``e_{row_states[r]}`` self-loop rows; everything else is untouched."""
    coo = matrix.tocoo()
    null_rows = np.flatnonzero(null_mask[row_states])
    keep = ~null_mask[row_states][coo.row] if coo.nnz else np.zeros(0, bool)
    rows = np.concatenate([coo.row[keep], null_rows])
    cols = np.concatenate([coo.col[keep], row_states[null_rows]])
    data = np.concatenate([coo.data[keep], np.ones(null_rows.size)])
    return sp.csr_matrix((data, (rows, cols)), shape=matrix.shape)


def _null_absorbing_sparse(
    transitions: SparseTransitions,
    rewards: StructuredRewards,
    null_states: np.ndarray,
):
    """Figure 2(a) on the sparse containers, without densifying."""
    mask = np.asarray(null_states, dtype=bool)
    n_states = transitions.n_states
    n_actions = transitions.n_actions
    new_base = _replace_rows_with_self_loops(
        transitions.base, np.arange(n_states), mask
    )
    new_rows = _replace_rows_with_self_loops(
        transitions.rows, transitions.row_state, mask
    )
    new_transitions = SparseTransitions(
        base=new_base,
        row_action=transitions.row_action,
        row_state=transitions.row_state,
        rows=new_rows,
        n_actions=n_actions,
    )
    null_index = np.flatnonzero(mask)
    # Replacement overrides pin r(a, s) to exactly 0.0 on S_phi for every
    # action; existing overrides at those positions are dropped first so the
    # explicit zeros are authoritative.
    coo = rewards.override.tocoo()
    keep = ~mask[coo.col] if coo.nnz else np.zeros(0, bool)
    zero_rows = np.repeat(np.arange(n_actions), null_index.size)
    zero_cols = np.tile(null_index, n_actions)
    new_override = sp.csr_matrix(
        (
            np.concatenate([coo.data[keep], np.zeros(zero_rows.size)]),
            (
                np.concatenate([coo.row[keep], zero_rows]),
                np.concatenate([coo.col[keep], zero_cols]),
            ),
        ),
        shape=rewards.override.shape,
    )
    new_rewards = StructuredRewards(
        time_scale=rewards.time_scale,
        rate=rewards.rate,
        fixed=rewards.fixed,
        override=new_override,
    )
    return new_transitions, new_rewards


def make_null_absorbing(pomdp: POMDP, null_states: np.ndarray) -> POMDP:
    """Figure 2(a): rewire every action in ``S_phi`` to a zero-reward self-loop.

    With recovery notification the controller stops on entering ``S_phi``,
    so nothing that happens "after" matters; making the null states
    absorbing and free encodes that and gives Eq. 5 a finite solution.
    The rewiring runs on the sparse containers and rewrites only the
    affected base/override rows; a dense POMDP is converted losslessly on
    the way in and its result densified, bit for bit.
    """
    dense = not pomdp.backend.is_sparse
    transitions, rewards = pomdp.transitions, pomdp.rewards
    if dense:
        transitions = sparsify_transitions(transitions)
        rewards = sparsify_rewards(rewards)
    transitions, rewards = _null_absorbing_sparse(
        transitions, rewards, null_states
    )
    if dense:
        transitions = densify_transitions(transitions)
        rewards = densify_rewards(rewards)
    return POMDP(
        transitions=transitions,
        observations=pomdp.observations,
        rewards=rewards,
        state_labels=pomdp.state_labels,
        action_labels=pomdp.action_labels,
        observation_labels=pomdp.observation_labels,
        discount=pomdp.discount,
    )


def _stack_rows(matrix, n_columns: int, data, indices, row_nnz) -> sp.csr_matrix:
    """CSR ``matrix`` widened to ``n_columns``, with rows appended below.

    The new rows hold ``data`` at column ``indices``, laid end to end with
    ``row_nnz[i]`` entries in row ``i``; one CSR construction, no COO pass.
    """
    return sp.csr_matrix(
        (
            np.concatenate([matrix.data, data]),
            np.concatenate([matrix.indices, indices]),
            np.concatenate([matrix.indptr, matrix.nnz + np.cumsum(row_nnz)]),
        ),
        shape=(matrix.shape[0] + len(row_nnz), n_columns),
    )


def _without_zeros(matrix) -> sp.csr_matrix:
    """A copy of CSR ``matrix`` without its stored zeros."""
    copy = matrix.copy()
    copy.eliminate_zeros()
    return copy


def _uniform_observation_matrix(n_states: int, n_observations: int) -> sp.csr_matrix:
    data = np.full(n_states * n_observations, 1.0 / n_observations)
    indices = np.tile(np.arange(n_observations), n_states)
    indptr = np.arange(n_states + 1) * n_observations
    return sp.csr_matrix(
        (data, indices, indptr), shape=(n_states, n_observations)
    )


def _append_uniform_row(matrix, n_observations: int) -> sp.csr_matrix:
    """``matrix`` with one extra state row observing uniformly."""
    return _stack_rows(
        _without_zeros(matrix),
        n_observations,
        np.full(n_observations, 1.0 / n_observations),
        np.arange(n_observations),
        [n_observations],
    )


def _termination_containers(
    transitions: SparseTransitions,
    observations: SparseObservations,
    rewards: StructuredRewards,
    null_states: np.ndarray,
    rate_rewards: np.ndarray,
    operator_response_time: float,
):
    """Figure 2(b) on the sparse containers, without densifying.

    ``s_T`` lands in the shared base (one absorbing row), and ``a_T``
    becomes a block of ``|S| + 1`` override rows all pointing at ``s_T`` —
    the same "one shared matrix plus exceptions" shape the rest of the
    model uses, so a 300k-state augmentation stays a few megabytes.
    """
    n_actions, n_states, _ = transitions.shape
    n_observations = observations.n_observations
    s_t, a_t = n_states, n_actions

    new_transitions = SparseTransitions(
        base=_stack_rows(
            _without_zeros(transitions.base), n_states + 1, [1.0], [s_t], [1]
        ),
        row_action=np.concatenate(
            [transitions.row_action, np.full(n_states + 1, a_t)]
        ),
        row_state=np.concatenate(
            [transitions.row_state, np.arange(n_states + 1)]
        ),
        rows=_stack_rows(
            transitions.rows,
            n_states + 1,
            np.ones(n_states + 1),
            np.full(n_states + 1, s_t),
            np.ones(n_states + 1, dtype=np.int64),
        ),
        n_actions=n_actions + 1,
    )

    new_observations = SparseObservations(
        base=_append_uniform_row(observations.base, n_observations),
        overrides={
            **{
                action: _append_uniform_row(matrix, n_observations)
                for action, matrix in observations.overrides.items()
            },
            a_t: _uniform_observation_matrix(n_states + 1, n_observations),
        },
        n_actions=n_actions + 1,
    )

    term_rewards = termination_rewards(
        rate_rewards, operator_response_time, null_states
    )
    new_time_scale = np.append(rewards.time_scale, operator_response_time)
    new_fixed = np.append(rewards.fixed, 0.0)
    new_rate = np.append(rewards.rate, 0.0)
    override = rewards.override
    # Original actions must be exactly free in s_T; the rank-one part
    # gives -fixed[a] there (a negative zero when the fee is zero), so
    # every original action gets an explicit 0.0 pin.  a_T must
    # reproduce termination_rewards() bit-for-bit; pin every state where
    # t_op * rate differs from it (null states, and any state whose
    # structured rate is not the recovery rate).
    base_row = np.ascontiguousarray(operator_response_time * rewards.rate)
    mismatch = np.flatnonzero(
        base_row.view(np.int64)
        != np.ascontiguousarray(term_rewards).view(np.int64)
    )
    entry_actions = np.repeat(np.arange(n_actions), np.diff(override.indptr))
    new_override = sp.csr_matrix(
        (
            np.concatenate(
                [override.data, np.zeros(n_actions), term_rewards[mismatch]]
            ),
            (
                np.concatenate(
                    [
                        entry_actions,
                        np.arange(n_actions),
                        np.full(mismatch.size, a_t),
                    ]
                ),
                np.concatenate(
                    [override.indices, np.full(n_actions, s_t), mismatch]
                ),
            ),
        ),
        shape=(n_actions + 1, n_states + 1),
    )
    new_rewards = StructuredRewards(
        time_scale=new_time_scale,
        rate=new_rate,
        fixed=new_fixed,
        override=new_override,
    )
    return new_transitions, new_observations, new_rewards


def with_termination_action(
    pomdp: POMDP,
    null_states: np.ndarray,
    rate_rewards: np.ndarray,
    operator_response_time: float,
) -> tuple[POMDP, int, int]:
    """Figure 2(b): append the terminate state ``s_T`` and action ``a_T``.

    * ``s_T`` is absorbing under every action with zero reward;
    * ``a_T`` moves every state to ``s_T`` with probability one and reward
      ``r(s, a_T)`` from :func:`termination_rewards`;
    * observations in ``s_T`` are uniform (they are never informative —
      the controller has already stopped).

    The augmentation runs on the sparse containers; a dense POMDP is
    converted losslessly on the way in and its result densified, bit for
    bit.

    Returns ``(augmented_pomdp, terminate_state_index, terminate_action_index)``.
    """
    terminate_state = pomdp.n_states
    terminate_action = pomdp.n_actions
    transitions, observations, rewards = (
        pomdp.transitions,
        pomdp.observations,
        pomdp.rewards,
    )
    dense = not pomdp.backend.is_sparse
    if dense:
        transitions = sparsify_transitions(transitions)
        observations = sparsify_observations(observations)
        rewards = sparsify_rewards(rewards)
    transitions, observations, rewards = _termination_containers(
        transitions,
        observations,
        rewards,
        null_states,
        rate_rewards,
        operator_response_time,
    )
    if dense:
        transitions = densify_transitions(transitions)
        observations = densify_observations(observations)
        rewards = densify_rewards(rewards)

    augmented = POMDP(
        transitions=transitions,
        observations=observations,
        rewards=rewards,
        state_labels=pomdp.state_labels + (TERMINATE_LABEL,),
        action_labels=pomdp.action_labels + (TERMINATE_LABEL,),
        observation_labels=pomdp.observation_labels,
        discount=pomdp.discount,
    )
    return augmented, terminate_state, terminate_action


@dataclass(frozen=True)
class RecoveryModel:
    """A controller-ready recovery model.

    Attributes:
        pomdp: the augmented POMDP (see module docstring).
        null_states: mask over the augmented state space; True on ``S_phi``.
        rate_rewards: per-state cost rates ``rbar(s) <= 0`` (per second) on
            the augmented space (0 on ``s_T``).
        durations: per-action execution time ``t_a`` in seconds on the
            augmented action space (0 for ``a_T``).
        passive_actions: mask of purely observational actions (they never
            change the system state); used by the metrics layer to separate
            "monitor calls" from "recovery actions" in Table 1.
        recovery_notification: True when monitors reveal entry into
            ``S_phi`` (Figure 2(a) augmentation); False when the terminate
            pair was added (Figure 2(b)).
        terminate_state / terminate_action: indices of ``s_T`` / ``a_T``
            (None with recovery notification).
        operator_response_time: ``t_op`` used for the termination rewards
            (None with recovery notification).
    """

    pomdp: POMDP
    null_states: np.ndarray
    rate_rewards: np.ndarray
    durations: np.ndarray
    passive_actions: np.ndarray
    recovery_notification: bool
    terminate_state: int | None = None
    terminate_action: int | None = None
    operator_response_time: float | None = None
    fault_states: np.ndarray = field(init=False)

    def __post_init__(self):
        pomdp = self.pomdp
        null_states = np.asarray(self.null_states, dtype=bool)
        rate_rewards = np.asarray(self.rate_rewards, dtype=float)
        durations = np.asarray(self.durations, dtype=float)
        passive = np.asarray(self.passive_actions, dtype=bool)
        if null_states.shape != (pomdp.n_states,):
            raise ModelError("null_states mask has the wrong length")
        if rate_rewards.shape != (pomdp.n_states,):
            raise ModelError("rate_rewards has the wrong length")
        if np.any(rate_rewards > 1e-9):
            raise ModelError("rate_rewards must be non-positive cost rates")
        if durations.shape != (pomdp.n_actions,):
            raise ModelError("durations has the wrong length")
        if np.any(durations < 0):
            raise ModelError("durations must be non-negative")
        if passive.shape != (pomdp.n_actions,):
            raise ModelError("passive_actions mask has the wrong length")
        if self.recovery_notification:
            if self.terminate_action is not None or self.terminate_state is not None:
                raise ModelError(
                    "models with recovery notification have no terminate pair"
                )
        else:
            if self.terminate_action is None or self.terminate_state is None:
                raise ModelError(
                    "models without recovery notification need s_T and a_T"
                )
        exempt = None
        if self.terminate_state is not None:
            exempt = np.zeros(pomdp.n_states, dtype=bool)
            exempt[self.terminate_state] = True
        # One view serves both conditions; Condition 1's findings come
        # first, so its violation is the one raised when both fail.
        view = _condition_view(pomdp, null_states)
        AnalysisReport(
            findings=tuple(
                condition_1_diagnostics(view, exempt_states=exempt)
                + condition_2_diagnostics(view)
            )
        ).raise_if_errors()

        fault_states = ~null_states
        if self.terminate_state is not None:
            fault_states = fault_states.copy()
            fault_states[self.terminate_state] = False
        object.__setattr__(self, "null_states", null_states)
        object.__setattr__(self, "rate_rewards", rate_rewards)
        object.__setattr__(self, "durations", durations)
        object.__setattr__(self, "passive_actions", passive)
        object.__setattr__(self, "fault_states", fault_states)

    @property
    def recovery_actions(self) -> np.ndarray:
        """Mask of actions that actually repair state (not passive, not a_T)."""
        mask = ~self.passive_actions
        if self.terminate_action is not None:
            mask = mask.copy()
            mask[self.terminate_action] = False
        return mask

    def initial_belief(self) -> np.ndarray:
        """The paper's starting belief: all faults equally likely (Section 4)."""
        belief = np.zeros(self.pomdp.n_states)
        faults = self.fault_states
        belief[faults] = 1.0 / faults.sum()
        return belief

    def analyze(self) -> "AnalysisReport":
        """Full static-analysis report for this model.

        Unlike construction-time validation (which fails fast), this runs
        every analyzer pass and returns all findings; a constructed model
        has no ``R0xx`` errors by definition, so the interest is in the
        ``R1xx`` warnings and ``R2xx`` statistics.
        """
        from repro.analysis.passes import analyze

        return analyze(self)

    def is_recovered(self, state: int) -> bool:
        """True when ``state`` is a null-fault state."""
        return bool(self.null_states[state])

    def recovered_probability(self, belief: np.ndarray) -> float:
        """``P[s in S_phi]`` under ``belief`` (plus ``s_T``, if present).

        This is the quantity baseline controllers threshold on to decide
        termination (Section 5's termination probability).
        """
        probability = float(belief[self.null_states].sum())
        if self.terminate_state is not None:
            probability += float(belief[self.terminate_state])
        return probability


def convert_backend(model: RecoveryModel, backend: str = "sparse") -> RecoveryModel:
    """The same recovery model on a different storage backend.

    Conversion is lossless in both directions (``sparsify_rewards`` stores
    every non-zero entry and every negative zero as a bit-exact replacement
    override), so a converted model produces identical campaign
    fingerprints.  ``backend`` accepts
    ``"dense"``, ``"sparse"``, or ``"auto"`` (the PR 2 density heuristic).
    """
    pomdp = model.pomdp
    resolved = resolve_backend(
        backend,
        pomdp.n_states,
        density=transition_density(pomdp.transitions),
    )
    if resolved == pomdp.backend:
        return model
    if resolved.is_sparse:
        converted = POMDP(
            transitions=sparsify_transitions(pomdp.transitions),
            observations=sparsify_observations(pomdp.observations),
            rewards=sparsify_rewards(pomdp.rewards),
            state_labels=pomdp.state_labels,
            action_labels=pomdp.action_labels,
            observation_labels=pomdp.observation_labels,
            discount=pomdp.discount,
        )
    else:
        converted = POMDP(
            transitions=densify_transitions(pomdp.transitions),
            observations=densify_observations(pomdp.observations),
            rewards=densify_rewards(pomdp.rewards),
            state_labels=pomdp.state_labels,
            action_labels=pomdp.action_labels,
            observation_labels=pomdp.observation_labels,
            discount=pomdp.discount,
        )
    return RecoveryModel(
        pomdp=converted,
        null_states=model.null_states,
        rate_rewards=model.rate_rewards,
        durations=model.durations,
        passive_actions=model.passive_actions,
        recovery_notification=model.recovery_notification,
        terminate_state=model.terminate_state,
        terminate_action=model.terminate_action,
        operator_response_time=model.operator_response_time,
    )
