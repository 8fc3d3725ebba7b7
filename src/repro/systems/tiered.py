"""Parametric N-tier replicated deployments.

A second target system beyond the paper's EMN instance: a request pipeline
of ``T`` tiers with ``R_t`` replicas each (web → app → db, say), where every
request is load-balanced onto one replica per tier and fails if any chosen
replica is faulty.  Monitoring is tier-granular: one ping monitor per tier
(alarms when any replica in the tier is ping-dead — crashes only) and one
end-to-end probe (alarms when its randomly-routed request fails — catches
zombies, localises poorly).  The observation space is therefore
``2^(T+1)`` regardless of the replica counts, so the model family scales
in the *state* dimension while staying controller-tractable.

:func:`build_tiered_system` is the family's one construction.  It fills the
sparse containers directly, without materialising any ``|A| x |S| x |S|``
tensor, so it reaches hundreds of thousands of states; the dense backend
is the lossless conversion of that same model
(:func:`repro.recovery.model.convert_backend`).  The scalability experiment
(:mod:`repro.experiments.scalability`) solves the RA-Bound of these models
for Section 4.3's claim that the linear system "can be solved using
standard, numerically stable linear system solvers for models with up to
hundreds of thousands of states".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ModelError
from repro.linalg.backends import resolve_backend
from repro.linalg.containers import (
    SparseObservations,
    SparseTransitions,
    StructuredRewards,
)
from repro.pomdp.model import POMDP
from repro.recovery.model import (
    RecoveryModel,
    convert_backend,
    with_termination_action,
)

#: Default per-replica restart time and monitor-suite execution time (s).
RESTART_DURATION = 30.0
MONITOR_DURATION = 2.0
#: Default operator response time (s).
OPERATOR_RESPONSE_TIME = 3600.0
#: Requests consumed per monitor execution (keeps actions strictly costly).
PROBE_COST = 0.5


@dataclass(frozen=True)
class TieredSystem:
    """A generated tiered recovery model plus its layout metadata."""

    model: RecoveryModel
    tier_names: tuple[str, ...]
    replicas: tuple[int, ...]
    components: tuple[str, ...]
    observe_action: int

    def zombie_states(self) -> np.ndarray:
        """Indices of the zombie fault states."""
        pomdp = self.model.pomdp
        return np.array(
            [
                index
                for index, label in enumerate(pomdp.state_labels)
                if label.startswith("zombie(")
            ],
            dtype=int,
        )

    def crash_states(self) -> np.ndarray:
        """Indices of the crash fault states."""
        pomdp = self.model.pomdp
        return np.array(
            [
                index
                for index, label in enumerate(pomdp.state_labels)
                if label.startswith("crash(")
            ],
            dtype=int,
        )


def _component_names(
    tier_names: tuple[str, ...], replicas: tuple[int, ...]
) -> list[tuple[str, int]]:
    """Flat (component, tier_index) list, e.g. [("web1", 0), ("web2", 0), ...]."""
    names = []
    for tier_index, (tier, count) in enumerate(zip(tier_names, replicas)):
        for replica in range(1, count + 1):
            names.append((f"{tier}{replica}", tier_index))
    return names


def _tiered_observation_matrix(
    all_state_bits: np.ndarray, n_bits: int
) -> np.ndarray:
    """Joint-monitor observation matrix from per-state alarm probabilities.

    ``all_state_bits[s, b]`` is the marginal probability that monitor bit
    ``b`` alarms in state ``s``; bits are independent, so each of the
    ``2**n_bits`` joint outcomes is a product.  Every action observes
    through this one matrix.
    """
    matrix = np.ones((all_state_bits.shape[0], 2**n_bits))
    for column, outcome in enumerate(itertools.product((0, 1), repeat=n_bits)):
        for bit, value in enumerate(outcome):
            matrix[:, column] *= (
                all_state_bits[:, bit] if value else 1.0 - all_state_bits[:, bit]
            )
    return matrix


def build_tiered_system(
    replicas: tuple[int, ...] = (2, 2, 2),
    tier_names: tuple[str, ...] | None = None,
    restart_duration: float = RESTART_DURATION,
    monitor_duration: float = MONITOR_DURATION,
    operator_response_time: float = OPERATOR_RESPONSE_TIME,
    probe_cost: float = PROBE_COST,
    include_crash_faults: bool = True,
    backend: str = "dense",
) -> TieredSystem:
    """Generate the recovery model for a tiered deployment.

    Args:
        replicas: replica count per tier (the tier count is its length).
        tier_names: display names; defaults to ``tier0``, ``tier1``, ...
        restart_duration: seconds to restart any one replica.
        monitor_duration: seconds per monitor-suite execution (appended to
            every action, as in the EMN model).
        operator_response_time: ``t_op`` for the termination rewards (the
            system lacks recovery notification: zombies can hide from a
            routed-around probe).
        probe_cost: requests consumed per monitor execution.
        include_crash_faults: drop the crash states for a zombie-only model.
        backend: ``"sparse"`` (the direct container construction — the
            only feasible one past a few thousand states), ``"dense"`` (the
            same model converted losslessly to dense tensors), or
            ``"auto"``.

    Raises:
        ModelError: a replica count is not an integer >= 1, a duration or
            cost is negative or not finite, or ``tier_names`` does not
            name every tier.
    """
    replicas = tuple(replicas)
    if not replicas or any(
        isinstance(count, bool)
        or not isinstance(count, (int, np.integer))
        or count < 1
        for count in replicas
    ):
        raise ModelError(
            f"replicas must be integers >= 1 per tier, got {replicas!r}"
        )
    replicas = tuple(int(count) for count in replicas)
    for name, value in (
        ("restart_duration", restart_duration),
        ("monitor_duration", monitor_duration),
        ("operator_response_time", operator_response_time),
        ("probe_cost", probe_cost),
    ):
        if not np.isfinite(value) or value < 0:
            raise ModelError(f"{name} must be finite and >= 0, got {value!r}")
    n_tiers = len(replicas)
    if tier_names is None:
        tier_names = tuple(f"tier{i}" for i in range(n_tiers))
    if len(tier_names) != n_tiers:
        raise ModelError(
            f"{len(tier_names)} tier names for {n_tiers} tiers"
        )
    components = _component_names(tuple(tier_names), replicas)

    n_kinds = 2 if include_crash_faults else 1
    n_states = 1 + n_kinds * len(components)
    resolved = resolve_backend(
        backend, n_states, density=min(1.0, 3.0 / max(n_states, 1))
    )
    system = _build_tiered_sparse(
        replicas=replicas,
        tier_names=tuple(tier_names),
        components=components,
        restart_duration=restart_duration,
        monitor_duration=monitor_duration,
        operator_response_time=operator_response_time,
        probe_cost=probe_cost,
        include_crash_faults=include_crash_faults,
    )
    if resolved.is_sparse:
        return system
    return replace(system, model=convert_backend(system.model, "dense"))


def _tiered_outcome_labels(
    tier_names: tuple[str, ...], n_tiers: int
) -> tuple[str, ...]:
    labels = []
    for outcome in itertools.product((0, 1), repeat=n_tiers + 1):
        parts = [
            f"{tier_names[i] if i < n_tiers else 'probe'}"
            f"{'!' if bit else '-'}"
            for i, bit in enumerate(outcome)
        ]
        labels.append(",".join(parts))
    return tuple(labels)


def _build_tiered_sparse(
    replicas: tuple[int, ...],
    tier_names: tuple[str, ...],
    components: list[tuple[str, int]],
    restart_duration: float,
    monitor_duration: float,
    operator_response_time: float,
    probe_cost: float,
    include_crash_faults: bool,
) -> TieredSystem:
    """Direct sparse-container construction of the tiered model.

    Built as base + overrides without ever materialising the
    ``|A| x |S| x |S|`` tensors: every action is the identity except that
    ``restart(c)``
    replaces the two (or one) fault rows of component ``c``, every action
    shares one observation matrix, and rewards are
    ``duration * rbar(s) - probe`` with per-repair replacement overrides.
    """
    kinds = ("crash", "zombie") if include_crash_faults else ("zombie",)
    n_kinds = len(kinds)
    n_tiers = len(replicas)
    n_components = len(components)
    n_states = 1 + n_kinds * n_components
    n_actions = n_components + 1  # restarts + observe

    state_labels = ["null"]
    for name, _tier in components:
        state_labels += [f"{kind}({name})" for kind in kinds]
    action_labels = [f"restart({name})" for name, _ in components] + ["observe"]

    # Per-state request-drop rate (cost magnitude per second).
    rate_cost = np.zeros(n_states)
    component_tier = np.array([tier for _, tier in components])
    fault_rates = 1.0 / np.asarray(replicas, dtype=float)
    rate_cost[1:] = np.repeat(fault_rates[component_tier], n_kinds)

    # Transitions: identity base; restart(c) sends c's fault states to null.
    fault_states = np.arange(1, n_states)
    transitions = SparseTransitions(
        base=sp.identity(n_states, format="csr"),
        row_action=np.repeat(np.arange(n_components), n_kinds),
        row_state=fault_states,
        rows=sp.csr_matrix(
            (
                np.ones(fault_states.size),
                (np.arange(fault_states.size), np.zeros(fault_states.size, int)),
            ),
            shape=(fault_states.size, n_states),
        ),
        n_actions=n_actions,
    )

    # Observations: T tier-ping bits + 1 probe bit, same for every action.
    per_state = np.zeros((n_states, n_tiers + 1))
    for c, (_name, tier) in enumerate(components):
        for k, kind in enumerate(kinds):
            state = 1 + c * n_kinds + k
            if kind == "crash":
                per_state[state, tier] = 1.0
            per_state[state, n_tiers] = fault_rates[tier]
    matrix = _tiered_observation_matrix(per_state, n_tiers + 1)
    observations = SparseObservations(
        base=sp.csr_matrix(matrix), overrides={}, n_actions=n_actions
    )

    # Rewards: r(a, s) = duration_a * rbar(s) - probe, except that the
    # repairing restart pays the fault rate only while the restart runs.
    durations = np.append(
        np.full(n_components, restart_duration + monitor_duration),
        monitor_duration,
    )
    repaired_values = -(rate_cost[fault_states] * restart_duration + probe_cost)
    rewards = StructuredRewards(
        time_scale=durations,
        rate=-rate_cost,
        fixed=np.full(n_actions, probe_cost),
        override=sp.csr_matrix(
            (
                repaired_values,
                (np.repeat(np.arange(n_components), n_kinds), fault_states),
            ),
            shape=(n_actions, n_states),
        ),
    )

    pomdp = POMDP(
        transitions=transitions,
        observations=observations,
        rewards=rewards,
        state_labels=tuple(state_labels),
        action_labels=tuple(action_labels),
        observation_labels=_tiered_outcome_labels(tier_names, n_tiers),
        discount=1.0,
    )

    null_states = np.zeros(n_states, dtype=bool)
    null_states[0] = True
    rate_rewards = -rate_cost
    augmented, terminate_state, terminate_action = with_termination_action(
        pomdp, null_states, rate_rewards, operator_response_time
    )
    passive = np.zeros(n_actions, dtype=bool)
    passive[-1] = True
    model = RecoveryModel(
        pomdp=augmented,
        null_states=np.append(null_states, False),
        rate_rewards=np.append(rate_rewards, 0.0),
        durations=np.append(durations, 0.0),
        passive_actions=np.append(passive, False),
        recovery_notification=False,
        terminate_state=terminate_state,
        terminate_action=terminate_action,
        operator_response_time=operator_response_time,
    )
    return TieredSystem(
        model=model,
        tier_names=tuple(tier_names),
        replicas=tuple(replicas),
        components=tuple(name for name, _ in components),
        observe_action=model.pomdp.action_index("observe"),
    )

