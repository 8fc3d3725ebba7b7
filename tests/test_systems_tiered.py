"""Tests for the parametric tiered system family.

``reference_tiered_system`` is the declarative dense construction that the
family's one (sparse) construction replaced; the dense backend must equal
it field for field and bit for bit.
"""

import numpy as np
import pytest

from repro.bounds.ra_bound import ra_bound_vector
from repro.controllers.bounded import BoundedPolicyEngine
from repro.exceptions import ModelError
from repro.recovery.builder import RecoveryModelBuilder
from repro.sim.campaign import run_campaign
from repro.systems.tiered import (
    MONITOR_DURATION,
    OPERATOR_RESPONSE_TIME,
    PROBE_COST,
    RESTART_DURATION,
    TieredSystem,
    _component_names,
    _tiered_observation_matrix,
    _tiered_outcome_labels,
    build_tiered_system,
)


def reference_tiered_system(
    replicas: tuple[int, ...] = (2, 2, 2),
    tier_names: tuple[str, ...] | None = None,
    restart_duration: float = RESTART_DURATION,
    monitor_duration: float = MONITOR_DURATION,
    operator_response_time: float = OPERATOR_RESPONSE_TIME,
    probe_cost: float = PROBE_COST,
    include_crash_faults: bool = True,
) -> TieredSystem:
    """The declarative dense construction the sparse one replaced.

    Kept as a test oracle: it states the family state by state and action
    by action through :class:`RecoveryModelBuilder`, independently of the
    sparse containers' base-plus-override layout.
    """
    n_tiers = len(replicas)
    if tier_names is None:
        tier_names = tuple(f"tier{i}" for i in range(n_tiers))
    components = _component_names(tuple(tier_names), tuple(replicas))

    def fault_rate(tier_index: int) -> float:
        """Fraction of requests dropped by one faulty replica in the tier."""
        return 1.0 / replicas[tier_index]

    builder = RecoveryModelBuilder()
    builder.add_state("null", rate_cost=0.0, null=True)
    kinds = ("crash", "zombie") if include_crash_faults else ("zombie",)
    state_tier: dict[str, int] = {}
    for name, tier_index in components:
        for kind in kinds:
            label = f"{kind}({name})"
            builder.add_state(label, rate_cost=fault_rate(tier_index))
            state_tier[label] = tier_index

    all_states = ["null"] + list(state_tier)

    def action_cost(state: str, duration: float) -> float:
        rate = 0.0 if state == "null" else fault_rate(state_tier[state])
        return rate * duration + probe_cost

    for name, tier_index in components:
        repaired = {f"{kind}({name})" for kind in kinds}
        transitions = {label: {"null": 1.0} for label in repaired}
        costs = {}
        for state in all_states:
            if state in repaired:
                # The fault's rate applies while the restart runs, then the
                # system is healthy for the trailing monitor execution.
                costs[state] = (
                    fault_rate(tier_index) * restart_duration + probe_cost
                )
            else:
                costs[state] = action_cost(
                    state, restart_duration + monitor_duration
                )
        builder.add_action(
            f"restart({name})",
            duration=restart_duration + monitor_duration,
            transitions=transitions,
            costs=costs,
        )
    builder.add_action(
        "observe",
        duration=monitor_duration,
        costs={
            state: action_cost(state, monitor_duration) for state in all_states
        },
        passive=True,
    )

    # Observation model: T tier-ping bits + 1 end-to-end probe bit.
    def alarm_probabilities(state: str) -> np.ndarray:
        probabilities = np.zeros(n_tiers + 1)
        if state == "null":
            return probabilities
        tier_index = state_tier[state]
        if state.startswith("crash("):
            probabilities[tier_index] = 1.0  # tier ping sees the crash
            probabilities[n_tiers] = fault_rate(tier_index)
        else:  # zombie: invisible to pings, probabilistically probed
            probabilities[n_tiers] = fault_rate(tier_index)
        return probabilities

    n_bits = n_tiers + 1
    per_state = np.array([alarm_probabilities(state) for state in all_states])
    matrix = _tiered_observation_matrix(per_state, n_bits)
    builder.set_observation_matrix(
        _tiered_outcome_labels(tuple(tier_names), n_tiers), matrix
    )

    model = builder.build(
        recovery_notification=False,
        operator_response_time=operator_response_time,
    )
    return TieredSystem(
        model=model,
        tier_names=tuple(tier_names),
        replicas=tuple(replicas),
        components=tuple(name for name, _ in components),
        observe_action=model.pomdp.action_index("observe"),
    )


#: 1-4 tiers with and without crash faults, custom tier names, and
#: non-default durations, probe cost and operator response time (0
#: included), as floats and as ints.
REFERENCE_GRID = [
    {"replicas": replicas, "include_crash_faults": crash}
    for replicas in [
        (1,), (3,), (2, 2), (1, 3), (2, 1, 3), (2, 2, 2), (4, 1, 2, 3),
    ]
    for crash in (True, False)
] + [
    {"replicas": (2, 1, 3), "tier_names": ("web", "app", "db")},
    {"replicas": (3, 1), "tier_names": ("front", "back"),
     "include_crash_faults": False},
    {"replicas": (2, 3), "restart_duration": 7.5, "monitor_duration": 0.25},
    {"replicas": (2, 3), "restart_duration": 0.0, "monitor_duration": 0.0},
    {"replicas": (3, 2), "probe_cost": 0.0},
    {"replicas": (3, 2), "probe_cost": 1.3},
    {"replicas": (2, 2), "operator_response_time": 0.0},
    {"replicas": (2, 2), "operator_response_time": 120.0,
     "include_crash_faults": False},
    {"replicas": (5,), "restart_duration": 1e-3, "probe_cost": 1e3,
     "operator_response_time": 1e6},
    {"replicas": (2, 3), "restart_duration": 30, "monitor_duration": 2,
     "probe_cost": 0, "operator_response_time": 0},
    {"replicas": (1, 1, 1, 1), "restart_duration": 0.0,
     "monitor_duration": 0.0, "probe_cost": 0.0,
     "operator_response_time": 0.0},
]


def _bits_equal(actual, expected) -> bool:
    """Same dtype, same values, same sign bits (so -0.0 != 0.0)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (
        actual.dtype == expected.dtype
        and np.array_equal(actual, expected)
        and np.array_equal(np.signbit(actual), np.signbit(expected))
    )


def assert_matches_reference(system: TieredSystem, reference: TieredSystem):
    model, expected = system.model, reference.model
    for name in ("transitions", "observations", "rewards"):
        assert _bits_equal(
            getattr(model.pomdp, name), getattr(expected.pomdp, name)
        ), name
    for name in (
        "state_labels", "action_labels", "observation_labels", "discount",
    ):
        assert getattr(model.pomdp, name) == getattr(expected.pomdp, name), name
    for name in ("rate_rewards", "durations"):
        assert _bits_equal(getattr(model, name), getattr(expected, name)), name
    for name in ("null_states", "passive_actions", "fault_states"):
        mask, expected_mask = getattr(model, name), getattr(expected, name)
        assert mask.dtype == expected_mask.dtype, name
        assert np.array_equal(mask, expected_mask), name
    assert (model.terminate_state, model.terminate_action) == (
        expected.terminate_state,
        expected.terminate_action,
    )
    assert model.operator_response_time == expected.operator_response_time
    assert model.recovery_notification == expected.recovery_notification
    for name in ("tier_names", "replicas", "components", "observe_action"):
        assert getattr(system, name) == getattr(reference, name), name


@pytest.fixture(scope="module")
def small_tiered():
    return build_tiered_system(replicas=(2, 1, 3), tier_names=("web", "app", "db"))


class TestReferenceConstruction:
    @pytest.mark.parametrize(
        "params",
        REFERENCE_GRID,
        ids=[
            " ".join(f"{key}={value}" for key, value in params.items())
            for params in REFERENCE_GRID
        ],
    )
    def test_dense_backend_equals_reference(self, params):
        system = build_tiered_system(backend="dense", **params)
        assert not system.model.pomdp.backend.is_sparse
        assert_matches_reference(system, reference_tiered_system(**params))

    def test_auto_backend_on_small_model_is_the_dense_build(self):
        system = build_tiered_system((2, 2, 2), backend="auto")
        assert not system.model.pomdp.backend.is_sparse
        assert_matches_reference(system, reference_tiered_system((2, 2, 2)))


class TestStructure:
    def test_state_count(self, small_tiered):
        # null + 2 faults per component (6 components) + s_T
        assert small_tiered.model.pomdp.n_states == 14

    def test_action_count(self, small_tiered):
        # 6 restarts + observe + a_T
        assert small_tiered.model.pomdp.n_actions == 8

    def test_observation_count_independent_of_replicas(self):
        small = build_tiered_system(replicas=(1, 1, 1))
        large = build_tiered_system(replicas=(5, 5, 5))
        assert small.model.pomdp.n_observations == 2**4
        assert large.model.pomdp.n_observations == 2**4

    def test_component_names(self, small_tiered):
        assert small_tiered.components == ("web1", "web2", "app1", "db1",
                                           "db2", "db3")

    def test_zombie_and_crash_state_selectors(self, small_tiered):
        assert len(small_tiered.zombie_states()) == 6
        assert len(small_tiered.crash_states()) == 6

    def test_zombie_only_variant(self):
        system = build_tiered_system(replicas=(2, 2), include_crash_faults=False)
        assert len(system.crash_states()) == 0
        assert system.model.pomdp.n_states == 2 + 4  # null + 4 zombies + s_T

    def test_invalid_replicas_rejected(self):
        with pytest.raises(ModelError):
            build_tiered_system(replicas=())
        with pytest.raises(ModelError):
            build_tiered_system(replicas=(2, 0))

    def test_tier_name_count_checked(self):
        with pytest.raises(ModelError):
            build_tiered_system(replicas=(2, 2), tier_names=("only-one",))


class TestSemantics:
    def test_fault_rate_is_one_over_replicas(self, small_tiered):
        pomdp = small_tiered.model.pomdp
        rates = -small_tiered.model.rate_rewards
        assert np.isclose(rates[pomdp.state_index("crash(web1)")], 0.5)
        assert np.isclose(rates[pomdp.state_index("zombie(app1)")], 1.0)
        assert np.isclose(rates[pomdp.state_index("zombie(db2)")], 1.0 / 3.0)

    def test_restart_fixes_both_fault_kinds(self, small_tiered):
        pomdp = small_tiered.model.pomdp
        null = pomdp.state_index("null")
        restart = pomdp.action_index("restart(web2)")
        for label in ("crash(web2)", "zombie(web2)"):
            assert pomdp.transitions[restart, pomdp.state_index(label), null] == 1.0

    def test_crash_trips_tier_ping_zombie_does_not(self, small_tiered):
        pomdp = small_tiered.model.pomdp
        observe = small_tiered.observe_action
        crash = pomdp.state_index("crash(web1)")
        zombie = pomdp.state_index("zombie(web1)")
        # For the crash, every reachable observation has the web ping bit set.
        for obs in np.flatnonzero(pomdp.observations[observe, crash] > 0):
            assert "web!" in pomdp.observation_labels[obs]
        for obs in np.flatnonzero(pomdp.observations[observe, zombie] > 0):
            assert "web!" not in pomdp.observation_labels[obs]

    def test_no_recovery_notification(self, small_tiered):
        assert not small_tiered.model.recovery_notification

    def test_bounded_controller_recovers(self, small_tiered):
        engine = BoundedPolicyEngine(
            small_tiered.model, depth=1, refine_min_improvement=0.5
        )
        result = run_campaign(
            engine,
            fault_states=small_tiered.zombie_states(),
            injections=20,
            seed=3,
            monitor_tail=2.0,
        )
        assert result.summary.unrecovered == 0
        assert result.summary.early_terminations == 0


class TestParameterValidation:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize(
        ("params", "name"),
        [
            pytest.param({"replicas": (2, -1)}, "replicas", id="negative-replicas"),
            pytest.param({"replicas": (2.5,)}, "replicas", id="float-replicas"),
            pytest.param({"replicas": (True, 2)}, "replicas", id="bool-replicas"),
            pytest.param(
                {"replicas": (np.bool_(True), 2)}, "replicas", id="numpy-bool"
            ),
            pytest.param(
                {"restart_duration": -1.0}, "restart_duration", id="restart"
            ),
            pytest.param(
                {"monitor_duration": float("nan")}, "monitor_duration",
                id="monitor-nan",
            ),
            pytest.param(
                {"operator_response_time": float("inf")},
                "operator_response_time",
                id="t_op-inf",
            ),
            pytest.param({"probe_cost": -0.5}, "probe_cost", id="probe-cost"),
        ],
    )
    def test_invalid_parameters_rejected(self, params, name, backend):
        with pytest.raises(ModelError, match=name):
            build_tiered_system(**{"replicas": (2, 2), **params}, backend=backend)

    def test_numpy_integer_replicas_accepted(self):
        system = build_tiered_system((np.int64(2), np.int32(3)))
        assert system.replicas == (2, 3)
        assert all(type(count) is int for count in system.replicas)


class TestSparseRAChain:
    def test_matches_dense_model(self):
        """The sparse model's RA-Bound (sparse LU) must equal the dense
        model's (Gauss-Seidel)."""
        for replicas in [(2, 2, 2), (1, 3), (4,)]:
            dense = build_tiered_system(replicas, backend="dense").model.pomdp
            sparse = build_tiered_system(replicas, backend="sparse").model.pomdp
            assert np.allclose(
                ra_bound_vector(dense), ra_bound_vector(sparse), atol=1e-8
            ), replicas

    def test_scales_to_large_state_counts(self):
        pomdp = build_tiered_system((5_000, 5_000), backend="sparse").model.pomdp
        values = ra_bound_vector(pomdp)
        assert values.shape == (20_002,)
        assert np.all(np.isfinite(values))
        assert values[-1] == 0.0  # s_T
        assert np.all(values[:-1] < 0)
