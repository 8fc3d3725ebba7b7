"""RA-Bound scalability (Section 4.3's state-space claim).

"This linear system is defined on the original state-space of the POMDP
(S) and, with the appropriate sparse structure, can be solved using
standard, numerically stable linear system solvers for models with up to
hundreds of thousands of states."  This experiment measures exactly that:
the time of the RA-Bound call the controllers make,
:func:`repro.bounds.ra_bound.ra_bound_vector`, on the tiered model family
(:mod:`repro.systems.tiered`) as the state count grows from tens to
hundreds of thousands.  Each point builds the real recovery model on the
sparse backend; its uniform-action chain is CSR (~3 non-zeros per row) and
the solve goes through the shared sparse backend
(:func:`repro.mdp.linear_solvers.solve_sparse`), so the largest default
point (50,000 replicas per tier, 300,002 states) never materialises a
dense matrix anywhere.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass

import numpy as np

from repro.bounds.ra_bound import ra_bound_vector
from repro.systems.tiered import build_tiered_system
from repro.util.tables import render_table

#: Default replica counts per tier for the sweep (3 tiers each).  The
#: largest point gives 2 + 2 * 3 * 50,000 = 300,002 states — past the
#: "hundreds of thousands" threshold of Section 4.3.
DEFAULT_SIZES = (2, 10, 100, 1_000, 10_000, 50_000)


@dataclass(frozen=True)
class ScalabilityPoint:
    """One measurement of the sweep."""

    replicas_per_tier: int
    n_states: int
    nnz: int
    backend: str
    solve_seconds: float
    sample_value: float


def run_scalability(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    n_tiers: int = 3,
    method: str = "sparse",
) -> list[ScalabilityPoint]:
    """Time the RA-Bound solve across model sizes.

    Each point is an ``n_tiers``-tier system with ``r`` replicas per tier,
    i.e. ``2 + 2 * n_tiers * r`` states, built on the sparse backend.  The
    timed call is ``ra_bound_vector(pomdp, method=method)``, the one the
    controllers make.  Small instances are cross-checked against the
    dense backend elsewhere (:func:`verify_against_dense` and the test
    suite); here we record wall-clock time, the uniform-action chain's
    non-zero count, and a sample value for sanity.
    """
    points = []
    for r in sizes:
        pomdp = build_tiered_system((r,) * n_tiers, backend="sparse").model.pomdp
        nnz = int(pomdp.to_mdp().uniform_chain()[0].nnz)
        started = time.perf_counter()  # codelint: ignore[R903]
        values = ra_bound_vector(pomdp, method=method)
        elapsed = time.perf_counter() - started  # codelint: ignore[R903]
        points.append(
            ScalabilityPoint(
                replicas_per_tier=r,
                n_states=values.shape[0],
                nnz=nnz,
                backend=method,
                solve_seconds=elapsed,
                sample_value=float(values[1]),
            )
        )
    return points


def verify_against_dense(
    replicas: tuple[int, ...], methods: tuple[str, ...] = ("sparse",)
) -> float:
    """Max RA-Bound discrepancy between the sparse and the dense backend.

    Builds the instance on both backends and makes the same
    ``ra_bound_vector(pomdp, method=m)`` call on each, for every requested
    ``method``.  Returns the worst absolute discrepancy across methods.
    """
    dense = build_tiered_system(replicas, backend="dense").model.pomdp
    sparse = build_tiered_system(replicas, backend="sparse").model.pomdp

    def discrepancy(method: str) -> float:
        gap = ra_bound_vector(dense, method=method) - ra_bound_vector(
            sparse, method=method
        )
        return float(np.max(np.abs(gap)))

    return max(discrepancy(m) for m in methods)


def format_scalability(points: list[ScalabilityPoint]) -> str:
    """Render the sweep as a table."""
    rows = [
        [
            point.replicas_per_tier,
            point.n_states,
            point.nnz,
            point.backend,
            point.solve_seconds * 1000.0,
            point.sample_value,
        ]
        for point in points
    ]
    return render_table(
        [
            "Replicas/tier",
            "States",
            "nnz",
            "Backend",
            "RA solve (ms)",
            "V-(first fault)",
        ],
        rows,
        title=(
            "RA-Bound scalability on the tiered model family (Section 4.3: "
            "sparse\nlinear solves scale to hundreds of thousands of states)"
        ),
    )


#: Replicas per tier for the --online demonstration: 300,002 states, the
#: "hundreds of thousands" regime of Section 4.3, now driven end-to-end by
#: the bounded controller instead of just the off-line RA solve.
ONLINE_REPLICAS = (50_000, 50_000, 50_000)


@dataclass(frozen=True)
class OnlineScalabilityResult:
    """The bounded controller running on one very large sparse model."""

    n_states: int
    n_actions: int
    n_observations: int
    build_seconds: float
    controller_init_seconds: float
    uniform_decision_seconds: float
    uniform_action_label: str
    uniform_terminated: bool
    episode_steps: int
    episode_cost: float
    episode_recovered: bool
    episode_terminated: bool
    episode_decision_seconds: list[float]
    peak_rss_mb: float


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_online(
    replicas: tuple[int, ...] = ONLINE_REPLICAS,
    seed: int = 2006,
    depth: int = 1,
) -> OnlineScalabilityResult:
    """Run the bounded controller online on a large sparse tiered model.

    Builds the tiered system on the sparse backend (the dense tensors of the
    default point would need ~100 TB), computes the RA-Bound seed, then

    * times one depth-``depth`` decision from the uniform fault belief —
      with 150,000 equally-likely faults no single repair is worth its
      cost, so the controller escalates to the operator (``a_T``); and
    * injects a single concrete fault and runs a short recovery episode
      from a belief narrowed to a handful of suspect components (e.g. a
      tier alarm cross-referenced with request logs).  With per-replica
      fault rates of ``1/replicas`` the operator-response cost of one
      faulty replica is below the cost of a single restart, so the
      economically correct outcome at this scale is a terminate decision;
      the point of the run is that the controller reaches it online, on a
      model whose dense tensors could never be materialised.

    Online refinement is disabled: one incremental update touches every
    action, which is exactly the per-decision cost the fused depth-1
    expansion avoids; the RA-Bound seed alone is a valid lower bound.
    """
    from repro.controllers.bounded import BoundedPolicyEngine
    from repro.pomdp.belief import uniform_belief
    from repro.sim.environment import RecoveryEnvironment

    started = time.perf_counter()  # codelint: ignore[R903]
    system = build_tiered_system(replicas=replicas, backend="sparse")
    model = system.model
    build_seconds = time.perf_counter() - started  # codelint: ignore[R903]

    started = time.perf_counter()  # codelint: ignore[R903]
    session = BoundedPolicyEngine(
        model, depth=depth, refine_online=False, preflight=True
    ).session()
    controller_init_seconds = time.perf_counter() - started  # codelint: ignore[R903]

    belief = uniform_belief(model.pomdp, support=model.fault_states)
    session.reset(initial_belief=belief)
    started = time.perf_counter()  # codelint: ignore[R903]
    decision = session.decide()
    uniform_decision_seconds = time.perf_counter() - started  # codelint: ignore[R903]
    uniform_action_label = model.pomdp.action_labels[decision.action]

    environment = RecoveryEnvironment(model, seed=seed)
    fault_indices = np.flatnonzero(model.fault_states)
    fault = int(fault_indices[0])
    environment.inject(fault)
    # Narrowed diagnosis: the true fault plus a few siblings are suspects.
    suspects = np.zeros(model.pomdp.n_states, dtype=bool)
    suspects[fault_indices[: min(6, fault_indices.size)]] = True
    session.reset(initial_belief=uniform_belief(model.pomdp, support=suspects))
    passive = int(np.flatnonzero(model.passive_actions)[0])
    session.observe(passive, environment.initial_observation())
    decision_seconds: list[float] = []
    terminated = False
    for _ in range(8):
        started = time.perf_counter()  # codelint: ignore[R903]
        step = session.decide()
        decision_seconds.append(time.perf_counter() - started)  # codelint: ignore[R903]
        result = environment.execute(step.action)
        if step.is_terminate:
            terminated = True
            break
        session.observe(step.action, result.observation)

    return OnlineScalabilityResult(
        n_states=model.pomdp.n_states,
        n_actions=model.pomdp.n_actions,
        n_observations=model.pomdp.n_observations,
        build_seconds=build_seconds,
        controller_init_seconds=controller_init_seconds,
        uniform_decision_seconds=uniform_decision_seconds,
        uniform_action_label=uniform_action_label,
        uniform_terminated=decision.is_terminate,
        episode_steps=len(decision_seconds),
        episode_cost=environment.cost,
        episode_recovered=environment.recovered,
        episode_terminated=terminated,
        episode_decision_seconds=decision_seconds,
        peak_rss_mb=_peak_rss_mb(),
    )


def format_online(result: OnlineScalabilityResult) -> str:
    """Render the online run as a short report."""
    per_decision = ", ".join(
        f"{seconds * 1000:.0f}" for seconds in result.episode_decision_seconds
    )
    lines = [
        "Bounded controller online on the sparse tiered model",
        f"  model: |S|={result.n_states:,} |A|={result.n_actions:,} "
        f"|O|={result.n_observations}",
        f"  build: {result.build_seconds:.1f} s   "
        f"RA-Bound + controller init: {result.controller_init_seconds:.1f} s",
        f"  uniform-belief decision: {result.uniform_decision_seconds:.1f} s "
        f"-> {result.uniform_action_label!r}"
        + (" (escalates to the operator)" if result.uniform_terminated else ""),
        f"  recovery episode: {result.episode_steps} decisions, "
        f"cost {result.episode_cost:.3f}, "
        f"recovered={result.episode_recovered}"
        + (
            " (rational escalation: one faulty replica's operator-response "
            "cost is below a single restart)"
            if result.episode_terminated and not result.episode_recovered
            else ""
        ),
        f"  per-decision latency (ms): {per_decision}",
        f"  peak RSS: {result.peak_rss_mb:.0f} MB",
    ]
    return "\n".join(lines)


__all__ = [
    "DEFAULT_SIZES",
    "ONLINE_REPLICAS",
    "OnlineScalabilityResult",
    "ScalabilityPoint",
    "format_online",
    "format_scalability",
    "run_online",
    "run_scalability",
    "verify_against_dense",
]
