"""Benchmarks for bound computation (experiments E5 and E6 in DESIGN.md).

E5 — Section 3.1's comparison: the RA-Bound converges on undiscounted
recovery models where BI-POMDP always diverges and the blind-policy bound
diverges exactly when recovery notification is present.  The divergent
cases benchmark the *detection* path (how quickly the library reports the
divergence the paper predicts).

E6 — Section 4.3's cost model: the RA-Bound is one linear solve on |S|
states; each incremental update is O(|S||A||O||B|).  The sawtooth upper
bound behind branch and bound is timed beside it, as its point set grows.
"""

import numpy as np
import pytest

from repro.bounds.bi_pomdp import bi_pomdp_vector
from repro.bounds.blind_policy import blind_policy_vectors
from repro.bounds.incremental import refine_at, sample_reachable_beliefs
from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.sawtooth import (
    SUPPORT_EPSILON,
    SawtoothUpperBound,
    reachable_successors,
)
from repro.bounds.vector_set import BoundVectorSet
from repro.exceptions import DivergenceError
from repro.systems.simple import build_simple_system


@pytest.mark.parametrize("method", ["gauss-seidel", "jacobi", "direct"])
def test_ra_bound_solve(benchmark, emn_system, method):
    """E6: off-line RA-Bound computation on the EMN model (Eq. 5)."""
    vector = benchmark(ra_bound_vector, emn_system.model.pomdp, method=method)
    assert np.all(vector <= 1e-9)
    assert np.all(np.isfinite(vector))


def test_bi_pomdp_divergence_detection(benchmark, emn_system):
    """E5: the worst-action bound diverges on the undiscounted EMN model."""

    def run():
        with pytest.raises(DivergenceError):
            bi_pomdp_vector(emn_system.model.pomdp)

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_blind_policy_with_notification_diverges(benchmark):
    """E5: every blind policy diverges when null states are absorbing."""
    system = build_simple_system(recovery_notification=True, miss_rate=0.0)

    def run():
        return blind_policy_vectors(system.model.pomdp, skip_divergent=True)

    vectors = benchmark.pedantic(run, rounds=1, iterations=1)
    assert vectors == {}


def test_blind_policy_without_notification_finite(benchmark, emn_system):
    """E5: a_T makes the blind-policy bound trivially finite."""
    vectors = benchmark(
        blind_policy_vectors, emn_system.model.pomdp, skip_divergent=True
    )
    assert emn_system.model.terminate_action in vectors


@pytest.mark.parametrize("set_size", [1, 16, 64])
def test_incremental_update_cost(benchmark, emn_system, set_size):
    """E6: per-update refinement cost as |B| grows (Section 4.3)."""
    pomdp = emn_system.model.pomdp
    bound_set = BoundVectorSet(ra_bound_vector(pomdp))
    beliefs = sample_reachable_beliefs(
        pomdp, emn_system.model.initial_belief(), depth=2,
        max_beliefs=max(set_size * 3, 32),
    )
    index = 0
    while len(bound_set) < set_size and index < beliefs.shape[0]:
        refine_at(pomdp, bound_set, beliefs[index])
        index += 1
    probe = emn_system.model.initial_belief()

    benchmark(refine_at, pomdp, bound_set, probe)
    benchmark.extra_info["set_size"] = len(bound_set)


@pytest.mark.parametrize("n_points", [10, 1_000])
def test_sawtooth_value_batch_cost(benchmark, emn_system, n_points):
    """The sawtooth interpolation over every posterior of the EMN initial
    belief (the stack one branch-and-bound node evaluates) as the stored
    point set grows.  Each point lies on the support of one of those
    posteriors and holds one backup of the corner-only bound."""
    pomdp = emn_system.model.pomdp
    root = emn_system.model.initial_belief()
    posteriors = np.vstack(
        [
            reachable_successors(pomdp, root, action)[1]
            for action in range(pomdp.n_actions)
        ]
    )
    corners = SawtoothUpperBound(pomdp)
    upper = SawtoothUpperBound(pomdp, corner_values=corners.corner_values)
    rng = np.random.default_rng(0)
    chosen = posteriors[rng.integers(len(posteriors), size=n_points)]
    points = rng.dirichlet(np.ones(pomdp.n_states), size=n_points)
    points *= chosen > SUPPORT_EPSILON
    for point in points / points.sum(axis=1, keepdims=True):
        upper.add_point(point, corners.backup(point))

    values = benchmark(upper.value_batch, posteriors)
    assert np.all(values <= corners.value_batch(posteriors))
    benchmark.extra_info["points"] = len(upper)
    benchmark.extra_info["rows"] = len(posteriors)
