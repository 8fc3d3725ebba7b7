"""Benchmarks for RA-Bound scalability (Section 4.3's state-space claim).

One benchmark per model size on the tiered family: the measured quantity
*is* the claim — a sparse linear solve over the original state space stays
fast as the state count grows to the hundreds of thousands.  Each case
times the call the controllers make, ``ra_bound_vector``, on the built
model; the dense backend runs only where its tensors fit.
"""

import numpy as np
import pytest

from repro.bounds.ra_bound import ra_bound_vector
from repro.experiments.scalability import verify_against_dense
from repro.systems.tiered import build_tiered_system


@pytest.mark.parametrize(
    ("backend", "replicas_per_tier"),
    [("dense", 10), ("sparse", 10), ("sparse", 1_000), ("sparse", 50_000)],
)
def test_ra_bound_scaling(benchmark, backend, replicas_per_tier):
    """RA-Bound solve on a 3-tier system of growing size."""
    pomdp = build_tiered_system(
        (replicas_per_tier,) * 3, backend=backend
    ).model.pomdp

    values = benchmark.pedantic(
        ra_bound_vector,
        args=(pomdp,),
        kwargs={"method": "sparse"},
        rounds=1,
        iterations=1,
    )
    assert np.all(np.isfinite(values))
    assert np.all(values <= 0)
    benchmark.extra_info["n_states"] = int(values.shape[0])


def test_sparse_construction_correctness(benchmark):
    """The sparse and dense backends must agree (fast guard)."""
    discrepancy = benchmark.pedantic(
        verify_against_dense, args=((2, 2, 2),), rounds=1, iterations=1
    )
    assert discrepancy < 1e-8
