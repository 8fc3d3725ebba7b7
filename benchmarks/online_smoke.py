"""Sparse online-decision smoke with a peak-RSS ceiling.

Builds a tiered model large enough that densifying even a single action's
transition matrix would blow the memory ceiling (12,002 states -> one dense
``(|S|, |S|)`` matrix is ~1.15 GB), runs the bounded controller through a
uniform-belief decision and a short episode on the sparse backend, and
asserts that peak RSS stayed under the ceiling.  Timing is deliberately not
asserted — CI runners are too noisy — but an accidental densification
anywhere on the decision path is a deterministic, order-of-magnitude RSS
regression that this smoke catches.

The joint-factor cache is declined at this size, so every decision runs
the fused sparse depth-1 kernel.  The uniform belief and the first
narrowed belief are decided again with ``REPRO_MAX_CACHE_BYTES`` small
enough to cut the touched actions into dozens of chunks (one action per
chunk when only a few are touched), and the run fails unless the action,
leaf count, action values and bound-set usage are bit-identical to the
default-budget decision.

The smoke also runs two campaigns on the same model, serially and on two
worker processes that inherit the campaign plan, and fails unless each
pair of campaign fingerprints is equal.  The read-only bounded depth-1
campaign escalates every fault at its first decision, so a second
campaign drives a seeded random policy over the repair actions for up to
:data:`RANDOM_MAX_STEPS` steps per episode, and fails unless the workers
executed recovery actions.

Usage::

    python -m benchmarks.online_smoke
    python -m benchmarks.online_smoke --replicas 2000 --max-rss-mb 1024
"""

from __future__ import annotations

import argparse
import os
import resource
import time
from contextlib import contextmanager

import numpy as np

from repro.bounds.vector_set import BoundVectorSet
from repro.controllers.bounded import BoundedPolicyEngine
from repro.controllers.random_controller import RandomPolicyEngine
from repro.pomdp.belief import uniform_belief
from repro.pomdp.cache import MAX_CACHE_BYTES_ENV
from repro.pomdp.tree import depth1_action_bytes, expand_tree
from repro.sim.campaign import DEFAULT_MAX_STEPS, run_campaign
from repro.sim.environment import RecoveryEnvironment
from repro.sim.metrics import MetricSummary, campaign_fingerprint
from repro.systems.tiered import build_tiered_system

#: Replicas per tier: 3 tiers -> 2 + 2 * 3 * 2000 = 12,002 states.
DEFAULT_REPLICAS = 2_000

#: Peak-RSS ceiling.  The whole sparse run needs well under 300 MB; one
#: densified 12,002^2 matrix alone is ~1.15 GB, so the ceiling separates
#: the two regimes with a wide margin on both sides.
DEFAULT_MAX_RSS_MB = 1_024


#: Chunks the split-budget re-decision cuts the touched actions into.
SPLIT_CHUNKS = 40

#: Injections of each serial-versus-parallel campaign check.
CAMPAIGN_INJECTIONS = 64

#: Step cap of the random-policy campaign's episodes.
RANDOM_MAX_STEPS = 20


@contextmanager
def cache_budget(n_bytes: int | None):
    """Run with ``REPRO_MAX_CACHE_BYTES`` set to ``n_bytes`` (``None``:
    unset, the default budget), restoring it afterwards."""
    saved = os.environ.pop(MAX_CACHE_BYTES_ENV, None)
    if n_bytes is not None:
        os.environ[MAX_CACHE_BYTES_ENV] = str(n_bytes)
    try:
        yield
    finally:
        os.environ.pop(MAX_CACHE_BYTES_ENV, None)
        if saved is not None:
            os.environ[MAX_CACHE_BYTES_ENV] = saved


def check_split_budget(pomdp, belief, vectors) -> int:
    """Decide ``belief`` under the default budget and under one that cuts
    its touched actions into about :data:`SPLIT_CHUNKS` chunks; fail
    unless both decisions are bit-identical.  Returns the chunk count."""
    touched, _ = pomdp.transitions.live_corrections(belief)
    # Observation-override actions (a_T) are scored outside the chunks.
    touched = np.setdiff1d(touched, list(pomdp.observations.overrides))
    per_chunk = max(1, touched.size // SPLIT_CHUNKS)
    budget = per_chunk * depth1_action_bytes(len(vectors), pomdp.n_observations)
    outcomes = []
    for n_bytes in (None, budget):
        leaf = BoundVectorSet(vectors)
        with cache_budget(n_bytes):
            outcomes.append((expand_tree(pomdp, belief, 1, leaf), leaf._usage))
    (default, default_usage), (split, split_usage) = outcomes
    assert split.action == default.action, (
        f"chunked decision picked {split.action}, default {default.action}"
    )
    assert split.leaf_evaluations == default.leaf_evaluations, (
        "chunked decision made a different number of leaf evaluations"
    )
    assert np.array_equal(split.action_values, default.action_values), (
        "chunked decision's action values are not bit-identical"
    )
    assert np.array_equal(split_usage, default_usage), (
        "chunked decision credited bound-set usage differently"
    )
    return -(-touched.size // per_chunk)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB (Linux ru_maxrss is KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_smoke(replicas_per_tier: int) -> dict:
    """Build sparse, decide from uniform and narrowed beliefs, run an episode,
    then compare a serial and a two-worker campaign."""
    started = time.perf_counter()
    system = build_tiered_system(
        replicas=(replicas_per_tier,) * 3, backend="sparse"
    )
    model = system.model
    build_seconds = time.perf_counter() - started
    assert model.pomdp.backend.is_sparse, "tiered build did not select sparse"

    engine = BoundedPolicyEngine(
        model, depth=1, refine_online=False, preflight=True
    )
    session = engine.session()
    assert engine.preflight_report is not None
    assert not any(
        d.code == "R203" for d in engine.preflight_report.findings
    ), "sparse preflight must run every pass without size skips"
    belief = uniform_belief(model.pomdp, support=model.fault_states)
    session.reset(initial_belief=belief)
    started = time.perf_counter()
    decision = session.decide()
    uniform_seconds = time.perf_counter() - started
    assert decision.is_terminate, (
        "uniform-belief decision should escalate to the operator "
        f"(one faulty replica in {replicas_per_tier} costs less than a "
        f"restart), got action {decision.action}"
    )
    vectors = engine.bound_set.vectors
    uniform_chunks = check_split_budget(model.pomdp, belief, vectors)

    environment = RecoveryEnvironment(model, seed=2006)
    fault_indices = np.flatnonzero(model.fault_states)
    environment.inject(int(fault_indices[0]))
    suspects = np.zeros(model.pomdp.n_states, dtype=bool)
    suspects[fault_indices[:6]] = True
    session.reset(initial_belief=uniform_belief(model.pomdp, support=suspects))
    passive = int(np.flatnonzero(model.passive_actions)[0])
    session.observe(passive, environment.initial_observation())
    narrowed_chunks = check_split_budget(model.pomdp, session.belief, vectors)
    steps = 0
    for _ in range(8):
        step = session.decide()
        result = environment.execute(step.action)
        steps += 1
        if step.is_terminate:
            break
        session.observe(step.action, result.observation)

    fault_states = system.zombie_states()
    fingerprint, _ = check_parallel_campaign(engine, fault_states)
    random_engine = RandomPolicyEngine(model, include_all_actions=False, seed=7)
    random_fingerprint, random_summary = check_parallel_campaign(
        random_engine, fault_states, max_steps=RANDOM_MAX_STEPS
    )
    assert random_summary.actions > 0, (
        "the random-policy campaign executed no recovery action"
    )
    return {
        "n_states": model.pomdp.n_states,
        "n_actions": model.pomdp.n_actions,
        "build_seconds": build_seconds,
        "uniform_decision_seconds": uniform_seconds,
        "episode_steps": steps,
        "episode_cost": environment.cost,
        "campaign_fingerprint": fingerprint,
        "random_fingerprint": random_fingerprint,
        "random_actions": random_summary.actions,
        "split_chunks": (uniform_chunks, narrowed_chunks),
    }


def check_parallel_campaign(
    engine, fault_states, max_steps: int = DEFAULT_MAX_STEPS
) -> tuple[str, MetricSummary]:
    """Run a :data:`CAMPAIGN_INJECTIONS`-episode campaign of ``engine``
    serially and on two workers; fail unless the campaign fingerprints are
    equal.  Returns the fingerprint and the serial campaign's summary."""
    serial, parallel = (
        run_campaign(
            engine,
            fault_states,
            injections=CAMPAIGN_INJECTIONS,
            seed=2006,
            max_steps=max_steps,
            parallel=workers,
        )
        for workers in (None, 2)
    )
    fingerprint = campaign_fingerprint(serial.episodes)
    other = campaign_fingerprint(parallel.episodes)
    assert other == fingerprint, (
        f"{engine.name} parallel campaign fingerprint {other[:12]} differs "
        f"from the serial {fingerprint[:12]}"
    )
    return fingerprint, serial.summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="online-smoke", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--replicas", type=int, default=DEFAULT_REPLICAS, metavar="R",
        help="replicas per tier (3 tiers; default 2000 -> 12,002 states)",
    )
    parser.add_argument(
        "--max-rss-mb", type=float, default=DEFAULT_MAX_RSS_MB, metavar="MB",
        help="peak-RSS ceiling; exceeding it means something densified",
    )
    args = parser.parse_args(argv)

    report = run_smoke(args.replicas)
    rss = peak_rss_mb()
    print(
        f"sparse online smoke: |S|={report['n_states']:,} "
        f"|A|={report['n_actions']:,}, build {report['build_seconds']:.1f}s, "
        f"uniform decision {report['uniform_decision_seconds']:.1f}s, "
        f"episode {report['episode_steps']} decisions "
        f"(cost {report['episode_cost']:.3f}), peak RSS {rss:.0f} MB"
    )
    if rss > args.max_rss_mb:
        raise SystemExit(
            f"peak RSS {rss:.0f} MB exceeded the {args.max_rss_mb:.0f} MB "
            "ceiling — a decision-path operation is densifying the model"
        )
    print(
        "chunked re-decisions bit-identical to the default budget "
        "(uniform belief in {} chunks, narrowed belief in {})".format(
            *report["split_chunks"]
        )
    )
    print(
        f"{CAMPAIGN_INJECTIONS}-injection campaign fingerprint "
        f"{report['campaign_fingerprint'][:12]}… identical serially and on "
        "2 workers"
    )
    print(
        f"{CAMPAIGN_INJECTIONS}-injection random-policy campaign fingerprint "
        f"{report['random_fingerprint'][:12]}… identical serially and on "
        f"2 workers ({report['random_actions']:.1f} actions per episode)"
    )
    print(f"peak RSS within the {args.max_rss_mb:.0f} MB ceiling")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
