"""``table1_bounded``: the paper's Table 1 campaign with the bounded controller.

Set-up is what a researcher pays before the first injection: the EMN model
build plus ``repro.experiments.table1.make_controller`` (RA-Bound, ten
bootstrap runs at depth 2, refinement threshold of one dropped request).
The timed phase is one serial ``run_campaign`` over zombie faults.  The
campaign's fingerprint must match the pin shipped for its seed.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.experiments import table1
from repro.sim.campaign import run_campaign
from repro.sim.metrics import campaign_fingerprint
from repro.systems import emn
from repro.systems.faults import FaultKind

from perfbench import layers, spans
from perfbench.common import SETUP_REPEATS, Outcome, distribution, median, self_peak_rss_mb

CONTROLLER = "bounded (depth 1)"

#: Nominal campaign rate.  A run of ``--seconds S`` does ``S`` times this
#: many injections, so the work is fixed by the arguments, not the clock.
INJECTIONS_PER_SECOND = 200

#: Campaign seeds the benchmark ships fingerprint pins for; ``--seed n``
#: runs the campaign seeded ``CAMPAIGN_SEEDS[n % len(CAMPAIGN_SEEDS)]``.
CAMPAIGN_SEEDS = tuple(range(2006, 2022))

PINS_PATH = Path(__file__).with_name("pins.json")


def injections_for(seconds: float) -> int:
    return max(1, round(INJECTIONS_PER_SECOND * seconds))


def campaign_seed(seed: int) -> int:
    return CAMPAIGN_SEEDS[seed % len(CAMPAIGN_SEEDS)]


def load_pins() -> dict[str, dict[str, str]]:
    """``{injections: {campaign seed: fingerprint}}`` as shipped."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def setup():
    """Model build plus the Table 1 bounded controller."""
    system = emn.build_emn_system()
    return system, table1.make_controller(CONTROLLER, system)


def campaign(system, controller, injections: int, seed: int):
    return run_campaign(
        controller,
        fault_states=system.fault_states(FaultKind.ZOMBIE),
        injections=injections,
        seed=seed,
        monitor_tail=emn.MONITOR_DURATION,
    )


def run(
    seed: int,
    injections: int,
    trace: bool,
    pins: dict[str, dict[str, str]] | None = None,
) -> Outcome:
    """One run; ``pins`` defaults to the shipped ``pins.json``."""
    seed = campaign_seed(seed)
    pins = load_pins() if pins is None else pins
    if trace:
        return _traced(seed, injections, pins)

    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        system, controller = setup()
        setups.append(time.perf_counter() - started)
    started = time.perf_counter()
    result = campaign(system, controller, injections, seed)
    elapsed = time.perf_counter() - started

    episodes = result.episodes
    algo_ms = [episode.algorithm_time * 1e3 for episode in episodes]
    decide_ms = [
        episode.algorithm_time * 1e3 / (episode.steps + int(episode.terminated))
        for episode in episodes
    ]
    algo = distribution(algo_ms)
    decide = distribution(decide_ms)
    outcome = _check(result, seed, injections, pins)
    outcome.metrics = {
        "setup_s": (median(setups), "s"),
        "faults_per_s": (injections / elapsed, "faults/s"),
        "algo_ms_per_fault.p50": (algo["p50"], "ms"),
        "algo_ms_per_fault.tail": (algo["tail"], "ms"),
        "decide_ms.p50": (decide["p50"], "ms"),
        "recovery_cost": (result.summary.cost, "cost/fault"),
        "peak_rss_mb": (self_peak_rss_mb(), "MB"),
    }
    outcome.details.update(
        campaign_seed=seed,
        injections=injections,
        setup_s_samples=setups,
        algo_ms_per_fault=algo,
        decide_ms=decide,
        decisions=sum(episode.steps + int(episode.terminated) for episode in episodes),
        bound_set_size=len(controller.bound_set),
        failed_share=outcome.failed / outcome.attempted,
    )
    return outcome


def _check(result, seed: int, injections: int, pins) -> Outcome:
    """Step-cap hits fail their episode; a fingerprint off its pin fails
    the campaign as one more operation."""
    failures = []
    stuck = sum(1 for episode in result.episodes if not episode.terminated)
    if stuck:
        failures.append(f"{stuck} episode(s) hit the step cap")
    fingerprint = campaign_fingerprint(result.episodes)
    expected = pins.get(str(injections), {}).get(str(seed))
    if expected is None:
        failures.append(f"no pinned fingerprint for seed {seed} at {injections} injections")
    elif fingerprint != expected:
        failures.append(f"fingerprint {fingerprint[:12]} != pinned {expected[:12]}")
    return Outcome(
        attempted=injections + 1,
        failed=stuck + int(expected != fingerprint),
        metrics={},
        details={"fingerprint": fingerprint, "pinned": expected},
        failures=failures,
    )


def _traced(seed: int, injections: int, pins) -> Outcome:
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        with tracer.span("phase.run") as run_span:
            with tracer.span("phase.setup"):
                system, controller = setup()
            with tracer.span("phase.campaign") as campaign_span:
                result = campaign(system, controller, injections, seed)
    finally:
        restore()

    forest = spans.SpanForest(tracer.records())
    timed = layers.Scope([(forest, list(forest.subtree(campaign_span)))])
    whole = layers.Scope([(forest, list(forest.subtree(run_span)))])
    wall_ns = forest.duration(run_span)
    by_layer = whole.layer_self()
    unattributed_ns = wall_ns - sum(stats.self_ns for stats in by_layer.values())
    outcome = _check(result, seed, injections, pins)
    outcome.metrics = layers.layer_metrics(
        timed,
        whole,
        injections,
        {
            "bounds.set_size_final": len(controller.bound_set),
            "unattributed_share": unattributed_ns / wall_ns,
            "traced.faults_per_s": injections / (forest.duration(campaign_span) * 1e-9),
        },
    )
    setup_span = forest.child(run_span, "phase.setup")
    outcome.details.update(
        campaign_seed=seed,
        injections=injections,
        closure=layers.closure(by_layer, wall_ns, unattributed_ns),
        setup_ms=forest.duration(setup_span) * 1e-6,
        setup_layers=layers.table(
            layers.Scope([(forest, list(forest.subtree(setup_span)))]).layer_self(),
            forest.duration(setup_span),
        ),
    )
    return outcome
