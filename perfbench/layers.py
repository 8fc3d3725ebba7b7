"""Per-layer metrics of a traced run, computed from benchmark-side spans.

Every workload reports the same per-layer metrics.  A layer that does not
run on a workload reports 0 (no calls, no time), which is itself the
prediction the README makes for that pairing.  Units:

* ``ms/fault`` — self time summed over the timed phase, per fault served;
* ``ms/call`` — mean per call (latencies a caller waits for);
* ``ms`` / ``s`` — totals over the traced run's one set-up (or teardown);
* ``count`` — totals over the timed phase; ``ratio`` — a share in [0, 1].
"""

from __future__ import annotations

from perfbench import spans

#: Every per-layer metric, in report order, with its unit.
PER_LAYER = (
    ("pomdp.tree.d2_self_ms", "ms"),
    ("pomdp.tree.d1_self_ms", "ms/fault"),
    ("pomdp.tree.nodes", "count"),
    ("pomdp.tree.leaf_evaluations", "count"),
    ("pomdp.tree.fused_share", "ratio"),
    ("pomdp.cache.decline_ratio", "ratio"),
    ("pomdp.cache.lookup_ms", "ms/fault"),
    ("bounds.refine.self_ms", "ms/fault"),
    ("bounds.refine.calls", "count"),
    ("bounds.refine.accept_ratio", "ratio"),
    ("bounds.value_batch.self_ms", "ms/fault"),
    ("bounds.value_batch.rows", "count"),
    ("bounds.set_size_final", "count"),
    ("bounds.merge_ms", "ms/fault"),
    ("bounds.merge_kept_ratio", "ratio"),
    ("bounds.ra_bound_s", "s"),
    ("controllers.bootstrap_s", "s"),
    ("controllers.engine.decide_ms", "ms/call"),
    ("controllers.engine.observe_ms", "ms/call"),
    ("controllers.bounded.self_ms", "ms/fault"),
    ("pomdp.belief.update_ms", "ms/call"),
    ("pomdp.belief.update_failures", "count"),
    ("serve.service.lock_wait_ms.p50", "ms"),
    ("serve.service.lock_wait_ms.tail", "ms"),
    ("serve.service.engine_busy_share", "ratio"),
    ("serve.protocol.self_ms", "ms/call"),
    ("serve.protocol.errors", "count"),
    ("serve.transport_ms", "ms/call"),
    ("sim.episode.self_ms", "ms/fault"),
    ("sim.environment.execute_ms", "ms/fault"),
    ("sim.chunk.self_ms", "ms/fault"),
    ("io.load_model_s", "s"),
    ("io.checkpoint_s", "s"),
    ("systems.build_s", "s"),
    ("unattributed_share", "ratio"),
    ("traced.faults_per_s", "faults/s"),
)

#: Span names that mark benchmark phases rather than layers of the program;
#: their self time is the unattributed remainder.
PHASES = ("phase.run", "phase.setup", "phase.campaign", "phase.connection")

_MS = 1e-6
_S = 1e-9


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Scope:
    """Spans of one or more processes that make up one phase of a run."""

    def __init__(self, parts: list[tuple[spans.SpanForest, list[list]]]):
        self.parts = parts
        self._by_name: dict[str, list[tuple[spans.SpanForest, list]]] = {}
        for forest, records in parts:
            for record in records:
                self._by_name.setdefault(spans.name(record), []).append((forest, record))

    def of(self, name: str) -> list[tuple[spans.SpanForest, list]]:
        return self._by_name.get(name, [])

    def self_ns(self, name: str) -> int:
        return sum(forest.self_ns(record) for forest, record in self.of(name))

    def total_ns(self, name: str) -> int:
        return sum(forest.duration(record) for forest, record in self.of(name))

    def calls(self, name: str) -> int:
        return len(self.of(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(spans.attrs(record).get(key, 0) for _, record in self.of(name))

    def count_where(self, name: str, key: str) -> int:
        return sum(1 for _, record in self.of(name) if spans.attrs(record).get(key))

    def mean_ms(self, name: str) -> float:
        return _ratio(self.total_ns(name) * _MS, self.calls(name))

    def expansions(self, depth_one: bool):
        for forest, record in self.of("pomdp.tree.expand"):
            if (spans.attrs(record).get("depth") == 1) == depth_one:
                yield forest, record

    def layer_self(self, skip: tuple[str, ...] = ()) -> dict[str, spans.NameStats]:
        """Per-layer totals over every span in the scope except phases and
        ``skip``; tree expansions are split by depth."""
        merged: dict[str, spans.NameStats] = {}
        for forest, records in self.parts:
            for record in records:
                span_name = spans.name(record)
                if span_name in PHASES or span_name in skip:
                    continue
                if span_name == "pomdp.tree.expand":
                    span_name += ".d1" if spans.attrs(record).get("depth") == 1 else ".d2"
                entry = merged.setdefault(span_name, spans.NameStats())
                entry.calls += 1
                entry.total_ns += forest.duration(record)
                entry.self_ns += forest.self_ns(record)
        return merged


def _fused(forest: spans.SpanForest, record: list) -> bool:
    """Whether a depth-1 expansion took the fused sparse kernel.

    Mirrors the dispatch rule in ``repro.pomdp.tree.expand_tree``: the
    joint-factor cache declined, the model is sparse, and the leaf is a
    linear-function set.
    """
    attributes = spans.attrs(record)
    lookup = forest.child(record, "pomdp.cache.lookup")
    declined = lookup is not None and spans.attrs(lookup).get("declined")
    return bool(declined and attributes.get("sparse") and attributes.get("linear_leaf"))


def layer_metrics(
    timed: Scope,
    whole: Scope,
    faults: int,
    extras: dict[str, float],
) -> dict[str, tuple[float, str]]:
    """The :data:`PER_LAYER` metrics; ``extras`` supplies the figures that
    are not span aggregates (lock waits, transport, final set size, ...)."""
    d1 = list(timed.expansions(depth_one=True))
    d2_self = sum(forest.self_ns(record) for forest, record in whole.expansions(False))
    d1_self = sum(forest.self_ns(record) for forest, record in d1)
    lookups = timed.calls("pomdp.cache.lookup")
    refines = timed.calls("bounds.refine")
    values = {
        "pomdp.tree.d2_self_ms": d2_self * _MS,
        "pomdp.tree.d1_self_ms": _ratio(d1_self * _MS, faults),
        "pomdp.tree.nodes": sum(spans.attrs(r).get("nodes", 0) for _, r in d1),
        "pomdp.tree.leaf_evaluations": sum(spans.attrs(r).get("leaves", 0) for _, r in d1),
        "pomdp.tree.fused_share": _ratio(sum(_fused(f, r) for f, r in d1), len(d1)),
        "pomdp.cache.decline_ratio": _ratio(
            timed.count_where("pomdp.cache.lookup", "declined"), lookups
        ),
        "pomdp.cache.lookup_ms": _ratio(timed.self_ns("pomdp.cache.lookup") * _MS, faults),
        "bounds.refine.self_ms": _ratio(timed.self_ns("bounds.refine") * _MS, faults),
        "bounds.refine.calls": refines,
        "bounds.refine.accept_ratio": _ratio(timed.count_where("bounds.refine", "added"), refines),
        "bounds.value_batch.self_ms": _ratio(
            timed.self_ns("bounds.value_batch") * _MS, faults
        ),
        "bounds.value_batch.rows": timed.attr_sum("bounds.value_batch", "rows"),
        "bounds.merge_ms": _ratio(timed.self_ns("bounds.merge") * _MS, faults),
        "bounds.merge_kept_ratio": _ratio(
            timed.attr_sum("bounds.merge", "added"),
            timed.attr_sum("bounds.merge", "candidates"),
        ),
        "bounds.ra_bound_s": whole.total_ns("bounds.ra_bound") * _S,
        "controllers.bootstrap_s": whole.total_ns("controllers.bootstrap") * _S,
        "controllers.engine.decide_ms": timed.mean_ms("controllers.engine.decide"),
        "controllers.engine.observe_ms": timed.mean_ms("controllers.engine.observe"),
        "controllers.bounded.self_ms": _ratio(
            timed.self_ns("controllers.bounded.decide") * _MS, faults
        ),
        "pomdp.belief.update_ms": timed.mean_ms("pomdp.belief.update"),
        "pomdp.belief.update_failures": sum(
            1
            for _, record in timed.of("pomdp.belief.update")
            if spans.attrs(record).get("error") == "BeliefError"
        ),
        "sim.episode.self_ms": _ratio(timed.self_ns("sim.episode") * _MS, faults),
        "sim.environment.execute_ms": _ratio(
            timed.self_ns("sim.environment.execute") * _MS, faults
        ),
        "sim.chunk.self_ms": _ratio(timed.self_ns("sim.chunk") * _MS, faults),
        "io.load_model_s": whole.total_ns("io.load_model") * _S,
        "io.checkpoint_s": whole.total_ns("io.checkpoint") * _S,
        "systems.build_s": whole.total_ns("systems.build") * _S,
        "serve.service.lock_wait_ms.p50": 0.0,
        "serve.service.lock_wait_ms.tail": 0.0,
        "serve.service.engine_busy_share": 0.0,
        "serve.protocol.self_ms": 0.0,
        "serve.protocol.errors": 0,
        "serve.transport_ms": 0.0,
    }
    values.update(extras)
    missing = [name for name, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {name: (float(values[name]), unit) for name, unit in PER_LAYER}


def table(by_layer: dict[str, spans.NameStats], wall_ns: int | None = None) -> dict:
    """Calls, self and total milliseconds per layer, largest self time first."""
    rows = {}
    for layer, stats in sorted(by_layer.items(), key=lambda item: -item[1].self_ns):
        rows[layer] = {
            "calls": stats.calls,
            "self_ms": stats.self_ns * _MS,
            "total_ms": stats.total_ns * _MS,
        }
        if wall_ns:
            rows[layer]["share"] = stats.self_ns / wall_ns
    return rows


def closure(by_layer: dict[str, spans.NameStats], wall_ns: int, unattributed_ns: int) -> dict:
    """The self-time table: layer self times plus the remainder is the wall."""
    return {
        "wall_ms": wall_ns * _MS,
        "unattributed_ms": unattributed_ns * _MS,
        "layers": table(by_layer, wall_ns),
    }
