"""Exporters for hierarchical trace spans.

Spans are recorded by :meth:`repro.obs.telemetry.Telemetry.span`
(``trace=True`` registries) and serialised into the JSONL stream as
``span`` events just before the ``summary``.  This module turns them into
formats external tools read:

* :func:`to_chrome_trace` / :func:`write_chrome_trace` — Chrome
  ``trace_event`` JSON (the "JSON Array Format" with complete ``"X"``
  events), loadable in ``chrome://tracing`` and https://ui.perfetto.dev.
* :func:`to_collapsed_stacks` — Brendan Gregg's collapsed-stack format
  (``root;child;leaf weight`` lines, weights in self-time microseconds),
  the input ``flamegraph.pl`` and speedscope accept.
* :func:`span_tree` — a canonical nested representation used by the
  determinism tests: serial and sharded runs of the same campaign must
  produce the *same tree* once wall-clock fields are stripped.

Spans can come straight off a live registry (:attr:`Telemetry.spans`) or
be read back from a run file with :func:`read_spans`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.telemetry import SpanRecord

__all__ = [
    "read_spans",
    "span_tree",
    "to_chrome_trace",
    "to_collapsed_stacks",
    "write_chrome_trace",
]


def read_spans(path: str | Path) -> list[SpanRecord]:
    """Reconstruct :class:`SpanRecord` objects from a JSONL run file.

    Lines that are not ``span`` events are skipped, so this reads the
    same stream ``python -m repro.obs report`` does.
    """
    spans: list[SpanRecord] = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            if not line.strip():
                continue
            record = json.loads(line)
            if not isinstance(record, dict) or record.get("event") != "span":
                continue
            args = record.get("args") or {}
            spans.append(
                SpanRecord(
                    span_id=int(record["span_id"]),
                    parent_id=(
                        None
                        if record.get("parent_id") is None
                        else int(record["parent_id"])
                    ),
                    name=str(record["name"]),
                    category=str(record.get("category", "repro")),
                    t_start=float(record["t_start"]),
                    seconds=float(record["seconds"]),
                    args=tuple(sorted(args.items())),
                )
            )
    return spans


def to_chrome_trace(spans: list[SpanRecord] | tuple[SpanRecord, ...]) -> dict[str, Any]:
    """Spans as a Chrome ``trace_event`` JSON object.

    Each span becomes one complete (``"ph": "X"``) event with start and
    duration in microseconds.  Everything is reported on one pid/tid —
    the merged timeline is already sequential (chunk spans are rebased
    end-to-end at absorb time), and a single track is what makes the
    serial and sharded traces of the same campaign line up in Perfetto.
    """
    events: list[dict[str, Any]] = []
    for span in spans:
        args = dict(span.args)
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args["span_id"] = span.span_id
        events.append(
            {
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round(span.t_start * 1e6, 3),
                "dur": round(span.seconds * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": args,
            }
        )
    events.sort(key=lambda event: (event["ts"], -event["dur"]))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs.trace"},
    }


def write_chrome_trace(
    path: str | Path, spans: list[SpanRecord] | tuple[SpanRecord, ...]
) -> None:
    """Write :func:`to_chrome_trace` output as a JSON file."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(to_chrome_trace(spans), stream)
        stream.write("\n")


def to_collapsed_stacks(
    spans: list[SpanRecord] | tuple[SpanRecord, ...],
) -> list[str]:
    """Spans as collapsed-stack lines (``a;b;c weight``).

    The weight of a stack is *self time* in integer microseconds — the
    span's duration minus the duration of its direct children — matching
    how sampling profilers attribute cost, so flame widths sum correctly
    up the stack.  Identical stacks are merged.  Spans whose parent is
    missing from the input (dropped by the ring buffer) are treated as
    roots.
    """
    by_id = {span.span_id: span for span in spans}
    child_seconds: dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            child_seconds[span.parent_id] = (
                child_seconds.get(span.parent_id, 0.0) + span.seconds
            )

    def stack_of(span: SpanRecord) -> str:
        names = [span.name]
        seen = {span.span_id}
        parent_id = span.parent_id
        while parent_id is not None and parent_id in by_id and parent_id not in seen:
            seen.add(parent_id)
            parent = by_id[parent_id]
            names.append(parent.name)
            parent_id = parent.parent_id
        return ";".join(reversed(names))

    weights: dict[str, int] = {}
    for span in spans:
        self_seconds = max(0.0, span.seconds - child_seconds.get(span.span_id, 0.0))
        micros = int(round(self_seconds * 1e6))
        if micros <= 0:
            continue
        stack = stack_of(span)
        weights[stack] = weights.get(stack, 0) + micros
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]


def span_tree(
    spans: list[SpanRecord] | tuple[SpanRecord, ...],
    with_args: bool = True,
    by_session: bool = False,
) -> list[dict[str, Any]] | dict[Any, list[dict[str, Any]]]:
    """The spans as a canonical nested tree, wall-clock fields stripped.

    Children appear in span-id (allocation) order, which is start order
    within one registry and chunk order across absorbed registries — the
    deterministic order.  The result contains only ``name``, ``args``
    (optional), and ``children``, so two runs of the same seeded campaign
    compare equal with ``==`` regardless of worker count or timing.

    With ``by_session=True`` the result is instead a dict mapping each
    session label to that session's forest.  A span's session is its own
    ``session`` arg or, failing that, the nearest ancestor's (spans with
    no labelled ancestor group under ``None``).  Concurrent sessions
    multiplexed onto one registry — the policy service's — interleave
    their spans in allocation order, so the flat tree braids them
    together; grouping restores one readable flamegraph per session.  A
    span opened under a *differently*-labelled parent roots its own
    session's forest rather than nesting across the boundary.
    """
    children: dict[int | None, list[SpanRecord]] = {}
    by_id = {span.span_id: span for span in spans}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for group in children.values():
        group.sort(key=lambda span: span.span_id)

    def build(span: SpanRecord) -> dict[str, Any]:
        node: dict[str, Any] = {"name": span.name}
        if with_args:
            node["args"] = dict(span.args)
        node["children"] = [
            build(child) for child in children.get(span.span_id, [])
        ]
        return node

    if not by_session:
        return [build(span) for span in children.get(None, [])]

    session_of: dict[int, Any] = {}

    def resolve(span: SpanRecord) -> Any:
        if span.span_id in session_of:
            return session_of[span.span_id]
        label = dict(span.args).get("session")
        if label is None and span.parent_id is not None and span.parent_id in by_id:
            label = resolve(by_id[span.parent_id])
        session_of[span.span_id] = label
        return label

    def build_session(span: SpanRecord, label: Any) -> dict[str, Any]:
        node: dict[str, Any] = {"name": span.name}
        if with_args:
            node["args"] = dict(span.args)
        node["children"] = [
            build_session(child, label)
            for child in children.get(span.span_id, [])
            if resolve(child) == label
        ]
        return node

    forests: dict[Any, list[dict[str, Any]]] = {}
    for span in sorted(spans, key=lambda span: span.span_id):
        label = resolve(span)
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is None or resolve(parent) != label:
            forests.setdefault(label, []).append(build_session(span, label))
    return forests
