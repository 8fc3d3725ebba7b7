"""Aggregate a telemetry JSONL run into a human-readable report.

``python -m repro.obs report run.jsonl`` renders, from the event stream
alone (no live process needed):

* campaign/episode outcomes — injections, recoveries, early terminations;
* decision statistics — decisions, tie-breaks toward ``a_T``, notification
  exits, lookahead tree size;
* the bound-refinement story — refinements attempted/accepted, the bound
  improvement delivered, and the vector-set size trajectory (the paper's
  Figure 5(b) storage curve, observed on a live campaign);
* solver routing and joint-factor cache effectiveness;
* wall-clock spans from the latency histograms (or, for pre-v3 streams
  without histograms, the ``timers``) — outside the determinism contract,
  like ``algorithm_time``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.util.tables import render_table


def session_of(record: dict[str, Any]) -> str | None:
    """The session label an event carries, or ``None`` for global events.

    Service-labelled sessions tag their ``decision`` and ``slow_decision``
    events with a top-level ``session`` field and their trace spans with a
    ``session`` span argument (see
    :meth:`repro.controllers.engine.RecoverySession.span_attributes`).
    """
    session = record.get("session")
    if session is not None:
        return str(session)
    args = record.get("args")
    if isinstance(args, dict) and args.get("session") is not None:
        return str(args["session"])
    return None


@dataclass
class RunAggregate:
    """Everything the report renders, folded out of one event stream."""

    events: int = 0
    session_filter: str | None = None
    kinds: dict[str, int] = field(default_factory=dict)
    campaigns: list[dict[str, Any]] = field(default_factory=list)
    episodes: int = 0
    recovered: int = 0
    early_terminations: int = 0
    steps: int = 0
    total_cost: float = 0.0
    refinements: int = 0
    refinements_added: int = 0
    refinement_improvement: float = 0.0
    set_size_first: int | None = None
    set_size_max: int = 0
    set_size_last: int | None = None
    belief_update_failures: int = 0
    solver_dispatches: dict[str, int] = field(default_factory=dict)
    summary: dict[str, Any] | None = None


def aggregate_stream(
    path: str | Path, session: str | None = None
) -> RunAggregate:
    """Fold a JSONL run file into a :class:`RunAggregate`.

    With ``session`` set, events labelled with a *different* session id
    are skipped, narrowing a multi-session daemon stream to one
    recovery's story.  Unlabelled events — campaign lifecycle, bound
    refinement, cache outcomes, the summary — are shared state and stay
    in the aggregate.
    """
    aggregate = RunAggregate(session_filter=session)
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            if not line.strip():
                continue
            record = json.loads(line)
            if session is not None:
                label = session_of(record)
                if label is not None and label != session:
                    continue
            kind = record.get("event", "?")
            aggregate.events += 1
            aggregate.kinds[kind] = aggregate.kinds.get(kind, 0) + 1
            if kind == "campaign_start":
                aggregate.campaigns.append(
                    {key: record.get(key) for key in ("controller", "injections")}
                )
            elif kind == "episode_end":
                aggregate.episodes += 1
                aggregate.steps += int(record.get("steps", 0))
                aggregate.total_cost += float(record.get("cost", 0.0))
                if record.get("recovered"):
                    aggregate.recovered += 1
                elif record.get("terminated"):
                    aggregate.early_terminations += 1
            elif kind == "refine":
                aggregate.refinements += 1
                if record.get("added"):
                    aggregate.refinements_added += 1
                    aggregate.refinement_improvement += float(
                        record.get("improvement", 0.0)
                    )
                size = int(record.get("set_size", 0))
                if aggregate.set_size_first is None:
                    aggregate.set_size_first = size
                aggregate.set_size_max = max(aggregate.set_size_max, size)
                aggregate.set_size_last = size
            elif kind == "belief_update_failure":
                aggregate.belief_update_failures += 1
            elif kind == "solver_dispatch":
                method = str(record.get("method"))
                aggregate.solver_dispatches[method] = (
                    aggregate.solver_dispatches.get(method, 0) + 1
                )
            elif kind == "summary":
                aggregate.summary = record
    return aggregate


def _cache_lines(summary: dict[str, Any]) -> list[str]:
    process = summary.get("process_counters", {})
    hits = int(process.get("cache.hits", 0))
    builds = int(process.get("cache.builds", 0))
    declines = int(process.get("cache.declines", 0))
    lookups = hits + builds + declines
    if lookups == 0:
        return []
    ratio = hits / lookups
    return [
        "Joint-factor cache: "
        f"{lookups} lookups, {hits} hits ({ratio:.1%}), "
        f"{builds} builds, {declines} declined (process-local; varies "
        "with worker count)",
    ]


def format_report(aggregate: RunAggregate) -> str:
    """Render the aggregate as the CLI report."""
    sections: list[str] = []

    campaign_rows = [
        [c.get("controller") or "-", c.get("injections") or "-"]
        for c in aggregate.campaigns
    ] or [["-", "-"]]
    title = f"Telemetry report ({aggregate.events} events)"
    if aggregate.session_filter is not None:
        title += f" — session {aggregate.session_filter}"
    sections.append(
        render_table(
            ["Controller", "Injections"],
            campaign_rows,
            title=title,
        )
    )

    sections.append(
        render_table(
            ["Episodes", "Recovered", "Early term.", "Steps", "Total cost"],
            [
                [
                    aggregate.episodes,
                    aggregate.recovered,
                    aggregate.early_terminations,
                    aggregate.steps,
                    aggregate.total_cost,
                ]
            ],
            title="Episode outcomes",
        )
    )

    if aggregate.refinements:
        acceptance = aggregate.refinements_added / aggregate.refinements
        sections.append(
            render_table(
                ["Attempted", "Accepted", "Acceptance", "Improvement",
                 "|B| first", "|B| max", "|B| last"],
                [
                    [
                        aggregate.refinements,
                        aggregate.refinements_added,
                        f"{acceptance:.1%}",
                        aggregate.refinement_improvement,
                        aggregate.set_size_first or 0,
                        aggregate.set_size_max,
                        aggregate.set_size_last or 0,
                    ]
                ],
                title="Bound refinement (Figure 5(b) storage story)",
            )
        )

    if aggregate.solver_dispatches:
        sections.append(
            render_table(
                ["Method", "Dispatches"],
                sorted(aggregate.solver_dispatches.items()),
                title="Linear-solver routing",
            )
        )

    summary = aggregate.summary
    if summary is not None:
        counters = summary.get("counters", {})
        if counters:
            sections.append(
                render_table(
                    ["Counter", "Value"],
                    sorted(counters.items()),
                    title="Deterministic counters (worker-count invariant)",
                )
            )
        spans = [
            [name, entry.get("sum_seconds", 0.0), entry.get("count", 0)]
            for name, entry in sorted(summary.get("histograms", {}).items())
        ] or [
            [name, stat.get("seconds", 0.0), stat.get("calls", 0)]
            for name, stat in sorted(summary.get("timers", {}).items())
        ]
        if spans:
            sections.append(
                render_table(
                    ["Span", "Seconds", "Calls"],
                    spans,
                    title="Wall-clock spans (not part of the determinism "
                    "contract)",
                )
            )
        sections.extend(_cache_lines(summary))

    if aggregate.belief_update_failures:
        sections.append(
            f"Belief-update failures (re-seeded from the initial belief): "
            f"{aggregate.belief_update_failures}"
        )

    return "\n\n".join(sections)
