"""The JSONL event schema of the observability layer.

Every line of a telemetry run file is one JSON object with at least:

* ``event`` — the event kind (a key of :data:`EVENT_FIELDS`);
* ``seq`` — a per-file monotonically increasing integer.

plus the kind's required fields listed in :data:`EVENT_FIELDS` and any
number of optional extras (``chunk``, wall-clock ``seconds``, ...).  The
schema is deliberately flat — no nesting except the ``summary`` payload
and the ``span`` event's ``args`` object — so streams can be processed
with nothing fancier than ``json.loads`` per line.  :func:`validate_stream`
is what the CI smoke job runs against the telemetry artifacts.

Schema history:

* ``repro-obs/v1`` — counters/gauges/timers summary, campaign and
  refinement events.
* ``repro-obs/v2`` — adds the ``span`` event kind: hierarchical
  trace spans (``span_id``/``parent_id`` form the call tree) emitted just
  before the ``summary`` when tracing is on, and enriches ``refine``
  events with convergence extras (``value``, ``t``, cumulative
  ``dominated``/``evicted``).  v2 readers accept v1 streams unchanged —
  every v1 stream is a valid v2 stream; see :data:`SUPPORTED_SCHEMAS`.
* ``repro-obs/v3`` — the live-operations schema.  The
  ``summary`` payload gains an optional ``histograms`` object (fixed
  log-spaced bucket counts plus bucket-derived p50/p95/p99/max, see
  :data:`repro.obs.telemetry.LATENCY_BUCKET_EDGES`); two event kinds are
  added: ``slow_decision`` — the policy service's structured log entry
  for a decision that exceeded its configured latency threshold,
  optionally carrying the offending span subtree — and
  ``metrics_snapshot`` — one timestamped live snapshot of the whole
  registry, the line format of the daemon's periodic metrics flusher
  (:mod:`repro.obs.live`).  A flusher stream is a ``session_start``
  header followed by nothing but ``metrics_snapshot`` lines; the
  framing rule below exempts snapshot lines, so a stream from a
  daemon killed mid-flight stays valid (truncation is not corruption).
  v3 readers accept v1 and v2 streams unchanged.
* ``repro-obs/v4`` (current) — one instrumentation primitive: every
  timed window feeds its latency histogram (and, when tracing, its
  span), so the ``summary`` drops the ``timers`` object that repeated
  the histograms' ``sum_seconds`` and counts.  v1–v3 streams still
  validate, and their summaries must still carry ``timers``
  (:data:`TIMER_SCHEMAS`).

Determinism contract: for a seeded campaign, the ``summary`` event's
``counters`` object and the episode-ordered simulation events
(``episode_start``/``episode_end``/``decision``/``refine``/...) are
identical whatever the worker count — the campaign engine buffers them per
chunk and replays them in chunk order.  Span *structure* (names, nesting,
emission order) shares the guarantee; span timestamps do not.  Outside the
contract sit the wall-clock fields in :data:`WALL_CLOCK_FIELDS`, the
histogram bucket placements and ``sum_seconds`` (pre-v4: ``timers``),
the ``process_counters`` summary object, process-local events
(``cache_build``/``cache_decline`` happen once per worker process), and
the ``workers`` extra on ``campaign_start`` — all varying run to run or
with the worker count, exactly as the ``algorithm_time`` metric does
(see :mod:`repro.sim.metrics`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

#: Version tag written by ``session_start`` events.
SCHEMA_VERSION = "repro-obs/v4"

#: Schema versions :func:`validate_stream` accepts.  Each version's event
#: kinds are a superset of its predecessor's, so one validator covers all.
SUPPORTED_SCHEMAS = frozenset(
    {"repro-obs/v1", "repro-obs/v2", "repro-obs/v3", "repro-obs/v4"}
)

#: Schema versions whose ``summary`` also requires the ``timers`` object.
TIMER_SCHEMAS = frozenset({"repro-obs/v1", "repro-obs/v2", "repro-obs/v3"})

#: Required fields per event kind (beyond ``event`` and ``seq``).
EVENT_FIELDS: dict[str, frozenset[str]] = {
    # Session lifecycle (written by repro.obs.telemetry.session).
    "session_start": frozenset({"schema"}),
    "summary": frozenset({"counters", "process_counters", "gauges"}),
    "session_end": frozenset(),
    # Campaign lifecycle (repro.sim.campaign / repro.sim.parallel).
    "campaign_start": frozenset({"controller", "injections", "chunk_size"}),
    "campaign_end": frozenset({"controller", "episodes"}),
    "episode_start": frozenset({"episode", "fault_state"}),
    "episode_end": frozenset(
        {"episode", "recovered", "terminated", "steps", "cost"}
    ),
    # Controller decisions (repro.controllers.bounded).
    "decision": frozenset({"action", "terminate"}),
    # Bound maintenance (repro.bounds.incremental / vector_set).
    "refine": frozenset({"action", "added", "improvement", "set_size"}),
    "bound_evict": frozenset({"set_size"}),
    # Belief tracking (repro.controllers.engine).
    "belief_update_failure": frozenset(
        {"action", "observation", "fallback_recovered"}
    ),
    # Solver routing (repro.mdp.linear_solvers).
    "solver_dispatch": frozenset({"requested", "method", "n_states"}),
    # Joint-factor cache (repro.pomdp.cache).
    "cache_build": frozenset({"n_states", "nbytes"}),
    "cache_decline": frozenset({"n_states", "required_bytes"}),
    # Hierarchical trace spans (repro.obs.telemetry, v2).
    "span": frozenset({"name", "span_id", "t_start", "seconds"}),
    # Live operations (repro.serve / repro.obs.live, v3).
    "slow_decision": frozenset({"session", "seconds", "threshold"}),
    "metrics_snapshot": frozenset({"counters", "gauges", "histograms"}),
}

#: Optional fields whose values are wall-clock measurements and therefore
#: outside the determinism contract (like the ``algorithm_time`` metric).
#: ``t`` is the elapsed-time stamp on enriched ``refine`` events;
#: ``t_start`` is the span start offset.
WALL_CLOCK_FIELDS = frozenset({"seconds", "t", "t_start"})


def validate_event(record: Any) -> list[str]:
    """Problems with one decoded event record (empty when valid)."""
    problems: list[str] = []
    if not isinstance(record, dict):
        return [f"event record must be an object, got {type(record).__name__}"]
    kind = record.get("event")
    if not isinstance(kind, str):
        problems.append("missing or non-string 'event' field")
        return problems
    if kind not in EVENT_FIELDS:
        problems.append(f"unknown event kind {kind!r}")
        return problems
    if not isinstance(record.get("seq"), int):
        problems.append(f"{kind}: missing or non-integer 'seq' field")
    missing = EVENT_FIELDS[kind] - record.keys()
    if missing:
        problems.append(f"{kind}: missing required fields {sorted(missing)}")
    if kind == "session_start":
        schema = record.get("schema")
        if schema is not None and schema not in SUPPORTED_SCHEMAS:
            problems.append(
                f"session_start: unsupported schema {schema!r} "
                f"(supported: {sorted(SUPPORTED_SCHEMAS)})"
            )
    return problems


def validate_stream(path: str | Path) -> list[str]:
    """Validate a JSONL run file; returns per-line problem strings.

    Checks every line parses as JSON, every event is schema-valid (for
    the version the stream's ``session_start`` declares), ``seq``
    increases monotonically, and the stream opens with ``session_start``
    and ends with ``session_end`` preceded by a ``summary``.

    An empty stream and a header-only stream (``session_start`` with no
    further events — what a run killed before its summary leaves behind)
    are both *valid*: truncation is not corruption, and the report CLI
    renders them as empty runs.  Framing is only enforced once events
    beyond the header appear.
    """
    problems: list[str] = []
    kinds: list[str] = []
    last_seq = -1
    schema = SCHEMA_VERSION
    with open(path, encoding="utf-8") as stream:
        for line_number, line in enumerate(stream, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                problems.append(f"line {line_number}: not JSON ({error})")
                continue
            for problem in validate_event(record):
                problems.append(f"line {line_number}: {problem}")
            if isinstance(record, dict):
                kind = str(record.get("event"))
                if kind == "session_start":
                    schema = record.get("schema", schema)
                elif (
                    kind == "summary"
                    and schema in TIMER_SCHEMAS
                    and "timers" not in record
                ):
                    problems.append(
                        f"line {line_number}: summary: {schema} requires "
                        "the 'timers' field"
                    )
                kinds.append(kind)
                seq = record.get("seq")
                if isinstance(seq, int):
                    if seq <= last_seq:
                        problems.append(
                            f"line {line_number}: seq {seq} not increasing "
                            f"(previous {last_seq})"
                        )
                    last_seq = seq
    # Framing ignores metrics_snapshot lines: the daemon's flusher stream
    # is a header followed by snapshots until the process dies, and a
    # kill mid-flight must not render the artifact invalid.
    framed = [kind for kind in kinds if kind != "metrics_snapshot"]
    if not framed or framed == ["session_start"]:
        return problems
    if framed[0] != "session_start":
        problems.append(f"stream must open with session_start, got {framed[0]!r}")
    if framed[-1] != "session_end":
        problems.append(f"stream must end with session_end, got {framed[-1]!r}")
    elif len(framed) < 2 or framed[-2] != "summary":
        problems.append("session_end must be preceded by a summary event")
    return problems
