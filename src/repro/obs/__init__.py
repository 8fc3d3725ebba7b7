"""``repro.obs`` — campaign-wide observability (telemetry + analytics).

The observability layer answers the questions the Table 1 aggregates and
single-episode traces cannot: where a campaign spends its time, how the
bound-vector set grows (Figure 5(b)'s storage story), why controllers
terminated, whether the solver/cache routing behaves as designed — and,
since v2, how fast the lower bound converges per refinement and whether a
change regressed the measured hot paths.

Six pieces:

* :mod:`repro.obs.telemetry` — the process-local registry (counters,
  gauges, latency histograms, hierarchical trace spans) and JSONL event
  sink, activated with :func:`session` and read from hot paths with
  :func:`active`; one primitive, :func:`repro.obs.telemetry.span`, times
  a window into its histogram and, when tracing, its trace span;
* :mod:`repro.obs.schema` — the ``repro-obs/v4`` event schema and stream
  validator (v1–v3 streams remain valid);
* :mod:`repro.obs.trace` — exporters for trace spans: Chrome
  ``trace_event`` JSON (``chrome://tracing`` / Perfetto) and
  collapsed-stack flamegraph lines;
* :mod:`repro.obs.convergence` — bound-convergence analytics over
  ``refine`` events (gap vs refinement index and vs wall-clock);
* :mod:`repro.obs.bench` — the canonical benchmark-snapshot schema and
  regression comparison (``bench compare OLD NEW --threshold PCT``);
* :mod:`repro.obs.report` — offline aggregation of a recorded run
  (``python -m repro.obs report run.jsonl``, ``--session ID`` to narrow
  a multi-session daemon stream);
* :mod:`repro.obs.live` — the v3 runtime metrics plane: lock-safe live
  snapshots, Prometheus text exposition, snapshot rings for rates, and
  the ``python -m repro.obs watch SOCKET`` terminal view of a running
  policy daemon.

Instrumentation is off by default; ``python -m repro.experiments
--telemetry PATH [--trace PATH] ...`` turns it on for one experiment run,
and the policy daemon (:mod:`repro.serve`) activates its own registry for
the serve lifetime.
"""

from repro.obs.live import SnapshotRing, render_prometheus, snapshot
from repro.obs.schema import (
    SCHEMA_VERSION,
    SUPPORTED_SCHEMAS,
    validate_event,
    validate_stream,
)
from repro.obs.telemetry import (
    LATENCY_BUCKET_EDGES,
    LatencyHistogram,
    SpanRecord,
    Telemetry,
    TelemetrySnapshot,
    activated,
    active,
    enabled,
    session,
)

__all__ = [
    "LATENCY_BUCKET_EDGES",
    "LatencyHistogram",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMAS",
    "SnapshotRing",
    "SpanRecord",
    "Telemetry",
    "TelemetrySnapshot",
    "activated",
    "active",
    "enabled",
    "render_prometheus",
    "session",
    "snapshot",
    "validate_event",
    "validate_stream",
]
