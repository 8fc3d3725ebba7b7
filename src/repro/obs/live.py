"""Live snapshot and exposition layer over a running telemetry registry.

Everything in :mod:`repro.obs.telemetry` up to now was *post-hoc*: record a
campaign, read the JSONL afterwards.  This module is the **obs v3 runtime
metrics plane** — the pieces an operator polls while the process serves:

* :func:`snapshot` — a lock-safe, JSON-ready capture of every counter,
  gauge, and latency histogram on a live registry, taken from any
  thread while the hot paths keep writing (the lock-free writers can
  resize a dict mid-copy; the copy retries rather than locking the hot
  path);
* :func:`render_prometheus` — the snapshot as Prometheus text exposition
  (``# TYPE`` comments, cumulative ``_bucket{le=...}`` histogram series),
  rendered strictly in sorted metric-name order so two snapshots of the
  same state produce byte-identical text;
* :class:`SnapshotRing` — a bounded ring of timestamped snapshots for
  rate computation (decisions/second over the last poll window) without
  keeping unbounded history;
* :func:`format_watch` — the plain-stdout live view behind
  ``python -m repro.obs watch SOCKET``.

The daemon (:mod:`repro.serve.daemon`) flushes :func:`snapshot_event`
lines to JSONL on an interval — the ``metrics_snapshot`` event kind of
``repro-obs/v3`` — so the live plane leaves the same kind of replayable
artifact the post-hoc plane always has.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any

from repro.obs.telemetry import LATENCY_BUCKET_EDGES, Telemetry

__all__ = [
    "SnapshotRing",
    "format_watch",
    "render_prometheus",
    "snapshot",
    "snapshot_event",
]

#: Attempts a snapshot copy makes before falling back to a locked pass.
_COPY_RETRIES = 5


def _copy_live_dict(source: dict, lock) -> dict:
    """Copy a dict that lock-free writers may be resizing concurrently.

    ``dict(d)`` raises ``RuntimeError`` when a writer inserts a new key
    mid-iteration; retrying is almost always enough (insertions are rare —
    metric name sets stabilise after warm-up).  The last resort takes the
    registry lock, which only ever contends with other *readers* and the
    event/span paths, never the counter hot path.
    """
    for _ in range(_COPY_RETRIES):
        try:
            return dict(source)
        except RuntimeError:
            continue
    with lock:
        return dict(source)


def snapshot(telemetry: Telemetry) -> dict[str, Any]:
    """One JSON-ready capture of the registry's live state.

    Safe to call from any thread at any time; the instrumented hot paths
    are never blocked by it.  Histograms are rendered through
    :meth:`~repro.obs.telemetry.LatencyHistogram.summary`, so the
    quantiles in the snapshot are bucket-derived and two snapshots of
    identical bucket counts always agree.
    """
    lock = telemetry._lock
    counters = _copy_live_dict(telemetry.counters, lock)
    process_counters = _copy_live_dict(telemetry.process_counters, lock)
    gauges = _copy_live_dict(telemetry.gauges, lock)
    histograms = _copy_live_dict(telemetry.histograms, lock)
    return {
        "counters": {name: int(counters[name]) for name in sorted(counters)},
        "process_counters": {
            name: int(process_counters[name]) for name in sorted(process_counters)
        },
        "gauges": {name: float(gauges[name]) for name in sorted(gauges)},
        "histograms": {
            name: histograms[name].summary() for name in sorted(histograms)
        },
    }


def snapshot_event(telemetry: Telemetry, seq: int, t: float) -> dict[str, Any]:
    """A :func:`snapshot` framed as one ``metrics_snapshot`` JSONL event.

    ``t`` is the caller's elapsed-seconds stamp (wall-clock, outside the
    determinism contract, like every other ``t`` field in the schema).
    """
    record: dict[str, Any] = {"event": "metrics_snapshot", "seq": seq}
    record.update(snapshot(telemetry))
    record["t"] = round(t, 3)
    return record


# -- Prometheus text exposition -----------------------------------------------


def _metric_name(name: str) -> str:
    """``controller.decisions`` -> ``controller_decisions`` (charset-safe)."""
    return "".join(
        char if char.isalnum() or char == "_" else "_" for char in name
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(snap: dict[str, Any], prefix: str = "repro") -> str:
    """Render one :func:`snapshot` as Prometheus text exposition.

    Counters become ``<prefix>_<name>_total``, process counters the same
    (their names never collide with deterministic counters), gauges become
    plain gauges, and histograms become native Prometheus histograms with
    *cumulative* ``_bucket{le="..."}`` series over
    :data:`LATENCY_BUCKET_EDGES` plus ``_latency_seconds_sum``/``_count``
    (a window's total seconds and calls).  Every section iterates its
    metric names in sorted order — the R9xx determinism contract for
    emitted sequences — so the rendering of a given snapshot is
    byte-stable.
    """
    lines: list[str] = []

    for section in ("counters", "process_counters"):
        for name in sorted(snap.get(section, {})):
            metric = f"{prefix}_{_metric_name(name)}_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {_format_value(snap[section][name])}")

    for name in sorted(snap.get("gauges", {})):
        metric = f"{prefix}_{_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(snap['gauges'][name])}")

    for name in sorted(snap.get("histograms", {})):
        entry = snap["histograms"][name]
        metric = f"{prefix}_{_metric_name(name)}_latency_seconds"
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        counts = entry["counts"]
        for index, edge in enumerate(LATENCY_BUCKET_EDGES):
            cumulative += counts[index]
            lines.append(
                f'{metric}_bucket{{le="{format(edge, ".6g")}"}} {cumulative}'
            )
        cumulative += counts[len(LATENCY_BUCKET_EDGES)]
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {_format_value(entry['sum_seconds'])}")
        lines.append(f"{metric}_count {cumulative}")

    return "\n".join(lines) + "\n"


# -- snapshot ring / rates ----------------------------------------------------


class SnapshotRing:
    """A bounded ring of ``(t, snapshot)`` pairs for rate computation.

    The daemon's flusher and the watch CLI both push every snapshot they
    take; :meth:`rate` then answers "how fast is this counter moving?"
    over the retained window without either side keeping history.
    Timestamps come from the caller (one clock per polling loop), so the
    ring itself never reads the wall clock.
    """

    def __init__(self, capacity: int = 120):
        if capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {capacity}")
        self._ring: deque[tuple[float, dict[str, Any]]] = deque(maxlen=capacity)

    def push(self, t: float, snap: dict[str, Any]) -> None:
        """Retain one timestamped snapshot (oldest drops at capacity)."""
        self._ring.append((float(t), snap))

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def window_seconds(self) -> float:
        """Seconds between the oldest and newest retained snapshots."""
        if len(self._ring) < 2:
            return 0.0
        return self._ring[-1][0] - self._ring[0][0]

    def rate(self, name: str, section: str = "counters") -> float | None:
        """Per-second increase of ``section[name]`` across the window.

        ``None`` until two snapshots are retained or when time has not
        advanced between them.
        """
        if len(self._ring) < 2:
            return None
        (t_old, old), (t_new, new) = self._ring[0], self._ring[-1]
        dt = t_new - t_old
        if dt <= 0:
            return None
        delta = new.get(section, {}).get(name, 0) - old.get(section, {}).get(
            name, 0
        )
        return delta / dt


# -- terminal live view -------------------------------------------------------


def _quantile_cell(entry: dict[str, Any], key: str) -> str:
    value = entry.get(key)
    if value is None:
        return f">{LATENCY_BUCKET_EDGES[-1]:.0f}s"
    if value >= 1000.0:
        return f"{value / 1000.0:.2f}s"
    return f"{value:.2f}ms"


def _histogram_line(name: str, entry: dict[str, Any]) -> str:
    return (
        f"  {name:<28s} n={entry['count']:<8d} "
        f"p50={_quantile_cell(entry, 'p50_ms'):<9s} "
        f"p95={_quantile_cell(entry, 'p95_ms'):<9s} "
        f"p99={_quantile_cell(entry, 'p99_ms'):<9s} "
        f"max={_quantile_cell(entry, 'max_ms')}"
    )


def format_watch(
    metrics: dict[str, Any],
    stats: dict[str, Any] | None = None,
    ring: SnapshotRing | None = None,
) -> str:
    """Render one poll of a live daemon as the plain-text watch screen.

    ``metrics`` is a :func:`snapshot` (the daemon's ``metrics`` op in JSON
    form), ``stats`` the ``stats`` op payload, ``ring`` the poller's
    :class:`SnapshotRing` for rates.  Pure function of its inputs — the
    watch loop owns all clocks — and renders every enumerated section in
    sorted order.
    """
    counters = metrics.get("counters", {})
    process = metrics.get("process_counters", {})
    histograms = metrics.get("histograms", {})
    lines: list[str] = []

    header = "repro live metrics"
    if stats is not None:
        state = "draining" if stats.get("draining") else "serving"
        header = (
            f"repro.serve [{state}] — {stats.get('live_sessions', 0)} live "
            f"session(s), {stats.get('decisions', 0)} decisions, "
            f"{stats.get('bound_vectors', 0)} bound vectors"
        )
    lines.append(header)

    if ring is not None:
        rate = ring.rate("serve.decisions", section="process_counters")
        if rate is not None:
            lines.append(
                f"  decisions/s (last {ring.window_seconds:.0f}s window): "
                f"{rate:.2f}"
            )

    if histograms:
        lines.append("latency (bucket-derived quantiles):")
        for name in sorted(histograms):
            lines.append(_histogram_line(name, histograms[name]))

    attempts = counters.get("bounds.refinements", 0)
    accepted = counters.get("bounds.refinements_accepted", 0)
    if attempts:
        set_size = metrics.get("gauges", {}).get("bounds.set_size")
        suffix = "" if set_size is None else f", |B| {int(set_size)}"
        lines.append(
            f"refinement: {attempts} attempts, {accepted} accepted "
            f"({accepted / attempts:.1%}){suffix}"
        )

    hits = process.get("cache.hits", 0)
    lookups = hits + process.get("cache.builds", 0) + process.get(
        "cache.declines", 0
    )
    if lookups:
        lines.append(
            f"joint-factor cache: {hits}/{lookups} hits ({hits / lookups:.1%})"
        )

    if stats is not None and stats.get("sessions"):
        lines.append("sessions:")
        sessions = stats["sessions"]
        for session_id in sorted(sessions):
            entry = sessions[session_id]
            state = "done" if entry.get("done") else "open"
            lines.append(
                f"  {session_id:<20s} steps={entry.get('steps', 0):<5d} "
                f"{state}"
            )

    return "\n".join(lines) + "\n"
