"""Process-local telemetry registry, JSONL event stream, and span tracing.

The observability layer has four kinds of state, mirroring the usual
metrics taxonomy:

* **counters** — monotonically increasing integers ("decisions made",
  "bound vectors added").  Split into two namespaces: :attr:`Telemetry.counters`
  holds *deterministic* counters, guaranteed by the campaign engine to be
  identical for serial and sharded runs of the same seeded campaign (the
  same contract :func:`repro.sim.metrics.campaign_fingerprint` states for
  metrics); :attr:`Telemetry.process_counters` holds process-local facts —
  cache builds, which happen once per worker process — that legitimately
  vary with the worker count, exactly as ``algorithm_time`` does.
* **gauges** — last-written floats ("bound-set size"), merged across
  campaign chunks by maximum (the storage story of Figure 5(b) cares about
  the high-water mark).
* **latency histograms** — fixed-bucket distributions of wall-clock
  durations, one per timed window.  The bucket edges are the module
  constant :data:`LATENCY_BUCKET_EDGES` — log-spaced, four per decade
  from 10 µs to 100 s — so histograms from different workers,
  chunks, or processes merge by plain element-wise addition and the
  aggregate never depends on merge order or worker count (the same
  algebra the deterministic counters rely on).  Quantiles (p50/p95/p99)
  and the maximum are *derived from the bucket counts* — the reported
  value is a bucket upper edge, never a raw wall-clock sample — so any
  two registries holding the same counts report the same quantiles.  The
  recorded durations themselves (and each histogram's ``sum_seconds``)
  are wall-clock and sit outside the determinism contract.
* **trace spans** — *hierarchical* wall-clock spans with parent ids,
  recorded when the registry was created with ``trace=True``.  Where a
  histogram aggregates ("how long does ``solver.solve`` take"), trace
  spans keep every occurrence with its position in the call tree
  (campaign → episode → decision → tree expansion → leaf batch → solver
  call → cache lookup), ready for export to Chrome
  ``trace_event`` JSON or a collapsed-stack flamegraph
  (:mod:`repro.obs.trace`).  Span storage is a bounded ring buffer
  (:data:`DEFAULT_MAX_SPANS`, override with ``REPRO_MAX_TRACE_SPANS``):
  when full, the oldest span is dropped and the ``trace.events_dropped``
  counter incremented, so tracing can never OOM a long campaign.

One primitive feeds the last two: :meth:`Telemetry.span` (or the
module-level :func:`span`, which resolves the active registry) times a
``with`` block, always records the duration in the ``name`` histogram,
and also appends a :class:`SpanRecord` when the registry traces — so a
window has one name everywhere it is reported.  The only hand-fed
histogram is ``session.decide``, which reuses the algorithm-time
stopwatch's clock reads (:meth:`Telemetry.observe_latency`).

Events are dictionaries with an ``event`` kind (see
:mod:`repro.obs.schema`) appended to a JSONL sink when one is attached, or
buffered in memory otherwise (campaign chunks buffer; the coordinating
process owns the file).  A long-lived registry with no sink (the policy
service's) bounds its buffer with ``max_events``, keeping the newest.

Instrumentation is **off by default**.  Hot paths guard with::

    telemetry = active()
    if telemetry is not None:
        telemetry.count("controller.decisions")
    with span("controller.decision", category="controller"):
        ...

which costs one function call and a ``None`` test per guard when
disabled — far below the noise floor of any measured path (see
EXPERIMENTS.md for numbers) — and :func:`span` returns a shared no-op
context manager, building no span object, when no registry is active.
"""

from __future__ import annotations

import json
import math
import threading
import time
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from repro.obs.schema import SCHEMA_VERSION
from repro.util.validation import int_setting

#: Default capacity of the per-registry span ring buffer.  At ~150 bytes a
#: span this bounds trace storage to tens of megabytes; override with the
#: ``REPRO_MAX_TRACE_SPANS`` environment variable or the ``max_spans``
#: constructor argument.
DEFAULT_MAX_SPANS = 200_000

#: Environment variable overriding :data:`DEFAULT_MAX_SPANS`.
MAX_SPANS_ENV = "REPRO_MAX_TRACE_SPANS"

#: Counter incremented when the span ring buffer drops its oldest span.
SPANS_DROPPED_COUNTER = "trace.events_dropped"

#: Process counter incremented when a bounded event buffer (``max_events``)
#: drops its oldest sink-less event.
EVENTS_DROPPED_COUNTER = "obs.events_dropped"

#: Latency-histogram bucket *upper* edges in seconds: log-spaced, four per
#: decade, 10 µs .. 100 s (29 edges; a 30th implicit overflow bucket
#: catches anything slower).  Defined as a constant so every registry —
#: serial, per-chunk, per-process — buckets identically and aggregation
#: reduces to element-wise addition of counts, independent of worker
#: count or merge order.
LATENCY_BUCKET_EDGES: tuple[float, ...] = tuple(
    10.0 ** (k / 4.0) for k in range(-20, 9)
)

#: Quantiles the summary/exposition layers derive from bucket counts.
HISTOGRAM_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


class LatencyHistogram:
    """Fixed-bucket latency distribution over :data:`LATENCY_BUCKET_EDGES`.

    ``counts[i]`` counts observations with ``value <= LATENCY_BUCKET_EDGES[i]``
    (exclusive of the previous edge); the final slot counts overflow
    (``value > 100 s``).  ``sum_seconds`` accumulates the raw durations for
    rate/mean reporting — wall-clock, outside the determinism contract.
    Everything quantile-like is derived from the
    bucket counts alone (:meth:`quantile`, :meth:`max_seconds`), so two
    histograms with identical counts always report identical statistics.
    """

    __slots__ = ("counts", "sum_seconds")

    def __init__(
        self,
        counts: list[int] | tuple[int, ...] | None = None,
        sum_seconds: float = 0.0,
    ):
        if counts is None:
            self.counts = [0] * (len(LATENCY_BUCKET_EDGES) + 1)
        else:
            if len(counts) != len(LATENCY_BUCKET_EDGES) + 1:
                raise ValueError(
                    f"histogram counts must have {len(LATENCY_BUCKET_EDGES) + 1} "
                    f"slots, got {len(counts)}"
                )
            self.counts = list(counts)
        self.sum_seconds = float(sum_seconds)

    def record(self, seconds: float) -> None:
        """Bucket one duration (a plain list-slot increment, GIL-atomic)."""
        self.counts[bisect_left(LATENCY_BUCKET_EDGES, seconds)] += 1
        self.sum_seconds += seconds

    @property
    def total(self) -> int:
        """Number of recorded observations."""
        return sum(self.counts)

    def merge(self, counts: list[int] | tuple[int, ...], sum_seconds: float) -> None:
        """Fold another histogram's counts in (element-wise addition)."""
        for index, count in enumerate(counts):
            self.counts[index] += count
        self.sum_seconds += sum_seconds

    def quantile(self, q: float) -> float:
        """Upper bucket edge at cumulative fraction ``q`` (seconds).

        Returns ``math.inf`` when the quantile lands in the overflow
        bucket, and ``0.0`` for an empty histogram.  Derived from counts
        only — never from the order or exact values of the observations.
        """
        total = self.total
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= target:
                if index < len(LATENCY_BUCKET_EDGES):
                    return LATENCY_BUCKET_EDGES[index]
                return math.inf
        return math.inf  # pragma: no cover - cumulative always reaches total

    def max_seconds(self) -> float:
        """Upper edge of the highest non-empty bucket (0.0 when empty)."""
        for index in range(len(self.counts) - 1, -1, -1):
            if self.counts[index]:
                if index < len(LATENCY_BUCKET_EDGES):
                    return LATENCY_BUCKET_EDGES[index]
                return math.inf
        return 0.0

    def summary(self) -> dict[str, Any]:
        """The histogram as the ``summary``/snapshot payload entry.

        Quantiles are reported in milliseconds; an overflow-bucket
        quantile renders as ``None`` (JSON has no infinity).
        """

        def edge_ms(seconds: float) -> float | None:
            if math.isinf(seconds):
                return None
            return round(seconds * 1000.0, 6)

        return {
            "count": self.total,
            "sum_seconds": round(self.sum_seconds, 9),
            "counts": list(self.counts),
            "p50_ms": edge_ms(self.quantile(0.5)),
            "p95_ms": edge_ms(self.quantile(0.95)),
            "p99_ms": edge_ms(self.quantile(0.99)),
            "max_ms": edge_ms(self.max_seconds()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LatencyHistogram(count={self.total})"


def span_ring_capacity(max_spans: int | None = None) -> int:
    """Resolve the span ring-buffer capacity.

    Precedence: the ``max_spans`` argument, then ``REPRO_MAX_TRACE_SPANS``
    in the environment, then :data:`DEFAULT_MAX_SPANS`.

    Raises:
        ValueError: the chosen value is not an integer >= 1; the message
            names ``max_spans`` or ``REPRO_MAX_TRACE_SPANS``, whichever
            supplied it.
    """
    return int_setting(max_spans, "max_spans", MAX_SPANS_ENV, DEFAULT_MAX_SPANS, 1)


@dataclass(frozen=True)
class SpanRecord:
    """One completed trace span.

    Attributes:
        span_id: registry-unique id, allocated at span *start* so children
            (which finish first) can reference their parent.
        parent_id: the enclosing span's id, or ``None`` for a root span.
        name: span label (``"episode"``, ``"tree.expand"``, ...).
        category: coarse grouping shown as the Chrome-trace ``cat`` lane.
        t_start: start offset in seconds from the recording registry's
            epoch (rebased onto the absorbing registry's virtual timeline
            when a chunk snapshot is merged).
        seconds: span duration (wall-clock; outside the determinism
            contract, like every other wall-clock field).
        args: sorted ``(key, value)`` pairs of structured span arguments.
    """

    span_id: int
    parent_id: int | None
    name: str
    category: str
    t_start: float
    seconds: float
    args: tuple[tuple[str, Any], ...] = ()

    def event_fields(self) -> dict[str, Any]:
        """The span as the payload of a ``span`` JSONL event."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "category": self.category,
            "t_start": round(self.t_start, 9),
            "seconds": round(self.seconds, 9),
            "args": dict(self.args),
        }


class _Span:
    """One timed window: a latency-histogram observation on exit, plus a
    :class:`SpanRecord` when the registry traces.

    After the ``with`` block, :attr:`seconds` holds the window's duration,
    so a call site that also reports the duration reads it here rather
    than timing the same call a second time.
    """

    __slots__ = ("_telemetry", "_name", "_category", "_args", "_span_id",
                 "_parent_id", "_started", "seconds")

    def __init__(
        self,
        telemetry: Telemetry,
        name: str,
        category: str,
        args: dict[str, Any],
    ):
        self._telemetry = telemetry
        self._name = name
        self._category = category
        self._args = args

    @property
    def span_id(self) -> int | None:
        """The window's trace-span id once entered; ``None`` untraced."""
        return self._span_id if self._telemetry.trace_enabled else None

    def __enter__(self) -> _Span:
        telemetry = self._telemetry
        if telemetry.trace_enabled:
            with telemetry._lock:
                self._span_id = telemetry._next_span_id
                telemetry._next_span_id += 1
            # The open-span stack is thread-local: concurrent sessions (the
            # policy service runs one thread per connection) each nest their
            # own spans without seeing each other's parents.
            stack = telemetry._span_stack
            self._parent_id = stack[-1] if stack else None
            stack.append(self._span_id)
        self._started = time.perf_counter()  # codelint: ignore[R903]
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._started  # codelint: ignore[R903]
        telemetry = self._telemetry
        telemetry.observe_latency(self._name, self.seconds)
        if telemetry.trace_enabled:
            telemetry._span_stack.pop()
            telemetry._append_span(
                SpanRecord(
                    span_id=self._span_id,
                    parent_id=self._parent_id,
                    name=self._name,
                    category=self._category,
                    t_start=self._started - telemetry._epoch,
                    seconds=self.seconds,
                    args=tuple(sorted(self._args.items())),
                )
            )


#: Shared no-op context manager :func:`span` returns when no registry is
#: active (``nullcontext`` is reentrant and reusable).
_NULL_SPAN = nullcontext()


@dataclass(frozen=True)
class TelemetrySnapshot:
    """A picklable capture of one :class:`Telemetry`'s accumulated state.

    Campaign chunks run episodes against a private buffering telemetry and
    hand a snapshot back to the join step (:mod:`repro.sim.parallel`), which
    absorbs snapshots in chunk order — so the aggregated registry never
    depends on which worker ran which chunk.
    """

    counters: dict[str, int] = field(default_factory=dict)
    process_counters: dict[str, int] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    #: name -> (bucket counts over LATENCY_BUCKET_EDGES + overflow, sum s).
    histograms: dict[str, tuple[tuple[int, ...], float]] = field(
        default_factory=dict
    )
    events: tuple[dict[str, Any], ...] = ()
    spans: tuple[SpanRecord, ...] = ()


class Telemetry:
    """One process-local registry plus an optional JSONL event sink.

    Args:
        sink: an open text stream to write events to as JSONL, one object
            per line.  ``None`` buffers events in memory instead (the mode
            campaign chunks use; :meth:`snapshot` carries the buffer back to
            the coordinating process).
        trace: also record a :class:`SpanRecord` for every :meth:`span`.
            Off by default — spans then feed only the latency histograms.
        max_spans: span ring-buffer capacity (see :func:`span_ring_capacity`).
        max_events: keep only this many of the newest buffered (sink-less)
            events, counting each dropped one in the
            :data:`EVENTS_DROPPED_COUNTER` process counter.  ``None`` (the
            default) keeps them all, which campaign chunks need: their
            snapshots re-emit every event at the join.
    """

    def __init__(
        self,
        sink: IO[str] | None = None,
        trace: bool = False,
        max_spans: int | None = None,
        max_events: int | None = None,
    ):
        if max_events is not None and max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events!r}")
        self.counters: Counter[str] = Counter()
        self.process_counters: Counter[str] = Counter()
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, LatencyHistogram] = {}
        self.trace_enabled = bool(trace)
        self.max_spans = span_ring_capacity(max_spans)
        self.spans: deque[SpanRecord] = deque()
        self._sink = sink
        self._buffer: deque[dict[str, Any]] = deque(maxlen=max_events)
        self._seq = 0
        self._epoch = time.perf_counter()  # codelint: ignore[R903]
        self._next_span_id = 0
        #: Virtual-timeline cursor for rebased chunk spans (seconds).
        self._trace_cursor = 0.0
        # Span-id allocation, the span ring buffer, and event emission are
        # guarded so concurrent sessions (the policy service's threads) can
        # share one registry; the open-span stack is kept per thread.  The
        # plain counter/gauge/histogram paths stay lock-free — they are the
        # campaign hot path, single-threaded by construction, and a lost
        # increment under concurrent writers costs accuracy, not safety.
        self._lock = threading.RLock()
        self._local = threading.local()

    @property
    def _span_stack(self) -> list[int]:
        """This thread's stack of open span ids."""
        stack = getattr(self._local, "span_stack", None)
        if stack is None:
            stack = []
            self._local.span_stack = stack
        return stack

    # -- registry -------------------------------------------------------------

    def count(self, name: str, delta: int = 1) -> None:
        """Increment a deterministic campaign counter."""
        self.counters[name] += delta

    def count_process(self, name: str, delta: int = 1) -> None:
        """Increment a process-local counter (exempt from determinism)."""
        self.process_counters[name] += delta

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of ``name`` (merged by max across chunks)."""
        self.gauges[name] = float(value)

    def observe_latency(self, name: str, seconds: float) -> None:
        """Bucket one duration into the ``name`` latency histogram.

        Buckets are the fixed :data:`LATENCY_BUCKET_EDGES`, so histograms
        of the same name merge additively across chunks and processes.
        Histogram *creation* is guarded by the registry lock (concurrent
        service threads may race the first observation); recording itself
        is a plain list-slot increment, lock-free like the counters.
        """
        histogram = self.histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self.histograms.setdefault(name, LatencyHistogram())
        histogram.record(seconds)

    def span(self, name: str, category: str = "repro", **args: Any) -> _Span:
        """A context manager timing one window as ``name``.

        The duration always lands in the ``name`` latency histogram; with
        tracing on, the window is also recorded as a :class:`SpanRecord`
        whose parent is whatever span is open on this thread, so nesting
        ``with`` blocks produces the call tree.  ``category`` and ``args``
        only reach the trace record.
        """
        return _Span(self, name, category, args)

    def elapsed(self) -> float:
        """Seconds since this registry was created (its trace epoch)."""
        return time.perf_counter() - self._epoch  # codelint: ignore[R903]

    # -- trace spans ----------------------------------------------------------

    def _append_span(self, record: SpanRecord) -> None:
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.spans.popleft()
                self.counters[SPANS_DROPPED_COUNTER] += 1
            self.spans.append(record)

    @property
    def events_dropped(self) -> int:
        """Spans dropped by the ring buffer since creation."""
        return self.counters[SPANS_DROPPED_COUNTER]

    # -- events ---------------------------------------------------------------

    def event(self, kind: str, /, **fields: Any) -> None:
        """Record one structured event (written to the sink or buffered)."""
        with self._lock:
            record: dict[str, Any] = {"event": kind, "seq": self._seq}
            record.update(fields)
            self._seq += 1
            if self._sink is not None:
                self._sink.write(json.dumps(record) + "\n")
                return
            if len(self._buffer) == self._buffer.maxlen:
                self.process_counters[EVENTS_DROPPED_COUNTER] += 1
            self._buffer.append(record)

    # -- chunk merge protocol -------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Capture the registry plus any buffered events (picklable)."""
        return TelemetrySnapshot(
            counters=dict(self.counters),
            process_counters=dict(self.process_counters),
            gauges=dict(self.gauges),
            histograms={
                name: (tuple(histogram.counts), histogram.sum_seconds)
                for name, histogram in self.histograms.items()
            },
            events=tuple(self._buffer),
            spans=tuple(self.spans),
        )

    def absorb(
        self, snapshot: TelemetrySnapshot, chunk: int | None = None
    ) -> None:
        """Fold a chunk snapshot into this registry.

        Counters add, gauges keep the maximum, histograms add bucket-wise,
        and the snapshot's buffered events are re-emitted here (tagged with the
        ``chunk`` index when given) so they reach this telemetry's sink in
        the order the caller absorbs chunks — which the campaign engine
        guarantees is chunk order, independent of the worker count.

        Trace spans are merged the same way: each chunk's spans keep their
        internal hierarchy, get fresh (offset) span ids, are re-parented
        under whatever span is open here (the campaign span, during a
        campaign), and have their timestamps rebased onto this registry's
        virtual timeline — chunk ``c`` starts where chunk ``c-1`` ended.
        Absorbing in chunk order therefore yields a span stream whose
        *structure* (names, nesting, order, counts) is identical whatever
        the worker count; only the wall-clock durations vary, exactly as
        ``algorithm_time`` does.
        """
        self.counters.update(snapshot.counters)
        self.process_counters.update(snapshot.process_counters)
        for name, value in snapshot.gauges.items():
            self.gauges[name] = max(self.gauges.get(name, value), value)
        # Histograms merge by element-wise bucket addition — commutative
        # and associative, so the aggregate is identical whatever the
        # chunking (asserted worker-count invariant in tests, the same
        # contract as the counters above).
        for name, (counts, sum_seconds) in snapshot.histograms.items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms.setdefault(name, LatencyHistogram())
            histogram.merge(counts, sum_seconds)
        for record in snapshot.events:
            fields = {
                key: value
                for key, value in record.items()
                if key not in ("event", "seq")
            }
            if chunk is not None:
                fields["chunk"] = chunk
            self.event(record["event"], **fields)
        if snapshot.spans:
            self._absorb_spans(snapshot.spans, chunk)

    def _absorb_spans(
        self, spans: tuple[SpanRecord, ...], chunk: int | None
    ) -> None:
        with self._lock:
            self._absorb_spans_locked(spans, chunk)

    def _absorb_spans_locked(
        self, spans: tuple[SpanRecord, ...], chunk: int | None
    ) -> None:
        id_offset = self._next_span_id
        stack = self._span_stack
        reparent = stack[-1] if stack else None
        t0 = min(record.t_start for record in spans)
        extent = max(record.t_start + record.seconds for record in spans) - t0
        base = self._trace_cursor
        max_id = 0
        chunk_tag = () if chunk is None else (("chunk", chunk),)
        for record in spans:
            max_id = max(max_id, record.span_id)
            self._append_span(
                SpanRecord(
                    span_id=record.span_id + id_offset,
                    parent_id=(
                        reparent
                        if record.parent_id is None
                        else record.parent_id + id_offset
                    ),
                    name=record.name,
                    category=record.category,
                    t_start=record.t_start - t0 + base,
                    seconds=record.seconds,
                    args=record.args + chunk_tag,
                )
            )
        self._next_span_id = id_offset + max_id + 1
        self._trace_cursor = base + extent

    def summary_fields(self) -> dict[str, Any]:
        """The aggregate registry as the ``summary`` event's payload."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "process_counters": dict(sorted(self.process_counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: histogram.summary()
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Telemetry(counters={len(self.counters)}, "
            f"events_buffered={len(self._buffer)}, "
            f"spans={len(self.spans)}, "
            f"sink={'attached' if self._sink is not None else 'buffer'})"
        )


# -- process-local activation -------------------------------------------------

_ACTIVE: Telemetry | None = None


def active() -> Telemetry | None:
    """The currently activated telemetry, or ``None`` when disabled.

    This is the hot-path accessor: instrumented code calls it at every
    instrumentation point and skips all work when it returns ``None``.
    """
    return _ACTIVE


def span(
    name: str, category: str = "repro", **args: Any
) -> _Span | nullcontext[None]:
    """:meth:`Telemetry.span` on the active registry.

    With no registry active this returns the shared no-op context manager
    and builds no span object, so instrumented code opens the same
    ``with`` block whether or not telemetry is on.
    """
    telemetry = _ACTIVE
    if telemetry is None:
        return _NULL_SPAN
    return _Span(telemetry, name, category, args)


def enabled() -> bool:
    """True when a telemetry registry is currently activated."""
    return _ACTIVE is not None


@contextmanager
def activated(telemetry: Telemetry | None) -> Iterator[Telemetry | None]:
    """Temporarily swap the process-active telemetry (``None`` disables).

    Campaign chunks use this to capture episode instrumentation into a
    private buffering registry — and, just as importantly, to *shield* the
    caller's registry from being written twice when chunks run in-process
    (the chunk's snapshot is absorbed at the join step instead).
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


@contextmanager
def session(
    path: str | Path | None = None,
    trace: bool = False,
    max_spans: int | None = None,
) -> Iterator[Telemetry]:
    """Activate telemetry for a ``with`` block, optionally writing JSONL.

    Opens ``path`` (when given) as the event sink, emits ``session_start``,
    runs the block with the registry activated, and on exit emits the
    aggregate ``summary`` event followed by ``session_end`` before closing
    the file.  Without a path, events are buffered in memory and available
    via :meth:`Telemetry.snapshot`.

    With ``trace=True``, hierarchical spans are recorded (ring-buffered at
    ``max_spans``) and serialised as ``span`` events just before the
    summary, so the JSONL stream is self-contained for the exporters of
    :mod:`repro.obs.trace`; the spans also stay available on the yielded
    registry's :attr:`Telemetry.spans` for in-process export.
    """
    sink: IO[str] | None = None
    if path is not None:
        sink = open(path, "w", encoding="utf-8")
    telemetry = Telemetry(sink=sink, trace=trace, max_spans=max_spans)
    telemetry.event("session_start", schema=SCHEMA_VERSION)
    try:
        with activated(telemetry):
            yield telemetry
    finally:
        for record in telemetry.spans:
            telemetry.event("span", **record.event_fields())
        telemetry.event("summary", **telemetry.summary_fields())
        telemetry.event("session_end")
        if sink is not None:
            sink.close()
