"""The policy service: one warm engine, many concurrent recovery sessions.

:class:`PolicyService` owns everything the daemon shares across
connections: the loaded :class:`~repro.recovery.model.RecoveryModel`, the
:class:`~repro.controllers.bounded.BoundedPolicyEngine` with its
RA-Bound-seeded (or warm-restarted) bound set, the session registry, and
the checkpointing of refined bounds back to disk.  It is transport-free —
the unix-socket daemon (:mod:`repro.serve.daemon`) and in-process callers
(tests, the perf snapshot) drive the same object.

Concurrency model: belief state is per-session, but every decision reads
the engine's shared bound set, and a refining decision also *writes* it.
One writer-preferring shared/exclusive engine lock keeps the two apart: a
decision whose session does not refine (opened with ``refine: false``, or
left at the default of a ``--no-refine`` daemon) holds it shared, so
read-only sessions decide in parallel; a refining decision and :meth:`checkpoint` hold it
exclusively, the same single-writer discipline the campaign engine gets
from chunk isolation.  The mode comes from
:meth:`~repro.controllers.engine.PolicyEngine.refines`, the flag
the engine itself refines by.  Each session also has its own lock, taken
before the engine lock, so two connections addressing one session take
turns.  Session bookkeeping (and the decision counter) uses a separate
registry lock so opens/closes never wait on a slow decision.

Since obs v3 the service also owns a :class:`~repro.obs.telemetry.Telemetry`
registry — the daemon activates it process-wide so the deep layers
(controller, bounds, cache) record into it, and in-process callers get the
service-level metrics regardless.  :meth:`metrics` snapshots it live
(:mod:`repro.obs.live`), :meth:`health`/:meth:`ready` answer the probe
ops, and decisions slower than ``config.slow_decision_seconds`` leave a
``slow_decision`` structured event carrying the offending span subtree
when tracing is on.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.controllers.bootstrap import bootstrap_bounds
from repro.controllers.bounded import BoundedPolicyEngine
from repro.controllers.engine import RecoverySession
from repro.exceptions import ServeError
from repro.io import load_bound_set, save_bound_set
from repro.obs.live import snapshot as live_snapshot
from repro.obs.telemetry import SpanRecord, Telemetry
from repro.obs.telemetry import active as telemetry_active
from repro.pomdp.cache import get_joint_cache
from repro.recovery.model import RecoveryModel

#: Telemetry gauge tracking the number of live sessions.
LIVE_SESSIONS_GAUGE = "serve.live_sessions"

#: How many of the newest buffered events the service telemetry keeps.  Its
#: registry has no sink, so without a bound every ``decision``, ``refine`` and
#: ``slow_decision`` event would stay in memory for the daemon's lifetime;
#: older ones are dropped and counted in ``obs.events_dropped``.
EVENT_BUFFER_CAPACITY = 1000

#: Latency-histogram name for service-level decisions (engine-lock wait
#: included — the queueing delay is what a caller actually experiences, so
#: it is what the serve-smoke SLO gate reads its p99 from).
SESSION_DECIDE_HISTOGRAM = "serve.session_decide"


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one policy-service process.

    Attributes:
        model_path: ``recovery-model`` archive to load (see
            :func:`repro.io.load_recovery_model`).  Ignored when a model
            object is handed to :class:`PolicyService` directly.
        socket_path: unix-socket path the daemon binds.
        bounds_path: bound-set archive for warm starts and checkpoints.
            When the file exists at startup the service *warm-starts* —
            reloads the refined set (R3xx-certified, digest-memoised)
            instead of re-paying RA-Bound seeding and bootstrap; either
            way, later checkpoints write here.  ``None`` disables
            persistence entirely.
        checkpoint_interval: seconds between automatic bound-set
            checkpoints (0 disables the interval thread; SIGTERM still
            checkpoints).
        depth: lookahead depth of the bounded policy.
        refine_online: engine-wide online-refinement default; individual
            sessions may override (``refine`` on open).
        refine_min_improvement: refinement acceptance threshold, in reward
            units.
        max_vectors: bound-vector storage limit for *cold* starts.
        bootstrap_iterations: cold-start bootstrap episodes (Section 4.1's
            off-line phase) run before serving; 0 serves straight off the
            RA-Bound seed.
        bootstrap_seed: RNG seed for the bootstrap phase.
        recertify: force the R3xx sweep on warm start even when the
            digest sidecar says the (archive, model) pair already passed.
        drain_timeout: seconds :meth:`PolicyService.drain` waits for live
            sessions to finish before giving up and reporting stragglers.
        slow_decision_seconds: decisions slower than this leave a
            ``slow_decision`` structured event on the service telemetry
            (with the span subtree when tracing is on); ``None`` disables
            the log.
        metrics_path: JSONL file the daemon's periodic metrics flusher
            writes ``metrics_snapshot`` events to (``None`` disables).
        metrics_interval: seconds between flushed snapshots (0 disables
            the flusher thread even when a path is set).
        trace: record hierarchical spans on the service telemetry, which
            lets the slow-decision log capture the offending subtree.
    """

    model_path: str | None = None
    socket_path: str = "repro-serve.sock"
    bounds_path: str | None = None
    checkpoint_interval: float = 300.0
    depth: int = 1
    refine_online: bool = True
    refine_min_improvement: float = 0.0
    max_vectors: int | None = None
    bootstrap_iterations: int = 0
    bootstrap_seed: int | None = field(default=2006)
    recertify: bool = False
    drain_timeout: float = 10.0
    slow_decision_seconds: float | None = None
    metrics_path: str | None = None
    metrics_interval: float = 10.0
    trace: bool = False


class _EngineLock:
    """A writer-preferring shared/exclusive lock.

    Any number of threads may hold it shared at once; an exclusive holder
    has it alone.  A writer takes the turnstile on arrival and keeps it
    until it is done, and every reader passes through the turnstile, so
    once a writer waits no new reader gets in: read-only traffic cannot
    starve a refinement or a checkpoint.  Not reentrant.
    """

    def __init__(self) -> None:
        self._turnstile = threading.Lock()
        # Held by the writer, or by the readers as a group: the first
        # reader in takes it and the last one out releases it.
        self._room = threading.Lock()
        self._readers_lock = threading.Lock()
        self._readers = 0

    @contextmanager
    def held(self, exclusive: bool) -> Iterator[None]:
        """Hold the lock for the ``with`` block, exclusively or shared."""
        if exclusive:
            with self._turnstile, self._room:
                yield
            return
        with self._turnstile:
            pass
        with self._readers_lock:
            self._readers += 1
            if self._readers == 1:
                self._room.acquire()
        try:
            yield
        finally:
            with self._readers_lock:
                self._readers -= 1
                if not self._readers:
                    self._room.release()


class PolicyService:
    """Shared engine + session registry + checkpointing (transport-free).

    Args:
        config: static configuration.
        model: a pre-built model, bypassing ``config.model_path`` (the
            in-process path tests and the perf snapshot use).
    """

    def __init__(self, config: ServiceConfig, model: RecoveryModel | None = None):
        self.config = config
        started = time.perf_counter()  # codelint: ignore[R903]
        if model is None:
            if config.model_path is None:
                raise ServeError("ServiceConfig.model_path or a model is required")
            from repro.io import load_recovery_model

            model = load_recovery_model(config.model_path)
        self.model = model

        # The service's own metrics registry (obs v3).  The daemon
        # activates it process-wide so the engine/bounds/cache layers
        # record into it too; in-process callers at least get the
        # service-level counters and histograms recorded below.
        self.telemetry = Telemetry(
            trace=config.trace, max_events=EVENT_BUFFER_CAPACITY
        )

        bound_set = None
        self.started_warm = False
        if config.bounds_path is not None:
            try:
                bound_set = load_bound_set(
                    config.bounds_path, model=model, recertify=config.recertify
                )
                self.started_warm = True
            except FileNotFoundError:
                bound_set = None
        if bound_set is None and config.bootstrap_iterations > 0:
            bound_set, _ = bootstrap_bounds(
                model,
                iterations=config.bootstrap_iterations,
                depth=config.depth,
                seed=config.bootstrap_seed,
            )
        self.engine = BoundedPolicyEngine(
            model,
            depth=config.depth,
            bound_set=bound_set,
            refine_online=config.refine_online,
            refine_min_improvement=config.refine_min_improvement,
            max_vectors=config.max_vectors if bound_set is None else None,
        )
        # Build the joint-factor cache now rather than on the first decide,
        # so the first session never pays the warm-up.
        get_joint_cache(model.pomdp)
        # Readiness: the bound set is certified either by the R3xx sweep a
        # warm load just passed (load_bound_set raises otherwise) or by
        # construction — RA-Bound seeding and bootstrap refinement only
        # produce sound vectors.  Constructing past this point therefore
        # certifies; the flag exists so ready() states it explicitly and a
        # future lazy-loading path has somewhere to say "not yet".
        self.bounds_certified = True
        self.startup_seconds = time.perf_counter() - started  # codelint: ignore[R903]

        self._sessions: dict[str, RecoverySession] = {}
        self._session_locks: dict[str, threading.Lock] = {}
        self._registry_lock = threading.Lock()
        # Guards the bound set: shared for decisions that only read it (and
        # for stats), exclusive for refining decisions and checkpoints.
        self._engine_lock = _EngineLock()
        self._next_session = 0
        self._draining = threading.Event()
        self._idle = threading.Condition(self._registry_lock)
        self.decisions = 0
        self.checkpoints = 0

    def _telemetry(self) -> Telemetry:
        """The registry service-level instrumentation records into.

        The process-active registry when one is activated (the daemon
        activates :attr:`telemetry` itself, so both names resolve to the
        same object there); the service's own registry otherwise, so
        in-process callers still accumulate service metrics.
        """
        active = telemetry_active()
        return self.telemetry if active is None else active

    # -- session registry -----------------------------------------------------

    @property
    def live_sessions(self) -> int:
        """Number of currently open sessions."""
        with self._registry_lock:
            return len(self._sessions)

    def _gauge_sessions_locked(self) -> None:
        self._telemetry().gauge(LIVE_SESSIONS_GAUGE, float(len(self._sessions)))

    def open_session(
        self,
        session_id: str | None = None,
        refine: bool | None = None,
        initial_belief=None,
    ) -> str:
        """Open (and reset) a new recovery session; returns its id.

        Args:
            session_id: client-chosen id; autogenerated (``s0``, ``s1``,
                ...) when omitted.  Re-using a live id is an error.
            refine: per-session override of the engine's online-refinement
                default — ``False`` gives a read-only session that never
                mutates the shared bound set (replay/audit traffic).
            initial_belief: belief to reset onto; the model's uniform
                fault prior when omitted.
        """
        if self._draining.is_set():
            raise ServeError("service is draining; not accepting new sessions")
        session = self.engine.session(refine=refine)
        # Reset before registering, so a rejected belief leaves no session.
        belief = None if initial_belief is None else np.asarray(initial_belief)
        session.reset(belief)
        with self._registry_lock:
            if session_id is None:
                session_id = f"s{self._next_session}"
                self._next_session += 1
            elif session_id in self._sessions:
                raise ServeError(f"session {session_id!r} is already open")
            session.session_id = session_id
            self._sessions[session_id] = session
            self._session_locks[session_id] = threading.Lock()
            self._gauge_sessions_locked()
        self._telemetry().count_process("serve.sessions_opened")
        return session_id

    def _session(self, session_id: str) -> tuple[RecoverySession, threading.Lock]:
        """The open session ``session_id`` and the lock its requests take."""
        with self._registry_lock:
            try:
                return self._sessions[session_id], self._session_locks[session_id]
            except KeyError:
                raise ServeError(f"unknown session {session_id!r}") from None

    def observe(self, session_id: str, action: int, observation: int) -> None:
        """Fold monitor outputs into one session's belief (Eq. 4).

        Holds the session's lock, so concurrent updates of one session
        apply one after the other instead of both reading the old belief.
        """
        session, session_lock = self._session(session_id)
        with session_lock:
            session.observe(int(action), int(observation))
        self._telemetry().count_process("serve.observations")

    def decide(self, session_id: str) -> dict:
        """One decision for ``session_id``.

        Holds the session's lock, then the engine lock: shared when the
        session does not refine, so read-only sessions decide in parallel,
        and exclusive when it does, so a refinement never runs beside any
        other decision (see the module's concurrency model).  The whole
        call, lock waits included, feeds the
        :data:`SESSION_DECIDE_HISTOGRAM` latency histogram, and decisions
        slower than ``config.slow_decision_seconds`` leave a
        ``slow_decision`` structured event carrying the call's span
        subtree (when tracing is on).
        """
        session, session_lock = self._session(session_id)
        telemetry = self._telemetry()
        with telemetry.span(SESSION_DECIDE_HISTOGRAM, category="serve") as call:
            with session_lock, self._engine_lock.held(self.engine.refines(session)):
                decision = session.decide()
                done, steps = session.done, session.steps
        with self._registry_lock:
            self.decisions += 1
        telemetry.count_process("serve.decisions")
        threshold = self.config.slow_decision_seconds
        if threshold is not None and call.seconds > threshold:
            self._log_slow_decision(
                telemetry, session_id, call.seconds, threshold, call.span_id
            )
        action_label = None
        if decision.executes_action:
            action_label = self.model.pomdp.action_labels[decision.action]
        return {
            "action": int(decision.action),
            "action_label": action_label,
            "terminate": bool(decision.is_terminate),
            "value": None if decision.value is None else float(decision.value),
            "done": bool(done),
            "steps": int(steps),
        }

    def _log_slow_decision(
        self,
        telemetry: Telemetry,
        session_id: str,
        elapsed: float,
        threshold: float,
        root_id: int | None,
    ) -> None:
        """Emit a ``slow_decision`` event, with the offending span subtree.

        ``root_id`` is the id of the call's own
        :data:`SESSION_DECIDE_HISTOGRAM` span (``None`` when not tracing).
        The event carries that span and every span below it, in recording
        order, and none of the spans other connection threads record
        meanwhile (read-only decisions overlap).  It is capped so one
        pathological decision cannot bloat the event stream.
        """
        subtree: list[SpanRecord] = []
        if root_id is not None:
            # A span is recorded when it ends, so after its children:
            # walking back from the newest, a subtree span's parent is met
            # before the span itself.
            members = {root_id}
            with telemetry._lock:
                for record in reversed(telemetry.spans):
                    if record.span_id in members or record.parent_id in members:
                        members.add(record.span_id)
                        subtree.append(record)
            subtree.reverse()
        telemetry.count_process("serve.slow_decisions")
        telemetry.event(
            "slow_decision",
            session=session_id,
            seconds=round(elapsed, 9),
            threshold=threshold,
            spans=[record.event_fields() for record in subtree[:100]],
        )

    def close_session(self, session_id: str) -> None:
        """Forget a session (idempotent: closing twice is an error)."""
        with self._registry_lock:
            if session_id not in self._sessions:
                raise ServeError(f"unknown session {session_id!r}")
            del self._sessions[session_id]
            del self._session_locks[session_id]
            self._gauge_sessions_locked()
            self._idle.notify_all()
        self._telemetry().count_process("serve.sessions_closed")

    # -- shared-state maintenance ---------------------------------------------

    def checkpoint(self, path: str | None = None) -> str | None:
        """Atomically persist the refined bound set; returns the path.

        The engine lock is held exclusively across the save, so neither a
        refinement nor a read-only decision's usage credits land
        mid-serialisation; :func:`repro.io.save_bound_set` is itself
        tmp-then-rename atomic, so a crash mid-checkpoint leaves the
        previous checkpoint intact.  Returns ``None`` when persistence is
        disabled (no path configured or given).
        """
        target = path if path is not None else self.config.bounds_path
        if target is None:
            return None
        with self._engine_lock.held(exclusive=True):
            save_bound_set(target, self.engine.bound_set)
            self.checkpoints += 1
        self._telemetry().count_process("serve.checkpoints")
        return str(target)

    def stats(self) -> dict:
        """Operational snapshot (the ``stats`` protocol op).

        The per-session table is built under a *single* registry-lock
        acquisition, so the session list and the live count always agree
        with each other even while other threads open and close sessions.
        """
        with self._registry_lock:
            live = len(self._sessions)
            sessions = {
                session_id: {
                    "steps": int(session.steps),
                    "done": bool(session.done),
                    "refine": self.engine.refines(session),
                }
                for session_id, session in sorted(self._sessions.items())
            }
        with self._engine_lock.held(exclusive=False):
            vectors = int(self.engine.bound_set.vectors.shape[0])
        return {
            "live_sessions": live,
            "sessions_opened": self._next_session,
            "decisions": self.decisions,
            "checkpoints": self.checkpoints,
            "bound_vectors": vectors,
            "started_warm": self.started_warm,
            "startup_seconds": self.startup_seconds,
            "draining": self._draining.is_set(),
            "model_states": int(self.model.pomdp.n_states),
            "sessions": sessions,
        }

    # -- live metrics / probes ------------------------------------------------

    def metrics(self) -> dict:
        """Live snapshot of the service telemetry (the ``metrics`` op).

        Lock-safe against concurrent writers; see
        :func:`repro.obs.live.snapshot`.
        """
        return live_snapshot(self._telemetry())

    def health(self) -> dict:
        """Liveness payload: the process is up and answering (``health`` op).

        Unlike :meth:`ready`, health stays true while draining — the
        process is still alive and finishing in-flight recoveries.
        """
        return {
            "healthy": True,
            "draining": self._draining.is_set(),
            "live_sessions": self.live_sessions,
            "decisions": self.decisions,
            "started_warm": self.started_warm,
        }

    def ready(self) -> dict:
        """Readiness payload (the ``ready`` op).

        Ready means the model is loaded, the bound set is certified, and
        the service is not draining — i.e. a load balancer may route new
        sessions here.
        """
        draining = self._draining.is_set()
        return {
            "ready": self.bounds_certified and not draining,
            "model_loaded": True,
            "bounds_certified": self.bounds_certified,
            "draining": draining,
        }

    # -- shutdown -------------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has been called."""
        return self._draining.is_set()

    def drain(self, timeout: float | None = None) -> int:
        """Stop accepting sessions and wait for the live ones to close.

        Returns the number of sessions still open when the wait ended (0
        is the graceful outcome).  The daemon calls this on SIGTERM before
        the final checkpoint, so in-flight recoveries get ``drain_timeout``
        seconds to reach their terminate decision.
        """
        self._draining.set()
        budget = self.config.drain_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget  # codelint: ignore[R903]
        with self._registry_lock:
            while self._sessions:
                remaining = deadline - time.monotonic()  # codelint: ignore[R903]
                if remaining <= 0 or not self._idle.wait(timeout=remaining):
                    break
            return len(self._sessions)
