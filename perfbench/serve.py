"""``serve_emn`` and ``serve_tiered300k``: the policy daemon in a closed loop.

The daemon is started as an operator would start it (``python -m
repro.serve`` on a model archive, cold, with a fresh bound-set path), and
one generator process drives it over the unix socket with
:data:`CONNECTIONS` connections.  Each connection plays a recovery agent:
for every incident it opens a session, sends the detection-time monitor
output, then decides, executes on its own ``RecoveryEnvironment`` and
observes until the daemon says ``terminate``, and closes the session.  The
loop is closed: an agent cannot ask for its next action before it has
executed the last one and read the monitors.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.controllers.bounded import BoundedPolicyEngine
from repro.exceptions import ReproError, ServeError
from repro.io import load_bound_set, load_recovery_model, save_recovery_model
from repro.linalg.ops import observation_matrix_dense
from repro.serve.client import ServiceClient
from repro.sim.campaign import DEFAULT_MAX_STEPS
from repro.sim.environment import RecoveryEnvironment
from repro.systems import emn, tiered
from repro.systems.faults import FaultKind

from perfbench import layers, spans
from perfbench.common import (
    SETUP_REPEATS,
    WORK_DIR,
    Outcome,
    distribution,
    median,
    percentile,
    process_peak_rss_mb,
    tail_percentile,
)

#: Agent connections: one per core of the 2-vCPU machine the benchmark
#: was sized on.
CONNECTIONS = 2
INCIDENT_OPS = ("open", "observe", "decide", "close")
READY_TIMEOUT_S = 120.0
REQUEST_TIMEOUT_S = 60.0
EXIT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ServeWorkload:
    """One daemon configuration and the incidents its agents bring.

    Attributes:
        build: returns ``(model, injectable fault states, monitor tail)``;
            the model is saved as the daemon's archive.
        daemon_args: cold-start flags passed to ``python -m repro.serve``.
        incidents_per_second: nominal rate *per connection*; a run of
            ``--seconds S`` gives each connection ``S`` times this many
            incidents.
        replay: decisions do not depend on thread interleaving (the bound
            set is read-only), so every incident's decision sequence is
            checked against an in-process replay.
        recertify: reload the drain checkpoint through the R3xx soundness
            certificate.
    """

    build: Callable[[], tuple]
    daemon_args: tuple[str, ...]
    incidents_per_second: float
    replay: bool
    recertify: bool


def build_emn():
    system = emn.build_emn_system()
    return system.model, system.fault_states(FaultKind.ZOMBIE), emn.MONITOR_DURATION


def build_tiered(replicas=(50_000,) * 3):
    system = tiered.build_tiered_system(replicas=replicas, backend="sparse")
    model = system.model
    return model, np.flatnonzero(model.fault_states), tiered.MONITOR_DURATION


WORKLOADS = {
    "serve_emn": ServeWorkload(
        build=build_emn,
        daemon_args=("--bootstrap", "10"),
        incidents_per_second=32.0,
        replay=False,
        recertify=True,
    ),
    "serve_tiered300k": ServeWorkload(
        build=build_tiered,
        daemon_args=("--no-refine",),
        incidents_per_second=5.2,
        replay=True,
        recertify=False,
    ),
}


def incidents_for(workload: ServeWorkload, seconds: float) -> int:
    """Incidents per connection for a run of ``seconds``."""
    return max(1, round(workload.incidents_per_second * seconds))


@dataclass(frozen=True)
class Incident:
    connection: int
    index: int
    fault: int
    env_seed: np.random.SeedSequence

    @property
    def session_id(self) -> str:
        return f"c{self.connection}-{self.index}"


def fault_strata(model, fault_states) -> list[np.ndarray]:
    """Injectable faults grouped by their detection-time monitor distribution.

    Faults the monitors cannot tell apart form one stratum (on the tiered
    model: a crash in one tier, or a zombie anywhere; on EMN, two zombie
    faults share one).  Decision and recovery costs depend mostly on the
    stratum, so the incident plan balances strata.
    """
    fault_states = np.asarray(fault_states)
    passive = int(np.flatnonzero(model.passive_actions)[0])
    rows = observation_matrix_dense(model.pomdp.observations, passive)[fault_states]
    _, labels = np.unique(rows, axis=0, return_inverse=True)
    labels = labels.ravel()
    return [fault_states[labels == label] for label in range(labels.max() + 1)]


def plan_incidents(strata, seed: int, per_connection: int) -> list[list[Incident]]:
    """Each connection's incidents, drawn from ``seed`` alone.

    Faults come in rounds that hold every stratum in proportion to its size
    (on EMN, each zombie fault once; on the tiered model, one crash per tier
    and three zombies), shuffled and drawn from the seed.  Each connection
    therefore sees the mix of uniform fault injection whatever the seed,
    while the seed changes the order, the faulty replica and the monitor
    noise.  Mix differences would otherwise move decision and recovery
    costs between seeds by more than a code change is allowed to.
    """
    sizes = np.array([stratum.size for stratum in strata])
    counts = sizes // np.gcd.reduce(sizes)
    plans = []
    root = np.random.SeedSequence(seed % 2**63)
    for connection, sequence in enumerate(root.spawn(CONNECTIONS)):
        fault_sequence, env_sequence = sequence.spawn(2)
        rng = np.random.default_rng(fault_sequence)
        faults: list[int] = []
        while len(faults) < per_connection:
            round_ = np.concatenate(
                [rng.choice(stratum, size=count, replace=False) for stratum, count in zip(strata, counts)]
            )
            faults.extend(int(fault) for fault in rng.permutation(round_))
        plans.append(
            [
                Incident(connection, index, fault, env_seed)
                for index, (fault, env_seed) in enumerate(
                    zip(faults[:per_connection], env_sequence.spawn(per_connection))
                )
            ]
        )
    return plans


@dataclass
class IncidentResult:
    incident: Incident
    actions: list[int]
    cost: float = 0.0
    decide_total_ms: float = 0.0
    terminated: bool = False
    error: str | None = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(",".join(map(str, self.actions)).encode()).hexdigest()


class _Agent:
    """One connection's closed loop; times every request it sends."""

    def __init__(self, model, monitor_tail: float, tracer: spans.Tracer | None):
        self.model = model
        self.monitor_tail = monitor_tail
        self.tracer = tracer
        self.passive = int(np.flatnonzero(model.passive_actions)[0])
        self.rtt_ms: dict[str, list[float]] = {op: [] for op in INCIDENT_OPS}
        self.results: list[IncidentResult] = []
        self.started_ns = 0
        self.ended_ns = 0

    def _span(self, name: str, **attrs):
        return nullcontext() if self.tracer is None else self.tracer.span(name, **attrs)

    def _call(self, op: str, method, *args):
        with self._span("serve.client.request", op=op):
            started = time.perf_counter_ns()
            reply = method(*args)
            elapsed_ms = (time.perf_counter_ns() - started) * 1e-6
        self.rtt_ms[op].append(elapsed_ms)
        return reply, elapsed_ms

    def run(self, socket_path: str, incidents: list[Incident], barrier) -> None:
        with ServiceClient(socket_path, timeout=REQUEST_TIMEOUT_S) as client:
            barrier.wait()
            self.started_ns = time.perf_counter_ns()
            with self._span("phase.connection"):
                self._drive(client, incidents)
            self.ended_ns = time.perf_counter_ns()

    def _drive(self, client: ServiceClient, incidents: list[Incident]) -> None:
        for position, incident in enumerate(incidents):
            result = IncidentResult(incident, [])
            self.results.append(result)
            try:
                self._incident(client, incident, result)
            except ServeError as error:
                result.error = str(error)
                try:
                    client.close_session(incident.session_id)
                except ServeError:
                    pass
            except OSError as error:
                # The connection is gone; nothing after this can be sent.
                result.error = f"connection lost: {error}"
                for rest in incidents[position + 1 :]:
                    self.results.append(IncidentResult(rest, [], error="not sent"))
                return

    def _incident(self, client, incident: Incident, result: IncidentResult) -> None:
        model = self.model
        environment = RecoveryEnvironment(
            model,
            seed=np.random.default_rng(incident.env_seed),
            monitor_tail=self.monitor_tail,
        )
        environment.inject(incident.fault)
        session = incident.session_id
        self._call("open", client.open_session, session)
        self._call("observe", client.observe, session, self.passive, environment.initial_observation())
        for _ in range(DEFAULT_MAX_STEPS):
            reply, elapsed = self._call("decide", client.decide, session)
            result.decide_total_ms += elapsed
            action = int(reply["action"])
            result.actions.append(action)
            if reply["terminate"]:
                result.terminated = True
                if action == model.terminate_action:
                    environment.execute(action)
                break
            observation = environment.execute(action).observation
            self._call("observe", client.observe, session, action, observation)
        result.cost = environment.cost
        self._call("close", client.close_session, session)


class _Daemon:
    """One ``python -m repro.serve`` process and its files."""

    def __init__(self, work: Path, archive: Path, workload: ServeWorkload, tag: str, span_path: Path | None):
        self.socket_path = work / f"{tag}.sock"
        self.bounds_path = work / f"{tag}-bounds.npz"
        self.span_path = span_path
        self.log_path = work / f"{tag}.log"
        serve_args = [
            "--model", str(archive),
            "--socket", str(self.socket_path),
            "--bounds", str(self.bounds_path),
            "--checkpoint-interval", "0",
            "--drain-timeout", "30",
            *workload.daemon_args,
        ]
        if span_path is None:
            self.command = [sys.executable, "-m", "repro.serve", *serve_args]
        else:
            launcher = Path("perfbench") / "launch_daemon.py"
            self.command = [sys.executable, str(launcher), str(span_path), *serve_args]
        self.process: subprocess.Popen | None = None

    def start(self) -> float:
        """Spawn and wait for the first ``ready: true``; returns seconds."""
        paths = ["src", os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path for path in paths if path))
        with open(self.log_path, "wb") as log:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                self.command, stdout=log, stderr=subprocess.STDOUT, env=env
            )
        deadline = started + READY_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                raise ServeError(f"daemon exited during start: {self.log()}")
            if self.socket_path.exists():
                try:
                    with ServiceClient(str(self.socket_path), timeout=10.0) as client:
                        if client.ready():
                            return time.perf_counter() - started
                except (OSError, ServeError):
                    pass
            if time.perf_counter() > deadline:
                raise ServeError("daemon not ready in time")
            time.sleep(0.002)

    def log(self) -> str:
        return self.log_path.read_text(encoding="utf-8", errors="replace")[-2000:]

    def query(self, op: str):
        with ServiceClient(str(self.socket_path), timeout=REQUEST_TIMEOUT_S) as client:
            return getattr(client, op)()

    def stop(self) -> list[str]:
        """Drain through the ``shutdown`` op; returns lifecycle failures."""
        failures = []
        if self.process.poll() is not None:
            failures.append(f"daemon died mid-run (rc={self.process.returncode})")
        else:
            try:
                self.query("shutdown")
                returncode = self.process.wait(timeout=EXIT_TIMEOUT_S)
                if returncode != 0:
                    failures.append(f"daemon exited with rc={returncode}")
            except (OSError, ServeError, subprocess.TimeoutExpired) as error:
                failures.append(f"daemon shutdown failed: {error}")
        if self.socket_path.exists():
            failures.append("daemon left its socket behind")
        return failures

    def kill(self) -> None:
        if self.process is not None and self.process.poll() is None:
            self.process.kill()
        if self.process is not None:
            self.process.wait()


def run(workload: ServeWorkload, seed: int, per_connection: int, trace: bool) -> Outcome:
    work = WORK_DIR / f"serve-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, per_connection, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(workload, seed, per_connection, trace, work: Path) -> Outcome:
    built, fault_states, monitor_tail = workload.build()
    archive = work / "model.npz"
    save_recovery_model(archive, built)
    del built  # the agents use the archive's copy, as the daemon does; one copy at a time
    model = load_recovery_model(archive)
    plans = plan_incidents(fault_strata(model, fault_states), seed, per_connection)

    repeats = 1 if trace else SETUP_REPEATS
    setups = []
    daemons = []
    try:
        for repeat in range(repeats):
            last = repeat == repeats - 1
            span_path = work / "daemon-spans.json" if trace else None
            daemon = _Daemon(work, archive, workload, f"d{repeat}", span_path)
            daemons.append(daemon)
            setups.append(daemon.start())
            if not last:
                failures = daemon.stop()
                if failures:
                    raise ServeError("; ".join(failures))
        daemon = daemons[-1]

        tracer = spans.Tracer() if trace else None
        restore = spans.install(tracer) if trace else None
        try:
            agents, wall_ns = _drive(daemon, plans, model, monitor_tail, tracer)
        finally:
            if restore is not None:
                restore()
        info = _daemon_info(daemon)
        lifecycle = daemon.stop()
    finally:
        for started in daemons:
            started.kill()

    results = [result for agent in agents for result in agent.results]
    outcome = _check(workload, results, lifecycle, model, plans, monitor_tail, daemon)
    faults = len(results)
    if trace:
        outcome.metrics, report = _layer_report(daemon, agents, tracer, wall_ns, faults, info)
        outcome.details.update(report)
    else:
        outcome.metrics = _end_to_end(setups, results, agents, wall_ns, info)
        outcome.details["algo_ms_per_fault"] = distribution(
            [result.decide_total_ms for result in results]
        )
    rtt = {op: distribution(values) for op, values in _merged_rtts(agents).items() if values}
    outcome.details.update(
        incidents=faults,
        incidents_per_connection=per_connection,
        setup_s_samples=setups,
        rtt_ms=rtt,
        decisions_per_incident=sum(len(r.actions) for r in results) / max(faults, 1),
        daemon=info,
        failed_share=outcome.failed / outcome.attempted,
    )
    return outcome


def _merged_rtts(agents) -> dict[str, list[float]]:
    return {op: [value for agent in agents for value in agent.rtt_ms[op]] for op in INCIDENT_OPS}


def _drive(daemon: _Daemon, plans, model, monitor_tail, tracer):
    agents = [_Agent(model, monitor_tail, tracer) for _ in plans]
    barrier = threading.Barrier(len(agents))
    errors = []

    def target(agent, incidents):
        try:
            agent.run(str(daemon.socket_path), incidents, barrier)
        except (OSError, ServeError, threading.BrokenBarrierError) as error:
            errors.append(str(error))
            barrier.abort()

    threads = [
        threading.Thread(target=target, args=(agent, incidents), name=f"agent-{index}")
        for index, (agent, incidents) in enumerate(zip(agents, plans))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise ServeError(f"agent failed: {errors[0]}")
    wall_ns = max(agent.ended_ns for agent in agents) - min(agent.started_ns for agent in agents)
    return agents, wall_ns


def _daemon_info(daemon: _Daemon) -> dict:
    """The daemon's own view at the end of the timed phase.

    A daemon that no longer answers yields zeros; its run fails anyway.
    """
    try:
        histogram = daemon.query("metrics")["histograms"].get("serve.session_decide", {})
        return {
            "peak_rss_mb": process_peak_rss_mb(daemon.process.pid),
            "session_decide_p50_ms": histogram.get("p50_ms"),
            "session_decide_p99_ms": histogram.get("p99_ms"),
            "session_decide_count": histogram.get("count"),
            "bound_vectors": daemon.query("stats")["bound_vectors"],
        }
    except (OSError, ServeError) as error:
        return {"peak_rss_mb": 0.0, "bound_vectors": 0, "error": str(error)}


def _check(workload, results, lifecycle, model, plans, monitor_tail, daemon) -> Outcome:
    """Failed incidents plus failed run-level checks, over everything tried."""
    failures = list(lifecycle)
    bad = 0
    for result in results:
        problem = result.error or (None if result.terminated else "hit the step cap")
        if problem:
            bad += 1
            if len(failures) < 10:
                failures.append(f"incident {result.incident.session_id}: {problem}")
    checks = 1
    run_failures = int(bool(lifecycle))
    if workload.recertify:
        checks += 1
        try:
            load_bound_set(daemon.bounds_path, model=model, recertify=True)
        except (OSError, ReproError, ValueError, KeyError) as error:
            run_failures += 1
            failures.append(f"drain checkpoint did not reload: {type(error).__name__}: {error}")
    if workload.replay:
        mismatched = replay_mismatches(model, plans, monitor_tail, results)
        for result in mismatched:
            if len(failures) < 10:
                failures.append(
                    f"incident {result.incident.session_id}: decisions differ from the replay"
                )
        bad += sum(1 for result in mismatched if not result.error)
    return Outcome(
        attempted=len(results) + checks,
        failed=bad + run_failures,
        metrics={},
        failures=failures,
    )


def replay(model, plans, monitor_tail) -> dict[str, str]:
    """Every incident's decision digest from an in-process read-only engine.

    With the bound set frozen a decision is a function of the belief, so
    decisions are memoised by the belief's bytes: incidents that reach the
    same belief (on the tiered model, the same detection-time monitor
    output) are decided once.
    """
    engine = BoundedPolicyEngine(model, depth=1, refine_online=False)
    passive = int(np.flatnonzero(model.passive_actions)[0])
    decided: dict[bytes, object] = {}
    digests = {}
    for incident in (incident for plan in plans for incident in plan):
        environment = RecoveryEnvironment(
            model, seed=np.random.default_rng(incident.env_seed), monitor_tail=monitor_tail
        )
        environment.inject(incident.fault)
        session = engine.session()
        session.reset()
        session.observe(passive, environment.initial_observation())
        result = IncidentResult(incident, [])
        for _ in range(DEFAULT_MAX_STEPS):
            key = hashlib.sha256(session.belief_view().tobytes()).digest()
            if key not in decided:
                decided[key] = session.decide()
            decision = decided[key]
            result.actions.append(int(decision.action))
            if decision.is_terminate:
                break
            observation = environment.execute(decision.action).observation
            session.observe(decision.action, observation)
        digests[incident.session_id] = result.digest
    return digests


def replay_mismatches(model, plans, monitor_tail, results) -> list[IncidentResult]:
    """The served incidents whose decision digest differs from the replay's."""
    expected = replay(model, plans, monitor_tail)
    return [result for result in results if expected.get(result.incident.session_id) != result.digest]


def _end_to_end(setups, results, agents, wall_ns, info) -> dict:
    algo = distribution([result.decide_total_ms for result in results])
    decide = distribution(_merged_rtts(agents)["decide"])
    return {
        "setup_s": (median(setups), "s"),
        "faults_per_s": (len(results) / (wall_ns * 1e-9), "faults/s"),
        "algo_ms_per_fault.p50": (algo["p50"], "ms"),
        "algo_ms_per_fault.tail": (algo["tail"], "ms"),
        "decide_ms.p50": (decide["p50"], "ms"),
        "recovery_cost": (float(np.mean([result.cost for result in results])), "cost/fault"),
        "peak_rss_mb": (info["peak_rss_mb"], "MB"),
    }


def _layer_report(daemon: _Daemon, agents, tracer: spans.Tracer, wall_ns: int, faults: int, info):
    """Per-layer metrics from the daemon's and the generator's spans."""
    recorded = spans.load_records(daemon.span_path) if daemon.span_path.exists() else []
    daemon_forest = spans.SpanForest(recorded)
    client_forest = spans.SpanForest(tracer.records())

    # Incident requests on the daemon side: the protocol handler's span and
    # the encode that follows it on the same connection thread.
    handled, encodes = [], []
    by_thread: dict[int, list[list]] = {}
    for record in daemon_forest.roots():
        by_thread.setdefault(spans.thread(record), []).append(record)
    for records in by_thread.values():
        current_op = None
        for record in sorted(records, key=spans.start):
            if spans.name(record) == "serve.protocol.handle_line":
                dispatch = daemon_forest.child(record, "serve.protocol.dispatch")
                current_op = spans.attrs(dispatch).get("op") if dispatch else None
                if current_op in INCIDENT_OPS:
                    handled.append(record)
            elif spans.name(record) == "serve.protocol.encode" and current_op in INCIDENT_OPS:
                encodes.append(record)
    daemon_timed = [span for root in handled for span in daemon_forest.subtree(root)] + encodes
    connections = client_forest.named("phase.connection")
    client_timed = [span for root in connections for span in client_forest.subtree(root)]
    requests = client_forest.named("serve.client.request")

    served_ns = sum(daemon_forest.duration(record) for record in handled + encodes)
    rtt_ns = sum(client_forest.duration(record) for record in requests)
    transport_ns = rtt_ns - served_ns
    protocol_ns = sum(
        daemon_forest.self_ns(record)
        for record in daemon_timed
        if spans.name(record).startswith("serve.protocol.")
    )
    lock_waits = []
    busy_ns = 0
    for record in daemon_timed:
        if spans.name(record) == "serve.service.decide":
            engine = daemon_forest.child(record, "controllers.engine.decide")
            engine_ns = daemon_forest.duration(engine) if engine else 0
            busy_ns += engine_ns
            lock_waits.append((daemon_forest.duration(record) - engine_ns) * 1e-6)

    timed = layers.Scope([(daemon_forest, daemon_timed), (client_forest, client_timed)])
    whole = layers.Scope([(daemon_forest, daemon_forest.records)])
    by_layer = timed.layer_self(skip=("serve.client.request",))
    by_layer["serve.transport"] = spans.NameStats(len(requests), transport_ns, transport_ns)
    connection_ns = sum(client_forest.duration(record) for record in connections)
    unattributed_ns = connection_ns - sum(stats.self_ns for stats in by_layer.values())
    requests_n = len(requests)
    waits = lock_waits or [0.0]
    metrics = layers.layer_metrics(
        timed,
        whole,
        faults,
        {
            "bounds.set_size_final": info["bound_vectors"],
            "serve.service.lock_wait_ms.p50": percentile(waits, 50.0),
            "serve.service.lock_wait_ms.tail": percentile(waits, tail_percentile(len(waits))),
            "serve.service.engine_busy_share": busy_ns / wall_ns,
            "serve.protocol.self_ms": protocol_ns * 1e-6 / max(requests_n, 1),
            "serve.protocol.errors": sum(
                1 for record in handled if not spans.attrs(record).get("ok")
            ),
            "serve.transport_ms": transport_ns * 1e-6 / max(requests_n, 1),
            "unattributed_share": unattributed_ns / connection_ns,
            "traced.faults_per_s": faults / (wall_ns * 1e-9),
        },
    )
    report = {
        "closure": layers.closure(by_layer, connection_ns, unattributed_ns),
        "requests": {"client": requests_n, "daemon": len(handled)},
        "lock_wait_tail_percentile": tail_percentile(len(waits)),
        "daemon_layers": layers.table(whole.layer_self()),
    }
    return metrics, report
