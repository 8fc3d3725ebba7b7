"""The policy service and daemon: sessions, persistence, protocol, shutdown."""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.bounds.ra_bound import ra_bound_vector
from repro.bounds.vector_set import BoundVectorSet
from repro.controllers import engine as engine_module
from repro.exceptions import ServeError
from repro.io import load_bound_set
from repro.obs import telemetry as obs
from repro.obs.trace import span_tree
from repro.pomdp.belief import update_belief
from repro.serve import PolicyDaemon, PolicyService, ServiceClient, ServiceConfig
from repro.serve.protocol import decode_request, handle_line
from repro.systems.tiered import build_tiered_system

#: Seconds any test thread may take before the test counts it as hung.
JOIN_TIMEOUT = 30.0


@pytest.fixture()
def service(simple_system, tmp_path):
    config = ServiceConfig(
        socket_path=str(tmp_path / "repro.sock"),
        bounds_path=str(tmp_path / "bounds.npz"),
        checkpoint_interval=0,
        drain_timeout=1.0,
    )
    return PolicyService(config, model=simple_system.model)


def _drive_to_termination(service, session_id, env_seed=3):
    """Run one recovery to the terminate decision via the service API."""
    from repro.sim.environment import RecoveryEnvironment

    environment = RecoveryEnvironment(service.model, seed=env_seed)
    environment.inject(int(np.flatnonzero(service.model.fault_states)[0]))
    passive = np.flatnonzero(service.model.passive_actions)
    service.observe(session_id, int(passive[0]), environment.initial_observation())
    for _ in range(50):
        decision = service.decide(session_id)
        if decision["terminate"]:
            return decision
        result = environment.execute(decision["action"])
        service.observe(session_id, decision["action"], result.observation)
    raise AssertionError("recovery did not terminate")


class TestPolicyService:
    def test_session_lifecycle(self, service):
        sid = service.open_session()
        assert service.live_sessions == 1
        decision = _drive_to_termination(service, sid)
        assert decision["done"] is True
        service.close_session(sid)
        assert service.live_sessions == 0

    def test_unknown_and_duplicate_sessions(self, service):
        with pytest.raises(ServeError, match="unknown session"):
            service.decide("nope")
        service.open_session(session_id="mine")
        with pytest.raises(ServeError, match="already open"):
            service.open_session(session_id="mine")
        service.close_session("mine")
        with pytest.raises(ServeError, match="unknown session"):
            service.close_session("mine")

    def test_sessions_isolated(self, service):
        a = service.open_session()
        b = service.open_session()
        passive = int(np.flatnonzero(service.model.passive_actions)[0])
        service.observe(a, passive, 0)
        left = service._sessions[a].belief
        right = service._sessions[b].belief
        assert not np.array_equal(left, right)

    def test_refine_false_session_freezes_bounds(self, service):
        sid = service.open_session(refine=False)
        before = service.engine.bound_set.vectors.shape[0]
        _drive_to_termination(service, sid)
        assert service.engine.bound_set.vectors.shape[0] == before

    def test_checkpoint_and_warm_start(self, service, simple_system):
        sid = service.open_session()
        _drive_to_termination(service, sid)
        path = service.checkpoint()
        assert path is not None
        reloaded = load_bound_set(path, model=simple_system.model)
        np.testing.assert_array_equal(
            reloaded.vectors, service.engine.bound_set.vectors
        )
        warm = PolicyService(service.config, model=simple_system.model)
        assert warm.started_warm
        np.testing.assert_array_equal(
            warm.engine.bound_set.vectors, service.engine.bound_set.vectors
        )

    def test_warm_decisions_match_checkpoint_state(self, service, simple_system):
        """A read-only session on a warm restart decides exactly as a
        read-only session on the original service after the checkpoint —
        the smoke check's resume-identical property."""
        sid = service.open_session()
        _drive_to_termination(service, sid)
        service.checkpoint()
        warm = PolicyService(service.config, model=simple_system.model)
        old = service.open_session(refine=False)
        new = warm.open_session(refine=False)
        passive = int(np.flatnonzero(service.model.passive_actions)[0])
        service.observe(old, passive, 0)
        warm.observe(new, passive, 0)
        for _ in range(10):
            left = service.decide(old)
            right = warm.decide(new)
            assert left == right
            if left["terminate"]:
                break
            service.observe(old, left["action"], 1)
            warm.observe(new, right["action"], 1)

    def test_drain_rejects_new_sessions(self, service):
        sid = service.open_session()
        closer = threading.Timer(0.1, service.close_session, args=(sid,))
        closer.start()
        try:
            assert service.drain(timeout=5.0) == 0
        finally:
            closer.cancel()
        with pytest.raises(ServeError, match="draining"):
            service.open_session()

    def test_drain_times_out_on_stuck_session(self, service):
        service.open_session()
        assert service.drain(timeout=0.05) == 1

    def test_stats_shape(self, service):
        sid = service.open_session()
        service.decide(sid)
        stats = service.stats()
        assert stats["live_sessions"] == 1
        assert stats["decisions"] == 1
        assert stats["bound_vectors"] >= 1
        assert stats["started_warm"] is False

    def test_live_session_gauge_and_span_labels(self, service):
        with obs.session(trace=True) as telemetry:
            a = service.open_session()
            b = service.open_session()
            assert telemetry.gauges["serve.live_sessions"] == 2.0
            service.decide(a)
            service.decide(b)
            service.close_session(a)
            assert telemetry.gauges["serve.live_sessions"] == 1.0
            forests = span_tree(telemetry.spans, by_session=True)
        assert a in forests and b in forests
        assert forests[a][0]["name"] == "controller.decision"
        assert forests[a][0]["args"]["session"] == a


class TestCommandLine:
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--depth", "0"),
            ("--depth", "-2"),
            ("--max-vectors", "0"),
            ("--bootstrap", "-1"),
        ],
    )
    def test_bad_counts_are_usage_errors(self, tmp_path, capsys, flag, value):
        """A bad count exits 2 with a usage message before any model loads."""
        from repro.serve.__main__ import main

        with pytest.raises(SystemExit) as stopped:
            main(["--model", str(tmp_path / "missing.npz"), flag, value])
        assert stopped.value.code == 2
        error = capsys.readouterr().err
        assert error.startswith("usage: python -m repro.serve")
        assert f"argument {flag}: must be an integer >=" in error


class TestProtocol:
    def test_decode_rejects_garbage(self):
        with pytest.raises(ServeError):
            decode_request("not json")
        with pytest.raises(ServeError):
            decode_request("[1,2]")
        with pytest.raises(ServeError):
            decode_request('{"no_op": 1}')

    def test_handle_line_error_codes(self, service):
        opened: set[str] = set()
        bad = handle_line(service, "garbage", opened)
        assert (bad["ok"], bad["error"]) == (False, "bad-request")
        unknown = handle_line(service, '{"op": "frobnicate"}', opened)
        assert unknown["error"] == "bad-request"
        missing = handle_line(service, '{"op": "decide"}', opened)
        assert missing["error"] == "bad-request"
        stale = handle_line(service, '{"op": "decide", "session": "x"}', opened)
        assert stale["error"] == "serve-error"

    @pytest.mark.parametrize("kind", ["nan", "negative", "off-sum"])
    def test_open_rejects_malformed_beliefs(self, service, kind):
        """A belief that is not a distribution is answered ``invalid``
        before it can decide, or refine the shared bound set from there."""
        n_states = service.model.pomdp.n_states
        belief = {
            "nan": [float("nan")] * n_states,
            "negative": [-4.0, 5.0] + [0.0] * (n_states - 2),
            "off-sum": (service.model.initial_belief() * 1e6).tolist(),
        }[kind]
        bound_set = service.engine.bound_set
        before = (len(bound_set), bound_set.additions)
        opened: set[str] = set()
        response = handle_line(
            service, json.dumps({"op": "open", "belief": belief}), opened
        )
        assert (response["ok"], response["error"]) == (False, "invalid")
        assert opened == set() and service.live_sessions == 0
        assert (len(bound_set), bound_set.additions) == before

    @pytest.mark.parametrize("model_kind", ["emn", "tiered"])
    @pytest.mark.parametrize(
        ("action", "observation", "code"),
        [
            (-1, 0, "invalid"),  # numpy would wrap it to the last action
            (-3, 0, "invalid"),
            (-10, 0, "invalid"),
            ("|A|", 0, "invalid"),  # one past the end: an IndexError
            (0, -1, "invalid"),
            (0, "|O|", "invalid"),
            (True, 0, "bad-request"),  # a JSON boolean, not action 1
            (0, False, "bad-request"),
            (1.0, 0, "bad-request"),
        ],
    )
    def test_observe_rejects_indices_outside_the_model(
        self, model_kind, action, observation, code, emn_system, tmp_path
    ):
        """``observe`` answers an index the model does not have with an
        error code that blames the client, and leaves the belief as it was."""
        if model_kind == "emn":
            model = emn_system.model
        else:
            model = build_tiered_system((2, 2, 2), backend="sparse").model
        config = ServiceConfig(
            socket_path=str(tmp_path / "observe.sock"), checkpoint_interval=0
        )
        observing = PolicyService(config, model=model)
        sizes = {"|A|": model.pomdp.n_actions, "|O|": model.pomdp.n_observations}
        opened: set[str] = set()
        sid = handle_line(observing, '{"op": "open"}', opened)["session"]
        before = observing._sessions[sid].belief
        request = {
            "op": "observe",
            "session": sid,
            "action": sizes.get(action, action),
            "observation": sizes.get(observation, observation),
        }
        response = handle_line(observing, json.dumps(request), opened)
        assert (response["ok"], response["error"]) == (False, code)
        np.testing.assert_array_equal(observing._sessions[sid].belief, before)

    def test_handle_line_tracks_opened_sessions(self, service):
        opened: set[str] = set()
        response = handle_line(service, '{"op": "open"}', opened)
        assert response["ok"] and opened == {response["session"]}
        handle_line(
            service, json.dumps({"op": "close", "session": response["session"]}), opened
        )
        assert opened == set()


@pytest.fixture()
def daemon(service):
    daemon = PolicyDaemon(service)
    thread = threading.Thread(
        target=lambda: daemon.run(install_signals=False), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                probe.connect(service.config.socket_path)
            break
        except OSError:
            time.sleep(0.02)
    yield daemon
    daemon.request_shutdown()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


class TestDaemon:
    def test_round_trip(self, daemon, service):
        with ServiceClient(service.config.socket_path) as client:
            assert client.ping()
            sid = client.open_session()
            decision = client.decide(sid)
            assert isinstance(decision["action"], int)
            client.observe(sid, decision["action"], 0)
            stats = client.stats()
            assert stats["live_sessions"] == 1
            client.close_session(sid)

    def test_concurrent_clients(self, daemon, service):
        errors: list[Exception] = []

        def worker(index: int) -> None:
            try:
                with ServiceClient(service.config.socket_path) as client:
                    sid = client.open_session(session_id=f"c{index}")
                    for _ in range(5):
                        decision = client.decide(sid)
                        if decision["terminate"]:
                            break
                        client.observe(sid, decision["action"], 0)
                    client.close_session(sid)
            except Exception as error:  # noqa: BLE001 — collected for the assert
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert errors == []
        assert service.live_sessions == 0

    def test_disconnect_releases_sessions(self, daemon, service):
        client = ServiceClient(service.config.socket_path)
        client.open_session(session_id="leaky")
        assert service.live_sessions == 1
        client.close()
        deadline = time.monotonic() + 5.0
        while service.live_sessions and time.monotonic() < deadline:
            time.sleep(0.02)
        assert service.live_sessions == 0

    def test_shutdown_op_checkpoints_and_unlinks(self, daemon, service, tmp_path):
        with ServiceClient(service.config.socket_path) as client:
            sid = client.open_session()
            client.decide(sid)
            client.close_session(sid)
            client.shutdown()
        deadline = time.monotonic() + 10.0
        import os

        while os.path.exists(service.config.socket_path):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        assert os.path.exists(service.config.bounds_path)


class TestLiveOps:
    """The obs v3 surface of the service: metrics, health, ready, slow log."""

    def test_metrics_counts_service_activity(self, service):
        sid = service.open_session()
        service.decide(sid)
        metrics = service.metrics()
        assert metrics["process_counters"]["serve.sessions_opened"] == 1
        assert metrics["process_counters"]["serve.decisions"] >= 1
        histogram = metrics["histograms"]["serve.session_decide"]
        assert histogram["count"] >= 1
        assert histogram["p99_ms"] is not None
        assert metrics["gauges"]["serve.live_sessions"] == 1.0

    def test_health_and_ready_flip_on_drain(self, service):
        assert service.health()["healthy"] is True
        ready = service.ready()
        assert ready == {
            "ready": True,
            "model_loaded": True,
            "bounds_certified": True,
            "draining": False,
        }
        service.drain(timeout=0)
        assert service.ready()["ready"] is False
        assert service.ready()["draining"] is True
        # Health stays true while draining: the process is still alive.
        assert service.health()["healthy"] is True
        assert service.health()["draining"] is True

    def test_per_session_stats_table(self, service):
        a = service.open_session(session_id="alpha")
        b = service.open_session(session_id="beta", refine=False)
        service.decide(a)
        stats = service.stats()
        assert set(stats["sessions"]) == {"alpha", "beta"}
        assert stats["sessions"]["alpha"]["steps"] >= 0
        # alpha has no per-session override: the table reports the
        # engine's effective refine_online default, not None.
        assert stats["sessions"]["alpha"]["refine"] is True
        assert stats["sessions"]["beta"]["refine"] is False
        assert stats["live_sessions"] == len(stats["sessions"])

    def test_slow_decision_event_with_span_subtree(self, simple_system, tmp_path):
        config = ServiceConfig(
            socket_path=str(tmp_path / "slow.sock"),
            checkpoint_interval=0,
            slow_decision_seconds=0.0,  # every decision is "slow"
            trace=True,
        )
        slow_service = PolicyService(config, model=simple_system.model)
        with obs.activated(slow_service.telemetry):
            sid = slow_service.open_session()
            slow_service.decide(sid)
        events = [
            record
            for record in slow_service.telemetry.snapshot().events
            if record["event"] == "slow_decision"
        ]
        assert len(events) == 1
        (event,) = events
        assert event["session"] == sid
        assert event["seconds"] > 0.0
        assert event["threshold"] == 0.0
        names = {span["name"] for span in event["spans"]}
        assert "controller.decision" in names
        from repro.obs.schema import validate_event

        assert validate_event(event) == []

    def test_slow_decision_spans_stay_with_their_decision(
        self, simple_system, tmp_path, monkeypatch
    ):
        """Two read-only decisions overlap; each ``slow_decision`` event
        carries its own call's span subtree and none of the other's."""
        config = ServiceConfig(
            socket_path=str(tmp_path / "overlap.sock"),
            checkpoint_interval=0,
            slow_decision_seconds=0.0,  # every decision is "slow"
            trace=True,
        )
        slow_service = PolicyService(config, model=simple_system.model)
        _meet_inside_engine(slow_service, monkeypatch)
        with obs.activated(slow_service.telemetry):
            sessions = [slow_service.open_session(refine=False) for _ in range(2)]
            errors = _run_threads(
                [lambda sid=sid: slow_service.decide(sid) for sid in sessions]
            )
        assert errors == []
        events = {
            record["session"]: record["spans"]
            for record in slow_service.telemetry.snapshot().events
            if record["event"] == "slow_decision"
        }
        assert set(events) == set(sessions)
        for sid, spans in events.items():
            (root,) = [span for span in spans if span["parent_id"] is None]
            assert root["name"] == "serve.session_decide"
            ids = {span["span_id"] for span in spans}
            assert all(
                span["parent_id"] in ids for span in spans if span is not root
            )
            decisions = [s for s in spans if s["name"] == "controller.decision"]
            assert [span["args"]["session"] for span in decisions] == [sid]

    def test_event_buffer_keeps_the_newest(
        self, simple_system, tmp_path, monkeypatch
    ):
        """The service registry has no sink: past its capacity it drops
        the oldest events, counts them, and keeps the latest decision's."""
        from repro.serve import service as service_module

        monkeypatch.setattr(service_module, "EVENT_BUFFER_CAPACITY", 8)
        config = ServiceConfig(
            socket_path=str(tmp_path / "bounded.sock"),
            checkpoint_interval=0,
            slow_decision_seconds=0.0,  # every decision is "slow"
        )
        bounded = PolicyService(config, model=simple_system.model)
        telemetry = bounded.telemetry
        with obs.activated(telemetry):
            sid = bounded.open_session()
            for _ in range(12):
                bounded.decide(sid)
        events = telemetry.snapshot().events
        emitted = telemetry._seq
        assert emitted > 2 * 12  # a decision and a slow_decision per call
        assert len(events) == 8
        dropped = emitted - 8
        assert telemetry.process_counters[obs.EVENTS_DROPPED_COUNTER] == dropped
        assert (
            bounded.metrics()["process_counters"][obs.EVENTS_DROPPED_COUNTER]
            == dropped
        )
        assert [record["seq"] for record in events] == list(range(dropped, emitted))
        last = events[-1]
        assert last["event"] == "slow_decision"
        assert last["session"] == sid

    def test_slow_log_disabled_by_default(self, service):
        sid = service.open_session()
        service.decide(sid)
        kinds = [
            record["event"] for record in service.telemetry.snapshot().events
        ]
        assert "slow_decision" not in kinds


class TestLiveProtocolOps:
    def test_metrics_op_json_and_prometheus(self, service):
        opened: set[str] = set()
        handle_line(service, '{"op": "open"}', opened)
        response = handle_line(service, '{"op": "metrics"}', opened)
        assert response["ok"]
        assert "serve.sessions_opened" in response["metrics"]["process_counters"]
        text = handle_line(
            service, '{"op": "metrics", "format": "prometheus"}', opened
        )
        assert text["ok"]
        assert "# TYPE repro_serve_sessions_opened_total counter" in text["text"]
        bad = handle_line(
            service, '{"op": "metrics", "format": "xml"}', opened
        )
        assert (bad["ok"], bad["error"]) == (False, "bad-request")

    def test_health_and_ready_ops(self, service):
        opened: set[str] = set()
        health = handle_line(service, '{"op": "health"}', opened)
        assert health["ok"] and health["health"]["healthy"] is True
        ready = handle_line(service, '{"op": "ready"}', opened)
        assert ready["ok"] and ready["ready"] is True
        service.drain(timeout=0)
        assert handle_line(service, '{"op": "ready"}', opened)["ready"] is False


class TestConcurrentStats:
    """Satellite: hammer decide from N threads while polling stats/metrics."""

    WORKERS = 4
    DECISIONS_EACH = 6

    def test_stats_and_metrics_stay_consistent_under_load(self, service):
        errors: list[Exception] = []
        inconsistencies: list[str] = []
        stop = threading.Event()

        def hammer(index: int) -> None:
            try:
                sid = service.open_session(session_id=f"h{index}")
                for _ in range(self.DECISIONS_EACH):
                    service.decide(sid)
                    service._sessions[sid].reset()  # keep deciding forever
                service.close_session(sid)
            except Exception as error:  # noqa: BLE001 — collected for the assert
                errors.append(error)

        def poll() -> None:
            try:
                while not stop.is_set():
                    stats = service.stats()
                    if stats["live_sessions"] != len(stats["sessions"]):
                        inconsistencies.append(
                            f"live={stats['live_sessions']} "
                            f"table={len(stats['sessions'])}"
                        )
                    metrics = service.metrics()
                    if not isinstance(metrics["histograms"], dict):
                        inconsistencies.append("torn metrics snapshot")
            except Exception as error:  # noqa: BLE001 — collected for the assert
                errors.append(error)

        workers = [
            threading.Thread(target=hammer, args=(i,))
            for i in range(self.WORKERS)
        ]
        poller = threading.Thread(target=poll)
        poller.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
        stop.set()
        poller.join(timeout=10.0)
        assert errors == []
        assert inconsistencies == []
        # Session counts match the registry once the dust settles.
        assert service.live_sessions == 0
        stats = service.stats()
        assert stats["sessions"] == {}
        assert stats["decisions"] == self.WORKERS * self.DECISIONS_EACH
        histogram = service.metrics()["histograms"]["serve.session_decide"]
        assert 0 < histogram["count"] <= self.WORKERS * self.DECISIONS_EACH


def _run_threads(targets) -> list[Exception]:
    """Run each callable on its own thread; return what they raised.

    Every join has a timeout, and a thread still alive after it fails the
    test rather than hanging it.
    """
    errors: list[Exception] = []

    def guarded(target) -> None:
        try:
            target()
        except Exception as error:  # noqa: BLE001 — collected for the assert
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(t,)) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads), "a thread hung"
    return errors


def _meet_inside_engine(service, monkeypatch) -> None:
    """Make every engine decision wait until a second one is inside too.

    Only decisions that overlap get past the barrier; serialised ones
    raise ``BrokenBarrierError`` after its two-second timeout.
    """
    barrier = threading.Barrier(2, timeout=2)
    decide = service.engine.decide

    def meet(session):
        barrier.wait()
        return decide(session)

    monkeypatch.setattr(service.engine, "decide", meet)


class TestSessionLock:
    """Requests addressing one session take turns."""

    def test_concurrent_observes_both_apply(self, service, monkeypatch):
        """Two observes on one session at once: the second waits for the
        first, so the belief holds both updates, in order."""
        first_inside = threading.Event()
        second_inside = threading.Event()
        update = engine_module.update_belief

        def overlapping_update(pomdp, belief, action, observation):
            if not first_inside.is_set():
                first_inside.set()
                # Without the session lock the second observe gets in here
                # and reads the same old belief.
                second_inside.wait(timeout=0.5)
            else:
                second_inside.set()
            return update(pomdp, belief, action, observation)

        monkeypatch.setattr(engine_module, "update_belief", overlapping_update)
        sid = service.open_session()
        start = service._sessions[sid].belief
        pomdp = service.model.pomdp
        passive = int(np.flatnonzero(service.model.passive_actions)[0])
        expected = update_belief(
            pomdp, update_belief(pomdp, start, passive, 0), passive, 1
        )
        assert not np.allclose(expected, update_belief(pomdp, start, passive, 1))

        errors: list[Exception] = []

        def observe(observation: int) -> None:
            try:
                service.observe(sid, passive, observation)
            except Exception as error:  # noqa: BLE001 — collected for the assert
                errors.append(error)

        first = threading.Thread(target=observe, args=(0,))
        first.start()
        assert first_inside.wait(timeout=JOIN_TIMEOUT)
        second = threading.Thread(target=observe, args=(1,))
        second.start()
        for thread in (first, second):
            thread.join(timeout=JOIN_TIMEOUT)
            assert not thread.is_alive()
        assert errors == []
        np.testing.assert_array_equal(service._sessions[sid].belief, expected)


class TestEngineLock:
    """Shared engine lock for read-only decisions, exclusive for writers."""

    def test_read_only_decides_overlap(self, service, monkeypatch):
        _meet_inside_engine(service, monkeypatch)
        sessions = [service.open_session(refine=False) for _ in range(2)]
        errors = _run_threads([lambda sid=sid: service.decide(sid) for sid in sessions])
        assert errors == []
        assert service.decisions == 2

    def test_refining_decides_run_alone(self, service, monkeypatch):
        """No decision of any kind is inside the engine beside a refining
        one; read-only ones may share it with each other."""
        guard = threading.Lock()
        inside = {"all": 0, "refining": 0}
        overlaps: list[str] = []
        decide = service.engine.decide

        def tracked(session):
            refines = service.engine.refines(session)
            with guard:
                if inside["all"] if refines else inside["refining"]:
                    overlaps.append(session.session_id)
                inside["all"] += 1
                inside["refining"] += refines
            try:
                time.sleep(0.005)  # widen the window an overlap would need
                return decide(session)
            finally:
                with guard:
                    inside["all"] -= 1
                    inside["refining"] -= refines

        monkeypatch.setattr(service.engine, "decide", tracked)
        sessions = [service.open_session(refine=r) for r in (True, True, False, False)]

        def loop(sid: str) -> None:
            for _ in range(5):
                if service.decide(sid)["done"]:
                    service._sessions[sid].reset()

        errors = _run_threads([lambda sid=sid: loop(sid) for sid in sessions])
        assert errors == []
        assert overlaps == []
        assert service.decisions == 20

    def test_writers_are_not_starved_by_readers(self, service, monkeypatch):
        """While four sessions keep the lock shared, a checkpoint and a
        refining decision still get their exclusive turn."""
        decide = service.engine.decide

        def slow_read(session):
            if not service.engine.refines(session):
                time.sleep(0.02)  # readers hold the lock most of the time
            return decide(session)

        monkeypatch.setattr(service.engine, "decide", slow_read)
        stop = threading.Event()
        readers = [service.open_session(refine=False) for _ in range(4)]
        writer = service.open_session(refine=True)

        errors: list[Exception] = []

        def guarded(work) -> None:
            try:
                work()
            except Exception as error:  # noqa: BLE001 — collected for the assert
                errors.append(error)

        def read(sid: str) -> None:
            while not stop.is_set():
                if service.decide(sid)["done"]:
                    service._sessions[sid].reset()

        reading = [
            threading.Thread(target=guarded, args=(lambda sid=sid: read(sid),))
            for sid in readers
        ]
        for thread in reading:
            thread.start()
        try:
            deadline = time.monotonic() + JOIN_TIMEOUT
            while service.decisions < 8 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert service.decisions >= 8
            finished: list[str] = []
            for name, write in (
                ("checkpoint", service.checkpoint),
                ("refining decide", lambda: service.decide(writer)),
            ):
                thread = threading.Thread(target=guarded, args=(write,))
                thread.start()
                thread.join(timeout=5.0)
                if not thread.is_alive():
                    finished.append(name)
            assert finished == ["checkpoint", "refining decide"]
        finally:
            stop.set()
            for thread in reading:
                thread.join(timeout=JOIN_TIMEOUT)
        assert not any(thread.is_alive() for thread in reading)
        assert errors == []


class TestReadOnlyStress:
    """Many read-only sessions on the sparse tiered model, switching often."""

    THREADS = 6  # more than the cores of a small CI runner
    STEPS = 6
    VECTORS = 32  # wins spread over many vectors' usage counts

    @pytest.mark.parametrize("path", ["joint-cache", "fused-sparse"])
    def test_concurrent_decides_match_serial(self, path, tmp_path, monkeypatch):
        """Usage credits and actions equal those of the same decisions run
        one after another: no usage update is lost."""
        if path == "fused-sparse":
            monkeypatch.setenv("REPRO_MAX_CACHE_BYTES", "0")
        model = build_tiered_system((2, 2, 2), backend="sparse").model
        rng = np.random.default_rng(18)
        passive = int(np.flatnonzero(model.passive_actions)[0])
        observations = rng.integers(
            0, model.pomdp.n_observations, size=(self.THREADS, self.STEPS + 1)
        )
        seed = ra_bound_vector(model.pomdp)
        stack = np.vstack(
            [seed, seed + rng.uniform(-2.0, 0.5, (self.VECTORS - 1, seed.size))]
        )

        def fresh_service() -> PolicyService:
            config = ServiceConfig(
                socket_path=str(tmp_path / "stress.sock"),
                checkpoint_interval=0,
                refine_online=False,
            )
            fresh = PolicyService(config, model=model)
            fresh.engine.bound_set = BoundVectorSet(stack)
            return fresh

        def drive(target: PolicyService, index: int, actions: dict) -> None:
            sid = target.open_session(session_id=f"r{index}")
            script = observations[index]
            target.observe(sid, passive, int(script[0]))
            taken = []
            for step in range(self.STEPS):
                decision = target.decide(sid)
                taken.append(decision["action"])
                if decision["done"]:
                    target._sessions[sid].reset()
                    target.observe(sid, passive, int(script[step + 1]))
                else:
                    target.observe(sid, decision["action"], int(script[step + 1]))
            actions[index] = taken

        serial = fresh_service()
        serial_actions: dict[int, list[int]] = {}
        for index in range(self.THREADS):
            drive(serial, index, serial_actions)

        concurrent = fresh_service()
        concurrent_actions: dict[int, list[int]] = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            errors = _run_threads(
                [
                    lambda index=index: drive(concurrent, index, concurrent_actions)
                    for index in range(self.THREADS)
                ]
            )
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert concurrent_actions == serial_actions
        usage = concurrent.engine.bound_set._usage
        assert usage.sum() > 0
        np.testing.assert_array_equal(usage, serial.engine.bound_set._usage)


@pytest.fixture()
def live_daemon(simple_system, tmp_path):
    """A daemon with the full obs v3 wiring: flusher, slow log, trace."""
    config = ServiceConfig(
        socket_path=str(tmp_path / "live.sock"),
        checkpoint_interval=0,
        drain_timeout=1.0,
        slow_decision_seconds=0.0,
        metrics_path=str(tmp_path / "metrics.jsonl"),
        metrics_interval=0.05,
        trace=True,
    )
    service = PolicyService(config, model=simple_system.model)
    daemon = PolicyDaemon(service)
    thread = threading.Thread(
        target=lambda: daemon.run(install_signals=False), daemon=True
    )
    thread.start()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                probe.connect(config.socket_path)
            break
        except OSError:
            time.sleep(0.02)
    yield daemon, service
    daemon.request_shutdown()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


class TestDaemonLiveOps:
    def test_client_typed_wrappers(self, live_daemon):
        daemon, service = live_daemon
        with ServiceClient(service.config.socket_path) as client:
            assert client.ready() is True
            health = client.health()
            assert health["healthy"] is True and health["draining"] is False
            sid = client.open_session()
            client.decide(sid)
            metrics = client.metrics()
            assert metrics["histograms"]["serve.session_decide"]["count"] >= 1
            # Deep layers record into the same registry because the daemon
            # activated the service telemetry process-wide.
            assert metrics["counters"]["controller.decisions"] >= 1
            text = client.metrics_text()
            assert "repro_controller_decisions_total" in text
            assert 'le="+Inf"' in text
            client.close_session(sid)

    def test_watch_renders_against_daemon(self, live_daemon, capsys):
        daemon, service = live_daemon
        with ServiceClient(service.config.socket_path) as client:
            sid = client.open_session(session_id="watched")
            client.decide(sid)
            from repro.obs.__main__ import main as obs_main

            code = obs_main(
                ["watch", service.config.socket_path, "--once", "--interval", "0.1"]
            )
            client.close_session(sid)
        assert code == 0
        screen = capsys.readouterr().out
        assert "repro.serve [serving]" in screen
        assert "serve.session_decide" in screen
        assert "watched" in screen

    def test_metrics_flusher_writes_valid_v4_stream(self, live_daemon):
        import os

        daemon, service = live_daemon
        with ServiceClient(service.config.socket_path) as client:
            sid = client.open_session()
            client.decide(sid)
            client.close_session(sid)
            time.sleep(0.2)  # let the flusher tick at least once
            client.shutdown()
        deadline = time.monotonic() + 10.0
        while os.path.exists(service.config.socket_path):
            assert time.monotonic() < deadline
            time.sleep(0.02)
        from repro.obs.schema import validate_stream

        path = service.config.metrics_path
        assert validate_stream(path) == []
        with open(path, encoding="utf-8") as stream:
            records = [json.loads(line) for line in stream if line.strip()]
        assert records[0]["event"] == "session_start"
        assert records[0]["schema"] == "repro-obs/v4"
        snapshots = [r for r in records if r["event"] == "metrics_snapshot"]
        assert len(snapshots) >= 2  # interval ticks plus the final flush
        last = snapshots[-1]
        assert last["process_counters"]["serve.decisions"] >= 1
        assert "serve.session_decide" in last["histograms"]
        assert last["t"] >= 0.0
