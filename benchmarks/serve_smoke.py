"""Policy-daemon smoke: SIGTERM mid-session, warm restart, identical decisions.

The CI guard for the serve-layer contract of :mod:`repro.serve`:

1. save a tiered model archive and start ``python -m repro.serve`` on it
   (cold start: RA-Bound seeding and :data:`BOOTSTRAP_ITERATIONS`
   off-line refinement episodes, no bound archive yet);
2. drive 8 concurrent refining sessions to completion over the unix
   socket, so the shared bound set accumulates online refinements;
3. open a read-only (``refine: false``) session, drive it halfway,
   deliver ``SIGTERM`` *mid-session*, then finish driving it through the
   draining daemon, recording every decision;
4. fail unless the daemon exits 0 (graceful drain), checkpoints the
   refined set, and unlinks its socket;
5. restart the daemon from the checkpoint (warm start, R3xx-certified
   via the digest sidecar), replay the same observation sequence in
   :data:`WARM_REPLAYS` read-only sessions at once, each on its own
   connection, so they decide under the shared engine lock, and fail
   unless every replay matches the cold run's decisions bit for bit;
   fail too if the warm start, launched with the same ``--bootstrap``,
   took more than :data:`WARM_START_MAX_FRACTION` of the cold start (both
   read from ``stats()["startup_seconds"]``);
6. check the live operational plane on the warm daemon: ``health`` and
   ``ready`` answer truthfully, ``metrics`` serves both the JSON
   snapshot and Prometheus text exposition and carries samples for every
   decision-path histogram (:data:`DECISION_PATH_HISTOGRAMS`), and
   ``python -m repro.obs watch --once`` renders a frame against the
   socket;
7. **SLO gate** — fail if the warm daemon's session-decision p99, read
   from the ``serve.session_decide`` live histogram (which includes
   engine-lock queueing), exceeds the pinned ceiling
   (:data:`P99_CEILING_MS`, override with ``REPRO_SERVE_P99_CEILING_MS``);
8. validate the warm daemon's periodic metrics-snapshot JSONL flusher
   stream against the ``repro-obs/v4`` schema (kept under ``--keep`` as
   the CI artifact);
9. fail if the run leaked ``/dev/shm`` entries, socket files, or
   ``*.tmp`` archives anywhere in the work tree.

Usage::

    python -m benchmarks.serve_smoke [--tiers N] [--keep DIR]

Exit codes: 0 — contract holds; 1 — drift, leak, SLO breach, slow warm
start, or unclean shutdown; 2 — harness failure (daemon died for another
reason).
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.io import TEMP_SUFFIX, save_recovery_model
from repro.serve.client import ServiceClient
from repro.systems.tiered import build_tiered_system

CONCURRENT_SESSIONS = 8
REPLAY_STEPS = 12
SIGTERM_AFTER = 1
#: Read-only replays the warm daemon serves concurrently.
WARM_REPLAYS = 4

#: Bootstrap episodes (Section 4.1's off-line refinement) both daemons are
#: launched with.  The cold start runs them; the warm start must skip them
#: by reloading the checkpoint.  Without them the cold start is little
#: more than what a warm start also pays, and the warm/cold ratio would
#: not show whether the skip happened.
BOOTSTRAP_ITERATIONS = 24

#: Warm-start contract: a restart from the checkpoint may take at most
#: this fraction of the bootstrapped cold start.
WARM_START_MAX_FRACTION = 0.25

#: Pinned warm-model session-decision p99 ceiling (milliseconds) for the
#: SLO gate.  Read from the live ``serve.session_decide`` histogram, so it
#: covers the whole service path including engine-lock queueing.  The 2x2
#: tiered model decides in well under a millisecond on any healthy machine;
#: the ceiling absorbs shared-runner noise, not real regressions in kind.
#: ``REPRO_SERVE_P99_CEILING_MS`` overrides it for other scales.
P99_CEILING_MS = 250.0

#: Latency histograms the warm daemon's replay session must feed: its
#: decisions open ``controller.decision`` → ``tree.expand`` →
#: ``cache.lookup`` spans and its observations ``belief.update``, so a
#: refactor that drops one of these sites' spans fails the smoke.
DECISION_PATH_HISTOGRAMS = (
    "controller.decision",
    "tree.expand",
    "cache.lookup",
    "belief.update",
)


def p99_ceiling_ms() -> float:
    """The SLO ceiling, scaled by ``REPRO_SERVE_P99_CEILING_MS``."""
    return float(os.environ.get("REPRO_SERVE_P99_CEILING_MS", P99_CEILING_MS))


def _start_daemon(
    model: Path,
    socket_path: Path,
    bounds: Path,
    extra: list[str] | None = None,
) -> subprocess.Popen:
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.serve",
            "--model",
            str(model),
            "--socket",
            str(socket_path),
            "--bounds",
            str(bounds),
            "--checkpoint-interval",
            "1",
            "--drain-timeout",
            "30",
            "--bootstrap",
            str(BOOTSTRAP_ITERATIONS),
            *(extra or []),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 120.0  # codelint: ignore[R903] -- harness timeout
    while not socket_path.exists():  # codelint: ignore[R903]
        if process.poll() is not None:
            print(process.stdout.read() if process.stdout else "")
            print(f"serve_smoke: daemon died on startup (rc={process.returncode})")
            raise SystemExit(2)
        if time.monotonic() > deadline:  # codelint: ignore[R903]
            process.kill()
            raise SystemExit(2)
        time.sleep(0.05)
    return process


def _drive_refining_sessions(socket_path: Path, failures: list[str]) -> None:
    """8 concurrent refining sessions, each one short recovery episode."""
    errors: list[str] = []

    def worker(index: int) -> None:
        try:
            with ServiceClient(str(socket_path), timeout=120.0) as client:
                sid = client.open_session(session_id=f"refine-{index}")
                for _ in range(10):
                    decision = client.decide(sid)
                    if decision["terminate"]:
                        break
                    client.observe(sid, decision["action"], index % 2)
                client.close_session(sid)
        except Exception as error:  # noqa: BLE001 — collected for the report
            errors.append(f"session {index}: {error}")

    threads = [
        threading.Thread(target=worker, args=(i,))
        for i in range(CONCURRENT_SESSIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
    failures.extend(errors)


def _replay(
    client: ServiceClient,
    session_id: str,
    on_step=None,
) -> list[tuple[int, bool]]:
    """Drive one read-only session on a fixed observation schedule."""
    sid = client.open_session(session_id=session_id, refine=False)
    decisions: list[tuple[int, bool]] = []
    for step in range(REPLAY_STEPS):
        decision = client.decide(sid)
        decisions.append((decision["action"], decision["terminate"]))
        if on_step is not None:
            on_step(step)
        if decision["terminate"]:
            break
        client.observe(sid, decision["action"], step % 2)
    client.close_session(sid)
    return decisions


def _replay_concurrently(
    socket_path: Path, failures: list[str]
) -> list[list[tuple[int, bool]] | None]:
    """:data:`WARM_REPLAYS` read-only replays at once, one connection each.

    Returns each replay's decisions, ``None`` for one that failed.
    """
    results: list[list[tuple[int, bool]] | None] = [None] * WARM_REPLAYS

    def worker(index: int) -> None:
        try:
            with ServiceClient(str(socket_path), timeout=120.0) as client:
                results[index] = _replay(client, f"replay-{index}")
        except Exception as error:  # noqa: BLE001 — collected for the report
            failures.append(f"warm replay {index}: {error}")

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(WARM_REPLAYS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300.0)
        if thread.is_alive():
            failures.append("a warm replay did not finish within 300s")
    return results


def _check_live_ops(
    client: ServiceClient, socket_path: Path, failures: list[str]
) -> None:
    """Health/ready/metrics/watch checks plus the p99 SLO gate (warm daemon)."""
    health = client.health()
    if not health.get("healthy"):
        failures.append(f"warm daemon reports unhealthy: {health}")
    if not client.ready():
        failures.append("warm daemon not ready after restart")

    metrics = client.metrics()
    for section in ("counters", "process_counters", "gauges", "histograms"):
        if section not in metrics:
            failures.append(f"metrics snapshot missing section {section!r}")
    text = client.metrics_text()
    if "repro_serve_decisions_total" not in text:
        failures.append("Prometheus exposition lacks repro_serve_decisions_total")

    histograms = metrics.get("histograms", {})
    silent = [
        name
        for name in DECISION_PATH_HISTOGRAMS
        if not histograms.get(name, {}).get("count")
    ]
    if silent:
        failures.append(f"no samples in decision-path histograms {silent}")

    histogram = histograms.get("serve.session_decide")
    if not histogram or not histogram.get("count"):
        failures.append(
            "no serve.session_decide histogram samples on the warm daemon"
        )
    else:
        ceiling = p99_ceiling_ms()
        p99 = histogram["p99_ms"]
        if p99 is None or p99 > ceiling:
            failures.append(
                f"SLO breach: warm session-decision p99 {p99}ms exceeds "
                f"the {ceiling}ms ceiling ({histogram['count']} samples)"
            )
        else:
            print(
                f"SLO gate: warm session-decision p99 {p99}ms <= "
                f"{ceiling}ms ceiling ({histogram['count']} samples)"
            )

    watch = subprocess.run(
        [sys.executable, "-m", "repro.obs", "watch", str(socket_path), "--once"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    if watch.returncode != 0:
        failures.append(
            f"repro.obs watch --once exited {watch.returncode}: "
            f"{watch.stdout}{watch.stderr}"
        )
    elif "repro.serve" not in watch.stdout:
        failures.append("watch frame does not render the daemon header")
    else:
        print("watch --once rendered a frame against the live socket")


def _check_metrics_stream(metrics_path: Path, failures: list[str]) -> None:
    """The flusher stream must be schema-valid and carry snapshots."""
    import json

    from repro.obs.schema import validate_stream

    if not metrics_path.exists():
        failures.append("warm daemon wrote no metrics-snapshot JSONL")
        return
    problems = validate_stream(metrics_path)
    if problems:
        failures.extend(f"metrics stream: {problem}" for problem in problems)
    snapshots = 0
    with open(metrics_path, encoding="utf-8") as stream:
        for line in stream:
            if line.strip() and json.loads(line).get("event") == "metrics_snapshot":
                snapshots += 1
    if snapshots == 0:
        failures.append("metrics stream carries no metrics_snapshot events")
    else:
        print(
            f"metrics flusher: {snapshots} schema-valid snapshot(s) "
            f"in {metrics_path.name}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiers",
        type=int,
        nargs=2,
        default=(2, 2),
        metavar=("FRONT", "BACK"),
        help="tiered-system shape (default 2 2)",
    )
    parser.add_argument(
        "--keep",
        type=Path,
        default=None,
        metavar="DIR",
        help="run inside DIR and keep it (default: fresh temp dir)",
    )
    args = parser.parse_args(argv)

    failures: list[str] = []
    shm_before = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

    with tempfile.TemporaryDirectory() as scratch:
        workdir = args.keep or Path(scratch)
        workdir.mkdir(parents=True, exist_ok=True)
        model_path = workdir / "model.npz"
        socket_path = workdir / "serve.sock"
        bounds_path = workdir / "bounds.npz"

        system = build_tiered_system(tuple(args.tiers), backend="sparse")
        save_recovery_model(model_path, system.model)

        # -- cold run: refine concurrently, then SIGTERM mid-replay --------
        daemon = _start_daemon(model_path, socket_path, bounds_path)
        try:
            _drive_refining_sessions(socket_path, failures)
            with ServiceClient(str(socket_path), timeout=120.0) as client:
                stats = client.stats()
                if stats["started_warm"]:
                    failures.append("first launch reported a warm start")
                cold_startup = stats["startup_seconds"]
                print(
                    f"cold daemon: startup {cold_startup:.3f}s "
                    f"({BOOTSTRAP_ITERATIONS} bootstrap episodes), "
                    f"{stats['decisions']} decisions, "
                    f"{stats['bound_vectors']} bound vectors after "
                    f"{CONCURRENT_SESSIONS} concurrent sessions"
                )

                fired = threading.Event()

                def fire_sigterm(step: int) -> None:
                    # Mid-session: the replay session is open and half
                    # driven when the signal lands; the remaining steps go
                    # through the draining daemon.
                    if step >= SIGTERM_AFTER and not fired.is_set():
                        fired.set()
                        daemon.send_signal(signal.SIGTERM)

                reference = _replay(client, "replay", on_step=fire_sigterm)
                if not fired.is_set():  # replay terminated before the mark
                    daemon.send_signal(signal.SIGTERM)
            returncode = daemon.wait(timeout=120)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
        print(
            f"SIGTERM at replay step {SIGTERM_AFTER}: daemon exited "
            f"{returncode}; {len(reference)} reference decisions recorded"
        )
        if returncode != 0:
            failures.append(f"daemon exited {returncode} after SIGTERM drain")
        if socket_path.exists():
            failures.append("socket file survived shutdown")
        if not bounds_path.exists():
            failures.append("no bound-set checkpoint written on SIGTERM")

        # -- warm restart: same observations must give same decisions ------
        metrics_path = workdir / "metrics.jsonl"
        if bounds_path.exists():
            daemon = _start_daemon(
                model_path,
                socket_path,
                bounds_path,
                extra=[
                    "--metrics-jsonl",
                    str(metrics_path),
                    "--metrics-interval",
                    "0.5",
                ],
            )
            try:
                with ServiceClient(str(socket_path), timeout=120.0) as client:
                    stats = client.stats()
                    if not stats["started_warm"]:
                        failures.append("restart did not warm-start from checkpoint")
                    warm_startup = stats["startup_seconds"]
                    print(
                        f"warm daemon: started_warm={stats['started_warm']}, "
                        f"{stats['bound_vectors']} bound vectors, "
                        f"startup {warm_startup:.3f}s "
                        f"({warm_startup / cold_startup:.1%} of cold)"
                    )
                    if warm_startup > WARM_START_MAX_FRACTION * cold_startup:
                        failures.append(
                            f"warm start took {warm_startup:.3f}s, more than "
                            f"{WARM_START_MAX_FRACTION:.0%} of the "
                            f"{cold_startup:.3f}s cold start"
                        )
                    resumed = _replay_concurrently(socket_path, failures)
                    _check_live_ops(client, socket_path, failures)
                    client.shutdown()
                returncode = daemon.wait(timeout=120)
            finally:
                if daemon.poll() is None:
                    daemon.kill()
                    daemon.wait()
            if returncode != 0:
                failures.append(f"daemon exited {returncode} after shutdown op")
            drifted = [
                index for index, replay in enumerate(resumed) if replay != reference
            ]
            if drifted:
                failures.append(
                    f"decision drift after restart in replays {drifted}: "
                    f"{[resumed[index] for index in drifted]} != {reference}"
                )
            else:
                print(
                    f"{WARM_REPLAYS} concurrent replays identical across restart "
                    f"({len(reference)} decisions each)"
                )
            _check_metrics_stream(metrics_path, failures)

        if socket_path.exists():
            failures.append("socket file survived final shutdown")
        leftovers = sorted(str(p) for p in workdir.rglob(f"*{TEMP_SUFFIX}"))
        if leftovers:
            failures.append(f"leftover temp files: {leftovers}")

    if os.path.isdir("/dev/shm"):
        leaked = set(os.listdir("/dev/shm")) - shm_before
        if leaked:
            failures.append(f"leaked /dev/shm entries: {sorted(leaked)}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print(
        "serve contract holds: graceful drain on SIGTERM, warm restart "
        "from checkpoint within the start-up budget, decisions "
        "bit-identical, live ops answering, p99 within SLO, no leaks"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
