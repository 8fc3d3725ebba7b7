"""Unix-socket daemon and supervisor loop for the policy service.

:class:`PolicyDaemon` wraps one :class:`~repro.serve.service.PolicyService`
in a threaded ``socketserver`` unix-stream server and the process-level
machinery around it: signal-driven graceful shutdown (SIGTERM/SIGINT →
drain live sessions → final checkpoint → unlink the socket), an interval
checkpoint thread, and a supervisor ``run()`` loop that blocks until
shutdown completes.

Each client connection is handled by its own thread reading line-delimited
JSON requests (:mod:`repro.serve.protocol`).  Sessions a connection opened
and never closed are released when the connection drops, so a crashed
client cannot pin the live-session gauge (or block drain) forever.

While serving, the service's telemetry registry is *activated*
process-wide, so the deep layers (controller decisions, bound refinement,
solver calls, cache lookups) record into the same registry the ``metrics``
op snapshots.  With ``metrics_path``/``metrics_interval`` configured, a
flusher thread appends one ``metrics_snapshot`` JSONL event per interval
(plus a final one at teardown) — a truncated-but-valid ``repro-obs/v3``
stream whatever instant the process dies at.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socketserver
import threading
from typing import IO

from repro.obs.live import snapshot_event
from repro.obs.schema import SCHEMA_VERSION
from repro.obs.telemetry import activated
from repro.serve.protocol import encode_response, handle_line
from repro.serve.service import PolicyService

__all__ = ["PolicyDaemon"]


class _ConnectionHandler(socketserver.StreamRequestHandler):
    """One client connection: a loop of request line → response line."""

    def handle(self) -> None:
        daemon: PolicyDaemon = self.server.daemon  # type: ignore[attr-defined]
        opened: set[str] = set()
        try:
            for line in self.rfile:
                if not line.strip():
                    continue
                response = handle_line(daemon.service, line, opened)
                self.wfile.write(encode_response(response))
                self.wfile.flush()
                if response.get("draining") and response.get("ok"):
                    daemon.request_shutdown()
        except (BrokenPipeError, ConnectionResetError):
            pass
        finally:
            for session_id in opened:
                with contextlib.suppress(Exception):
                    daemon.service.close_session(session_id)


class _Server(socketserver.ThreadingMixIn, socketserver.UnixStreamServer):
    daemon_threads = True
    allow_reuse_address = True
    # socketserver's default backlog of 5 overflows when a few agents
    # connect at once while the accept thread waits for the interpreter
    # lock; a client with a timeout then fails with EAGAIN.
    request_queue_size = 64


class PolicyDaemon:
    """Serve a :class:`PolicyService` on a unix socket until shutdown.

    Args:
        service: the warmed-up service to expose.
        socket_path: overrides ``service.config.socket_path``.
    """

    def __init__(self, service: PolicyService, socket_path: str | None = None):
        self.service = service
        self.socket_path = (
            service.config.socket_path if socket_path is None else socket_path
        )
        self._shutdown = threading.Event()
        self._server: _Server | None = None
        self._checkpointer: threading.Thread | None = None
        self._metrics_flusher: threading.Thread | None = None
        self._metrics_stream: IO[str] | None = None
        self._metrics_seq = 0

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (idempotent; safe from any thread)."""
        self._shutdown.set()

    def _handle_signal(self, signum, frame) -> None:
        self.request_shutdown()

    def _checkpoint_loop(self) -> None:
        interval = self.service.config.checkpoint_interval
        while not self._shutdown.wait(interval):
            with contextlib.suppress(Exception):
                self.service.checkpoint()

    # -- metrics flusher ------------------------------------------------------

    def _write_metrics_line(self, record: dict) -> None:
        stream = self._metrics_stream
        if stream is None:
            return
        stream.write(json.dumps(record) + "\n")
        stream.flush()

    def _flush_metrics_snapshot(self) -> None:
        self._metrics_seq += 1
        self._write_metrics_line(
            snapshot_event(
                self.service.telemetry,
                self._metrics_seq,
                self.service.telemetry.elapsed(),
            )
        )

    def _metrics_loop(self) -> None:
        interval = self.service.config.metrics_interval
        while not self._shutdown.wait(interval):
            with contextlib.suppress(Exception):
                self._flush_metrics_snapshot()

    def _open_metrics_stream(self) -> None:
        config = self.service.config
        if config.metrics_path is None or config.metrics_interval <= 0:
            return
        self._metrics_stream = open(
            config.metrics_path, "w", encoding="utf-8"
        )
        # A flusher stream is a session_start header followed by nothing
        # but metrics_snapshot lines — valid at any truncation point (the
        # v3 framing rule exempts snapshot lines).
        self._write_metrics_line(
            {"event": "session_start", "seq": 0, "schema": SCHEMA_VERSION}
        )
        self._metrics_flusher = threading.Thread(
            target=self._metrics_loop, name="serve-metrics", daemon=True
        )
        self._metrics_flusher.start()

    def _bind(self) -> _Server:
        # A previous unclean exit can leave a stale socket file; binding
        # over it requires the unlink (connect() to it would have failed,
        # so nothing live is displaced).
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        server = _Server(self.socket_path, _ConnectionHandler)
        server.daemon = self  # type: ignore[attr-defined]
        return server

    def run(self, install_signals: bool = True) -> int:
        """Supervisor loop: serve until shutdown, then drain and persist.

        Returns the number of sessions still live when the drain timed
        out — 0 is the graceful exit code the smoke check asserts.
        """
        self._server = self._bind()
        if install_signals:
            signal.signal(signal.SIGTERM, self._handle_signal)
            signal.signal(signal.SIGINT, self._handle_signal)
        server_thread = threading.Thread(
            target=self._server.serve_forever, name="serve-accept", daemon=True
        )
        # Activating the service registry here (not per connection) means
        # every layer below — controller, bounds, solver, cache — records
        # into the registry the metrics op snapshots, for the whole serve
        # lifetime including teardown's final flush.
        with activated(self.service.telemetry):
            server_thread.start()
            if self.service.config.checkpoint_interval > 0:
                self._checkpointer = threading.Thread(
                    target=self._checkpoint_loop,
                    name="serve-checkpoint",
                    daemon=True,
                )
                self._checkpointer.start()
            self._open_metrics_stream()
            try:
                self._shutdown.wait()
            finally:
                stragglers = self._teardown(server_thread)
        return stragglers

    def _teardown(self, server_thread: threading.Thread) -> int:
        """Drain, final-checkpoint, stop accepting, remove the socket."""
        self._shutdown.set()
        # Refuse new sessions first, then give in-flight recoveries their
        # drain budget before the final checkpoint freezes the bound set.
        stragglers = self.service.drain()
        with contextlib.suppress(Exception):
            self.service.checkpoint()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        server_thread.join(timeout=5.0)
        if self._checkpointer is not None:
            self._checkpointer.join(timeout=5.0)
        if self._metrics_flusher is not None:
            self._metrics_flusher.join(timeout=5.0)
        if self._metrics_stream is not None:
            with contextlib.suppress(Exception):
                self._flush_metrics_snapshot()
            self._metrics_stream.close()
            self._metrics_stream = None
        with contextlib.suppress(OSError):
            os.unlink(self.socket_path)
        return stragglers
