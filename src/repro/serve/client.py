"""A small blocking client for the policy daemon.

Speaks the line-delimited JSON protocol of :mod:`repro.serve.protocol`
over a unix socket.  One request in flight at a time per client — this is
deliberately the simplest thing the tests, the smoke check, and ad-hoc
operation need; concurrency comes from opening multiple clients (the
daemon is threaded).
"""

from __future__ import annotations

import json
import socket
from typing import Any

from repro.exceptions import ServeError

__all__ = ["ServiceClient"]


class ServiceClient:
    """Blocking line-JSON client; usable as a context manager.

    Args:
        socket_path: the daemon's unix-socket path.
        timeout: per-request socket timeout in seconds (None blocks
            forever — decisions on large models can be slow).
    """

    def __init__(self, socket_path: str, timeout: float | None = 30.0):
        self._socket = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._socket.settimeout(timeout)
        self._socket.connect(socket_path)
        self._stream = self._socket.makefile("rwb")

    def __enter__(self) -> ServiceClient:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the connection (the daemon releases any leaked sessions)."""
        self._stream.close()
        self._socket.close()

    def request(self, op: str, **fields: Any) -> dict[str, Any]:
        """Send one request and return the raw response object."""
        payload = {"op": op, **fields}
        self._stream.write((json.dumps(payload) + "\n").encode("utf-8"))
        self._stream.flush()
        line = self._stream.readline()
        if not line:
            raise ServeError("connection closed by daemon")
        return json.loads(line)

    def call(self, op: str, **fields: Any) -> dict[str, Any]:
        """Like :meth:`request`, but raises :class:`ServeError` on errors."""
        response = self.request(op, **fields)
        if not response.get("ok"):
            raise ServeError(
                f"{op} failed "
                f"({response.get('error')}): {response.get('message')}"
            )
        return response

    # -- convenience wrappers -------------------------------------------------

    def ping(self) -> bool:
        """True if the daemon answers."""
        return bool(self.call("ping").get("pong"))

    def open_session(
        self,
        session_id: str | None = None,
        refine: bool | None = None,
        belief: list[float] | None = None,
    ) -> str:
        """Open a session; returns its id."""
        fields: dict[str, Any] = {}
        if session_id is not None:
            fields["session"] = session_id
        if refine is not None:
            fields["refine"] = refine
        if belief is not None:
            fields["belief"] = belief
        return str(self.call("open", **fields)["session"])

    def observe(self, session_id: str, action: int, observation: int) -> None:
        """Fold one monitor observation into a session's belief."""
        self.call("observe", session=session_id, action=action, observation=observation)

    def decide(self, session_id: str) -> dict[str, Any]:
        """One decision: action/terminate/value/done/steps."""
        return self.call("decide", session=session_id)

    def close_session(self, session_id: str) -> None:
        """Release a session."""
        self.call("close", session=session_id)

    def stats(self) -> dict[str, Any]:
        """The daemon's operational snapshot (with a per-session table)."""
        return dict(self.call("stats")["stats"])

    def metrics(self) -> dict[str, Any]:
        """Live telemetry snapshot: counters/gauges/latency histograms."""
        return dict(self.call("metrics")["metrics"])

    def metrics_text(self) -> str:
        """The live snapshot as Prometheus text exposition."""
        return str(self.call("metrics", format="prometheus")["text"])

    def health(self) -> dict[str, Any]:
        """Liveness payload (true even while draining)."""
        return dict(self.call("health")["health"])

    def ready(self) -> bool:
        """True when the daemon is ready to accept new sessions."""
        return bool(self.call("ready")["ready"])

    def checkpoint(self) -> str | None:
        """Ask for an immediate bound-set checkpoint; returns the path."""
        return self.call("checkpoint").get("path")

    def shutdown(self) -> None:
        """Ask the daemon to drain and exit."""
        self.call("shutdown")
