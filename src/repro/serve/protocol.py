"""Line-delimited JSON protocol between clients and the policy daemon.

One request per line, one response per line, UTF-8.  A request is an
object with an ``"op"`` field plus op-specific arguments; a response is
``{"ok": true, ...}`` on success or ``{"ok": false, "error": code,
"message": ...}`` on failure.  Malformed lines get an error response
rather than a dropped connection, so an interactive ``socat`` session
stays usable.

Ops:

``ping``
    Liveness probe.  → ``{"ok": true, "pong": true}``.
``open``
    Open a session.  Optional ``session`` (client-chosen id),
    ``refine`` (bool; override the engine's online-refinement default —
    ``false`` gives a read-only session), ``belief`` (list of floats).
    → ``{"ok": true, "session": id}``.
``observe``
    ``session``, ``action`` (int), ``observation`` (int): fold a monitor
    output into the session's belief.  → ``{"ok": true}``.  A non-integer
    (or boolean) field is ``bad-request``; an index outside the model's
    actions or observations is ``invalid``, and the belief is unchanged.
``decide``
    ``session``: one decision.  → ``{"ok": true, "action": int,
    "action_label": str|null, "terminate": bool, "value": float|null,
    "done": bool, "steps": int}``.
``close``
    ``session``: release it.  → ``{"ok": true}``.
``stats``
    Operational snapshot, including a per-session table.
    → ``{"ok": true, "stats": {...}}``.
``metrics``
    Live telemetry snapshot (counters/gauges/latency histograms).
    → ``{"ok": true, "metrics": {...}}``; with ``"format": "prometheus"``
    → ``{"ok": true, "text": "..."}`` (Prometheus text exposition).
``health``
    Liveness probe (true even while draining).
    → ``{"ok": true, "health": {...}}``.
``ready``
    Readiness probe: model loaded + bound set certified + not draining.
    → ``{"ok": true, "ready": bool, ...}``.
``checkpoint``
    Persist the refined bound set now.  → ``{"ok": true, "path": str|null}``.
``shutdown``
    Ask the daemon to drain and exit (same path as SIGTERM).
    → ``{"ok": true, "draining": true}``.

Error codes: ``bad-request`` (unparseable line, missing/invalid fields,
unknown op), ``serve-error`` (a :class:`~repro.exceptions.ServeError`:
unknown/duplicate session, draining), ``invalid`` (the model rejected the
arguments — e.g. a belief of the wrong dimension), ``internal``
(anything else; the daemon stays up).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from repro.exceptions import ReproError, ServeError

if TYPE_CHECKING:
    from repro.serve.service import PolicyService

__all__ = ["decode_request", "dispatch", "encode_response", "handle_line"]


class BadRequest(ServeError):
    """The request itself is malformed (vs. a valid request the service
    cannot honour, which stays a plain :class:`ServeError`)."""


def decode_request(line: str | bytes) -> dict[str, Any]:
    """Parse one request line; raises :class:`BadRequest` on bad input."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as error:
        raise BadRequest(f"request is not valid JSON: {error}") from None
    if not isinstance(request, dict) or not isinstance(request.get("op"), str):
        raise BadRequest('request must be an object with a string "op" field')
    return request


def encode_response(response: dict[str, Any]) -> bytes:
    """Serialise one response object to a newline-terminated JSON line."""
    return (json.dumps(response, separators=(",", ":")) + "\n").encode("utf-8")


def _require(request: dict[str, Any], key: str) -> Any:
    try:
        return request[key]
    except KeyError:
        raise BadRequest(f'missing required field "{key}"') from None


def _require_int(request: dict[str, Any], key: str) -> int:
    # JSON true/false decode to Python bools, which are ints: without the
    # check ``"action": true`` would run action 1.
    value = _require(request, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadRequest(f'"{key}" must be an integer')
    return value


def dispatch(
    service: PolicyService, request: dict[str, Any], opened: set[str]
) -> dict[str, Any]:
    """Execute one decoded request against ``service``.

    ``opened`` is the calling connection's set of session ids; opens and
    closes keep it current so the connection handler can release leaked
    sessions when the client disconnects.  A ``shutdown`` request is
    answered here but *signalled* by raising nothing — the daemon watches
    for the op before dispatching.
    """
    op = request["op"]
    if op == "ping":
        return {"ok": True, "pong": True}
    if op == "open":
        session_id = request.get("session")
        if session_id is not None and not isinstance(session_id, str):
            raise BadRequest('"session" must be a string')
        refine = request.get("refine")
        if refine is not None and not isinstance(refine, bool):
            raise BadRequest('"refine" must be a boolean')
        session_id = service.open_session(
            session_id=session_id,
            refine=refine,
            initial_belief=request.get("belief"),
        )
        opened.add(session_id)
        return {"ok": True, "session": session_id}
    if op == "observe":
        service.observe(
            str(_require(request, "session")),
            _require_int(request, "action"),
            _require_int(request, "observation"),
        )
        return {"ok": True}
    if op == "decide":
        result = service.decide(str(_require(request, "session")))
        return {"ok": True, **result}
    if op == "close":
        session_id = str(_require(request, "session"))
        service.close_session(session_id)
        opened.discard(session_id)
        return {"ok": True}
    if op == "stats":
        return {"ok": True, "stats": service.stats()}
    if op == "metrics":
        fmt = request.get("format", "json")
        if fmt == "json":
            return {"ok": True, "metrics": service.metrics()}
        if fmt == "prometheus":
            from repro.obs.live import render_prometheus

            return {"ok": True, "text": render_prometheus(service.metrics())}
        raise BadRequest('"format" must be "json" or "prometheus"')
    if op == "health":
        return {"ok": True, "health": service.health()}
    if op == "ready":
        return {"ok": True, **service.ready()}
    if op == "checkpoint":
        return {"ok": True, "path": service.checkpoint()}
    if op == "shutdown":
        return {"ok": True, "draining": True}
    raise BadRequest(f"unknown op {op!r}")


def handle_line(
    service: PolicyService, line: str | bytes, opened: set[str]
) -> dict[str, Any]:
    """Decode, dispatch, and wrap errors into protocol responses."""
    try:
        request = decode_request(line)
        return dispatch(service, request, opened)
    except BadRequest as error:
        return {"ok": False, "error": "bad-request", "message": str(error)}
    except ServeError as error:
        return {"ok": False, "error": "serve-error", "message": str(error)}
    except (ReproError, ValueError, TypeError) as error:
        return {"ok": False, "error": "invalid", "message": str(error)}
    except Exception as error:  # noqa: BLE001 — daemon must survive any request
        return {"ok": False, "error": "internal", "message": str(error)}
