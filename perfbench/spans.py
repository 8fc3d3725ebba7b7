"""Benchmark-side tracing: timed wrappers around the repository's public calls.

The traced run installs :func:`install`'s wrappers before the workload
starts.  Each wrapper records one span (name, start, end, parent, thread
and a few attributes such as the tree depth or whether a refinement was
accepted) into a per-thread list kept in memory; the spans are written out
once, when the run ends.  Nothing inside ``src/`` is edited: modules import
these functions by name, so each name is patched where it is looked up
(``repro.controllers.bounded.refine_at``, not ``repro.bounds.incremental``).

A span's *self time* is its duration minus the durations of its direct
children.  Self times of one tree add up to its root's duration, which is
what lets a report split a wall-clock figure across layers and name the
remainder that no wrapper covers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

# Record layout: [span_id, parent_id, thread, name, start_ns, end_ns, attrs].
_ID, _PARENT, _THREAD, _NAME, _START, _END, _ATTRS = range(7)


class _ThreadLog:
    __slots__ = ("thread", "stack", "spans")

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[list] = []
        self.spans: list[list] = []


class Tracer:
    """In-memory span recorder, one log per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._ids = itertools.count(1)

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.get_ident())
            with self._lock:
                self._logs.append(log)
            self._local.log = log
        return log

    def _open(self, name: str, attrs: dict | None) -> tuple[_ThreadLog, list]:
        log = self._log()
        parent = log.stack[-1][_ID] if log.stack else 0
        record = [next(self._ids), parent, log.thread, name, 0, 0, attrs]
        log.stack.append(record)
        record[_START] = time.perf_counter_ns()
        return log, record

    @staticmethod
    def _close(log: _ThreadLog, record: list) -> None:
        record[_END] = time.perf_counter_ns()
        log.stack.pop()
        log.spans.append(record)

    def wrap(self, name: str, func, describe=None):
        """``func`` recording a ``name`` span per call.

        ``describe(args, kwargs, result)`` returns the span's attributes;
        a call that raises records the exception's type name instead.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            log, record = tracer._open(name, None)
            try:
                result = func(*args, **kwargs)
            except BaseException as error:
                tracer._close(log, record)
                record[_ATTRS] = {"error": type(error).__name__}
                raise
            tracer._close(log, record)
            if describe is not None:
                record[_ATTRS] = describe(args, kwargs, result)
            return result

        return wrapper

    def span(self, name: str, **attrs):
        """Context manager recording one benchmark-level span."""
        return _SpanContext(self, name, attrs or None)

    def records(self) -> list[list]:
        with self._lock:
            logs = list(self._logs)
        return [record for log in logs for record in log.spans]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            json.dump(self.records(), stream, separators=(",", ":"))


class _SpanContext:
    __slots__ = ("tracer", "name", "attrs", "log", "record")

    def __init__(self, tracer: Tracer, name: str, attrs: dict | None):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> list:
        self.log, self.record = self.tracer._open(self.name, self.attrs)
        return self.record

    def __exit__(self, *exc_info) -> None:
        self.tracer._close(self.log, self.record)


def load_records(path) -> list[list]:
    with open(path, encoding="utf-8") as stream:
        return json.load(stream)


# -- what gets wrapped ----------------------------------------------------------


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _expand_attrs(args, kwargs, result) -> dict:
    pomdp = _arg(args, kwargs, 0, "pomdp")
    leaf = _arg(args, kwargs, 3, "leaf")
    return {
        "depth": int(_arg(args, kwargs, 2, "depth")),
        "nodes": int(result.nodes),
        "leaves": int(result.leaf_evaluations),
        "sparse": bool(pomdp.backend.is_sparse),
        "linear_leaf": getattr(leaf, "vectors", None) is not None,
    }


def _lookup_attrs(args, kwargs, result) -> dict:
    return {"declined": result is None}


def _refine_attrs(args, kwargs, result) -> dict:
    return {"added": bool(result.added)}


def _rows(args, kwargs, result) -> dict:
    return {"rows": int(len(result))}


def _merge_attrs(args, kwargs, result) -> dict:
    stack = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "vectors")))
    return {"candidates": int(stack.shape[0] if stack.size else 0), "added": int(result)}


def _dispatch_attrs(args, kwargs, result) -> dict:
    request = _arg(args, kwargs, 1, "request")
    return {"op": request.get("op"), "session": request.get("session")}


def _response_attrs(args, kwargs, result) -> dict:
    return {"ok": bool(result.get("ok")), "error": result.get("error")}


def _chunk_attrs(args, kwargs, result) -> dict:
    # Episode ``start + k`` is the chunk's k-th ``sim.episode`` child.
    return {"start": int(_arg(args, kwargs, 1, "start")), "stop": int(_arg(args, kwargs, 2, "stop"))}


#: ``(module, attribute path, span name, describe)``.  Functions imported by
#: name are patched in every module that looks them up.
TARGETS = (
    ("repro.systems.emn", "build_emn_system", "systems.build", None),
    ("repro.io", "load_recovery_model", "io.load_model", None),
    ("repro.serve.service", "save_bound_set", "io.checkpoint", None),
    ("repro.controllers.bounded", "ra_bound_vector", "bounds.ra_bound", None),
    ("repro.controllers.bootstrap", "ra_bound_vector", "bounds.ra_bound", None),
    ("repro.experiments.table1", "bootstrap_bounds", "controllers.bootstrap", None),
    ("repro.serve.service", "bootstrap_bounds", "controllers.bootstrap", None),
    ("repro.controllers.bounded", "expand_tree", "pomdp.tree.expand", _expand_attrs),
    ("repro.controllers.bootstrap", "expand_tree", "pomdp.tree.expand", _expand_attrs),
    ("repro.pomdp.tree", "get_joint_cache", "pomdp.cache.lookup", _lookup_attrs),
    ("repro.bounds.incremental", "get_joint_cache", "pomdp.cache.lookup", _lookup_attrs),
    ("repro.pomdp.belief", "get_joint_cache", "pomdp.cache.lookup", _lookup_attrs),
    ("repro.controllers.bounded", "refine_at", "bounds.refine", _refine_attrs),
    ("repro.controllers.bootstrap", "refine_at", "bounds.refine", _refine_attrs),
    ("repro.bounds.vector_set", "BoundVectorSet.value_batch", "bounds.value_batch", _rows),
    ("repro.bounds.vector_set", "BoundVectorSet.merge", "bounds.merge", _merge_attrs),
    ("repro.controllers.engine", "RecoverySession.decide", "controllers.engine.decide", None),
    ("repro.controllers.engine", "RecoverySession.observe", "controllers.engine.observe", None),
    ("repro.controllers.bounded", "BoundedPolicyEngine.decide", "controllers.bounded.decide", None),
    ("repro.controllers.engine", "update_belief", "pomdp.belief.update", None),
    ("repro.controllers.bootstrap", "update_belief", "pomdp.belief.update", None),
    ("repro.serve.service", "PolicyService.open_session", "serve.service.open", None),
    ("repro.serve.service", "PolicyService.observe", "serve.service.observe", None),
    ("repro.serve.service", "PolicyService.decide", "serve.service.decide", None),
    ("repro.serve.service", "PolicyService.close_session", "serve.service.close", None),
    ("repro.serve.daemon", "handle_line", "serve.protocol.handle_line", _response_attrs),
    ("repro.serve.protocol", "dispatch", "serve.protocol.dispatch", _dispatch_attrs),
    ("repro.serve.daemon", "encode_response", "serve.protocol.encode", None),
    ("repro.sim.campaign", "run_episode", "sim.episode", None),
    ("repro.sim.environment", "RecoveryEnvironment.execute", "sim.environment.execute", None),
    ("repro.sim.parallel", "run_chunk", "sim.chunk", _chunk_attrs),
)


def install(tracer: Tracer):
    """Patch every target; returns a function that restores the originals."""
    patched: list[tuple[object, str, object]] = []
    for module_name, path, name, describe in TARGETS:
        owner = importlib.import_module(module_name)
        *parents, attribute = path.split(".")
        for parent in parents:
            owner = getattr(owner, parent)
        original = owner.__dict__[attribute]
        setattr(owner, attribute, tracer.wrap(name, original, describe))
        patched.append((owner, attribute, original))

    def restore() -> None:
        for owner, attribute, original in reversed(patched):
            setattr(owner, attribute, original)

    return restore


# -- reading spans back ---------------------------------------------------------


@dataclass
class NameStats:
    """Aggregate of every span of one name inside a scope."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class SpanForest:
    """Spans of one process, indexed for self-time and subtree queries."""

    def __init__(self, records: list[list]):
        self.records = records
        self.children: dict[int, list[list]] = defaultdict(list)
        for record in records:
            self.children[record[_PARENT]].append(record)

    @staticmethod
    def duration(record: list) -> int:
        return record[_END] - record[_START]

    def self_ns(self, record: list) -> int:
        return self.duration(record) - sum(
            self.duration(child) for child in self.children.get(record[_ID], ())
        )

    def named(self, name: str) -> list[list]:
        return [record for record in self.records if record[_NAME] == name]

    def roots(self) -> list[list]:
        return self.children.get(0, [])

    def subtree(self, record: list):
        """``record`` and every span below it."""
        pending = [record]
        while pending:
            current = pending.pop()
            yield current
            pending.extend(self.children.get(current[_ID], ()))

    def child(self, record: list, name: str) -> list | None:
        for child in self.children.get(record[_ID], ()):
            if child[_NAME] == name:
                return child
        return None


def attrs(record: list) -> dict:
    return record[_ATTRS] or {}


def name(record: list) -> str:
    return record[_NAME]


def thread(record: list) -> int:
    return record[_THREAD]


def start(record: list) -> int:
    return record[_START]
