"""In-memory span recorder that times calls into a program from outside it.

A Tracer replaces module or class attributes with timing wrappers, so the
program's own code is unchanged and, once uninstalled, runs exactly as
before. Each span records an id, its parent span (the innermost traced
call on the same thread), a name, start and end on the monotonic clock,
the operation it belongs to and optional counts. Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, NamedTuple


class Target(NamedTuple):
    """One attribute to wrap. `counts(args, kwargs, result)` returns a dict
    of numbers stored on the span; `op(args, kwargs)` returns the operation
    id that the call and its children belong to, or None to inherit it."""
    owner: object
    attr: str
    name: str
    counts: Callable | None = None
    op: Callable | None = None


class Tracer:
    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[tuple] = []  # (id, parent, name, start, end, op, counts)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack, st.op = [], 0
        return st

    def install(self, names=None) -> None:
        """Wraps every target, or only those whose span name is in names."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for t in self.targets:
            if names is None or t.name in names:
                original = getattr(t.owner, t.attr)
                self._saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self._wrap(original, t))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = tracer._state()
            outer_op = st.op
            if target.op is not None:
                op = target.op(args, kwargs)
                if op is not None:
                    st.op = op
            sid = next(tracer._ids)
            parent = st.stack[-1] if st.stack else 0
            st.stack.append(sid)
            counts = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if target.counts is not None:
                    counts = target.counts(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                st.stack.pop()
                tracer.spans.append((sid, parent, target.name, start, end,
                                     st.op, counts))
                st.op = outer_op

        return traced

    @contextmanager
    def span(self, name: str, op: int):
        """A root span opened by the benchmark itself around one operation."""
        st = self._state()
        outer_op, st.op = st.op, op
        sid = next(self._ids)
        parent = st.stack[-1] if st.stack else 0
        st.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            st.stack.pop()
            self.spans.append((sid, parent, name, start, end, op, None))
            st.op = outer_op

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def read_spans(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh if line.strip()]


class Layer:
    __slots__ = ("calls", "total", "self_time", "counts")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counts: dict[str, float] = {}


def summarize(spans: list[tuple], scopes=(), into=None) -> dict[str, Layer]:
    """Per-name call count, total time, self time and summed counts.

    A span's self time is its duration minus the durations of its direct
    children. Spans of one process only: ids are per process. A span that
    has an ancestor named in scopes is also added under "name@scope", with
    the nearest such ancestor.
    """
    out = {} if into is None else into
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, parent, _, start, end, _, _ in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    scope_of: dict[int, str | None] = {0: None}

    def nearest_scope(sid):
        chain = []
        while sid not in scope_of:
            chain.append(sid)
            parent = by_id[sid][1] if sid in by_id else 0
            if parent in by_id and by_id[parent][2] in scopes:
                scope_of[sid] = by_id[parent][2]
                break
            sid = parent
        found = scope_of[sid]
        for c in chain:
            scope_of[c] = found
        return found

    for sid, _, name, start, end, _, counts in spans:
        keys = [name]
        scope = nearest_scope(sid) if scopes else None
        if scope is not None:
            keys.append(f"{name}@{scope}")
        dur = end - start
        for key in keys:
            layer = out.setdefault(key, Layer())
            layer.calls += 1
            layer.total += dur
            layer.self_time += dur - child_time.get(sid, 0.0)
            if counts:
                for k, v in counts.items():
                    layer.counts[k] = layer.counts.get(k, 0.0) + v
    return out
