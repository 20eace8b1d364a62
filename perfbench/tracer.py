"""In-memory tracer for the traced benchmark run.

Coarse calls (a CLI stage, `read_log`, `pav`, `solve_policy`, ...) record
spans with name, start, end and parent. Hot calls (once per pass, record or
value cell) record only an aggregate count, total time and self time per
name. A call's self time is its duration minus the time of the traced calls
nested in it, so the self times of all names add up to the traced time.

Wrappers replace public functions in the namespace their callers look them
up in, for example `notif_ltv.cli.read_log` or `notif_ltv.sim.simulate_pass`.
A boundary whose attribute no longer exists is recorded as missing and its
metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

SPAN = "span"
HOT = "hot"


class Tracer:
    """Spans, hot-call aggregates and counters for one traced run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.span_self: dict[str, float] = {}
        self.hot: dict[str, list] = {}  # name -> [calls, total_s, self_s, truthy results]
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.counter_errors: list[str] = []
        self._stack: list[list] = []  # frames: [child_s, span index or -1]
        self._deferred: list = []

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def _pop(self, frame, elapsed: float) -> float:
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += elapsed
        return elapsed - frame[0]

    def _parent_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[1] >= 0:
                return frame[1]
        return -1

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._parent_span()
        self.spans.append((name, 0.0, 0.0, parent))
        frame = [0.0, index]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.spans[index] = (name, start, end, parent)
            self_s = self._pop(frame, end - start)
            self.span_self[name] = self.span_self.get(name, 0.0) + self_s

    def wrap_span(self, name: str, fn, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if post is not None:
                self._deferred.append((post, args, kwargs, result))
            return result
        return wrapper

    def wrap_hot(self, name: str, fn, count_truthy: bool = False):
        agg = self.hot.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, -1]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[0]
            if count_truthy and result:
                agg[3] += 1
            return result
        return wrapper

    def flush(self) -> None:
        """Run the deferred counters of the calls since the last flush.

        Counting work (sizes of results, distinct values) runs here, outside
        every span, so it does not inflate any layer's time.
        """
        pending, self._deferred = self._deferred, []
        for post, args, kwargs, result in pending:
            try:
                post(self, args, kwargs, result)
            except Exception as exc:  # a changed result type must not end the run
                self.counter_errors.append(f"{post.__name__}: {exc!r}")

    def span_total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def span_calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def hot_stat(self, name: str) -> tuple[int, float, float, int]:
        calls, total, self_s, truthy = self.hot.get(name, (0, 0.0, 0.0, 0))
        return calls, total, self_s, truthy

    def self_by_layer(self) -> dict[str, float]:
        """Self time per layer, the layer being the first part of a name."""
        out: dict[str, float] = {}
        for name, self_s in self.span_self.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        for name, (_, _, self_s, _) in self.hot.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def to_dict(self) -> dict:
        origin = self.spans[0][1] if self.spans else 0.0
        return {
            "spans": [{"id": i, "name": n, "start_s": s - origin, "end_s": e - origin,
                       "parent": p} for i, (n, s, e, p) in enumerate(self.spans)],
            "hot": {n: {"calls": c, "total_s": t, "self_s": s, "truthy": h}
                    for n, (c, t, s, h) in sorted(self.hot.items())},
            "counters": dict(sorted(self.counters.items())),
            "missing": self.missing,
            "counter_errors": self.counter_errors,
        }


def install(tracer: Tracer, boundaries) -> list:
    """Wrap each (module, attr, name, kind, extra) boundary; return the undo list.

    extra is a span's deferred counter, post(tracer, args, kwargs, result),
    or for a hot call whether to count its truthy results.

    A module or attribute that does not exist is skipped and listed in
    tracer.missing, so a retired boundary reports zero instead of failing.
    """
    undo = []
    for module_name, attr, name, kind, extra in boundaries:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            tracer.missing.append(f"{module_name}.{attr}")
            continue
        if kind == HOT:
            wrapper = tracer.wrap_hot(name, fn, bool(extra))
        else:
            wrapper = tracer.wrap_span(name, fn, extra)
        setattr(module, attr, wrapper)
        undo.append((module, attr, fn))
    return undo


def uninstall(undo) -> None:
    for module, attr, fn in reversed(undo):
        setattr(module, attr, fn)
