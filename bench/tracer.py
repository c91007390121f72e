"""Outside-in span tracer: wraps functions of an already-imported package.

The tracer never edits the package.  ``install`` replaces each traced
function by a wrapper in every loaded namespace of the package that holds
it (modules that did ``from .x import f`` keep their own reference, and
module-level tuples such as a list of criteria hold one too), and swaps the
package's ``ThreadPoolExecutor`` for a subclass that hands the submitting
thread's open span to the worker, so work done on a pool is attributed to
the span that waited for it.  ``uninstall`` puts every original back.

Each call becomes a span (id, parent id, operation id, name, start, end,
thread).  Spans are kept in memory and written out by ``write_spans``.
Per-pass aggregates are read with ``take_pass``: calls and inclusive
seconds per span name (nested calls of the same name count once), self
seconds per module (span time not covered by the union of its children's
intervals), and the work counts that each traced function reports.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One traced function.

    ``owner`` is the module or class that defines ``attr``; ``module`` is
    the layer the span's self time is charged to.  ``variant`` maps the
    call's arguments to a name suffix; ``work`` maps arguments and result
    to computed work counts, keyed by metric-name suffix.
    """

    name: str
    module: str
    owner: object
    attr: str
    variant: Callable | None = None
    work: Callable | None = None


class _Span:
    __slots__ = ("sid", "parent", "op", "name", "module", "start", "end", "children")

    def __init__(self, sid, parent, op, name, module, start):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.module = module
        self.start = start
        self.end = start
        self.children: list[tuple[float, float]] = []


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children may overlap across threads)."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Tracer:
    def __init__(self, package: str) -> None:
        self.package = package
        self.op_id: str | None = None
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._reset_pass()

    # -- aggregation -----------------------------------------------------

    def _reset_pass(self) -> None:
        self._calls: dict[str, int] = defaultdict(int)
        self._incl: dict[str, float] = defaultdict(float)
        self._self: dict[str, float] = defaultdict(float)
        self._work: dict[str, float] = defaultdict(float)

    def take_pass(self) -> dict[str, float]:
        """Aggregates since the last call, as flat ``name.suffix`` metrics."""
        with self._lock:
            out: dict[str, float] = {}
            for name, n in self._calls.items():
                out[f"{name}.calls"] = n
                out[f"{name}.s"] = self._incl[name]
            for module, s in self._self.items():
                out[f"{module}.self_s"] = s
            out.update(self._work)
            self._reset_pass()
        return out

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> _Span | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "root", None)

    def _close(self, span: _Span, nested: bool, work: dict[str, float]) -> None:
        dur = span.end - span.start
        own = dur - _covered(span.children)
        with self._lock:
            self._calls[span.name] += 1
            if not nested:
                self._incl[span.name] += dur
            self._self[span.module] += own
            for key, val in work.items():
                self._work[f"{span.name}.{key}"] += val
            if span.parent is not None:
                span.parent.children.append((span.start, span.end))
            self.spans.append((span.sid, span.parent.sid if span.parent else 0, span.op,
                               span.name, span.start, span.end,
                               threading.get_ident()))

    # -- wrapping --------------------------------------------------------

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            name = layer.name
            if layer.variant is not None:
                name = f"{name}.{layer.variant(args, kwargs)}"
            stack = tracer._stack()
            nested = any(s.name == name for s in stack)
            parent = stack[-1] if stack else getattr(tracer._local, "root", None)
            span = _Span(next(tracer._ids), parent, tracer.op_id, name, layer.module,
                         perf_counter())
            stack.append(span)
            result = done = None
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                span.end = perf_counter()
                stack.pop()
                work = (layer.work(args, kwargs, result)
                        if done and layer.work is not None else {})
                tracer._close(span, nested, work)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _pool_class(self) -> type:
        tracer = self

        class TracedThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def run(*a, **k):
                    tracer._local.root = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.root = None

                return super().submit(run, *args, **kwargs)

        return TracedThreadPoolExecutor

    def _namespaces(self) -> list[object]:
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, layers: list[Layer]) -> None:
        """Rebind every layer's function, in its owner and every namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replace: dict[int, Callable] = {}
        for layer in layers:
            fn = layer.owner.__dict__[layer.attr]
            replace[id(fn)] = self._wrap(layer, fn)
        replace[id(ThreadPoolExecutor)] = self._pool_class()
        for layer in layers:
            if isinstance(layer.owner, type):
                fn = layer.owner.__dict__[layer.attr]
                self._set(layer.owner, layer.attr, replace[id(fn)])
        for mod in self._namespaces():
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    self._set(mod, attr, replace[id(value)])
                elif isinstance(value, tuple) and any(id(v) in replace for v in value):
                    self._set(mod, attr, tuple(replace.get(id(v), v) for v in value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        keys = ("id", "parent", "op", "name", "start", "end", "thread")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
