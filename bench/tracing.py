"""In-memory spans around calls into the ehrqa modules, from outside them.

``Tracer.patch`` rebinds a module (or class) attribute that callers look up
at call time, such as ``ehrqa.st2.render_prompt`` or
``ehrqa.st1.token_overlap_f1``, to a wrapper that records one span per
call: name, start, end, parent span, case id, phase and the exception type
if it raised. A span is named after the module that defines the callee and
the callee, so a layer is the part of the name before the first dot.

Spans stay in memory until ``write`` is called at the end of the run.
Parents cross the per-case and per-request thread pools: the case span
falls back to the open root span, and gather calls hand their span and
case id to the pool threads through a proxy around the generator.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None
    phase: str
    error: str | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.phase = "run"
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _context(self) -> tuple[list[int], str | None]:
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.case = [], None
        return local.stack, local.case

    def call(self, name: str, fn: Callable, args=(), kwargs=None, case: str | None = None,
             on_result: Callable | None = None, root: bool = False):
        """Run ``fn`` inside a span. A ``root`` span also parents the spans
        opened, while it runs, on threads that have no open span."""
        stack, inherited = self._context()
        sid = next(self._ids)
        parent = stack[-1] if stack else self._root
        case = case if case is not None else inherited
        saved_case = self._local.case
        self._local.case = case
        if root:
            saved_root, self._root = self._root, sid
        stack.append(sid)
        error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            if on_result is not None:
                on_result(result)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self._local.case = saved_case
            if root:
                self._root = saved_root
            self.spans.append(Span(sid, name, start, end, parent, case, self.phase, error))

    def count(self, name: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[(self.phase, name)] += n

    # -- rebinding ---------------------------------------------------------

    def wrap(self, fn: Callable, name: str, case_arg: bool = False,
             on_result: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            case = getattr(args[0], "case_id", None) if case_arg and args else None
            return self.call(name, fn, args, kwargs, case=case, on_result=on_result)

        return traced

    def patch(self, owner, attr: str, name: str | None = None, **options) -> None:
        """Rebind ``owner.attr`` to a traced wrapper until ``restore``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = getattr(owner, attr)
        if name is None:
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(fn, name, **options))

    def patch_gather(self, owner, attr: str, pairs: bool) -> None:
        """Rebind a fan-out helper so its pool threads inherit span and case."""
        fn = getattr(owner, attr)
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        tracer = self

        def fan_out(first, *args, **kwargs):
            parent = tracer._context()[0][-1]
            case = tracer._local.case
            if pairs:
                first = [(_Carrier(tracer, g, parent, case), r) for g, r in first]
            else:
                first = _Carrier(tracer, first, parent, case)
            return fn(first, *args, **kwargs)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fan_out, name))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": list(Span._fields)}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(list(span), separators=(",", ":")) + "\n")


class _Carrier:
    """Generator proxy that runs each call under a given parent span and case."""

    def __init__(self, tracer: Tracer, inner, parent: int, case: str | None):
        self.tracer, self.inner, self.parent, self.case = tracer, inner, parent, case

    def generate(self, request):
        local = self.tracer._local
        stack, saved_case = self.tracer._context()
        saved_stack = list(stack)
        stack[:] = [self.parent]
        local.case = self.case
        try:
            return self.inner.generate(request)
        finally:
            stack[:] = saved_stack
            local.case = saved_case


# -- analysis --------------------------------------------------------------


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer: span durations minus the part their child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    layers: dict[str, float] = defaultdict(float)
    for s in spans:
        inner = covered(children.get(s.sid, []), s.start, s.end)
        layers[s.name.split(".", 1)[0]] += (s.end - s.start) - inner
    return dict(layers)


def max_sequential(intervals: list[tuple[float, float]]) -> int:
    """Most intervals that run one after another (greedy earliest end)."""
    count, free_at = 0, float("-inf")
    for lo, hi in sorted(intervals, key=lambda iv: iv[1]):
        if lo >= free_at:
            count += 1
            free_at = hi
    return count
