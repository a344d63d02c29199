"""In-memory span tracer that wraps public entry points from outside the
program: each wrapped attribute records a span (name, start, end, parent)
and optional counters read from its arguments and result.

Nothing under src/ is touched. Wrappers replace the attribute that the
caller actually looks up (a module global or a class attribute) and are
removed again by Tracer.uninstall(), which restores the original objects.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int


@dataclass
class Target:
    """One attribute to wrap. `owner` is a module or class; `hook`, when
    given, is called as hook(counters, args, kwargs, result) after each call;
    `pre`, when given, as pre(counters, args, kwargs) before it."""

    owner: object
    attr: str
    span: str
    hook: object = None
    pre: object = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: list[dict[str, float]] = field(default_factory=list)
    iteration: int = -1
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    # -- recording -------------------------------------------------------
    def begin_iteration(self) -> None:
        self.iteration += 1
        self.counters.append({})

    def count(self, name: str, value: float = 1) -> None:
        bucket = self.counters[self.iteration]
        bucket[name] = bucket.get(name, 0) + value

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.iteration))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- installing wrappers --------------------------------------------
    def _wrap(self, fn, target: Target):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.pre is not None:
                target.pre(tracer.count, args, kwargs)
            idx = tracer._open(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer.count(target.span + ".calls")
            if target.hook is not None:
                target.hook(tracer.count, args, kwargs, result)
            return result

        return wrapper

    def install(self, targets: list[Target]) -> None:
        for t in targets:
            raw = t.owner.__dict__[t.attr] if isinstance(t.owner, type) else getattr(t.owner, t.attr)
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(raw.__func__, t))
            elif isinstance(raw, staticmethod):
                replacement = staticmethod(self._wrap(raw.__func__, t))
            else:
                replacement = self._wrap(raw, t)
            self._saved.append((t.owner, t.attr, raw))
            setattr(t.owner, t.attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of its interval that its child
    spans cover (overlapping children are merged, children are clipped to
    the parent)."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        intervals = sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                           for c in children.get(i, ()))
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def self_time_by_name(spans: list[Span], iterations: set[int]) -> dict[str, float]:
    """Total self time per span name over the given iterations."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        if s.iteration in iterations:
            totals[s.name] = totals.get(s.name, 0.0) + t
    return totals
