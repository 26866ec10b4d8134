"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the program at the module or class
attribute where the program looks them up, and records one span per call:
name, start, end, parent span and root span, plus counts taken from the
call's arguments and result. Wrappers are installed only inside
``installed()``, so the same process can alternate traced and untraced
work and measure the tracer's own overhead. Spans stay in memory until
``write()`` dumps them as JSON lines.

Self time of a span is its duration minus the durations of its direct
children; the program is single threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "root", "attrs")

    def __init__(self, id, name, start, parent, root):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.root = root
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches = []
        self._t0 = time.perf_counter()

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        span = Span(sid, name, time.perf_counter(),
                    parent.id if parent else None, parent.root if parent else sid)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Register a wrapper for ``owner.attr``, active inside ``installed()``.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` return
        dicts of counts added to the span's attributes.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            if before is not None:
                span.attrs.update(before(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                span.attrs.update(after(args, kwargs, result))
            return result

        self._patches.append((owner, attr, original, wrapper))

    @contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        """Self time of every span, indexed by span id."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "root": s.root,
                    "start": s.start - self._t0, "end": s.end - self._t0,
                    **s.attrs,
                }) + "\n")
