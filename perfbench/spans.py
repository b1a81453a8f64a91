"""In-memory spans recorded around calls into dictseg's public functions.

A span has a name, a start, an end and the span that was open when it
began.  Self time is the span's duration minus the time its direct
children cover.  Untraced runs use ``NULL`` so the timed code is the
same in both modes.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts[index] = time.perf_counter()
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = {}
        for i, name in enumerate(self.names):
            own = self.ends[i] - self.starts[i] - child[i]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def durations(self) -> dict[str, float]:
        """Total duration per span name, in seconds."""
        totals: dict[str, float] = {}
        for name, start, end in zip(self.names, self.starts, self.ends):
            totals[name] = totals.get(name, 0.0) + end - start
        return totals


class _NullTracer:
    @contextmanager
    def span(self, name: str):
        yield


NULL = _NullTracer()
