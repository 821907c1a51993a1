"""Spans and counts recorded by the benchmark around its calls into grady.

A span adds its call and its wall time to per-name totals when it
exits; nothing else is kept, so a traced run's memory does not grow
with the number of ops.  `OFF` is the tracer of untraced runs: its span
is one shared no-op context and its count does nothing, so untraced and
traced runs execute the same benchmark code.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    """Per-name span calls and seconds, plus counters."""

    enabled = True

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start
            self.calls[name] += 1

    def count(self, name, n=1):
        self.counts[name] += n


class _Off:
    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name):
        return self._null

    def count(self, name, n=1):
        pass


OFF = _Off()
