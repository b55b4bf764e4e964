"""Spans and counts recorded around the benchmark's calls into pmelab.

Spans are kept in memory and written once the run ends.  Nothing here
reaches inside the package: every span wraps a call made from the
benchmark's own files.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    """Nested spans ``(name, start_ns, end_ns, parent, op)`` and named counts."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), None, self._stack[-1] if self._stack else None, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def seconds(self, name: str) -> list[float]:
        """Durations of every closed span called ``name``, in seconds."""
        return [(end - start) * 1e-9 for nm, start, end, _, _ in self.spans if nm == name and end is not None]


class NullTracer:
    """Stand-in used for untraced runs; records nothing."""

    op_id = None
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, n: int = 1) -> None:
        pass
