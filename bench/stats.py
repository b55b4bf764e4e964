"""Summary statistics shared by ``run.py`` and the worker processes.

Standard library only, so ``run.py`` can use them without importing numpy.
"""

from __future__ import annotations

import bisect
import statistics
from dataclasses import dataclass, field

TAIL_BEYOND = 10
"""Samples that must lie strictly above the reported tail value."""


def median(values) -> float:
    return float(statistics.median(values))


def tail(samples) -> dict:
    """The highest percentile that has at least ``TAIL_BEYOND`` samples beyond it.

    Returns the value, the percentile it sits at (share of samples at or
    below it), how many samples lie strictly above it, and the sample count.
    A percentile below the median is no tail: with fewer than
    ``2 * TAIL_BEYOND`` samples the median is reported instead and
    ``rule_met`` is false, so a reader sees that the run was too short.
    """
    xs = sorted(float(x) for x in samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")

    def beyond(i):
        return n - bisect.bisect_right(xs, xs[i])

    k = n - TAIL_BEYOND - 1
    while k >= 0 and beyond(k) < TAIL_BEYOND:
        k -= 1
    if k >= 0:
        pct = 100.0 * bisect.bisect_right(xs, xs[k]) / n
        if pct >= 50.0:
            return {"value": xs[k], "percentile": pct, "beyond": beyond(k), "n": n, "rule_met": True}
    mid = median(xs)
    return {
        "value": mid,
        "percentile": 50.0,
        "beyond": n - bisect.bisect_right(xs, mid),
        "n": n,
        "rule_met": False,
    }


@dataclass
class Tally:
    """Attempted and failed operations, with the first few failure reasons.

    An operation fails when it raises, exits with an unexpected code, or
    produces output outside its reference; every one counts once.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    keep: int = 5

    def record(self, label: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < self.keep:
                self.reasons.append("%s: %s" % (label, reason))

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons += other.reasons[: max(0, self.keep - len(self.reasons))]

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
