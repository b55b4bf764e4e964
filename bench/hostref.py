"""Fixed reference work, timed between operations.

This host's CPU speed swings by up to 2x within seconds (the same
``integrate`` call measured 25-51 ms in consecutive 5 s windows, with
process CPU time equal to wall time), so wall-clock latencies of separate
runs are not comparable.  Each reference does work of the same kind as the
operations it sits between and shares nothing with pmelab; a latency
divided by the reference times measured around it is a cost that does not
move with the host's speed.

* :func:`reference_seconds` - a Python loop over small numpy operations, for
  the in-process workloads;
* :func:`cold_reference_seconds` - a fresh interpreter that imports numpy,
  for ``cli_cold``, whose operations are fresh interpreters.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

ITERATIONS = 300
PASSES = 3
_RNG = np.random.default_rng(20230117)
_A = _RNG.random((30, 30))
_X = _RNG.random(30)


def _one_pass() -> float:
    start = time.perf_counter()
    y = _X.copy()
    acc = 0.0
    for _ in range(ITERATIONS):
        y = _A @ y
        y /= y.sum()
        acc += float(y[0])
    elapsed = time.perf_counter() - start
    if not acc > 0.0:  # keeps the loop's result live
        raise RuntimeError("reference computation lost its result")
    return elapsed


def reference_seconds() -> float:
    """Fastest of three passes of the reference computation (about 1 ms each).

    The first pass after the process has waited (for a CLI child, say) runs
    on cold caches; the fastest pass reflects the host's speed instead.
    """
    return min(_one_pass() for _ in range(PASSES))


def cold_reference_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - start
