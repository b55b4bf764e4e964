"""Operations and the closed loop that drives them.

One client issues the next operation only after the previous one has
finished and been checked.  Latency covers the program call alone; the
check against the reference runs outside the timer but inside the loop, so
it is part of the throughput figure.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from stats import Tally


class CheckFailed(Exception):
    """An operation's output lies outside its reference."""


@dataclass
class Op:
    """One benchmark operation.

    ``call(tracer)`` makes the timed call into pmelab and returns its
    output; ``check(output)`` raises :class:`CheckFailed` when the output
    is outside its reference and otherwise returns the reference error
    (or ``None`` where no numeric reference applies).  ``meta`` keeps the
    call's inputs for the traced layer pass.
    """

    label: str
    span: str
    call: Callable[[Any], Any]
    check: Callable[[Any], Optional[float]]
    meta: dict = field(default_factory=dict)


def run_op(op: Op, tracer) -> tuple[float, Optional[str], Optional[float], Any]:
    """Run and check one operation.

    Returns ``(latency_s, failure reason or None, reference error, output)``;
    the output is ``None`` when the call raised.
    """
    start = time.perf_counter()
    try:
        with tracer.span(op.span):
            out = op.call(tracer)
    except Exception as exc:  # a raising operation is a failed one
        return time.perf_counter() - start, "raised %s: %s" % (type(exc).__name__, exc), None, None
    latency = time.perf_counter() - start
    try:
        err = op.check(out)
    except CheckFailed as exc:
        return latency, str(exc), None, out
    except Exception as exc:  # output the check cannot read is outside its reference
        return latency, "check raised %s: %s" % (type(exc).__name__, exc), None, out
    return latency, None, err, out


def closed_loop(rotation: list[Op], seconds: float, tracer, min_ops: int = 1, reference=None) -> dict:
    """Issue operations round-robin until ``seconds`` pass and ``min_ops`` ran.

    With a ``reference`` timer, the reference is also timed before every
    operation and after the last one, and each latency is reported relative
    to the median of the four reference times around it (two before, two
    after), so a change of host speed during a long operation is seen from
    both sides.  Reference time is not counted as loop time.
    """
    tally = Tally()
    latencies, ref_times = [], []
    ref_err = None
    start = time.monotonic()
    i = 0
    while i < min_ops or time.monotonic() - start < seconds:
        if reference is not None:
            ref_times.append(reference())
        op = rotation[i % len(rotation)]
        tracer.op_id = i
        with tracer.span("op"):
            latency, reason, err, _ = run_op(op, tracer)
        latencies.append(latency)
        tally.record(op.label, reason)
        if err is not None:
            ref_err = err if ref_err is None else max(ref_err, err)
        i += 1
    if reference is not None:
        ref_times.append(reference())
    elapsed = time.monotonic() - start - sum(ref_times)
    tracer.op_id = None
    relative = []
    if ref_times:
        relative = [lat / statistics.median(ref_times[max(0, k - 1) : k + 3]) for k, lat in enumerate(latencies)]
    return {
        "latencies": latencies,
        "relative": relative,
        "ref_times": ref_times,
        "tally": tally,
        "ref_err": ref_err,
        "elapsed": elapsed,
    }
