"""Tests for the benchmark's own code.  Run from the repository root::

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from loop import CheckFailed, Op, closed_loop  # noqa: E402
from stats import Tally, tail  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)
with open(os.path.join(BENCH, "plan.json"), encoding="utf-8") as fh:
    SEEDS = json.load(fh)["seeds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


# -- tail rule ---------------------------------------------------------------


def test_tail_has_exactly_ten_samples_beyond_when_values_are_distinct():
    t = tail(range(100))
    assert t["value"] == 89.0
    assert t["beyond"] == 10
    assert t["percentile"] == 90.0
    assert t["n"] == 100 and t["rule_met"]


def test_tail_steps_down_past_ties_until_ten_lie_beyond():
    samples = list(range(90)) + [95.0] * 10 + [99.0] * 5
    t = tail(samples)
    # 95 has only 5 beyond, so the tail is the largest value below the tie
    assert t["value"] == 89.0
    assert t["beyond"] == 15


def test_tail_is_the_median_when_too_few_samples_for_a_percentile_above_it():
    t = tail([5.0, 1.0, 3.0, 2.0, 4.0])
    assert t["value"] == 3.0
    assert t["percentile"] == 50.0
    assert not t["rule_met"]


def test_tail_at_twenty_samples_is_the_median_with_ten_beyond():
    t = tail(range(20))
    assert t["value"] == 9.0 and t["beyond"] == 10 and t["rule_met"]


def test_tail_of_an_empty_sample_is_an_error():
    with pytest.raises(ValueError):
        tail([])


# -- failure counting --------------------------------------------------------


def test_tally_counts_every_failure_and_keeps_the_first_reasons():
    tally = Tally(keep=2)
    for i in range(10):
        tally.record("op%d" % i, None if i % 3 else "bad %d" % i)
    assert (tally.attempted, tally.failed) == (10, 4)
    assert tally.reasons == ["op0: bad 0", "op3: bad 3"]
    assert tally.fail_frac == 0.4
    other = Tally()
    other.record("late", "bad late")
    tally.merge(other)
    assert (tally.attempted, tally.failed) == (11, 5)
    assert tally.reasons == ["op0: bad 0", "op3: bad 3"]


def _op(label, call, check=lambda out: None):
    return Op(label, "test." + label, lambda tracer: call(), check)


def _reject(out):
    raise CheckFailed("outside reference")


def _unreadable(out):
    return out["missing"]


def _raise():
    raise ValueError("boom")


def test_closed_loop_counts_raising_and_rejected_operations_as_failed():
    rotation = [
        _op("ok", lambda: 1, lambda out: 0.5),
        _op("raises", _raise),
        _op("rejected", lambda: 2, _reject),
        _op("unreadable", lambda: {}, _unreadable),
    ]
    res = closed_loop(rotation, 0.0, NullTracer(), min_ops=9)
    tally = res["tally"]
    assert tally.attempted == 9 and len(res["latencies"]) == 9
    assert tally.failed == 6  # ops 1, 2, 3, 5, 6, 7
    assert tally.reasons[:3] == [
        "raises: raised ValueError: boom",
        "rejected: outside reference",
        "unreadable: check raised KeyError: 'missing'",
    ]
    assert res["ref_err"] == 0.5


def test_latencies_are_also_reported_relative_to_the_reference_times_around_them():
    refs = iter([1.0, 2.0, 4.0, 8.0])
    res = closed_loop([_op("ok", lambda: 1)], 0.0, NullTracer(), min_ops=3, reference=lambda: next(refs))
    assert res["ref_times"] == [1.0, 2.0, 4.0, 8.0]  # before each op and after the last
    medians = [2.0, 3.0, 4.0]  # of refs[0:3], refs[0:4], refs[1:4]
    assert res["relative"] == [lat / m for lat, m in zip(res["latencies"], medians)]


def test_traced_loop_records_an_op_span_and_the_call_span_for_each_operation():
    tracer = Tracer()
    closed_loop([_op("ok", lambda: 1)], 0.0, tracer, min_ops=3)
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "test.ok"] * 3
    assert [s[3] for s in tracer.spans] == [None, 0, None, 2, None, 4]
    assert [s[4] for s in tracer.spans] == [0, 0, 1, 1, 2, 2]
    assert all(s[2] >= s[1] for s in tracer.spans)


# -- end to end --------------------------------------------------------------


def _run(workload, trace, seed=SEEDS["default"], cwd=ROOT):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric_with_its_unit(workload):
    proc = _run(workload, 0)
    result = _result(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_passes_every_output_check(workload):
    result = _result(_run(workload, 0, seed=SEEDS["held_out"]))
    assert result["correct"] and result["failed"] == 0


def test_traced_run_emits_every_per_layer_metric_with_its_unit():
    result = _result(_run("flow", 1))
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_without_the_program_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("flow", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
