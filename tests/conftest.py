"""Shared fixtures: one-line summaries for the acceptance checks, a 60-digit remainder, and the benchmark's rotations."""

import importlib.util
import os
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

# ``pythonpath`` in pyproject.toml puts src/ on this process's path; the CLI
# tests that run ``python -m pmelab.cli`` in a child process need it too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

_BENCH = Path(__file__).resolve().parents[1] / "bench"

_LINES = []


@pytest.fixture
def criterion_line():
    """Record one pass/fail summary line, echoed again after the run."""

    def record(line):
        _LINES.append(line)
        print(line)

    return record


@pytest.fixture
def remainder_reference():
    """``R_m(x) = ((m-1)^2/m) x^(m/(m-1)) - (m-1) x + (m-1)/m``, exact to 60 digits.

    ``m`` is a float, taken at its exact value, and ``x`` a nonnegative
    ``Decimal``.  The test's own decimal arithmetic also runs at 60 digits.
    """

    def reference(m, x):
        M = Decimal(m)
        power = (M / (M - 1) * x.ln()).exp() if x > 0 else Decimal(0)
        return (M - 1) ** 2 / M * power - (M - 1) * x + (M - 1) / M

    with localcontext() as ctx:
        ctx.prec = 60
        yield reference


@pytest.fixture
def bench_inproc(monkeypatch):
    """The benchmark's ``bench/inproc.py``, loaded without writing into ``bench/``.

    Its siblings (``loop``, ``tracing``) import by name while the test runs.
    """
    monkeypatch.syspath_prepend(str(_BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("inproc", _BENCH / "inproc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def rotation_outcomes(bench_inproc):
    """``(label, failure reason or None)`` of every op of a benchmark workload's rotation at ``seed``.

    Each op goes through the benchmark's own run-and-check step, so a change
    that breaks a workload's gate fails in the test suite first.
    """
    from loop import run_op
    from tracing import NullTracer

    def outcomes(workload, seed):
        rotation = bench_inproc.BUILDERS[workload](seed, NullTracer())
        return [(op.label, run_op(op, NullTracer())[1]) for op in rotation]

    return outcomes


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance summary")
        for line in _LINES:
            terminalreporter.write_line(line)
