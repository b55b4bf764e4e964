"""Shared fixtures: one-line summaries for the acceptance checks, and a 60-digit remainder."""

import os
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

# ``pythonpath`` in pyproject.toml puts src/ on this process's path; the CLI
# tests that run ``python -m pmelab.cli`` in a child process need it too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance summary")
        for line in _LINES:
            terminalreporter.write_line(line)
