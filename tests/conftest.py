"""Shared fixtures: one-line summaries for the acceptance checks."""

import os
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


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance summary")
        for line in _LINES:
            terminalreporter.write_line(line)
