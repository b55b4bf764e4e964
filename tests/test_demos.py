"""Every demo runs from the repository root, as the README invokes them."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the library demos run in this process; the command line tour starts its own children
IN_PROCESS = [p for p in DEMOS if not p.name.startswith("04_")]


@pytest.mark.parametrize("path", IN_PROCESS, ids=[p.stem for p in IN_PROCESS])
def test_library_demo_runs(path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_command_line_tour_runs_with_a_relative_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PME_LAB_OUT"}
    env["PYTHONPATH"] = "src"
    proc = subprocess.run(
        [sys.executable, "demos/04_command_line_tour.py"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "== artifacts written ==" in proc.stdout  # the tour reaches its end
