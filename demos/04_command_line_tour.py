#!/usr/bin/env python3
"""
04_command_line_tour.py

Drive the installed command line interface end to end in a scratch
directory. Every subcommand writes machine-readable artifacts (JSON
reports, CSV tables, SVG slack plots) into --out, or into $PME_LAB_OUT
when --out is not given, or ./pmelab-out as the final fallback.

Steps:

  1. gen-graph: write the 4-cycle as a plain text edge list.

  2. simulate: integrate the flow on that file for a seeded random
     initial condition and show the invariant summary the command
     reports (mass drift, entropy monotonicity, identity residuals).

  3. verify-cd: per-vertex curvature-dimension verification at
     d = 4/3, then again at d = 1.30 to show the violation path and
     exit code 1.

  4. check ab: the time-derivative lower bound along a fresh
     trajectory, producing a JSON report plus slack CSV and SVG.

  5. reproduce: rerun a named benchmark experiment and show its
     recorded-versus-computed comparison.

  6. failure modes: a nonsense flag value exits with code 2 and a
     diagnostic on stderr; numerical breakdown during integration maps
     to exit code 3.

Exit code convention: 0 all checks passed, 1 a check ran and failed,
2 bad input or arguments, 3 the integrator reported breakdown.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def run(out_dir, *args, env_extra=None):
    cmd = [sys.executable, "-m", "pmelab.cli", *args]
    env = {k: v for k, v in os.environ.items() if k != "PME_LAB_OUT"}
    if "PYTHONPATH" in env:
        # the children run in the scratch directory, where a relative entry
        # such as PYTHONPATH=src would no longer resolve
        env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p) for p in env["PYTHONPATH"].split(os.pathsep)
        )
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=env, cwd=out_dir, timeout=300
    )
    shown = " ".join(args)
    print(f"$ pmelab {shown}")
    for line in proc.stdout.strip().splitlines():
        print(f"   {line}")
    if proc.returncode != 0:
        for line in proc.stderr.strip().splitlines()[-2:]:
            print(f"   [stderr] {line}")
    print(f"   -> exit code {proc.returncode}")
    print()
    return proc


def artifact(out, pattern):
    """The first file in ``out`` matching ``pattern``; stop the tour without one."""
    found = sorted(out.glob(pattern))
    if not found:
        sys.exit(f"tour stopped: the command above wrote no {pattern} into {out}")
    return found[0]


def main():
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "artifacts"

        print("== 1. generate a graph file ==")
        run(scratch, "gen-graph", "--graph", "square", "--out", str(out))
        graph_file = artifact(out, "graph_*.txt")
        print(f"   edge list {graph_file.name}:")
        for line in graph_file.read_text().strip().splitlines():
            print(f"      {line}")
        print()

        print("== 2. simulate on the generated file ==")
        run(
            scratch,
            "simulate",
            "--graph", str(graph_file),
            "--m", "2.5",
            "--u0", "random:",
            "--seed", "11",
            "--t-start", "0.05",
            "--t-end", "3",
            "--points", "120",
            "--out", str(out),
        )
        summary = json.loads(artifact(out, "summary.json").read_text())
        print("   summary fields:")
        for key in (
            "mass_drift_rel",
            "entropy_monotone",
            "pressure_identity_residual",
        ):
            print(f"      {key}: {summary[key]}")
        print()

        print("== 3. curvature-dimension verification ==")
        run(
            scratch,
            "verify-cd",
            "--graph", "square",
            "--m", "2",
            "--alpha", "0",
            "--d", "1.3333333333333333",
            "--seed", "0",
            "--out", str(out),
        )
        run(
            scratch,
            "verify-cd",
            "--graph", "square",
            "--m", "2",
            "--alpha", "0",
            "--d", "1.30",
            "--seed", "0",
            "--out", str(out),
        )

        print("== 4. regularity check along a trajectory ==")
        run(
            scratch,
            "check", "ab",
            "--graph", "square",
            "--m", "2",
            "--d", "1.3333333333333333",
            "--u0", "random:",
            "--seed", "4",
            "--t-start", "0.05",
            "--t-end", "4",
            "--points", "160",
            "--out", str(out),
        )

        print("== 5. reproduce a recorded experiment ==")
        run(scratch, "reproduce", "ex3.5:4", "--out", str(out))

        print("== 6. failure modes ==")
        run(scratch, "simulate", "--graph", "square", "--m", "0.5",
            "--t-end", "1", "--out", str(out))
        stiff = Path(scratch) / "stiff.txt"
        stiff.write_text("a b 1e9\nb a 1e9\n")
        run(
            scratch,
            "simulate",
            "--graph", str(stiff),
            "--m", "2",
            "--u0", "const:1,2",
            "--t-end", "1e4",
            "--points", "50",
            "--out", str(out),
        )

        print("== artifacts written ==")
        for p in sorted(out.iterdir()):
            print(f"   {p.name}  ({p.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
