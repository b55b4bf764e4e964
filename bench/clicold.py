"""The ``cli_cold`` workload: every operation is a fresh ``python -m pmelab.cli``.

Standard library only, so the worker's own set-up does not import what the
measured processes import.  Each operation writes its artifacts to a
private directory inside ``.bench_out``; the check reads them back (every
JSON artifact must parse and carry the expected verdict), counts their
bytes and removes them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

from loop import CheckFailed, Op

CLI_STREAM = 21
CLI_TIMEOUT_S = 120.0
EX43_RECORDED = -0.4989975  # the computed chain value ex4.3 reports (its window is [-1.05, -0.95])
EX43_TOL = 1e-6
MASS_DRIFT_TOL = 1e-12
FOUR_THIRDS = repr(4.0 / 3.0)


def cli_env(root: str) -> dict:
    """Environment for child interpreters: pmelab from the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PME_LAB_OUT", None)
    return env


def run_child(argv: list[str], root: str) -> subprocess.CompletedProcess:
    """Run one child interpreter to completion; never leaves it running."""
    return subprocess.run(
        [sys.executable] + argv,
        cwd=root,
        env=cli_env(root),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed("artifact %s does not parse: %s" % (os.path.basename(path), exc)) from None


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# checks of the written artifacts, keyed by the first CLI word


def _check_simulate(out, _):
    summary = _read_json(os.path.join(out, "summary.json"))
    _expect(summary.get("status") == "ok", "simulate status %r" % summary.get("status"))
    drift = summary.get("mass_drift_rel")
    _expect(isinstance(drift, float) and drift <= MASS_DRIFT_TOL, "mass drift %r" % drift)


def _check_check(out, argv):
    report = _read_json(os.path.join(out, "report_%s.json" % argv[1].replace("-", "_")))
    _expect(report.get("passed") is True, "check %s did not pass" % argv[1])


def _check_verify(out, argv):
    d = float(argv[argv.index("--d") + 1])
    want = "violated" if d < 4.0 / 3.0 else "holds_empirically"
    reports = _read_json(os.path.join(out, "cd_report.json"))["reports"]
    _expect([r["verdict"] for r in reports] == [want], "verdicts %r, expected %s" % (reports, want))


def _check_reproduce(out, argv):
    rid = argv[1]
    result = _read_json(os.path.join(out, "reproduce_%s.json" % rid.replace(":", "_")))
    if rid == "ex4.3":
        measured = result.get("measured")
        _expect(result.get("passed") is False, "ex4.3 passed against its recorded window")
        _expect(abs(measured - EX43_RECORDED) <= EX43_TOL, "ex4.3 measured %r" % measured)
    else:
        _expect(result.get("passed") is True, "reproduce %s failed" % rid)


def _check_gen_graph(out, argv):
    radius = int(argv[argv.index("--graph") + 1].split(":")[1])
    try:
        with open(os.path.join(out, "graph_zwindow_%d.txt" % radius), encoding="utf-8") as fh:
            edges = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise CheckFailed("edge list not written: %s" % exc) from None
    _expect(len(edges) == 4 * radius, "edge list has %d lines, expected %d" % (len(edges), 4 * radius))


CHECKERS = {
    "simulate": _check_simulate,
    "check": _check_check,
    "verify-cd": _check_verify,
    "reproduce": _check_reproduce,
    "gen-graph": _check_gen_graph,
}

REPRODUCE_IDS = (
    "ex3.3", "ex3.4", "ex3.5:{D}", "sq3.3", "ex4.1", "ex4.2", "ex4.3", "ex4.5:{m_hi}",
    "thm4.6:{m}", "ex5.3i", "ex5.3ii", "ex6.6i", "ex6.6ii:{D}", "lemma6.1:{m}", "lemma6.3",
)


def commands(seed: int) -> list[tuple[list[str], int]]:
    """``(argv after 'pmelab', expected exit code)`` for one rotation.

    The other subcommands are interleaved with the reproduce ids, so a run
    that covers only part of the rotation still sees every kind.
    """
    rng = random.Random("%d/%d" % (CLI_STREAM, seed))
    s = str(rng.randrange(2**31))
    D = str(rng.choice((3, 4, 5)))
    m = rng.choice(("1.5", "2", "3"))
    m_hi = rng.choice(("2.5", "3", "4"))  # ex4.5 needs m > 2
    holds = rng.random() < 0.5
    d = 4.0 / 3.0 * (1.0 + rng.uniform(0.002, 0.05) * (1 if holds else -1))
    shared = ["--seed", s]
    simple = [
        (["simulate", "--graph", "square", "--m", m, "--u0", "random:"] + shared, 0),
        (["check", "ab", "--graph", "square", "--d", FOUR_THIRDS, "--u0", "random:"] + shared, 0),
        (["check", "diff-harnack", "--graph", "complete:3", "--mu", FOUR_THIRDS, "--u0", "random:"] + shared, 0),
        (["check", "harnack", "--graph", "square", "--mu", FOUR_THIRDS, "--u0", "random:"] + shared, 0),
        (["verify-cd", "--graph", "square", "--vertex", "x", "--d", repr(d)] + shared, 0 if holds else 1),
        (["gen-graph", "--graph", "zwindow:%d" % rng.randint(2, 50)], 0),
    ]
    # ex3.5 and ex6.6ii read their exponent from --m; the default 2 is where
    # the closed form 2(D-1)/D applies
    reproduce = [
        (["reproduce", rid.format(D=D, m=m, m_hi=m_hi)] + shared, 1 if rid == "ex4.3" else 0)
        for rid in REPRODUCE_IDS
    ]
    out = []
    while simple or reproduce:
        if reproduce:
            out.append(reproduce.pop(0))
        if simple:
            out.append(simple.pop(0))
        if reproduce:
            out.append(reproduce.pop(0))
    return out


def _cli_op(root: str, workdir: str, index: int, argv: list[str], code: int) -> Op:
    out = os.path.join(workdir, "op%02d" % index)
    full = ["-m", "pmelab.cli"] + argv + ["--out", out]
    span = "cli." + argv[0].replace("-", "_")

    def call(tracer):
        shutil.rmtree(out, ignore_errors=True)
        return run_child(full, root)

    def check(proc):
        try:
            if proc.returncode != code:
                raise CheckFailed("exit code %d, expected %d: %s" % (proc.returncode, code, proc.stderr.strip()[-200:]))
            CHECKERS[argv[0]](out, argv)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Op("pmelab " + " ".join(argv), span, call, check, {"out": out})


def artifact_bytes(path: str) -> int:
    total = 0
    for base, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return total


def build_cli_cold(seed: int, root: str, workdir: str) -> list[Op]:
    os.makedirs(workdir, exist_ok=True)
    return [_cli_op(root, workdir, i, argv, code) for i, (argv, code) in enumerate(commands(seed))]
