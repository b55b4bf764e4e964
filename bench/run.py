"""pmelab benchmark: one workload per invocation, run from a checkout's root.

    python3 bench/run.py --workload flow --seed 1 --seconds 10 --trace 0

Workloads (see ``bench/plan.json`` for why each exists):

* ``cli_cold``  - each operation is a fresh ``python -m pmelab.cli`` process;
* ``flow``      - each operation is one ``integrate`` call, 201 output times;
* ``checks``    - estimate checkers, identity residuals and a ``state_at``
  sweep on trajectories integrated during set-up;
* ``cd_search`` - each operation is one ``verify_cd_at`` search.

The workload runs in a child process as a closed loop with one client.
``setup_s`` is the median over three fresh processes of the time from
process start to the first timed operation.  Operation costs are gated in
units of a reference computation timed around each operation
(``op_p50_ref``, ``op_tail_ref``, ``op_mean_ref``; see ``hostref.py``),
because this host's speed swings too much for wall-clock latencies of
separate runs to be compared; the wall-clock figures (``ops_per_s``,
``op_p50_ms``, ``op_tail_ms``) are printed and recorded as well.  Every
output is checked against a reference; a failing operation counts in
``failed``.  With
``--trace 1`` a separate traced process reports the per-layer metrics and
the tracing overhead, and writes its spans to ``.bench_out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those declared in ``BENCHMARK.json``.  Without ``src/pmelab`` the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from envinfo import environment
from stats import median

WORKLOADS = ("cli_cold", "flow", "checks", "cd_search")
SETUP_RUNS = 3
WORKER_TIMEOUT_S = 150.0
OUTDIR = ".bench_out"


class WorkerError(RuntimeError):
    pass


def run_worker(root: str, args, mode: str) -> dict:
    """Run ``worker.py`` in ``mode`` and return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    t0 = time.monotonic()
    argv = [
        sys.executable,
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--t0", repr(t0),
        "--outdir", os.path.join(root, OUTDIR),
    ]
    proc = subprocess.Popen(argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("%s worker for %s timed out" % (mode, args.workload)) from None
    if proc.returncode != 0:
        raise WorkerError(
            "%s worker for %s exited %d:\n%s" % (mode, args.workload, proc.returncode, err.strip()[-2000:])
        )
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="pmelab benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pmelab", "__init__.py")):
        print("error: no src/pmelab under %s; run from the root of a pmelab checkout" % root, file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    os.makedirs(os.path.join(root, OUTDIR), exist_ok=True)

    try:
        if args.trace:
            setups = []
            w = run_worker(root, args, "trace")
            values = w["layers"]
        else:
            setups = [run_worker(root, args, "setup") for _ in range(SETUP_RUNS - 1)]
            w = run_worker(root, args, "measure")
            values = {
                "setup_s": median([s["setup_s"] for s in setups] + [w["setup_s"]]),
                "op_p50_ref": w["op_p50_ref"],
                "op_tail_ref": w["tail_ref"]["value"],
                "op_mean_ref": w["op_mean_ref"],
                "peak_rss_mb": w["peak_rss_mb"],
            }
    except WorkerError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    attempted = w["attempted"] + sum(s["attempted"] for s in setups)
    failed = w["failed"] + sum(s["failed"] for s in setups)
    failures = w["failures"] + [r for s in setups for r in s["failures"]]
    missing = [m["name"] for m in declared if m["name"] not in values]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
    correct = failed == 0 and not missing

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": failures,
        "missing_metrics": missing,
        "metrics": metrics,
        "worker": w,
        "setup_runs": [s["setup_s"] for s in setups] + ([] if args.trace else [w["setup_s"]]),
        "environment": environment(root),
    }
    path = os.path.join(root, OUTDIR, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(
        "workload %s  seed %d  trace %d  attempted %d  failed %d"
        % (args.workload, args.seed, args.trace, attempted, failed)
    )
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  %-28s %14.6g (%d of %d)" % ("fail_frac", failed / attempted, failed, attempted))
    if not args.trace:
        # wall-clock figures of the same run, for reading; they move with the host's speed
        print("  %-28s %14.6g 1/s" % ("ops_per_s", w["ops_per_s"]))
        print("  %-28s %14.6g ms" % ("op_p50_ms", w["op_p50_ms"]))
        print("  %-28s %14.6g ms" % ("op_tail_ms", w["tail_ms"]["value"]))
        print("  %-28s %14.6g ms (%d samples)" % ("ref_ms", w["ref_ms"], w["reference_samples"]))
        t = w["tail_ref"]
        print("  tails are p%.2f of %d ops, %d beyond%s" % (
            t["percentile"], t["n"], t["beyond"], "" if t["rule_met"] else " (too few ops for a tail; median shown)"))
        if w["ref_err"] is not None:
            print("  %-28s %14.6g" % ("ref_err", w["ref_err"]))
    for reason in failures:
        print("  FAILED %s" % reason)
    for name in missing:
        print("  MISSING metric %s" % name)
    print("  record: %s" % os.path.relpath(path, root))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
