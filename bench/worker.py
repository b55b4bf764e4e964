"""One workload in one process; prints a single JSON line.

Started by ``run.py`` (never by hand) from the root of a checkout::

    python3 bench/worker.py --workload flow --seed 1 --seconds 10 --mode measure --t0 <monotonic>

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; the clock is system-wide, so ``setup_s`` counts interpreter start,
imports, input construction and one warm-up operation.

Modes: ``setup`` stops after the warm-up operation; ``measure`` then runs
the untraced closed loop; ``trace`` measures tracing overhead on this
workload and runs the traced layer pass over every module.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

from loop import closed_loop, run_op
from stats import Tally, median, tail
from tracing import NullTracer, Tracer

WORKLOADS = ("cli_cold", "flow", "checks", "cd_search")


def _peak_rss_mb(workload: str) -> float:
    # cli_cold does its work in children; the largest one is its peak
    who = resource.RUSAGE_CHILDREN if workload == "cli_cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _build(workload: str, seed: int, root: str, workdir: str, tracer):
    """The rotation of operations and the minimum operation count."""
    if workload == "cli_cold":
        from clicold import build_cli_cold

        return build_cli_cold(seed, root, workdir), 1
    import pmelab
    from inproc import BUILDERS

    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(pmelab.__file__), src]) != src:
        raise RuntimeError("pmelab imported from %s, not from %s" % (pmelab.__file__, src))
    rotation = BUILDERS[workload](seed, tracer)
    # a whole rotation always runs, so every reference error is seen
    return rotation, len(rotation)


def _loop_summary(res: dict) -> dict:
    lat = res["latencies"]
    out = {
        "ops": len(lat),
        "elapsed_s": res["elapsed"],
        "ops_per_s": len(lat) / res["elapsed"],
        "op_p50_ms": 1e3 * median(lat),
        "tail_ms": {k: (1e3 * v if k == "value" else v) for k, v in tail(lat).items()},
        "ref_err": res["ref_err"],
        "latencies_ms": [1e3 * x for x in lat],
    }
    if res["ref_times"]:
        ref = median(res["ref_times"])
        out["ref_ms"] = 1e3 * ref
        out["reference_samples"] = len(res["ref_times"])
        out["op_p50_ref"] = median(res["relative"])
        out["tail_ref"] = tail(res["relative"])
        out["op_mean_ref"] = sum(res["relative"]) / len(lat)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--outdir", required=True)
    args = p.parse_args(argv)
    root = os.getcwd()
    workdir = os.path.join(args.outdir, "cli-%d" % os.getpid())

    tally = Tally()
    rotation, min_ops = _build(args.workload, args.seed, root, workdir, NullTracer())
    reason = run_op(rotation[0], NullTracer())[1]
    tally.record("warm-up " + rotation[0].label, reason)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "rotation": len(rotation)}

    if args.mode == "measure":
        from hostref import cold_reference_seconds, reference_seconds

        # the references and the operations (cli_cold's children too) share
        # one CPU: the two CPUs of this host do not always run at one speed
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        reference = cold_reference_seconds if args.workload == "cli_cold" else reference_seconds
        res = closed_loop(rotation, args.seconds, NullTracer(), min_ops, reference)
        tally.merge(res["tally"])
        result.update(_loop_summary(res))
    elif args.mode == "trace":
        from layers import cli_layers, inproc_layers, write_trace

        half = args.seconds / 2.0
        loop_tracer = Tracer()
        plain_res = closed_loop(rotation, half, NullTracer())
        traced_res = closed_loop(rotation, half, loop_tracer)
        plain, traced = _loop_summary(plain_res), _loop_summary(traced_res)
        tally.merge(plain_res["tally"])
        tally.merge(traced_res["tally"])
        tracers = {"loop": loop_tracer, "cli": Tracer(), "flow": Tracer(), "checks": Tracer(), "cd_search": Tracer()}
        layers = cli_layers(args.seed, root, workdir, tracers["cli"], tally)
        layers.update(inproc_layers(args.seed, tracers, tally))
        layers["trace.untraced_ops_per_s"] = plain["ops_per_s"]
        layers["trace.traced_ops_per_s"] = traced["ops_per_s"]
        layers["trace.overhead_pct"] = 100.0 * (plain["ops_per_s"] / traced["ops_per_s"] - 1.0)
        layers["trace.spans"] = sum(len(t.spans) for t in tracers.values())
        result["layers"] = layers
        result["trace_file"] = os.path.join(
            args.outdir, "trace-%s-seed%d.json" % (args.workload, args.seed)
        )
        write_trace(result["trace_file"], tracers, workload=args.workload, seed=args.seed)

    shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = _peak_rss_mb(args.workload)
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    result["failures"] = tally.reasons
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
