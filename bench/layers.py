"""The traced layer pass: per-module timings and counts for every layer.

Each part runs a fixed amount of work (one rotation of a workload, or a
fixed set of cold processes), so the counts repeat exactly for a seed and
the times are medians over that work.  Spans wrap calls made from the
benchmark's own files; nothing is traced inside ``src/``.
"""

from __future__ import annotations

import dataclasses
import json
import time

import pmelab
from clicold import artifact_bytes, build_cli_cold, run_child
from inproc import BUILDERS, witness_ratio
from loop import CheckFailed, run_op
from stats import median
from tracing import Tracer

INTERP_RUNS = 5
IMPORT_RUNS = 3
IMPORT_PROBE = (
    "import json, sys, time\n"
    "n = len(sys.modules)\n"
    "t = time.perf_counter()\n"
    "import pmelab.cli\n"
    "t = time.perf_counter() - t\n"
    "print(json.dumps({'ms': 1e3 * t, 'modules': len(sys.modules) - n}))\n"
)
# one cold process per subcommand: the first of each kind in the rotation,
# and the reproduce id whose state_at sweep the checks workload mirrors
CLI_LAYERS = (("simulate", None), ("check", None), ("verify-cd", None), ("gen-graph", None), ("reproduce", "ex5.3ii"))


def _ms(values) -> float:
    return 1e3 * median(values)


def cli_layers(seed: int, root: str, workdir: str, tracer: Tracer, tally) -> dict:
    out = {}
    interp = []
    for _ in range(INTERP_RUNS):
        start = time.perf_counter()
        with tracer.span("cli.interp"):
            run_child(["-c", "pass"], root)
        interp.append(time.perf_counter() - start)
    out["cli.interp_ms"] = _ms(interp)

    probes = []
    for _ in range(IMPORT_RUNS):
        with tracer.span("cli.import"):
            proc = run_child(["-c", IMPORT_PROBE], root)
        if proc.returncode != 0:
            raise RuntimeError("import probe failed: %s" % proc.stderr.strip()[-300:])
        probes.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    out["cli.import_ms"] = median(p["ms"] for p in probes)
    out["cli.modules_loaded"] = int(median(p["modules"] for p in probes))

    rotation = build_cli_cold(seed, root, workdir)
    total_bytes = 0
    for word, rid in CLI_LAYERS:
        op = next(op for op in rotation if op.label.split()[1] == word and (rid is None or op.label.split()[2] == rid))
        start = time.perf_counter()
        with tracer.span(op.span):
            proc = op.call(tracer)
        out["%s_ms" % op.span] = 1e3 * (time.perf_counter() - start)
        total_bytes += artifact_bytes(op.meta["out"])
        try:
            op.check(proc)
            tally.record(op.label, None)
        except CheckFailed as exc:
            tally.record(op.label, str(exc))
    out["cli.artifact_bytes"] = total_bytes
    return out


def _field_calls(g, m, alpha, states, tracer):
    """The four field operators on every state, as the checkers use them."""
    with tracer.span("operators.fields"):
        for u in states:
            v = pmelab.pressure(m, u)
            pmelab.laplacian_field(g, v)
            pmelab.gradient_energy_field(g, m, v)
            pmelab.mixed_laplacian_field(g, m, alpha, u)
    tracer.count("operators.field_calls", 4 * len(states))


def _run_rotation(rotation, tracer, tally) -> list:
    """Run each operation once, traced; returns the outputs."""
    outputs = []
    for i, op in enumerate(rotation):
        tracer.op_id = i
        _, reason, _, out = run_op(op, tracer)
        tally.record(op.label, reason)
        outputs.append(out)
    tracer.op_id = None
    return outputs


def inproc_layers(seed: int, tracers: dict, tally) -> dict:
    out = {}
    tr = tracers["flow"]
    _run_rotation(BUILDERS["flow"](seed, tr), tr, tally)
    integ = tr.seconds("solver.integrate")
    out["solver.integrate_ms"] = _ms(integ)
    out["solver.steps"] = tr.counts["solver.steps"]
    out["solver.us_per_step"] = 1e6 * sum(integ) / tr.counts["solver.steps"]

    tr = tracers["checks"]
    rotation = BUILDERS["checks"](seed, tr)
    _run_rotation(rotation, tr, tally)
    out["solver.state_at_calls"] = tr.counts["solver.state_at_calls"]
    out["solver.state_at_us"] = 1e6 * sum(tr.seconds("solver.state_at")) / tr.counts["solver.state_at_calls"]
    out["solver.residual_ms"] = _ms(
        tr.seconds("solver.pressure_equation_residual") + tr.seconds("solver.entropy_dissipation_residual")
    )
    estimates = 0.0
    for key, name in (("ab", "ab_check"), ("diff_harnack", "diff_harnack_residual"), ("harnack", "harnack_check")):
        spans = tr.seconds("estimates." + name)
        out["estimates.%s_ms" % key] = _ms(spans)
        estimates += sum(spans)
    out["estimates.points_checked"] = tr.counts["estimates.points_checked"]
    out["estimates.us_per_point"] = 1e6 * estimates / tr.counts["estimates.points_checked"]
    for op in rotation:
        if "traj" in op.meta:
            traj = op.meta["traj"]
            _field_calls(traj.graph, traj.m, 0.0, traj.states, tr)
    out["operators.field_calls"] = tr.counts["operators.field_calls"]
    out["operators.field_us"] = 1e6 * sum(tr.seconds("operators.fields")) / tr.counts["operators.field_calls"]

    tr = tracers["cd_search"]
    rotation = BUILDERS["cd_search"](seed, tr)
    reports = _run_rotation(rotation, tr, tally)
    for i, (op, rep) in enumerate(zip(rotation, reports)):
        tr.op_id = i
        a = op.meta
        if rep is not None and rep.witness is not None:
            with tr.span("cd.cd_ratio"):
                witness_ratio(rep, a["graph"])
        # the same search without refinement isolates sampling and probes
        probe = dataclasses.replace(a["search"], refine_iters=0)
        with tr.span("cd.sample_probe"):
            pmelab.verify_cd_at(a["graph"], a["m"], a["alpha"], a["d"], a["vertex"], probe)
    tr.op_id = None
    search = tr.seconds("cd.verify_cd_at")
    refine = [full - probe for full, probe in zip(search, tr.seconds("cd.sample_probe"))]
    out["cd.search_ms"] = _ms(search)
    out["cd.evaluations"] = tr.counts["cd.evaluations"]
    out["cd.us_per_eval"] = 1e6 * sum(search) / tr.counts["cd.evaluations"]
    out["cd.sample_probe_ms"] = _ms(tr.seconds("cd.sample_probe"))
    # a mean, not a median: refinement time sits in the few large searches
    out["cd.refine_ms"] = 1e3 * sum(refine) / len(refine)
    out["cd.ratio_ms"] = _ms(tr.seconds("cd.cd_ratio"))

    resolve = [s for t in tracers.values() for s in t.seconds("graphs.resolve_graph")]
    out["graphs.resolve_ms"] = 1e3 * sum(resolve)
    out["graphs.built"] = sum(t.counts["graphs.built"] for t in tracers.values())
    return out


def write_trace(path: str, tracers: dict, **extra) -> None:
    """All parts' spans and counts in one file, written once the run ends."""
    payload = dict(extra)
    payload["span_fields"] = ["name", "start_ns", "end_ns", "parent", "op"]
    payload["parts"] = {name: {"spans": t.spans, "counts": dict(t.counts)} for name, t in tracers.items()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
