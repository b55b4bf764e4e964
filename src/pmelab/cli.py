"""Command-line front end for the verification laboratory.

Commands
--------
simulate       integrate the nonlinear diffusion flow and report invariants
verify-cd      empirical curvature-dimension verification per vertex
check          inequality checkers along trajectories (ab, diff-harnack, harnack)
reproduce      rerun a named benchmark experiment and compare to its target
gen-graph      write a generated graph to an edge-list file

Outputs are data first: CSV for series, JSON for reports, and small SVG
polyline plots.  Every command is deterministic given --seed.  Exit codes:
0 pass, 1 violation, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import PMELabError, StiffnessError, ValidationError
from .graphs import (
    GENERATOR_HELP,
    Graph,
    complete_graph,
    resolve_graph,
    save_edge_list,
    square_graph,
)

# Each command imports the library modules it runs when it is called, so a
# cold process loads only those: ``gen-graph`` needs ``graphs`` alone.

DEFAULT_OUT = "pmelab-out"

# ---------------------------------------------------------------------------
# plots


def write_svg_polyline(
    path: str,
    series: list[tuple[np.ndarray, np.ndarray, str]],
    title: str,
) -> None:
    """Minimal SVG polyline plot: axes, four ticks per axis, one line per series."""
    width, height = 720.0, 440.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")

    finite = []
    for xs, ys, label in series:
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        keep = np.isfinite(xs) & np.isfinite(ys)
        if np.count_nonzero(keep) >= 2:
            finite.append((xs[keep], ys[keep], label))
    if not finite:
        return

    x_lo = min(float(xs.min()) for xs, _, _ in finite)
    x_hi = max(float(xs.max()) for xs, _, _ in finite)
    y_lo = min(float(ys.min()) for _, ys, _ in finite)
    y_hi = max(float(ys.max()) for _, ys, _ in finite)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        pad = max(1e-12, abs(y_lo)) * 0.5 + 1e-12
        y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(y):
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        'viewBox="0 0 %g %g" font-family="monospace" font-size="12">' % (width, height),
        '<rect width="%g" height="%g" fill="white"/>' % (width, height),
        '<text x="%g" y="20" text-anchor="middle">%s</text>' % (width / 2, title),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
        % (left, height - bottom, width - right, height - bottom),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>'
        % (left, top, left, height - bottom),
    ]
    for i in range(4):
        xv = x_lo + (x_hi - x_lo) * i / 3.0
        yv = y_lo + (y_hi - y_lo) * i / 3.0
        parts.append(
            '<text x="%.2f" y="%g" text-anchor="middle">%.4g</text>'
            % (sx(xv), height - bottom + 18.0, xv)
        )
        parts.append(
            '<text x="%g" y="%.2f" text-anchor="end">%.4g</text>'
            % (left - 6.0, sy(yv) + 4.0, yv)
        )
    parts.append(
        '<text x="%g" y="%g" text-anchor="middle">t</text>'
        % ((left + width - right) / 2.0, height - 12.0)
    )
    for idx, (xs, ys, label) in enumerate(finite):
        color = colors[idx % len(colors)]
        points = " ".join("%.2f,%.2f" % (sx(x), sy(y)) for x, y in zip(xs, ys))
        parts.append(
            '<polyline fill="none" stroke="%s" stroke-width="1.5" points="%s"/>'
            % (color, points)
        )
        parts.append(
            '<text x="%g" y="%g" fill="%s">%s</text>'
            % (width - right - 150.0, top + 16.0 * (idx + 1), color, label)
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# config resolution


def resolve_outdir(args) -> str:
    """The output directory, made on the spot: a command calls this at its first write, so a refusal writes nothing."""
    out = args.out or os.environ.get("PME_LAB_OUT") or DEFAULT_OUT
    os.makedirs(out, exist_ok=True)
    return out


def resolve_initial_state(spec: str, g: Graph, seed: int) -> np.ndarray:
    """Parse an initial-state spec: file:PATH, const:v[,v2,...], random:lo,hi (``integrate`` checks the values)."""
    kind, _, rest = spec.partition(":")
    if kind == "file":
        if not rest:
            raise ValidationError("file: initial state needs a path")
        from .solver import load_initial_condition

        return load_initial_condition(rest, g)
    if kind == "const":
        try:
            values = [float(s) for s in rest.split(",")] if rest else [1.0]
        except ValueError as exc:
            raise ValidationError("bad const: initial state %r" % spec) from exc
        if len(values) == 1:
            u0 = np.full(g.n, values[0])
        elif len(values) == g.n:
            u0 = np.array(values, dtype=float)
        else:
            raise ValidationError(
                "const: initial state has %d values for %d vertices"
                % (len(values), g.n)
            )
    elif kind == "random":
        try:
            lo, hi = (float(s) for s in rest.split(",")) if rest else (0.5, 1.5)
        except ValueError as exc:
            raise ValidationError("bad random: initial state %r" % spec) from exc
        if not 0.0 < lo <= hi < math.inf:
            raise ValidationError("random: bounds need 0 < lo <= hi < inf")
        u0 = np.random.default_rng([seed, 1]).uniform(lo, hi, g.n)
    else:
        raise ValidationError(
            "unknown initial state kind %r (use file:, const:, random:)" % spec
        )
    return u0


def resolve_times(args, need_positive_start: bool = True) -> np.ndarray:
    for flag, value in (("--t-start", args.t_start), ("--t-end", args.t_end)):
        if not math.isfinite(value):
            raise ValidationError("%s must be finite" % flag)
    if args.points < 2:
        raise ValidationError("--points must be at least 2")
    if need_positive_start and args.t_start <= 0.0:
        raise ValidationError("--t-start must be positive for this command")
    if args.t_start < 0.0:
        raise ValidationError("--t-start must be nonnegative")
    if args.t_end <= args.t_start:
        raise ValidationError("--t-end must exceed --t-start")
    return np.linspace(args.t_start, args.t_end, args.points)


def config_echo(args) -> dict:
    """Every setting the command parsed, except the dispatch fields and ``--out``."""
    return {
        "lambda" if name == "lam" else name: value
        for name, value in vars(args).items()
        if value is not None and name not in ("command", "func", "out")
    }


def write_artifact(args, name: str, record: dict) -> str:
    """Write ``record`` as the JSON artifact ``name`` of the run, with its ``command`` and ``config``; returns the path."""
    from .artifacts import write_json

    path = os.path.join(resolve_outdir(args), name)
    write_json(path, {"command": args.command, "config": config_echo(args), **record})
    return path


def _tol_override(args) -> dict:
    """``{"tol": --tol}`` when the flag is given, else nothing: the library default applies."""
    return {} if args.tol is None else {"tol": args.tol}


def sample_check_tuples(
    g: Graph, rng: np.random.Generator, count: int, t_lo: float, t_hi: float
) -> list[tuple[float, float, str, str]]:
    """Draw (t1, t2, x1, x2) tuples with 0 < t1 < t2 inside the time window."""
    gap = 0.01 * (t_hi - t_lo)
    tuples = []
    while len(tuples) < count:
        a, b = np.sort(rng.uniform(t_lo, t_hi, 2))
        if b - a < gap:
            continue
        x1 = g.vertices[int(rng.integers(g.n))]
        x2 = g.vertices[int(rng.integers(g.n))]
        tuples.append((float(a), float(b), x1, x2))
    return tuples


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    from .artifacts import write_csv
    from .solver import (
        SolverConfig,
        _entropy,
        counting_measure,
        entropy_dissipation_residual,
        integrate,
        pressure_equation_residual,
        write_trajectory_csv,
    )

    g = resolve_graph(args.graph)
    u0 = resolve_initial_state(args.u0, g, args.seed)
    times = resolve_times(args, need_positive_start=False)
    cfg = SolverConfig(rel_tol=args.rel_tol, abs_tol=args.abs_tol)

    try:
        traj = integrate(g, args.m, u0, times, config=cfg)
    except StiffnessError as exc:
        summary_path = write_artifact(args, "summary.json", {
            "status": "numerical-failure",
            "failure_time": exc.t,
            "error": str(exc),
            "solver_stats": exc.stats.to_json_dict(),
        })
        print("simulate: numerical failure, %s" % exc)
        print("wrote %s" % summary_path)
        return 3

    outdir = resolve_outdir(args)
    traj_path = os.path.join(outdir, "trajectory.csv")
    write_trajectory_csv(traj, traj_path)

    mass = traj.states.sum(axis=1)
    mass_drift = float(np.max(np.abs(mass - mass[0])) / max(1.0, abs(mass[0])))
    summary = {
        "solver_stats": traj.stats.to_json_dict(),
        "mass_drift_rel": mass_drift,
        "pressure_identity_residual": pressure_equation_residual(traj),
    }

    columns = [traj.times, mass]
    header = ["t", "mass"]
    series = [(traj.times, mass, "mass")]
    summary["entropy_monotone"] = None
    if g.symmetric:
        measure = counting_measure(g)
        entropy = _entropy(measure, traj.m, traj.states)
        summary["entropy_monotone"] = bool(np.all(np.diff(entropy) <= 1e-12 * max(1.0, float(np.abs(entropy).max()))))
        try:
            residual = entropy_dissipation_residual(traj, measure)
        except ValidationError as exc:
            residual = None
            summary["entropy_dissipation_note"] = str(exc)
        summary["entropy_dissipation_residual"] = residual
        columns.append(entropy)
        header.append("entropy")
        series.insert(0, (traj.times, entropy, "entropy"))
    write_svg_polyline(os.path.join(outdir, "simulate.svg"), series, "diffusion flow invariants")

    write_csv(os.path.join(outdir, "series.csv"), header, zip(*(c.tolist() for c in columns)))
    summary["status"] = "ok"
    summary_path = write_artifact(args, "summary.json", summary)
    print(
        "simulate: %d points on %s, mass drift %.3g, pressure identity residual %.3g"
        % (len(traj.times), args.graph, mass_drift, summary["pressure_identity_residual"])
    )
    print("wrote %s" % traj_path)
    print("wrote %s" % summary_path)
    return 0


def cmd_verify_cd(args) -> int:
    from .cd import SearchConfig, verify_cd_at

    if args.tol is not None and args.d is None:
        raise ValidationError("--tol is the margin of a verdict at --d; without --d no verdict reads it")
    g = resolve_graph(args.graph)
    vertices = list(dict.fromkeys(args.vertex or [str(v) for v in g.vertices]))  # a repeated --vertex is searched once
    for v in vertices:
        g.index(v)

    search = SearchConfig(samples=args.samples, seed=args.seed, **_tol_override(args))
    reports = []
    for v in vertices:
        report = verify_cd_at(g, args.m, args.alpha, args.d, v, search)
        reports.append(report)
        print(
            "verify-cd %s at %s: verdict %s, empirical optimal d %s"
            % (args.graph, v, report.verdict, report.empirical_optimal_d)
        )

    out_path = write_artifact(args, "cd_report.json", {"reports": [report.to_json_dict() for report in reports]})
    print("wrote %s" % out_path)
    return 1 if any(report.verdict == "violated" for report in reports) else 0


def _integrate_and_check(args):
    """``(trajectory, report)`` of a ``check`` command, which the ``reproduce`` ids that re-run a check share."""
    from .estimates import ab_check, diff_harnack_residual, harnack_check
    from .solver import integrate

    g = resolve_graph(args.graph)
    u0 = resolve_initial_state(args.u0, g, args.seed)
    times = resolve_times(args, need_positive_start=True)
    if args.which == "harnack" and args.pairs < 1:
        raise ValidationError("--pairs must be at least 1")
    tol = _tol_override(args)
    traj = integrate(g, args.m, u0, times)
    if args.which == "ab":
        return traj, ab_check(traj, args.alpha, args.d, **tol)
    if args.which == "diff-harnack":
        return traj, diff_harnack_residual(traj, args.lam, args.mu, **tol)
    rng = np.random.default_rng([args.seed, 2])
    pairs = sample_check_tuples(g, rng, args.pairs, float(times[0]), float(times[-1]))
    return traj, harnack_check(traj, args.mu, args.lam, pairs, **tol)


def cmd_check(args) -> int:
    traj, report = _integrate_and_check(args)
    outdir = resolve_outdir(args)

    tag = args.which.replace("-", "_")
    report_path = write_artifact(
        args, "report_%s.json" % tag, {**report.to_json_dict(), "solver_stats": traj.stats.to_json_dict()}
    )
    csv_path = os.path.join(outdir, "slack_%s.csv" % tag)
    report.write_slack_csv(csv_path)

    if args.which in ("ab", "diff-harnack"):
        records = np.array([[r[0], r[2]] for r in report.records], dtype=float)  # in time order
        write_svg_polyline(
            os.path.join(outdir, "slack_%s.svg" % tag),
            [(records[:, 0], records[:, 1], "min slack over vertices")],
            "%s slack along the trajectory" % args.which,
        )

    status = "pass" if report.passed else "FAIL"
    print(
        "check %s on %s: min slack %.6g at %s -> %s"
        % (args.which, args.graph, report.min_slack, report.argmin, status)
    )
    print("wrote %s" % report_path)
    print("wrote %s" % csv_path)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# reproduce runners


def _optimal_d_target(m: float, g: Graph) -> float:
    """The closed-form optimal d on the complete graph ``g``."""
    if m == 2.0:
        return 2.0 * (g.n - 1) / g.n
    if m > 2.0:
        return m / (m - 1.0) ** 2
    raise ValidationError("closed-form optimal d needs m = 2 or m > 2")


def _run_complete_optimal(d_count: int, m: float, seed: int) -> tuple[bool, dict]:
    from .cd import SearchConfig, empirical_optimal_d

    g = complete_graph(d_count)
    expected = _optimal_d_target(m, g)  # refuses an m without a closed form before the search
    measured = empirical_optimal_d(g, m, 0.0, "x1", SearchConfig(seed=seed))
    passed = abs(measured - expected) <= 1e-3
    return passed, {
        "measured": measured,
        "expected": expected,
        "tolerance": 1e-3,
        "graph": "complete:%d" % d_count,
        "m": m,
    }


def _run_square(seed: int) -> tuple[bool, dict]:
    from .cd import SearchConfig, _search

    g = square_graph()
    search = SearchConfig(seed=seed)
    results = {v: _search(g, v, 2.0, 0.0, search) for v in ("x", "y1", "y2", "z")}  # one search per vertex
    verdicts = {v: result.report(4.0 / 3.0).verdict for v, result in results.items()}
    all_hold = all(verdict == "holds_empirically" for verdict in verdicts.values())
    tight = results["x"].report(1.32)
    optimal = max(result.ratio for result in results.values())
    passed = (
        all_hold
        and tight.verdict == "violated"
        and abs(optimal - 4.0 / 3.0) <= 1e-3
    )
    return passed, {
        "verdicts_at_4_3": verdicts,
        "verdict_at_1.32": tight.verdict,
        "witness_at_1.32": tight.to_json_dict()["witness"],
        "measured_optimal_d": optimal,
        "expected_optimal_d": 4.0 / 3.0,
        "tolerance": 1e-3,
    }


def _run_chain(n: int, eps: float, expected, window: float) -> tuple[bool, dict]:
    from .cd import _chain_product_form, chain_counterexample, chain_limit_curvature

    witness = chain_counterexample(n, 2.0, eps)
    measured = witness.curvature
    passed = abs(measured - expected) <= window
    report = {
        "measured": measured,
        "expected": expected,
        "tolerance": window,
        "neg_lap_pressure": witness.neg_lap_pressure,
        "field": {str(v): float(x) for v, x in zip(witness.graph.vertices, witness.u)},
    }
    if n == 5:  # the family's eps -> 0 limit at m = 2, and that of its product form as m -> 2+
        report.update(limit_eps_to_0=chain_limit_curvature(2.0), limit_m_to_2_plus=_chain_product_form(2.0))
    return passed, report


def _run_chain_limit(m: float) -> tuple[bool, dict]:
    from .cd import chain_counterexample, chain_limit_curvature

    if m <= 2.0:
        raise ValidationError("the chain limit comparison needs m > 2")
    # the family approaches its eps -> 0 limit: each gap below the last
    eps_values = [1e-2, 1e-4, 1e-6, 1e-8]
    limit = chain_limit_curvature(m)
    values = [chain_counterexample(5, m, eps).curvature for eps in eps_values]
    gaps = [abs(value - limit) for value in values]
    passed = all(b < a for a, b in zip(gaps, gaps[1:])) and limit < 0.0 and values[-1] < 0.0
    return passed, {
        "measured": values[-1],
        "expected": limit,
        "eps_values": eps_values,
        "gaps": gaps,
        "m": m,
    }


def _run_lattice(m: float, seed: int) -> tuple[bool, dict]:
    from .cd import lattice_cd_check

    measured = lattice_cd_check(m, 10000, seed)
    passed = measured >= -1e-9
    return passed, {"measured": measured, "expected": ">= -1e-9", "m": m, "samples": 10000}


def _run_ab_square(seed: int) -> tuple[bool, dict]:
    argv = ["check", "ab", "--graph", "square", "--d", repr(4.0 / 3.0), "--u0", "random:", "--t-start", "0.05"]
    _, report = _integrate_and_check(build_parser().parse_args(argv + ["--tol", "1e-8", "--seed", str(seed)]))
    return report.passed, {
        "measured": report.min_slack,
        "expected": ">= -1e-8",
        "argmin": report.argmin,
    }


def _run_ab_sharpness() -> tuple[bool, dict]:
    from .operators import laplacian_field, pressure
    from .solver import exact_two_point, integrate

    g = complete_graph(2)
    a1, a2 = 1.0, 1e-6
    times = np.linspace(0.0, 5.0, 201)
    traj = integrate(g, 2.0, np.array([a1, a2]), times)
    exact = exact_two_point(a1, a2, times)
    solver_error = float(np.max(np.abs(traj.states - exact)))

    ts = np.linspace(1e-4, 5.0, 4000)
    neg_lap_v = -laplacian_field(traj.graph, pressure(2.0, traj.dense(ts)))[:, 0]
    sup_value = float(np.max(ts * neg_lap_v))
    ratio = sup_value * np.e
    passed = solver_error <= 1e-8 and 0.99 <= ratio <= 1.0
    return passed, {
        "measured": ratio,
        "expected": "[0.99, 1.0]",
        "sup_t_times_neg_lap_pressure": sup_value,
        "solver_max_abs_error": solver_error,
        "solver_error_bound": 1e-8,
    }


def _run_harnack(graph_spec: str, m: float, mu: float, seed: int) -> tuple[bool, dict]:
    argv = ["check", "harnack", "--graph", graph_spec, "--m", repr(m), "--mu", repr(mu), "--u0", "random:"]
    _, report = _integrate_and_check(build_parser().parse_args(argv + ["--seed", str(seed)]))
    return report.passed, {
        "measured": report.min_slack,
        "expected": ">= -1e-8",
        "graph": graph_spec,
        "m": m,
        "mu": mu,
        "pairs": report.points_checked,
    }


def _run_minorant(m: float) -> tuple[bool, dict]:
    from .estimates import minorant_ratio, quadratic_minorant_check

    if m < 2.0:
        grids = [np.linspace(1.0, 10.0, 1000)]
    elif m > 2.0:
        grids = [np.linspace(1e-4, 1.0, 1000)]
    else:
        grids = [np.linspace(1.0, 10.0, 1000), np.linspace(1e-4, 1.0, 1000)]
    min_slack = min(quadratic_minorant_check(m, grid) for grid in grids)
    ratios = [minorant_ratio(m, 1.0 - 1e-4), minorant_ratio(m, 1.0 + 1e-4)]
    ratio_ok = all(abs(r - 0.5) <= 1e-3 for r in ratios)
    passed = min_slack >= -1e-12 and ratio_ok
    return passed, {
        "measured": min_slack,
        "expected": ">= -1e-12",
        "ratio_probes": ratios,
        "m": m,
    }


def _run_integral_min(seed: int) -> tuple[bool, dict]:
    from .estimates import integral_min_inequality_check

    rng = np.random.default_rng([seed, 3])
    t1, t2 = 0.5, 3.0
    ts = np.linspace(t1, t2, 2000)
    failures = 0
    total = 0
    for nu, c in ((0.5, 1.0), (1.0, 2.0), (4.0 / 3.0, 3.0)):
        for _ in range(100):
            coeffs = rng.uniform(-5.0, 5.0, 4)
            psi = np.polynomial.polynomial.polyval(ts, coeffs)
            total += 1
            if not integral_min_inequality_check(t1, t2, c, nu, ts, psi):
                failures += 1
    return failures == 0, {
        "measured_failures": failures,
        "expected_failures": 0,
        "cases": total,
    }


# base id -> (suffix kind, runner of (suffix value, args)); the kind is None
# for a bare id, "D" for an integer suffix and "m" for a numeric one.  The
# "D" ids alone read --m; the others run at m = 2 or take m from their suffix
REPRODUCE = {
    "ex3.3": (None, lambda _, args: _run_complete_optimal(2, 2.0, args.seed)),
    "ex3.4": (None, lambda _, args: _run_complete_optimal(3, 2.0, args.seed)),
    "ex3.5": ("D", lambda D, args: _run_complete_optimal(D, args.m, args.seed)),
    "sq3.3": (None, lambda _, args: _run_square(args.seed)),
    "ex4.1": (None, lambda _, args: _run_chain(3, 1e-6, -1.5, 0.0)),
    "ex4.2": (None, lambda _, args: _run_chain(4, 1e-6, -1.5, 0.0)),
    "ex4.3": (None, lambda _, args: _run_chain(5, 1e-3, -1.0, 0.05)),
    "ex4.5": ("m", lambda m, args: _run_chain_limit(m)),
    "thm4.6": ("m", lambda m, args: _run_lattice(m, args.seed)),
    "ex5.3i": (None, lambda _, args: _run_ab_square(args.seed)),
    "ex5.3ii": (None, lambda _, args: _run_ab_sharpness()),
    "ex6.6i": (None, lambda _, args: _run_harnack("square", 2.0, 4.0 / 3.0, args.seed)),
    "ex6.6ii": (
        "D",
        lambda D, args: _run_harnack(
            "complete:%d" % D, args.m, (args.m - 1.0) * _optimal_d_target(args.m, complete_graph(D)),
            args.seed,
        ),
    ),
    "lemma6.1": ("m", lambda m, args: _run_minorant(m)),
    "lemma6.3": (None, lambda _, args: _run_integral_min(args.seed)),
}
_SUFFIX_TYPES = {"D": int, "m": float}
REPRODUCE_IDS = tuple(
    base + (":" + kind if kind else "") for base, (kind, _) in REPRODUCE.items()
)


def resolve_reproduce(token: str):
    """The runner of a reproduce id and its parsed suffix (None for a bare id)."""
    base, colon, suffix = token.partition(":")
    kind, runner = REPRODUCE.get(base, (None, None))
    if runner is not None and (kind is None) == (not colon):
        if kind is None:
            return runner, None
        try:
            return runner, _SUFFIX_TYPES[kind](suffix)
        except ValueError:
            pass
    raise ValidationError(
        "bad reproduce id %r; valid ids: %s (D an integer, m a number)"
        % (token, ", ".join(REPRODUCE_IDS))
    )


def cmd_reproduce(args) -> int:
    runner, value = resolve_reproduce(args.id)
    if args.m != 2.0 and REPRODUCE[args.id.partition(":")[0]][0] != "D":
        reads_m = " and ".join(rid for rid in REPRODUCE_IDS if rid.endswith(":D"))
        raise ValidationError("reproduce %s does not read --m; only %s do" % (args.id, reads_m))
    passed, payload = runner(value, args)
    record = {"id": args.id, "passed": passed, "seed": args.seed, **payload}
    out_path = write_artifact(args, "reproduce_%s.json" % args.id.replace(":", "_"), record)
    print("reproduce %s: %s" % (args.id, "PASS" if passed else "FAIL"))
    print("wrote %s" % out_path)
    return 0 if passed else 1


def cmd_gen_graph(args) -> int:
    g = resolve_graph(args.graph)
    name = "graph_%s.txt" % args.graph.replace(":", "_").replace("/", "_")
    out_path = os.path.join(resolve_outdir(args), name)
    save_edge_list(g, out_path)
    print(
        "gen-graph %s: %d vertices, %d directed edges"
        % (args.graph, g.n, len(g.data))
    )
    print("wrote %s" % out_path)
    return 0


# ---------------------------------------------------------------------------
# parser


def _seed(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer, got %r" % text)
    return int(text)


FLAGS = {
    "--graph": dict(default="complete:2", help="graph spec: " + GENERATOR_HELP),
    "--m": dict(type=float, default=2.0, help="diffusion exponent, m > 1"),
    "--alpha": dict(type=float, default=0.0, help="mixing weight in [0, 1]"),
    "--d": dict(type=float, default=None, help="dimension constant d > 0"),
    "--mu": dict(type=float, default=None, help="time exponent for Harnack checks"),
    "--lambda": dict(dest="lam", type=float, default=0.0, help="Harnack parameter in [0, 1)"),
    "--u0": dict(
        default="const:1",
        help="initial state: file:PATH, const:v or const:v1,...,vn, random:lo,hi",
    ),
    "--t-start": dict(type=float, default=0.1),
    "--t-end": dict(type=float, default=5.0),
    "--points": dict(type=int, default=201),
    # the SolverConfig and SearchConfig defaults, written out so that parsing
    # imports neither module; the tests tie each to its config
    "--rel-tol": dict(type=float, default=1e-10),
    "--abs-tol": dict(type=float, default=1e-10),
    "--vertex": dict(action="append", default=None, help="vertex to verify (repeatable; default all)"),
    "--samples": dict(type=int, default=20000, help="search sample budget"),
    "--pairs": dict(type=int, default=100, help="harnack: sampled tuples"),
    "--seed": dict(type=_seed, default=0, help="seed for all randomized choices"),
    "--tol": dict(type=float, default=None, help="reporting tolerance override"),
    "--out": dict(default=None, help="output directory (default $PME_LAB_OUT)"),
}
_FLOW = ("--graph", "--m", "--u0", "--t-start", "--t-end", "--points", "--seed")
_HARNACK = _FLOW + ("--mu", "--lambda", "--tol", "--out")


class _Parser(argparse.ArgumentParser):
    """Takes no flag abbreviations and rejects an unknown argument itself.

    A subcommand's parser is run with ``parse_known_args``, so by default its
    leftover arguments reach the root parser, which reports them with the
    root usage; here the subcommand reports them with its own.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: %s" % " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes exactly the flags it reads and rejects the rest."""
    parser = _Parser(
        prog="pmelab",
        description="verification laboratory for nonlinear diffusion on finite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, summary, func, flags, required=()):
        p = parent.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, required=flag in required, **FLAGS[flag])
        p.set_defaults(func=func)
        return p

    command(
        sub, "simulate", "integrate the flow and report invariants", cmd_simulate,
        _FLOW + ("--rel-tol", "--abs-tol", "--out"),
    )
    command(
        sub, "verify-cd", "curvature-dimension verification per vertex", cmd_verify_cd,
        ("--graph", "--m", "--alpha", "--d", "--vertex", "--samples", "--seed", "--tol", "--out"),
    )
    check = sub.add_parser("check", help="inequality checkers along a trajectory")
    which = check.add_subparsers(dest="which", required=True)
    command(
        which, "ab", "Aronson-Benilan bound d/t + G >= 0", cmd_check,
        _FLOW + ("--alpha", "--d", "--tol", "--out"), required=("--d",),
    )
    command(
        which, "diff-harnack", "differential Harnack hypothesis", cmd_check,
        _HARNACK, required=("--mu",),
    )
    command(
        which, "harnack", "integrated Harnack comparison on sampled pairs", cmd_check,
        _HARNACK + ("--pairs",), required=("--mu",),
    )
    p = command(
        sub, "reproduce", "rerun a named benchmark experiment", cmd_reproduce,
        ("--m", "--seed", "--out"),
    )
    p.add_argument("id", help="one of: " + ", ".join(REPRODUCE_IDS))
    command(sub, "gen-graph", "write a generated graph as an edge list", cmd_gen_graph, ("--graph", "--out"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StiffnessError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (PMELabError, OSError, MemoryError) as exc:
        print("error: %s" % (str(exc) or "out of memory"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
