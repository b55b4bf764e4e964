"""In-process workloads: ``flow``, ``checks`` and ``cd_search``.

Each builder takes the run seed, resolves its graphs, draws its inputs and
returns the rotation of operations the closed loop cycles through.  Every
random input (starting fields, Harnack pairs, tested ``d`` values and
search seeds) comes from ``numpy.random.default_rng([seed, stream, ...])``.
"""

from __future__ import annotations

import math

import numpy as np

import pmelab
from loop import CheckFailed, Op

# stream ids keep the inputs of different workloads independent
FLOW_STREAM, CHECKS_STREAM, PAIRS_STREAM, CD_STREAM = 11, 12, 13, 14

FLOW_GRAPHS = ("two-point", "square", "complete:5", "complete:30", "zwindow:100", "path:16")
FLOW_EXPONENTS = (2.0, 1.5, 3.0)
FLOW_VARIANTS = 3
FLOW_TIMES = np.linspace(0.0, 5.0, 201)
TWO_POINT = (1.0, 1e-6)
TWO_POINT_TOL = 1e-8  # the reproduce ex5.3ii solver gate
MASS_DRIFT_TOL = 1e-12

# graphs where CD(0, d) holds at m = 2 with the closed-form d; mu = (m-1) d
CHECK_CASES = (("square", 4.0 / 3.0), ("complete:3", 4.0 / 3.0), ("complete:5", 8.0 / 5.0))
CHECK_VARIANTS = 2
CHECK_TIMES = np.linspace(0.1, 5.0, 201)
# identity residuals use the fine grid and near-constant data of acceptance
# criterion 06, halved in step so the centred-difference error has room
RESIDUAL_TIMES = 0.1 + 5e-4 * np.arange(401)
PRESSURE_RESIDUAL_TOL = 1e-9
ENTROPY_RESIDUAL_TOL = 1e-5
HARNACK_PAIRS = 100
SWEEP_TIMES = np.linspace(1e-4, 5.0, 4000)

# (graph, vertex, m, alpha, reference optimal d, where it comes from, number
# of searches).  Each search has its own seed and is tested at one d above
# and one d below the reference.  complete:3 is the cheapest, sampling-bound
# ball and its cost hardly depends on the seed; it gets 22 searches, so its
# operations are over 60% of the rotation and the median falls well inside
# its tight cluster.  The refinement-bound searches make up the tail and most
# of the time; the two whose cost varies most with the seed (zwindow:3 with
# alpha = 1, square at m = 1.5) get three searches.
CD_CASES = (
    ("square", "x", 2.0, 0.0, 4.0 / 3.0, "closed form", 2),
    ("complete:5", "x1", 3.0, 0.0, 0.75, "closed form m/(m-1)^2", 1),
    ("complete:3", "x1", 2.0, 0.0, 4.0 / 3.0, "closed form 2(D-1)/D", 22),
    ("complete:12", "x1", 2.0, 0.0, 11.0 / 6.0, "closed form 2(D-1)/D", 1),
    ("complete:5", "x1", 2.0, 0.0, 8.0 / 5.0, "closed form 2(D-1)/D", 1),
    ("zwindow:3", "0", 2.0, 0.0, math.inf, "length-5 chain witness", 1),
    ("zwindow:3", "0", 2.0, 1.0, 1.0, "lattice constant 1/(m-1), attained", 3),
    ("square", "x", 1.5, 0.0, 1.1588045002851, "recorded value of the floor box", 3),
    ("path:5", "3", 2.0, 0.0, math.inf, "length-5 chain witness", 1),
)
CD_D_TOL = 1e-3


def _graph(spec: str, tracer):
    with tracer.span("graphs.resolve_graph"):
        g = pmelab.complete_graph(2) if spec == "two-point" else pmelab.resolve_graph(spec)
    tracer.count("graphs.built")
    return g


# -- flow --------------------------------------------------------------------


def _integrate_op(g, spec, m, u0, exact):
    def call(tracer):
        traj = pmelab.integrate(g, m, u0, FLOW_TIMES)
        tracer.count("solver.steps", len(traj.dense.ts) - 1)
        return traj

    def check(traj):
        mass = traj.states.sum(axis=1)
        drift = float(np.max(np.abs(mass - mass[0])) / mass[0])
        if not drift <= MASS_DRIFT_TOL:
            raise CheckFailed("relative mass drift %.3g > %g" % (drift, MASS_DRIFT_TOL))
        if exact is None:
            return None
        err = float(np.max(np.abs(traj.states - exact)))
        if not err <= TWO_POINT_TOL:
            raise CheckFailed("two-point error %.3g > %g" % (err, TWO_POINT_TOL))
        return err

    return Op("integrate %s m=%g" % (spec, m), "solver.integrate", call, check)


def build_flow(seed: int, tracer) -> list[Op]:
    """``integrate`` with 201 output times over graphs, exponents and data.

    The first operation is the two-point start at m = 2, whose error against
    ``exact_two_point`` is the workload's reference error.
    """
    graphs = {spec: _graph(spec, tracer) for spec in FLOW_GRAPHS}
    exact = pmelab.exact_two_point(*TWO_POINT, FLOW_TIMES)
    rotation = []
    for variant in range(FLOW_VARIANTS):
        for spec in FLOW_GRAPHS:
            g = graphs[spec]
            for m in FLOW_EXPONENTS:
                if spec == "two-point":
                    u0 = np.array(TWO_POINT)
                    ref = exact if m == 2.0 else None
                else:
                    rng = np.random.default_rng([seed, FLOW_STREAM, variant, FLOW_GRAPHS.index(spec), int(10 * m)])
                    u0 = rng.uniform(0.5, 1.5, g.n)
                    ref = None
                rotation.append(_integrate_op(g, spec, m, u0, ref))
    return rotation


# -- checks ------------------------------------------------------------------


def _pairs(g, rng, count, t_lo, t_hi):
    """``(t1, t2, x1, x2)`` with ``t1 < t2`` at least 1% of the window apart."""
    gap = 0.01 * (t_hi - t_lo)
    out = []
    while len(out) < count:
        a, b = np.sort(rng.uniform(t_lo, t_hi, 2))
        if b - a < gap:
            continue
        x1, x2 = (g.vertices[int(i)] for i in rng.integers(g.n, size=2))
        out.append((float(a), float(b), x1, x2))
    return out


def _report_op(label, span, fn, meta=None):
    def call(tracer):
        rep = fn()
        tracer.count("estimates.points_checked", rep.points_checked)
        return rep

    def check(rep):
        if not rep.passed:
            raise CheckFailed("min slack %.3g below -%g" % (rep.min_slack, rep.tolerance))
        return None

    return Op(label, span, call, check, meta or {})


def _residual_op(label, span, fn, tol):
    def check(value):
        if not value <= tol:
            raise CheckFailed("residual %.3g > %g" % (value, tol))
        return None

    return Op(label, span, lambda tracer: fn(), check)


def _sweep_op(traj, exact):
    def call(tracer):
        with tracer.span("solver.state_at"):
            states = np.array([traj.state_at(t) for t in SWEEP_TIMES])
        tracer.count("solver.state_at_calls", len(SWEEP_TIMES))
        with tracer.span("operators.laplacian_field"):
            neg_lap = np.array([-pmelab.laplacian_field(traj.graph, pmelab.pressure(2.0, u))[0] for u in states])
        return states, neg_lap

    def check(out):
        states, neg_lap = out
        ratio = float(np.max(SWEEP_TIMES * neg_lap)) * math.e
        if not 0.99 <= ratio <= 1.0:
            raise CheckFailed("sharpness ratio %.9g outside [0.99, 1]" % ratio)
        return float(np.max(np.abs(states - exact)))

    return Op("state_at sweep two-point", "solver.state_at_sweep", call, check)


def build_checks(seed: int, tracer) -> list[Op]:
    """Checker calls on trajectories integrated here, once, before timing."""
    rotation = []
    two_point = _graph("two-point", tracer)
    with tracer.span("solver.integrate"):
        sweep_traj = pmelab.integrate(two_point, 2.0, np.array(TWO_POINT), FLOW_TIMES)
    sweep = _sweep_op(sweep_traj, pmelab.exact_two_point(*TWO_POINT, SWEEP_TIMES))
    for variant in range(CHECK_VARIANTS):
        for case, (spec, d) in enumerate(CHECK_CASES):
            g = _graph(spec, tracer)
            rng = np.random.default_rng([seed, CHECKS_STREAM, variant, case])
            with tracer.span("solver.integrate"):
                traj = pmelab.integrate(g, 2.0, rng.uniform(0.5, 1.5, g.n), CHECK_TIMES)
                fine = pmelab.integrate(g, 2.0, 1.0 + 0.1 * rng.random(g.n), RESIDUAL_TIMES)
            pair_rng = np.random.default_rng([seed, PAIRS_STREAM, variant, case])
            pairs = _pairs(g, pair_rng, HARNACK_PAIRS, CHECK_TIMES[0], CHECK_TIMES[-1])
            measure = pmelab.counting_measure(g)
            tag = "%s #%d" % (spec, variant)
            # d and mu bind through default arguments: the loop rebinds them
            rotation += [
                _report_op(
                    "ab_check " + tag,
                    "estimates.ab_check",
                    lambda t=traj, d=d: pmelab.ab_check(t, 0.0, d),
                    {"traj": traj},
                ),
                _residual_op(
                    "pressure_equation_residual " + tag,
                    "solver.pressure_equation_residual",
                    lambda f=fine: pmelab.pressure_equation_residual(f),
                    PRESSURE_RESIDUAL_TOL,
                ),
                _report_op(
                    "diff_harnack_residual " + tag,
                    "estimates.diff_harnack_residual",
                    lambda t=traj, mu=d: pmelab.diff_harnack_residual(t, 0.0, mu),
                ),
                sweep,
                _report_op(
                    "harnack_check " + tag,
                    "estimates.harnack_check",
                    lambda t=traj, mu=d, p=pairs: pmelab.harnack_check(t, mu, 0.0, p),
                ),
                _residual_op(
                    "entropy_dissipation_residual " + tag,
                    "solver.entropy_dissipation_residual",
                    lambda f=fine, ms=measure: pmelab.entropy_dissipation_residual(f, ms),
                    ENTROPY_RESIDUAL_TOL,
                ),
            ]
    return rotation


# -- cd_search ---------------------------------------------------------------


def witness_ratio(rep, g) -> float:
    """The public ``cd_ratio`` of a report's witness field."""
    return pmelab.cd_ratio(g, rep.m, rep.alpha, rep.witness.to_field(g), rep.vertex)


def _cd_op(g, spec, x, m, alpha, d, ref, search):
    def call(tracer):
        rep = pmelab.verify_cd_at(g, m, alpha, d, x, search)
        tracer.count("cd.evaluations", rep.samples_used)
        return rep

    def check(rep):
        want = "violated" if d < ref else "holds_empirically"
        if rep.verdict != want:
            raise CheckFailed("verdict %s, expected %s" % (rep.verdict, want))
        got = rep.empirical_optimal_d
        err = 0.0 if got == ref else abs(got - ref)
        if not err <= CD_D_TOL:
            raise CheckFailed("empirical d %r vs reference %r" % (got, ref))
        if rep.witness is not None:
            ratio = witness_ratio(rep, g)
            if not ratio > d:
                raise CheckFailed("witness re-scores to %r, not above d = %r" % (ratio, d))
        return err

    label = "verify_cd_at %s@%s m=%g alpha=%g d=%.6g" % (spec, x, m, alpha, d)
    meta = {"graph": g, "vertex": x, "m": m, "alpha": alpha, "d": d, "search": search}
    return Op(label, "cd.verify_cd_at", call, check, meta)


def build_cd_search(seed: int, tracer) -> list[Op]:
    """``verify_cd_at`` with ``d`` just above and just below the reference.

    Where the optimal ``d`` is infinite every tested value is violated.  The
    operations of each case are spread evenly over the rotation, so a
    partial rotation sees about the same mix as a whole one.
    """
    graphs = {}
    per_case = []
    for case, (spec, x, m, alpha, ref, _, searches) in enumerate(CD_CASES):
        if spec not in graphs:
            graphs[spec] = _graph(spec, tracer)
        rng = np.random.default_rng([seed, CD_STREAM, case])
        ops = []
        for _ in range(searches):
            search = pmelab.SearchConfig(seed=int(rng.integers(2**31)))
            above, below = rng.uniform(0.002, 0.05, 2)
            if math.isinf(ref):
                ds = rng.uniform(1.0, 100.0, 2)
            else:
                ds = (ref * (1.0 + above), ref * (1.0 - below))
            ops += [_cd_op(graphs[spec], spec, x, m, alpha, float(d), ref, search) for d in ds]
        per_case.append(ops)
    spread = [((j + 0.5) / len(ops), case, op) for case, ops in enumerate(per_case) for j, op in enumerate(ops)]
    return [op for _, _, op in sorted(spread, key=lambda e: e[:2])]


BUILDERS = {"flow": build_flow, "checks": build_checks, "cd_search": build_cd_search}
