"""Time-scaled regularity estimates, Harnack bounds and scalar lemmas."""

import functools
import math
import pickle
import re
import subprocess
import sys
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmelab import (
    EstimateReport,
    Graph,
    ab_check,
    build_graph,
    complete_graph,
    counting_measure,
    diff_harnack_residual,
    entropy_dissipation_residual,
    gradient_energy_field,
    graph_distance,
    harnack_check,
    harnack_rhs_distance,
    harnack_rhs_path,
    integral_min_inequality_check,
    integrate,
    laplacian_field,
    minorant_ratio,
    mixed_laplacian_field,
    path_graph,
    pressure,
    pressure_equation_residual,
    quadratic_minorant_check,
    read_trajectory_csv,
    renyi_entropy,
    resolve_graph,
    square_graph,
    write_trajectory_csv,
)
from pmelab import estimates, operators
from pmelab.cli import main
from pmelab.errors import DomainError, LambdaOneError, NoPathError, ValidationError
from pmelab.estimates import _refinement
from pmelab.operators import _dtv, _gradient_energy, _mixed_laplacian, _pressure


def square_run(m=2.0, u0=(1.2, 0.9, 1.05, 0.8), t0=0.1, t1=2.0, points=40):
    g = square_graph()
    return integrate(g, m, np.array(u0), np.linspace(t0, t1, points))


# -- regularity along the flow ---------------------------------------------


def test_ab_estimate_holds_at_the_square_optimum():
    rep = ab_check(square_run(), 0.0, 4.0 / 3.0)
    assert rep.passed
    assert rep.min_slack >= -1e-8
    assert rep.points_checked > len(square_run().times)


def test_ab_estimate_fails_for_an_undersized_dimension():
    g = square_graph()
    traj = integrate(g, 2.0, {"x": 1.0, "y1": 0.05, "y2": 0.05, "z": 0.05}, np.linspace(0.05, 2.0, 40))
    rep = ab_check(traj, 0.0, 0.05)
    assert not rep.passed
    assert rep.min_slack < -1.0
    assert rep.argmin["vertex"] == "x"


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_ab_check_evaluates_pressure_and_flow_once(monkeypatch, alpha):
    traj = square_run()
    calls = []

    def counted(name, f):
        return lambda *args: calls.append(name) or f(*args)

    # each module calls the core through its own names (estimates may not import them)
    for name, f in (("_flow", operators._flow), ("_pressure", operators._pressure)):
        monkeypatch.setattr(operators, name, counted(name, f))
        monkeypatch.setattr(estimates, name, counted(name, f), raising=False)
    ab_check(traj, alpha, 4.0 / 3.0)
    assert sorted(calls) == ["_flow", "_pressure"]


def test_ab_report_records_parameters_and_argmin():
    rep = ab_check(square_run(), 0.0, 4.0 / 3.0)
    assert rep.kind == "ab"
    assert rep.parameters["d"] == pytest.approx(4.0 / 3.0)
    assert set(rep.argmin) >= {"t", "vertex", "form"}


@pytest.mark.parametrize("m", [1.25, 2.0, 3.0])
def test_batched_checkers_equal_the_per_point_loop(m):
    # reference: one time point at a time through the public field operators
    traj = square_run(m=m, points=12)
    g, alpha, d, lam, mu = traj.graph, 0.5, 4.0 / 3.0, 0.25, 2.0
    ab, dh = ab_check(traj, alpha, d), diff_harnack_residual(traj, lam, mu)
    assert ab.points_checked == dh.points_checked == g.n * (12 + 9 * 10)
    for (t, x, slack), (t2, x2, slack2) in zip(ab.records, dh.records):
        u = traj.dense(np.array([t]))[0]
        v = pressure(m, u)
        dtv = m * u ** (m - 2.0) * laplacian_field(g, u**m)
        psi = gradient_energy_field(g, m, v)
        both = np.minimum(d / t + mixed_laplacian_field(g, m, alpha, u), d / t - ((1.0 - alpha) * psi - dtv) / ((m - 1.0) * v))
        assert (t, x, slack) == (t, g.vertices[np.argmin(both)], np.min(both))
        harnack = dtv - (1.0 - lam) * psi + mu / t * v
        assert (t2, x2, slack2) == (t, g.vertices[np.argmin(harnack)], np.min(harnack))
    assert ab.min_slack == min(r[2] for r in ab.records)
    assert dh.min_slack == min(r[2] for r in dh.records)

    worst = 0.0
    for u in traj.states:
        v = pressure(m, u)
        lhs = m * u ** (m - 2.0) * laplacian_field(g, u**m)
        rhs = (m - 1.0) * v * laplacian_field(g, v) + gradient_energy_field(g, m, v)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert pressure_equation_residual(traj) == worst

    measure, t = counting_measure(g), traj.times
    ent = [renyi_entropy(g, m, u, measure) for u in traj.states]
    worst = 0.0
    for i in range(1, len(t) - 1):
        u = traj.states[i]
        predicted = -float(measure.pi @ (u * gradient_energy_field(g, m, pressure(m, u)))) / m
        worst = max(worst, abs((ent[i + 1] - ent[i - 1]) / (t[i + 1] - t[i - 1]) - predicted))
    assert entropy_dissipation_residual(traj, measure) == worst


def test_differential_harnack_follows_from_the_dimension_bound():
    traj = square_run()
    rep = diff_harnack_residual(traj, 0.0, 4.0 / 3.0)
    assert rep.passed
    assert rep.min_slack >= -1e-8


def test_differential_harnack_rejects_unit_lambda():
    with pytest.raises(LambdaOneError):
        diff_harnack_residual(square_run(), 1.0, 4.0 / 3.0)


@pytest.mark.parametrize("tol", [-1.0, math.inf, math.nan])
def test_checkers_reject_a_negative_or_non_finite_tolerance(tol):
    traj = square_run()
    with pytest.raises(ValidationError):
        ab_check(traj, 0.0, 0.01, tol=tol)
    with pytest.raises(ValidationError):
        diff_harnack_residual(traj, 0.0, 4.0 / 3.0, tol=tol)
    with pytest.raises(ValidationError):
        harnack_check(traj, 4.0 / 3.0, 0.0, [(0.2, 0.8, "x", "z")], tol=tol)


def test_time_scaled_checkers_refuse_a_trajectory_from_t_zero():
    traj = square_run(t0=0.0)
    for check in (lambda: ab_check(traj, 0.0, 4.0 / 3.0), lambda: diff_harnack_residual(traj, 0.0, 4.0 / 3.0)):
        with pytest.raises(ValidationError) as got:
            check()
        assert str(got.value) == "trajectory must start at t > 0 for time-scaled bounds"


@pytest.mark.parametrize("spec", ["square", "path:16", "complete:5"])
@pytest.mark.parametrize("m", [1.25, 2.0, 3.0])
def test_time_scaled_checkers_at_reported_times_need_no_dense_data(tmp_path, spec, m):
    g = resolve_graph(spec)
    traj = integrate(g, m, np.random.default_rng(5).uniform(0.5, 1.5, g.n), np.linspace(0.1, 3.0, 30))
    write_trajectory_csv(traj, tmp_path / "traj.csv")
    plain = read_trajectory_csv(tmp_path / "traj.csv", g, m)
    assert plain.dense is None
    reported = set(traj.times.tolist())
    for check in (lambda tr: ab_check(tr, 0.5, 4.0 / 3.0), lambda tr: diff_harnack_residual(tr, 0.25, 0.7)):
        rep = check(plain)
        assert rep.points_checked == len(traj.times) * g.n
        assert rep.records == [r for r in check(traj).records if r[0] in reported]


@pytest.mark.parametrize("lo,hi", [(1e-4, 5.0), (0.1, 5.0), (1e6, 1e6 + 1e-7)])
@pytest.mark.parametrize("count", [2, 3, 11, 12, 201])
def test_refinement_times_equal_linspace_bit_for_bit(lo, hi, count):
    for ts in (np.linspace(lo, hi, count), np.geomspace(lo, hi, count)):
        want = np.linspace(ts[:-1][:10], ts[1:][:10], 11, axis=1)[:, 1:-1].ravel()
        assert _refinement(ts).tobytes() == want.tobytes()


def _eager_time_scaled_records(traj, *forms):
    """A time-scaled check's records, built at once from the arrays that the check evaluates."""
    g, m, ts, U = traj.graph, traj.m, traj.times, traj.states
    extra = _refinement(ts)
    order = np.argsort(np.concatenate([ts, extra]), kind="stable")
    ts, U = np.concatenate([ts, extra])[order], np.concatenate([U, traj.dense(extra)])[order]
    V = _pressure(m, U)
    terms = (ts[:, None], U, V, _dtv(g, m, U), _gradient_energy(g, m, V))
    slack = functools.reduce(np.minimum, [form(*terms) for form in forms])
    cols = np.argmin(slack, axis=1)
    mins = slack[np.arange(len(ts)), cols]
    return [(t, g.vertices[i], s) for t, i, s in zip(ts.tolist(), cols.tolist(), mins.tolist())]


def _checks_with_eager_records(traj, pairs):
    """``(report, records built at once)`` for the three checkers, as ``check ab``, ``diff-harnack`` and ``harnack``."""
    g, m, alpha, d, lam, mu = traj.graph, traj.m, 0.5, 4.0 / 3.0, 0.25, 0.7
    ab = _eager_time_scaled_records(
        traj,
        lambda t, U, V, dtv, psi: d / t + _mixed_laplacian(g, m, alpha, U),
        lambda t, U, V, dtv, psi: d / t - ((1.0 - alpha) * psi - dtv) / ((m - 1.0) * V),
    )
    dh = _eager_time_scaled_records(traj, lambda t, U, V, dtv, psi: dtv - (1.0 - lam) * psi + mu / t * V)
    return [
        (ab_check(traj, alpha, d), ab),
        (diff_harnack_residual(traj, lam, mu), dh),
        (harnack_check(traj, mu, lam, pairs), _harnack_reference(traj, mu, lam, pairs)),
    ]


@pytest.mark.parametrize("spec", ["square", "complete:5", "path:5"])
def test_checkers_build_their_records_at_the_first_read(tmp_path, spec):
    g = resolve_graph(spec)
    rng = np.random.default_rng(4)
    traj = integrate(g, 2.0, rng.uniform(0.5, 1.5, g.n), np.linspace(0.1, 5.0, 201))
    pairs = [(0.1, 5.0, g.vertices[0], g.vertices[-1]), (0.3, 0.4, g.vertices[1], g.vertices[1])]
    pairs += [(float(a), float(b), g.vertices[i], g.vertices[j]) for (a, b), (i, j) in
              zip(np.sort(rng.uniform(0.1, 5.0, (20, 2)), axis=1), rng.integers(g.n, size=(20, 2)))]
    for rep, eager in _checks_with_eager_records(traj, pairs):
        rep.passed, rep.min_slack, rep.argmin, rep.points_checked, rep.to_json_dict(), repr(rep)
        assert callable(vars(rep)["_records"])  # reading the verdict built no per-point row
        assert rep.min_slack == min(r[-1] for r in eager)
        built = rep.records
        assert built == eager and rep.records is built
        made_at_once = EstimateReport(rep.kind, rep.parameters, rep.min_slack, rep.argmin, rep.points_checked,
                                      rep.tolerance, eager)
        assert rep == made_at_once
        rep.write_slack_csv(tmp_path / "lazy.csv")
        made_at_once.write_slack_csv(tmp_path / "eager.csv")
        assert (tmp_path / "lazy.csv").read_bytes() == (tmp_path / "eager.csv").read_bytes()


def test_a_report_builds_from_its_verdict_fields_and_pickles_with_its_records():
    plain = EstimateReport("ab", {"m": 2.0, "alpha": 0.0, "d": 1.0}, 0.5, {"t": 0.1, "vertex": "x"}, 8, 1e-8)
    assert plain.records == [] and plain.passed
    keys = {"kind", "parameters", "min_slack", "argmin", "points_checked", "tolerance", "passed"}
    assert set(plain.to_json_dict()) == keys
    rep = ab_check(square_run(), 0.0, 4.0 / 3.0)
    assert set(rep.to_json_dict()) == keys
    back = pickle.loads(pickle.dumps(rep))
    assert back == rep and back.records == rep.records and not callable(vars(back)["_records"])


# -- Harnack right-hand sides ----------------------------------------------


def test_distance_form_closed_formula():
    g = path_graph(3)
    value = harnack_rhs_distance(g, 0.5, 0.0, 1.0, 2.0, "1", "3")
    expected = 2.0 * 4 * (2.0**1.5 - 1.0) / (1.5 * 1.0 * 1.0)
    assert value == pytest.approx(expected, rel=1e-14)


def test_distance_form_vanishes_at_equal_vertices():
    g = path_graph(3)
    assert harnack_rhs_distance(g, 0.5, 0.0, 1.0, 2.0, "2", "2") == 0.0


def test_path_form_single_edge_formula():
    g = path_graph(3)
    value = harnack_rhs_path(g, 2.0, 0.5, 0.0, 1.0, 2.0, ["1", "2"])
    expected = 2.0 * 1 * (2.0**1.5 - 1.0) / (1.5 * 1.0 * 1.0)
    assert value == pytest.approx(expected, rel=1e-14)


def test_path_form_requires_consecutive_edges():
    g = path_graph(4)
    with pytest.raises(ValidationError):
        harnack_rhs_path(g, 2.0, 0.5, 0.0, 1.0, 2.0, ["1", "3"])
    with pytest.raises(ValidationError, match="a path needs at least one edge"):
        harnack_rhs_path(g, 2.0, 0.5, 0.0, 1.0, 2.0, ["1"])


def test_rhs_forms_reject_unit_lambda():
    g = path_graph(3)
    with pytest.raises(LambdaOneError):
        harnack_rhs_distance(g, 0.5, 1.0, 1.0, 2.0, "1", "3")
    with pytest.raises(LambdaOneError):
        harnack_rhs_path(g, 2.0, 0.5, 1.0, 1.0, 2.0, ["1", "2"])


@pytest.mark.parametrize("mu,t2", [(1e308, 2.0), (1.3, 1e300), (0.01, 1e300)])
def test_rhs_forms_refuse_an_overflowing_power(mu, t2):
    # a power past the float range must not become a path form of inf - inf = nan
    g = path_graph(3)
    with pytest.raises(DomainError, match="overflows a float"):
        harnack_rhs_path(g, 2.0, mu, 0.0, 1.0, t2, ["1", "2", "3"])
    with pytest.raises(DomainError, match="overflows a float"):
        harnack_rhs_distance(g, mu, 0.0, 1.0, t2, "1", "3")


def test_a_harnack_width_whose_square_underflows_is_refused(tmp_path, capsys):
    # (t2 - t1)**2 divides both corrections; at 0 they would be inf or nan
    g = path_graph(3)
    message = "(t2 - t1)**2 = 1e-170**2 underflows to 0"
    traj = integrate(g, 2.0, [1.0, 0.5, 0.7], np.linspace(1e-170, 3e-170, 5))
    calls = [
        lambda: harnack_rhs_distance(g, 1.0, 0.0, 1e-170, 2e-170, "1", "3"),
        lambda: harnack_rhs_distance(g, 1.0, 0.0, 1e-170, 2e-170, "1", "1"),
        lambda: harnack_rhs_path(g, 2.0, 1.0, 0.0, 1e-170, 2e-170, ["1", "2", "3"]),
        lambda: harnack_check(traj, 1.0, 0.0, [(1e-170, 2e-170, "1", "3")]),
    ]
    for call in calls:
        with pytest.raises(DomainError) as got:
            call()
        assert str(got.value) == message
    argv = ["check", "harnack", "--graph", "path:3", "--mu", "1", "--pairs", "5", "--u0", "random:"]
    for start, code in (("1e-170", 2), ("1e-150", 0)):
        window = ["--t-start", start, "--t-end", start.replace("1e", "3e"), "--out", str(tmp_path / start)]
        assert main(argv + window) == code
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: \(t2 - t1\)\*\*2 = \S+\*\*2 underflows to 0\n" if code else "", err), err


def test_a_harnack_denominator_that_underflows_is_refused(tmp_path, capsys):
    # (t2 - t1)**2 = 1e-322 is nonzero, but (1 - lambda)(mu + 1) times it underflows to 0
    g = path_graph(3)
    times = "at (t1, t2) = (1e-161, 2e-161)"
    distance = "the distance-form denominator (1 - lambda)(mu + 1) k_min (t2 - t1)**2 underflows to 0 " + times
    for x2 in ("1", "2", "3"):
        with pytest.raises(DomainError) as got:
            harnack_rhs_distance(g, 1.0, 0.99999, 1e-161, 2e-161, "1", x2)
        assert str(got.value) == distance
    with pytest.raises(DomainError) as got:
        harnack_rhs_path(g, 2.0, 1.0, 0.99999, 1e-161, 2e-161, ["1", "2", "3"])
    assert str(got.value) == "the path-form denominator (1 - lambda)(mu + 1)(t2 - t1)**2 underflows to 0 " + times
    argv = ["check", "harnack", "--graph", "path:3", "--mu", "1", "--t-start", "1e-161", "--t-end", "1e-160"]
    argv += ["--pairs", "5", "--u0", "random:", "--seed", "0"]
    for lam, code in (("0.99999", 2), ("0.5", 0)):
        assert main(argv + ["--lambda", lam, "--out", str(tmp_path / lam)]) == code
        err = capsys.readouterr().err
        pattern = r"error: the path-form denominator \(1 - lambda\)\(mu \+ 1\)\(t2 - t1\)\*\*2 underflows to 0 at .*\n"
        assert re.fullmatch(pattern if code else "", err), err


def test_harnack_check_refuses_a_slack_past_the_float_range():
    # t^mu v overflows on a huge state; a weight of 1e-308 puts both corrections past the range
    traj = integrate(path_graph(3), 2.0, [1e100] * 3, np.linspace(1.0, 100.0, 5))
    with pytest.raises(DomainError, match=r"t\*\*mu \* v = 100.0\*\*150.0 \* 2e\+100 overflows a float"):
        harnack_check(traj, 150.0, 0.0, [(1.0, 100.0, "1", "3")])
    g = build_graph([("a", "b", 1e-308), ("b", "c", 1.0)], symmetrize=True)
    traj = integrate(g, 2.0, [1.0, 1.0, 1.0], np.linspace(0.5, 2.0, 5))
    with pytest.raises(DomainError, match="the Harnack correction overflows a float"):
        harnack_check(traj, 1.3, 0.0, [(0.5, 2.0, "a", "b")])


def test_a_harnack_check_leaves_numpy_ma_unloaded():
    # a plain np.unique imports numpy.ma, about 0.55 MB of every process that ran one
    code = (
        "import sys, numpy as np, pmelab\n"
        "traj = pmelab.integrate(pmelab.square_graph(), 2.0, [1.2, 0.9, 1.05, 0.8], np.linspace(0.1, 2.0, 20))\n"
        "pmelab.harnack_check(traj, 1.5, 0.0, [(0.1, 2.0, 'x', 'z'), (0.5, 1.0, 'y1', 'y1')])\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    assert subprocess.run([sys.executable, "-c", code], timeout=120).returncode == 0


@given(st.integers(min_value=0, max_value=100))
@settings(max_examples=60, deadline=None)
def test_geodesic_path_never_beats_the_distance_form(seed):
    # the distance form is the geodesic path form with every edge weight
    # replaced by the global minimum, so it can only be larger
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.2, 2.0, 3)
    g = build_graph(
        [("1", "2", weights[0]), ("2", "3", weights[1]), ("3", "4", weights[2])],
        symmetrize=True,
    )
    t1, t2 = sorted(rng.uniform(0.2, 3.0, 2))
    if t2 - t1 < 0.05:
        return
    mu = float(rng.uniform(0.3, 2.0))
    path = ["1", "2", "3", "4"]
    path_value = harnack_rhs_path(g, 2.0, mu, 0.0, t1, t2, path)
    dist_value = harnack_rhs_distance(g, mu, 0.0, t1, t2, "1", "4")
    assert path_value <= dist_value * (1.0 + 1e-12)


def test_harnack_check_passes_on_the_square_and_reports_the_best_form():
    traj = square_run(t0=0.2, t1=2.5)
    rng = np.random.default_rng(1)
    pairs = []
    for _ in range(30):
        t1, t2 = np.sort(rng.uniform(0.2, 2.5, 2))
        if t2 - t1 < 0.02:
            t2 = t1 + 0.02
        x1, x2 = rng.choice(traj.graph.vertices, 2)
        pairs.append((float(t1), float(min(t2, 2.5)), str(x1), str(x2)))
    rep = harnack_check(traj, 4.0 / 3.0, 0.0, pairs)
    assert rep.passed
    assert rep.min_slack >= -1e-8
    assert rep.kind in ("harnack_distance", "harnack_path")


def test_harnack_check_validates_pair_times_and_symmetry():
    traj = square_run(t0=0.2, t1=2.0)
    with pytest.raises(ValidationError):
        harnack_check(traj, 1.0, 0.0, [(0.05, 1.0, "x", "z")])
    with pytest.raises(ValidationError):
        harnack_check(traj, 1.0, 0.0, [(1.0, 0.5, "x", "z")])
    g = build_graph([("a", "b", 1.0), ("b", "a", 2.0)])
    bad = integrate(g, 2.0, [1.0, 1.0], np.linspace(0.1, 1.0, 5))
    with pytest.raises(ValidationError):
        harnack_check(bad, 1.0, 0.0, [(0.2, 0.8, "a", "b")])


def test_harnack_check_rejects_unit_lambda():
    with pytest.raises(LambdaOneError):
        harnack_check(square_run(), 1.0, 1.0, [(0.2, 0.8, "x", "z")])


def _simple_paths(g, src, dst, cap):
    """All simple paths from vertex index src to dst with at most ``cap`` edges, by enumeration."""
    stack = [(src, [src])]
    while stack:
        v, prefix = stack.pop()
        if v == dst and len(prefix) > 1:
            yield prefix
            continue
        if len(prefix) - 1 >= cap:
            continue
        for w in g.neighbors_idx(v).tolist():
            if w not in prefix:
                stack.append((w, prefix + [w]))


def _harnack_reference(traj, mu, lam, pairs):
    """``harnack_check``'s records, one public correction call per pair and enumerated path."""
    g, m = traj.graph, traj.m
    records = []
    for t1, t2, x1, x2 in pairs:
        lhs = t1**mu * pressure(m, float(traj.dense(np.array([t1]))[0][g.index(x1)]))
        base = t2**mu * pressure(m, float(traj.dense(np.array([t2]))[0][g.index(x2)]))
        slack = base + harnack_rhs_distance(g, mu, lam, t1, t2, x1, x2) - lhs
        if x1 != x2:
            paths = _simple_paths(g, g.index(x1), g.index(x2), graph_distance(g, x1, x2) + 2)
            corr = min(harnack_rhs_path(g, m, mu, lam, t1, t2, [g.vertices[i] for i in p]) for p in paths)
            slack = min(slack, base + corr - lhs)
        records.append((t1, t2, x1, x2, slack))
    return records


def _reference_graph(spec):
    if spec == "weighted:12":
        # distinct weights, so no tie hides a wrong minimum, and triangles, so
        # the graph is not bipartite and paths of every length up to
        # distance + 2 exist
        rng = np.random.default_rng(3)
        names = [str(i) for i in range(12)]
        edges = {(i, (i + 1) % 12) for i in range(12)} | {(i, i + 2) for i in range(0, 12, 3)}
        weights = rng.permutation(len(edges)) * 0.137 + 0.25
        return build_graph([(names[i], names[j], w) for (i, j), w in zip(sorted(edges), weights)], symmetrize=True)
    if spec == "csr-duplicate":
        # a 5-cycle with one chord; the entry (a, b) is stored twice and the two add to k(b, a)
        rows = [[(1, 0.5), (4, 1.0), (1, 0.75), (2, 2.0)], [(0, 1.25), (2, 1.0)], [(1, 1.0), (3, 0.3), (0, 2.0)],
                [(2, 0.3), (4, 1.7)], [(3, 1.7), (0, 1.0)]]
        entries = [e for row in rows for e in row]
        indptr = np.cumsum([0] + [len(row) for row in rows])
        g = Graph(list("abcde"), (np.array([w for _, w in entries]), np.array([j for j, _ in entries]), indptr))
        assert g.symmetric and g.kernel("a", "b") == 1.25
        return g
    return resolve_graph(spec)


@pytest.mark.parametrize(
    "spec", ["square", "complete:5", "path:16", "zwindow:10", "complete:12", "weighted:12", "csr-duplicate", "complete:30"]
)
def test_harnack_check_equals_the_per_pair_reference_exactly(spec):
    g = _reference_graph(spec)
    rng = np.random.default_rng(11)
    traj = integrate(g, 2.0, rng.uniform(0.5, 1.5, g.n), np.linspace(0.1, 3.0, 30))
    pairs = []
    for _ in range(5 if spec == "complete:30" else 60):
        t1, t2 = np.sort(rng.uniform(0.1, 3.0, 2))
        x1, x2 = (g.vertices[int(i)] for i in rng.integers(g.n, size=2))
        pairs.append((float(t1), float(t2), x1, x2))
    pairs.append((0.1, 3.0, g.vertices[0], g.vertices[-1]))
    for mu, lam in ((1.5, 0.0), (0.7, 0.25)):
        rep = harnack_check(traj, mu, lam, pairs)
        want = _harnack_reference(traj, mu, lam, pairs)
        assert rep.records == want
        assert rep.min_slack == min(r[-1] for r in want)


def test_harnack_check_equals_plain_float_arithmetic_on_20000_pairs():
    # t^mu v and the distance form in Python floats (libm pow, never x * x for a square), the path
    # form from _path_minima, whose increments are libm's too; enough pairs that a last-bit
    # difference in any of them shows
    from pmelab.cli import sample_check_tuples
    from pmelab.estimates import _path_minima, _path_terms

    g, m, mu, lam = square_graph(), 2.0, 0.2, 0.0
    traj = integrate(g, m, np.random.default_rng(3).uniform(0.1, 2.0, g.n), np.linspace(0.1, 5.0, 201))
    pairs = sample_check_tuples(g, np.random.default_rng(7), 20000, 0.1, 5.0)
    U = traj.dense(np.array([t for pair in pairs for t in pair[:2]])).tolist()
    kmin = min(g.data.tolist())
    hops = {(x, y): graph_distance(g, x, y) for x in g.vertices for y in g.vertices}
    rows = [(t1, t2, g.index(x1), g.index(x2), hops[x1, x2] + k)
            for t1, t2, x1, x2 in pairs if x1 != x2 for k in range(3)]
    columns = [np.array(c) for c in zip(*rows)]
    increments = _path_terms(mu, lam, columns[0], columns[1], columns[4])[0].tolist()
    for (t1, t2, _, _, n_edges), got in zip(rows, increments):
        powers = [(t1 + j * (t2 - t1) / n_edges) ** (mu + 1.0) for j in range(n_edges + 1)]
        assert got == [b - a for a, b in zip(powers, powers[1:])] + [0.0] * (len(got) - n_edges)
    path = iter(_path_minima(g, mu, lam, *columns).tolist())
    want = []
    for (t1, t2, x1, x2), u1, u2 in zip(pairs, U[0::2], U[1::2]):
        lhs = t1**mu * (m / (m - 1.0) * u1[g.index(x1)] ** (m - 1.0))
        base = t2**mu * (m / (m - 1.0) * u2[g.index(x2)] ** (m - 1.0))
        span = t2 ** (mu + 1.0) - t1 ** (mu + 1.0)
        dist = hops[x1, x2]
        slack = base + 2.0 * dist**2 * span / ((1.0 - lam) * (mu + 1.0) * kmin * (t2 - t1) ** 2) - lhs
        if x1 != x2:
            slack = min(slack, base + min(next(path), next(path), next(path)) - lhs)
        want.append((t1, t2, x1, x2, slack))
    rep = harnack_check(traj, mu, lam, pairs)
    assert rep.records == want
    k = min(range(len(want)), key=lambda i: want[i][-1])
    assert (rep.min_slack, rep.argmin) == (want[k][-1], dict(zip(("t1", "t2", "x1", "x2"), pairs[k])))


@pytest.mark.parametrize("spec", ["path:16", "complete:5", "weighted:12", "csr-duplicate"])
def test_path_minima_equal_the_least_enumerated_path_of_each_length(spec):
    # per edge count, not only the least of the three counts a pair takes:
    # on a bipartite graph no simple path has distance + 1 or + 2 edges
    from pmelab.estimates import _path_minima

    g = _reference_graph(spec)
    rng = np.random.default_rng(5)
    rows = []
    for _ in range(30):
        t1, t2 = np.sort(rng.uniform(0.1, 3.0, 2))
        x1, x2 = rng.choice(g.vertices, 2, replace=False)
        i1, i2, dist = g.index(x1), g.index(x2), graph_distance(g, x1, x2)
        rows += [(float(t1), float(t2), i1, i2, dist + k) for k in range(3)]
    got = _path_minima(g, 1.5, 0.25, *(np.array(c) for c in zip(*rows)))
    for r, (t1, t2, i1, i2, n_edges) in enumerate(rows):
        want = min(
            (harnack_rhs_path(g, 2.0, 1.5, 0.25, t1, t2, [g.vertices[i] for i in p])
             for p in _simple_paths(g, i1, i2, n_edges) if len(p) == n_edges + 1),
            default=math.inf,
        )
        assert got[r] == want, (spec, rows[r])


def test_harnack_check_admits_pair_times_an_ulp_past_a_late_window():
    t_end = 1000000.0000001
    traj = integrate(square_graph(), 2.0, [1.0, 0.5, 0.7, 1.2], np.linspace(1e6, t_end, 5))
    rep = harnack_check(traj, 1.0, 0.0, [(1e6, float(np.nextafter(t_end, math.inf)), "x", "z")])
    assert rep.points_checked == 1
    with pytest.raises(ValidationError):
        harnack_check(traj, 1.0, 0.0, [(1e6, t_end + 8 * math.ulp(t_end), "x", "z")])


def test_harnack_check_needs_connected_pairs():
    g = build_graph([("a", "b", 1.0), ("c", "d", 1.0)], symmetrize=True)
    traj = integrate(g, 2.0, [1.0, 0.5, 0.7, 1.2], np.linspace(0.1, 1.0, 5))
    with pytest.raises(NoPathError) as want:
        graph_distance(g, "b", "c")
    with pytest.raises(NoPathError) as got:
        harnack_check(traj, 1.0, 0.0, [(0.2, 0.8, "a", "b"), (0.2, 0.8, "b", "c")])
    assert str(got.value) == str(want.value)


# a line of good pairs and the two components a-b-c and d-e, from t = 0.1 to 2
_GOOD_PAIRS = [(0.2, 0.8, "a", "c"), (0.3, 1.5, "b", "b"), (0.5, 1.9, "c", "a"), (0.1, 2.0, "d", "e")]


@pytest.mark.parametrize(
    "bad,error,message",
    [
        ((0.8, 0.2, "a", "c"), ValidationError, "need 0 < t1 < t2"),
        ((0.8, 0.8, "a", "c"), ValidationError, "need 0 < t1 < t2"),
        ((1.0, 1e300, "a", "c"), DomainError, "t2**(mu + 1) = 1e+300**1.5 overflows a float"),
        ((1.0, 1e180, "a", "c"), DomainError, "(t2 - t1)**2 = 1e+180**2 overflows a float"),
        ((0.05, 1.0, "a", "c"), ValidationError, "pair times outside the trajectory range"),
        ((0.5, 2.5, "a", "c"), ValidationError, "pair times outside the trajectory range"),
        ((0.2, 0.8, "q", "c"), ValidationError, "unknown vertex 'q'"),
        ((0.2, 0.8, "a", "q"), ValidationError, "unknown vertex 'q'"),
        ((0.2, 0.8, "b", "d"), NoPathError, "no path between 'b' and 'd'"),
    ],
)
@pytest.mark.parametrize("where", [0, 2, 4])
def test_harnack_check_refuses_one_bad_pair_wherever_it_stands(bad, error, message, where):
    g = build_graph([("a", "b", 1.0), ("b", "c", 2.0), ("d", "e", 1.0)], symmetrize=True)
    traj = integrate(g, 2.0, [1.0, 0.5, 0.7, 1.2, 0.9], np.linspace(0.1, 2.0, 5))
    pairs = _GOOD_PAIRS[:where] + [bad] + _GOOD_PAIRS[where:]
    assert harnack_check(traj, 0.5, 0.0, _GOOD_PAIRS).points_checked == 4
    with pytest.raises(error) as got:
        harnack_check(traj, 0.5, 0.0, pairs)
    assert type(got.value) is error and str(got.value) == message


def test_harnack_check_searches_once_per_source_vertex(monkeypatch):
    import pmelab.estimates as estimates

    sources = []
    search = estimates._hop_distances
    monkeypatch.setattr(estimates, "_hop_distances", lambda g, i: sources.append(i) or search(g, i))
    g = resolve_graph("zwindow:10")
    rng = np.random.default_rng(2)
    traj = integrate(g, 2.0, rng.uniform(0.5, 1.5, g.n), np.linspace(0.1, 2.0, 5))
    pairs = [(0.2, 1.5, g.vertices[i], g.vertices[j]) for i, j in rng.integers(4, size=(40, 2))]
    harnack_check(traj, 1.0, 0.0, pairs)
    assert sorted(sources) == sorted({g.index(x1) for _, _, x1, _ in pairs})


def test_harnack_check_at_reported_times_needs_no_dense_data(tmp_path):
    g = resolve_graph("path:16")
    rng = np.random.default_rng(4)
    traj = integrate(g, 2.0, rng.uniform(0.5, 1.5, g.n), np.linspace(0.1, 3.0, 30))
    write_trajectory_csv(traj, tmp_path / "traj.csv")
    plain = read_trajectory_csv(tmp_path / "traj.csv", g, 2.0)
    assert plain.dense is None
    pairs = []
    for _ in range(40):
        t1, t2 = np.sort(rng.choice(traj.times, 2, replace=False))
        x1, x2 = (g.vertices[int(i)] for i in rng.integers(g.n, size=2))
        pairs.append((float(t1), float(t2), x1, x2))
    for mu, lam in ((1.5, 0.0), (0.7, 0.25)):
        assert harnack_check(plain, mu, lam, pairs).records == harnack_check(traj, mu, lam, pairs).records
    with pytest.raises(DomainError):
        harnack_check(plain, 1.5, 0.0, [(0.15, 2.0, "1", "2")])


def test_path_minima_blocks_give_the_records_of_one_block(monkeypatch):
    import pmelab.estimates as estimates

    calls = []
    walks = estimates._least_walks
    monkeypatch.setattr(estimates, "_least_walks", lambda *args: calls.append(len(args[2])) or walks(*args))
    g = _reference_graph("weighted:12")
    rng = np.random.default_rng(6)
    traj = integrate(g, 2.0, rng.uniform(0.5, 1.5, g.n), np.linspace(0.1, 3.0, 10))
    pairs = [(0.1, 3.0, g.vertices[i], g.vertices[j]) for i, j in rng.integers(g.n, size=(30, 2))]
    want = harnack_check(traj, 1.5, 0.25, pairs).records
    assert len(calls) == 1  # a small graph is one block
    monkeypatch.setattr(estimates, "_PATH_BLOCK_VALUES", 3 * len(g.rows))
    assert harnack_check(traj, 1.5, 0.25, pairs).records == want
    assert max(calls[1:]) <= 4 and sum(calls[1:]) == calls[0]


# -- scalar lemmas ---------------------------------------------------------


@pytest.mark.parametrize(
    "m,lo,hi",
    [(1.5, 1.0, 10.0), (2.0, 1e-4, 10.0), (3.0, 1e-4, 1.0)],
)
def test_quadratic_minorant_holds_on_its_regime(m, lo, hi):
    grid = np.linspace(lo, hi, 1000)
    assert quadratic_minorant_check(m, grid) >= -1e-12


def test_quadratic_minorant_regime_validation():
    with pytest.raises(ValidationError):
        quadratic_minorant_check(3.0, np.array([2.0]))
    with pytest.raises(ValidationError):
        quadratic_minorant_check(1.5, np.array([0.5]))
    with pytest.raises(ValidationError):
        quadratic_minorant_check(2.0, np.array([-1.0]))
    with pytest.raises(ValidationError, match="grid must be a nonempty 1-d array"):
        quadratic_minorant_check(2.0, np.array([]))


def test_minorant_ratio_approaches_one_half_at_the_fixed_point():
    for m in (1.2, 1.5, 2.0, 3.0, 5.0):
        assert minorant_ratio(m, 1.0 - 1e-4) == pytest.approx(0.5, abs=1e-3)
        assert minorant_ratio(m, 1.0 + 1e-4) == pytest.approx(0.5, abs=1e-3)
    assert minorant_ratio(2.0, 1.0 - 1e-4) == 0.5
    assert minorant_ratio(2.0, 1.0 + 1e-4) == 0.5
    for m in (1.2, 2.0, 5.0):
        assert minorant_ratio(m, 1.0) == 0.5  # the limit, taken at x = 1 itself


@pytest.mark.parametrize("m", [1.01, 1.2, 1.5, 2.0, 3.0, 5.0, 50.0])
def test_minorant_ratio_matches_a_60_digit_reference(m, remainder_reference):
    # the 10-term series and the power form erred by up to 3.6e-11 at m = 50
    for x in (1.0 - 1e-6, 1.0 + 1e-6, 1.0 - 1e-4, 1.0 + 1e-4, 1.0 - 2e-2, 1.0 + 2e-2, 1e-3, 50.0):
        s = Decimal(x) - 1
        want = remainder_reference(m, Decimal(x)) / s / s
        assert abs(Decimal(minorant_ratio(m, x)) / want - 1) <= 1e-13, x


def test_minorant_checks_refuse_non_finite_input_and_do_not_overflow():
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="positive and finite"):
            minorant_ratio(2.0, bad)
        with pytest.raises(ValidationError, match="finite"):
            quadratic_minorant_check(1.5, [1.0, bad])
    # s**2 overflowed here; the remainder is (4/3) x^(3/2) to 16 digits
    assert minorant_ratio(3.0, 1e200) == pytest.approx(4.0 / 3.0 / math.sqrt(1e200), rel=1e-12)
    # (1/6) x^3 overflows, and so does the ratio; its slack is +inf, not NaN
    assert minorant_ratio(1.5, 1e200) == math.inf
    assert quadratic_minorant_check(1.5, [1e200]) == math.inf
    assert quadratic_minorant_check(1.5, [1.0, 1e200]) == 0.0


def test_integral_min_inequality_on_constant_and_cubic_profiles():
    ts = np.linspace(0.5, 3.0, 2001)
    assert integral_min_inequality_check(0.5, 3.0, 2.0, 0.7, ts, np.ones_like(ts))
    assert integral_min_inequality_check(0.5, 3.0, 0.8, 0.4, ts, 1.0 + 0.3 * (ts - 1.0) ** 3)


def test_integral_min_inequality_on_seeded_random_cubics():
    rng = np.random.default_rng(5)
    ts = np.linspace(0.5, 3.0, 2001)
    for _ in range(50):
        coeffs = rng.uniform(-5.0, 5.0, 4)
        psi = np.polyval(coeffs, ts)
        assert integral_min_inequality_check(0.5, 3.0, 1.5, 1.0, ts, psi)


@pytest.mark.parametrize("nu", [0.5, 1.0, 1.7])
def test_integral_min_sides_of_a_constant_profile_have_closed_forms(nu):
    # at psi = 1 both minima are 1 - (1/c) * integral of tau^(-nu) over [t1, t2],
    # the tail one at s = t1 and the head one at s = t2
    t1, t2, c = 0.5, 3.0, 0.8
    ts = np.linspace(t1, t2, 20001)
    integral = math.log(t2 / t1) if nu == 1.0 else (t2 ** (1.0 - nu) - t1 ** (1.0 - nu)) / (1.0 - nu)
    lhs_tail, lhs_head, rhs = estimates._integral_min_sides(t1, t2, c, nu, ts, np.ones_like(ts))
    assert lhs_tail == pytest.approx(1.0 - integral / c, abs=1e-7)
    assert lhs_head == pytest.approx(1.0 - integral / c, abs=1e-7)
    # the bound is c times the integral of tau^nu over [t1, t2], over the span squared
    bound = c * (t2 + t1) / (2.0 * (t2 - t1)) if nu == 1.0 else c * np.trapezoid(ts**nu, ts) / (t2 - t1) ** 2
    assert rhs == pytest.approx(bound, rel=1e-8)


def _near_extremal_profile(t1, t2, c, nu, gap):
    """A grid, a ``psi`` on it, its tail integrals and the bound, for a check ``gap`` (relative) from equality.

    ``psi`` is solved node by node from ``t2`` down (the smaller root of
    each node's quadratic) so that every tail value ``psi_i - T_i / c``,
    with ``T_i`` the trapezoid integral of ``tau^(-nu) psi^2`` from
    ``ts[i]`` to ``t2``, is ``(1 - gap)`` times the bound; the last node,
    whose tail integral is 0, holds ``(1 + gap)`` times the bound.  The grid
    is geometric towards ``t1``, where ``psi`` grows steeply, and ends with
    one step of a twentieth of the span, so every ``T_i / c`` is at least 0.04.
    """
    span = t2 - t1
    bound = c / (nu + 1.0) * (t2 ** (nu + 1.0) - t1 ** (nu + 1.0)) / span**2
    ts = np.append(t1 + 0.95 * span * (np.geomspace(1e-5, 1.0, 999) - 1e-5) / (1.0 - 1e-5), t2)
    psi, tails = np.empty_like(ts), np.zeros_like(ts)
    psi[-1] = (1.0 + gap) * bound
    for i in range(len(ts) - 2, -1, -1):
        step = ts[i + 1] - ts[i]
        a = step * ts[i] ** -nu / (2.0 * c)
        r = (1.0 - gap) * bound + (step * ts[i + 1] ** -nu * psi[i + 1] ** 2 / 2.0 + tails[i + 1]) / c
        psi[i] = 2.0 * r / (1.0 + math.sqrt(1.0 - 4.0 * a * r))
        tails[i] = tails[i + 1] + step * (ts[i] ** -nu * psi[i] ** 2 + ts[i + 1] ** -nu * psi[i + 1] ** 2) / 2.0
    return ts, psi, tails, bound


def test_integral_min_inequality_holds_within_a_hair_of_equality():
    # the lemma is nearly sharp at small nu: its bound exceeds the supremum
    # c / integral(tau^(-nu)) of the tail minimum by 1.6e-5 of itself here
    t1, t2, c, nu, gap = 1.0, 2.0, 0.8, 0.02, 2e-4
    ts, psi, tails, bound = _near_extremal_profile(t1, t2, c, nu, gap)
    assert integral_min_inequality_check(t1, t2, c, nu, ts, psi)
    lhs_tail, lhs_head, rhs = estimates._integral_min_sides(t1, t2, c, nu, ts, psi)
    assert rhs == bound and lhs_head < 0.0
    assert rhs - lhs_tail == pytest.approx(gap * bound, rel=1e-6)
    # 1% of each term (psi_i and T_i / c at every node, and the bound) is
    # more than twice the gap, and the last node, which has no integral,
    # lies above the bound: raising every psi_i by 1%, lowering every
    # T_i / c by 1% or lowering the bound by 1% flips the verdict
    assert 0.01 * min(psi.min(), tails[:-1].min() / c, rhs) > 2.0 * (rhs - lhs_tail)
    assert psi[-1] - rhs > 1e-6


def test_integral_min_inequality_refuses_non_finite_input():
    # these were verdicts on invalid input: c = inf gave True, t2 = inf and a NaN in psi False
    ts = np.linspace(0.5, 3.0, 2001)
    psi = np.ones_like(ts)
    inf, nan = math.inf, math.nan
    for t1, t2, c, nu in ((0.5, inf, 2.0, 0.7), (0.5, 3.0, inf, 0.7), (0.5, 3.0, 2.0, inf), (nan, 3.0, 2.0, 0.7)):
        with pytest.raises(ValidationError):
            integral_min_inequality_check(t1, t2, c, nu, ts, psi)
    bad_psi = psi.copy()
    bad_psi[7] = math.nan
    bad_ts = ts.copy()
    bad_ts[7] = math.inf
    for grid, values in ((ts, bad_psi), (bad_ts, psi)):
        with pytest.raises(ValidationError, match="finite"):
            integral_min_inequality_check(0.5, 3.0, 2.0, 0.7, grid, values)
    for grid, message in (
        (ts[::30], "grid too coarse; need at least 100 points"),
        (ts[::-1], "ts must be strictly increasing"),
        (np.linspace(0.5, 2.9, 2001), r"grid must span \[t1, t2\]"),
    ):
        with pytest.raises(ValidationError, match=message):
            integral_min_inequality_check(0.5, 3.0, 2.0, 0.7, grid, np.ones_like(grid))


# -- report plumbing -------------------------------------------------------


def test_slack_csv_headers(tmp_path):
    rep = ab_check(square_run(), 0.0, 4.0 / 3.0)
    path = tmp_path / "slack.csv"
    rep.write_slack_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x,slack"
    traj = square_run(t0=0.2, t1=2.0)
    hrep = harnack_check(traj, 1.0, 0.0, [(0.3, 1.5, "x", "z")])
    hrep.write_slack_csv(path)
    assert path.read_text().splitlines()[0] == "t1,t2,x1,x2,slack"


def test_report_passed_reflects_tolerance():
    rep = ab_check(square_run(), 0.0, 4.0 / 3.0, tol=1e-8)
    assert rep.passed == (rep.min_slack >= -rep.tolerance)
    assert rep.to_json_dict()["passed"] is rep.passed
