"""Time-scaled regularity estimates, Harnack bounds and scalar lemmas."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmelab import (
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
    renyi_entropy,
    resolve_graph,
    square_graph,
)
from pmelab.errors import DomainError, LambdaOneError, NoPathError, ValidationError


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
    got = _path_minima(g, 1.5, 0.25, rows)
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
    with pytest.raises(NoPathError):
        harnack_check(traj, 1.0, 0.0, [(0.2, 0.8, "a", "c")])


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


def test_minorant_ratio_approaches_one_half_at_the_fixed_point():
    for m in (1.2, 1.5, 2.0, 3.0, 5.0):
        assert minorant_ratio(m, 1.0 - 1e-4) == pytest.approx(0.5, abs=1e-3)
        assert minorant_ratio(m, 1.0 + 1e-4) == pytest.approx(0.5, abs=1e-3)
    assert minorant_ratio(2.0, 1.0 - 1e-4) == 0.5
    assert minorant_ratio(2.0, 1.0 + 1e-4) == 0.5


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
