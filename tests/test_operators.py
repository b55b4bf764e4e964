"""Pointwise operators: Laplacian, convex remainders, pressure, curvature forms."""

import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pmelab import (
    as_field,
    carre_du_champ,
    complete_graph,
    curvature_form,
    curvature_form_mixed,
    difference_sum,
    exp_remainder,
    exp_remainder_m,
    gradient_energy,
    gradient_energy_field,
    integrate,
    laplacian,
    laplacian_field,
    mixed_laplacian,
    mixed_laplacian_field,
    path_graph,
    pressure,
    pressure_inverse,
    resolve_graph,
    square_graph,
    two_hop_ball,
)
from pmelab.cd import _BallKernel, _BallProblem
from pmelab.errors import DomainError, ValidationError
from pmelab.graphs import Graph, build_graph
from pmelab import operators, solver
from pmelab.operators import (
    _curvature_form,
    _dtv,
    _edge_remainder,
    _flow,
    _gradient_energy,
    _mixed_laplacian,
    _pow,
    _pressure,
    check_exponent,
    check_mixing,
)

EXPONENTS = st.floats(min_value=1.05, max_value=5.0, allow_nan=False)
POSITIVE = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


def positive_field(n):
    return st.lists(POSITIVE, min_size=n, max_size=n).map(np.array)


# -- validation ------------------------------------------------------------


def test_exponent_must_exceed_one():
    assert check_exponent(2) == 2.0
    for bad in (1.0, 0.5, -3.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            check_exponent(bad)


def test_an_exponent_whose_square_overflows_is_refused():
    # (m - 1)**2 is a float up to m - 1 = sqrt(max float), about 1.34e154
    g = square_graph()
    assert check_exponent(1e150) == 1e150
    assert gradient_energy_field(g, 1e150, 1.0).tolist() == [0.0] * g.n
    for fn in (check_exponent, lambda m: gradient_energy_field(g, m, 1.0), lambda m: exp_remainder_m(m, 0.1)):
        with pytest.raises(DomainError, match="exponent too large"):
            fn(1.35e154)


def test_mixing_parameter_lives_in_unit_interval():
    assert check_mixing(0) == 0.0
    assert check_mixing(1) == 1.0
    for bad in (-0.1, 1.1, math.nan):
        with pytest.raises(DomainError):
            check_mixing(bad)


# -- Laplacian -------------------------------------------------------------


def test_laplacian_on_a_path_interior_vertex():
    g = path_graph(3)
    assert laplacian(g, [1.0, 0.0, 1.0], "2") == 2.0
    assert laplacian(g, [1.0, 0.0, 1.0], "1") == -1.0


def test_laplacian_of_constants_vanishes():
    g = complete_graph(4)
    assert laplacian(g, np.full(4, 3.7), "x1") == 0.0


def test_laplacian_field_matches_pointwise():
    # the pointwise Laplacian is one entry of the batched one, bit for bit
    rng = np.random.default_rng(7)
    for spec in ("square", "complete:5", "path:16", "zwindow:3", "complete:30"):
        g = resolve_graph(spec)
        for _ in range(50):
            f = rng.normal(size=g.n)
            field = laplacian_field(g, f)
            assert [laplacian(g, f, x) for x in g.vertices] == field.tolist(), spec


def test_carre_du_champ_two_point_oracle():
    g = complete_graph(2)
    assert carre_du_champ(g, [0.0, 2.0], "x1") == 2.0


@given(st.integers(min_value=0, max_value=50))
@settings(max_examples=100, deadline=None)
def test_carre_du_champ_identity_with_laplacian(seed):
    rng = np.random.default_rng(seed)
    g = square_graph()
    f = rng.normal(size=g.n)
    for x in g.vertices:
        direct = carre_du_champ(g, f, x)
        via_lap = 0.5 * (laplacian(g, f * f, x) - 2.0 * f[g.index(x)] * laplacian(g, f, x))
        assert direct == pytest.approx(via_lap, rel=1e-12, abs=1e-12)


def test_difference_sum_with_identity_map_is_the_laplacian():
    g = path_graph(4)
    f = np.array([0.5, 2.0, 1.0, 3.0])
    for x in g.vertices:
        assert difference_sum(g, lambda t: t, f, x) == pytest.approx(
            laplacian(g, f, x), rel=1e-14
        )


# -- convex remainders -----------------------------------------------------


def test_exp_remainder_exact_values():
    assert exp_remainder(0.0) == 0.0
    assert exp_remainder(math.log(2.0)) == pytest.approx(1.0 - math.log(2.0), rel=1e-15)
    assert exp_remainder(-1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)


@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
@settings(max_examples=300)
def test_exp_remainder_is_nonnegative_and_zero_only_at_zero(r):
    value = exp_remainder(r)
    assert value >= 0.0
    if abs(r) > 1e-7:
        assert value > 0.0


def test_exp_remainder_m_cubic_exponent_oracle():
    # ((m-1)^2/m) e^{qr} - (m-1) e^r + (m-1)/m at m = 3, r = 1, q = 3/2
    expected = (4.0 / 3.0) * math.exp(1.5) - 2.0 * math.e + 2.0 / 3.0
    assert exp_remainder_m(3.0, 1.0) == pytest.approx(expected, rel=1e-14)
    assert expected == pytest.approx(1.2056884368659957, rel=1e-15)


@given(
    st.floats(min_value=1e-3, max_value=30.0, allow_nan=False),
    st.sampled_from([-1.0, 1.0]),
)
@settings(max_examples=300)
def test_exp_remainder_m_collapses_at_m_two(size, sign):
    # arguments are kept away from 0, where the combination of remainders
    # cancels and the relative error necessarily grows like eps / r^2
    r = sign * size
    direct = exp_remainder_m(2.0, r)
    expected = 0.5 * math.expm1(r) ** 2
    assert direct == pytest.approx(expected, rel=1e-12)


@given(EXPONENTS, st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
@example(m=3.0, r=2.354113080235234e-162)
@settings(max_examples=300)
def test_exp_remainder_m_is_nonnegative(m, r):
    assert exp_remainder_m(m, r) >= 0.0


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0, 5.0, 50.0])
def test_exp_remainder_m_is_nonnegative_where_its_terms_are_subnormal(m):
    # both terms are about r^2/2 here, and their difference once rounded to
    # a negative subnormal; the series form keeps the sign
    grid = np.geomspace(1e-170, 1e-150, 20001)
    assert exp_remainder_m(m, np.concatenate((grid, -grid))).min() >= 0.0


def test_exp_remainder_keeps_full_precision_near_zero():
    # expm1(r) - r loses every digit here and gave exp_remainder_m(1.75, r) < 0
    for r in (1e-8, -1e-8, 1.6193185461573287e-16, -3e-100):
        assert exp_remainder(r) == pytest.approx(0.5 * r * r * (1.0 + r / 3.0), rel=1e-15)
    assert exp_remainder(0.4) == pytest.approx(math.expm1(0.4) - 0.4, rel=1e-14)
    assert exp_remainder_m(1.75, 1.6193185461573287e-16) == pytest.approx(0.5 * 1.6193185461573287e-16**2, rel=1e-14)


def test_exp_remainder_of_huge_arguments_warns_of_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert list(exp_remainder(np.array([1e21, -1e21, 1e300]))) == [math.inf, 1e21, math.inf]


def test_exp_remainder_m_overflow_returns_infinity():
    assert exp_remainder_m(1.001, 50.0) == math.inf


def _relative_error(got, want):
    """Relative error of a float against a ``Decimal``; beyond float range only ``+inf`` is exact."""
    if want > Decimal(np.finfo(float).max):
        return 0.0 if got == math.inf else math.inf
    return float(abs(Decimal(float(got)) - want) / want)


@pytest.mark.parametrize("m", [1.001, 1.01, 1.25, 1.5, 2.0, 3.0, 5.0, 50.0])
def test_exp_remainder_m_matches_a_60_digit_reference(m, remainder_reference):
    # the difference of two exp_remainder terms gave 0.0, 0.21875 or 0.5 for
    # r <= -1e15, inf at r = -inf and NaN at r = +inf; at m = 1.001 the value
    # stays finite a little beyond where e^(m r/(m-1)) overflows.  r = -inf and
    # +inf are s = -1 and +inf, where log1p and inf - inf warn unless silenced
    size = np.geomspace(1e-12, 30.0, 400)
    r = np.concatenate([size, -size, -np.geomspace(30.0, 1e20, 60), [0.709, 0.71, 0.72]])
    errors = [
        _relative_error(value, remainder_reference(m, Decimal(x).exp()))
        for x, value in zip(r.tolist(), exp_remainder_m(m, r).tolist())
    ]
    assert max(errors) <= 1e-13
    assert exp_remainder_m(m, -math.inf) == (m - 1.0) / m
    assert exp_remainder_m(m, math.inf) == math.inf


@pytest.mark.parametrize("m", [1.01, 1.25, 1.45, 3.0, 50.0])
def test_edge_remainder_outside_the_series_region_is_the_closed_form_bit_for_bit(m):
    # a call with no entry in |s| < 1/(2q) runs no series step, and gives the closed form's bits
    q, c2 = m / (m - 1.0), (m - 1.0) ** 2 / m
    tau = 0.5 / q
    rng = np.random.default_rng(int(100 * m))
    s = np.concatenate([[-1.0, -tau, tau, 1e300, math.inf], -rng.uniform(tau, 1.0, 17), np.exp(rng.uniform(math.log(tau), 60.0, 18))])
    assert not (np.abs(s) < tau).any()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        qL = q * np.log1p(s)
        lead = np.where(qL < 700.0, c2 * np.expm1(qL), np.exp(qL + math.log(c2)))
        want = np.select([s == -1.0, s == math.inf], [(m - 1.0) / m, math.inf], lead - (m - 1.0) * s)
    assert _edge_remainder(m, s).tobytes() == want.tobytes()


# -- pressure --------------------------------------------------------------


def test_pressure_oracle_value():
    assert pressure(1.5, 4.0) == pytest.approx(6.0, rel=1e-15)
    assert pressure(2.0, np.array([1.0, 0.5]))[1] == 1.0


@given(EXPONENTS, POSITIVE)
@settings(max_examples=300)
def test_pressure_round_trip(m, u):
    v = pressure(m, u)
    assert v > 0.0
    assert pressure_inverse(m, v) == pytest.approx(u, rel=1e-10)


def test_pressure_of_zero_is_zero():
    assert pressure(2.0, 0.0) == 0.0
    assert pressure_inverse(3.0, 0.0) == 0.0


@pytest.mark.parametrize("fn", [pressure, pressure_inverse])
def test_pressure_rejects_negative_values_and_passes_nan(fn):
    # the test is np.any(u < 0.0): NaN is not negative, an empty field has none
    for bad in (-1e-300, [0.5, -0.0, -2.0], [math.nan, -1.0]):
        with pytest.raises(DomainError, match="must be nonnegative"):
            fn(2.0, bad)
    assert math.isnan(fn(2.0, math.nan))
    assert fn(2.0, np.zeros(0)).shape == (0,)
    assert fn(2.0, -0.0) == 0.0
    with pytest.raises(DomainError, match="m > 1"):
        fn(math.nan, 1.0)


# -- gradient energy -------------------------------------------------------


def test_gradient_energy_collapses_to_carre_du_champ_at_m_two():
    g = square_graph()
    rng = np.random.default_rng(11)
    w = rng.uniform(0.2, 3.0, g.n)
    for x in g.vertices:
        assert gradient_energy(g, 2.0, w, x) == pytest.approx(
            carre_du_champ(g, w, x), rel=1e-12
        )


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=150, deadline=None)
def test_gradient_energy_log_and_sum_forms_agree(seed):
    rng = np.random.default_rng(seed)
    m = float(rng.uniform(1.05, 5.0))
    g = square_graph()
    w = rng.uniform(0.05, 5.0, g.n)
    lw = np.log(w)
    for x in g.vertices:
        i = g.index(x)
        log_form = w[i] ** 2 * sum(
            g.kernel(x, y) * exp_remainder_m(m, lw[g.index(y)] - lw[i]) for y in g.neighbors(x)
        )
        assert gradient_energy(g, m, w, x) == pytest.approx(log_form, rel=1e-9)


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=150, deadline=None)
def test_gradient_energy_is_quadratically_homogeneous(seed):
    rng = np.random.default_rng(seed)
    m = float(rng.uniform(1.05, 5.0))
    c = float(rng.uniform(0.1, 10.0))
    g = square_graph()
    w = rng.uniform(0.05, 5.0, g.n)
    for x in g.vertices:
        assert gradient_energy(g, m, c * w, x) == pytest.approx(
            c * c * gradient_energy(g, m, w, x), rel=1e-9
        )


def test_gradient_energy_field_matches_pointwise():
    g = path_graph(5)
    rng = np.random.default_rng(4)
    for m in (1.2, 1.7, 2.0, 3.5):
        w = rng.uniform(0.1, 4.0, g.n)
        field = gradient_energy_field(g, m, w)
        for x in g.vertices:
            assert field[g.index(x)] == pytest.approx(gradient_energy(g, m, w, x), rel=1e-12)


def test_gradient_energy_handles_zero_values_for_large_m():
    g = path_graph(3)
    w = np.array([0.0, 1.0, 2.0])
    # only the finite-limit branch contributes at zeros when m >= 2
    value = gradient_energy(g, 2.0, w, "2")
    assert value == pytest.approx(carre_du_champ(g, w, "2"), rel=1e-12)
    assert np.isfinite(gradient_energy(g, 3.0, w, "2"))


def test_gradient_energy_is_continuous_across_the_form_switch():
    g = square_graph()
    rng = np.random.default_rng(9)
    w = rng.uniform(0.2, 3.0, g.n)
    below = gradient_energy_field(g, 1.5 - 1e-9, w)
    above = gradient_energy_field(g, 1.5 + 1e-9, w)
    np.testing.assert_allclose(below, above, rtol=1e-6)


def test_gradient_energy_near_one_stays_finite_on_pressure_fields():
    # pressures of a fixed density have vanishing log spread as m drops to
    # 1, which is the regime the small-exponent branch is built for
    g = square_graph()
    u = np.array([0.1, 2.0, 3.0, 0.4])
    for m in (1.01, 1.001):
        field = gradient_energy_field(g, m, pressure(m, u))
        assert np.all(np.isfinite(field))
        assert np.all(field >= 0.0)


def _gradient_energy_reference(g, m, w, remainder_reference):
    """``w(x)^2 sum_y k(x,y) R_m(w(y)/w(x))`` over ``g``'s stored entries, at 60 digits."""
    out = [Decimal(0)] * len(w)
    for x, y, k in zip(g.rows.tolist(), g.indices.tolist(), g.data.tolist()):
        out[x] += Decimal(k) * remainder_reference(m, Decimal(w[y]) / Decimal(w[x]))
    return [Decimal(wx) ** 2 * value for wx, value in zip(w.tolist(), out)]


@pytest.mark.parametrize("spec", ["complete:5", "path:6", "ball:path:8"])
@pytest.mark.parametrize("m", [1.01, 1.1, 1.25, 1.45])
def test_gradient_energy_below_one_and_a_half_matches_a_60_digit_reference(spec, m, remainder_reference):
    # the log route exp_remainder_m(log w(y) - log w(x)) erred by 3e-4 to 5e-2
    # on such near-constant fields: the rounding of log w over the log spread
    g = resolve_graph(spec.removeprefix("ball:"))
    rng = np.random.default_rng(int(100 * m) + len(spec))
    eps = np.repeat([1e-1, 1e-4, 1e-8, 1e-12], 5)[:, None]
    near = 3.0 * (1.0 + eps * rng.uniform(-1.0, 1.0, (20, g.n)))
    W = np.concatenate([near, rng.uniform(0.05, 5.0, (5, g.n))])
    if spec.startswith("ball:"):
        # the graph of the entries inside the two-hop ball of "4"
        idx = np.array([g.index(v) for v in two_hop_ball(g, "4")])
        dense = np.zeros((g.n, g.n))
        dense[g.rows, g.indices] = g.data
        g, W = Graph([g.vertices[i] for i in idx], dense[np.ix_(idx, idx)]), W[:, idx]
    psi = gradient_energy_field(g, m, W)
    assert np.all(psi >= 0.0)
    for w, row in zip(W, psi):
        want = _gradient_energy_reference(g, m, w, remainder_reference)
        assert max(map(_relative_error, row.tolist(), want)) <= 1e-13, w


def test_gradient_energy_near_one_saturates_on_wide_fields():
    # a ratio of 20 between neighbors at m = 1.001 puts the true value far
    # beyond float range, and the saturation contract reports +infinity
    g = square_graph()
    w = np.array([0.1, 2.0, 3.0, 0.4])
    field = gradient_energy_field(g, 1.001, w)
    assert field[g.index("x")] == math.inf
    assert np.all(field >= 0.0)


# -- curvature forms -------------------------------------------------------


def test_curvature_form_two_point_oracle():
    g = complete_graph(2)
    assert curvature_form(g, 2.0, [1.0, 0.5], "x1") == pytest.approx(3.0, rel=1e-14)


def test_curvature_form_mixed_two_point_oracle():
    g = complete_graph(2)
    assert curvature_form_mixed(g, 2.0, 1.0, [1.0, 0.5], "x1") == pytest.approx(
        1.6875, rel=1e-14
    )


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=200, deadline=None)
def test_curvature_form_mixed_reduces_to_plain_form_at_alpha_zero(seed):
    rng = np.random.default_rng(seed)
    m = float(rng.uniform(1.05, 5.0))
    g = square_graph()
    u = rng.uniform(0.05, 5.0, g.n)
    for x in g.vertices:
        assert curvature_form_mixed(g, m, 0.0, u, x) == pytest.approx(
            curvature_form(g, m, u, x), rel=1e-11, abs=1e-11
        )


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=200, deadline=None)
def test_curvature_form_scales_like_u_to_the_two_m_minus_two(seed):
    rng = np.random.default_rng(seed + 7000)
    m = float(rng.uniform(1.05, 4.0))
    alpha = float(rng.uniform(0.0, 1.0))
    c = float(rng.uniform(0.2, 5.0))
    g = square_graph()
    u = rng.uniform(0.05, 5.0, g.n)
    for x in g.vertices:
        scaled = curvature_form_mixed(g, m, alpha, c * u, x)
        base = curvature_form_mixed(g, m, alpha, u, x)
        assert scaled == pytest.approx(c ** (2.0 * m - 2.0) * base, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("spec", ["square", "complete:5", "path:6"])
@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_curvature_form_is_the_time_derivative_of_the_pressure_laplacian(spec, m):
    # At a step endpoint of the dense output its time derivative is the flow
    # L(u^m) itself, so a central difference of G there measures dG/dt
    # along the flow, up to h times the jump of the interpolant's curvature.
    # At alpha = 0, G is the pressure Laplacian Lv.
    g = resolve_graph(spec)
    traj = integrate(g, m, np.random.default_rng(1).uniform(0.5, 1.5, g.n), np.linspace(0.0, 0.5, 6))
    for t in traj.dense.ts[1:-1]:
        h = 1e-5 * t
        u = traj.dense(np.array([t]))[0]
        for alpha in CORE_MIXING:
            ahead, behind = (mixed_laplacian_field(g, m, alpha, w) for w in traj.dense(np.array([t + h, t - h])))
            want = (ahead - behind) / (2.0 * h)
            got = np.array([curvature_form_mixed(g, m, alpha, u, x) for x in g.vertices])
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want)), (t, alpha)


def test_curvature_form_allows_zero_neighbors_only_for_m_at_least_two():
    g = path_graph(3)
    u = np.array([0.0, 1.0, 2.0])
    assert np.isfinite(curvature_form(g, 2.0, u, "2"))
    with pytest.raises(DomainError):
        curvature_form(g, 1.5, u, "2")


def test_curvature_form_mixed_needs_positive_base_value():
    g = path_graph(3)
    with pytest.raises(DomainError):
        curvature_form_mixed(g, 2.0, 0.5, np.array([1.0, 0.0, 1.0]), "2")


# -- pressure identity and mixed Laplacian ---------------------------------


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=200, deadline=None)
def test_pressure_identity_links_laplacians_and_gradient_energy(seed):
    # m u(x)^{m-2} L(u^m)(x) = (m-1) v(x) Lv(x) + tilde-psi(v)(x), v the pressure
    rng = np.random.default_rng(seed + 500)
    m = float(rng.uniform(1.05, 5.0))
    g = square_graph()
    u = rng.uniform(0.05, 5.0, g.n)
    v = pressure(m, u)
    lv = laplacian_field(g, v)
    for x in g.vertices:
        i = g.index(x)
        lhs = m * u[i] ** (m - 2.0) * laplacian(g, u**m, x)
        rhs = (m - 1.0) * v[i] * lv[i] + gradient_energy(g, m, v, x)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=150, deadline=None)
def test_mixed_laplacian_formula(seed):
    rng = np.random.default_rng(seed + 900)
    m = float(rng.uniform(1.05, 5.0))
    alpha = float(rng.uniform(0.0, 1.0))
    g = square_graph()
    u = rng.uniform(0.05, 5.0, g.n)
    v = pressure(m, u)
    for x in g.vertices:
        i = g.index(x)
        expected = laplacian(g, v, x) + alpha * gradient_energy(g, m, v, x) / ((m - 1.0) * v[i])
        assert mixed_laplacian(g, m, alpha, u, x) == pytest.approx(expected, rel=1e-10)


def test_mixed_laplacian_field_at_alpha_zero_is_pressure_laplacian():
    g = path_graph(4)
    u = np.array([1.0, 2.0, 0.5, 1.5])
    np.testing.assert_allclose(
        mixed_laplacian_field(g, 2.0, 0.0, u),
        laplacian_field(g, pressure(2.0, u)),
        rtol=1e-14,
    )


def test_mixed_laplacian_field_zero_pressure_limit():
    g = path_graph(3)
    u = np.array([0.0, 1.0, 1.0])
    out = mixed_laplacian_field(g, 2.0, 1.0, u)
    # positive pressure next door pushes the correction to +infinity
    assert out[0] == math.inf
    assert np.all(np.isfinite(out[1:]))


def _mixed_laplacian_by_boolean_gathers(K, m, alpha, U):
    """``_mixed_laplacian`` as first written, its zero-density limit taken by boolean gathers and one scatter."""
    LV = K.laplacian(_pressure(m, U))
    LP = _flow(K, m, U)
    G = (1.0 - alpha) * LV + alpha * LP / U
    zero = U == 0.0
    if zero.any():
        G[zero] = np.where(LP[zero] > 0.0, np.inf, LV[zero])
    return G


@pytest.mark.parametrize("spec", ["zwindow:3", "square", "complete:5", "path:6", "complete:30"])
@pytest.mark.parametrize("m", [2.0, 3.0])
def test_the_zero_density_limit_equals_its_boolean_gather_form_bit_for_bit(spec, m):
    g = resolve_graph(spec)
    rng = np.random.default_rng(int(10 * m) + g.n)
    U = rng.random((300, g.n))
    # zeros with and without mass next door, negative zeros, and rows that are all zeros of either sign
    U[rng.random(U.shape) < 0.3] = 0.0
    U[rng.random(U.shape) < 0.1] = -0.0
    U[::25], U[1::25] = 0.0, -0.0
    kernels = [(g, U), (_BallKernel(g, np.arange(g.n)), np.asfortranarray(U))]  # the CD search's layout too
    for alpha in (0.25, 0.5, 1.0):
        for K, F in kernels:
            with np.errstate(divide="ignore", invalid="ignore"):
                got = _mixed_laplacian(K, m, alpha, F)
                want = _mixed_laplacian_by_boolean_gathers(K, m, alpha, F)
            assert got.tobytes() == want.tobytes()
            assert (got.flags.f_contiguous, got.flags.c_contiguous) == (want.flags.f_contiguous, want.flags.c_contiguous)
            # both branches of the limit are taken
            assert np.isinf(got[F == 0.0]).any() and np.isfinite(got[F == 0.0]).any()


def test_field_length_validation():
    g = path_graph(3)
    with pytest.raises(ValidationError):
        laplacian_field(g, np.ones(4))
    with pytest.raises(DomainError, match=r"field missing vertices \['3'\]"):
        as_field(g, {"1": 1.0, "2": 1.0})
    with pytest.raises(DomainError, match="field contains non-finite values"):
        gradient_energy_field(g, 2.0, [1.0, math.nan, 1.0])
    with pytest.raises(DomainError, match="field contains negative values"):
        gradient_energy_field(g, 2.0, [1.0, -1.0, 1.0])


# -- batched core against per-point references -----------------------------
#
# The references are assembled per vertex from the pointwise Laplacian and
# the kernel weights, independently of the core's kernel-sum evaluation
# order.  Sums that cancel are compared relative to the size of their terms.

CORE_GRAPHS = ("square", "complete:5", "path:6", "zwindow:3")
CORE_EXPONENTS = (1.25, 1.5, 2.0, 3.0)
CORE_MIXING = (0.0, 0.5, 1.0)
CORE_RTOL = 1e-13


def _core_fields(g, m, seed):
    """Positive fields, plus (for m >= 2) fields with zero coordinates away from vertex 0."""
    rng = np.random.default_rng(seed)
    U = rng.uniform(0.2, 3.0, (5, g.n))
    if m >= 2.0:
        U[3, 1] = 0.0
        U[4, 2:] = 0.0
    return U


def _ref_laplacian(g, f, x):
    """Pointwise Laplacian, and the size ``sum_y k(x,y) (|f(y)| + |f(x)|)`` of its terms."""
    i = g.index(x)
    return laplacian(g, f, x), sum(g.kernel(x, y) * (abs(f[g.index(y)]) + abs(f[i])) for y in g.neighbors(x))


def _ref_gradient_energy(g, m, w, x):
    """Per-edge sum of the definition, and the size of its terms."""
    i = g.index(x)
    p, q = (m - 2.0) / (m - 1.0), m / (m - 1.0)
    terms = [
        g.kernel(x, y) * np.array([(m - 1.0) / m * w[i] ** 2, (m - 1.0) ** 2 / m * w[i] ** p * w[g.index(y)] ** q, -(m - 1.0) * w[i] * w[g.index(y)]])
        for y in g.neighbors(x)
    ]
    return float(np.sum(terms)), float(np.sum(np.abs(terms)))


def _ref_dtv(g, m, u, x):
    i = g.index(x)
    lap, size = _ref_laplacian(g, u**m, x)
    return m * u[i] ** (m - 2.0) * lap, m * u[i] ** (m - 2.0) * size


def _ref_mixed_laplacian(g, m, alpha, u, x):
    v = pressure(m, u)
    i = g.index(x)
    lv, size = _ref_laplacian(g, v, x)
    if alpha == 0.0:
        return lv, size
    psi, psi_size = _ref_gradient_energy(g, m, v, x)
    if v[i] == 0.0:
        has_mass = any(v[g.index(y)] > 0.0 for y in g.neighbors(x))
        return (math.inf if has_mass else lv), size
    scale = alpha / ((m - 1.0) * v[i])
    return lv + scale * psi, size + scale * psi_size


def _ref_curvature(g, m, alpha, u, x):
    i = g.index(x)
    p = u**m
    lx, lx_size = _ref_laplacian(g, p, x)
    value = size = 0.0
    for y in g.neighbors(x):
        j = g.index(y)
        r = u[j] / u[i] if alpha else 0.0
        ly, ly_size = _ref_laplacian(g, p, y)
        lead = g.kernel(x, y) * (1.0 - alpha + alpha * r) * m * u[j] ** (m - 2.0)
        trail = g.kernel(x, y) * (m - alpha + alpha * r**m) * u[i] ** (m - 2.0)
        value += lead * ly - trail * lx
        size += lead * ly_size + trail * lx_size
    return value, size


def _close(got, want, size):
    if math.isinf(want):
        return got == want
    return abs(got - want) <= CORE_RTOL * max(abs(want), size)


@pytest.mark.parametrize("spec", CORE_GRAPHS)
@pytest.mark.parametrize("m", CORE_EXPONENTS)
def test_core_matches_pointwise_references_on_full_graphs(spec, m):
    g = resolve_graph(spec)
    U = _core_fields(g, m, seed=int(10 * m) + len(spec))
    V = pressure(m, U)
    psi = _gradient_energy(g, m, V)
    for row, w in enumerate(V):
        # a batch row is the 1-d evaluation of that row, bit for bit
        np.testing.assert_array_equal(gradient_energy_field(g, m, w), psi[row])
        for x in g.vertices:
            want, size = _ref_gradient_energy(g, m, w, x)
            assert _close(psi[row, g.index(x)], want, size), (x, psi[row, g.index(x)], want)
    # the graph itself, and the CD search's dense ball kernel over the whole graph
    for k in (g, _BallKernel(g, np.arange(g.n))):
        dtv = _dtv(k, m, U)
        with np.errstate(divide="ignore", invalid="ignore"):
            G = {a: _mixed_laplacian(k, m, a, U) for a in CORE_MIXING}
        for row, u in enumerate(U):
            for x in g.vertices:
                i = g.index(x)
                if u[i] > 0.0:
                    assert _close(dtv[row, i], *_ref_dtv(g, m, u, x))
                for a in CORE_MIXING:
                    want, size = _ref_mixed_laplacian(g, m, a, u, x)
                    assert _close(G[a][row, i], want, size), (x, a, G[a][row, i], want)
                    if u[i] > 0.0:
                        with np.errstate(divide="ignore", invalid="ignore"):
                            got = _curvature_form(k, m, a, U, i)[row]
                        want, size = _ref_curvature(g, m, a, u, x)
                        assert _close(got, want, size), (x, a, got, want)
                        assert _close(curvature_form_mixed(g, m, a, u, x), want, size)


KERNEL_MEMBERS = ("laplacian", "kernel_sum", "degree", "rows", "indices", "data")


class _LogsKernelReads:
    """Logs in ``reads`` every read of a kernel member."""

    __slots__ = ()

    def __getattribute__(self, name):
        if name in KERNEL_MEMBERS:
            object.__getattribute__(self, "reads").append(name)
        return object.__getattribute__(self, name)


class _OnlyTheInterface(_LogsKernelReads):
    """A kernel with nothing but a graph's six kernel members."""

    __slots__ = KERNEL_MEMBERS + ("reads",)

    def __init__(self, g):
        self.reads = []
        for name in KERNEL_MEMBERS:
            setattr(self, name, getattr(g, name))


class _LoggedGraph(_LogsKernelReads, Graph):
    pass


@pytest.mark.parametrize("spec", CORE_GRAPHS + ("complete:30",))
@pytest.mark.parametrize("m", CORE_EXPONENTS)
def test_core_reads_only_the_kernel_interface(spec, m):
    # The core gives the graph's bits from the six members alone, through
    # the same reads: a member the stub lacks raises, and a type branch
    # on the kernel reads different members on the two.  The flow, dv/dt,
    # G and the curvature form read the Laplacian and nothing else.
    g = resolve_graph(spec)
    U = _core_fields(g, m, seed=7)
    g.laplacian(U), g.kernel_sum(U)  # build the cached tables before the reads are logged
    logged = object.__new__(_LoggedGraph)
    logged.__dict__.update(vars(g), reads=[])
    stub = _OnlyTheInterface(g)
    laplacian_only = [lambda k, F=F: _flow(k, m, F) for F in (U, U[0], U[:1], U.reshape(1, 5, g.n))]
    laplacian_only += [lambda k, F=F: _dtv(k, m, F) for F in (U, U[0])]
    laplacian_only += [lambda k, a=a, F=F: _mixed_laplacian(k, m, a, F) for a in CORE_MIXING for F in (U, U[0])]
    for i in range(g.n):
        laplacian_only += [lambda k, a=a, i=i: _curvature_form(k, m, a, U, i) for a in CORE_MIXING]
    energies = [lambda k, F=F: _gradient_energy(k, m, pressure(m, F)) for F in (U, U[0], U.reshape(1, 5, g.n))]
    with np.errstate(divide="ignore", invalid="ignore"):
        for call in laplacian_only + energies:
            stub.reads.clear(), logged.reads.clear()
            _assert_same_bits(call(stub), call(g))
            _assert_same_bits(call(logged), call(g))
            assert stub.reads == logged.reads and stub.reads
            if call in laplacian_only:
                assert set(stub.reads) == {"laplacian"}, stub.reads
    # the CD search's dense ball kernel over the whole graph: the graph's
    # Laplacian of a batch, in the batch's layout
    ball = _BallKernel(g, np.arange(g.n))
    for F in (U, np.asfortranarray(U)):
        got = ball.laplacian(F)
        assert got.flags.f_contiguous == F.flags.f_contiguous
        np.testing.assert_allclose(got, g.laplacian(U), rtol=0.0, atol=1e-14 * 2.0 * g.degree.max() * np.abs(U).max())


@pytest.mark.parametrize("spec,x", [("square", "x"), ("complete:5", "x1"), ("path:6", "3"), ("zwindow:3", "0")])
@pytest.mark.parametrize("m", CORE_EXPONENTS)
@pytest.mark.parametrize("alpha", CORE_MIXING)
def test_core_matches_pointwise_references_on_two_hop_balls(spec, x, m, alpha):
    g = resolve_graph(spec)
    prob = _BallProblem(g, x, m, alpha)
    idx = [g.index(v) for v in prob.ball]
    full = _core_fields(g, m, seed=int(10 * m) + 3)
    full[:, g.index(x)] = 1.0
    U = full[:, idx]
    ok, score, base = prob.evaluate(U)
    with np.errstate(divide="ignore", invalid="ignore"):
        dform = _curvature_form(prob.kernel, m, alpha, U, prob.pos_x)
    for row, u in enumerate(full):
        want_g, size_g = _ref_mixed_laplacian(g, m, alpha, u, x)
        assert _close(-base[row], want_g, size_g), (row, -base[row], want_g)
        want_d, size_d = _ref_curvature(g, m, alpha, u, x)
        assert _close(dform[row], want_d, size_d), (row, dform[row], want_d)
        neighbors = [_ref_mixed_laplacian(g, m, alpha, u, y) for y in g.neighbors(x)]
        margin = min([-want_g] + [want - want_g for want, _ in neighbors])
        if abs(margin) > 1e-9:
            assert ok[row] == (margin > 0.0)
        if ok[row]:
            assert score[row] == dform[row] / base[row] ** 2


@pytest.mark.parametrize("m,alpha", [(1.25, 0.5), (1.5, 0.5), (3.0, 1.0)])
def test_pointwise_curvature_form_is_the_batched_row_bit_for_bit(m, alpha):
    # a 1-d field used to go through numpy's scalar power, which can differ
    # from the array power of the batch in the last bit; on this unit-weight
    # path the dense ball kernel over the whole graph gives the same bits
    g = path_graph(6)
    i = g.index("6")
    U = np.random.default_rng(0).uniform(0.1, 2.0, (2000, g.n))
    pointwise = np.array([curvature_form_mixed(g, m, alpha, u, "6") for u in U])
    for k in (g, _BallKernel(g, np.arange(g.n))):
        with np.errstate(divide="ignore", invalid="ignore"):
            batch = _curvature_form(k, m, alpha, U, i)
        np.testing.assert_array_equal(pointwise, batch)


# -- kernel sums against scipy ---------------------------------------------


def _kernel_cases():
    """``(graph, scipy kernel)`` pairs; the numpy sums must equal the scipy product."""
    sp = pytest.importorskip("scipy.sparse")
    specs = ("square", "complete:2", "complete:3", "complete:5", "complete:30", "path:2", "path:16")
    cases = [(g, g.kernel_matrix()) for g in map(resolve_graph, specs + ("zwindow:1", "zwindow:100"))]
    # asymmetric, and "c" has no out-edges
    g = build_graph([("a", "b", 0.1), ("b", "c", 3.0), ("a", "c", 1e9), ("b", "a", 2.5)])
    cases.append((g, g.kernel_matrix()))
    # unsorted column indices, and the entry (0, 2) stored three times: the
    # graph keeps one entry per pair, the three added in storage order
    raw = sp.csr_array(
        (np.array([0.1, 2.0, 0.2, 0.3, 0.7, 1.5]), np.array([2, 1, 2, 2, 0, 0]), np.array([0, 4, 5, 6])),
        shape=(3, 3),
    )
    g = Graph(["a", "b", "c"], raw)
    np.testing.assert_array_equal(g.data.view(np.int64), np.array([2.0, 0.1 + 0.2 + 0.3, 0.7, 1.5]).view(np.int64))
    assert 0.1 + 0.2 + 0.3 != 0.1 + (0.2 + 0.3)
    cases.append((g, g.kernel_matrix()))
    # a hub of 3000 leaves, and rows of many distinct entry counts
    for edges in (
        [("hub", f"l{i}", 1.0) for i in range(3000)],
        [(f"v{i}", f"v{j}", 1.0 + i + 0.1 * j) for i in range(40) for j in range(i)],
    ):
        g = build_graph(edges, symmetrize=True)
        cases.append((g, g.kernel_matrix()))
    return cases


def _kernel_fields(n, rows, seed):
    F = np.random.default_rng(seed).uniform(-2.0, 2.0, (rows, n))
    F[0] = -0.0
    F[1, 0] = np.inf
    F[2, -1] = -np.inf
    F[3, :2] = (np.inf, -np.inf)
    return F


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.parametrize("case", range(13))
def test_kernel_sums_equal_the_scipy_product_bit_for_bit(case):
    g, K = _kernel_cases()[case]
    F = _kernel_fields(g.n, 64, seed=case)
    with np.errstate(invalid="ignore"):
        for f in F:
            _assert_same_bits(g.kernel_sum(f), K @ f)
        for batch in (F[:1], F[-1:], F[:2], F[:5], F):
            _assert_same_bits(g.kernel_sum(batch), (K @ batch.T).T)
        _assert_same_bits(g.kernel_sum(F.reshape(4, 16, g.n)), (K @ F.T).T.reshape(4, 16, g.n))


POW_VALUES = np.array([0.0, 5e-324, 1e-300, 1.0, 1e300, np.inf, np.nan])


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_pow_shortcuts_equal_the_power_bit_for_bit(p):
    got = _pow(POW_VALUES, p)
    assert got is POW_VALUES if p == 1.0 else type(got) is float  # no pass, no copy
    want = POW_VALUES**p
    assert np.broadcast_to(got, want.shape).tobytes() == want.tobytes()


# the benchmark's checker graphs, its flow graphs (the first with the two-point start) and its CD search balls
POW_CHECK_GRAPHS = ("square", "complete:3", "complete:5")
POW_FLOW_GRAPHS = ("complete:2", "square", "complete:5", "complete:30", "zwindow:100", "path:16")
POW_CD_BALLS = (("square", "x"), ("complete:5", "x1"), ("complete:3", "x1"), ("complete:12", "x1"),
                ("zwindow:3", "0"), ("path:5", "3"))


def _powered_outputs(m, cases):
    """Every core and public function, and the solver's entropy, that takes an ``m``-derived power, on each ``(kernel, fields)``."""
    out = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for K, U in cases:
            V = _pressure(m, U)
            out += [V, _flow(K, m, U), _dtv(K, m, U), pressure(m, U), pressure_inverse(m, V)]
            if isinstance(K, Graph):
                out += [_gradient_energy(K, m, V), solver._entropy(solver.counting_measure(K), m, U)]
    return out


@pytest.mark.parametrize("m", CORE_EXPONENTS)
def test_core_powers_equal_their_plain_power_forms(monkeypatch, m):
    cases = []
    for spec in POW_CHECK_GRAPHS:
        g = resolve_graph(spec)
        traj = integrate(g, m, np.random.default_rng(12).uniform(0.5, 1.5, g.n), np.linspace(0.1, 5.0, 201))
        cases.append((g, traj.states))
    for spec in POW_FLOW_GRAPHS:
        g = resolve_graph(spec)
        u0 = [1.0, 1e-6] if spec == "complete:2" else np.random.default_rng(11).uniform(0.5, 1.5, g.n)
        cases.append((g, integrate(g, m, u0, np.linspace(0.0, 5.0, 201)).states))
    lo = 0.0 if m >= 2.0 else 1e-3  # zero values only where m >= 2 accepts them
    for spec, x in POW_CD_BALLS:
        g = resolve_graph(spec)
        prob = _BallProblem(g, x, m, 0.0)
        U = np.random.default_rng(14).uniform(lo, 1.0, (200, len(prob.ball)))
        U[:20, prob.pos_x] = lo
        cases += [(prob.kernel, U), (g, np.random.default_rng(15).uniform(lo, 1.0, (50, g.n)))]
    got = _powered_outputs(m, cases)
    for module in (operators, solver):
        monkeypatch.setattr(module, "_pow", lambda U, p: U**p)
    for a, b in zip(got, _powered_outputs(m, cases), strict=True):
        _assert_same_bits(a, b)
