"""Curvature-dimension verification: admissibility, search, certificates."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmelab import (
    SearchConfig,
    build_graph,
    cd_ratio,
    chain_counterexample,
    chain_limit_curvature,
    complete_graph,
    complete_graph_certificate,
    curvature_form,
    empirical_optimal_d,
    is_admissible,
    laplacian,
    lattice_cd_check,
    path_graph,
    pressure,
    resolve_graph,
    square_graph,
    verify_cd_at,
)
from pmelab.errors import AdmissibilityError, ValidationError

FAST = SearchConfig(samples=2000, refine_iters=60, seed=0, starts=2)


# -- admissibility and ratio -----------------------------------------------


BAD_SETTINGS = [(f, v) for v in (-1e-9, math.inf, math.nan) for f in ("tol", "delta")] + [("seed", -1)]


@pytest.mark.parametrize("field,value", BAD_SETTINGS, ids=["%s-%s" % (v, f) for f, v in BAD_SETTINGS])
def test_search_config_rejects_a_negative_or_non_finite_margin(field, value):
    with pytest.raises(ValidationError):
        SearchConfig(**{field: value})


def test_search_config_has_no_box_height():
    with pytest.raises(TypeError):
        SearchConfig(hi=4.0)


def test_admissibility_requires_a_strict_positive_local_maximum():
    g = complete_graph(2)
    u = [1.0, 0.5]
    at_peak = is_admissible(g, 2.0, 1.0, u, "x1")
    assert at_peak
    assert at_peak.base_neg_g == pytest.approx(0.75, rel=1e-14)
    at_bottom = is_admissible(g, 2.0, 1.0, u, "x2")
    assert not at_bottom
    assert not is_admissible(g, 2.0, 1.0, [1.0, 1.0], "x1")


def test_admissibility_strictness_margin():
    g = complete_graph(2)
    result = is_admissible(g, 2.0, 1.0, [1.0, 0.5], "x1", delta=1.0)
    assert not result


def test_cd_ratio_two_point_oracle():
    # (-G)^2 / mixed curvature form = 0.75^2 / 1.6875 at full mixing
    g = complete_graph(2)
    assert cd_ratio(g, 2.0, 1.0, [1.0, 0.5], "x1") == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_cd_ratio_rejects_inadmissible_fields():
    g = complete_graph(2)
    with pytest.raises(AdmissibilityError):
        cd_ratio(g, 2.0, 1.0, [1.0, 0.5], "x2")


def test_cd_ratio_is_infinite_when_the_curvature_form_is_negative():
    w = chain_counterexample(5, 2.0, 1e-3)
    assert w.curvature < 0.0
    assert cd_ratio(w.graph, 2.0, 0.0, w.u, w.vertex) == math.inf


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=150, deadline=None)
def test_cd_ratio_is_scale_invariant(seed):
    rng = np.random.default_rng(seed)
    g = complete_graph(3)
    u = np.array([1.0, rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)])
    c = float(rng.uniform(0.1, 10.0))
    alpha = float(rng.uniform(0.0, 1.0))
    m = float(rng.uniform(1.2, 4.0))
    if not is_admissible(g, m, alpha, u, "x1"):
        return
    base = cd_ratio(g, m, alpha, u, "x1")
    scaled = cd_ratio(g, m, alpha, c * u, "x1")
    if math.isinf(base):
        assert math.isinf(scaled)
    else:
        assert scaled == pytest.approx(base, rel=1e-9)


# -- empirical optima ------------------------------------------------------


@pytest.mark.parametrize("D,expected", [(2, 1.0), (3, 4.0 / 3.0), (5, 1.6)])
def test_complete_graph_optimal_dimension_quadratic_case(D, expected):
    value = empirical_optimal_d(complete_graph(D), 2.0, 0.0, "x1", FAST)
    assert value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("D", [2, 3])
def test_complete_graph_optimal_dimension_cubic_case(D):
    value = empirical_optimal_d(complete_graph(D), 3.0, 0.0, "x1", FAST)
    assert value == pytest.approx(0.75, abs=1e-12)


def test_square_graph_optimal_dimension():
    g = square_graph()
    for x in g.vertices:
        assert empirical_optimal_d(g, 2.0, 0.0, x, FAST) == pytest.approx(4.0 / 3.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_refinement_reaches_the_square_optimum_below_the_floor_exponent(seed):
    # sampling alone stops short of the supremum; the compass search closes the gap
    g = square_graph()
    refined = empirical_optimal_d(g, 1.5, 0.0, "x", replace(FAST, seed=seed))
    sampled = empirical_optimal_d(g, 1.5, 0.0, "x", replace(FAST, seed=seed, refine_iters=0))
    assert refined == pytest.approx(1.1588045002851, abs=1e-8)
    assert sampled <= refined - 1e-3


def test_a_vertex_without_out_neighbors_is_inconclusive():
    report = verify_cd_at(build_graph([("a", "b", 1.0)]), 2.0, 0.0, 1.0, "b", FAST)
    assert report.verdict == "inconclusive" and report.witness is None


def test_path_interior_admits_no_dimension_bound():
    assert empirical_optimal_d(path_graph(5), 2.0, 0.0, "3", None) == math.inf


CHAIN_MISSES = [
    (spec, x, 2.0, 0.0, seed) for spec, x in (("path:5", "3"), ("zwindow:3", "0")) for seed in (30, 93, 97)
] + [
    (spec, x, 3.0, 0.5, seed)
    for spec, x in (("path:6", "3"), ("zwindow:3", "0"))
    for seed in (2, 6, 11, 19, 22, 23, 24, 25, 27, 29)
]


@pytest.mark.parametrize("spec,x,m,alpha,seed", CHAIN_MISSES)
def test_chain_balls_are_violated_on_the_seeds_a_box_search_missed(spec, x, m, alpha, seed):
    report = verify_cd_at(resolve_graph(spec), m, alpha, 1.5, x, SearchConfig(seed=seed))
    assert report.verdict == "violated"
    assert report.empirical_optimal_d == math.inf


def test_verify_cd_at_holds_with_margin_and_fails_below_the_optimum():
    g = square_graph()
    held = verify_cd_at(g, 2.0, 0.0, 4.0 / 3.0, "x", FAST)
    assert held.verdict == "holds_empirically"
    assert held.witness is None
    broken = verify_cd_at(g, 2.0, 0.0, 1.32, "x", FAST)
    assert broken.verdict == "violated"
    assert broken.witness is not None


def test_violation_witness_reproduces_the_ratio():
    g = square_graph()
    report = verify_cd_at(g, 2.0, 0.0, 1.32, "x", FAST)
    u = report.witness.to_field(g)
    ratio = cd_ratio(g, 2.0, 0.0, u, "x")
    assert math.isinf(ratio) or ratio > 1.32


def test_search_is_deterministic_for_a_fixed_seed():
    g = square_graph()
    a = verify_cd_at(g, 2.0, 0.0, 1.32, "x", FAST)
    b = verify_cd_at(g, 2.0, 0.0, 1.32, "x", FAST)
    assert a.to_json_dict() == b.to_json_dict()


def test_search_verdict_is_stable_across_seeds():
    g = complete_graph(3)
    for seed in (0, 1, 7):
        cfg = SearchConfig(samples=2000, refine_iters=60, seed=seed, starts=2)
        assert verify_cd_at(g, 2.0, 0.0, 4.0 / 3.0, "x1", cfg).verdict == "holds_empirically"
        assert verify_cd_at(g, 2.0, 0.0, 1.25, "x1", cfg).verdict == "violated"


def test_report_serialization_encodes_infinities():
    rep = verify_cd_at(path_graph(5), 2.0, 0.0, 100.0, "3", None)
    encoded = rep.to_json_dict()
    assert encoded["empirical_optimal_d"] == "inf"
    assert encoded["verdict"] == "violated"


# -- complete-graph certificate --------------------------------------------


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=200, deadline=None)
def test_certificate_equals_scaled_ratio_test(seed):
    # nu * curvature_form(x1) - (Lv(x1))^2 for the field (1, z...) with
    # unit base value; the certificate must match the operator route
    rng = np.random.default_rng(seed)
    D = int(rng.integers(2, 6))
    m = float(rng.uniform(1.3, 4.0))
    nu = float(rng.uniform(0.2, 3.0))
    z = rng.uniform(0.05, 1.0, D - 1)
    g = complete_graph(D)
    u = np.concatenate([[1.0], z])
    direct = nu * curvature_form(g, m, u, "x1") - laplacian(g, pressure(m, u), "x1") ** 2
    assert complete_graph_certificate(nu, m, z) == pytest.approx(direct, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("D", [2, 3, 5])
def test_certificate_is_nonnegative_at_the_optimal_dimension(D):
    rng = np.random.default_rng(0)
    nu = 2.0 * (D - 1) / D
    for _ in range(300):
        z = rng.uniform(1e-6, 1.0, D - 1)
        assert complete_graph_certificate(nu, 2.0, z) >= -1e-9


@pytest.mark.parametrize("D", [2, 3, 5])
def test_certificate_fails_below_the_optimal_dimension(D):
    nu = 2.0 * (D - 1) / D - 0.05
    z = np.full(D - 1, 1e-9)
    assert complete_graph_certificate(nu, 2.0, z) < 0.0


def test_certificate_validates_coordinates():
    with pytest.raises(ValidationError):
        complete_graph_certificate(1.0, 2.0, [1.5])
    with pytest.raises(ValidationError):
        complete_graph_certificate(-1.0, 2.0, [0.5])


# -- chain counterexamples -------------------------------------------------


def test_short_chains_reach_minus_three_halves_exactly():
    for n in (3, 4):
        w = chain_counterexample(n)
        assert w.curvature == -1.5
        assert w.neg_lap_pressure > 0.0
        assert math.isnan(w.eps)


def test_length_five_chain_quadratic_value():
    w = chain_counterexample(5, 2.0, 1e-3)
    assert w.curvature == pytest.approx(-0.4989974999999996, rel=1e-12)
    assert w.neg_lap_pressure > 0.0


def test_length_five_chain_cubic_value():
    w = chain_counterexample(5, 3.0, 1e-3)
    assert w.curvature == pytest.approx(-1.1478340500438007, rel=1e-12)


def test_length_five_chain_base_is_admissible_without_mixing():
    w = chain_counterexample(5, 2.0, 1e-3)
    assert is_admissible(w.graph, 2.0, 0.0, w.u, w.vertex)


def test_chain_validation():
    with pytest.raises(ValidationError):
        chain_counterexample(6)
    with pytest.raises(ValidationError):
        chain_counterexample(3, m=3.0)
    with pytest.raises(ValidationError):
        chain_counterexample(5, eps=0.7)
    with pytest.raises(ValidationError):
        chain_counterexample(5, m=1.5)


def test_chain_limit_values():
    assert chain_limit_curvature(2.0) == -0.5
    assert chain_limit_curvature(3.0) == pytest.approx(-1.1922286116930012, rel=1e-14)
    with pytest.raises(ValidationError):
        chain_limit_curvature(1.5)


@pytest.mark.parametrize("m", [2.0, 3.0, 4.0])
def test_chain_values_approach_the_limit_as_eps_shrinks(m):
    limit = chain_limit_curvature(m)
    gaps = [abs(chain_counterexample(5, m, eps).curvature - limit) for eps in (1e-2, 1e-4, 1e-6)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2
    assert limit < 0.0


# -- lattice check ---------------------------------------------------------


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_lattice_condition_holds_on_sampled_configurations(m):
    assert lattice_cd_check(m, 2000, seed=0) >= -1e-9


def test_lattice_check_is_deterministic():
    assert lattice_cd_check(2.0, 500, seed=3) == lattice_cd_check(2.0, 500, seed=3)


def test_lattice_check_validates_inputs():
    with pytest.raises(ValidationError):
        lattice_cd_check(2.0, 0, seed=0)
