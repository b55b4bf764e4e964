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
from pmelab.cd import _BLOCK_VALUES, _MIN_ROWS, _BallProblem, _search_min_score
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


def _one_iteration_per_evaluate(prob, cfg):
    """The compass search as it was written first: one ``evaluate`` per iteration.

    ``_search_min_score`` scores several iterations' polls per call and
    replays them; it must agree with this loop bit for bit.
    """
    lo = 0.0 if prob.m >= 2.0 else cfg.floor
    rng = np.random.default_rng(cfg.seed)
    U = rng.uniform(lo, 1.0, (cfg.samples, len(prob.ball)))
    faces = U[cfg.samples // 2 :]
    pinned = rng.random(faces.shape) < rng.random((len(faces), 1))
    faces[pinned] = np.where(rng.random(faces.shape) < 0.5, lo, 1.0)[pinned]
    ok, score, _, _ = prob.evaluate(U)
    if not ok.any():
        return math.inf, None, len(U), 0
    top = np.argsort(score)[: cfg.starts]
    X, S = U[top[ok[top]]], score[top[ok[top]]]
    k, n = X.shape
    step = np.full(k, (1.0 - lo) / 4.0)
    free = np.tile([np.delete(np.arange(n), h) for h in np.argmax(X, axis=1)], 2)
    sign = np.repeat([1.0, -1.0], n - 1)
    evaluations = len(U)
    for _ in range(cfg.refine_iters):
        if np.all(step < 1e-12):
            break
        C = np.repeat(X[:, None, :], 2 * n - 2, axis=1)
        C[np.arange(k)[:, None], np.arange(2 * n - 2), free] += sign * step[:, None]
        ok_c, score_c, base_c, _ = (a.reshape(k, -1) for a in prob.evaluate(np.clip(C, lo, 1.0, out=C).reshape(-1, n)))
        evaluations += ok_c.size
        better = ok_c & (base_c > cfg.delta) & (score_c < S[:, None])
        j = np.argmin(np.where(better, score_c, np.inf), axis=1)
        moved = better.any(axis=1)
        X[moved], S[moved] = C[moved, j[moved]], score_c[moved, j[moved]]
        step[~moved] /= 4.0
    i = int(np.argmin(S))
    return float(S[i]), X[i], evaluations, int(ok.sum())


SEARCH_BALLS = [
    ("square", "x", 2.0, 0.0),
    ("square", "x", 1.5, 0.0),
    ("complete:3", "x1", 2.0, 0.0),
    ("complete:5", "x1", 2.0, 0.0),
    ("zwindow:3", "0", 2.0, 0.0),
    ("zwindow:3", "0", 2.0, 1.0),
    ("path:5", "3", 2.0, 0.0),
    ("path:6", "3", 3.0, 0.5),
]


@pytest.mark.parametrize("spec,x,m,alpha", SEARCH_BALLS)
def test_batched_polls_replay_the_one_iteration_search_bit_for_bit(spec, x, m, alpha):
    prob = _BallProblem(resolve_graph(spec), x, m, alpha)
    # budgets that run out inside a round of batched polls; 60 samples cap a round's depth
    budgets = [(2000, iters) for iters in (0, 1, 2, 5, 200)] + [(60, 200)]
    for seed in range(10):
        for samples, iters in budgets:
            cfg = SearchConfig(samples=samples, refine_iters=iters, seed=seed)
            got = _search_min_score(prob, cfg)
            score, best_u, evaluations, admissible = _one_iteration_per_evaluate(prob, cfg)
            assert (got.min_score, got.evaluations, got.admissible_found) == (score, evaluations, admissible)
            assert (got.best_u is None and best_u is None) or got.best_u.tobytes() == best_u.tobytes()


def test_shrink_only_iterations_share_evaluate_calls():
    prob = _BallProblem(complete_graph(3), "x1", 2.0, 0.0)
    batches = []
    evaluate = prob.evaluate
    prob.evaluate = lambda U: batches.append(len(U)) or evaluate(U)
    out = _search_min_score(prob, SearchConfig(seed=0))
    # no start moves: 19 fourfold shrinks take 0.25 below 1e-12, in rounds of 1, 2, 4, 8 and 4
    assert out.evaluations == 20000 + 19 * 3 * 4
    assert batches == [20000] + [3 * 4 * depth for depth in (1, 2, 4, 8, 4)]


LAYOUT_BALLS = SEARCH_BALLS + [("square", "x", 1.25, 0.0), ("complete:5", "x1", 1.25, 0.5), ("square", "x", 2.0, 0.5)]


@pytest.mark.parametrize("spec,x,m,alpha", LAYOUT_BALLS)
def test_ball_scores_do_not_depend_on_the_batch_layout(spec, x, m, alpha):
    prob = _BallProblem(resolve_graph(spec), x, m, alpha)
    rng = np.random.default_rng(5)
    U = rng.uniform(1e-6 if m < 2.0 else 0.0, 1.0, (500, len(prob.ball)))
    if m >= 2.0:
        U[rng.random(U.shape) < 0.3] = 0.0
    for rows, cols in zip(prob.evaluate(U), prob.evaluate(np.asfortranarray(U))):
        assert np.ascontiguousarray(rows).tobytes() == np.ascontiguousarray(cols).tobytes()


# every ball of the cd_search benchmark, and the m = 3, alpha = 0.5 chain ball
BLOCK_BALLS = SEARCH_BALLS + [("complete:5", "x1", 3.0, 0.0), ("complete:12", "x1", 2.0, 0.0)]


@pytest.mark.parametrize("spec,x,m,alpha", BLOCK_BALLS)
def test_blocked_scoring_equals_one_block_scoring_bit_for_bit(spec, x, m, alpha):
    prob = _BallProblem(resolve_graph(spec), x, m, alpha)
    n = len(prob.ball)
    lo = 0.0 if m >= 2.0 else 1e-6
    rng = np.random.default_rng(3)
    U = rng.uniform(lo, 1.0, (20000, n))
    pinned = rng.random(U.shape) < 0.3
    U[pinned] = np.where(rng.random(U.shape) < 0.5, lo, 1.0)[pinned]
    for rows in (20000, 2 * _MIN_ROWS, 2 * _MIN_ROWS - 1, _BLOCK_VALUES // n + 1, _BLOCK_VALUES // n - 1, 2):
        V = U[:rows]
        # blocks are vertex-major, and so is the one block they are compared with: on
        # complete:12 BLAS sums a few rows of a 2731-row batch differently in row-major
        # layout; a batch that is not split is scored as it is
        split = len(V) >= 2 * _MIN_ROWS and V.size > _BLOCK_VALUES
        whole = prob._score(np.asfortranarray(V) if split else V)
        for got, want in zip(prob.evaluate(V), whole):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec,x,m,alpha", BLOCK_BALLS + [("complete:100", "x1", 2.0, 0.0)])
def test_a_search_scores_no_block_wider_than_the_budget(spec, x, m, alpha):
    prob = _BallProblem(resolve_graph(spec), x, m, alpha)
    batches, blocks = [], []
    evaluate, score = prob.evaluate, prob._score
    prob.evaluate = lambda U: batches.append(U.shape) or evaluate(U)
    prob._score = lambda U: blocks.append(U.shape) or score(U)
    _search_min_score(prob, SearchConfig(seed=0))
    assert batches[0][0] == 20000 and len(blocks) > len(batches)  # the sample batch is split
    for rows, n in blocks:
        # at most the budget plus one row, unless that would leave fewer rows than the floor
        assert (rows - 1) * n <= _BLOCK_VALUES or rows < 2 * _MIN_ROWS
        assert rows >= _MIN_ROWS or (rows, n) in batches  # a small batch is not split


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
