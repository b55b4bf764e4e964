"""Curvature-dimension verification: admissibility, search, certificates."""

import importlib.util
import math
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

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
from pmelab import cd
from pmelab.cd import (
    _BLOCK_VALUES,
    _BallProblem,
    _lowest_first,
    _sample_fields,
    _search,
    _search_min_score,
)
from pmelab.errors import AdmissibilityError, ValidationError
from pmelab.operators import _admissible, _curvature_form, _dtv, _flow

FAST = SearchConfig(samples=2000, refine_iters=60, seed=0)


# -- admissibility and ratio -----------------------------------------------


BAD_SETTINGS = [("tol", v, "tol must be finite and nonnegative") for v in (-1e-9, math.inf, math.nan)]
BAD_SETTINGS += [("seed", -1, "search seed must be nonnegative")]
# budgets that are not integers, which numpy would refuse later with a bare TypeError or truncate
BAD_BUDGETS = [("samples", 2.5), ("samples", True), ("seed", 1.5), ("refine_iters", 2.5), ("seed", "1")]
BAD_SETTINGS += [(f, v, f"search {f} must be an integer") for f, v in BAD_BUDGETS]
BAD_SETTINGS += [("refine_iters", -1, "bad refinement budget")]


@pytest.mark.parametrize("field,value,match", BAD_SETTINGS, ids=["%s-%s" % (v, f) for f, v, _ in BAD_SETTINGS])
def test_search_config_rejects_a_negative_or_non_finite_margin(field, value, match):
    with pytest.raises(ValidationError, match=match):
        SearchConfig(**{field: value})


def test_search_config_stores_an_integer_budget_as_an_int():
    for field in ("samples", "refine_iters", "seed"):
        cfg = SearchConfig(**{field: np.int64(3)})
        assert getattr(cfg, field) == 3 and type(getattr(cfg, field)) is int
    assert SearchConfig(seed=2**70).seed == 2**70


def test_search_config_has_no_box_height():
    # nor a settable domain: floor, delta and starts are constants, so a search is re-run from its seed and budget
    assert [f.name for f in fields(SearchConfig)] == ["samples", "refine_iters", "seed", "tol"]
    assert (SearchConfig().floor, SearchConfig().delta, SearchConfig().starts) == (1e-6, 1e-12, 3)
    for field in ("hi", "floor", "delta", "starts"):
        with pytest.raises(TypeError):
            SearchConfig(**{field: 1})
        with pytest.raises(TypeError):
            replace(SearchConfig(), **{field: 1})


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
    with pytest.raises(ValidationError, match="strictness margin must be nonnegative"):
        is_admissible(g, 2.0, 1.0, [1.0, 0.5], "x1", delta=-1.0)


# hand-made G on the path 1 - 2 - 3 (vertex 2 has neighbours 1 and 3) and on a -> b -> c, where c has none:
# (G, vertex, delta, verdict)
NEXT_ABOVE = float(np.nextafter(0.5, 1.0))
RULE_CASES = [
    ([0.0, -1.0, 0.0], "2", 0.0, True),
    ([0.0, math.nan, 0.0], "2", 0.0, False),  # NaN at the base
    ([0.0, -1.0, math.nan], "2", 0.0, False),  # NaN at a neighbour
    ([-1.0, -1.0, 0.0], "2", 0.0, True),  # a tie with a neighbour is admitted
    ([-2.0, -1.0, 0.0], "2", 0.0, False),
    ([0.0, -0.5, 0.0], "2", 0.5, False),  # -G(x) == delta is refused
    ([0.0, -NEXT_ABOVE, 0.0], "2", 0.5, True),  # and the next float above it admitted
    ([0.0, -0.0, 0.0], "2", 0.0, False),
    ([5.0, 5.0, -1.0], "c", 0.0, True),  # no out-neighbours: only the margin decides
    ([5.0, 5.0, -1.0], "c", 1.0, False),
]


@pytest.mark.parametrize("G,x,delta,verdict", RULE_CASES)
def test_one_admissibility_rule_decides_is_admissible_and_the_search(monkeypatch, G, x, delta, verdict):
    g = path_graph(3) if x == "2" else build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
    i, nbrs = g.index(x), g.neighbors_idx(g.index(x))
    G = np.array(G)
    # a field as a 1-d array and as a one-row batch, as the search's blocks hold it
    assert bool(_admissible(G, i, nbrs, delta)) is verdict
    assert _admissible(G[None, :], i, nbrs, delta).tolist() == [verdict]
    assert _admissible(np.asfortranarray(G[None, :]), i, nbrs, delta).tolist() == [verdict]
    monkeypatch.setattr(cd, "mixed_laplacian_field", lambda *args: G)
    result = is_admissible(g, 2.0, 0.0, np.ones(3), x, delta)
    assert result.admissible is verdict
    assert result.base_neg_g == -G[i] or math.isnan(G[i])


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
    # sampling alone stops short of the supremum by more than the tolerance; the compass search closes the gap
    g = square_graph()
    refined = empirical_optimal_d(g, 1.5, 0.0, "x", replace(FAST, seed=seed))
    sampled = empirical_optimal_d(g, 1.5, 0.0, "x", replace(FAST, seed=seed, refine_iters=0))
    assert refined == pytest.approx(1.1588045002851, abs=1e-8)
    assert sampled < refined - 1e-8


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


# d is checked first; m and alpha are checked once, by the search's ball problem
@pytest.mark.parametrize(
    "m,alpha,d,message",
    [
        (1.0, 0.0, 1.0, "exponent must satisfy m > 1, got 1.0"),
        (1e200, 0.0, 1.0, "exponent too large: (m - 1)**2 overflows a float at m = 1e+200"),
        (2.0, 1.5, 1.0, "mixing parameter must lie in [0, 1], got 1.5"),
        (2.0, 0.0, 0.0, "d must be positive and finite"),
        (1.0, 1.5, math.nan, "d must be positive and finite"),
    ],
)
def test_verify_cd_at_refuses_a_bad_exponent_mixing_or_dimension(m, alpha, d, message):
    with pytest.raises(ValidationError) as err:
        verify_cd_at(square_graph(), m, alpha, d, "x", FAST)
    assert str(err.value) == message


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
        cfg = SearchConfig(samples=2000, refine_iters=60, seed=seed)
        assert verify_cd_at(g, 2.0, 0.0, 4.0 / 3.0, "x1", cfg).verdict == "holds_empirically"
        assert verify_cd_at(g, 2.0, 0.0, 1.25, "x1", cfg).verdict == "violated"


def _masked_select_sample(rng, samples, n, lo):
    """The search's samples with the pins written by masked selects, which ``_sample_fields`` must equal.

    Every draw is vertex-major: the rows, then one pin draw per face coordinate, then each face
    row's pin probability ``q`` and low fraction ``r``.
    """
    U = rng.uniform(lo, 1.0, (n, samples)).T
    faces = U[samples // 2 :]
    draw = rng.random((n, len(faces))).T
    q, r = rng.random(len(faces)), rng.random(len(faces))
    pinned = draw < q[:, None]
    np.copyto(faces, np.where(draw < (q * r)[:, None], lo, 1.0), where=pinned)
    return U


SAMPLE_GRID = [
    (n, lo, samples, seed)
    for n in (1, 2, 3, 4, 5, 12, 30)
    for lo in (0.0, 1e-6, 0.3, 0.999)
    for samples in (1, 2, 3, 60, 2000, 20001)
    for seed in range(4)
]


def test_samples_equal_the_masked_select_draws_bit_for_bit():
    for n, lo, samples, seed in SAMPLE_GRID:
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = _sample_fields(got_rng, samples, n, lo), _masked_select_sample(want_rng, samples, n, lo)
        assert got.shape == want.shape and got.flags.f_contiguous
        assert got.tobytes() == want.tobytes(), (n, lo, samples, seed)
        # the generator is left in the same state
        assert got_rng.random(3).tobytes() == want_rng.random(3).tobytes(), (n, lo, samples, seed)


@pytest.mark.parametrize("lo", [0.0, 1e-6])
def test_face_rows_pin_half_their_coordinates_and_half_the_pins_low(lo):
    # q and r are uniform, so E[q] = 1/2 and E[q r] / E[q] = 1/2; over 10^5 rows
    # each rate has a standard error of about 0.001
    n = 12
    faces = _sample_fields(np.random.default_rng(5), 200000, n, lo)[100000:]
    low, high = faces == lo, faces == 1.0
    pinned = low | high
    assert abs(pinned.mean() - 0.5) <= 0.005
    assert abs(low.sum() / pinned.sum() - 0.5) <= 0.005
    # the corners are sampled: every coordinate low but one, and every coordinate high
    assert ((low.sum(axis=1) == n - 1) & (high.sum(axis=1) == 1)).any()
    assert high.all(axis=1).any()


@pytest.mark.parametrize("lo", [0.0, 0.05])
@pytest.mark.parametrize("n", [3, 5, 12])
def test_sampling_holds_at_most_twice_the_samples(n, lo):
    # the samples themselves, half a batch of draws and the boolean pin masks
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        U = _sample_fields(rng, 20000, n, lo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * U.nbytes, peak / U.nbytes


def test_a_long_refinement_budget_overflows_no_step_divisor():
    # the budget and the round cap both exceed 511, where 4.0 ** j overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = verify_cd_at(square_graph(), 2.0, 0.0, 1.5, "x", SearchConfig(refine_iters=1000))
    assert rep.to_json_dict() == {
        "alpha": 0.0,
        "budget": {"refine_iters": 1000, "samples": 20000, "tol": 1e-06},
        "d_tested": 1.5,
        "empirical_optimal_d": 1.3333333333333335,
        "m": 2.0,
        "samples_used": 20342,
        "seed": 0,
        "verdict": "holds_empirically",
        "vertex": "x",
        "witness": None,
    }


def test_starts_are_the_lowest_scores_in_stable_sort_order():
    rng = np.random.default_rng(11)
    values = np.array([-np.inf, np.inf, np.nan, -0.0, 0.0, 0.5, 1.0, 2.0])
    for _ in range(3000):
        rows = int(rng.integers(1, 40))
        # few distinct values, so the lowest scores tie often
        score = rng.choice(values[: rng.integers(2, len(values) + 1)], rows)
        if rng.random() < 0.3:  # mostly inadmissible (+inf), as on a sparse ball
            score = np.where(rng.random(rows) < 0.9, np.inf, rng.integers(0, 3, rows) / 2.0)
        for starts in (1, 2, 3, rows, rows + 4):
            got = _lowest_first(score, starts)
            assert got.dtype == np.intp
            assert got.tolist() == np.argsort(score, kind="stable")[:starts].tolist(), (score, starts)


def _one_iteration_per_evaluate(prob, cfg):
    """The compass search as it was written first: one ``evaluate`` per iteration.

    ``_search_min_score`` scores several iterations' polls per call and
    replays them; it must agree with this loop bit for bit.  Its starts
    are the stated rule, a stable sort of the scores.
    """
    lo = prob.lo
    U = _masked_select_sample(np.random.default_rng(cfg.seed), cfg.samples, len(prob.ball), lo)
    ok, score, _ = prob.evaluate(U)
    if not ok.any():
        return math.inf, None, len(U), 0
    top = np.argsort(score, kind="stable")[: cfg.starts]
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
        ok_c, score_c, base_c = (a.reshape(k, -1) for a in prob.evaluate(np.clip(C, lo, 1.0, out=C).reshape(-1, n)))
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

# the rest of the benchmark's balls, and balls of 30 and 50 vertices, where a
# vertex-major block still sums each row as the whole batch does
REPLAY_CASES = [(*ball, 10) for ball in SEARCH_BALLS]
REPLAY_CASES += [("complete:12", "x1", 2.0, 0.0, 3), ("complete:5", "x1", 3.0, 0.0, 10)]
REPLAY_CASES += [("complete:30", "x1", 2.0, 0.0, 3), ("complete:50", "x1", 2.0, 0.0, 1)]


@pytest.mark.parametrize("spec,x,m,alpha,seeds", REPLAY_CASES, ids=["-".join(map(str, c[:4])) for c in REPLAY_CASES])
def test_batched_polls_replay_the_one_iteration_search_bit_for_bit(spec, x, m, alpha, seeds):
    prob = _BallProblem(resolve_graph(spec), x, m, alpha)
    # budgets that run out inside a round of batched polls; 60 samples cap a round's depth
    budgets = [(2000, iters) for iters in (0, 1, 2, 5, 200)] + [(60, 200)]
    for seed in range(seeds):
        for samples, iters in budgets:
            cfg = SearchConfig(samples=samples, refine_iters=iters, seed=seed)
            got = _search_min_score(prob, cfg)
            score, best_u, evaluations, admissible = _one_iteration_per_evaluate(prob, cfg)
            assert (got.min_score, got.evaluations, got.admissible_found) == (score, evaluations, admissible)
            assert (got.best_u is None and best_u is None) or got.best_u.tobytes() == best_u.tobytes()


def _curvature_form_with_every_term(K, m, alpha, U, i):
    """The mixed curvature form with its ``(1 - alpha) L(D)`` term evaluated at every ``alpha > 0``."""
    LP = _flow(K, m, U)
    D = _dtv(K, m, U, LP)
    ux, qx = U[..., i], LP[..., i] / U[..., i]
    return (1.0 - alpha) * K.laplacian(D)[..., i] + alpha * (K.laplacian(U * D)[..., i] / ux - qx * qx)


@pytest.mark.parametrize("spec,x,m", [("zwindow:3", "0", 2.0), ("path:6", "3", 3.0), ("square", "x", 2.0),
                                      ("complete:5", "x1", 1.5)])
def test_unit_mixing_searches_equal_those_that_evaluate_the_zero_term(monkeypatch, spec, x, m):
    # at alpha = 1 the curvature form skips its (1 - alpha) L(D) term, which is 0 * L(D)
    prob = _BallProblem(resolve_graph(spec), x, m, 1.0)
    outcomes = {}
    for form in (_curvature_form, _curvature_form_with_every_term):
        monkeypatch.setattr(cd, "_curvature_form", form)
        outcomes[form] = [_search_min_score(prob, SearchConfig(seed=seed)) for seed in [*range(20), 7919]]
    for got, want in zip(*outcomes.values()):
        assert (got.min_score, got.evaluations) == (want.min_score, want.evaluations)
        assert (got.best_u is None and want.best_u is None) or got.best_u.tobytes() == want.best_u.tobytes()


def test_shrink_only_iterations_share_evaluate_calls():
    prob = _BallProblem(complete_graph(3), "x1", 2.0, 0.0)
    batches = []
    evaluate = prob.evaluate
    prob.evaluate = lambda U: batches.append(len(U)) or evaluate(U)
    out = _search_min_score(prob, SearchConfig(seed=0))
    # no start moves: 19 fourfold shrinks take 0.25 below 1e-12, all in the first round
    assert out.evaluations == 20000 + 19 * 3 * 4
    assert batches == [20000, 3 * 4 * 19]


# every ball of the cd_search benchmark, the m = 3, alpha = 0.5 chain ball, balls of 30 and 50 vertices,
# where a vertex-major block still sums each row as the whole batch does, and mixings at m = 1.25 and 2
SCORING_BALLS = SEARCH_BALLS + [
    ("complete:5", "x1", 3.0, 0.0), ("complete:12", "x1", 2.0, 0.0), ("complete:30", "x1", 2.0, 0.0),
    ("complete:50", "x1", 2.0, 0.0), ("square", "x", 1.25, 0.0), ("square", "x", 1.25, 0.5),
    ("complete:5", "x1", 1.25, 0.5), ("square", "x", 2.0, 0.5),
]


@pytest.mark.parametrize("spec,x,m,alpha", SCORING_BALLS)
def test_ball_scores_do_not_depend_on_the_batch_layout(spec, x, m, alpha):
    prob = _BallProblem(resolve_graph(spec), x, m, alpha)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        U = rng.uniform(1e-6 if m < 2.0 else 0.0, 1.0, (500, len(prob.ball)))
        if m >= 2.0:
            U[rng.random(U.shape) < 0.3] = 0.0
        for rows, cols in zip(prob.evaluate(U), prob.evaluate(np.asfortranarray(U))):
            assert rows.tobytes() == cols.tobytes()


@pytest.mark.parametrize("spec,x,m,alpha", SCORING_BALLS)
def test_the_ball_laplacian_is_a_new_array_in_the_batch_layout(spec, x, m, alpha):
    K = _BallProblem(resolve_graph(spec), x, m, alpha).kernel
    F = np.random.default_rng(5).random((300, len(K.degree)))
    for batch in (F, np.asfortranarray(F)):
        got = K.laplacian(batch)
        assert not np.shares_memory(got, batch)
        assert (got.flags.c_contiguous, got.flags.f_contiguous) == (batch.flags.c_contiguous, batch.flags.f_contiguous)
        assert got.tobytes() == (batch @ K.matrix.T - K.degree * batch).tobytes()


@pytest.mark.parametrize("spec,x,m,alpha", SCORING_BALLS)
def test_blocked_scoring_equals_one_block_scoring_bit_for_bit(spec, x, m, alpha):
    prob = _BallProblem(resolve_graph(spec), x, m, alpha)
    n = len(prob.ball)
    lo = 0.0 if m >= 2.0 else 1e-6
    rng = np.random.default_rng(3)
    U = rng.uniform(lo, 1.0, (20000, n))
    pinned = rng.random(U.shape) < 0.3
    U[pinned] = np.where(rng.random(U.shape) < 0.5, lo, 1.0)[pinned]
    for rows in (20000, 4096, 4095, _BLOCK_VALUES // n + 1, _BLOCK_VALUES // n - 1, 2):
        V = U[:rows]
        # blocks are vertex-major, and so is the one block they are compared with: on
        # complete:12 BLAS sums a few rows of a 2731-row batch differently in row-major layout
        whole = prob._score(np.asfortranarray(V))
        for got, want in zip(prob.evaluate(V), whole):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec,x,m,alpha", SCORING_BALLS + [("complete:100", "x1", 2.0, 0.0)])
def test_a_search_scores_no_block_wider_than_the_budget(spec, x, m, alpha):
    prob = _BallProblem(resolve_graph(spec), x, m, alpha)
    batches, blocks = [], []
    evaluate, score = prob.evaluate, prob._score
    prob.evaluate = lambda U: batches.append(U.shape) or evaluate(U)
    prob._score = lambda U: blocks.append(U.shape) or score(U)
    _search_min_score(prob, SearchConfig(seed=0))
    assert batches[0][0] == 20000 and len(blocks) > len(batches)  # the sample batch is split
    for rows, n in blocks:
        assert (rows - 1) * n <= _BLOCK_VALUES  # at most the budget plus one row
    # BLAS sums a one-row batch on its matrix-vector path, which can differ in the last bits
    assert min(rows for rows, _ in batches + blocks) >= 2
    assert all((rows, n) in blocks for rows, n in batches if rows * n <= _BLOCK_VALUES)  # a small batch is not split


@pytest.mark.parametrize("spec,x,m,alpha", SCORING_BALLS)
def test_the_curvature_form_is_scored_only_at_admissible_rows(spec, x, m, alpha, monkeypatch):
    prob = _BallProblem(resolve_graph(spec), x, m, alpha)
    blocks, forms = [], []
    score = prob._score
    prob._score = lambda U: blocks.append((U, score(U))) or blocks[-1][1]
    monkeypatch.setattr(cd, "_curvature_form", lambda K, m, alpha, U, i: forms.append(U) or _curvature_form(K, m, alpha, U, i))
    _search_min_score(prob, SearchConfig(seed=0))
    assert len(forms) == len(blocks) > 1
    # sample blocks and polls alike are vertex-major, and so are the gathered admissible rows
    assert all(U.flags.f_contiguous for U, _ in blocks) and all(A.flags.f_contiguous for A in forms)
    for (U, (ok, _, _)), A in zip(blocks, forms):
        assert A.shape == (ok.sum(), U.shape[1]) and A.tobytes() == U[ok].tobytes()
    # one admissible row among inadmissible ones: its form alone is scored, the others read +inf
    U = _sample_fields(np.random.default_rng(1), 200, len(prob.ball), prob.lo)
    ok, _, _ = prob.evaluate(U)
    rest = np.flatnonzero(~ok)[:6]
    V = U[[*rest[:3], np.flatnonzero(ok)[0], *rest[3:]]]
    ok, score, base = prob.evaluate(V)
    assert ok.tolist() == [False] * 3 + [True] + [False] * 3
    with np.errstate(divide="ignore", invalid="ignore"):
        assert score[3] == _curvature_form(prob.kernel, m, alpha, V[3:4], prob.pos_x)[0] / base[3] ** 2
    assert (score[~ok] == np.inf).all()


@pytest.mark.parametrize("spec,x,m,alpha", SCORING_BALLS)
def test_each_verdict_is_a_comparison_on_one_search_result(spec, x, m, alpha):
    g = resolve_graph(spec)
    for seed in range(2):
        cfg = SearchConfig(samples=4000, seed=seed)
        result = _search(g, x, m, alpha, cfg)
        assert result.ratio == empirical_optimal_d(g, m, alpha, x, cfg)
        for d in (0.5, 1.3, 4.0 / 3.0, 2.0, 50.0):
            report = result.report(d)
            assert report == verify_cd_at(g, m, alpha, d, x, cfg)
            violated = result.ratio > d * (1.0 + cfg.tol)
            assert report.verdict == ("violated" if violated else "holds_empirically")
            assert (report.witness is not None) == violated and report.empirical_optimal_d == result.ratio
            assert report.samples_used == result.evaluations


def _benchmark_cd_cases(monkeypatch):
    """The ``cd_search`` benchmark's ``CD_CASES``: ``(graph, vertex, m, alpha, reference d, source, searches)``."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("inproc", bench / "inproc.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CD_CASES


def test_a_report_re_runs_from_its_own_budget_and_seed(monkeypatch):
    # a different budget at each seed, so a report that recorded the defaults would not re-run
    budgets = [dict(samples=2000, refine_iters=0), dict(samples=3001, refine_iters=7, tol=1e-3),
               dict(samples=20000), dict(samples=60, refine_iters=500, tol=0.0)]
    for spec, x, m, alpha, ref, _, _ in _benchmark_cd_cases(monkeypatch):
        g = resolve_graph(spec)
        d = ref if math.isfinite(ref) else 2.0
        for seed, budget in enumerate(budgets):
            report = verify_cd_at(g, m, alpha, d, x, SearchConfig(**budget, seed=seed))
            assert report.budget == {**dict(refine_iters=200, tol=1e-6), **budget}
            rerun = verify_cd_at(g, m, alpha, d, x, SearchConfig(**report.budget, seed=report.seed))
            assert rerun == report
            assert report.to_json_dict()["budget"] == report.budget
            # with no d the search is the same: only what a verdict at d decides is unset
            bare = verify_cd_at(g, m, alpha, None, x, SearchConfig(**budget, seed=seed))
            assert verify_cd_at(g, m, alpha, None, x, SearchConfig(**bare.budget, seed=bare.seed)) == bare
            assert (bare.d_tested, bare.verdict, bare.witness) == (None, None, None)
            assert replace(bare, d_tested=d, verdict=report.verdict, witness=report.witness) == report


def test_an_inconclusive_vertex_has_a_nan_optimum():
    # c has no out-neighbours, so -G(c) = 0 for every field and nothing is admissible
    g = build_graph([("a", "b", 1.0), ("b", "c", 1.0)])
    assert math.isnan(empirical_optimal_d(g, 2.0, 0.0, "c", FAST))
    for d in (1.0, None):  # no d decides a vertex without an admissible field
        report = verify_cd_at(g, 2.0, 0.0, d, "c", FAST)
        assert (report.d_tested, report.verdict, report.witness) == (d, "inconclusive", None)
        assert report.empirical_optimal_d is None and report.samples_used == FAST.samples


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


def _certificate_with_numpy_powers(nu, m, z):
    """:func:`complete_graph_certificate` with every power of ``z`` taken by numpy's ``**``."""
    dm1 = len(z)
    s_m = float(np.sum(z**m))
    s_m1 = float(np.sum(z ** (m - 1.0)))
    s_m2_cross = float(np.sum(z ** (m - 2.0) * (s_m - z**m)))
    s_m2 = float(np.sum(z ** (m - 2.0)))
    s_2m2 = float(np.sum(z ** (2.0 * m - 2.0)))
    curv = nu * m * (s_m2_cross + s_m2 - dm1 * s_2m2 - dm1 * s_m + dm1**2)
    return curv - m**2 / (m - 1.0) ** 2 * (s_m1**2 - 2.0 * dm1 * s_m1 + dm1**2)


@pytest.mark.parametrize("m", [1.5, 2.0, 2.5, 3.0])
def test_certificate_powers_equal_numpys_bit_for_bit(m):
    # at m = 2, z^(m-2) is the scalar 1 in _pow, yet its sum over the D - 1 coordinates must stay D - 1
    rng = np.random.default_rng(int(4 * m))
    for D in (2, 3, 6):
        for nu in (0.5, 4.0 / 3.0, 2.0):
            z = rng.uniform(1e-3, 1.0, D - 1)
            assert complete_graph_certificate(nu, m, z) == _certificate_with_numpy_powers(nu, m, z)


def test_certificate_validates_coordinates():
    with pytest.raises(ValidationError):
        complete_graph_certificate(1.0, 2.0, [1.5])
    with pytest.raises(ValidationError):
        complete_graph_certificate(-1.0, 2.0, [0.5])


@pytest.mark.parametrize(
    "nu,z,match",
    [
        (math.inf, [0.5, 0.5], "nu must be finite and positive"),
        (math.nan, [0.5, 0.5], "nu must be finite and positive"),
        (1.0, [math.nan, 0.5], r"z must lie in \(0, 1\]"),
        (1.0, [0.5, math.inf], r"z must lie in \(0, 1\]"),
    ],
)
def test_certificate_refuses_non_finite_input(nu, z, match):
    with pytest.raises(ValidationError, match=match):
        complete_graph_certificate(nu, 2.0, z)


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


def test_lattice_check_takes_the_search_budget_integer_rule():
    # numpy raised its own TypeError or ValueError for each of these
    for samples, seed in ((2.5, 0), (True, 0), (10, 1.5), (10, True), (10, -1)):
        with pytest.raises(ValidationError, match="must be an integer|nonnegative seed"):
            lattice_cd_check(2.0, samples, seed)
    assert lattice_cd_check(2.0, np.int64(50), np.uint8(3)) == lattice_cd_check(2.0, 50, 3)
