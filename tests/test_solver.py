"""Adaptive integration, closed-form comparison, measures and entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmelab import (
    Measure,
    SolverConfig,
    Trajectory,
    build_graph,
    complete_graph,
    counting_measure,
    entropy_dissipation_residual,
    exact_two_point,
    integrate,
    load_initial_condition,
    path_graph,
    pme_rhs,
    pressure_equation_residual,
    read_trajectory_csv,
    renyi_entropy,
    resolve_graph,
    square_graph,
    write_trajectory_csv,
)
from pmelab.errors import DomainError, StiffnessError, ValidationError


# -- right-hand side -------------------------------------------------------


def test_rhs_is_the_laplacian_of_the_power():
    g = path_graph(3)
    u = np.array([1.0, 2.0, 1.0])
    np.testing.assert_allclose(pme_rhs(g, 2.0, u), [3.0, -6.0, 3.0])


def test_rhs_conserves_mass_on_symmetric_graphs():
    g = square_graph()
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = rng.uniform(0.1, 3.0, g.n)
        assert abs(float(np.sum(pme_rhs(g, 2.5, u)))) < 1e-12


# -- closed-form comparison ------------------------------------------------


def test_exact_two_point_starts_at_the_data_and_relaxes_to_the_mean():
    out0 = exact_two_point(1.2, 0.4, 0.0)
    np.testing.assert_allclose(out0, [1.2, 0.4], rtol=1e-15)
    late = exact_two_point(1.2, 0.4, 50.0)
    np.testing.assert_allclose(late, [0.8, 0.8], rtol=1e-12)


def test_exact_two_point_validates_inputs():
    with pytest.raises(ValidationError):
        exact_two_point(-1.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        exact_two_point(1.0, 1.0, -0.5)


def test_integrate_matches_the_two_point_solution():
    g = complete_graph(2)
    tt = np.linspace(0.0, 5.0, 201)
    traj = integrate(g, 2.0, [1.0, 1e-6], tt)
    exact = exact_two_point(1.0, 1e-6, tt)
    assert float(np.max(np.abs(traj.states - exact))) <= 1e-8


@given(st.integers(min_value=0, max_value=100))
@settings(max_examples=30, deadline=None)
def test_integrate_conserves_mass_and_positivity(seed):
    rng = np.random.default_rng(seed)
    g = [complete_graph(3), path_graph(4), square_graph()][seed % 3]
    m = float(rng.uniform(1.2, 4.0))
    u0 = rng.uniform(0.1, 3.0, g.n)
    traj = integrate(g, m, u0, np.linspace(0.0, 2.0, 9))
    assert np.all(traj.states > 0.0)
    mass = traj.states.sum(axis=1)
    assert float(np.max(np.abs(mass - mass[0]))) <= 1e-9 * mass[0]


def test_integrate_is_deterministic():
    g = square_graph()
    tt = np.linspace(0.1, 1.5, 7)
    a = integrate(g, 3.0, [1.0, 0.4, 0.7, 1.3], tt)
    b = integrate(g, 3.0, [1.0, 0.4, 0.7, 1.3], tt)
    assert np.array_equal(a.states, b.states)


def test_integrate_self_convergence_under_tighter_tolerances():
    g = path_graph(4)
    tt = np.linspace(0.0, 2.0, 5)
    coarse = integrate(g, 3.0, [2.0, 0.5, 1.0, 1.5], tt, SolverConfig(rel_tol=1e-6, abs_tol=1e-6))
    fine = integrate(g, 3.0, [2.0, 0.5, 1.0, 1.5], tt, SolverConfig(rel_tol=1e-12, abs_tol=1e-12))
    assert float(np.max(np.abs(coarse.states - fine.states))) <= 1e-5


def test_dense_output_matches_reported_states():
    g = complete_graph(3)
    tt = np.linspace(0.2, 1.2, 6)
    traj = integrate(g, 2.0, [1.0, 0.5, 1.5], tt)
    for i, t in enumerate(tt):
        np.testing.assert_allclose(traj.state_at(t), traj.states[i], rtol=1e-12)
    mid = traj.state_at(0.7123)
    assert np.all(mid > 0.0)
    assert traj.value(0.2, "x2") == pytest.approx(0.5, rel=1e-12)


def test_dense_output_rejects_times_outside_the_run():
    g = complete_graph(2)
    traj = integrate(g, 2.0, [1.0, 0.5], np.linspace(0.5, 1.0, 4))
    with pytest.raises(DomainError):
        traj.state_at(0.1)


def test_dense_output_at_no_times_is_empty():
    g = square_graph()
    traj = integrate(g, 2.0, [1.0, 0.5, 0.7, 1.2], np.linspace(0.0, 1.0, 5))
    for empty in (np.array([]), []):
        out = traj.dense(empty)
        assert out.shape == (0, g.n) and out.dtype == float


@pytest.mark.parametrize(
    "spec,m",
    [pytest.param(spec, 2.5, id=spec) for spec in ("square", "complete:2", "complete:5", "path:16", "zwindow:10")]
    + [
        pytest.param(spec, m, id=f"{spec}-{m}")
        for spec in ("two-point", "complete:30", "zwindow:100")
        for m in (1.5, 2.0, 3.0)
    ],
)
def test_a_point_query_is_the_dense_row_bit_for_bit(spec, m):
    g = complete_graph(2) if spec == "two-point" else resolve_graph(spec)
    rng = np.random.default_rng(3)
    u0 = [1.0, 1e-6] if spec == "two-point" else rng.uniform(0.5, 1.5, g.n)
    traj = integrate(g, m, u0, np.linspace(0.0 if spec == "two-point" else 0.05, 2.0, 9))
    nodes = traj.dense.ts
    _, lo, hi = traj.dense._range  # the admitted range, a little wider than the nodes
    times = np.concatenate([[lo, hi], nodes, traj.times, rng.uniform(nodes[0], nodes[-1], 200)])
    for t in times:
        row = traj.dense(np.array([t]))[0]
        assert traj.state_at(t).tobytes() == row.tobytes()
        assert traj.dense(t).tobytes() == row.tobytes()
        assert traj.value(t, g.vertices[-1]) == row[-1]
    assert np.array_equal(traj.dense(times), np.array([traj.state_at(t) for t in times]))


def test_a_point_query_returns_a_fresh_array_over_a_read_only_table():
    g = square_graph()
    traj = integrate(g, 2.0, [1.0, 0.5, 0.7, 1.2], np.linspace(0.1, 1.0, 5))
    dense = traj.dense
    assert not (dense.table.flags.writeable or dense.ys.flags.writeable or dense.fs.flags.writeable)
    assert np.shares_memory(dense.ys, dense.table) and np.shares_memory(dense.fs, dense.table)
    with pytest.raises(ValueError):
        dense.table[0, 0] = 2.0
    for t in (dense.ts[1], 0.5 * (dense.ts[1] + dense.ts[2])):
        ys, first = dense.ys.copy(), traj.state_at(t)
        want = first.copy()
        first[:] = -1.0
        assert traj.state_at(t).tobytes() == want.tobytes()
        assert dense(t).tobytes() == want.tobytes()
        assert np.array_equal(dense.ys, ys)
    plain = Trajectory(g, 2.0, traj.times, traj.states.copy())  # no dense data: reads the reported states
    plain.state_at(traj.times[2])[:] = -1.0
    assert np.array_equal(plain.states, traj.states)


def test_the_range_tolerance_is_relative_to_a_late_window():
    t_end = 1000000.0000001
    traj = integrate(square_graph(), 2.0, [1.0, 0.5, 0.7, 1.2], np.linspace(1e6, t_end, 5))
    assert np.all(traj.state_at(np.nextafter(t_end, math.inf)) > 0.0)
    assert np.all(traj.state_at(np.nextafter(1e6, 0.0)) > 0.0)
    with pytest.raises(DomainError):
        traj.state_at(t_end + 8 * math.ulp(t_end))


def test_single_time_request_returns_the_initial_state():
    g = complete_graph(2)
    traj = integrate(g, 2.0, [1.0, 0.5], np.array([0.7]))
    np.testing.assert_allclose(traj.states, [[1.0, 0.5]])


def test_integrate_validates_inputs():
    g = complete_graph(2)
    with pytest.raises(ValidationError):
        integrate(g, 2.0, [1.0, 0.0], np.linspace(0.0, 1.0, 3))
    with pytest.raises(ValidationError):
        integrate(g, 2.0, [1.0, 1.0], np.array([1.0, 0.5]))
    with pytest.raises(ValidationError):
        integrate(g, 2.0, [1.0, 1.0], np.array([-0.5, 1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_integrate_refuses_non_finite_times(monkeypatch, bad):
    calls = _counting_flow(monkeypatch)
    for t_eval in ([0.0, bad], [bad], [-bad, 1.0], [0.0, bad, 1.0]):
        with pytest.raises(ValidationError, match="t_eval must be finite"):
            integrate(square_graph(), 2.0, np.ones(4), t_eval)
    assert calls["all"] == 0


def test_step_underflow_raises_stiffness_error():
    g = complete_graph(2)
    with pytest.raises(StiffnessError) as exc:
        integrate(g, 2.0, [1.0, 0.5], np.linspace(0.0, 1.0, 5), SolverConfig(initial_step=1e-20))
    assert exc.value.t == 0.0


@pytest.mark.parametrize("name", ["max_step", "positivity_floor"])
def test_step_cap_and_positivity_floor_are_not_settable(name):
    with pytest.raises(TypeError):
        SolverConfig(**{name: 0.1})


def test_fast_kernel_over_long_horizon_raises_stiffness_error():
    g = build_graph([("a", "b", 1e9)], symmetrize=True)
    with pytest.raises(StiffnessError):
        integrate(g, 2.0, [1.0, 0.5], np.linspace(0.0, 1e4, 5))


def test_a_stiff_run_stops_at_the_step_budget(monkeypatch):
    # the real budget takes this graph about 8 s to use up; a smaller one
    # shows the same failure in a fraction of that
    import pmelab.solver

    monkeypatch.setattr(pmelab.solver, "_MAX_STEP_ATTEMPTS", 2000)
    g = build_graph([("a", "b", 1e9)], symmetrize=True)
    with pytest.raises(StiffnessError, match="step budget of 2000 attempts ran out") as exc:
        integrate(g, 2.0, [1.0, 0.5], np.linspace(0.0, 1e-2, 11))
    stats = exc.value.stats
    assert stats.accepted_steps + stats.error_rejections + stats.positivity_rejections == 2000
    assert 0.0 < exc.value.t < 1e-5 and stats.h_max < 1e-8


@pytest.mark.parametrize("t0, ulps", [(1e6, 860), (1e6, 50), (3.0, 300)])
def test_step_floor_is_relative_to_the_window(t0, ulps):
    # the old floor, 1e-14 * t_end, exceeded each window or its first step
    g = square_graph()
    u0 = [1.0, 0.5, 0.7, 1.2]
    t_end = t0 + ulps * math.ulp(t0)
    far = integrate(g, 2.0, u0, np.linspace(t0, t_end, 5))
    near = integrate(g, 2.0, u0, np.array([0.0, t_end - t0]))
    assert far.stats.accepted_steps > 0 and far.dense.ts[-1] == t_end
    assert np.all(far.states > 0.0)
    np.testing.assert_allclose(far.states[-1], near.states[-1], rtol=1e-9)


def test_a_window_of_a_few_ulps_is_below_the_step_floor():
    with pytest.raises(StiffnessError) as exc:
        integrate(square_graph(), 2.0, np.ones(4), np.array([1e6, 1e6 + 3 * math.ulp(1e6)]))
    assert exc.value.t == 1e6 and exc.value.stats.rhs_evals == 1


# -- solver statistics -----------------------------------------------------


def _counting_flow(monkeypatch):
    """Count the right-hand side evaluations and the non-finite ones."""
    import pmelab.solver

    calls = {"all": 0, "non_finite": 0}
    flow = pmelab.solver._flow

    def counted(*args):
        out = flow(*args)
        calls["all"] += 1
        calls["non_finite"] += not np.all(np.isfinite(out))
        return out

    monkeypatch.setattr(pmelab.solver, "_flow", counted)
    return calls


def _assert_consistent(stats, calls):
    attempts = stats.accepted_steps + stats.error_rejections + stats.positivity_rejections
    assert stats.rhs_evals == 1 + 5 * attempts + stats.accepted_steps + stats.error_rejections
    assert stats.rhs_evals == calls["all"]


# two-point runs whose rejected steps fail the error test, the positivity
# test, and the finiteness test
_REJECTION_CASES = [
    pytest.param(1.5, [1.0, 1e-12], SolverConfig(), "error", id="error"),
    pytest.param(2.0, [100.0, 1e-12], SolverConfig(initial_step=0.1), "positivity", id="positivity"),
    pytest.param(2.5, [10.0, 1e-12], SolverConfig(initial_step=0.1), "non-finite", id="non-finite"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, u0, config, rejection", _REJECTION_CASES)
def test_rejected_steps_are_counted(monkeypatch, m, u0, config, rejection):
    calls = _counting_flow(monkeypatch)
    tt = np.linspace(0.0, 1.0, 11)
    traj = integrate(complete_graph(2), m, u0, tt, config)
    stats = traj.stats
    _assert_consistent(stats, calls)
    assert stats.accepted_steps == len(traj.dense.ts) - 1
    assert np.all(traj.states > 0.0) and np.all(traj.dense.ys > 0.0)
    if rejection == "error":
        assert stats.error_rejections > 0 and stats.positivity_rejections == 0
    else:
        assert stats.positivity_rejections > 0
        assert (calls["non_finite"] > 0) == (rejection == "non-finite")
    steps = np.diff(traj.dense.ts)
    assert (stats.h_min, stats.h_max) == (steps.min(), steps.max())
    assert stats.h_max <= 1.0 / 20.0 * (1 + 1e-15)


@pytest.mark.filterwarnings("error")
def test_a_constant_state_takes_error_free_growing_steps(monkeypatch):
    calls = _counting_flow(monkeypatch)
    traj = integrate(square_graph(), 3.0, np.full(4, 0.7), np.linspace(0.0, 2.0, 5))
    assert np.all(traj.states == 0.7)
    assert traj.stats.error_rejections == traj.stats.positivity_rejections == 0
    assert traj.stats.h_min == pytest.approx(2.0 / 100.0)
    assert traj.stats.h_max == pytest.approx(2.0 / 20.0)
    _assert_consistent(traj.stats, calls)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec", ["complete:30", "zwindow:100"])
@pytest.mark.parametrize("config", [SolverConfig(), SolverConfig(initial_step=0.5)], ids=["default", "long-first-step"])
def test_rhs_evaluations_are_counted_on_wide_rows(monkeypatch, spec, config):
    # the two largest flow graphs: 30 Laplacian entries in every row of
    # complete:30, 201 vertices on zwindow:100
    calls = _counting_flow(monkeypatch)
    g = resolve_graph(spec)
    traj = integrate(g, 2.0, np.random.default_rng(3).uniform(0.5, 1.5, g.n), np.linspace(0.0, 2.0, 9), config)
    _assert_consistent(traj.stats, calls)
    if config.initial_step is not None:
        assert traj.stats.error_rejections > 0


# -- the step loop against a plain reference -------------------------------


def _reference_run(g, m, u0, t_eval, cfg):
    """The Dormand-Prince loop of :func:`integrate` written plainly, each
    combination ``y + h * (a @ rows)`` in fresh arrays.

    Returns the reported states, the dense table, the step times and the
    :class:`SolverStats`.
    """
    from pmelab.operators import _flow
    from pmelab.solver import _DP_A, _DP_B, _DP_E, _MIN_STEPS, _POSITIVITY_FLOOR, SolverStats, _Dense, _window_slack

    t0, t_end = float(t_eval[0]), float(t_eval[-1])
    span = t_end - t0
    h_floor = _window_slack(t0, t_end, 1e-14)
    max_step = max(span / _MIN_STEPS, h_floor)
    t, y = t0, np.asarray(u0, dtype=float)
    k = np.empty((7, g.n))
    with np.errstate(invalid="ignore", over="ignore"):
        f = _flow(g, g.degree, m, y)
        ts, table = [t], [y, f]
        rhs_evals, error_rejections, positivity_rejections = 1, 0, 0
        if cfg.initial_step is not None:
            h = min(cfg.initial_step, max_step, span)
        else:
            fmax = float(np.max(np.abs(f)))
            h_rate = 0.01 * float(np.max(np.abs(y))) / fmax if fmax > 0 else span
            h = min(max_step, max(span / 100.0, h_floor), h_rate)
        while True:
            h = min(h, t_end - t, max_step)
            assert h >= h_floor
            if t_end - h_floor <= t + h < t_end:
                h = t_end - t
            k[0] = f
            for s in range(5):
                k[s + 1] = _flow(g, g.degree, m, y + h * (_DP_A[s] @ k[: s + 1]))
            rhs_evals += 5
            k[6] = y_new = y + h * (_DP_B @ k[:6])
            if not (np.isfinite(k[1:]).all() and y_new.min() > _POSITIVITY_FLOOR):
                positivity_rejections += 1
                h *= 0.5
                continue
            k[6] = f_new = _flow(g, g.degree, m, y_new)
            rhs_evals += 1
            err = h * (_DP_E @ k)
            scale = cfg.abs_tol + cfg.rel_tol * np.maximum(y, y_new)
            err_norm = math.sqrt(float(((err / scale) ** 2).sum()) / g.n)
            if err_norm <= 1.0:
                t += h
                y, f = y_new, f_new
                ts.append(t)
                table += (y, f)
                if t >= t_end - h_floor:
                    break
                factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm**-0.2))
            else:
                error_rejections += 1
                factor = max(0.2, 0.9 * err_norm**-0.2)
            h *= factor
    ts, table = np.asarray(ts), np.asarray(table)
    stats = SolverStats.of(ts, error_rejections, positivity_rejections, rhs_evals)
    return _Dense(ts, table)(t_eval), table, ts, stats


def _assert_same_bits_as_the_reference(g, m, u0, t_eval, config):
    traj = integrate(g, m, u0, t_eval, config)
    states, table, ts, stats = _reference_run(g, m, u0, t_eval, config)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.dense.table.tobytes() == table.tobytes()
    assert traj.dense.ts.tobytes() == ts.tobytes()
    assert traj.stats == stats


@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("spec", ["two-point", "square", "complete:5", "complete:30", "zwindow:100", "path:16"])
def test_the_step_loop_matches_the_plain_loop_bit_for_bit(spec, m):
    g = complete_graph(2) if spec == "two-point" else resolve_graph(spec)
    u0 = [1.0, 1e-6] if spec == "two-point" else np.random.default_rng(7).uniform(0.5, 1.5, g.n)
    _assert_same_bits_as_the_reference(g, m, u0, np.linspace(0.0, 5.0, 201), SolverConfig())


@pytest.mark.parametrize("m, u0, config, rejection", _REJECTION_CASES)
def test_rejected_steps_match_the_plain_loop_bit_for_bit(m, u0, config, rejection):
    _assert_same_bits_as_the_reference(complete_graph(2), m, u0, np.linspace(0.0, 1.0, 11), config)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("horizon, config", [(1.0, SolverConfig(initial_step=1e-20)), (1e4, None)])
def test_step_underflow_reports_the_stats_so_far(monkeypatch, horizon, config):
    calls = _counting_flow(monkeypatch)
    g = build_graph([("a", "b", 1e9)], symmetrize=True)
    with pytest.raises(StiffnessError) as exc:
        integrate(g, 2.0, [1.0, 0.5], np.linspace(0.0, horizon, 5), config)
    stats = exc.value.stats
    _assert_consistent(stats, calls)
    # both first steps fall below the floor before any stage is evaluated
    assert stats.accepted_steps == 0 and stats.rhs_evals == 1
    assert stats.h_min is None and stats.h_max is None


def test_only_integrated_trajectories_carry_stats(tmp_path):
    g = complete_graph(2)
    assert integrate(g, 2.0, [1.0, 0.5], np.array([0.7])).stats is None
    traj = integrate(g, 2.0, [1.0, 0.5], np.linspace(0.0, 1.0, 3))
    assert traj.stats.to_json_dict()["accepted_steps"] == traj.stats.accepted_steps > 0
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    assert read_trajectory_csv(path, g, 2.0).stats is None


def test_trajectory_validation():
    g = complete_graph(2)
    with pytest.raises(ValidationError):
        Trajectory(g, 2.0, np.array([0.0, 0.0]), np.ones((2, 2)))
    with pytest.raises(ValidationError):
        Trajectory(g, 2.0, np.array([0.0, 1.0]), np.array([[1.0, 1.0], [1.0, -1.0]]))


# -- measures and entropy --------------------------------------------------


def test_counting_measure_is_reversible_for_symmetric_kernels():
    mu = counting_measure(square_graph())
    np.testing.assert_allclose(mu.pi, np.ones(4))


def test_detailed_balance_is_enforced():
    g = build_graph([("a", "b", 2.0), ("b", "a", 1.0)])
    with pytest.raises(ValidationError):
        counting_measure(g)
    balanced = Measure(g, np.array([1.0, 2.0]))
    np.testing.assert_allclose(balanced.pi, [1.0, 2.0])
    # the tolerance is relative to each pair's flux: a tiny weight with no reverse still fails
    one_way = build_graph([("a", "b", 1e-13), ("b", "c", 1.0), ("c", "b", 1.0)])
    with pytest.raises(ValidationError):
        Measure(one_way, np.ones(3))


def test_renyi_entropy_value_and_sign():
    g = complete_graph(2)
    mu = counting_measure(g)
    # sum u^m pi / (m (m-1)) with m = 2: (1 + 4) / 2
    assert renyi_entropy(g, 2.0, [1.0, 2.0], mu) == pytest.approx(2.5, rel=1e-15)


def test_renyi_entropy_decreases_along_the_flow():
    g = square_graph()
    mu = counting_measure(g)
    traj = integrate(g, 2.0, [1.5, 0.3, 0.8, 1.1], np.linspace(0.0, 2.0, 21))
    ent = [renyi_entropy(g, 2.0, u, mu) for u in traj.states]
    assert all(b <= a + 1e-12 for a, b in zip(ent, ent[1:]))


def test_entropy_dissipation_residual_is_small_on_a_fine_grid():
    g = complete_graph(3)
    mu = counting_measure(g)
    tt = 0.1 + 1e-3 * np.arange(201)
    traj = integrate(g, 2.0, [1.0, 0.6, 1.4], tt)
    assert entropy_dissipation_residual(traj, mu) <= 1e-4


def test_entropy_dissipation_residual_needs_three_times():
    g = complete_graph(2)
    traj = integrate(g, 2.0, [1.0, 0.5], np.array([0.0, 1.0]))
    with pytest.raises(ValidationError):
        entropy_dissipation_residual(traj, counting_measure(g))


def test_entropy_dissipation_residual_refuses_an_ulp_narrow_grid():
    g = square_graph()
    traj = integrate(g, 2.0, [1.0, 0.5, 0.7, 1.2], np.linspace(1e6, 1000000.0000001, 201))
    with pytest.raises(ValidationError, match=r"grid spacing 4\.66e-10 at t=1e\+06 is only 4 ulps wide"):
        entropy_dissipation_residual(traj, counting_measure(g))


def test_pressure_equation_residual_is_floating_point_small():
    g = path_graph(4)
    traj = integrate(g, 3.0, [1.0, 0.4, 0.9, 1.6], np.linspace(0.1, 1.1, 11))
    assert pressure_equation_residual(traj) <= 1e-9


# -- file formats ----------------------------------------------------------


def test_trajectory_csv_round_trip_is_exact(tmp_path):
    g = square_graph()
    traj = integrate(g, 2.0, [1.0, 0.5, 1.5, 0.8], np.linspace(0.3, 1.7, 6))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path, g, 2.0)
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.states, traj.states)


def test_trajectory_csv_header_must_match_graph(tmp_path):
    g = square_graph()
    traj = integrate(g, 2.0, np.ones(4), np.linspace(0.0, 1.0, 3))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    with pytest.raises(ValidationError):
        read_trajectory_csv(path, complete_graph(4), 2.0)


def test_load_initial_condition_reads_vertex_value_pairs(tmp_path):
    g = path_graph(3)
    path = tmp_path / "u0.txt"
    path.write_text("# state\n1 0.5\n2 1.5\n3 2.5\n")
    np.testing.assert_allclose(load_initial_condition(path, g), [0.5, 1.5, 2.5])


def test_load_initial_condition_requires_every_vertex(tmp_path):
    g = path_graph(3)
    path = tmp_path / "u0.txt"
    path.write_text("1 0.5\n2 1.5\n")
    with pytest.raises(ValidationError):
        load_initial_condition(path, g)
