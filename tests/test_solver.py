"""Adaptive integration, closed-form comparison, measures and entropy."""

import dataclasses
import inspect
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmelab import (
    Measure,
    SolverConfig,
    SolverStats,
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


@pytest.mark.parametrize(
    "a1,a2,t,match",
    [
        (math.inf, 1.0, 0.5, "a1 and a2"),
        (1.0, math.inf, 0.5, "a1 and a2"),
        (math.nan, 1.0, 0.5, "a1 and a2"),
        (1.0, 1.0, math.nan, "time t"),
        (1.0, 1.0, math.inf, "time t"),
        (1.0, 1.0, [0.5, math.nan], "time t"),
    ],
)
def test_exact_two_point_refuses_non_finite_input(a1, a2, t, match):
    with pytest.raises(ValidationError, match=match):
        exact_two_point(a1, a2, t)


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


def test_dense_output_refuses_an_array_reaching_outside_the_run():
    g = complete_graph(2)
    traj = integrate(g, 2.0, [1.0, 0.5], np.linspace(0.5, 1.0, 4))
    for times in ([0.6, 0.1], np.array([0.7, 2.0])):
        with pytest.raises(DomainError, match="time outside the integrated range"):
            traj.dense(times)


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


def _traced_peak(fn):
    """``fn()`` and the peak of the memory it allocated, as ``tracemalloc`` saw it."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _wide_run():
    g = resolve_graph("zwindow:200")
    return g, np.random.default_rng(0).uniform(0.5, 1.5, g.n), np.linspace(0.1, 1.0, 2001)


def test_integrate_holds_one_output_sized_temporary_beside_its_results():
    # the states, the step table and one gathered row set of the grid read
    g, u0, ts = _wide_run()
    traj, peak = _traced_peak(lambda: integrate(g, 2.0, u0, ts))
    states, table = traj.states.nbytes, traj.dense.table.nbytes
    assert peak <= 2.5 * states + table, (peak - table) / states


def test_a_dense_grid_read_holds_one_output_sized_temporary():
    g, u0, ts = _wide_run()
    traj = integrate(g, 2.0, u0, ts)
    out, peak = _traced_peak(lambda: traj.dense(ts))
    assert peak <= 2.5 * out.nbytes, peak / out.nbytes
    assert out.tobytes() == traj.states.tobytes()


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
    with pytest.raises(ValidationError, match="t_eval must be a nonempty 1-d array"):
        integrate(g, 2.0, [1.0, 1.0], np.array([]))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_integrate_refuses_non_finite_times(monkeypatch, bad):
    calls = _counting_flow(monkeypatch)
    for t_eval in ([0.0, bad], [bad], [-bad, 1.0], [0.0, bad, 1.0]):
        with pytest.raises(ValidationError, match="t_eval must be finite"):
            integrate(square_graph(), 2.0, np.ones(4), t_eval)
    assert calls["all"] == 0


# a pair whose first step, 0.01 / (0.75e300), is under the floor of [0, 1]
_FASTEST_PAIR = build_graph([("a", "b", 1e300)], symmetrize=True)

# two pairs, one 1e5 times faster than the other: on [0, 1] at m = 2 the run
# takes 14 error rejections and, where the fast pair's low value drops
# towards 0, one positivity rejection
_TWO_PAIRS = build_graph([("a", "b", 1.0), ("c", "d", 1e5)], symmetrize=True)
_TWO_PAIRS_START = [1.0, 1e-9, 0.005, 1e-9]


def test_step_underflow_raises_stiffness_error():
    with pytest.raises(StiffnessError) as exc:
        integrate(_FASTEST_PAIR, 2.0, [1.0, 0.5], np.linspace(0.0, 1.0, 5))
    assert exc.value.t == 0.0


@pytest.mark.parametrize("name", ["max_step", "positivity_floor", "initial_step"])
def test_step_cap_and_positivity_floor_are_not_settable(name):
    # the first step has one rule, so no field sets it either
    with pytest.raises(TypeError):
        SolverConfig(**{name: 0.1})
    assert [f.name for f in dataclasses.fields(SolverConfig)] == ["rel_tol", "abs_tol"]


def test_a_stiffness_error_always_carries_its_stats():
    assert list(inspect.signature(StiffnessError).parameters) == ["t", "message", "stats"]
    for args in ((0.0,), (0.0, "step size underflow at t=0")):
        with pytest.raises(TypeError):
            StiffnessError(*args)
    with pytest.raises(StiffnessError) as exc:
        integrate(_FASTEST_PAIR, 2.0, [1.0, 0.5], np.linspace(0.0, 1.0, 5))
    assert exc.value.stats == SolverStats.of([0.0], 0, 0)


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("value", [0.0, -1e-10, math.nan, math.inf])
def test_tolerances_must_be_positive_and_finite(name, value):
    with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
        SolverConfig(**{name: value})


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


def test_the_step_budget_admits_exactly_its_count_of_attempts(monkeypatch):
    import pmelab.solver

    args = (_TWO_PAIRS, 2.0, _TWO_PAIRS_START, np.linspace(0.0, 1.0, 11))
    calls = _counting_flow(monkeypatch)
    stats = integrate(*args).stats
    _assert_consistent(stats, calls)
    assert stats.error_rejections > 0 and stats.positivity_rejections > 0
    attempts = stats.accepted_steps + stats.error_rejections + stats.positivity_rejections
    monkeypatch.setattr(pmelab.solver, "_MAX_STEP_ATTEMPTS", attempts)
    assert integrate(*args).stats == stats
    monkeypatch.setattr(pmelab.solver, "_MAX_STEP_ATTEMPTS", attempts - 1)
    calls["all"] = 0
    with pytest.raises(StiffnessError, match=f"step budget of {attempts - 1} attempts ran out") as exc:
        integrate(*args)
    short = exc.value.stats
    assert short.accepted_steps + short.error_rejections + short.positivity_rejections == attempts - 1
    _assert_consistent(short, calls)


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


def _counting_flow(monkeypatch, poison=()):
    """Count the right-hand side evaluations and the non-finite ones.

    The calls whose count (from 1) is in ``poison`` return ``nan`` at the
    first vertex, as a stage that overflowed would.
    """
    import pmelab.solver

    calls = {"all": 0, "non_finite": 0}
    flow = pmelab.solver._flow

    def counted(*args):
        out = flow(*args)
        calls["all"] += 1
        if calls["all"] in poison:
            out[0] = math.nan
        calls["non_finite"] += not np.all(np.isfinite(out))
        return out

    monkeypatch.setattr(pmelab.solver, "_flow", counted)
    return calls


def _assert_consistent(stats, calls):
    attempts = stats.accepted_steps + stats.error_rejections + stats.positivity_rejections
    assert stats.rhs_evals == 1 + 5 * attempts + stats.accepted_steps + stats.error_rejections
    assert stats.rhs_evals == calls["all"]


# runs whose rejected steps fail the error test, the positivity test, and
# the finiteness test (one stage of the second step attempt made non-finite)
_REJECTION_CASES = [
    pytest.param(complete_graph(2), 1.5, [1.0, 1e-12], (), "error", id="error"),
    pytest.param(_TWO_PAIRS, 2.0, _TWO_PAIRS_START, (), "positivity", id="positivity"),
    pytest.param(complete_graph(2), 2.5, [10.0, 1e-12], (10,), "non-finite", id="non-finite"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("g, m, u0, poison, rejection", _REJECTION_CASES)
def test_rejected_steps_are_counted(monkeypatch, g, m, u0, poison, rejection):
    calls = _counting_flow(monkeypatch, poison)
    tt = np.linspace(0.0, 1.0, 11)
    traj = integrate(g, m, u0, tt)
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
@pytest.mark.parametrize("spread", [(0.5, 1.5), (0.99, 1.01)], ids=["default", "long-first-step"])
def test_rhs_evaluations_are_counted_on_wide_rows(monkeypatch, spec, spread):
    # the two largest flow graphs: 30 Laplacian entries in every row of
    # complete:30, 201 vertices on zwindow:100; a start within 1% of
    # constant moves slowly, so its first step is near the longest the
    # rule takes, span / 100, and the error test rejects a step
    calls = _counting_flow(monkeypatch)
    g = resolve_graph(spec)
    traj = integrate(g, 2.0, np.random.default_rng(3).uniform(*spread, g.n), np.linspace(0.0, 2.0, 9))
    _assert_consistent(traj.stats, calls)
    if spread == (0.99, 1.01):
        assert traj.stats.error_rejections > 0


# -- the step loop against a plain reference -------------------------------


def _reference_run(g, m, u0, t_eval, cfg):
    """The Dormand-Prince loop of :func:`integrate` written plainly, each
    combination ``y + h * (a @ rows)`` in fresh arrays.

    Returns the reported states, the dense table, the step times and the
    :class:`SolverStats`.
    """
    from pmelab.operators import _window_slack
    from pmelab.solver import _DP_A, _DP_B, _DP_E, _MIN_STEPS, _POSITIVITY_FLOOR, SolverStats, _Dense, _flow

    t0, t_end = float(t_eval[0]), float(t_eval[-1])
    span = t_end - t0
    h_floor = _window_slack(t0, t_end, 1e-14)
    max_step = max(span / _MIN_STEPS, h_floor)
    t, y = t0, np.asarray(u0, dtype=float)
    k = np.empty((7, g.n))
    with np.errstate(invalid="ignore", over="ignore"):
        f = _flow(g, m, y)
        ts, table = [t], [y, f]
        error_rejections, positivity_rejections = 0, 0
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
                k[s + 1] = _flow(g, m, y + h * (_DP_A[s] @ k[: s + 1]))
            k[6] = y_new = y + h * (_DP_B @ k[:6])
            if not (np.isfinite(k[1:]).all() and y_new.min() > _POSITIVITY_FLOOR):
                positivity_rejections += 1
                h *= 0.5
                continue
            k[6] = f_new = _flow(g, m, y_new)
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
    stats = SolverStats.of(ts, error_rejections, positivity_rejections)
    return _Dense(ts, table)(t_eval), table, ts, stats


def _assert_same_bits_as_the_reference(g, m, u0, t_eval, config, calls=None):
    traj = integrate(g, m, u0, t_eval, config)
    if calls is not None:
        calls["all"] = 0  # so a poisoned call is poisoned in both runs
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


@pytest.mark.parametrize("g, m, u0, poison, rejection", _REJECTION_CASES)
def test_rejected_steps_match_the_plain_loop_bit_for_bit(monkeypatch, g, m, u0, poison, rejection):
    calls = _counting_flow(monkeypatch, poison)
    _assert_same_bits_as_the_reference(g, m, u0, np.linspace(0.0, 1.0, 11), SolverConfig(), calls)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weight, horizon", [(1e300, 1.0), (1e9, 1e4)], ids=["fastest-pair", "long-horizon"])
def test_step_underflow_reports_the_stats_so_far(monkeypatch, weight, horizon):
    calls = _counting_flow(monkeypatch)
    g = build_graph([("a", "b", weight)], symmetrize=True)
    with pytest.raises(StiffnessError) as exc:
        integrate(g, 2.0, [1.0, 0.5], np.linspace(0.0, horizon, 5))
    stats = exc.value.stats
    _assert_consistent(stats, calls)
    # both first steps fall below the floor before any stage is evaluated
    assert stats.accepted_steps == 0 and stats.rhs_evals == 1
    assert stats.h_min is None and stats.h_max is None


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("u0, m", [([1e308, 1e308], 2.0), ([1e200, 1.0], 3.0)])
def test_a_start_whose_right_hand_side_is_not_finite_is_refused(monkeypatch, u0, m):
    # u0^m overflows, so every step from u0 would fail; the start is refused after one evaluation
    calls = _counting_flow(monkeypatch)
    with pytest.raises(ValidationError, match=r"^the right-hand side L\(u0\^m\) of the initial state is not finite$"):
        integrate(complete_graph(2), m, u0, np.linspace(0.0, 1.0, 5))
    assert calls == {"all": 1, "non_finite": 1}


@pytest.mark.filterwarnings("error")
def test_step_underflow_after_accepted_steps_reports_their_stats(monkeypatch):
    # from its 20th call on the flow is non-finite, so every later step is
    # rejected and halved until it falls below the floor
    calls = _counting_flow(monkeypatch, poison=range(20, sys.maxsize))
    with pytest.raises(StiffnessError, match="step size underflow") as exc:
        integrate(complete_graph(2), 2.0, [1.0, 0.5], np.linspace(0.0, 1.0, 5))
    stats = exc.value.stats
    _assert_consistent(stats, calls)
    assert stats.accepted_steps > 0 and stats.positivity_rejections > 40 and stats.error_rejections == 0
    assert 0.0 < exc.value.t < 1.0


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
    with pytest.raises(ValidationError, match="times must be a nonempty 1-d array"):
        Trajectory(g, 2.0, np.array([]), np.ones((0, 2)))
    with pytest.raises(ValidationError, match="states shape does not match times and graph"):
        Trajectory(g, 2.0, np.array([0.0, 1.0]), np.ones((2, 3)))


# each bad time sits where the strictly increasing test alone would let it pass
NON_FINITE_TIMES = {"nan": [0.1, math.nan, 1.0], "inf": [0.1, 1.0, math.inf], "-inf": [-math.inf, 0.1, 1.0]}


@pytest.mark.parametrize("times", NON_FINITE_TIMES.values(), ids=NON_FINITE_TIMES.keys())
def test_trajectory_refuses_non_finite_times(tmp_path, times):
    g = path_graph(2)
    with pytest.raises(ValidationError, match="times must be finite"):
        Trajectory(g, 2.0, times, np.ones((3, 2)))
    path = tmp_path / "traj.csv"
    path.write_text("t,1,2\n" + "".join(f"{t!r},1.0,1.0\n" for t in times))
    with pytest.raises(ValidationError, match="times must be finite"):
        read_trajectory_csv(path, g, 2.0)


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
    with pytest.raises(ValidationError, match="measure must be strictly positive and finite"):
        Measure(g, np.array([1.0, 0.0]))


def test_renyi_entropy_value_and_sign():
    g = complete_graph(2)
    mu = counting_measure(g)
    # sum u^m pi / (m (m-1)) with m = 2: (1 + 4) / 2
    assert renyi_entropy(g, 2.0, [1.0, 2.0], mu) == pytest.approx(2.5, rel=1e-15)
    with pytest.raises(DomainError, match="density must be nonnegative"):
        renyi_entropy(g, 2.0, [1.0, -1.0], mu)


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


def test_a_measure_on_another_graph_object_is_checked_against_the_graph_read():
    # pi = (1, 2) balances a -> b 2, b -> a 1, but not the symmetric unit kernel
    g, u = complete_graph(2), [1.0, 2.0]
    same = counting_measure(complete_graph(2))
    lopsided = Measure(build_graph([("a", "b", 2.0), ("b", "a", 1.0)]), np.array([1.0, 2.0]))
    assert renyi_entropy(g, 2.0, u, same) == renyi_entropy(g, 2.0, u, counting_measure(g))
    traj = integrate(g, 2.0, u, np.linspace(0.1, 0.3, 21))
    assert entropy_dissipation_residual(traj, same) == entropy_dissipation_residual(traj, counting_measure(g))
    with pytest.raises(ValidationError, match="detailed balance"):
        renyi_entropy(g, 2.0, u, lopsided)
    with pytest.raises(ValidationError, match="detailed balance"):
        entropy_dissipation_residual(traj, lopsided)


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
    path.write_text("t,x,y1,y2,z\n")
    with pytest.raises(ValidationError) as err:
        read_trajectory_csv(path, g, 2.0)
    assert str(err.value) == f"{path}: no data rows"


@pytest.mark.parametrize(
    "body,message",
    [
        (b"0.1,1.0,abc\n", ":3: could not convert string to float: 'abc'"),
        (b"0.1,1.0\n", ":3: expected 3 fields, got 2"),
        (b"\n0.1,1.0,2.0,3.0\n", ":4: expected 3 fields, got 4"),
        (b"0.1,1.0,\xff\n", ": not a UTF-8 text file"),
        # Trajectory's own tests name the first line that fails them
        (b"0.1,1.0,1.0\ninf,1.0,1.0\n", ":4: times must be finite"),
        (b"0.1,1.0,1.0\n0.1,1.0,1.0\n0.2,1.0,1.0\n", ":4: times must be strictly increasing"),
        (b"0.1,0.0,1.0\n0.2,nan,1.0\n", ":3: states must be strictly positive and finite"),
        (b"0.1,1.0,1.0\n\n0.2,1.0,nan\n", ":5: states must be strictly positive and finite"),
    ],
)
def test_trajectory_csv_refuses_a_bad_row_by_its_line(tmp_path, body, message):
    path = tmp_path / "traj.csv"
    path.write_bytes(b"t,1,2\n0.05,1.0,2.0\n" + body)
    with pytest.raises(ValidationError) as err:
        read_trajectory_csv(path, path_graph(2), 2.0)
    assert str(err.value) == f"{path}{message}"


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


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 0.5\n2 1.5\n", ": no value for vertices ['3']"),
        ("2 1.5\n", ": no value for vertices ['1', '3']"),
        ("1 0.5\n\n2 -1\n3 2.5\n", ":3: value '-1' is not strictly positive and finite"),
        ("1 0.5\n2 0\n3 2.5\n", ":2: value '0' is not strictly positive and finite"),
        ("1 nan\n2 1.5\n3 2.5\n", ":1: value 'nan' is not strictly positive and finite"),
        ("1 0.5\n2 1.5\n3 inf\n", ":3: value 'inf' is not strictly positive and finite"),
    ],
)
def test_load_initial_condition_names_the_file_of_a_missing_or_bad_value(tmp_path, text, message):
    path = tmp_path / "u0.txt"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        load_initial_condition(path, path_graph(3))
    assert str(err.value) == f"{path}{message}"


@pytest.mark.parametrize("record", ["2", "2 1.5 7"])
def test_an_initial_condition_record_with_the_wrong_field_count_names_its_line(tmp_path, record):
    path = tmp_path / "u0.txt"
    path.write_text("# state\n1 0.5  # comment\n\n%s\n3 2.5\n" % record)
    with pytest.raises(ValidationError) as exc:
        load_initial_condition(path, path_graph(3))
    assert str(exc.value) == f"{path}:4: expected '<vertex> <value>'"


@pytest.mark.parametrize(
    "text,message",
    [
        ("1 0.5\nzz 5\n2 1.5\n3 2.5\n", ":2: unknown vertex 'zz'"),
        ("1 0.5\n2 1.5\n3 2.5\n1 7\n", ":4: vertex '1' given twice"),
    ],
)
def test_load_initial_condition_refuses_unknown_and_repeated_vertices(tmp_path, text, message):
    path = tmp_path / "u0.txt"
    path.write_text(text)
    with pytest.raises(ValidationError, match=re.escape(f"{path}{message}")):
        load_initial_condition(path, path_graph(3))
