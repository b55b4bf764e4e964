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


def test_step_underflow_raises_stiffness_error():
    g = complete_graph(2)
    with pytest.raises(StiffnessError) as exc:
        integrate(g, 2.0, [1.0, 0.5], np.linspace(0.0, 1.0, 5), SolverConfig(initial_step=1e-20))
    assert exc.value.t == 0.0


def test_fast_kernel_over_long_horizon_raises_stiffness_error():
    g = build_graph([("a", "b", 1e9)], symmetrize=True)
    with pytest.raises(StiffnessError):
        integrate(g, 2.0, [1.0, 0.5], np.linspace(0.0, 1e4, 5))


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "m, u0, config, rejection",
    [
        (1.5, [1.0, 1e-12], SolverConfig(), "error"),
        (2.0, [100.0, 1e-12], SolverConfig(initial_step=0.1), "positivity"),
        (2.5, [10.0, 1e-12], SolverConfig(initial_step=0.1), "non-finite"),
    ],
    ids=["error", "positivity", "non-finite"],
)
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
