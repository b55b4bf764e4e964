#!/usr/bin/env python3
"""
03_regularity_estimates.py

Check the differential and integral regularity estimates for the
nonlinear diffusion flow on graphs that satisfy CD(0, d).

Steps:

  1. Aronson-Benilan bound. On the 4-cycle with d = 4/3 the pressure
     v = (m/(m-1)) u^{m-1} obeys -Lv <= d/t pointwise along the flow
     (ab_check at alpha = 0, where the mixed Laplacian G is Lv). Run a
     generic positive initial condition, evaluate the slack d/t + Lv at
     every checked time and vertex, and report the minimum (nonnegative
     up to tolerance means the bound holds).

  2. The 1/t rate on two points. On the two-point graph, which
     satisfies CD(0, 1) at m = 2, the same bound reads t * (-Lv) <= 1.
     For a near-degenerate initial condition the supremum over time of
     t * (-Lv) tends to 1/e, below that bound. Print the observed
     supremum next to 1/e and the bound d = 1.

  3. Differential Harnack form. The same machinery with lambda = 0 and
     the mu-weighted version of the bound; confirm the slack stays
     nonnegative along the trajectory.

  4. Two-point Harnack comparison. Values at different vertices and
     times satisfy v(x1, t1) - v(x2, t2) <= RHS where the right-hand
     side can be computed per geodesic edge (path form) or from the hop
     distance and the weakest edge (distance form). The path form is
     never larger, and strictly smaller as soon as edge weights differ,
     so the check takes the least path form alone. Sample seeded
     (t1, t2, x1, x2) tuples with t1 < t2, check the inequality, and
     report the worst slack; then compare the two forms on adjacent
     pairs and show the strict gap on a 3-path with unequal weights.

All checks here run with lambda = 0; the checkers raise LambdaOneError
for lambda = 1, where the time reparametrisation behind the bound
degenerates.

Expected behaviour: minimum slacks at or above -1e-8 everywhere, and a
sharpness supremum within one percent of 1/e = 0.36787944...
"""

import math

import numpy as np

from pmelab import (
    ab_check,
    build_graph,
    diff_harnack_residual,
    harnack_check,
    harnack_rhs_distance,
    harnack_rhs_path,
    integrate,
    laplacian_field,
    path_graph,
    pressure,
    square_graph,
)
from pmelab.cli import sample_check_tuples

M_EXPONENT = 2.0
DIMENSION = 4.0 / 3.0
SEED = 5


def time_derivative_bound():
    print("== 1. Aronson-Benilan bound -Lv <= d/t on the 4-cycle ==")
    g = square_graph()
    rng = np.random.default_rng(SEED)
    u0 = rng.uniform(0.5, 1.5, len(g.vertices))
    times = np.linspace(0.05, 5.0, 201)
    traj = integrate(g, M_EXPONENT, u0, times)
    report = ab_check(traj, 0.0, DIMENSION)
    print(f"   passed       {report.passed}")
    print(f"   min slack    {report.min_slack:.3e}")
    print(
        f"   attained at  t = {report.argmin['t']:.4f},"
        f" vertex {report.argmin['vertex']}"
    )
    print()
    return traj


def sharpness():
    print("== 2. the 1/t rate on two points ==")
    g = path_graph(2)
    # the 1/t in the bound counts from the initial condition, so the
    # integration must start at t = 0 exactly
    times = np.linspace(0.0, 5.0, 4000)
    traj = integrate(g, M_EXPONENT, np.array([1.0, 1e-6]), times)
    neg_lap = -laplacian_field(g, pressure(M_EXPONENT, traj.states))
    best = float(np.max(times[:, None] * neg_lap))
    print(f"   sup over the grid of t * (-Lv)  {best:.12f}")
    print(f"   1/e                             {1.0 / math.e:.12f}")
    print(f"   checked bound d at d = 1        {1.0:.12f}")
    print()


def differential_harnack(traj):
    print("== 3. differential Harnack form ==")
    report = diff_harnack_residual(traj, 0.0, DIMENSION)
    print(f"   passed       {report.passed}")
    print(f"   min slack    {report.min_slack:.3e}")
    print()


def two_point_harnack():
    print("== 4. two-point Harnack comparison ==")
    g = square_graph()
    rng = np.random.default_rng(SEED + 1)
    u0 = rng.uniform(0.5, 1.5, len(g.vertices))
    times = np.linspace(0.1, 5.0, 400)
    traj = integrate(g, M_EXPONENT, u0, times)
    pairs = sample_check_tuples(g, rng, 60, 0.1, 5.0)
    report = harnack_check(traj, DIMENSION, 0.0, pairs)
    print(f"   {len(pairs)} sampled (t1, t2, x1, x2) tuples")
    print(f"   passed       {report.passed}")
    print(f"   min slack    {report.min_slack:.3e}")
    gap = -math.inf
    compared = 0
    for t1, t2, x1, x2 in pairs:
        if x2 not in g.neighbors(x1):
            continue
        dist = harnack_rhs_distance(g, DIMENSION, 0.0, t1, t2, x1, x2)
        path = harnack_rhs_path(g, M_EXPONENT, DIMENSION, 0.0, t1, t2, [x1, x2])
        gap = max(gap, path - dist)
        compared += 1
    print(f"   max (path form - distance form) over {compared} adjacent pairs: {gap:.3e}")
    print("   (unit weights make the forms agree to rounding on this graph)")

    weighted = build_graph([("a", "b", 1.0), ("b", "c", 4.0)], symmetrize=True)
    t1, t2 = 0.5, 2.0
    dist = harnack_rhs_distance(weighted, DIMENSION, 0.0, t1, t2, "a", "c")
    path = harnack_rhs_path(
        weighted, M_EXPONENT, DIMENSION, 0.0, t1, t2, ["a", "b", "c"]
    )
    print("   on a 3-path with edge weights 1 and 4 (a - b - c, t1 = 0.5, t2 = 2):")
    print(f"      distance form (uses the weakest edge twice)  {dist:.6f}")
    print(f"      path form (uses each edge's own weight)      {path:.6f}")
    print()


def main():
    traj = time_derivative_bound()
    sharpness()
    differential_harnack(traj)
    two_point_harnack()
    print("done.")


if __name__ == "__main__":
    main()
