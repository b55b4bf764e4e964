#!/usr/bin/env python3
"""
02_curvature_search.py

Empirical curvature-dimension verification for the nonlinear diffusion
operator on named graph families. The verifier searches admissible
positive fields on a two-hop ball and measures the worst-case ratio
(-G)^2 / D_{m,alpha}; the condition CD(0, d) holds at a vertex when
that ratio never exceeds d.

Steps:

  1. Complete graphs. For m = 2 the optimal dimension at any vertex of
     the complete graph on D vertices is 2 (D - 1) / D, and for m = 3
     it is m / (m - 1)^2 = 3/4 independent of D. Run the search for a
     range of D and tabulate the empirical optimum against the closed
     form.

  2. The 4-cycle. Every vertex has empirical optimum 4/3 at m = 2.
     Confirm CD(0, 4/3) holds, then ask for CD(0, 1.32) and print the
     violating field the search returns. The witness sits at a corner
     of the admissible region, with every vertex except the base driven
     to zero, where the ratio attains its supremum 4/3.

  3. The 5-path. At the centre vertex the curvature form D_{m,alpha}
     changes sign, so the ratio is unbounded and no finite dimension
     works. The report comes back with optimum infinity.

  4. Chain families. A recursive construction on path graphs produces
     admissible fields whose curvature stays negative as a boundary
     parameter eps goes to zero: value -3/2 for lengths 3 and 4, which
     are exponent-2 constructions, and for length 5 (any m >= 2) a
     finite negative limit that depends on m. Tabulate the eps -> 0
     approach against the closed form limit for m = 2 and m = 3.

The search is stochastic but seeded, so the printed numbers are
reproducible run to run.
"""

from pmelab import (
    cd_ratio,
    chain_counterexample,
    chain_limit_curvature,
    complete_graph,
    empirical_optimal_d,
    path_graph,
    square_graph,
    verify_cd_at,
)


def complete_family():
    print("== 1. complete graphs ==")
    print("   m    D   empirical optimum   closed form")
    for m, sizes in ((2.0, (2, 3, 5, 8)), (3.0, (2, 3, 5))):
        for D in sizes:
            g = complete_graph(D)
            found = empirical_optimal_d(g, m, 0.0, "x1")
            exact = 2.0 * (D - 1) / D if m == 2.0 else m / (m - 1.0) ** 2
            print(f"   {m:.0f}  {D:3d}   {found:.12f}     {exact:.12f}")
    print()


def square_story():
    print("== 2. the 4-cycle ==")
    g = square_graph()
    report = verify_cd_at(g, 2.0, 0.0, 4.0 / 3.0, "x")
    print(f"   CD(0, 4/3) at x: {report.verdict}")
    report = verify_cd_at(g, 2.0, 0.0, 1.32, "x")
    print(f"   CD(0, 1.32) at x: {report.verdict}")
    w = report.witness
    print("   witness field on the two-hop ball:")
    for v in sorted(w.field):
        print(f"      u({v}) = {w.field[v]:.3e}")
    check = cd_ratio(g, 2.0, 0.0, w.to_field(g), "x")
    print(f"   ratio recomputed from the witness field: {check:.9f}")
    print(f"   search estimate of the optimum: {report.empirical_optimal_d:.9f}")
    print()


def path_divergence():
    print("== 3. the 5-path centre ==")
    g = path_graph(5)
    found = empirical_optimal_d(g, 2.0, 0.0, "3")
    print(f"   empirical optimum at the centre: {found}")
    print("   (the curvature form takes both signs, so no finite d works)")
    print()


def chain_families():
    print("== 4. chain families ==")
    for n in (3, 4):
        w = chain_counterexample(n, 2.0, 1e-3)
        print(f"   length {n}, m = 2, eps = 1e-3: curvature {w.curvature:.12f}")
    print("   length 5 approach to the eps -> 0 limit:")
    print("   m    eps      curvature          limit")
    for m in (2.0, 3.0):
        limit = chain_limit_curvature(m)
        for eps in (1e-1, 1e-2, 1e-3):
            w = chain_counterexample(5, m, eps)
            print(f"   {m:.0f}  {eps:7.0e}  {w.curvature:.12f}  {limit:.12f}")
    print()


def main():
    complete_family()
    square_story()
    path_divergence()
    chain_families()
    print("done.")


if __name__ == "__main__":
    main()
