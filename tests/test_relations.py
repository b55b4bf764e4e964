"""Metamorphic relations: how a result must change when its input changes in a known way.

Each relation compares two runs of the library and needs no closed form.

* Locality.  The CD search at a vertex reads only its two-hop ball, in
  graph order, so appending a disjoint component after the graph leaves the
  ball, its kernel and every sampled field as they were: the report is the
  same, bit for bit, because the arithmetic is the same.
* Relabelling.  On ``square`` at m = 2 the supremum of ``cd_ratio`` at a
  vertex, 4/3, is reached on every face where one ball vertex carries the
  field and all others are pinned at 0; there the ratio does not depend on
  the free value, and its score rounds to within one ulp of 4/3 (measured on
  20 000 values of every such face at each vertex, in all 24 vertex orders:
  only 4/3 and its two neighbouring floats occur).  A relabelled search
  samples other fields, but both reach such a face, so the two values agree
  to two ulps of 4/3.
* Symmetry.  Every permutation of ``complete:12`` is an automorphism, so
  the optimal ``d`` is the same at every vertex: the closed form
  ``2(D - 1)/D = 11/6`` at m = 2.  Each vertex's search samples other
  fields of its ball, and every value lies within four ulps of 11/6 (the
  worst measured over seeds 0-1 is three, 6.7e-16).
* Time translation.  The flow is autonomous, and the integrator reads the
  time only through the span of its window: its step cap is a twentieth of
  the span, and its step floor 1e-14 of the span (four ulps of ``t_end``,
  7e-15 at 15, are less).  So a start integrated over [0, 5] and over
  [10, 15] takes the same steps from the same states.  Only the times differ: each step's end time is rounded
  to an ulp of at most 15 (half an ulp per step, so after ``N`` steps a
  step time is off by at most ``N ulp(15) / 2``), and so is each grid time.
  A time off by ``delta`` moves an interpolated state by at most ``delta``
  times the largest rate ``|L(u^m)|`` of the run, and each Hermite sum of
  four rows adds a few roundings of the largest state.  So the states agree
  to ``(N + 2) ulp(15) max|L(u^m)| + 8 eps max|u|``; the measured worst is
  under 2% of that bound.
"""

import math

import numpy as np
import pytest

from pmelab import (
    Graph,
    SearchConfig,
    build_graph,
    complete_graph,
    empirical_optimal_d,
    integrate,
    pme_rhs,
    resolve_graph,
    square_graph,
    verify_cd_at,
)

_SQUARE_EDGES = [("x", "y1", 1.0), ("x", "y2", 1.0), ("z", "y1", 1.0), ("z", "y2", 1.0)]
_PATH_3_EDGES = [("p1", "p2", 1.0), ("p2", "p3", 1.0)]


@pytest.mark.parametrize("seed", range(5))
def test_a_disjoint_component_leaves_the_cd_report_unchanged(seed):
    union = build_graph(_SQUARE_EDGES + _PATH_3_EDGES, symmetrize=True)
    assert union.vertices[:4] == square_graph().vertices
    search = SearchConfig(seed=seed)
    alone = verify_cd_at(square_graph(), 2.0, 0.0, 4.0 / 3.0, "x", search)
    assert verify_cd_at(union, 2.0, 0.0, 4.0 / 3.0, "x", search).to_json_dict() == alone.to_json_dict()


def _relabelled(g: Graph, order) -> Graph:
    """``g`` with its vertices stored in ``order``: the same weights between the same names."""
    dense = np.zeros((g.n, g.n))
    dense[g.rows, g.indices] = g.data
    idx = [g.index(v) for v in order]
    return Graph(order, dense[np.ix_(idx, idx)])


@pytest.mark.parametrize("seed", range(3))
def test_relabelling_the_square_keeps_its_optimal_d_at_every_vertex(seed):
    square = square_graph()
    relabelled = _relabelled(square, ("y2", "z", "x", "y1"))
    assert relabelled.vertices != square.vertices
    search = SearchConfig(seed=seed)
    for x in square.vertices:
        d = empirical_optimal_d(square, 2.0, 0.0, x, search)
        assert abs(empirical_optimal_d(relabelled, 2.0, 0.0, x, search) - d) <= 2 * np.spacing(4.0 / 3.0)


@pytest.mark.parametrize("seed", range(2))
def test_every_vertex_of_a_complete_graph_has_the_same_optimal_d(seed):
    g = complete_graph(12)
    search = SearchConfig(seed=seed)
    for x in g.vertices:
        assert abs(empirical_optimal_d(g, 2.0, 0.0, x, search) - 11.0 / 6.0) <= 4 * np.spacing(11.0 / 6.0), x


@pytest.mark.parametrize("spec", ["square", "path:6", "complete:5"])
@pytest.mark.parametrize("m", [1.5, 2.0, 3.0])
def test_a_later_window_integrates_the_same_start_to_the_same_states(spec, m):
    g = resolve_graph(spec)
    grid = np.linspace(0.0, 5.0, 51)
    for seed in range(5):
        u0 = np.random.default_rng(seed).uniform(0.5, 1.5, g.n)
        early, late = integrate(g, m, u0, grid), integrate(g, m, u0, grid + 10.0)
        steps = early.stats.accepted_steps
        assert late.stats.accepted_steps == steps
        rate = max(np.abs(pme_rhs(g, m, y)).max() for y in early.dense.ys)
        size = np.abs(early.states).max()
        bound = (steps + 2) * math.ulp(15.0) * rate + 8 * np.finfo(float).eps * size
        assert np.abs(late.states - early.states).max() <= bound, (seed, bound)
