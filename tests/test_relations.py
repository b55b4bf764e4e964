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
* Composition.  On a disjoint union of two graphs each row of the kernel
  is a row of one component, with its columns shifted, so the right-hand
  side ``L(u^m)``, the Laplacian and the kernel sums, restricted to a
  component, add the same terms in the same order as on the component
  alone: they agree bit for bit.  The union of ``complete:30`` and
  ``path:3`` interleaves rows of 29 entries with rows of 1 and 2 in one
  slot-major table.  (A
  trajectory on the union takes other steps, as its error norm runs over
  every vertex, so its states agree only to the integrator's global error.)
* Harnack locality and relabelling.  A pair's Harnack slack reads the
  states at its two times and the least path form over paths between its
  two vertices, which stay in their component and add the same terms in
  path order whatever the vertex order.  So on a trajectory given by its
  states at reported times, with no dense data, adding a disjoint
  ``path:3`` of weight 0.01 (a smaller weight than any of the component's)
  or reversing the vertex order leaves every pair's slack bit for bit.
"""

import math

import numpy as np
import pytest

from pmelab import (
    Graph,
    SearchConfig,
    Trajectory,
    build_graph,
    complete_graph,
    empirical_optimal_d,
    harnack_check,
    integrate,
    laplacian_field,
    pme_rhs,
    resolve_graph,
    square_graph,
    verify_cd_at,
)
from pmelab.operators import _flow

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


def _union(*parts: Graph) -> Graph:
    """The disjoint union of ``parts``, in order, with vertex ``v`` of part ``i`` named ``i:v``."""
    names = [f"{i}:{v}" for i, g in enumerate(parts) for v in g.vertices]
    vertex_starts = np.cumsum([0] + [g.n for g in parts])
    entry_starts = np.cumsum([0] + [len(g.data) for g in parts])
    data = np.concatenate([g.data for g in parts])
    indices = np.concatenate([g.indices + s for g, s in zip(parts, vertex_starts)])
    indptr = np.concatenate([[0]] + [g.indptr[1:] + s for g, s in zip(parts, entry_starts)])
    return Graph(names, (data, indices, indptr))


def _random_graph(n, density, seed, symmetric):
    """Random weights in [0.01, 100] on a random set of pairs; a directed graph's last vertex has no out-edges."""
    rng = np.random.default_rng(seed)
    mat = (rng.random((n, n)) < density) * rng.uniform(0.01, 100.0, (n, n))
    np.fill_diagonal(mat, 0.0)
    if symmetric:
        mat = np.triu(mat, 1) + np.triu(mat, 1).T
    else:
        mat[-1] = 0.0
    return Graph([f"r{i}" for i in range(n)], mat)


def _composition_cases():
    graphs = {spec: complete_graph(2) if spec == "two-point" else resolve_graph(spec)
              for spec in ("two-point", "square", "complete:5", "complete:30", "zwindow:100", "path:16")}
    graphs["random:20"] = _random_graph(20, 0.3, 5, symmetric=True)
    graphs["directed:12"] = _random_graph(12, 0.4, 6, symmetric=False)
    return graphs


@pytest.mark.parametrize("spec", list(_composition_cases()))
def test_a_disjoint_union_leaves_each_component_s_sums_unchanged(spec):
    parts = (_composition_cases()[spec], resolve_graph("path:3"))
    for order in (parts, parts[::-1]):  # each component first and second, so each one's rows move
        union = _union(*order)
        at = np.cumsum([0] + [g.n for g in order])
        rng = np.random.default_rng(union.n)
        U = rng.uniform(0.5, 1.5, (7, union.n))
        F = rng.choice([-1.0, 1.0], U.shape) * 10.0 ** rng.uniform(-3.0, 3.0, U.shape)
        for g, lo, hi in zip(order, at, at[1:]):
            # a batch of fields, through the batched core the solver's right-hand side calls
            for m in (1.5, 2.0, 3.0):
                assert _flow(union, m, U)[:, lo:hi].tobytes() == _flow(g, m, U[:, lo:hi]).tobytes(), m
            assert laplacian_field(union, F)[:, lo:hi].tobytes() == laplacian_field(g, F[:, lo:hi]).tobytes()
            assert union.kernel_sum(F)[:, lo:hi].tobytes() == g.kernel_sum(F[:, lo:hi]).tobytes()
            # one field at a time, as the solver calls them
            for u, f in zip(U, F):
                for m in (1.5, 2.0, 3.0):
                    assert pme_rhs(union, m, u)[lo:hi].tobytes() == pme_rhs(g, m, u[lo:hi]).tobytes(), m
                assert laplacian_field(union, f)[lo:hi].tobytes() == laplacian_field(g, f[lo:hi]).tobytes()
                assert union.kernel_sum(f)[lo:hi].tobytes() == g.kernel_sum(f[lo:hi]).tobytes()


def _harnack_case(seed):
    """A random connected symmetric graph with weights from {0.25, 0.5, 1, 2}, its states at 12 reported times, and pairs."""
    rng = np.random.default_rng([seed, 52])
    n = int(rng.integers(4, 10))
    mat = np.zeros((n, n))
    for i in range(1, n):  # a random tree, so the graph is connected, plus chords
        mat[int(rng.integers(i)), i] = 1.0
    mat = np.triu(np.maximum(mat, rng.random((n, n)) < 0.3), 1) * rng.choice([0.25, 0.5, 1.0, 2.0], (n, n))
    g = Graph([f"r{i}" for i in range(n)], mat + mat.T)
    times = np.linspace(0.1, 3.0, 12)
    states = integrate(g, 2.0, rng.uniform(0.5, 1.5, n), times).states
    pairs = []
    for _ in range(80):
        k1, k2 = np.sort(rng.choice(len(times), 2, replace=False))
        x1, x2 = rng.choice(g.vertices, 2)
        pairs.append((float(times[k1]), float(times[k2]), str(x1), str(x2)))
    return g, times, states, pairs, float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.0, 0.9))


def _harnack_slacks(g, times, states, pairs, mu, lam) -> bytes:
    report = harnack_check(Trajectory(g, 2.0, times, states), mu, lam, pairs)
    return np.array([r[-1] for r in report.records]).tobytes()


@pytest.mark.parametrize("seed", range(40))
def test_a_disjoint_light_component_leaves_every_harnack_slack_unchanged(seed):
    g, times, states, pairs, mu, lam = _harnack_case(seed)
    light = resolve_graph("path:3")
    light = Graph(light.vertices, (light.data * 0.01, light.indices, light.indptr))
    with_light = np.hstack([states, np.ones((len(times), light.n))])
    named = [(t1, t2, f"0:{x1}", f"0:{x2}") for t1, t2, x1, x2 in pairs]
    union = _harnack_slacks(_union(g, light), times, with_light, named, mu, lam)
    assert union == _harnack_slacks(g, times, states, pairs, mu, lam)


@pytest.mark.parametrize("seed", range(40))
def test_reversing_the_vertex_order_leaves_every_harnack_slack_unchanged(seed):
    g, times, states, pairs, mu, lam = _harnack_case(seed)
    reversed_ = _harnack_slacks(_relabelled(g, g.vertices[::-1]), times, states[:, ::-1], pairs, mu, lam)
    assert reversed_ == _harnack_slacks(g, times, states, pairs, mu, lam)
