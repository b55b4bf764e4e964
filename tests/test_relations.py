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
"""

import numpy as np
import pytest

from pmelab import Graph, SearchConfig, build_graph, empirical_optimal_d, square_graph, verify_cd_at

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
