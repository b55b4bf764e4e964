"""Graph construction, generators, hop metric and edge-list files."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmelab import (
    Graph,
    build_graph,
    complete_graph,
    graph_distance,
    k_min,
    lattice_window,
    load_edge_list,
    path_graph,
    resolve_graph,
    save_edge_list,
    square_graph,
    two_hop_ball,
)
from pmelab.errors import NoPathError, ValidationError


# -- construction ----------------------------------------------------------


def test_build_graph_orders_vertices_by_first_appearance():
    g = build_graph([("b", "a", 1.0), ("a", "c", 2.0)])
    assert g.vertices == ("b", "a", "c")
    assert g.index("c") == 2
    assert g.kernel("b", "a") == 1.0
    assert g.kernel("a", "c") == 2.0
    assert g.kernel("c", "a") == 0.0


def test_build_graph_symmetrize_mirrors_every_edge():
    g = build_graph([("a", "b", 3.0)], symmetrize=True)
    assert g.kernel("a", "b") == 3.0
    assert g.kernel("b", "a") == 3.0
    assert g.symmetric


def test_build_graph_refuses_a_pair_given_two_weights():
    # the same weight again is the same edge, directly or as a mirror
    g = build_graph([("a", "b", 0.5), ("a", "b", 0.5), ("b", "a", 1.0)])
    assert (g.kernel("a", "b"), g.kernel("b", "a")) == (0.5, 1.0) and not g.symmetric
    g = build_graph([("a", "b", 0.5), ("b", "a", 0.5), ("a", "b", 0.5)], symmetrize=True)
    assert g.kernel("a", "b") == g.kernel("b", "a") == 0.5 and len(g.data) == 2
    with pytest.raises(ValidationError, match=r"edge \('b', 'a'\) given two weights, 0.5 and 1.0"):
        build_graph([("a", "b", 0.5), ("a", "b", 0.5), ("b", "a", 1.0)], symmetrize=True)
    with pytest.raises(ValidationError, match=r"edge \('a', 'b'\) given two weights, 0.5 and 0.0"):
        build_graph([("a", "b", 0.5), ("b", "c", 1.0), ("a", "b", 0.0)])


def test_asymmetric_kernel_is_detected():
    g = build_graph([("a", "b", 1.0), ("b", "a", 2.0)])
    assert not g.symmetric


def test_degree_is_row_sum():
    g = build_graph([("a", "b", 1.5), ("a", "c", 0.5), ("b", "a", 1.5), ("c", "a", 0.5)])
    np.testing.assert_allclose(g.degree, [2.0, 1.5, 0.5])


def test_negative_weight_rejected():
    with pytest.raises(ValidationError):
        build_graph([("a", "b", -1.0)])


@pytest.mark.parametrize("edge", [("a", "b", math.nan), ("a", "b", math.inf), ("a", "a", math.nan)])
def test_non_finite_weight_rejected(edge):
    with pytest.raises(ValidationError):
        build_graph([edge, ("b", "c", 1.0)])


def test_self_loop_rejected():
    with pytest.raises(ValidationError):
        build_graph([("a", "a", 1.0), ("a", "b", 1.0)])


def test_graph_without_edges_rejected():
    with pytest.raises(ValidationError):
        build_graph([])


def test_duplicate_vertex_identifier_rejected():
    import scipy.sparse as sp

    with pytest.raises(ValidationError):
        Graph(["a", "a"], sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]])))
    # ids are compared as the names they are stored under
    with pytest.raises(ValidationError, match="duplicate vertex identifier"):
        Graph([1, "1"], np.array([[0.0, 1.0], [1.0, 0.0]]))


def _scipy_csr(dense):
    import scipy.sparse as sp

    return sp.csr_array(dense)


def _scipy_kernel_graphs():
    import scipy.sparse as sp

    dense = Graph(["a", "b", "c"], sp.csr_array(np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 0.0], [0.5, 0.0, 0.0]])))
    # unsorted column indices, and a duplicated entry (0, 2) stored three times
    raw = sp.csr_array(
        (np.array([0.1, 2.0, 0.2, 0.3, 0.7, 1.5]), np.array([2, 1, 2, 2, 0, 0]), np.array([0, 4, 5, 6])),
        shape=(3, 3),
    )
    return [dense, Graph(["a", "b", "c"], raw)]


@pytest.mark.parametrize(
    "g",
    [resolve_graph(s) for s in ("square", "complete:5", "path:16", "zwindow:10")]
    + [build_graph([("a", "b", 0.1), ("b", "c", 3.0), ("c", "a", 1e9)])]
    + _scipy_kernel_graphs(),
)
def test_kernel_reads_every_weight_as_the_sparse_matrix_holds_it(g):
    k = g.kernel_matrix()
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            assert g.kernel(x, y) == float(k[i, j])


def test_kernel_forms_give_the_same_csr_arrays():
    sp = pytest.importorskip("scipy.sparse")
    dense = np.array([[0.0, 2.0, 0.5], [2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    csr = (np.array([2.0, 0.5, 2.0, 0.0, 3.0]), np.array([1, 2, 0, 2, 1]), np.array([0, 2, 4, 5]))
    graphs = [Graph("abc", dense), Graph("abc", csr), Graph("abc", sp.csr_array(dense)), Graph("abc", sp.coo_array(dense))]
    for g in graphs:
        np.testing.assert_array_equal(g.indptr, [0, 2, 3, 4])
        np.testing.assert_array_equal(g.indices, [1, 2, 0, 1])
        np.testing.assert_array_equal(g.data, [2.0, 0.5, 2.0, 3.0])
        np.testing.assert_array_equal(g.reverse, [2, -1, 0, -1])
        assert g.indices.dtype == np.intp
        assert not g.data.flags.writeable and not g.reverse.flags.writeable
        assert not g.symmetric


@pytest.mark.parametrize(
    "kernel",
    [
        (np.ones(2), np.array([1, 0]), np.array([0, 1])),  # indptr too short
        (np.ones(2), np.array([1, 2]), np.array([0, 1, 2])),  # column out of range
        (np.ones(2), np.array([1, 0]), np.array([0, 2, 1])),  # decreasing indptr
        (np.ones(3), np.array([1, 0]), np.array([0, 1, 2])),  # data and indices disagree
        (np.ones(2), (np.array([0, 1]), np.array([1, 0]))),  # scipy's (data, (row, col)) form
        (np.ones(2), np.array([1.0, 0.0]), np.array([0, 1, 2])),  # float column indices
        (np.ones((1, 2)), np.array([[1, 0]]), np.array([0, 1, 2])),  # 2-d arrays
        (np.ones(2), np.array([1, 0]), np.array([0, 1, 2]), (2, 2)),  # four arrays
        np.ones((2, 3)),
        np.zeros((2, 2)),  # kernel has no positive entries
        np.array([[1.0, 1.0], [1.0, 0.0]]),  # positive self-loop weight
        _scipy_csr(np.ones((3, 3)) - np.eye(3)),  # a scipy matrix of the wrong shape
    ],
)
def test_malformed_kernels_are_rejected(kernel):
    with pytest.raises(ValidationError):
        Graph(["a", "b"], kernel)


def test_zero_weight_edges_are_dropped():
    g = build_graph([("a", "b", 1.0), ("a", "c", 0.0), ("b", "a", 1.0), ("c", "b", 1.0)])
    assert g.kernel("a", "c") == 0.0
    assert "c" not in g.neighbors("a")


# -- generators ------------------------------------------------------------


def test_complete_graph_has_unit_weights_everywhere():
    g = complete_graph(4)
    assert g.n == 4
    assert g.vertices == ("x1", "x2", "x3", "x4")
    assert g.symmetric
    for x in g.vertices:
        for y in g.vertices:
            assert g.kernel(x, y) == (0.0 if x == y else 1.0)


def test_path_graph_is_a_chain():
    g = path_graph(5)
    assert g.vertices == ("1", "2", "3", "4", "5")
    assert g.neighbors("1") == ("2",)
    assert g.neighbors("3") == ("2", "4")
    np.testing.assert_allclose(g.degree, [1.0, 2.0, 2.0, 2.0, 1.0])


def test_square_graph_is_a_four_cycle_with_opposite_corners():
    g = square_graph()
    assert set(g.vertices) == {"x", "y1", "y2", "z"}
    assert set(g.neighbors("x")) == {"y1", "y2"}
    assert set(g.neighbors("z")) == {"y1", "y2"}
    assert g.kernel("x", "z") == 0.0
    assert graph_distance(g, "x", "z") == 2


def test_lattice_window_is_centered_at_zero():
    g = lattice_window(2)
    assert g.vertices == ("-2", "-1", "0", "1", "2")
    assert g.neighbors("0") == ("-1", "1")


# sizes that are not integers are refused, as a search budget is, not truncated
GENERATOR_SIZES = [(complete_graph, 1), (path_graph, 1), (lattice_window, 0)]
GENERATOR_SIZES += [(complete_graph, 2.9), (path_graph, True), (lattice_window, 1.5)]


@pytest.mark.parametrize("builder,arg", GENERATOR_SIZES)
def test_generator_size_validation(builder, arg):
    with pytest.raises(ValidationError):
        builder(arg)


def test_generators_take_any_integer_size():
    assert [b(np.int64(3)).n for b in (complete_graph, path_graph, lattice_window)] == [3, 3, 7]
    with pytest.raises(ValidationError, match=r"^complete graph size must be an integer, not 2\.9$"):
        complete_graph(2.9)


# -- hop metric ------------------------------------------------------------


def test_hop_distance_on_a_path():
    g = path_graph(6)
    assert graph_distance(g, "1", "1") == 0
    assert graph_distance(g, "1", "6") == 5
    assert graph_distance(g, "4", "2") == 2


def test_hop_distance_requires_symmetry():
    g = build_graph([("a", "b", 1.0)])
    with pytest.raises(ValidationError):
        graph_distance(g, "a", "b")


def test_disconnected_vertices_raise():
    g = build_graph([("a", "b", 1.0), ("c", "d", 1.0)], symmetrize=True)
    with pytest.raises(NoPathError):
        graph_distance(g, "a", "d")


@given(st.integers(min_value=0, max_value=20))
@settings(max_examples=60, deadline=None)
def test_hop_metric_axioms_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 8))
    mat = np.triu((rng.random((n, n)) < 0.6) * rng.uniform(0.1, 2.0, (n, n)), 1)
    mat = mat + mat.T
    mat[0, 1] = mat[1, 0] = 1.0
    names = [f"v{i}" for i in range(n)]
    g = build_graph(
        [(names[i], names[j], mat[i, j]) for i in range(n) for j in range(n) if mat[i, j] > 0]
    )
    present = g.vertices
    for x in present:
        assert graph_distance(g, x, x) == 0
    for _ in range(5):
        x, y, z = (present[int(i)] for i in rng.integers(0, len(present), 3))
        try:
            dxy = graph_distance(g, x, y)
        except NoPathError:
            continue
        assert dxy == graph_distance(g, y, x)
        try:
            dxz = graph_distance(g, x, z)
            dzy = graph_distance(g, z, y)
        except NoPathError:
            continue
        assert dxy <= dxz + dzy


def test_k_min_is_smallest_positive_weight():
    g = build_graph([("a", "b", 0.25), ("b", "c", 4.0)], symmetrize=True)
    assert k_min(g) == 0.25


def test_two_hop_ball_matches_breadth_first_enumeration():
    g = path_graph(7)
    assert two_hop_ball(g, "1") == ("1", "2", "3")
    assert two_hop_ball(g, "4") == ("2", "3", "4", "5", "6")
    full = complete_graph(5)
    assert two_hop_ball(full, "x2") == full.vertices


@given(st.integers(min_value=0, max_value=30))
@settings(max_examples=60, deadline=None)
def test_two_hop_ball_against_hop_distance(seed):
    rng = np.random.default_rng(seed + 1000)
    n = int(rng.integers(4, 9))
    mat = np.triu((rng.random((n, n)) < 0.4) * 1.0, 1)
    mat = mat + mat.T
    mat[0, 1] = mat[1, 0] = 1.0
    names = [f"v{i}" for i in range(n)]
    g = build_graph(
        [(names[i], names[j], mat[i, j]) for i in range(n) for j in range(n) if mat[i, j] > 0]
    )
    present = g.vertices
    x = present[int(rng.integers(0, len(present)))]
    ball = set(two_hop_ball(g, x))
    for y in present:
        try:
            close = graph_distance(g, x, y) <= 2
        except NoPathError:
            close = False
        assert (y in ball) == close


# -- repeated kernel entries -----------------------------------------------


# (vertices, rows of (column, weight) entries in storage order)
_REPEATED = {
    # the square with k(x, y1) and k(y1, x) each stored as 0.5 + 0.5
    "square": (
        ["x", "y1", "y2", "z"],
        [[(1, 0.5), (2, 1.0), (1, 0.5)], [(0, 0.5), (3, 1.0), (0, 0.5)], [(0, 1.0), (3, 1.0)], [(1, 1.0), (2, 1.0)]],
    ),
    # a 5-cycle with one chord, columns unsorted; k(a, b) is stored as 0.5 + 0.75
    "csr-duplicate": (
        list("abcde"),
        [[(1, 0.5), (4, 1.0), (1, 0.75), (2, 2.0)], [(0, 1.25), (2, 1.0)], [(1, 1.0), (3, 0.3), (0, 2.0)],
         [(2, 0.3), (4, 1.7)], [(3, 1.7), (0, 1.0)]],
    ),
}


def _csr_graph(names, rows):
    entries = [e for row in rows for e in row]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    return Graph(names, (np.array([w for _, w in entries]), np.array([j for j, _ in entries]), indptr))


def _merged_rows(rows):
    """Each row with one entry per column, its copies added in storage order, columns ascending."""
    merged = []
    for row in rows:
        sums = {}
        for j, w in row:
            sums[j] = sums.get(j, 0.0) + w
        merged.append(sorted(sums.items()))
    return merged


def _same_arrays(g, h):
    for name in ("indptr", "indices", "data", "rows", "reverse", "degree"):
        a, b = getattr(g, name), getattr(h, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("spec", list(_REPEATED))
def test_a_kernel_with_repeated_entries_is_the_graph_of_their_sums(spec, tmp_path):
    from pmelab import Measure, SearchConfig, harnack_check, integrate, verify_cd_at

    names, rows = _REPEATED[spec]
    g, twin = _csr_graph(names, rows), _csr_graph(names, _merged_rows(rows))
    _same_arrays(g, twin)
    assert g.symmetric and twin.symmetric
    assert k_min(g) == k_min(twin)
    for seed in range(3):
        reports = [verify_cd_at(h, 2.0, 0.0, 4.0 / 3.0, names[0], SearchConfig(seed=seed)) for h in (g, twin)]
        assert reports[0].to_json_dict() == reports[1].to_json_dict()
    rng = np.random.default_rng(7)
    u0, times = rng.uniform(0.5, 1.5, len(names)), np.linspace(0.1, 3.0, 20)
    pairs = [(0.1, 3.0, x1, x2) for x1 in names for x2 in names]
    records = [harnack_check(integrate(h, 2.0, u0, times), 1.5, 0.0, pairs).records for h in (g, twin)]
    assert records[0] == records[1]
    for pi in (np.ones(len(names)), np.arange(1.0, len(names) + 1.0)):
        outcomes = []
        for h in (g, twin):
            try:
                outcomes.append(Measure(h, pi).pi.tobytes())
            except ValidationError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
    save_edge_list(g, tmp_path / "g.txt")
    loaded = load_edge_list(tmp_path / "g.txt")  # vertices in the order the file names them
    assert sorted(loaded.vertices) == sorted(names)
    assert all(loaded.kernel(x, y) == twin.kernel(x, y) for x in names for y in names)


def test_repeated_entries_whose_sum_overflows_are_rejected():
    with pytest.raises(ValidationError, match="finite"):
        Graph(["a", "b"], (np.array([1e308, 1e308, 1.0]), np.array([1, 1, 0]), np.array([0, 2, 3])))


# -- the Laplacian entry table ---------------------------------------------


def _star(leaves):
    """A hub joined to ``leaves`` leaves by distinct weights: one row of ``leaves`` entries, the others of one."""
    return build_graph([("hub", f"l{i}", 0.5 + i / 7.0) for i in range(leaves)], symmetrize=True)


def _laplacian_cases():
    specs = ("square", "complete:3", "complete:5", "complete:30", "complete:100", "path:16")
    graphs = {spec: resolve_graph(spec) for spec in specs}
    graphs["star:40"] = _star(40)
    graphs.update({f"zwindow:{r}": lattice_window(r) for r in (10, 100)})
    rng = np.random.default_rng(5)
    mat = np.triu((rng.random((20, 20)) < 0.3) * rng.uniform(0.01, 100.0, (20, 20)), 1)
    graphs["weighted:20"] = Graph([f"w{i}" for i in range(20)], mat + mat.T)
    # "c" stores no entries, and (a, c) is stored twice
    graphs["no-out-edges"] = Graph(
        ["a", "b", "c"], (np.array([0.1, 1e9, 0.4, 2.5, 3.0]), np.array([2, 2, 1, 0, 2]), np.array([0, 3, 5, 5]))
    )
    return graphs


def _laplacian_fields(n, rows, seed):
    """Fields from 1e-100 to 1e100 in size, of both signs, some with infinite entries."""
    rng = np.random.default_rng(seed)
    F = rng.choice([-1.0, 1.0], (rows, n)) * 10.0 ** rng.uniform(-100.0, 100.0, (rows, n))
    F[0] = np.inf
    F[1, 0] = np.inf
    F[2, -1] = -np.inf
    F[3, :2] = (np.inf, -np.inf)
    F[4] = -0.0
    return F


@pytest.mark.parametrize("spec", list(_laplacian_cases()))
def test_laplacian_equals_kernel_sum_minus_degree_times_field_byte_for_byte(spec):
    g = _laplacian_cases()[spec]
    F = _laplacian_fields(g.n, 300, seed=g.n)
    with np.errstate(invalid="ignore", over="ignore"):
        for f in F:
            assert g.laplacian(f).tobytes() == (g.kernel_sum(f) - g.degree * f).tobytes()
        for rows in (1, 2, 7):
            for batch in np.split(F[: 42 * rows], 42):
                want = g.kernel_sum(batch) - g.degree * batch
                assert g.laplacian(batch).tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", list(_laplacian_cases()))
def test_the_one_field_tables_are_slot_major(spec):
    # every row's first entry, then every row's second, ...: the slot never decreases and the
    # rows ascend within a slot, while each row keeps its entries in storage order
    g = _laplacian_cases()[spec]
    diagonal = (np.arange(g.n), np.arange(g.n), -g.degree)
    for table, stored in ((g._entry_table, (g.rows, g.indices, g.data)),
                          (g._laplacian_table, tuple(map(np.concatenate, zip((g.rows, g.indices, g.data), diagonal))))):
        rows, columns, weights, _ = table
        by_row = np.argsort(rows, kind="stable")
        slot = np.empty(len(rows), dtype=np.intp)
        slot[by_row] = np.arange(len(rows)) - np.searchsorted(rows[by_row], rows[by_row])
        assert np.all(np.diff(slot) >= 0)
        same = np.diff(slot) == 0
        assert np.all(np.diff(rows)[same] > 0)
        # back in row order the table is the stored entries (and each row's diagonal after them)
        want = np.argsort(stored[0], kind="stable")
        for got, entries in zip((rows, columns, weights), stored):
            assert got[by_row].tobytes() == entries[want].tobytes()


# -- edge-list files -------------------------------------------------------


def test_edge_list_round_trip_preserves_weights_exactly(tmp_path):
    rng = np.random.default_rng(3)
    edges = [("a", "b", float(rng.random())), ("b", "c", math.pi), ("c", "a", 1e-17)]
    g = build_graph(edges, symmetrize=True)
    path = tmp_path / "graph.txt"
    save_edge_list(g, path)
    # each pair is listed both ways with one weight, so its mirror agrees
    for symmetrize in (False, True):
        h = load_edge_list(path, symmetrize=symmetrize)
        assert h.vertices == g.vertices
        assert (h.kernel_matrix() != g.kernel_matrix()).nnz == 0


def test_an_edge_list_giving_a_pair_two_weights_is_refused(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("a b 0.5\na b 0.5\nb a 1\n")
    assert not load_edge_list(path).symmetric
    with pytest.raises(ValidationError, match="given two weights"):
        load_edge_list(path, symmetrize=True)
    path.write_text("a b 0.5\nb c 1\na b 2\n")
    with pytest.raises(ValidationError, match=r"edge \('a', 'b'\) given two weights"):
        load_edge_list(path)


@pytest.mark.parametrize(
    "text,symmetrize,message",
    [
        # the line of the second weight, directly or through a mirror
        ("a b 0.5\nb c 1\na b 2\n", False, "edge ('a', 'b') given two weights, 0.5 and 2.0"),
        ("# pair\na b 0.5\n\nb a 1\n", True, "edge ('b', 'a') given two weights, 0.5 and 1.0"),
        ("a b 1\nb c -0.5\n", False, "negative weight on edge ('b', 'c')"),
        ("a b 1\nb b 2\n", False, "self-loop at 'b'"),
    ],
)
def test_edge_list_refusals_name_their_line(tmp_path, text, symmetrize, message):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    lineno = len(text.splitlines())
    with pytest.raises(ValidationError) as exc:
        load_edge_list(path, symmetrize=symmetrize)
    assert str(exc.value) == f"{path}:{lineno}: {message}"
    # build_graph gives the same refusal, with no place to name
    edges = [line.split() for line in text.splitlines() if line and not line.startswith("#")]
    with pytest.raises(ValidationError) as exc:
        build_graph(edges, symmetrize=symmetrize)
    assert str(exc.value) == message


def test_edge_list_comments_and_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# header\n\na b 1.0  # trailing comment\nb a 1.0\n")
    g = load_edge_list(path)
    assert g.kernel("a", "b") == 1.0
    assert g.symmetric


@pytest.mark.parametrize("record", ["a b", "a b 1 2", "a"])
def test_an_edge_record_with_the_wrong_field_count_names_its_line(tmp_path, record):
    path = tmp_path / "graph.txt"
    path.write_text("# header\n\na b 1  # comment\n%s # comment\n" % record)
    with pytest.raises(ValidationError) as exc:
        load_edge_list(path)
    assert str(exc.value) == f"{path}:4: expected '<vertex> <vertex> <weight>'"


def test_edge_list_bad_lines_are_reported_with_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a b 1.0\na b\n")
    with pytest.raises(ValidationError, match="2"):
        load_edge_list(path)
    path.write_text("a b notaweight\n")
    with pytest.raises(ValidationError, match="notaweight"):
        load_edge_list(path)
    path.write_text("# only comments\n")
    with pytest.raises(ValidationError, match="no edges"):
        load_edge_list(path)


# -- generator specs -------------------------------------------------------


@pytest.mark.parametrize(
    "spec,n",
    [("complete:3", 3), ("path:4", 4), ("square", 4), ("zwindow:2", 5)],
)
def test_resolve_graph_dispatches_generator_names(spec, n):
    assert resolve_graph(spec).n == n


def test_resolve_graph_falls_back_to_files(tmp_path):
    path = tmp_path / "ring.txt"
    path.write_text("a b 1\nb c 1\nc a 1\nb a 1\nc b 1\na c 1\n")
    g = resolve_graph(str(path))
    assert g.n == 3
    assert g.symmetric


def test_resolve_graph_rejects_bad_generator_arguments():
    with pytest.raises(ValidationError):
        resolve_graph("complete:two")
    with pytest.raises(FileNotFoundError):
        resolve_graph("no-such-file.txt")
