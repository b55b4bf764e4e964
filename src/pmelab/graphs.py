"""Finite weighted graphs and the small generator zoo used by the lab.

A graph is a finite vertex set together with a nonnegative edge kernel
``k(x, y)`` with ``k(x, x) = 0``.  The kernel may be asymmetric; operations
that require symmetry (hop distances, Harnack bounds, reversible measures)
validate it themselves.  Vertices are opaque strings ordered by first
appearance, and every field over a graph is a numpy array aligned with
``Graph.vertices``.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import NoPathError, ValidationError

__all__ = [
    "Graph",
    "build_graph",
    "complete_graph",
    "path_graph",
    "square_graph",
    "lattice_window",
    "graph_distance",
    "k_min",
    "two_hop_ball",
    "load_edge_list",
    "save_edge_list",
    "resolve_graph",
    "GENERATOR_HELP",
]


class Graph:
    """Immutable finite weighted graph.

    Parameters
    ----------
    vertices : sequence of str
        Vertex identifiers in their defining order.
    kernel : (data, indices, indptr) CSR arrays, dense array or scipy sparse matrix, shape (n, n)
        Edge weights; entry (i, j) is the weight of the edge i -> j.  A scipy
        matrix is read through its ``tocsr()`` without importing scipy here.

    Attributes
    ----------
    vertices : tuple of str
    indptr, indices, data : ndarray
        The kernel as read-only canonical CSR arrays: row ``i`` stores the
        weights ``data[indptr[i]:indptr[i + 1]]`` at the columns
        ``indices[...]`` (``np.intp``), one entry per ordered pair, columns
        ascending.  Zero weights are dropped, and a pair the kernel stores
        more than once gets the sum of its copies, added in storage order.
    rows : ndarray
        Row index of every stored entry, aligned with ``indices``.
    reverse : ndarray
        Read-only position of every entry's reverse ``(y, x)`` in ``data``,
        -1 where the kernel has none.
    symmetric : bool
        True when the kernel equals its transpose exactly.
    degree : ndarray, shape (n,)
        Row sums of the kernel.
    """

    def __init__(self, vertices: Sequence[str], kernel):
        n = len(vertices)
        rows, indices, data = _stored_entries(kernel, n)
        if len(set(vertices)) != n:
            raise ValidationError("duplicate vertex identifier")
        keep = data != 0.0
        rows, indices, data = rows[keep], indices[keep], data[keep]
        if len(data) == 0:
            raise ValidationError("kernel has no positive entries")
        # one entry per ordered pair in (row, column) order; bincount adds the copies in storage order
        keys, at = np.unique(rows * n + indices, return_inverse=True)
        merged = np.bincount(at, weights=data)
        if not (np.all(data >= 0.0) and np.all(merged < np.inf)):
            raise ValidationError("edge weights must be finite and nonnegative")
        rows, indices = np.divmod(keys, n)
        if np.any(rows == indices):
            raise ValidationError("positive self-loop weight")
        flipped = indices * n + rows
        reverse = np.minimum(np.searchsorted(keys, flipped), len(keys) - 1)
        reverse[keys[reverse] != flipped] = -1
        indptr = _indptr(rows, n)
        for a in (indptr, indices, merged, rows, reverse):
            a.flags.writeable = False
        self.vertices: tuple[str, ...] = tuple(str(v) for v in vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self.indptr, self.indices, self.data, self.rows, self.reverse = indptr, indices, merged, rows, reverse
        # row sums formed as scipy's CSR ``sum(axis=1)`` forms them
        self.degree = np.zeros(n)
        nonempty = np.flatnonzero(np.diff(indptr))
        self.degree[nonempty] = np.add.reduceat(merged, indptr[nonempty])
        self.symmetric = bool(np.all(reverse >= 0) and np.array_equal(merged, merged[reverse]))

    # -- basic queries -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise ValidationError(f"unknown vertex {v!r}") from None

    def kernel(self, x: str, y: str) -> float:
        """Weight ``k(x, y)`` of the edge ``x -> y``, read from its one stored entry; 0 when there is none."""
        i, j = self.index(x), self.index(y)
        return float(self.weights_idx(i)[self.neighbors_idx(i) == j].sum())

    def kernel_sum(self, F: np.ndarray) -> np.ndarray:
        """Kernel sums ``sum_y k(x, y) F(y)`` at every vertex ``x``.

        ``F`` is one field of shape ``(n,)`` or a batch of shape ``(rows, n)``.
        Each sum adds the stored entries of row ``x`` one by one in storage
        order, starting from 0, as scipy's CSR product does, so the sums
        equal its sums bit for bit.  :meth:`laplacian` reads the same entries
        from its own table, with ``-degree(x)`` after them.  Time and memory
        grow with the number of stored entries times the number of fields.
        """
        if F.ndim == 1:
            return np.bincount(self.rows, weights=self.data * F[self.indices], minlength=self.n)
        if len(F) == 1:
            return self.kernel_sum(F[0])[None]
        return _group_sums(self._row_groups, F, self.n)

    def laplacian(self, F: np.ndarray) -> np.ndarray:
        """Graph Laplacian ``sum_y k(x, y) (F(y) - F(x))`` at every vertex ``x``.

        ``F`` is one field of shape ``(n,)`` or a batch of shape ``(..., n)``.
        One scatter over the entry table (:attr:`_laplacian_table`) adds row
        ``x``'s stored entries in storage order, starting from 0, and then
        ``-degree(x) F(x)``, so the result equals ``kernel_sum(F) - degree *
        F`` bit for bit: ``S + (-d) F`` rounds as ``S - d F`` does.
        """
        rows, columns, weights, groups = self._laplacian_table
        if F.ndim == 1:
            return np.bincount(rows, weights=weights * F[columns], minlength=len(F))
        if F.ndim > 2:
            return self.laplacian(F.reshape(-1, F.shape[-1])).reshape(F.shape)
        if len(F) == 1:
            return self.laplacian(F[0])[None]
        return _group_sums(groups, F, self.n)

    @cached_property
    def _row_groups(self) -> list:
        """The stored entries in :func:`_group_sums` groups."""
        return _slot_groups(self.indptr, self.n, self.indices, self.data[:, None])

    @cached_property
    def _laplacian_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """Rows, columns and weights of the Laplacian's entries, and their row groups.

        Row ``x`` holds its stored entries in storage order and then weight
        ``-degree(x)`` at column ``x``, also where it stores no entries.
        """
        n = self.n
        rows = np.concatenate((self.rows, np.arange(n)))
        columns = np.concatenate((self.indices, np.arange(n)))
        weights = np.concatenate((self.data, -self.degree))
        order = np.argsort(rows, kind="stable")
        rows, columns, weights = rows[order], columns[order], weights[order]
        return rows, columns, weights, _slot_groups(_indptr(rows, n), n, columns, weights[:, None])

    @cached_property
    def _matrix(self):
        from scipy import sparse  # only this view needs scipy

        return sparse.csr_array((self.data, self.indices, self.indptr), shape=(self.n, self.n), copy=True)

    def kernel_matrix(self):
        """The kernel as a scipy CSR array, built at the first call (do not mutate)."""
        return self._matrix

    def neighbors_idx(self, i: int) -> np.ndarray:
        """Indices j with kernel(i, j) > 0."""
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def weights_idx(self, i: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors_idx`."""
        return self.data[self.indptr[i]:self.indptr[i + 1]]

    def neighbors(self, x: str) -> tuple[str, ...]:
        return tuple(self.vertices[j] for j in self.neighbors_idx(self.index(x)))

    def __repr__(self) -> str:  # pragma: no cover
        tag = "symmetric" if self.symmetric else "directed"
        return f"Graph({self.n} vertices, {len(self.data)} edges, {tag})"


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """CSR row pointer of entries stored row by row with these row indices."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def _slot_groups(indptr: np.ndarray, n: int, *values: np.ndarray) -> list:
    """The rows of a CSR table with entries, grouped by their entry count ``c``.

    Each group is ``(rows, *slots)``, one slot array for each per-entry
    array in ``values``: ``slot[s]`` holds the ``s``-th entry of every row
    of the group; its shape is ``(c, len(rows))`` plus the array's trailing
    axes.  ``rows`` is None when the group is every vertex, in order.
    """
    counts = np.diff(indptr)
    groups = []
    for c in np.flatnonzero(np.bincount(counts)[1:]) + 1:  # not np.unique, which imports numpy.ma
        rows = np.flatnonzero(counts == c)
        at = indptr[rows] + np.arange(c)[:, None]
        groups.append((None if len(rows) == n else rows, *(a[at] for a in values)))
    return groups


def _group_sums(groups: list, F: np.ndarray, n: int) -> np.ndarray:
    """Row sums ``sum_s weights[s] F(columns[s])`` of a batch ``F``, 0 at rows in no group."""
    # The terms of a group are laid out (slot, vertex, field) in memory with
    # at least two elements after the slot axis, and numpy adds along an
    # axis that is not the fastest one element by element, so each sum
    # starts from 0 and runs slot by slot (pairwise summation only runs
    # along the fastest).
    out = np.zeros((n, len(F)))
    for rows, columns, weights in groups:
        terms = F.T[columns]
        terms *= weights
        if rows is None:
            return np.add.reduce(terms, axis=0).T
        out[rows] = np.add.reduce(terms, axis=0)
    return out.T


def _stored_entries(kernel, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and weights of an ``(n, n)`` kernel's stored entries, in storage order."""
    if hasattr(kernel, "tocsr"):  # a scipy sparse matrix
        if kernel.shape != (n, n):
            raise ValidationError("kernel shape does not match vertex count")
        kernel = kernel.tocsr()
        kernel = (kernel.data, kernel.indices, kernel.indptr)
    if isinstance(kernel, tuple):
        try:
            data, indices, indptr = (np.asarray(a) for a in kernel)
        except ValueError:  # not three arrays
            raise ValidationError("malformed CSR kernel arrays") from None
        integer = indices.dtype.kind in "iu" and indptr.dtype.kind in "iu"
        if not integer or data.ndim != 1 or indices.ndim != 1 or indptr.ndim != 1:
            raise ValidationError("malformed CSR kernel arrays")
        data, indices, indptr = data.astype(float), indices.astype(np.intp), indptr.astype(np.intp)
        if len(indptr) != n + 1 or (len(indices) and not 0 <= indices.min() <= indices.max() < n):
            raise ValidationError("kernel shape does not match vertex count")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0) or not indptr[-1] == len(indices) == len(data):
            raise ValidationError("malformed CSR kernel arrays")
        return np.repeat(np.arange(n), np.diff(indptr)), indices, data
    dense = np.asarray(kernel, dtype=float)
    if dense.shape != (n, n):
        raise ValidationError("kernel shape does not match vertex count")
    rows, indices = np.nonzero(dense)
    return rows, indices, dense[rows, indices]


def build_graph(edges: Iterable[tuple[str, str, float]], symmetrize: bool = False) -> Graph:
    """Assemble a graph from ``(x, y, weight)`` triples.

    Vertices are ordered by first appearance.  A later triple for the same
    ordered pair overwrites an earlier one.  With ``symmetrize=True`` each
    triple also sets the reverse edge to the same weight.
    """
    order: list[str] = []
    seen: dict[str, int] = {}
    entries: dict[tuple[int, int], float] = {}

    def vid(v: str) -> int:
        if v not in seen:
            seen[v] = len(order)
            order.append(v)
        return seen[v]

    for x, y, w in edges:
        w = float(w)
        if w < 0.0:
            raise ValidationError(f"negative weight on edge ({x!r}, {y!r})")
        i, j = vid(str(x)), vid(str(y))
        if i == j:
            if w != 0.0:
                raise ValidationError(f"self-loop at {x!r}")
            continue
        entries[(i, j)] = w
        if symmetrize:
            entries[(j, i)] = w
    if not order:
        raise ValidationError("empty edge list")
    rows = np.array([i for (i, _) in entries], dtype=np.intp)
    cols = np.array([j for (_, j) in entries], dtype=np.intp)
    data = np.array(list(entries.values()), dtype=float)
    at = np.argsort(rows, kind="stable")  # row by row, as CSR stores them
    return Graph(order, (data[at], cols[at], _indptr(rows, len(order))))


# -- generators ------------------------------------------------------------


def complete_graph(d: int) -> Graph:
    """Complete graph on ``d >= 2`` vertices ``x1 .. xd`` with unit weights."""
    d = int(d)
    if d < 2:
        raise ValidationError("complete graph needs at least 2 vertices")
    names = [f"x{i + 1}" for i in range(d)]
    return Graph(names, np.ones((d, d)) - np.eye(d))


def path_graph(n: int) -> Graph:
    """Path on vertices ``1 .. n`` with unit weights, ``n >= 2``."""
    n = int(n)
    if n < 2:
        raise ValidationError("path graph needs at least 2 vertices")
    names = [str(i + 1) for i in range(n)]
    edges = [(names[i], names[i + 1], 1.0) for i in range(n - 1)]
    return build_graph(edges, symmetrize=True)


def square_graph() -> Graph:
    """Unit-weight 4-cycle on ``x, y1, y2, z`` with ``x`` opposite ``z``."""
    edges = [("x", "y1", 1.0), ("x", "y2", 1.0), ("z", "y1", 1.0), ("z", "y2", 1.0)]
    return build_graph(edges, symmetrize=True)


def lattice_window(radius: int) -> Graph:
    """Path on the integers ``-radius .. radius`` with unit weights.

    Finite window into the integer lattice; pointwise checks at the center
    vertex ``"0"`` see the same two-hop neighborhood as the full lattice
    once ``radius >= 2``.
    """
    radius = int(radius)
    if radius < 1:
        raise ValidationError("window radius must be at least 1")
    names = [str(i) for i in range(-radius, radius + 1)]
    edges = [(names[i], names[i + 1], 1.0) for i in range(len(names) - 1)]
    return build_graph(edges, symmetrize=True)


# -- metric helpers --------------------------------------------------------


def graph_distance(g: Graph, x: str, y: str) -> int:
    """Hop distance between ``x`` and ``y`` over positive-weight edges.

    Requires a symmetric kernel.  Raises :class:`NoPathError` when the two
    vertices fall in different components.
    """
    if not g.symmetric:
        raise ValidationError("hop distance requires a symmetric kernel")
    dist = _hop_distances(g, g.index(x))[g.index(y)]
    if dist < 0:
        raise NoPathError(f"no path between {x!r} and {y!r}")
    return dist


def _hop_distances(g: Graph, src: int) -> list[int]:
    """Hop distances from vertex index ``src`` to every vertex, -1 where unreachable, by breadth-first search."""
    dist = [-1] * g.n
    dist[src] = 0
    queue = deque([src])
    while queue:
        i = queue.popleft()
        for j in g.neighbors_idx(i).tolist():
            if dist[j] < 0:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def k_min(g: Graph) -> float:
    """Smallest positive weight ``k(x, y)`` over the ordered pairs; repeated kernel entries count as their sum."""
    return float(g.data.min())


def two_hop_ball(g: Graph, x: str) -> tuple[str, ...]:
    """Vertices reachable from ``x`` in at most two edges, in graph order."""
    i = g.index(x)
    ball = {i}
    for j in g.neighbors_idx(i):
        ball.add(int(j))
        ball.update(int(l) for l in g.neighbors_idx(j))
    return tuple(g.vertices[j] for j in sorted(ball))


# -- edge-list files -------------------------------------------------------


def load_edge_list(path, symmetrize: bool = False) -> Graph:
    """Read a graph from a text file of ``<vertex> <vertex> <weight>`` lines.

    Everything after ``#`` on a line is a comment; blank lines are skipped.
    """
    edges = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValidationError(f"{path}:{lineno}: expected '<vertex> <vertex> <weight>'")
            try:
                w = float(parts[2])
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: bad weight {parts[2]!r}") from None
            edges.append((parts[0], parts[1], w))
    if not edges:
        raise ValidationError(f"{path}: no edges")
    return build_graph(edges, symmetrize=symmetrize)


def save_edge_list(g: Graph, path) -> None:
    """Write every stored directed edge as ``<vertex> <vertex> <weight>``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# edge list: <vertex> <vertex> <weight>\n")
        for i, x in enumerate(g.vertices):
            for j, w in zip(g.neighbors_idx(i), g.weights_idx(i)):
                fh.write(f"{x} {g.vertices[j]} {w:.17g}\n")


GENERATOR_HELP = "complete:D | path:n | square | zwindow:radius | <edge-list file>"


def resolve_graph(spec: str, symmetrize: bool = False) -> Graph:
    """Build a graph from a generator name or an edge-list file path.

    Recognized generator names: ``complete:D``, ``path:n``, ``square`` and
    ``zwindow:radius``.  Anything else is treated as a file path.
    """
    name, _, arg = spec.partition(":")
    if name == "square" and not arg:
        return square_graph()
    if name in ("complete", "path", "zwindow"):
        try:
            value = int(arg)
        except ValueError:
            raise ValidationError(f"bad generator argument in {spec!r}") from None
        if name == "complete":
            return complete_graph(value)
        if name == "path":
            return path_graph(value)
        return lattice_window(value)
    return load_edge_list(spec, symmetrize=symmetrize)
