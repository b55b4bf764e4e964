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
from scipy import sparse

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
    kernel : scipy.sparse matrix, shape (n, n)
        Edge weights; entry (i, j) is the weight of the edge i -> j.

    Attributes
    ----------
    vertices : tuple of str
    symmetric : bool
        True when the kernel matrix equals its transpose exactly.
    degree : ndarray, shape (n,)
        Row sums of the kernel.
    """

    def __init__(self, vertices: Sequence[str], kernel):
        kernel = sparse.csr_array(kernel, dtype=float)
        n = len(vertices)
        if kernel.shape != (n, n):
            raise ValidationError("kernel shape does not match vertex count")
        if len(set(vertices)) != n:
            raise ValidationError("duplicate vertex identifier")
        kernel.eliminate_zeros()
        if kernel.nnz == 0:
            raise ValidationError("kernel has no positive entries")
        if not np.all((kernel.data >= 0.0) & (kernel.data < np.inf)):
            raise ValidationError("edge weights must be finite and nonnegative")
        if kernel.diagonal().any():
            raise ValidationError("positive self-loop weight")
        self.vertices: tuple[str, ...] = tuple(str(v) for v in vertices)
        self._index = {v: i for i, v in enumerate(self.vertices)}
        self._kernel = kernel
        self.degree = np.asarray(kernel.sum(axis=1)).ravel()
        self.symmetric = (kernel != kernel.T).nnz == 0

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
        """Weight of the edge ``x -> y``, 0 when there is none."""
        return self._weights.get((self.index(x), self.index(y)), 0.0)

    @cached_property
    def _weights(self) -> dict[tuple[int, int], float]:
        """Stored weights by ``(i, j)``, read from the CSR arrays at the first query."""
        k = self._kernel
        weights: dict[tuple[int, int], float] = {}
        for i, (lo, hi) in enumerate(zip(k.indptr[:-1].tolist(), k.indptr[1:].tolist())):
            for j, w in zip(k.indices[lo:hi].tolist(), k.data[lo:hi].tolist()):
                weights[i, j] = weights.get((i, j), 0.0) + w  # duplicates add, as in scipy
        return weights

    def kernel_matrix(self):
        """Sparse kernel matrix in CSR form (do not mutate)."""
        return self._kernel

    def neighbors_idx(self, i: int) -> np.ndarray:
        """Indices j with kernel(i, j) > 0."""
        k = self._kernel
        return k.indices[k.indptr[i]:k.indptr[i + 1]]

    def weights_idx(self, i: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors_idx`."""
        k = self._kernel
        return k.data[k.indptr[i]:k.indptr[i + 1]]

    def neighbors(self, x: str) -> tuple[str, ...]:
        return tuple(self.vertices[j] for j in self.neighbors_idx(self.index(x)))

    def __repr__(self) -> str:  # pragma: no cover
        tag = "symmetric" if self.symmetric else "directed"
        return f"Graph({self.n} vertices, {self._kernel.nnz} edges, {tag})"


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
    n = len(order)
    rows = np.array([i for (i, _) in entries], dtype=int)
    cols = np.array([j for (_, j) in entries], dtype=int)
    data = np.array(list(entries.values()), dtype=float)
    kernel = sparse.csr_array((data, (rows, cols)), shape=(n, n))
    return Graph(order, kernel)


# -- generators ------------------------------------------------------------


def complete_graph(d: int) -> Graph:
    """Complete graph on ``d >= 2`` vertices ``x1 .. xd`` with unit weights."""
    d = int(d)
    if d < 2:
        raise ValidationError("complete graph needs at least 2 vertices")
    names = [f"x{i + 1}" for i in range(d)]
    kernel = np.ones((d, d)) - np.eye(d)
    return Graph(names, sparse.csr_array(kernel))


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
    """Hop distances from vertex index ``src`` to every vertex, -1 where unreachable.

    One breadth-first search along out-edges; :func:`graph_distance` and
    :func:`~pmelab.estimates.harnack_check` read their distances from it.
    """
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
    """Smallest positive kernel entry."""
    return float(g.kernel_matrix().data.min())


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
