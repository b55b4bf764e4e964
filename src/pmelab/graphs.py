"""Finite weighted graphs and the small generator zoo used by the lab.

A graph is a finite vertex set together with a nonnegative edge kernel
``k(x, y)`` with ``k(x, x) = 0``.  The kernel may be asymmetric; operations
that require symmetry (hop distances, Harnack bounds, reversible measures)
validate it themselves.  Vertices are opaque strings ordered by first
appearance, and every field over a graph is a numpy array aligned with
``Graph.vertices``.
"""

from __future__ import annotations

import operator
from collections import deque
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import _EXPORTS
from .errors import NoPathError, ValidationError

__all__ = list(_EXPORTS["graphs"])


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
        names = tuple(str(v) for v in vertices)  # ids are names: 1 and "1" are one vertex
        if len(set(names)) != n:
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
        self.vertices: tuple[str, ...] = names
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
        """Kernel sums ``sum_y k(x, y) F(..., y)`` at every vertex ``x``.

        ``F`` has shape ``(..., n)``: one field or a batch of any leading
        shape.  Each sum adds the stored entries of row ``x`` one by one in
        storage order, starting from 0, as scipy's CSR product does, so the
        sums equal its sums bit for bit.  One field is summed in one pass
        over the entries taken slot-major (every row's first entry, then
        every row's second, ...), which leaves each row's entries in storage
        order but lets consecutive adds go to different rows.  Time and
        memory grow with the number of stored entries times the number of
        fields.
        """
        return _scatter(self._entry_table, F)

    def laplacian(self, F: np.ndarray) -> np.ndarray:
        """Graph Laplacian ``sum_y k(x, y) (F(..., y) - F(..., x))`` at every vertex ``x``.

        ``F`` has shape ``(..., n)``.  The scatter of :meth:`kernel_sum`,
        slot-major for one field too, over a table that adds
        ``-degree(x) F(x)`` after row ``x``'s entries, so the result equals
        ``kernel_sum(F) - degree * F`` bit for bit: ``S + (-d) F`` rounds as
        ``S - d F`` does.
        """
        return _scatter(self._laplacian_table, F)

    @cached_property
    def _entry_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """Rows, columns and weights of the stored entries, slot-major, and their :func:`_slot_groups` (see :func:`_table`)."""
        return _table(self.indptr, self.n, self.indices, self.data)

    @cached_property
    def _laplacian_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """:attr:`_entry_table` with weight ``-degree(x)`` at column ``x`` after row ``x``'s entries.

        Every row gets the diagonal entry, also one that stores no entries,
        so its last slot holds the diagonal.
        """
        n = self.n
        rows = np.concatenate((self.rows, np.arange(n)))
        order = np.argsort(rows, kind="stable")
        columns = np.concatenate((self.indices, np.arange(n)))[order]
        weights = np.concatenate((self.data, -self.degree))[order]
        return _table(_indptr(rows[order], n), n, columns, weights)

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


def _table(indptr: np.ndarray, n: int, columns: np.ndarray, weights: np.ndarray) -> tuple:
    """The entry table of a CSR table stored row by row: its rows, columns and weights slot-major, and its :func:`_slot_groups`.

    Slot-major is every row's first entry, then every row's second, and so
    on, rows ascending within a slot, so each row keeps its storage order.
    """
    rows = np.repeat(np.arange(n), np.diff(indptr))
    order = np.argsort(np.arange(len(rows)) - indptr[rows], kind="stable")  # by slot, stable: rows ascend
    return rows[order], columns[order], weights[order], _slot_groups(indptr, n, columns, weights[:, None])


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


def _scatter(table: tuple, F: np.ndarray) -> np.ndarray:
    """Row sums ``sum_s weights[s] F(..., columns[s])`` of an entry table, for ``F`` of shape ``(..., n)``.

    Each sum starts from 0 and adds its row's entries in table order: one
    ``np.bincount`` for one field, the table's :func:`_slot_groups` slot by
    slot for several (0 at rows in no group).  The one-field entries come
    slot-major: ``np.bincount`` adds each entry to its row's running sum in
    input order, so the sums are those of the row-by-row order, but
    consecutive adds go to different rows and need not wait on each other:
    about 30% less time on rows of 30 entries, 40-45% on rows of 100 to 300.
    """
    rows, columns, weights, groups = table
    if F.ndim == 1:
        return np.bincount(rows, weights=weights * F[columns], minlength=len(F))
    shape, n = F.shape, F.shape[-1]
    if F.size == n:
        return _scatter(table, F.reshape(n)).reshape(shape)
    # The terms of a group are laid out (slot, vertex, field) in memory with
    # at least two elements after the slot axis, and numpy adds along an
    # axis that is not the fastest one element by element, so each sum
    # starts from 0 and runs slot by slot (pairwise summation only runs
    # along the fastest).
    F = F.reshape(-1, n)
    out = np.zeros((n, len(F)))
    for rows, columns, weights in groups:
        terms = F.T[columns]
        terms *= weights
        if rows is None:  # the one group, of every vertex
            out = np.add.reduce(terms, axis=0)
            break
        out[rows] = np.add.reduce(terms, axis=0)
    return out.T.reshape(shape)


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

    Vertices are ordered by first appearance.  With ``symmetrize=True`` each
    triple also gives the reverse edge its weight.  The triples list edges:
    an ordered pair given again with the same weight, directly or as a
    mirror, is the same edge, and one given two weights is refused (a CSR
    kernel passed to :class:`Graph` adds its repeated entries instead).
    """
    return _assemble((("", x, y, w) for x, y, w in edges), symmetrize)


def _assemble(edges, symmetrize: bool) -> Graph:
    """:func:`build_graph` over ``(where, x, y, weight)``; ``where`` prefixes each refusal."""
    order: list[str] = []
    seen: dict[str, int] = {}
    entries: dict[tuple[int, int], float] = {}

    def vid(v: str) -> int:
        if v not in seen:
            seen[v] = len(order)
            order.append(v)
        return seen[v]

    for where, x, y, w in edges:
        w = float(w)
        if w < 0.0:
            raise ValidationError(f"{where}negative weight on edge ({x!r}, {y!r})")
        i, j = vid(str(x)), vid(str(y))
        if i == j:
            if w != 0.0:
                raise ValidationError(f"{where}self-loop at {x!r}")
            continue
        for pair in ((i, j), (j, i)) if symmetrize else ((i, j),):
            if pair in entries and entries[pair] != w:
                a, b = order[pair[0]], order[pair[1]]
                raise ValidationError(f"{where}edge ({a!r}, {b!r}) given two weights, {entries[pair]!r} and {w!r}")
            entries[pair] = w
    if not order:
        raise ValidationError("empty edge list")
    rows = np.array([i for (i, _) in entries], dtype=np.intp)
    cols = np.array([j for (_, j) in entries], dtype=np.intp)
    data = np.array(list(entries.values()), dtype=float)
    at = np.argsort(rows, kind="stable")  # row by row, as CSR stores them
    return Graph(order, (data[at], cols[at], _indptr(rows, len(order))))


# -- generators ------------------------------------------------------------


def _integer(name: str, value) -> int:
    """``value`` as an ``int`` if it is an integer other than a bool, else a ``ValidationError``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, not {value!r}") from None


def complete_graph(d: int) -> Graph:
    """Complete graph on ``d >= 2`` vertices ``x1 .. xd`` with unit weights."""
    d = _integer("complete graph size", d)
    if d < 2:
        raise ValidationError("complete graph needs at least 2 vertices")
    names = [f"x{i + 1}" for i in range(d)]
    return Graph(names, np.ones((d, d)) - np.eye(d))


def path_graph(n: int) -> Graph:
    """Path on vertices ``1 .. n`` with unit weights, ``n >= 2``."""
    n = _integer("path graph size", n)
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
    radius = _integer("window radius", radius)
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


def _text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; any other file is refused by its path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not a UTF-8 text file") from None


def _records(path, fields: str):
    """``(lineno, parts)`` of each record of a whitespace-separated text file.

    Everything after ``#`` on a line is a comment and blank lines are
    skipped; a record without one part per word of ``fields`` is refused.
    """
    width = len(fields.split())
    for lineno, raw in enumerate(_text_lines(path), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) != width:
            raise ValidationError(f"{path}:{lineno}: expected '{fields}'")
        yield lineno, parts


def load_edge_list(path, symmetrize: bool = False) -> Graph:
    """Read a graph from a text file of ``<vertex> <vertex> <weight>`` lines.

    Everything after ``#`` on a line is a comment; blank lines are skipped.
    """
    edges = []
    for lineno, parts in _records(path, "<vertex> <vertex> <weight>"):
        try:
            w = float(parts[2])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: bad weight {parts[2]!r}") from None
        edges.append((f"{path}:{lineno}: ", parts[0], parts[1], w))
    if not edges:
        raise ValidationError(f"{path}: no edges")
    return _assemble(edges, symmetrize)


def save_edge_list(g: Graph, path) -> None:
    """Write every stored directed edge as ``<vertex> <vertex> <weight>``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# edge list: <vertex> <vertex> <weight>\n")
        for i, x in enumerate(g.vertices):
            for j, w in zip(g.neighbors_idx(i), g.weights_idx(i)):
                fh.write(f"{x} {g.vertices[j]} {w:.17g}\n")


GENERATOR_HELP = "complete:D | path:n | square | zwindow:radius | <edge-list file>"


def resolve_graph(spec: str) -> Graph:
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
    return load_edge_list(spec)
