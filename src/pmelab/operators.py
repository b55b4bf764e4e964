"""Pointwise operators for the porous medium equation on weighted graphs.

The discrete diffusion ``du/dt = L(u^m)`` with exponent ``m > 1`` is studied
through its pressure ``v = (m/(m-1)) u^(m-1)``.  This module collects the
algebra that the verification routines build on:

* the generalized graph Laplacian ``L``,
* remainder functions of the exponential replacing ``|grad|^2`` calculus,
* the nonlinear gradient energy entering the pressure equation
  ``dv/dt = (m-1) v Lv + gradient_energy(v)``,
* the curvature forms whose lower bounds are the discrete
  curvature-dimension conditions, and
* the mixed second-order quantity bounded by the Aronson-Benilan estimate.

Pointwise operators take ``(graph, field, vertex)`` and return a float; the
``*_field`` variants evaluate every vertex at once.  Fields are numpy arrays
aligned with ``graph.vertices`` (see :func:`as_field`), or for ``*_field``
stacks of shape ``(..., n)``.  Each formula is written once, in the
unvalidated batched core at the end of this module, which the solver, the
checkers and the curvature-dimension search call as well.

Zero values are accepted where a boundary limit is well defined (``m >= 2``
searches probe the boundary of the positive cone); the conventions
``0^0 = 1`` and division limits into ``+inf`` match the continuous
extensions of the formulas.  For ``m < 2`` all fields must stay strictly
positive.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError
from .graphs import Graph, _stored_entries

__all__ = [
    "as_field",
    "check_exponent",
    "check_mixing",
    "laplacian",
    "laplacian_field",
    "exp_remainder",
    "exp_remainder_m",
    "difference_sum",
    "pressure",
    "pressure_inverse",
    "gradient_energy",
    "gradient_energy_field",
    "carre_du_champ",
    "curvature_form",
    "curvature_form_mixed",
    "mixed_laplacian",
    "mixed_laplacian_field",
    "upsilon",
    "tilde_upsilon",
    "psi_H",
    "tilde_psi",
    "gamma",
    "d_m",
    "d_m_alpha",
    "g_quantity",
]


# -- argument validation ---------------------------------------------------


def check_exponent(m: float) -> float:
    """Validate a diffusion exponent: a finite real with ``m > 1``."""
    m = float(m)
    if not 1.0 < m < math.inf:
        raise DomainError(f"exponent must satisfy m > 1, got {m}")
    return m


def check_mixing(alpha: float) -> float:
    """Validate a mixing parameter: a real in ``[0, 1]``."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise DomainError(f"mixing parameter must lie in [0, 1], got {alpha}")
    return alpha


def as_field(g: Graph, values) -> np.ndarray:
    """Coerce ``values`` to a float array aligned with ``g.vertices``.

    Accepts a scalar (broadcast), a mapping from vertex id to value, or a
    sequence in graph order.
    """
    if isinstance(values, dict):
        missing = [v for v in g.vertices if v not in values]
        if missing:
            raise DomainError(f"field missing vertices {missing}")
        return np.array([float(values[v]) for v in g.vertices])
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        return np.full(g.n, float(arr))
    if arr.shape != (g.n,):
        raise DomainError(f"field has shape {arr.shape}, expected ({g.n},)")
    return arr.copy()


def _fields(g: Graph, values) -> np.ndarray:
    """Float array of shape ``(n,)`` or ``(..., n)``, not copied."""
    arr = None if isinstance(values, dict) else np.asarray(values, dtype=float)
    if arr is None or arr.ndim == 0 or arr.shape[-1] != g.n:
        return as_field(g, values)  # mappings, scalars and bad shapes
    return arr


def _check_field(u: np.ndarray, m: float, allow_zero: bool) -> np.ndarray:
    if not np.all(np.isfinite(u)):
        raise DomainError("field contains non-finite values")
    if allow_zero and m >= 2.0:
        if np.any(u < 0.0):
            raise DomainError("field contains negative values")
    elif np.any(u <= 0.0):
        raise DomainError("field must be strictly positive")
    return u


def _has_negative(a: np.ndarray) -> bool:
    """``np.any(a < 0.0)`` in one reduction: NaN is not negative."""
    return np.fmin.reduce(a, axis=None, initial=math.inf) < 0.0


# -- Laplacian and kernel sums ---------------------------------------------


def laplacian_field(g: Graph, f) -> np.ndarray:
    """Generalized graph Laplacian ``Lf(x) = sum_y k(x,y) (f(y) - f(x))``."""
    return _lap(g, g.degree, _fields(g, f))


def laplacian(g: Graph, f, x: str) -> float:
    """Value of ``Lf`` at a single vertex: :func:`difference_sum` of the identity."""
    return difference_sum(g, lambda r: r, f, x)


def difference_sum(g: Graph, h: Callable[[np.ndarray], np.ndarray], f, x: str) -> float:
    """Kernel-weighted sum ``sum_y k(x,y) h(f(y) - f(x))``.

    With ``h`` the identity this is exactly :func:`laplacian`.
    """
    f = as_field(g, f)
    i = g.index(x)
    w = g.weights_idx(i)
    return float(w @ np.asarray(h(f[g.neighbors_idx(i)] - f[i]), dtype=float))


# -- remainder functions of the exponential --------------------------------


def exp_remainder(r):
    """First-order Taylor remainder of the exponential, ``e^r - 1 - r``.

    Nonnegative, zero only at ``r = 0``.  Saturates to ``+inf`` for large
    positive arguments instead of overflowing.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(over="ignore"):
        out = np.asarray(np.expm1(r) - r)
    # expm1(r) - r errs by about eps |r|, more than r^2/2 near 0, so for
    # |r| < 1/2 sum the series r^2/2 (1 + r/3 (1 + r/4 (...))) to r^17/17!.
    small, tail = np.abs(r) < 0.5, 1.0
    for k in range(17, 2, -1):
        tail = 1.0 + r[small] * tail / k
    out[small] = 0.5 * r[small] * r[small] * tail
    return float(out) if out.ndim == 0 else out


def exp_remainder_m(m: float, r):
    """Exponent-weighted remainder combination for diffusion exponent ``m``.

    ``((m-1)^2/m) * exp_remainder(m r / (m-1)) - (m-1) * exp_remainder(r)``.
    Nonnegative for every ``m > 1``; for ``m = 2`` it collapses to
    ``(e^r - 1)^2 / 2``.  Saturates to ``+inf`` for large positive ``r``.
    """
    m = check_exponent(m)
    r = np.asarray(r, dtype=float)
    q = m / (m - 1.0)
    lead = exp_remainder(q * r)
    with np.errstate(invalid="ignore"):
        out = np.where(
            np.isinf(lead),
            np.inf,
            (m - 1.0) ** 2 / m * lead - (m - 1.0) * exp_remainder(r),
        )
    # The two terms are about r^2/2 times a factor and cancel to r^2/2, so
    # for small r they lose digits and, once subnormal, the sign.  For
    # |q r| < 1/2 sum the series sum_k s_k r^k / k! with positive
    # s_k = 1 + q + ... + q^(k-2) instead, by Horner to k = 24.
    small = np.abs(q * r) < 0.5
    rs, s = r[small], [1.0]
    for _ in range(22):
        s.append(1.0 + q * s[-1])  # s_2 .. s_24
    tail = s[-1]
    for k in range(24, 2, -1):
        tail = s[k - 3] + rs * tail / k
    out[small] = 0.5 * rs * rs * tail
    return float(out) if out.ndim == 0 else out


# -- pressure --------------------------------------------------------------


def pressure(m: float, u):
    """Pressure ``v = (m/(m-1)) u^(m-1)`` of a nonnegative density."""
    m = check_exponent(m)
    u = np.asarray(u, dtype=float)
    if _has_negative(u):
        raise DomainError("density must be nonnegative")
    out = _pressure(m, u)
    return float(out) if out.ndim == 0 else out


def pressure_inverse(m: float, v):
    """Density recovered from a nonnegative pressure field."""
    m = check_exponent(m)
    v = np.asarray(v, dtype=float)
    if _has_negative(v):
        raise DomainError("pressure must be nonnegative")
    out = ((m - 1.0) / m * v) ** (1.0 / (m - 1.0))
    return float(out) if out.ndim == 0 else out


# -- gradient energy -------------------------------------------------------


def gradient_energy_field(g: Graph, m: float, w) -> np.ndarray:
    """Vectorized :func:`gradient_energy` over all vertices."""
    m = check_exponent(m)
    w = _check_field(_fields(g, w), m, allow_zero=True)
    return _gradient_energy(g, g.degree, m, w)


def gradient_energy(g: Graph, m: float, w, x: str) -> float:
    """Nonlinear gradient energy of a pressure field at a vertex.

    ``sum_y k(x,y) [ ((m-1)/m) w(x)^2
    + ((m-1)^2/m) w(x)^((m-2)/(m-1)) w(y)^(m/(m-1)) - (m-1) w(x) w(y) ]``

    This is the discrete stand-in for ``|grad w|^2`` in the pressure
    equation and the entropy dissipation.  It is nonnegative, and for
    ``m = 2`` it equals :func:`carre_du_champ`.  It equals the logarithmic
    form ``w(x)^2 * difference_sum(exp_remainder_m, log w)(x)``, which is
    how it is evaluated for ``m < 1.5``.
    """
    return float(gradient_energy_field(g, m, as_field(g, w))[g.index(x)])


def carre_du_champ(g: Graph, f, x: str) -> float:
    """Quadratic energy density ``(1/2) sum_y k(x,y) (f(y) - f(x))^2``."""
    return 0.5 * difference_sum(g, np.square, f, x)


# -- curvature forms -------------------------------------------------------


def curvature_form(g: Graph, m: float, u, x: str) -> float:
    """Curvature form of the diffusion at a vertex.

    ``m * sum_y k(x,y) [ u(y)^(m-2) L(u^m)(y) - u(x)^(m-2) L(u^m)(x) ]``

    Along solutions this is the time derivative of the pressure Laplacian;
    bounding it below by ``(1/d) (Lv)^2`` at admissible vertices is the
    curvature-dimension condition with mixing 0.
    """
    return curvature_form_mixed(g, m, 0.0, u, x)


def curvature_form_mixed(g: Graph, m: float, alpha: float, u, x: str) -> float:
    """Curvature form with mixing parameter ``alpha`` in ``[0, 1]``.

    ``sum_y k(x,y) [ (1 - alpha + alpha u(y)/u(x)) m u(y)^(m-2) L(u^m)(y)
    - (m - alpha + alpha (u(y)/u(x))^m) u(x)^(m-2) L(u^m)(x) ]``

    Reduces to :func:`curvature_form` at ``alpha = 0``.  For ``alpha > 0``
    it requires ``u(x) > 0``; zero values are allowed for ``m >= 2``.
    """
    m = check_exponent(m)
    alpha = check_mixing(alpha)
    u = _check_field(as_field(g, u), m, allow_zero=True)
    i = g.index(x)
    if alpha > 0.0 and u[i] <= 0.0:
        raise DomainError("curvature form needs a positive value at the base vertex")
    nb, w = g.neighbors_idx(i), g.weights_idx(i)
    # one row of the batched form, so this matches the CD search bit for bit
    return float(_curvature_form(g, g.degree, m, alpha, u[None, :], i, nb, w)[0])


# -- mixed second-order quantity -------------------------------------------


def mixed_laplacian_field(g: Graph, m: float, alpha: float, u) -> np.ndarray:
    """Vectorized :func:`mixed_laplacian` over all vertices."""
    m = check_exponent(m)
    alpha = check_mixing(alpha)
    u = _check_field(_fields(g, u), m, allow_zero=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _mixed_laplacian(g, g.degree, m, alpha, u)


def mixed_laplacian(g: Graph, m: float, alpha: float, u, x: str) -> float:
    """Pressure Laplacian plus the mixed gradient correction at a vertex.

    ``Lv(x) + alpha * gradient_energy(v)(x) / ((m-1) v(x))`` with
    ``v = pressure(m, u)``.  The negative of this quantity is what the
    Aronson-Benilan estimate bounds by ``d/t`` along solutions, and its
    strict positive local maxima define admissibility for the
    curvature-dimension checks.
    """
    return float(mixed_laplacian_field(g, m, alpha, as_field(g, u))[g.index(x)])


# -- batched core ----------------------------------------------------------
# ``K`` is a kernel: a graph, summed from its CSR arrays, or a matrix such as
# a two-hop ball's dense one; ``deg`` is the degree of the graph ``K`` comes
# from, which for a ball is not the row sums of ``K``.  A graph's Laplacian
# reads its cached entry table, each row's stored entries followed by
# ``-degree`` at the diagonal, in one scatter (``np.bincount`` for one field,
# the slot-by-slot row-group reduction for a batch); a matrix's is
# ``K F - deg F``.  Callers validate and set the error state.


def _ksum(K, F):
    """Kernel sums ``sum_y K(x,y) F(..., y)`` at every vertex ``x``.

    On a graph these are :meth:`Graph.kernel_sum`, equal to scipy's CSR
    product bit for bit.
    """
    if F.ndim > 2:
        return _ksum(K, F.reshape(-1, F.shape[-1])).reshape(F.shape)
    if isinstance(K, Graph):
        return K.kernel_sum(F)
    return (K @ F.T).T


def _lap(K, deg, F):
    """Laplacian ``sum_y K(x,y) (F(y) - F(x))``.

    On a graph this is :meth:`Graph.laplacian`, one scatter over its entry
    table; a matrix kernel subtracts ``deg * F``.
    """
    if isinstance(K, Graph):
        return K.laplacian(F)
    return _ksum(K, F) - deg * F


def _flow(K, deg, m, U):
    """Porous medium right-hand side ``L(u^m)``.

    A graph's goes straight to :meth:`Graph.laplacian`, one call layer
    fewer than through :func:`_lap`: the solver evaluates this six times
    per step, on small graphs at the cost of its calls.
    """
    F = U**m
    return K.laplacian(F) if isinstance(K, Graph) else _lap(K, deg, F)


def _dtv(K, deg, m, U):
    """Pressure time derivative along the flow, ``m u^(m-2) L(u^m)``."""
    return m * U ** (m - 2.0) * _flow(K, deg, m, U)


def _pressure(m, U):
    """Pressure ``(m/(m-1)) u^(m-1)``."""
    return m / (m - 1.0) * U ** (m - 1.0)


def _gradient_energy(K, deg, m, W):
    """Gradient energy of pressure fields ``W``, see :func:`gradient_energy`."""
    if m < 1.5:
        # Near m = 1 the power form cancels catastrophically (its exponents
        # grow like 1/(m-1)), so evaluate through the logarithmic form,
        # which stays conditioned there; zero values cannot occur for m < 2.
        n = W.shape[-1]
        rows, cols, weights = (K.rows, K.indices, K.data) if isinstance(K, Graph) else _stored_entries(K, n)
        lw = np.log(W.reshape(-1, n))
        vals = weights * exp_remainder_m(m, lw[:, cols] - lw[:, rows])
        at = rows + n * np.arange(len(lw))[:, None]
        return W**2 * np.bincount(at.ravel(), weights=vals.ravel(), minlength=lw.size).reshape(W.shape)
    c1 = (m - 1.0) / m
    c2 = (m - 1.0) ** 2 / m
    p = (m - 2.0) / (m - 1.0)
    q = m / (m - 1.0)
    return c1 * deg * W**2 + c2 * W**p * _ksum(K, W**q) - (m - 1.0) * W * _ksum(K, W)


def _mixed_laplacian(K, deg, m, alpha, U):
    """``G = Lv + alpha * gradient_energy(v) / ((m-1) v)`` with ``v`` the pressure.

    Where ``v(x) = 0`` the correction takes its limit: ``+inf`` when some
    neighbor carries positive pressure, otherwise 0.
    """
    V = _pressure(m, U)
    LV = _lap(K, deg, V)
    if alpha == 0.0:
        return LV
    G = LV + alpha * _gradient_energy(K, deg, m, V) / ((m - 1.0) * V)
    zero = V == 0.0
    if zero.any():
        has_mass = _ksum(K, V ** (m / (m - 1.0)))[zero] > 0.0
        G[zero] = np.where(has_mass, np.inf, LV[zero])
    return G


def _curvature_form(K, deg, m, alpha, U, i, nb, w):
    """Curvature form at vertex ``i`` with neighbors ``nb`` of weights ``w``.

    See :func:`curvature_form_mixed`; summed neighbor by neighbor.  At
    ``alpha = 0`` the ratio ``u(y)/u(x)`` is not formed, so ``u(x)`` may
    vanish.
    """
    LP = _flow(K, deg, m, U)
    ux = U[..., i]
    lead = trail = 0.0
    for j, wj in zip(nb, w):
        r = U[..., j] / ux if alpha else 0.0
        lead = lead + wj * (1.0 - alpha + alpha * r) * m * U[..., j] ** (m - 2.0) * LP[..., j]
        trail = trail + wj * (m - alpha + alpha * r**m)
    return lead - trail * ux ** (m - 2.0) * LP[..., i]


def _block_count(rows: int, width: int, budget: int, min_rows: int) -> int:
    """How many near-equal blocks (``np.array_split``) to cut ``rows`` rows of ``width`` values into.

    Enough that a block holds at most ``budget`` values plus one row, but no
    more than leave each block ``min_rows`` rows, and at least one.
    """
    return max(1, min(-(-rows * width // budget), rows // min_rows))


# -- alternate operation names ---------------------------------------------

upsilon = exp_remainder
tilde_upsilon = exp_remainder_m
psi_H = difference_sum
tilde_psi = gradient_energy
gamma = carre_du_champ
d_m = curvature_form
d_m_alpha = curvature_form_mixed
g_quantity = mixed_laplacian
