"""Pointwise operators for the porous medium equation on weighted graphs.

The discrete diffusion ``du/dt = L(u^m)`` with exponent ``m > 1`` is studied
through its pressure ``v = (m/(m-1)) u^(m-1)``.  This module collects the
algebra that the verification routines build on:

* the generalized graph Laplacian ``L``,
* remainder functions of the exponential replacing ``|grad|^2`` calculus,
  written once as the per-edge remainder ``R_m`` (``(m-1)/m`` at 0, ``+inf`` at ``+inf``),
* the nonlinear gradient energy entering the pressure equation
  ``dv/dt = (m-1) v Lv + gradient_energy(v)``,
* the mixed second-order quantity ``G`` bounded by the Aronson-Benilan
  estimate, by the pressure equation ``(1-alpha) Lv + alpha L(u^m)/u``, and
* its time derivatives along the flow, the curvature forms whose lower
  bounds are the discrete curvature-dimension conditions.

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

from . import _EXPORTS
from .errors import DomainError
from .graphs import Graph

__all__ = list(_EXPORTS["operators"])


# -- argument validation ---------------------------------------------------


def check_exponent(m: float) -> float:
    """Validate a diffusion exponent: a real with ``m > 1`` and ``(m - 1)**2`` a float."""
    m = float(m)
    if not 1.0 < m < math.inf:
        raise DomainError(f"exponent must satisfy m > 1, got {m}")
    if math.isinf((m - 1.0) * (m - 1.0)):
        raise DomainError(f"exponent too large: (m - 1)**2 overflows a float at m = {m}")
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


def _check_field(u: np.ndarray, m: float) -> np.ndarray:
    if not np.all(np.isfinite(u)):
        raise DomainError("field contains non-finite values")
    if m >= 2.0:
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
    return g.laplacian(_fields(g, f))


def laplacian(g: Graph, f, x: str) -> float:
    """Value of ``Lf`` at a single vertex: the entry at ``x`` of :func:`laplacian_field`, bit for bit."""
    return float(laplacian_field(g, as_field(g, f))[g.index(x)])


def difference_sum(g: Graph, h: Callable[[np.ndarray], np.ndarray], f, x: str) -> float:
    """Kernel-weighted sum ``sum_y k(x,y) h(f(y) - f(x))`` of an edge function ``h``."""
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

    ``((m-1)^2/m) * exp_remainder(m r / (m-1)) - (m-1) * exp_remainder(r)``, the per-edge
    remainder ``R_m(e^r)`` of :func:`gradient_energy`.  Nonnegative for every ``m > 1``; for
    ``m = 2`` it collapses to ``(e^r - 1)^2 / 2``.  ``(m-1)/m`` at ``r = -inf``, ``+inf`` at
    ``r = +inf`` and wherever it overflows.
    """
    m = check_exponent(m)
    out = _edge_remainder(m, np.expm1(np.asarray(r, dtype=float)))
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
    out = _pow((m - 1.0) / m * v, 1.0 / (m - 1.0))
    return float(out) if out.ndim == 0 else out


# -- gradient energy -------------------------------------------------------


def gradient_energy_field(g: Graph, m: float, w) -> np.ndarray:
    """Vectorized :func:`gradient_energy` over all vertices."""
    m = check_exponent(m)
    w = _check_field(_fields(g, w), m)
    return _gradient_energy(g, m, w)


def gradient_energy(g: Graph, m: float, w, x: str) -> float:
    """Nonlinear gradient energy of a pressure field at a vertex.

    ``sum_y k(x,y) [ ((m-1)/m) w(x)^2
    + ((m-1)^2/m) w(x)^((m-2)/(m-1)) w(y)^(m/(m-1)) - (m-1) w(x) w(y) ]``

    This is the discrete stand-in for ``|grad w|^2`` in the pressure
    equation and the entropy dissipation.  It is nonnegative, and for
    ``m = 2`` it equals :func:`carre_du_champ`.  It is ``w(x)^2 sum_y k(x,y) R_m(w(y)/w(x))`` with
    ``R_m(x) = ((m-1)^2/m) x^(m/(m-1)) - (m-1) x + (m-1)/m`` (``(m-1)/m`` at 0, ``+inf`` at ``+inf``),
    which is the logarithmic form ``w(x)^2 * difference_sum(exp_remainder_m, log w)(x)``.
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

    Reduces to :func:`curvature_form` at ``alpha = 0``.  Along solutions it is ``d/dt``
    of :func:`mixed_laplacian`, evaluated as ``(1-alpha) L(D) + alpha (L(u D)/u - (L(u^m)/u)^2)``
    at ``x`` with ``D = dv/dt``.  For ``alpha > 0`` it requires ``u(x) > 0``; zero
    values are allowed for ``m >= 2``.
    """
    m = check_exponent(m)
    alpha = check_mixing(alpha)
    u = _check_field(as_field(g, u), m)
    i = g.index(x)
    if alpha > 0.0 and u[i] <= 0.0:
        raise DomainError("curvature form needs a positive value at the base vertex")
    # one row of the batched form on the graph, so this equals that row bit
    # for bit (the CD search's dense ball kernel may differ in the last bits)
    return float(_curvature_form(g, m, alpha, u[None, :], i)[0])


# -- mixed second-order quantity -------------------------------------------


def mixed_laplacian_field(g: Graph, m: float, alpha: float, u) -> np.ndarray:
    """Vectorized :func:`mixed_laplacian` over all vertices."""
    m = check_exponent(m)
    alpha = check_mixing(alpha)
    u = _check_field(_fields(g, u), m)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _mixed_laplacian(g, m, alpha, u)


def mixed_laplacian(g: Graph, m: float, alpha: float, u, x: str) -> float:
    """Pressure Laplacian plus the mixed gradient correction at a vertex.

    ``Lv(x) + alpha * gradient_energy(v)(x) / ((m-1) v(x))`` with
    ``v = pressure(m, u)``.  The negative of this quantity is what the
    Aronson-Benilan estimate bounds by ``d/t`` along solutions, and its
    strict positive local maxima define admissibility for the
    curvature-dimension checks.  By the pressure equation it is evaluated as
    ``(1-alpha) Lv(x) + alpha L(u^m)(x)/u(x)``, which has the limit ``+inf`` (if
    ``L(u^m)(x) > 0``) or ``Lv(x)`` where ``u(x) = 0`` and ``alpha > 0``.
    """
    return float(mixed_laplacian_field(g, m, alpha, as_field(g, u))[g.index(x)])


# -- batched core ----------------------------------------------------------
# ``K`` is a kernel: any object whose ``laplacian(F)`` takes fields ``F`` of
# shape ``(..., n)`` and returns ``sum_y K(x,y) (F(y) - F(x))`` at every vertex
# ``x``.  The flow, ``dv/dt``, ``G`` and the curvature form read nothing else,
# so each kernel owns its storage: a :class:`~pmelab.graphs.Graph` scatters
# over its cached entry table, and the CD search's two-hop ball
# (``cd._BallKernel``) multiplies its dense matrix.  ``_gradient_energy``, the
# checkers' independent route to ``G``, also reads a graph's ``degree``,
# ``kernel_sum`` and stored entries.  Callers validate and set the error state.
# Every power of a field, here, in the solver and in the checkers, is taken in
# ``_pow``, which skips the pass only where the result is exact (``p = 1`` and
# ``p = 0``); other exponents go to numpy's ``**``, whose last bits follow
# numpy's SIMD dispatch.  It is the lab's only such power: powers of times are
# libm's (see :mod:`pmelab.estimates`).


def _pow(U, p):
    """``U ** p`` bit for bit, with no pass at ``p = 1`` or ``p = 0``.

    At ``p = 1`` it is ``U`` itself, not a copy, so callers only multiply it; at ``p = 0`` it is ``1.0``.
    """
    if p == 1.0:
        return U
    if p == 0.0:
        return 1.0  # as 0 ** 0, inf ** 0 and nan ** 0
    return U**p


def _flow(K, m, U):
    """Porous medium right-hand side ``L(u^m)``."""
    return K.laplacian(_pow(U, m))


def _dtv(K, m, U, LP=None):
    """Pressure time derivative along the flow, ``m u^(m-2) L(u^m)``; ``LP`` is ``L(u^m)`` if the caller holds it."""
    return m * _pow(U, m - 2.0) * (_flow(K, m, U) if LP is None else LP)


def _pressure(m, U):
    """Pressure ``(m/(m-1)) u^(m-1)``."""
    return m / (m - 1.0) * _pow(U, m - 1.0)


def _edge_remainder(m, s):
    """``R_m(1 + s) = ((m-1)^2/m) ((1+s)^q - 1 - q s)``, ``q = m/(m-1)``, for ``s >= -1``, as a new array.

    ``(m-1)/m`` at ``s = -1``, ``+inf`` at ``+inf`` and where it overflows.  Not ``(1+s)**q``,
    which loses about ``q`` ulps to the rounding of ``1+s``.
    """
    q, c2 = m / (m - 1.0), (m - 1.0) ** 2 / m
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        qL = q * np.log1p(s)
        # c2 e^(qL) stays finite beyond where e^(qL) overflows when c2 < 1
        lead = np.where(qL < 700.0, c2 * np.expm1(qL), np.exp(qL + math.log(c2)))
        out = np.select([s == -1.0, s == math.inf], [(m - 1.0) / m, math.inf], lead - (m - 1.0) * s)
    # The terms cancel to s^2/2, losing about 4/((q-1)|s|) ulps: for |q s| < 1/2 sum (s^2/2) (1 + sum_j
    # b_j s^(j-2)), b_j = C(q, j)/C(q, 2), to 2^-54; it ends for integer q, so m = 2 gives s^2/2 exactly.
    tau = 0.5 / q
    small = np.abs(s) < tau
    if small.any():
        j, b, tail = 3, (q - 2.0) / 3.0, 1.0
        ss = power = s[small]
        while abs(b) * tau ** (j - 2) >= 2.0**-54:
            tail, power, j = tail + b * power, power * ss, j + 1
            b *= (q - j + 1.0) / j
        out[small] = 0.5 * ss * ss * tail
    return out


def _gradient_energy(K, m, W):
    """Gradient energy of pressure fields ``W``, see :func:`gradient_energy`."""
    if m < 1.5:
        # Near m = 1 the kernel-sum form cancels catastrophically (its
        # exponents grow like 1/(m-1)), so sum the per-edge remainder at
        # s = (w(y) - w(x))/w(x); zero values cannot occur for m < 2.
        W2 = W.reshape(-1, W.shape[-1])
        wx = W2[:, K.rows]
        vals = K.data * _edge_remainder(m, (W2[:, K.indices] - wx) / wx)
        at = K.rows + W.shape[-1] * np.arange(len(W2))[:, None]
        return _pow(W, 2.0) * np.bincount(at.ravel(), weights=vals.ravel(), minlength=W2.size).reshape(W.shape)
    c1 = (m - 1.0) / m
    c2 = (m - 1.0) ** 2 / m
    p = (m - 2.0) / (m - 1.0)
    q = m / (m - 1.0)
    return c1 * K.degree * _pow(W, 2.0) + c2 * _pow(W, p) * K.kernel_sum(_pow(W, q)) - (m - 1.0) * W * K.kernel_sum(W)


def _mixed_laplacian(K, m, alpha, U, V=None, LP=None):
    """``G = (1-alpha) Lv + alpha L(u^m)/u`` with ``v`` the pressure, see :func:`mixed_laplacian`.

    Where ``u(x) = 0`` the quotient takes its limit: ``G(x) = +inf`` when
    ``L(u^m)(x) > 0`` (some neighbor carries mass), otherwise ``Lv(x)``.
    ``V`` is the pressure and ``LP`` is ``L(u^m)`` if the caller holds them.
    """
    LV = K.laplacian(_pressure(m, U) if V is None else V)
    if alpha == 0.0:
        return LV
    if LP is None:
        LP = _flow(K, m, U)
    G = (1.0 - alpha) * LV + alpha * LP / U
    zero = U == 0.0
    if zero.any():
        G[zero] = np.where(LP[zero] > 0.0, np.inf, LV[zero])
    return G


def _admissible(G, i, nbrs, delta=0.0):
    """The admissibility rule on ``G`` of shape ``(..., n)``: ``-G(i) > delta`` and ``-G(i) >= -G(y)``
    at every ``y`` in ``nbrs`` (ties admitted), read from ``G`` without negating it; NaN fails both."""
    gx = G[..., i]
    return (gx < -delta) & (gx[..., None] <= G[..., nbrs]).all(axis=-1)


def _curvature_form(K, m, alpha, U, i):
    """Curvature form ``dG/dt`` at vertex ``i``, see :func:`curvature_form_mixed`, as a new array.

    With ``D = dv/dt`` it is ``(1-alpha) L(D) + alpha (L(u D)/u - (L(u^m)/u)^2)`` at ``x``;
    ``u(x)`` may vanish at ``alpha = 0`` only.  ``L`` reads ``D`` at all ``n`` columns, a dense
    kernel through zero weights, so ``D`` must be finite there: ``u > 0`` wherever ``m < 2``.
    """
    if not alpha:
        return K.laplacian(_dtv(K, m, U))[..., i].copy()
    LP = _flow(K, m, U)
    D = _dtv(K, m, U, LP)
    ux, qx = U[..., i], LP[..., i] / U[..., i]
    mixed = alpha * (K.laplacian(U * D)[..., i] / ux - qx * qx)
    return mixed if alpha == 1.0 else (1.0 - alpha) * K.laplacian(D)[..., i] + mixed


def _block_count(rows: int, width: int, budget: int) -> int:
    """How many near-equal blocks (``np.array_split``) to cut ``rows`` rows of ``width`` values into.

    Enough that a block holds at most ``budget`` values plus one row, but no
    more blocks than rows, and at least one.
    """
    return max(1, min(-(-rows * width // budget), rows))


# -- alternate operation names ---------------------------------------------

upsilon = exp_remainder
tilde_upsilon = exp_remainder_m
psi_H = difference_sum
tilde_psi = gradient_energy
gamma = carre_du_champ
d_m = curvature_form
d_m_alpha = curvature_form_mixed
g_quantity = mixed_laplacian
