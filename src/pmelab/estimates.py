"""Inequality checkers along solutions of the graph porous medium equation.

All time derivatives are evaluated by exact substitution of the flow,
``dv/dt = m u^(m-2) L(u^m)``, never by finite differencing, so every slack
reported here is a sharp floating-point quantity and the default tolerance
is a pure round-off budget (``1e-8``).

Checked statements, for a trajectory with pressure ``v``:

* the time-scaled upper bound ``-(Lv + alpha * correction) <= d/t`` and its
  equivalent form through the pressure equation (``ab_check``);
* the differential Harnack hypothesis
  ``dv/dt >= (1-lambda) gradient_energy(v) - (mu/t) v``
  (``diff_harnack_residual``);
* the integrated Harnack bounds comparing ``t^mu v`` at two space-time
  points through a distance correction or a path correction, least over
  simple paths by a min-plus recursion (``harnack_check`` with
  :func:`harnack_rhs_path` and :func:`harnack_rhs_distance`);
* the pointwise quadratic minorant of the exponent-weighted remainder and
  the integral minimum inequality that drive the Harnack proof
  (``quadratic_minorant_check``, ``integral_min_inequality_check``).

The binding regime of the time-scaled bounds is small ``t``, so checkers
refine the first reported intervals through the trajectory's dense output
in addition to the reported grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .artifacts import jsonable, write_csv
from .errors import DomainError, LambdaOneError, ValidationError
from .graphs import Graph, _slot_groups, graph_distance, k_min
from .operators import (
    _dtv,
    _gradient_energy,
    _mixed_laplacian,
    _pressure,
    check_exponent,
    check_mixing,
    pressure,
)
from .solver import Trajectory, _window_slack

__all__ = [
    "EstimateReport",
    "ab_check",
    "diff_harnack_residual",
    "harnack_rhs_path",
    "harnack_rhs_distance",
    "harnack_check",
    "quadratic_minorant_check",
    "minorant_ratio",
    "integral_min_inequality_check",
    "lemma61_check",
    "lemma63_check",
]


@dataclass
class EstimateReport:
    """Minimum slack of one inequality over all checked points."""

    kind: str
    parameters: dict
    min_slack: float
    argmin: dict
    points_checked: int
    tolerance: float
    records: list = field(default_factory=list, repr=False)

    @property
    def passed(self) -> bool:
        return self.min_slack >= -self.tolerance

    def to_json_dict(self) -> dict:
        """Every field but ``records``, and ``passed``, in plain JSON types."""
        out = jsonable({f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"})
        out["passed"] = self.passed
        return out

    def write_slack_csv(self, path) -> None:
        """Per-point slack rows, ``t,x,slack`` or ``t1,t2,x1,x2,slack``."""
        pairs = self.kind in ("harnack_path", "harnack_distance")
        write_csv(path, ("t1", "t2", "x1", "x2", "slack") if pairs else ("t", "x", "slack"), self.records)


def _eval_points(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Times and states: reported ones plus 10x dense refinement of the earliest intervals."""
    ts, states = traj.times, traj.states
    if traj.dense is None or len(ts) < 2:
        return ts, states
    extra = np.linspace(ts[:-1][:10], ts[1:][:10], 11, axis=1)[:, 1:-1].ravel()
    ts = np.concatenate([ts, extra])
    order = np.argsort(ts, kind="stable")
    return ts[order], np.concatenate([states, traj.dense(extra)])[order]


def _check_tolerance(tol: float) -> None:
    if not (0.0 <= tol < math.inf):
        raise ValidationError(f"tol must be finite and nonnegative, got {tol}")


def _require_positive_times(traj: Trajectory) -> None:
    if traj.times[0] <= 0.0:
        raise ValidationError("trajectory must start at t > 0 for time-scaled bounds")


def _pressure_terms(traj: Trajectory):
    """Evaluation points with the pressure, its exact time derivative and gradient energy."""
    ts, U = _eval_points(traj)
    g, m = traj.graph, traj.m
    V = _pressure(m, U)
    return ts, U, V, _dtv(g, g.degree, m, U), _gradient_energy(g, g.degree, m, V)


def _row_minima(g: Graph, ts: np.ndarray, slack: np.ndarray, what: str):
    """Per-time ``(t, vertex, slack)`` minima and the index of the first overall minimum.

    A ``nan`` slack is no verdict: its terms overflowed or underflowed, and
    a :class:`DomainError` names where.
    """
    if math.isnan(slack.min()):  # the minimum is nan where any slack is
        k, i = np.argwhere(np.isnan(slack))[0]
        at = f"t={float(ts[k])!r}, vertex {g.vertices[i]!r}"
        raise DomainError(f"{what} slack is nan at {at}: its terms leave the float range")
    cols = np.argmin(slack, axis=1)
    mins = slack[np.arange(len(ts)), cols]
    records = [(t, g.vertices[i], s) for t, i, s in zip(ts.tolist(), cols.tolist(), mins.tolist())]
    return records, int(np.argmin(mins)), cols


def _check_lambda_mu(lam: float, mu: float) -> None:
    """The Harnack regime: ``lambda`` in ``[0, 1)`` and finite ``mu > 0``."""
    if lam == 1.0:
        raise LambdaOneError("lambda = 1 is outside the Harnack regime")
    if not (0.0 <= lam < 1.0):
        raise DomainError(f"lambda must lie in [0, 1), got {lam}")
    if not 0.0 < mu < math.inf:
        raise DomainError("mu must be positive and finite")


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a nan slack raises a DomainError
def ab_check(traj: Trajectory, alpha: float, d: float, tol: float = 1e-8) -> EstimateReport:
    """Check the time-scaled upper bound on the mixed pressure Laplacian.

    Verifies ``d/t + G(t, x) >= 0`` at every checked point, together with
    the equivalent formulation obtained by substituting the pressure
    equation,
    ``d/t - ((1-alpha) gradient_energy(v) - dv/dt) / ((m-1) v) >= 0``,
    with the exact time derivative.  The minimum slack across both forms is
    reported; on a graph satisfying ``CD(0, d)`` with mixing ``alpha`` it
    stays nonnegative up to round-off.  A ``nan`` slack raises a
    :class:`DomainError` instead of a verdict.
    """
    _check_tolerance(tol)
    alpha = check_mixing(alpha)
    if not 0.0 < d < math.inf:
        raise ValidationError("d must be positive and finite")
    _require_positive_times(traj)
    g, m = traj.graph, traj.m
    ts, U, V, dtv, psi = _pressure_terms(traj)
    slack_direct = d / ts[:, None] + _mixed_laplacian(g, g.degree, m, alpha, U)
    slack_pressure = d / ts[:, None] - ((1.0 - alpha) * psi - dtv) / ((m - 1.0) * V)
    records, k, cols = _row_minima(g, ts, np.minimum(slack_direct, slack_pressure), "AB")
    t, x, best = records[k]
    form = "direct" if slack_direct[k, cols[k]] <= slack_pressure[k, cols[k]] else "pressure_equation"
    return EstimateReport(
        "ab",
        {"m": m, "alpha": alpha, "d": d},
        best,
        {"t": t, "vertex": x, "form": form},
        len(ts) * g.n,
        tol,
        records,
    )


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a nan slack raises a DomainError
def diff_harnack_residual(traj: Trajectory, lam: float, mu: float, tol: float = 1e-8) -> EstimateReport:
    """Check ``dv/dt >= (1-lambda) gradient_energy(v) - (mu/t) v``.

    On a graph satisfying ``CD(0, d)`` with mixing ``alpha``, trajectories
    pass with ``mu = (m-1) d`` and ``lambda = alpha``; this hypothesis is
    what the integrated Harnack bounds are built from.  A ``nan`` slack
    raises a :class:`DomainError` instead of a verdict.
    """
    _check_tolerance(tol)
    _check_lambda_mu(lam, mu)
    _require_positive_times(traj)
    g, m = traj.graph, traj.m
    ts, U, V, dtv, psi = _pressure_terms(traj)
    records, k, _ = _row_minima(g, ts, dtv - (1.0 - lam) * psi + mu / ts[:, None] * V, "differential Harnack")
    t, x, best = records[k]
    return EstimateReport(
        "diff_harnack",
        {"m": m, "lambda": lam, "mu": mu},
        best,
        {"t": t, "vertex": x},
        len(ts) * g.n,
        tol,
        records,
    )


def _check_harnack_params(mu: float, lam: float, t1: float, t2: float) -> None:
    _check_lambda_mu(lam, mu)
    if not (0.0 < t1 < t2):
        raise ValidationError("need 0 < t1 < t2")
    for name, base, exponent in (("t2**(mu + 1)", t2, mu + 1.0), ("(t2 - t1)**2", t2 - t1, 2)):
        try:  # the largest powers of the corrections and of t^mu v
            base**exponent
        except OverflowError:
            raise DomainError(f"{name} = {base!r}**{exponent!r} overflows a float") from None


def _path_terms(mu: float, lam: float, t1: np.ndarray, t2: np.ndarray, n_edges: np.ndarray):
    """Zero-padded increments ``tau_j^(mu+1) - tau_{j-1}^(mu+1)`` and prefactors of ``n_edges``-edge paths."""
    steps = np.minimum(np.arange(n_edges.max() + 1), n_edges[:, None])
    powers = (t1[:, None] + steps * (t2 - t1)[:, None] / n_edges[:, None]) ** (mu + 1.0)
    width = np.float_power(t2 - t1, 2)  # libm's pow, as Python's float ** takes it
    return np.diff(powers, axis=1), 2.0 * n_edges**2 / ((1.0 - lam) * (mu + 1.0) * width)


def harnack_rhs_path(g: Graph, m: float, mu: float, lam: float, t1: float, t2: float, path: Sequence[str]) -> float:
    """Additive Harnack correction along an explicit path.

    With ``N`` edges and intermediate times ``tau_i = t1 + i (t2-t1)/N``:

    ``2 N^2 / ((1-lambda)(mu+1)(t2-t1)^2)
    * sum_j (tau_j^(mu+1) - tau_{j-1}^(mu+1)) / k(y_{j-1}, y_j)``

    with the sum added in path order.  The exponent ``m`` is part of the
    statement's context (it fixes how ``mu`` was chosen) but the correction
    itself does not depend on it.
    """
    check_exponent(m)
    _check_harnack_params(mu, lam, t1, t2)
    if len(path) < 2:
        raise ValidationError("a path needs at least one edge")
    weights = np.array([g.kernel(x, y) for x, y in zip(path, path[1:])])
    for x, y, w in zip(path, path[1:], weights.tolist()):
        if w <= 0.0:
            raise ValidationError(f"path step {x!r} -> {y!r} is not an edge")
    increments, scale = _path_terms(mu, lam, np.array([t1]), np.array([t2]), np.array([len(path) - 1]))
    return float(scale[0] * np.add.accumulate(increments[0] / weights)[-1])


def _distance_correction(dist: int, kmin: float, mu: float, lam: float, t1: float, t2: float) -> float:
    """The distance-form correction for a hop distance and a smallest weight."""
    span = t2 ** (mu + 1.0) - t1 ** (mu + 1.0)
    return 2.0 * dist**2 * span / ((1.0 - lam) * (mu + 1.0) * kmin * (t2 - t1) ** 2)


def harnack_rhs_distance(g: Graph, mu: float, lam: float, t1: float, t2: float, x1: str, x2: str) -> float:
    """Distance-form Harnack correction.

    ``2 d(x1,x2)^2 (t2^(mu+1) - t1^(mu+1))
    / ((1-lambda)(mu+1) k_min (t2-t1)^2)``,
    which is 0 when ``x1 = x2``; the two-point comparison remains valid in
    that case.
    """
    _check_harnack_params(mu, lam, t1, t2)
    return _distance_correction(graph_distance(g, x1, x2), k_min(g), mu, lam, t1, t2)


def _path_minima(g: Graph, mu: float, lam: float, rows: list) -> np.ndarray:
    """Least :func:`harnack_rhs_path` over the simple paths of ``N`` edges, per ``(t1, t2, i1, i2, N)`` row.

    On a symmetric kernel with ``N`` at most the hop distance plus 2 the simple paths are the
    non-backtracking walks (cutting a closed sub-walk of 3 or more edges out of such a walk would
    leave one shorter than the distance), so a min-plus recursion over directed edges, with
    ``y -> z`` extending the cheapest walk into ``y`` not from ``z``, finds each least path-order
    sum bit for bit: rounded addition is monotone.  Rows with no such path get inf.
    """
    t1, t2, sources, targets, n_edges = (np.array(c) for c in zip(*rows))
    increments, scale = _path_terms(mu, lam, t1, t2, n_edges)
    tails, heads, weights = g.rows, g.indices, g.data  # the directed edges y -> z
    # per out-degree c: the (c, vertices) positions of those vertices' edges, and of their reverses
    groups = [(at, back) for _, at, back in _slot_groups(g.indptr, g.n, np.arange(len(tails)), g.reverse)]
    best = np.full(len(sources), np.inf)
    order = np.argsort(-n_edges, kind="stable")  # longest first: the rows still walking are a prefix
    lengths, inc = n_edges[order], increments[order]
    walk = np.where(tails[:, None] == sources[order], inc[:, 0] / weights[:, None], np.inf)  # (edge, row)
    for j in range(1, lengths[0] + 1):
        if j > 1:
            step = np.empty((len(tails), np.count_nonzero(lengths >= j)))
            for at, back in groups:
                into = walk[back, : step.shape[1]]  # into[s, v]: cheapest walks into v along the reverse of s
                low = into.min(axis=0)
                tie = into == low
                other = np.where(tie.sum(axis=0) == 1, np.where(tie, np.inf, into).min(axis=0), low)
                step[at] = np.where(tie, other, low)
            walk = step + inc[: step.shape[1], j - 1] / weights[:, None]
        done = np.flatnonzero(lengths[: walk.shape[1]] == j)
        best[order[done]] = np.where(heads[:, None] == targets[order[done]], walk[:, done], np.inf).min(axis=0)
    return scale * best


def harnack_check(
    traj: Trajectory,
    mu: float,
    lam: float,
    pairs: Sequence[tuple[float, float, str, str]],
    tol: float = 1e-8,
) -> EstimateReport:
    """Check the integrated Harnack comparison over space-time pairs.

    For each ``(t1, t2, x1, x2)`` the slack
    ``t2^mu v(t2,x2) + correction - t1^mu v(t1,x1)`` is evaluated with the
    distance-form correction and, for distinct vertices, with the sharper
    path form minimized over all simple paths of at most
    ``distance + 2`` edges.  The reported per-pair slack is the smaller of
    the two, and the report kind names the form attaining the overall
    minimum.  Every slack equals the one built from :func:`harnack_rhs_distance`
    and :func:`harnack_rhs_path`; the path minima of all pairs come from one
    min-plus recursion over directed edges (:func:`_path_minima`).  A
    slack that is not finite, because ``t^mu v`` overflows, raises a
    :class:`DomainError` instead of a verdict.
    """
    _check_tolerance(tol)
    g, m = traj.graph, traj.m
    if not g.symmetric:
        raise ValidationError("Harnack comparison needs a symmetric kernel")
    if len(pairs) == 0:
        raise ValidationError("need at least one (t1, t2, x1, x2) pair")
    t_lo, t_hi = float(traj.times[0]), float(traj.times[-1])
    slack_t = _window_slack(t_lo, t_hi, 1e-12)
    kmin = k_min(g)
    best = math.inf
    best_form = "harnack_distance"
    argmin: dict = {}
    records = []
    dists, rows = [], []  # rows: (t1, t2, i1, i2, edge count) of each path form
    for t1, t2, x1, x2 in pairs:
        _check_harnack_params(mu, lam, t1, t2)
        if t1 < t_lo - slack_t or t2 > t_hi + slack_t:
            raise ValidationError("pair times outside the trajectory range")
        i1, i2 = g.index(x1), g.index(x2)
        dists.append(graph_distance(g, x1, x2))
        rows += [(t1, t2, i1, i2, dists[-1] + k) for k in range(3 if x1 != x2 else 0)]
    with np.errstate(over="ignore"):  # a non-finite slack raises below
        corrections = iter(_path_minima(g, mu, lam, rows).reshape(-1, 3).min(axis=1).tolist() if rows else [])
    for (t1, t2, x1, x2), dist in zip(pairs, dists):
        v1 = pressure(m, traj.value(t1, x1))
        v2 = pressure(m, traj.value(t2, x2))
        lhs = t1**mu * v1
        base = t2**mu * v2
        slack = base + _distance_correction(dist, kmin, mu, lam, t1, t2) - lhs
        form = "harnack_distance"
        if x1 != x2:
            slack_p = base + next(corrections) - lhs
            if slack_p < slack:
                slack = slack_p
                form = "harnack_path"
        if not math.isfinite(slack):  # no verdict: name the term that overflowed
            pair = (t1, t2, x1, x2)
            for t, v, product in ((t1, v1, lhs), (t2, v2, base)):
                if math.isinf(product):
                    raise DomainError(f"t**mu * v = {t!r}**{mu!r} * {v!r} overflows a float at the pair {pair}")
            raise DomainError(f"the Harnack correction overflows a float at the pair {pair}")
        records.append((t1, t2, x1, x2, float(slack)))
        if slack < best:
            best = float(slack)
            best_form = form
            argmin = {"t1": t1, "t2": t2, "x1": x1, "x2": x2}
    return EstimateReport(
        best_form,
        {"m": m, "lambda": lam, "mu": mu},
        best,
        argmin,
        len(pairs),
        tol,
        records,
    )


# -- supporting inequalities -----------------------------------------------


def _power_remainder(m: float, x: np.ndarray) -> np.ndarray:
    # exp_remainder_m(m, log x) in the algebraically equivalent power form;
    # the logarithms cancel exactly, which keeps the m=2 equality sharp.
    return (m - 1.0) ** 2 / m * x ** (m / (m - 1.0)) - (m - 1.0) * x + (m - 1.0) / m


def quadratic_minorant_check(m: float, grid) -> float:
    """Minimum slack of ``exp_remainder_m(m, log x) >= (x-1)^2 / 2``.

    The inequality holds on ``[1, inf)`` for ``m <= 2`` and on ``(0, 1]``
    for ``m >= 2`` (both at ``m = 2``, where the slack vanishes
    identically); the grid must respect that regime.
    """
    m = check_exponent(m)
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValidationError("grid must be a nonempty 1-d array")
    if np.any(x <= 0.0):
        raise ValidationError("grid points must be positive")
    if m < 2.0 and np.any(x < 1.0):
        raise ValidationError("for m < 2 the inequality is claimed on [1, inf)")
    if m > 2.0 and np.any(x > 1.0):
        raise ValidationError("for m > 2 the inequality is claimed on (0, 1]")
    return float(np.min(_power_remainder(m, x) - 0.5 * (x - 1.0) ** 2))


def minorant_ratio(m: float, x: float) -> float:
    """Ratio ``exp_remainder_m(m, log x) / (x-1)^2``, stable near ``x = 1``.

    Tends to 1/2 as ``x -> 1`` from either side for every ``m > 1``, which
    is why the quadratic minorant's constant cannot be improved.  Near 1
    the ratio is evaluated by the binomial series of the power form, so the
    limit can be probed without catastrophic cancellation.
    """
    m = check_exponent(m)
    x = float(x)
    if x <= 0.0:
        raise DomainError("x must be positive")
    s = x - 1.0
    if s == 0.0:
        return 0.5
    if abs(s) > 1e-2:
        return _power_remainder(m, x) / s**2
    p = m / (m - 1.0)
    coeff = p * (p - 1.0) / 2.0
    total = coeff
    power = 1.0
    for j in range(3, 13):
        coeff *= (p - (j - 1.0)) / j
        power *= s
        total += coeff * power
    return (m - 1.0) ** 2 / m * total


def integral_min_inequality_check(
    t1: float, t2: float, c: float, nu: float, ts, psi
) -> bool:
    """Check the integral minimum inequality behind the Harnack bound.

    For a sampled continuous ``psi`` on ``[t1, t2]``, both orientations of

    ``min_s ( psi(s) - (1/c) * integral tau^(-nu) psi(tau)^2 dtau )
    <= (c/(nu+1)) (t2^(nu+1) - t1^(nu+1)) / (t2 - t1)^2``

    must hold, with the integral taken from ``s`` to ``t2`` or from ``t1``
    to ``s``.  Integrals use composite trapezoid on the given grid and the
    comparison absorbs quadrature error through a ``1e-6`` slack.
    """
    if not (0.0 < t1 < t2):
        raise ValidationError("need 0 < t1 < t2")
    if not (c > 0.0 and nu > 0.0):
        raise ValidationError("c and nu must be positive")
    ts = np.asarray(ts, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if ts.shape != psi.shape or ts.ndim != 1:
        raise ValidationError("ts and psi must be 1-d arrays of equal length")
    if len(ts) < 100:
        raise ValidationError("grid too coarse; need at least 100 points")
    if np.any(np.diff(ts) <= 0.0):
        raise ValidationError("ts must be strictly increasing")
    span = t2 - t1
    if abs(ts[0] - t1) > 1e-9 * span or abs(ts[-1] - t2) > 1e-9 * span:
        raise ValidationError("grid must span [t1, t2]")
    w = ts**-nu * psi**2
    cum = np.concatenate(([0.0], np.cumsum(np.diff(ts) * (w[1:] + w[:-1]) / 2.0)))
    total = cum[-1]
    lhs_tail = float(np.min(psi - (total - cum) / c))
    lhs_head = float(np.min(psi - cum / c))
    rhs = c / (nu + 1.0) * (t2 ** (nu + 1.0) - t1 ** (nu + 1.0)) / span**2
    return rhs - lhs_tail >= -1e-6 and rhs - lhs_head >= -1e-6


# -- alternate operation names ---------------------------------------------

lemma61_check = quadratic_minorant_check
lemma63_check = integral_min_inequality_check
