"""Inequality checkers along solutions of the graph porous medium equation.

All time derivatives are evaluated by exact substitution of the flow,
``dv/dt = m u^(m-2) L(u^m)``, never by finite differencing, so every slack
is evaluated exactly on the states it is given.  Those states carry the
integrator's error, which the default tolerance (``1e-8``) does not bound:
integrating at ``1e-13`` instead of ``1e-10`` moves ``ab_check`` slacks by
2e-8 to 1e-7 on ``square``, ``complete:5`` and the two-point start.

Checked statements, for a trajectory with pressure ``v``:

* the time-scaled upper bound ``-G <= d/t`` on the mixed pressure
  Laplacian ``G = (1-alpha) Lv + alpha L(u^m)/u`` (``ab_check``); through
  the pressure equation it is the differential Harnack hypothesis below at
  ``lambda = alpha``, ``mu = (m-1) d``, divided by ``(m-1) v``, so it is
  checked in this one form;
* the differential Harnack hypothesis
  ``dv/dt >= (1-lambda) gradient_energy(v) - (mu/t) v``
  (``diff_harnack_residual``);
* the integrated Harnack bound comparing ``t^mu v`` at two space-time
  points through the path correction, least over simple paths by a
  min-plus recursion (``harnack_check`` with :func:`harnack_rhs_path`);
  the coarser distance correction, which the least path form never
  exceeds but by rounding, is :func:`harnack_rhs_distance`;
* the pointwise quadratic minorant of the exponent-weighted remainder and
  the integral minimum inequality that drive the Harnack proof
  (``quadratic_minorant_check``, ``integral_min_inequality_check``).

The time-scaled bounds, ``ab_check`` and ``diff_harnack_residual``, are
each one slack formula handed to one shared evaluation
(:func:`_time_scaled_check`).  Their binding regime is small ``t``, so the
first reported intervals are refined through the trajectory's dense output
in addition to the reported grid.

Every power of a time is libm's ``pow``: ``np.float_power`` on arrays and
Python's float ``**``, which calls it too, on scalars.  So no slack's last
bits follow numpy's SIMD dispatch except through the powers of fields, which
are taken in ``operators._pow``.

A report's verdict fields are set when it is made; its per-point
``records`` are built from the check's arrays at their first read, so a
caller that reads only the verdict builds no per-point rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import _EXPORTS
from .artifacts import jsonable, write_csv
from .errors import DomainError, LambdaOneError, ValidationError
from .graphs import Graph, _hop_distances, _slot_groups, graph_distance, k_min
from .operators import (
    _block_count,
    _dtv,
    _edge_remainder,
    _gradient_energy,
    _mixed_laplacian,
    _pressure,
    _window_slack,
    check_exponent,
    check_mixing,
)

if TYPE_CHECKING:
    from .solver import Trajectory

__all__ = list(_EXPORTS["estimates"])


@dataclass
class EstimateReport:
    """Minimum slack of one inequality over all checked points.

    ``records`` holds one row per checked time or pair (see
    :meth:`write_slack_csv`).  It may be given as a list, or as a function
    of no arguments that returns one; the checkers pass such a function,
    and the rows are built at the first read of ``records`` (``==`` reads
    them too).
    """

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

    def __getstate__(self) -> dict:
        """The instance's attributes with ``records`` built, so that a report pickles."""
        return {**vars(self), "_records": self.records}

    def to_json_dict(self) -> dict:
        """Every field but ``records``, and ``passed``, in plain JSON types."""
        out = jsonable({f.name: getattr(self, f.name) for f in fields(self) if f.name != "records"})
        out["passed"] = self.passed
        return out

    def write_slack_csv(self, path) -> None:
        """Per-point slack rows, ``t,x,slack`` or ``t1,t2,x1,x2,slack``."""
        pairs = self.kind in ("harnack_path", "harnack_distance")
        write_csv(path, ("t1", "t2", "x1", "x2", "slack") if pairs else ("t", "x", "slack"), self.records)


def _read_records(report: EstimateReport) -> list:
    if callable(report._records):
        report._records = report._records()
    return report._records


def _set_records(report: EstimateReport, rows: list | Callable[[], list]) -> None:
    report._records = rows


# set after the dataclass is made, so that its fields, __init__ and __eq__ still name ``records``
EstimateReport.records = property(_read_records, _set_records, doc="Per-point rows, built at the first read.")


def _check_tolerance(tol: float) -> None:
    if not (0.0 <= tol < math.inf):
        raise ValidationError(f"tol must be finite and nonnegative, got {tol}")


def _check_lambda_mu(lam: float, mu: float) -> None:
    """The Harnack regime: ``lambda`` in ``[0, 1)`` and finite ``mu > 0``."""
    if lam == 1.0:
        raise LambdaOneError("lambda = 1 is outside the Harnack regime")
    if not (0.0 <= lam < 1.0):
        raise DomainError(f"lambda must lie in [0, 1), got {lam}")
    if not 0.0 < mu < math.inf:
        raise DomainError("mu must be positive and finite")


def _refinement(ts: np.ndarray) -> np.ndarray:
    """The nine interior times of each of the first ten intervals of ``ts``, interval by interval.

    ``np.linspace(ts[:-1][:10], ts[1:][:10], 11, axis=1)[:, 1:-1].ravel()`` bit for bit: the same
    arithmetic, ``j * ((t[k+1] - t[k]) / 10) + t[k]``, without its general set-up.
    """
    lo, hi = ts[:-1][:10, None], ts[1:][:10, None]
    return (np.arange(1, 10) * ((hi - lo) / 10) + lo).ravel()


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a non-finite least slack raises a DomainError
def _time_scaled_check(
    traj: Trajectory, kind: str, what: str, parameters: dict, tol: float,
    slack: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> EstimateReport:
    """Least slack of a time-scaled bound, given as one slack function.

    ``slack(t, U)`` maps the time column ``t`` and the states ``U`` at
    those times to a slack per vertex.  It is evaluated at the reported
    times plus a 10x dense refinement of the earliest ten intervals
    (reported times only without dense data).  Each record is a time's
    least slack over the vertices.  A least slack that is not finite,
    ``nan`` anywhere or ``-inf`` or ``+inf``, is no verdict: its terms left
    the float range, and a :class:`DomainError` names where.
    """
    ts, U = traj.times, traj.states
    if ts[0] <= 0.0:
        raise ValidationError("trajectory must start at t > 0 for time-scaled bounds")
    g = traj.graph
    if traj.dense is not None and len(ts) >= 2:
        extra = _refinement(ts)
        ts = np.concatenate([ts, extra])
        order = np.argsort(ts, kind="stable")
        ts, U = ts[order], np.concatenate([U, traj.dense(extra)])[order]
    S = slack(ts[:, None], U)
    cols = np.argmin(S, axis=1)  # a row's first nan where it has one
    mins = S[np.arange(len(ts)), cols]
    k = int(np.argmin(mins))  # so the first row with a nan, where any slack is nan
    if not math.isfinite(mins[k]):
        at = f"t={float(ts[k])!r}, vertex {g.vertices[cols[k]]!r}"
        raise DomainError(f"{what} slack is {float(mins[k])!r} at {at}: its terms leave the float range")
    return EstimateReport(
        kind, parameters, float(mins[k]), {"t": float(ts[k]), "vertex": g.vertices[cols[k]]}, len(ts) * g.n, tol,
        lambda: [(t, g.vertices[i], s) for t, i, s in zip(ts.tolist(), cols.tolist(), mins.tolist())],
    )


def ab_check(traj: Trajectory, alpha: float, d: float, tol: float = 1e-8) -> EstimateReport:
    """Check the time-scaled upper bound on the mixed pressure Laplacian.

    Verifies ``d/t + G(t, x) >= 0`` at every checked point.  Substituting
    the pressure equation turns it into the differential Harnack hypothesis
    at ``lambda = alpha`` and ``mu = (m-1) d`` divided by ``(m-1) v``, which
    :func:`diff_harnack_residual` checks.  On a graph satisfying ``CD(0, d)``
    with mixing ``alpha`` the theorem bounds a solution started at
    ``t = 0``; ``t`` here is the trajectory's own time, so a trajectory
    whose initial state sits at a later time is held to a stronger
    inequality and can fail.  A least slack that is not finite raises a
    :class:`DomainError` instead of a verdict.
    """
    _check_tolerance(tol)
    alpha = check_mixing(alpha)
    if not 0.0 < d < math.inf:
        raise ValidationError("d must be positive and finite")
    g, m = traj.graph, traj.m
    return _time_scaled_check(
        traj, "ab", "AB", {"m": m, "alpha": alpha, "d": d}, tol,
        lambda t, U: d / t + _mixed_laplacian(g, m, alpha, U),
    )


def diff_harnack_residual(traj: Trajectory, lam: float, mu: float, tol: float = 1e-8) -> EstimateReport:
    """Check ``dv/dt >= (1-lambda) gradient_energy(v) - (mu/t) v``.

    On a graph satisfying ``CD(0, d)`` with mixing ``alpha``, a solution
    started at ``t = 0`` passes with ``mu = (m-1) d`` and
    ``lambda = alpha``; ``t`` here is the trajectory's own time, so one
    whose initial state sits at a later time can fail.  This hypothesis is
    what the integrated Harnack bounds are built from.  A least slack that
    is not finite raises a :class:`DomainError` instead of a verdict.
    """
    _check_tolerance(tol)
    _check_lambda_mu(lam, mu)
    g, m = traj.graph, traj.m

    def hypothesis(t, U):
        V = _pressure(m, U)
        return _dtv(g, m, U) - (1.0 - lam) * _gradient_energy(g, m, V) + mu / t * V

    return _time_scaled_check(
        traj, "diff_harnack", "differential Harnack", {"m": m, "lambda": lam, "mu": mu}, tol, hypothesis
    )


def _check_harnack_params(mu: float, lam: float, t1, t2) -> None:
    """The Harnack regime, and times ``0 < t1 < t2`` (floats or arrays) whose largest powers are floats."""
    _check_lambda_mu(lam, mu)
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    if not np.all((0.0 < t1) & (t1 < t2)):
        raise ValidationError("need 0 < t1 < t2")
    for name, base, exponent in (("t2**(mu + 1)", t2, mu + 1.0), ("(t2 - t1)**2", t2 - t1, 2)):
        with np.errstate(over="ignore"):  # the largest powers of the corrections and of t^mu v
            over = np.isinf(np.float_power(base, exponent)) & np.isfinite(base)
        if over.any():
            raise DomainError(f"{name} = {float(base[over][0])!r}**{exponent!r} overflows a float")
    width = t2 - t1
    zero = np.float_power(width, 2) == 0.0  # the width squared divides both corrections
    if zero.any():
        raise DomainError(f"(t2 - t1)**2 = {float(width[zero][0])!r}**2 underflows to 0")


def _denominator(form: str, kmin: float, mu: float, lam: float, t1, t2):
    """``(1-lambda)(mu+1) kmin (t2-t1)^2``, with ``kmin = 1`` in the path form; refused where it underflows to 0."""
    den = (1.0 - lam) * (mu + 1.0) * kmin * np.float_power(t2 - t1, 2)
    zero = np.flatnonzero(den == 0.0)
    if len(zero):
        times = tuple(float(np.ravel(t)[zero[0]]) for t in (t1, t2))
        factor = " k_min " if form == "distance" else ""
        raise DomainError(f"the {form}-form denominator (1 - lambda)(mu + 1){factor}(t2 - t1)**2 underflows to 0 "
                          f"at (t1, t2) = {times}")
    return den


def _path_terms(mu: float, lam: float, t1: np.ndarray, t2: np.ndarray, n_edges: np.ndarray):
    """Zero-padded increments ``tau_j^(mu+1) - tau_{j-1}^(mu+1)`` of ``n_edges``-edge paths, and their denominators.

    A caller forms ``2 N^2 (sum / den)``: dividing last keeps every intermediate no larger than the
    correction, where the prefactor ``2 N^2 / den`` alone overflows once ``(t2 - t1)^2`` is subnormal.
    """
    steps = np.minimum(np.arange(n_edges.max() + 1), n_edges[:, None])
    powers = np.float_power(t1[:, None] + steps * (t2 - t1)[:, None] / n_edges[:, None], mu + 1.0)
    return np.diff(powers, axis=1), _denominator("path", 1.0, mu, lam, t1, t2)


def harnack_rhs_path(g: Graph, m: float, mu: float, lam: float, t1: float, t2: float, path: Sequence[str]) -> float:
    """Additive Harnack correction along an explicit path.

    With ``N`` edges and intermediate times ``tau_i = t1 + i (t2-t1)/N``:

    ``2 N^2 (sum_j (tau_j^(mu+1) - tau_{j-1}^(mu+1)) / k(y_{j-1}, y_j))
    / ((1-lambda)(mu+1)(t2-t1)^2)``

    with the sum added in path order and divided by the denominator before
    the factor ``2 N^2`` is applied.  The exponent ``m`` is part of the
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
    n_edges = len(path) - 1
    increments, den = _path_terms(mu, lam, np.array([t1]), np.array([t2]), np.array([n_edges]))
    return float(2.0 * n_edges**2 * (np.add.accumulate(increments[0] / weights)[-1] / den[0]))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # an overflow gives inf, as float arithmetic does
def harnack_rhs_distance(g: Graph, mu: float, lam: float, t1: float, t2: float, x1: str, x2: str) -> float:
    """Distance-form Harnack correction.

    ``2 d(x1,x2)^2 (t2^(mu+1) - t1^(mu+1))
    / ((1-lambda)(mu+1) k_min (t2-t1)^2)``,
    which is 0 when ``x1 = x2``; the two-point comparison remains valid in
    that case.  It is the path form along a shortest path with every weight
    lowered to ``k_min`` (the increments telescope), so the least path
    form never exceeds it but by rounding; :func:`harnack_check` uses the
    path form alone.
    """
    _check_harnack_params(mu, lam, t1, t2)
    dist = graph_distance(g, x1, x2)
    span = np.float_power(t2, mu + 1.0) - np.float_power(t1, mu + 1.0)
    return float(2.0 * dist**2 * span / _denominator("distance", k_min(g), mu, lam, t1, t2))


# The path recursion runs over blocks of rows holding about this many
# (directed edge, row) values each: its several arrays of that shape then
# take a few tens of MB on any graph (100 pairs on complete:200 would
# otherwise hold over 1e7 values per array).
_PATH_BLOCK_VALUES = 2**19


def _path_minima(g: Graph, mu: float, lam: float, t1, t2, sources, targets, n_edges) -> np.ndarray:
    """Least :func:`harnack_rhs_path` over the simple paths of ``n_edges`` edges, per row of the columns.

    Each row's least path-order sum is divided by its denominator before ``2 N^2`` is applied, as in
    :func:`harnack_rhs_path`, so a row is finite wherever its correction is.

    On a symmetric kernel with ``N`` at most the hop distance plus 2 the simple paths are the
    non-backtracking walks (cutting a closed sub-walk of 3 or more edges out of such a walk would
    leave one shorter than the distance), so a min-plus recursion over directed edges, with
    ``y -> z`` extending the cheapest walk into ``y`` not from ``z``, finds each least path-order
    sum bit for bit: rounded addition is monotone.  Rows with no such path get inf.  Rows are
    independent, so the recursion runs over blocks of ``_PATH_BLOCK_VALUES`` values.
    """
    increments, den = _path_terms(mu, lam, t1, t2, n_edges)
    # per out-degree c: the (c, vertices) positions of those vertices' edges, and of their reverses
    groups = [(at, back) for _, at, back in _slot_groups(g.indptr, g.n, np.arange(len(g.rows)), g.reverse)]
    best = np.empty(len(n_edges))
    order = np.argsort(-n_edges, kind="stable")  # longest first: the rows still walking are a prefix
    for block in np.array_split(order, _block_count(len(order), len(g.rows), _PATH_BLOCK_VALUES)):
        best[block] = _least_walks(g, groups, sources[block], targets[block], n_edges[block], increments[block])
    return 2.0 * n_edges**2 * (best / den)


def _out_edges(g: Graph, vertices: np.ndarray):
    """The out-edges of each of ``vertices``, concatenated.

    Returns their positions, the index into ``vertices`` of each, and where
    each vertex's run of edges starts.
    """
    first, counts = g.indptr[vertices], g.indptr[vertices + 1] - g.indptr[vertices]
    starts = np.cumsum(counts) - counts
    row = np.repeat(np.arange(len(vertices)), counts)
    return first[row] + np.arange(len(row)) - starts[row], row, starts


def _least_walks(g: Graph, groups: list, sources, targets, lengths, inc) -> np.ndarray:
    """The :func:`_path_minima` recursion for rows sorted by decreasing length, without the prefactor."""
    weights = g.data  # of the directed edges y -> z, in storage order
    best = np.full(len(sources), np.inf)
    walk = np.full((len(weights), len(sources)), np.inf)  # (edge, row)
    edges, row, _ = _out_edges(g, sources)
    walk[edges, row] = inc[row, 0] / weights[edges]
    for j in range(1, lengths[0] + 1):
        if j > 1:
            step = np.empty((len(weights), np.count_nonzero(lengths >= j)))
            for at, back in groups:
                into = walk[back, : step.shape[1]]  # into[s, v]: cheapest walks into v along the reverse of s
                low = into.min(axis=0)
                tie = into == low
                other = np.where(tie.sum(axis=0) == 1, np.where(tie, np.inf, into).min(axis=0), low)
                step[at] = np.where(tie, other, low)
            step += inc[: step.shape[1], j - 1] / weights[:, None]
            walk = step
        done = np.flatnonzero(lengths[: walk.shape[1]] == j)
        if len(done):  # the edges into a target are the reverses of its out-edges, of which it has at least one
            edges, row, starts = _out_edges(g, targets[done])
            best[done] = np.minimum.reduceat(walk[g.reverse[edges], done[row]], starts)
    return best


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # a non-finite slack raises a DomainError
def harnack_check(
    traj: Trajectory,
    mu: float,
    lam: float,
    pairs: Sequence[tuple[float, float, str, str]],
    tol: float = 1e-8,
) -> EstimateReport:
    """Check the integrated Harnack comparison over space-time pairs.

    For each ``(t1, t2, x1, x2)`` the slack
    ``t2^mu v(t2,x2) + correction - t1^mu v(t1,x1)`` is evaluated with one
    correction: for distinct vertices the path form minimized over all
    simple paths of ``distance``, ``distance + 1`` and ``distance + 2``
    edges, and 0 where ``x1 = x2``.  The distance form is not taken: it is
    the path form along a shortest path with every weight lowered to the
    graph's ``k_min``, so it can only bind by rounding, and ``k_min`` would
    tie a pair's slack to weights of other components.  The report kind is
    ``harnack_path`` when the binding pair has ``x1 != x2`` and
    ``harnack_distance`` when ``x1 = x2`` (the distance form at distance 0
    is 0).  Every slack equals the one built from :func:`harnack_rhs_path`
    and :meth:`Trajectory.value`, and all pairs
    are evaluated in one array pass: one dense-interpolant call reads the
    states (with no dense data, the reported ones), one breadth-first search
    runs per distinct source vertex and one min-plus recursion over directed
    edges gives the path minima (:func:`_path_minima`).  Each refusal tests
    all pairs at once, so where several pairs are bad the error may name any
    one of them.  A slack that is not finite, because ``t^mu v`` overflows,
    raises a :class:`DomainError` instead of a verdict.
    """
    _check_tolerance(tol)
    g, m = traj.graph, traj.m
    if not g.symmetric:
        raise ValidationError("Harnack comparison needs a symmetric kernel")
    if len(pairs) == 0:
        raise ValidationError("need at least one (t1, t2, x1, x2) pair")
    columns = tuple(zip(*pairs))
    t1, t2, x1, x2 = columns
    times = np.array([t1, t2], dtype=float).T.ravel()  # t1 and t2 of each pair in turn
    t1, t2 = times[0::2], times[1::2]
    _check_harnack_params(mu, lam, t1, t2)
    t_lo, t_hi = float(traj.times[0]), float(traj.times[-1])
    slack_t = _window_slack(t_lo, t_hi, 1e-12)
    if np.any((t1 < t_lo - slack_t) | (t2 > t_hi + slack_t)):
        raise ValidationError("pair times outside the trajectory range")
    at = np.array([g.index(x) for pair in zip(x1, x2) for x in pair])  # vertex indices, in the order of times
    i1, i2 = at[0::2], at[1::2]
    sources = list(dict.fromkeys(i1.tolist()))  # one breadth-first search per distinct source vertex
    slot = np.empty(g.n, dtype=int)
    slot[sources] = np.arange(len(sources))
    dist = np.array([_hop_distances(g, i) for i in sources])[slot[i1], i2]
    cut = np.flatnonzero(dist < 0)
    if len(cut):
        graph_distance(g, x1[cut[0]], x2[cut[0]])  # raises the NoPathError that names the pair
    correction = np.zeros(len(pairs))  # the distance form where x1 = x2
    apart = i1 != i2
    if apart.any():  # rows of dist, dist + 1 and dist + 2 edges
        rows = np.repeat(np.flatnonzero(apart), 3)
        n_edges = (dist[apart, None] + [0, 1, 2]).ravel()
        minima = _path_minima(g, mu, lam, t1[rows], t2[rows], i1[rows], i2[rows], n_edges)
        correction[apart] = minima.reshape(-1, 3).min(axis=1)
    U = traj.dense(times) if traj.dense is not None else np.array([traj.state_at(t) for t in times])
    v1, v2 = _pressure(m, U[np.arange(len(at)), at]).reshape(-1, 2).T
    lhs = np.float_power(t1, mu) * v1
    base = np.float_power(t2, mu) * v2
    slack = base + correction - lhs
    bad = np.flatnonzero(~np.isfinite(slack))
    if len(bad):  # no verdict: name the term that overflowed
        k = bad[0]
        pair = tuple(pairs[k])
        for t, v, product in ((pair[0], v1[k], lhs[k]), (pair[1], v2[k], base[k])):
            if math.isinf(product):
                raise DomainError(f"t**mu * v = {t!r}**{mu!r} * {float(v)!r} overflows a float at the pair {pair}")
        raise DomainError(f"the Harnack correction overflows a float at the pair {pair}")
    k = int(np.argmin(slack))
    return EstimateReport(
        "harnack_path" if apart[k] else "harnack_distance",
        {"m": m, "lambda": lam, "mu": mu},
        float(slack[k]),
        dict(zip(("t1", "t2", "x1", "x2"), pairs[k])),
        len(pairs),
        tol,
        lambda: list(zip(*columns, slack.tolist())),
    )


# -- supporting inequalities -----------------------------------------------


def quadratic_minorant_check(m: float, grid) -> float:
    """Minimum slack of ``exp_remainder_m(m, log x) >= (x-1)^2 / 2``.

    The inequality holds on ``[1, inf)`` for ``m <= 2`` and on ``(0, 1]``
    for ``m >= 2`` (both at ``m = 2``, where the slack vanishes
    identically); the grid must respect that regime, and the slack is ``+inf`` where it overflows.
    """
    m = check_exponent(m)
    x = np.asarray(grid, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise ValidationError("grid must be a nonempty 1-d array")
    if not np.all((x > 0.0) & (x < math.inf)):
        raise ValidationError("grid points must be positive and finite")
    if m < 2.0 and np.any(x < 1.0):
        raise ValidationError("for m < 2 the inequality is claimed on [1, inf)")
    if m > 2.0 and np.any(x > 1.0):
        raise ValidationError("for m > 2 the inequality is claimed on (0, 1]")
    s = x - 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, skipped by fmin, where both overflow
        return float(np.fmin.reduce(_edge_remainder(m, s) - 0.5 * s * s, initial=math.inf))


def minorant_ratio(m: float, x: float) -> float:
    """Ratio ``exp_remainder_m(m, log x) / (x-1)^2``, stable near ``x = 1``.

    Tends to 1/2 as ``x -> 1`` from either side for every ``m > 1``, which
    is why the quadratic minorant's constant cannot be improved.  It is
    divided by ``s = x - 1`` scaled to ``[1/2, 1)``, so that it does not
    overflow unless the remainder does, and is exactly 1/2 at ``m = 2``.
    """
    m = check_exponent(m)
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"x must be positive and finite, got {x}")
    s = x - 1.0
    if s == 0.0:
        return 0.5
    f, e = math.frexp(s)
    return math.ldexp(float(_edge_remainder(m, np.float64(s))), -2 * e) / (f * f)


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
    lhs_tail, lhs_head, rhs = _integral_min_sides(t1, t2, c, nu, ts, psi)
    return rhs - lhs_tail >= -1e-6 and rhs - lhs_head >= -1e-6


def _integral_min_sides(t1: float, t2: float, c: float, nu: float, ts, psi) -> tuple[float, float, float]:
    """The two minima of :func:`integral_min_inequality_check` (integral to ``t2``, then from ``t1``) and its bound."""
    if not (0.0 < t1 < t2 < math.inf):
        raise ValidationError("need 0 < t1 < t2 < inf")
    if not (0.0 < c < math.inf and 0.0 < nu < math.inf):
        raise ValidationError("c and nu must be positive and finite")
    ts = np.asarray(ts, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if ts.shape != psi.shape or ts.ndim != 1 or not np.isfinite((ts, psi)).all():
        raise ValidationError("ts and psi must be finite 1-d arrays of equal length")
    if len(ts) < 100:
        raise ValidationError("grid too coarse; need at least 100 points")
    if np.any(np.diff(ts) <= 0.0):
        raise ValidationError("ts must be strictly increasing")
    span = t2 - t1
    if abs(ts[0] - t1) > 1e-9 * span or abs(ts[-1] - t2) > 1e-9 * span:
        raise ValidationError("grid must span [t1, t2]")
    w = np.float_power(ts, -nu) * psi**2
    cum = np.concatenate(([0.0], np.cumsum(np.diff(ts) * (w[1:] + w[:-1]) / 2.0)))
    total = cum[-1]
    lhs_tail = float(np.min(psi - (total - cum) / c))
    lhs_head = float(np.min(psi - cum / c))
    rhs = c / (nu + 1.0) * (t2 ** (nu + 1.0) - t1 ** (nu + 1.0)) / span**2
    return lhs_tail, lhs_head, rhs


# -- alternate operation names ---------------------------------------------

lemma61_check = quadratic_minorant_check
lemma63_check = integral_min_inequality_check
