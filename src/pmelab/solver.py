"""Adaptive integration of the porous medium equation on a graph.

The flow is ``du/dt = L(u^m)`` started from a strictly positive field.  An
embedded Runge-Kutta 5(4) pair with the classic Dormand-Prince coefficients
drives the step size, with two extra rules suited to this equation:

* a proposed step is tested once, after its last stage: if any stage or
  the new state is non-finite, or the new state touches the positivity
  floor, the step is rejected and halved, so reported states stay strictly
  positive (a non-finite stage makes every later one non-finite, so this
  decides as a test after each stage would);
* if the step size underflows, or the run uses up its budget of
  ``_MAX_STEP_ATTEMPTS`` step attempts, a
  :class:`~pmelab.errors.StiffnessError` reports the failure time and the
  run's :class:`SolverStats`.  The floor is ``1e-14`` of the integrated
  span but never below four ulps of ``t_end``, so ``t + h`` always
  advances, also on a short window late in time.  A step that would end
  within the floor of ``t_end`` is taken to ``t_end``.

The first step has one rule: the least of the step cap, ``span / 100``
(never below the floor) and ``0.01 max|u0| / max|L(u0^m)|``.  A start whose
``L(u0^m)`` is not finite (``u0^m`` overflows) is refused with a
:class:`~pmelab.errors.ValidationError`, as every step from it would fail.

The whole step loop runs in one ``np.errstate`` scope that silences the
overflow and invalid-value warnings of rejected steps.  Accepted steps keep
their endpoint derivatives, requested output times are filled by cubic
Hermite interpolation between them, and :class:`SolverStats` counts what
the run did.  The steps' states and derivatives are stored as one
read-only table of interleaved rows ``y_0, f_0, y_1, f_1, ...``, so a point
query (:meth:`Trajectory.state_at`) takes its step's four rows as one
contiguous slice and sums them, weighted by the Hermite weights computed
on Python floats, in one reduction; it equals the matching row of the
vectorised interpolant bit for bit.  The vectorised interpolant builds
``((w0 y0 + w1 f0) + w2 y1) + w3 f1`` in its first gathered product,
gathering each later row set into one reused buffer, scaling it in place
and adding it; these are the multiplications and additions of the
four-term sum in its order, so each row rounds as that sum does, and the
read holds one output-sized temporary.  :func:`integrate` drops its list
of step rows once they are stacked into the table, before it reads the
requested times.  Both accept times up to
``1e-12`` of the span (never less than four ulps of the end) outside the
integrated range.

On the lab's small graphs a step costs numpy calls rather than arithmetic,
so each tableau row and each view of the stage array is bound once per run,
and every stage input, the new state and the error estimate is built in
place in its fresh product, ``z = np.dot(a, rows); z *= h; z += y``; the
error is then divided by its scale and squared in place too.  IEEE
multiplication and addition commute exactly and ``np.dot`` makes the same
BLAS call as ``@``, so this rounds as ``y + h * (a @ rows)`` does, bit for
bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional

import numpy as np

from . import _EXPORTS
from .artifacts import jsonable, write_csv
from .errors import DomainError, StiffnessError, ValidationError
from .graphs import Graph, _records, _text_lines
from .operators import _dtv, _flow, _gradient_energy, _pow, _pressure, _window_slack, as_field, check_exponent

__all__ = list(_EXPORTS["solver"])


# Dormand-Prince 5(4) tableau; the propagated solution is 5th order and the
# last error coefficient belongs to the FSAL stage.  The flow is autonomous,
# so the stage nodes c_i never enter a stage and are not kept.
_DP_A = tuple(map(np.array, (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)))
_DP_B = np.array([35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0])
_DP_E = np.array(
    [
        71.0 / 57600.0,
        0.0,
        -71.0 / 16695.0,
        71.0 / 1920.0,
        -17253.0 / 339200.0,
        22.0 / 525.0,
        -1.0 / 40.0,
    ]
)

# An integration that needs more step attempts than this is too stiff for an
# explicit method; it fails instead of running for hours.
_MAX_STEP_ATTEMPTS = 100_000
# No step is longer than the integrated span over this (or than the step
# floor, where that is longer).
_MIN_STEPS = 20
# A step whose new state has a value at or below this is rejected.
_POSITIVITY_FLOOR = 1e-300


@dataclass(frozen=True)
class SolverConfig:
    """Error tolerances of :func:`integrate`, which sizes every step after the first by them."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-10

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be positive and finite")


def _hermite_weights(s, h):
    """Weights of ``y0, f0, y1, f1`` in the cubic Hermite interpolant at fraction ``s`` of a step ``h``.

    ``s`` and ``h`` are Python floats for one time, or columns of shape
    ``(k, 1)`` for ``k`` times; both do the same operations.
    """
    s2, s3 = s * s, s * s * s
    return 2.0 * s3 - 3.0 * s2 + 1.0, (s3 - 2.0 * s2 + s) * h, -2.0 * s3 + 3.0 * s2, (s3 - s2) * h


class _Dense:
    """Cubic Hermite interpolant over the accepted steps.

    ``table`` holds the rows ``y_0, f_0, y_1, f_1, ...`` of the step
    endpoints' states and derivatives, read-only; ``ys`` and ``fs`` are
    strided views of it, so step ``i``'s four rows are one contiguous slice.
    """

    def __init__(self, ts: np.ndarray, table: np.ndarray):
        table.setflags(write=False)
        self.ts = ts
        self.table = table
        self.ys = table[0::2]
        self.fs = table[1::2]

    @cached_property
    def _range(self) -> tuple[list, float, float]:
        """Step times as floats and the admitted time range, made at the first query."""
        knots = self.ts.tolist()
        slack = _window_slack(knots[0], knots[-1], 1e-12)
        return knots, knots[0] - slack, knots[-1] + slack

    def point(self, t: float) -> np.ndarray:
        """State at the float ``t``, a fresh array.

        The weights are Python floats and the step's four rows are summed in
        order by one axis-0 reduction (numpy adds along an axis that is not
        the fastest one row at a time), so the result equals the matching
        row of the vectorised interpolant bit for bit.
        """
        knots, lo, hi = self._range
        if not lo <= t <= hi:
            raise DomainError("time outside the integrated range")
        i = min(max(bisect_right(knots, t) - 1, 0), len(knots) - 2)
        t0, t1 = knots[i], knots[i + 1]
        weights = np.array(_hermite_weights((t - t0) / (t1 - t0), t1 - t0))
        return np.add.reduce(weights[:, None] * self.table[2 * i : 2 * i + 4], axis=0)

    def __call__(self, t):
        """State at a scalar ``t``, or states of shape ``(len(t), n)`` at an array (also an empty one)."""
        if isinstance(t, float) or np.ndim(t) == 0:
            return self.point(float(t))
        _, lo, hi = self._range
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if len(t) and not (lo <= t.min() and t.max() <= hi):
            raise DomainError("time outside the integrated range")
        idx = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 2)
        t0, t1 = self.ts[idx], self.ts[idx + 1]
        w0, w1, w2, w3 = _hermite_weights(((t - t0) / (t1 - t0))[:, None], (t1 - t0)[:, None])
        # ((w0 y0 + w1 f0) + w2 y1) + w3 f1 summed into the first gathered
        # product, in the four-term sum's order, so it rounds as that sum
        # does; each later row set goes into one reused buffer (``np.take``
        # writes ``out`` unbuffered only outside mode "raise"; idx is in range)
        out = self.ys[idx]
        out *= w0
        term = np.empty_like(out)
        for rows, at, w in ((self.fs, idx, w1), (self.ys, idx + 1, w2), (self.fs, idx + 1, w3)):
            np.take(rows, at, axis=0, out=term, mode="clip")
            term *= w
            out += term
        return out


@dataclass(frozen=True)
class SolverStats:
    """What one :func:`integrate` run did.

    Every attempted step evaluates five stages; one that passes the
    positivity and finiteness test also evaluates its endpoint, and the run
    starts with one evaluation, so :meth:`of` derives ``rhs_evals = 1 + 5 *
    attempts + accepted_steps + error_rejections`` with ``attempts`` the sum
    of the three step counts.  ``h_min``/``h_max`` span the accepted steps
    and are ``None`` before the first one.
    """

    accepted_steps: int
    error_rejections: int
    positivity_rejections: int
    rhs_evals: int
    h_min: Optional[float]
    h_max: Optional[float]

    @classmethod
    def of(cls, ts, error_rejections, positivity_rejections) -> SolverStats:
        """Stats of a run whose accepted steps end at the times ``ts``."""
        steps = np.diff(ts)
        h_min, h_max = (float(steps.min()), float(steps.max())) if len(steps) else (None, None)
        n, e, p = len(steps), error_rejections, positivity_rejections
        return cls(n, e, p, 1 + 5 * (n + e + p) + n + e, h_min, h_max)

    def to_json_dict(self) -> dict:
        return jsonable(self)


@dataclass
class Trajectory:
    """Positive states of one solution sampled on an increasing time grid."""

    graph: Graph
    m: float
    times: np.ndarray
    states: np.ndarray
    dense: Optional[_Dense] = field(default=None, repr=False)
    stats: Optional[SolverStats] = None

    def __post_init__(self):
        check_exponent(self.m)
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValidationError("times must be a nonempty 1-d array")
        if not np.all(np.isfinite(self.times)):
            raise ValidationError("times must be finite")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValidationError("times must be strictly increasing")
        if self.states.shape != (len(self.times), self.graph.n):
            raise ValidationError("states shape does not match times and graph")
        if not np.all(np.isfinite(self.states)) or np.any(self.states <= 0.0):
            raise ValidationError("states must be strictly positive and finite")

    def state_at(self, t: float) -> np.ndarray:
        """State at time ``t`` as a fresh array, interpolated when dense data is available.

        The interpolated state equals ``dense(np.array([t]))[0]``, the
        matching row of the vectorised interpolant, bit for bit.
        """
        t = float(t)
        if self.dense is not None:
            return self.dense.point(t)
        hits = np.nonzero(np.isclose(self.times, t, rtol=1e-12, atol=0.0))[0]
        if len(hits) == 0:
            raise DomainError(f"t={t:.6g} is not a reported time and no dense data is stored")
        return self.states[hits[0]].copy()

    def value(self, t: float, x: str) -> float:
        return float(self.state_at(t)[self.graph.index(x)])


def pme_rhs(g: Graph, m: float, u) -> np.ndarray:
    """Right-hand side ``L(u^m)`` of the porous medium equation."""
    m = check_exponent(m)
    u = as_field(g, u)
    with np.errstate(invalid="ignore"):
        return _flow(g, m, u)


def integrate(g: Graph, m: float, u0, t_eval, config: Optional[SolverConfig] = None) -> Trajectory:
    """Integrate ``du/dt = L(u^m)`` and report states at ``t_eval``.

    ``t_eval`` is a finite, nonnegative and strictly increasing time grid
    and ``u0`` is the state at ``t_eval[0]``.  The returned trajectory carries
    the dense interpolant of the run, so later checks can refine in time,
    and the :class:`SolverStats` of the run.  A start whose right-hand side
    is not finite is refused.
    """
    m = check_exponent(m)
    cfg = config or SolverConfig()
    u0 = as_field(g, u0)
    if np.any(u0 <= 0.0) or not np.all(np.isfinite(u0)):
        raise ValidationError("initial state must be strictly positive and finite")
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or len(t_eval) == 0:
        raise ValidationError("t_eval must be a nonempty 1-d array")
    if not np.all(np.isfinite(t_eval)):
        raise ValidationError("t_eval must be finite")
    if t_eval[0] < 0.0 or np.any(np.diff(t_eval) <= 0.0):
        raise ValidationError("t_eval must be nonnegative and strictly increasing")
    if len(t_eval) == 1:
        return Trajectory(g, m, t_eval, u0[None, :].copy())

    t0, t_end = float(t_eval[0]), float(t_eval[-1])
    span = t_end - t0
    # ``t + h`` must advance, so the floor never drops below a few ulps of
    # t_end; the default step bounds never drop below the floor
    h_floor = _window_slack(t0, t_end, 1e-14)
    max_step = max(span / _MIN_STEPS, h_floor)

    t, y = t0, u0
    n, rel_tol, abs_tol = g.n, cfg.rel_tol, cfg.abs_tol
    k = np.empty((7, n))
    # Bound once per run: each stage's tableau row, the stage rows it
    # combines and the row it fills; the rows the new state combines; the
    # rows the finiteness test reads.
    stages = [(_DP_A[s], k[: s + 1], k[s + 1]) for s in range(5)]
    k_sol, k_stages = k[:6], k[1:]
    flow = partial(_flow, g, m)
    with np.errstate(invalid="ignore", over="ignore"):
        f = flow(y)
        # every stage reads f, so a non-finite one would be rejected at every step size
        if not np.all(np.isfinite(f)):
            raise ValidationError("the right-hand side L(u0^m) of the initial state is not finite")
        ts, table = [t], [y, f]  # table: the rows of _Dense.table
        error_rejections, positivity_rejections = 0, 0
        fmax = float(np.max(np.abs(f)))
        h_rate = 0.01 * float(np.max(np.abs(y))) / fmax if fmax > 0 else span
        h = min(max_step, max(span / 100.0, h_floor), h_rate)

        # the loop ends once less than the floor is left; the first step is
        # always tried, so a window no wider than the floor underflows
        t_stop = t_end - h_floor
        while True:
            h = min(h, t_end - t, max_step)
            attempts = len(ts) - 1 + error_rejections + positivity_rejections
            if h < h_floor or attempts == _MAX_STEP_ATTEMPTS:
                why = "step size underflow" if h < h_floor else f"step budget of {attempts} attempts ran out"
                raise StiffnessError(t, f"{why} at t={t:.6g}", SolverStats.of(ts, error_rejections, positivity_rejections))
            if t_stop <= t + h < t_end:
                h = t_end - t  # leave no remainder below the floor
            # each ``y + h * (a @ rows)`` is built in place in the fresh
            # product, with the same rounding (see the module docstring)
            k[0] = f
            for a, rows, out in stages:
                z = np.dot(a, rows)
                z *= h
                z += y
                out[:] = flow(z)
            # A non-finite stage makes every later stage non-finite, so one
            # test after the last stage decides as a test after each would;
            # k[6] holds y_new for that test until the last stage replaces it.
            y_new = np.dot(_DP_B, k_sol)
            y_new *= h
            y_new += y
            k[6] = y_new
            if not (np.isfinite(k_stages).all() and y_new.min() > _POSITIVITY_FLOOR):
                positivity_rejections += 1
                h *= 0.5
                continue
            k[6] = f_new = flow(y_new)
            # err / (abs_tol + rel_tol * max(y, y_new)), in place; y and
            # y_new are both positive here, so no absolute values
            err = np.dot(_DP_E, k)
            err *= h
            scale = np.maximum(y, y_new)
            scale *= rel_tol
            scale += abs_tol
            err /= scale
            err_norm = math.sqrt(float(np.square(err, out=err).sum()) / n)
            if err_norm <= 1.0:
                t += h
                y, f = y_new, f_new
                ts.append(t)
                table += (y, f)
                if t >= t_stop:
                    break
                factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm**-0.2))
            else:
                error_rejections += 1
                factor = max(0.2, 0.9 * err_norm**-0.2)
            h *= factor

    stats = SolverStats.of(ts, error_rejections, positivity_rejections)
    dense = _Dense(np.asarray(ts), np.asarray(table))
    # the step rows and loop buffers go before the grid is read
    del table, k, stages, k_sol, k_stages, z, err, scale
    return Trajectory(g, m, t_eval.copy(), dense(t_eval), dense=dense, stats=stats)


def exact_two_point(a1: float, a2: float, t):
    """Closed-form solution for ``m = 2`` on the two-point unit-weight graph.

    Started from ``(a1, a2)``, the pair relaxes to its mean at rate
    ``2 * (a1 + a2)``:

    ``u1(t) = (a1 - a2)/2 * exp(-2 lam t) + lam / 2`` with ``lam = a1 + a2``
    and symmetrically for ``u2``.  Returns shape ``(2,)`` for scalar ``t``
    and ``(len(t), 2)`` for an array.
    """
    if not (0.0 < a1 < math.inf and 0.0 < a2 < math.inf):
        raise ValidationError("initial values a1 and a2 must be finite and positive")
    t = np.asarray(t, dtype=float)
    if not np.all((t >= 0.0) & (t < math.inf)):
        raise ValidationError("time t must be finite and nonnegative")
    lam = a1 + a2
    gap = 0.5 * (a1 - a2) * np.exp(-2.0 * lam * t)
    out = np.stack([0.5 * lam + gap, 0.5 * lam - gap], axis=-1)
    return out


# -- measures and entropy --------------------------------------------------


@dataclass(frozen=True)
class Measure:
    """Positive vertex measure, validated for detailed balance.

    Construction checks ``k(x,y) pi(x) = k(y,x) pi(y)`` for all pairs, to
    ``1e-12`` of the larger side (a pair stored one way only fails), so
    the measure is reversible for its graph and entropy dissipation along
    the flow has the closed form used below.
    """

    graph: Graph
    pi: np.ndarray

    def __post_init__(self):
        pi = as_field(self.graph, self.pi)
        if np.any(pi <= 0.0) or not np.all(np.isfinite(pi)):
            raise ValidationError("measure must be strictly positive and finite")
        object.__setattr__(self, "pi", pi)
        g = self.graph
        flux = g.data * pi[g.rows]
        reverse = np.where(g.reverse >= 0, flux[g.reverse], 0.0)
        if np.any(np.abs(flux - reverse) > 1e-12 * np.maximum(flux, reverse)):
            raise ValidationError("measure violates detailed balance for this graph")


def counting_measure(g: Graph) -> Measure:
    """Unit mass on every vertex; reversible exactly for symmetric kernels."""
    return Measure(g, np.ones(g.n))


def renyi_entropy(g: Graph, m: float, u, measure: Measure) -> float:
    """Entropy ``sum_x u(x)^m pi(x) / (m (m-1))`` of a nonnegative field."""
    m = check_exponent(m)
    u = as_field(g, u)
    if np.any(u < 0.0):
        raise DomainError("density must be nonnegative")
    if measure.graph is not g:
        measure = Measure(g, measure.pi)
    return float(_entropy(measure, m, u))


# The centred differences of the entropy balance need time gaps far above
# the ulp: a gap of N ulps carries a relative error of about 1/N.
_MIN_SPACING_ULPS = 2**20


def entropy_dissipation_residual(traj: Trajectory, measure: Measure) -> float:
    """Largest defect of the entropy balance along a reported trajectory.

    Compares centered differences of :func:`renyi_entropy` at interior grid
    times with the dissipation formula
    ``-(1/m) sum_x u(x) gradient_energy(v)(x) pi(x)``.  A grid whose
    spacing is under ``2^20`` ulps of its times is refused with a
    :class:`ValidationError`: the times, and the integrator's steps, are
    rounded to the ulp, so such differences would measure rounding.
    """
    if len(traj.times) < 3:
        raise ValidationError("need at least 3 reported times")
    g, m, t, U = traj.graph, traj.m, traj.times, traj.states
    ulps = np.diff(t) / np.spacing(t[1:])
    if ulps.min() < _MIN_SPACING_ULPS:
        i = int(np.argmin(ulps))
        raise ValidationError(
            f"grid spacing {t[i + 1] - t[i]:.3g} at t={t[i + 1]:.6g} is only {ulps[i]:.3g} ulps wide, "
            f"under the {_MIN_SPACING_ULPS} ulps centred differences need"
        )
    if measure.graph is not g:
        measure = Measure(g, measure.pi)
    ent = _entropy(measure, m, U)
    slope = (ent[2:] - ent[:-2]) / (t[2:] - t[:-2])
    inner = U[1:-1]
    psi = _gradient_energy(g, m, _pressure(m, inner))
    predicted = -_pi_sums(measure, inner * psi) / m
    return max(0.0, float(np.max(np.abs(slope - predicted))))


def _pi_sums(measure: Measure, F: np.ndarray) -> np.ndarray:
    """``measure.pi @ f`` for every field ``f`` of ``F``, each a 1-d dot product."""
    return (F[..., None, :] @ measure.pi[:, None])[..., 0, 0]


def _entropy(measure: Measure, m: float, U: np.ndarray) -> np.ndarray:
    """:func:`renyi_entropy` of every field of ``U``."""
    return _pi_sums(measure, _pow(U, m)) / (m * (m - 1.0))


def pressure_equation_residual(traj: Trajectory) -> float:
    """Largest defect of the pressure evolution identity along a trajectory.

    The time derivative of the pressure is evaluated exactly through
    ``dv/dt = m u^(m-2) L(u^m)`` and compared with
    ``(m-1) v Lv + gradient_energy(v)`` at every reported state; along any
    positive field the two agree up to floating-point error, so this is a
    sharp consistency check on the operator implementations.
    """
    g, m, U = traj.graph, traj.m, traj.states
    V = _pressure(m, U)
    lhs = _dtv(g, m, U)
    rhs = (m - 1.0) * V * g.laplacian(V) + _gradient_energy(g, m, V)
    return max(0.0, float(np.max(np.abs(lhs - rhs))))


# -- file formats ----------------------------------------------------------


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``t,<vertex ids...>`` rows with 17 significant digits."""
    write_csv(path, ("t", *traj.graph.vertices), np.column_stack((traj.times, traj.states)).tolist())


def read_trajectory_csv(path, g: Graph, m: float) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory_csv`."""
    header, *lines = _text_lines(path) or [""]
    if header.strip().split(",") != ["t", *g.vertices]:
        raise ValidationError(f"{path}: header does not match the graph")
    rows, linenos = [], []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        tokens = line.strip().split(",")
        if len(tokens) != g.n + 1:
            raise ValidationError(f"{path}:{lineno}: expected {g.n + 1} fields, got {len(tokens)}")
        try:
            rows.append([float(tok) for tok in tokens])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        linenos.append(lineno)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    data = np.asarray(rows)
    times, states = data[:, 0], data[:, 1:]

    def refuse(bad, what):
        if bad.any():
            raise ValidationError(f"{path}:{linenos[int(np.argmax(bad))]}: {what}")

    # Trajectory's own tests, in its order, naming the first line each fails
    refuse(~np.isfinite(times), "times must be finite")
    refuse(np.diff(times, prepend=-np.inf) <= 0.0, "times must be strictly increasing")
    refuse(~((states > 0.0) & (states < np.inf)).all(axis=1), "states must be strictly positive and finite")
    return Trajectory(g, m, times, states)


def load_initial_condition(path, g: Graph) -> np.ndarray:
    """Read a ``<vertex> <value>`` file giving every vertex of ``g`` once, with a strictly positive finite value."""
    values: dict[str, float] = {}
    for lineno, parts in _records(path, "<vertex> <value>"):
        if parts[0] not in g._index:
            raise ValidationError(f"{path}:{lineno}: unknown vertex {parts[0]!r}")
        if parts[0] in values:
            raise ValidationError(f"{path}:{lineno}: vertex {parts[0]!r} given twice")
        try:
            values[parts[0]] = value = float(parts[1])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: bad value {parts[1]!r}") from None
        if not 0.0 < value < math.inf:
            raise ValidationError(f"{path}:{lineno}: value {parts[1]!r} is not strictly positive and finite")
    if len(values) < g.n:  # each value is of a distinct vertex of g
        raise ValidationError(f"{path}: no value for vertices {[v for v in g.vertices if v not in values]}")
    return np.array([values[v] for v in g.vertices])


# -- alternate operation names ---------------------------------------------

rhs = pme_rhs
