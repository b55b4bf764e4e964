"""Adaptive integration of the porous medium equation on a graph.

The flow is ``du/dt = L(u^m)`` started from a strictly positive field.  An
embedded Runge-Kutta 5(4) pair with the classic Dormand-Prince coefficients
drives the step size, with two extra rules suited to this equation:

* any proposed step whose new state touches the positivity floor is
  rejected and the step halved, so reported states stay strictly positive;
* if the step size underflows (below ``1e-14 * t_end``) a
  :class:`~pmelab.errors.StiffnessError` reports the failure time.

Accepted steps keep their endpoint derivatives, and requested output times
are filled by cubic Hermite interpolation between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, StiffnessError, ValidationError
from .graphs import Graph
from .operators import _dtv, _flow, _gradient_energy, _lap, _pressure, as_field, check_exponent

__all__ = [
    "SolverConfig",
    "Trajectory",
    "Measure",
    "counting_measure",
    "pme_rhs",
    "integrate",
    "exact_two_point",
    "renyi_entropy",
    "entropy_dissipation_residual",
    "pressure_equation_residual",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "load_initial_condition",
    "rhs",
]


# Dormand-Prince 5(4) tableau; the propagated solution is 5th order and the
# last error coefficient belongs to the FSAL stage.
_DP_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0)
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


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and guards for :func:`integrate`."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_step: Optional[float] = None
    initial_step: Optional[float] = None
    positivity_floor: float = 1e-300

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "positivity_floor"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive")
        for name in ("max_step", "initial_step"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValidationError(f"{name} must be positive when given")


class _Dense:
    """Cubic Hermite interpolant over the accepted steps."""

    def __init__(self, ts: np.ndarray, ys: np.ndarray, fs: np.ndarray):
        self.ts = ts
        self.ys = ys
        self.fs = fs

    def __call__(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.min() < self.ts[0] - 1e-12 or t.max() > self.ts[-1] + 1e-12:
            raise DomainError("time outside the integrated range")
        idx = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 2)
        t0, t1 = self.ts[idx], self.ts[idx + 1]
        h = (t1 - t0)[:, None]
        s = ((t - t0) / (t1 - t0))[:, None]
        y0, y1 = self.ys[idx], self.ys[idx + 1]
        f0, f1 = self.fs[idx], self.fs[idx + 1]
        s2, s3 = s * s, s * s * s
        return (
            (2.0 * s3 - 3.0 * s2 + 1.0) * y0
            + (s3 - 2.0 * s2 + s) * h * f0
            + (-2.0 * s3 + 3.0 * s2) * y1
            + (s3 - s2) * h * f1
        )


@dataclass
class Trajectory:
    """Positive states of one solution sampled on an increasing time grid."""

    graph: Graph
    m: float
    times: np.ndarray
    states: np.ndarray
    dense: Optional[_Dense] = field(default=None, repr=False)

    def __post_init__(self):
        check_exponent(self.m)
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValidationError("times must be a nonempty 1-d array")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValidationError("times must be strictly increasing")
        if self.states.shape != (len(self.times), self.graph.n):
            raise ValidationError("states shape does not match times and graph")
        if not np.all(np.isfinite(self.states)) or np.any(self.states <= 0.0):
            raise ValidationError("states must be strictly positive and finite")

    def state_at(self, t: float) -> np.ndarray:
        """State at time ``t``, interpolated when dense data is available."""
        t = float(t)
        if self.dense is not None:
            return self.dense(t)[0]
        hits = np.nonzero(np.isclose(self.times, t, rtol=1e-12, atol=0.0))[0]
        if len(hits) == 0:
            raise DomainError(f"t={t:.6g} is not a reported time and no dense data is stored")
        return self.states[hits[0]]

    def value(self, t: float, x: str) -> float:
        return float(self.state_at(t)[self.graph.index(x)])


def pme_rhs(g: Graph, m: float, u) -> np.ndarray:
    """Right-hand side ``L(u^m)`` of the porous medium equation."""
    m = check_exponent(m)
    u = as_field(g, u)
    with np.errstate(invalid="ignore"):
        return _flow(g.kernel_matrix(), g.degree, m, u)


def integrate(g: Graph, m: float, u0, t_eval, config: Optional[SolverConfig] = None) -> Trajectory:
    """Integrate ``du/dt = L(u^m)`` and report states at ``t_eval``.

    ``u0`` is the state at ``t_eval[0]``.  The returned trajectory carries
    the dense interpolant of the run, so later checks can refine in time.
    """
    m = check_exponent(m)
    cfg = config or SolverConfig()
    u0 = as_field(g, u0)
    if np.any(u0 <= 0.0) or not np.all(np.isfinite(u0)):
        raise ValidationError("initial state must be strictly positive and finite")
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or len(t_eval) == 0:
        raise ValidationError("t_eval must be a nonempty 1-d array")
    if t_eval[0] < 0.0 or np.any(np.diff(t_eval) <= 0.0):
        raise ValidationError("t_eval must be nonnegative and strictly increasing")
    if len(t_eval) == 1:
        return Trajectory(g, m, t_eval, u0[None, :].copy())

    t0, t_end = float(t_eval[0]), float(t_eval[-1])
    span = t_end - t0
    max_step = cfg.max_step if cfg.max_step is not None else span / 20.0
    h_floor = 1e-14 * t_end

    kernel, degree = g.kernel_matrix(), g.degree

    def rhs(y):
        with np.errstate(invalid="ignore", over="ignore"):
            return _flow(kernel, degree, m, y)

    t, y = t0, u0.copy()
    f = rhs(y)
    if cfg.initial_step is not None:
        h = min(cfg.initial_step, max_step, span)
    else:
        fmax = float(np.max(np.abs(f)))
        h = min(max_step, span / 100.0, 0.01 * float(np.max(np.abs(y))) / fmax if fmax > 0 else span)

    ts, ys, fs = [t], [y.copy()], [f.copy()]
    k = np.empty((7, g.n))
    while t < t_end - 1e-14 * span:
        h = min(h, t_end - t, max_step)
        if h < h_floor:
            raise StiffnessError(t)
        k[0] = f
        bad = False
        for s in range(5):
            stage = y + h * (_DP_A[s] @ k[: s + 1])
            k[s + 1] = rhs(stage)
            if not np.all(np.isfinite(k[s + 1])):
                bad = True
                break
        if not bad:
            y_new = y + h * (_DP_B @ k[:6])
            bad = not np.all(np.isfinite(y_new)) or np.any(y_new <= cfg.positivity_floor)
        if bad:
            h *= 0.5
            continue
        k[6] = rhs(y_new)
        err = h * (_DP_E @ k)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            t += h
            y = y_new
            f = k[6].copy()
            ts.append(t)
            ys.append(y.copy())
            fs.append(f.copy())
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm**-0.2))
        else:
            factor = max(0.2, 0.9 * err_norm**-0.2)
        h *= factor

    dense = _Dense(np.asarray(ts), np.asarray(ys), np.asarray(fs))
    return Trajectory(g, m, t_eval.copy(), dense(t_eval), dense=dense)


def exact_two_point(a1: float, a2: float, t):
    """Closed-form solution for ``m = 2`` on the two-point unit-weight graph.

    Started from ``(a1, a2)``, the pair relaxes to its mean at rate
    ``2 * (a1 + a2)``:

    ``u1(t) = (a1 - a2)/2 * exp(-2 lam t) + lam / 2`` with ``lam = a1 + a2``
    and symmetrically for ``u2``.  Returns shape ``(2,)`` for scalar ``t``
    and ``(len(t), 2)`` for an array.
    """
    if not (a1 > 0.0 and a2 > 0.0):
        raise ValidationError("initial values must be positive")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValidationError("time must be nonnegative")
    lam = a1 + a2
    gap = 0.5 * (a1 - a2) * np.exp(-2.0 * lam * t)
    out = np.stack([0.5 * lam + gap, 0.5 * lam - gap], axis=-1)
    return out


# -- measures and entropy --------------------------------------------------


@dataclass(frozen=True)
class Measure:
    """Positive vertex measure, validated for detailed balance.

    Construction checks ``k(x,y) pi(x) = k(y,x) pi(y)`` for all pairs, so
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
        flux = self.graph.kernel_matrix().multiply(pi[:, None]).tocsr()
        gap = abs(flux - flux.T)
        if gap.nnz and gap.max() > 1e-12 * max(1.0, flux.max()):
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


def entropy_dissipation_residual(traj: Trajectory, measure: Measure) -> float:
    """Largest defect of the entropy balance along a reported trajectory.

    Compares centered differences of :func:`renyi_entropy` at interior grid
    times with the dissipation formula
    ``-(1/m) sum_x u(x) gradient_energy(v)(x) pi(x)``.
    """
    if len(traj.times) < 3:
        raise ValidationError("need at least 3 reported times")
    g, m, t, U = traj.graph, traj.m, traj.times, traj.states
    if measure.graph is not g:
        measure = Measure(g, measure.pi)
    ent = _entropy(measure, m, U)
    slope = (ent[2:] - ent[:-2]) / (t[2:] - t[:-2])
    inner = U[1:-1]
    psi = _gradient_energy(g.kernel_matrix(), g.degree, m, _pressure(m, inner))
    predicted = -_pi_sums(measure, inner * psi) / m
    return max(0.0, float(np.max(np.abs(slope - predicted))))


def _pi_sums(measure: Measure, F: np.ndarray) -> np.ndarray:
    """``measure.pi @ f`` for every field ``f`` of ``F``, each a 1-d dot product."""
    return (F[..., None, :] @ measure.pi[:, None])[..., 0, 0]


def _entropy(measure: Measure, m: float, U: np.ndarray) -> np.ndarray:
    """:func:`renyi_entropy` of every field of ``U``."""
    return _pi_sums(measure, U**m) / (m * (m - 1.0))


def pressure_equation_residual(traj: Trajectory) -> float:
    """Largest defect of the pressure evolution identity along a trajectory.

    The time derivative of the pressure is evaluated exactly through
    ``dv/dt = m u^(m-2) L(u^m)`` and compared with
    ``(m-1) v Lv + gradient_energy(v)`` at every reported state; along any
    positive field the two agree up to floating-point error, so this is a
    sharp consistency check on the operator implementations.
    """
    g, m, U = traj.graph, traj.m, traj.states
    k, deg = g.kernel_matrix(), g.degree
    V = _pressure(m, U)
    lhs = _dtv(k, deg, m, U)
    rhs = (m - 1.0) * V * _lap(k, deg, V) + _gradient_energy(k, deg, m, V)
    return max(0.0, float(np.max(np.abs(lhs - rhs))))


# -- file formats ----------------------------------------------------------


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``t,<vertex ids...>`` rows with 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t," + ",".join(traj.graph.vertices) + "\n")
        for t, row in zip(traj.times, traj.states):
            fh.write(",".join(f"{val:.17g}" for val in (t, *row)) + "\n")


def read_trajectory_csv(path, g: Graph, m: float) -> Trajectory:
    """Read a trajectory written by :func:`write_trajectory_csv`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[0] != "t" or tuple(header[1:]) != g.vertices:
            raise ValidationError(f"{path}: header does not match the graph")
        rows = [[float(tok) for tok in line.strip().split(",")] for line in fh if line.strip()]
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    data = np.asarray(rows)
    return Trajectory(g, m, data[:, 0], data[:, 1:])


def load_initial_condition(path, g: Graph) -> np.ndarray:
    """Read a ``<vertex> <value>`` file covering every vertex of ``g``."""
    values: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValidationError(f"{path}:{lineno}: expected '<vertex> <value>'")
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                raise ValidationError(f"{path}:{lineno}: bad value {parts[1]!r}") from None
    return as_field(g, values)


# -- alternate operation names ---------------------------------------------

rhs = pme_rhs
