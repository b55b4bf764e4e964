"""Curvature-dimension verification at graph vertices.

A vertex ``x`` satisfies the curvature-dimension condition ``CD(0, d)`` of
the diffusion with exponent ``m`` and mixing ``alpha`` if

    ``curvature_form_mixed(u)(x) >= (1/d) * (-G(x))^2``

for every positive field ``u`` whose quantity ``-G`` (see
:func:`~pmelab.operators.mixed_laplacian`) has a strict positive local
maximum at ``x``.  This module decides that empirically: admissibility
tests, the ratio ``(-G)^2 / curvature form`` whose supremum over admissible
fields is the optimal ``d``, a seeded search for violations (sampling, then a
batched compass search), closed-form certificates on complete graphs, the chain
families where the condition fails, and the integer-lattice reduction with
mixing 1.

Both sides of the inequality are homogeneous of degree ``2m - 2`` in ``u``,
so searches normalize a field by its largest value on the two-hop ball and
explore the compact domain ``[lo, 1]^n`` of ball fields, together with its
faces, where coordinates are pinned at ``lo`` or 1.  For ``m >= 2``,
``lo = 0`` (the boundary limits are where several suprema live); for
``m < 2`` a positive floor keeps ``u^(m-2)`` finite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .artifacts import jsonable
from .errors import AdmissibilityError, DomainError, ValidationError
from .graphs import Graph, path_graph, two_hop_ball
from .operators import (
    _block_count,
    _curvature_form,
    _mixed_laplacian,
    as_field,
    check_exponent,
    check_mixing,
    curvature_form,
    curvature_form_mixed,
    laplacian,
    mixed_laplacian_field,
    pressure,
    pressure_inverse,
)

__all__ = [
    "SearchConfig",
    "AdmissibilityResult",
    "AdmissibleConfig",
    "CDReport",
    "is_admissible",
    "cd_ratio",
    "verify_cd_at",
    "empirical_optimal_d",
    "complete_graph_certificate",
    "ChainWitness",
    "chain_counterexample",
    "lattice_cd_check",
    "chain_limit_curvature",
    "complete_graph_f",
    "z_lattice_cd_check",
]


def _integer(name: str, value) -> int:
    """``value`` as an ``int`` if it is an integer other than a bool, else a ``ValidationError``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, not {value!r}") from None


@dataclass(frozen=True)
class SearchConfig:
    """Budget and domain parameters for the violation search.

    Fields are normalized by their largest ball value, so the search
    domain is ``[lo, 1]^n``: ``lo = 0`` for ``m >= 2``, else ``lo = floor``
    (the formulas involve ``u^(m-2)``).  ``samples`` rows are drawn, the
    ``starts`` rows with the lowest scores seed the compass refinement
    (among equal scores the earlier sample first, NaN after ``+inf``, as a
    stable sort orders them), and ``refine_iters`` bounds its iterations
    (0: sampling only); an iteration polls every start once.
    A report's ``samples_used`` counts every field the search scored: the
    samples plus ``starts x 2(n - 1)`` polls per iteration run.
    ``delta`` is the strictness margin while refining, ``tol`` the relative
    margin a ratio must exceed ``d`` by before a violation is declared.
    """

    samples: int = 20000
    refine_iters: int = 200
    seed: int = 0
    floor: float = 1e-6
    delta: float = 1e-12
    tol: float = 1e-6
    starts: int = 3

    def __post_init__(self):
        for name in ("samples", "refine_iters", "seed", "starts"):
            object.__setattr__(self, name, _integer(f"search {name}", getattr(self, name)))
        if self.samples < 1:
            raise ValidationError("search budget must be at least 1 sample")
        if self.refine_iters < 0 or self.starts < 1:
            raise ValidationError("bad refinement budget")
        if self.seed < 0:
            raise ValidationError("search seed must be nonnegative")
        if not 0.0 < self.floor < 1.0:
            raise ValidationError("search floor must satisfy 0 < floor < 1")
        if not (0.0 <= self.delta < math.inf and 0.0 <= self.tol < math.inf):
            raise ValidationError("delta and tol must be finite and nonnegative")


@dataclass(frozen=True)
class AdmissibilityResult:
    """Outcome of an admissibility test with per-neighbor diagnostics."""

    admissible: bool
    base_vertex: str
    base_neg_g: float
    neighbor_neg_g: dict[str, float]

    def __bool__(self) -> bool:
        return self.admissible


@dataclass(frozen=True)
class AdmissibleConfig:
    """A field on a two-hop ball witnessing a curvature ratio.

    ``field`` maps ball vertices to values; values elsewhere are irrelevant
    to the ratio at ``base_vertex`` and are taken as 1 when rebuilding a
    full field.
    """

    base_vertex: str
    field: dict[str, float]
    m: float
    alpha: float
    delta: float

    def to_field(self, g: Graph) -> np.ndarray:
        u = np.ones(g.n)
        for v, value in self.field.items():
            u[g.index(v)] = value
        return u


@dataclass(frozen=True)
class CDReport:
    """Result of one per-vertex curvature-dimension search."""

    vertex: str
    m: float
    alpha: float
    d_tested: Optional[float]
    verdict: str
    witness: Optional[AdmissibleConfig]
    empirical_optimal_d: Optional[float]
    samples_used: int
    seed: int
    floor: Optional[float] = None

    def to_json_dict(self) -> dict:
        """The report in plain JSON types, without ``floor`` when it is unset."""
        out = jsonable(self)
        if self.floor is None:
            del out["floor"]
        return out


# -- pointwise admissibility and ratio -------------------------------------


def is_admissible(g: Graph, m: float, alpha: float, u, x: str, delta: float = 0.0) -> AdmissibilityResult:
    """Test whether ``-G`` has a strict positive local maximum at ``x``.

    True iff ``-G(x) > delta`` and ``-G(x) >= -G(y)`` for every one-hop
    neighbor ``y``.  Ties with neighbors are allowed; several families
    attain their suprema exactly on such ties.
    """
    if delta < 0.0:
        raise DomainError("strictness margin must be nonnegative")
    neg_g = -mixed_laplacian_field(g, m, alpha, u)
    i = g.index(x)
    nbrs = {g.vertices[j]: float(neg_g[j]) for j in g.neighbors_idx(i)}
    base = float(neg_g[i])
    ok = base > delta and all(base >= val for val in nbrs.values())
    return AdmissibilityResult(ok, x, base, nbrs)


def cd_ratio(g: Graph, m: float, alpha: float, u, x: str) -> float:
    """Ratio ``(-G(x))^2 / curvature_form_mixed(u)(x)`` at an admissible field.

    ``CD(0, d)`` holds at ``x`` for this particular field iff the ratio is
    at most ``d``.  Returns ``+inf`` when the curvature form is not
    positive, in which case no finite ``d`` works.
    """
    adm = is_admissible(g, m, alpha, u, x, 0.0)
    if not adm:
        raise AdmissibilityError(f"field is not admissible at {x!r}: -G diagnostics {adm}")
    dval = curvature_form_mixed(g, m, alpha, u, x)
    if dval <= 0.0:
        return math.inf
    return adm.base_neg_g**2 / dval


# -- vectorized search engine ----------------------------------------------

# Large batches of any ball are scored in blocks of about this many values:
# 2**15 float64 values are 256 KB, so the few temporaries of a block that are
# live at once fit a 2 MB L2 cache instead of being mapped afresh every batch.
_BLOCK_VALUES = 2**15


class _BallKernel:
    """A two-hop ball's kernel for the batched core, which reads only its ``laplacian``.

    That is a dense matrix product less the full graph's degrees.  Only the
    closed one-hop rows are ever read, and those are complete inside the
    ball, so their Laplacian is the graph's.
    """

    def __init__(self, g: Graph, idx: np.ndarray):
        local = np.full(g.n, -1)
        local[idx] = np.arange(len(idx))
        rows, cols = local[g.rows], local[g.indices]
        inside = (rows >= 0) & (cols >= 0)
        self.matrix = np.zeros((len(idx), len(idx)))
        self.matrix[rows[inside], cols[inside]] = g.data[inside]
        self.degree = g.degree[idx]

    def laplacian(self, F: np.ndarray) -> np.ndarray:
        """``sum_y K(x,y) (F(y) - F(x))`` for a batch ``F`` of shape ``(batch, ball size)``."""
        # not (matrix @ F.T).T: OpenBLAS 0.3.31 sums some of its rows by batch size
        # on balls of 30+ vertices, so blocks would not score as the whole batch;
        # the sums keep F's layout, so elementwise work mixes no layouts
        sums = F @ self.matrix.T
        return (np.asfortranarray(sums) if F.flags.f_contiguous else sums) - self.degree * F


class _BallProblem:
    """Batch evaluation of admissibility and score on one two-hop ball.

    Works on fields restricted to the ball (everything else is irrelevant
    to the quantities at the base vertex).  The ``score`` of a field is
    ``curvature_form / (-G)^2``, the reciprocal of :func:`cd_ratio`; it is
    smooth across sign changes of the curvature form, which is what the
    refinement descends through when hunting for violations.
    """

    def __init__(self, g: Graph, x: str, m: float, alpha: float):
        self.m = check_exponent(m)
        self.alpha = check_mixing(alpha)
        self.ball = two_hop_ball(g, x)
        self.pos_x = self.ball.index(x)
        idx = np.array([g.index(v) for v in self.ball])
        self.kernel = _BallKernel(g, idx)
        self.one_hop_local = np.searchsorted(idx, g.neighbors_idx(g.index(x)))  # the ball is in graph order

    def evaluate(self, U: np.ndarray):
        """Score a batch of ball fields.

        Returns ``(admissible mask, score, -G(base))`` for ``U`` of shape
        ``(batch, ball size)``; a row with a zero base value is never
        admissible, and the curvature form is scored at admissible rows
        only (``score`` is ``+inf`` elsewhere).  A batch of more than
        ``_BLOCK_VALUES`` values and at least 2 rows is scored in
        near-equal blocks of at most that many values plus one row, each
        copied vertex-major (Fortran order), in which the ball kernel sums
        each row as in one block of the whole batch, and the results
        (copies, which keep no block alive) are concatenated.  Any other
        batch is scored as it is, without a copy.
        """
        count = _block_count(len(U), U.shape[1], _BLOCK_VALUES)
        if count < 2:
            return self._score(U)
        parts = [self._score(np.asfortranarray(block)) for block in np.array_split(U, count)]
        return tuple(np.concatenate(results) for results in zip(*parts))

    def _score(self, U: np.ndarray):
        """:meth:`evaluate` on one block: ``(ok, score, base)``, the curvature form at admissible rows only.

        Admissibility is read from ``G`` without negating it: ``G(x) < 0``
        and ``G(x) <= G(y)`` at every one-hop ``y`` are ``-G(x) > 0`` and
        ``-G(x) >= -G(y)`` (NaN fails both).  The admissible rows are
        gathered in the block's own layout; in a vertex-major block the ball
        kernel then sums each of them as in the whole block, while a
        row-major batch may differ in the last bits (see
        :func:`_search_min_score`).
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            G = _mixed_laplacian(self.kernel, self.m, self.alpha, U)
            gx = G[:, self.pos_x]
            ok = gx < 0.0
            ok &= (gx[:, None] <= G[:, self.one_hop_local]).all(axis=1)
            base = -gx
            rows = np.flatnonzero(ok)
            # one copy in U's layout: U.T[:, rows].T would copy a vertex-major block row-major
            A = U.T.take(rows, axis=1).T if U.flags.f_contiguous else U[rows]
            score = np.full(len(U), np.inf)
            score[rows] = _curvature_form(self.kernel, self.m, self.alpha, A, self.pos_x) / base[rows] ** 2
        return ok, score, base


@dataclass
class _SearchOutcome:
    min_score: float
    best_u: Optional[np.ndarray]
    evaluations: int
    admissible_found: int


def _sample_fields(rng: np.random.Generator, samples: int, n: int, lo: float) -> np.ndarray:
    """``samples`` seeded rows of ``[lo, 1]^n``, the second half on its faces.

    The rows are ``random`` draws scaled in place, ``u (1 - lo) + lo``, which
    are the draws of ``uniform(lo, 1)`` bit for bit, without its temporaries.
    Each face row draws a pin probability ``q``; a coordinate is pinned
    where its first draw falls below ``q``, to ``lo`` where its second draw
    falls below 1/2, else to 1.  The pins are written by arithmetic, not by
    masked selects, which branch on random masks: ``x * 1 + 0 = x`` and
    ``0 + 1 = 1`` are exact.
    """
    U = rng.random((samples, n))
    U *= 1.0 - lo
    U += lo
    faces = U[samples // 2 :]  # a view: pins are written into U
    draw = rng.random(faces.shape)
    pinned = draw < rng.random((len(faces), 1))
    low = rng.random(out=draw) < 0.5
    low &= pinned
    faces *= ~pinned
    faces += pinned ^ low  # pinned high
    faces += lo * low
    return U


def _lowest_first(score: np.ndarray, starts: int) -> np.ndarray:
    """The rows of the ``starts`` lowest scores, the earlier row first among equal scores and NaN after ``+inf``.

    This is ``np.argsort(score, kind="stable")[:starts]``, found in at most
    ``starts`` passes of ``np.argmin`` (which returns the first of tied
    rows) over a copy, so it does not depend on how numpy sorts.
    """
    s = np.fmin(score, np.inf)  # a copy in which NaN reads as +inf
    top = []
    for _ in range(min(starts, len(s))):
        i = int(np.argmin(s))
        if s[i] == np.inf:  # only +inf and NaN are left: the +inf first, each in row order
            top += [*np.flatnonzero(score == np.inf), *np.flatnonzero(np.isnan(score))][: starts - len(top)]
            break
        top.append(i)
        s[i] = np.inf
    return np.array(top, dtype=np.intp)


def _search_min_score(prob: _BallProblem, cfg: SearchConfig) -> _SearchOutcome:
    """Minimize score = curvature form / (-G)^2 over admissible ball fields.

    The score is scale invariant, so fields are rows of ``[lo, 1]^n``.
    The second half of the samples lies on faces: each row draws a pin
    probability ``q`` and pins every coordinate with probability ``q`` to
    ``lo`` or 1, so every pin count, up to a full corner, gets about the
    same budget.  The admissible rows among the ``starts`` lowest scores
    (the earlier sample first among ties, see :func:`_lowest_first`) then
    take compass steps of ``±step`` on every coordinate but the largest (the
    flat scale direction), each moving to its best admissible improving
    candidate with ``-G > delta``, else shrinking its step fourfold.
    Until some start moves, the polls of the coming iterations are known,
    so one ``evaluate`` call scores ``depth`` of them and they are replayed
    in order up to the first move.  No round scores more rows than the
    sample batch held (the round cap), and none polls past the budget or
    below the step floor 1e-12.  The first round polls down to the floor
    or the cap, so a search whose starts never move takes one call; after
    a round with a move ``depth`` is 1, and it doubles after each round
    without one.  ``evaluations`` counts the iterations replayed, as one
    call per iteration would, and minimum and field are those of one call
    per iteration too, unless BLAS sums a ball row differently in a batch
    of another shape (the last bits only).
    """
    lo = 0.0 if prob.m >= 2.0 else cfg.floor
    U = _sample_fields(np.random.default_rng(cfg.seed), cfg.samples, len(prob.ball), lo)
    ok, score, _ = prob.evaluate(U)
    admissible = int(ok.sum())
    if admissible == 0:
        return _SearchOutcome(math.inf, None, len(U), 0)
    top = _lowest_first(score, cfg.starts)
    X, S = U[top[ok[top]]], score[top[ok[top]]]
    k, n = X.shape
    step = np.full(k, (1.0 - lo) / 4.0)
    # poll j of start i moves along E[i, 0, j], +e_c then -e_c for every coordinate c but the largest
    axes = [np.delete(np.eye(n), h, axis=0) for h in np.argmax(X, axis=1)]
    E = np.array([np.concatenate([a, -a]) for a in axes])[:, None]
    # a round scores at most as many rows as the sample batch, so wide balls need no more memory
    max_depth = max(1, cfg.samples // max(1, E.size // n))
    evaluations = ok.size
    iters, depth = 0, max_depth
    while iters < cfg.refine_iters and step.max() >= 1e-12:
        # the steps of the next `depth` iterations if no start moves, cut
        # where the budget ends or every step falls below 1e-12
        steps = step[:, None] / 4.0 ** np.arange(min(depth, max_depth, cfg.refine_iters - iters))
        steps = steps[:, steps.max(axis=0) >= 1e-12]
        C = np.clip(X[:, None, None, :] + steps[:, :, None, None] * E, lo, 1.0)
        ok_c, score_c, base_c = (a.reshape(C.shape[:3]) for a in prob.evaluate(C.reshape(-1, n)))
        better = ok_c & (base_c > cfg.delta) & (score_c < S[:, None, None])
        moves = better.any(axis=2)
        hit = np.flatnonzero(moves.any(axis=0))
        t = hit[0] if len(hit) else steps.shape[1] - 1
        iters += t + 1
        evaluations += ok_c[:, : t + 1].size
        moved = moves[:, t]
        j = np.argmin(np.where(better[:, t], score_c[:, t], np.inf), axis=1)
        X[moved], S[moved] = C[moved, t, j[moved]], score_c[moved, t, j[moved]]
        step = np.where(moved, steps[:, t], steps[:, t] / 4.0)
        depth = 1 if len(hit) else 2 * depth
    i = int(np.argmin(S))
    return _SearchOutcome(float(S[i]), X[i], evaluations, admissible)


@dataclass(frozen=True)
class _SearchResult:
    """One search at ``vertex``, in which ``d`` plays no part, and the supremum of :func:`cd_ratio` it found."""

    vertex: str
    m: float
    alpha: float
    config: SearchConfig
    ball: tuple[str, ...]
    outcome: _SearchOutcome
    ratio: float  # nan when no field was admissible, +inf when the best score is <= 0, else 1 / min_score

    def report(self, d: float) -> CDReport:
        """The verdict at ``d``: ``inconclusive`` at a ``nan`` ratio, ``violated`` with a witness above ``d(1+tol)``."""
        cfg, out, ratio = self.config, self.outcome, self.ratio
        verdict, witness = "holds_empirically", None
        if math.isnan(ratio):
            verdict, ratio = "inconclusive", None
        elif ratio > d * (1.0 + cfg.tol):
            field_values = {v: float(value) for v, value in zip(self.ball, out.best_u)}
            verdict, witness = "violated", AdmissibleConfig(self.vertex, field_values, self.m, self.alpha, cfg.delta)
        floor = cfg.floor if self.m < 2.0 else None
        return CDReport(self.vertex, self.m, self.alpha, d, verdict, witness, ratio, out.evaluations, cfg.seed, floor)


def _search(g: Graph, x: str, m: float, alpha: float, search: Optional[SearchConfig]) -> _SearchResult:
    """Run the violation search at ``x`` once, for any number of verdicts."""
    cfg = search or SearchConfig()
    prob = _BallProblem(g, x, m, alpha)
    out = _search_min_score(prob, cfg)
    ratio = math.nan if out.admissible_found == 0 else math.inf if out.min_score <= 0.0 else 1.0 / out.min_score
    return _SearchResult(x, prob.m, prob.alpha, cfg, prob.ball, out, ratio)


def verify_cd_at(g: Graph, m: float, alpha: float, d: float, x: str, search: Optional[SearchConfig] = None) -> CDReport:
    """Search for a violation of ``CD(0, d)`` at vertex ``x``.

    Samples seeded fields on the two-hop ball, normalized by the largest
    ball value, from ``[lo, 1]^n`` and from its faces with coordinates
    pinned at ``lo`` or 1; filters by admissibility, refines the worst
    candidates by a batched compass search (see :class:`SearchConfig`
    for what the budget counts), and reports ``violated`` with a witness
    when a ratio exceeds ``d (1 + tol)``.  ``samples_used`` is the number
    of fields scored, samples and refinement polls.
    ``holds_empirically`` is a budget-bounded claim, not a proof; the
    report carries seed and budget so it can be falsified.
    """
    m = check_exponent(m)
    alpha = check_mixing(alpha)
    if not 0.0 < d < math.inf:
        raise ValidationError("d must be positive and finite")
    return _search(g, x, m, alpha, search).report(d)


def empirical_optimal_d(g: Graph, m: float, alpha: float, x: str, search: Optional[SearchConfig] = None) -> float:
    """Supremum of :func:`cd_ratio` over the sampled and compass-refined fields.

    The samples include the faces of ``[lo, 1]^n``, where coordinates
    are pinned at ``lo`` or at the ball maximum 1, so boundary limits are
    reached.  Returns ``+inf`` as soon as any admissible field has a
    nonpositive curvature form, and ``nan`` if no admissible field was
    found at all.
    """
    return _search(g, x, m, alpha, search).ratio


# -- closed forms and counterexamples --------------------------------------


def complete_graph_certificate(nu: float, m: float, z) -> float:
    """Certificate polynomial for ``CD(0, nu)`` on the complete graph.

    For the unit-weight complete graph on ``D`` vertices and the field
    ``u(x1) = 1``, ``u(x_{j+1}) = z_j`` with ``z_j`` in ``(0, 1]``, the
    condition at ``x1`` holds iff this expression is nonnegative:

    ``nu m (sum_j z_j^(m-2) sum_{l != j} z_l^m + sum_j z_j^(m-2)
    - (D-1) sum_j z_j^(2m-2) - (D-1) sum_j z_j^m + (D-1)^2)
    - m^2/(m-1)^2 ((sum_j z_j^(m-1))^2 - 2 (D-1) sum_j z_j^(m-1) + (D-1)^2)``

    The first group equals ``nu * curvature_form / u(x1)^(2m-2)`` and the
    second ``(Lv(x1))^2 / u(x1)^(2m-2)``, so the sign decides the ratio
    test exactly; this is the independent oracle for complete graphs.
    """
    m = check_exponent(m)
    if not nu > 0.0:
        raise ValidationError("nu must be positive")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z <= 0.0) or np.any(z > 1.0):
        raise ValidationError("certificate coordinates must lie in (0, 1]")
    dm1 = len(z)
    s_m = float(np.sum(z**m))
    s_m1 = float(np.sum(z ** (m - 1.0)))
    s_m2_cross = float(np.sum(z ** (m - 2.0) * (s_m - z**m)))
    s_m2 = float(np.sum(z ** (m - 2.0)))
    s_2m2 = float(np.sum(z ** (2.0 * m - 2.0)))
    curv = nu * m * (s_m2_cross + s_m2 - dm1 * s_2m2 - dm1 * s_m + dm1**2)
    grad = m**2 / (m - 1.0) ** 2 * (s_m1**2 - 2.0 * dm1 * s_m1 + dm1**2)
    return curv - grad


@dataclass(frozen=True)
class ChainWitness:
    """Explicit chain field where the curvature condition fails."""

    graph: Graph
    vertex: str
    u: np.ndarray
    curvature: float
    neg_lap_pressure: float
    m: float
    eps: float


def chain_counterexample(n: int, m: float = 2.0, eps: float = 1e-3) -> ChainWitness:
    """Chain fields with negative curvature form at the center.

    ``n = 3, 4`` (exponent 2 only) return the limiting fields with
    curvature form exactly ``-3/2``; ``n = 5`` returns the one-parameter
    family built from the pressure profile ``(0, eps, 1, 2-2eps, 3-5eps)``,
    valid for any ``m >= 2`` and ``eps`` in ``(0, 3/5]``, whose curvature
    form stays negative as ``eps`` shrinks.
    """
    m = check_exponent(m)
    if n not in (3, 4, 5):
        raise ValidationError("chain length must be 3, 4 or 5")
    if n in (3, 4) and m != 2.0:
        raise ValidationError("the length-3 and length-4 fields are exponent-2 constructions")
    if m < 2.0:
        raise ValidationError("chain counterexamples need m >= 2")
    g = path_graph(n)
    if n == 3:
        u = as_field(g, {"1": 1.5, "2": 1.0, "3": 0.0})
        x = "2"
    elif n == 4:
        u = as_field(g, {"1": 1.5, "2": 1.0, "3": 0.0, "4": 0.0})
        x = "2"
    else:
        if not (0.0 < eps <= 0.6):
            raise ValidationError("eps must lie in (0, 3/5]")
        v = np.array([0.0, eps, 1.0, 2.0 - 2.0 * eps, 3.0 - 5.0 * eps])
        u = pressure_inverse(m, v)
        x = "3"
    dval = curvature_form(g, m, u, x)
    neg_lv = -laplacian(g, pressure(m, u), x)
    return ChainWitness(g, x, u, dval, neg_lv, m, eps if n == 5 else math.nan)


def chain_limit_curvature(m: float) -> float:
    """Limit of the length-5 chain curvature value as ``eps`` shrinks to 0.

    Returns the value approached by
    ``chain_counterexample(5, m, eps).curvature``.  For ``m > 2`` this is
    the product form

    ``((m-1)^2/m) 2^(-1/(m-1)) (2 * 3^q - 4^q - 2^q + 2 - 2^q)``

    with ``q = m/(m-1)``.  At ``m = 2`` exactly, the second-vertex term of
    the curvature form carries a factor ``eps^((m-2)/(m-1))`` whose
    exponent vanishes, so that term survives the limit and contributes an
    extra ``(m-1)^2/m``; the limit in ``eps`` is therefore discontinuous
    in ``m`` at 2.  The value is negative for every ``m >= 2``, which is
    what rules out a curvature bound on long chains.
    """
    m = check_exponent(m)
    if m < 2.0:
        raise ValidationError("the chain family is an m >= 2 construction")
    q = m / (m - 1.0)
    scale = (m - 1.0) ** 2 / m
    product_form = (
        scale
        * 2.0 ** (-1.0 / (m - 1.0))
        * (2.0 * 3.0**q - 4.0**q - 2.0**q + 2.0 - 2.0**q)
    )
    if m == 2.0:
        return product_form + scale
    return product_form


def lattice_cd_check(m: float, samples: int, seed: int) -> float:
    """Sampled check of ``CD(0, 1/(m-1))`` with mixing 1 at a lattice site.

    On the integer lattice the condition at a site ``z`` reduces, after
    scaling by ``(m-1)^2/m^2 * v(z)^2``, to a polynomial inequality in the
    powered pressure ratios ``A = a^(m/(m-1))``, ``B = b^(m/(m-1))`` of the
    two neighbors and ``S, N`` of the two second neighbors:

    ``-2(m-1)(A+B-2) - A(A+B-2) + m a (S+1-2A) - B(A+B-2) + m b (N+1-2B)
    >= (m-1) (2-A-B)^2``

    subject to admissibility ``A + B < 2`` and the second-neighbor
    constraints that make the site a local maximum of ``-G``.  Draws
    ``samples`` tuples from the constraint region (a quarter of them on the
    binding boundary) and returns the most negative slack observed;
    nonnegative up to round-off when the reduction is correct.
    """
    m = check_exponent(m)
    samples, seed = _integer("samples", samples), _integer("seed", seed)
    if samples < 1 or seed < 0:
        raise ValidationError("need at least one sample and a nonnegative seed")
    rng = np.random.default_rng(seed)
    q = m / (m - 1.0)
    A = rng.uniform(0.0, 2.0, size=samples)
    B = rng.uniform(0.0, 2.0 - A)
    a = A ** (1.0 / q)
    b = B ** (1.0 / q)
    ex_s = np.where(rng.random(samples) < 0.25, 0.0, rng.exponential(1.0, size=samples))
    ex_n = np.where(rng.random(samples) < 0.25, 0.0, rng.exponential(1.0, size=samples))
    r_s = 2.0 * A - 1.0 - 2.0 * a ** (1.0 / (m - 1.0)) + a ** ((m + 1.0) / (m - 1.0)) + a ** (1.0 / (m - 1.0)) * B
    r_n = 2.0 * B - 1.0 - 2.0 * b ** (1.0 / (m - 1.0)) + b ** ((m + 1.0) / (m - 1.0)) + a ** (m / (m - 1.0)) * b ** (1.0 / (m - 1.0))
    S = np.maximum(r_s, 0.0) + ex_s
    N = np.maximum(r_n, 0.0) + ex_n
    lhs = (
        -2.0 * (m - 1.0) * (A + B - 2.0)
        - A * (A + B - 2.0)
        + m * a * (S + 1.0 - 2.0 * A)
        - B * (A + B - 2.0)
        + m * b * (N + 1.0 - 2.0 * B)
    )
    rhs = (m - 1.0) * (2.0 - A - B) ** 2
    # the constant field gives exact equality, so the result is at most 0
    return min(0.0, float(np.min(lhs - rhs)))


# -- alternate operation names ---------------------------------------------

complete_graph_f = complete_graph_certificate
z_lattice_cd_check = lattice_cd_check
