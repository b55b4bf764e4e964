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
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from . import _EXPORTS
from .artifacts import jsonable
from .errors import AdmissibilityError, DomainError, ValidationError
from .graphs import Graph, _integer, path_graph, two_hop_ball
from .operators import (
    _admissible,
    _block_count,
    _curvature_form,
    _mixed_laplacian,
    _pow,
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

__all__ = list(_EXPORTS["cd"])


@dataclass(frozen=True)
class SearchConfig:
    """Budget of the violation search; its domain constants are class constants.

    Fields are normalized by their largest ball value, so the search
    domain is ``[lo, 1]^n``: ``lo = 0`` for ``m >= 2``, else ``lo = floor``
    (the formulas involve ``u^(m-2)``).  ``samples`` rows are drawn, the
    ``starts`` rows with the lowest scores seed the compass refinement
    (among equal scores the earlier sample first, NaN after ``+inf``, as a
    stable sort orders them), and ``refine_iters`` bounds its iterations
    (0: sampling only); an iteration polls every start once.  The
    refinement ends early once a start scores ``<= 0`` (not at NaN): the
    ratio is then ``+inf`` whatever later polls find, so a search whose
    samples hold such a score refines not at all.
    A report's ``samples_used`` counts every field the search scored: the
    samples plus ``starts x 2(n - 1)`` polls per iteration run.
    ``delta`` is the strictness margin while refining, ``tol`` the relative
    margin a ratio must exceed ``d`` by before a violation is declared.
    Only that budget, ``samples``, ``refine_iters``, ``seed`` and ``tol``, is
    set per search; ``floor``, ``delta`` and ``starts`` are constants, so a
    verdict is re-run from its seed and budget.
    """

    floor: ClassVar[float] = 1e-6
    delta: ClassVar[float] = 1e-12
    starts: ClassVar[int] = 3

    samples: int = 20000
    refine_iters: int = 200
    seed: int = 0
    tol: float = 1e-6

    def __post_init__(self):
        for name in ("samples", "refine_iters", "seed"):
            object.__setattr__(self, name, _integer(f"search {name}", getattr(self, name)))
        if self.samples < 1:
            raise ValidationError("search budget must be at least 1 sample")
        if self.refine_iters < 0:
            raise ValidationError("bad refinement budget")
        if self.seed < 0:
            raise ValidationError("search seed must be nonnegative")
        if not 0.0 <= self.tol < math.inf:
            raise ValidationError("tol must be finite and nonnegative")


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
    """Result of one per-vertex curvature-dimension search.

    ``budget`` holds the search's ``samples``, ``refine_iters`` and ``tol``,
    so ``SearchConfig(**report.budget, seed=report.seed)`` re-runs it.
    """

    vertex: str
    m: float
    alpha: float
    d_tested: Optional[float]
    verdict: Optional[str]
    witness: Optional[AdmissibleConfig]
    empirical_optimal_d: Optional[float]
    samples_used: int
    seed: int
    floor: Optional[float] = None
    budget: Optional[dict] = None

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
    G = mixed_laplacian_field(g, m, alpha, u)
    i = g.index(x)
    nbrs = g.neighbors_idx(i)
    ok = bool(_admissible(G, i, nbrs, delta))
    return AdmissibilityResult(ok, x, -float(G[i]), {g.vertices[j]: -float(G[j]) for j in nbrs})


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
        # the sums are copied once into F's layout (vertex-major for a block, see
        # _BallProblem.evaluate), so elementwise work mixes no layouts, and the
        # degree term is subtracted in place; P stays alive until the return, as
        # freeing it before the degree term is allocated read about 0.1 MB higher
        # in the cd_search benchmark's peak RSS
        P = F @ self.matrix.T
        L = np.asfortranarray(P) if F.flags.f_contiguous else P
        L -= self.degree * F
        return L


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
        # the search domain [lo, 1]^n: u^(m-2) needs a positive floor below m = 2
        self.lo = 0.0 if self.m >= 2.0 else SearchConfig.floor
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
        only (``score`` is ``+inf`` elsewhere).  Every batch is cut into
        near-equal blocks of at most ``_BLOCK_VALUES`` values plus one row
        (one block when it is small), and each block is scored as a
        vertex-major (Fortran order) copy, so a row scores the same in a
        row-major and a vertex-major batch.  The results of several blocks
        (copies, which keep no block alive) are concatenated; those of one
        block, such as every refinement poll, are returned as scored, with
        no split and no concatenated copy.  On balls of up to 75 vertices
        the ball kernel sums each row of a block as in one vertex-major
        block of the whole batch (measured on 2000 rows at m = 2 on
        ``complete:30``, ``:50`` and ``:75``); on wider balls a few rows
        differ in the last bits (1, 2 and 4 of 2000 on ``complete:100``,
        ``:200`` and ``:300``).  The search never scores a one-row batch:
        BLAS sums one row on its matrix-vector path, so a field scored alone
        can differ in the last bits from its score in a batch.
        """
        count = _block_count(len(U), U.shape[1], _BLOCK_VALUES)
        if count == 1:
            return self._score(np.asfortranarray(U))
        parts = [self._score(np.asfortranarray(block)) for block in np.array_split(U, count)]
        return tuple(np.concatenate(results) for results in zip(*parts))

    def _score(self, U: np.ndarray):
        """:meth:`evaluate` on one block: ``(ok, score, base)``, the curvature form at admissible rows only.

        ``ok`` is :func:`is_admissible`'s rule at margin 0.  ``U`` is vertex-major, and so are the gathered
        admissible rows, so on a ball of up to 75 vertices the ball kernel sums each of them as in the
        whole block (see :meth:`evaluate`).
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            G = _mixed_laplacian(self.kernel, self.m, self.alpha, U)
            ok = _admissible(G, self.pos_x, self.one_hop_local)
            base = -G[:, self.pos_x]
            rows = np.flatnonzero(ok)
            # one vertex-major copy: U[rows] and U.T[:, rows].T would copy row-major
            A = U.T.take(rows, axis=1).T
            score = np.full(len(U), np.inf)
            score[rows] = _curvature_form(self.kernel, self.m, self.alpha, A, self.pos_x) / base[rows] ** 2
        return ok, score, base


@dataclass(frozen=True)
class _SearchResult:
    """One search on ``problem``, in which ``d`` plays no part: every verdict compares ``d`` with :attr:`ratio`.

    ``best_u`` is the ball field of the least score ``min_score`` (None and ``+inf`` when no sample
    was admissible), ``evaluations`` counts the fields scored, ``admissible_found`` the admissible samples.
    """

    problem: _BallProblem
    config: SearchConfig
    min_score: float
    best_u: Optional[np.ndarray]
    evaluations: int
    admissible_found: int

    @property
    def ratio(self) -> float:
        """The supremum of :func:`cd_ratio` found: ``nan`` with no admissible field, ``+inf`` at a score ``<= 0``."""
        return math.nan if not self.admissible_found else math.inf if self.min_score <= 0.0 else 1.0 / self.min_score

    def report(self, d: Optional[float]) -> CDReport:
        """The verdict at ``d``: ``inconclusive`` at a ``nan`` ratio, ``violated`` with a witness above ``d(1+tol)``, None at ``d = None``."""
        prob, cfg, ratio = self.problem, self.config, self.ratio
        x = prob.ball[prob.pos_x]
        verdict, witness = (None if d is None else "holds_empirically"), None
        if math.isnan(ratio):
            verdict, ratio = "inconclusive", None
        elif d is not None and ratio > d * (1.0 + cfg.tol):
            field_values = {v: float(value) for v, value in zip(prob.ball, self.best_u)}
            verdict, witness = "violated", AdmissibleConfig(x, field_values, prob.m, prob.alpha, cfg.delta)
        budget = {"samples": cfg.samples, "refine_iters": cfg.refine_iters, "tol": cfg.tol}
        return CDReport(x, prob.m, prob.alpha, d, verdict, witness, ratio, self.evaluations, cfg.seed, prob.lo or None, budget)


def _sample_fields(rng: np.random.Generator, samples: int, n: int, lo: float) -> np.ndarray:
    """``samples`` seeded rows of ``[lo, 1]^n``, the second half on its faces, as a vertex-major array.

    The rows are drawn as the columns of an ``(n, samples)`` array and
    returned as its transpose, so a batch scored in one block is already
    in the layout :meth:`_BallProblem.evaluate` scores in, and every
    per-row compare runs along the long axis.  They are ``random`` draws
    scaled in place, ``u (1 - lo) + lo``, which are the draws of
    ``uniform(lo, 1)`` bit for bit, without its temporaries.  Each face
    row draws a pin probability ``q`` and a low fraction ``r``; a
    coordinate is pinned where its one extra draw falls below ``q``, and
    to ``lo`` where it falls below ``q r``, else to 1.  A pinned draw
    divided by ``q`` is uniform, so a pin is low with probability ``r``.
    The pins are written by arithmetic, not by masked selects, which
    branch on random masks: ``x * 1 + 0 = x`` and ``0 + 1 = 1`` are
    exact.  At ``lo = 0`` the scaling and the low pins are such identities
    on nonnegative values (``u * 1 + 0 = u``, ``x + 0 = x``), so they are
    skipped; otherwise the low pins ``lo * low`` are written into the
    spent buffer of the draws, not into a new half-batch array.
    """
    U = rng.random((n, samples))
    if lo:
        U *= 1.0 - lo
        U += lo
    faces = U[:, samples // 2 :]  # a view: pins are written into U
    draw = rng.random(faces.shape)
    q = rng.random(faces.shape[1])
    pinned = draw < q
    q *= rng.random(len(q))  # q r, with r a transient: the low pins are those below it
    low = draw < q
    del q  # so the pins are written holding at most twice the samples
    faces *= ~pinned
    faces += pinned ^ low  # pinned high, as q r <= q makes every low coordinate pinned
    if lo:
        faces += np.multiply(low, lo, out=draw)
    return U.T


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


def _search_min_score(prob: _BallProblem, cfg: SearchConfig) -> _SearchResult:
    """Minimize score = curvature form / (-G)^2 over admissible ball fields.

    The score is scale invariant, so fields are rows of ``[lo, 1]^n``,
    sampled vertex-major (see :func:`_sample_fields`), so a batch of one
    block is scored without a copy.  The second half of the samples lies
    on faces: each row draws a pin probability ``q`` and a low fraction
    ``r`` the same way, and pins every coordinate with probability ``q``,
    to ``lo`` with probability ``r``, else to 1; one draw per coordinate
    decides both.  So every pin count and every split of the pins between
    ``lo`` and 1 gets about the same budget, up to the corners, such as
    one coordinate at 1 and every other at ``lo``.  The admissible rows
    among the ``starts`` lowest scores (the earlier sample first among
    ties, see :func:`_lowest_first`) then take compass steps of ``±step``
    on every coordinate but the largest (the flat scale direction), each
    moving to its best admissible improving candidate with ``-G > delta``,
    else shrinking its step fourfold.
    Until some start moves, the polls of the coming iterations are known,
    so one ``evaluate`` call scores ``depth`` of them and they are replayed
    in order up to the first move.  No round scores more rows than the
    sample batch held (the round cap), and none polls past the budget or
    below the step floor 1e-12.  The first round polls down to the floor
    or the cap, so a search whose starts never move takes one call; after
    a round with a move ``depth`` is 1, and it doubles after each round
    without one.  The search stops once a start scores ``<= 0``, before the
    first round if a sampled start does: the ratio is ``+inf`` from then on,
    so every finite ``d`` is violated whatever later polls would find; a
    NaN score does not stop it.  ``evaluations`` counts the samples and
    replayed polls, ``len(U) + iters k 2(n - 1)`` with ``iters`` the
    iterations run and ``k`` the refined starts, as one call per iteration
    would, and minimum and field are those of one call
    per iteration too, on balls of up to 75 vertices; on wider balls BLAS
    may sum a row differently in a block of another shape (the last bits
    only, see :meth:`_BallProblem.evaluate`).  Returns the search's one result.
    """
    U = _sample_fields(np.random.default_rng(cfg.seed), cfg.samples, len(prob.ball), prob.lo)
    ok, score, _ = prob.evaluate(U)
    admissible = int(ok.sum())
    if admissible == 0:
        return _SearchResult(prob, cfg, math.inf, None, len(U), 0)
    top = _lowest_first(score, cfg.starts)
    X, S = U[top[ok[top]]], score[top[ok[top]]]
    k, n = X.shape
    step = np.full(k, (1.0 - prob.lo) / 4.0)
    # poll j of start i moves along E[i, 0, j], +e_c then -e_c for every coordinate c but the largest
    axes = [np.delete(np.eye(n), h, axis=0) for h in np.argmax(X, axis=1)]
    E = np.array([np.concatenate([a, -a]) for a in axes])[:, None]
    # a round scores at most as many rows as the sample batch, so wide balls need no more memory
    max_depth = max(1, cfg.samples // max(1, E.size // n))
    iters, depth = 0, max_depth
    # a round's step divisors; a step starts at (1 - lo) / 4 <= 1/4 and only
    # shrinks, and 1/4 / 4**19 < 1e-12, so divisors past the 20th are always cut
    quarters = 4.0 ** np.arange(min(max_depth, cfg.refine_iters, 20))
    # a score <= 0 fixes the ratio at +inf, whatever later polls find
    while iters < cfg.refine_iters and not (S <= 0.0).any() and (largest := step.max()) >= 1e-12:
        # the steps of the next `depth` iterations if no start moves, cut where
        # the budget ends or where the largest step, largest / q, falls below 1e-12
        q = quarters[: min(depth, max_depth, cfg.refine_iters - iters)]
        steps = step[:, None] / q[largest / q >= 1e-12]
        C = X[:, None, None, :] + steps[:, :, None, None] * E
        np.clip(C, prob.lo, 1.0, out=C)
        ok_c, score_c, base_c = (a.reshape(C.shape[:3]) for a in prob.evaluate(C.reshape(-1, n)))
        better = base_c > cfg.delta
        better &= ok_c
        better &= score_c < S[:, None, None]
        moves = np.logical_or.reduce(better, axis=2)
        hit = np.flatnonzero(np.logical_or.reduce(moves, axis=0))
        t = int(hit[0]) if len(hit) else steps.shape[1] - 1
        iters += t + 1
        moved = moves[:, t]
        j = np.argmin(np.where(better[:, t], score_c[:, t], np.inf), axis=1)
        X[moved], S[moved] = C[moved, t, j[moved]], score_c[moved, t, j[moved]]
        step = np.where(moved, steps[:, t], steps[:, t] / 4.0)
        depth = 1 if len(hit) else 2 * depth
    i = int(np.argmin(S))
    return _SearchResult(prob, cfg, float(S[i]), X[i], len(U) + iters * k * 2 * (n - 1), admissible)


def _search(g: Graph, x: str, m: float, alpha: float, search: Optional[SearchConfig]) -> _SearchResult:
    """Run the violation search at ``x`` once, for any number of verdicts."""
    return _search_min_score(_BallProblem(g, x, m, alpha), search or SearchConfig())


def verify_cd_at(
    g: Graph, m: float, alpha: float, d: Optional[float], x: str, search: Optional[SearchConfig] = None
) -> CDReport:
    """Search for a violation of ``CD(0, d)`` at vertex ``x``.

    Samples seeded fields on the two-hop ball, normalized by the largest
    ball value, from ``[lo, 1]^n`` and from its faces with coordinates
    pinned at ``lo`` or 1; filters by admissibility, refines the worst
    candidates by a batched compass search (see :class:`SearchConfig`
    for what the budget counts), and reports ``violated`` with a witness
    when a ratio exceeds ``d (1 + tol)``.  ``samples_used`` is the number
    of fields scored, samples and refinement polls; the refinement stops
    once a field's curvature form is ``<= 0``, where the ratio is ``+inf``
    and every finite ``d`` is violated, so on the chain balls it is often
    the sample budget alone.
    ``holds_empirically`` is a budget-bounded claim, not a proof; the
    report carries seed and budget so it can be falsified.  At ``d = None``
    no verdict is tested: ``d_tested``, ``verdict`` and ``witness`` are None,
    except that ``verdict`` is ``inconclusive`` where no field was admissible.
    """
    if d is not None and not 0.0 < d < math.inf:
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
    if not 0.0 < nu < math.inf:
        raise ValidationError("nu must be finite and positive")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all((z > 0.0) & (z <= 1.0)):
        raise ValidationError("certificate coordinates z must lie in (0, 1]")
    dm1 = len(z)
    zm, zm2 = _pow(z, m), _pow(z, m - 2.0)
    s_m = float(np.sum(zm))
    s_m1 = float(np.sum(_pow(z, m - 1.0)))
    s_m2_cross = float(np.sum(zm2 * (s_m - zm)))
    s_m2 = float(np.sum(np.broadcast_to(zm2, z.shape)))  # D - 1 at m = 2, where zm2 is the scalar 1
    s_2m2 = float(np.sum(_pow(z, 2.0 * m - 2.0)))
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
    form stays negative as ``eps`` shrinks.  Its gap to the limit is about
    ``m eps``, and a relative miss ``delta`` of the profile's round trip
    through ``pressure_inverse`` moves it by up to ``24 m delta`` (first-order
    weights 6, -12, 6), so ``delta > eps / 96`` is refused with a
    :class:`DomainError` naming ``m``.
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
        if np.max(np.abs(pressure(m, u[1:]) / v[1:] - 1.0)) > eps / 96.0:  # rounding could move the gap by 1/4
            raise DomainError(f"the length-5 chain family is unresolved in float64 at m={m:g}, eps={eps:g}")
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
    if m == 2.0:
        return _chain_product_form(m) + (m - 1.0) ** 2 / m
    return _chain_product_form(m)


def _chain_product_form(m: float) -> float:
    """The product form of ``chain_limit_curvature``, continuous in m down to 2."""
    q = m / (m - 1.0)
    scale = (m - 1.0) ** 2 / m
    return scale * 2.0 ** (-1.0 / (m - 1.0)) * (2.0 * 3.0**q - 4.0**q - 2.0**q + 2.0 - 2.0**q)


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
    a = _pow(A, 1.0 / q)
    b = _pow(B, 1.0 / q)
    ex_s = np.where(rng.random(samples) < 0.25, 0.0, rng.exponential(1.0, size=samples))
    ex_n = np.where(rng.random(samples) < 0.25, 0.0, rng.exponential(1.0, size=samples))
    p, p_hi = 1.0 / (m - 1.0), (m + 1.0) / (m - 1.0)
    a_p, b_p = _pow(a, p), _pow(b, p)
    r_s = 2.0 * A - 1.0 - 2.0 * a_p + _pow(a, p_hi) + a_p * B
    r_n = 2.0 * B - 1.0 - 2.0 * b_p + _pow(b, p_hi) + _pow(a, m / (m - 1.0)) * b_p
    S = np.maximum(r_s, 0.0) + ex_s
    N = np.maximum(r_n, 0.0) + ex_n
    lhs = (
        -2.0 * (m - 1.0) * (A + B - 2.0)
        - A * (A + B - 2.0)
        + m * a * (S + 1.0 - 2.0 * A)
        - B * (A + B - 2.0)
        + m * b * (N + 1.0 - 2.0 * B)
    )
    rhs = (m - 1.0) * _pow(2.0 - A - B, 2.0)
    # the constant field gives exact equality, so the result is at most 0
    return min(0.0, float(np.min(lhs - rhs)))


# -- alternate operation names ---------------------------------------------

complete_graph_f = complete_graph_certificate
z_lattice_cd_check = lattice_cd_check
