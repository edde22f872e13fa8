"""Worst-case cost distributions over a moment envelope.

Nature picks the distribution of the alternative cost from
``D = {F : mean in [u_lower, u_upper], Var <= kappa_bar * mean,
support inside [q, Q]}`` to hurt the toll-setter.  Two objectives:

* adversarial (AN): minimize toll revenue ``r * P(c >= r)``;
* user-friendly (UFN): minimize the commuter's expected cost
  ``E[min(c, r)]`` — less conservative, since cheap states can still pay
  the toll.

When several distributions reach the optimum, nature breaks the tie
against the toll-setter (the pessimistic bilevel convention): among those
within ``_TIE_TOL`` of it, the lowest usage ``P(c >= r)``, then the lowest
``E[s^3]`` with ``s`` the grid scaled onto [0, 1].  Both levels are linear,
and the last one has a single minimizer, so every solver path returns the
same distribution.  Where nature chooses among candidates, the rule is
applied to all of them together, one row of candidates per toll
(``_tie_pick``), so the pick does not depend on their order.

On a finite price grid the problem is a small linear program once the mean
is pinned: three rows (total mass, mean, second moment), so optimal basic
solutions carry at most three support points.  ``solve_nature_ufn`` /
``solve_nature_an`` take one grid toll or a 1-D array of them (one solution
per toll).  A point mean band is solved by ``lp``'s dense simplex with the
tie rule as two more lexicographic levels, in one walk over the call's
tolls, each toll warm from the last one's basis.  On an interval band,
where one basis stays optimal nature's value is concave in the mean, so
its minimum lies at a band edge or at a basis change, which is a
singleton or a variance-tight pair.  So an interval band is the point
band at each of its two edges, one walk each, plus one table per call
(``_envelope_table``) of the feasible singletons and pairs.  Under UFN the
upper edge's walk stops at the last toll where Scarf's moment bound (see
``_TIE_TOL``) lets its pick come within ``_TIE_TOL`` of the lower edge's:
past it the upper pick cannot tie, and on an ascending curve that is most
of the high tolls.  The tie rule then picks among the table and the two
edge picks for a block of tolls at once: the block's objective is priced
on every candidate in one array pass, the usage only on each toll's ties,
and the cube only on the ties that remain.  A block holds at most
``_PICK_CELLS`` tolls x candidates, so the pick's working set stays
bounded on fine grids.  Only the objective depends on the toll, so a
call pays the toll-independent half once, and nothing is kept between
calls.  A call whose levels (tolls x points) or pair table would pass
``_MAX_LEVEL_CELLS`` or ``_MAX_PAIRS`` is refused before either is built.
The call then packages all its tolls' picks, as (tolls, 3) support and
mass arrays, in one array pass (``_solutions``): each toll's moments,
usage and objective are ``fsum`` over its own products, so every float
is the one a per-toll packaging would give; the distribution checks,
moment re-check and labels run on all tolls at once.

``solve_nature_two_point`` is the heuristic search over integer-period
two-point responses; its per-count table (``first_feasible_lower``) and
per-toll choice (``two_point_responses``) are array passes that the
BR-curve scan in ``pricing`` reuses for every toll at once.  A table past
``_MAX_LOWER_CELLS`` is refused before it is built, and the choice prices
blocks of tolls, so its working set stays bounded on fine grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    MASS_TOL,
    DiscreteDistribution,
    MomentEnvelope,
    PriceGrid,
    expected_revenue,
    expected_user_cost,
    require_finite,
    require_horizon,
    user_cost_from_terms,
)
from .lp import LpInfeasible, simplex_solve

__all__ = [
    "NatureSolution",
    "TwoPointResponse",
    "solve_nature_ufn",
    "solve_nature_an",
    "solve_nature_two_point",
    "first_feasible_lower",
    "two_point_responses",
    "pick_worst",
]

@dataclass(frozen=True)
class NatureSolution:
    """An optimal worst-case distribution and its diagnostics."""

    distribution: DiscreteDistribution
    objective_value: float
    usage_probability: float
    active_constraints: tuple[str, ...]


@dataclass(frozen=True)
class TwoPointResponse:
    """Two-point sample response: ``low_count`` periods at ``lower``, the
    remaining periods at ``upper``; sample mean pinned to ``mean``.

    ``upper`` may be fractional even on an integer grid. ``low_count == 0``
    is the degenerate point mass at the mean.
    """

    lower: float
    upper: float
    low_count: int
    mean: float

    def __post_init__(self) -> None:
        if self.low_count < 0:
            raise ValueError("low_count must be >= 0")
        if not (self.lower <= self.mean + 1e-9 and self.mean <= self.upper + 1e-9):
            raise ValueError(
                f"need lower <= mean <= upper, got "
                f"({self.lower}, {self.mean}, {self.upper})"
            )

    def objective(self, T: int, r: float) -> float:
        """Total user cost over T periods: low_count*lower + rest*r."""
        return self.low_count * self.lower + (T - self.low_count) * r

    def usage_count(self, T: int, r: float) -> int:
        """Periods in which the toll road is taken (cost >= r, ties pay)."""
        used = 0
        if self.lower >= r:
            used += self.low_count
        if self.upper >= r:
            used += T - self.low_count
        return used

    def as_distribution(self, T: int) -> DiscreteDistribution:
        if self.low_count == 0 or self.lower == self.upper:
            return DiscreteDistribution.point_mass(self.mean)
        return DiscreteDistribution(
            [self.lower, self.upper], [self.low_count / T, 1 - self.low_count / T]
        )


# ---------------------------------------------------------------------------
# objective vectors
# ---------------------------------------------------------------------------


def _objective_vector(points: np.ndarray, r, objective: str) -> np.ndarray:
    """Nature's cost per grid point at toll ``r``; a column of tolls gives
    one row per toll."""
    if objective == "ufn":
        return np.minimum(points, r)
    if objective == "an":
        return np.where(points >= r, r, 0.0)
    raise ValueError(f"unknown objective {objective!r}")


def _levels(points: np.ndarray, tolls, objective: str) -> np.ndarray:
    """Nature's lexicographic objective per toll, shape (tolls, 3, points):
    the cost, the usage ``c >= r``, and the tie-breaking cube ``s^3`` with
    ``s`` the grid scaled onto [0, 1].  The cube cannot stay constant along
    an edge of an optimal face: an edge moves mass among at most four
    points keeping moments 0-2, or among three keeping moments 0-1, and
    the only such move that also keeps the cube is zero (a Vandermonde
    determinant; for three points it carries the factor s1 + s2 + s3,
    positive on [0, 1])."""
    tolls = np.asarray(tolls, dtype=float).reshape(-1, 1)
    s = (points - points[0]) / (points[-1] - points[0])
    levels = np.empty((tolls.size, 3, points.size))
    levels[:, 0] = _objective_vector(points, tolls, objective)
    levels[:, 1] = points >= tolls
    levels[:, 2] = s * s * s
    return levels


_LABELS = [  # a row's labels by its code: bit 0 mean-lower, 1 mean-upper, 2 variance
    tuple(n for b, n in enumerate(("mean-lower", "mean-upper", "variance")) if c >> b & 1)
    for c in range(8)
]


def _active_constraints(mean: np.ndarray, var: np.ndarray, env: MomentEnvelope) -> list:
    """Each row's labels of the envelope bounds its moments reach within
    ``tol = 1e-6 * max(1, |mean|)``, the cap within ``max(tol, 1e-6 * cap)``."""
    tol = 1e-6 * np.maximum(1.0, np.abs(mean))
    cap = env.variance_cap(mean)
    low, high = mean <= env.u_lower + tol, mean >= env.u_upper - tol
    code = low + 2 * high + 4 * (var >= cap - np.maximum(tol, 1e-6 * cap))
    return [_LABELS[c] for c in code.tolist()]


def _moment_tols(scale: float) -> tuple[float, float]:
    """Feasibility slack for the mean and variance checks.

    Variance terms carry squared money units, so a fixed absolute slack
    would reject exactly-solved basic solutions once costs reach the
    hundreds; both tolerances scale with the magnitude of the grid.
    """
    mean_tol = MASS_TOL * max(1.0, scale)
    var_tol = MASS_TOL * max(1.0, scale * scale)
    return mean_tol, var_tol


def _feasible_moments(mean, var, env: MomentEnvelope, scale: float):
    """Whether the moments meet ``env`` within ``_moment_tols(scale)``,
    ``scale`` being the grid's largest magnitude: a bool for floats, a mask
    for arrays."""
    mean_tol, var_tol = _moment_tols(scale)
    return (
        (mean >= env.u_lower - mean_tol)
        & (mean <= env.u_upper + mean_tol)
        & (var <= env.variance_cap(mean) + var_tol)
    )


# ---------------------------------------------------------------------------
# exact solutions
# ---------------------------------------------------------------------------
#
# Basic feasible solutions of the three-row moment LP have <= 3 support
# points.  A point band is that LP with the mean pinned at mu, solved by
# ``lp``'s simplex walk over the call's tolls (``_simplex_minima``).  With
# the mean free in a band, take a stretch of the band on which one basis
# stays optimal: there nature's value is y.b(mu), with right side
# b(mu) = (1, mu, mu^2 + kappa*mu) and the variance row's dual y2 <= 0, so
# it is concave in mu, and its minimum over the stretch lies at a band
# edge or where the basis changes.  At a basis change a mass or the
# variance slack reaches 0, and the solution there is a singleton in the
# band or a variance-tight pair.  So every optimum is found among:
#   * singletons inside the band;
#   * pairs at a mean edge or on the variance boundary;
#   * the point-band LP's optimum at each band edge: one walk per edge.
# The singletons and pairs do not depend on the objective, so
# ``_envelope_table`` builds every feasible one once per call, and each
# block of tolls takes one ``_tie_pick`` over the table's candidates and
# the edges'.
#
# Under UFN the upper edge's pick often cannot tie, by Scarf's (1958)
# bound: every distribution with mean m and variance at most v has
#   min(c, r) = (c + r - |c - r|) / 2,
#   E|c - r| <= sqrt(E (c - r)^2) = sqrt(Var + (r - m)^2)  (Jensen),
#   so E min(c, r) >= (m + r) / 2 - sqrt(v + (r - m)^2) / 2.
# ``_upper_edge_floor`` takes it at the loosest moments an admitted upper
# pick can have; where the lower edge's admitted key is more than
# ``_TIE_TOL`` below that, the upper pick cannot join the ties.

_TIE_TOL = 1e-9
# The largest call solved: a whole curve on a 4,001-point grid.  On an
# interval band the pair table takes most of its time and memory: 2.1 GiB
# traced at 4,001 points, and at 2,001 points 3.5 s and a 553 MiB peak RSS
# (UFN, band [100, 110], kappa 1, grid 0..200, on a 2-core VM).  A larger
# call is refused by name before anything is built.
_MAX_LEVEL_CELLS = 4001 * 4001  # tolls x grid points
_MAX_PAIRS = 4001 * 4000 // 2  # an interval band's pair table
# The two-point table's skip counts x points below the mean: a 50-period
# horizon with a million points below it (grid step 0.0001, mean 100)
# takes 10 s and 1.5 GiB on a 2-core VM, and twice that dies under a 3 GB
# address limit.  A larger table is refused by name before it is built.
_MAX_LOWER_CELLS = 50_000_000
# Nature's picks price blocks of at most this many tolls x candidates (at
# least one toll): an interval band's in two float arrays and one bool
# array, the two-point responses' in one float array.
_PICK_CELLS = 1 << 20
_NO_FIT = "no grid-supported distribution satisfies the moment envelope"


def _tie_pick(objective: np.ndarray, usage, cube) -> np.ndarray | int:
    """Nature's pick in each row of ``objective``, shape (rows,
    candidates): of the candidates within ``_TIE_TOL`` of the row's lowest
    objective, then within ``_TIE_TOL`` of the lowest usage among them, the
    index of the lowest cube, the first on an exact tie.  ``usage`` and
    ``cube`` index as (rows, candidates) arrays do, and are read only on
    the cells ``[rows, cols]`` the rule reaches: usage on each row's ties,
    the cube on the ties that also tie on usage.  Flat key arrays are one
    row, and give one int."""
    if objective.ndim == 1:
        return int(_tie_pick(objective[None], usage[None], cube[None])[0])
    ties = objective <= objective.min(axis=1, keepdims=True) + _TIE_TOL
    rows, cols = np.divmod(np.flatnonzero(ties), objective.shape[1])
    # each row's cells are ordered by column, and every row has one, so
    # each key's lowest per row is a reduceat over the rows' starts
    usage = usage[rows, cols]
    low = usage <= np.minimum.reduceat(usage, _starts(rows))[rows] + _TIE_TOL
    rows, cols = rows[low], cols[low]
    cube = cube[rows, cols]
    lowest = np.flatnonzero(cube == np.minimum.reduceat(cube, _starts(rows))[rows])
    return cols[lowest[_starts(rows[lowest])]]


def _starts(rows: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of ``rows`` starts."""
    return np.flatnonzero(np.diff(rows, prepend=-1))


class _Priced:
    """One level of a block of tolls, ``level`` of shape (tolls, points),
    priced on the candidates ``(idx, x)``: the cell of a toll and a
    candidate is ``x[0] * level[idx[0]] + x[1] * level[idx[1]]``, the float
    the sum of the candidate's two terms gives.  ``[rows, cols]`` prices
    only the cells asked for; ``all`` prices every cell."""

    def __init__(self, level: np.ndarray, idx: np.ndarray, x: np.ndarray):
        self.level, self.idx, self.x = level, idx, x

    def __getitem__(self, cells):
        rows, cols = cells
        level, idx, x = self.level, self.idx, self.x
        return x[0, cols] * level[rows, idx[0, cols]] + x[1, cols] * level[rows, idx[1, cols]]

    def all(self, out: np.ndarray, term: np.ndarray) -> np.ndarray:
        """Every cell, written to ``out`` of shape (tolls, candidates), with
        ``term`` of that shape as scratch.  (``take`` writes straight into
        ``out`` in ``clip`` mode; the default mode buffers.)"""
        np.take(self.level, self.idx[0], axis=1, out=out, mode="clip")
        out *= self.x[0]
        np.take(self.level, self.idx[1], axis=1, out=term, mode="clip")
        term *= self.x[1]
        out += term
        return out


def _envelope_table(points: np.ndarray, env: MomentEnvelope) -> tuple[np.ndarray, np.ndarray]:
    """Every feasible singleton and pair of one envelope as ``(indices,
    masses)``, each of shape (2, candidates): the singletons in the band,
    padded with index 0 at mass 0, then the pairs in (pair, candidate)
    order."""
    n = points.size
    kappa = env.kappa_bar
    scale = float(np.max(np.abs(points)))

    single = np.flatnonzero(_feasible_moments(points, 0.0, env, scale))
    I, J = np.triu_indices(n, k=1)
    ci, cj = points[I], points[J]
    d = cj - ci
    t_mean_lo = (cj - env.u_lower) / d  # mean pinned at u_lower
    t_mean_hi = (cj - env.u_upper) / d  # mean pinned at u_upper
    half = 0.5 * (1.0 + kappa / d)
    disc = half * half - kappa * cj / (d * d)
    sq = np.sqrt(np.where(disc >= 0, disc, np.nan))
    t = np.stack([t_mean_lo, t_mean_hi, half - sq, half + sq], axis=1)  # then variance-tight
    # d > 0, and the mask rejects the NaN of a negative discriminant
    interior = (t > 1e-12) & (t < 1 - 1e-12)
    mu = cj[:, None] - t * d[:, None]
    var = t * (1.0 - t) * (d * d)[:, None]
    pp, qq = np.nonzero(interior & _feasible_moments(mu, var, env, scale))
    tv = t[pp, qq]
    idx = np.hstack([[single, np.zeros_like(single)], [I[pp], J[pp]]])
    x = np.hstack([[np.ones(single.size), np.zeros(single.size)], [tv, 1.0 - tv]])
    return idx, x


def _point_band_masses(c: np.ndarray, sizes: np.ndarray, mu: float, m2: float) -> np.ndarray:
    """The masses of basic supports with mean ``mu`` and, on three points,
    second moment ``m2``: column k of ``c``, shape (3, supports), holds a
    support in its first ``sizes[k]`` entries, and its masses are zero past
    them.  The Vandermonde system's solution in Lagrange form, so the
    masses depend on the support alone and not on the pivots that found
    it."""
    x = np.zeros(c.shape)
    x[0, sizes == 1] = 1.0
    ci, cj, _ = c[:, sizes == 2]
    t = (cj - mu) / (cj - ci)
    x[:2, sizes == 2] = t, 1.0 - t
    ca, cb, cc = c[:, sizes == 3]
    x[:, sizes == 3] = (
        (m2 - (cb + cc) * mu + cb * cc) / ((ca - cb) * (ca - cc)),
        (m2 - (ca + cc) * mu + ca * cc) / ((cb - ca) * (cb - cc)),
        (m2 - (ca + cb) * mu + ca * cb) / ((cc - ca) * (cc - cb)),
    )
    return x


def _simplex_minima(
    grid: PriceGrid, env: MomentEnvelope, levels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nature's pick at each toll's ``levels`` on a point band, all tolls in
    one ``simplex_solve`` walk, in the order given, as arrays ``(keys,
    support, masses, admitted)``: the levels' values at the pick, its
    support and masses, each of shape (tolls, 3) and the last two with
    their atoms first and zero padding after, and whether it is admitted.

    A toll's pick is refused when no distribution has the band's mean (a
    negative mean has none: the grid's floor is at least 0), or when it
    fails the tests the table applies to its own candidates (every mass
    over 1e-12, a mass total within 1e-9 of 1, and moments within
    ``_moment_tols`` of the grid's scale): phase 1 accepts a residual
    looser than those.
    """
    if abs(env.u_upper - env.u_lower) > 1e-12:
        raise ValueError("simplex path requires a point mean band")
    points = grid.points()
    mu, kappa = env.u_lower, env.kappa_bar
    cap = mu * mu + kappa * mu
    scale = float(np.max(np.abs(points)))
    scale1 = 1.0 / max(1.0, scale)
    scale2 = scale1 * scale1
    A = np.vstack([np.ones_like(points), points * scale1, points * points * scale2])
    b = np.array([1.0, mu * scale1, cap * scale2])
    try:
        if mu < 0:  # no distribution on a grid of q >= 0 has this mean
            raise LpInfeasible("negative mean")
        X = simplex_solve(levels, A, b, senses="==<")
    except LpInfeasible:  # no mass at all: every toll's pick is refused
        X = np.zeros((len(levels), points.size))
    # each toll's support as a column of (3, tolls) grid indices, padded
    # with index 0 (a basic solution has at most three positive entries)
    rows, cols = np.nonzero(X > 1e-11)
    sizes = np.bincount(rows, minlength=len(levels))
    idx = np.zeros((3, len(levels)), dtype=np.intp)
    idx[np.arange(rows.size) - (np.cumsum(sizes) - sizes)[rows], rows] = cols
    c = np.where(np.arange(3)[:, None] < sizes, points[idx], 0.0)
    x = _point_band_masses(c, sizes, mu, cap)
    mean = (x * c).sum(axis=0)
    var = (x * (c * c)).sum(axis=0) - mean * mean
    admitted = (
        ((x > 1e-12).sum(axis=0) == sizes)
        & (np.abs(x.sum(axis=0) - 1.0) <= 1e-9)
        & _feasible_moments(mean, var, env, scale)
    )
    keys = (x[..., None] * levels[np.arange(len(levels)), :, idx]).sum(axis=0)
    return keys, c.T, x.T, admitted


def _upper_edge_floor(env: MomentEnvelope, scale: float, tolls) -> np.ndarray:
    """A lower bound, per toll of a UFN call, on the key of any pick that
    ``_simplex_minima`` admits at the upper band edge: Scarf's bound (see
    ``_TIE_TOL``) at the loosest moments such a pick can have, less a float
    margin.  ``scale`` is the grid's largest magnitude.

    An admitted pick's masses x sum to s within 1e-9 of 1, and its float
    moments are within ``_moment_tols(scale) = (mt, vt)`` of the edge.  Read
    as the distribution x / s, its mean is at least u - 2 mt (the 1e-9 of s
    costs at most mt), and its variance at most k (u + 2 mt) + 2 vt (the
    1e-9 of s costs at most k mt + vt); a third mt and vt cover rounding.
    The bound rises with the mean and falls with the variance, so it is
    taken at the low mean and the high variance.  The pick's key is s
    times that distribution's objective: where the bound is positive it is
    at most r <= scale, so the key is at least the bound less mt; and the
    key is above -1e-9 always (every cost is at least q >= 0, every toll
    within 1e-9 of the grid).  The sums' rounding is a few ulps of scale.
    So the bound clipped at 0, less 2 mt, is at most the key."""
    mean_tol, var_tol = _moment_tols(scale)
    mean = env.u_upper - 3 * mean_tol
    var = env.kappa_bar * (env.u_upper + 3 * mean_tol) + 3 * var_tol
    r = np.asarray(tolls, dtype=float)
    bound = 0.5 * (mean + r) - 0.5 * np.sqrt(var + (r - mean) ** 2)
    return np.maximum(bound, 0.0) - 2 * mean_tol


def _minimize_worst_case(
    grid: PriceGrid, env: MomentEnvelope, levels: np.ndarray, tolls, objective: str
) -> tuple[np.ndarray, np.ndarray]:
    """Nature's pick at each toll's ``levels`` as ``(support, masses)``,
    each of shape (tolls, 3) with the atoms first and zero padding after:
    a point band's walk picks, or on an interval band one ``_tie_pick`` per
    block of tolls over the table's candidates, then the lower and the
    upper band edge's admitted walk picks.

    ``levels`` are those of ``tolls`` under ``objective``.  Under UFN a
    toll is cut where the lower edge's pick is admitted and
    ``_upper_edge_floor`` lies more than ``_TIE_TOL`` above its key: the
    upper edge's pick cannot tie there.  The upper edge's walk then covers
    only the leading tolls up to the last one not cut, a prefix of the
    whole walk with the same picks, and the tolls past it take a refused
    pick, which never ties."""
    if abs(env.u_upper - env.u_lower) <= 1e-12:
        _, support, masses, admitted = _simplex_minima(grid, env, levels)
        if not admitted.all():
            raise ValueError(_NO_FIT)
        return support, masses
    points = grid.points()
    n = points.size
    idx, x = _envelope_table(points, env)
    table = x.shape[1]
    lower, upper = (MomentEnvelope(mu, mu, env.kappa_bar) for mu in (env.u_lower, env.u_upper))
    edges = [_simplex_minima(grid, lower, levels)]
    end = len(levels)
    if objective == "ufn":
        keys, _, _, admitted = edges[0]
        floor = _upper_edge_floor(env, float(np.max(np.abs(points))), tolls)
        kept = np.flatnonzero(~admitted | (floor <= keys[:, 0] + _TIE_TOL))
        end = int(kept[-1]) + 1 if kept.size else 0
    keys, (support, masses) = np.full((len(levels), 3), np.inf), np.zeros((2, len(levels), 3))
    admitted = np.zeros(len(levels), dtype=bool)
    if end:
        head = _simplex_minima(grid, upper, levels[:end])
        keys[:end], support[:end], masses[:end], admitted[:end] = head
    edges.append((keys, support, masses, admitted))
    # per toll, the edge picks' keys as two more level columns; a refused
    # one never ties, at an infinite objective
    edge_keys = np.stack([keys for keys, *_ in edges], axis=2)
    edge_keys[:, 0][~np.stack([admitted for *_, admitted in edges], axis=1)] = np.inf
    if not table and np.isinf(edge_keys[:, 0].min(axis=1)).any():
        raise ValueError(_NO_FIT)
    # and the edge picks as two more candidates, each its own column at
    # weight 1, so that 1 * key + 0 * level is the key itself
    idx = np.hstack([idx, [[n, n + 1], [0, 0]]])
    x = np.hstack([x, [[1.0, 1.0], [0.0, 0.0]]])
    picks = np.empty(len(levels), dtype=np.intp)
    block = max(1, _PICK_CELLS // x.shape[1])
    # every block's objective is priced into the same two arrays
    scratch = np.empty((2, min(block, len(levels)), x.shape[1]))
    for start in range(0, len(levels), block):
        rows = slice(start, start + block)
        keys = np.concatenate([levels[rows], edge_keys[rows]], axis=2)
        objective, usage, cube = (_Priced(keys[:, k], idx, x) for k in range(3))
        picks[rows] = _tie_pick(objective.all(*scratch[:, : len(keys)]), usage, cube)
    support, masses = np.zeros((2, len(levels), 3))
    won = picks < table
    support[won, :2] = points[idx[:, picks[won]]].T
    masses[won, :2] = x[:, picks[won]].T
    for e, (_, edge_support, edge_masses, _) in enumerate(edges, start=table):
        won = picks == e
        support[won], masses[won] = edge_support[won], edge_masses[won]
    return np.where(masses > 0.0, support, 0.0), masses


def _solutions(
    grid: PriceGrid,
    env: MomentEnvelope,
    support: np.ndarray,
    masses: np.ndarray,
    tolls: list[float],
    objective: str,
) -> tuple[NatureSolution, ...]:
    """Nature's pick at each toll as a ``NatureSolution``, every toll
    packaged in one array pass: row k of the (tolls, width) arrays
    ``support`` and ``masses`` is toll k's distribution, its atoms first.

    Masses of at most 1e-15 end a row's atoms, and are dropped as
    ``from_pairs`` drops them; the rows are checked and renormalized together
    (``DiscreteDistribution.from_rows``), and each row's moments, usage
    and objective are the ``math.fsum`` of its own products.  All rows'
    moments are re-checked against the envelope (within ``_moment_tols`` of
    the grid's scale, the slack that admitted them) and labelled in one
    pass; the first that fails raises, once the rows before it are priced.
    """
    sizes = (masses > 1e-15).sum(axis=1).tolist()
    if not all(sizes):
        raise ValueError("no positive mass")
    r = np.array(tolls)[:, None]
    dists, mass = DiscreteDistribution.from_rows(support, masses, sizes)
    first = (mass * support).tolist()
    second = (mass * (support * support)).tolist()
    paid = np.where(support >= r, mass, 0.0).tolist()
    if objective == "ufn":
        capped = (mass * np.minimum(support, r)).tolist()
        shortfall = (mass * np.maximum(r - support, 0.0)).tolist()
    mean = np.array([math.fsum(row[:n]) for row, n in zip(first, sizes)])
    var = np.array([math.fsum(row[:n]) for row, n in zip(second, sizes)]) - mean * mean
    feasible = _feasible_moments(mean, var, env, float(np.max(np.abs(grid.points())))).tolist()
    labels = _active_constraints(mean, var, env)
    solutions = []
    for k, (dist, n, toll) in enumerate(zip(dists, sizes, tolls)):
        if not feasible[k]:
            raise AssertionError(
                f"solver produced an infeasible distribution: mean={mean[k]}, var={var[k]}"
            )
        usage = math.fsum(paid[k][:n])
        if objective == "ufn":
            value = user_cost_from_terms(capped[k][:n], shortfall[k][:n], toll)
        else:
            value = toll * usage
        solutions.append(NatureSolution(dist, value, usage, labels[k]))
    return tuple(solutions)


def _solve_nature(
    grid: PriceGrid, env: MomentEnvelope, r, objective: str
) -> NatureSolution | tuple[NatureSolution, ...]:
    grid.require_cost_floor()
    tolls = np.asarray(r, dtype=float)
    if tolls.ndim > 1:
        raise ValueError("tolls must be one toll or a 1-D array of tolls")
    tolls = tolls.reshape(-1).tolist()
    for toll in tolls:
        grid.require_toll(toll)
    env.validate_against(grid)
    if not tolls:
        return ()
    n = grid.n_points
    if len(tolls) * n > _MAX_LEVEL_CELLS:
        raise ValueError(
            f"{len(tolls)} tolls on a grid of {n} points exceed the bound of "
            f"{_MAX_LEVEL_CELLS} tolls x points"
        )
    if abs(env.u_upper - env.u_lower) > 1e-12 and n * (n - 1) // 2 > _MAX_PAIRS:
        raise ValueError(
            f"an interval mean band on a grid of {n} points needs {n * (n - 1) // 2} "
            f"support pairs, over the bound of {_MAX_PAIRS}"
        )
    levels = _levels(grid.points(), tolls, objective)
    support, masses = _minimize_worst_case(grid, env, levels, tolls, objective)
    solutions = _solutions(grid, env, support, masses, tolls, objective)
    return solutions if np.ndim(r) else solutions[0]


def solve_nature_ufn(
    grid: PriceGrid, env: MomentEnvelope, r
) -> NatureSolution | tuple[NatureSolution, ...]:
    """Minimize the commuter's expected cost E[min(c, r)] over the envelope.

    ``r`` is one grid toll, giving one ``NatureSolution``, or a 1-D array
    of grid tolls, giving a tuple with one solution per toll.
    """
    return _solve_nature(grid, env, r, "ufn")


def solve_nature_an(
    grid: PriceGrid, env: MomentEnvelope, r
) -> NatureSolution | tuple[NatureSolution, ...]:
    """Minimize toll revenue r * P(c >= r) over the envelope.

    ``r`` is one grid toll, giving one ``NatureSolution``, or a 1-D array
    of grid tolls, giving a tuple with one solution per toll.
    """
    return _solve_nature(grid, env, r, "an")


# ---------------------------------------------------------------------------
# two-point search
# ---------------------------------------------------------------------------


def first_feasible_lower(
    lows: np.ndarray, mu: float, kappa_bar: float, T: int, Q: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest feasible lower point for every skip count T-1, ..., 1.

    For each count, the first (ascending) value in ``lows`` that the count's
    periods can sit at while the balancing upper point stays at most Q and
    the sample-sum spread fits the variance budget ``kappa_bar * mu * (T-1)``.
    Both checks relax as the lower point rises toward the mean, so the first
    hit is the lowest feasible one; toll-independent, hence one table serves
    a whole BR curve.  Returns ``(counts, lower, upper)``, counts descending,
    holding only the counts that have a feasible lower point.  A table of
    more than ``_MAX_LOWER_CELLS`` counts x points is refused before any of
    it is built.
    """
    lows = np.asarray(lows, dtype=float)
    if (T - 1) * lows.size > _MAX_LOWER_CELLS:
        raise ValueError(
            f"{T - 1} skip counts x {lows.size} points below the mean exceed the bound of "
            f"{_MAX_LOWER_CELLS} counts x points"
        )
    counts = np.arange(T - 1, 0, -1)
    low = counts[:, None]
    high = T - low
    ell = lows[None, :]
    upper = (mu * T - low * ell) / high
    spread = low * (ell - mu) ** 2 + high * (upper - mu) ** 2
    ok = (upper <= Q + 1e-9) & (spread <= kappa_bar * mu * (T - 1) + 1e-9)
    rows = np.flatnonzero(ok.any(axis=1))
    first = ok[rows].argmax(axis=1) if rows.size else rows
    return counts[rows], ell[0, first], upper[rows, first]


def two_point_responses(
    table: tuple[np.ndarray, np.ndarray, np.ndarray], mu: float, T: int, tolls
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nature's best two-point response at every toll in ``tolls``.

    ``table`` is ``first_feasible_lower``'s output.  Per toll, the count
    minimizing ``count*lower + (T-count)*r`` wins; counts run from high to
    low, so ties go to the largest count.  With no feasible count the
    response is the point mass at the mean (count 0, lower = upper = mean).
    Returns ``(low_count, lower, upper)``, one entry per toll.  The tolls
    are priced in blocks of at most ``_PICK_CELLS`` counts x tolls.
    """
    counts, lower, upper = table
    tolls = np.asarray(tolls, dtype=float)
    if counts.size == 0:
        return np.zeros(tolls.size, dtype=int), np.full(tolls.size, mu), np.full(tolls.size, mu)
    fixed, per_toll = counts[:, None] * lower[:, None], (T - counts)[:, None]
    pick = np.empty(tolls.size, dtype=np.intp)
    block = max(1, _PICK_CELLS // counts.size)
    for start in range(0, tolls.size, block):
        cols = slice(start, start + block)
        pick[cols] = (fixed + per_toll * tolls[None, cols]).argmin(axis=0)
    return counts[pick], lower[pick], upper[pick]


def solve_nature_two_point(
    grid: PriceGrid, mu: float, kappa_bar: float, T: int, r: float
) -> TwoPointResponse:
    """Best two-point sample response at toll ``r`` with the mean pinned.

    Per skip count the lowest feasible lower point (``first_feasible_lower``)
    is taken, since the objective ``low_count*lower + (T-low_count)*r`` is
    increasing in it; among counts the minimizer wins, the largest count
    on ties.  With no feasible pair, the degenerate point mass at the mean
    is returned.
    """
    require_horizon(T, 2)
    if not (grid.q - 1e-9 <= mu <= grid.Q + 1e-9):
        raise ValueError(f"mean {mu} outside the support range")
    require_finite(kappa_bar=kappa_bar)
    if kappa_bar < 0:
        raise ValueError("kappa_bar must be >= 0")
    grid.require_toll(r)
    points = grid.points()
    table = first_feasible_lower(points[points < mu], mu, kappa_bar, T, grid.Q)
    (count,), (lower,), (upper,) = two_point_responses(table, mu, T, [r])
    return TwoPointResponse(
        lower=float(lower), upper=float(upper), low_count=int(count), mean=mu
    )


# ---------------------------------------------------------------------------
# restricted choice
# ---------------------------------------------------------------------------


def pick_worst(
    candidates: Sequence[DiscreteDistribution], r: float, objective: str = "ufn"
) -> tuple[int, float]:
    """Nature restricted to an explicit menu: index and value of the
    objective-minimizing distribution (ties break to the lowest index)."""
    require_finite(toll=r)
    if objective not in ("ufn", "an"):
        raise ValueError(f"unknown objective {objective!r}")
    if not candidates:
        raise ValueError("no candidate distributions")
    value_of = expected_user_cost if objective == "ufn" else expected_revenue
    values = [value_of(d, r) for d in candidates]
    idx = min(range(len(values)), key=lambda i: (values[i], i))
    return idx, values[idx]
