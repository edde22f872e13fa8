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
same distribution.

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
(``_envelope_table``) of the feasible singletons and pairs, and each toll
takes the tie rule's pick among them.  Only the objective depends on the
toll, so a call pays the toll-independent half once, and nothing is kept
between calls.  The call then packages all its tolls in one array pass
(``_solutions``): the distributions are checked together, and each toll's
moments, usage and objective are ``fsum`` over its own products, so every
float is the one a per-toll packaging would give.

``solve_nature_two_point`` is the heuristic search over integer-period
two-point responses; its per-count table (``first_feasible_lower``) and
per-toll choice (``two_point_responses``) are array passes that the
BR-curve scan in ``pricing`` reuses for every toll at once.
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


def _recompute_objective(dist: DiscreteDistribution, r: float, objective: str) -> float:
    if objective == "ufn":
        return expected_user_cost(dist, r)
    return expected_revenue(dist, r)


def _active_constraints(mean: float, var: float, env: MomentEnvelope) -> tuple[str, ...]:
    tol = 1e-6 * max(1.0, abs(mean))
    labels = []
    if mean <= env.u_lower + tol:
        labels.append("mean-lower")
    if mean >= env.u_upper - tol:
        labels.append("mean-upper")
    if var >= env.variance_cap(mean) - max(tol, 1e-6 * env.variance_cap(mean)):
        labels.append("variance")
    return tuple(labels)


def _moment_tols(scale: float) -> tuple[float, float]:
    """Feasibility slack for the mean and variance checks.

    Variance terms carry squared money units, so a fixed absolute slack
    would reject exactly-solved basic solutions once costs reach the
    hundreds; both tolerances scale with the magnitude of the grid.
    """
    mean_tol = MASS_TOL * max(1.0, scale)
    var_tol = MASS_TOL * max(1.0, scale * scale)
    return mean_tol, var_tol


def _feasible_moments(mean: float, var: float, env: MomentEnvelope, scale: float) -> bool:
    """Whether the moments meet ``env`` within ``_moment_tols(scale)``,
    ``scale`` being the grid's largest magnitude."""
    mean_tol, var_tol = _moment_tols(scale)
    if mean < env.u_lower - mean_tol or mean > env.u_upper + mean_tol:
        return False
    return var <= env.variance_cap(mean) + var_tol


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
# ``_envelope_table`` builds every feasible one once per call; each toll
# takes the tie rule's pick among the table's offers and the edges'.

_TIE_TOL = 1e-9
_NO_FIT = "no grid-supported distribution satisfies the moment envelope"


class _Best:
    """Tracks the lowest objective offered and nature's pick under the tie
    rule: among offers within ``_TIE_TOL`` of it, the lowest usage, within
    ``_TIE_TOL`` the lowest cube."""

    def __init__(self) -> None:
        self.objective: float | None = None
        self.usage = self.cube = 0.0
        self.support: list[float] | None = None
        self.masses: list[float] | None = None

    def offer(
        self,
        objective: float,
        usage: float,
        cube: float,
        support: Sequence[float],
        masses: Sequence[float],
    ) -> None:
        if self.objective is not None and objective >= self.objective - _TIE_TOL:
            if objective > self.objective + _TIE_TOL or not (
                usage < self.usage - _TIE_TOL
                or (usage <= self.usage + _TIE_TOL and cube < self.cube)
            ):
                return
            objective = min(objective, self.objective)
        self.objective, self.usage, self.cube = objective, usage, cube
        self.support, self.masses = list(support), list(masses)


def _envelope_table(
    points: np.ndarray, env: MomentEnvelope
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every feasible singleton and pair of one envelope, in array passes of
    ``(indices, masses)``, each of shape (support size, candidates): the
    singletons in the band, then the pairs in (pair, candidate) order."""
    n = points.size
    kappa = env.kappa_bar
    ul, uu = env.u_lower, env.u_upper
    mean_tol, var_tol = _moment_tols(float(np.max(np.abs(points))))
    point_type = np.min_scalar_type(n)
    passes = []

    single = np.flatnonzero((points >= ul - mean_tol) & (points <= uu + mean_tol))
    if single.size:
        passes.append((single[None].astype(point_type), np.ones((1, single.size))))

    I, J = np.triu_indices(n, k=1)
    ci, cj = points[I], points[J]
    d = cj - ci
    t_mean_lo = (cj - ul) / d  # mean pinned at u_lower
    t_mean_hi = (cj - uu) / d  # mean pinned at u_upper
    half = 0.5 * (1.0 + kappa / d)
    disc = half * half - kappa * cj / (d * d)
    sq = np.sqrt(np.where(disc >= 0, disc, np.nan))
    t_var_lo = half - sq
    t_var_hi = half + sq
    t = np.stack([t_mean_lo, t_mean_hi, t_var_lo, t_var_hi], axis=1)
    # d > 0, and the mask rejects the NaN of a negative discriminant
    interior = (t > 1e-12) & (t < 1 - 1e-12)
    mu = cj[:, None] - t * d[:, None]
    var = t * (1.0 - t) * (d * d)[:, None]
    feas = (
        interior
        & (mu >= ul - mean_tol)
        & (mu <= uu + mean_tol)
        & (var <= kappa * mu + var_tol)
    )
    pp, qq = np.nonzero(feas)
    if pp.size:
        tv = t[pp, qq]
        passes.append((np.stack([I[pp], J[pp]]).astype(point_type), np.stack([tv, 1.0 - tv])))
    return passes


def _pass_offer(
    idx: np.ndarray,
    x: np.ndarray,
    cube: np.ndarray,
    points: np.ndarray,
    f: np.ndarray,
    u: np.ndarray,
):
    """One pass's offer at one toll, whose cost and usage per point are
    ``f`` and ``u`` (``cube`` is each candidate's toll-independent E[s^3]):
    the pass's lowest objective and, among the candidates within
    ``_TIE_TOL`` of it, the one the tie rule picks, as
    ``(lowest objective, usage, cube, support, masses)``."""
    obj = (x * f[idx]).sum(axis=0)
    lowest = obj.min()
    ties = np.flatnonzero(obj <= lowest + _TIE_TOL)
    e = int(ties[0])
    if ties.size > 1:  # the usage is scored on the tied candidates only
        usage = (x[:, ties] * u[idx[:, ties]]).sum(axis=0)
        low = ties[usage <= usage.min() + _TIE_TOL]
        e = int(low[cube[low].argmin()])
    at, masses = idx[:, e].tolist(), x[:, e].tolist()
    usage = sum(m * u[i] for i, m in zip(at, masses))
    return float(lowest), float(usage), float(cube[e]), points[at].tolist(), masses


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
) -> list[tuple[float, float, float, list[float], list[float]] | None]:
    """Nature's pick at each toll's ``levels`` on a point band, all tolls in
    one ``simplex_solve`` walk, in the order given, as the offer
    ``(objective, usage, cube, support, masses)`` that ``_Best`` takes.

    A toll offers None when no distribution has the band's mean, or when
    its pick fails the tests the table applies to its own candidates (every
    mass over 1e-12, a mass total within 1e-9 of 1, and moments within
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
        X, _ = simplex_solve(levels, A, b, senses="==<")
    except LpInfeasible:
        return [None] * len(levels)
    # each toll's support as a column of (3, tolls) grid indices, padded
    # with index 0 (a basic solution has at most three positive entries)
    rows, cols = np.nonzero(X > 1e-11)
    sizes = np.bincount(rows, minlength=len(levels))
    idx = np.zeros((3, len(levels)), dtype=np.intp)
    idx[np.arange(rows.size) - (np.cumsum(sizes) - sizes)[rows], rows] = cols
    c = points[idx]
    x = _point_band_masses(c, sizes, mu, cap)
    mean = (x * c).sum(axis=0)
    var = (x * (c * c)).sum(axis=0) - mean * mean
    mean_tol, var_tol = _moment_tols(scale)
    admitted = (
        ((x > 1e-12).sum(axis=0) == sizes)
        & (np.abs(x.sum(axis=0) - 1.0) <= 1e-9)
        & (mean >= env.u_lower - mean_tol)
        & (mean <= env.u_upper + mean_tol)
        & (var <= kappa * mean + var_tol)
    )
    keys = (x[..., None] * levels[np.arange(len(levels)), :, idx]).sum(axis=0)
    return [
        (*key, support[:n], masses[:n]) if ok else None
        for key, support, masses, n, ok in zip(
            keys.tolist(), c.T.tolist(), x.T.tolist(), sizes.tolist(), admitted.tolist()
        )
    ]


def _minimize_worst_case(
    grid: PriceGrid, env: MomentEnvelope, levels: np.ndarray
) -> list[tuple[list[float], list[float]]]:
    """Nature's ``(support, masses)`` for each toll's ``levels``: a point
    band's walk picks, or on an interval band the tie rule's pick among the
    table's singleton and pair passes and the two band edges' walk picks,
    offered in that order."""
    if abs(env.u_upper - env.u_lower) <= 1e-12:
        offers = _simplex_minima(grid, env, levels)
        if None in offers:
            raise ValueError(_NO_FIT)
        return [offer[3:] for offer in offers]
    points = grid.points()
    passes = _envelope_table(points, env)
    # the cube level is the same at every toll
    cubes = [(x * levels[0, 2][idx]).sum(axis=0) for idx, x in passes]
    edges = [
        _simplex_minima(grid, MomentEnvelope(mu, mu, env.kappa_bar), levels)
        for mu in (env.u_lower, env.u_upper)
    ]
    minima = []
    for k, (f, u, _) in enumerate(levels):
        best = _Best()
        for (idx, x), cube in zip(passes, cubes):
            best.offer(*_pass_offer(idx, x, cube, points, f, u))
        for offers in edges:
            if offers[k] is not None:
                best.offer(*offers[k])
        if best.objective is None:
            raise ValueError(_NO_FIT)
        minima.append((best.support, best.masses))
    return minima


def _solutions(
    grid: PriceGrid,
    env: MomentEnvelope,
    minima: Sequence[tuple[Sequence[float], Sequence[float]]],
    tolls: list[float],
    objective: str,
) -> tuple[NatureSolution, ...]:
    """Nature's ``(support, masses)`` at each toll as a ``NatureSolution``,
    every toll packaged in one array pass.

    Masses of at most 1e-15 are dropped, as ``from_pairs`` drops them; the
    rows are checked and renormalized together
    (``DiscreteDistribution.from_rows``), and each row's moments, usage
    and objective are the ``math.fsum`` of its own products.  Each row is
    re-checked against the envelope within ``_moment_tols`` of the grid's
    scale, the slack that admitted it.
    """
    rows = [[(c, m) for c, m in zip(*minimum) if m > 1e-15] for minimum in minima]
    if not rows:
        return ()
    if not all(rows):
        raise ValueError("no positive mass")
    sizes = [len(row) for row in rows]
    pad = [(0.0, 0.0)] * max(sizes)
    table = np.array([row + pad[len(row):] for row in rows])
    support, r = table[..., 0], np.array(tolls)[:, None]
    dists, mass = DiscreteDistribution.from_rows(support, table[..., 1], sizes)
    first = (mass * support).tolist()
    second = (mass * (support * support)).tolist()
    paid = np.where(support >= r, mass, 0.0).tolist()
    if objective == "ufn":
        capped = (mass * np.minimum(support, r)).tolist()
        shortfall = (mass * np.maximum(r - support, 0.0)).tolist()
    scale = float(np.max(np.abs(grid.points())))
    solutions = []
    for k, (dist, n, toll) in enumerate(zip(dists, sizes, tolls)):
        mean = math.fsum(first[k][:n])
        var = math.fsum(second[k][:n]) - mean * mean
        if not _feasible_moments(mean, var, env, scale):
            raise AssertionError(
                f"solver produced an infeasible distribution: mean={mean}, var={var}"
            )
        usage = math.fsum(paid[k][:n])
        if objective == "ufn":
            value = user_cost_from_terms(capped[k][:n], shortfall[k][:n], toll)
        else:
            value = toll * usage
        solutions.append(NatureSolution(dist, value, usage, _active_constraints(mean, var, env)))
    return tuple(solutions)


def _solve_nature(
    grid: PriceGrid, env: MomentEnvelope, r, objective: str
) -> NatureSolution | tuple[NatureSolution, ...]:
    tolls = np.asarray(r, dtype=float)
    if tolls.ndim > 1:
        raise ValueError("tolls must be one toll or a 1-D array of tolls")
    tolls = tolls.reshape(-1).tolist()
    for toll in tolls:
        grid.require_toll(toll)
    env.validate_against(grid)
    if not tolls:
        return ()
    levels = _levels(grid.points(), tolls, objective)
    minima = _minimize_worst_case(grid, env, levels)
    solutions = _solutions(grid, env, minima, tolls, objective)
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
    holding only the counts that have a feasible lower point.
    """
    counts = np.arange(T - 1, 0, -1)
    low = counts[:, None]
    high = T - low
    ell = np.asarray(lows, dtype=float)[None, :]
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
    Returns ``(low_count, lower, upper)``, one entry per toll.
    """
    counts, lower, upper = table
    tolls = np.asarray(tolls, dtype=float)
    if counts.size == 0:
        return np.zeros(tolls.size, dtype=int), np.full(tolls.size, mu), np.full(tolls.size, mu)
    cost = counts[:, None] * lower[:, None] + (T - counts)[:, None] * tolls[None, :]
    pick = cost.argmin(axis=0)
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
    if T < 2:
        raise ValueError("T must be >= 2")
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
    if not candidates:
        raise ValueError("no candidate distributions")
    values = [_recompute_objective(d, r, objective) for d in candidates]
    idx = min(range(len(values)), key=lambda i: (values[i], i))
    return idx, values[idx]
