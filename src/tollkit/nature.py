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
tolls, each toll warm from the last one's basis.  An interval band
enumerates the supports exactly: one table per call (``_envelope_table``)
holds the feasible singletons, pairs and variance-tight triples, the
triples solved at the two band edges only, and each toll prices it.  Only
the objective depends on the toll, so either way a call pays the
toll-independent half once, and nothing is kept between calls.  The call
then packages all its tolls in one array pass (``_solutions``): the
distributions are checked together, and each toll's moments, usage and
objective are ``fsum`` over its own products, so every float is the one a
per-toll packaging would give.

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
    "brute_force_nature",
    "pick_worst",
]

# Above this many grid points, exact support enumeration of an interval
# mean band is refused.
ENUM_CAP = 256

# Masses below this are numerical artifacts of the small linear solves, not
# genuine support atoms; candidates are cleaned before evaluation.
_ATOM_TOL = 1e-10


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
# exact support enumeration
# ---------------------------------------------------------------------------
#
# Basic feasible solutions of the three-row moment LP have <= 3 support
# points.  With the mean free in a band, every optimum is still found among:
#   * singletons inside the band;
#   * pairs at a mean edge or on the variance boundary;
#   * variance-tight triples at the two band edges: x(mu) solves a 3x3
#     Vandermonde system with right side (1, mu, mu^2 + kappa*mu).  Where a
#     triple's basis is optimal its objective y.b(mu) has y2 <= 0, so it is
#     concave in mu and its minimum over a stretch of the band lies at a
#     band edge or at a root of a mass (parametric right-hand side).
#     A mass root needs no candidate of its own: there the triple is a
#     variance-tight pair, which the pairs already offer.
#
# None of the candidates depends on the objective, so ``_envelope_table``
# builds every feasible one once per call, and ``_enumerate_minima`` prices
# them for each toll, with one offer per array pass.

_TIE_TOL = 1e-9
# triple candidates per array pass, which bounds the memory of a solve
_CHUNK = 1 << 15


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
    """Every feasible support candidate of one envelope, in array passes of
    ``(indices, masses)``, each of shape (support size, candidates): the
    singletons in the band, then the pairs in (pair, candidate) order, then
    the triples in (triple, band edge) order, in passes of whole blocks (a
    block shares its lowest point) of at most ``_CHUNK`` candidates."""
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

    # a wide band on a fine grid has about half a million triple
    # candidates: store them compactly
    mu = np.array([ul, uu])  # a triple's masses are solved at the band edges
    m2 = mu * mu + kappa * mu
    pending: list[tuple[np.ndarray, np.ndarray]] = []
    size = 0
    for a in range(n - 2):
        jj, kk = np.triu_indices(n - a - 1, k=1)
        ib, ic = a + 1 + jj, a + 1 + kk
        ca, cb, cc = float(points[a]), points[ib][:, None], points[ic][:, None]
        # the Vandermonde system's solution in Lagrange form
        xa = (m2 - (cb + cc) * mu + cb * cc) / ((ca - cb) * (ca - cc))
        xb = (m2 - (ca + cc) * mu + ca * cc) / ((cb - ca) * (cb - cc))
        xc = (m2 - (ca + cb) * mu + ca * cb) / ((cc - ca) * (cc - cb))
        pos = (xa > 1e-12) & (xb > 1e-12) & (xc > 1e-12)
        # numerical re-verification of the moments
        ssum = xa + xb + xc
        mean = xa * ca + xb * cb + xc * cc
        msq = xa * ca * ca + xb * (cb * cb) + xc * (cc * cc)
        var = msq - mean * mean
        row, col = np.nonzero(
            pos
            & (np.abs(ssum - 1.0) <= 1e-9)
            & (mean >= ul - mean_tol)
            & (mean <= uu + mean_tol)
            & (var <= kappa * mean + var_tol)
        )
        if row.size == 0:
            continue
        if pending and size + row.size > _CHUNK:
            passes.append(tuple(np.concatenate(part, axis=1) for part in zip(*pending)))
            pending, size = [], 0
        pending.append((
            np.stack([np.full(row.size, a), ib[row], ic[row]]).astype(point_type),
            np.stack([xa[row, col], xb[row, col], xc[row, col]]),
        ))
        size += row.size
    if pending:
        passes.append(tuple(np.concatenate(part, axis=1) for part in zip(*pending)))
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


def _enumerate_minima(
    grid: PriceGrid, env: MomentEnvelope, levels: np.ndarray
) -> list[tuple[float, list[float], list[float]]]:
    """``(objective, support, masses)`` for each toll's ``levels``, all tolls
    priced on one table of the feasible support candidates."""
    points = grid.points()
    passes = _envelope_table(points, env)
    minima = []
    for k, (f, u, g) in enumerate(levels):
        if k == 0:  # the cube level is the same at every toll
            cubes = [(x * g[idx]).sum(axis=0) for idx, x in passes]
        best = _Best()
        for (idx, x), cube in zip(passes, cubes):
            best.offer(*_pass_offer(idx, x, cube, points, f, u))
        if best.objective is None:
            raise ValueError(
                "no grid-supported distribution satisfies the moment envelope"
            )
        minima.append((best.objective, best.support, best.masses))
    return minima


def _point_band_masses(support: list[float], mu: float, m2: float) -> list[float]:
    """The masses of a basic support with mean ``mu`` and, on three
    points, second moment ``m2``, by the formulas ``_envelope_table`` uses,
    so they depend on the support alone and not on the pivots that found
    it."""
    if len(support) == 1:
        return [1.0]
    if len(support) == 2:
        ci, cj = support
        t = (cj - mu) / (cj - ci)
        return [t, 1.0 - t]
    ca, cb, cc = support
    return [
        (m2 - (cb + cc) * mu + cb * cc) / ((ca - cb) * (ca - cc)),
        (m2 - (ca + cc) * mu + ca * cc) / ((cb - ca) * (cb - cc)),
        (m2 - (ca + cb) * mu + ca * cb) / ((cc - ca) * (cc - cb)),
    ]


def _simplex_minima(
    grid: PriceGrid, env: MomentEnvelope, levels: np.ndarray
) -> list[tuple[float, list[float], list[float]]]:
    """``(objective, support, masses)`` for each toll's ``levels``, all tolls
    in one ``simplex_solve`` walk, in the order given."""
    if abs(env.u_upper - env.u_lower) > 1e-12:
        raise ValueError("simplex path requires a point mean band")
    points = grid.points()
    mu = env.u_lower
    cap = mu * mu + env.kappa_bar * mu
    scale1 = 1.0 / max(1.0, float(np.max(np.abs(points))))
    scale2 = scale1 * scale1
    A = np.vstack([np.ones_like(points), points * scale1, points * points * scale2])
    b = np.array([1.0, mu * scale1, cap * scale2])
    try:
        X, objs = simplex_solve(levels, A, b, senses="==<")
    except LpInfeasible as exc:
        raise ValueError(
            "no grid-supported distribution satisfies the moment envelope"
        ) from exc
    minima = []
    for x, obj in zip(X, objs.tolist()):
        support = points[x > 1e-11].tolist()
        minima.append((obj, support, _point_band_masses(support, mu, cap)))
    return minima


def _minimize_worst_case(
    grid: PriceGrid, env: MomentEnvelope, levels: np.ndarray
) -> list[tuple[list[float], list[float]]]:
    """Nature's ``(support, masses)`` for each toll's ``levels``."""
    env.validate_against(grid)
    n = grid.n_points
    if abs(env.u_upper - env.u_lower) <= 1e-12:
        minima = _simplex_minima(grid, env, levels)
    elif n > ENUM_CAP:
        raise ValueError(
            f"grid has {n} points; exact support enumeration is capped at "
            f"{ENUM_CAP}. Coarsen the grid, or pin the mean band to a "
            f"point to use the simplex path."
        )
    else:
        minima = _enumerate_minima(grid, env, levels)
    return [minimum[1:] for minimum in minima]


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
# oracles and restricted choice
# ---------------------------------------------------------------------------


def brute_force_nature(
    grid: PriceGrid,
    env: MomentEnvelope,
    r: float,
    objective: str = "ufn",
    max_points: int = 64,
) -> NatureSolution:
    """Exhaustive reference solver over all supports of size <= 3.

    Solves each support's small linear systems directly (plain loops, no
    vectorization) and returns the global minimum under nature's tie rule.
    Guarded to ``max_points`` grid points; raise the cap explicitly for
    larger checks.
    """
    env.validate_against(grid)
    grid.require_toll(r)
    points = grid.points()
    n = points.size
    if n > max_points:
        raise ValueError(
            f"brute-force oracle limited to {max_points} grid points, got {n}"
        )
    kappa = env.kappa_bar
    ul, uu = env.u_lower, env.u_upper
    scale = float(np.max(np.abs(points))) if n else 1.0
    fvec, uvec, gvec = _levels(points, r, objective)[0]
    best = _Best()

    def consider(support: list[float], masses: list[float]) -> None:
        if any(m < -1e-9 for m in masses):
            return
        # Drop solver-noise atoms *before* judging moments: a 1e-11 mass from
        # an LU solve would otherwise let a strictly infeasible candidate
        # slide through the feasibility slack and shave the objective.
        pairs = [(c, mm) for c, mm in zip(support, masses) if mm > _ATOM_TOL]
        if not pairs:
            return
        total = math.fsum(mm for _, mm in pairs)
        if abs(total - 1.0) > 1e-9 or total <= 0:
            return
        values = [c for c, _ in pairs]
        weights = [mm / total for _, mm in pairs]
        mean = math.fsum(w * c for c, w in zip(values, weights))
        var = math.fsum(w * c * c for c, w in zip(values, weights)) - mean * mean
        if not _feasible_moments(mean, var, env, scale):
            return
        at = [int(round((c - grid.q) / grid.step)) for c in values]
        best.offer(
            *(math.fsum(w * vec[i] for i, w in zip(at, weights)) for vec in (fvec, uvec, gvec)),
            values,
            weights,
        )

    for i in range(n):
        consider([float(points[i])], [1.0])

    for i in range(n - 1):
        for j in range(i + 1, n):
            ci, cj = float(points[i]), float(points[j])
            d = cj - ci
            cands = {0.0, 1.0, (cj - ul) / d, (cj - uu) / d}
            bq = 1.0 + kappa / d
            disc = bq * bq - 4.0 * kappa * cj / (d * d)
            if disc >= 0:
                sq = math.sqrt(disc)
                cands.add(0.5 * (bq - sq))
                cands.add(0.5 * (bq + sq))
            for t in sorted(cands):
                if -1e-9 <= t <= 1 + 1e-9:
                    t = min(max(t, 0.0), 1.0)
                    consider([ci, cj], [t, 1.0 - t])

    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    for i in range(n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                trio = [float(points[i]), float(points[j]), float(points[k])]
                M = np.array(
                    [[1.0, 1.0, 1.0], trio, [c * c for c in trio]]
                )
                w0 = np.linalg.solve(M, e1)
                w1 = np.linalg.solve(M, e2)
                w2 = np.linalg.solve(M, e3)
                # x(mu) = w0 + mu*(w1 + kappa*w2) + mu^2*w2
                lin = w1 + kappa * w2
                mu_cands = [ul, uu]
                a2 = float(np.dot(fvec[[i, j, k]], w2))
                a1 = float(np.dot(fvec[[i, j, k]], lin))
                if abs(a2) > 1e-14:
                    mu_cands.append(-a1 / (2.0 * a2))
                for m in range(3):
                    qa, qb, qc = w2[m], lin[m], w0[m]
                    if abs(qa) > 1e-14:
                        disc = qb * qb - 4.0 * qa * qc
                        if disc >= 0:
                            sq = math.sqrt(disc)
                            mu_cands.append((-qb - sq) / (2.0 * qa))
                            mu_cands.append((-qb + sq) / (2.0 * qa))
                    elif abs(qb) > 1e-14:
                        mu_cands.append(-qc / qb)
                for mu in mu_cands:
                    if not (ul - MASS_TOL * scale <= mu <= uu + MASS_TOL * scale):
                        continue
                    x = w0 + mu * lin + mu * mu * w2
                    consider(trio, x.tolist())

    if best.objective is None:
        raise ValueError(
            "no grid-supported distribution satisfies the moment envelope"
        )
    return _solutions(grid, env, [(best.support, best.masses)], [r], objective)[0]


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
