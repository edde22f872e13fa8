"""Robust toll selection.

Two pricing routes over a shared worst-case model:

* ``two_point_robust_toll`` — a scan of the grid against nature's best
  two-point sample response (mean pinned to the envelope floor),
  maximizing the revenue the response actually pays; a response is picked
  only at the tolls between the lowest and highest point of its
  toll-independent table, since every period pays at or below the lowest
  and none above the highest;
* ``epsilon_sweep_robust_toll`` — for each usage level eps in {1/T, ..., 1},
  find the largest toll nature cannot push usage below eps, then take the
  best guaranteed revenue eps * r_eps.

``solve_nature_miqp_exact`` solves the exact sample-path worst-case model
in-process at any horizon, in closed form per skip count;
``emit_nature_miqp`` (defined in ``miqp``, re-exported here) serializes the
same model for an external solver.  The model relaxes the grid and the
pinned mean, so its per-period value is a lower bound on the two-point
response's per-period user cost.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _lazy_getattr
from .core import MomentEnvelope, PriceGrid, require_horizon
from .nature import (
    TwoPointResponse,
    _require_level_cells,
    _require_lower_cells,
    first_feasible_lower,
    solve_nature_ufn,
    two_point_responses,
)

__all__ = [
    "RobustTollResult",
    "MiqpModel",
    "two_point_robust_toll",
    "epsilon_sweep_robust_toll",
    "emit_nature_miqp",
    "solve_nature_miqp_exact",
    "optimal_toll_for_realized_costs",
    "realized_revenue_table",
]

# The LP-text emitter lives in ``miqp``, which imports no numpy; its names
# resolve here on first use, so ``price`` does not load it.
__getattr__ = _lazy_getattr(globals(), dict.fromkeys(("MiqpModel", "emit_nature_miqp"), "miqp"))


# The longest two-point curve scanned.  The scan holds a few arrays over
# the grid, and the curve a dict of Python floats: about 175 bytes a point
# in all.  A `price` run at this bound (grid 0..200, step 2.5e-5) takes
# 19 s and a 1,393 MiB peak RSS on a 2-core VM, about half of a 3 GB
# address limit; twice the points reach its edge.  A longer curve is
# refused by name before any point is built.
_MAX_CURVE_POINTS = 8_000_001


@dataclass(frozen=True)
class RobustTollResult:
    """Chosen toll plus the worst-case revenue curve behind the choice.

    ``br_curve`` maps each examined grid toll to its worst-case revenue over
    the full horizon; ``epsilon`` is the usage fraction the chosen toll
    sustains in the worst case.
    """

    toll: float
    br_curve: dict[float, float]
    epsilon: float
    method: str

    def __post_init__(self) -> None:
        if not self.br_curve:
            raise ValueError("br_curve must be non-empty")
        values = self.br_curve.values()
        if self.br_curve[self.toll] < max(values) - 1e-9:
            raise ValueError("toll does not maximize the revenue curve")
        if min(values) < -1e-9:
            raise ValueError("worst-case revenues must be non-negative")
        if not (-1e-9 <= self.epsilon <= 1 + 1e-9):
            raise ValueError("epsilon must lie in [0, 1]")


def _two_point_scan(
    grid: PriceGrid, env: MomentEnvelope, T: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Every grid toll against nature's best two-point response.

    The response's lower point per skip count is toll-independent, so it is
    precomputed once.  At or below the lowest of the table's lower and upper
    points and the mean every period pays, whatever the count, so usage is
    T; above the highest of them none pays, so usage is 0.  With no
    feasible count the response is the point mass at the mean.  Only the
    tolls in between select the count minimizing nature's total user cost,
    and the revenue actually paid (periods whose cost ties or exceeds the
    toll) becomes BR(r).  The envelope-floor toll is seeded with one
    guaranteed usage period so the argmax is well defined even when every
    other worst case collapses to zero.  Returns the grid points, the usage
    and BR(r) at each, and the index of the first maximum (the lowest toll
    on ties).
    """
    grid.require_cost_floor()
    env.validate_against(grid)
    require_horizon(T, 2)
    mu = env.u_lower
    n_lows = grid.count_below(mu)
    _require_lower_cells(T, n_lows)  # both before any point is built
    if grid.n_points > _MAX_CURVE_POINTS:
        raise ValueError(
            f"a two-point curve over {grid.n_points} grid points exceeds the bound of "
            f"{_MAX_CURVE_POINTS} points"
        )
    points = grid.points()
    table = first_feasible_lower(points[:n_lows], mu, env.kappa_bar, T, grid.Q)
    _, lower, upper = table
    ends = np.concatenate([lower, upper, [mu]])
    start, stop = np.searchsorted(points, [ends.min(), ends.max()], side="right")
    usage = np.zeros(points.size, dtype=int)
    usage[:start] = T
    tolls = points[start:stop]
    low_count, low, high = two_point_responses(table, mu, T, tolls)
    usage[start:stop] = np.where(low >= tolls, low_count, 0) + np.where(high >= tolls, T - low_count, 0)
    floor_idx = grid.index_of(mu)
    usage[floor_idx] = max(usage[floor_idx], 1)
    br = points * usage
    return points, usage, br, int(np.argmax(br))


def two_point_robust_toll(grid: PriceGrid, env: MomentEnvelope, T: int) -> RobustTollResult:
    """Scan every grid toll against nature's best two-point response
    (:func:`_two_point_scan`) and package the best toll with its curve."""
    points, usage, br, best = _two_point_scan(grid, env, T)
    return RobustTollResult(
        toll=float(points[best]),
        br_curve=dict(zip(points.tolist(), br.tolist())),
        epsilon=float(usage[best]) / T,
        method="two-point",
    )


def epsilon_sweep_robust_toll(
    grid: PriceGrid,
    env: MomentEnvelope,
    T: int,
    nature=solve_nature_ufn,
) -> RobustTollResult:
    """For each usage level eps in {1/T, ..., 1}, walk the grid downward to
    the largest toll whose worst-case response keeps usage probability >= eps,
    and return the toll with the best guaranteed revenue eps * r_eps (ties
    break to the lower toll).  The walk resumes where the previous level
    stopped, since r_eps can only fall as eps rises.

    ``nature`` is called once, as ``nature(grid, env, grid.points())``, and
    must return one ``NatureSolution`` per grid toll, in grid order, as
    ``solve_nature_ufn`` and ``solve_nature_an`` do for an array of tolls.
    Every toll is solved, including those below where the walk stops; a
    grid too fine for that is refused before any point is built.
    """
    env.validate_against(grid)
    require_horizon(T, 1)
    _require_level_cells(grid.n_points, grid.n_points)
    points = grid.points()
    usage = [sol.usage_probability for sol in nature(grid, env, points)]

    curve: dict[float, float] = {}
    pointer = points.size - 1
    best_value = -math.inf
    best_toll = None
    best_eps = 0.0
    for k in range(1, T + 1):
        eps = k / T
        while pointer >= 0 and usage[pointer] < eps - 1e-9:
            pointer -= 1
        if pointer < 0:
            break
        r_eps = float(points[pointer])
        value = eps * r_eps * T
        curve[r_eps] = max(curve.get(r_eps, -math.inf), value)
        if value > best_value + 1e-12 or (
            value >= best_value - 1e-12 and best_toll is not None and r_eps < best_toll
        ):
            best_value = value
            best_toll = r_eps
            best_eps = eps
    if best_toll is None or best_value <= 1e-12:
        warnings.warn(
            "no toll sustains positive worst-case usage revenue; "
            "falling back to the grid floor",
            stacklevel=2,
        )
        toll = grid.q
        curve.setdefault(toll, 0.0)
        if curve[toll] < max(curve.values()):
            # keep the argmax invariant on the degenerate fallback
            curve = {toll: 0.0}
        return RobustTollResult(toll=toll, br_curve=curve, epsilon=0.0, method="epsilon-sweep")
    return RobustTollResult(
        toll=best_toll, br_curve=curve, epsilon=best_eps, method="epsilon-sweep"
    )


def realized_revenue_table(costs, grid: PriceGrid) -> np.ndarray:
    """Revenue r * #{i : c_i >= r} of every grid toll r on each realized
    sample, one sample per row: shape (samples, grid points).  Costs are
    clamped into the grid range first; NaN is rejected.  Counts are exact:
    each row's histogram of how many tolls a cost pays (the grid points at
    or below it), accumulated, gives #{i : c_i >= r}."""
    arr = np.asarray(costs, dtype=float)
    if arr.ndim != 2:
        raise ValueError("realized costs must be a 2-D array, one sample per row")
    samples, n = arr.shape
    if n == 0:
        raise ValueError("empty cost sample")
    if np.isnan(arr).any():
        raise ValueError("realized costs must not be NaN")
    points = grid.points()
    width = points.size + 1
    paid = np.searchsorted(points, np.clip(arr, grid.q, grid.Q), side="right")
    paid += width * np.arange(samples)[:, None]  # one histogram per row
    hist = np.bincount(paid.ravel(), minlength=samples * width).reshape(samples, width)
    return points * (n - np.cumsum(hist, axis=1)[:, :-1])


def optimal_toll_for_realized_costs(
    costs, grid: PriceGrid
) -> tuple[float, float]:
    """Hindsight-optimal toll for a realized cost sample: maximize
    r * #{i : c_i >= r} over the grid (ties to the lowest toll).  Costs are
    clamped into the grid range first."""
    revenue = realized_revenue_table(np.asarray(costs, dtype=float)[None], grid)[0]
    idx = int(np.argmax(revenue))
    return float(grid.points()[idx]), float(revenue[idx])


# ---------------------------------------------------------------------------
# exact sample-path model
# ---------------------------------------------------------------------------


def solve_nature_miqp_exact(
    grid: PriceGrid, env: MomentEnvelope, T: int, r: float
) -> tuple[float, TwoPointResponse]:
    """Solve the emitted sample model in-process, at any horizon.

    Periods split into a paying class (cost >= toll) and a skipping class
    (cost <= toll carrying shortfall z = r - c); the feasible set is convex
    and permutation-symmetric within each class, so some optimum places each
    class at a single value: lam skipping periods at ``a`` in [q, r] and
    n = T - lam paying ones at ``b`` in [r, Q].  With s = lam*a + n*b the
    variance row is lam*n*(b - a)**2 - kappa*(T-1)*s, so every pair of
    active constraints (box edges, mean-band edges, the variance boundary
    and its tangent b - a = kappa*(T-1)/(2*lam)) has closed-form roots, and
    all of them, for every skip count, are scored in one array pass.  Ties
    go to the larger skip count, then the lower a, then the lower b.
    Returns the per-period objective value and the optimal response.
    """
    env.validate_against(grid)
    grid.require_toll(r)
    require_horizon(T, 1)
    q, Q = grid.q, grid.Q
    ul, uu = env.u_lower, env.u_upper
    K = env.kappa_bar * (T - 1)
    tol = 1e-7 * max(1.0, Q)
    gtol = 1e-8 * max(1.0, T * Q * Q)
    offers = []  # (objective, -lam, a, b)
    # all periods paying (lam = 0) or all skipping (lam = T): one value
    b0, a0 = max(r, ul), max(q, ul)
    if b0 <= min(Q, uu) + 1e-12 and -K * T * b0 <= gtol:
        offers.append((r, 0, b0, b0))
    if a0 <= min(r, uu) + 1e-12 and -K * T * a0 <= gtol:
        offers.append((r - T * (r - a0) / T, -T, a0, a0))

    # every 0 < lam < T against four pairs of each family, as columns
    lam = np.arange(1.0, T)[:, None]
    n = T - lam
    ln = lam * n
    a_edge, b_edge = np.repeat([q, r], 2), np.repeat([r, Q], 2)
    S = T * np.array([ul, uu])
    band, band2, pm = np.tile(S, 2), np.repeat(S, 2), np.tile([-1.0, 1.0], 2)
    with np.errstate(invalid="ignore"):  # no real root: NaN, filtered below
        # d = b - a on the variance boundary with a, b or s held fixed
        d_a = (K * n + pm * np.sqrt((K * n) ** 2 + 4 * ln * K * T * a_edge)) / (2 * ln)
        d_b = (pm * np.sqrt((K * lam) ** 2 + 4 * ln * K * T * b_edge) - K * lam) / (2 * ln)
        d_s = pm * np.sqrt(K * band2 / ln)
    a_s = (band2 - n * d_s) / T
    a_t = -n * K / (4 * lam * T)
    a, b = (
        np.concatenate(np.broadcast_arrays(*cols), axis=1)
        for cols in zip(
            (a_edge, np.tile([r, Q], 2)),  # box corners
            (a_edge, (band - lam * a_edge) / n),  # box edge and mean-band edge
            ((band - n * b_edge) / lam, b_edge),
            (a_edge, a_edge + d_a),  # box edge and variance boundary
            (b_edge - d_b, b_edge),
            (a_s, a_s + d_s),  # mean-band edge and variance boundary
            (a_t, a_t + K / (2 * lam)),  # variance boundary's tangent
        )
    )
    ok = (q - tol <= a) & (a <= r + tol) & (r - tol <= b) & (b <= Q + tol)
    a, b = np.clip(a, q, r), np.clip(b, r, Q)
    s = lam * a + n * b
    ok &= (S[0] - tol * T <= s) & (s <= S[1] + tol * T)
    ok &= ln * (b - a) ** 2 - K * s <= gtol
    lam, a, b = np.broadcast_to(lam, ok.shape)[ok], a[ok], b[ok]
    obj = r - lam * (r - a) / T
    if obj.size:
        i = np.lexsort((b, a, -lam, obj))[0]
        offers.append((float(obj[i]), -int(lam[i]), float(a[i]), float(b[i])))

    if not offers:
        raise ValueError("no feasible sample path for the envelope at this horizon")
    obj, neg_lam, a, b = min(offers)
    lam = -neg_lam
    if lam in (0, T):
        resp = TwoPointResponse(lower=a, upper=a, low_count=0, mean=a)
    else:
        resp = TwoPointResponse(
            lower=a, upper=b, low_count=lam, mean=(lam * a + (T - lam) * b) / T
        )
    return obj, resp
