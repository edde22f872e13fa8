"""Robust toll selection.

Three pricing routes over a shared worst-case model:

* ``two_point_robust_toll`` — quadratic-time scan pairing every grid toll
  with nature's best two-point sample response (mean pinned to the envelope
  floor) and maximizing the revenue the response actually pays;
* ``epsilon_sweep_robust_toll`` — for each usage level eps in {1/T, ..., 1},
  find the largest toll nature cannot push usage below eps, then take the
  best guaranteed revenue eps * r_eps;
* ``deterministic_toll`` — the certainty rule: price at the cheapest
  alternative.

``emit_nature_miqp`` serializes the exact sample-path worst-case model
(binary skip indicators, big-M linearization, one quadratic variance row)
for an external solver; ``solve_nature_miqp_exact`` solves the same model
in-process for small horizons by scanning skip-count classes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import MomentEnvelope, PriceGrid, TollQuote, require_finite
from .nature import (
    TwoPointResponse,
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
    "deterministic_toll",
    "quote_for_result",
]

MIQP_EXACT_MAX_T = 12


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


def two_point_robust_toll(grid: PriceGrid, env: MomentEnvelope, T: int) -> RobustTollResult:
    """Scan every grid toll against nature's best two-point response.

    The response's lower point per skip count is toll-independent, so it is
    precomputed once; per toll, the count minimizing nature's total user cost
    is selected and the revenue actually paid (periods whose cost ties or
    exceeds the toll) becomes BR(r).  The envelope-floor toll is seeded with
    one guaranteed usage period so the argmax is well defined even when
    every other worst case collapses to zero.
    """
    env.validate_against(grid)
    if T < 2:
        raise ValueError("T must be >= 2")
    mu = env.u_lower
    points = grid.points()
    table = first_feasible_lower(points[points < mu], mu, env.kappa_bar, T, grid.Q)
    low_count, lower, upper = two_point_responses(table, mu, T, points)
    usage = np.where(lower >= points, low_count, 0) + np.where(upper >= points, T - low_count, 0)

    floor_idx = grid.index_of(mu)
    usage[floor_idx] = max(usage[floor_idx], 1)
    br = points * usage
    best_idx = int(np.argmax(br))  # first maximum = lowest toll on ties
    return RobustTollResult(
        toll=float(points[best_idx]),
        br_curve=dict(zip(points.tolist(), br.tolist())),
        epsilon=float(usage[best_idx]) / T,
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
    Every toll is solved, including those below where the walk stops.
    """
    env.validate_against(grid)
    if T < 1:
        raise ValueError("T must be >= 1")
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


def optimal_toll_for_realized_costs(
    costs, grid: PriceGrid
) -> tuple[float, float]:
    """Hindsight-optimal toll for a realized cost sample: maximize
    r * #{i : c_i >= r} over the grid (ties to the lowest toll).  Costs are
    clamped into the grid range first."""
    arr = np.asarray(costs, dtype=float)
    if arr.size == 0:
        raise ValueError("empty cost sample")
    arr = np.clip(arr, grid.q, grid.Q)
    arr.sort()
    points = grid.points()
    paying = arr.size - np.searchsorted(arr, points, side="left")
    revenue = points * paying
    idx = int(np.argmax(revenue))
    return float(points[idx]), float(revenue[idx])


def deterministic_toll(alternative_costs) -> float:
    """Certainty pricing for a parallel network: toll = least alternative cost."""
    arr = np.asarray(alternative_costs, dtype=float)
    if arr.size == 0:
        raise ValueError("no alternative costs")
    return float(arr.min())


def quote_for_result(
    result: RobustTollResult, T: int, horizon: int | None = None
) -> TollQuote:
    """Package a pricing result as a quote with an integer usage count."""
    usage = int(round(result.epsilon * T))
    return TollQuote(
        toll=result.toll,
        usage_count=usage,
        worst_case_revenue=result.toll * usage,
        response=None,
        horizon=horizon if horizon is not None else T,
    )


# ---------------------------------------------------------------------------
# exact sample-path model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MiqpModel:
    """Structure of the serialized worst-case sample model.

    ``variables`` lists the continuous columns (the toll column is always
    present, pinned via its bounds when fixed); ``binaries`` the per-period
    skip indicators; ``rows`` the constraint names in emission order.
    """

    variables: tuple[str, ...]
    binaries: tuple[str, ...]
    rows: tuple[str, ...]
    big_M: float
    r_fixed: float | None
    epsilon: float | None

    @property
    def n_continuous(self) -> int:
        return len(self.variables)

    @property
    def n_binary(self) -> int:
        return len(self.binaries)

    @property
    def n_rows(self) -> int:
        return len(self.rows)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def emit_nature_miqp(
    grid: PriceGrid,
    env: MomentEnvelope,
    T: int,
    r: float | None = None,
    epsilon: float | None = None,
    big_M: float | None = None,
) -> tuple[MiqpModel, str]:
    """Serialize the exact worst-case model for an external solver.

    Nature chooses per-period costs c_i in [q, Q] subject to the sample-mean
    band and the one quadratic sample-variance row; binary y_i marks periods
    that skip the toll; z_i collects the revenue shortfall r - c_i on paying
    periods via big-M rows.  Objective: minimize r - (1/T) * sum z_i.  The
    toll column is always emitted and pinned by bounds when ``r`` is given;
    ``epsilon`` adds the optional usage cap on sum y_i.  Output is LP-format
    text with deterministic ordering, suitable for CPLEX/Gurobi/SCIP.
    """
    env.validate_against(grid)
    if T < 1:
        raise ValueError("T must be >= 1")
    if r is not None:
        grid.require_toll(r)
    if epsilon is not None and not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must lie in (0, 1]")
    if big_M is None:
        big_M = grid.Q
    else:
        require_finite(big_M=big_M)
        if big_M < grid.Q:
            raise ValueError("big_M must be >= the grid ceiling")
    M = _fmt(big_M)
    idx = range(1, T + 1)

    lines = [f"\\ worst-case sample model, T={T}, M={M}"]
    obj_terms = " ".join(f"- {_fmt(1.0 / T)} z{i}" for i in idx)
    lines += ["Minimize", f" obj: r {obj_terms}", "Subject To"]

    rows: list[str] = []

    def add_row(name: str, body: str) -> None:
        rows.append(name)
        lines.append(f" {name}: {body}")

    csum = " + ".join(f"c{i}" for i in idx)
    add_row("mean_lo", f"{csum} >= {_fmt(T * env.u_lower)}")
    add_row("mean_hi", f"{csum} <= {_fmt(T * env.u_upper)}")
    quad = " + ".join(f"{_fmt(float(T - 1))} c{i} ^ 2" for i in idx)
    for i in idx:
        for j in range(i + 1, T + 1):
            quad += f" - 2 c{i} * c{j}"
    lin = "".join(f" - {_fmt(env.kappa_bar * (T - 1))} c{i}" for i in idx)
    add_row("variance", f"[ {quad} ]{lin} <= 0")
    for i in idx:
        add_row(f"zlo_{i}", f"z{i} - r + c{i} >= 0")
        add_row(f"yind_{i}", f"r - c{i} + {M} y{i} >= 0")
        add_row(f"zoff_{i}", f"z{i} + {M} y{i} <= {M}")
        add_row(f"zup_{i}", f"z{i} - r + c{i} - u{i} + v{i} <= 0")
        add_row(f"uon_{i}", f"u{i} - {M} y{i} <= 0")
        add_row(f"von_{i}", f"v{i} - {M} y{i} <= 0")
        add_row(f"vcap_{i}", f"v{i} - c{i} <= 0")
        add_row(f"ucap_{i}", f"u{i} - r <= 0")
        add_row(f"ulo_{i}", f"r - u{i} + {M} y{i} <= {M}")
    if epsilon is not None:
        ysum = " + ".join(f"y{i}" for i in idx)
        add_row("usage", f"{ysum} <= {_fmt(epsilon * T)}")

    lines.append("Bounds")
    if r is not None:
        lines.append(f" r = {_fmt(r)}")
    else:
        lines.append(f" {_fmt(grid.q)} <= r <= {_fmt(grid.Q)}")
    for i in idx:
        lines.append(f" {_fmt(grid.q)} <= c{i} <= {_fmt(grid.Q)}")
    lines.append("Binaries")
    for i in idx:
        lines.append(f" y{i}")
    lines.append("End")

    variables = ("r",) + tuple(
        f"{stem}{i}" for i in idx for stem in ("c", "z", "u", "v")
    )
    model = MiqpModel(
        variables=variables,
        binaries=tuple(f"y{i}" for i in idx),
        rows=tuple(rows),
        big_M=float(big_M),
        r_fixed=None if r is None else float(r),
        epsilon=epsilon,
    )
    return model, "\n".join(lines) + "\n"


def _quad_roots(fn, lo: float, hi: float) -> list[float]:
    """Real roots of a quadratic given by evaluation at 0, 1, 2 (exact
    interpolation), filtered to [lo, hi] padded by a small tolerance."""
    g0, g1, g2 = fn(0.0), fn(1.0), fn(2.0)
    a = 0.5 * (g2 - 2.0 * g1 + g0)
    b = g1 - g0 - a
    c = g0
    out: list[float] = []
    if abs(a) < 1e-13:
        if abs(b) > 1e-13:
            out.append(-c / b)
    else:
        disc = b * b - 4.0 * a * c
        if disc >= 0:
            s = math.sqrt(disc)
            out.extend(((-b - s) / (2.0 * a), (-b + s) / (2.0 * a)))
    pad = 1e-7 * max(1.0, abs(lo), abs(hi))
    return [x for x in out if lo - pad <= x <= hi + pad]


def solve_nature_miqp_exact(
    grid: PriceGrid, env: MomentEnvelope, T: int, r: float
) -> tuple[float, TwoPointResponse]:
    """Solve the emitted sample model in-process for small horizons.

    Periods split into a paying class (cost >= toll) and a skipping class
    (cost <= toll carrying shortfall z = r - c); the feasible set is convex
    and permutation-symmetric within each class, so some optimum places each
    class at a single value.  Only the class size matters: for every skip
    count the two-value subproblem is solved by enumerating active-constraint
    pairs (box edges, mean-band edges, the variance boundary and its
    tangency), which are all closed-form quadratics.  Returns the per-period
    objective value and the optimal response.
    """
    env.validate_against(grid)
    grid.require_toll(r)
    if T < 1:
        raise ValueError("T must be >= 1")
    if T > MIQP_EXACT_MAX_T:
        raise ValueError(
            f"in-process exact solve is limited to T <= {MIQP_EXACT_MAX_T}; "
            "emit the model for an external solver instead"
        )
    q, Q = grid.q, grid.Q
    ul, uu = env.u_lower, env.u_upper
    kap = env.kappa_bar
    S_lo, S_hi = T * ul, T * uu
    tol = 1e-7 * max(1.0, Q)

    def spread(a: float, b: float, lam: int) -> float:
        s = lam * a + (T - lam) * b
        return T * (lam * a * a + (T - lam) * b * b) - s * s - kap * (T - 1) * s

    gtol = 1e-8 * max(1.0, T * Q * Q)
    best: tuple[float, int, float, float] | None = None  # (obj, -lam, a, b)

    def offer(lam: int, a: float, b: float) -> None:
        nonlocal best
        obj = r - lam * (r - a) / T
        key = (obj, -lam, a, b)
        if best is None or key < best:
            best = key

    # all periods paying: any single value in the band clipped to [r, Q]
    b0 = max(r, ul)
    if b0 <= min(Q, uu) + 1e-12 and spread(b0, b0, 0) <= gtol:
        offer(0, b0, b0)
    # all periods skipping
    a0 = max(q, ul)
    if a0 <= min(r, uu) + 1e-12 and spread(a0, a0, T) <= gtol:
        offer(T, a0, a0)

    for lam in range(1, T):
        n1, n2 = lam, T - lam
        cands: list[tuple[float, float]] = []
        for a in (q, r):
            for b in (r, Q):
                cands.append((a, b))
            for S in (S_lo, S_hi):
                cands.append((a, (S - n1 * a) / n2))
            cands.extend((a, b) for b in _quad_roots(lambda b: spread(a, b, lam), r, Q))
        for b in (r, Q):
            for S in (S_lo, S_hi):
                cands.append(((S - n2 * b) / n1, b))
            cands.extend((a, b) for a in _quad_roots(lambda a: spread(a, b, lam), q, r))
        for S in (S_lo, S_hi):
            bb = lambda a: (S - n1 * a) / n2
            cands.extend(
                (a, bb(a)) for a in _quad_roots(lambda a: spread(a, bb(a), lam), q, r)
            )
        # variance boundary tangent to the mean direction
        shift = kap * (T - 1) / (2.0 * n1)
        cands.extend(
            (a, a + shift)
            for a in _quad_roots(lambda a: spread(a, a + shift, lam), q, r)
        )

        for a, b in cands:
            if not (math.isfinite(a) and math.isfinite(b)):
                continue
            if not (q - tol <= a <= r + tol and r - tol <= b <= Q + tol):
                continue
            a = min(max(a, q), r)
            b = min(max(b, r), Q)
            s = n1 * a + n2 * b
            if not (S_lo - tol * T <= s <= S_hi + tol * T):
                continue
            if spread(a, b, lam) > gtol:
                continue
            offer(lam, a, b)

    if best is None:
        raise ValueError("no feasible sample path for the envelope at this horizon")
    obj, neg_lam, a, b = best
    lam = -neg_lam
    if lam == 0:
        resp = TwoPointResponse(lower=a, upper=a, low_count=0, mean=a)
    elif lam == T:
        resp = TwoPointResponse(lower=a, upper=a, low_count=0, mean=a)
    else:
        resp = TwoPointResponse(
            lower=a, upper=b, low_count=lam, mean=(lam * a + (T - lam) * b) / T
        )
    return obj, resp
