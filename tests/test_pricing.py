"""Robust toll selection, hindsight baselines, and the exact sample model."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from oracle import two_point_reference
from tollkit.core import (
    DiscreteDistribution,
    MomentEnvelope,
    PriceGrid,
    expected_revenue,
    expected_user_cost,
)
from tollkit.nature import (
    TwoPointResponse,
    first_feasible_lower,
    solve_nature_an,
    solve_nature_two_point,
    solve_nature_ufn,
)
from tollkit.pricing import (
    RobustTollResult,
    emit_nature_miqp,
    epsilon_sweep_robust_toll,
    optimal_toll_for_realized_costs,
    realized_revenue_table,
    solve_nature_miqp_exact,
    two_point_robust_toll,
)

SEED = 20260819

WIDE = PriceGrid(0.0, 1000.0, 10.0)
WIDE_ENV = MomentEnvelope(500.0, 500.0, 60.0)
T50 = 50


# --- robust toll search -------------------------------------------------------


def test_zero_variance_prices_the_band_floor():
    env = MomentEnvelope(500.0, 500.0, 0.0)
    for solver in (two_point_robust_toll, epsilon_sweep_robust_toll):
        res = solver(WIDE, env, T50)
        assert res.toll == 500.0
        assert res.br_curve[500.0] == pytest.approx(25000.0)
        assert res.epsilon == 1.0


def test_two_point_toll_anchor():
    res = two_point_robust_toll(WIDE, WIDE_ENV, T50)
    assert res.toll == 400.0
    assert res.br_curve[400.0] == pytest.approx(15600.0)
    assert res.epsilon == pytest.approx(0.78)
    assert res.method == "two-point"


def test_epsilon_sweep_anchor_and_ordering():
    ufn = epsilon_sweep_robust_toll(WIDE, WIDE_ENV, T50)
    assert ufn.toll == 380.0
    assert ufn.br_curve[380.0] == pytest.approx(14820.0)
    an = epsilon_sweep_robust_toll(WIDE, WIDE_ENV, T50, nature=solve_nature_an)
    assert an.toll == 290.0
    # the adversarial guarantee is the most pessimistic, the sample two-point
    # response the least; the chosen tolls order the same way here
    tp = two_point_robust_toll(WIDE, WIDE_ENV, T50)
    assert an.toll <= ufn.toll <= tp.toll


def lazy_sweep(grid, env, T, nature):
    """The epsilon sweep with one memoized nature solve per toll the walk
    visits, as it ran before nature took every toll in one call."""
    points = grid.points()
    cache = {}

    def usage_at(i):
        if i not in cache:
            cache[i] = nature(grid, env, float(points[i])).usage_probability
        return cache[i]

    curve, pointer = {}, points.size - 1
    best_value, best_toll, best_eps = -math.inf, None, 0.0
    for k in range(1, T + 1):
        eps = k / T
        while pointer >= 0 and usage_at(pointer) < eps - 1e-9:
            pointer -= 1
        if pointer < 0:
            break
        r_eps = float(points[pointer])
        value = eps * r_eps * T
        curve[r_eps] = max(curve.get(r_eps, -math.inf), value)
        if value > best_value + 1e-12 or (
            value >= best_value - 1e-12 and best_toll is not None and r_eps < best_toll
        ):
            best_value, best_toll, best_eps = value, r_eps, eps
    return best_toll, best_eps, list(curve.items()), len(cache)


def test_sweep_matches_lazy_per_toll_walk():
    rng = np.random.default_rng(SEED + 2)
    cases = [
        # kappa = 0 pins nature to the point mass at the mean: usage is 1 up
        # to the mean, so the lazy walk never visits the tolls below it
        (PriceGrid(0.0, 120.0, 1.0), MomentEnvelope(37.0, 37.0, 0.0), solve_nature_ufn),
        (PriceGrid(0.0, 60.0, 2.0), MomentEnvelope(21.0, 27.0, 3.0), solve_nature_an),
    ]
    for nature in (solve_nature_ufn, solve_nature_an) * 3:
        n = int(rng.integers(42, 160))
        grid = PriceGrid(0.0, float(n - 1), 1.0)
        mu = float(rng.choice(grid.points()[1:-1]))
        kappa = float(rng.choice([0.25, 1.0, 4.0, 20.0]))
        cases.append((grid, MomentEnvelope(mu, mu, kappa), nature))
    for _ in range(4):
        grid = PriceGrid(0.0, float(rng.integers(12, 30)), 1.0)
        lo = float(rng.uniform(1.0, grid.Q - 2.0))
        hi = float(rng.uniform(lo, grid.Q - 1.0))
        env = MomentEnvelope(lo, hi, float(rng.choice([0.5, 2.0])))
        nature = solve_nature_an if rng.uniform() < 0.5 else solve_nature_ufn
        cases.append((grid, env, nature))
    visited = []
    for grid, env, nature in cases:
        res = epsilon_sweep_robust_toll(grid, env, T50, nature=nature)
        toll, eps, curve, solves = lazy_sweep(grid, env, T50, nature)
        got = (res.toll, res.epsilon, list(res.br_curve.items()))
        assert got == (toll, eps, curve), (grid, env, nature)
        visited.append(solves / grid.n_points)
    assert visited[0] < 0.75  # the kappa = 0 walk stops early


def test_nature_takes_an_array_of_tolls():
    for grid, env in (
        (PriceGrid(0.0, 80.0, 1.0), MomentEnvelope(30.0, 30.0, 2.0)),  # simplex
        (PriceGrid(0.0, 20.0, 1.0), MomentEnvelope(8.0, 11.0, 1.0)),  # enumeration
    ):
        for solve in (solve_nature_ufn, solve_nature_an):
            tolls = grid.points()[::-3]
            batch = solve(grid, env, tolls)
            assert isinstance(batch, tuple) and len(batch) == tolls.size
            for r, sol in zip(tolls.tolist(), batch):
                one = solve(grid, env, r)
                assert sol.distribution.support.tolist() == one.distribution.support.tolist()
                assert sol.distribution.mass.tolist() == one.distribution.mass.tolist()
                assert (sol.objective_value, sol.usage_probability, sol.active_constraints) == (
                    one.objective_value,
                    one.usage_probability,
                    one.active_constraints,
                )
            assert solve(grid, env, tolls[:0]) == ()
            with pytest.raises(ValueError, match="not on the price grid"):
                solve(grid, env, np.array([tolls[0], 0.5]))
            with pytest.raises(ValueError, match="1-D array"):
                solve(grid, env, tolls[None])


def test_two_point_curve_matches_direct_assembly():
    # Rebuild BR(r) from the (already independently tested) two-point
    # response: revenue = toll * paying periods, floor toll seeded with one
    # guaranteed usage, argmax ties to the lowest toll.  The whole curve,
    # the toll and epsilon must all match.
    rng = np.random.default_rng(SEED)
    cases = [(PriceGrid(0.0, 10.0, 1.0), 4, 5.0, 1.0)]
    for _ in range(12):
        n = int(rng.integers(4, 40))
        mu = float(rng.choice([0.0, float(rng.integers(0, n)), float(rng.uniform(0, n - 1))]))
        kappa = float(rng.choice([0.0, 0.5, 1.0, 4.0, 60.0]))
        cases.append((PriceGrid(0.0, float(n - 1), 1.0), int(rng.integers(2, 80)), mu, kappa))
    for grid, T, mu, kappa in cases:
        res = two_point_robust_toll(grid, MomentEnvelope(mu, mu, kappa), T)
        usage = {}
        for r in grid.points():
            resp = solve_nature_two_point(grid, mu, kappa, T, float(r))
            usage[float(r)] = resp.usage_count(T, float(r))
        floor = grid.snap(mu)
        usage[floor] = max(usage[floor], 1)
        curve = {r: r * u for r, u in usage.items()}
        assert res.br_curve == pytest.approx(curve)
        assert list(res.br_curve) == list(curve)
        best = max(curve.values())
        expect_toll = min(r for r, v in curve.items() if v >= best - 1e-9)
        assert res.toll == expect_toll
        assert res.epsilon == usage[expect_toll] / T


def random_two_point_instance(rng: np.random.Generator):
    """A grid (fractional steps and positive floors too), a horizon and an
    envelope for the two-point search.  The mean is anywhere on the grid,
    on a grid point, within 1e-13 of one, or at the floor; a zero variance
    cap leaves no feasible count unless the mean is within a hair of a grid
    point."""
    n = int(rng.integers(3, 90))
    step = float(rng.choice([0.1, 0.3, 0.5, 1.0, 2.5]))
    q = float(rng.choice([0.0, 0.0, 0.7, 3.0, 100.0]))
    grid = PriceGrid(q, q + step * (n - 1), step)
    T = int(rng.choice([2, 2, 3, 10, 50, rng.integers(2, 80)]))
    kappa = float(rng.choice([0.0, 0.0, 0.25, 1.0, 4.0, 60.0, rng.uniform(0.0, 60.0)]))
    points = grid.points()
    at = float(rng.choice(points))
    mu = [
        float(rng.uniform(grid.q, grid.Q)),
        at,
        min(max(at + float(rng.choice([-1e-13, -2e-14, 2e-14, 1e-13])), grid.q), grid.Q),
        grid.q,
    ][int(rng.choice(4, p=[0.5, 0.2, 0.2, 0.1]))]
    return grid, T, MomentEnvelope(mu, float(rng.uniform(mu, grid.Q)), kappa)


def test_two_point_range_cut_matches_the_full_scan():
    # Only the tolls between the lowest and highest point of the
    # first_feasible_lower table pick a response; the rest pay in every
    # period or in none.  Toll, epsilon and the whole curve (values and key
    # order) equal the full scan's, and the cut skips tolls on both sides.
    rng = np.random.default_rng(SEED + 5)
    point_masses = cut_below = cut_above = 0
    for trial in range(3000):
        grid, T, env = random_two_point_instance(rng)
        res = two_point_robust_toll(grid, env, T)
        toll, epsilon, curve = two_point_reference(grid, env, T)
        context = (trial, grid, T, env)
        assert res.toll == toll and res.epsilon == epsilon, context
        assert res.br_curve == curve and list(res.br_curve) == list(curve), context
        points = grid.points()
        mu = env.u_lower
        counts, lower, upper = first_feasible_lower(points[points < mu], mu, env.kappa_bar, T, grid.Q)
        point_masses += counts.size == 0
        if counts.size:
            cut_below += points[0] <= lower.min()
            cut_above += points[-1] > upper.max()
    assert min(point_masses, cut_below, cut_above) >= 100, (point_masses, cut_below, cut_above)


def test_curve_bounds_and_floor():
    grid = PriceGrid(100.0, 200.0, 10.0)
    env = MomentEnvelope(150.0, 160.0, 1.0)
    res = two_point_robust_toll(grid, env, 10)
    assert res.br_curve[grid.q] == pytest.approx(grid.q * 10)  # everyone pays at the floor
    for r, v in res.br_curve.items():
        assert v <= r * 10 + 1e-9
    assert max(res.br_curve.values()) == pytest.approx(res.br_curve[res.toll])


def test_result_validation():
    with pytest.raises(ValueError, match="does not maximize"):
        RobustTollResult(toll=1.0, br_curve={1.0: 5.0, 2.0: 6.0}, epsilon=0.5, method="x")
    with pytest.raises(ValueError, match="non-empty"):
        RobustTollResult(toll=1.0, br_curve={}, epsilon=0.5, method="x")
    with pytest.raises(ValueError, match="epsilon"):
        RobustTollResult(toll=1.0, br_curve={1.0: 1.0}, epsilon=1.5, method="x")


def test_sweep_warns_when_nothing_sells():
    # A band pinned at the grid floor of 0 cannot guarantee positive revenue.
    grid = PriceGrid(0.0, 10.0, 1.0)
    env = MomentEnvelope(0.0, 0.0, 0.0)
    with pytest.warns(UserWarning, match="falling back"):
        res = epsilon_sweep_robust_toll(grid, env, 5)
    assert res.toll == 0.0
    assert res.epsilon == 0.0


# --- hindsight baselines --------------------------------------------------------


def test_optimal_toll_for_realized_costs():
    assert optimal_toll_for_realized_costs([500.0] * 50, WIDE) == (500.0, 25000.0)
    assert optimal_toll_for_realized_costs([400.0, 700.0], WIDE) == (400.0, 800.0)
    # ties resolve to the lowest toll
    grid = PriceGrid(0.0, 8.0, 1.0)
    assert optimal_toll_for_realized_costs([4.0, 8.0], grid) == (4.0, 8.0)
    # out-of-range costs clamp into the grid first
    assert optimal_toll_for_realized_costs([1500.0], WIDE) == (1000.0, 1000.0)
    with pytest.raises(ValueError, match="empty"):
        optimal_toll_for_realized_costs([], WIDE)


def test_optimal_toll_matches_exhaustive_scan():
    rng = np.random.default_rng(SEED)
    grid = PriceGrid(0.0, 20.0, 1.0)
    for _ in range(50):
        costs = rng.uniform(0.0, 20.0, size=int(rng.integers(1, 12)))
        toll, revenue = optimal_toll_for_realized_costs(costs, grid)
        best = max(
            (float(r) * int(np.sum(costs >= r)), -float(r)) for r in grid.points()
        )
        assert revenue == pytest.approx(best[0])
        assert toll == -best[1]


def sorted_revenue(costs, grid):
    """Reference hindsight revenue of every grid toll on one sample: clamp,
    sort, and count the costs at or above each toll by bisection."""
    ordered = np.sort(np.clip(np.asarray(costs, dtype=float), grid.q, grid.Q))
    points = grid.points()
    return points * (ordered.size - np.searchsorted(ordered, points, side="left"))


@pytest.mark.parametrize(
    "grid",
    [PriceGrid(1.3, 4.3, 0.1), PriceGrid(2.5, 12.5, 0.25), PriceGrid(3.0, 40.0, 1.0)],
    ids=["step-0.1", "step-0.25", "step-1"],
)
def test_revenue_table_matches_sorted_reference(grid):
    rng = np.random.default_rng(SEED)
    points = grid.points()
    span = grid.Q - grid.q
    for n in (1, 2, 7, 30):
        # costs on grid points, between them, and below q and above Q
        on_grid = rng.choice(points, size=(25, n))
        between = rng.uniform(grid.q - 0.3 * span, grid.Q + 0.3 * span, size=(25, n))
        costs = np.where(rng.random((25, n)) < 0.5, on_grid, between)
        costs[0] = grid.q - 1.0
        costs[1] = grid.Q + 1.0
        costs[2, 0] = -np.inf
        costs[3, -1] = np.inf
        table = realized_revenue_table(costs, grid)
        assert table.shape == (25, points.size)
        for row, sample in zip(table, costs):
            want = sorted_revenue(sample, grid)
            assert row.tobytes() == want.tobytes()
            idx = int(np.argmax(want))
            assert optimal_toll_for_realized_costs(sample, grid) == (
                float(points[idx]),
                float(want[idx]),
            )


def test_revenue_table_rejects_nan_and_bad_shapes():
    grid = PriceGrid(0.0, 10.0, 1.0)
    with pytest.raises(ValueError, match="NaN"):
        optimal_toll_for_realized_costs([math.nan, 2.0], grid)
    with pytest.raises(ValueError, match="NaN"):
        realized_revenue_table([[1.0, 2.0], [3.0, math.nan]], grid)
    with pytest.raises(ValueError, match="2-D"):
        realized_revenue_table([1.0, 2.0], grid)
    with pytest.raises(ValueError, match="empty"):
        realized_revenue_table(np.empty((3, 0)), grid)


# --- fixed-distribution revenue structure ----------------------------------------


def test_revenue_peaks_on_support_and_user_cost_is_concave():
    rng = np.random.default_rng(SEED + 1)
    grid = PriceGrid(0.0, 30.0, 1.0)
    pts = grid.points()
    for _ in range(50):
        k = int(rng.integers(1, 6))
        support = np.sort(rng.choice(pts[1:], size=k, replace=False))
        mass = rng.dirichlet(np.ones(k))
        dist = DiscreteDistribution(support.tolist(), mass.tolist())
        revenue = np.array([expected_revenue(dist, float(r)) for r in pts])
        best = revenue.max()
        at_atoms = max(expected_revenue(dist, float(c)) for c in support)
        assert best == pytest.approx(at_atoms, abs=1e-12)
        assert float(pts[int(revenue.argmax())]) in set(support.tolist())
        cost = np.array([expected_user_cost(dist, float(r)) for r in pts])
        second = np.diff(cost, 2)
        assert np.all(second <= 1e-9)  # concave in the toll


# --- exact sample model -----------------------------------------------------------


def test_exact_small_model_anchor_values():
    # Each optimum has the mean on the band and the variance row tight:
    # b - a = sqrt(K*S/(lam*n)) with S = 8*500, K = 60*7, n = 8 - lam, and
    # a = (S - n*(b - a))/8, here evaluated to 50 digits and rounded.
    expected = {
        350.0: 315.16741187661796,
        400.0: 354.8439239979886,
        450.0: 390.3131225124304,
        500.0: 418.9907412699018,
    }
    for r, want in expected.items():
        value, resp = solve_nature_miqp_exact(WIDE, WIDE_ENV, 8, r)
        assert value == pytest.approx(want, abs=1e-9)
        total = resp.low_count * resp.lower + (8 - resp.low_count) * resp.upper
        assert total == pytest.approx(8 * 500.0, abs=1e-6)


def test_exact_model_never_exceeds_grid_restricted_response():
    # The continuous model relaxes the grid restriction, so its per-period
    # value is a lower bound on the two-point grid response.
    rng = np.random.default_rng(SEED + 2)
    for _ in range(25):
        n = int(rng.integers(6, 16))
        grid = PriceGrid(0.0, float(n), 1.0)
        T = int(rng.integers(2, 9))
        mu = float(rng.choice(grid.points()))
        kappa = float(rng.choice([0.5, 1.0, 2.0]))
        env = MomentEnvelope(mu, mu, kappa)
        r = float(rng.choice(grid.points()))
        value, _ = solve_nature_miqp_exact(grid, env, T, r)
        resp = solve_nature_two_point(grid, mu, kappa, T, r)
        assert value <= resp.objective(T, r) / T + 1e-7


def test_exact_model_is_feasible_at_any_horizon():
    q, Q = WIDE.q, WIDE.Q
    for T in (13, 50, 200):
        gtol = 1e-8 * max(1.0, T * Q * Q)
        for r in WIDE.points()[::5]:
            r = float(r)
            value, resp = solve_nature_miqp_exact(WIDE, WIDE_ENV, T, r)
            lam, a, b = resp.low_count, resp.lower, resp.upper
            assert 0 < lam < T
            assert q <= a <= r <= b <= Q
            s = lam * a + (T - lam) * b
            assert WIDE_ENV.u_lower * T - 1e-6 <= s <= WIDE_ENV.u_upper * T + 1e-6
            spread = T * (lam * a * a + (T - lam) * b * b) - s * s
            assert spread - WIDE_ENV.kappa_bar * (T - 1) * s <= gtol
            assert value == pytest.approx(r - lam * (r - a) / T, abs=1e-9 * Q)


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


def reference_miqp_exact(
    grid: PriceGrid, env: MomentEnvelope, T: int, r: float
) -> tuple[float, TwoPointResponse]:
    """The exact sample-model solve as a scalar loop: per skip count, up to
    26 (lower, upper) candidates, each active-constraint quadratic recovered
    by evaluation at 0, 1 and 2 (``_quad_roots``).

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
    if lam in (0, T):
        resp = TwoPointResponse(lower=a, upper=a, low_count=0, mean=a)
    else:
        resp = TwoPointResponse(
            lower=a, upper=b, low_count=lam, mean=(lam * a + (T - lam) * b) / T
        )
    return obj, resp


def test_exact_matches_scalar_reference_randomized():
    # Grids of 4-60 points (steps 0.5, 1 and 5, floors 0 and 3), point and
    # interval bands that sometimes miss the grid, kappa 0-40, T 1-12 and
    # some T 13-50: the same inputs raise, and the same skip count, lower,
    # upper and objective come back.
    rng = np.random.default_rng(SEED + 3)
    raised = 0
    for _ in range(2000):
        step = float(rng.choice([0.5, 1.0, 5.0]))
        q = float(rng.choice([0.0, 3.0]))
        grid = PriceGrid(q, q + step * int(rng.integers(3, 60)), step)
        lo = float(rng.uniform(q - 2 * step, grid.Q + 2 * step))
        hi = lo if rng.random() < 0.5 else lo + float(rng.uniform(0.0, (grid.Q - q) / 3))
        kappa = float(rng.choice([0.0, 0.5, 1.0, 5.0, 40.0, rng.uniform(0.0, 40.0)]))
        T = int(rng.integers(1, 13)) if rng.random() < 0.9 else int(rng.integers(13, 51))
        args = (grid, MomentEnvelope(lo, hi, kappa), T, float(rng.choice(grid.points())))
        try:
            want, ref = reference_miqp_exact(*args)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                solve_nature_miqp_exact(*args)
            raised += 1
            continue
        value, resp = solve_nature_miqp_exact(*args)
        assert resp.low_count == ref.low_count
        assert resp.lower == pytest.approx(ref.lower, abs=1e-6)
        assert resp.upper == pytest.approx(ref.upper, abs=1e-6)
        assert value == pytest.approx(want, rel=0, abs=1e-9 * max(1.0, abs(want)))
    assert 0 < raised < 500


@pytest.mark.parametrize(
    "grid, env, T, r, lam, a, b",
    [
        # skip at the floor, pay at the toll
        (PriceGrid(-1.0, 3.0), MomentEnvelope(-1.0, 3.0, 10.0), 2, 2.0, 1, -1.0, 2.0),
        # skip at the floor, pay on the variance boundary: (b + 1)^2 - 10(b + 1) + 20 = 0
        (PriceGrid(-1.0, 2.0), MomentEnvelope(-1.0, 3.0, 10.0), 2, 0.0, 1, -1.0, 4.0 - 5**0.5),
        # pay at the ceiling, skip on the variance boundary: d^2 + 20d - 60 = 0, a = 2 - d
        (PriceGrid(-1.0, 2.0), MomentEnvelope(0.0, 3.0, 10.0), 3, 0.0, 2, 12.0 - 4 * 10**0.5, 2.0),
        # only the variance row is active: b - a = K/(2*lam), a = -n*K/(4*lam*T)
        (PriceGrid(-1.0, 2.0), MomentEnvelope(0.0, 1.0, 2.0), 2, 0.0, 1, -0.25, 0.75),
    ],
    ids=["corner", "box-edge-variance", "variance-box-edge", "tangent"],
)
def test_exact_negative_floor_optima(grid, env, T, r, lam, a, b):
    # On a floor of 0 or more these candidate families never decide an
    # optimum (the others tie or beat them); below 0 each decides one.
    value, resp = solve_nature_miqp_exact(grid, env, T, r)
    assert (resp.low_count, resp.lower, resp.upper) == (
        lam,
        pytest.approx(a, abs=1e-12),
        pytest.approx(b, abs=1e-12),
    )
    assert value == pytest.approx(r - lam * (r - a) / T, abs=1e-12)


def test_two_point_never_beats_exact_at_long_horizons():
    # The exact continuous model relaxes the grid and the pinned mean, so
    # its per-period value bounds the two-point response's from below.
    rng = np.random.default_rng(SEED + 4)
    for _ in range(300):
        step = float(rng.choice([0.5, 1.0, 5.0]))
        q = float(rng.choice([0.0, 3.0]))
        grid = PriceGrid(q, q + step * int(rng.integers(5, 120)), step)
        points = grid.points()
        lo = float(rng.choice(points[1:-1]))
        hi = lo if rng.random() < 0.5 else float(rng.uniform(lo, grid.Q))
        env = MomentEnvelope(lo, hi, float(rng.uniform(0.5, 40.0)))
        T = int(rng.choice([13, 25, 50, 100]))
        for r in rng.choice(points, size=3):
            r = float(r)
            value, _ = solve_nature_miqp_exact(grid, env, T, r)
            resp = solve_nature_two_point(grid, lo, env.kappa_bar, T, r)
            assert resp.objective(T, r) / T >= value - 1e-9 * max(1.0, grid.Q)


# --- model emission -----------------------------------------------------------------


def test_emit_model_counts():
    m1, _ = emit_nature_miqp(WIDE, WIDE_ENV, 1, r=500.0)
    assert (m1.n_binary, m1.n_continuous, m1.n_rows) == (1, 5, 12)
    m3, _ = emit_nature_miqp(WIDE, WIDE_ENV, 3, r=500.0, epsilon=0.5)
    assert (m3.n_binary, m3.n_continuous, m3.n_rows) == (3, 13, 31)
    m50, _ = emit_nature_miqp(WIDE, WIDE_ENV, 50)
    assert (m50.n_binary, m50.n_continuous, m50.n_rows) == (50, 201, 453)


def test_emit_text_structure_and_determinism():
    _, text = emit_nature_miqp(WIDE, WIDE_ENV, 3, r=500.0, epsilon=0.5)
    assert text.startswith("\\ worst-case sample model")
    for keyword in ("Minimize", "Subject To", "Bounds", "End"):
        assert keyword in text
    assert "usage:" in text  # epsilon adds the usage cap row
    assert "\n r = 500\n" in text  # fixed toll pinned by bounds
    _, again = emit_nature_miqp(WIDE, WIDE_ENV, 3, r=500.0, epsilon=0.5)
    assert again == text
    _, free = emit_nature_miqp(WIDE, WIDE_ENV, 3)
    assert "usage:" not in free


def test_emit_validation():
    with pytest.raises(ValueError, match="epsilon"):
        emit_nature_miqp(WIDE, WIDE_ENV, 3, epsilon=0.0)
    with pytest.raises(ValueError, match="epsilon"):
        emit_nature_miqp(WIDE, WIDE_ENV, 3, epsilon=1.5)
    with pytest.raises(ValueError, match="big_M"):
        emit_nature_miqp(WIDE, WIDE_ENV, 3, big_M=500.0)
    with pytest.raises(ValueError, match="not on the price grid"):
        emit_nature_miqp(WIDE, WIDE_ENV, 3, r=123.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="big_M must be finite"):
            emit_nature_miqp(WIDE, WIDE_ENV, 3, big_M=bad)
        with pytest.raises(ValueError, match="toll must be finite"):
            emit_nature_miqp(WIDE, WIDE_ENV, 3, r=bad)
        with pytest.raises(ValueError, match="toll must be finite"):
            solve_nature_miqp_exact(WIDE, WIDE_ENV, 3, bad)


def test_non_integer_horizon_is_refused_by_name():
    # A float or bool horizon, even a whole-valued one, is refused by every
    # solver that takes T; a numpy integer is a whole number of periods.
    env = MomentEnvelope(500.0, 500.0, 60.0)
    solvers = {
        "two-point search": lambda T: solve_nature_two_point(WIDE, 500.0, 60.0, T, 500.0),
        "two-point toll": lambda T: two_point_robust_toll(WIDE, env, T),
        "sweep": lambda T: epsilon_sweep_robust_toll(WIDE, env, T),
        "exact model": lambda T: solve_nature_miqp_exact(WIDE, env, T, 500.0),
        "emitted model": lambda T: emit_nature_miqp(WIDE, env, T),
    }
    for name, solve in solvers.items():
        for T, shown in ((2.5, "2.5"), (50.0, "50.0"), (True, "True"), (np.float64(3.0), "3.0")):
            with pytest.raises(ValueError) as got:
                solve(T)
            assert str(got.value) == f"T must be an integer, got {shown}", name
        solve(np.int64(3))
        with pytest.raises(ValueError, match=r"^T must be >= "):
            solve(0)


@pytest.mark.parametrize(
    "run",
    [
        lambda grid, env: two_point_robust_toll(grid, env, 50),
        lambda grid, env: epsilon_sweep_robust_toll(grid, env, 50),
        lambda grid, env: solve_nature_ufn(grid, env, 100.0),
        lambda grid, env: solve_nature_an(grid, env, grid.points()),
    ],
    ids=["two-point", "sweep", "ufn", "an"],
)
def test_negative_grid_floor_is_refused_by_name(run):
    # costs are non-negative: the search and nature's model are not built
    # for a grid below 0
    grid, env = PriceGrid(-50.0, 200.0), MomentEnvelope(100.0, 110.0, 1.0)
    with pytest.raises(ValueError, match=r"^q must be >= 0, got -50\.0$"):
        run(grid, env)
