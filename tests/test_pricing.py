"""Robust toll selection, hindsight baselines, and the exact sample model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tollkit.core import (
    DiscreteDistribution,
    MomentEnvelope,
    PriceGrid,
    expected_revenue,
    expected_user_cost,
)
from tollkit.nature import solve_nature_an, solve_nature_two_point, solve_nature_ufn
from tollkit.pricing import (
    RobustTollResult,
    deterministic_toll,
    emit_nature_miqp,
    epsilon_sweep_robust_toll,
    optimal_toll_for_realized_costs,
    quote_for_result,
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


def test_quote_round_trip():
    res = two_point_robust_toll(WIDE, WIDE_ENV, T50)
    quote = quote_for_result(res, T50)
    assert quote.toll == 400.0
    assert quote.usage_count == 39
    assert quote.worst_case_revenue == pytest.approx(15600.0)
    assert quote.horizon == T50


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


def test_deterministic_toll():
    assert deterministic_toll([9.0, 7.0, 12.0]) == 7.0
    with pytest.raises(ValueError):
        deterministic_toll([])


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
    expected = {
        350.0: 315.1674118766978,
        400.0: 354.84392399490036,
        450.0: 390.31312251315336,
        500.0: 418.9907412699017,
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


def test_exact_model_horizon_guard():
    with pytest.raises(ValueError, match="limited to T <= 12"):
        solve_nature_miqp_exact(WIDE, WIDE_ENV, 13, 400.0)


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
