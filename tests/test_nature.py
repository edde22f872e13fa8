"""Worst-case nature solvers: exact enumeration, simplex, brute force, and
the sample two-point search."""

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
from tollkit.nature import (
    _enumerate_minimum,
    _objective_vector,
    _package,
    _simplex_minimum,
    brute_force_nature,
    first_feasible_lower,
    pick_worst,
    solve_nature_an,
    solve_nature_two_point,
    solve_nature_ufn,
)

SEED = 20260819

WIDE = PriceGrid(0.0, 1000.0, 10.0)
WIDE_ENV = MomentEnvelope(500.0, 500.0, 60.0)


def random_instance(rng: np.random.Generator):
    """Small random grid + envelope + on-grid toll, brute-force sized.

    A zero variance cap forces a point mass, so in that case the mean band is
    pinned to a grid value to keep the instance feasible.
    """
    n = int(rng.integers(8, 26))
    grid = PriceGrid(0.0, float(n - 1), 1.0)
    kappa = float(rng.choice([0.0, 0.25, 1.0, 3.0]))
    if kappa == 0.0:
        lo = hi = float(rng.choice(grid.points()))
    else:
        lo = float(rng.uniform(grid.q, grid.Q))
        hi = float(rng.uniform(lo, grid.Q))
    env = MomentEnvelope(lo, hi, kappa)
    r = float(rng.choice(grid.points()))
    return grid, env, r


def solve_on_path(path, grid, env, r, objective):
    """Nature's solution with the LP path pinned (``_enumerate_minimum`` or
    ``_simplex_minimum``), packaged as the public solvers package it."""
    f = _objective_vector(grid.points(), r, objective)
    _, support, masses = path(grid.points(), env, f)
    return _package(support, masses, env, r, objective)


# --- exact solvers vs the brute-force oracle ---------------------------------


def test_exact_matches_brute_force_randomized():
    rng = np.random.default_rng(SEED)
    for trial in range(60):
        grid, env, r = random_instance(rng)
        for objective in ("ufn", "an"):
            got = solve_on_path(_enumerate_minimum, grid, env, r, objective)
            ref = brute_force_nature(grid, env, r, objective=objective)
            assert abs(got.objective_value - ref.objective_value) <= 1e-9, (
                trial,
                objective,
                got.objective_value,
                ref.objective_value,
            )


def test_simplex_matches_enumeration_randomized():
    # The simplex fast path handles the pinned-mean case (the only shape it
    # is auto-selected for); compare it against full enumeration there.
    rng = np.random.default_rng(SEED + 1)
    for trial in range(40):
        n = int(rng.integers(8, 26))
        grid = PriceGrid(0.0, float(n - 1), 1.0)
        mu = float(rng.choice(grid.points()))
        env = MomentEnvelope(mu, mu, float(rng.choice([0.25, 1.0, 3.0])))
        r = float(rng.choice(grid.points()))
        for objective in ("ufn", "an"):
            a = solve_on_path(_enumerate_minimum, grid, env, r, objective)
            b = solve_on_path(_simplex_minimum, grid, env, r, objective)
            assert abs(a.objective_value - b.objective_value) <= 1e-9, (trial, objective)


def test_simplex_rejects_interval_mean_band():
    grid = PriceGrid(0.0, 10.0, 1.0)
    env = MomentEnvelope(4.0, 6.0, 1.0)
    with pytest.raises(ValueError, match="point mean band"):
        solve_on_path(_simplex_minimum, grid, env, 5.0, "ufn")


def test_wide_grid_examples_against_brute_force():
    # 101-point grid, a scale where naive absolute tolerances break down.
    for r, solver, objective in (
        (400.0, solve_nature_ufn, "ufn"),
        (450.0, solve_nature_ufn, "ufn"),
        (400.0, solve_nature_an, "an"),
        (450.0, solve_nature_an, "an"),
    ):
        got = solver(WIDE, WIDE_ENV, r)
        ref = brute_force_nature(WIDE, WIDE_ENV, r, objective=objective, max_points=128)
        assert abs(got.objective_value - ref.objective_value) <= 1e-6, (r, objective)


def test_wide_grid_anchor_values():
    ufn400 = solve_nature_ufn(WIDE, WIDE_ENV, 400.0)
    assert ufn400.objective_value == pytest.approx(350.0, abs=1e-9)
    assert ufn400.distribution.support.tolist() == [200.0, 600.0]
    assert ufn400.distribution.mass.tolist() == pytest.approx([0.25, 0.75], abs=1e-12)

    ufn450 = solve_nature_ufn(WIDE, WIDE_ENV, 450.0)
    assert ufn450.objective_value == pytest.approx(384.864864865, abs=1e-6)

    an400 = solve_nature_an(WIDE, WIDE_ENV, 400.0)
    assert an400.objective_value == pytest.approx(114.979757085, abs=1e-6)


def test_brute_force_guard():
    with pytest.raises(ValueError, match="limited"):
        brute_force_nature(WIDE, WIDE_ENV, 400.0)  # 101 points > default cap


# --- structural properties of worst cases ------------------------------------


def test_worst_case_support_small_and_feasible():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(60):
        grid, env, r = random_instance(rng)
        for solver in (solve_nature_ufn, solve_nature_an):
            sol = solver(grid, env, r)
            dist = sol.distribution
            assert len(dist) <= 3
            mean = dist.mean()
            assert env.u_lower - 1e-7 <= mean <= env.u_upper + 1e-7
            assert dist.variance() <= env.variance_cap(mean) + 1e-6
            assert 0.0 <= sol.usage_probability <= 1.0
            for point in dist.support:
                assert grid.contains(float(point))


def test_objective_value_matches_distribution():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(40):
        grid, env, r = random_instance(rng)
        ufn = solve_nature_ufn(grid, env, r)
        assert abs(expected_user_cost(ufn.distribution, r) - ufn.objective_value) <= 1e-9
        an = solve_nature_an(grid, env, r)
        assert abs(expected_revenue(an.distribution, r) - an.objective_value) <= 1e-9


def test_user_first_revenue_dominates_adversarial():
    # Revenue under the user-first worst case can never undercut the
    # adversarial minimum at the same toll.
    rng = np.random.default_rng(SEED + 4)
    for _ in range(40):
        grid, env, r = random_instance(rng)
        ufn = solve_nature_ufn(grid, env, r)
        an = solve_nature_an(grid, env, r)
        assert expected_revenue(ufn.distribution, r) >= an.objective_value - 1e-9


def test_zero_variance_band_collapses_to_point():
    grid = PriceGrid(0.0, 100.0, 1.0)
    env = MomentEnvelope(60.0, 60.0, 0.0)
    for r in (0.0, 30.0, 60.0, 61.0, 100.0):
        for solver in (solve_nature_ufn, solve_nature_an):
            sol = solver(grid, env, r)
            assert list(sol.distribution.support) == [60.0]
            assert list(sol.distribution.mass) == [1.0]


def test_toll_at_grid_floor_everyone_pays():
    # At r = q every feasible distribution yields the same objective; the
    # enumeration path's canonical tie-break then returns the smallest
    # support, i.e. the point mass at the band floor.
    sol = solve_on_path(_enumerate_minimum, WIDE, WIDE_ENV, 0.0, "ufn")
    assert list(sol.distribution.support) == [500.0]
    assert sol.objective_value == 0.0
    assert sol.usage_probability == 1.0
    # the fast path agrees on the value even if its tie-break differs
    auto = solve_nature_ufn(WIDE, WIDE_ENV, 0.0)
    assert auto.objective_value == 0.0
    assert auto.usage_probability == 1.0


def test_infeasible_envelope_errors():
    # Zero variance cap + mean band without a grid point: nothing qualifies.
    grid = PriceGrid(0.0, 10.0, 1.0)
    env = MomentEnvelope(3.25, 3.75, 0.0)
    with pytest.raises(ValueError, match="no grid-supported distribution"):
        solve_nature_ufn(grid, env, 5.0)


def test_off_grid_toll_rejected():
    with pytest.raises(ValueError, match="not on the price grid"):
        solve_nature_ufn(WIDE, WIDE_ENV, 405.0)


def test_solver_is_deterministic():
    a = solve_nature_ufn(WIDE, WIDE_ENV, 450.0)
    b = solve_nature_ufn(WIDE, WIDE_ENV, 450.0)
    assert a.distribution.support.tolist() == b.distribution.support.tolist()
    assert a.distribution.mass.tolist() == b.distribution.mass.tolist()
    assert a.objective_value == b.objective_value
    assert a.active_constraints == b.active_constraints


# --- restricted menu ----------------------------------------------------------


def test_pick_worst_menu():
    f1 = DiscreteDistribution([89.0, 109.0, 110.0], [0.45, 0.5, 0.05])
    f2 = DiscreteDistribution([75.0, 104.0], [0.135, 0.865])
    # Adversarial nature prefers the distribution slashing revenue hardest:
    # 90 * 0.55 = 49.5 beats 90 * 0.865 = 77.85.
    idx, value = pick_worst([f1, f2], 90.0, objective="an")
    assert idx == 0
    assert value == pytest.approx(49.5, abs=1e-12)
    # User-first nature instead ranks f2 lower: 87.975 < 89.55.
    idx, value = pick_worst([f1, f2], 90.0, objective="ufn")
    assert idx == 1
    assert value == pytest.approx(87.975, abs=1e-12)


def test_pick_worst_tie_breaks_low_index():
    d = DiscreteDistribution.point_mass(50.0)
    idx, _ = pick_worst([d, d, d], 10.0)
    assert idx == 0


def test_pick_worst_empty_errors():
    with pytest.raises(ValueError):
        pick_worst([], 10.0)


# --- two-point sample search ---------------------------------------------------


def exhaustive_two_point(grid, mu, kappa_bar, T, r):
    """Direct scan over every (low_count, lower) pair, the slow way."""
    budget = kappa_bar * mu * (T - 1)
    best = None
    for lam in range(T - 1, 0, -1):
        for ell in grid.points():
            if ell >= mu:
                break
            upper = (mu * T - lam * ell) / (T - lam)
            if upper > grid.Q + 1e-9:
                continue
            spread = lam * (ell - mu) ** 2 + (T - lam) * (upper - mu) ** 2
            if spread > budget + 1e-9:
                continue
            obj = lam * ell + (T - lam) * r
            if best is None or obj < best[0]:
                best = (obj, lam, float(ell), float(upper))
            break  # objective increases with the lower point; first hit wins
    return best


def test_two_point_matches_exhaustive_randomized():
    # Every eighth mean sits on the grid floor, where no lower point exists;
    # variance caps run from 0 to 60 and horizons up to 120 periods.
    rng = np.random.default_rng(SEED + 5)
    for trial in range(120):
        n = int(rng.integers(6, 20))
        grid = PriceGrid(0.0, float(n), 1.0)
        T = int(rng.integers(2, 121))
        mu = grid.q if trial % 8 == 0 else float(rng.uniform(grid.q, grid.Q))
        kappa_bar = float(rng.choice([0.0, 0.5, 1.0, 4.0, 60.0]))
        r = float(rng.choice(grid.points()))
        got = solve_nature_two_point(grid, mu, kappa_bar, T, r)
        want = exhaustive_two_point(grid, mu, kappa_bar, T, r)
        if mu == grid.q or kappa_bar == 0.0:
            assert want is None, trial
        if want is None:
            assert got.low_count == 0, trial
            assert got.lower == got.upper == mu
        else:
            assert got.objective(T, r) == pytest.approx(want[0], abs=1e-9), trial
            assert got.low_count == want[1]
            assert got.lower == want[2]
            assert got.upper == pytest.approx(want[3], abs=1e-9)


def test_two_point_anchor():
    got = solve_nature_two_point(WIDE, 500.0, 60.0, 50, 450.0)
    assert got.low_count == 20
    assert got.lower == 290.0
    assert got.upper == pytest.approx(640.0, abs=1e-9)
    assert got.objective(50, 450.0) == pytest.approx(19300.0, abs=1e-9)


def test_two_point_mean_balance():
    rng = np.random.default_rng(SEED + 6)
    for _ in range(60):
        n = int(rng.integers(6, 20))
        grid = PriceGrid(0.0, float(n), 1.0)
        T = int(rng.integers(2, 12))
        mu = float(rng.uniform(grid.q, grid.Q))
        r = float(rng.choice(grid.points()))
        resp = solve_nature_two_point(grid, mu, 1.0, T, r)
        total = resp.low_count * resp.lower + (T - resp.low_count) * resp.upper
        assert total == pytest.approx(mu * T, abs=1e-6)
        if resp.low_count:
            assert resp.lower < mu <= resp.upper


def test_two_point_zero_budget_degenerates():
    grid = PriceGrid(0.0, 100.0, 1.0)
    resp = solve_nature_two_point(grid, 60.0, 0.0, 10, 50.0)
    assert resp.low_count == 0
    assert resp.lower == resp.upper == 60.0
    assert resp.usage_count(10, 50.0) == 10  # 60 >= 50: all periods pay
    assert resp.usage_count(10, 61.0) == 0
    assert resp.as_distribution(10).support.tolist() == [60.0]


def test_two_point_validation():
    grid = PriceGrid(0.0, 100.0, 1.0)
    with pytest.raises(ValueError, match="T must be"):
        solve_nature_two_point(grid, 50.0, 1.0, 1, 10.0)
    with pytest.raises(ValueError, match="outside the support range"):
        solve_nature_two_point(grid, 150.0, 1.0, 10, 10.0)
    with pytest.raises(ValueError, match="kappa_bar"):
        solve_nature_two_point(grid, 50.0, -1.0, 10, 10.0)
    with pytest.raises(ValueError, match="not on the price grid"):
        solve_nature_two_point(grid, 50.0, 1.0, 10, 10.5)


def test_first_feasible_lower_picks_lowest():
    grid = PriceGrid(0.0, 100.0, 1.0)
    mu, kappa, T = 60.0, 1.0, 10
    lows = grid.points()[grid.points() < mu]
    counts, lower, upper = first_feasible_lower(lows, mu, kappa, T, grid.Q)
    assert 3 in counts.tolist()
    assert counts.tolist() == sorted(counts.tolist(), reverse=True)
    budget = kappa * mu * (T - 1)

    def feasible(lam, cand):
        up = (mu * T - lam * cand) / (T - lam)
        sp = lam * (cand - mu) ** 2 + (T - lam) * (up - mu) ** 2
        return up <= grid.Q + 1e-9 and sp <= budget + 1e-9

    table = {int(lam): (float(ell), float(up)) for lam, ell, up in zip(counts, lower, upper)}
    for lam in range(T - 1, 0, -1):
        if lam not in table:
            # a count left out of the table has no feasible lower point
            assert not any(feasible(lam, cand) for cand in lows), lam
            continue
        ell, up = table[lam]
        assert up == (mu * T - lam * ell) / (T - lam)
        spread = lam * (ell - mu) ** 2 + (T - lam) * (up - mu) ** 2
        assert spread <= budget + 1e-9
        assert up <= grid.Q + 1e-9
        # nothing lower is feasible
        for cand in lows[lows < ell]:
            assert not feasible(lam, cand), (lam, cand)


def test_first_feasible_lower_none_when_budget_zero():
    grid = PriceGrid(0.0, 100.0, 1.0)
    lows = grid.points()[grid.points() < 60.0]
    counts, lower, upper = first_feasible_lower(lows, 60.0, 0.0, 10, grid.Q)
    assert counts.size == lower.size == upper.size == 0
