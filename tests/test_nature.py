"""Worst-case nature solvers: exact enumeration, simplex, brute force, and
the sample two-point search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tollkit import lp, nature
from tollkit.core import (
    DiscreteDistribution,
    MomentEnvelope,
    PriceGrid,
    expected_revenue,
    expected_user_cost,
)
from tollkit.nature import (
    _TIE_TOL,
    _Best,
    _enumerate_minima,
    _moment_tols,
    _objective_vector,
    _package,
    _pass_offer,
    _simplex_minima,
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


def _simplex_minimum(grid, env, f):
    """One objective vector through the stacked simplex path."""
    (minimum,) = _simplex_minima(grid, env, f[None])
    return minimum


def _enumerate_minimum(grid, env, f):
    """One objective vector through the enumeration path."""
    (minimum,) = _enumerate_minima(grid, env, f[None])
    return minimum


def solve_on_path(path, grid, env, r, objective):
    """Nature's solution with the LP path pinned (``_enumerate_minimum`` or
    ``_simplex_minimum``), packaged as the public solvers package it."""
    f = _objective_vector(grid.points(), r, objective)
    _, support, masses = path(grid, env, f)
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


# --- the candidate table against a per-toll enumeration ------------------------


def per_toll_enumeration(points, env, f):
    """Every support candidate rebuilt from scratch for one objective vector,
    the objective's stationary point on each triple included: the
    enumeration as it ran before its toll-independent half was tabulated."""
    n = points.size
    kappa = env.kappa_bar
    ul, uu = env.u_lower, env.u_upper
    mean_tol, var_tol = _moment_tols(float(np.max(np.abs(points))) if n else 1.0)
    best = _Best()

    mask = (points >= ul - mean_tol) & (points <= uu + mean_tol)
    if mask.any():
        idx = np.flatnonzero(mask)
        objs = f[idx]
        m0 = float(objs.min())
        winner = idx[objs <= m0 + _TIE_TOL][0]
        best.offer(float(f[winner]), [float(points[winner])], [1.0])

    if n >= 2:
        I, J = np.triu_indices(n, k=1)
        ci, cj = points[I], points[J]
        fi, fj = f[I], f[J]
        d = cj - ci
        with np.errstate(invalid="ignore", divide="ignore"):
            t_mean_lo = (cj - ul) / d
            t_mean_hi = (cj - uu) / d
            half = 0.5 * (1.0 + kappa / d)
            disc = half * half - kappa * cj / (d * d)
            sq = np.sqrt(np.where(disc >= 0, disc, np.nan))
            t_var_lo = half - sq
            t_var_hi = half + sq
        cand = np.stack([t_mean_lo, t_mean_hi, t_var_lo, t_var_hi], axis=1)
        interior = np.isfinite(cand) & (cand > 1e-12) & (cand < 1 - 1e-12)
        t = np.clip(cand, 0.0, 1.0)
        mu = cj[:, None] - t * d[:, None]
        var = t * (1.0 - t) * (d * d)[:, None]
        feas = (
            interior
            & (mu >= ul - mean_tol)
            & (mu <= uu + mean_tol)
            & (var <= kappa * mu + var_tol)
        )
        if feas.any():
            obj = t * fi[:, None] + (1.0 - t) * fj[:, None]
            masked = np.where(feas, obj, np.inf)
            m0 = float(masked.min())
            pp, qq = np.nonzero(masked <= m0 + _TIE_TOL)
            order = np.lexsort((t[pp, qq], cj[pp], ci[pp]))
            p, q = pp[order[0]], qq[order[0]]
            tv = float(t[p, q])
            best.offer(float(obj[p, q]), [float(ci[p]), float(cj[p])], [tv, 1.0 - tv])

    for a in range(n - 2):
        rest = n - a - 1
        jj, kk = np.triu_indices(rest, k=1)
        cb = points[a + 1 + jj]
        cc = points[a + 1 + kk]
        ca = float(points[a])
        fa = float(f[a])
        fb = f[a + 1 + jj]
        fc = f[a + 1 + kk]
        Da = (ca - cb) * (ca - cc)
        Db = (cb - ca) * (cb - cc)
        Dc = (cc - ca) * (cc - cb)
        sa, pa = cb + cc, cb * cc
        sb, pb = ca + cc, ca * cc
        sc, pc = ca + cb, ca * cb
        A2 = fa / Da + fb / Db + fc / Dc
        A1 = fa * (kappa - sa) / Da + fb * (kappa - sb) / Db + fc * (kappa - sc) / Dc
        cols = [np.full(jj.shape, ul), np.full(jj.shape, uu)]
        with np.errstate(invalid="ignore", divide="ignore"):
            cols.append(np.where(np.abs(A2) > 1e-14, -A1 / (2.0 * A2), np.nan))
            for s_m, p_m in ((sa, pa), (sb, pb), (sc, pc)):
                bcoef = kappa - s_m
                disc = bcoef * bcoef - 4.0 * p_m
                sq = np.sqrt(np.where(disc >= 0, disc, np.nan))
                cols.append(0.5 * (-bcoef - sq))
                cols.append(0.5 * (-bcoef + sq))
        mu = np.stack(cols, axis=1)
        ok = np.isfinite(mu) & (mu >= ul - mean_tol) & (mu <= uu + mean_tol)
        if not ok.any():
            continue
        m2 = mu * mu + kappa * mu
        xa = (m2 + (0.0 - sa[:, None]) * mu + pa[:, None]) / Da[:, None]
        xb = (m2 + (0.0 - sb[:, None]) * mu + pb[:, None]) / Db[:, None]
        xc = (m2 + (0.0 - sc[:, None]) * mu + pc[:, None]) / Dc[:, None]
        pos = (xa > 1e-12) & (xb > 1e-12) & (xc > 1e-12)
        ssum = xa + xb + xc
        mean = xa * ca + xb * cb[:, None] + xc * cc[:, None]
        msq = xa * ca * ca + xb * (cb * cb)[:, None] + xc * (cc * cc)[:, None]
        var = msq - mean * mean
        feas = (
            ok
            & pos
            & (np.abs(ssum - 1.0) <= 1e-9)
            & (mean >= ul - mean_tol)
            & (mean <= uu + mean_tol)
            & (var <= kappa * mean + var_tol)
        )
        if not feas.any():
            continue
        obj = xa * fa + xb * fb[:, None] + xc * fc[:, None]
        masked = np.where(feas, obj, np.inf)
        m0 = float(masked.min())
        if best.objective is not None and m0 > best.objective + _TIE_TOL:
            continue
        pp, qq = np.nonzero(masked <= m0 + _TIE_TOL)
        order = np.lexsort((xb[pp, qq], xa[pp, qq], cc[pp], cb[pp]))
        p, q = pp[order[0]], qq[order[0]]
        best.offer(
            float(obj[p, q]),
            [ca, float(cb[p]), float(cc[p])],
            [float(xa[p, q]), float(xb[p, q]), float(xc[p, q])],
        )

    if best.objective is None:
        raise ValueError("no grid-supported distribution satisfies the moment envelope")
    return best.objective, best.support, best.masses


def outcome(solve, *args):
    """A solver's return value, or its error message."""
    try:
        return solve(*args)
    except ValueError as exc:
        return str(exc)


def random_table_instance(rng: np.random.Generator):
    """A random grid (step and floor vary) with an interval or point band."""
    n = int(rng.integers(8, 31))
    step = float(rng.choice([0.25, 1.0, 4.0, 10.0]))
    q = float(rng.choice([0.0, 3.0, 100.0]))
    grid = PriceGrid(q, q + step * (n - 1), step)
    kappa = float(rng.choice([0.0, 0.25, 1.0, 3.0, 40.0, rng.uniform(0.0, 40.0)]))
    points = grid.points()
    if kappa == 0.0 or rng.random() < 0.3:
        on_grid = rng.random() < 0.7
        lo = hi = float(rng.choice(points)) if on_grid else float(rng.uniform(grid.q, grid.Q))
    else:
        lo = float(rng.uniform(grid.q, grid.Q))
        hi = float(rng.uniform(lo, grid.Q))
    return grid, MomentEnvelope(lo, hi, kappa)


def test_envelope_table_matches_per_toll_enumeration():
    rng = np.random.default_rng(SEED + 7)
    for trial in range(16):
        grid, env = random_table_instance(rng)
        points = grid.points()
        for objective in ("ufn", "an"):
            F = _objective_vector(points, points[:, None], objective)
            got = outcome(_enumerate_minima, grid, env, F)
            if isinstance(got, str):  # an infeasible envelope fails every toll
                got = [got] * len(F)
            want = [outcome(per_toll_enumeration, points, env, f) for f in F]
            assert got == want, (trial, grid, env, objective)


def test_envelope_table_in_small_passes(monkeypatch):
    # Grids of a few dozen points fit one array pass; shrink the pass to 60
    # candidates so that blocks are grouped and split across passes as on a
    # fine grid.
    monkeypatch.setattr(nature, "_CHUNK", 60)
    rng = np.random.default_rng(SEED + 8)
    for trial in range(6):
        grid, env = random_table_instance(rng)
        points = grid.points()
        for r in points[::3].tolist():
            f = _objective_vector(points, r, "ufn")
            got = outcome(_enumerate_minimum, grid, env, f)
            assert got == outcome(per_toll_enumeration, points, env, f), (trial, r)


def test_envelope_table_on_sweep_interval_bands():
    # The bench's sweep-interval traffic: a narrow band on a 51-point grid,
    # every toll of a curve in one call.
    rng = np.random.default_rng(SEED + 9)
    grid = PriceGrid(0.0, 200.0, 4.0)
    points = grid.points()
    for objective in ("ufn", "an"):
        centre, half = rng.uniform(40.0, 160.0), rng.uniform(1.0, 10.0)
        env = MomentEnvelope(centre - half, centre + half, rng.uniform(0.5, 2.0))
        F = _objective_vector(points, points[:, None], objective)
        got = _enumerate_minima(grid, env, F)
        want = [per_toll_enumeration(points, env, f) for f in F]
        assert got == want, (env, objective)


def test_pass_offer_breaks_ties_by_support_then_masses():
    points = np.array([0.0, 1.0, 2.0, 3.0])
    f = np.array([1.0 + 1e-9, 1.0, 1.0, 1.0])  # objective 1 + xa * 1e-9
    # one support, masses in table order A, B, C, and a dearer D: within
    # _TIE_TOL the smallest xa wins, then the smallest xb
    idx = np.array([[0, 0, 0, 0], [1, 1, 1, 1], [2, 2, 2, 2]], dtype=np.uint8)
    x = np.array([[0.3, 0.25, 0.25, 0.1], [0.4, 0.5, 0.45, 0.4], [0.3, 0.25, 0.3, 1.5]])
    objective, support, masses = _pass_offer(idx, x, points, f)
    assert (support, masses) == ([0.0, 1.0, 2.0], [0.25, 0.45, 0.3])
    assert objective == pytest.approx(1.0, abs=_TIE_TOL)
    # equal masses on supports that differ only in the middle point: the
    # smaller middle point wins, whatever the table order
    idx = np.array([[0, 0], [2, 1], [3, 3]], dtype=np.uint8)
    x = np.array([[0.2, 0.2], [0.5, 0.5], [0.3, 0.3]])
    for order in ([0, 1], [1, 0]):
        _, support, _ = _pass_offer(idx[:, order], x[:, order], points, np.ones(4))
        assert support == [0.0, 1.0, 3.0], order


def test_envelope_table_interleaved_keys():
    # Alternate two envelopes on one grid, and one envelope on two grids,
    # so that a stale or mis-keyed table would answer for the wrong input.
    fine = PriceGrid(0.0, 24.0, 1.0)
    coarse = PriceGrid(0.0, 24.0, 2.0)
    wide = MomentEnvelope(8.0, 15.0, 3.0)
    narrow = MomentEnvelope(11.0, 12.0, 1.0)
    for r in coarse.points().tolist():
        for grid, env in ((fine, wide), (fine, narrow), (coarse, wide), (fine, wide)):
            points = grid.points()
            f = _objective_vector(points, r, "ufn")
            assert _enumerate_minimum(grid, env, f) == per_toll_enumeration(points, env, f), (
                grid,
                env,
                r,
            )


def test_simplex_solves_b_changed_in_place():
    grid = PriceGrid(0.0, 60.0, 1.0)
    points = grid.points()
    A = np.vstack([np.ones_like(points), points / 60.0, (points / 60.0) ** 2])
    c = np.minimum(points, 25.0)

    def rhs(mu, kappa):
        return np.array([1.0, mu / 60.0, (mu * mu + kappa * mu) / 3600.0])

    def fresh(b):
        x, obj = lp.simplex_solve(c, A, b, senses="==<")
        return x.tolist(), obj

    moments = ((30.0, 2.0), (30.0, 5.0), (12.5, 2.0), (30.0, 2.0))
    want = [fresh(rhs(*m)) for m in moments]
    assert want[0] != want[1] != want[2]
    b = rhs(*moments[0])
    for m, expected in zip(moments, want):
        b[:] = rhs(*m)  # a new b in the same array, under the same A
        x, obj = lp.simplex_solve(c, A, b, senses="==<")
        assert (x.tolist(), obj) == expected, m


def test_mutating_a_solution_leaves_the_next_solve_unchanged():
    cases = (
        (PriceGrid(0.0, 30.0, 1.0), MomentEnvelope(10.0, 14.0, 2.0)),  # enumeration
        (PriceGrid(0.0, 60.0, 1.0), MomentEnvelope(30.0, 30.0, 2.0)),  # simplex
    )
    for grid, env in cases:
        for r in (9.0, 20.0, 27.0):
            first = solve_nature_ufn(grid, env, r)
            support = first.distribution.support.tolist()
            mass = first.distribution.mass.tolist()
            first.distribution.support[:] = -1.0
            first.distribution.mass[:] = 0.0
            again = solve_nature_ufn(grid, env, r)
            assert again.distribution.support.tolist() == support
            assert again.distribution.mass.tolist() == mass
        f = _objective_vector(grid.points(), 20.0, "ufn")
        path = _simplex_minimum if env.u_lower == env.u_upper else _enumerate_minimum
        value, support, masses = path(grid, env, f)
        want = (value, list(support), list(masses))
        support.append(99.0)
        masses[0] = -1.0
        assert path(grid, env, f) == want
    A = np.vstack([np.ones(5), np.arange(5.0)])
    x, _ = lp.simplex_solve(np.arange(5.0), A, np.array([1.0, 2.0]), senses="==")
    want = x.tolist()
    x[:] = 7.0
    x, _ = lp.simplex_solve(np.arange(5.0), A, np.array([1.0, 2.0]), senses="==")
    assert x.tolist() == want


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
    for solver in (solve_nature_ufn, solve_nature_an, brute_force_nature):
        with pytest.raises(ValueError, match="toll must be finite"):
            solver(WIDE, WIDE_ENV, math.nan)
    with pytest.raises(ValueError, match="toll must be finite"):
        solve_nature_two_point(WIDE, 500.0, 60.0, 50, math.nan)


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
