"""Worst-case nature solvers: the exact solver (the simplex walk, and on
an interval band the singleton and pair table plus the two band edges'
walks) against a per-toll enumeration, brute force and HiGHS, and the
sample two-point search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracle import brute_force_nature
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
    _NO_FIT,
    _Best,
    _levels,
    _moment_tols,
    _minimize_worst_case,
    _pass_offer,
    _simplex_minima,
    _solutions,
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


def _simplex_minimum(grid, env, levels):
    """One toll's levels through the simplex walk, a walk of length one."""
    (offer,) = _simplex_minima(grid, env, levels[None])
    if offer is None:
        raise ValueError(_NO_FIT)
    return offer[3:]


def _lone_minimum(grid, env, levels):
    """One toll's levels through the exact solver."""
    (minimum,) = _minimize_worst_case(grid, env, levels[None])
    return minimum


def _reference_minimum(grid, env, levels):
    """One toll's levels through the test-local per-toll enumeration."""
    return per_toll_enumeration(grid.points(), env, levels)[1:]


def solve_on_path(path, grid, env, r, objective):
    """Nature's solution with the path pinned (``_lone_minimum``,
    ``_simplex_minimum`` or ``_reference_minimum``), packaged as the public
    solvers package it."""
    (levels,) = _levels(grid.points(), r, objective)
    support, masses = path(grid, env, levels)
    (solution,) = _solutions(grid, env, [(support, masses)], [r], objective)
    return solution


def assert_same_pick(got, want, context):
    """Two solutions of one toll are the same distribution: equal supports,
    masses within 1e-9, and equal values and usage within 1e-9."""
    assert got.distribution.support.tolist() == want.distribution.support.tolist(), context
    assert np.allclose(got.distribution.mass, want.distribution.mass, rtol=0, atol=1e-9), context
    assert abs(got.objective_value - want.objective_value) <= 1e-9, context
    assert abs(got.usage_probability - want.usage_probability) <= 1e-9, context


# --- exact solvers vs the brute-force oracle ---------------------------------


def test_exact_matches_brute_force_randomized():
    # Under the tie rule the oracle and the exact solver pick the same
    # distribution, not only the same value.
    rng = np.random.default_rng(SEED)
    for trial in range(60):
        grid, env, r = random_instance(rng)
        refs = brute_force_nature(grid, env, [(r, "ufn"), (r, "an")])
        for objective, ref in zip(("ufn", "an"), refs):
            got = solve_on_path(_lone_minimum, grid, env, r, objective)
            assert_same_pick(got, ref, (trial, objective, env, r))


def test_simplex_matches_enumeration_randomized():
    # On a point mean band the simplex walk, the per-toll enumeration and
    # the oracle pick one distribution; the walk's masses come from its
    # support by the enumeration's formulas, so its support and usage equal
    # the enumeration's.
    rng = np.random.default_rng(SEED + 1)
    for trial in range(40):
        n = int(rng.integers(8, 26))
        grid = PriceGrid(0.0, float(n - 1), 1.0)
        mu = float(rng.choice(grid.points()))
        env = MomentEnvelope(mu, mu, float(rng.choice([0.25, 1.0, 3.0])))
        r = float(rng.choice(grid.points()))
        for objective in ("ufn", "an"):
            a = solve_on_path(_reference_minimum, grid, env, r, objective)
            b = solve_on_path(_simplex_minimum, grid, env, r, objective)
            assert_same_pick(b, a, (trial, objective))
            assert b.distribution.support.tolist() == a.distribution.support.tolist()
            assert b.usage_probability == a.usage_probability, (trial, objective)
            if trial % 4 == 0:
                (ref,) = brute_force_nature(grid, env, [(r, objective)])
                assert_same_pick(b, ref, (trial, objective))


# --- the walk is path-independent -------------------------------------------


def walk_instances(rng):
    """Random point bands (on- and off-grid means, floors 0 and 3, steps
    0.25-4), then ``sweep-point``-shaped ones: grid 0..200 step 1, an
    off-grid mean in [20, 180] and kappa in [0.5, 2]."""
    for _ in range(10):
        n = int(rng.integers(8, 41))
        step = float(rng.choice([0.25, 1.0, 4.0]))
        q = float(rng.choice([0.0, 3.0]))
        grid = PriceGrid(q, q + step * (n - 1), step)
        points = grid.points()
        on_grid = rng.random() < 0.6
        mu = float(rng.choice(points[1:-1])) if on_grid else float(rng.uniform(q, grid.Q))
        yield grid, MomentEnvelope(mu, mu, float(rng.choice([0.25, 1.0, 3.0, 10.0])))
    for _ in range(2):
        mu = float(rng.uniform(20.0, 180.0))
        yield PriceGrid(0.0, 200.0, 1.0), MomentEnvelope(mu, mu, float(rng.uniform(0.5, 2.0)))


def test_walk_matches_lone_solves_in_any_order():
    # Every grid toll, r = q and r = Q among them, walked in grid order and
    # in a shuffled order, against one lone solve per toll: equal supports,
    # masses and usage, whatever basis the walk arrives from.
    rng = np.random.default_rng(SEED + 2)
    cases = 0
    for grid, env in walk_instances(rng):
        points = grid.points()
        for objective in ("ufn", "an"):
            levels = _levels(points, points, objective)
            walk = outcome(_minimize_worst_case, grid, env, levels)
            if isinstance(walk, str):
                assert walk == outcome(_simplex_minimum, grid, env, levels[0])
                continue
            order = rng.permutation(points.size)
            shuffled = _minimize_worst_case(grid, env, levels[order])
            for k, r in enumerate(points.tolist()):
                lone = _simplex_minimum(grid, env, levels[k])
                back = shuffled[np.flatnonzero(order == k)[0]]
                assert walk[k] == lone == back, (grid, env, objective, r)
                usage = [
                    sol.usage_probability
                    for sol in _solutions(grid, env, [walk[k], lone], [r, r], objective)
                ]
                assert usage[0] == usage[1]
                cases += 1
    assert cases > 1000


def highs_lexicographic(points, mu, kappa, levels):
    """HiGHS, one level at a time: each later level minimized among the
    earlier levels' optima (each earlier level held within 1e-9)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    a_ub, b_ub = [points * points], [mu * mu + kappa * mu]
    for c in levels:
        res = linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=[np.ones_like(points), points],
            b_eq=[1.0, mu],
            bounds=(0, None),
            method="highs",
        )
        if res.status == 2:
            return None
        assert res.status == 0, res.message
        a_ub, b_ub = [*a_ub, c], [*b_ub, res.fun + 1e-9]
    return res.x


def test_walk_matches_highs_lexicographic_oracle():
    # HiGHS minimizes the cost, then the usage among the cost's optima, then
    # the cube: the walk's pick has its value, its usage and its support.
    pytest.importorskip("scipy")
    rng = np.random.default_rng(SEED + 3)
    checked = 0
    for grid, env in walk_instances(rng):
        points = grid.points()
        for objective in ("ufn", "an"):
            levels = _levels(points, points, objective)
            walk = outcome(_minimize_worst_case, grid, env, levels)
            for k in rng.choice(points.size, min(12, points.size), replace=False).tolist():
                x = highs_lexicographic(points, env.u_lower, env.kappa_bar, levels[k])
                if x is None:
                    assert isinstance(walk, str)
                    break
                r = float(points[k])
                (got,) = _solutions(grid, env, [walk[k]], [r], objective)
                assert abs(got.objective_value - float(levels[k, 0] @ x)) <= 1e-7, (env, r)
                assert abs(got.usage_probability - float(levels[k, 1] @ x)) <= 1e-7, (env, r)
                assert walk[k][0] == points[x > 1e-7].tolist(), (env, objective, r)
                checked += 1
    assert checked > 250


def test_interval_band_matches_highs_on_wide_grids():
    # Grids of 201 and 301 points, beyond the reach of the brute-force
    # oracle and the per-toll enumeration.  At each checked toll, nature's
    # value is HiGHS's point-band optimum at the returned distribution's
    # mean, and no mean on a 25-point scan of the band beats it.
    pytest.importorskip("scipy")
    rng = np.random.default_rng(SEED + 12)
    checked = 0
    for grid, env in (
        (PriceGrid(0.0, 200.0, 1.0), MomentEnvelope(100.0, 110.0, 1.0)),
        (PriceGrid(50.0, 350.0, 1.0), MomentEnvelope(120.5, 190.25, 20.0)),
    ):
        points = grid.points()
        assert points.size in (201, 301)
        for objective, solver in (("ufn", solve_nature_ufn), ("an", solve_nature_an)):
            curve = solver(grid, env, points)
            levels = _levels(points, points, objective)
            for k in rng.choice(points.size, 6, replace=False).tolist():
                value = curve[k].objective_value

                def highs(mu):
                    x = highs_lexicographic(points, mu, env.kappa_bar, levels[k, :1])
                    return math.inf if x is None else float(levels[k, 0] @ x)

                at_mean = highs(curve[k].distribution.mean())
                assert abs(value - at_mean) <= 1e-7, (env, objective, points[k])
                for mu in np.linspace(env.u_lower, env.u_upper, 25).tolist():
                    assert highs(mu) >= value - 1e-7, (env, objective, points[k], mu)
                checked += 1
    assert checked == 24


# --- the exact solver against a per-toll enumeration ---------------------------


def rule_pick(obj, usage, cube):
    """The index the tie rule picks among flat candidates (``obj`` inf where
    infeasible): within _TIE_TOL of the lowest objective, the lowest usage,
    within _TIE_TOL the lowest cube."""
    ties = obj <= obj.min() + _TIE_TOL
    low = ties & (usage <= usage[ties].min() + _TIE_TOL)
    return int(np.flatnonzero(low)[cube[low].argmin()])


def per_toll_enumeration(points, env, levels):
    """Every support candidate rebuilt from scratch for one toll's levels,
    the objective's stationary point on each triple included: the
    enumeration as it ran before its toll-independent half was tabulated."""
    f, u, g = levels
    n = points.size
    kappa = env.kappa_bar
    ul, uu = env.u_lower, env.u_upper
    mean_tol, var_tol = _moment_tols(float(np.max(np.abs(points))) if n else 1.0)
    best = _Best()

    mask = (points >= ul - mean_tol) & (points <= uu + mean_tol)
    if mask.any():
        idx = np.flatnonzero(mask)
        winner = idx[rule_pick(f[idx], u[idx], g[idx])]
        best.offer(
            float(f[idx].min()), float(u[winner]), float(g[winner]), [float(points[winner])], [1.0]
        )

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
            usage = t * u[I][:, None] + (1.0 - t) * u[J][:, None]
            cube = t * g[I][:, None] + (1.0 - t) * g[J][:, None]
            masked = np.where(feas, obj, np.inf)
            pick = rule_pick(masked.ravel(), usage.ravel(), cube.ravel())
            p, q = np.unravel_index(pick, t.shape)
            tv = float(t[p, q])
            best.offer(
                float(masked.min()),
                float(usage[p, q]),
                float(cube[p, q]),
                [float(ci[p]), float(cj[p])],
                [tv, 1.0 - tv],
            )

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
        if best.objective is not None and masked.min() > best.objective + _TIE_TOL:
            continue
        ib, ic = a + 1 + jj, a + 1 + kk
        usage = xa * u[a] + xb * u[ib][:, None] + xc * u[ic][:, None]
        cube = xa * g[a] + xb * g[ib][:, None] + xc * g[ic][:, None]
        p, q = np.unravel_index(rule_pick(masked.ravel(), usage.ravel(), cube.ravel()), mu.shape)
        best.offer(
            float(masked.min()),
            float(usage[p, q]),
            float(cube[p, q]),
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


def assert_matches_reference(grid, env, objective, context):
    """The exact solver's picks on a whole curve equal the per-toll
    enumeration's supports and masses, and each packaged value is within
    the tie tolerance of the enumeration's lowest objective; an infeasible
    envelope fails every toll with the same error."""
    points = grid.points()
    levels = _levels(points, points, objective)
    got = outcome(_minimize_worst_case, grid, env, levels)
    want = [outcome(per_toll_enumeration, points, env, lv) for lv in levels]
    if isinstance(got, str):
        assert want == [got] * len(levels), context
        return
    assert got == [w[1:] for w in want], context
    for sol, (value, _, _) in zip(_solutions(grid, env, got, points.tolist(), objective), want):
        assert abs(sol.objective_value - value) <= _TIE_TOL + 1e-12 * max(1.0, abs(value)), context


# Fixed inputs where the interval band's two sources of candidates meet.
EDGE_PITFALLS = (
    # κ = 0 and no grid point at the lower edge: that edge's point band is
    # infeasible by less than phase 1's slack, and the walk's pick there
    # (the pair {100, 100.25}, variance 0.002) must be refused
    (PriceGrid(100.0, 105.5, 0.25), MomentEnvelope(100.2417, 100.4293, 0.0)),
    # the pair {0, 12} is both pinned at the mean 11 and variance-tight; its
    # masses by the two formulas differ in the last bit, and the table's
    # mean-pinned pair comes first
    (PriceGrid(0.0, 21.0, 0.5), MomentEnvelope(11.0, 18.5, 1.0)),
)


def test_envelope_table_matches_per_toll_enumeration():
    rng = np.random.default_rng(SEED + 7)
    instances = [random_table_instance(rng) for _ in range(16)]
    for trial, (grid, env) in enumerate([*instances, *EDGE_PITFALLS]):
        for objective in ("ufn", "an"):
            assert_matches_reference(grid, env, objective, (trial, grid, env, objective))


def test_edge_pitfalls_match_brute_force():
    # The oracle agrees with the solver on the fixed inputs: across the κ-0
    # band's grid, and where the mean-pinned pair is the pick.
    tolls = (100.0, 100.25, 102.0, 105.5)
    checks = (
        (EDGE_PITFALLS[0], [(r, obj) for obj in ("ufn", "an") for r in tolls]),
        (EDGE_PITFALLS[1], [(6.0, "ufn"), (0.5, "an")]),
    )
    for (grid, env), rows in checks:
        for (r, objective), want in zip(rows, brute_force_nature(grid, env, rows)):
            solver = solve_nature_ufn if objective == "ufn" else solve_nature_an
            got = solver(grid, env, r)
            assert_same_pick(got, want, (env, objective, r))
    got = solve_nature_ufn(*EDGE_PITFALLS[1], 6.0)
    assert got.distribution.support.tolist() == [0.0, 12.0]
    assert got.distribution.mass.tolist() == [1.0 / 12.0, 1.0 - 1.0 / 12.0]


def solution_fields(solution):
    return (
        solution.distribution.support.tolist(),
        solution.distribution.mass.tolist(),
        solution.objective_value,
        solution.usage_probability,
        solution.active_constraints,
    )


def test_oracle_rows_in_one_call_match_one_row_calls():
    # The oracle enumerates an envelope's supports once per call and offers
    # them to each row: a row's solution does not depend on the call's other
    # rows or their order.
    rng = np.random.default_rng(SEED + 11)
    instances = [random_instance(rng)[:2] for _ in range(3)]
    for trial, (grid, env) in enumerate([*EDGE_PITFALLS, *instances]):
        points = grid.points()
        rows = [(float(rng.choice(points)), objective) for objective in ("ufn", "an")]
        rows.append((rows[0][0], "an"))  # a toll twice, under both objectives
        order = rng.permutation(len(rows))
        together = brute_force_nature(grid, env, [rows[k] for k in order])
        assert len(together) == len(rows)
        for k, got in zip(order, together):
            (alone,) = brute_force_nature(grid, env, [rows[k]])
            assert solution_fields(got) == solution_fields(alone), (trial, rows[k])


def test_oracle_infeasible_envelope_raises_for_any_rows():
    # No support fits, whatever the rows ask: one error text for one row,
    # for several, and for tolls and objectives in any mix.
    m = 100.24168104378761
    for grid, env in (
        (PriceGrid(0.0, 10.0, 1.0), MomentEnvelope(3.25, 3.75, 0.0)),
        (PriceGrid(100.0, 105.5, 0.25), MomentEnvelope(m, m, 0.0)),
    ):
        low, high = grid.q, grid.Q
        for rows in ([(low, "ufn")], [(high, "an"), (low, "ufn")], [(high, "an")] * 3):
            with pytest.raises(ValueError) as got:
                brute_force_nature(grid, env, rows)
            assert str(got.value) == _NO_FIT, (env, rows)


def test_envelope_table_on_sweep_interval_bands():
    # The bench's sweep-interval traffic: a narrow band on a 51-point grid,
    # every toll of a curve in one call.
    rng = np.random.default_rng(SEED + 9)
    grid = PriceGrid(0.0, 200.0, 4.0)
    for objective in ("ufn", "an"):
        centre, half = rng.uniform(40.0, 160.0), rng.uniform(1.0, 10.0)
        env = MomentEnvelope(centre - half, centre + half, rng.uniform(0.5, 2.0))
        assert_matches_reference(grid, env, objective, (env, objective))


def test_pass_offer_breaks_ties_by_usage_then_cube():
    points = np.array([0.0, 1.0, 2.0, 3.0])
    f = np.array([1.0, 1.0, 1.0, 1.0])
    f_dear = np.array([1.0 + 3e-9, 1.0, 1.0, 1.0])  # xa * 3e-9 dearer
    u = np.array([0.0, 0.0, 1.0, 1.0])  # usage: the mass on points 2 and 3
    g = points**3 / 27.0
    idx = np.array([[0, 0, 0, 1], [1, 1, 2, 2], [2, 3, 3, 3]], dtype=np.uint8)
    x = np.array([[0.5, 0.6, 0.7, 0.2], [0.2, 0.3, 0.1, 0.7], [0.3, 0.1, 0.2, 0.1]])
    cube = (x * g[idx]).sum(axis=0)
    # usage 0.3, 0.1, 0.3, 0.8: the second candidate wins on usage alone,
    # though its cube is not the lowest
    objective, usage, best_cube, support, masses = _pass_offer(idx, x, cube, points, f, u)
    assert (support, masses) == ([0.0, 1.0, 3.0], [0.6, 0.3, 0.1])
    assert (objective, usage) == (pytest.approx(1.0), pytest.approx(0.1))
    assert best_cube == pytest.approx((0.3 + 2.7) / 27.0)
    # more than _TIE_TOL dearer, the low-usage candidate is out of the tie
    objective, usage, _, support, _ = _pass_offer(idx, x, cube, points, f_dear, u)
    assert support == [1.0, 2.0, 3.0] and objective == pytest.approx(1.0)
    assert usage == pytest.approx(0.8)
    # equal usage within _TIE_TOL: the lowest cube wins, whatever the order
    u_flat = np.zeros(4)
    for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
        _, _, best_cube, support, _ = _pass_offer(
            idx[:, order], x[:, order], cube[order], points, f, u_flat
        )
        assert support == [0.0, 1.0, 2.0], order
        assert best_cube == pytest.approx((0.2 + 0.3 * 8.0) / 27.0)


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
            (levels,) = _levels(points, r, "ufn")
            want = per_toll_enumeration(points, env, levels)
            assert _lone_minimum(grid, env, levels) == want[1:], (grid, env, r)


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
        (PriceGrid(0.0, 30.0, 1.0), MomentEnvelope(10.0, 14.0, 2.0)),  # interval band
        (PriceGrid(0.0, 60.0, 1.0), MomentEnvelope(30.0, 30.0, 2.0)),  # point band
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
        (levels,) = _levels(grid.points(), 20.0, "ufn")
        path = _simplex_minimum if env.u_lower == env.u_upper else _lone_minimum
        support, masses = path(grid, env, levels)
        want = (list(support), list(masses))
        support.append(99.0)
        masses[0] = -1.0
        assert path(grid, env, levels) == want
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
    rows = [(400.0, "ufn"), (450.0, "ufn"), (400.0, "an"), (450.0, "an")]
    for (r, objective), ref in zip(rows, brute_force_nature(WIDE, WIDE_ENV, rows)):
        solver = solve_nature_ufn if objective == "ufn" else solve_nature_an
        got = solver(WIDE, WIDE_ENV, r)
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


# --- packaging a call's solutions ------------------------------------------------


def package_reference(support, masses, env, r, objective, scale):
    """One toll packaged on its own, the way every solution was packaged
    before a call's tolls went through one array pass: a validated
    ``from_pairs`` distribution, its ``fsum`` moments, the feasibility
    re-check (within the tolerances of ``scale``, the grid's), and the
    objective and usage from the distribution's own methods."""
    dist = DiscreteDistribution.from_pairs(zip(support, masses))
    mean, var = dist.mean(), dist.variance()
    if not nature._feasible_moments(mean, var, env, scale):
        raise AssertionError(
            f"solver produced an infeasible distribution: mean={mean}, var={var}"
        )
    value = expected_user_cost(dist, r) if objective == "ufn" else expected_revenue(dist, r)
    return dist, value, dist.usage_probability(r), nature._active_constraints(mean, var, env)


def assert_packaged_as_reference(got, want, context):
    dist, value, usage, active = want
    for a, b in ((got.distribution.support, dist.support), (got.distribution.mass, dist.mass)):
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), context
        assert a.base is None, context  # every solution owns its arrays
    assert got.objective_value == value and got.usage_probability == usage, context
    assert got.active_constraints == active, context


def test_packager_matches_per_toll_reference():
    # Point and interval bands, both objectives, whole curves, subsets and
    # lone tolls; each row also once with a 1e-16 atom appended, which the
    # packager drops as from_pairs does.
    rng = np.random.default_rng(SEED + 11)
    cases = 0
    for trial in range(30):
        grid, env = random_table_instance(rng)
        points = grid.points()
        scale = float(np.max(np.abs(points)))
        for objective in ("ufn", "an"):
            for tolls in (points, rng.choice(points, 5), rng.choice(points, 1)):
                tolls = tolls.tolist()
                minima = outcome(_minimize_worst_case, grid, env, _levels(points, tolls, objective))
                if isinstance(minima, str):
                    continue
                minima = [*minima, *((s + [s[-1] + 1.0], m + [1e-16]) for s, m in minima)]
                tolls = tolls + tolls
                got = _solutions(grid, env, minima, tolls, objective)
                assert len(got) == len(tolls)
                for sol, (s, m), r in zip(got, minima, tolls):
                    want = package_reference(s, m, env, r, objective, scale)
                    assert_packaged_as_reference(sol, want, (trial, env, objective, r))
                    cases += 1
    assert cases > 2000
    # an empty toll array packages to no solutions, on either path
    assert _solutions(grid, env, [], [], "ufn") == ()
    grid = PriceGrid(0.0, 40.0, 1.0)
    for env in (MomentEnvelope(17.0, 17.0, 3.0), MomentEnvelope(15.0, 19.0, 3.0)):
        assert solve_nature_ufn(grid, env, np.array([])) == ()
        assert solve_nature_an(grid, env, []) == ()


def test_packager_raises_as_the_per_toll_reference():
    # One bad row among good ones raises the reference's error and message.
    grid = PriceGrid(0.0, 40.0, 1.0)
    env = MomentEnvelope(17.0, 17.0, 3.0)
    good = [([10.0, 24.0], [0.5, 0.5]), ([17.0], [1.0]), ([10.0, 17.0, 24.0], [0.25, 0.5, 0.25])]
    assert len(_solutions(grid, env, good, [17.0] * len(good), "ufn")) == len(good)
    bad = (
        ([12.0], [0.0]),  # no positive mass
        ([12.0, 13.0], [1e-16, 0.0]),  # no positive mass after the drop
        ([30.0], [1.0]),  # mean outside the band
        ([0.0, 40.0], [0.5, 0.5]),  # variance over the cap
        ([16.0, 18.0], [0.5, 0.6]),  # masses do not sum to 1
    )
    for row in bad:
        for at in range(len(good) + 1):
            minima = [*good[:at], row, *good[at:]]
            tolls = [17.0] * len(minima)
            for objective in ("ufn", "an"):
                with pytest.raises((ValueError, AssertionError)) as want:
                    for s, m in minima:
                        package_reference(s, m, env, 17.0, objective, 40.0)
                with pytest.raises(want.type) as got:
                    _solutions(grid, env, minima, tolls, objective)
                assert str(got.value) == str(want.value), (row, at)


def test_interval_band_at_the_variance_cap_edge_matches_brute_force():
    # The pair {56, 132} exceeds the variance cap by 1.9e-5: inside the slack
    # of the grid's scale (200), by which the table and the oracle admit
    # candidates, and outside that of its own largest point (132), by which
    # the package re-check once judged it and raised.
    grid = PriceGrid(0.0, 200.0, 4.0)
    env = MomentEnvelope(129.89590180984226, 146.94644634139593, 1.1969909130927772)
    got = solve_nature_ufn(grid, env, 96.0)
    (want,) = brute_force_nature(grid, env, [(96.0, "ufn")])
    assert got.distribution.support.tolist() == want.distribution.support.tolist() == [56.0, 132.0]
    assert_same_pick(got, want, env)
    assert got.active_constraints == want.active_constraints


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
    # At r = q every feasible distribution yields the same objective and
    # usage 1; the lowest E[s^3] at a fixed mean is the point mass at the
    # mean (Jensen), on the walk and on the per-toll enumeration.
    for path in (_reference_minimum, _simplex_minimum):
        sol = solve_on_path(path, WIDE, WIDE_ENV, 0.0, "ufn")
        assert list(sol.distribution.support) == [500.0]
        assert sol.objective_value == 0.0
        assert sol.usage_probability == 1.0
    auto = solve_nature_ufn(WIDE, WIDE_ENV, 0.0)
    assert list(auto.distribution.support) == [500.0]


def test_infeasible_envelope_errors():
    # Zero variance cap + mean band without a grid point: nothing qualifies.
    grid = PriceGrid(0.0, 10.0, 1.0)
    env = MomentEnvelope(3.25, 3.75, 0.0)
    with pytest.raises(ValueError, match="no grid-supported distribution"):
        solve_nature_ufn(grid, env, 5.0)


def test_near_infeasible_point_band_raises_as_the_oracle():
    # κ = 0 and a mean just off the grid: no distribution fits, but phase 1
    # accepts a residual that leaves the walk a pick of variance about
    # 0.002.  The solver refuses it with the oracle's error, at one toll and
    # on a whole curve, where an internal AssertionError once escaped.
    for grid, m in (
        (PriceGrid(100.0, 105.5, 0.25), 100.24168104378761),
        (PriceGrid(100.0, 112.5, 0.25), 108.24304887996028),
    ):
        env = MomentEnvelope(m, m, 0.0)
        with pytest.raises(ValueError) as want:
            brute_force_nature(grid, env, [(100.25, "ufn")])
        for solver in (solve_nature_ufn, solve_nature_an):
            for tolls in (100.25, grid.points()):
                with pytest.raises(ValueError) as got:
                    solver(grid, env, tolls)
                assert str(got.value) == str(want.value) == _NO_FIT, (m, solver)


def test_empty_toll_array_solves_nothing(monkeypatch):
    # Point and interval bands, feasible and infeasible: an empty toll array
    # gives no solutions and runs no walk and no table.  The envelope is
    # still checked against the grid.
    grid = PriceGrid(0.0, 40.0, 1.0)
    feasible = (MomentEnvelope(17.0, 17.0, 3.0), MomentEnvelope(15.0, 19.0, 3.0))
    infeasible = (MomentEnvelope(17.5, 17.5, 0.0), MomentEnvelope(17.25, 17.75, 0.0))
    for env in infeasible:
        with pytest.raises(ValueError, match=_NO_FIT):
            solve_nature_ufn(grid, env, [17.0])

    def refuse(*args, **kwargs):
        raise AssertionError("an empty toll array reached a solver")

    monkeypatch.setattr(nature, "simplex_solve", refuse)
    monkeypatch.setattr(nature, "_envelope_table", refuse)
    for env in (*feasible, *infeasible):
        for solver in (solve_nature_ufn, solve_nature_an):
            assert solver(grid, env, np.array([])) == ()
            assert solver(grid, env, []) == ()
    with pytest.raises(ValueError, match="does not meet the support range"):
        solve_nature_ufn(grid, MomentEnvelope(50.0, 60.0, 1.0), [])


def test_off_grid_toll_rejected():
    with pytest.raises(ValueError, match="not on the price grid"):
        solve_nature_ufn(WIDE, WIDE_ENV, 405.0)
    def oracle(grid, env, r):
        return brute_force_nature(grid, env, [(400.0, "an"), (r, "ufn")])

    for solver in (solve_nature_ufn, solve_nature_an, oracle):
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
