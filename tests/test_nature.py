"""Worst-case nature solvers: the exact solver (the simplex walk, and on
an interval band the singleton and pair table plus the two band edges'
walks) against a per-toll enumeration, brute force and HiGHS, and the
sample two-point search."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from oracle import (
    active_constraints_reference,
    brute_force_nature,
    levels_reference,
    package_reference,
)
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
    _levels,
    _moment_tols,
    _minimize_worst_case,
    _simplex_minima,
    _solutions,
    _tie_pick,
    first_feasible_lower,
    pick_worst,
    solve_nature_an,
    solve_nature_two_point,
    solve_nature_ufn,
    two_point_responses,
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


def atoms(support, masses):
    """Each row of the solver's (tolls, 3) arrays as lists ``(support,
    masses)``, without the padding; each row holds its atoms first and
    zeros after."""
    live = masses != 0.0
    assert (live[:, :-1] >= live[:, 1:]).all() and not support[~live].any()
    sizes = np.count_nonzero(masses, axis=1)
    return [(s[:n].tolist(), m[:n].tolist()) for s, m, n in zip(support, masses, sizes)]


def padded(minima):
    """Rows of ``(support, masses)`` lists as the two zero-padded (rows,
    width) arrays that ``_solutions`` takes."""
    table = np.zeros((2, len(minima), max([len(s) for s, _ in minima], default=0)))
    for k, (support, masses) in enumerate(minima):
        table[:, k, : len(support)] = support, masses
    return table[0], table[1]


def worst_cases(grid, env, levels, tolls=None, objective=None):
    """The exact solver's picks, one ``(support, masses)`` row per toll;
    without UFN ``tolls`` and ``objective``, the upper band edge is walked
    at every toll."""
    return atoms(*_minimize_worst_case(grid, env, levels, tolls, objective))


def package(grid, env, minima, tolls, objective):
    """``(support, masses)`` rows packaged by ``_solutions``."""
    return _solutions(grid, env, *padded(minima), tolls, objective)


def _simplex_minimum(grid, env, levels):
    """One toll's levels through the simplex walk, a walk of length one."""
    _, support, masses, (admitted,) = _simplex_minima(grid, env, levels[None])
    if not admitted:
        raise ValueError(_NO_FIT)
    (minimum,) = atoms(support, masses)
    return minimum


def _lone_minimum(grid, env, levels):
    """One toll's levels through the exact solver."""
    (minimum,) = worst_cases(grid, env, levels[None])
    return minimum


def _reference_minimum(grid, env, levels):
    """One toll's levels through the test-local per-toll enumeration."""
    return per_toll_enumeration(grid.points(), env, levels)[1:]


def solve_on_path(path, grid, env, r, objective):
    """Nature's solution with the path pinned (``_lone_minimum``,
    ``_simplex_minimum`` or ``_reference_minimum``), packaged as the public
    solvers package it."""
    (levels,) = _levels(grid.points(), r, objective)
    (solution,) = package(grid, env, [path(grid, env, levels)], [r], objective)
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


def test_floored_grids_match_brute_force():
    # random_instance's grids start at 0, where a cube level scaled from 0
    # and one scaled from the floor agree.  These start above 0, and at the
    # grid's lowest toll every candidate ties on the first two levels, so
    # the cube picks among them.  The picks alone did not tell the two
    # scalings apart on 6,000 random floored curves: where candidates tie,
    # both take the least spread one, as any increasing convex level does.
    # So nature's levels are also held to the oracle's definitions.
    rng = np.random.default_rng(SEED + 41)
    for trial in range(30):
        n = int(rng.integers(8, 20))
        step = float(rng.choice([0.5, 1.0, 2.0]))
        q = float(rng.choice([1.0, 3.0, 50.0]))
        grid = PriceGrid(q, q + step * (n - 1), step)
        lo = float(rng.uniform(grid.q, grid.Q))
        env = MomentEnvelope(lo, float(rng.uniform(lo, grid.Q)), float(rng.choice([0.25, 1.0, 3.0])))
        points = grid.points().tolist()
        tolls = [points[0], points[1], *rng.choice(points[2:], size=2, replace=False).tolist()]
        rows = [(r, objective) for r in tolls for objective in ("ufn", "an")]
        for (r, objective), want in zip(rows, brute_force_nature(grid, env, rows)):
            solver = solve_nature_ufn if objective == "ufn" else solve_nature_an
            assert_same_pick(solver(grid, env, r), want, (trial, grid, env, r, objective))
            (levels,) = _levels(grid.points(), r, objective)
            assert levels.tolist() == np.array(levels_reference(grid.points(), r, objective)).tolist()


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
            walk = outcome(worst_cases, grid, env, levels)
            if isinstance(walk, str):
                assert walk == outcome(_simplex_minimum, grid, env, levels[0])
                continue
            order = rng.permutation(points.size)
            shuffled = worst_cases(grid, env, levels[order])
            for k, r in enumerate(points.tolist()):
                lone = _simplex_minimum(grid, env, levels[k])
                back = shuffled[np.flatnonzero(order == k)[0]]
                assert walk[k] == lone == back, (grid, env, objective, r)
                usage = [
                    sol.usage_probability
                    for sol in package(grid, env, [walk[k], lone], [r, r], objective)
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
            walk = outcome(worst_cases, grid, env, levels)
            for k in rng.choice(points.size, min(12, points.size), replace=False).tolist():
                x = highs_lexicographic(points, env.u_lower, env.kappa_bar, levels[k])
                if x is None:
                    assert isinstance(walk, str)
                    break
                r = float(points[k])
                (got,) = package(grid, env, [walk[k]], [r], objective)
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
    """The index the tie rule picks among flat candidates: within _TIE_TOL
    of the lowest objective, the lowest usage, within _TIE_TOL the lowest
    cube, the first on an exact tie."""
    ties = obj <= obj.min() + _TIE_TOL
    low = ties & (usage <= usage[ties].min() + _TIE_TOL)
    return int(np.flatnonzero(low)[cube[low].argmin()])


def per_toll_enumeration(points, env, levels):
    """Every support candidate rebuilt from scratch for one toll's levels,
    the objective's stationary point on each triple included, and
    ``rule_pick`` over all of them: the enumeration as it ran before its
    toll-independent half was tabulated.  Returns the lowest objective and
    the pick's support and masses."""
    f, u, g = levels
    n = points.size
    kappa = env.kappa_bar
    ul, uu = env.u_lower, env.u_upper
    mean_tol, var_tol = _moment_tols(float(np.max(np.abs(points))) if n else 1.0)
    # per block of feasible candidates: objective, usage, cube, and each
    # candidate's support and masses as a row
    blocks = []

    mask = (points >= ul - mean_tol) & (points <= uu + mean_tol)
    if mask.any():
        idx = np.flatnonzero(mask)
        blocks.append((f[idx], u[idx], g[idx], points[idx][:, None], np.ones((idx.size, 1))))

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
        p, q = np.nonzero(
            interior
            & (mu >= ul - mean_tol)
            & (mu <= uu + mean_tol)
            & (var <= kappa * mu + var_tol)
        )
        if p.size:
            tv = t[p, q]
            blocks.append(
                (
                    tv * fi[p] + (1.0 - tv) * fj[p],
                    tv * u[I][p] + (1.0 - tv) * u[J][p],
                    tv * g[I][p] + (1.0 - tv) * g[J][p],
                    np.stack([ci[p], cj[p]], axis=1),
                    np.stack([tv, 1.0 - tv], axis=1),
                )
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
        p, q = np.nonzero(
            ok
            & pos
            & (np.abs(ssum - 1.0) <= 1e-9)
            & (mean >= ul - mean_tol)
            & (mean <= uu + mean_tol)
            & (var <= kappa * mean + var_tol)
        )
        if not p.size:
            continue
        xa, xb, xc = xa[p, q], xb[p, q], xc[p, q]
        obj = xa * fa + xb * fb[p] + xc * fc[p]
        # a block more than _TIE_TOL above a lower objective cannot tie
        if blocks and obj.min() > min(b[0].min() for b in blocks) + _TIE_TOL:
            continue
        ib, ic = a + 1 + jj[p], a + 1 + kk[p]
        blocks.append(
            (
                obj,
                xa * u[a] + xb * u[ib] + xc * u[ic],
                xa * g[a] + xb * g[ib] + xc * g[ic],
                np.stack([np.full(p.size, ca), cb[p], cc[p]], axis=1),
                np.stack([xa, xb, xc], axis=1),
            )
        )

    if not blocks:
        raise ValueError("no grid-supported distribution satisfies the moment envelope")
    objective, usage, cube = (np.concatenate(keys) for keys in list(zip(*blocks))[:3])
    e = rule_pick(objective, usage, cube)
    for *_, support, masses in blocks:
        if e < len(support):
            return float(objective.min()), support[e].tolist(), masses[e].tolist()
        e -= len(support)


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
    got = outcome(worst_cases, grid, env, levels)
    want = [outcome(per_toll_enumeration, points, env, lv) for lv in levels]
    if isinstance(got, str):
        assert want == [got] * len(levels), context
        return
    assert got == [w[1:] for w in want], context
    for sol, (value, _, _) in zip(package(grid, env, got, points.tolist(), objective), want):
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


def test_blocks_cannot_change_a_pick(monkeypatch):
    # The interval band's pick runs over blocks of tolls of at most
    # _PICK_CELLS cells: blocks of 1 toll, 7 tolls and the default give
    # every field of one call with all tolls in one block.
    rng = np.random.default_rng(SEED + 14)
    instances = []
    while len(instances) < 12:
        grid, env = random_table_instance(rng)
        if env.u_lower < env.u_upper:
            instances.append((grid, env))
    instances.append((PriceGrid(0.0, 200.0, 4.0), MomentEnvelope(95.0, 105.0, 1.5)))
    default = nature._PICK_CELLS
    checked = 0
    for trial, (grid, env) in enumerate(instances):
        points = grid.points()
        candidates = nature._envelope_table(points, env)[1].shape[1] + 2
        for solver in (solve_nature_ufn, solve_nature_an):
            calls = {}
            for name, cells in (("one", 1), ("seven", 7 * candidates), ("default", default)):
                monkeypatch.setattr(nature, "_PICK_CELLS", cells)
                calls[name] = outcome(solver, grid, env, points)
            monkeypatch.setattr(nature, "_PICK_CELLS", points.size * candidates)
            want = outcome(solver, grid, env, points)
            for name, got in calls.items():
                if isinstance(want, str):
                    assert got == want, (trial, name)
                    continue
                assert [solution_fields(s) for s in got] == [
                    solution_fields(s) for s in want
                ], (trial, solver.__name__, name)
                checked += len(got)
    assert checked > 1000


# --- the upper band edge's walk stops where it cannot tie --------------------


def cut_instances(rng):
    """Interval bands on grids of 51, 101, 201 and 401 points: the
    ``sweep-interval`` shape (grid 0..200, centre 20-180, half-width 1-10,
    kappa 0.5-2), then wider bands, larger kappas, a floor of 3 and on-grid
    edges, with kappa 0 among them."""
    for n in (51, 51, 51, 51, 101, 101, 201, 401):
        centre, half = rng.uniform(20.0, 180.0), rng.uniform(1.0, 10.0)
        env = MomentEnvelope(centre - half, centre + half, rng.uniform(0.5, 2.0))
        yield PriceGrid(0.0, 200.0, 200.0 / (n - 1)), env
    for n in (51, 51, 51, 101, 201):
        q = float(rng.choice([0.0, 3.0]))
        grid = PriceGrid(q, q + 200.0, 200.0 / (n - 1))
        points = grid.points()
        if rng.random() < 0.5:
            lo, hi = np.sort(rng.choice(points[1:-1], 2, replace=False))
        else:
            lo, hi = np.sort(rng.uniform(grid.q, grid.Q, 2))
        kappa = float(rng.choice([0.0, 1.0, 5.0, 40.0]))
        yield grid, MomentEnvelope(float(lo), float(hi), kappa)


def cut_calls(rng, points):
    """One instance's calls: the whole curve ascending and shuffled, then
    random runs of 1 to 12 tolls, ascending or shuffled: 225 runs on a
    51-point grid, fewer on finer ones."""
    yield points
    yield rng.permutation(points)
    for _ in range(11500 // points.size):
        tolls = rng.choice(points, int(rng.integers(1, 13)), replace=False)
        yield np.sort(tolls) if rng.random() < 0.5 else tolls


def walked_tolls(monkeypatch):
    """Patch ``nature._simplex_minima`` to record, per walk, its band edge
    and its number of tolls."""
    walks, inner = [], nature._simplex_minima

    def record(grid, env, levels):
        walks.append((env.u_lower, len(levels)))
        return inner(grid, env, levels)

    monkeypatch.setattr(nature, "_simplex_minima", record)
    return walks


def never_cut(env, scale, tolls):
    """``_upper_edge_floor`` forced below every key: the upper walk covers
    every toll."""
    return np.full(len(tolls), -np.inf)


def test_upper_edge_cut_changes_no_field(monkeypatch):
    # Every field of every UFN solution equals that of the same call with
    # the upper band edge walked at every toll, for whole curves and runs of
    # tolls in any order; and the cut skips a good share of the tolls.  (AN
    # never consults the floor: its walk is pinned by the test below.)
    rng = np.random.default_rng(SEED + 31)
    calls = cut = walked = 0
    for trial, (grid, env) in enumerate(cut_instances(rng)):
        for tolls in cut_calls(rng, grid.points()):
            monkeypatch.setattr(nature, "_upper_edge_floor", never_cut)
            want = outcome(solve_nature_ufn, grid, env, tolls)
            monkeypatch.undo()
            walks = walked_tolls(monkeypatch)
            got = outcome(solve_nature_ufn, grid, env, tolls)
            monkeypatch.undo()
            context = (trial, env, tolls[:3])
            if isinstance(want, str):
                assert got == want, context
            else:
                assert [solution_fields(s) for s in got] == [
                    solution_fields(s) for s in want
                ], context
            cut += len(tolls) - sum(k for mu, k in walks if mu == env.u_upper)
            walked += len(tolls)
            calls += 1
    assert calls >= 2000
    assert cut > walked / 2, (cut, walked)


def test_upper_edge_floor_is_at_most_every_admitted_key():
    # Wherever the whole upper walk admits a pick, the floor (Scarf's bound
    # less the float margin) is at most its key, tolls 5e-10 off the grid
    # too; where the bound is positive it comes within 1e-8 of the grid's
    # scale of some key (kappa-0 edges on the grid), so it is not idle.
    rng = np.random.default_rng(SEED + 32)
    instances = list(cut_instances(rng))
    for _ in range(40):
        grid, env = random_table_instance(rng)
        if env.u_lower < env.u_upper:
            instances.append((grid, env))
    instances.append((PriceGrid(0.0, 200.0, 4.0), MomentEnvelope(96.0, 120.0, 0.0)))
    tightest, admitted_keys = np.inf, 0
    for grid, env in instances:
        points = grid.points()
        scale = float(np.max(np.abs(points)))
        for tolls in (points, points + 5e-10, points - 5e-10):
            levels = _levels(points, tolls, "ufn")
            upper = MomentEnvelope(env.u_upper, env.u_upper, env.kappa_bar)
            keys, _, _, admitted = _simplex_minima(grid, upper, levels)
            floor = nature._upper_edge_floor(env, scale, tolls)
            slack = (keys[:, 0] - floor)[admitted]
            assert (slack >= 0).all(), (grid, env, slack.min())
            positive = floor[admitted] + 2 * _moment_tols(scale)[0] > 0
            tightest = min(tightest, slack[positive].min(initial=np.inf) / max(1.0, scale))
            admitted_keys += int(admitted.sum())
    assert admitted_keys > 5000
    assert tightest < 1e-8


def test_upper_edge_walk_covers_under_half_a_sweep_curve(monkeypatch):
    # On a sweep-interval-style band the upper edge's pick can tie only at
    # the low tolls, so its walk stops before half the 51-point curve; the
    # lower edge's walk and the AN objective still cover every toll.
    grid = PriceGrid(0.0, 200.0, 4.0)
    env = MomentEnvelope(95.0, 105.0, 1.5)
    for solver in (solve_nature_ufn, solve_nature_an):
        walks = walked_tolls(monkeypatch)
        solver(grid, env, grid.points())
        got = dict(walks)
        assert got[env.u_lower] == 51
        if solver is solve_nature_ufn:
            assert 0 < got[env.u_upper] < 51 / 2, got
        else:
            assert got[env.u_upper] == 51
        monkeypatch.undo()


def test_upper_edge_cut_matches_brute_force(monkeypatch):
    # UFN interval bands on small grids, whole curves: every pick, the
    # tolls past the upper edge's cut among them, matches the exhaustive
    # oracle, and the cut skips over 50 of the tolls.
    rng = np.random.default_rng(SEED + 33)
    cut = 0
    for trial in range(12):
        n = int(rng.integers(10, 22))
        grid = PriceGrid(0.0, float(n - 1), 1.0)
        lo = float(rng.uniform(1.0, grid.Q - 3.0))
        hi = float(rng.uniform(lo + 0.5, grid.Q - 1.0))
        env = MomentEnvelope(lo, hi, float(rng.choice([0.25, 1.0, 3.0])))
        points = grid.points()
        walks = walked_tolls(monkeypatch)
        got = solve_nature_ufn(grid, env, points)
        monkeypatch.undo()
        cut += n - dict(walks).get(env.u_upper, 0)
        want = brute_force_nature(grid, env, [(r, "ufn") for r in points.tolist()])
        for r, g, w in zip(points.tolist(), got, want):
            assert_same_pick(g, w, (trial, env, r))
    assert cut > 50


def test_first_bad_toll_of_an_array_is_named():
    # A NaN or an off-grid toll in the middle of an array raises the scalar
    # check's message for the first bad toll.
    grid = PriceGrid(3.0, 43.0, 0.5)
    for solver in (solve_nature_ufn, solve_nature_an):
        env = MomentEnvelope(10.0, 20.0, 1.0)
        for tolls, message in (
            ([5.0, 6.5, math.nan, 7.25, 8.0], "toll must be finite, got nan"),
            ([5.0, 6.5, 7.25, math.nan, 8.0], "toll 7.25 is not on the price grid"),
        ):
            assert outcome(solver, grid, env, np.array(tolls)) == message


def test_fine_grid_curve_traced_peak():
    # One whole curve on a 1,001-point grid: the pair table's build sets
    # the peak, and the blocked pick stays under it (an unblocked objective
    # matrix for these 120,610 candidates would need about 0.97 GB).
    tracemalloc = pytest.importorskip("tracemalloc")
    grid = PriceGrid(0.0, 1000.0, 1.0)
    env = MomentEnvelope(300.0, 420.0, 5.0)
    tracemalloc.start()
    try:
        curve = solve_nature_ufn(grid, env, grid.points())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(curve) == 1001
    assert peak <= 150 * 2**20, peak / 2**20


def test_grid_too_fine_to_finish_is_refused_before_building(monkeypatch):
    # A call is refused, naming its grid's point count and the bound, when
    # its levels (tolls x points) or an interval band's pair table (n(n-1)/2
    # pairs) would exceed the module's bounds; a call at the bounds solves.
    grid = PriceGrid(0.0, 19.0, 1.0)  # 20 points, 190 pairs
    interval, point = MomentEnvelope(8.0, 11.0, 2.0), MomentEnvelope(9.0, 9.0, 2.0)
    monkeypatch.setattr(nature, "_MAX_PAIRS", 190)
    monkeypatch.setattr(nature, "_MAX_LEVEL_CELLS", 20 * 20)
    for env in (interval, point):
        assert len(solve_nature_ufn(grid, env, grid.points())) == 20
    built = nature._levels

    def refuse(*args, **kwargs):
        raise AssertionError("a refused call built its levels")

    monkeypatch.setattr(nature, "_levels", refuse)
    monkeypatch.setattr(nature, "_MAX_LEVEL_CELLS", 20 * 20 - 1)
    for env in (interval, point):
        with pytest.raises(ValueError) as got:
            solve_nature_an(grid, env, grid.points())
        assert str(got.value) == (
            "20 tolls on a grid of 20 points exceed the bound of 399 tolls x points"
        )
    monkeypatch.setattr(nature, "_MAX_PAIRS", 189)
    with pytest.raises(ValueError) as got:
        solve_nature_ufn(grid, interval, 9.0)
    assert str(got.value) == (
        "an interval mean band on a grid of 20 points needs 190 support pairs, "
        "over the bound of 189"
    )
    # a point band builds no pair table
    monkeypatch.setattr(nature, "_levels", built)
    assert solve_nature_ufn(grid, point, 9.0).distribution.mean() == pytest.approx(9.0)


def test_tie_pick_breaks_ties_by_usage_then_cube():
    points = np.array([0.0, 1.0, 2.0, 3.0])
    f = np.array([1.0, 1.0, 1.0, 1.0])
    f_dear = np.array([1.0 + 3e-9, 1.0, 1.0, 1.0])  # xa * 3e-9 dearer
    u = np.array([0.0, 0.0, 1.0, 1.0])  # usage: the mass on points 2 and 3
    g = points**3 / 27.0
    idx = np.array([[0, 0, 0, 1], [1, 1, 2, 2], [2, 3, 3, 3]], dtype=np.uint8)
    x = np.array([[0.5, 0.6, 0.7, 0.2], [0.2, 0.3, 0.1, 0.7], [0.3, 0.1, 0.2, 0.1]])
    cube = (x * g[idx]).sum(axis=0)

    def pick(f, u, order=slice(None)):
        keys = (x[:, order] * np.stack([f, u, g])[:, idx[:, order]]).sum(axis=1)
        e = _tie_pick(*keys)
        return points[idx[:, order][:, e]].tolist(), keys[:, e]

    # usage 0.3, 0.1, 0.3, 0.8: the second candidate wins on usage alone,
    # though its cube is not the lowest
    support, (objective, usage, best_cube) = pick(f, u)
    assert support == [0.0, 1.0, 3.0]
    assert (objective, usage) == (pytest.approx(1.0), pytest.approx(0.1))
    assert best_cube == pytest.approx((0.3 + 2.7) / 27.0) != cube.min()
    # more than _TIE_TOL dearer, the low-usage candidate is out of the tie
    support, (objective, usage, _) = pick(f_dear, u)
    assert support == [1.0, 2.0, 3.0] and objective == pytest.approx(1.0)
    assert usage == pytest.approx(0.8)
    # equal usage within _TIE_TOL: the lowest cube wins, whatever the order
    for order in ([0, 1, 2, 3], [3, 2, 1, 0]):
        support, (_, _, best_cube) = pick(f, np.zeros(4), order)
        assert support == [0.0, 1.0, 2.0], order
        assert best_cube == pytest.approx((0.2 + 0.3 * 8.0) / 27.0)


def test_tie_pick_is_the_rule_in_any_order():
    # Against rule_pick on random candidates whose objectives and usages
    # often tie or nearly tie, and on a near-tie chain whose ends are 1.5e-9
    # apart.  As in nature, candidates with one cube are one candidate
    # offered more than once.  The pick is the same candidate under every
    # permutation, the first of its copies.
    rng = np.random.default_rng(SEED + 13)
    chain = np.array([[0.0, 0.9e-9, 1.5e-9], [1.0, 1.0, 0.0], [0.5, 0.2, 0.0]])
    cases = [chain]
    for _ in range(200):
        size = int(rng.integers(1, 5))
        keys = np.stack(
            [
                rng.integers(0, 4, size) * rng.choice([0.6e-9, 1e-9, 0.3]),
                rng.integers(0, 4, size) * rng.choice([0.6e-9, 1e-9, 0.3]),
                rng.permutation(size) * 0.1,
            ]
        )
        copies = rng.integers(0, size, int(rng.integers(0, 6 - size)))
        cases.append(np.hstack([keys, keys[:, copies]]))
    for k, keys in enumerate(cases):
        want = keys[:, rule_pick(*keys)]
        for order in itertools.permutations(range(keys.shape[1])):
            shuffled = keys[:, list(order)]
            e = _tie_pick(*shuffled)
            assert e == rule_pick(*shuffled), (k, keys, order)
            assert (shuffled[:, e] == want).all(), (k, keys, order)
            assert not (shuffled[:, :e] == want[:, None]).all(axis=0).any(), (k, keys, order)
    # the chain: 0 and 0.9e-9 tie, 1.5e-9 does not, though its usage is lowest
    assert _tie_pick(*chain) == 1


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
        (x,) = lp.simplex_solve(c[None, None], A, b, senses="==<")
        return x.tolist(), float(c @ x)

    moments = ((30.0, 2.0), (30.0, 5.0), (12.5, 2.0), (30.0, 2.0))
    want = [fresh(rhs(*m)) for m in moments]
    assert want[0] != want[1] != want[2]
    b = rhs(*moments[0])
    for m, expected in zip(moments, want):
        b[:] = rhs(*m)  # a new b in the same array, under the same A
        (x,) = lp.simplex_solve(c[None, None], A, b, senses="==<")
        assert (x.tolist(), float(c @ x)) == expected, m


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
    c = np.arange(5.0)[None, None]
    x = lp.simplex_solve(c, A, np.array([1.0, 2.0]), senses="==")
    want = x.tolist()
    x[:] = 7.0
    x = lp.simplex_solve(c, A, np.array([1.0, 2.0]), senses="==")
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
                minima = outcome(worst_cases, grid, env, _levels(points, tolls, objective))
                if isinstance(minima, str):
                    continue
                minima = [*minima, *((s + [s[-1] + 1.0], m + [1e-16]) for s, m in minima)]
                tolls = tolls + tolls
                got = package(grid, env, minima, tolls, objective)
                assert len(got) == len(tolls)
                for sol, (s, m), r in zip(got, minima, tolls):
                    want = package_reference(s, m, env, r, objective, scale)
                    assert_packaged_as_reference(sol, want, (trial, env, objective, r))
                    cases += 1
    assert cases > 2000
    # an empty toll array packages to no solutions, on either path
    assert package(grid, env, [], [], "ufn") == ()
    grid = PriceGrid(0.0, 40.0, 1.0)
    for env in (MomentEnvelope(17.0, 17.0, 3.0), MomentEnvelope(15.0, 19.0, 3.0)):
        assert solve_nature_ufn(grid, env, np.array([])) == ()
        assert solve_nature_an(grid, env, []) == ()


def test_packager_raises_as_the_per_toll_reference():
    # One bad row among good ones raises the reference's error and message.
    grid = PriceGrid(0.0, 40.0, 1.0)
    env = MomentEnvelope(17.0, 17.0, 3.0)
    good = [([10.0, 24.0], [0.5, 0.5]), ([17.0], [1.0]), ([10.0, 17.0, 24.0], [0.25, 0.5, 0.25])]
    assert len(package(grid, env, good, [17.0] * len(good), "ufn")) == len(good)
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
                    package(grid, env, minima, tolls, objective)
                assert str(got.value) == str(want.value), (row, at)


def test_packager_names_the_first_infeasible_toll():
    # Two rows fail the moment re-check; the error names the first one's
    # fsum moments, whatever follows it.
    grid = PriceGrid(0.0, 40.0, 1.0)
    env = MomentEnvelope(17.0, 17.0, 3.0)
    good = ([10.0, 24.0], [0.5, 0.5])
    far = ([29.0, 31.0, 33.0], [0.1, 0.2, 0.7])  # mean outside the band
    wide = ([0.0, 34.0], [0.5, 0.5])  # variance over the cap
    for first, second in ((far, wide), (wide, far)):
        s, m = first
        mean = math.fsum(a * b for a, b in zip(s, m))
        var = math.fsum(a * a * b for a, b in zip(s, m)) - mean * mean
        message = f"solver produced an infeasible distribution: mean={mean}, var={var}"
        with pytest.raises(AssertionError, match="infeasible") as want:
            package_reference(*first, env, 17.0, "ufn", 40.0)
        assert str(want.value) == message
        for tail in ([], [second], [good], [second, good], [good, second], [first]):
            minima = [good, good, first, *tail]
            for objective in ("ufn", "an"):
                with pytest.raises(AssertionError) as got:
                    package(grid, env, minima, [17.0] * len(minima), objective)
                assert str(got.value) == message, (first, tail, objective)


def ulps_around(x, n=8):
    """``x`` and the ``n`` floats on either side of it, ascending."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[:0:-1] + above


def test_active_constraints_match_the_scalar_rule_at_its_boundaries():
    # Means at and a few ulps either side of u_lower + tol and u_upper - tol
    # (tol = 1e-6 * max(1, |mean|), so each edge is the fixed point of
    # mean = edge -/+ tol(mean)), each with variances at and around its
    # cap's edge; kappa 0, a mean of 0 and means below 1 among them.
    envs = [
        MomentEnvelope(17.0, 17.0, 3.0),
        MomentEnvelope(15.0, 19.0, 3.0),
        MomentEnvelope(0.0, 0.5, 0.0),
        MomentEnvelope(0.0, 0.0, 1.0),
        MomentEnvelope(0.25, 0.75, 2.0),
        MomentEnvelope(100.1234567891, 110.1234567891, 1.0),
        MomentEnvelope(1234.5, 5678.9, 0.0),
    ]
    rows = 0
    for env in envs:
        edges = []
        for bound, sign in ((env.u_lower, 1.0), (env.u_upper, -1.0)):
            edge = bound
            for _ in range(4):
                edge = bound + sign * 1e-6 * max(1.0, abs(edge))
            edges.append(ulps_around(edge))
        # the rule's flip lies inside each window of means
        for window, label in zip(edges, ("mean-lower", "mean-upper")):
            seen = {label in active_constraints_reference(u, 0.0, env) for u in window}
            assert seen == {True, False}, (env, label)
        means = [*edges[0], *edges[1], env.u_lower, env.u_upper, 0.0, 0.5]
        mean, var = [], []
        for u in means:
            tol = 1e-6 * max(1.0, abs(u))
            cap = env.kappa_bar * u
            window = ulps_around(cap - max(tol, 1e-6 * cap))
            seen = {"variance" in active_constraints_reference(u, v, env) for v in window}
            assert seen == {True, False}, (env, u)
            for v in (*window, 0.0, cap):
                mean.append(u)
                var.append(v)
        got = nature._active_constraints(np.array(mean), np.array(var), env)
        assert got == [active_constraints_reference(u, v, env) for u, v in zip(mean, var)], env
        rows += len(got)
    assert rows > 1000


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


def test_pick_worst_unknown_objective_errors():
    d = DiscreteDistribution.point_mass(50.0)
    for objective in ("typo", "AN", ""):
        with pytest.raises(ValueError, match=f"unknown objective {objective!r}"):
            pick_worst([d], 2.0, objective)


def test_non_finite_toll_raises_value_error():
    d = DiscreteDistribution.point_mass(50.0)
    for r in (math.nan, math.inf, -math.inf):
        for objective in ("ufn", "an"):
            with pytest.raises(ValueError, match="toll must be finite"):
                pick_worst([d], r, objective)
        for value in (expected_user_cost, expected_revenue):
            with pytest.raises(ValueError, match="toll must be finite"):
                value(d, r)


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


def test_two_point_table_past_its_bound_is_refused(monkeypatch):
    # 9 skip counts x 60 grid points below the mean: at the bound the search
    # runs, one cell over it is refused with the sizes
    grid = PriceGrid(0.0, 100.0, 1.0)
    monkeypatch.setattr(nature, "_MAX_LOWER_CELLS", 9 * 60)
    assert solve_nature_two_point(grid, 60.0, 1.0, 10, 70.0).low_count > 0
    monkeypatch.setattr(nature, "_MAX_LOWER_CELLS", 9 * 60 - 1)
    with pytest.raises(ValueError) as got:
        solve_nature_two_point(grid, 60.0, 1.0, 10, 70.0)
    assert str(got.value) == (
        "9 skip counts x 60 points below the mean exceed the bound of 539 counts x points"
    )


def test_two_point_responses_in_blocks_match_one_block(monkeypatch):
    grid = PriceGrid(0.0, 100.0, 0.5)
    points = grid.points()
    table = first_feasible_lower(points[points < 60.0], 60.0, 2.0, 12, grid.Q)
    whole = two_point_responses(table, 60.0, 12, points)
    monkeypatch.setattr(nature, "_PICK_CELLS", 3 * table[0].size + 1)  # blocks of 3 tolls
    for got, want in zip(two_point_responses(table, 60.0, 12, points), whole):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("solver", [solve_nature_ufn, solve_nature_an])
def test_band_below_a_zero_floor_solves_as_the_band_clipped_at_zero(solver):
    # no distribution on the grid has a negative mean, so the lower edge
    # offers nothing and only its active-constraint label differs
    grid = PriceGrid(0.0, 60.0, 1.0)
    points = grid.points()
    below = solver(grid, MomentEnvelope(-5.0, 40.0, 3.0), points)
    clipped = solver(grid, MomentEnvelope(0.0, 40.0, 3.0), points)
    assert len(below) == len(clipped) == points.size
    for got, want in zip(below, clipped):
        assert got.distribution.support.tolist() == want.distribution.support.tolist()
        assert got.distribution.mass.tolist() == want.distribution.mass.tolist()
        assert (got.objective_value, got.usage_probability) == (
            want.objective_value,
            want.usage_probability,
        )
        labels = tuple(c for c in want.active_constraints if c != "mean-lower")
        assert got.active_constraints == labels


def test_negative_edge_mean_is_refused_without_the_walk(monkeypatch):
    grid = PriceGrid(0.0, 60.0, 1.0)
    monkeypatch.setattr(nature, "simplex_solve", None)  # never called
    levels = _levels(grid.points(), grid.points(), "ufn")
    *_, admitted = _simplex_minima(grid, MomentEnvelope(-5.0, -5.0, 3.0), levels)
    assert admitted.tolist() == [False] * grid.n_points
