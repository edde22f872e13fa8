"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Each criterion runs as its own test and records a ``criterion N: PASS/FAIL``
line; the lines are echoed in the terminal summary (see ``conftest.py``) so
a full run always shows the gate verdicts.  Criteria with a stated runtime
budget fail when the budget is exceeded, even if every assertion held.
"""

from __future__ import annotations

import time
import warnings

import numpy as np
import pytest

from oracle import brute_force_nature
from tollkit.cli import main as cli_main
from tollkit.core import (
    DiscreteDistribution,
    MomentEnvelope,
    PriceGrid,
    expected_revenue,
    expected_user_cost,
)
from tollkit.experiments import (
    _KIND_HISTORY,
    ExperimentConfig,
    _evaluate_tolls,
    _history_tolls,
    _link_instances,
    _trial_minima,
    family_spec,
    run_dynamic_cumulative_regret,
    run_fixed_distribution_experiment,
)
from tollkit.ingest import (
    RECORD_HEADER,
    build_graph_from_segments,
    grid_observations,
    ingest_to_network,
    interpolate_missing,
    parse_traffic_records,
)
from tollkit.nature import (
    TwoPointResponse,
    pick_worst,
    solve_nature_an,
    solve_nature_two_point,
    solve_nature_ufn,
)
from tollkit.network import allocate_arc_tolls
from tollkit.pricing import epsilon_sweep_robust_toll, two_point_robust_toll

SEED = 20260819
FAMILIES = ("beta", "gamma", "normal", "lognormal")

RESULTS: list[str] = []

# stash shared between criteria 3 and 4 (3 runs the instance loop, 4 reads it)
_STRUCTURE: dict[str, list] = {"support_sizes": [], "lp_gaps": []}


def _gate(number: int, budget: float | None, check) -> None:
    start = time.perf_counter()
    try:
        detail = check()
    except BaseException as exc:
        RESULTS.append(f"criterion {number:2d}: FAIL - {exc}")
        print(RESULTS[-1])
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed > budget:
        line = (
            f"criterion {number:2d}: FAIL - checks passed but took "
            f"{elapsed:.1f}s > {budget:.0f}s budget"
        )
        RESULTS.append(line)
        print(line)
        pytest.fail(line)
    RESULTS.append(f"criterion {number:2d}: PASS - {detail} [{elapsed:.1f}s]")
    print(RESULTS[-1])


# --- 1: uniform closed form ---------------------------------------------------------


def test_criterion_01_uniform_closed_form():
    def check() -> str:
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            q = int(rng.integers(0, 31))
            Q = q + int(rng.integers(40, 201))
            grid = PriceGrid(q, Q, 1.0)
            points = grid.points()
            uniform = DiscreteDistribution(points, np.full(points.size, 1.0 / points.size))
            revenue = [expected_revenue(uniform, float(r)) for r in points]
            toll = float(points[int(np.argmax(revenue))])
            assert abs(toll - Q / 2) <= 1.0 + 1e-9, (q, Q, toll)
        return "10/10 uniform grids price within one step of Q/2"

    _gate(1, 1.0, check)


# --- 2: worked two-distribution example ---------------------------------------------


def test_criterion_02_worked_example():
    def check() -> str:
        f1 = DiscreteDistribution([89.0, 109.0, 110.0], [0.45, 0.50, 0.05])
        f2 = DiscreteDistribution([75.0, 104.0], [0.135, 0.865])
        cost = expected_user_cost(f2, 90.0)
        assert cost == 87.975, cost
        an_idx, an_val = pick_worst([f1, f2], 90.0, "an")
        assert an_idx == 0, "revenue-minimizing pick should be the first entry"
        ufn_idx, ufn_val = pick_worst([f1, f2], 90.0, "ufn")
        assert ufn_idx == 1 and ufn_val == cost
        assert expected_user_cost(f2, 90.0) < expected_user_cost(f1, 90.0)
        return f"user cost 87.975 exact; AN picks F1 ({an_val:g}), UFN ranks F2 lower ({ufn_val:g})"

    _gate(2, None, check)


# --- 3 & 4: randomized oracle equivalence and structural theorems --------------------


def _random_small_instance(rng):
    step = float(rng.choice([0.5, 1.0, 2.0]))
    n = int(rng.integers(6, 26))
    q = step * int(rng.integers(0, 4))
    grid = PriceGrid(q, q + step * (n - 1), step)
    points = grid.points()
    lo = float(rng.choice(points))
    hi = lo if rng.random() < 0.5 else min(grid.Q, lo + float(rng.uniform(0.0, grid.Q - lo)))
    kappa = 0.0 if rng.random() < 0.15 else float(rng.uniform(0.05, 1.5))
    env = MomentEnvelope(lo, hi, kappa)
    T = int(rng.integers(2, 9))
    r = float(rng.choice(points))
    return grid, env, T, r


def _exhaustive_two_point(grid, mu, kappa_bar, T, r):
    """Reference scan over every (low count, lower point) pair."""
    points = grid.points()
    budget = kappa_bar * mu * (T - 1)
    best = None
    best_key = None
    for lam in range(1, T):
        for ell in points[points < mu]:
            upper = (mu * T - lam * ell) / (T - lam)
            if upper > grid.Q + 1e-9:
                continue
            spread = lam * (ell - mu) ** 2 + (T - lam) * (upper - mu) ** 2
            if spread > budget + 1e-9:
                continue
            key = (lam * ell + (T - lam) * r, -lam, ell)
            if best_key is None or key < best_key:
                best_key = key
                best = TwoPointResponse(
                    lower=float(ell), upper=float(upper), low_count=lam, mean=mu
                )
    if best is None:
        return TwoPointResponse(lower=mu, upper=mu, low_count=0, mean=mu)
    return best


def _enumerate_two_point_toll(grid, env, T):
    """BR curve from the exhaustive response at every toll."""
    points = grid.points()
    mu = env.u_lower
    usage = np.zeros(points.size, dtype=int)
    for i, r in enumerate(points):
        usage[i] = _exhaustive_two_point(grid, mu, env.kappa_bar, T, float(r)).usage_count(
            T, float(r)
        )
    floor_idx = grid.index_of(mu)
    usage[floor_idx] = max(usage[floor_idx], 1)
    br = points * usage
    best = int(np.argmax(br))
    return float(points[best]), float(br[best]), usage[best] / T


def _enumerate_epsilon_sweep(grid, env, T):
    """Best (usage level, toll) pair by direct scan of the whole table."""
    points = grid.points()
    usage = [solve_nature_ufn(grid, env, float(r)).usage_probability for r in points]
    best = None  # (value, toll, eps)
    for k in range(1, T + 1):
        eps = k / T
        feasible = [i for i in range(points.size) if usage[i] >= eps - 1e-9]
        if not feasible:
            continue
        r_eps = float(points[max(feasible)])
        value = eps * r_eps * T
        if (
            best is None
            or value > best[0] + 1e-12
            or (value >= best[0] - 1e-12 and r_eps < best[1])
        ):
            best = (value, r_eps, eps)
    if best is None or best[0] <= 1e-12:
        return 0.0, grid.q, 0.0
    return best


def test_criterion_03_oracle_equivalence():
    def check() -> str:
        rng = np.random.default_rng(SEED + 3)
        for trial in range(100):
            grid, env, T, r = _random_small_instance(rng)
            slows = brute_force_nature(grid, env, [(r, "ufn"), (r, "an")])
            solvers = (("ufn", solve_nature_ufn), ("an", solve_nature_an))
            for (objective, solver), slow in zip(solvers, slows):
                fast = solver(grid, env, r)
                assert abs(fast.objective_value - slow.objective_value) <= 1e-9, (
                    trial,
                    objective,
                    fast.objective_value,
                    slow.objective_value,
                )
                _STRUCTURE["support_sizes"].append(len(fast.distribution))

            mu, kappa = env.u_lower, env.kappa_bar
            tp = solve_nature_two_point(grid, mu, kappa, T, r)
            ref = _exhaustive_two_point(grid, mu, kappa, T, r)
            assert (tp.low_count, tp.lower, tp.upper) == (
                ref.low_count,
                ref.lower,
                ref.upper,
            ), trial
            assert tp.objective(T, r) == ref.objective(T, r)
            # The dominance check compares what the returned distribution
            # actually costs a user (per period) against the LP optimum; the
            # search's own minimand substitutes min(upper, r) = r and so
            # overstates the cost whenever the toll clears every feasible
            # upper point.
            lp_floor = solve_nature_ufn(grid, MomentEnvelope(mu, mu, kappa), r)
            tp_cost = expected_user_cost(tp.as_distribution(T), r)
            _STRUCTURE["lp_gaps"].append(
                (tp_cost - lp_floor.objective_value, grid.step)
            )

            result = two_point_robust_toll(grid, env, T)
            toll, value, eps = _enumerate_two_point_toll(grid, env, T)
            assert result.toll == toll, trial
            assert result.br_curve[result.toll] == pytest.approx(value, abs=1e-9)
            assert result.epsilon == pytest.approx(eps, abs=1e-12)

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sweep = epsilon_sweep_robust_toll(grid, env, T)
            value, toll, eps = _enumerate_epsilon_sweep(grid, env, T)
            assert sweep.toll == toll, trial
            assert sweep.epsilon == pytest.approx(eps, abs=1e-12)
            if value > 1e-12:
                assert sweep.br_curve[sweep.toll] == pytest.approx(value, abs=1e-9)
        return "100 instances: LP vs brute <= 1e-9; two-point and sweep match enumeration"

    _gate(3, 60.0, check)


def test_criterion_04_structural_theorems():
    def check() -> str:
        sizes = _STRUCTURE["support_sizes"]
        gaps = _STRUCTURE["lp_gaps"]
        assert sizes and gaps, "criterion 3 must populate the structure stash first"
        assert max(sizes) <= 3, f"support size {max(sizes)} exceeds 3"
        worst = max(gap - step for gap, step in gaps)
        assert worst <= 1e-9, f"two-point exceeded the LP value by more than a step: {worst}"

        rng = np.random.default_rng(SEED + 4)
        for _ in range(50):
            step = float(rng.choice([0.5, 1.0]))
            n = int(rng.integers(5, 30))
            grid = PriceGrid(0.0, step * (n - 1), step)
            points = grid.points()
            k = int(rng.integers(1, min(n, 6) + 1))
            support = np.sort(rng.choice(points, size=k, replace=False))
            weights = rng.random(k) + 0.05
            dist = DiscreteDistribution(support, weights / weights.sum())
            eps = float(rng.uniform(0.05, 0.95))
            f = np.array(
                [
                    r
                    - sum(max(r - c, 0.0) * m for c, m in zip(dist.support, dist.mass))
                    / (1.0 - eps)
                    for r in points
                ]
            )
            second = np.diff(f, 2)
            assert (second <= 1e-9).all(), "second differences must be nonpositive"
            star = int(np.argmax(f))
            r_star = float(points[star])
            below = dist.cdf(r_star - step) if star > 0 else 0.0
            assert below <= (1.0 - eps) + 1e-9
            assert dist.cdf(r_star) >= (1.0 - eps) - 1e-9
        return (
            f"{len(sizes)} LP solutions all <= 3 atoms; two-point within one step of LP; "
            "50 quantile/concavity checks"
        )

    _gate(4, None, check)


# --- 5: wide-grid qualitative reproduction -------------------------------------------


def test_criterion_05_wide_grid_shapes():
    def check() -> str:
        grid = PriceGrid(0.0, 1000.0, 10.0)

        def ufn_revenue_curve(kappa: float) -> np.ndarray:
            env = MomentEnvelope(500.0, 500.0, kappa)
            out = np.empty(grid.n_points)
            for i, r in enumerate(grid.points()):
                out[i] = float(r) * solve_nature_ufn(grid, env, float(r)).usage_probability
            return out

        curve60 = ufn_revenue_curve(60.0)
        env60 = MomentEnvelope(500.0, 500.0, 60.0)
        for r in range(350, 501, 10):
            an_rev = solve_nature_an(grid, env60, float(r)).objective_value
            ufn_rev = curve60[grid.index_of(float(r))]
            assert ufn_rev >= an_rev - 1e-6, (r, ufn_rev, an_rev)

        peak = int(np.argmax(curve60))
        assert 0 < peak < grid.n_points - 1, "revenue peak must be interior"
        diffs = np.diff(curve60)
        slack = grid.step + 1e-6
        assert (diffs[:peak] >= -slack).all(), "curve falls by more than a step before its peak"
        assert (diffs[peak:] <= slack).all(), "curve rises by more than a step after its peak"
        signs = [0 if abs(d) <= slack else (1 if d > 0 else -1) for d in diffs]
        nonzero = [s for s in signs if s]
        flips = sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)
        assert flips <= 1, "more than one genuine sign change in the revenue curve"

        peak5 = int(np.argmax(ufn_revenue_curve(5.0)))
        assert peak <= peak5, (grid.value(peak), grid.value(peak5))
        return (
            f"AN <= UFN revenue on [350, 500]; single peak, argmax "
            f"{grid.value(peak):g} (kappa 60) <= {grid.value(peak5):g} (kappa 5)"
        )

    _gate(5, 30.0, check)


# --- 6 & 7: simulated regret at desk scale --------------------------------------------


def _desk_config() -> ExperimentConfig:
    return ExperimentConfig(
        links=5,
        T=50,
        H=1,
        kappa_bar=1.0,
        history_samples=50,
        eval_samples=500,
        seed=SEED,
        grid=PriceGrid(0.0, 200.0, 1.0),
    )


def test_criterion_06_simulated_regret():
    def check() -> str:
        cfg = _desk_config()
        caps = {"beta": 15.0, "gamma": 20.0, "normal": 15.0, "lognormal": 15.0}
        rows = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for family in FAMILIES:
                row = run_fixed_distribution_experiment(cfg, family_spec(family, cfg.grid))
                rows[family] = row
                assert row.average_pct <= caps[family], (family, row.average_pct)

        # Sample-mean baseline on gamma: price each history at its mean and
        # compare full regret matrices on the same evaluation draws.  The
        # baseline is a fine average performer here, but its downside is much
        # heavier: the comparison is between the worst regrets either toll
        # rule was observed to suffer, which is what "can give regret as high
        # as ..." quantifies.
        gamma = family_spec("gamma", cfg.grid)
        instances = _link_instances(cfg, lambda link: gamma)
        robust_tolls = _history_tolls(cfg, instances)
        histories = _trial_minima(
            cfg, instances, _KIND_HISTORY, range(cfg.history_samples), cfg.H * cfg.T
        )
        mean_tolls = np.array([cfg.grid.snap(float(np.mean(h))) for h in histories])
        robust_regret = 100.0 * _evaluate_tolls(cfg, instances, robust_tolls)
        mean_regret = 100.0 * _evaluate_tolls(cfg, instances, mean_tolls)
        assert float(np.mean(robust_regret)) == pytest.approx(
            rows["gamma"].average_pct, abs=1e-9
        )
        worst_robust = float(np.max(robust_regret))
        worst_mean = float(np.max(mean_regret))
        assert worst_mean > worst_robust, (worst_mean, worst_robust)
        detail = ", ".join(f"{f} {rows[f].average_pct:.2f}%" for f in FAMILIES)
        return (
            f"{detail}; gamma worst-case regret: sample-mean baseline "
            f"{worst_mean:.1f}% > robust {worst_robust:.1f}%"
        )

    _gate(6, 600.0, check)


def test_criterion_07_dynamic_cumulative_regret():
    def check() -> str:
        cfg = _desk_config()
        finals = {}
        for family in FAMILIES:
            series = run_dynamic_cumulative_regret(cfg, family_spec(family, cfg.grid))
            assert series.shape == (cfg.eval_samples,)
            finals[family] = float(series[-1])
            assert finals[family] < 5.0, (family, finals[family])
        return "500-period regret " + ", ".join(f"{f} {v:.2f}%" for f, v in finals.items())

    _gate(7, None, check)


# --- 8: allocation against full enumeration --------------------------------------------


def _brute_allocation(bounds, incidence):
    bound_arr = np.asarray(bounds, dtype=float)
    inc = np.asarray(incidence, dtype=int)
    caps = [int(bound_arr[inc[:, a] == 1].min()) for a in range(inc.shape[1])]
    mesh = np.meshgrid(*[np.arange(c + 1) for c in caps], indexing="ij")
    vectors = np.stack([g.ravel() for g in mesh], axis=1)
    ok = (vectors @ inc.T <= bound_arr).all(axis=1)
    vectors = vectors[ok]
    totals = vectors.sum(axis=1)
    top = int(totals.max())
    winners = vectors[totals == top]
    return top, np.array(min(map(tuple, winners)))


def test_criterion_08_allocation_enumeration():
    def check() -> str:
        fixture = allocate_arc_tolls(
            [10.0, 8.0, 5.0], [[0, 1, 1], [1, 1, 0], [1, 0, 0]]
        )
        assert int(fixture.sum()) == 15 and list(fixture) == [5, 0, 10]

        rng = np.random.default_rng(SEED + 8)
        for trial in range(200):
            n_arcs = int(rng.integers(1, 5))
            n_paths = int(rng.integers(1, 6))
            inc = rng.integers(0, 2, size=(n_paths, n_arcs))
            for p in range(n_paths):
                if not inc[p].any():
                    inc[p, int(rng.integers(0, n_arcs))] = 1
            for a in range(n_arcs):
                if not inc[:, a].any():
                    inc[int(rng.integers(0, n_paths)), a] = 1
            bounds = rng.integers(0, 21, size=n_paths).astype(float)
            got = allocate_arc_tolls(bounds, inc)
            top, best_vec = _brute_allocation(bounds, inc)
            assert int(got.sum()) == top, (trial, got, top)
            assert list(got) == list(best_vec), (trial, got, best_vec)
        return "figure fixture -> 15; 200 random instances match enumeration exactly"

    _gate(8, 10.0, check)


# --- 9: ingestion properties and the end-to-end harness --------------------------------


def _city_records_text() -> str:
    """Deterministic 20-segment street grid over four observation buckets."""
    rng = np.random.default_rng(SEED + 9)
    segments = []
    for y in range(3):
        for x in range(4):
            segments.append((f"h{y}{x}", (x, y), (x + 1, y)))
    for x in range(4):
        for y in range(2):
            segments.append((f"v{x}{y}", (x, y), (x, y + 1)))
    assert len(segments) == 20
    stamps = (0, 900, 1800, 2700)
    masked = {(int(rng.integers(0, 20)), int(rng.integers(1, 3))) for _ in range(8)}
    lines = [RECORD_HEADER]
    for idx, (sid, (x1, y1), (x2, y2)) in enumerate(segments):
        for bucket, stamp in enumerate(stamps):
            if (idx, bucket) in masked:
                continue
            speed = float(rng.uniform(25.0, 55.0))
            lines.append(f"{stamp},{sid},{speed:.6f},{x1},{y1},{x2},{y2}")
    return "\n".join(lines) + "\n"


def _x_crossing_text() -> str:
    rows = [
        RECORD_HEADER,
        "0,ne,30,0,0,1,1",
        "900,ne,40,0,0,1,1",
        "0,nw,35,1,0,0,1",
        "900,nw,25,1,0,0,1",
    ]
    return "\n".join(rows) + "\n"


def test_criterion_09_ingestion(tmp_path):
    def check() -> str:
        # interpolation identity on a complete series
        complete = tmp_path / "complete.csv"
        rows = [RECORD_HEADER]
        for seg, (sx, sy, ex, ey) in (("a", (0, 0, 1, 0)), ("b", (1, 0, 1, 1))):
            for i, stamp in enumerate((0, 900, 1800)):
                rows.append(f"{stamp},{seg},{30 + 2 * i + (seg == 'b')},{sx},{sy},{ex},{ey}")
        complete.write_text("\n".join(rows) + "\n")
        raw = grid_observations(parse_traffic_records(str(complete)))
        filled = interpolate_missing(raw)
        assert filled.timestamps == raw.timestamps
        for seg in raw.speeds:
            assert np.array_equal(filled.speeds[seg], raw.speeds[seg])

        # exact recovery of affine series under 20% masking
        rng = np.random.default_rng(SEED + 90)
        masked = {(s, int(rng.integers(1, 9))) for s in range(3) for _ in range(2)}
        affine = tmp_path / "affine.csv"
        rows = [RECORD_HEADER]
        for s in range(3):
            slope, start = 0.5 + 0.25 * s, 20.0 + 5.0 * s
            for i in range(10):
                if (s, i) in masked:
                    continue
                rows.append(f"{900 * i},s{s},{start + slope * i},{s},0,{s},1")
        affine.write_text("\n".join(rows) + "\n")
        filled = interpolate_missing(grid_observations(parse_traffic_records(str(affine))))
        for s in range(3):
            slope, start = 0.5 + 0.25 * s, 20.0 + 5.0 * s
            expected = start + slope * np.arange(10)
            assert np.allclose(filled.speeds[f"s{s}"], expected, atol=1e-9)

        # X-crossing skeleton
        xfile = tmp_path / "cross.csv"
        xfile.write_text(_x_crossing_text())
        skeleton = build_graph_from_segments(parse_traffic_records(str(xfile)))
        assert len(skeleton.node_coords) == 5 and len(skeleton.arcs) == 4

        # synthetic city: complete cost matrix from a partially observed feed
        city = tmp_path / "city.csv"
        city.write_text(_city_records_text())
        records = parse_traffic_records(str(city))
        skeleton, filled, costs, report = ingest_to_network(
            records, PriceGrid(0.0, 200.0, 1.0), scale=600.0
        )
        assert report.n_segments == 20 and len(skeleton.arcs) == 20
        assert costs.shape == (4, 20)
        assert np.isfinite(costs).all() and (costs > 0).all()

        # end-to-end harness through the command line
        ingest_dir = tmp_path / "ingested"
        code = cli_main(
            ["ingest", "--records", str(city), "--scale", "600", "--out-dir", str(ingest_dir)]
        )
        assert code == 0
        for name in ("arcs.csv", "states.csv", "ingest_report.txt", "run_manifest.txt"):
            assert (ingest_dir / name).exists(), name
        exp_dir = tmp_path / "real"
        code = cli_main(
            [
                "real-exp",
                "--arcs",
                str(ingest_dir / "arcs.csv"),
                "--states",
                str(ingest_dir / "states.csv"),
                "--pairs",
                "10",
                "--seed",
                "11",
                "--out-dir",
                str(exp_dir),
            ]
        )
        assert code == 0
        for name in ("real_regret.csv", "toll_ratio.csv", "run_manifest.txt"):
            assert (exp_dir / name).exists(), name
        return "interpolation identity, affine recovery, 5-node/4-arc crossing, city harness"

    _gate(9, None, check)


# --- 10: byte-identical reruns -----------------------------------------------------------


def test_criterion_10_determinism(tmp_path, capsys):
    def check() -> str:
        city = tmp_path / "city.csv"
        city.write_text(_city_records_text())
        ingest_dir = tmp_path / "net"
        assert (
            cli_main(
                ["ingest", "--records", str(city), "--scale", "600", "--out-dir", str(ingest_dir)]
            )
            == 0
        )
        bounds = tmp_path / "bounds.csv"
        bounds.write_text("path,bound\np1,10\np2,8\np3,5\n")
        incidence = tmp_path / "incidence.csv"
        incidence.write_text(
            "path,arc,used\n"
            "p1,a1,0\np1,a2,1\np1,a3,1\n"
            "p2,a1,1\np2,a2,1\np2,a3,0\n"
            "p3,a1,1\np3,a2,0\np3,a3,0\n"
        )
        commands = [
            ["price", "--u-lower", "90", "--u-upper", "110", "--seed", "2"],
            ["nature", "--u-lower", "100", "--u-upper", "100", "--toll", "80"],
            [
                "simulate",
                "--family",
                "gamma",
                "--links",
                "2",
                "--history-samples",
                "3",
                "--eval-samples",
                "8",
                "--seed",
                "9",
            ],
            ["allocate", "--bounds", str(bounds), "--incidence", str(incidence)],
            [
                "real-exp",
                "--arcs",
                str(ingest_dir / "arcs.csv"),
                "--states",
                str(ingest_dir / "states.csv"),
                "--pairs",
                "6",
                "--seed",
                "3",
            ],
        ]
        n_files = 0
        for i, command in enumerate(commands):
            first = tmp_path / f"run{i}a"
            second = tmp_path / f"run{i}b"
            assert cli_main(command + ["--out-dir", str(first)]) == 0, command
            assert cli_main(command + ["--out-dir", str(second)]) == 0, command
            names = sorted(p.name for p in first.iterdir())
            assert names == sorted(p.name for p in second.iterdir())
            for name in names:
                assert (first / name).read_bytes() == (second / name).read_bytes(), (
                    command,
                    name,
                )
                n_files += 1
        capsys.readouterr()
        return f"5 subcommands, {n_files} artifacts byte-identical across reruns"

    _gate(10, None, check)
