"""Monte-Carlo regret harnesses: sampling, reductions, and CSV output."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tollkit.core import PriceGrid, estimate_moment_envelope
from tollkit.experiments import (
    _KIND_PAIRS,
    DistributionSpec,
    ExperimentConfig,
    RealDataResult,
    RegretRow,
    family_spec,
    run_dynamic_cumulative_regret,
    run_fixed_distribution_experiment,
    run_mixed_distribution_experiment,
    run_real_data_experiment,
    sample_costs,
    write_cumulative_regret,
    write_regret_summary,
    write_toll_ratio,
)
from tollkit.network import Arc, TollNetwork, state_shortest_path_costs
from tollkit.pricing import RobustTollResult, two_point_robust_toll, write_br_curve

SEED = 20260819

GRID = PriceGrid(0.0, 200.0, 1.0)

SMALL = ExperimentConfig(
    links=3,
    T=10,
    H=1,
    kappa_bar=1.0,
    history_samples=4,
    eval_samples=40,
    seed=7,
    grid=GRID,
)

CONSTANT_SPEC = DistributionSpec("normal", ((100.0, 100.0), (0.0, 0.0)))


# --- spec validation and sampling -----------------------------------------------


def test_spec_normalizes_reversed_intervals():
    fwd = DistributionSpec("gamma", ((1.0, 3.0), (0.2, 0.5)))
    rev = DistributionSpec("gamma", ((3.0, 1.0), (0.5, 0.2)))
    assert fwd == rev
    assert fwd.param_intervals == ((1.0, 3.0), (0.2, 0.5))
    a = sample_costs(fwd, 100, 5)
    b = sample_costs(rev, 100, 5)
    assert np.array_equal(a, b)


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown cost family"):
        DistributionSpec("cauchy", ((0.0, 1.0), (0.0, 1.0)))
    with pytest.raises(ValueError, match="exactly two"):
        DistributionSpec("beta", ((0.0, 1.0),))
    with pytest.raises(ValueError, match="finite"):
        DistributionSpec("beta", ((0.0, np.inf), (0.0, 1.0)))
    with pytest.raises(ValueError, match="scale"):
        DistributionSpec("beta", ((2.0, 5.0), (2.0, 5.0)), cost_mapping=(0.0, 0.0))
    with pytest.raises(ValueError, match="clamp"):
        DistributionSpec("beta", ((2.0, 5.0), (2.0, 5.0)), clamp=(5.0, 1.0))


def test_family_specs_cover_catalog():
    for family in ("beta", "gamma", "normal", "lognormal"):
        spec = family_spec(family, GRID)
        assert spec.family == family
        assert spec.clamp == (0.0, 200.0)
    # the gamma scale interval is printed upper-first; normalization flips it
    assert family_spec("gamma", GRID).param_intervals[1] == (0.2, pytest.approx(1 / 3))
    assert family_spec("beta", GRID).cost_mapping == (200.0, 0.0)
    with pytest.raises(ValueError, match="unknown cost family"):
        family_spec("weibull", GRID)


def test_sample_costs_determinism_and_range():
    spec = family_spec("lognormal", GRID)
    a = sample_costs(spec, 1000, 42)
    b = sample_costs(spec, 1000, 42)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 200.0
    with pytest.raises(ValueError, match="at least one"):
        sample_costs(spec, 0, 42)


def test_sample_costs_normal_mean_within_three_standard_errors():
    spec = family_spec("normal", GRID)
    n = 100_000
    draws = sample_costs(spec, n, 123)
    # parameters are drawn once: the expected cost is the drawn mean
    rng = np.random.default_rng(123)
    mean = rng.uniform(90.0, 110.0)
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - mean) <= 3 * se


def test_constant_spec_is_constant():
    draws = sample_costs(CONSTANT_SPEC, 500, 9)
    assert np.all(draws == 100.0)


# --- fixed and mixed experiments ---------------------------------------------------


def test_fixed_experiment_is_deterministic():
    spec = family_spec("beta", GRID)
    row1 = run_fixed_distribution_experiment(SMALL, spec)
    row2 = run_fixed_distribution_experiment(SMALL, spec)
    assert row1 == row2
    assert row1.family == "beta"
    assert 0.0 <= row1.average_pct <= 100.0
    assert row1.stdev_pct >= 0.0


def test_zero_variance_costs_have_zero_regret():
    cfg = ExperimentConfig(
        links=2,
        T=10,
        kappa_bar=0.0,
        history_samples=3,
        eval_samples=20,
        seed=3,
        grid=GRID,
    )
    row = run_fixed_distribution_experiment(cfg, CONSTANT_SPEC)
    assert row.average_pct == 0.0
    assert row.averaged_toll_pct == 0.0
    assert row.toll_stdev == 0.0


def test_mixed_single_family_pool_reproduces_fixed_run():
    beta_row = run_fixed_distribution_experiment(SMALL, family_spec("beta", SMALL.grid))
    pooled = run_mixed_distribution_experiment(SMALL, family_pool=["beta"])
    assert pooled == beta_row  # bit-exact: family draws use their own stream


def test_mixed_experiment_label_and_determinism():
    row1 = run_mixed_distribution_experiment(SMALL)
    row2 = run_mixed_distribution_experiment(SMALL)
    assert row1 == row2
    assert row1.family == "mixed"
    with pytest.raises(ValueError, match="must not be empty"):
        run_mixed_distribution_experiment(SMALL, family_pool=[])


def test_seed_changes_the_draws():
    spec = family_spec("normal", GRID)
    base = run_fixed_distribution_experiment(SMALL, spec)
    other = run_fixed_distribution_experiment(
        ExperimentConfig(
            links=SMALL.links,
            T=SMALL.T,
            H=SMALL.H,
            kappa_bar=SMALL.kappa_bar,
            history_samples=SMALL.history_samples,
            eval_samples=SMALL.eval_samples,
            seed=SMALL.seed + 1,
            grid=SMALL.grid,
        ),
        spec,
    )
    assert base != other


def test_config_validation():
    with pytest.raises(ValueError, match="positive count"):
        ExperimentConfig(links=0)
    with pytest.raises(ValueError, match="kappa_bar"):
        ExperimentConfig(kappa_bar=-1.0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1)


# --- dynamic horizon -----------------------------------------------------------------


def test_dynamic_series_shape_and_range():
    series = run_dynamic_cumulative_regret(SMALL, family_spec("beta", SMALL.grid))
    assert series.shape == (SMALL.eval_samples,)
    assert np.all(series >= 0.0) and np.all(series <= 100.0)
    again = run_dynamic_cumulative_regret(SMALL, family_spec("beta", SMALL.grid))
    assert np.array_equal(series, again)


def test_dynamic_constant_costs_zero_regret():
    cfg = ExperimentConfig(
        links=2,
        T=10,
        kappa_bar=0.0,
        history_samples=3,
        eval_samples=30,
        seed=3,
        grid=GRID,
    )
    series = run_dynamic_cumulative_regret(cfg, CONSTANT_SPEC)
    assert np.all(series == 0.0)


def test_dynamic_final_entry_matches_whole_horizon_regret():
    # White-box: rebuild the period costs from the same substreams and verify
    # the last entry telescopes to the direct whole-horizon relative regret.
    from tollkit.experiments import (
        _KIND_DYNAMIC,
        _history_tolls,
        _link_instances,
        _trial_minima,
    )
    from tollkit.pricing import optimal_toll_for_realized_costs

    cfg = SMALL
    spec = family_spec("gamma", cfg.grid)
    series = run_dynamic_cumulative_regret(cfg, spec)
    instances = _link_instances(cfg, lambda link: spec)
    tolls = _history_tolls(cfg, instances)
    averaged = cfg.grid.snap(float(np.mean(tolls)))
    costs = _trial_minima(cfg, instances, _KIND_DYNAMIC, range(cfg.eval_samples), 1)[:, 0]
    static_toll, opt_revenue = optimal_toll_for_realized_costs(costs, cfg.grid)
    robust_revenue = averaged * np.count_nonzero(costs >= averaged)
    want = 100.0 * np.clip((opt_revenue - robust_revenue) / opt_revenue, 0.0, 1.0)
    assert series[-1] == pytest.approx(want, abs=1e-9)


# --- real-data harness ---------------------------------------------------------------


def path_graph_network(n_nodes: int, n_states: int, seed: int) -> TollNetwork:
    """A line of nodes A-B-C-... with random per-state arc costs."""
    rng = np.random.default_rng(seed)
    names = [chr(ord("A") + i) for i in range(n_nodes)]
    arcs = tuple(
        Arc(names[i], names[i + 1], False) for i in range(n_nodes - 1)
    )
    costs = rng.uniform(1.0, 9.0, size=(n_states, len(arcs)))
    return TollNetwork(arcs, names[0], names[-1], costs)


def test_real_data_experiment_on_connected_network():
    net = path_graph_network(5, 25, SEED)
    result = run_real_data_experiment(net, pairs=8, history_cut=20, seed=11)
    assert isinstance(result, RealDataResult)
    assert result.n_pairs_used == 8
    assert result.n_skipped == 0
    assert len(result.per_pair_robust) == 8
    assert len(result.per_pair_mean_toll) == 8
    assert all(0.0 <= x <= 1.0 for x in result.per_pair_robust)
    assert all(r > 0 for r in result.toll_ratios)
    again = run_real_data_experiment(net, pairs=8, history_cut=20, seed=11)
    assert again == result


def test_real_data_skips_disconnected_pairs():
    base = path_graph_network(4, 10, SEED)
    island = TollNetwork(
        base.arcs + (Arc("X", "Y", False),),
        base.origin,
        base.destination,
        np.column_stack([base.state_costs, np.ones(10)]),
    )
    result = run_real_data_experiment(island, pairs=12, history_cut=8, seed=2)
    assert result.n_skipped >= 1
    assert result.n_pairs_used + result.n_skipped == 12


def ref_real_data(net, pairs, history_cut, grid=None, T=50, seed=0):
    """The real-data driver as a per-pair loop, with the hindsight optimum
    found by sort and bisection: (robust regret, mean-toll regret, ratios),
    and how many pairs had nothing to collect."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, _KIND_PAIRS)))
    series = []
    for _ in range(pairs):
        i, j = rng.choice(len(net.nodes), size=2, replace=False)
        margins = state_shortest_path_costs(
            net, origin=net.nodes[i], destination=net.nodes[j], undirected=True
        )
        if np.all(np.isfinite(margins)):
            series.append(margins)
    if grid is None:
        top = max(float(np.max(m)) for m in series)
        grid = PriceGrid(0.0, max(1.0, math.ceil(top)), 1.0)
    robust, mean, ratios, empty = [], [], [], 0
    for margins in series:
        history = margins[:history_cut]
        env = estimate_moment_envelope(history, grid, 1.96, 1.0)
        robust_toll = two_point_robust_toll(grid, env, T).toll
        mean_toll = grid.snap(float(np.mean(history)))
        clamped = np.sort(np.clip(margins, grid.q, grid.Q))
        points = grid.points()
        revenue = points * (clamped.size - np.searchsorted(clamped, points, side="left"))
        best = int(np.argmax(revenue))
        opt_toll, opt_revenue = float(points[best]), float(revenue[best])
        if opt_revenue <= 0:
            robust.append(0.0)
            mean.append(0.0)
            empty += 1
            continue
        for toll, out in ((robust_toll, robust), (mean_toll, mean)):
            got = toll * float(np.count_nonzero(clamped >= toll))
            out.append(float(np.clip((opt_revenue - got) / opt_revenue, 0.0, 1.0)))
        ratios.append(robust_toll / opt_toll)
    return tuple(robust), tuple(mean), tuple(ratios), empty


def random_network(rng) -> TollNetwork:
    """A random connected network whose first arc costs nothing in every
    state, so some pairs have all-zero margins."""
    n = int(rng.integers(3, 7))
    names = [f"v{k}" for k in range(n)]
    arcs = [Arc(names[int(rng.integers(k))], names[k], False) for k in range(1, n)]
    joined = {frozenset((a.tail, a.head)) for a in arcs}
    for _ in range(n):
        a, b = rng.choice(n, size=2, replace=False)
        if frozenset((names[a], names[b])) not in joined:
            joined.add(frozenset((names[a], names[b])))
            arcs.append(Arc(names[a], names[b], False))
    costs = rng.uniform(0.5, 30.0, size=(int(rng.integers(4, 30)), len(arcs)))
    costs[:, 0] = 0.0
    return TollNetwork(tuple(arcs), names[0], names[-1], costs)


def test_real_data_matches_per_pair_reference():
    rng = np.random.default_rng(SEED)
    empty = 0
    for k in range(24):
        net = random_network(rng)
        states = net.state_costs.shape[0]
        kwargs = dict(
            pairs=int(rng.integers(1, 10)),
            history_cut=int(rng.integers(1, states + 1)),
            grid=None if k % 2 else PriceGrid(0.0, 40.0, 0.5),
            T=int(rng.integers(2, 12)),
            seed=k,
        )
        robust, mean, ratios, zero_pairs = ref_real_data(net, **kwargs)
        empty += zero_pairs
        robust_arr, mean_arr = np.asarray(robust), np.asarray(mean)

        def spread(x):
            return float(np.std(x, ddof=1)) if x.size > 1 else 0.0

        assert run_real_data_experiment(net, **kwargs) == RealDataResult(
            robust_avg_pct=100.0 * float(np.mean(robust_arr)),
            robust_stdev_pct=100.0 * spread(robust_arr),
            mean_toll_avg_pct=100.0 * float(np.mean(mean_arr)),
            mean_toll_stdev_pct=100.0 * spread(mean_arr),
            per_pair_robust=robust,
            per_pair_mean_toll=mean,
            toll_ratios=ratios,
            n_pairs_used=len(robust),
            n_skipped=0,
        )
    assert empty > 0  # some pair had nothing to collect


def test_real_data_validation():
    net = path_graph_network(3, 10, SEED)
    with pytest.raises(ValueError, match="at least one node pair"):
        run_real_data_experiment(net, pairs=0, history_cut=5)
    with pytest.raises(ValueError, match="history cut"):
        run_real_data_experiment(net, pairs=2, history_cut=11)


# --- CSV output ------------------------------------------------------------------------


def test_write_regret_summary_golden(tmp_path):
    row = RegretRow(
        family="beta",
        average_pct=7.5,
        stdev_pct=1.25,
        toll_stdev=3.0,
        averaged_toll_pct=6.0,
        averaged_toll_stdev_pct=0.5,
    )
    path = tmp_path / "regret_summary.csv"
    write_regret_summary([row], path)
    assert path.read_bytes() == (
        b"format_version,family,avg_regret_pct,stdev_regret_pct,toll_stdev,"
        b"avg_toll_regret_pct,avg_toll_stdev_pct\r\n"
        b"1,beta,7.5,1.25,3,6,0.5\r\n"
    )


def test_write_br_curve_golden(tmp_path):
    result = RobustTollResult(
        toll=2.0, br_curve={2.0: 4.0, 1.0: 3.0}, epsilon=1.0, method="two-point"
    )
    path = tmp_path / "br_curve.csv"
    write_br_curve(result, path)
    assert path.read_bytes() == (
        b"format_version,toll,worst_case_revenue\r\n1,1,3\r\n1,2,4\r\n"
    )


def test_write_cumulative_regret_golden(tmp_path):
    path = tmp_path / "cumulative_regret.csv"
    write_cumulative_regret(np.array([0.0, 12.5]), path)
    assert path.read_bytes() == (
        b"format_version,period,cum_regret_pct\r\n1,1,0\r\n1,2,12.5\r\n"
    )


def test_write_toll_ratio_golden(tmp_path):
    path = tmp_path / "toll_ratio.csv"
    write_toll_ratio([1.0, 1.12], path)
    assert path.read_bytes() == (
        b"format_version,pair,ratio\r\n1,1,1\r\n1,2,1.12\r\n"
    )
