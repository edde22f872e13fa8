"""Core types: grids, envelopes, distributions, and revenue primitives."""

from __future__ import annotations

import io
import math
import warnings

import numpy as np
import pytest

from tollkit.config import RunConfig
from tollkit.core import (
    DiscreteDistribution,
    MomentEnvelope,
    PriceGrid,
    estimate_moment_envelope,
    expected_revenue,
    expected_user_cost,
    read_cost_history,
    write_cost_table,
)
from tollkit.experiments import ExperimentConfig

SEED = 20260819

# Worked two-distribution example used throughout: a toll of 90 against two
# candidate cost distributions.
F1 = DiscreteDistribution([89.0, 109.0, 110.0], [0.45, 0.5, 0.05])
F2 = DiscreteDistribution([75.0, 104.0], [0.135, 0.865])


def random_distribution(rng: np.random.Generator, grid: PriceGrid):
    k = int(rng.integers(1, 6))
    support = rng.choice(grid.points(), size=k, replace=False)
    support.sort()
    mass = rng.dirichlet(np.ones(k))
    return DiscreteDistribution(support.tolist(), mass.tolist())


# --- PriceGrid ---------------------------------------------------------------


def test_grid_enumeration_count_and_order():
    g = PriceGrid(0.0, 10.0, 2.0)
    pts = g.points()
    assert pts.tolist() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    assert g.n_points == 6


def test_grid_validation():
    with pytest.raises(ValueError):
        PriceGrid(5.0, 5.0, 1.0)
    with pytest.raises(ValueError):
        PriceGrid(0.0, 10.0, 3.0)  # (Q - q) not a multiple of step
    with pytest.raises(ValueError):
        PriceGrid(0.0, 10.0, 0.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize(
    "build",
    [
        lambda x: PriceGrid(x, 10.0, 1.0),
        lambda x: PriceGrid(0.0, x, 1.0),
        lambda x: PriceGrid(0.0, 10.0, x),
        lambda x: MomentEnvelope(x, 5.0, 1.0),
        lambda x: MomentEnvelope(5.0, x, 1.0),
        lambda x: MomentEnvelope(5.0, 5.0, x),
        lambda x: RunConfig(Q=x),
        lambda x: RunConfig(step=x),
        lambda x: RunConfig(kappa_bar=x),
        lambda x: RunConfig(confidence_z=x),
        lambda x: ExperimentConfig(kappa_bar=x),
        lambda x: ExperimentConfig(confidence_z=x),
    ],
    ids=[
        "grid-q",
        "grid-Q",
        "grid-step",
        "envelope-u_lower",
        "envelope-u_upper",
        "envelope-kappa_bar",
        "config-Q",
        "config-step",
        "config-kappa_bar",
        "config-confidence_z",
        "experiment-kappa_bar",
        "experiment-confidence_z",
    ],
)
def test_non_finite_inputs_rejected(build, bad):
    with pytest.raises(ValueError, match="must be finite"):
        build(bad)


def test_grid_rejects_non_finite_toll_by_name():
    g = PriceGrid(0.0, 100.0, 5.0)
    for bad in (math.nan, math.inf, -math.inf):
        assert not g.contains(bad)
        with pytest.raises(ValueError, match="toll must be finite"):
            g.require_toll(bad)
    with pytest.raises(ValueError, match="toll 7.0 is not on the price grid"):
        g.require_toll(7.0)
    g.require_toll(35.0)


def test_grid_snap_and_clamp_idempotent():
    g = PriceGrid(0.0, 100.0, 5.0)
    rng = np.random.default_rng(SEED)
    for x in rng.uniform(-50.0, 150.0, size=200):
        s = g.snap(float(x))
        assert g.contains(s)
        assert g.snap(s) == s  # idempotent


def test_grid_snap_array_matches_snap():
    rng = np.random.default_rng(SEED)
    for q, Q, step in ((0.0, 100.0, 5.0), (0.0, 200.0, 0.5), (-3.0, 7.5, 0.25), (10.0, 30.0, 2.5)):
        g = PriceGrid(q, Q, step)
        halves = g.points() + step / 2  # exact ties round up
        values = np.concatenate([rng.uniform(q - 20.0, Q + 20.0, 300), halves, g.points()])
        assert g.snap_array(values).tolist() == [g.snap(v) for v in values.tolist()]


def test_grid_index_round_trip():
    g = PriceGrid(10.0, 30.0, 2.5)
    for i, p in enumerate(g.points()):
        assert g.index_of(float(p)) == i
        assert g.value(i) == p


# --- MomentEnvelope ----------------------------------------------------------


def test_envelope_validation():
    with pytest.raises(ValueError):
        MomentEnvelope(10.0, 5.0, 1.0)
    with pytest.raises(ValueError):
        MomentEnvelope(5.0, 10.0, -0.5)
    env = MomentEnvelope(5.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        env.validate_against(PriceGrid(20.0, 40.0, 1.0))


def test_envelope_from_constant_series_is_a_point():
    g = PriceGrid(0.0, 1000.0, 10.0)
    env = estimate_moment_envelope([500.0] * 50, g, confidence_z=1.96)
    assert env.u_lower == 500.0
    assert env.u_upper == 500.0


def test_envelope_matches_textbook_formulas():
    g = PriceGrid(0.0, 1000.0, 1.0)
    rng = np.random.default_rng(SEED)
    series = rng.uniform(100.0, 900.0, size=50)
    env = estimate_moment_envelope(series, g, confidence_z=1.96, kappa_bar=2.0)
    n = series.size
    mean = series.sum() / n
    sd = math.sqrt(((series - mean) ** 2).sum() / (n - 1))
    half = 1.96 * sd / math.sqrt(n)
    assert abs(env.u_lower - max(g.q, mean - half)) <= 1e-12
    assert abs(env.u_upper - min(g.Q, mean + half)) <= 1e-12
    assert env.kappa_bar == 2.0


def test_envelope_empty_series_errors():
    g = PriceGrid(0.0, 10.0, 1.0)
    with pytest.raises(ValueError, match="no history"):
        estimate_moment_envelope([], g)


@pytest.mark.parametrize(
    "series, confidence_z, message",
    [
        ([1.0, math.nan, 3.0], 1.96, r"series must be finite, got nan at index 1"),
        ([1.0, math.inf], 1.96, r"series must be finite, got inf at index 1"),
        ([-math.inf, 2.0], 1.96, r"series must be finite, got -inf at index 0"),
        ([5.0], math.nan, r"confidence_z must be finite, got nan"),
        ([5.0, 6.0], math.inf, r"confidence_z must be finite, got inf"),
    ],
    ids=["nan-cost", "inf-cost", "minus-inf-cost", "nan-z", "inf-z"],
)
def test_envelope_rejects_non_finite_input_by_name(series, confidence_z, message):
    # Raised at entry, before any mean or spread is computed: no numpy
    # RuntimeWarning and no message about the band it would have made
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            estimate_moment_envelope(series, PriceGrid(0.0, 10.0, 1.0), confidence_z=confidence_z)


# --- DiscreteDistribution ----------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        DiscreteDistribution([1.0, 1.0], [0.5, 0.5])  # not strictly increasing
    with pytest.raises(ValueError):
        DiscreteDistribution([1.0, 2.0], [0.7, 0.7])  # mass sum off
    with pytest.raises(ValueError):
        DiscreteDistribution([1.0, 2.0], [-0.1, 1.1])


def test_from_rows_matches_one_row_construction():
    # Padded rows of sizes 1-5: each distribution is the constructor's on
    # its own row, byte for byte, and owns its arrays.
    rng = np.random.default_rng(SEED + 1)
    g = PriceGrid(0.0, 100.0, 1.0)
    rows = [random_distribution(rng, g) for _ in range(40)]
    sizes = [len(d) for d in rows]
    support, mass = np.zeros((2, len(rows), max(sizes)))
    for k, d in enumerate(rows):
        # unnormalized masses, within the 1e-9 tolerance
        support[k, : len(d)], mass[k, : len(d)] = d.support, d.mass * (1 + 1e-10)
    dists, masses = DiscreteDistribution.from_rows(support, mass, sizes)
    for k, (d, n) in enumerate(zip(dists, sizes)):
        want = DiscreteDistribution(support[k, :n].tolist(), mass[k, :n].tolist())
        assert d.support.tolist() == want.support.tolist()
        assert d.mass.tolist() == want.mass.tolist() == masses[k, :n].tolist()
        assert d.support.base is None and d.mass.base is None
        assert (masses[k, n:] == 0).all()
    # a bad row among good ones raises the constructor's error
    bad = (([1.0, 1.0], [0.5, 0.5]), ([1.0, 2.0], [0.7, 0.7]), ([1.0, 2.0], [-0.1, 1.1]))
    for bad_support, bad_mass in bad:
        with pytest.raises(ValueError) as want:
            DiscreteDistribution(bad_support, bad_mass)
        support[3, :2], mass[3, :2] = bad_support, bad_mass
        sizes[3] = 2
        with pytest.raises(ValueError) as got:
            DiscreteDistribution.from_rows(support, mass, sizes)
        assert str(got.value) == str(want.value)


def test_from_pairs_merges_duplicates():
    d = DiscreteDistribution.from_pairs([(5.0, 0.25), (5.0, 0.25), (9.0, 0.5)])
    assert list(d.support) == [5.0, 9.0]
    assert list(d.mass) == [0.5, 0.5]


def test_point_mass_moments():
    d = DiscreteDistribution.point_mass(42.0)
    assert d.mean() == 42.0
    assert d.variance() == 0.0
    assert d.usage_probability(42.0) == 1.0
    assert d.usage_probability(42.5) == 0.0


# --- revenue / user cost -----------------------------------------------------


def test_expected_revenue_worked_values():
    point = DiscreteDistribution.point_mass(500.0)
    assert expected_revenue(point, 400.0) == 400.0  # full usage
    assert abs(expected_revenue(F2, 90.0) - 77.85) <= 1e-12


def test_expected_user_cost_worked_values():
    # 0.135 * 75 + 0.865 * 90 = 87.975, exactly
    assert expected_user_cost(F2, 90.0) == 87.975
    # 0.45 * 89 + 0.55 * 90 = 89.55
    assert abs(expected_user_cost(F1, 90.0) - 89.55) <= 1e-12


def test_user_cost_point_mass_above_toll():
    d = DiscreteDistribution.point_mass(70.0)
    assert expected_user_cost(d, 90.0) == 70.0
    assert expected_user_cost(d, 70.0) == 70.0  # indifferent user pays


def test_tie_at_toll_counts_as_usage():
    d = DiscreteDistribution([50.0, 90.0], [0.5, 0.5])
    assert d.usage_probability(90.0) == 0.5
    assert expected_revenue(d, 90.0) == 45.0


def test_user_cost_identity_randomized():
    g = PriceGrid(0.0, 100.0, 1.0)
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        d = random_distribution(rng, g)
        r = float(rng.choice(g.points()))
        direct = expected_user_cost(d, r)
        rebate = r - math.fsum(
            m * max(r - c, 0.0) for c, m in zip(d.support, d.mass)
        )
        assert abs(direct - rebate) <= 1e-12
        # user cost = revenue + money spent on the free road
        free_side = math.fsum(m * c for c, m in zip(d.support, d.mass) if c < r)
        assert abs(direct - (expected_revenue(d, r) + free_side)) <= 1e-9


# --- read_cost_history ---------------------------------------------------------


def test_history_csv_round_trip():
    g = PriceGrid(0.0, 100.0, 1.0)
    states = np.array([[10.0, 20.0], [30.0, 5.0], [7.0, 7.0]])
    buf = io.StringIO()
    write_cost_table(buf, states)
    text = buf.getvalue()
    again = read_cost_history(io.StringIO(text), g, T=3, windows=1)
    assert np.array_equal(again, states)
    buf2 = io.StringIO()
    write_cost_table(buf2, again)
    assert buf2.getvalue() == text
    assert again.min(axis=1).tolist() == [10.0, 5.0, 7.0]
    # the states must fill H windows of T states each
    with pytest.raises(ValueError, match=r"^<stream>: 3 states, expected T\*H = 2\*2 = 4$"):
        read_cost_history(io.StringIO(text), g, T=2, windows=2)


def test_history_clamps_and_warns_above_threshold():
    g = PriceGrid(0.0, 10.0, 1.0)
    rows = ["state,arc,cost"] + [f"{s},0,{50.0}" for s in range(4)]
    with pytest.warns(UserWarning, match=r"^<stream>: clamped 4/4 history costs \(100.0%\) into \[0.0, 10.0\]$"):
        hist = read_cost_history(io.StringIO("\n".join(rows)), g, T=4, windows=1)
    assert hist.max() == 10.0
    # one clamped cost in 20 is the warning rate itself: clamped, no warning
    rows = ["state,arc,cost"] + [f"{s},0,{50.0 if s == 0 else 5.0}" for s in range(20)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hist = read_cost_history(io.StringIO("\n".join(rows)), g, T=20, windows=1)
    assert hist[:, 0].tolist() == [10.0] + [5.0] * 19


def test_history_incomplete_matrix_errors():
    g = PriceGrid(0.0, 10.0, 1.0)
    text = "state,arc,cost\n0,0,1\n0,1,2\n1,0,3\n"
    with pytest.raises(ValueError):
        read_cost_history(io.StringIO(text), g, T=2, windows=1)
