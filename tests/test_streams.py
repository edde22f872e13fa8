"""Batched seeding of the regret drivers' random streams.

Each (kind, trial, link) cell draws from PCG64 seeded by
``SeedSequence(entropy=(seed, kind, trial, link))``.  The drivers derive
those states for a whole block of cells in one array pass and re-seed one
shared Generator per cell; these tests hold both against numpy's own
seeding and the drivers against a per-cell reference loop.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from tollkit import experiments
from tollkit.core import PriceGrid, estimate_moment_envelope
from tollkit.experiments import (
    _KIND_ASSIGN,
    _KIND_DYNAMIC,
    _KIND_EVAL,
    _KIND_HISTORY,
    _KIND_PAIRS,
    _KIND_PARAMS,
    FAMILIES,
    DistributionSpec,
    ExperimentConfig,
    RegretRow,
    _cell_seeds,
    _draw_costs,
    _stream,
    _streams,
    _trial_blocks,
    family_spec,
    run_dynamic_cumulative_regret,
    run_fixed_distribution_experiment,
    run_mixed_distribution_experiment,
)
from tollkit.pricing import two_point_robust_toll

SEED = 20261018

KINDS = (_KIND_HISTORY, _KIND_EVAL, _KIND_DYNAMIC, _KIND_PAIRS, _KIND_ASSIGN, _KIND_PARAMS)

_draws = random.Random(SEED)
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**100 + 3] + [
    _draws.getrandbits(_draws.choice([8, 31, 32, 33, 63, 64, 65, 97])) for _ in range(20)
]

# indices at and past 2**32 split into two entropy words
TRIALS = np.array([0, 1, 7, 2**32 - 1, 2**32, 2**40 + 5], dtype=np.uint64)
LINKS = np.array([0, 3, 2**33 + 1], dtype=np.uint64)


def numpy_state(*entropy: int) -> dict:
    return np.random.PCG64(np.random.SeedSequence(entropy=entropy)).state


def reference_stream(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def as_cells(seeds) -> list[dict]:
    return [{"state": state, "inc": inc} for state, inc in seeds]


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_seeds_match_seed_sequence(seed):
    for kind in KINDS:
        got = as_cells(_cell_seeds(seed, kind, TRIALS[:, None], LINKS))
        want = [
            numpy_state(seed, kind, trial, link)["state"]
            for trial in TRIALS.tolist()
            for link in LINKS.tolist()
        ]
        assert got == want, kind
        # one-word, four-word and five-word keys: shorter than, as long as
        # and longer than the SeedSequence pool
        assert as_cells(_cell_seeds(seed, kind)) == [numpy_state(seed, kind)["state"]]
        assert as_cells(_cell_seeds(seed, kind, 2**32 + 9, 2**63 + 1)) == [
            numpy_state(seed, kind, 2**32 + 9, 2**63 + 1)["state"]
        ]
        assert _stream(seed, kind, 3).bit_generator.state == numpy_state(seed, kind, 3)


def test_limb_seeding_matches_numpy_on_random_cells():
    # 2,400 cells in 8 blocks of random seeds and key entries below and
    # past 2**32, mixed within each block, so one- and two-word entries
    # hash in separate groups.  The low limb of inc + seed carries into the
    # high limb in about half the cells; both branches occur.  The first
    # cells of each block also run as a block of one cell, as _stream
    # seeds its cell.
    draws = random.Random(SEED + 1)
    carries = set()
    for _ in range(8):
        seed = draws.getrandbits(draws.choice([8, 32, 64, 100]))
        kind = draws.choice(KINDS)
        trials = [draws.getrandbits(draws.choice([10, 32, 40, 64])) for _ in range(100)]
        links = [draws.getrandbits(draws.choice([2, 32, 33])) for _ in range(3)]
        key = np.array(trials, dtype=np.uint64)[:, None], np.array(links, dtype=np.uint64)
        got = _cell_seeds(seed, kind, *key)
        cells = [(seed, kind, trial, link) for trial in trials for link in links]
        assert len(got) == len(cells) == 300
        for k, (entropy, (state, inc)) in enumerate(zip(cells, got)):
            assert {"state": state, "inc": inc} == numpy_state(*entropy)["state"], entropy
            _, seed_lo, _, seq_lo = np.random.SeedSequence(entropy).generate_state(4, np.uint64).tolist()
            carries.add((2 * seq_lo + 1) % 2**64 + seed_lo >= 2**64)
            if k < 10:
                assert _cell_seeds(*entropy) == [(state, inc)]
                assert _stream(*entropy).bit_generator.state == numpy_state(*entropy)
    assert carries == {False, True}


def test_seeds_reject_negative_entries():
    with pytest.raises(ValueError, match="nonnegative"):
        _cell_seeds(-1, _KIND_PAIRS)


@pytest.mark.parametrize("family", FAMILIES)
def test_reseeded_generator_draws_like_a_fresh_one(family):
    # Every cell first draws a uint32 and ends on a float32, which leaves
    # half of a 64-bit word buffered; re-seeding must drop it.
    spec = family_spec(family, PriceGrid(0.0, 200.0, 1.0))
    (a_lo, a_hi), (b_lo, b_hi) = spec.param_intervals
    a, b = (a_lo + a_hi) / 2, (b_lo + b_hi) / 2
    trials, links = np.arange(5)[:, None], np.arange(3)
    cells = [(int(t), int(k)) for t in trials[:, 0] for k in links]

    def draws(rng):
        first = rng.integers(0, 2**32, dtype=np.uint32)
        costs = _draw_costs(spec, a, b, 17, rng).tobytes()
        return first, costs, rng.random(dtype=np.float32)

    streams = _streams(SEED, _KIND_EVAL, trials, links)
    for (trial, link), shared in zip(cells, streams, strict=True):
        assert draws(shared) == draws(reference_stream(SEED, _KIND_EVAL, trial, link))


def test_trial_blocks_cover_every_trial_in_near_equal_blocks(monkeypatch):
    cfg = ExperimentConfig(links=2, T=3, history_samples=1, eval_samples=10, seed=1)
    spec = family_spec("gamma", cfg.grid)
    instances = experiments._link_instances(cfg, lambda link: spec)
    # 2 links x (3 draws + _SEED_ENTRIES) entries per trial; room for 3 trials
    monkeypatch.setattr(experiments, "_BLOCK_ELEMENTS", 3 * 2 * (3 + experiments._SEED_ENTRIES))
    blocks = list(_trial_blocks(cfg, instances, _KIND_EVAL, 10, 3))
    assert [trials for trials, _ in blocks] == [range(0, 2), range(2, 5), range(5, 7), range(7, 10)]
    whole = experiments._trial_minima(cfg, instances, _KIND_EVAL, range(10), 3)
    assert np.concatenate([minima for _, minima in blocks]).tobytes() == whole.tobytes()


# --- the drivers against a per-cell reference loop ------------------------------


def ref_instances(cfg, link_spec):
    instances = []
    for link in range(cfg.links):
        spec = link_spec(link)
        rng = reference_stream(cfg.seed, _KIND_PARAMS, link)
        (a_lo, a_hi), (b_lo, b_hi) = spec.param_intervals
        instances.append((spec, float(rng.uniform(a_lo, a_hi)), float(rng.uniform(b_lo, b_hi))))
    return tuple(instances)


def ref_trial_minima(cfg, instances, kind, trial, n):
    """One trial's link minima, drawn and mapped cell by cell: the family's
    own Generator method, then ``offset + scale * raw`` and the clamp."""
    minima = None
    for link, (spec, a, b) in enumerate(instances):
        draw = getattr(reference_stream(cfg.seed, kind, trial, link), spec.family)
        scale, offset = spec.cost_mapping
        costs = np.clip(offset + scale * draw(a, b, n), *spec.clamp)
        minima = costs if minima is None else np.minimum(minima, costs)
    return np.clip(minima, cfg.grid.q, cfg.grid.Q)


def test_trial_minima_match_per_cell_reference_across_blocks(monkeypatch):
    # One instance tuple holds every family and a spec with its own mapping
    # and a clamp narrow enough to bind on both sides; the minimum over
    # links hides most of a link's draws, so each spec also runs alone.
    # 11 trials run in 4 blocks.
    custom = DistributionSpec(
        "normal", ((20.0, 30.0), (5.0, 10.0)), cost_mapping=(3.7, -12.5), clamp=(60.0, 95.0)
    )
    specs = [family_spec(family, PriceGrid(0.0, 200.0, 1.0)) for family in FAMILIES] + [custom]
    for chosen in [specs] + [[spec] for spec in specs]:
        cfg = ExperimentConfig(
            links=len(chosen), T=7, history_samples=1, eval_samples=1, seed=SEED
        )
        instances = experiments._link_instances(cfg, lambda link: chosen[link])
        per_trial = cfg.links * (cfg.T + experiments._SEED_ENTRIES)
        monkeypatch.setattr(experiments, "_BLOCK_ELEMENTS", 3 * per_trial)
        for kind in KINDS:
            blocks = list(_trial_blocks(cfg, instances, kind, 11, cfg.T))
            assert len(blocks) >= 3
            for trials, minima in blocks:
                want = [ref_trial_minima(cfg, instances, kind, t, cfg.T) for t in trials]
                assert minima.tobytes() == np.array(want).tobytes(), (chosen, kind, trials)


def ref_history_tolls(cfg, instances):
    tolls = np.empty(cfg.history_samples)
    for h in range(cfg.history_samples):
        series = ref_trial_minima(cfg, instances, _KIND_HISTORY, h, cfg.H * cfg.T)
        env = estimate_moment_envelope(series, cfg.grid, cfg.confidence_z, cfg.kappa_bar)
        tolls[h] = two_point_robust_toll(cfg.grid, env, cfg.T).toll
    return tolls


def ref_paying(costs, tolls):
    """How many of the costs are at or above each toll, by sort and bisection."""
    ordered = np.sort(costs)
    return costs.size - np.searchsorted(ordered, tolls, side="left")


def ref_hindsight(costs, grid):
    """Lowest toll of the largest revenue over the grid, and that revenue."""
    points = grid.points()
    revenue = points * ref_paying(costs, points)
    best = int(np.argmax(revenue))
    return points[best], revenue[best]


def ref_regret_row(cfg, link_spec, label):
    instances = ref_instances(cfg, link_spec)
    tolls = ref_history_tolls(cfg, instances)
    averaged = cfg.grid.snap(float(np.mean(tolls)))
    scored = np.append(tolls, averaged)
    regret = np.zeros((cfg.eval_samples, scored.size))
    for e in range(cfg.eval_samples):
        minima = ref_trial_minima(cfg, instances, _KIND_EVAL, e, cfg.T)
        _, opt_revenue = ref_hindsight(minima, cfg.grid)
        if opt_revenue <= 0:
            continue
        paying = ref_paying(minima, scored)
        regret[e] = np.clip((opt_revenue - scored * paying) / opt_revenue, 0.0, 1.0)

    def spread(values):
        return float(np.std(values, ddof=1)) if values.size > 1 else 0.0

    per_history, with_average = regret[:, :-1], regret[:, -1]
    return RegretRow(
        family=label,
        average_pct=100.0 * float(np.mean(per_history)),
        stdev_pct=100.0 * spread(per_history.ravel()),
        toll_stdev=spread(tolls),
        averaged_toll_pct=100.0 * float(np.mean(with_average)),
        averaged_toll_stdev_pct=100.0 * spread(with_average),
    )


def ref_mixed(cfg, pool):
    specs = tuple(family_spec(fam, cfg.grid) for fam in pool)
    label = specs[0].family if len({s.family for s in specs}) == 1 else "mixed"
    assignment = tuple(
        specs[int(reference_stream(cfg.seed, _KIND_ASSIGN, link).integers(len(specs)))]
        for link in range(cfg.links)
    )
    return ref_regret_row(cfg, lambda link: assignment[link], label)


def ref_dynamic(cfg, spec):
    instances = ref_instances(cfg, lambda link: spec)
    averaged = cfg.grid.snap(float(np.mean(ref_history_tolls(cfg, instances))))
    costs = np.array(
        [ref_trial_minima(cfg, instances, _KIND_DYNAMIC, p, 1)[0] for p in range(cfg.eval_samples)]
    )
    static_toll, _ = ref_hindsight(costs, cfg.grid)
    opt_cum = np.cumsum(np.where(costs >= static_toll, static_toll, 0.0))
    rob_cum = np.cumsum(np.where(costs >= averaged, averaged, 0.0))
    series = np.zeros(cfg.eval_samples)
    mask = opt_cum > 0
    series[mask] = np.clip((opt_cum[mask] - rob_cum[mask]) / opt_cum[mask], 0.0, 1.0)
    return 100.0 * series


# 131 evaluations split 43/44/44 at the default block size with 7 links
# and T = 10, and into 131 blocks when a block holds one trial.
@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("links, H", [(1, 1), (1, 3), (7, 1), (7, 3)])
def test_drivers_match_per_cell_reference(monkeypatch, block, links, H):
    if block is not None:
        monkeypatch.setattr(experiments, "_BLOCK_ELEMENTS", block)
    cfg = ExperimentConfig(
        links=links, T=10, H=H, history_samples=6, eval_samples=131, seed=SEED + links + H
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        # the stock specs clamp to the grid; the last one clamps each link
        # inside it, before the minimum over links
        narrow = DistributionSpec("normal", ((90.0, 110.0), (10.0, 30.0)), clamp=(95.0, 105.0))
        for spec in [family_spec(family, cfg.grid) for family in FAMILIES] + [narrow]:
            assert run_fixed_distribution_experiment(cfg, spec) == ref_regret_row(
                cfg, lambda link: spec, spec.family
            )
        assert run_mixed_distribution_experiment(cfg) == ref_mixed(cfg, FAMILIES)
        assert run_mixed_distribution_experiment(cfg, ["gamma"]) == ref_mixed(cfg, ["gamma"])
    gamma = family_spec("gamma", cfg.grid)
    got = run_dynamic_cumulative_regret(cfg, gamma)
    assert got.tobytes() == ref_dynamic(cfg, gamma).tobytes()
