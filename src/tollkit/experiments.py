"""Monte-Carlo harnesses measuring how robust tolls perform in hindsight.

Four experiment drivers share one sampling architecture: a master seed is
expanded into independent substreams keyed by (kind, trial, link, channel),
so every trial is reproducible in isolation and the family-choice stream of
the mixed experiment never touches the cost stream.  Pinning the mixed
family pool to a single family therefore reproduces the fixed-family run
bit for bit.  The drivers seed a block of trials at once: one pass of
uint32 and uint64 array arithmetic derives every cell's stream state
(numpy's SeedSequence hash, then PCG64's 128-bit seeding on 64-bit limbs),
and one Generator is re-seeded per cell.  A cell draws raw values; the
family's affine cost mapping and clamp run once over the whole block.  The
links' parameters and the mixed family assignment take one seeding pass
over all links each.

Each link's distribution parameters are drawn once per run (their own
substream) and shared by every history and evaluation trial: a history
series is an estimate of the same world its toll is later judged in, which
is what makes hindsight regret a statement about the toll rule rather than
about cross-instance transfer.

Drivers:

* ``run_fixed_distribution_experiment`` -- one cost family on every link;
  regret of per-history robust tolls against the hindsight-optimal toll.
* ``run_mixed_distribution_experiment`` -- each link draws its own family.
* ``run_dynamic_cumulative_regret`` -- cumulative regret of the averaged
  robust toll against the best static toll over a long horizon.
* ``run_real_data_experiment`` -- virtual toll roads between random node
  pairs of an ingested network, robust pricing vs. a sample-mean toll.

Regret is scored one way: ``pricing.realized_revenue_table`` gives every
grid toll's revenue r * #{c >= r} on each realized sample (costs clamped
into the grid), its row maximum is the hindsight optimum, and ``_regret``
scores (opt - got) / opt clipped into [0, 1], 0 where opt <= 0.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    FAMILIES,
    PriceGrid,
    estimate_moment_envelope,
    require_finite,
    require_horizon,
    require_integer,
)
from .network import TollNetwork, state_shortest_path_costs
from .pricing import (
    _two_point_scan,
    optimal_toll_for_realized_costs,
    realized_revenue_table,
    two_point_robust_toll,
)

__all__ = [
    "FAMILIES",
    "DistributionSpec",
    "ExperimentConfig",
    "RegretRow",
    "RealDataResult",
    "family_spec",
    "sample_costs",
    "run_fixed_distribution_experiment",
    "run_mixed_distribution_experiment",
    "run_dynamic_cumulative_regret",
    "run_real_data_experiment",
]

# Substream kind codes (first entropy word after the master seed).  The
# mixed experiment's per-link family assignment draws from its own kind, so
# cost streams are identical whether the family was pinned or drawn.
_KIND_HISTORY = 0
_KIND_EVAL = 1
_KIND_DYNAMIC = 2
_KIND_PAIRS = 3
_KIND_ASSIGN = 4
_KIND_PARAMS = 5

# numpy's SeedSequence hash constants and default pool size, and PCG64's
# 128-bit LCG multiplier (numpy/random/bit_generator.pyx, pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 2549297995355413924 << 64 | 4865540595714422341
_MASK32 = (1 << 32) - 1

# float64 entries per block of trials.  One cell's seed counts as
# _SEED_ENTRIES of them: what it holds through its block's draws, two
# 128-bit Python ints (44 bytes each), their tuple (56) and a list slot
# (8), is 152 bytes or 19 entries, and 24 leaves room for the uint64 limbs
# it is derived from.  The seeding pass itself peaks at about 54 entries a
# cell (tracemalloc), briefly, before the block's draws start.
_BLOCK_ELEMENTS = 1 << 15
_SEED_ENTRIES = 24


@dataclass(frozen=True)
class DistributionSpec:
    """A parametric cost family with uniform parameter intervals.

    ``param_intervals`` holds the two parameter ranges (shape/scale,
    mean/stdev, ...); reversed intervals are normalized on construction.
    ``cost_mapping`` is an affine ``(scale, offset)`` applied to raw draws,
    and ``clamp`` bounds the mapped costs (normally the price-grid range).
    """

    family: str
    param_intervals: tuple[tuple[float, float], tuple[float, float]]
    cost_mapping: tuple[float, float] = (1.0, 0.0)
    clamp: tuple[float, float] = (0.0, 200.0)

    def __post_init__(self) -> None:
        fam = self.family.lower()
        if fam not in FAMILIES:
            raise ValueError(
                f"unknown cost family {self.family!r}; expected one of {FAMILIES}"
            )
        object.__setattr__(self, "family", fam)
        if len(self.param_intervals) != 2:
            raise ValueError("param_intervals must hold exactly two intervals")
        fixed = []
        for lo, hi in self.param_intervals:
            lo, hi = float(lo), float(hi)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("parameter intervals must be finite")
            if lo > hi:  # printed order is sometimes reversed; normalize
                lo, hi = hi, lo
            fixed.append((lo, hi))
        object.__setattr__(self, "param_intervals", tuple(fixed))
        scale, offset = self.cost_mapping
        if not (math.isfinite(scale) and math.isfinite(offset)) or scale <= 0:
            raise ValueError("cost_mapping scale must be finite and positive")
        lo, hi = self.clamp
        if not lo <= hi:
            raise ValueError("clamp range must satisfy lower <= upper")


def family_spec(family: str, grid: PriceGrid) -> DistributionSpec:
    """The stock parameter intervals and cost mapping for one family.

    Unit-interval draws (beta) are mapped affinely onto the grid range;
    gamma and lognormal draws live near 1 and are scaled by 100; normal
    draws are already in money units.
    """
    fam = family.lower()
    if fam == "beta":
        return DistributionSpec(
            "beta",
            ((2.0, 5.0), (2.0, 5.0)),
            cost_mapping=(grid.Q - grid.q, grid.q),
            clamp=(grid.q, grid.Q),
        )
    if fam == "gamma":
        # Second interval is printed upper-first in the source table.
        return DistributionSpec(
            "gamma",
            ((1.0, 3.0), (1.0 / 3.0, 1.0 / 5.0)),
            cost_mapping=(100.0, 0.0),
            clamp=(grid.q, grid.Q),
        )
    if fam == "normal":
        return DistributionSpec(
            "normal",
            ((90.0, 110.0), (10.0, 30.0)),
            clamp=(grid.q, grid.Q),
        )
    if fam == "lognormal":
        return DistributionSpec(
            "lognormal",
            ((0.1, 0.3), (0.1, 0.3)),
            cost_mapping=(100.0, 0.0),
            clamp=(grid.q, grid.Q),
        )
    raise ValueError(f"unknown cost family {family!r}; expected one of {FAMILIES}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Scale and seeding knobs shared by the Monte-Carlo drivers."""

    links: int = 5
    T: int = 50
    H: int = 1
    kappa_bar: float = 1.0
    history_samples: int = 50
    eval_samples: int = 2500
    seed: int = 0
    grid: PriceGrid = field(default_factory=lambda: PriceGrid(0.0, 200.0, 1.0))
    confidence_z: float = 1.96

    def __post_init__(self) -> None:
        counts = ("links", "T", "H", "history_samples", "eval_samples")
        require_integer(**{name: getattr(self, name) for name in counts + ("seed",)})
        for name in counts:
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive count")
        require_horizon(self.T, 2)
        require_finite(kappa_bar=self.kappa_bar, confidence_z=self.confidence_z)
        if self.kappa_bar < 0:
            raise ValueError("kappa_bar must be nonnegative")
        if self.confidence_z < 0:
            raise ValueError("confidence_z must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class RegretRow:
    """One summary row: hindsight regret of robust tolls, in percent."""

    family: str
    average_pct: float
    stdev_pct: float
    toll_stdev: float
    averaged_toll_pct: float
    averaged_toll_stdev_pct: float


@dataclass(frozen=True)
class RealDataResult:
    """Aggregate and per-pair regret of virtual toll roads on a network."""

    robust_avg_pct: float
    robust_stdev_pct: float
    mean_toll_avg_pct: float
    mean_toll_stdev_pct: float
    per_pair_robust: tuple[float, ...]
    per_pair_mean_toll: tuple[float, ...]
    toll_ratios: tuple[float, ...]
    n_pairs_used: int
    n_skipped: int


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count + 1`` constants of numpy's SeedSequence hash, as a
    (count + 1, 1) uint32 column.  They step the same way whatever the
    data, so hash ``k`` xors with constant ``k`` and multiplies by ``k + 1``."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's SeedSequence ``hashmix`` of ``value`` (N,) or (k, N) under
    ``k`` successive hash constants: row i uses ``consts[i]`` and
    ``consts[i + 1]`` of a (k + 1, 1) slice."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return out ^ (out >> np.uint32(16))


def _mul_high(a: np.ndarray, b: int) -> np.ndarray:
    """The high 64 bits of each uint64 of ``a`` times the 64-bit int ``b``,
    from the four products of their 32-bit halves, none of which wraps."""
    half, low = np.uint64(32), np.uint64(_MASK32)
    a0, a1 = a & low, a >> half
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    cross0, cross1 = a0 * b1, a1 * b0
    carry = (a0 * b0 >> half) + (cross0 & low) + (cross1 & low)
    return a1 * b1 + (cross0 >> half) + (cross1 >> half) + (carry >> half)


def _pcg64_seeds(entropy: np.ndarray) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` seeded by ``SeedSequence(entropy=row)`` for
    each row of an (N, L) uint32 entropy array.

    The SeedSequence pool mixing and ``generate_state(4, uint64)`` run as
    uint32 array arithmetic on the (pool word, row) array, one op per
    source word.  PCG64's ``set_seed`` (state 0, inc = 2 seq + 1, step, add
    the seed, step: state = ((inc + seed) * MULT + inc) mod 2**128) runs as
    uint64 array arithmetic on each 128-bit number's high and low limbs,
    and each cell's Python ints are built from the limbs at the end.
    """
    n, length = entropy.shape
    words = entropy.T  # (L, N)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * max(_POOL, length))
    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[: min(length, _POOL)] = words[:_POOL]
    pool = _hashmix(pool, consts[: _POOL + 1])
    at = _POOL
    # a source word's hashes, one per destination, are the same word under
    # consecutive constants
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[at : at + _POOL]))
        at += _POOL - 1
    for src in range(_POOL, length):
        pool = _mix(pool, _hashmix(words[src], consts[at : at + _POOL + 1]))
        at += _POOL
    out = _hashmix(np.concatenate([pool, pool]), _hash_constants(_INIT_B, _MULT_B, 8))
    # little-endian word pairs: seed high, seed low, seq high, seq low
    seed_hi, seed_lo, seq_hi, seq_lo = (
        out[0::2].astype(np.uint64) | out[1::2].astype(np.uint64) << np.uint64(32)
    )
    one, top = np.uint64(1), np.uint64(63)
    mult_hi, mult_lo = divmod(_PCG_MULT, 1 << 64)
    inc_hi, inc_lo = seq_hi << one | seq_lo >> top, seq_lo << one | one
    # inc + seed, the low limb's carry into the high one
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    # times MULT, mod 2**128: the high limb of lo * mult_lo plus the two
    # cross products' low limbs
    hi = _mul_high(lo, mult_lo) + lo * np.uint64(mult_hi) + hi * np.uint64(mult_lo)
    lo = lo * np.uint64(mult_lo)
    # plus inc
    lo += inc_lo
    hi += inc_hi + (lo < inc_lo)
    # each cell's state and inc as 16 little-endian bytes, read as an int
    state = np.stack([lo, hi], axis=1).astype("<u8", copy=False).tobytes()
    inc = np.stack([inc_lo, inc_hi], axis=1).astype("<u8", copy=False).tobytes()
    to_int = int.from_bytes
    return [
        (to_int(state[k : k + 16], "little"), to_int(inc[k : k + 16], "little"))
        for k in range(0, len(state), 16)
    ]


def _int_words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a nonnegative int, least significant
    first (0 is one word)."""
    if value < 0:
        raise ValueError("seed and key entries must be nonnegative integers")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _cell_seeds(seed: int, *key) -> list[tuple[int, int]]:
    """PCG64 ``(state, inc)`` of ``SeedSequence(entropy=(seed, *key))`` for
    every cell.  Key entries are ints or arrays of nonnegative ints (below
    2**64); arrays broadcast, and cells run in C order of the broadcast."""
    shape = np.broadcast_shapes(*(np.shape(k) for k in key))
    cols = [np.broadcast_to(np.asarray(k, dtype=np.uint64), shape).ravel() for k in key]
    lead = _int_words(int(seed))
    # bit j of a cell's layout: key entry j takes two words; cells with the
    # same layout hash together
    layout = np.zeros(math.prod(shape), dtype=np.int64)
    for j, c in enumerate(cols):
        layout |= (c > _MASK32).astype(np.int64) << j
    seeds: list = [None] * layout.size
    for code in np.flatnonzero(np.bincount(layout)).tolist():
        rows = np.flatnonzero(layout == code)
        words = [np.full(rows.size, w, dtype=np.uint64) for w in lead]
        for j, c in enumerate(cols):
            words.append(c[rows] & np.uint64(_MASK32))
            if code >> j & 1:
                words.append(c[rows] >> np.uint64(32))
        entropy = np.stack(words, axis=1).astype(np.uint32)
        for row, cell in zip(rows.tolist(), _pcg64_seeds(entropy)):
            seeds[row] = cell
    return seeds


def _streams(seed: int, *key) -> Iterator[np.random.Generator]:
    """One Generator per cell of :func:`_cell_seeds`, in order.

    It is the same Generator each time, re-seeded for the next cell, so a
    cell's draws must be taken before the iteration moves on.
    """
    rng = np.random.Generator(np.random.PCG64(0))  # the seed is overwritten
    bitgen = rng.bit_generator
    # one state dict, updated per cell: the setter copies what it reads
    cell = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": cell, "has_uint32": 0, "uinteger": 0}
    for state, inc in _cell_seeds(seed, *key):
        cell["state"], cell["inc"] = state, inc
        bitgen.state = full
        yield rng


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The generator of one (kind, trial, link, ...) cell.

    Every cell's stream is PCG64 seeded by
    ``SeedSequence(entropy=(seed, *key))``; the drivers compute those seeds
    in batches (:func:`_cell_seeds`), this is the batch of one.  Under
    numpy's stream-compatibility policy (NEP 19) the draws are the same on
    every numpy version.
    """
    return next(_streams(seed, *key))


def _draw_params(
    spec: DistributionSpec, rng: np.random.Generator
) -> tuple[float, float]:
    """One uniform draw from each parameter interval."""
    (a_lo, a_hi), (b_lo, b_hi) = spec.param_intervals
    return float(rng.uniform(a_lo, a_hi)), float(rng.uniform(b_lo, b_hi))


def _draw_costs(
    spec: DistributionSpec, a: float, b: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """``n`` i.i.d. raw draws from one parametrized family.  Callers map
    them (``offset + scale * raw``, over a whole block at once) and clamp."""
    if spec.family == "beta":
        return rng.beta(a, b, n)
    if spec.family == "gamma":
        return rng.gamma(a, b, n)
    if spec.family == "normal":
        return rng.normal(a, b, n)
    return rng.lognormal(a, b, n)


def sample_costs(spec: DistributionSpec, n: int, seed) -> np.ndarray:
    """Draw family parameters uniformly, then ``n`` i.i.d. mapped costs.

    ``seed`` may be an integer, a SeedSequence, or a Generator; the same
    seed always yields the same sequence.  Costs are clamped to the spec's
    range after the affine mapping.
    """
    require_integer(n=n)
    if not isinstance(seed, (np.random.SeedSequence, np.random.Generator)):
        require_integer(seed=seed)
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    a, b = _draw_params(spec, rng)
    scale, offset = spec.cost_mapping
    return np.clip(offset + scale * _draw_costs(spec, a, b, n, rng), *spec.clamp)


# A link's ground truth for one run: its family plus the parameters drawn
# for it.  Histories estimate it; evaluations judge tolls on it.
_LinkInstance = tuple[DistributionSpec, float, float]


def _link_instances(
    cfg: ExperimentConfig,
    link_spec: Callable[[int], DistributionSpec],
) -> tuple[_LinkInstance, ...]:
    """Draw each link's parameters once, from a dedicated substream; one
    seeding pass covers every link."""
    instances = []
    for link, rng in enumerate(_streams(cfg.seed, _KIND_PARAMS, np.arange(cfg.links))):
        spec = link_spec(link)
        instances.append((spec, *_draw_params(spec, rng)))
    return tuple(instances)


def _trial_minima(
    cfg: ExperimentConfig,
    instances: tuple[_LinkInstance, ...],
    kind: int,
    trials: range,
    n: int,
) -> np.ndarray:
    """Element-wise minimum over the per-link cost draws of each trial (each
    link's mapped and clamped by its spec), clipped to the grid: shape
    (len(trials), n).  One seeding pass covers every (trial, link) cell, and
    the mapping runs once over the block's raw draws."""
    links = len(instances)
    costs = np.empty((len(trials), links, n))
    streams = _streams(
        cfg.seed, kind, np.arange(trials.start, trials.stop)[:, None], np.arange(links)
    )
    for cell, rng in enumerate(streams):
        spec, a, b = instances[cell % links]
        costs[divmod(cell, links)] = _draw_costs(spec, a, b, n, rng)
    # (links, 1) columns: each link's offset + scale * raw, then its clamp
    scale, offset, lo, hi = np.array(
        [(*spec.cost_mapping, *spec.clamp) for spec, _, _ in instances]
    ).T[:, :, None]
    costs *= scale
    costs += offset
    np.clip(costs, lo, hi, out=costs)
    return np.clip(costs.min(axis=1), cfg.grid.q, cfg.grid.Q)


def _trial_blocks(
    cfg: ExperimentConfig,
    instances: tuple[_LinkInstance, ...],
    kind: int,
    count: int,
    n: int,
) -> Iterator[tuple[range, np.ndarray]]:
    """:func:`_trial_minima` of trials 0..count-1 in near-equal blocks of
    at most ``_BLOCK_ELEMENTS`` entries, so memory does not grow with
    ``count``."""
    per_trial = len(instances) * (n + _SEED_ENTRIES)
    blocks = -(-count // max(1, _BLOCK_ELEMENTS // per_trial))
    for k in range(blocks):
        trials = range(k * count // blocks, (k + 1) * count // blocks)
        yield trials, _trial_minima(cfg, instances, kind, trials, n)


def _history_tolls(
    cfg: ExperimentConfig,
    instances: tuple[_LinkInstance, ...],
) -> np.ndarray:
    """Robust toll from each history sample's link-minima series."""
    tolls = np.empty(cfg.history_samples)
    blocks = _trial_blocks(
        cfg, instances, _KIND_HISTORY, cfg.history_samples, cfg.H * cfg.T
    )
    for trials, minima in blocks:
        for h, series in zip(trials, minima):
            env = estimate_moment_envelope(
                series, cfg.grid, cfg.confidence_z, cfg.kappa_bar
            )
            points, _, _, best = _two_point_scan(cfg.grid, env, cfg.T)
            tolls[h] = points[best]
    return tolls


def _regret(opt, got) -> np.ndarray:
    """Relative regret ``(opt - got) / opt`` clipped into [0, 1],
    elementwise with broadcasting.  Where ``opt <= 0`` there is nothing to
    collect, every toll is equally optimal, and regret is 0."""
    opt = np.asarray(opt, dtype=float)
    lost = opt - got
    return np.clip(np.divide(lost, opt, out=np.zeros(lost.shape), where=opt > 0), 0, 1)


def _evaluate_tolls(
    cfg: ExperimentConfig,
    instances: tuple[_LinkInstance, ...],
    tolls: np.ndarray,
) -> np.ndarray:
    """Regret matrix (eval sample, toll) against per-sample optimal tolls.

    Every toll is a grid point, so its revenue is a column of the revenue
    table, which the hindsight optimum bounds: regret lands in [0, 1].
    """
    columns = np.searchsorted(cfg.grid.points(), tolls)
    regret = np.empty((cfg.eval_samples, tolls.size))
    blocks = _trial_blocks(cfg, instances, _KIND_EVAL, cfg.eval_samples, cfg.T)
    for trials, block in blocks:
        revenue = realized_revenue_table(block, cfg.grid)
        regret[trials.start : trials.stop] = _regret(
            revenue.max(axis=1)[:, None], revenue[:, columns]
        )
    return regret


def _spread(values: np.ndarray) -> float:
    """Sample standard deviation, 0 for a single observation."""
    return float(np.std(values, ddof=1)) if values.size > 1 else 0.0


def _run_regret(
    cfg: ExperimentConfig,
    link_spec: Callable[[int], DistributionSpec],
    label: str,
) -> RegretRow:
    instances = _link_instances(cfg, link_spec)
    tolls = _history_tolls(cfg, instances)
    averaged = cfg.grid.snap(float(np.mean(tolls)))
    regret = _evaluate_tolls(cfg, instances, np.append(tolls, averaged))
    per_history = regret[:, :-1]
    with_average = regret[:, -1]
    row = RegretRow(
        family=label,
        average_pct=100.0 * float(np.mean(per_history)),
        stdev_pct=100.0 * _spread(per_history.ravel()),
        toll_stdev=_spread(tolls),
        averaged_toll_pct=100.0 * float(np.mean(with_average)),
        averaged_toll_stdev_pct=100.0 * _spread(with_average),
    )
    if row.averaged_toll_pct > row.average_pct + 1e-9:
        warnings.warn(
            f"{label}: averaged-toll regret {row.averaged_toll_pct:.3f}% exceeds "
            f"the per-history average {row.average_pct:.3f}% (an empirical "
            "regularity, not a guarantee)",
            stacklevel=3,
        )
    return row


def run_fixed_distribution_experiment(
    cfg: ExperimentConfig, spec: DistributionSpec
) -> RegretRow:
    """Every link shares one family; each link draws its own parameters.

    The parameters are drawn once per run and fixed across trials.  Each
    history sample yields a robust toll (two-point search on the envelope
    of the per-state link minima); each evaluation sample yields a
    hindsight-optimal toll.  The row reports mean/stdev percent regret over
    all history x evaluation pairs, the stdev of the robust tolls, and the
    regret of the single grid-snapped average robust toll.
    """
    return _run_regret(cfg, lambda link: spec, spec.family)


def run_mixed_distribution_experiment(
    cfg: ExperimentConfig,
    family_pool: Sequence[str] | None = None,
) -> RegretRow:
    """As the fixed experiment, but each link draws its own cost family.

    The assignment is a property of the link — drawn once, shared by every
    history and evaluation trial — so the mixture the tolls are fitted on is
    the mixture they are judged on.  The draw consumes a dedicated
    substream, so a single-family pool reproduces
    ``run_fixed_distribution_experiment`` exactly.
    """
    pool = tuple(family_pool) if family_pool is not None else FAMILIES
    if not pool:
        raise ValueError("family pool must not be empty")
    specs = tuple(family_spec(fam, cfg.grid) for fam in pool)
    label = specs[0].family if len({s.family for s in specs}) == 1 else "mixed"
    assignment = tuple(
        specs[int(rng.integers(len(specs)))]
        for rng in _streams(cfg.seed, _KIND_ASSIGN, np.arange(cfg.links))
    )
    return _run_regret(cfg, lambda link: assignment[link], label)


def run_dynamic_cumulative_regret(
    cfg: ExperimentConfig, spec: DistributionSpec
) -> np.ndarray:
    """Cumulative percent regret of the averaged robust toll, per period.

    The benchmark is the single best static toll over the whole horizon
    (``cfg.eval_samples`` periods, one fresh link-minima draw each), so the
    final entry equals the direct whole-horizon relative regret.  Periods
    before any benchmark revenue accrues contribute zero.
    """
    instances = _link_instances(cfg, lambda link: spec)
    tolls = _history_tolls(cfg, instances)
    averaged = cfg.grid.snap(float(np.mean(tolls)))
    periods = cfg.eval_samples
    costs = np.empty(periods)
    for trials, minima in _trial_blocks(cfg, instances, _KIND_DYNAMIC, periods, 1):
        costs[trials.start : trials.stop] = minima[:, 0]
    static_toll, _ = optimal_toll_for_realized_costs(costs, cfg.grid)
    opt_cum = np.cumsum(np.where(costs >= static_toll, static_toll, 0.0))
    rob_cum = np.cumsum(np.where(costs >= averaged, averaged, 0.0))
    return 100.0 * _regret(opt_cum, rob_cum)


def run_real_data_experiment(
    net: TollNetwork,
    pairs: int,
    history_cut: int,
    grid: PriceGrid | None = None,
    T: int = 50,
    kappa_bar: float = 1.0,
    confidence_z: float = 1.96,
    seed: int = 0,
) -> RealDataResult:
    """Price a virtual toll road between random node pairs of a network.

    For each pair, the per-state shortest-path cost between the nodes
    (undirected, all arcs) is the free-route margin series; the first
    ``history_cut`` states estimate the envelope, and regret is evaluated
    over all states against the hindsight-optimal toll.  A sample-mean toll
    is priced on the same history as the baseline.  Pairs with no
    connecting path are skipped and counted.
    """
    require_integer(pairs=pairs, history_cut=history_cut, T=T, seed=seed)
    require_horizon(T, 2)
    if pairs < 1:
        raise ValueError("need at least one node pair")
    n_states = net.state_costs.shape[0]
    if not 1 <= history_cut <= n_states:
        raise ValueError(
            f"history cut {history_cut} outside the {n_states} available states"
        )
    nodes = net.nodes  # at least two: the endpoints differ

    rng = _stream(seed, _KIND_PAIRS)
    ends = [
        tuple(nodes[k] for k in rng.choice(len(nodes), size=2, replace=False))
        for _ in range(pairs)
    ]
    margins = state_shortest_path_costs(net, ends, undirected=True)
    margins = margins[np.isfinite(margins).all(axis=1)]  # the connected pairs
    if not len(margins):
        raise ValueError("no connected node pairs found")

    if grid is None:
        grid = PriceGrid(0.0, max(1.0, math.ceil(float(margins.max()))), 1.0)

    tolls = np.empty((len(margins), 2))  # robust, sample mean
    for pair, series in enumerate(margins):
        history = series[:history_cut]
        env = estimate_moment_envelope(history, grid, confidence_z, kappa_bar)
        tolls[pair] = two_point_robust_toll(grid, env, T).toll, grid.snap(np.mean(history))
    points = grid.points()
    revenue = realized_revenue_table(margins, grid)
    opt = revenue.max(axis=1)
    got = np.take_along_axis(revenue, np.searchsorted(points, tolls), axis=1)
    robust_arr, mean_arr = _regret(opt, got.T)
    scored = opt > 0  # a positive optimum has a positive toll
    ratios = tolls[scored, 0] / points[revenue.argmax(axis=1)[scored]]
    return RealDataResult(
        robust_avg_pct=100.0 * float(np.mean(robust_arr)),
        robust_stdev_pct=100.0 * _spread(robust_arr),
        mean_toll_avg_pct=100.0 * float(np.mean(mean_arr)),
        mean_toll_stdev_pct=100.0 * _spread(mean_arr),
        per_pair_robust=tuple(robust_arr.tolist()),
        per_pair_mean_toll=tuple(mean_arr.tolist()),
        toll_ratios=tuple(ratios.tolist()),
        n_pairs_used=len(margins),
        n_skipped=pairs - len(margins),
    )
