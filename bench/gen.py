"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed (plus a pass index where a
workload draws fresh inputs per pass) and nothing else, so the same seed
gives the same inputs.  The program under test only ever receives what
these functions return or write: envelopes, experiment configs and CSV
files.  The generators return their own copy of what they wrote, in the
form the output checks need, so a check never has to read the program's
parse of its own input back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# A pass's envelopes are stratified over these ranges, so every pass sees
# the same spread of cheap and expensive solves whatever the seed; only
# where inside each stratum a value falls is drawn.
CENTRE_RANGE = (40.0, 160.0)
HALF_WIDTH_RANGE = (1.0, 10.0)
KAPPA_RANGE = (0.5, 2.0)

# The 13 x 13 block street lattice: 14 x 14 nodes, 364 segments.
LATTICE_BLOCKS = 13
LATTICE_BUCKETS = 96
BUCKET_SECONDS = 900
FEED_EPOCH = 1_699_999_200  # a multiple of BUCKET_SECONDS
LATTICE_SPACING = 0.01
LATTICE_JITTER = 0.001
BLANK_SHARE = 0.10
FEED_SCALE = 15000.0


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (seed, key...) cell."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def _strata(rng: np.random.Generator, count: int, lo: float, hi: float) -> list[float]:
    """One draw from each of ``count`` equal slices of [lo, hi], in a
    random order."""
    width = (hi - lo) / count
    return [float(lo + width * (i + rng.uniform())) for i in rng.permutation(count)]


def interval_bands(seed: int, pass_index: int, count: int) -> list[tuple[float, float, float]]:
    """``count`` interval mean bands ``(u_lower, u_upper, kappa_bar)``, a
    Latin hypercube over band centre, half-width and variance cap."""
    rng = rng_for(seed, 1, pass_index)
    centres = sorted(_strata(rng, count, *CENTRE_RANGE))
    halves = _strata(rng, count, *HALF_WIDTH_RANGE)
    kappas = _strata(rng, count, *KAPPA_RANGE)
    return [(c - h, c + h, k) for c, h, k in zip(centres, halves, kappas)]


def point_bands(seed: int, pass_index: int, count: int) -> list[tuple[float, float, float]]:
    """``count`` point mean bands ``(mu, mu, kappa_bar)``, a Latin
    hypercube over mean and variance cap."""
    rng = rng_for(seed, 2, pass_index)
    centres = sorted(_strata(rng, count, *CENTRE_RANGE))
    kappas = _strata(rng, count, *KAPPA_RANGE)
    return [(c, c, k) for c, k in zip(centres, kappas)]


def two_point_bands(seed: int, count: int) -> list[tuple[float, float, float]]:
    """Envelopes for the two-point toll check: any band, any variance cap."""
    rng = rng_for(seed, 3)
    bands = []
    for _ in range(count):
        lo = float(rng.uniform(20.0, 180.0))
        bands.append((lo, lo + float(rng.uniform(0.0, 15.0)), float(rng.uniform(0.0, 3.0))))
    return bands


def experiment_seed(seed: int, pass_index: int) -> int:
    """Master seed of one regret-simulation pass."""
    return int(np.random.SeedSequence([int(seed), 4, pass_index]).generate_state(1)[0])


def sample_tolls(seed: int, key: int, points: np.ndarray, count: int) -> list[float]:
    """``count`` distinct grid tolls at which a nature solve is checked."""
    rng = rng_for(seed, 5, key)
    return [float(points[i]) for i in sorted(rng.choice(points.size, count, replace=False))]


# ---------------------------------------------------------------------------
# street lattice traffic feed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    """What the feed generator wrote: one row of ``speeds`` per segment (in
    segment-id order), NaN where the record's speed was left blank."""

    segment_ids: tuple[str, ...]
    ends: tuple[tuple[tuple[float, float], tuple[float, float]], ...]
    speeds: np.ndarray
    n_records: int

    def lengths(self) -> np.ndarray:
        return np.array([math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in self.ends])


def _exact(x: float) -> float:
    """The float the program will parse back from the ``%.12g`` text."""
    return float(f"{x:.12g}")


def write_lattice_feed(seed: int, path: str) -> Lattice:
    """Write the seeded 13 x 13 block lattice feed to ``path``.

    Node positions are jittered so segment lengths differ but no two
    segments come near each other except at shared corners.  Each segment
    has a base speed, a two-peak daily congestion profile and per-record
    noise; about ``BLANK_SHARE`` of the interior buckets (neither the first
    nor the last) are written with a blank speed.  Timestamps fall at a
    seeded offset inside their 15-minute bucket.
    """
    rng = rng_for(seed, 6)
    k = LATTICE_BLOCKS
    jitter = rng.uniform(-LATTICE_JITTER, LATTICE_JITTER, size=(k + 1, k + 1, 2))
    node = {
        (i, j): (
            _exact(-122.4 + LATTICE_SPACING * i + jitter[i, j, 0]),
            _exact(37.7 + LATTICE_SPACING * j + jitter[i, j, 1]),
        )
        for i in range(k + 1)
        for j in range(k + 1)
    }
    ends = []
    for j in range(k + 1):
        for i in range(k):
            ends.append((node[(i, j)], node[(i + 1, j)]))
    for i in range(k + 1):
        for j in range(k):
            ends.append((node[(i, j)], node[(i, j + 1)]))
    ids = tuple(f"s{n:03d}" for n in range(len(ends)))

    b = np.arange(LATTICE_BUCKETS)
    profile = 1.0 - 0.4 * np.exp(-(((b - 32) / 6.0) ** 2)) - 0.3 * np.exp(-(((b - 70) / 6.0) ** 2))
    base = rng.uniform(20.0, 60.0, size=len(ends))
    noise = rng.uniform(0.9, 1.1, size=(len(ends), LATTICE_BUCKETS))
    speeds = np.round(np.maximum(base[:, None] * profile[None, :] * noise, 5.0), 2)
    blank = rng.uniform(size=speeds.shape) < BLANK_SHARE
    blank[:, 0] = blank[:, -1] = False
    speeds = np.where(blank, np.nan, speeds)
    offsets = rng.integers(0, BUCKET_SECONDS, size=LATTICE_BUCKETS)

    lines = ["timestamp,segment_id,speed,lon1,lat1,lon2,lat2"]
    for t in range(LATTICE_BUCKETS):
        ts = FEED_EPOCH + BUCKET_SECONDS * t + int(offsets[t])
        for s, (seg, (p, q)) in enumerate(zip(ids, ends)):
            v = speeds[s, t]
            text = "" if math.isnan(v) else f"{v:.12g}"
            lines.append(f"{ts},{seg},{text},{p[0]:.12g},{p[1]:.12g},{q[0]:.12g},{q[1]:.12g}")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return Lattice(
        segment_ids=ids, ends=tuple(ends), speeds=speeds, n_records=len(lines) - 1
    )


# ---------------------------------------------------------------------------
# small CLI inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliInputs:
    price_band: tuple[float, float]
    nature_mean: float
    nature_toll: float
    mip_band: tuple[float, float]
    mip_toll: float
    bounds: tuple[int, ...]
    incidence: tuple[tuple[int, ...], ...]  # path x arc, 0/1


def cli_inputs(seed: int) -> CliInputs:
    """Mean bands, tolls and an allocation instance for the small commands."""
    rng = rng_for(seed, 7)
    lo = round(float(rng.uniform(60.0, 140.0)), 3)
    price_band = (lo, round(lo + float(rng.uniform(2.0, 15.0)), 3))
    nature_mean = round(float(rng.uniform(60.0, 140.0)), 3)
    nature_toll = float(rng.integers(40, 160))
    mlo = round(float(rng.uniform(60.0, 140.0)), 3)
    mip_band = (mlo, round(mlo + float(rng.uniform(2.0, 15.0)), 3))
    mip_toll = float(rng.integers(40, 160))
    n_paths, n_arcs = 5, 5
    bounds = tuple(int(v) for v in rng.integers(2, 10, size=n_paths))
    inc = rng.uniform(size=(n_paths, n_arcs)) < 0.5
    for a in range(n_arcs):  # every arc on some path, every path uses an arc
        inc[a % n_paths, a] = True
    incidence = tuple(tuple(int(x) for x in row) for row in inc)
    return CliInputs(price_band, nature_mean, nature_toll, mip_band, mip_toll, bounds, incidence)


def write_allocation(inputs: CliInputs, bounds_path: str, incidence_path: str) -> None:
    with open(bounds_path, "w", newline="") as fh:
        fh.write("path,bound\n")
        for p, v in enumerate(inputs.bounds):
            fh.write(f"p{p},{v}\n")
    with open(incidence_path, "w", newline="") as fh:
        fh.write("path,arc,used\n")
        for p, row in enumerate(inputs.incidence):
            for a, used in enumerate(row):
                fh.write(f"p{p},a{a},{used}\n")
