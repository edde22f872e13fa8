"""Core domain types and pricing arithmetic.

A single commuter repeatedly chooses between a tolled road (price ``r``,
taken whenever the alternative cost ``c`` satisfies ``c >= r``; ties take the
toll road) and a free alternative whose cost varies by state.  Everything
downstream prices against an uncertainty set described by a
:class:`MomentEnvelope`: a band for the mean alternative cost plus a cap on
the variance-to-mean ratio.

Money lives on a :class:`PriceGrid` — an evenly spaced set of admissible
prices.  Internally grid values are addressed by integer index so repeated
snapping and enumeration are exact.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "PriceGrid",
    "MomentEnvelope",
    "DiscreteDistribution",
    "CostHistory",
    "TollQuote",
    "estimate_moment_envelope",
    "expected_revenue",
    "expected_user_cost",
    "read_rows",
    "format_cell",
    "write_rows",
]

# Constants the command-line parser needs, kept here so that building it
# imports no solver module; experiments and ingest re-export them.
FAMILIES = ("beta", "gamma", "normal", "lognormal")  # synthetic cost families
FORMAT_VERSION = 1  # first column of every CSV artifact
DEFAULT_BUCKET_MINUTES = 15  # ingest observation bucket width
DEFAULT_MERGE_TOL = 1e-4  # ingest endpoint merge tolerance
DEFAULT_CROSSING_TOL = 1e-4  # ingest segment crossing tolerance

# Feasibility tolerance on probability masses and moment constraints.
MASS_TOL = 1e-9
# Identity tolerance for the two user-cost formulas.
IDENTITY_TOL = 1e-12


def require_finite(**values: float) -> None:
    """Reject NaN and infinities by name; every comparison with NaN is
    false, so range checks alone would let them through."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def flag(text: str) -> bool:
    """A 0/1 field."""
    text = text.strip()
    if text not in ("0", "1"):
        raise ValueError(f"must be 0 or 1, got {text!r}")
    return text == "1"


def _all_finite(values: list) -> bool:
    """True when no value is a NaN or infinite float."""
    try:
        # NaN and infinities survive any sum; a finite sum clears them all.
        if math.isfinite(sum(values)):
            return True
    except (TypeError, OverflowError):  # text, blanks, huge integers
        pass
    return not any(isinstance(v, float) and not math.isfinite(v) for v in values)


class Table(NamedTuple):
    """Converted data rows of one CSV input, stored by column.

    ``lines[i]`` is the file line of row ``i``; ``where`` names the input.
    """

    where: str
    lines: list[int]
    columns: tuple[list, ...]

    def error(self, row: int, message: str) -> ValueError:
        return ValueError(f"{self.where}:{self.lines[row]}: {message}")

    def reject_duplicates(self, keys: Sequence[tuple], describe: Callable[..., str]) -> None:
        """Raise at the first row whose key tuple an earlier row already has:
        ``FILE:LINE: duplicate <describe(*key)>; first at line N``."""
        first: dict = {}
        for row, key in enumerate(keys):
            if first.setdefault(key, row) != row:
                raise self.error(
                    row, f"duplicate {describe(*key)}; first at line {self.lines[first[key]]}"
                )


def read_rows(source, header: str, converters: Sequence[Callable[[str], object]]) -> Table:
    """Read a CSV input, a path or a text stream, whose first line is
    ``header`` (compared stripped and lower-cased).

    Blank rows are skipped.  Every other row must have one field per header
    name; field ``j`` is converted by ``converters[j]`` and may not be a NaN
    or infinite float.  Every error is a ``ValueError`` that starts with
    ``where:line:``, where ``where`` is the path or ``<stream>``.
    """
    names = header.split(",")
    if hasattr(source, "read"):
        where, handle = "<stream>", contextlib.nullcontext(source)
    else:
        where, handle = os.fsdecode(source), open(source, newline="")
    with handle as stream:
        reader = csv.reader(stream)
        try:
            got = next(reader, None)
            if got is None or [h.strip().lower() for h in got] != names:
                raise ValueError(
                    f"{where}:1: unexpected header {','.join(got or [])!r}, "
                    f"expected header {header!r}"
                )
            fields: list[str] = []  # one flat list: a live list per row slows the GC
            lines: list[int] = []
            for row in reader:
                if len(row) != len(names):
                    if "".join(row).strip():
                        raise ValueError(
                            f"{where}:{reader.line_num}: expected {len(names)} "
                            f"fields, got {len(row)}"
                        )
                    continue
                fields += row
                lines.append(reader.line_num)
        except csv.Error as exc:
            raise ValueError(f"{where}:{reader.line_num}: {exc}") from None
    # Convert column by column; only a failure scans rows for its line.
    texts = [fields[j :: len(names)] for j in range(len(names))]
    try:
        columns = tuple(list(map(conv, col)) for conv, col in zip(converters, texts))
    except ValueError:
        columns = ()
    if columns and all(map(_all_finite, columns)):
        return Table(where, lines, columns)
    for line, row in zip(lines, zip(*texts)):
        for name, conv, text in zip(names, converters, row):
            try:
                value = conv(text)
            except ValueError as exc:
                raise ValueError(f"{where}:{line}: {name}: {exc}") from None
            if not _all_finite([value]):
                raise ValueError(f"{where}:{line}: {name} must be finite, got {text!r}")
    return Table(where, lines, columns)  # only an overflowing sum gets here


def format_cell(value):
    """A CSV or manifest cell: ``%.12g`` for floats (numpy floats
    included), anything else unchanged."""
    return "%.12g" % value if isinstance(value, float) else value


def write_rows(destination, header: Sequence[str], rows, lineterminator: str = "\r\n") -> None:
    """The one CSV writer, to a path or a text stream: ``header``, then
    ``rows`` with every cell through ``format_cell``."""
    if hasattr(destination, "write"):
        handle = contextlib.nullcontext(destination)
    else:
        handle = open(destination, "w", newline="")
    with handle as stream:
        writer = csv.writer(stream, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows([format_cell(value) for value in row] for row in rows)


@dataclass(frozen=True)
class PriceGrid:
    """Admissible prices ``q, q+step, ..., Q``.

    ``(Q - q)`` must be an integer multiple of ``step``; enumeration yields
    ``(Q - q)/step + 1`` values.  Snapping clamps into ``[q, Q]`` first and
    rounds half-up to the nearest grid value, so it is idempotent.
    """

    q: float
    Q: float
    step: float = 1.0

    def __post_init__(self) -> None:
        require_finite(q=self.q, Q=self.Q, step=self.step)
        if not (self.q < self.Q):
            raise ValueError(f"grid needs q < Q, got q={self.q}, Q={self.Q}")
        if self.step <= 0:
            raise ValueError(f"grid step must be positive, got {self.step}")
        ratio = (self.Q - self.q) / self.step
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(
                f"(Q - q) must be an integer multiple of step, got span "
                f"{self.Q - self.q} with step {self.step}"
            )

    @property
    def n_points(self) -> int:
        return int(round((self.Q - self.q) / self.step)) + 1

    def points(self) -> np.ndarray:
        """All grid values, ascending."""
        return self.q + self.step * np.arange(self.n_points)

    def value(self, index: int) -> float:
        if not 0 <= index < self.n_points:
            raise IndexError(f"grid index {index} out of range")
        return self.q + self.step * index

    def index_of(self, value: float) -> int:
        """Index of the nearest grid point to ``value`` after clamping."""
        clamped = min(max(value, self.q), self.Q)
        return int(math.floor((clamped - self.q) / self.step + 0.5))

    def snap(self, value: float) -> float:
        """Clamp into [q, Q] and round to the nearest grid value."""
        return self.value(self.index_of(value))

    def snap_array(self, values: np.ndarray) -> np.ndarray:
        """``snap`` of every value, with the same clamp and floor arithmetic."""
        clamped = np.minimum(np.maximum(values, self.q), self.Q)
        return self.q + self.step * np.floor((clamped - self.q) / self.step + 0.5)

    def contains(self, value: float, tol: float = 1e-9) -> bool:
        if not (self.q - tol <= value <= self.Q + tol):  # NaN fails too
            return False
        return abs(self.snap(value) - value) <= tol

    def require_toll(self, r: float) -> None:
        """Reject a non-finite or off-grid toll by name."""
        require_finite(toll=r)
        if not self.contains(r):
            raise ValueError(f"toll {r} is not on the price grid")


@dataclass(frozen=True)
class MomentEnvelope:
    """Moment description of the unknown alternative-cost distribution.

    Admissible distributions have mean in ``[u_lower, u_upper]`` and variance
    at most ``kappa_bar`` times their mean.
    """

    u_lower: float
    u_upper: float
    kappa_bar: float

    def __post_init__(self) -> None:
        require_finite(
            u_lower=self.u_lower, u_upper=self.u_upper, kappa_bar=self.kappa_bar
        )
        if self.u_lower > self.u_upper + 1e-12:
            raise ValueError(
                f"mean band is empty: [{self.u_lower}, {self.u_upper}]"
            )
        if self.kappa_bar < 0:
            raise ValueError(f"kappa_bar must be >= 0, got {self.kappa_bar}")

    def validate_against(self, grid: PriceGrid) -> None:
        """Reject envelopes whose mean band leaves the grid's support range."""
        if self.u_lower > grid.Q or self.u_upper < grid.q:
            raise ValueError(
                f"mean band [{self.u_lower}, {self.u_upper}] does not meet "
                f"the support range [{grid.q}, {grid.Q}]"
            )

    def variance_cap(self, mean: float) -> float:
        return self.kappa_bar * mean


def _checked_masses(support: np.ndarray, mass: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """A distribution's rule, checked on every row of the (K, W) arrays at
    once (row ``k`` is its first ``sizes[k]`` entries): strictly increasing
    support, masses not below ``-MASS_TOL`` and an ``fsum`` total within
    ``MASS_TOL`` of 1.  Returns every row's masses clipped at 0 and
    divided by its total, the padding too."""
    live = np.arange(support.shape[1]) < np.asarray(sizes)[:, None]
    if np.any(live[:, 1:] & (np.diff(support, axis=1) <= 0)):
        raise ValueError("support points must be strictly increasing")
    if np.any(live & (mass < -MASS_TOL)):
        raise ValueError("masses must be non-negative")
    totals = [math.fsum(row[:n]) for row, n in zip(mass.tolist(), sizes)]
    for total in totals:
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total}, expected 1 within {MASS_TOL}")
    return np.clip(mass, 0.0, None) / np.array(totals)[:, None]


class DiscreteDistribution:
    """Finite-support probability distribution over money values.

    Support points are strictly increasing; masses are non-negative and must
    sum to 1 within ``1e-9`` (they are then renormalized exactly so the
    user-cost identities hold at float precision).
    """

    __slots__ = ("support", "mass")

    def __init__(self, support: Sequence[float], mass: Sequence[float]):
        sup = np.asarray(support, dtype=float)
        m = np.asarray(mass, dtype=float)
        if sup.ndim != 1 or m.ndim != 1 or sup.size != m.size or sup.size == 0:
            raise ValueError("support and mass must be equally sized 1-d, nonempty")
        self.support = sup
        self.mass = _checked_masses(sup[None], m[None], [sup.size])[0]

    @classmethod
    def from_rows(
        cls, support: np.ndarray, mass: np.ndarray, sizes: Sequence[int]
    ) -> tuple[list["DiscreteDistribution"], np.ndarray]:
        """One distribution per row of the (K, W) arrays ``support`` and
        ``mass``, row ``k`` holding ``sizes[k]`` entries and then padding.

        Every row gets the constructor's checks and renormalization in one
        array pass.  Returns the distributions, each owning its arrays, and
        the renormalized (K, W) masses, where zero padding stays zero.
        """
        masses = _checked_masses(support, mass, sizes)
        dists = []
        for sup, m, n in zip(support, masses, sizes):
            dist = cls.__new__(cls)
            dist.support, dist.mass = sup[:n].copy(), m[:n].copy()
            dists.append(dist)
        return dists, masses

    @classmethod
    def point_mass(cls, value: float) -> "DiscreteDistribution":
        return cls([value], [1.0])

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "DiscreteDistribution":
        """Build from (value, mass) pairs; merges duplicates, drops zeros."""
        acc: dict[float, float] = {}
        for value, m in pairs:
            acc[value] = acc.get(value, 0.0) + m
        items = sorted((v, m) for v, m in acc.items() if m > 1e-15)
        if not items:
            raise ValueError("no positive mass")
        return cls([v for v, _ in items], [m for _, m in items])

    def mean(self) -> float:
        return math.fsum((self.mass * self.support).tolist())

    def second_moment(self) -> float:
        return math.fsum((self.mass * self.support**2).tolist())

    def variance(self) -> float:
        mu = self.mean()
        return self.second_moment() - mu * mu

    def usage_probability(self, r: float) -> float:
        """P(c >= r): probability the toll road is taken at price r."""
        return math.fsum(self.mass[self.support >= r].tolist())

    def cdf(self, x: float) -> float:
        return math.fsum(self.mass[self.support <= x].tolist())

    def __len__(self) -> int:
        return int(self.support.size)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{v:g}: {m:.6g}" for v, m in zip(self.support, self.mass)
        )
        return f"DiscreteDistribution({{{pairs}}})"


@dataclass(frozen=True)
class CostHistory:
    """Observed alternative costs: one row per state, one column per arc.

    ``states`` has shape (windows * T, n_arcs): ``windows`` observation
    windows of ``T`` states each.
    """

    states: np.ndarray
    T: int
    windows: int = 1

    def __post_init__(self) -> None:
        arr = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "states", arr)
        if arr.ndim != 2:
            raise ValueError("states must be a 2-d array (state x arc)")
        if self.T < 1 or self.windows < 1:
            raise ValueError("T and windows must be positive")
        if arr.shape[0] != self.T * self.windows:
            raise ValueError(
                f"states has {arr.shape[0]} rows, expected T*windows = "
                f"{self.T * self.windows}"
            )

    @property
    def n_arcs(self) -> int:
        return int(self.states.shape[1])

    def arc_series(self, arc: int) -> np.ndarray:
        return self.states[:, arc]

    def state_minima(self) -> np.ndarray:
        """Per-state minimum cost across arcs (the best free alternative)."""
        return self.states.min(axis=1)

    @classmethod
    def from_csv(
        cls,
        source: str | io.TextIOBase,
        grid: PriceGrid | None = None,
        T: int | None = None,
        windows: int = 1,
        clamp_warn_threshold: float = 0.05,
    ) -> "CostHistory":
        """Read ``state,arc,cost`` rows. Every (state, arc) cell must appear,
        and only once.

        With a grid, costs are clamped into [q, Q]; a clamp rate above
        ``clamp_warn_threshold`` warns.
        """
        table = read_rows(source, "state,arc,cost", (int, int, float))
        states, arcs, costs = table.columns
        if not states:
            raise ValueError(f"{table.where}: history CSV has no data rows")
        for row, (s, a) in enumerate(zip(states, arcs)):
            if s < 0 or a < 0:
                raise table.error(row, f"state and arc must be >= 0, got {s}, {a}")
        table.reject_duplicates(list(zip(states, arcs)), "cost for state {}, arc {}".format)
        matrix = np.full((max(states) + 1, max(arcs) + 1), np.nan)
        matrix[states, arcs] = costs
        if np.isnan(matrix).any():
            s, a = np.argwhere(np.isnan(matrix))[0]
            raise ValueError(
                f"{table.where}: history is missing a cost for state {s}, arc {a}"
            )
        if grid is not None:
            clamped = np.clip(matrix, grid.q, grid.Q)
            n_clamped = int(np.sum(clamped != matrix))
            if n_clamped:
                rate = n_clamped / matrix.size
                if rate > clamp_warn_threshold:
                    warnings.warn(
                        f"clamped {n_clamped}/{matrix.size} history costs "
                        f"({100 * rate:.1f}%) into [{grid.q}, {grid.Q}]",
                        stacklevel=2,
                    )
            matrix = clamped
        if T is None:
            if matrix.shape[0] % windows:
                raise ValueError("row count not divisible by windows")
            T = matrix.shape[0] // windows
        return cls(states=matrix, T=T, windows=windows)

    def to_csv(self, destination: str | io.TextIOBase) -> None:
        write_rows(
            destination,
            ("state", "arc", "cost"),
            (
                (s, a, cost)
                for s, row in enumerate(self.states.tolist())
                for a, cost in enumerate(row)
            ),
        )


@dataclass(frozen=True)
class TollQuote:
    """A priced toll: the toll, how often it is paid, and worst-case revenue."""

    toll: float
    usage_count: float
    worst_case_revenue: float
    response: DiscreteDistribution | None = None
    horizon: int | None = field(default=None)

    def __post_init__(self) -> None:
        if self.usage_count < -1e-9:
            raise ValueError("usage_count must be non-negative")
        if self.horizon is not None and self.usage_count > self.horizon + 1e-9:
            raise ValueError("usage_count exceeds horizon")
        expected = self.toll * self.usage_count
        if abs(self.worst_case_revenue - expected) > 1e-6 * max(1.0, abs(expected)):
            raise ValueError(
                f"worst_case_revenue {self.worst_case_revenue} != "
                f"toll * usage_count = {expected}"
            )


def estimate_moment_envelope(
    series: Sequence[float] | np.ndarray,
    grid: PriceGrid,
    confidence_z: float = 1.96,
    kappa_bar: float = 1.0,
) -> MomentEnvelope:
    """Mean band from a normal confidence interval, plus the configured cap.

    ``u = mean -/+ z * stdev / sqrt(n)`` (sample stdev, ddof=1), clamped into
    [q, Q].  A single observation or a zero-variance series collapses the band
    to the sample mean.
    """
    arr = np.asarray(series, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("no history: cannot estimate a moment envelope")
    if confidence_z < 0:
        raise ValueError("confidence_z must be >= 0")
    mean = float(np.mean(arr))
    if arr.size > 1:
        stdev = float(np.std(arr, ddof=1))
        half_width = confidence_z * stdev / math.sqrt(arr.size)
    else:
        half_width = 0.0
    lo = min(max(mean - half_width, grid.q), grid.Q)
    hi = min(max(mean + half_width, grid.q), grid.Q)
    env = MomentEnvelope(u_lower=lo, u_upper=hi, kappa_bar=kappa_bar)
    env.validate_against(grid)
    return env


def expected_revenue(dist: DiscreteDistribution, r: float) -> float:
    """Expected toll revenue r * P(c >= r); a tie at c = r pays the toll."""
    return r * dist.usage_probability(r)


def expected_user_cost(dist: DiscreteDistribution, r: float) -> float:
    """Expected cost paid by the commuter at toll r: E[min(c, r)].

    Also evaluated as ``r - E[max(r - c, 0)]``; the two forms must agree to
    1e-12 (checked under debug assertions).
    """
    return user_cost_from_terms(
        (dist.mass * np.minimum(dist.support, r)).tolist(),
        (dist.mass * np.maximum(r - dist.support, 0.0)).tolist(),
        r,
    )


def user_cost_from_terms(capped: list[float], shortfall: list[float], r: float) -> float:
    """E[min(c, r)] as the ``fsum`` of its terms ``m * min(c, r)``, checked
    against ``r`` minus the ``fsum`` of the terms ``m * max(r - c, 0)``."""
    primary = math.fsum(capped)
    alternate = r - math.fsum(shortfall)
    assert abs(primary - alternate) <= IDENTITY_TOL * max(1.0, abs(r)), (
        primary,
        alternate,
    )
    return primary

