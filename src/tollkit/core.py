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

The toll setter's historical costs, a ``state,arc,cost`` table, are read by
:func:`read_cost_history` into a (states x arcs) matrix.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import math
import numbers
import os
import warnings
from dataclasses import dataclass
from itertools import chain, compress, repeat
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

# The array half of this module imports numpy where it is used, so that a
# process that computes with no array (``emit-mip``, a rejected config,
# ``--help``) never pays numpy's import.
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PriceGrid",
    "MomentEnvelope",
    "DiscreteDistribution",
    "read_cost_history",
    "estimate_moment_envelope",
    "expected_revenue",
    "expected_user_cost",
    "read_rows",
    "format_cell",
    "write_rows",
    "read_cost_table",
    "write_cost_table",
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
# Share of a cost history clamped into the price grid above which it warns.
CLAMP_WARN_RATE = 0.05


def require_finite(**values: float) -> None:
    """Reject NaN and infinities by name; every comparison with NaN is
    false, so range checks alone would let them through."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def require_integer(**values) -> None:
    """Reject a count or seed that is not a whole number (a float or a
    bool, even 50.0) by name; a numpy integer passes."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value}")


def require_horizon(T, minimum: int) -> None:
    """Reject a horizon that is not a whole number of periods, or is below
    ``minimum``, by name."""
    require_integer(T=T)
    if T < minimum:
        raise ValueError(f"T must be >= {minimum}")


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
    # every float among the values is finite, scanned without a Python loop
    return all(map(math.isfinite, compress(values, map(isinstance, values, repeat(float)))))


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


# Characters one read of a CSV input takes at a time
_READ_CHARS = 2**16


def _header_check(where: str, got: list[str] | None, header: str) -> None:
    """Raise unless ``got``, the first row's fields, is ``header``."""
    if got is None or [h.strip().lower() for h in got] != header.split(","):
        raise ValueError(
            f"{where}:1: unexpected header {','.join(got or [])!r}, "
            f"expected header {header!r}"
        )


def _texts(stream, encoding: str | None):
    """The text of ``stream`` a read at a time, in pieces that end at a
    line end or at the end of the text.  With an ``encoding`` the stream is
    binary: a byte that does not decode ends the text before its line, and
    then raises."""
    decode = encoding and codecs.getincrementaldecoder(encoding)().decode
    tail: list[str] = []  # the unfinished line
    while True:
        data = stream.read(_READ_CHARS)
        try:
            chunk = decode(data, not data) if decode else data
        except UnicodeDecodeError as exc:
            text = "".join(tail) + exc.object[: exc.start].decode(encoding)
            yield text[: max(text.rfind("\n"), text.rfind("\r")) + 1]
            raise
        # a "\r" that ends a read may be the first half of "\r\n"
        cut = max(chunk.rfind("\n"), chunk.rfind("\r", 0, -1)) + 1 if data else len(chunk)
        if cut or not data:
            text, tail = "".join(tail) + chunk[:cut], []
            if text:
                yield text
        tail.append(chunk[cut:])
        if not data:
            return


def _rows(stream, encoding: str | None, where: str, header: str):
    """Yield the data rows of ``stream``, blank rows skipped, in a ``(fields,
    lines)`` batch per piece of ``_texts``: the fields in one flat list (a
    live list per row slows the GC) and each row's line.  A piece with no
    quote, carriage return, NUL, blank or ragged row, or line over
    ``csv.field_size_limit()`` is split in bulk at ``,``, as ``csv.reader``
    would; from the first other piece on, ``csv.reader`` splits the rest."""
    width = header.count(",") + 1
    limit = csv.field_size_limit()
    line, reader = 1, None  # line: the next line's number
    texts = _texts(stream, encoding)
    try:
        for text in texts:
            rows = text.split("\n")
            if text.endswith("\n"):
                rows.pop()  # the empty text after the last line end
            if any(c in text for c in '"\r\0') or not all(rows) or max(map(len, rows)) > limit:
                break
            first = max(line, 2)  # the first data row's line
            if line == 1:
                _header_check(where, rows.pop(0).split(","), header)
            flat = ",".join(rows).split(",") if rows else []
            # as many fields as width per row, and no row short of width - 1
            # commas: then every row has width fields
            commas = min(map(str.count, rows, repeat(",")), default=width)
            if len(flat) != width * len(rows) or commas < width - 1:
                break
            yield flat, range(first, first + len(rows))
            line = first + len(rows)
        else:
            text = ""  # the reader sees the end, or an empty input's header
        ends = [0]  # the reader's line count at the end of each piece

        def split(text: str) -> list[str]:
            lines = io.StringIO(text, newline="").readlines()  # a file's line ends
            ends.append(ends[-1] + len(lines))
            return lines

        reader = csv.reader(chain.from_iterable(map(split, chain([text], texts))))
        if line == 1:
            _header_check(where, next(reader, None), header)
        fields, lines = [], []
        for row in reader:
            if len(row) != width:
                if "".join(row).strip():
                    raise csv.Error(f"expected {width} fields, got {len(row)}")
                continue
            fields += row
            lines.append(line - 1 + reader.line_num)
            if reader.line_num == ends[-1]:
                yield fields, lines
                fields, lines = [], []
        yield fields, lines
    except csv.Error as exc:
        raise ValueError(f"{where}:{line - 1 + reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:  # at the first line not read
        raise ValueError(f"{where}:{line + (reader.line_num if reader else 0)}: {exc}") from None


def read_rows(source, header: str, converters: Sequence[Callable[[str], object]]) -> Table:
    """Read a CSV input, a path or a text stream, whose first line is
    ``header`` (compared stripped and lower-cased).

    Blank rows are skipped.  Every other row must have one field per header
    name; field ``j`` is converted by ``converters[j]`` and may not be a NaN
    or infinite float.  Every error is a ``ValueError`` that starts with
    ``where:line:``, where ``where`` is the path or ``<stream>``.

    Each ``_READ_CHARS`` characters are split (see ``_rows``) and converted
    before more are read, so a read holds the columns and one piece of text.
    The first structure error wins: the header, a row of another width, a
    ``csv.Error`` or a byte that does not decode (at its line; in a stream,
    the first line not read).  Then the first row with a field that does
    not convert or is not finite fails the read."""
    names = header.split(",")
    path = not hasattr(source, "read")
    where = os.fsdecode(source) if path else "<stream>"
    # bad: the first batch that does not convert; the batches after it are only read
    lines, columns, bad = [], tuple([] for _ in names), None
    with open(source, newline="") if path else contextlib.nullcontext(source) as stream:
        raw, encoding = (stream.buffer, stream.encoding) if path else (stream, None)
        for fields, rows in _rows(raw, encoding, where, header):
            lines += rows
            if bad:
                continue
            try:
                got = [list(map(c, fields[j :: len(names)])) for j, c in enumerate(converters)]
            except ValueError:
                got = []
            if got and all(map(_all_finite, got)):
                for column, values in zip(columns, got):
                    column += values
                fields.clear()  # the batch's text goes before the next is read
            else:
                bad = fields, rows
    fields, rows = bad or ([], [])
    for line, row in zip(rows, zip(*[iter(fields)] * len(names))):
        for name, conv, text in zip(names, converters, row):
            try:
                value = conv(text)
            except ValueError as exc:
                raise ValueError(f"{where}:{line}: {name}: {exc}") from None
            if not _all_finite([value]):
                raise ValueError(f"{where}:{line}: {name} must be finite, got {text!r}")
    return Table(where, lines, columns)


def format_cell(value):
    """A CSV or manifest cell: ``%.12g`` for floats (numpy floats
    included), anything else unchanged."""
    return "%.12g" % value if isinstance(value, float) else value


def _output(destination):
    """A context manager for a text stream, or for a path opened to write
    with no newline translation."""
    if hasattr(destination, "write"):
        return contextlib.nullcontext(destination)
    return open(destination, "w", newline="")


def write_rows(destination, header: Sequence[str], rows, lineterminator: str = "\r\n") -> None:
    """The one CSV writer, to a path or a text stream: ``header``, then
    ``rows`` with every cell through ``format_cell``."""
    with _output(destination) as stream:
        writer = csv.writer(stream, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows([format_cell(value) for value in row] for row in rows)


COST_TABLE_HEADER = "state,arc,cost"


def read_cost_table(source, n_arcs: int | None = None) -> tuple[str, np.ndarray]:
    """Read a ``state,arc,cost`` table, a path or a text stream, into its
    dense (states x arcs) cost matrix.

    State ids run from 0 with no gap, and so do arc ids: up to
    ``n_arcs - 1`` when the caller knows the arc count, else up to the
    largest arc id.  Every (state, arc) cell appears exactly once.  Returns
    the input's name, as ``read_rows`` gives it, and the matrix; every
    error is a ``ValueError`` that starts with that name.
    """
    import numpy as np

    table = read_rows(source, COST_TABLE_HEADER, (int, int, float))
    states, arcs, costs = table.columns
    if not states:
        raise ValueError(f"{table.where}: no cost rows")
    if n_arcs is None:
        n_arcs = max(arcs) + 1
    n_states = max(states) + 1
    # In range, and as many rows as cells: then the cells are all filled
    # exactly when no row repeats a cell, which the NaN test sees.
    in_range = min(states) >= 0 and min(arcs) >= 0 and max(arcs) < n_arcs
    if in_range and len(states) == n_states * n_arcs:
        matrix = np.full(n_states * n_arcs, np.nan)
        matrix[np.array(states) * n_arcs + np.array(arcs)] = costs
        if not np.isnan(matrix).any():
            return table.where, matrix.reshape(n_states, n_arcs)
    # Only a failure scans rows for its line.
    for row, (s, a) in enumerate(zip(states, arcs)):
        if s < 0 or a < 0:
            raise table.error(row, f"state and arc must be >= 0, got {s}, {a}")
        if a >= n_arcs:
            raise table.error(row, f"arc {a} out of range for {n_arcs} arcs")
    keys = list(zip(states, arcs))
    table.reject_duplicates(keys, "cost for state {}, arc {}".format)
    # Fewer distinct cells than n_states * n_arcs: one is missing among the
    # first len(keys) + 1 in state-major order.
    present = set(keys)
    s, a = next((s, a) for s in range(n_states) for a in range(n_arcs) if (s, a) not in present)
    raise ValueError(
        f"{table.where}: missing a cost for state {s}, arc {a} "
        "(state and arc ids run from 0 with no gap)"
    )


def write_cost_table(destination, costs: np.ndarray) -> None:
    """Write a (states x arcs) float cost matrix as ``state,arc,cost`` rows,
    state-major, with LF line ends: the bytes ``write_rows`` would write
    (no cell needs ``csv`` quoting).  Each distinct cost, told apart by its
    bits so that ``-0.0`` stays ``-0``, is formatted once, and each state's
    cells gather its text."""
    import numpy as np

    costs = np.ascontiguousarray(costs, dtype=float)
    n_states, n_arcs = costs.shape
    bits, which = np.unique(costs.reshape(-1).view(np.uint64), return_inverse=True)
    texts = np.array(["%.12g\n" % cost for cost in bits.view(float).tolist()], dtype=object)
    cells = [""] * (3 * n_arcs)  # state, arc and cost of one state's rows
    cells[1::3] = [f"{a}," for a in range(n_arcs)]
    with _output(destination) as stream:
        stream.write(COST_TABLE_HEADER + "\n")
        for s, row in enumerate(which.reshape(n_states, n_arcs)):
            cells[0::3] = [f"{s},"] * n_arcs
            cells[2::3] = texts[row].tolist()
            stream.write("".join(cells))


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
        import numpy as np

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
        import numpy as np

        clamped = np.minimum(np.maximum(values, self.q), self.Q)
        return self.q + self.step * np.floor((clamped - self.q) / self.step + 0.5)

    def contains(self, value: float, tol: float = 1e-9) -> bool:
        if not (self.q - tol <= value <= self.Q + tol):  # NaN fails too
            return False
        return abs(self.snap(value) - value) <= tol

    def require_cost_floor(self) -> None:
        """Reject a floor ``q`` below 0 by name: nature's moment model and
        the two-point search price non-negative costs."""
        if self.q < 0:
            raise ValueError(f"q must be >= 0, got {self.q}")

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
    import numpy as np

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
        import numpy as np

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


def read_cost_history(
    source, grid: PriceGrid | None = None, T: int | None = None, windows: int = 1
) -> np.ndarray:
    """Observed alternative costs, one row per state and one column per arc,
    from a ``state,arc,cost`` table read by ``read_cost_table``.

    The states must fill ``windows`` windows of ``T`` states each (a run
    config's ``T`` and ``H``; ``T`` defaults to the state count over
    ``windows``).  With a grid, costs are clamped into [q, Q]; a clamp rate
    above ``CLAMP_WARN_RATE`` warns.
    """
    import numpy as np

    where, matrix = read_cost_table(source)
    n_states = matrix.shape[0]
    if T is None:
        T = n_states // windows
    if n_states != T * windows:
        raise ValueError(
            f"{where}: {n_states} states, expected T*H = {T}*{windows} = {T * windows}"
        )
    if grid is None:
        return matrix
    clamped = np.clip(matrix, grid.q, grid.Q)
    n_clamped = int(np.sum(clamped != matrix))
    rate = n_clamped / matrix.size
    if rate > CLAMP_WARN_RATE:
        warnings.warn(
            f"{where}: clamped {n_clamped}/{matrix.size} history costs "
            f"({100 * rate:.1f}%) into [{grid.q}, {grid.Q}]",
            stacklevel=2,
        )
    return clamped


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
    import numpy as np

    require_finite(confidence_z=confidence_z)
    arr = np.asarray(series, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("no history: cannot estimate a moment envelope")
    bad = np.flatnonzero(~np.isfinite(arr))
    if bad.size:
        raise ValueError(f"series must be finite, got {arr[bad[0]]} at index {bad[0]}")
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
    require_finite(toll=r)
    return r * dist.usage_probability(r)


def expected_user_cost(dist: DiscreteDistribution, r: float) -> float:
    """Expected cost paid by the commuter at toll r: E[min(c, r)].

    Also evaluated as ``r - E[max(r - c, 0)]``; the two forms must agree to
    1e-12 (checked under debug assertions).
    """
    require_finite(toll=r)
    import numpy as np

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

