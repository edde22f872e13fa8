"""Independent output checks.

Each check recomputes what the program's answer must satisfy from the
benchmark's own arithmetic (or from HiGHS, for LP optima) and raises
``CheckFailed`` with the reason when it does not.  None of them compares
against a stored copy of an earlier output.  ``selftest.py`` feeds each
check a perturbed answer to show that it can fail.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

MOMENT_TOL = 1e-7
OBJ_TOL = 1e-6


class CheckFailed(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Grid:
    """The benchmark's own copy of a price grid ``q, q+step, ..., Q``."""

    q: float
    Q: float
    step: float

    def points(self) -> np.ndarray:
        return self.q + self.step * np.arange(int(round((self.Q - self.q) / self.step)) + 1)

    def snap(self, x: float) -> float:
        x = min(max(x, self.q), self.Q)
        return self.q + self.step * math.floor((x - self.q) / self.step + 0.5)

    def on_grid(self, x: float) -> bool:
        k = (x - self.q) / self.step
        return self.q - 1e-9 <= x <= self.Q + 1e-9 and abs(k - round(k)) <= 1e-9


# ---------------------------------------------------------------------------
# nature: worst-case distributions
# ---------------------------------------------------------------------------


def check_distribution(
    grid: Grid,
    band: tuple[float, float, float],
    toll: float,
    support,
    mass,
    objective: float | None = None,
) -> float:
    """A returned worst case is a distribution on the grid inside the
    envelope; returns E[min(c, toll)] computed here.  ``objective``, when
    given, is the program's value of the same expectation."""
    ul, uu, kappa = band
    c = np.asarray(support, dtype=float)
    m = np.asarray(mass, dtype=float)
    require(c.size == m.size and c.size >= 1, "empty or ragged distribution")
    require(all(grid.on_grid(x) for x in c), f"support {c.tolist()} leaves the grid")
    require(bool(np.all(m >= -1e-12)), f"negative mass {m.tolist()}")
    require(abs(math.fsum(m) - 1.0) <= 1e-9, f"masses sum to {math.fsum(m)}")
    scale = max(1.0, float(np.max(np.abs(c))))
    mean = math.fsum(m * c)
    var = math.fsum(m * c * c) - mean * mean
    require(
        ul - MOMENT_TOL * scale <= mean <= uu + MOMENT_TOL * scale,
        f"mean {mean} outside [{ul}, {uu}]",
    )
    require(
        var <= kappa * mean + MOMENT_TOL * scale * scale,
        f"variance {var} above cap {kappa * mean}",
    )
    value = math.fsum(m * np.minimum(c, toll))
    if objective is not None:
        require(
            abs(value - objective) <= OBJ_TOL * max(1.0, abs(value)),
            f"reported objective {objective} != E[min(c, r)] = {value}",
        )
    return value


def highs_point_band(points: np.ndarray, mu: float, kappa: float, toll: float) -> float:
    """min E[min(c, toll)] over grid distributions with mean ``mu`` and
    variance <= kappa * mu, solved by HiGHS."""
    from scipy.optimize import linprog

    res = linprog(
        np.minimum(points, toll),
        A_ub=[points * points],
        b_ub=[mu * mu + kappa * mu],
        A_eq=[np.ones_like(points), points],
        b_eq=[1.0, mu],
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        return math.inf
    require(res.status == 0, f"HiGHS failed: {res.message}")
    return float(res.fun)


def check_nature_optimal(
    grid: Grid, band: tuple[float, float, float], toll: float, value: float, scan: int = 25
) -> None:
    """A point band's optimum equals HiGHS's; on an interval band no point
    band on a dense mean scan may beat it."""
    ul, uu, kappa = band
    points = grid.points()
    tol = OBJ_TOL * max(1.0, abs(value))
    if uu - ul <= 1e-12:
        ref = highs_point_band(points, ul, kappa, toll)
        require(abs(ref - value) <= tol, f"objective {value} != HiGHS {ref}")
        return
    for mu in np.linspace(ul, uu, scan):
        ref = highs_point_band(points, float(mu), kappa, toll)
        require(ref >= value - tol, f"mean {mu}: HiGHS {ref} beats the returned {value}")


# ---------------------------------------------------------------------------
# robust tolls
# ---------------------------------------------------------------------------


def check_sweep_result(T: int, toll: float, epsilon: float, curve: dict[float, float]) -> None:
    """The sweep toll is the lowest argmax of its own curve; every value on
    the curve is k * r for a usage count k in 1..T, and the chosen one is
    eps * r * T with eps a multiple of 1/T."""
    require(bool(curve), "empty curve")
    best = max(curve.values())
    lowest = min(r for r, v in curve.items() if v >= best - 1e-6)
    require(toll == lowest, f"toll {toll} is not the lowest argmax {lowest}")
    k = epsilon * T
    require(abs(k - round(k)) <= 1e-9 and 1 <= round(k) <= T, f"eps {epsilon} not in (1/T)Z")
    require(
        abs(curve[toll] - epsilon * toll * T) <= 1e-9 * max(1.0, best),
        f"value {curve[toll]} != eps * r * T",
    )
    for r, v in curve.items():
        count = v / r if r else 0.0
        require(
            r == 0 or (abs(count - round(count)) <= 1e-9 and 1 <= round(count) <= T),
            f"curve value {v} at {r} is not a usage count times the toll",
        )


def usage_probability(support, mass, toll: float) -> float:
    """P(c >= toll) under a returned distribution."""
    c, m = np.asarray(support, dtype=float), np.asarray(mass, dtype=float)
    return math.fsum(m[c >= toll].tolist())


def sweep_from_usage(points: np.ndarray, usage, T: int):
    """The benchmark's own epsilon sweep over per-toll usage probabilities:
    for each eps = k/T the largest toll with usage >= eps, worth k * r; the
    toll is the lowest argmax and eps the largest k/T reaching it.  Returns
    (toll, eps, curve), or None when no toll earns a positive value."""
    usage = np.asarray(usage, dtype=float)
    curve: dict[float, float] = {}
    top_k: dict[float, int] = {}
    for k in range(1, T + 1):
        above = np.nonzero(usage >= k / T - 1e-9)[0]
        if above.size == 0:
            break
        r = float(points[above[-1]])
        curve[r], top_k[r] = k * r, k  # k only grows, so this is the best at r
    best = max(curve.values(), default=0.0)
    if best <= 1e-12:
        return None
    toll = min(r for r, v in curve.items() if v >= best - 1e-9 * best)
    return toll, top_k[toll] / T, curve


def check_sweep_exact(
    points: np.ndarray, usage, T: int, toll: float, epsilon: float, curve: dict[float, float]
) -> None:
    """Toll, eps and the whole curve equal the sweep rebuilt from a nature
    solve at every grid toll, so a walk that skips or stops early fails."""
    ref = sweep_from_usage(points, usage, T)
    require(ref is not None, "no toll earns positive worst-case revenue")
    ref_toll, ref_eps, ref_curve = ref
    require(toll == ref_toll, f"sweep toll {toll} != rebuilt {ref_toll}")
    require(abs(epsilon - ref_eps) <= 1e-12, f"sweep eps {epsilon} != rebuilt {ref_eps}")
    require(set(curve) == set(ref_curve), f"curve tolls {sorted(set(curve) ^ set(ref_curve))} differ")
    for r, v in ref_curve.items():
        require(abs(curve[r] - v) <= 1e-9 * max(1.0, v), f"curve at {r}: {curve[r]} != {v}")


def two_point_scan(grid: Grid, u_lower: float, kappa: float, T: int):
    """Exhaustive two-point worst case for every grid toll.

    For each skip count lam (largest first) the lowest grid value below the
    mean whose balancing upper point stays under Q and within the
    sample-variance budget; per toll nature takes the count with the least
    total user cost (first, i.e. largest, count on ties).  The envelope
    floor keeps one paying period.  Returns (toll, usage at toll, curve).
    """
    points = grid.points()
    mu = u_lower
    lows = points[points < mu]
    budget = kappa * mu * (T - 1)
    firsts = []
    for lam in range(T - 1, 0, -1):
        high = T - lam
        upper = (mu * T - lam * lows) / high
        spread = lam * (lows - mu) ** 2 + high * (upper - mu) ** 2
        ok = (upper <= grid.Q + 1e-9) & (spread <= budget + 1e-9)
        if ok.any():
            i = int(np.argmax(ok))
            firsts.append((lam, float(lows[i]), float(upper[i])))
    usage = np.zeros(points.size, dtype=int)
    for i, r in enumerate(points.tolist()):
        best_obj, choice = math.inf, None
        for lam, ell, upper in firsts:
            obj = lam * ell + (T - lam) * r
            if obj < best_obj:
                best_obj, choice = obj, (lam, ell, upper)
        if choice is None:
            usage[i] = T if mu >= r else 0
        else:
            lam, ell, upper = choice
            usage[i] = (lam if ell >= r else 0) + (T - lam if upper >= r else 0)
    floor = int(math.floor((min(max(mu, grid.q), grid.Q) - grid.q) / grid.step + 0.5))
    usage[floor] = max(usage[floor], 1)
    revenue = points * usage
    best = int(np.argmax(revenue))
    curve = {float(r): float(v) for r, v in zip(points, revenue)}
    return float(points[best]), int(usage[best]), curve


def check_two_point(
    grid: Grid, band: tuple[float, float, float], T: int, toll: float, curve: dict[float, float]
) -> int:
    """Toll and curve equal the exhaustive scan; returns the scan's usage."""
    ref_toll, ref_usage, ref_curve = two_point_scan(grid, band[0], band[2], T)
    require(toll == ref_toll, f"two-point toll {toll} != scan {ref_toll}")
    require(set(curve) == set(ref_curve), "two-point curve covers other tolls")
    for r, v in ref_curve.items():
        require(abs(curve[r] - v) <= 1e-9 * max(1.0, v), f"curve at {r}: {curve[r]} != {v}")
    return ref_usage


# ---------------------------------------------------------------------------
# regret drivers
# ---------------------------------------------------------------------------


def check_regret_values(label: str, values) -> None:
    arr = np.asarray(values, dtype=float)
    require(bool(np.all(np.isfinite(arr))), f"{label}: non-finite regret")
    require(bool(np.all((arr >= 0.0) & (arr <= 100.0))), f"{label}: regret outside [0, 100]")


def check_mixed_identity(pinned, fixed) -> None:
    """The mixed run with the single pool ["gamma"] equals the fixed gamma
    run of the same config, field for field."""
    require(pinned == fixed, f"mixed ['gamma'] {pinned} != fixed gamma {fixed}")


# ---------------------------------------------------------------------------
# ingest, real-exp and the small commands
# ---------------------------------------------------------------------------


def interpolate(series: np.ndarray) -> np.ndarray:
    """Linear fill of interior blanks between equally spaced buckets (the
    generator never blanks the first or last bucket)."""
    out = series.copy()
    have = [i for i in range(out.size) if not math.isnan(out[i])]
    for a, b in zip(have, have[1:]):
        for i in range(a + 1, b):
            out[i] = out[a] + (out[b] - out[a]) * (i - a) / (b - a)
    return out


def check_ingest(lattice, blocks: int, report: dict[str, int]) -> None:
    require(report.get("records") == lattice.n_records, f"records {report.get('records')}")
    require(report.get("nodes") == (blocks + 1) ** 2, f"nodes {report.get('nodes')}")
    require(report.get("arcs") == 2 * blocks * (blocks + 1), f"arcs {report.get('arcs')}")


def check_states_sample(
    lattice, grid: Grid, scale: float, arc_lengths, costs: dict[tuple[int, int], float], cells
) -> None:
    """Arc j is segment j (ids sort in generation order); its length and
    each sampled state cost equal snap(scale * length / speed) with the
    speed interpolated here."""
    mine = lattice.lengths()
    require(len(arc_lengths) == mine.size, f"{len(arc_lengths)} arcs, expected {mine.size}")
    for j, length in enumerate(arc_lengths):
        require(abs(length - mine[j]) <= 1e-9 * mine[j], f"arc {j} length {length} != {mine[j]}")
    filled = {}
    for s, j in cells:
        if j not in filled:
            filled[j] = interpolate(lattice.speeds[j])
        raw = scale * mine[j] / filled[j][s]
        want = grid.snap(raw)
        # a raw cost within rounding of a half step may snap either way
        near_half = abs((raw - grid.q) / grid.step % 1.0 - 0.5) < 1e-9
        got = costs[(s, j)]
        require(
            abs(got - want) <= 1e-9 or (near_half and abs(got - want) <= grid.step + 1e-9),
            f"state {s} arc {j}: cost {got} != snap({raw}) = {want}",
        )


def check_model_lp(text: str, T: int, with_epsilon: bool) -> None:
    lines = text.splitlines()
    require("Subject To" in lines and "Bounds" in lines, "model.lp lacks sections")
    rows = lines[lines.index("Subject To") + 1 : lines.index("Bounds")]
    binaries = lines[lines.index("Binaries") + 1 : lines.index("End")]
    want = 3 + 9 * T + (1 if with_epsilon else 0)
    require(len(rows) == want, f"model.lp has {len(rows)} rows, expected {want}")
    require(len(binaries) == T, f"model.lp has {len(binaries)} binaries, expected {T}")


def best_allocation(bounds, incidence) -> list[int]:
    """Enumerate every integer toll vector (lexicographic order) and keep
    the first with the largest total under every path bound."""
    inc = np.asarray(incidence)
    n_arcs = inc.shape[1]
    caps = [min(b for b, row in zip(bounds, inc) if row[a]) for a in range(n_arcs)]
    grids = np.meshgrid(*[np.arange(c + 1) for c in caps], indexing="ij")
    vecs = np.stack([g.ravel() for g in grids], axis=1)  # lexicographic rows
    ok = np.all(vecs @ inc.T <= np.asarray(bounds), axis=1)
    totals = np.where(ok, vecs.sum(axis=1), -1)
    return vecs[int(np.argmax(totals))].tolist()


def check_allocation(bounds, incidence, tolls) -> None:
    want = best_allocation(bounds, incidence)
    require(list(tolls) == want, f"allocation {list(tolls)} != enumeration {want}")


def check_real_rows(rows: list[list[str]], pairs: int) -> None:
    """``real_regret.csv``: two result rows, pairs used plus pairs skipped
    equal to the pairs requested, regret in [0, 100]."""
    require(len(rows) == 3, "real_regret.csv needs two result rows")
    for row in rows[1:]:
        require(int(row[4]) + int(row[5]) == pairs, f"pairs used + skipped != {pairs}")
        check_regret_values(row[1], [float(row[2]), float(row[3])])


def check_same_files(first: str, others: list[str], minimum: int) -> None:
    """Every file under ``first`` (at least ``minimum``) is byte-identical
    under each of ``others``."""
    names = sorted(
        os.path.relpath(os.path.join(root, f), first) for root, _, files in os.walk(first) for f in files
    )
    require(len(names) >= minimum, f"only {len(names)} artifacts written")
    for other in others:
        for name in names:
            with open(os.path.join(first, name), "rb") as a, open(os.path.join(other, name), "rb") as b:
                require(a.read() == b.read(), f"{other}: {name} differs from {first}")
