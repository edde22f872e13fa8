"""Dense two-phase simplex for tiny LPs (a handful of rows, many columns).

min c.x  s.t.  A x (=|<=) b,  x >= 0,  with b >= 0.  Bland's rule, so no
cycling.  Built for the 3-row moment LPs; not a general-purpose solver.
The last phase-1 tableau is kept, so re-solving the same constraints under
a new objective runs phase 2 only.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simplex_solve", "LpInfeasible"]

EPS = 1e-9


class LpInfeasible(Exception):
    pass


def _pivot(tab: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and abs(tab[i, col]) > 1e-14:
            tab[i] -= tab[i, col] * tab[row]
    basis[row] = col


def _iterate(tab: np.ndarray, basis: list[int], n_cols: int) -> None:
    # Bland: entering = lowest-index negative reduced cost; leaving = lowest
    # index among min-ratio rows.
    m = tab.shape[0] - 1
    while True:
        entering = np.flatnonzero(tab[m, :n_cols] < -EPS)
        if entering.size == 0:
            return
        col = int(entering[0])
        row, best = -1, np.inf
        for i in range(m):
            if tab[i, col] > EPS:
                ratio = tab[i, -1] / tab[i, col]
                if ratio < best - EPS or (ratio < best + EPS and (row < 0 or basis[i] < basis[row])):
                    row, best = i, ratio
        if row < 0:
            raise LpInfeasible("unbounded")
        _pivot(tab, basis, row, col)


# Phase 1 never reads the objective, and callers re-solve the same
# constraints under a new objective (one per toll along a BR curve), so the
# last phase-1 tableau and basis are kept, keyed by (senses, A, b), and
# every phase 2 starts from a copy of them.
_last_phase_one: tuple | None = None


def _phase_one(A: np.ndarray, b: np.ndarray, senses: str) -> tuple[np.ndarray, list[int]]:
    """Feasible tableau (objective row free for phase 2) and its basis."""
    global _last_phase_one
    key = (senses, A.shape, A.tobytes(), b.tobytes())
    memo = _last_phase_one  # read once: another thread may replace it
    if memo is not None and memo[0] == key:
        _, tab, basis = memo
        return tab.copy(), list(basis)
    m, n = A.shape
    n_slack = senses.count("<")
    width = n + n_slack + m  # structural + slack + artificial
    body = np.zeros((m, width + 1))
    body[:, :n] = A
    body[:, -1] = b
    k = 0
    for i, s in enumerate(senses):
        if s == "<":
            body[i, n + k] = 1.0
            k += 1
        elif s != "=":
            raise ValueError(f"bad sense {s!r}")
    for i in range(m):
        body[i, n + n_slack + i] = 1.0
    basis = [n + n_slack + i for i in range(m)]

    # Drive the artificials out.
    tab = np.vstack([body, np.zeros(width + 1)])
    tab[m, n + n_slack : n + n_slack + m] = 1.0
    for i in range(m):
        tab[m] -= tab[i]
    _iterate(tab, basis, n + n_slack)
    if tab[m, -1] < -1e-7:
        raise LpInfeasible("phase-1 optimum is positive")
    for i in range(m):  # pivot lingering artificials out on any usable column
        if basis[i] >= n + n_slack:
            usable = np.flatnonzero(np.abs(tab[i, : n + n_slack]) > EPS)
            if usable.size:
                _pivot(tab, basis, i, int(usable[0]))
    tab.flags.writeable = False
    _last_phase_one = (key, tab, tuple(basis))
    return tab.copy(), basis


def simplex_solve(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    senses: str,
) -> tuple[np.ndarray, float]:
    """Solve min c.x, rows typed by `senses` ('=' or '<'), x >= 0, b >= 0.

    Returns (x, objective). Raises LpInfeasible when no feasible point exists.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    m, n = A.shape
    if np.any(b < 0):
        raise ValueError("rows must be normalized to b >= 0")
    tab, basis = _phase_one(A, b, senses)
    n_cols = n + senses.count("<")

    # Phase 2.
    tab[m, :] = 0.0
    tab[m, :n] = c
    for i in range(m):
        if basis[i] < n_cols:
            coef = c[basis[i]] if basis[i] < n else 0.0
            if coef:
                tab[m] -= coef * tab[i]
    _iterate(tab, basis, n_cols)

    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i, -1]
    return x, float(np.dot(c, x))
