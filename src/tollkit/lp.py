"""Dense two-phase simplex for tiny LPs (a handful of rows, many columns),
walked warm over a sequence of objectives.

min c.x  s.t.  A x (=|<=) b,  x >= 0,  with b >= 0, on one tableau.  Built
for nature's 3-row moment LPs, where only the objective changes along a BR
curve; not a general-purpose solver.

Phase 1 never reads the objective, so it runs once per call.  Phase 2 takes
the objectives in the order given: since b does not change, the previous
objective's optimal basis stays feasible, so each objective re-prices that
basis and pivots from there; a single objective is a walk of length one.
This is the parametric-objective simplex of Gass & Saaty (1955).  Each
optimal tableau is rebuilt from A and b by one solve with its basis, so
an objective's x is a function of its final basis alone and no pivot
error carries along the walk.  The solve runs only when the basis has
moved since the last rebuild; otherwise that rebuild's rows are put back.

An objective may stack several levels, solved lexicographically: level l
enters only columns whose reduced costs at every earlier level are within
``EPS`` of 0, so it moves among the earlier levels' optima without leaving
them.  A pivot enters the most negative reduced cost, or after a
degenerate pivot the lowest-index negative one (Bland's rule): a cycle is
all degenerate pivots, so it would be all Bland pivots, which cannot
cycle.  The module keeps no state between calls.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simplex_solve", "LpInfeasible"]

EPS = 1e-9


class LpInfeasible(Exception):
    pass


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """Pivot ``tab`` (constraint rows, then cost rows) on (row, col)."""
    tab[row] /= tab[row, col]
    mult = tab[:, col].copy()
    mult[row] = 0.0
    tab -= mult[:, None] * tab[row]
    basis[row] = col


def _iterate(tab: np.ndarray, basis: np.ndarray, n_cols: int) -> None:
    """Pivots until every cost row below the ``len(basis)`` constraint rows
    is optimal in turn.  A cost row enters, among the first ``n_cols``
    columns whose reduced costs in the earlier cost rows are at most EPS,
    its most negative reduced cost below -EPS, or the lowest-index one
    after a degenerate pivot; the leaving row has the lowest ratio, within
    EPS the lowest basis index."""
    m = basis.size
    degenerate = False
    for level in range(m, tab.shape[0]):
        while True:
            reduced = tab[level, :n_cols]
            enter = (tab[m:level, :n_cols] <= EPS).all(axis=0) & (reduced < -EPS)
            col = int(enter.argmax() if degenerate else np.where(enter, reduced, 0.0).argmin())
            if not enter[col]:
                break
            row, best = -1, 0.0
            column, rhs = tab[:m, col].tolist(), tab[:m, -1].tolist()
            for i in range(m):
                if column[i] > EPS:
                    ratio = rhs[i] / column[i]
                    if row < 0 or ratio < best - EPS or (
                        ratio < best + EPS and basis[i] < basis[row]
                    ):
                        row, best = i, ratio
            if row < 0:
                raise LpInfeasible("unbounded")
            degenerate = best <= EPS
            _pivot(tab, basis, row, col)


def _phase_one(
    A: np.ndarray, b: np.ndarray, senses: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The starting constraint rows ``[A | slack | artificial | b]``, a
    feasible basis of them, and its tableau rows."""
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
    body[:, n + n_slack : width] = np.eye(m)
    basis = np.arange(n + n_slack, width)

    # Drive the artificials out.
    tab = np.vstack([body, np.zeros(width + 1)])
    tab[m, n + n_slack : width] = 1.0
    tab[m] -= body.sum(axis=0)
    _iterate(tab, basis, n + n_slack)
    if tab[m, -1] < -1e-7:
        raise LpInfeasible("phase-1 optimum is positive")
    for i in range(m):  # pivot lingering artificials out on any usable column
        if basis[i] >= n + n_slack:
            usable = np.flatnonzero(np.abs(tab[i, : n + n_slack]) > EPS)
            if usable.size:
                _pivot(tab, basis, i, int(usable[0]))
    return body, basis, tab[:m]


def simplex_solve(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    senses: str,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Solve min c.x, rows typed by `senses` ('=' or '<'), x >= 0, b >= 0.

    ``c`` is one objective of shape (n,), a walk of K objectives (K, n), or
    a walk of K lexicographic objectives (K, L, n), level 0 first.  The walk
    takes the objectives in the order given, each from the last one's
    optimal basis.  Returns (x, objective): x (n,) and a float for one
    objective, else x (K, n) and an array of the K level-0 objectives.
    Raises LpInfeasible when no feasible point exists or an objective is
    unbounded, and ValueError on a non-finite input or a ``c`` whose last
    dimension is not A's column count.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    for name, value in (("c", c), ("A", A), ("b", b)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    m, n = A.shape
    if c.ndim not in (1, 2, 3) or c.shape[-1] != n:
        raise ValueError(f"c has shape {c.shape}; need ({n},), (K, {n}) or (K, L, {n}) to match A")
    if np.any(b < 0):
        raise ValueError("rows must be normalized to b >= 0")
    body, basis, rows = _phase_one(A, b, senses)
    n_cols = n + senses.count("<")
    walk = c if c.ndim == 3 else c.reshape(-1, 1, n)
    K, L, _ = walk.shape
    tab = np.empty((m + L, body.shape[1]))
    tab[:m] = rows
    cost = np.zeros((L, body.shape[1]))
    x = np.zeros((K, n))
    rebuilt = None  # the basis of the last rebuild
    for k in range(K):
        cost[:, :n] = walk[k]
        tab[m:] = cost - cost[:, basis] @ tab[:m]
        _iterate(tab, basis, n_cols)
        # rebuilt from the starting rows: x, and the next objective's
        # start, depend on the basis alone, not on the pivots that found it
        if basis.tolist() != rebuilt:
            rows, rebuilt = np.linalg.solve(body[:, basis], body), basis.tolist()
        tab[:m] = rows
        structural = basis < n
        x[k, basis[structural]] = tab[:m, -1][structural]
    objective = np.array([float(np.dot(ck[0], xk)) for ck, xk in zip(walk, x)])
    if c.ndim == 1:
        return x[0], float(objective[0])
    return x, objective
