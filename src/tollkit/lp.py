"""Dense two-phase simplex for tiny LPs (a handful of rows, many columns),
solved for a stack of objectives at once.

min c.x  s.t.  A x (=|<=) b,  x >= 0,  with b >= 0.  Bland's rule, so no
cycling.  Built for nature's 3-row moment LPs, where only the objective
changes along a BR curve; not a general-purpose solver.

Phase 1 never reads the objective, so it runs once per call, however many
objectives the call stacks.  Phase 2 copies its last tableau once per
objective and advances the whole stack in lockstep: at each step every
unfinished tableau takes its own Bland pivot with the same arithmetic as a
lone solve, so an objective gets the same x whether it is solved alone or
in a stack.  Finished tableaux leave the stack, and a tall stack goes
through in passes of at most ``_PASS_ELEMENTS`` tableau entries, which
bounds the memory of a solve.  Phase 1 runs on the same kernel as a stack
of one.  The module keeps no state between calls.
"""

from __future__ import annotations

import numpy as np

__all__ = ["simplex_solve", "LpInfeasible"]

EPS = 1e-9
# a row whose multiplier is at most this is left as it is by a pivot
_SKIP = 1e-14
# tableau entries per phase-2 pass
_PASS_ELEMENTS = 1 << 16


class LpInfeasible(Exception):
    pass


def _pivot(
    tab: np.ndarray,
    basis: np.ndarray,
    row: np.ndarray,
    col: np.ndarray,
    buf: np.ndarray | None = None,
) -> None:
    """Tableau k of the stack ``tab`` (K, m+1, W) pivots on (row[k], col[k]):
    the pivot row is divided by its pivot, then multiplier x pivot row is
    subtracted from every other row whose multiplier exceeds ``_SKIP``.
    ``buf``, shaped like ``tab``, takes the products."""
    k = np.arange(tab.shape[0])
    prow = tab[k, row]
    prow /= prow[k, col][:, None]
    tab[k, row] = prow
    mult = tab[k, :, col]
    live = np.abs(mult) > _SKIP
    live[k, row] = False
    buf = np.multiply(mult[:, :, None], prow[:, None, :], out=buf)
    np.subtract(tab, buf, out=tab, where=live[:, :, None])
    basis[k, row] = col


def _leaving(tab: np.ndarray, basis: np.ndarray, col: np.ndarray) -> np.ndarray:
    """Bland's leaving row per tableau (-1 when the column is unbounded).

    Rows with a column entry above EPS are taken in order; row i replaces
    the current pick j when its ratio is lower by more than EPS, or within
    EPS with a lower basis index ("beats").
    """
    K, m = basis.shape
    k = np.arange(K)
    a = tab[k, :m, col]
    usable = a > EPS
    ratio = np.divide(tab[:, :m, -1], a, out=np.zeros((K, m)), where=usable)
    r_i, r_j = ratio[:, :, None], ratio[:, None, :]
    beats = (r_i < r_j - EPS) | ((r_i < r_j + EPS) & (basis[:, :, None] < basis[:, None, :]))
    row = np.full(K, -1)
    for i in range(m):
        take = usable[:, i] & ((row < 0) | beats[k, i, row])
        row = np.where(take, i, row)
    return row


def _iterate(tab: np.ndarray, basis: np.ndarray, n_cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Bland pivots on every tableau of the stack until each is optimal
    (entering = lowest-index reduced cost below -EPS among the first
    ``n_cols`` columns).

    Unfinished tableaux are kept at the front of ``tab``: a finished one's
    slot is refilled from the back, so the stack is reordered as tableaux
    finish, and a stack of one ends with its final tableau in place.
    Returns each tableau's final basis and right-hand side, in the original
    order.
    """
    K, m = basis.shape
    final_basis = np.empty_like(basis)
    final_rhs = np.empty((K, m))
    ids = np.arange(K)
    buf = np.empty_like(tab)
    work, wbasis = tab, basis
    while True:
        reduced = work[:, -1, :n_cols] < -EPS
        going = reduced.any(axis=1)
        if not going.all():
            done = ~going
            final_basis[ids[done]] = wbasis[done]
            final_rhs[ids[done]] = work[done, :m, -1]
            if not going.any():
                return final_basis, final_rhs
            # fill the holes among the first g tableaux from the tail
            g = int(going.sum())
            holes = np.flatnonzero(done[:g])
            tail = g + np.flatnonzero(going[g:])
            for a in (work, wbasis, ids, reduced):
                a[holes] = a[tail]
            work, wbasis, ids, reduced = work[:g], wbasis[:g], ids[:g], reduced[:g]
        col = reduced.argmax(axis=1)
        row = _leaving(work, wbasis, col)
        if (row < 0).any():
            raise LpInfeasible("unbounded")
        _pivot(work, wbasis, row, col, buf[: len(work)])


def _phase_one(A: np.ndarray, b: np.ndarray, senses: str) -> tuple[np.ndarray, np.ndarray]:
    """Feasible tableau (objective row free for phase 2) and its basis."""
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
    basis = np.arange(n + n_slack, width)[None, :]

    # Drive the artificials out.
    tab = np.vstack([body, np.zeros(width + 1)])
    tab[m, n + n_slack : n + n_slack + m] = 1.0
    for i in range(m):
        tab[m] -= tab[i]
    stack = tab[None]
    _iterate(stack, basis, n + n_slack)
    if tab[m, -1] < -1e-7:
        raise LpInfeasible("phase-1 optimum is positive")
    for i in range(m):  # pivot lingering artificials out on any usable column
        if basis[0, i] >= n + n_slack:
            usable = np.flatnonzero(np.abs(tab[i, : n + n_slack]) > EPS)
            if usable.size:
                _pivot(stack, basis, np.array([i]), usable[:1])
    return tab, basis[0]


def _phase_two(
    tab1: np.ndarray, basis1: np.ndarray, c: np.ndarray, n_cols: int, x: np.ndarray
) -> None:
    """Optimal x for each objective row of ``c`` (K, n), from copies of the
    phase-1 tableau, written into the zeroed rows of ``x``."""
    K, n = c.shape
    m = basis1.size
    tab = np.repeat(tab1[None], K, axis=0)
    basis = np.repeat(basis1[None], K, axis=0)
    obj = tab[:, m]
    obj[:] = 0.0
    obj[:, :n] = c
    for i, j in enumerate(basis1.tolist()):
        if j < n:  # a slack or artificial in the basis costs 0
            obj -= c[:, j, None] * tab[:, i]
    basis, rhs = _iterate(tab, basis, n_cols)
    k = np.arange(K)
    for i in range(m):
        structural = basis[:, i] < n
        x[k[structural], basis[structural, i]] = rhs[structural, i]


def simplex_solve(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    senses: str,
) -> tuple[np.ndarray, float | np.ndarray]:
    """Solve min c.x, rows typed by `senses` ('=' or '<'), x >= 0, b >= 0.

    ``c`` is one objective of shape (n,) or a stack of K objectives of shape
    (K, n) over the same constraints.  Returns (x, objective) with the same
    leading shape: x (n,) and a float, or x (K, n) and an array of K
    objectives; each row is exactly what that objective gets alone.  Raises
    LpInfeasible when no feasible point exists or an objective is
    unbounded, and ValueError on a non-finite input or a ``c`` whose last
    dimension is not A's column count.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    for name, value in (("c", c), ("A", A), ("b", b)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    _, n = A.shape
    if c.ndim not in (1, 2) or c.shape[-1] != n:
        raise ValueError(f"c has shape {c.shape}; need ({n},) or (K, {n}) to match A")
    if np.any(b < 0):
        raise ValueError("rows must be normalized to b >= 0")
    tab1, basis1 = _phase_one(A, b, senses)
    n_cols = n + senses.count("<")
    stack = c.reshape(-1, n)
    K = len(stack)
    passes = -(-K // max(1, _PASS_ELEMENTS // tab1.size))
    x = np.zeros(stack.shape)
    for p in range(passes):  # passes of near-equal size
        part = slice(p * K // passes, (p + 1) * K // passes)
        _phase_two(tab1, basis1, stack[part], n_cols, x[part])
    # one np.dot per row: the same summation as a lone solve
    objective = np.array([float(np.dot(ck, xk)) for ck, xk in zip(stack, x)])
    if c.ndim == 1:
        return x[0], float(objective[0])
    return x, objective
