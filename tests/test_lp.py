"""The stacked dense simplex against a one-objective scalar reference, and
its input checks."""

from __future__ import annotations

import numpy as np
import pytest

from tollkit import lp

SEED = 20261018
EPS = lp.EPS


# --- the reference: one tableau, one pivot at a time --------------------------


def scalar_pivot(tab, basis, row, col):
    tab[row] /= tab[row, col]
    for i in range(tab.shape[0]):
        if i != row and abs(tab[i, col]) > 1e-14:
            tab[i] -= tab[i, col] * tab[row]
    basis[row] = col


def scalar_iterate(tab, basis, n_cols):
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
            raise lp.LpInfeasible("unbounded")
        scalar_pivot(tab, basis, row, col)


def scalar_simplex(c, A, b, senses):
    """One objective, phase 1 and phase 2, with a scalar Bland loop."""
    m, n = A.shape
    n_slack = senses.count("<")
    width = n + n_slack + m
    body = np.zeros((m, width + 1))
    body[:, :n] = A
    body[:, -1] = b
    k = 0
    for i, s in enumerate(senses):
        if s == "<":
            body[i, n + k] = 1.0
            k += 1
    for i in range(m):
        body[i, n + n_slack + i] = 1.0
    basis = [n + n_slack + i for i in range(m)]
    tab = np.vstack([body, np.zeros(width + 1)])
    tab[m, n + n_slack : n + n_slack + m] = 1.0
    for i in range(m):
        tab[m] -= tab[i]
    scalar_iterate(tab, basis, n + n_slack)
    if tab[m, -1] < -1e-7:
        raise lp.LpInfeasible("phase-1 optimum is positive")
    for i in range(m):
        if basis[i] >= n + n_slack:
            usable = np.flatnonzero(np.abs(tab[i, : n + n_slack]) > EPS)
            if usable.size:
                scalar_pivot(tab, basis, i, int(usable[0]))
    n_cols = n + n_slack
    tab[m, :] = 0.0
    tab[m, :n] = c
    for i in range(m):
        if basis[i] < n_cols:
            coef = c[basis[i]] if basis[i] < n else 0.0
            if coef:
                tab[m] -= coef * tab[i]
    scalar_iterate(tab, basis, n_cols)
    x = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tab[i, -1]
    return x, float(np.dot(c, x))


def moment_lp(rng):
    """A nature-shaped 3-row LP and a stack of objectives: tolls in random
    order, either objective, either sense pattern."""
    n = int(rng.integers(41, 121))
    points = np.arange(n) * float(rng.choice([0.25, 1.0, 2.5, 5.0]))
    mu = float(rng.choice(points[1:-1]))
    kappa = float(rng.choice([0.0, 0.25, 1.0, 4.0, 40.0]))
    s1 = 1.0 / max(1.0, float(points[-1]))
    A = np.vstack([np.ones(n), points * s1, points * points * s1 * s1])
    b = np.array([1.0, mu * s1, (mu * mu + kappa * mu) * s1 * s1])
    senses = str(rng.choice(["==<", "==="]))
    tolls = rng.permutation(points)[: int(rng.integers(1, 40))][:, None]
    if rng.uniform() < 0.5:
        C = np.minimum(points, tolls)
    else:
        C = np.where(points >= tolls, tolls, 0.0)
    return C, A, b, senses


def stacked_or_infeasible(C, A, b, senses):
    try:
        return lp.simplex_solve(C, A, b, senses)
    except lp.LpInfeasible:
        return None


def test_stacked_simplex_matches_scalar_reference():
    rng = np.random.default_rng(SEED)
    solved = 0
    for trial in range(14):
        C, A, b, senses = moment_lp(rng)
        got = stacked_or_infeasible(C, A, b, senses)
        try:
            want = [scalar_simplex(c, A, b, senses) for c in C]
        except lp.LpInfeasible:
            assert got is None, trial
            continue
        X, objective = got
        assert X.shape == C.shape and objective.shape == (len(C),)
        for k, (x, value) in enumerate(want):
            assert X[k].tobytes() == x.tobytes(), (trial, k)
            assert objective[k] == value, (trial, k)
            alone, alone_value = lp.simplex_solve(C[k], A, b, senses)
            assert alone.tobytes() == x.tobytes() and alone_value == value
            assert type(alone_value) is float
        solved += len(C)
    assert solved > 150


def test_small_lps_match_scalar_reference():
    # General small LPs, some entries 1e-15: a multiplier at or below the
    # 1e-14 skip threshold must leave its row exactly as it is.
    rng = np.random.default_rng(SEED + 2)
    solved = 0
    for trial in range(300):
        m, n = int(rng.integers(2, 4)), int(rng.integers(3, 7))
        A = rng.integers(0, 4, (m, n)).astype(float)
        A[rng.uniform(size=A.shape) < 0.2] = 1e-15
        b = rng.integers(1, 5, m).astype(float)
        C = rng.integers(-3, 4, (3, n)).astype(float)
        senses = "".join(rng.choice(["=", "<"], m))
        try:
            want = [scalar_simplex(c, A, b, senses) for c in C]
        except lp.LpInfeasible:
            continue
        X, objective = lp.simplex_solve(C, A, b, senses)
        for k, (x, value) in enumerate(want):
            assert X[k].tobytes() == x.tobytes() and objective[k] == value, (trial, k)
        solved += 1
    assert solved > 100


def test_stack_split_into_passes(monkeypatch):
    rng = np.random.default_rng(SEED + 1)
    cases = [moment_lp(rng) for _ in range(6)]
    want = [stacked_or_infeasible(*case) for case in cases]
    assert sum(w is not None for w in want) >= 4
    passes = []
    phase_two = lp._phase_two

    def counted(tab, basis, c, n_cols, x):
        passes.append(len(c))
        phase_two(tab, basis, c, n_cols, x)

    monkeypatch.setattr(lp, "_phase_two", counted)
    for (C, A, b, senses), expected in zip(cases, want):
        # a budget of three tableaux: a stack of more than three is split
        width = A.shape[1] + senses.count("<") + A.shape[0] + 1
        monkeypatch.setattr(lp, "_PASS_ELEMENTS", 3 * (A.shape[0] + 1) * width)
        passes.clear()
        got = stacked_or_infeasible(C, A, b, senses)
        if expected is None:
            assert got is None
            continue
        assert len(passes) == -(-len(C) // 3) and sum(passes) == len(C)
        assert max(passes) - min(passes) <= 1
        assert got[0].tobytes() == expected[0].tobytes()
        assert got[1].tolist() == expected[1].tolist()


def test_empty_stack():
    A = np.vstack([np.ones(4), np.arange(4.0)])
    x, objective = lp.simplex_solve(np.zeros((0, 4)), A, np.array([1.0, 1.5]), "==")
    assert x.shape == (0, 4) and objective.shape == (0,)


def test_unbounded_objective_raises():
    A = np.array([[1.0, -1.0]])
    with pytest.raises(lp.LpInfeasible, match="unbounded"):
        lp.simplex_solve(np.array([[0.0, 1.0], [-1.0, 0.0]]), A, np.array([1.0]), "=")


# --- input checks -------------------------------------------------------------


A3 = np.vstack([np.ones(5), np.arange(5.0), np.arange(5.0) ** 2])
B3 = np.array([1.0, 2.0, 5.0])
C5 = np.arange(5.0)


@pytest.mark.parametrize(
    "c, A, b, message",
    [
        (np.array([0.0, np.nan, 2.0, 3.0, 4.0]), A3, B3, "c must be finite"),
        (np.where(np.arange(15.0).reshape(3, 5) == 7.0, np.inf, 0.0), A3, B3, "c must be finite"),
        (C5, np.where(A3 == 4.0, np.inf, A3), B3, "A must be finite"),
        (C5, A3, np.array([1.0, np.nan, 5.0]), "b must be finite"),
        (np.arange(4.0), A3, B3, r"c has shape \(4,\)"),
        (np.zeros((2, 6)), A3, B3, r"c has shape \(2, 6\)"),
        (np.zeros((2, 2, 5)), A3, B3, r"c has shape \(2, 2, 5\)"),
    ],
    ids=["nan-c", "inf-c-stack", "inf-A", "nan-b", "short-c", "wide-c-stack", "3d-c"],
)
def test_bad_input_raises_value_error(c, A, b, message):
    with pytest.raises(ValueError, match=message):
        lp.simplex_solve(c, A, b, "==<")
