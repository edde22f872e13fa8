"""The warm-walking dense simplex against a one-objective scalar reference,
an enumeration of every basis and a plainly written walk that it must
match bit for bit, and its input checks."""

from __future__ import annotations

import itertools

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


def reference_iterate(tab, basis, n_cols):
    # lp's pivot rule written plainly: a boolean mask of the columns that
    # may enter, then the most negative of them, or Bland's first one
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
                raise lp.LpInfeasible("unbounded")
            degenerate = best <= EPS
            lp._pivot(tab, basis, row, col)


def reference_walk(c, A, b, senses):
    """lp's walk written plainly: phase 1 and every objective pivot by
    ``reference_iterate``, and each objective's x is written as the walk
    reaches it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_iterate", reference_iterate)
        body, basis, rows = lp._phase_one(A, b, senses)
    m, n = A.shape
    n_cols = n + senses.count("<")
    K, L, _ = c.shape
    tab = np.empty((m + L, body.shape[1]))
    tab[:m] = rows
    cost = np.zeros((L, body.shape[1]))
    x = np.zeros((K, n))
    rebuilt = None
    for k in range(K):
        cost[:, :n] = c[k]
        tab[m:] = cost - cost[:, basis] @ tab[:m]
        reference_iterate(tab, basis, n_cols)
        if basis.tolist() != rebuilt:
            rows, rebuilt = np.linalg.solve(body[:, basis], body), basis.tolist()
        tab[:m] = rows
        structural = basis < n
        x[k, basis[structural]] = tab[:m, -1][structural]
    return x


def moment_lp(rng, sizes=(41, 121)):
    """A nature-shaped 3-row LP and a walk of objectives: tolls in random
    order, either objective, either sense pattern.  Returns the one-level
    costs (K, n), the three-level walk (K, 3, n) of cost, usage and cube,
    A, b and the senses."""
    n = int(rng.integers(*sizes))
    points = np.arange(n) * float(rng.choice([0.25, 1.0, 2.5, 5.0]))
    mu = float(rng.choice(points[1:-1]))
    kappa = float(rng.choice([0.0, 0.25, 1.0, 4.0, 40.0]))
    senses = str(rng.choice(["==<", "==="]))
    tolls = rng.permutation(points)[: int(rng.integers(1, 40))]
    objective = "ufn" if rng.uniform() < 0.5 else "an"
    return (*moment_walk(points, mu, kappa, tolls, objective), senses)


def moment_walk(points, mu, kappa, tolls, objective):
    """Nature's moment LP on ``points`` (mass, mean ``mu``, second moment
    at most or exactly ``mu**2 + kappa * mu``, rows scaled as nature
    scales them) and its objectives at ``tolls``, in the order given.
    Returns the one-level costs (K, n), the three-level walk (K, 3, n) of
    cost, usage and cube, A and b."""
    s1 = 1.0 / max(1.0, float(points[-1]))
    A = np.vstack([np.ones_like(points), points * s1, points * points * s1 * s1])
    b = np.array([1.0, mu * s1, (mu * mu + kappa * mu) * s1 * s1])
    tolls = np.asarray(tolls)[:, None]
    if objective == "ufn":
        C = np.minimum(points, tolls)
    else:
        C = np.where(points >= tolls, tolls, 0.0)
    cube = np.broadcast_to((points * s1) ** 3, C.shape)
    levels = np.stack([C, (points >= tolls) * 1.0, cube], axis=1)
    return C, levels, A, b


def walk_or_infeasible(C, A, b, senses):
    try:
        return lp.simplex_solve(C, A, b, senses)
    except lp.LpInfeasible:
        return None


def vertex_enumeration(levels, A, b, senses):
    """The lexicographic minimum over every basic feasible solution, each
    level taken among the earlier levels' optima within 1e-9."""
    m, n = A.shape
    slack = np.eye(m)[:, [i for i, s in enumerate(senses) if s == "<"]]
    full = np.hstack([A, slack])
    vertices = []
    for cols in itertools.combinations(range(full.shape[1]), m):
        B = full[:, cols]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        xb = np.linalg.solve(B, b)
        if (xb >= -1e-9).all():
            x = np.zeros(full.shape[1])
            x[list(cols)] = xb
            vertices.append(x[:n])
    if not vertices:
        return None
    X = np.array(vertices)
    for c in levels:
        value = X @ c
        X = X[value <= value.min() + 1e-9]
    return X[0]


def test_walk_matches_scalar_reference():
    # A walk over objectives in any order reaches each objective's optimal
    # value; ties may leave it on another optimal vertex than a solve from
    # scratch, so x is checked for feasibility, not compared.
    rng = np.random.default_rng(SEED)
    solved = 0
    for trial in range(14):
        C, _, A, b, senses = moment_lp(rng)
        X = walk_or_infeasible(C[:, None], A, b, senses)
        try:
            want = [scalar_simplex(c, A, b, senses) for c in C]
        except lp.LpInfeasible:
            assert X is None, trial
            continue
        assert X.shape == C.shape
        for k, (_, value) in enumerate(want):
            assert abs(float(C[k] @ X[k]) - value) <= 1e-9 * max(1.0, abs(value)), (trial, k)
            assert (X[k] >= -1e-12).all() and np.allclose(A[:2] @ X[k], b[:2], atol=1e-9)
            gap = A[2] @ X[k] - b[2]
            assert gap <= 1e-9 if senses == "==<" else abs(gap) <= 1e-9
        solved += len(C)
    assert solved > 150


def test_lexicographic_walk_matches_vertex_enumeration():
    # Cost, then usage, then the cube: the third level has one minimizer on
    # these LPs, so the walk, in grid order or shuffled, and a lone solve all
    # reach the vertex the enumeration of every basis finds.
    rng = np.random.default_rng(SEED + 1)
    solved = 0
    for trial in range(24):
        _, levels, A, b, senses = moment_lp(rng, sizes=(6, 16))
        want = [vertex_enumeration(lv, A, b, senses) for lv in levels]
        X = walk_or_infeasible(levels, A, b, senses)
        if want[0] is None:
            assert X is None, trial
            continue
        order = rng.permutation(len(levels))
        shuffled = lp.simplex_solve(levels[order], A, b, senses)
        for k, x in enumerate(want):
            alone = lp.simplex_solve(levels[k : k + 1], A, b, senses)
            for y in (X[k], shuffled[np.flatnonzero(order == k)[0]], alone[0]):
                assert np.allclose(y, x, atol=1e-9), (trial, k)
                assert np.array_equal(y > 1e-11, X[k] > 1e-11), (trial, k)
        solved += len(levels)
    assert solved > 150


def test_levels_choose_among_the_earlier_optima():
    A = np.array([[1.0, 1.0, 1.0, 1.0]])
    b = np.array([1.0])
    cost = np.array([0.0, 0.0, 1.0, 0.0])  # ties between columns 0, 1 and 3
    usage = np.array([1.0, 0.0, 0.0, 0.0])
    cube = np.array([0.0, 3.0, -5.0, 2.0])
    x = lp.simplex_solve(np.stack([cost, usage, cube])[None], A, b, "=")
    # the cube's best column 2 is not optimal at level 0, and column 0 loses
    # on usage: column 3 wins
    assert x.tolist() == [[0.0, 0.0, 0.0, 1.0]]
    x = lp.simplex_solve(np.stack([cost, cube, usage])[None], A, b, "=")
    assert x.tolist() == [[1.0, 0.0, 0.0, 0.0]]
    # a walk: each objective starts where the last one ended
    walk = np.stack([np.stack([cost, usage, cube]), np.stack([-cost, cube, usage])])
    x = lp.simplex_solve(walk, A, b, "=")
    assert x.tolist() == [[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]


def test_walk_rebuilds_only_when_its_basis_moves(monkeypatch):
    # K copies of one objective: the first pivots to the optimal basis and
    # rebuilds its rows, the rest make no pivot and reuse that rebuild, and
    # every x is a lone solve's x, byte for byte.
    rng = np.random.default_rng(SEED + 3)
    rebuilds = []
    solve = np.linalg.solve
    monkeypatch.setattr(lp.np.linalg, "solve", lambda *args: rebuilds.append(1) or solve(*args))
    walked = 0
    for trial in range(12):
        C, levels, A, b, senses = moment_lp(rng)
        for c in (C[0, None], levels[0]):
            lone = walk_or_infeasible(c[None], A, b, senses)
            if lone is None:
                continue
            rebuilds.clear()
            X = lp.simplex_solve(np.stack([c] * 5), A, b, senses)
            assert len(rebuilds) == 1, trial
            assert all(x.tolist() == lone[0].tolist() for x in X), trial
            walked += 1
    assert walked > 10


def matches_reference_walk(c, A, b, senses):
    """Whether the walk's x equals the reference walk's byte for byte, or
    both raise LpInfeasible (then False: nothing was walked)."""
    try:
        want = reference_walk(c, A, b, senses)
    except lp.LpInfeasible:
        with pytest.raises(lp.LpInfeasible):
            lp.simplex_solve(c, A, b, senses)
        return False
    assert np.array_equal(lp.simplex_solve(c, A, b, senses), want)
    return True


def test_walk_matches_reference_walk_bit_for_bit():
    # Every toll of a grid, walked in grid order and shuffled, under both
    # objectives and both sense patterns, gives the reference walk's x
    # byte for byte.  Half the grids start at 100 with step 0.25, where the
    # basis is ill-conditioned and any change to the rebuild's arithmetic
    # shows in x.
    rng = np.random.default_rng(SEED + 4)
    walked = 0
    for trial in range(12):
        n = int(rng.integers(8, 41))
        q, step = (100.0, 0.25) if trial % 2 else (0.0, float(rng.choice([1.0, 2.5, 5.0])))
        points = q + step * np.arange(n)
        mu = float(rng.choice(points[1:-1]) if rng.uniform() < 0.5 else rng.uniform(q, points[-1]))
        kappa = float(rng.choice([0.0, 0.25, 1.0, 4.0, 40.0, rng.uniform(0.0, 40.0)]))
        for objective in ("ufn", "an"):
            _, levels, A, b = moment_walk(points, mu, kappa, points, objective)
            for senses in ("==<", "==="):
                for order in (np.arange(n), rng.permutation(n)):
                    walked += matches_reference_walk(levels[order], A, b, senses)
    assert walked > 60


def test_degenerate_walks_match_reference_walk_bit_for_bit():
    # Small LPs with zeros in b and three objectives walked in turn:
    # degenerate pivots are common, and Bland's rule decides where the walk
    # goes next.
    rng = np.random.default_rng(SEED + 5)
    walked = 0
    for _ in range(300):
        m, n = int(rng.integers(3, 5)), int(rng.integers(6, 10))
        A = rng.integers(0, 3, (m, n)).astype(float)
        A[rng.uniform(size=A.shape) < 0.1] = 1e-15
        b = rng.integers(0, 3, m).astype(float)
        C = rng.integers(-3, 4, (3, 1, n)).astype(float)
        senses = "".join(rng.choice(["=", "<"], m))
        walked += matches_reference_walk(C, A, b, senses)
    assert walked > 100


def test_small_lps_match_scalar_reference():
    # General small LPs, some entries 1e-15, three objectives walked in turn:
    # each reaches the reference's optimal value at a feasible x.
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
        X = lp.simplex_solve(C[:, None], A, b, senses)
        eq = np.array([s == "=" for s in senses])
        for k, (_, value) in enumerate(want):
            assert abs(float(C[k] @ X[k]) - value) <= 1e-9 * max(1.0, abs(value)), (trial, k)
            row = A @ X[k]
            assert (X[k] >= -1e-12).all(), (trial, k)
            assert np.allclose(row[eq], b[eq], atol=1e-9) and (row[~eq] <= b[~eq] + 1e-9).all()
        solved += 1
    assert solved > 100


def test_empty_stack():
    A = np.vstack([np.ones(4), np.arange(4.0)])
    x = lp.simplex_solve(np.zeros((0, 1, 4)), A, np.array([1.0, 1.5]), "==")
    assert x.shape == (0, 4)


def test_unbounded_objective_raises():
    A = np.array([[1.0, -1.0]])
    with pytest.raises(lp.LpInfeasible, match="unbounded"):
        lp.simplex_solve(np.array([[[0.0, 1.0]], [[-1.0, 0.0]]]), A, np.array([1.0]), "=")


# --- input checks -------------------------------------------------------------


A3 = np.vstack([np.ones(5), np.arange(5.0), np.arange(5.0) ** 2])
B3 = np.array([1.0, 2.0, 5.0])
C5 = np.arange(5.0).reshape(1, 1, 5)


@pytest.mark.parametrize(
    "c, A, b, senses, message",
    [
        (np.array([[[0.0, np.nan, 2.0, 3.0, 4.0]]]), A3, B3, "==<", "c must be finite"),
        (
            np.where(np.arange(15.0).reshape(3, 1, 5) == 7, np.inf, 0.0),
            A3,
            B3,
            "==<",
            "c must be finite",
        ),
        (C5, np.where(A3 == 4.0, np.inf, A3), B3, "==<", "A must be finite"),
        (C5, A3, np.array([1.0, np.nan, 5.0]), "==<", "b must be finite"),
        (np.arange(4.0).reshape(1, 1, 4), A3, B3, "==<", r"c has shape \(1, 1, 4\)"),
        (np.zeros((2, 6)), A3, B3, "==<", r"c has shape \(2, 6\)"),
        (np.zeros((2, 2, 6)), A3, B3, "==<", r"c has shape \(2, 2, 6\)"),
        (np.zeros((1, 2, 2, 5)), A3, B3, "==<", r"c has shape \(1, 2, 2, 5\)"),
        (np.arange(5.0), A3, B3, "==<", r"c has shape \(5,\); need \(K, L, 5\)"),
        (np.zeros((2, 5)), A3, B3, "==<", r"c has shape \(2, 5\); need \(K, L, 5\)"),
        (C5, A3, B3, "==<<", r"senses '==<<' has 4 rows; need 3"),
        (C5, A3, B3, "=<", r"senses '=<' has 2 rows; need 3"),
        (C5, np.arange(5.0), B3, "==<", r"A has shape \(5,\); need \(m, n\)"),
        (C5, A3, B3[:2], "==<", r"b has shape \(2,\); need \(3,\)"),
    ],
    ids=[
        "nan-c",
        "inf-c-stack",
        "inf-A",
        "nan-b",
        "short-c",
        "wide-c-stack",
        "3d-c",
        "4d-c",
        "1d-c",
        "2d-c",
        "long-senses",
        "short-senses",
        "1d-A",
        "short-b",
    ],
)
def test_bad_input_raises_value_error(c, A, b, senses, message):
    with pytest.raises(ValueError, match=message):
        lp.simplex_solve(c, A, b, senses)
