"""References for the fast paths: an exhaustive one for nature's exact
solvers (every support of at most three grid points, in plain loops, under
nature's tie rule and on levels, both defined here, each pick re-checked and
packaged by the scalar rules here rather than nature's array ones), the
two-point search picking a response at every grid toll, and a CSV reader
that reads every input through ``csv.reader``."""

from __future__ import annotations

import contextlib
import csv
import math
import os
from itertools import combinations

import numpy as np

from tollkit.core import (
    MASS_TOL,
    DiscreteDistribution,
    Table,
    expected_revenue,
    expected_user_cost,
)
from tollkit.nature import (
    _NO_FIT,
    _TIE_TOL,
    NatureSolution,
    first_feasible_lower,
    two_point_responses,
)

# Masses below this are numerical artifacts of the small linear solves, not
# genuine support atoms; candidates are cleaned before evaluation.
_ATOM_TOL = 1e-10


def brute_force_nature(grid, env, rows):
    """Nature's solution at each ``(toll, objective)`` of ``rows``, one
    ``NatureSolution`` per row.  The supports, their masses and their
    admission do not depend on the row, so they are enumerated once per
    call; each row scores its admitted candidates and takes
    ``tie_pick_reference`` over all of them, and only a triple's stationary
    mean, where the row's objective on it is flat in the mean, is found per
    row."""
    env.validate_against(grid)
    for toll, _ in rows:
        grid.require_toll(toll)
    points = grid.points()
    if not rows:
        return ()
    levels = [levels_reference(points, toll, objective) for toll, objective in rows]
    cube = levels[0][2]
    kappa, ul, uu = env.kappa_bar, env.u_lower, env.u_upper
    scale = float(np.max(np.abs(points)))

    def admit(support, masses):  # (grid indices, support, weights, cube), or None
        # Drop solver-noise atoms *before* judging moments: a 1e-11 mass from
        # an LU solve would otherwise let a strictly infeasible candidate
        # slide through the feasibility slack and shave the objective.
        pairs = [(c, m) for c, m in zip(support, masses) if m > _ATOM_TOL]
        total = math.fsum(m for _, m in pairs)
        if any(m < -1e-9 for m in masses) or not pairs or abs(total - 1.0) > 1e-9 or total <= 0:
            return None
        values = [c for c, _ in pairs]
        weights = [m / total for _, m in pairs]
        mean = math.fsum(w * c for c, w in zip(values, weights))
        var = math.fsum(w * c * c for c, w in zip(values, weights)) - mean * mean
        if not feasible_moments_reference(mean, var, env, scale):
            return None
        at = [int(round((c - grid.q) / grid.step)) for c in values]
        return at, values, weights, math.fsum(w * cube[i] for i, w in zip(at, weights))

    def at_mean(trio, w, mu):  # the triple's masses at mean mu: w0 + mu*lin + mu^2*w2
        if ul - MASS_TOL * scale <= mu <= uu + MASS_TOL * scale:
            return admit(trio, [a + mu * b + mu * mu * c for a, b, c in zip(*w)])

    entries = [admit([c], [1.0]) for c in points.tolist()]
    for ci, cj in combinations(points.tolist(), 2):
        d = cj - ci
        cands = {0.0, 1.0, (cj - ul) / d, (cj - uu) / d}
        bq = 1.0 + kappa / d
        disc = bq * bq - 4.0 * kappa * cj / (d * d)
        if disc >= 0:
            sq = math.sqrt(disc)
            cands.update((0.5 * (bq - sq), 0.5 * (bq + sq)))
        for t in sorted(cands):
            if -1e-9 <= t <= 1 + 1e-9:
                t = min(max(t, 0.0), 1.0)
                entries.append(admit([ci, cj], [t, 1.0 - t]))
    trios = np.array(list(combinations(range(points.size), 3)), dtype=np.intp).reshape(-1, 3)
    C = points[trios]
    M = np.stack([np.ones_like(C), C, C * C], axis=1)  # per triple: rows 1, c, c^2
    # one stacked solve per unit column; a (triples, 3, 1) right side gives
    # each triple the lone solve(M, e) of its own matrix
    w0, w1, w2 = (
        np.linalg.solve(M, np.broadcast_to(e[:, None], (len(M), 3, 1)))[..., 0] for e in np.eye(3)
    )
    W = np.stack([w0, w1 + kappa * w2, w2], axis=1)  # per triple: w0, lin = w1 + kappa*w2, w2
    for t, (trio, w) in enumerate(zip(C.tolist(), W.tolist())):
        roots = []  # the means at which one mass is zero
        for qc, qb, qa in zip(*w):
            if abs(qa) > 1e-14:
                disc = qb * qb - 4.0 * qa * qc
                if disc >= 0:
                    sq = math.sqrt(disc)
                    roots += [(-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)]
            elif abs(qb) > 1e-14:
                roots.append(-qc / qb)
        entries += [at_mean(trio, w, ul), at_mean(trio, w, uu), t]  # t: its stationary mean
        entries += [at_mean(trio, w, mu) for mu in roots]
    entries = [entry for entry in entries if entry is not None]

    solutions = []
    for (toll, objective), (f, u, _) in zip(rows, levels):
        F, fs, us = f[trios], f.tolist(), u.tolist()
        keys, picks = [], []  # per admitted candidate: (objective, usage, cube), (support, masses)
        for entry in entries:
            if type(entry) is int:  # a triple: its mean where the row's objective is flat
                a2 = float(np.dot(F[entry], W[entry, 2]))
                if abs(a2) <= 1e-14:
                    continue
                mu = -float(np.dot(F[entry], W[entry, 1])) / (2.0 * a2)
                entry = at_mean(points[trios[entry]].tolist(), W[entry].tolist(), mu)
                if entry is None:
                    continue
            at, values, weights, g = entry
            obj = math.fsum(w * fs[i] for i, w in zip(at, weights))
            usage = math.fsum(w * us[i] for i, w in zip(at, weights))
            keys.append((obj, usage, g))
            picks.append((values, weights))
        if not keys:
            raise ValueError(_NO_FIT)
        support, masses = picks[tie_pick_reference(keys)]
        solutions.append(
            NatureSolution(*package_reference(support, masses, env, toll, objective, scale))
        )
    return tuple(solutions)


def tie_pick_reference(keys):
    """Nature's tie rule over one toll's ``(objective, usage, cube)`` keys,
    one triple per candidate, in plain floats: of the candidates within
    ``_TIE_TOL`` of the lowest objective, then within ``_TIE_TOL`` of the
    lowest usage among them, the index of the lowest cube, the first on an
    exact tie."""
    best = min(objective for objective, _, _ in keys)
    ties = [k for k, (objective, _, _) in enumerate(keys) if objective <= best + _TIE_TOL]
    low = min(keys[k][1] for k in ties)
    return min((k for k in ties if keys[k][1] <= low + _TIE_TOL), key=lambda k: keys[k][2])


def levels_reference(points, toll, objective):
    """Nature's three keys per grid point at one toll, by the tie rule's
    own definitions: the objective (``min(c, r)`` under UFN, ``r`` where
    ``c >= r`` and 0 elsewhere under AN), the usage ``c >= r``, and the cube
    ``s * s * s`` of ``s``, the grid scaled onto [0, 1]."""
    if objective == "ufn":
        cost = np.minimum(points, toll)
    elif objective == "an":
        cost = np.where(points >= toll, toll, 0.0)
    else:
        raise ValueError(f"unknown objective {objective!r}")
    s = (points - points[0]) / (points[-1] - points[0])
    return cost, (points >= toll).astype(float), s * s * s


def feasible_moments_reference(mean, var, env, scale):
    """The moment re-check on one toll's floats: the band within 1e-9 of
    ``max(1, scale)``, the variance cap within 1e-9 of ``max(1, scale**2)``."""
    mean_tol, var_tol = 1e-9 * max(1.0, scale), 1e-9 * max(1.0, scale * scale)
    return (
        env.u_lower - mean_tol <= mean <= env.u_upper + mean_tol
        and var <= env.kappa_bar * mean + var_tol
    )


def active_constraints_reference(mean, var, env):
    """One toll's labels, in plain floats: a mean bound within ``tol`` of
    the mean, the variance cap within the larger of ``tol`` and 1e-6 of it."""
    tol = 1e-6 * max(1.0, abs(mean))
    cap = env.kappa_bar * mean
    labels = []
    if mean <= env.u_lower + tol:
        labels.append("mean-lower")
    if mean >= env.u_upper - tol:
        labels.append("mean-upper")
    if var >= cap - max(tol, 1e-6 * cap):
        labels.append("variance")
    return tuple(labels)


def package_reference(support, masses, env, r, objective, scale):
    """One toll packaged on its own, in plain floats: a validated
    ``from_pairs`` distribution, its ``fsum`` moments, the feasibility
    re-check (within the tolerances of ``scale``, the grid's), and the
    objective and usage from the distribution's own methods."""
    dist = DiscreteDistribution.from_pairs(zip(support, masses))
    mean, var = dist.mean(), dist.variance()
    if not feasible_moments_reference(mean, var, env, scale):
        raise AssertionError(
            f"solver produced an infeasible distribution: mean={mean}, var={var}"
        )
    value = expected_user_cost(dist, r) if objective == "ufn" else expected_revenue(dist, r)
    return dist, value, dist.usage_probability(r), active_constraints_reference(mean, var, env)


def two_point_reference(grid, env, T):
    """``two_point_robust_toll``'s ``(toll, epsilon, br_curve)`` from a
    response picked at every grid toll, with no range cut: usage is the
    periods whose cost ties or exceeds the toll, the envelope-floor toll
    keeps at least one, and the first maximum of BR(r) wins."""
    mu = env.u_lower
    points = grid.points()
    table = first_feasible_lower(points[points < mu], mu, env.kappa_bar, T, grid.Q)
    low_count, lower, upper = two_point_responses(table, mu, T, points)
    usage = np.where(lower >= points, low_count, 0) + np.where(upper >= points, T - low_count, 0)
    floor_idx = grid.index_of(mu)
    usage[floor_idx] = max(usage[floor_idx], 1)
    br = points * usage
    best = int(np.argmax(br))
    return float(points[best]), float(usage[best]) / T, dict(zip(points.tolist(), br.tolist()))


def _all_finite(values):
    try:
        if math.isfinite(sum(values)):
            return True
    except (TypeError, OverflowError):
        pass
    return not any(isinstance(v, float) and not math.isfinite(v) for v in values)


def csv_read_rows(source, header, converters):
    """``tollkit.core.read_rows`` as it reads with ``csv.reader`` alone:
    the same ``Table``, or the same error message, for any input."""
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
            fields, lines = [], []
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
    return Table(where, lines, columns)
