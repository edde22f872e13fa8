"""Exhaustive reference for nature's exact solvers: every support of at
most three grid points, in plain loops, under nature's tie rule."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from tollkit.core import MASS_TOL
from tollkit.nature import _NO_FIT, _Best, _feasible_moments, _levels, _solutions

# Masses below this are numerical artifacts of the small linear solves, not
# genuine support atoms; candidates are cleaned before evaluation.
_ATOM_TOL = 1e-10


def brute_force_nature(grid, env, rows):
    """Nature's solution at each ``(toll, objective)`` of ``rows``, one
    ``NatureSolution`` per row.  The supports, their masses and their
    admission do not depend on the row, so they are enumerated once per
    call; each row offers the admitted candidates to its own ``_Best`` in
    enumeration order, and only a triple's stationary mean, where the row's
    objective on it is flat in the mean, is found per row."""
    env.validate_against(grid)
    for toll, _ in rows:
        grid.require_toll(toll)
    points = grid.points()
    levels = [_levels(points, toll, objective)[0] for toll, objective in rows]
    if not rows:
        return ()
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
        if not _feasible_moments(mean, var, env, scale):
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
    W, E = np.empty((len(trios), 3, 3)), np.eye(3)  # per triple: w0, lin = w1 + kappa*w2, w2
    for t, trio in enumerate(points[trios].tolist()):
        M = np.array([[1.0, 1.0, 1.0], trio, [c * c for c in trio]])
        w0, w1, w2 = (np.linalg.solve(M, e) for e in E)
        W[t] = w0, w1 + kappa * w2, w2
        w, roots = W[t].tolist(), []  # roots: the means at which one mass is zero
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
        best = _Best()
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
            best.offer(obj, math.fsum(w * us[i] for i, w in zip(at, weights)), g, values, weights)
        if best.objective is None:
            raise ValueError(_NO_FIT)
        solutions += _solutions(grid, env, [(best.support, best.masses)], [toll], objective)
    return tuple(solutions)
