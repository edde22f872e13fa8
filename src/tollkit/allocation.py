"""Integer arc tolls under path toll bounds.

``allocate_arc_tolls`` splits priced path bounds back onto individual toll
arcs with a small exact branch-and-bound.  It works on Python lists, so
this module imports no numpy and an ``allocate`` process never loads it.
"""

from __future__ import annotations

import math

__all__ = ["MAX_ALLOC_ARCS", "MAX_ALLOC_NODES", "allocate_arc_tolls"]

MAX_ALLOC_ARCS = 12
# Search nodes one allocation may visit; the search is refused past it.
MAX_ALLOC_NODES = 500_000


def allocate_arc_tolls(bounds, incidence) -> list[int]:
    """Split path toll bounds into integer per-arc tolls.

    ``incidence[p][a]`` is 1 when path p uses toll arc a and 0 when it
    does not.  Maximizes the total arc toll subject to, for each path p,
    sum of tolls on p's toll arcs <= bounds[p].  Exact depth-first
    branch-and-bound, which prunes with the smaller of two bounds on the
    arcs left: the sum of their per-arc caps, and a greedy path cover's
    residuals; ties resolve to the lexicographically smallest toll
    vector.  Guarded to ``MAX_ALLOC_ARCS`` arcs, and refused when the
    search needs more than ``MAX_ALLOC_NODES`` nodes (large bounds on
    shared arcs).
    """
    sigma = [float(b) for b in bounds]
    try:
        inc = [list(row) for row in incidence]
    except TypeError:
        inc = None
    widths = {len(row) for row in inc or ()}
    if inc is None or len(inc) != len(sigma) or len(widths) > 1:
        raise ValueError("incidence must be (paths x arcs) matching bounds")
    n_arcs = widths.pop() if widths else 0
    for p, row in enumerate(inc):
        for a, used in enumerate(row):
            if used not in (0, 1):
                raise ValueError(
                    f"incidence entry for path {p}, arc {a} must be 0 or 1, got {used}"
                )
    bad = [b for b in sigma if not math.isfinite(b)]
    if bad:
        raise ValueError(f"path bounds must be finite, got {bad}")
    if any(b < 0 for b in sigma):
        raise ValueError("negative path bound")
    if n_arcs > MAX_ALLOC_ARCS:
        raise ValueError(
            f"instance too large for exact allocation ({n_arcs} > {MAX_ALLOC_ARCS} arcs)"
        )
    rows_of = [[p for p, row in enumerate(inc) if row[a]] for a in range(n_arcs)]
    if not all(rows_of):
        raise ValueError("toll arc not covered by any path bound is unbounded")

    def cap(a: int, residual: list[float]) -> int:
        return math.floor(min(residual[p] for p in rows_of[a]) + 1e-9)

    masks = [sum(1 << a for a, used in enumerate(row) if used) for row in inc]

    def cover(idx: int, residual: list[float]) -> int:
        """An upper bound on the tolls of arcs ``idx`` onward: the floored
        residuals of a greedy cover of those arcs by paths.  Tolls are at
        least 0 and every arc lies on a covering path, whose tolls sum to at
        most its residual."""
        left = (1 << n_arcs) - (1 << idx)
        weight = [math.floor(r + 1e-9) for r in residual]
        total = 0
        while left:
            # the path with the least weight per newly covered arc
            pick, pick_new = -1, 0
            for p, mask in enumerate(masks):
                new = (mask & left).bit_count()
                if new and (pick < 0 or weight[p] * pick_new < weight[pick] * new):
                    pick, pick_new = p, new
            total += weight[pick]
            left &= ~masks[pick]
        return total

    best_total = -1
    best_vec: list[int] = []
    current = [0] * n_arcs
    visited = 0

    def search(idx: int, residual: list[float], total: int) -> None:
        nonlocal best_total, best_vec, visited
        visited += 1
        if visited > MAX_ALLOC_NODES:
            raise ValueError(
                f"allocation search passed its budget of {MAX_ALLOC_NODES} nodes; "
                "lower the path bounds or split the instance"
            )
        if idx == n_arcs:
            if total > best_total:
                best_total = total
                best_vec = current.copy()
            return
        if total + sum(cap(a, residual) for a in range(idx, n_arcs)) <= best_total:
            return
        if total + cover(idx, residual) <= best_total:
            return
        for v in range(cap(idx, residual) + 1):  # ascending: lex-smallest wins ties
            current[idx] = v
            nxt = residual.copy()
            for p in rows_of[idx]:
                nxt[p] -= v
            search(idx + 1, nxt, total + v)
        current[idx] = 0

    search(0, sigma, 0)
    return best_vec
