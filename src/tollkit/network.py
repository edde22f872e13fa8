"""Single-commodity toll networks.

Arcs split into a tolled set and a free set; each network carries a matrix
of per-state non-toll arc costs.  The pipeline here reduces a general
network to parallel-road pricing instances: enumerate simple
origin-destination paths (pruning ones that are never state-wise minimal),
compute per-state margins of a toll path against its best toll-free
alternative, wrap the margins in a moment envelope, and finally allocate a
priced path bound back onto individual toll arcs with a small exact integer
program.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import MomentEnvelope, PriceGrid, estimate_moment_envelope, flag, read_rows

__all__ = [
    "Arc",
    "TollNetwork",
    "PathFamily",
    "ParallelInstance",
    "enumerate_paths",
    "state_margin_series",
    "state_shortest_path_costs",
    "build_parallel_equivalent",
    "allocate_arc_tolls",
    "load_network",
    "read_arcs",
    "write_network",
]

MAX_ALLOC_ARCS = 12


@dataclass(frozen=True)
class Arc:
    tail: str
    head: str
    toll_flag: bool
    length: float = 1.0


@dataclass(frozen=True)
class TollNetwork:
    """Directed network with per-state non-toll arc costs.

    ``state_costs[s, a]`` is the base (non-toll) cost of arc ``a`` in state
    ``s``; toll arcs carry their base cost here and the toll on top.
    """

    arcs: tuple[Arc, ...]
    origin: str
    destination: str
    state_costs: np.ndarray

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise ValueError("origin and destination must differ")
        costs = np.asarray(self.state_costs, dtype=float)
        if costs.ndim != 2 or costs.shape[1] != len(self.arcs):
            raise ValueError(
                f"state_costs must be (states x {len(self.arcs)} arcs), "
                f"got shape {costs.shape}"
            )
        if not np.all(np.isfinite(costs)) or (costs < -1e-9).any():
            raise ValueError("arc costs must be finite and non-negative")
        object.__setattr__(self, "state_costs", costs)
        parallel = Counter((a.tail, a.head) for a in self.arcs)
        worst = max(parallel.values(), default=0)
        if worst > 2:
            raise ValueError("more than two parallel arcs between a node pair")

    @property
    def n_states(self) -> int:
        return self.state_costs.shape[0]

    @property
    def nodes(self) -> tuple[str, ...]:
        names = {self.origin, self.destination}
        for a in self.arcs:
            names.add(a.tail)
            names.add(a.head)
        return tuple(sorted(names))

    @property
    def toll_arcs(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.arcs) if a.toll_flag)

    @property
    def free_arcs(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.arcs) if not a.toll_flag)


@dataclass(frozen=True)
class PathFamily:
    """Surviving simple paths, as tuples of arc indices.

    ``incidence`` has one row per path and one column per toll arc (in
    ``toll_arc_order``); ``toll_paths`` indexes the rows with at least one
    toll arc.
    """

    paths: tuple[tuple[int, ...], ...]
    toll_paths: tuple[int, ...]
    toll_arc_order: tuple[int, ...]
    incidence: np.ndarray


@dataclass(frozen=True)
class ParallelInstance:
    """One toll path reduced to a parallel-road pricing instance."""

    path: tuple[int, ...]
    margins: tuple[float, ...]
    envelope: MomentEnvelope


def _path_cost_matrix(net: TollNetwork, paths) -> np.ndarray:
    return np.stack([net.state_costs[:, list(p)].sum(axis=1) for p in paths])


def enumerate_paths(net: TollNetwork, max_paths: int = 64) -> PathFamily:
    """All simple origin-destination paths, minus ones never state-minimal.

    A path is pruned when some other path is no more expensive in every
    state (exact ties keep the earliest path in search order).  Raises if
    the network is disconnected or has more than ``max_paths`` simple paths.
    """
    out: dict[str, list[int]] = {}
    for i, a in enumerate(net.arcs):
        out.setdefault(a.tail, []).append(i)

    paths: list[tuple[int, ...]] = []

    def walk(node: str, visited: set[str], trail: list[int]) -> None:
        if node == net.destination:
            paths.append(tuple(trail))
            if len(paths) > max_paths:
                raise ValueError(
                    f"more than {max_paths} simple paths; raise max_paths "
                    "or simplify the network"
                )
            return
        for i in out.get(node, ()):
            head = net.arcs[i].head
            if head in visited:
                continue
            visited.add(head)
            trail.append(i)
            walk(head, visited, trail)
            trail.pop()
            visited.remove(head)

    walk(net.origin, {net.origin}, [])
    if not paths:
        raise ValueError("disconnected: no origin-destination path")

    cost = _path_cost_matrix(net, paths)  # (paths, states)
    keep = []
    for i in range(len(paths)):
        dominated = False
        for j in range(len(paths)):
            if i == j:
                continue
            if np.all(cost[j] <= cost[i] + 1e-12) and (
                np.any(cost[j] < cost[i] - 1e-12) or j < i
            ):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    kept = tuple(paths[i] for i in keep)

    toll_order = net.toll_arcs
    col = {a: k for k, a in enumerate(toll_order)}
    incidence = np.zeros((len(kept), len(toll_order)), dtype=int)
    for p, path in enumerate(kept):
        for a in path:
            if a in col:
                incidence[p, col[a]] = 1
    toll_paths = tuple(p for p in range(len(kept)) if incidence[p].any())
    return PathFamily(
        paths=kept,
        toll_paths=toll_paths,
        toll_arc_order=toll_order,
        incidence=incidence,
    )


def state_shortest_path_costs(
    net: TollNetwork,
    origin: str | None = None,
    destination: str | None = None,
    free_only: bool = False,
    undirected: bool = False,
) -> np.ndarray:
    """Per-state shortest-path cost between two nodes (Dijkstra).

    ``free_only`` restricts to toll-free arcs; ``undirected`` lets every arc
    be traversed both ways (road segments recorded in arbitrary direction).
    Unreachable states come back as ``inf``.  Nodes are numbered in name
    order, so the heap breaks ties between equal distances by node name.
    """
    src = net.origin if origin is None else origin
    dst = net.destination if destination is None else destination
    names = sorted({*net.nodes, src, dst})
    number = {name: k for k, name in enumerate(names)}
    adj: list[list[tuple[int, int]]] = [[] for _ in names]
    for i in net.free_arcs if free_only else range(len(net.arcs)):
        tail, head = number[net.arcs[i].tail], number[net.arcs[i].head]
        adj[tail].append((head, i))
        if undirected:
            adj[head].append((tail, i))
    start, goal = number[src], number[dst]
    result = np.full(net.n_states, math.inf)
    for s, w in enumerate(net.state_costs.tolist()):
        dist = [math.inf] * len(names)
        dist[start] = 0.0
        heap = [(0.0, start)]
        while heap:
            d, node = heapq.heappop(heap)
            if node == goal:
                result[s] = d
                break
            if d > dist[node]:
                continue
            for head, i in adj[node]:
                nd = d + w[i]
                if nd < dist[head]:
                    dist[head] = nd
                    heapq.heappush(heap, (nd, head))
    return result


def _validate_path(net: TollNetwork, path) -> tuple[int, ...]:
    path = tuple(int(a) for a in path)
    if not path:
        raise ValueError("empty path")
    node = net.origin
    seen = {node}
    for a in path:
        if not 0 <= a < len(net.arcs):
            raise ValueError(f"arc index {a} out of range")
        arc = net.arcs[a]
        if arc.tail != node:
            raise ValueError(f"path breaks at arc {a}: expected tail {node}")
        node = arc.head
        if node in seen:
            raise ValueError("path is not simple")
        seen.add(node)
    if node != net.destination:
        raise ValueError("path does not end at the destination")
    return path


def state_margin_series(net: TollNetwork, toll_path, q: float = 0.0) -> np.ndarray:
    """Per-state headroom of a toll path over its best toll-free alternative.

    margin_s = (cheapest toll-free path cost in state s) - (toll path's base
    cost in s), clamped below at ``q``: a state in which the free road beats
    the toll road supports no toll.
    """
    path = _validate_path(net, toll_path)
    alt = state_shortest_path_costs(net, free_only=True)
    if not np.all(np.isfinite(alt)):
        raise ValueError("no toll-free alternative path")
    base = net.state_costs[:, list(path)].sum(axis=1)
    return np.maximum(alt - base, q)


def build_parallel_equivalent(
    net: TollNetwork,
    grid: PriceGrid,
    confidence_z: float = 1.96,
    kappa_bar: float = 1.0,
    max_paths: int = 64,
) -> tuple[PathFamily, tuple[ParallelInstance, ...]]:
    """Reduce each toll path to an independent parallel pricing instance:
    its per-state margin series plus a moment envelope estimated from it,
    ignoring every other toll path."""
    family = enumerate_paths(net, max_paths=max_paths)
    if not family.toll_paths:
        raise ValueError("network has no toll path")
    instances = []
    for p in family.toll_paths:
        margins = state_margin_series(net, family.paths[p], q=grid.q)
        env = estimate_moment_envelope(
            margins, grid, confidence_z=confidence_z, kappa_bar=kappa_bar
        )
        instances.append(
            ParallelInstance(
                path=family.paths[p],
                margins=tuple(float(m) for m in margins),
                envelope=env,
            )
        )
    return family, tuple(instances)


def allocate_arc_tolls(bounds, incidence) -> np.ndarray:
    """Split path toll bounds into integer per-arc tolls.

    Maximizes the total arc toll subject to, for each path p,
    sum of tolls on p's toll arcs <= bounds[p].  Exact depth-first
    branch-and-bound; ties resolve to the lexicographically smallest toll
    vector.  Guarded to 12 arcs.
    """
    sigma = np.asarray(bounds, dtype=float)
    inc = np.asarray(incidence)
    if inc.ndim != 2 or inc.shape[0] != sigma.size:
        raise ValueError("incidence must be (paths x arcs) matching bounds")
    if (sigma < 0).any():
        raise ValueError("negative path bound")
    n_arcs = inc.shape[1]
    if n_arcs > MAX_ALLOC_ARCS:
        raise ValueError(
            f"instance too large for exact allocation ({n_arcs} > {MAX_ALLOC_ARCS} arcs)"
        )
    if n_arcs and not inc.any(axis=0).all():
        raise ValueError("toll arc not covered by any path bound is unbounded")

    rows_of = [np.flatnonzero(inc[:, a]) for a in range(n_arcs)]

    def cap(a: int, residual: np.ndarray) -> int:
        return int(math.floor(residual[rows_of[a]].min() + 1e-9))

    best_total = -1
    best_vec: list[int] | None = None
    current = [0] * n_arcs

    def optimistic(idx: int, residual: np.ndarray) -> int:
        return sum(cap(a, residual) for a in range(idx, n_arcs))

    def search(idx: int, residual: np.ndarray, total: int) -> None:
        nonlocal best_total, best_vec
        if idx == n_arcs:
            if total > best_total:
                best_total = total
                best_vec = current.copy()
            return
        if total + optimistic(idx, residual) <= best_total:
            return
        for v in range(cap(idx, residual) + 1):  # ascending: lex-smallest wins ties
            current[idx] = v
            nxt = residual.copy()
            nxt[rows_of[idx]] -= v
            search(idx + 1, nxt, total + v)
        current[idx] = 0

    search(0, sigma.copy(), 0)
    assert best_vec is not None
    return np.array(best_vec, dtype=int)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


def read_arcs(arcs_path) -> tuple[Arc, ...]:
    """Read an arcs CSV (`tail,head,toll_flag,length`)."""
    table = read_rows(
        arcs_path, "tail,head,toll_flag,length", (str.strip, str.strip, flag, float)
    )
    if not table.lines:
        raise ValueError(f"{table.where}: no arcs")
    return tuple(map(Arc, *table.columns))


def load_network(
    arcs_path, states_path, origin: str, destination: str
) -> TollNetwork:
    """Read a network from an arcs CSV (`tail,head,toll_flag,length`) and a
    states CSV (`state,arc,cost`, arc = row index in the arcs file).  Every
    (state, arc) pair must be present exactly once."""
    arcs = read_arcs(arcs_path)
    table = read_rows(states_path, "state,arc,cost", (int, int, float))
    state_col, arc_col, cost_col = table.columns
    if not state_col:
        raise ValueError(f"{table.where}: no state costs")
    for row, a in enumerate(arc_col):
        if not 0 <= a < len(arcs):
            raise table.error(row, f"arc {a} out of range")
    keys = list(zip(state_col, arc_col))
    table.reject_duplicates(keys, "cost for state {}, arc {}".format)
    states = sorted(set(state_col))
    if len(keys) < len(states) * len(arcs):
        present = set(keys)
        s, a = next((s, a) for s in states for a in range(len(arcs)) if (s, a) not in present)
        raise ValueError(f"{table.where}: missing cost for state {s}, arc {a}")
    costs = np.empty((len(states), len(arcs)))
    costs[np.searchsorted(states, state_col), arc_col] = cost_col
    return TollNetwork(
        arcs=arcs, origin=origin, destination=destination, state_costs=costs
    )


def write_network(net: TollNetwork, arcs_path, states_path) -> None:
    with open(arcs_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("tail", "head", "toll_flag", "length"))
        writer.writerows(
            (a.tail, a.head, int(a.toll_flag), f"{a.length:.12g}") for a in net.arcs
        )
    with open(states_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("state", "arc", "cost"))
        writer.writerows(
            (s, a, f"{cost:.12g}")
            for s, row in enumerate(net.state_costs.tolist())
            for a, cost in enumerate(row)
        )
