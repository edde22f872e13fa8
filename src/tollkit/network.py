"""Single-commodity toll networks.

Arcs split into a tolled set and a free set; each network carries a matrix
of per-state non-toll arc costs.  The pipeline here reduces a general
network to parallel-road pricing instances: enumerate simple
origin-destination paths (pruning ones that are never state-wise minimal),
compute per-state margins of a toll path against its best toll-free
alternative, and wrap the margins in a moment envelope.  ``allocation``
splits a priced path bound back onto individual toll arcs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    MomentEnvelope,
    PriceGrid,
    estimate_moment_envelope,
    flag,
    read_cost_table,
    read_rows,
    write_cost_table,
    write_rows,
)

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

# (row, node) labels one block of the shortest-path search holds at most
_SEARCH_CELLS = 2**20


@dataclass(frozen=True)
class Arc:
    """A directed arc; its length is finite and at least 0, the rule the
    network's costs keep."""

    tail: str
    head: str
    toll_flag: bool
    length: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.length) and self.length >= 0):
            raise ValueError(
                f"arc {self.tail!r}-{self.head!r}: "
                f"length {self.length!r} must be finite and non-negative"
            )


def _arc_nodes(arcs) -> list[str]:
    """The tails and heads of ``arcs``, in sorted order."""
    return sorted({a.tail for a in arcs} | {a.head for a in arcs})


@dataclass(frozen=True)
class TollNetwork:
    """Directed network with per-state non-toll arc costs.

    ``state_costs[s, a]`` is the base (non-toll) cost of arc ``a`` in state
    ``s``; toll arcs carry their base cost here and the toll on top.  The
    origin and destination are nodes of the arcs.  Every cost is finite and
    at least 0, and the network keeps a read-only copy of the matrix, so no
    later write can make a cost negative.
    """

    arcs: tuple[Arc, ...]
    origin: str
    destination: str
    state_costs: np.ndarray

    def __post_init__(self) -> None:
        if self.origin == self.destination:
            raise ValueError("origin and destination must differ")
        nodes = self.nodes
        for name, node in (("origin", self.origin), ("destination", self.destination)):
            if node not in nodes:
                raise ValueError(f"{name} {node!r} is not a node of the arcs")
        costs = np.array(self.state_costs, dtype=float)
        if costs.ndim != 2 or costs.shape[1] != len(self.arcs):
            raise ValueError(
                f"state_costs must be (states x {len(self.arcs)} arcs), "
                f"got shape {costs.shape}"
            )
        bad = np.argwhere(~(np.isfinite(costs) & (costs >= 0)))
        if bad.size:
            s, i = bad[0].tolist()
            arc = self.arcs[i]
            raise ValueError(
                f"state {s}, arc {i} ({arc.tail!r}-{arc.head!r}): "
                f"cost {float(costs[s, i])!r} must be finite and non-negative"
            )
        costs.setflags(write=False)
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
        return tuple(_arc_nodes(self.arcs))

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
    net: TollNetwork, ends, free_only: bool = False, undirected: bool = False
) -> np.ndarray:
    """Per-state shortest-path cost between each (origin, destination) pair
    of ``ends``, as a (pairs, states) array (Dijkstra).

    ``free_only`` restricts to toll-free arcs; ``undirected`` lets every arc
    be traversed both ways (road segments recorded in arbitrary direction).
    An end need not be a node of the arcs; it is then isolated.  A pair
    with no path comes back as ``inf``, and a pair of equal ends as 0.

    One label-setting search runs every (pair, state) row in lockstep.  In
    each round a live row settles every open label at most
    ``fl(m + delta)``, where ``m`` is its least open label and ``delta``
    the least cost, in the row's state, of an arc the search may use
    (Dinitz's rule), and then relaxes the arcs of the nodes it settled.  A
    row retires when its destination is among them or when ``m`` is
    ``inf``.  Costs are finite and at least ``delta >= 0``, as
    ``TollNetwork`` guarantees, and rounded addition is monotone, so every
    label a later round makes is at least ``fl(m + delta)``: each settled
    label is already the least left-to-right float sum of arc costs over
    the row's paths to its node, the same bits a one-row heap search
    gives.  That holds for ``delta = 0``, where a round settles only the
    ties at ``m``, and when ``fl(m + delta)`` overflows to ``inf``, where
    no later label is finite.  A settled label is stored as NaN, which
    ``np.minimum`` keeps and ``np.fmin`` skips, so no relaxation reopens it.
    Rows run in blocks of at most ``_SEARCH_CELLS`` (row, node) labels, so
    memory does not grow with the number of pairs.
    """
    ends = list(ends)
    names = sorted({*net.nodes, *(name for pair in ends for name in pair)})
    number = {name: k for k, name in enumerate(names)}
    n = len(names)
    usable = list(net.free_arcs) if free_only else list(range(len(net.arcs)))
    adj: list[list[tuple[int, int]]] = [[] for _ in names]
    for i in usable:
        tail, head = number[net.arcs[i].tail], number[net.arcs[i].head]
        adj[tail].append((head, i))
        if undirected:
            adj[head].append((tail, i))
    # Each node's (head, arc) slots; a node with fewer arcs pads with a
    # self-loop, which only ever reaches a settled node.
    width = max(map(len, adj))
    heads = np.array(
        [[h for h, _ in a] + [u] * (width - len(a)) for u, a in enumerate(adj)], dtype=np.intp
    )
    arcs = np.array([[i for _, i in a] + [0] * (width - len(a)) for a in adj], dtype=np.intp)
    n_states, n_arcs = net.state_costs.shape
    costs = net.state_costs.ravel()
    # each state's least usable arc cost; with no usable arc nothing relaxes
    delta = net.state_costs[:, usable].min(axis=1, initial=math.inf)
    pair_ends = np.array([[number[o], number[d]] for o, d in ends], dtype=np.intp).reshape(-1, 2)
    out = np.full(len(ends) * n_states, math.inf)
    block = max(1, _SEARCH_CELLS // n)
    for lo in range(0, out.size, block):
        row = np.arange(lo, min(lo + block, out.size))  # pair-major (pair, state)
        offset = row % n_states * n_arcs  # where the row's state starts in costs
        reach = delta[row % n_states]
        start, goal = pair_ends[row // n_states].T
        label = np.full((row.size, n), math.inf)  # open labels; NaN once settled
        label[np.arange(row.size), start] = 0.0
        # np.minimum reports a settled (NaN) label as an invalid operand, and
        # a sum past the largest float rounds to inf, as a heap search's does
        with np.errstate(invalid="ignore", over="ignore"):
            live = row.size
            while live:
                bound = np.fmin.reduce(label, axis=1) + reach
                at_goal = label[np.arange(row.size), goal]
                # a row is done when its goal lies in the window, an inf bound
                # (nothing finite left in reach) included; a retired row is
                # all NaN and never passes again
                done = at_goal <= bound
                if done.any():
                    out[row[done]] = at_goal[done]
                    label[done] = math.nan
                    bound[done] = math.nan
                    live -= int(done.sum())
                    if 4 * live <= 3 * row.size:  # drop the retired rows
                        keep = ~np.isnan(bound)
                        label, row, offset, reach, goal, bound = (
                            x[keep] for x in (label, row, offset, reach, goal, bound)
                        )
                flat = label.ravel()
                cell = np.flatnonzero(label <= bound[:, None])
                r, node = np.divmod(cell, n)
                dist = flat[cell]
                flat[cell] = math.nan
                to = (cell - node)[:, None] + heads[node]  # cells of flat
                step = costs[offset[r, None] + arcs[node]]
                step += dist[:, None]
                # flat indices take ufunc.at's fast path
                np.minimum.at(flat, to.ravel(), step.ravel())
    return out.reshape(len(ends), n_states)


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
    alt = state_shortest_path_costs(net, [(net.origin, net.destination)], free_only=True)[0]
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
    """``allocation.allocate_arc_tolls``'s tolls as an integer array."""
    from .allocation import allocate_arc_tolls

    return np.array(allocate_arc_tolls(bounds, incidence), dtype=int)


# ---------------------------------------------------------------------------
# CSV interchange
# ---------------------------------------------------------------------------


ARCS_HEADER = "tail,head,toll_flag,length"


def read_arcs(arcs_path) -> tuple[Arc, ...]:
    """Read an arcs CSV (``ARCS_HEADER``); a length ``Arc`` refuses is an
    error at its line."""
    table = read_rows(arcs_path, ARCS_HEADER, (str.strip, str.strip, flag, float))
    if not table.lines:
        raise ValueError(f"{table.where}: no arcs")
    arcs = []
    for row, fields in enumerate(zip(*table.columns)):
        try:
            arcs.append(Arc(*fields))
        except ValueError as exc:
            raise table.error(row, str(exc)) from None
    return tuple(arcs)


def load_network(
    arcs_path, states_path, origin: str | None = None, destination: str | None = None
) -> TollNetwork:
    """Read a network from an arcs CSV (`tail,head,toll_flag,length`) and a
    states CSV (`state,arc,cost`, arc = row index in the arcs file), read by
    ``read_cost_table``: state ids from 0 with no gap, arcs in range, and
    every (state, arc) cell once.  The origin and destination must be nodes
    of the arcs file; None takes the first or last node name in sorted
    order."""
    arcs = read_arcs(arcs_path)
    nodes = _arc_nodes(arcs)
    if origin is None or destination is None:
        if len(nodes) < 2:
            raise ValueError(f"{arcs_path}: fewer than two nodes")
        origin = nodes[0] if origin is None else origin
        destination = nodes[-1] if destination is None else destination
    for name, node in (("origin", origin), ("destination", destination)):
        if node not in nodes:
            raise ValueError(f"{arcs_path}: {name} {node!r} is not a node of the arcs file")
    _, costs = read_cost_table(states_path, len(arcs))
    return TollNetwork(
        arcs=arcs, origin=origin, destination=destination, state_costs=costs
    )


def write_network(net: TollNetwork, arcs_path, states_path) -> None:
    write_rows(
        arcs_path,
        ARCS_HEADER.split(","),
        ((a.tail, a.head, int(a.toll_flag), float(a.length)) for a in net.arcs),
        lineterminator="\n",
    )
    write_cost_table(states_path, net.state_costs)
