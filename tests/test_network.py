"""Path enumeration, shortest paths, margins, parallel reduction, and
arc-toll allocation."""

from __future__ import annotations

import heapq
import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import tollkit.allocation as allocation
import tollkit.network as network
from tollkit.allocation import allocate_arc_tolls
from tollkit.core import PriceGrid
from tollkit.network import (
    Arc,
    TollNetwork,
    build_parallel_equivalent,
    enumerate_paths,
    load_network,
    state_margin_series,
    state_shortest_path_costs,
    write_network,
)

SEED = 20260819


def two_road_network(toll_base, free_cost):
    """One toll road and one free road between the same endpoints."""
    toll_base = np.asarray(toll_base, dtype=float)
    free_cost = np.asarray(free_cost, dtype=float)
    return TollNetwork(
        arcs=(Arc("O", "D", True), Arc("O", "D", False)),
        origin="O",
        destination="D",
        state_costs=np.column_stack([toll_base, free_cost]),
    )


def diamond_network(state_costs, toll_flags=(True, False, False, False)):
    """O->A->D and O->B->D, arcs in that order."""
    return TollNetwork(
        arcs=(
            Arc("O", "A", toll_flags[0]),
            Arc("A", "D", toll_flags[1]),
            Arc("O", "B", toll_flags[2]),
            Arc("B", "D", toll_flags[3]),
        ),
        origin="O",
        destination="D",
        state_costs=np.asarray(state_costs, dtype=float),
    )


# --- network validation --------------------------------------------------------


def test_network_validation():
    with pytest.raises(ValueError, match="must differ"):
        TollNetwork((Arc("O", "O", False),), "O", "O", np.zeros((1, 1)))
    # an endpoint on no arc: a search from it would only find no path
    with pytest.raises(ValueError, match="^destination 'Z' is not a node of the arcs$"):
        TollNetwork((Arc("A", "B", True, 1.0),), "A", "Z", np.zeros((1, 1)))
    with pytest.raises(ValueError, match="^origin 'Z' is not a node of the arcs$"):
        TollNetwork((Arc("A", "B", True, 1.0),), "Z", "B", np.zeros((1, 1)))
    # each cost must be finite and at least 0; the first bad cell,
    # state-major, is named
    arcs = (Arc("a", "b", False), Arc("b", "c", True), Arc("c", "d", False), Arc("a", "d", False))
    for bad in (math.nan, math.inf, -math.inf, -1e-9, -1e-300):
        costs = np.ones((3, 4))
        costs[1, 3] = costs[2, 0] = bad
        message = f"state 1, arc 3 ('a'-'d'): cost {bad!r} must be finite and non-negative"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TollNetwork(arcs, "a", "d", costs)
    net = two_road_network([-0.0], [1.0])  # a signed zero is not below zero
    assert state_shortest_path_costs(net, [("O", "D")]).tolist() == [[0.0]]
    # so must each arc length, which write_network writes for load_network
    for bad in (math.nan, math.inf, -math.inf, -3.0, -1e-300):
        message = f"arc 'a'-'d': length {bad!r} must be finite and non-negative"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TollNetwork(arcs[:3] + (Arc("a", "d", False, bad),), "a", "d", np.ones((1, 4)))
    assert Arc("a", "d", False, -0.0).length == 0.0
    # the network keeps its own read-only copy: no later write makes a cost
    # negative, and the caller's array stays the caller's
    given = np.ones((1, 2))
    net = TollNetwork((Arc("O", "D", True), Arc("O", "D", False)), "O", "D", given)
    with pytest.raises(ValueError, match="read-only"):
        net.state_costs[0, 0] = -1.0
    given[0, 0] = -1.0
    assert net.state_costs.tolist() == [[1.0, 1.0]]
    with pytest.raises(ValueError, match="states x"):
        TollNetwork((Arc("O", "D", False),), "O", "D", np.zeros((2, 3)))
    with pytest.raises(ValueError, match="parallel"):
        TollNetwork(
            (Arc("O", "D", False), Arc("O", "D", False), Arc("O", "D", True)),
            "O",
            "D",
            np.zeros((1, 3)),
        )


def test_arc_index_properties():
    net = two_road_network([0.0], [5.0])
    assert net.toll_arcs == (0,)
    assert net.free_arcs == (1,)
    assert net.nodes == ("D", "O")
    assert net.n_states == 1


# --- path enumeration ------------------------------------------------------------


def test_enumerate_parallel_roads():
    # neither road dominates: the toll road is cheaper in state 0 only
    net = two_road_network([0.0, 9.0], [10.0, 8.0])
    fam = enumerate_paths(net)
    assert fam.paths == ((0,), (1,))
    assert fam.toll_paths == (0,)
    assert fam.toll_arc_order == (0,)
    assert fam.incidence.tolist() == [[1], [0]]


def test_enumerate_prunes_dominated_paths():
    # O->A->D costs (3, 4) per state; O->B->D costs (5, 6): always worse.
    costs = [[1.0, 2.0, 2.0, 3.0], [2.0, 2.0, 3.0, 3.0]]
    net = diamond_network(costs, toll_flags=(False, False, False, False))
    fam = enumerate_paths(net)
    assert fam.paths == ((0, 1),)
    assert fam.toll_paths == ()


def test_enumerate_keeps_earliest_on_exact_tie():
    costs = [[1.0, 2.0, 1.0, 2.0]]
    net = diamond_network(costs, toll_flags=(False, False, False, False))
    fam = enumerate_paths(net)
    assert fam.paths == ((0, 1),)  # identical costs: first in search order wins


def test_enumerate_preserves_state_minima():
    rng = np.random.default_rng(SEED)
    for _ in range(30):
        n_states = int(rng.integers(1, 5))
        costs = rng.uniform(0.0, 10.0, size=(n_states, 4))
        net = diamond_network(costs, toll_flags=(False, False, False, False))
        fam = enumerate_paths(net)
        all_paths = ((0, 1), (2, 3))
        full = np.stack(
            [net.state_costs[:, list(p)].sum(axis=1) for p in all_paths]
        )
        kept = np.stack(
            [net.state_costs[:, list(p)].sum(axis=1) for p in fam.paths]
        )
        assert np.allclose(kept.min(axis=0), full.min(axis=0))


def test_enumerate_disconnected_errors():
    net = TollNetwork(
        (Arc("O", "A", False), Arc("B", "D", False)), "O", "D", np.zeros((1, 2))
    )
    with pytest.raises(ValueError, match="disconnected"):
        enumerate_paths(net)


def test_enumerate_path_cap():
    net = diamond_network([[1.0, 2.0, 3.0, 4.0]])
    with pytest.raises(ValueError, match="simple paths"):
        enumerate_paths(net, max_paths=1)


# --- shortest paths and margins ---------------------------------------------------


def test_shortest_path_costs_by_hand():
    costs = [[1.0, 2.0, 2.0, 3.0], [4.0, 1.0, 2.0, 2.0]]
    net = diamond_network(costs, toll_flags=(True, False, False, False))
    dist = state_shortest_path_costs(net, [("O", "D")])
    assert dist.tolist() == [[3.0, 4.0]]
    free = state_shortest_path_costs(net, [("O", "D"), ("D", "O"), ("A", "A")], free_only=True)
    assert free.tolist() == [[5.0, 4.0], [math.inf] * 2, [0.0] * 2]  # only O->B->D remains


def test_shortest_path_unreachable_is_inf():
    net = TollNetwork(
        (Arc("O", "A", False), Arc("D", "A", False)),
        "O",
        "D",
        np.ones((2, 2)),
    )
    dist = state_shortest_path_costs(net, [("O", "D")])
    assert np.all(np.isinf(dist))
    # undirected traversal makes D reachable through A
    undirected = state_shortest_path_costs(net, [("O", "D")], undirected=True)
    assert undirected.tolist() == [[2.0, 2.0]]
    assert state_shortest_path_costs(net, []).shape == (0, 2)


def string_keyed_shortest_paths(net, origin, destination, free_only, undirected):
    """Reference: one heap Dijkstra per state on node names, with dict
    distances and float costs (a sum past the largest float is inf)."""
    arc_ids = net.free_arcs if free_only else tuple(range(len(net.arcs)))
    adj = {}
    for i in arc_ids:
        a = net.arcs[i]
        adj.setdefault(a.tail, []).append((a.head, i))
        if undirected:
            adj.setdefault(a.head, []).append((a.tail, i))
    result = np.full(net.n_states, math.inf)
    for s in range(net.n_states):
        w = net.state_costs[s].tolist()
        dist = {origin: 0.0}
        heap = [(0.0, origin)]
        while heap:
            d, node = heapq.heappop(heap)
            if node == destination:
                result[s] = d
                break
            if d > dist.get(node, math.inf):
                continue
            for head, i in adj.get(node, ()):
                nd = d + w[i]
                if nd < dist.get(head, math.inf):
                    dist[head] = nd
                    heapq.heappush(heap, (nd, head))
    return result


@pytest.mark.parametrize("undirected, free_only", itertools.product([False, True], repeat=2))
def test_shortest_paths_match_string_keyed_reference(monkeypatch, undirected, free_only):
    rng = np.random.default_rng([SEED, undirected, free_only])
    # Few cost levels: equal-cost ties settled in either order, zero-cost
    # arcs, and sums whose last bit depends on the order they are added in
    # (0.1 + 0.2 != 0.3).  Every third trial also draws costs near 1e308,
    # whose sums overflow to inf, and the search's window bound with them.
    small = [0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0]
    huge = [0.0, 1.0, 6e307, 9e307, 1e308, 1.7e308]
    for trial in range(60):
        levels = np.array(huge if trial % 3 == 2 else small)
        n_nodes = int(rng.integers(2, 14))
        names = [f"n{k}" for k in rng.permutation(n_nodes)]  # "n10" sorts before "n2"
        arcs, parallel = [], Counter()
        for _ in range(int(rng.integers(1, 3 * n_nodes))):
            tail, head = rng.choice(names, 2, replace=False)
            if parallel[tail, head] < 2:
                parallel[tail, head] += 1
                arcs.append(Arc(str(tail), str(head), bool(rng.uniform() < 0.3)))
        costs = rng.choice(levels, (int(rng.integers(1, 5)), len(arcs)))
        nodes = sorted({name for arc in arcs for name in (arc.tail, arc.head)})
        net = TollNetwork(tuple(arcs), nodes[0], nodes[-1], costs)
        ends = names + ["elsewhere"]  # isolated nodes and an unknown name: unreachable
        pairs = list(itertools.product(ends, ends))
        got = state_shortest_path_costs(net, pairs, free_only, undirected)
        want = [string_keyed_shortest_paths(net, o, d, free_only, undirected) for o, d in pairs]
        assert got.tobytes() == np.array(want).tobytes(), trial
        if trial % 10 == 0:
            # blocks of 3 (pair, state) rows, so a pair's states split
            # across blocks, give the same bytes
            with monkeypatch.context() as patch:
                patch.setattr(network, "_SEARCH_CELLS", 3 * len(ends))
                split = state_shortest_path_costs(net, pairs, free_only, undirected)
            assert split.tobytes() == got.tobytes(), trial


def test_shortest_path_window_takes_each_states_least_usable_arc():
    # Arcs O->A (free, 1), O->B, B->C, C->A (toll, 0.1 each), A->D (free,
    # 1.5, or 0 in state 1) and O->D (free, 2).  The cheapest arc is a toll
    # arc: in state 0 a window as wide as the least free cost (1) would
    # settle A at 1 before the toll detour reaches it at 0.1 + 0.1 + 0.1.
    net = TollNetwork(
        (
            Arc("O", "A", False),
            Arc("O", "B", True),
            Arc("B", "C", True),
            Arc("C", "A", True),
            Arc("A", "D", False),
            Arc("O", "D", False),
        ),
        "O",
        "D",
        [[1.0, 0.1, 0.1, 0.1, 1.5, 2.0], [1.0, 0.1, 0.1, 0.1, 0.0, 2.0]],
    )
    pairs = [("O", "A"), ("O", "D"), ("A", "D"), ("B", "A")]
    detour = 0.1 + 0.1 + 0.1
    assert state_shortest_path_costs(net, pairs).tolist() == [
        [detour, detour],
        [detour + 1.5, detour + 0.0],
        [1.5, 0.0],  # state 1's least arc costs 0: its rounds settle ties
        [0.1 + 0.1, 0.1 + 0.1],
    ]
    # free arcs only: state 0's window is 1 wide, state 1's is 0
    assert state_shortest_path_costs(net, pairs, free_only=True).tolist() == [
        [1.0, 1.0],
        [2.0, 1.0],
        [1.5, 0.0],
        [math.inf, math.inf],
    ]
    for free_only, undirected in itertools.product([False, True], repeat=2):
        got = state_shortest_path_costs(net, pairs, free_only, undirected)
        want = [string_keyed_shortest_paths(net, o, d, free_only, undirected) for o, d in pairs]
        assert got.tobytes() == np.array(want).tobytes(), (free_only, undirected)


def test_shortest_path_memory_stays_within_two_blocks(monkeypatch):
    # 40 pairs x 10 states on a 200-node ring, in blocks of 100 rows: the
    # search holds one block's labels (8 bytes a cell), and a copy of the
    # rows it keeps while it drops retired ones, at a time, never all four
    # blocks' at once
    names = [f"v{k:03d}" for k in range(200)]
    arcs = tuple(Arc(names[k], names[(k + 1) % 200], False) for k in range(200))
    net = TollNetwork(arcs, names[0], names[1], np.ones((10, 200)))
    pairs = [(names[k], names[(k + 97) % 200]) for k in range(40)]
    cells = 100 * 200
    monkeypatch.setattr(network, "_SEARCH_CELLS", cells)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        dist = state_shortest_path_costs(net, pairs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert dist.tolist() == [[97.0] * 10] * 40
    assert peak <= 2 * 9 * cells + 64 * 1024, peak


def test_margin_series_fixtures():
    net = two_road_network([0.0, 0.0], [10.0, 8.0])
    assert state_margin_series(net, (0,)).tolist() == [10.0, 8.0]
    net = two_road_network([3.0, 3.0], [10.0, 8.0])
    assert state_margin_series(net, (0,)).tolist() == [7.0, 5.0]


def test_margin_clamps_when_free_road_wins():
    net = two_road_network([9.0, 2.0], [4.0, 8.0])
    assert state_margin_series(net, (0,)).tolist() == [0.0, 6.0]


def test_margin_requires_free_alternative():
    net = TollNetwork(
        (Arc("O", "D", True),), "O", "D", np.zeros((1, 1))
    )
    with pytest.raises(ValueError, match="toll-free"):
        state_margin_series(net, (0,))


def test_margin_validates_path():
    net = two_road_network([0.0], [5.0])
    with pytest.raises(ValueError, match="tail"):
        state_margin_series(net, (1, 0))
    with pytest.raises(ValueError, match="empty"):
        state_margin_series(net, ())


# --- parallel reduction -------------------------------------------------------------


def test_build_parallel_equivalent():
    grid = PriceGrid(0.0, 20.0, 1.0)
    net = two_road_network([0.0, 0.0], [10.0, 8.0])
    fam, instances = build_parallel_equivalent(net, grid)
    assert len(instances) == 1
    inst = instances[0]
    assert inst.path == (0,)
    assert inst.margins == (10.0, 8.0)
    # mean 9, sample stdev sqrt(2): 9 -/+ 1.96 * sqrt(2)/sqrt(2)
    assert inst.envelope.u_lower == pytest.approx(7.04)
    assert inst.envelope.u_upper == pytest.approx(10.96)
    assert inst.envelope.kappa_bar == 1.0


def test_build_parallel_requires_toll_path():
    net = two_road_network([0.0], [5.0])
    free_only = TollNetwork(
        (Arc("O", "D", False), Arc("O", "D", False)),
        "O",
        "D",
        np.zeros((1, 2)),
    )
    with pytest.raises(ValueError, match="no toll path"):
        build_parallel_equivalent(free_only, PriceGrid(0.0, 10.0, 1.0))
    assert net  # silence unused warning


# --- arc-toll allocation ---------------------------------------------------------------


def test_allocation_fixture():
    bounds = (10.0, 8.0, 5.0)
    incidence = [[0, 1, 1], [1, 1, 0], [1, 0, 0]]
    assert allocate_arc_tolls(bounds, incidence) == [5, 0, 10]
    # the network module's array form of the same tolls
    tolls = network.allocate_arc_tolls(bounds, np.array(incidence))
    assert tolls.dtype == int and tolls.tolist() == [5, 0, 10]


def brute_allocation(bounds, incidence):
    inc = np.asarray(incidence)
    sigma = np.asarray(bounds, dtype=float)
    n = inc.shape[1]
    caps = [int(sigma[np.flatnonzero(inc[:, a])].min()) for a in range(n)]
    best = None
    for vec in itertools.product(*(range(c + 1) for c in caps)):
        loads = inc.T * np.asarray(vec)[:, None]
        if np.all(inc @ np.asarray(vec) <= sigma + 1e-9):
            key = (-sum(vec), vec)
            if best is None or key < best:
                best = key
        del loads
    return np.array(best[1], dtype=int)


def test_allocation_matches_brute_force():
    rng = np.random.default_rng(SEED + 1)
    for trial in range(60):
        n_arcs = int(rng.integers(1, 5))
        n_paths = int(rng.integers(1, 6))
        inc = rng.integers(0, 2, size=(n_paths, n_arcs))
        # every arc needs a covering path for the problem to be bounded
        for a in range(n_arcs):
            if not inc[:, a].any():
                inc[int(rng.integers(n_paths)), a] = 1
        bounds = rng.integers(0, 21, size=n_paths).astype(float)
        got = allocate_arc_tolls(bounds, inc)
        want = brute_allocation(bounds, inc)
        assert got == want.tolist(), (trial, bounds, inc)


def reference_allocation(bounds, incidence):
    """Reference: the search before its path-cover bound, which prunes with
    the per-arc cap sum alone, the same depth-first order and tie rule, and
    no node budget."""
    sigma = [float(b) for b in bounds]
    inc = [list(row) for row in incidence]
    n_arcs = len(inc[0])
    rows_of = [[p for p, row in enumerate(inc) if row[a]] for a in range(n_arcs)]

    def cap(a, residual):
        return math.floor(min(residual[p] for p in rows_of[a]) + 1e-9)

    best_total, best_vec, current = -1, [], [0] * n_arcs

    def search(idx, residual, total):
        nonlocal best_total, best_vec
        if idx == n_arcs:
            if total > best_total:
                best_total, best_vec = total, current.copy()
            return
        if total + sum(cap(a, residual) for a in range(idx, n_arcs)) <= best_total:
            return
        for v in range(cap(idx, residual) + 1):
            current[idx] = v
            nxt = residual.copy()
            for p in rows_of[idx]:
                nxt[p] -= v
            search(idx + 1, nxt, total + v)
        current[idx] = 0

    search(0, sigma, 0)
    return best_vec


def test_allocation_matches_reference_search_on_fractional_bounds():
    rng = np.random.default_rng(SEED + 3)
    for trial in range(300):
        n_arcs = int(rng.integers(1, 7))
        n_paths = int(rng.integers(1, 7))
        inc = rng.integers(0, 2, size=(n_paths, n_arcs))
        for a in range(n_arcs):
            if not inc[:, a].any():
                inc[int(rng.integers(n_paths)), a] = 1
        # fractional bounds, some a hair below or above a whole number
        bounds = np.round(rng.uniform(0.0, 12.0, n_paths), int(rng.integers(0, 3)))
        bounds += rng.choice([0.0, 0.0, -1e-10, 1e-10], n_paths)
        bounds = np.maximum(bounds, 0.0).tolist()
        got = allocate_arc_tolls(bounds, inc.tolist())
        assert got == reference_allocation(bounds, inc.tolist()), (trial, bounds, inc)


def test_allocation_solves_twelve_bidiagonal_arcs_within_its_budget():
    # path p uses arcs p and p + 1; with bounds 4-6 the cap-sum bound alone
    # needs 585,054 nodes, past the budget of 500,000, and the cover bound
    # 1,496
    bounds = [6.0, 5.0, 5.0, 4.0, 4.0, 4.0, 4.0, 4.0, 4.0, 6.0, 5.0, 6.0]
    incidence = [[int(a in (p, p + 1)) for a in range(12)] for p in range(12)]
    # found by reference_allocation
    assert allocate_arc_tolls(bounds, incidence) == [2, 4, 1, 4, 0, 4, 0, 4, 0, 4, 0, 5]


def test_allocation_is_locally_tight():
    # Raising any single arc toll by one must break some path bound.
    rng = np.random.default_rng(SEED + 2)
    for _ in range(30):
        n_arcs = int(rng.integers(1, 5))
        n_paths = int(rng.integers(1, 6))
        inc = rng.integers(0, 2, size=(n_paths, n_arcs))
        for a in range(n_arcs):
            if not inc[:, a].any():
                inc[int(rng.integers(n_paths)), a] = 1
        bounds = rng.integers(0, 21, size=n_paths).astype(float)
        tolls = np.array(allocate_arc_tolls(bounds, inc))
        assert np.all(inc @ tolls <= bounds + 1e-9)
        for a in range(n_arcs):
            bumped = tolls.copy()
            bumped[a] += 1
            assert (inc @ bumped > bounds + 1e-9).any()


def test_allocation_validation():
    with pytest.raises(ValueError, match="not covered"):
        allocate_arc_tolls([5.0], [[0]])
    with pytest.raises(ValueError, match="negative"):
        allocate_arc_tolls([-1.0], [[1]])
    with pytest.raises(ValueError, match="too large"):
        allocate_arc_tolls([1.0], [[1] * 13])
    for inc in ([[1]], [[1, 0], [1]], [1, 1]):
        with pytest.raises(ValueError, match="matching bounds"):
            allocate_arc_tolls([1.0, 2.0], inc)


def test_allocation_rejects_non_finite_bounds():
    cases = (([math.inf], "[inf]"), ([2.0, math.nan], "[nan]"), ([-math.inf], "[-inf]"))
    for bounds, shown in cases:
        with pytest.raises(ValueError) as err:
            allocate_arc_tolls(bounds, [[1]] * len(bounds))
        assert str(err.value) == f"path bounds must be finite, got {shown}"


@pytest.mark.parametrize("entry", [2, -1, 0.5, math.nan, "1"])
def test_allocation_refuses_incidence_entries_other_than_0_or_1(entry):
    # a 2 once read as "used": [5] for the bound 5, although 2 x 5 > 5
    with pytest.raises(ValueError) as err:
        allocate_arc_tolls([5.0, 5.0], [[1, 0], [1, entry]])
    assert str(err.value) == f"incidence entry for path 1, arc 1 must be 0 or 1, got {entry}"
    assert allocate_arc_tolls([5.0], [[True]]) == [5]


def test_allocation_search_is_refused_past_its_node_budget(monkeypatch):
    # bound 2 on two arcs: the root, arc 1 at toll 0 with its three leaves,
    # and arc 1 at tolls 1 and 2, both pruned, are 7 nodes
    assert allocate_arc_tolls([2.0], [[1, 1]]) == [0, 2]
    monkeypatch.setattr(allocation, "MAX_ALLOC_NODES", 7)
    assert allocate_arc_tolls([2.0], [[1, 1]]) == [0, 2]
    monkeypatch.setattr(allocation, "MAX_ALLOC_NODES", 6)
    with pytest.raises(ValueError) as err:
        allocate_arc_tolls([2.0], [[1, 1]])
    assert str(err.value) == (
        "allocation search passed its budget of 6 nodes; "
        "lower the path bounds or split the instance"
    )


# --- CSV interchange ----------------------------------------------------------------


def test_network_csv_round_trip(tmp_path):
    costs = [[1.0, 2.5, 2.0, 3.0], [4.0, 1.0, 2.0, 2.25]]
    net = diamond_network(costs, toll_flags=(True, False, False, True))
    arcs_csv = tmp_path / "arcs.csv"
    states_csv = tmp_path / "states.csv"
    write_network(net, arcs_csv, states_csv)
    again = load_network(arcs_csv, states_csv, "O", "D")
    assert again.arcs == net.arcs
    assert np.array_equal(again.state_costs, net.state_costs)
    assert again.origin == "O" and again.destination == "D"


def test_load_network_errors(tmp_path):
    arcs_csv = tmp_path / "arcs.csv"
    states_csv = tmp_path / "states.csv"
    arcs_csv.write_text("tail,head,toll_flag,length\nO,D,1,1\n")
    states_csv.write_text("state,arc,cost\n0,0,1\n1,0,bad\n")
    with pytest.raises(ValueError, match="states.csv:3"):
        load_network(arcs_csv, states_csv, "O", "D")
    states_csv.write_text("state,arc,cost\n0,5,1\n")
    with pytest.raises(ValueError, match="out of range"):
        load_network(arcs_csv, states_csv, "O", "D")
    states_csv.write_text("wrong,header,here\n0,0,1\n")
    with pytest.raises(ValueError, match="unexpected header"):
        load_network(arcs_csv, states_csv, "O", "D")
