"""Path enumeration, margins, parallel reduction, and arc-toll allocation."""

from __future__ import annotations

import heapq
import itertools
import math
from collections import Counter

import numpy as np
import pytest

from tollkit.core import PriceGrid
from tollkit.network import (
    Arc,
    TollNetwork,
    allocate_arc_tolls,
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
    with pytest.raises(ValueError, match="non-negative"):
        two_road_network([-1.0], [1.0])
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
        (Arc("O", "A", False),), "O", "D", np.zeros((1, 1))
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
    dist = state_shortest_path_costs(net)
    assert dist.tolist() == [3.0, 4.0]
    free = state_shortest_path_costs(net, free_only=True)
    assert free.tolist() == [5.0, 4.0]  # only O->B->D remains


def test_shortest_path_unreachable_is_inf():
    net = TollNetwork(
        (Arc("O", "A", False), Arc("D", "A", False)),
        "O",
        "D",
        np.ones((2, 2)),
    )
    dist = state_shortest_path_costs(net)
    assert np.all(np.isinf(dist))
    # undirected traversal makes D reachable through A
    undirected = state_shortest_path_costs(net, undirected=True)
    assert undirected.tolist() == [2.0, 2.0]


def string_keyed_shortest_paths(net, origin, destination, free_only, undirected):
    """Reference: Dijkstra on node names, with dict distances and numpy costs."""
    arc_ids = net.free_arcs if free_only else tuple(range(len(net.arcs)))
    adj = {}
    for i in arc_ids:
        a = net.arcs[i]
        adj.setdefault(a.tail, []).append((a.head, i))
        if undirected:
            adj.setdefault(a.head, []).append((a.tail, i))
    result = np.full(net.n_states, math.inf)
    for s in range(net.n_states):
        w = net.state_costs[s]
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
def test_shortest_paths_match_string_keyed_reference(undirected, free_only):
    rng = np.random.default_rng([SEED, undirected, free_only])
    # Few cost levels: equal-cost ties, zero-cost arcs, and sums whose last
    # bit depends on the order they are added in (0.1 + 0.2 != 0.3).
    levels = np.array([0.0, 0.1, 0.2, 0.3, 1 / 3, 0.7, 1.0])
    for _ in range(60):
        n_nodes = int(rng.integers(2, 14))
        names = [f"n{k}" for k in rng.permutation(n_nodes)]  # "n10" sorts before "n2"
        arcs, parallel = [], Counter()
        for _ in range(int(rng.integers(1, 3 * n_nodes))):
            tail, head = rng.choice(names, 2, replace=False)
            if parallel[tail, head] < 2:
                parallel[tail, head] += 1
                arcs.append(Arc(str(tail), str(head), bool(rng.uniform() < 0.3)))
        costs = rng.choice(levels, (int(rng.integers(1, 5)), len(arcs)))
        if not undirected:
            # With -1e-9, the least cost a network accepts, the distances
            # depend on the order nodes leave the heap, so ties must break by
            # name.  It goes on arcs that run forward in the order of
            # ``names``; arcs that run backward cost at least 0.1, so no
            # cycle is negative.
            forward = np.array([names.index(a.tail) < names.index(a.head) for a in arcs])
            costs[(rng.uniform(size=costs.shape) < 0.3) & forward] = -1e-9
            costs[(costs == 0.0) & ~forward] = 0.1
        net = TollNetwork(tuple(arcs), names[0], names[1], costs)
        ends = names + ["elsewhere"]  # isolated nodes and an unknown name: unreachable
        for origin, destination in itertools.product(ends, ends):
            got = state_shortest_path_costs(net, origin, destination, free_only, undirected)
            want = string_keyed_shortest_paths(net, origin, destination, free_only, undirected)
            assert np.array_equal(got, want), (origin, destination)


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
    tolls = allocate_arc_tolls(bounds, incidence)
    assert tolls.tolist() == [5, 0, 10]
    assert tolls.sum() == 15


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
        assert got.tolist() == want.tolist(), (trial, bounds, inc)


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
        tolls = allocate_arc_tolls(bounds, inc)
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
    with pytest.raises(ValueError, match="matching bounds"):
        allocate_arc_tolls([1.0, 2.0], [[1]])


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
