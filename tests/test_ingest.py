"""Raw traffic feed ingestion: parsing, gridding, geometry, and costs."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest

import tollkit.ingest as ingest
from tollkit.core import PriceGrid
from tollkit.ingest import (
    RECORD_HEADER,
    NetworkSkeleton,
    SegmentRecord,
    SkeletonArc,
    build_graph_from_segments,
    grid_observations,
    ingest_to_network,
    interpolate_missing,
    parse_traffic_records,
    travel_cost_states,
    write_traffic_records,
)

SEED = 20260819


def rec(ts, seg, speed, start, end):
    return SegmentRecord(timestamp=ts, segment_id=seg, speed=speed, start=start, end=end)


def feed(rows):
    return io.StringIO("\n".join([RECORD_HEADER, *rows]) + "\n")


# --- parsing -------------------------------------------------------------------


def test_parse_round_trip_is_byte_stable():
    records = (
        rec(0.0, "s1", 30.0, (0.0, 0.0), (1.0, 0.0)),
        rec(900.0, "s1", 45.5, (0.0, 0.0), (1.0, 0.0)),
        rec(0.0, "s2", None, (1.0, 0.0), (2.0, 0.0)),
    )
    buf = io.StringIO()
    write_traffic_records(records, buf)
    text = buf.getvalue()
    parsed = parse_traffic_records(io.StringIO(text))
    assert parsed == records
    buf2 = io.StringIO()
    write_traffic_records(parsed, buf2)
    assert buf2.getvalue() == text


def test_parse_accepts_iso_timestamps():
    rows = ["1970-01-01T00:15:00+00:00,s1,30,0,0,1,0"]
    (record,) = parse_traffic_records(feed(rows))
    assert record.timestamp == 900.0


def test_parse_duplicate_keeps_last_with_warning():
    rows = [
        "0,s1,30,0,0,1,0",
        "0,s1,50,0,0,1,0",
    ]
    with pytest.warns(UserWarning, match="duplicate"):
        (record,) = parse_traffic_records(feed(rows))
    assert record.speed == 50.0


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match=":2:"):
        parse_traffic_records(feed(["0,s1,not-a-speed,0,0,1,0"]))
    with pytest.raises(ValueError, match=":3:"):
        parse_traffic_records(feed(["0,s1,30,0,0,1,0", "0,s2,30,0,0"]))
    with pytest.raises(ValueError, match="expected header"):
        parse_traffic_records(io.StringIO("wrong\n"))
    with pytest.raises(ValueError, match="no records"):
        parse_traffic_records(io.StringIO(RECORD_HEADER + "\n"))


def test_parse_rejects_degenerate_segments():
    with pytest.raises(ValueError, match=":2:"):
        parse_traffic_records(feed(["0,s1,30,1,1,1,1"]))  # zero-length geometry
    with pytest.raises(ValueError, match="speed must be positive"):
        rec(0.0, "s1", 0.0, (0.0, 0.0), (1.0, 0.0))


# --- gridding and interpolation ---------------------------------------------------


def test_grid_observations_buckets_and_alignment():
    records = (
        rec(0.0, "a", 30.0, (0.0, 0.0), (1.0, 0.0)),
        rec(1800.0, "a", 50.0, (0.0, 0.0), (1.0, 0.0)),
        rec(900.0, "b", 40.0, (1.0, 0.0), (2.0, 0.0)),
    )
    gridded = grid_observations(records, bucket_minutes=15)
    assert gridded.timestamps == (0.0, 900.0, 1800.0)
    assert gridded.speeds["a"].tolist() == pytest.approx([30.0, np.nan, 50.0], nan_ok=True)
    assert not gridded.fully_observed()


def test_interpolation_is_identity_when_complete():
    records = tuple(
        rec(900.0 * i, "a", s, (0.0, 0.0), (1.0, 0.0))
        for i, s in enumerate([30.0, 40.0, 50.0])
    )
    gridded = grid_observations(records)
    filled = interpolate_missing(gridded)
    assert filled.speeds["a"].tolist() == [30.0, 40.0, 50.0]


def test_interpolation_fills_midpoint():
    records = (
        rec(0.0, "a", 30.0, (0.0, 0.0), (1.0, 0.0)),
        rec(900.0, "a", None, (0.0, 0.0), (1.0, 0.0)),
        rec(1800.0, "a", 50.0, (0.0, 0.0), (1.0, 0.0)),
    )
    filled = interpolate_missing(grid_observations(records))
    assert filled.speeds["a"].tolist() == [30.0, 40.0, 50.0]


def test_interpolation_extends_ends_and_drops_empty():
    records = (
        rec(0.0, "a", None, (0.0, 0.0), (1.0, 0.0)),
        rec(900.0, "a", 42.0, (0.0, 0.0), (1.0, 0.0)),
        rec(0.0, "b", None, (1.0, 0.0), (2.0, 0.0)),
    )
    filled = interpolate_missing(grid_observations(records))
    assert filled.speeds["a"].tolist() == [42.0, 42.0]
    assert "b" not in filled.speeds  # never observed


def test_interpolation_recovers_affine_series_under_masking():
    rng = np.random.default_rng(SEED)
    t = np.arange(24) * 900.0
    speeds = 30.0 + 0.004 * t  # affine in time
    for _ in range(10):
        mask = rng.random(24) < 0.2
        mask[0] = mask[-1] = False  # keep the ends anchored
        records = tuple(
            rec(float(ts), "a", None if m else float(v), (0.0, 0.0), (1.0, 0.0))
            for ts, v, m in zip(t, speeds, mask)
        )
        filled = interpolate_missing(grid_observations(records))
        assert filled.speeds["a"] == pytest.approx(speeds, abs=1e-9)


# --- geometry ------------------------------------------------------------------


def crossing_records():
    """Two unit segments crossing at (0.5, 0.5), an X shape."""
    return (
        rec(0.0, "ne", 30.0, (0.0, 0.0), (1.0, 1.0)),
        rec(0.0, "nw", 30.0, (1.0, 0.0), (0.0, 1.0)),
    )


def test_crossing_splits_into_five_nodes_four_arcs():
    skel = build_graph_from_segments(crossing_records())
    assert len(skel.node_coords) == 5
    assert len(skel.arcs) == 4
    assert skel.n_splits == 2  # one cut on each segment
    assert skel.n_zero_length_dropped == 0
    # every arc touches the crossing point
    center = (0.5, 0.5)
    assert center in skel.node_coords
    c = skel.node_coords.index(center)
    assert all(c in (a.tail, a.head) for a in skel.arcs)
    for a in skel.arcs:
        assert a.length == pytest.approx(math.hypot(0.5, 0.5))


def test_shared_endpoint_merges_not_splits():
    records = (
        rec(0.0, "a", 30.0, (0.0, 0.0), (1.0, 0.0)),
        rec(0.0, "b", 30.0, (1.0, 0.0), (2.0, 0.0)),
    )
    skel = build_graph_from_segments(records)
    assert len(skel.node_coords) == 3
    assert len(skel.arcs) == 2
    assert skel.n_splits == 0


def test_disjoint_segments_unchanged():
    records = (
        rec(0.0, "a", 30.0, (0.0, 0.0), (1.0, 0.0)),
        rec(0.0, "b", 30.0, (5.0, 5.0), (6.0, 5.0)),
    )
    skel = build_graph_from_segments(records)
    assert len(skel.node_coords) == 4
    assert len(skel.arcs) == 2
    assert skel.n_splits == 0


def test_near_coincident_endpoints_merge_to_fixpoint():
    eps = 2e-5  # below the 1e-4 merge tolerance
    records = (
        rec(0.0, "a", 30.0, (0.0, 0.0), (1.0, 0.0)),
        rec(0.0, "b", 30.0, (1.0 + eps, eps), (2.0, 0.0)),
    )
    skel = build_graph_from_segments(records)
    assert len(skel.node_coords) == 3
    # no two surviving nodes lie within the merge tolerance
    for i, p in enumerate(skel.node_coords):
        for q in skel.node_coords[i + 1 :]:
            assert math.hypot(p[0] - q[0], p[1] - q[1]) >= 1e-4


def test_zero_length_arcs_dropped_with_warning():
    tiny = 2e-5
    records = (
        rec(0.0, "a", 30.0, (0.0, 0.0), (tiny, 0.0)),  # collapses into one node
        rec(0.0, "b", 30.0, (0.0, 0.0), (1.0, 0.0)),
    )
    with pytest.warns(UserWarning, match="zero-length"):
        skel = build_graph_from_segments(records)
    assert skel.n_zero_length_dropped == 1
    assert [a.segment_id for a in skel.arcs] == ["b"]


def test_graph_is_record_order_invariant():
    records = crossing_records() + (
        rec(0.0, "c", 25.0, (1.0, 1.0), (2.0, 1.0)),
    )
    forward = build_graph_from_segments(records)
    backward = build_graph_from_segments(tuple(reversed(records)))
    assert forward == backward


def test_graph_tolerance_validation():
    with pytest.raises(ValueError, match="positive"):
        build_graph_from_segments(crossing_records(), merge_tolerance=0.0)


def all_pairs_graph(records, merge_tolerance, crossing_tolerance):
    """Reference: the graph builder that tests every segment pair for a
    crossing and every pair of cluster roots for a merge."""
    geometry = {}
    for r in sorted(records, key=lambda r: (r.segment_id, r.timestamp)):
        geometry.setdefault(r.segment_id, (r.start, r.end))
    seg_ids = sorted(geometry)

    def seg_len(seg_id):
        (x1, y1), (x2, y2) = geometry[seg_id]
        return math.hypot(x2 - x1, y2 - y1)

    cuts = {s: [] for s in seg_ids}
    n_splits = 0
    for i, sa in enumerate(seg_ids):
        for sb in seg_ids[i + 1 :]:
            hit = ingest._crossing_params(geometry[sa], geometry[sb], crossing_tolerance)
            if hit is None:
                continue
            for seg_id, param in zip((sa, sb), hit):
                margin = crossing_tolerance / max(seg_len(seg_id), 1e-18)
                if margin < param < 1 - margin:
                    cuts[seg_id].append(param)
                    n_splits += 1

    pieces = []
    for seg_id in seg_ids:
        (x1, y1), (x2, y2) = geometry[seg_id]
        params = sorted({0.0, 1.0, *cuts[seg_id]})
        for a, b in zip(params, params[1:]):
            pa = (x1 + a * (x2 - x1), y1 + a * (y2 - y1))
            pb = (x1 + b * (x2 - x1), y1 + b * (y2 - y1))
            pieces.append((seg_id, pa, pb))

    points = [p for _, pa, pb in pieces for p in (pa, pb)]
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def centroids():
        clusters = {}
        for i in range(len(points)):
            clusters.setdefault(find(i), []).append(i)
        return {
            r: (
                sum(points[i][0] for i in members) / len(members),
                sum(points[i][1] for i in members) / len(members),
            )
            for r, members in clusters.items()
        }

    merged_any = True
    while merged_any:
        centroid = centroids()
        roots = sorted(centroid)
        merged_any = False
        for i, ra in enumerate(roots):
            for rb in roots[i + 1 :]:
                if find(ra) == find(rb):
                    continue
                ca, cb = centroid[ra], centroid[rb]
                if math.hypot(ca[0] - cb[0], ca[1] - cb[1]) < merge_tolerance:
                    parent[find(rb)] = find(ra)
                    merged_any = True

    centroid = centroids()
    order = sorted(centroid, key=lambda r: centroid[r])
    node_of_root = {r: k for k, r in enumerate(order)}
    node_coords = tuple(centroid[r] for r in order)
    arcs = []
    dropped = 0
    for k, (seg_id, _, _) in enumerate(pieces):
        tail, head = node_of_root[find(2 * k)], node_of_root[find(2 * k + 1)]
        if tail == head:
            dropped += 1
            continue
        (x1, y1), (x2, y2) = node_coords[tail], node_coords[head]
        arcs.append(SkeletonArc(tail, head, seg_id, math.hypot(x2 - x1, y2 - y1)))
    return NetworkSkeleton(node_coords, tuple(arcs), n_splits, dropped)


def random_segments(rng, tol):
    """A mix of the shapes the geometry must get right, in the unit square
    around a city-like origin: free segments (crossings), collinear overlaps
    on a horizontal, a vertical and a diagonal line, T-junctions whose stem
    ends on, just past or just short of another segment, endpoint clusters
    inside the tolerance, and repeated records of one segment at later times
    with other ends."""
    x0, y0 = rng.choice([0.0, -87.6]), rng.choice([0.0, 41.8])
    ends = []

    def point():
        return rng.uniform(0.0, 1.0, 2)

    for _ in range(rng.integers(2, 12)):  # free segments
        ends.append((point(), point()))
    for direction in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]):  # collinear overlaps
        base = point() * 0.5
        for _ in range(rng.integers(0, 3)):
            a, b = np.sort(rng.uniform(0.0, 0.5, 2))
            ends.append((base + a * np.array(direction), base + b * np.array(direction)))
    for _ in range(rng.integers(1, 5)):  # T-junctions, the stem square to the bar
        p, q = ends[rng.integers(len(ends))]
        normal = np.array([p[1] - q[1], q[0] - p[0]]) / math.hypot(*(q - p))
        foot = p + rng.uniform(0.1, 0.9) * (q - p) + rng.uniform(-1.5, 1.5) * tol * normal
        side = rng.choice([-1.0, 1.0])
        ends.append((foot, foot + side * rng.uniform(0.05, 0.5) * normal))
    for _ in range(rng.integers(0, 3)):  # endpoint clusters inside the tolerance
        centre = point()
        for _ in range(rng.integers(2, 5)):
            ends.append((centre + rng.uniform(-0.6, 0.6, 2) * tol, point()))
    records = []
    for k, (p, q) in enumerate(ends):
        start, end = (x0 + p[0], y0 + p[1]), (x0 + q[0], y0 + q[1])
        if start == end:
            continue
        records.append(rec(float(rng.integers(0, 3) * 900), f"s{k}", 30.0, start, end))
        if rng.uniform() < 0.2:  # a later record of the same segment
            records.append(rec(records[-1].timestamp + 900.0, f"s{k}", 20.0, end, start))
    order = rng.permutation(len(records))
    return [records[i] for i in order]


@pytest.mark.filterwarnings("ignore:.*zero-length")
@pytest.mark.parametrize(
    "merge_tol, crossing_tol", [(1e-4, 1e-4), (1e-3, 1e-2), (0.05, 0.02), (0.1, 0.1)]
)
def test_graph_matches_all_pairs_reference(merge_tol, crossing_tol):
    rng = np.random.default_rng([SEED, int(merge_tol * 1e4), int(crossing_tol * 1e4)])
    for _ in range(40):
        records = random_segments(rng, max(merge_tol, crossing_tol))
        fast = build_graph_from_segments(records, merge_tol, crossing_tol)
        assert fast == all_pairs_graph(records, merge_tol, crossing_tol)


def lattice_records(blocks, spacing=0.01):
    """A street lattice of ``blocks`` x ``blocks`` blocks, one segment per
    block side, with the nodes jittered well inside a block."""
    rng = np.random.default_rng(SEED)
    n = blocks + 1
    node = (rng.uniform(-0.1, 0.1, (n, n, 2)) + np.dstack(np.mgrid[0:n, 0:n])) * spacing
    at = lambda i, j: (float(node[i, j, 0]), float(node[i, j, 1]))  # noqa: E731
    records = []
    for i in range(n):
        for j in range(n):
            for di, dj in ((1, 0), (0, 1)):
                if i + di < n and j + dj < n:
                    seg = f"{i}-{j}-{di}"
                    records.append(rec(0.0, seg, 30.0, at(i, j), at(i + di, j + dj)))
    return records


def test_crossing_tests_grow_with_near_pairs(monkeypatch):
    records = lattice_records(30)
    assert len(records) == 1860  # all pairs would be 1,728,870 crossing tests
    calls = 0
    exact = ingest._crossing_params

    def counted(*args):
        nonlocal calls
        calls += 1
        return exact(*args)

    monkeypatch.setattr(ingest, "_crossing_params", counted)
    skel = build_graph_from_segments(records)
    assert calls <= 4 * len(records)
    assert (len(skel.node_coords), len(skel.arcs), skel.n_splits) == (31 * 31, 1860, 0)


# --- travel costs and the full pipeline -----------------------------------------


def test_travel_cost_by_hand():
    records = (rec(0.0, "a", 30.0, (0.0, 0.0), (60.0, 0.0)),)
    skel = build_graph_from_segments(records)
    gridded = interpolate_missing(grid_observations(records))
    grid = PriceGrid(0.0, 10.0, 1.0)
    costs = travel_cost_states(skel, gridded, scale=1.0, price_grid=grid)
    assert costs.tolist() == [[2.0]]  # 60 / 30


def test_travel_cost_rejects_bad_speeds():
    records = (rec(0.0, "a", 30.0, (0.0, 0.0), (60.0, 0.0)),)
    skel = build_graph_from_segments(records)
    gridded = grid_observations(records)
    gridded.speeds["a"][0] = 0.0
    grid = PriceGrid(0.0, 10.0, 1.0)
    with pytest.raises(ValueError, match="non-positive speed"):
        travel_cost_states(skel, gridded, scale=1.0, price_grid=grid)
    with pytest.raises(ValueError, match="scale must be positive"):
        travel_cost_states(skel, gridded, scale=0.0, price_grid=grid)


def test_ingest_pipeline_end_to_end():
    records = (
        rec(0.0, "ne", 30.0, (0.0, 0.0), (1.0, 1.0)),
        rec(900.0, "ne", 40.0, (0.0, 0.0), (1.0, 1.0)),
        rec(0.0, "nw", 35.0, (1.0, 0.0), (0.0, 1.0)),
        rec(900.0, "nw", None, (1.0, 0.0), (0.0, 1.0)),
        rec(0.0, "far", None, (9.0, 9.0), (10.0, 9.0)),  # never observed
    )
    grid = PriceGrid(0.0, 10.0, 0.5)
    skeleton, filled, costs, report = ingest_to_network(records, grid, scale=100.0)
    assert report.n_records == 5
    assert report.n_segments == 3
    assert report.n_never_observed == 1
    assert report.n_splits == 2
    assert report.n_nodes == 5
    assert report.n_arcs == 4
    assert costs.shape == (2, 4)
    assert set(filled.speeds) == {"ne", "nw"}
    text = report.to_text()
    assert "segments never observed (dropped): 1" in text
    for s in range(costs.shape[0]):
        for a in range(costs.shape[1]):
            assert grid.contains(costs[s, a])
