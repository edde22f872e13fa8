"""Traffic-feed ingestion: timestamped segment speeds -> priced road network.

Pipeline: parse raw CSV records, bucket timestamps onto a fixed interval,
fill speed gaps (linear interior interpolation, nearest-value edges, with
never-observed segments dropped), build the road graph (split segments that
cross or nearly cross, merge endpoints that nearly coincide), and convert
per-state speeds into per-state travel costs proportional to travel time.

Geometry is deliberately flat: lengths are Euclidean distances on raw
longitude/latitude, which is inaccurate at city scale but is the stated
convention for this toolkit's data sets.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from .core import (
    DEFAULT_BUCKET_MINUTES,
    DEFAULT_CROSSING_TOL,
    DEFAULT_MERGE_TOL,
    PriceGrid,
    read_rows,
    require_finite,
    write_rows,
)
from .network import Arc, TollNetwork

__all__ = [
    "RecordColumns",
    "ObservationGrid",
    "NetworkSkeleton",
    "SkeletonArc",
    "IngestReport",
    "parse_traffic_records",
    "write_traffic_records",
    "grid_observations",
    "interpolate_missing",
    "build_graph_from_segments",
    "travel_cost_states",
    "skeleton_to_network",
    "ingest_to_network",
]

RECORD_HEADER = "timestamp,segment_id,speed,lon1,lat1,lon2,lat2"
_BAD_SPEED = "speed must be positive when present"
_ZERO_LENGTH = "segment endpoints must be distinct"


def _key_order(codes: np.ndarray, timestamps: np.ndarray) -> np.ndarray:
    """Stable order of rows by (segment code, timestamp); ``0.0`` and
    ``-0.0`` are one timestamp."""
    return np.lexsort((timestamps + 0.0, codes))


def _segment_starts(codes: np.ndarray) -> np.ndarray:
    """Mask of the first row of each segment in code-sorted rows."""
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return first


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """Feed records by column, sorted by (segment, timestamp).

    Row ``i`` is segment ``names[codes[i]]`` at ``timestamps[i]`` with speed
    ``speeds[i]`` (NaN for a blank) and end points ``ends[i] = (x1, y1, x2,
    y2)``.  ``names`` is sorted, so code order is segment order; rows that
    share a key keep the order they came in.  ``n_duplicates`` counts the
    feed rows the parser dropped, and ``len`` is the row count.
    """

    names: tuple[str, ...]
    codes: np.ndarray
    timestamps: np.ndarray
    speeds: np.ndarray
    ends: np.ndarray
    n_duplicates: int = 0

    def __len__(self) -> int:
        return len(self.codes)


@dataclass(frozen=True)
class ObservationGrid:
    """Per-segment speed series aligned to a shared timestamp axis.

    Missing observations are NaN.
    """

    timestamps: tuple[float, ...]
    speeds: dict[str, np.ndarray]


@dataclass(frozen=True)
class SkeletonArc:
    tail: int
    head: int
    segment_id: str
    length: float


@dataclass(frozen=True)
class NetworkSkeleton:
    """Merged/split road graph; nodes are centroid coordinates, arcs keep the
    id of the segment whose speed series they inherit."""

    node_coords: tuple[tuple[float, float], ...]
    arcs: tuple[SkeletonArc, ...]
    n_splits: int
    n_zero_length_dropped: int


@dataclass(frozen=True)
class IngestReport:
    n_records: int
    n_segments: int
    n_duplicates: int
    n_never_observed: int
    n_splits: int
    n_zero_length_dropped: int
    n_nodes: int
    n_arcs: int
    n_cost_clamps: int

    def to_text(self) -> str:
        return (
            f"records: {self.n_records}\n"
            f"segments: {self.n_segments}\n"
            f"duplicate records (last kept): {self.n_duplicates}\n"
            f"segments never observed (dropped): {self.n_never_observed}\n"
            f"crossing splits: {self.n_splits}\n"
            f"zero-length arcs dropped: {self.n_zero_length_dropped}\n"
            f"nodes: {self.n_nodes}\n"
            f"arcs: {self.n_arcs}\n"
            f"costs clamped to grid range: {self.n_cost_clamps}\n"
        )


def _parse_timestamp(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        pass
    stamp = datetime.fromisoformat(text)
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.timestamp()


def _optional_float(text: str) -> float | None:
    return None if not text.strip() else float(text)


def _require_positive(**values: float) -> None:
    """Reject non-finite and non-positive option values by name."""
    require_finite(**values)
    for name, value in values.items():
        if value <= 0:
            raise ValueError(f"{name} must be positive, got {value}")


def parse_traffic_records(source) -> RecordColumns:
    """Parse the raw feed CSV into columns; a blank speed is missing.

    A non-positive speed or a zero-length segment is an error at its
    ``FILE:LINE:``, the first bad row first.  Duplicate (segment, timestamp)
    keys keep the last row with a warning, and ``n_duplicates`` counts the
    rows dropped.
    """
    table = read_rows(
        source,
        RECORD_HEADER,
        (_parse_timestamp, str.strip, _optional_float, float, float, float, float),
    )
    stamps, segments, speeds, *ends = table.columns
    if not segments:
        raise ValueError(f"{table.where}: no records")
    timestamps = np.array(stamps, dtype=float)
    speeds = np.array(speeds, dtype=float)  # None -> NaN
    ends = np.array(ends, dtype=float).T
    bad_speed = np.where(np.isnan(speeds), 1.0, speeds) <= 0
    bad = bad_speed | ((ends[:, 0] == ends[:, 2]) & (ends[:, 1] == ends[:, 3]))
    if bad.any():
        row = int(bad.argmax())
        raise table.error(row, _BAD_SPEED if bad_speed[row] else _ZERO_LENGTH)
    names = sorted(set(segments))
    index = {name: code for code, name in enumerate(names)}
    codes = np.fromiter(map(index.__getitem__, segments), dtype=np.intp, count=len(segments))
    del table, stamps, segments, index  # free the row objects before the sort's arrays
    # the last row of each run of one key in the stable key order is kept
    order = _key_order(codes, timestamps)
    code, stamp = codes[order], timestamps[order] + 0.0
    last = np.ones(len(order), dtype=bool)
    last[:-1] = (code[1:] != code[:-1]) | (stamp[1:] != stamp[:-1])
    keep = order[last]
    duplicates = len(order) - len(keep)
    if duplicates:
        warnings.warn(
            f"{duplicates} duplicate (segment, timestamp) records; kept last",
            stacklevel=2,
        )
    return RecordColumns(
        tuple(names), codes[keep], timestamps[keep], speeds[keep], ends[keep], duplicates
    )


def write_traffic_records(records: RecordColumns, destination) -> None:
    """Write ``records`` as the feed CSV, one row each, a blank for a NaN
    speed: the text ``parse_traffic_records`` reads back as the same
    columns."""
    names = [records.names[code] for code in records.codes.tolist()]
    speeds = ["" if math.isnan(v) else v for v in records.speeds.tolist()]
    rows = zip(records.timestamps.tolist(), names, speeds, *records.ends.T.tolist())
    write_rows(destination, RECORD_HEADER.split(","), rows, lineterminator="\n")


def grid_observations(
    records: RecordColumns, bucket_minutes: int = DEFAULT_BUCKET_MINUTES
) -> ObservationGrid:
    """Bucket record timestamps to a fixed interval and align every segment's
    speeds on the shared axis (the last present speed wins within a bucket;
    a blank never overwrites)."""
    require_finite(bucket_minutes=bucket_minutes)
    if bucket_minutes < 1:
        raise ValueError(f"bucket_minutes must be at least 1, got {bucket_minutes}")
    width = bucket_minutes * 60.0
    stamps = np.floor(records.timestamps / width) * width + 0.0  # no -0.0 bucket
    buckets = np.array(sorted(set(stamps.tolist())))  # sorts the distinct buckets only
    column = np.searchsorted(buckets, stamps)
    first = _segment_starts(records.codes)
    series = np.full((int(first.sum()), len(buckets)), np.nan)
    # rows come in (segment, bucket) order, so each cell's present speeds
    # are consecutive and the last of them is the one kept
    have = ~np.isnan(records.speeds)
    cell = ((np.cumsum(first) - 1) * len(buckets) + column)[have]
    last = np.ones(len(cell), dtype=bool)
    last[:-1] = cell[1:] != cell[:-1]
    series.reshape(-1)[cell[last]] = records.speeds[have][last]
    names = [records.names[code] for code in records.codes[first].tolist()]
    return ObservationGrid(timestamps=tuple(buckets.tolist()), speeds=dict(zip(names, series)))


def interpolate_missing(gridded: ObservationGrid) -> ObservationGrid:
    """Fill speed gaps: linear in time between observations, nearest value
    past the ends.  Segments with no observation at all are dropped."""
    t = np.asarray(gridded.timestamps)
    filled: dict[str, np.ndarray] = {}
    for seg, series in gridded.speeds.items():
        have = ~np.isnan(series)
        if not have.any():
            continue
        filled[seg] = np.interp(t, t[have], series[have])
    return ObservationGrid(timestamps=gridded.timestamps, speeds=filled)


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


def _closest_params(p1, d1, p3, d2) -> tuple[float, float]:
    """Clamped parameters (t, u) of the closest points between segments
    p1 + t*d1 and p3 + u*d2, t, u in [0, 1]."""
    r = (p1[0] - p3[0], p1[1] - p3[1])
    a = d1[0] * d1[0] + d1[1] * d1[1]
    e = d2[0] * d2[0] + d2[1] * d2[1]
    b = d1[0] * d2[0] + d1[1] * d2[1]
    c = d1[0] * r[0] + d1[1] * r[1]
    f = d2[0] * r[0] + d2[1] * r[1]
    denom = a * e - b * b
    t = (b * f - c * e) / denom if abs(denom) > 1e-18 else 0.0
    t = min(max(t, 0.0), 1.0)
    u = (b * t + f) / e if e > 1e-18 else 0.0
    u = min(max(u, 0.0), 1.0)
    # re-project t against the clamped u
    if a > 1e-18:
        t = min(max((b * u - c) / a, 0.0), 1.0)
    return t, u


def _crossing_params(seg_a, seg_b, tol: float) -> tuple[float, float] | None:
    """Where two segments cross or nearly cross: parameters (t, u) along each,
    or None when they stay farther apart than ``tol``."""
    p1, p2 = seg_a
    p3, p4 = seg_b
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (p4[0] - p3[0], p4[1] - p3[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    w = (p3[0] - p1[0], p3[1] - p1[1])
    if abs(denom) > 1e-18:
        t = (w[0] * d2[1] - w[1] * d2[0]) / denom
        u = (w[0] * d1[1] - w[1] * d1[0]) / denom
        if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
            return min(max(t, 0.0), 1.0), min(max(u, 0.0), 1.0)
    t, u = _closest_params(p1, d1, p3, d2)
    ax, ay = p1[0] + t * d1[0], p1[1] + t * d1[1]
    bx, by = p3[0] + u * d2[0], p3[1] + u * d2[1]
    if math.hypot(ax - bx, ay - by) < tol:
        return t, u
    return None


def _overlapping_boxes(lo: np.ndarray, hi: np.ndarray) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, in lexicographic order, of the
    axis-aligned boxes ``lo[k] <= (x, y) <= hi[k]`` that overlap.

    Sort and sweep on x: after sorting by ``lo[:, 0]``, the boxes that can
    meet box ``k`` in x follow it up to the first one starting past
    ``hi[k, 0]``; those are then tested in y.  The work grows with the boxes
    plus the pairs that overlap in x, never with all pairs.
    """
    order = np.argsort(lo[:, 0], kind="stable")
    stop = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    count = stop - np.arange(1, len(order) + 1)  # hi >= lo: a run starts right after its box
    pos = np.repeat(np.arange(len(order)), count)
    partner = pos + 1 + np.arange(count.sum()) - (np.cumsum(count) - count)[pos]
    a, b = order[pos], order[partner]
    meet = (lo[b, 1] <= hi[a, 1]) & (lo[a, 1] <= hi[b, 1])
    i, j = np.minimum(a, b)[meet], np.maximum(a, b)[meet]
    pairs = np.lexsort((j, i))
    return list(zip(i[pairs].tolist(), j[pairs].tolist()))


def build_graph_from_segments(
    records: RecordColumns,
    merge_tolerance: float = DEFAULT_MERGE_TOL,
    crossing_tolerance: float = DEFAULT_CROSSING_TOL,
) -> NetworkSkeleton:
    """Segments -> road graph: split where segments (nearly) cross, then merge
    endpoints that nearly coincide.

    Splits happen before merging; a crossing closer than the tolerance to a
    segment's endpoint does not split that segment (the merge pass unifies it
    instead).  Endpoint clusters are merged to a fixed point on centroids, so
    no two surviving nodes lie within the merge tolerance.  Zero-length arcs
    (both endpoints in one cluster) are dropped with a warning.  Only pairs
    whose bounding boxes, widened by the tolerance, overlap are tested, so
    the work grows with the segments plus the near pairs.
    """
    _require_positive(merge_tolerance=merge_tolerance, crossing_tolerance=crossing_tolerance)
    # a segment's geometry is its earliest record's, ties the first in
    # record order: the first of its rows in the stable key order
    first = _segment_starts(records.codes)
    seg_ids = [records.names[code] for code in records.codes[first].tolist()]
    ends = records.ends[first]
    geometry = [((x1, y1), (x2, y2)) for x1, y1, x2, y2 in ends.tolist()]

    def seg_len(k: int) -> float:
        (x1, y1), (x2, y2) = geometry[k]
        return math.hypot(x2 - x1, y2 - y1)

    # collect split parameters per segment from crossings of nearby segments:
    # _crossing_params accepts only segments that meet or come within the
    # tolerance, so boxes widened by the whole tolerance on every side keep
    # every such pair, with a tolerance to spare for rounding
    cuts: list[list[float]] = [[] for _ in seg_ids]
    n_splits = 0
    lo = np.minimum(ends[:, :2], ends[:, 2:]) - crossing_tolerance
    hi = np.maximum(ends[:, :2], ends[:, 2:]) + crossing_tolerance
    for i, j in _overlapping_boxes(lo, hi):
        hit = _crossing_params(geometry[i], geometry[j], crossing_tolerance)
        if hit is None:
            continue
        for k, param in zip((i, j), hit):
            margin = crossing_tolerance / max(seg_len(k), 1e-18)
            if margin < param < 1 - margin:
                cuts[k].append(param)
                n_splits += 1

    # subdivide
    pieces: list[tuple[str, tuple[float, float], tuple[float, float]]] = []
    for seg_id, ((x1, y1), (x2, y2)), seg_cuts in zip(seg_ids, geometry, cuts):
        params = sorted({0.0, 1.0, *seg_cuts})
        for a, b in zip(params, params[1:]):
            pa = (x1 + a * (x2 - x1), y1 + a * (y2 - y1))
            pb = (x1 + b * (x2 - x1), y1 + b * (y2 - y1))
            pieces.append((seg_id, pa, pb))

    # union-find endpoint merge to a fixed point on cluster centroids
    points: list[tuple[float, float]] = []
    for _, pa, pb in pieces:
        points.extend((pa, pb))
    parent = list(range(len(points)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    while True:
        clusters: dict[int, list[int]] = {}
        for i in range(len(points)):
            clusters.setdefault(find(i), []).append(i)
        roots = sorted(clusters)
        centroid = {
            r: (
                sum(points[i][0] for i in clusters[r]) / len(clusters[r]),
                sum(points[i][1] for i in clusters[r]) / len(clusters[r]),
            )
            for r in roots
        }
        merged_any = False
        # centroids closer than the tolerance are within it on each axis, so
        # their boxes [c, c + tol] overlap (rounding of c + tol is monotone)
        at = np.array([centroid[r] for r in roots]).reshape(-1, 2)
        for i, j in _overlapping_boxes(at, at + merge_tolerance):
            ra, rb = roots[i], roots[j]
            if find(ra) == find(rb):
                continue
            ca, cb = centroid[ra], centroid[rb]
            if math.hypot(ca[0] - cb[0], ca[1] - cb[1]) < merge_tolerance:
                parent[find(rb)] = find(ra)
                merged_any = True
        if not merged_any:
            break

    # the last pass merged nothing, so its clusters and centroids are final
    order = sorted(centroid, key=lambda r: centroid[r])
    node_of_root = {r: k for k, r in enumerate(order)}
    node_coords = tuple(centroid[r] for r in order)

    arcs: list[SkeletonArc] = []
    dropped = 0
    for k, (seg_id, _, _) in enumerate(pieces):
        tail = node_of_root[find(2 * k)]
        head = node_of_root[find(2 * k + 1)]
        if tail == head:
            dropped += 1
            continue
        (x1, y1), (x2, y2) = node_coords[tail], node_coords[head]
        arcs.append(
            SkeletonArc(
                tail=tail,
                head=head,
                segment_id=seg_id,
                length=math.hypot(x2 - x1, y2 - y1),
            )
        )
    if dropped:
        warnings.warn(f"{dropped} zero-length arcs dropped after merging", stacklevel=2)
    return NetworkSkeleton(
        node_coords=node_coords,
        arcs=tuple(arcs),
        n_splits=n_splits,
        n_zero_length_dropped=dropped,
    )


def _raw_travel_costs(
    skeleton: NetworkSkeleton, gridded: ObservationGrid, scale: float
) -> np.ndarray:
    """Per-state arc travel costs scale * length / speed, before snapping."""
    _require_positive(scale=scale)
    speeds = np.empty((len(skeleton.arcs), len(gridded.timestamps)))
    for j, arc in enumerate(skeleton.arcs):
        if arc.segment_id not in gridded.speeds:
            raise ValueError(f"no speed series for segment {arc.segment_id!r}")
        speeds[j] = gridded.speeds[arc.segment_id]
        if np.isnan(speeds[j]).any():
            raise ValueError(f"segment {arc.segment_id!r} has missing speeds")
        if (speeds[j] <= 0).any():
            raise ValueError(f"segment {arc.segment_id!r} has non-positive speed")
    lengths = np.array([arc.length for arc in skeleton.arcs])
    return scale * lengths / speeds.T


def travel_cost_states(
    skeleton: NetworkSkeleton,
    gridded: ObservationGrid,
    scale: float,
    price_grid: PriceGrid,
) -> np.ndarray:
    """Per-state arc travel costs: scale * length / speed, snapped to the
    price grid.  Requires full speed coverage for every arc's segment."""
    return price_grid.snap_array(_raw_travel_costs(skeleton, gridded, scale))


def skeleton_to_network(
    skeleton: NetworkSkeleton,
    costs: np.ndarray,
    origin: int,
    destination: int,
) -> TollNetwork:
    """Materialize a skeleton as a TollNetwork with node names n0, n1, ...
    and every arc toll-free."""
    arcs = tuple(
        Arc(tail=f"n{a.tail}", head=f"n{a.head}", toll_flag=False, length=a.length)
        for a in skeleton.arcs
    )
    return TollNetwork(
        arcs=arcs,
        origin=f"n{origin}",
        destination=f"n{destination}",
        state_costs=costs,
    )


def ingest_to_network(
    records: RecordColumns,
    price_grid: PriceGrid,
    scale: float = 1.0,
    bucket_minutes: int = DEFAULT_BUCKET_MINUTES,
    merge_tolerance: float = DEFAULT_MERGE_TOL,
    crossing_tolerance: float = DEFAULT_CROSSING_TOL,
) -> tuple[NetworkSkeleton, ObservationGrid, np.ndarray, IngestReport]:
    """Full pipeline: records -> gridded speeds -> filled speeds -> graph ->
    per-state costs, plus the ingestion report.  The report's duplicate
    count is ``records.n_duplicates``.  A non-finite or non-positive scale
    or tolerance, or a bucket under a minute, is refused before any work."""
    _require_positive(
        scale=scale, merge_tolerance=merge_tolerance, crossing_tolerance=crossing_tolerance
    )
    raw_grid = grid_observations(records, bucket_minutes=bucket_minutes)
    filled = interpolate_missing(raw_grid)
    never_observed = set(raw_grid.speeds) - set(filled.speeds)
    observed = np.array([name in filled.speeds for name in records.names], dtype=bool)
    rows = observed[records.codes]
    if not rows.any():
        raise ValueError("no segment has any observed speed")
    kept = replace(
        records,
        codes=records.codes[rows],
        timestamps=records.timestamps[rows],
        speeds=records.speeds[rows],
        ends=records.ends[rows],
    )
    skeleton = build_graph_from_segments(
        kept, merge_tolerance=merge_tolerance, crossing_tolerance=crossing_tolerance
    )
    raw = _raw_travel_costs(skeleton, filled, scale)
    costs = price_grid.snap_array(raw)
    clamps = int(((raw < price_grid.q) | (raw > price_grid.Q)).sum())
    report = IngestReport(
        n_records=len(records),
        n_segments=len(raw_grid.speeds),
        n_duplicates=records.n_duplicates,
        n_never_observed=len(never_observed),
        n_splits=skeleton.n_splits,
        n_zero_length_dropped=skeleton.n_zero_length_dropped,
        n_nodes=len(skeleton.node_coords),
        n_arcs=len(skeleton.arcs),
        n_cost_clamps=clamps,
    )
    return skeleton, filled, costs, report
