"""The column ingest against a copy of the record pipeline it replaced.

The reference below keeps one ``Row`` tuple per feed row, a dict for
duplicate keys and a sort per stage, as ``tollkit.ingest`` did before it
worked on columns.  Feeds are generated text, so both sides read the same
bytes; every record, warning, grid series, skeleton, cost and report must
come out identical, and a bad row must fail with the same text.
"""

from __future__ import annotations

import io
import math
import warnings
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import BAD_VALUES, CSV_INPUTS
from test_ingest import all_pairs_graph

import tollkit.ingest as ingest
from tollkit.core import PriceGrid, read_rows
from tollkit.ingest import (
    RECORD_HEADER,
    IngestReport,
    ObservationGrid,
    RecordColumns,
    grid_observations,
    ingest_to_network,
    parse_traffic_records,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
GRID = PriceGrid(0.0, 200.0, 0.5)
SCALE = 1000.0  # some costs land past the grid and clamp


# --- the record pipeline ------------------------------------------------------------


class Row(NamedTuple):
    timestamp: float
    segment_id: str
    speed: float | None
    start: tuple[float, float]
    end: tuple[float, float]


def reference_parse(source):
    table = read_rows(
        source,
        RECORD_HEADER,
        (ingest._parse_timestamp, str.strip, ingest._optional_float, float, float, float, float),
    )
    seen = {}
    for row, (ts, segment, speed, x1, y1, x2, y2) in enumerate(zip(*table.columns)):
        if speed is not None and speed <= 0:
            raise table.error(row, "speed must be positive when present")
        if (x1, y1) == (x2, y2):
            raise table.error(row, "segment endpoints must be distinct")
        seen[(segment, ts)] = Row(ts, segment, speed, (x1, y1), (x2, y2))
    if not seen:
        raise ValueError(f"{table.where}: no records")
    duplicates = len(table.lines) - len(seen)
    if duplicates:
        warnings.warn(f"{duplicates} duplicate (segment, timestamp) records; kept last")
    return sorted(seen.values(), key=lambda r: (r.segment_id, r.timestamp)), duplicates


def reference_grid(records, bucket_minutes=15):
    width = bucket_minutes * 60.0
    buckets = sorted({math.floor(r.timestamp / width) * width for r in records})
    index = {b: i for i, b in enumerate(buckets)}
    speeds = {}
    for r in sorted(records, key=lambda r: (r.segment_id, r.timestamp)):
        series = speeds.get(r.segment_id)
        if series is None:
            series = speeds[r.segment_id] = np.full(len(buckets), np.nan)
        if r.speed is not None:
            series[index[math.floor(r.timestamp / width) * width]] = r.speed
    return ObservationGrid(timestamps=tuple(buckets), speeds=speeds)


def reference_interpolate(gridded):
    t = np.asarray(gridded.timestamps)
    filled = {}
    for seg, series in gridded.speeds.items():
        have = ~np.isnan(series)
        if have.any():
            filled[seg] = np.interp(t, t[have], series[have])
    return ObservationGrid(timestamps=gridded.timestamps, speeds=filled)


def reference_ingest(records, n_duplicates):
    raw_grid = reference_grid(records)
    filled = reference_interpolate(raw_grid)
    kept = [r for r in records if r.segment_id in filled.speeds]
    if not kept:
        raise ValueError("no segment has any observed speed")
    skeleton = all_pairs_graph(kept, ingest.DEFAULT_MERGE_TOL, ingest.DEFAULT_CROSSING_TOL)
    if skeleton.n_zero_length_dropped:
        warnings.warn(f"{skeleton.n_zero_length_dropped} zero-length arcs dropped after merging")
    speeds = np.array([filled.speeds[a.segment_id] for a in skeleton.arcs]).reshape(
        len(skeleton.arcs), len(filled.timestamps)
    )
    raw = SCALE * np.array([a.length for a in skeleton.arcs]) / speeds.T
    report = IngestReport(
        n_records=len(records),
        n_segments=len(raw_grid.speeds),
        n_duplicates=n_duplicates,
        n_never_observed=len(raw_grid.speeds) - len(filled.speeds),
        n_splits=skeleton.n_splits,
        n_zero_length_dropped=skeleton.n_zero_length_dropped,
        n_nodes=len(skeleton.node_coords),
        n_arcs=len(skeleton.arcs),
        n_cost_clamps=int(((raw < GRID.q) | (raw > GRID.Q)).sum()),
    )
    return skeleton, filled, GRID.snap_array(raw), report


# --- comparing the two ----------------------------------------------------------------


def outcome(run):
    """(result or error text, warning texts) of ``run()``."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = run()
        except ValueError as exc:
            result = f"ValueError: {exc}"
    return result, [f"{w.category.__name__}: {w.message}" for w in caught]


def same_grid(got, want):
    assert repr(got.timestamps) == repr(want.timestamps)  # -0.0 is not 0.0 here
    assert list(got.speeds) == list(want.speeds)
    for seg, series in want.speeds.items():
        assert got.speeds[seg].tobytes() == series.tobytes(), seg


def same_ingest(got, want):
    if isinstance(want, str):
        assert got == want
        return
    skeleton, filled, costs, report = got
    ref_skeleton, ref_filled, ref_costs, ref_report = want
    assert skeleton == ref_skeleton
    assert repr(skeleton) == repr(ref_skeleton)
    same_grid(filled, ref_filled)
    assert costs.shape == ref_costs.shape
    assert costs.tobytes() == ref_costs.tobytes()
    assert report == ref_report
    assert report.to_text() == ref_report.to_text()


def check_feed(text):
    want, want_warnings = outcome(lambda: reference_parse(io.StringIO(text)))
    got, got_warnings = outcome(lambda: parse_traffic_records(io.StringIO(text)))
    assert got_warnings == want_warnings
    if isinstance(want, str):
        assert got == want
        return
    records, n_duplicates = want
    assert isinstance(got, RecordColumns)
    assert got.names == tuple(sorted({r.segment_id for r in records}))
    assert [got.names[code] for code in got.codes.tolist()] == [r.segment_id for r in records]
    # the kept row's own stamp, -0.0 included
    assert repr(got.timestamps.tolist()) == repr([r.timestamp for r in records])
    speeds = [math.nan if r.speed is None else r.speed for r in records]
    assert repr(got.speeds.tolist()) == repr(speeds)
    assert repr(got.ends.tolist()) == repr([[*r.start, *r.end] for r in records])
    assert got.n_duplicates == n_duplicates
    same_grid(grid_observations(got), reference_grid(records))

    want, want_warnings = outcome(lambda: reference_ingest(records, n_duplicates))
    got_ingest, got_warnings = outcome(lambda: ingest_to_network(got, GRID, scale=SCALE))
    assert got_warnings == want_warnings
    same_ingest(got_ingest, want)


# --- feeds ---------------------------------------------------------------------------

# Stamps with 0.0 and -0.0 (one key), ISO texts with and without a zone, and
# several stamps inside one 15-minute bucket.
STAMPS = [
    "0", "-0", "0.0", "-0.0", "450", "899.5", "900", "1350", "1800", "-900", "2700.25",
    "1970-01-01T00:15:00+00:00", "1970-01-01T00:30:00", "1970-01-01T00:07:30-00:00",
]  # fmt: skip
# Python str order differs from a case-folded or numeric order here.
NAMES = ["a", "b", "B", "a0", "a_1", "10", "9", "é", "z"]
SPEEDS = ["", "", "", "30", "45.5", "12", "60", "7.25"]
POINTS = [(x, y) for x in (0.0, 1.0, 2.0) for y in (0.0, 1.0, 2.0)] + [(1.00002, 1.00001)]

row = st.tuples(
    st.sampled_from(STAMPS),
    st.sampled_from(NAMES),
    st.sampled_from(SPEEDS),
    st.sampled_from(POINTS),
    st.sampled_from(POINTS),
).filter(lambda r: r[3] != r[4])


def feed_text(rows):
    lines = [f"{t},{s},{v},{p[0]:g},{p[1]:g},{q[0]:g},{q[1]:g}" for t, s, v, p, q in rows]
    return "\n".join([RECORD_HEADER, *lines]) + "\n"


@PROPERTY
@given(rows=st.lists(row, min_size=1, max_size=30))
def test_column_ingest_matches_record_pipeline(rows):
    check_feed(feed_text(rows))


@PROPERTY
@given(rows=st.lists(row, min_size=1, max_size=12), data=st.data())
def test_first_bad_row_fails_with_the_record_message(rows, data):
    """A speed of at most 0, a zero-length segment or both, on any rows: the
    first bad row wins, and on a row with both faults the speed message."""
    rows = list(rows)
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(0, len(rows) - 1))
        t, s, v, p, q = rows[k]
        fault = data.draw(st.sampled_from(["speed", "length", "both"]))
        if fault != "length":
            v = data.draw(st.sampled_from(["0", "-0", "-3.5"]))
        if fault != "speed":
            q = p
        rows[k] = (t, s, v, p, q)
    check_feed(feed_text(rows))


def test_duplicate_keys_keep_the_last_row_and_its_own_stamp():
    text = feed_text(
        [
            ("0", "a", "30", (0.0, 0.0), (1.0, 0.0)),
            ("-0", "a", "40", (0.0, 0.0), (1.0, 0.0)),
            ("600", "a", "", (0.0, 0.0), (1.0, 0.0)),
            ("450", "a", "50", (0.0, 0.0), (1.0, 0.0)),
        ]
    )
    check_feed(text)
    with pytest.warns(UserWarning, match="1 duplicate"):
        parsed = parse_traffic_records(io.StringIO(text))
    assert (repr(parsed.timestamps.tolist()[0]), parsed.speeds[0]) == ("-0.0", 40.0)
    # one bucket: the blank at 600 is latest, but 450 is the last present speed
    assert grid_observations(parsed).speeds["a"].tolist() == [50.0]


@pytest.mark.parametrize("case", ["valid", "header", "fields", *CSV_INPUTS["feed"][1]])
def test_cli_feed_cases_match(case):
    text, columns = CSV_INPUTS["feed"]
    lines = text.splitlines()
    if case == "header":
        lines[0] = "bogus," + lines[0]
    elif case != "valid":
        fields = lines[2].split(",")
        if case == "fields":
            fields.pop()
        else:
            fields[columns[case]] = BAD_VALUES[case]
        lines[2] = ",".join(fields)
    check_feed("\n".join(lines) + "\n")
