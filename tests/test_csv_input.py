"""The one CSV reader: header, field count, conversion and finiteness checks,
and writer/reader round trips for every CSV format."""

from __future__ import annotations

import csv
import io
import math
import os
import re
import string
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tollkit.core as core
from oracle import csv_read_rows
from tollkit.core import (
    flag,
    format_cell,
    read_cost_history,
    read_cost_table,
    read_rows,
    write_cost_table,
    write_rows,
)
from tollkit.ingest import RECORD_HEADER, parse_traffic_records, write_traffic_records
from tollkit.network import Arc, TollNetwork, load_network, write_network

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def table(text, header="a,b", converters=(int, float)):
    return read_rows(io.StringIO(text), header, converters)


# --- read_rows -------------------------------------------------------------------


def test_read_rows_converts_by_column_and_skips_blank_rows():
    got = table(" A , B \n1,2.5\n\n  \n3, 4\n")
    assert got.where == "<stream>"
    assert got.lines == [2, 5]
    assert got.columns == ([1, 3], [2.5, 4.0])
    assert table("a,b\n").columns == ([], [])


def test_read_rows_reads_paths_and_quoted_fields(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text('name,used\n"x, y",1\nz,0\n')
    got = read_rows(path, "name,used", (str.strip, flag))
    assert got.where == str(path)
    assert got.columns == (["x, y", "z"], [True, False])


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "<stream>:1: unexpected header '', expected header 'a,b'"),
        ("a,c\n1,2\n", "<stream>:1: unexpected header 'a,c', expected header 'a,b'"),
        ("a,b\n1,2\n3\n", "<stream>:3: expected 2 fields, got 1"),
        ("a,b\n1,2\n1,2,3\n", "<stream>:3: expected 2 fields, got 3"),
        ("a,b\n1,2\nx,2\n", "<stream>:3: a: invalid literal for int() with base 10: 'x'"),
        ("a,b\n1,2\n\n4,nan\n", "<stream>:4: b must be finite, got 'nan'"),
        ("a,b\n1,-inf\n2,inf\n", "<stream>:2: b must be finite, got '-inf'"),
        ("a,b\n1,1e400\n", "<stream>:2: b must be finite, got '1e400'"),
        # The first bad line in the file, whatever its column.
        ("a,b\n1,2\n2,nan\nx,2\n", "<stream>:3: b must be finite, got 'nan'"),
        # A blank optional field beside a NaN.
        ("a,b\n1,\n2,nan\n", "<stream>:3: b must be finite, got 'nan'"),
    ],
    ids=[
        "empty",
        "header",
        "short-row",
        "long-row",
        "not-int",
        "nan",
        "minus-inf",
        "overflow",
        "first-bad-line",
        "nan-beside-blank",
    ],
)
def test_read_rows_errors_name_the_line(text, message):
    optional = lambda text: float(text) if text else None  # noqa: E731
    with pytest.raises(ValueError) as info:
        table(text, converters=(int, optional))
    assert str(info.value) == message


def test_read_rows_reports_csv_errors_with_a_line():
    text = "a,b\n1,2\n1," + "9" * (csv.field_size_limit() + 1) + "\n"
    with pytest.raises(ValueError, match="^<stream>:3: field larger than field limit"):
        table(text)


def test_read_rows_accepts_sums_that_overflow():
    assert table("a,b\n1,1e308\n2,1e308\n").columns[1] == [1e308, 1e308]


# Fields of a plain text, and lines that make a text take the csv.reader
# path: a quote, a carriage return, a blank row, ragged rows (a short and a
# long one together hold as many fields as two rows of three), NUL, and a
# field over the field size limit, which the test lowers to LIMIT.
LIMIT = 12
plain_fields = st.sampled_from(["0", "1", "2.5", " 3 ", "-0", "1e-3", "", "x", "nan", "1e400"])
odd_lines = st.sampled_from(
    [
        '"1,2",3,4',
        '1,"2""",3',
        '1,2,"3',
        "1,2,3\r",
        "1\r2,3,4",
        "",
        "  ",
        "1,2",
        "1,2\n1,2,3,4",
        "1,\x00,3",
        "1,2," + "9" * (LIMIT + 1),
        "1,2," + "9" * LIMIT,
    ]
)


def optional_float(text):
    return float(text) if text.strip() else None


@settings(PROPERTY, max_examples=300)
@given(width=st.sampled_from([3, 1]), data=st.data())
def test_read_rows_matches_the_csv_reader(width, data):
    header = "a,b,c"[: 2 * width - 1]
    rows = data.draw(st.lists(st.lists(plain_fields, min_size=width, max_size=width), max_size=12))
    rows = [",".join(row) for row in rows]
    odd = data.draw(st.none() | odd_lines)
    if odd is not None:
        rows.insert(data.draw(st.integers(0, len(rows))), odd)
    first = header
    if data.draw(st.integers(0, 3)) == 0:
        first = data.draw(st.sampled_from([f" {header.upper()}", "", "z", f'"{header}"', header + "\r"]))
    text = "\n".join([first, *rows]) + data.draw(st.sampled_from(["\n", ""]))
    converters = data.draw(st.sampled_from([(str,) * width, (optional_float, str.strip, float)[:width]]))
    chunk = data.draw(st.sampled_from([2**16, 1, 6, 17]))

    def outcome(read, path):
        try:
            return read(path, header, converters)
        except ValueError as exc:
            return str(exc)

    limit = csv.field_size_limit(LIMIT)
    try:
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            path = os.path.join(tmp, "in.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            patch.setattr(core, "_READ_CHARS", chunk)
            assert outcome(read_rows, path) == outcome(csv_read_rows, path)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize(
    "data",
    [
        b"",
        b"\n",
        b"a,b,c",
        b"a,b,c\n",
        b"a,b,c\n\n",
        b"a,b,c\n1,2,3",
        # csv.reader meets the short row before the byte that does not decode
        b"a,b,c\n1,2\n" + b"1,2,3\n" * 2000 + b"\xff\n",
    ],
)
def test_read_rows_matches_the_csv_reader_on_edge_texts(tmp_path, data):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    results = []
    for read in (read_rows, csv_read_rows):
        try:
            results.append(read(path, "a,b,c", (str, str, str)))
        except ValueError as exc:
            results.append(str(exc))
    assert results[0] == results[1]


LONG = "1,2,3\n" * 11000  # data rows past the first 2**16-character read


@pytest.mark.parametrize("chunk", [1, 6, 17, 2**16])
@pytest.mark.parametrize(
    "text",
    [
        # a bad float in the first read, a ragged row in a later one
        "a,b,c\n1,x,3\n" + LONG + "1,2\n",
        # a NaN early, a quote late: the rest goes through csv.reader
        "a,b,c\n1,nan,3\n" + LONG + '1,"2,5",3\n',
        # a bad cell only in the last read
        "a,b,c\n" + LONG + "1,2,x\n",
    ],
    ids=["bad-float-then-ragged", "nan-then-quote", "bad-last-cell"],
)
def test_read_rows_error_precedence_across_reads(tmp_path, monkeypatch, chunk, text):
    path = tmp_path / "in.csv"
    path.write_text(text)
    monkeypatch.setattr(core, "_READ_CHARS", chunk)
    results = []
    for read in (read_rows, csv_read_rows):
        with pytest.raises(ValueError) as info:
            read(path, "a,b,c", (int, float, float))
        results.append(str(info.value))
    assert results[0] == results[1]


@pytest.mark.parametrize("chunk", [6, 2**16])
@pytest.mark.parametrize(
    "data, line",
    [
        (b"a,b,c\n1,2,3\n4,\xff,6\n", 3),  # plain text, the first read
        (b"a,b,c\n" + LONG.encode() + b"4,5,\xff\n", 11002),  # plain, a later read
        (b'a,b,c\n"1",2,3\n' + LONG.encode() + b"\xe9,5,6\n", 11003),  # csv.reader
        (b"a,b,c\r\n1,2,3\r\n4,\xff,6\r\n", 3),  # csv.reader, CRLF
        (b"a,b,c\n1,\xff,3\n1,2\n", 2),  # before a ragged row
        (b"a,b,c\nx,2,3\n1,2,\xc3", 3),  # after a bad cell; cut in a character
        (b"a,\xffb,c\n1,2,3\n", 1),
    ],
    ids=["plain", "plain-later-read", "csv-reader", "crlf", "before-ragged", "after-bad-cell", "header"],
)
def test_read_rows_names_the_line_of_a_byte_that_does_not_decode(
    tmp_path, monkeypatch, chunk, data, line
):
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    monkeypatch.setattr(core, "_READ_CHARS", chunk)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{line}: .*can't decode"):
        read_rows(path, "a,b,c", (int, int, int))


# ~20,000 rows of the feed's seven fields: about eighteen reads of 2**16
# characters, ten times one read's text once split into Python objects
FEED_ROWS = [
    f"{i},s{i % 300:03d},{30 + i % 17 / 4},-122.{i:06d},37.{i:06d},-122.{i + 1:06d},37.{i + 1:06d}"
    for i in range(20000)
]


@pytest.mark.parametrize("line_end", ["\n", "\r\n"], ids=["plain", "crlf"])
def test_read_rows_holds_one_read_of_text(tmp_path, line_end):
    # Memory beyond the returned table stays near one read's text: the
    # split and converted text of one 2**16-character read is about 0.7 MB.
    # Holding every field of the input as a string until the end costs
    # about 9 MB here.
    path = tmp_path / "feed.csv"
    with open(path, "w", newline="") as fh:
        fh.write(line_end.join([RECORD_HEADER, *FEED_ROWS]) + line_end)
    converters = (int, str.strip, float, float, float, float, float)
    tracemalloc.start()
    try:
        table = read_rows(path, RECORD_HEADER, converters)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.lines) == len(FEED_ROWS)
    assert peak - retained < 24 * core._READ_CHARS


def test_flag_accepts_only_zero_and_one():
    assert flag(" 1 ") is True and flag("0") is False
    for text in ("2", "", "true", "1.0"):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            flag(text)


def test_history_rejects_negative_indices():
    with pytest.raises(ValueError, match="<stream>:3: state and arc must be >= 0"):
        read_cost_history(io.StringIO("state,arc,cost\n0,0,1\n-1,0,2\n"))


GAP = " (state and arc ids run from 0 with no gap)"


@pytest.mark.parametrize(
    "rows, n_arcs, message",
    [
        ("", None, "<stream>: no cost rows"),
        ("0,0,1\n5,0,2\n", None, "<stream>: missing a cost for state 1, arc 0" + GAP),
        ("0,0,1\n0,2,1\n", None, "<stream>: missing a cost for state 0, arc 1" + GAP),
        ("0,0,1\n1,0,2\n", 2, "<stream>: missing a cost for state 0, arc 1" + GAP),
        ("0,0,1\n0,-3,2\n", None, "<stream>:3: state and arc must be >= 0, got 0, -3"),
        ("0,0,1\n0,1,2\n", 1, "<stream>:3: arc 1 out of range for 1 arcs"),
        ("0,0,1\n0,0,2\n", 1, "<stream>:3: duplicate cost for state 0, arc 0; first at line 2"),
        # wrapped around as array indices, -1 would fill the last state's cells
        (
            "0,0,1\n0,1,1\n1,0,1\n-1,1,1\n",
            2,
            "<stream>:5: state and arc must be >= 0, got -1, 1",
        ),
        ("0,0,1\n" + "9" * 30 + ",0,1\n", 1, "<stream>: missing a cost for state 1, arc 0" + GAP),
    ],
    ids=["empty", "state-gap", "arc-gap", "short", "negative", "range", "repeat", "wrap", "huge"],
)
def test_cost_table_rule(rows, n_arcs, message):
    with pytest.raises(ValueError) as info:
        read_cost_table(io.StringIO("state,arc,cost\n" + rows), n_arcs)
    assert str(info.value) == message


# --- writer/reader round trips --------------------------------------------------------


def written(x: float) -> float:
    """The value as the writers' 12-significant-digit format stores it."""
    return float(f"{x:.12g}")


# Names may hold the CSV delimiter and quote: the writers must quote them.
names = st.text(string.ascii_letters + string.digits + ',"', min_size=1, max_size=3)
costs = st.floats(0.0, 1e12).map(written)
signed = st.floats(-1e9, 1e9).map(written)
non_finite = st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"])


def corrupt(text: str, line: int, column: int, value: str) -> str:
    """``text`` with field ``column`` of file line ``line`` set to ``value``."""
    lines = text.split("\n")
    (fields,) = csv.reader([lines[line - 1]])
    fields[column] = value
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(fields)
    lines[line - 1] = out.getvalue()
    return "\n".join(lines)


@PROPERTY
@given(
    arcs=st.lists(
        st.tuples(names, names, st.booleans(), costs),
        min_size=1,
        max_size=5,
        unique_by=lambda arc: arc[:2],
    ).filter(lambda arcs: len({name for arc in arcs for name in arc[:2]}) > 1),
    n_states=st.integers(1, 4),
    data=st.data(),
)
def test_network_round_trip(arcs, n_states, data):
    size = n_states * len(arcs)
    matrix = data.draw(st.lists(costs, min_size=size, max_size=size))
    nodes = sorted({name for arc in arcs for name in arc[:2]})
    net = TollNetwork(
        arcs=tuple(Arc(*arc) for arc in arcs),
        origin=nodes[0],
        destination=nodes[-1],
        state_costs=np.reshape(matrix, (n_states, len(arcs))),
    )
    with tempfile.TemporaryDirectory() as tmp:
        arcs_csv, states_csv = os.path.join(tmp, "arcs.csv"), os.path.join(tmp, "states.csv")
        write_network(net, arcs_csv, states_csv)
        again = load_network(arcs_csv, states_csv)
        assert again.arcs == net.arcs
        assert (again.origin, again.destination) == (net.origin, net.destination)
        assert np.array_equal(again.state_costs, net.state_costs)

        path, column = data.draw(st.sampled_from([(arcs_csv, 3), (states_csv, 2)]))
        with open(path) as fh:
            text = fh.read()
        line = data.draw(st.integers(2, text.count("\n")))
        with open(path, "w") as fh:
            fh.write(corrupt(text, line, column, data.draw(non_finite)))
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:{line}: \\w+ must be finite"):
            load_network(arcs_csv, states_csv)


@PROPERTY
@given(
    T=st.integers(1, 5),
    windows=st.integers(1, 3),
    n_arcs=st.integers(1, 3),
    data=st.data(),
)
def test_history_round_trip(T, windows, n_arcs, data):
    size = T * windows * n_arcs
    matrix = data.draw(st.lists(signed, min_size=size, max_size=size))
    history = np.reshape(matrix, (T * windows, n_arcs))
    buf = io.StringIO()
    write_cost_table(buf, history)
    again = read_cost_history(io.StringIO(buf.getvalue()), T=T, windows=windows)
    assert np.array_equal(again, history)
    # a horizon one longer asks for more states than the table has
    want = f"<stream>: {T * windows} states, expected T*H = {T + 1}*{windows} = {(T + 1) * windows}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        read_cost_history(io.StringIO(buf.getvalue()), T=T + 1, windows=windows)

    text = buf.getvalue()
    line = data.draw(st.integers(2, size + 1))
    bad = corrupt(text, line, 2, data.draw(non_finite))
    with pytest.raises(ValueError, match=f"^<stream>:{line}: cost must be finite"):
        read_cost_history(io.StringIO(bad), T=T, windows=windows)


# Cells whose text is easy to get wrong: signed zeros, a cost just below
# zero, integral costs and values at 12 significant digits, among any float.
cost_cells = (
    st.sampled_from([0.0, -0.0, -1e-9, 1e-9, 7.0, 1e12, 123456789012.0, 1.23456789012e-5, 0.1 + 0.2])
    | st.floats()
)


@PROPERTY
@given(n_arcs=st.integers(1, 4), n_states=st.integers(1, 4), data=st.data())
def test_cost_table_writer_matches_write_rows(n_arcs, n_states, data):
    cells = data.draw(st.lists(cost_cells, min_size=n_arcs * n_states, max_size=n_arcs * n_states))
    matrix = np.reshape(cells, (n_states, n_arcs))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.csv"), os.path.join(tmp, "want.csv")
        write_cost_table(got, matrix)
        write_rows(
            want,
            ["state", "arc", "cost"],
            ((s, a, cost) for s, row in enumerate(matrix.tolist()) for a, cost in enumerate(row)),
            lineterminator="\n",
        )
        with open(got, "rb") as fh, open(want, "rb") as ref:
            assert fh.read() == ref.read()


@PROPERTY
@given(st.floats())
def test_format_cell_gives_numpy_floats_the_text_of_python_floats(x):
    assert format_cell(np.float64(x)) == format_cell(x)


coordinates = st.tuples(st.floats(-180.0, 180.0).map(written), st.floats(-90.0, 90.0).map(written))
# (timestamp, segment, speed or None, (start, end))
records = st.tuples(
    signed,
    names,
    st.none() | st.floats(0.01, 1e3).map(written),
    st.tuples(coordinates, coordinates).filter(lambda ends: ends[0] != ends[1]),
)


@PROPERTY
@given(
    feed=st.lists(records, min_size=1, max_size=8, unique_by=lambda r: (r[1], r[0])),
    data=st.data(),
)
def test_traffic_records_round_trip(feed, data):
    feed = sorted(feed, key=lambda r: (r[1], r[0]))  # the parser's (segment, timestamp) order
    rows = [(t, seg, "" if v is None else v, *start, *end) for t, seg, v, (start, end) in feed]
    buf = io.StringIO()
    write_rows(buf, RECORD_HEADER.split(","), rows, lineterminator="\n")
    again = parse_traffic_records(io.StringIO(buf.getvalue()))
    assert again.names == tuple(sorted({row[1] for row in rows})) and again.n_duplicates == 0
    assert [again.names[code] for code in again.codes.tolist()] == [row[1] for row in rows]
    assert again.timestamps.tolist() == [row[0] for row in rows]
    speeds = [math.nan if row[2] == "" else row[2] for row in rows]
    assert np.array_equal(again.speeds, speeds, equal_nan=True)
    assert again.ends.tolist() == [list(row[3:]) for row in rows]
    out = io.StringIO()
    write_traffic_records(again, out)
    assert out.getvalue() == buf.getvalue()

    line = data.draw(st.integers(2, len(feed) + 1))
    column = data.draw(st.sampled_from([0, 2, 3, 4, 5, 6]))
    bad = corrupt(buf.getvalue(), line, column, data.draw(non_finite))
    with pytest.raises(ValueError, match=f"^<stream>:{line}: \\w+ must be finite"):
        parse_traffic_records(io.StringIO(bad))
