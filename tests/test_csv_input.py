"""The one CSV reader: header, field count, conversion and finiteness checks,
and writer/reader round trips for every CSV format."""

from __future__ import annotations

import csv
import io
import os
import re
import string
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tollkit.core import CostHistory, flag, read_rows
from tollkit.ingest import SegmentRecord, parse_traffic_records, write_traffic_records
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


def test_flag_accepts_only_zero_and_one():
    assert flag(" 1 ") is True and flag("0") is False
    for text in ("2", "", "true", "1.0"):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            flag(text)


def test_history_rejects_negative_indices():
    with pytest.raises(ValueError, match="<stream>:3: state and arc must be >= 0"):
        CostHistory.from_csv(io.StringIO("state,arc,cost\n0,0,1\n-1,0,2\n"))


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
    ),
    n_states=st.integers(1, 4),
    data=st.data(),
)
def test_network_round_trip(arcs, n_states, data):
    size = n_states * len(arcs)
    matrix = data.draw(st.lists(costs, min_size=size, max_size=size))
    net = TollNetwork(
        arcs=tuple(Arc(*arc) for arc in arcs),
        origin="O",
        destination="D",
        state_costs=np.reshape(matrix, (n_states, len(arcs))),
    )
    with tempfile.TemporaryDirectory() as tmp:
        arcs_csv, states_csv = os.path.join(tmp, "arcs.csv"), os.path.join(tmp, "states.csv")
        write_network(net, arcs_csv, states_csv)
        again = load_network(arcs_csv, states_csv, "O", "D")
        assert again.arcs == net.arcs
        assert np.array_equal(again.state_costs, net.state_costs)

        path, column = data.draw(st.sampled_from([(arcs_csv, 3), (states_csv, 2)]))
        with open(path) as fh:
            text = fh.read()
        line = data.draw(st.integers(2, text.count("\n")))
        with open(path, "w") as fh:
            fh.write(corrupt(text, line, column, data.draw(non_finite)))
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:{line}: \\w+ must be finite"):
            load_network(arcs_csv, states_csv, "O", "D")


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
    history = CostHistory(np.reshape(matrix, (T * windows, n_arcs)), T, windows)
    buf = io.StringIO()
    history.to_csv(buf)
    again = CostHistory.from_csv(io.StringIO(buf.getvalue()), T=T, windows=windows)
    assert np.array_equal(again.states, history.states)
    assert (again.T, again.windows) == (T, windows)

    text = buf.getvalue()
    line = data.draw(st.integers(2, size + 1))
    bad = corrupt(text, line, 2, data.draw(non_finite))
    with pytest.raises(ValueError, match=f"^<stream>:{line}: cost must be finite"):
        CostHistory.from_csv(io.StringIO(bad), T=T, windows=windows)


coordinates = st.tuples(st.floats(-180.0, 180.0).map(written), st.floats(-90.0, 90.0).map(written))
records = st.builds(
    lambda timestamp, segment_id, speed, ends: SegmentRecord(timestamp, segment_id, speed, *ends),
    signed,
    names,
    st.none() | st.floats(0.01, 1e3).map(written),
    st.tuples(coordinates, coordinates).filter(lambda ends: ends[0] != ends[1]),
)


@PROPERTY
@given(
    feed=st.lists(
        records, min_size=1, max_size=8, unique_by=lambda r: (r.segment_id, r.timestamp)
    ),
    data=st.data(),
)
def test_traffic_records_round_trip(feed, data):
    buf = io.StringIO()
    write_traffic_records(feed, buf)
    again = parse_traffic_records(io.StringIO(buf.getvalue()))
    assert again == tuple(sorted(feed, key=lambda r: (r.segment_id, r.timestamp)))

    line = data.draw(st.integers(2, len(feed) + 1))
    column = data.draw(st.sampled_from([0, 2, 3, 4, 5, 6]))
    bad = corrupt(buf.getvalue(), line, column, data.draw(non_finite))
    with pytest.raises(ValueError, match=f"^<stream>:{line}: \\w+ must be finite"):
        parse_traffic_records(io.StringIO(bad))
