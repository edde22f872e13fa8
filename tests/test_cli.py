"""Command-line interface: artifacts, manifests, exit codes, reruns."""

from __future__ import annotations

import ast
import csv
import inspect
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import tollkit
import tollkit.cli as cli
from tollkit.allocation import MAX_ALLOC_NODES
from tollkit.cli import main
from tollkit.config import RunConfig
from tollkit.core import FAMILIES, MomentEnvelope, PriceGrid, read_cost_history
from tollkit.experiments import (
    ExperimentConfig,
    family_spec,
    run_dynamic_cumulative_regret,
    run_fixed_distribution_experiment,
    run_mixed_distribution_experiment,
    run_real_data_experiment,
)
from tollkit.ingest import RECORD_HEADER
from tollkit.nature import solve_nature_an, solve_nature_ufn
from tollkit.network import load_network
from tollkit.pricing import epsilon_sweep_robust_toll, two_point_robust_toll

SEED = 20260819


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def write_config(path, **overrides):
    base = {"q": 0, "Q": 200, "step": 1, "T": 50, "H": 1, "kappa_bar": 1}
    base.update(overrides)
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(path)


def crossing_feed(path):
    rows = [
        RECORD_HEADER,
        "0,ne,30,0,0,1,1",
        "900,ne,40,0,0,1,1",
        "0,nw,35,1,0,0,1",
        "900,nw,25,1,0,0,1",
    ]
    path.write_text("\n".join(rows) + "\n")
    return str(path)


# --- price -----------------------------------------------------------------------


def test_price_zero_variance_band_floor(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.cfg", kappa_bar=0)
    out = tmp_path / "out"
    code = main(
        [
            "price",
            "--config",
            cfg,
            "--u-lower",
            "120",
            "--u-upper",
            "150",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    rows = read_rows(out / "price.csv")
    assert rows[0] == ["format_version", "toll", "usage_count", "worst_case_revenue", "method"]
    assert rows[1] == ["1", "120", "50", "6000", "two-point"]
    assert (out / "br_curve.csv").exists()
    manifest = (out / "run_manifest.txt").read_text()
    assert "command = price" in manifest
    assert "kappa_bar = 0" in manifest
    assert "u_lower = 120" in manifest
    assert "toll 120" in capsys.readouterr().out


def test_price_sweep_method(tmp_path):
    cfg = write_config(tmp_path / "run.cfg", kappa_bar=0)
    out = tmp_path / "out"
    code = main(
        [
            "price",
            "--config",
            cfg,
            "--u-lower",
            "120",
            "--u-upper",
            "120",
            "--method",
            "sweep",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    rows = read_rows(out / "price.csv")
    assert rows[1][1] == "120"
    assert rows[1][4] == "epsilon-sweep"


def test_price_rejects_an_unknown_method_before_writing(tmp_path, capsys):
    out = tmp_path / "out"
    args = ["price", "--u-lower", "120", "--u-upper", "120", "--out-dir", str(out)]
    assert main(args + ["--method", "sweeps"]) == 2
    assert "invalid choice: 'sweeps'" in capsys.readouterr().err
    assert not out.exists()


def test_price_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "run.cfg")
    args = ["price", "--config", cfg, "--u-lower", "90", "--u-upper", "110"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    for name in ("price.csv", "br_curve.csv", "run_manifest.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_price_requires_an_envelope(tmp_path, capsys):
    code = main(["price", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "error: provide --history" in capsys.readouterr().err


def test_price_from_history_csv(tmp_path, capsys):
    history = tmp_path / "history.csv"
    lines = ["state,arc,cost"]
    for state in range(50):
        lines.append(f"{state},0,{100 + (state % 2)}")
    history.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["price", "--history", str(history), "--out-dir", str(out)])
    assert code == 0
    manifest = (out / "run_manifest.txt").read_text()
    assert f"history = {history}" in manifest
    # 49 states do not fill T*H = 50 periods
    history.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["price", "--history", str(history), "--out-dir", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err == f"error: {history}: 49 states, expected T*H = 50*1 = 50\n"
    assert not (tmp_path / "bad" / "price.csv").exists()


# --- exit codes and config handling -------------------------------------------------


def test_missing_input_file_exits_1(tmp_path, capsys):
    code = main(
        [
            "price",
            "--config",
            str(tmp_path / "nope.cfg"),
            "--u-lower",
            "10",
            "--u-upper",
            "20",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert "missing input file" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 0\nQ = 10\nstep = 1\nbogus = 3\n")
    code = main(
        [
            "price",
            "--config",
            str(cfg),
            "--u-lower",
            "5",
            "--u-upper",
            "6",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("T = abc", "T: invalid literal for int() with base 10: 'abc'"),
        ("seed = 1.5", "seed: invalid literal for int() with base 10: '1.5'"),
        ("kappa_bar = lots", "kappa_bar: could not convert string to float: 'lots'"),
        ("kappa_bar 2", "bad config line 'kappa_bar 2'"),
        ("bogus = 3", "unknown config key 'bogus'"),
        ("T = 1", "T must be >= 2, got 1"),
        ("H = 0", "H must be >= 1, got 0"),
        ("kappa_bar = nan", "kappa_bar must be finite, got nan"),
        ("confidence_z = -1", "confidence_z must be >= 0"),
    ],
    ids=[
        "int-text",
        "int-float",
        "float-text",
        "no-equals",
        "unknown-key",
        "T-range",
        "H-range",
        "nan-kappa",
        "negative-z",
    ],
)
def test_bad_config_line_names_file_and_line(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 0\nQ = 10\n# a comment\n\n" + line + "\nstep = 1\n")
    argv = ["price", "--config", str(cfg), "--u-lower", "5", "--u-upper", "6"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:5: {message}\n"


def test_config_grid_error_names_last_grid_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 0\nQ = -1\nT = 5\nstep = 1\nH = 1\n")
    argv = ["price", "--config", str(cfg), "--u-lower", "5", "--u-upper", "6"]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}:4: grid needs q < Q, got q=0.0, Q=-1.0\n"
    # a value from the command line names no line
    argv += ["--grid-step", "0", "--out-dir", str(tmp_path)]
    cfg.write_text("step = 1\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: grid step must be positive, got 0.0\n"


def test_argparse_errors_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["--help"]) == 0
    assert "price" in capsys.readouterr().out


def test_off_grid_toll_exits_2(tmp_path, capsys):
    code = main(
        [
            "nature",
            "--u-lower",
            "100",
            "--u-upper",
            "100",
            "--toll",
            "123.4",
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "not on the price grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config",
    [
        (["price", "--u-lower", "100", "--u-upper", "110"], {"kappa_bar": "nan"}),
        (
            ["nature", "--u-lower", "100", "--u-upper", "110", "--grid-step", "5", "--toll", "100"],
            {"kappa_bar": "nan"},
        ),
        (["price", "--u-lower", "100", "--u-upper", "110", "--grid-step", "inf"], {}),
        (["price", "--u-lower", "100", "--u-upper", "110"], {"Q": "inf"}),
        (["price", "--u-lower", "100", "--u-upper", "inf"], {}),
        (["nature", "--u-lower", "nan", "--u-upper", "110", "--toll", "100"], {}),
        (["simulate", "--family", "beta", "--eval-samples", "5"], {"confidence_z": "inf"}),
    ],
    ids=[
        "price-nan-kappa",
        "nature-nan-kappa",
        "price-inf-step",
        "price-inf-Q",
        "price-inf-u-upper",
        "nature-nan-u-lower",
        "simulate-inf-z",
    ],
)
def test_non_finite_input_exits_2(tmp_path, capsys, argv, config):
    cfg = write_config(tmp_path / "run.cfg", **config)
    code = main(argv + ["--config", cfg, "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["nature", "--u-lower", "100", "--u-upper", "100", "--toll", "nan"], "toll"),
        (["nature", "--u-lower", "100", "--u-upper", "110", "--toll", "inf"], "toll"),
        (["emit-mip", "--u-lower", "100", "--u-upper", "110", "--toll", "nan"], "toll"),
        (["emit-mip", "--u-lower", "100", "--u-upper", "110", "--big-m", "inf"], "big_M"),
        (["emit-mip", "--u-lower", "100", "--u-upper", "110", "--big-m", "nan"], "big_M"),
    ],
    ids=[
        "nature-nan-toll",
        "nature-inf-toll",
        "emit-mip-nan-toll",
        "emit-mip-inf-big-m",
        "emit-mip-nan-big-m",
    ],
)
def test_non_finite_toll_or_big_m_exits_2(tmp_path, capsys, argv, name):
    out = tmp_path / "out"
    code = main(argv + ["--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} must be finite"), err
    assert not (out / "model.lp").exists() and not (out / "nature.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [["nature", "--toll", "100.25"], ["price", "--method", "sweep"]],
    ids=["nature", "price-sweep"],
)
def test_near_infeasible_point_band_exits_2(tmp_path, capsys, argv):
    # kappa_bar 0 and a mean just off the 0.25 grid: no distribution fits.
    # The run ends with one error line, not a traceback from the solver.
    cfg = write_config(tmp_path / "run.cfg", q=100, Q=105.5, step=0.25, kappa_bar=0)
    mean = "100.24168104378761"
    out = tmp_path / "out"
    code = main(argv + ["--config", cfg, "--u-lower", mean, "--u-upper", mean, "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: no grid-supported distribution satisfies the moment envelope"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["nature", "--grid-step", "0.01", "--u-lower", "100", "--u-upper", "110"]
            + ["--toll", "100"],
            "an interval mean band on a grid of 20001 points needs 200010000 support pairs, "
            "over the bound of 8002000",
        ),
        (
            ["price", "--grid-step", "0.001", "--u-lower", "100", "--u-upper", "100"]
            + ["--method", "sweep"],
            "200001 tolls on a grid of 200001 points exceed the bound of 16008001 tolls x points",
        ),
        (
            ["price", "--grid-step", "0.00005", "--u-lower", "100", "--u-upper", "110"],
            "49 skip counts x 2000000 points below the mean exceed the bound of "
            "50000000 counts x points",
        ),
        # 2e11 points, 1.46 TiB as an array
        (
            ["price", "--grid-step", "1e-9", "--u-lower", "100", "--u-upper", "110"],
            "49 skip counts x 100000000000 points below the mean exceed the bound of "
            "50000000 counts x points",
        ),
        # a million points below the mean fit the table, but not the curve
        (
            ["price", "--grid-step", "1e-9", "--u-lower", "0.001", "--u-upper", "110"],
            "a two-point curve over 200000000001 grid points exceeds the bound of 8000001 points",
        ),
        (
            ["price", "--grid-step", "1e-9", "--u-lower", "100", "--u-upper", "110"]
            + ["--method", "sweep"],
            "200000000001 tolls on a grid of 200000000001 points exceed the bound of "
            "16008001 tolls x points",
        ),
        (
            ["nature", "--grid-step", "1e-9", "--u-lower", "100", "--u-upper", "110"]
            + ["--toll", "100"],
            "1 tolls on a grid of 200000000001 points exceed the bound of "
            "16008001 tolls x points",
        ),
    ],
    ids=[
        "nature-pair-table",
        "price-sweep-levels",
        "price-two-point-table",
        "price-two-point-unbuildable",
        "price-two-point-curve-unbuildable",
        "price-sweep-unbuildable",
        "nature-unbuildable",
    ],
)
def test_grid_too_fine_to_finish_exits_2(tmp_path, capsys, monkeypatch, argv, message):
    # Calls whose arrays could not be built are refused before any is, from
    # the grid's counts: one error line naming the grid's point count and
    # the bound, and no grid point built.
    def unbuilt(grid):
        raise AssertionError("a refused run built its grid's points")

    monkeypatch.setattr(PriceGrid, "points", unbuilt)
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (out / "nature.csv").exists() and not (out / "price.csv").exists()


@pytest.mark.parametrize(
    "argv", [["price"], ["price", "--method", "sweep"], ["nature", "--toll", "100"]]
)
def test_negative_grid_floor_exits_2(tmp_path, capsys, argv):
    cfg = write_config(tmp_path / "run.cfg", q=-50)
    out = tmp_path / "out"
    argv += ["--config", cfg, "--u-lower", "100", "--u-upper", "110", "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: q must be >= 0, got -50.0"]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["price", "--method", "sweep"], ["nature", "--toll", "50"], ["nature", "--toll", "50", "--objective", "an"]],
)
def test_band_below_the_zero_floor_solves_as_the_band_from_zero(tmp_path, argv):
    # no distribution on a grid from 0 has a negative mean, so a band that
    # reaches below 0 writes the artifacts of the band clipped at 0
    for lower in ("-5", "0"):
        band = ["--u-lower", lower, "--u-upper", "100", "--out-dir", str(tmp_path / lower)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # the sweep's zero-revenue fallback
            assert main(argv + band) == 0
    names = sorted(path.name for path in (tmp_path / "0").glob("*.csv"))
    assert names == sorted(path.name for path in (tmp_path / "-5").glob("*.csv"))
    for name in names:
        assert (tmp_path / "-5" / name).read_bytes() == (tmp_path / "0" / name).read_bytes()


@pytest.mark.parametrize(
    "argv, code",
    [
        (["nature", "--grid-step", "0.01", "--u-lower", "100", "--u-upper", "110", "--toll", "100"], 2),
        (["nature", "--config", "{cfg}", "--u-lower", "5.5", "--u-upper", "5.5", "--toll", "5"], 2),
        (["simulate", "--links", "0"], 2),
        # refused where the count enters, before a 2**32-row array is asked for
        (["simulate", "--eval-samples", "4294967296"], 2),
        (["real-exp", "--arcs", "{missing}", "--states", "{missing}"], 1),
    ],
    ids=["grid-too-fine", "infeasible-band", "no-links", "eval-samples-past-2**32", "missing-arcs"],
)
def test_failed_run_leaves_no_out_dir(tmp_path, capsys, argv, code):
    # the output directory is made only once the work is done
    cfg = write_config(tmp_path / "run.cfg", q=0, Q=10, kappa_bar=0)
    argv = [arg.format(cfg=cfg, missing=tmp_path / "missing.csv") for arg in argv]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "band",
    [["--u-lower", "10"], ["--u-upper", "20"], ["--u-lower", "10", "--u-upper", "20"]],
    ids=["lower", "upper", "both"],
)
@pytest.mark.parametrize(
    "command", [["price"], ["nature", "--toll", "100"], ["emit-mip"]], ids=["price", "nature", "emit-mip"]
)
def test_history_excludes_the_band_flags(tmp_path, capsys, command, band):
    # a run that took its envelope from the history would otherwise record
    # band limits in its manifest that it never used
    history = tmp_path / "history.csv"
    history.write_text(CSV_INPUTS["history"][0])
    out = tmp_path / "out"
    assert main(command + ["--history", str(history), *band, "--out-dir", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: --history excludes --u-lower and --u-upper"]
    assert not out.exists()


# Every CSV a subcommand reads: a valid text, and the column each bad value
# goes into on the file's line 3.
CSV_INPUTS = {
    "history": (
        "state,arc,cost\n" + "".join(f"{s},0,{100 + s % 2}\n" for s in range(50)),
        {"text": 2, "nan": 2, "inf": 2, "negative": 0},
    ),
    "feed": (
        f"{RECORD_HEADER}\n0,ne,30,0,0,1,1\n900,ne,40,0,0,1,1\n0,nw,35,1,0,0,1\n",
        {"text": 2, "nan": 2, "inf": 3},
    ),
    "arcs": (
        "tail,head,toll_flag,length\nO,A,1,1\nA,D,0,1\nO,B,0,1\nB,D,0,1\n",
        {"text": 3, "nan": 3, "inf": 3, "flag": 2, "negative": 3},
    ),
    "states": (
        "state,arc,cost\n"
        + "".join(f"{s},{a},{5 + s + a}\n" for s in range(6) for a in range(4)),
        {"text": 2, "nan": 2, "inf": 2, "negative": 0},
    ),
    "bounds": ("path,bound\np1,10\np2,8\np3,5\n", {"text": 1, "nan": 1, "inf": 1}),
    "incidence": (
        "path,arc,used\np1,a1,0\np1,a2,1\np2,a1,1\np3,a2,1\n",
        {"text": 2, "nan": 2, "inf": 2, "flag": 2},
    ),
}
BAD_VALUES = {"text": "abc", "nan": "nan", "inf": "inf", "flag": "7", "negative": "-3"}
# Inputs whose key columns may not repeat: the "duplicate" case copies line 2
# onto line 3.
KEYED = ("history", "states", "bounds", "incidence")
# state,arc,cost tables, whose state ids run from 0 with no gap: the "gap"
# case moves the last state up by one, so the one before it is missing.
STATE_TABLES = ("history", "states")


def csv_command(name, paths):
    network = ["real-exp", "--arcs", paths["arcs"], "--states", paths["states"], "--pairs", "1"]
    allocation = ["allocate", "--bounds", paths["bounds"], "--incidence", paths["incidence"]]
    return {
        "history": ["price", "--history", paths["history"]],
        "feed": ["ingest", "--records", paths["feed"]],
        "arcs": network,
        "states": network,
        "bounds": allocation,
        "incidence": allocation,
    }[name]


@pytest.mark.parametrize(
    "name, case",
    [
        (name, case)
        for name, (_, columns) in CSV_INPUTS.items()
        for case in ("header", "fields", *columns)
        + (("duplicate",) if name in KEYED else ())
        + (("gap",) if name in STATE_TABLES else ())
    ],
    ids=lambda value: value,
)
def test_bad_csv_input_exits_2(tmp_path, capsys, name, case):
    paths = {}
    for other, (text, _) in CSV_INPUTS.items():
        paths[other] = str(tmp_path / f"{other}.csv")
        (tmp_path / f"{other}.csv").write_text(text)
    lines = CSV_INPUTS[name][0].splitlines()
    if case == "header":
        lines[0], line = "bogus," + lines[0], 1
    elif case == "duplicate":
        lines[2], line = lines[1], 3
    elif case == "gap":
        last = lines[-1].split(",")[0]
        lines[1:] = [
            f"{int(last) + 1}{text[len(last):]}" if text.startswith(last + ",") else text
            for text in lines[1:]
        ]
        line = None
    else:
        fields, line = lines[2].split(","), 3
        if case == "fields":
            fields.pop()
        else:
            fields[CSV_INPUTS[name][1][case]] = BAD_VALUES[case]
        lines[2] = ",".join(fields)
    (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    code = main(csv_command(name, paths) + ["--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert len(err.splitlines()) == 1, err
    if line is None:
        assert err.startswith(f"error: {paths[name]}: missing a cost for state "), err
    else:
        assert err.startswith(f"error: {paths[name]}:{line}: "), err
    if case == "duplicate":
        assert err.rstrip().endswith("; first at line 2"), err


# --- nature ---------------------------------------------------------------------------


def test_nature_writes_distribution(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "nature",
            "--u-lower",
            "100",
            "--u-upper",
            "100",
            "--toll",
            "80",
            "--objective",
            "an",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    rows = read_rows(out / "nature.csv")
    assert rows[0] == ["format_version", "support", "mass"]
    masses = [float(r[2]) for r in rows[1:]]
    assert sum(masses) == pytest.approx(1.0)
    assert len(masses) <= 3
    stdout = capsys.readouterr().out
    assert "worst-case an objective" in stdout
    manifest = (out / "run_manifest.txt").read_text()
    assert "objective = an" in manifest


# --- emit-mip ----------------------------------------------------------------------------


def test_emit_mip_writes_model(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "emit-mip",
            "--u-lower",
            "100",
            "--u-upper",
            "100",
            "--toll",
            "80",
            "--epsilon",
            "0.5",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    text = (out / "model.lp").read_text()
    assert text.startswith("\\ worst-case sample model")
    assert text.rstrip().endswith("End")
    stdout = capsys.readouterr().out
    assert "rows" in stdout and "binary" in stdout
    manifest = (out / "run_manifest.txt").read_text()
    assert "epsilon = 0.5" in manifest


# --- allocate ---------------------------------------------------------------------------


def allocation_fixture(tmp_path):
    bounds = tmp_path / "bounds.csv"
    bounds.write_text("path,bound\np1,10\np2,8\np3,5\n")
    incidence = tmp_path / "incidence.csv"
    incidence.write_text(
        "path,arc,used\n"
        "p1,a1,0\np1,a2,1\np1,a3,1\n"
        "p2,a1,1\np2,a2,1\np2,a3,0\n"
        "p3,a1,1\np3,a2,0\np3,a3,0\n"
    )
    return str(bounds), str(incidence)


def test_allocate_round_trip(tmp_path, capsys):
    bounds, incidence = allocation_fixture(tmp_path)
    out = tmp_path / "out"
    code = main(
        ["allocate", "--bounds", bounds, "--incidence", incidence, "--out-dir", str(out)]
    )
    assert code == 0
    rows = read_rows(out / "tolls.csv")
    assert rows[0] == ["format_version", "arc", "toll"]
    assert [r[1:] for r in rows[1:]] == [["a1", "5"], ["a2", "0"], ["a3", "10"]]
    assert "total toll 15 across 3 arcs" in capsys.readouterr().out


@pytest.mark.parametrize(
    "bounds, incidence",
    [
        ("p1,1e6\n", "p1,a1,1\np1,a2,1\n"),
        (
            "".join(f"p{p},1000\n" for p in range(5)),
            "".join(f"p{p},a{a},{int(a in (p, p + 1))}\n" for p in range(5) for a in range(5)),
        ),
        ("p1,1e300\n", "p1,a1,1\n"),
    ],
    ids=["two-arcs", "five-bidiagonal", "1e300"],
)
def test_allocate_past_the_search_budget_exits_2(tmp_path, capsys, bounds, incidence):
    # searches that once ran for seconds, minutes or forever are refused
    # once they have visited the budget's nodes
    (tmp_path / "bounds.csv").write_text("path,bound\n" + bounds)
    (tmp_path / "incidence.csv").write_text("path,arc,used\n" + incidence)
    out = tmp_path / "out"
    argv = ["allocate", "--bounds", str(tmp_path / "bounds.csv")]
    argv += ["--incidence", str(tmp_path / "incidence.csv"), "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: allocation search passed its budget of {MAX_ALLOC_NODES} nodes; "
        "lower the path bounds or split the instance"
    ]
    assert not out.exists()


def test_allocate_names_the_line_of_a_byte_that_does_not_decode(tmp_path, capsys):
    bounds, incidence = allocation_fixture(tmp_path)
    with open(bounds, "wb") as fh:
        fh.write(b"path,bound\np1,10\np2,\xff8\np3,5\n")
    out = tmp_path / "out"
    argv = ["allocate", "--bounds", bounds, "--incidence", incidence, "--out-dir", str(out)]
    assert main(argv) == 2
    (err,) = capsys.readouterr().err.splitlines()
    assert err.startswith(f"error: {bounds}:3: ") and "can't decode byte 0xff" in err
    assert not out.exists()


def test_allocate_rejects_unknown_path(tmp_path, capsys):
    bounds = tmp_path / "bounds.csv"
    bounds.write_text("path,bound\np1,10\n")
    incidence = tmp_path / "incidence.csv"
    incidence.write_text("path,arc,used\nmystery,a1,1\n")
    code = main(
        [
            "allocate",
            "--bounds",
            str(bounds),
            "--incidence",
            str(incidence),
            "--out-dir",
            str(tmp_path),
        ]
    )
    assert code == 2
    assert "unknown path" in capsys.readouterr().err


# --- ingest + real-exp pipeline --------------------------------------------------------


def test_ingest_then_real_exp(tmp_path, capsys):
    records = crossing_feed(tmp_path / "records.csv")
    ingest_dir = tmp_path / "ingested"
    code = main(
        [
            "ingest",
            "--records",
            records,
            "--scale",
            "100",
            "--grid-step",
            "0.5",
            "--out-dir",
            str(ingest_dir),
        ]
    )
    assert code == 0
    assert (ingest_dir / "arcs.csv").exists()
    assert (ingest_dir / "states.csv").exists()
    report = (ingest_dir / "ingest_report.txt").read_text()
    assert "crossing splits: 2" in report
    assert "nodes: 5" in report
    capsys.readouterr()
    # the network and a cost history read states.csv to one matrix
    net = load_network(ingest_dir / "arcs.csv", ingest_dir / "states.csv")
    history = read_cost_history(ingest_dir / "states.csv")
    assert net.state_costs.shape == (2, 4)
    assert np.array_equal(history, net.state_costs)

    exp_dir = tmp_path / "exp"
    args = [
        "real-exp",
        "--arcs",
        str(ingest_dir / "arcs.csv"),
        "--states",
        str(ingest_dir / "states.csv"),
        "--pairs",
        "6",
        "--seed",
        "3",
        "--out-dir",
        str(exp_dir),
    ]
    assert main(args) == 0
    rows = read_rows(exp_dir / "real_regret.csv")
    assert rows[0][:3] == ["format_version", "method", "avg_regret_pct"]
    assert {rows[1][1], rows[2][1]} == {"robust", "mean-toll"}
    assert (exp_dir / "toll_ratio.csv").exists()
    assert "average regret over" in capsys.readouterr().out

    rerun_dir = tmp_path / "exp2"
    rerun = args[:-1] + [str(rerun_dir)]
    assert main(rerun) == 0
    for name in ("real_regret.csv", "toll_ratio.csv"):
        assert (exp_dir / name).read_bytes() == (rerun_dir / name).read_bytes()


def test_ingest_report_counts_dropped_duplicates(tmp_path, capsys):
    records = tmp_path / "records.csv"
    crossing_feed(records)
    records.write_text(records.read_text() + "900,nw,25,1,0,0,1\n")  # repeats the last key
    out = tmp_path / "out"
    assert main(["ingest", "--records", str(records), "--out-dir", str(out)]) == 0
    report = (out / "ingest_report.txt").read_text()
    assert "records: 4\n" in report
    assert "duplicate records (last kept): 1\n" in report
    assert capsys.readouterr().err == "warning: 1 duplicate (segment, timestamp) records; kept last\n"


def test_ingest_endpoints_are_nodes_on_arcs(tmp_path, capsys):
    # Segment a is shorter than the merge tolerance: its arc is dropped, and
    # its node, the last by coordinates, is on no arc.
    records = tmp_path / "records.csv"
    records.write_text(f"{RECORD_HEADER}\n0,b,30,0,0,1,0\n0,a,30,5,5,5.00002,5\n")
    out = tmp_path / "out"
    assert main(["ingest", "--records", str(records), "--out-dir", str(out)]) == 0
    assert (out / "arcs.csv").read_text() == "tail,head,toll_flag,length\nn0,n1,0,1\n"
    assert "nodes: 3\n" in (out / "ingest_report.txt").read_text()
    assert capsys.readouterr().err == "warning: 1 zero-length arcs dropped after merging\n"


def test_library_warnings_print_as_one_line_each(tmp_path, capsys):
    # Each library UserWarning reaches stderr as one "warning: " line, as
    # errors do, with no source file or line of tollkit's own.  A history
    # with half its costs past Q names its file; the sweep on a band that
    # reaches 0 falls back to the grid floor; at seed 7 three families'
    # averaged tolls regret more than their histories' average.
    history = tmp_path / "h.csv"
    history.write_text("state,arc,cost\n" + "".join(f"{s},0,{150 + 100 * (s % 2)}\n" for s in range(50)))
    assert main(["price", "--history", str(history), "--out-dir", str(tmp_path / "price")]) == 0
    assert capsys.readouterr().err == (
        f"warning: {history}: clamped 25/50 history costs (50.0%) into [0.0, 200.0]\n"
    )
    sweep = ["price", "--method", "sweep", "--u-lower", "0", "--u-upper", "100"]
    assert main(sweep + ["--out-dir", str(tmp_path / "sweep")]) == 0
    assert capsys.readouterr().err == (
        "warning: no toll sustains positive worst-case usage revenue; falling back to the grid floor\n"
    )
    argv = ["simulate", "--family", "all", "--links", "2", "--history-samples", "3"]
    assert main(argv + ["--eval-samples", "12", "--seed", "7", "--out-dir", str(tmp_path / "sim")]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split("%")[0] for line in lines] == [
        "warning: beta: averaged-toll regret 5.777",
        "warning: gamma: averaged-toll regret 17.799",
        "warning: lognormal: averaged-toll regret 9.020",
    ]
    assert all(line.endswith("(an empirical regularity, not a guarantee)") for line in lines)


def test_library_callers_keep_their_warnings(tmp_path):
    # Only the CLI prints warnings as lines: a library call still raises a
    # UserWarning, and after a CLI run Python's own display is back.
    history = tmp_path / "h.csv"
    history.write_text("state,arc,cost\n" + "".join(f"{s},0,250\n" for s in range(50)))
    shown = warnings.showwarning
    assert main(["price", "--history", str(history), "--out-dir", str(tmp_path / "price")]) == 0
    assert warnings.showwarning is shown
    with pytest.warns(UserWarning, match=rf"^{re.escape(str(history))}: clamped 50/50 history costs"):
        read_cost_history(str(history), PriceGrid(0.0, 200.0, 1.0), 50)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--bucket-minutes", "0", "bucket_minutes must be at least 1, got 0"),
        ("--bucket-minutes", "-15", "bucket_minutes must be at least 1, got -15"),
        ("--scale", "inf", "scale must be finite, got inf"),
        ("--scale", "0", "scale must be positive, got 0.0"),
        ("--merge-tol", "nan", "merge_tolerance must be finite, got nan"),
        ("--crossing-tol", "inf", "crossing_tolerance must be finite, got inf"),
    ],
)
def test_ingest_bad_options_exit_2(tmp_path, capsys, flag, value, message):
    records = crossing_feed(tmp_path / "records.csv")
    out = tmp_path / "out"
    argv = ["ingest", "--records", records, flag, value, "--out-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (out / "arcs.csv").exists()


def test_real_exp_negative_cycle_exits_2(tmp_path, capsys):
    # real-exp searches undirected, so the arc a-d of cost -1e-9 in state 0
    # would be a negative cycle; the network refuses the cost where it is
    # built, before any pair is drawn, and the run writes nothing.
    arcs = tmp_path / "arcs.csv"
    arcs.write_text("tail,head,toll_flag,length\na,b,0,1\nb,c,1,1\nc,d,0,1\na,d,0,1\n")
    states = tmp_path / "states.csv"
    costs = ((1, 2, 1, -1e-9), (1, 1, 1, 1))
    states.write_text(
        "state,arc,cost\n"
        + "".join(f"{s},{a},{c}\n" for s, row in enumerate(costs) for a, c in enumerate(row))
    )
    out = tmp_path / "out"
    for pairs in ("1", "2", "6"):
        argv = ["real-exp", "--arcs", str(arcs), "--states", str(states), "--pairs", pairs]
        assert main(argv + ["--out-dir", str(out)]) == 2, pairs
        assert capsys.readouterr().err.splitlines() == [
            "error: state 0, arc 3 ('a'-'d'): cost -1e-09 must be finite and non-negative"
        ], pairs
        assert not out.exists()


def test_real_exp_needs_two_nodes_to_default_an_endpoint(tmp_path, capsys):
    arcs = tmp_path / "arcs.csv"
    arcs.write_text("tail,head,toll_flag,length\na,a,0,1\n")
    states = tmp_path / "states.csv"
    states.write_text("state,arc,cost\n0,0,1\n")
    argv = ["real-exp", "--arcs", str(arcs), "--states", str(states), "--pairs", "1"]
    for endpoints in ([], ["--origin", "a"], ["--destination", ""]):
        assert main(argv + endpoints + ["--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {arcs}: fewer than two nodes\n"
        assert not (tmp_path / "out" / "real_regret.csv").exists()


def test_real_exp_endpoints_must_be_nodes_of_the_arcs_file(tmp_path, capsys):
    arcs = tmp_path / "arcs.csv"
    arcs.write_text("tail,head,toll_flag,length\na,b,0,1\nb,c,1,1\nc,d,0,1\na,d,0,1\n")
    states = tmp_path / "states.csv"
    states.write_text(
        "state,arc,cost\n" + "".join(f"{s},{a},1\n" for s in range(2) for a in range(4))
    )
    argv = ["real-exp", "--arcs", str(arcs), "--states", str(states), "--pairs", "2"]
    out = tmp_path / "out"
    for endpoints, message in (
        (["--origin", "nowhere", "--destination", "alsonowhere"], "origin 'nowhere'"),
        (["--destination", "alsonowhere"], "destination 'alsonowhere'"),
        (["--origin", "", "--destination", "e"], "destination 'e'"),
    ):
        assert main(argv + endpoints + ["--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {arcs}: {message} is not a node of the arcs file\n"
        assert not (out / "real_regret.csv").exists()
    # a history cut of 0 is refused like any other outside the 2 states
    for cut in ("0", "-1", "3"):
        assert main(argv + ["--history-cut", cut, "--out-dir", str(out)]) == 2, cut
        err = capsys.readouterr().err
        assert err == f"error: history cut {cut} outside the 2 available states\n"
        assert not (out / "real_regret.csv").exists()
    # an empty endpoint takes its default, whether or not the other is given
    assert main(argv + ["--origin", "", "--destination", "c", "--out-dir", str(out)]) == 0
    assert "origin = a\ndestination = c\n" in (out / "run_manifest.txt").read_text()


# --- simulate -----------------------------------------------------------------------------


def test_simulate_single_family(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--family",
            "normal",
            "--links",
            "2",
            "--history-samples",
            "2",
            "--eval-samples",
            "10",
            "--seed",
            "5",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    rows = read_rows(out / "regret_summary.csv")
    assert rows[0][0] == "format_version"
    assert rows[1][1] == "normal"
    assert math.isfinite(float(rows[1][2]))
    assert (out / "cumulative_regret.csv").exists()  # single concrete family
    stdout = capsys.readouterr().out
    assert "normal: avg regret" in stdout
    manifest = (out / "run_manifest.txt").read_text()
    assert "eval_samples = 10" in manifest


def test_simulate_mixed_has_no_dynamic_series(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "simulate",
            "--family",
            "mixed",
            "--links",
            "2",
            "--history-samples",
            "2",
            "--eval-samples",
            "5",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    rows = read_rows(out / "regret_summary.csv")
    assert rows[1][1] == "mixed"
    assert not (out / "cumulative_regret.csv").exists()


# --- artifact bytes ------------------------------------------------------------------------

# Every CSV artifact is a header line and one line per row, each led by a
# format_version column of 1, with floats at 12 significant digits and CRLF
# line ends.  The expected rows are built from what the library returns.
# Tolls on this grid carry 12 significant digits, so a float written at any
# other precision shows.
FINE_GRID = {"q": 0.1234567891, "Q": 200.1234567891, "step": 1}
FINE_BAND = (90.1234567891, 110.1234567891)


def artifact(header, rows):
    """The exact bytes of a CSV artifact with ``header`` and ``rows``."""
    lines = [["format_version", *header]] + [
        ["1", *("%.12g" % v if isinstance(v, float) else str(v) for v in row)] for row in rows
    ]
    return "".join(",".join(line) + "\r\n" for line in lines).encode()


@pytest.mark.parametrize(
    "band", [FINE_BAND, (100.1234567891, 100.1234567891)], ids=["interval", "point"]
)
@pytest.mark.parametrize(
    "method, search", [("two-point", two_point_robust_toll), ("sweep", epsilon_sweep_robust_toll)]
)
def test_price_artifact_bytes(tmp_path, capsys, band, method, search):
    cfg = RunConfig(**FINE_GRID)
    argv = ["price", "--config", write_config(tmp_path / "run.cfg", **FINE_GRID)]
    argv += ["--u-lower", repr(band[0]), "--u-upper", repr(band[1]), "--method", method]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    result = search(cfg.grid(), MomentEnvelope(*band, cfg.kappa_bar), cfg.T)
    usage = round(result.epsilon * cfg.T)
    assert (tmp_path / "out" / "price.csv").read_bytes() == artifact(
        ["toll", "usage_count", "worst_case_revenue", "method"],
        [(result.toll, usage, result.toll * usage, result.method)],
    )
    assert (tmp_path / "out" / "br_curve.csv").read_bytes() == artifact(
        ["toll", "worst_case_revenue"], sorted(result.br_curve.items())
    )
    capsys.readouterr()


def test_price_quotes_a_whole_usage_count(tmp_path, capsys):
    # the chosen toll sustains 39 of 50 periods in the worst case
    cfg = write_config(tmp_path / "run.cfg", Q=1000, step=10, kappa_bar=60)
    argv = ["price", "--config", cfg, "--u-lower", "500", "--u-upper", "500"]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "price.csv").read_bytes() == (
        b"format_version,toll,usage_count,worst_case_revenue,method\r\n"
        b"1,400,39,15600,two-point\r\n"
    )
    assert capsys.readouterr().out == "toll 400: usage 39/50 periods, worst-case revenue 15600\n"


@pytest.mark.parametrize("objective, solver", [("ufn", solve_nature_ufn), ("an", solve_nature_an)])
def test_nature_artifact_bytes(tmp_path, capsys, objective, solver):
    cfg = RunConfig(**FINE_GRID)
    argv = ["nature", "--config", write_config(tmp_path / "run.cfg", **FINE_GRID)]
    argv += ["--u-lower", repr(FINE_BAND[0]), "--u-upper", repr(FINE_BAND[1])]
    argv += ["--toll", "95.1234567891", "--objective", objective]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    env = MomentEnvelope(*FINE_BAND, cfg.kappa_bar)
    dist = solver(cfg.grid(), env, 95.1234567891).distribution
    assert (tmp_path / "out" / "nature.csv").read_bytes() == artifact(
        ["support", "mass"], zip(dist.support, dist.mass)
    )
    capsys.readouterr()


def test_allocate_artifact_bytes(tmp_path, capsys):
    bounds, incidence = allocation_fixture(tmp_path)
    argv = ["allocate", "--bounds", bounds, "--incidence", incidence]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "tolls.csv").read_bytes() == (
        b"format_version,arc,toll\r\n1,a1,5\r\n1,a2,0\r\n1,a3,10\r\n"
    )
    capsys.readouterr()


@pytest.mark.parametrize("family", ["gamma", "all"])
def test_simulate_artifact_bytes(tmp_path, capsys, family):
    argv = ["simulate", "--family", family, "--links", "2", "--history-samples", "3"]
    argv += ["--eval-samples", "12", "--seed", "5", "--out-dir", str(tmp_path / "out")]
    assert main(argv) == 0
    cfg = RunConfig(seed=5)
    ecfg = ExperimentConfig(
        links=2,
        T=cfg.T,
        H=cfg.H,
        kappa_bar=cfg.kappa_bar,
        history_samples=3,
        eval_samples=12,
        seed=cfg.seed,
        grid=cfg.grid(),
        confidence_z=cfg.confidence_z,
    )
    families = FAMILIES if family == "all" else (family,)
    rows = [run_fixed_distribution_experiment(ecfg, family_spec(f, ecfg.grid)) for f in families]
    if family == "all":
        rows.append(run_mixed_distribution_experiment(ecfg))
    assert (tmp_path / "out" / "regret_summary.csv").read_bytes() == artifact(
        [
            "family",
            "avg_regret_pct",
            "stdev_regret_pct",
            "toll_stdev",
            "avg_toll_regret_pct",
            "avg_toll_stdev_pct",
        ],
        [
            (
                row.family,
                row.average_pct,
                row.stdev_pct,
                row.toll_stdev,
                row.averaged_toll_pct,
                row.averaged_toll_stdev_pct,
            )
            for row in rows
        ],
    )
    series = tmp_path / "out" / "cumulative_regret.csv"
    if family == "all":
        assert not series.exists()
    else:
        expected = run_dynamic_cumulative_regret(ecfg, family_spec(family, ecfg.grid))
        assert series.read_bytes() == artifact(
            ["period", "cum_regret_pct"], enumerate(expected.tolist(), start=1)
        )
    capsys.readouterr()


def test_real_exp_artifact_bytes(tmp_path, capsys):
    arcs = tmp_path / "arcs.csv"
    arcs.write_text("tail,head,toll_flag,length\na,b,0,1\nb,c,1,1\nc,d,0,1\na,d,0,1\nb,d,0,1\n")
    states = tmp_path / "states.csv"
    states.write_text(
        "state,arc,cost\n"
        + "".join(f"{s},{a},{20 + 9 * math.sin(s + 2 * a)!r}\n" for s in range(20) for a in range(5))
    )
    argv = ["real-exp", "--arcs", str(arcs), "--states", str(states), "--pairs", "6"]
    assert main(argv + ["--seed", "3", "--out-dir", str(tmp_path / "out")]) == 0
    cfg = RunConfig(seed=3)
    result = run_real_data_experiment(
        load_network(arcs, states),
        6,
        16,
        grid=cfg.grid(),
        T=cfg.T,
        kappa_bar=cfg.kappa_bar,
        confidence_z=cfg.confidence_z,
        seed=cfg.seed,
    )
    assert (tmp_path / "out" / "real_regret.csv").read_bytes() == artifact(
        ["method", "avg_regret_pct", "stdev_regret_pct", "pairs_used", "pairs_skipped"],
        [
            (
                "robust",
                result.robust_avg_pct,
                result.robust_stdev_pct,
                result.n_pairs_used,
                result.n_skipped,
            ),
            (
                "mean-toll",
                result.mean_toll_avg_pct,
                result.mean_toll_stdev_pct,
                result.n_pairs_used,
                result.n_skipped,
            ),
        ],
    )
    assert (tmp_path / "out" / "toll_ratio.csv").read_bytes() == artifact(
        ["pair", "ratio"], enumerate(result.toll_ratios, start=1)
    )
    capsys.readouterr()


# --- output directory resolution -------------------------------------------------------------


def test_out_dir_env_override(tmp_path, monkeypatch):
    env_dir = tmp_path / "from-env"
    monkeypatch.setenv("TOLLKIT_OUT_DIR", str(env_dir))
    code = main(["price", "--u-lower", "50", "--u-upper", "60"])
    assert code == 0
    assert (env_dir / "price.csv").exists()

    flag_dir = tmp_path / "from-flag"
    code = main(
        ["price", "--u-lower", "50", "--u-upper", "60", "--out-dir", str(flag_dir)]
    )
    assert code == 0
    assert (flag_dir / "price.csv").exists()  # explicit flag beats the env var


# --- the import contract ------------------------------------------------------------

# Library names a tracer replaces on ``tollkit.cli`` with ``setattr``; the
# subcommands must call whatever object the name holds.
TRACED_NAMES = (
    "parse_traffic_records",
    "ingest_to_network",
    "write_network",
    "load_network",
    "two_point_robust_toll",
    "epsilon_sweep_robust_toll",
    "solve_nature_ufn",
    "solve_nature_an",
    "emit_nature_miqp",
    "allocate_arc_tolls",
    "run_real_data_experiment",
    "estimate_moment_envelope",
)


def test_traced_names_resolve_to_the_library_objects():
    for name in TRACED_NAMES:
        obj = getattr(cli, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cli.no_such_name


def test_every_handler_name_is_a_package_export():
    # Every ``_this.<name>`` a handler calls resolves through the package's
    # export table to the object its module defines; a missing entry would
    # otherwise fail only when its subcommand runs.
    tree = ast.parse(inspect.getsource(cli))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "_this"
    }
    assert len(names) > 10
    for name in sorted(names):
        assert name in tollkit._EXPORTS, name
        obj = getattr(cli, name)
        module = sys.modules[f"tollkit.{tollkit._EXPORTS[name]}"]
        assert obj is getattr(module, name) and obj.__module__ == module.__name__, name


@pytest.mark.parametrize(
    "command, names",
    [
        ("ingest", ("parse_traffic_records", "ingest_to_network", "write_network")),
        ("nature", ("solve_nature_ufn",)),
        ("allocate", ("allocate_arc_tolls",)),
    ],
)
def test_subcommands_call_the_names_set_on_the_module(
    tmp_path, monkeypatch, capsys, command, names
):
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    bounds, incidence = allocation_fixture(tmp_path)
    argv = {
        "ingest": ["ingest", "--records", crossing_feed(tmp_path / "records.csv")],
        "nature": ["nature", "--u-lower", "100", "--u-upper", "100", "--toll", "80"],
        "allocate": ["allocate", "--bounds", bounds, "--incidence", incidence],
    }[command]
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    assert calls == dict.fromkeys(names, 1)
    capsys.readouterr()


# Runs one subcommand and prints the tollkit modules it loaded, last.
# The tollkit modules a process loaded, and ``numpy`` and ``numpy.random``
# when it loaded them.
FOOTPRINT = """
import sys
if sys.argv[1] == "import":
    __import__(sys.argv[2])
    code = None
else:
    from tollkit.cli import main
    code = main(sys.argv[2:]) if len(sys.argv) > 2 else None
shown = ("numpy", "numpy.random")
print(code, *sorted(m for m in sys.modules if m.startswith("tollkit.") or m in shown))
"""


def loaded_modules(tmp_path, argv, module=None):
    """Run ``argv`` through the CLI in a new process; no ``argv`` only
    imports ``tollkit.cli``, and ``module`` imports that module instead."""
    src = os.path.dirname(os.path.dirname(tollkit.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    if argv:
        argv = [*argv, "--out-dir", str(tmp_path / "out")]
    argv = ["import", module] if module else ["cli", *argv]
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    code, *modules = done.stdout.splitlines()[-1].split()
    return None if code == "None" else int(code), {m.removeprefix("tollkit.") for m in modules}


def test_each_subcommand_imports_only_what_it_uses(tmp_path):
    # numpy.random loads only in the runs that draw (numpy before 2.0 loads
    # it with numpy itself)
    random = loaded_modules(tmp_path, [], module="numpy")[1] - {"numpy"}
    bounds, incidence = allocation_fixture(tmp_path)
    code, modules = loaded_modules(
        tmp_path, ["allocate", "--bounds", bounds, "--incidence", incidence]
    )
    assert (code, modules) == (0, {"cli", "config", "core", "allocation"})
    code, modules = loaded_modules(
        tmp_path, ["nature", "--u-lower", "100", "--u-upper", "100", "--toll", "80"]
    )
    assert (code, modules) == (0, {"cli", "config", "core", "lp", "nature", "numpy"} | random)
    code, modules = loaded_modules(tmp_path, ["price", "--u-lower", "100", "--u-upper", "110"])
    assert (code, modules) == (
        0,
        {"cli", "config", "core", "lp", "nature", "pricing", "numpy"} | random,
    )
    code, modules = loaded_modules(
        tmp_path, ["ingest", "--records", crossing_feed(tmp_path / "records.csv")]
    )
    assert (code, modules) == (0, {"cli", "config", "core", "ingest", "network", "numpy"} | random)
    drawing = {"experiments", "lp", "nature", "network", "pricing", "numpy", "numpy.random"}
    code, modules = loaded_modules(
        tmp_path,
        ["real-exp", "--arcs", str(tmp_path / "out" / "arcs.csv"), "--pairs", "2"]
        + ["--states", str(tmp_path / "out" / "states.csv")],
    )
    assert (code, modules) == (0, {"cli", "config", "core"} | drawing)
    code, modules = loaded_modules(
        tmp_path, ["simulate", "--history-samples", "2", "--eval-samples", "5"]
    )
    assert (code, modules) == (0, {"cli", "config", "core"} | drawing)
    # the experiment drivers load numpy.random on their first draw
    assert loaded_modules(tmp_path, [], module="tollkit.experiments") == (
        None,
        {"core", "experiments", "lp", "nature", "network", "pricing", "numpy"} | random,
    )
    # Processes that compute with no array load no numpy.
    assert loaded_modules(tmp_path, []) == (None, {"cli", "config", "core"})
    assert loaded_modules(tmp_path, ["--help"]) == (0, {"cli", "config", "core"})
    code, modules = loaded_modules(
        tmp_path,
        ["emit-mip", "--u-lower", "100", "--u-upper", "110", "--toll", "80", "--epsilon", "0.5"],
    )
    assert (code, modules) == (0, {"cli", "config", "core", "miqp"})
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("kappa_bar = nan\n")
    code, modules = loaded_modules(
        tmp_path, ["price", "--config", str(cfg), "--u-lower", "100", "--u-upper", "110"]
    )
    assert (code, modules) == (2, {"cli", "config", "core"})
    code, modules = loaded_modules(
        tmp_path,
        ["nature", "--config", str(cfg), "--u-lower", "100", "--u-upper", "110", "--toll", "100"],
    )
    assert (code, modules) == (2, {"cli", "config", "core"})


def test_package_exports_are_the_submodule_objects():
    for name in tollkit.__all__:
        if name == "__version__":
            continue
        obj = getattr(tollkit, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("tollkit.") and getattr(module, name) is obj, name
    assert len(set(tollkit.__all__)) == len(tollkit.__all__)
    with pytest.raises(AttributeError, match="no attribute 'relative_regret'"):
        tollkit.relative_regret
    with pytest.raises(AttributeError, match="no attribute 'brute_force_nature'"):
        tollkit.brute_force_nature
    with pytest.raises(AttributeError, match="no attribute 'deterministic_toll'"):
        tollkit.deterministic_toll
    with pytest.raises(AttributeError, match="no attribute 'write_config'"):
        tollkit.write_config
