"""Command-line interface: artifacts, manifests, exit codes, reruns."""

from __future__ import annotations

import csv
import math
import os

import pytest

from tollkit.cli import main
from tollkit.ingest import RECORD_HEADER

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


def test_price_from_history_csv(tmp_path):
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


# Every CSV a subcommand reads: a valid text, and the column each bad value
# goes into on the file's line 3.
CSV_INPUTS = {
    "history": (
        "state,arc,cost\n" + "".join(f"{s},0,{100 + s % 2}\n" for s in range(50)),
        {"text": 2, "nan": 2, "inf": 2},
    ),
    "feed": (
        f"{RECORD_HEADER}\n0,ne,30,0,0,1,1\n900,ne,40,0,0,1,1\n0,nw,35,1,0,0,1\n",
        {"text": 2, "nan": 2, "inf": 3},
    ),
    "arcs": (
        "tail,head,toll_flag,length\nO,A,1,1\nA,D,0,1\nO,B,0,1\nB,D,0,1\n",
        {"text": 3, "nan": 3, "inf": 3, "flag": 2},
    ),
    "states": (
        "state,arc,cost\n"
        + "".join(f"{s},{a},{5 + s + a}\n" for s in range(6) for a in range(4)),
        {"text": 2, "nan": 2, "inf": 2},
    ),
    "bounds": ("path,bound\np1,10\np2,8\np3,5\n", {"text": 1, "nan": 1, "inf": 1}),
    "incidence": (
        "path,arc,used\np1,a1,0\np1,a2,1\np2,a1,1\np3,a2,1\n",
        {"text": 2, "nan": 2, "inf": 2, "flag": 2},
    ),
}
BAD_VALUES = {"text": "abc", "nan": "nan", "inf": "inf", "flag": "7"}
# Inputs whose key columns may not repeat: the "duplicate" case copies line 2
# onto line 3.
KEYED = ("history", "states", "bounds", "incidence")


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
        for case in ("header", "fields", *columns) + (("duplicate",) if name in KEYED else ())
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
    with pytest.warns(UserWarning, match="1 duplicate"):
        assert main(["ingest", "--records", str(records), "--out-dir", str(out)]) == 0
    report = (out / "ingest_report.txt").read_text()
    assert "records: 4\n" in report
    assert "duplicate records (last kept): 1\n" in report
    capsys.readouterr()


def test_real_exp_negative_cycle_exits_2(tmp_path, capsys):
    # real-exp searches undirected, so the arc a-d of cost -1e-9 in state 0
    # is a negative cycle, whichever pairs are drawn.
    arcs = tmp_path / "arcs.csv"
    arcs.write_text("tail,head,toll_flag,length\na,b,0,1\nb,c,1,1\nc,d,0,1\na,d,0,1\n")
    states = tmp_path / "states.csv"
    costs = ((1, 2, 1, -1e-9), (1, 1, 1, 1))
    states.write_text(
        "state,arc,cost\n"
        + "".join(f"{s},{a},{c}\n" for s, row in enumerate(costs) for a, c in enumerate(row))
    )
    for pairs in ("1", "2", "6"):
        argv = ["real-exp", "--arcs", str(arcs), "--states", str(states), "--pairs", pairs]
        assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 2, pairs
        err = capsys.readouterr().err
        assert "state 0: a negative-cost cycle: arc 3 ('a'-'d')" in err, pairs
        assert not (tmp_path / "out" / "real_regret.csv").exists()


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
