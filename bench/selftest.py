"""Shows that every output check in checks.py can fail.

    python3 bench/selftest.py

Each case takes a real answer from the program, confirms that the check
accepts it, then perturbs it (a shifted toll, a nudged objective, one
cost changed, ...) and confirms that the check rejects it.  Exits 1 if any
check accepts a perturbed answer or rejects a real one.
"""

from __future__ import annotations

import io
import os
import shutil
import sys
from contextlib import redirect_stdout
from dataclasses import replace

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from checks import CheckFailed, Grid  # noqa: E402
from tollkit import (  # noqa: E402
    ExperimentConfig,
    MomentEnvelope,
    PriceGrid,
    family_spec,
    run_fixed_distribution_experiment,
    run_mixed_distribution_experiment,
)
from tollkit.cli import main as cli_main  # noqa: E402
from tollkit.nature import solve_nature_ufn  # noqa: E402
from tollkit.network import allocate_arc_tolls  # noqa: E402
from tollkit.pricing import (  # noqa: E402
    emit_nature_miqp,
    epsilon_sweep_robust_toll,
    two_point_robust_toll,
)

failures: list[str] = []


def case(label: str, check, good: tuple, bad: tuple) -> None:
    try:
        check(*good)
    except CheckFailed as exc:
        failures.append(f"{label}: real answer rejected: {exc}")
        print(f"FAIL {label}: real answer rejected: {exc}")
        return
    try:
        check(*bad)
    except CheckFailed as exc:
        print(f"ok   {label}: perturbed answer rejected ({exc})")
        return
    failures.append(f"{label}: perturbed answer accepted")
    print(f"FAIL {label}: perturbed answer accepted")


def main() -> int:
    seed = 11
    work = os.path.join(BENCH, "_work", f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        run_cases(seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} problem(s)")
    return 1 if failures else 0


def run_cases(seed: int, work: str) -> None:
    T = 50
    # -- sweep tolls: a shifted toll ------------------------------------------------
    grid, pg = Grid(0.0, 200.0, 4.0), PriceGrid(0.0, 200.0, 4.0)
    band = gen.interval_bands(seed, 0, 1)[0]
    res = epsilon_sweep_robust_toll(pg, MomentEnvelope(*band), T)
    case(
        "sweep toll",
        checks.check_sweep_result,
        (T, res.toll, res.epsilon, res.br_curve),
        (T, res.toll + grid.step, res.epsilon, res.br_curve),
    )
    bad_curve = dict(res.br_curve)
    bad_curve[res.toll] += 0.5 * res.toll
    case(
        "sweep curve value",
        checks.check_sweep_result,
        (T, res.toll, res.epsilon, res.br_curve),
        (T, res.toll, res.epsilon, bad_curve),
    )
    # the curve rebuilt from a solve at every toll: a walk that stops one
    # step early at the chosen toll, or picks a neighbouring toll
    points = grid.points()
    env = MomentEnvelope(*band)
    usage = []
    for r in points.tolist():
        dist = solve_nature_ufn(pg, env, r).distribution
        usage.append(checks.usage_probability(dist.support, dist.mass, r))
    early = dict(res.br_curve)
    low = res.toll - grid.step
    early[low] = max(early.get(low, 0.0), early.pop(res.toll) * low / res.toll)
    exact = (points, usage, T, res.toll, res.epsilon, res.br_curve)
    case("sweep rebuilt curve", checks.check_sweep_exact, exact,
         (points, usage, T, res.toll, res.epsilon, early))
    case("sweep rebuilt toll", checks.check_sweep_exact, exact,
         (points, usage, T, res.toll - grid.step, res.epsilon, res.br_curve))

    # -- nature: a nudged objective, moved mass ------------------------------------
    for label, g, pgrid, b in (
        ("interval", grid, pg, band),
        ("point", Grid(0.0, 200.0, 1.0), PriceGrid(0.0, 200.0, 1.0), gen.point_bands(seed, 0, 1)[0]),
    ):
        r = gen.sample_tolls(seed, 0, g.points(), 1)[0]
        sol = solve_nature_ufn(pgrid, MomentEnvelope(*b), r)
        support, mass = sol.distribution.support, sol.distribution.mass
        value = checks.check_distribution(g, b, r, support, mass)
        case(f"nature {label} optimum", checks.check_nature_optimal, (g, b, r, value), (g, b, r, value + 1e-3))
        case(
            f"nature {label} objective",
            checks.check_distribution,
            (g, b, r, support, mass, sol.objective_value),
            (g, b, r, support, mass, sol.objective_value + 1e-3),
        )
        moved = np.array(mass, dtype=float)
        moved[0] -= 0.01  # toward the top point: the mean or the variance grows
        moved[-1] += 0.01
        case(
            f"nature {label} feasibility",
            checks.check_distribution,
            (g, b, r, support, mass),
            (g, b, r, support, moved),
        )

    # -- two-point tolls: a shifted toll, one curve value changed ----------------
    g1, pg1 = Grid(0.0, 200.0, 1.0), PriceGrid(0.0, 200.0, 1.0)
    for b in gen.two_point_bands(seed, 2):
        res = two_point_robust_toll(pg1, MomentEnvelope(*b), T)
        case("two-point toll", checks.check_two_point, (g1, b, T, res.toll, res.br_curve),
             (g1, b, T, res.toll + 1.0, res.br_curve))
        curve = dict(res.br_curve)
        curve[res.toll] -= res.toll
        case("two-point curve", checks.check_two_point, (g1, b, T, res.toll, res.br_curve),
             (g1, b, T, res.toll, curve))

    # -- regret rows --------------------------------------------------------------
    case("regret range", checks.check_regret_values, ("row", [0.0, 12.5, 100.0]), ("row", [0.0, 100.5]))
    cfg = ExperimentConfig(links=5, T=T, history_samples=5, eval_samples=50, seed=seed)
    fixed = run_fixed_distribution_experiment(cfg, family_spec("gamma", cfg.grid))
    pinned = run_mixed_distribution_experiment(cfg, ["gamma"])
    case("mixed identity", checks.check_mixed_identity, (pinned, fixed),
         (pinned, replace(fixed, stdev_pct=fixed.stdev_pct + 0.01)))

    # -- ingest: the report, one cost changed -------------------------------------
    feed = os.path.join(work, "feed.csv")
    lattice = gen.write_lattice_feed(seed, feed)
    out = os.path.join(work, "ingest")
    with redirect_stdout(io.StringIO()):
        code = cli_main(["ingest", "--records", feed, "--scale", f"{gen.FEED_SCALE:g}",
                         "--grid-step", "0.5", "--out-dir", out])
    if code != 0:
        failures.append(f"ingest exited {code}")
        return
    report = {}
    with open(os.path.join(out, "ingest_report.txt")) as fh:
        for line in fh:
            key, _, value = line.partition(":")
            report[key.strip()] = int(value)
    k = gen.LATTICE_BLOCKS
    case("ingest report", checks.check_ingest, (lattice, k, report), (lattice, k, dict(report, nodes=report["nodes"] - 1)))
    with open(os.path.join(out, "arcs.csv")) as fh:
        lengths = [float(line.split(",")[3]) for line in fh.read().splitlines()[1:]]
    with open(os.path.join(out, "states.csv")) as fh:
        costs = {
            (int(s), int(a)): float(c)
            for s, a, c in (line.split(",") for line in fh.read().splitlines()[1:])
        }
    cells = [(s, (7 * s) % len(lengths)) for s in range(0, 96, 3)]
    changed = dict(costs)
    changed[cells[5]] += 0.5
    ig = Grid(0.0, 200.0, 0.5)
    case("state costs", checks.check_states_sample,
         (lattice, ig, gen.FEED_SCALE, lengths, costs, cells),
         (lattice, ig, gen.FEED_SCALE, lengths, changed, cells))
    stretched = list(lengths)
    stretched[3] *= 1.001
    case("arc lengths", checks.check_states_sample,
         (lattice, ig, gen.FEED_SCALE, lengths, costs, cells),
         (lattice, ig, gen.FEED_SCALE, stretched, costs, cells))

    # -- real-exp: one pairs count changed ---------------------------------------
    real = os.path.join(work, "real")
    with redirect_stdout(io.StringIO()):
        code = cli_main(["real-exp", "--arcs", os.path.join(out, "arcs.csv"), "--states",
                         os.path.join(out, "states.csv"), "--pairs", "3", "--seed", "0", "--out-dir", real])
    if code != 0:
        failures.append(f"real-exp exited {code}")
        return
    with open(os.path.join(real, "real_regret.csv")) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    skipped = [list(row) for row in rows]
    skipped[1][5] = str(int(skipped[1][5]) + 1)
    case("real-exp pairs", checks.check_real_rows, (rows, 3), (skipped, 3))

    # -- reruns: one artifact byte changed ------------------------------------------
    same, changed_tree = os.path.join(work, "same"), os.path.join(work, "changed")
    shutil.copytree(out, same)
    shutil.copytree(out, changed_tree)
    with open(os.path.join(changed_tree, "arcs.csv"), "r+b") as fh:
        fh.seek(-2, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-2, os.SEEK_END)
        fh.write(b"1" if last != b"1" else b"2")
    case("artifact reruns", checks.check_same_files, (out, [same], 3), (out, [same, changed_tree], 3))

    # -- model.lp: one row dropped ------------------------------------------------
    _, text = emit_nature_miqp(pg1, MomentEnvelope(100.0, 110.0, 1.0), T, r=80.0, epsilon=0.5)
    lines = text.splitlines()
    lines.pop(lines.index("Subject To") + 1)
    case("model.lp rows", checks.check_model_lp, (text, T, True), ("\n".join(lines), T, True))

    # -- allocate: one arc toll changed -------------------------------------------
    inputs = gen.cli_inputs(seed)
    tolls = allocate_arc_tolls(inputs.bounds, np.asarray(inputs.incidence)).tolist()
    bumped = list(tolls)
    bumped[0] += 1
    case("allocation", checks.check_allocation, (inputs.bounds, inputs.incidence, tolls),
         (inputs.bounds, inputs.incidence, bumped))


if __name__ == "__main__":
    sys.exit(main())
