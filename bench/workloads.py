"""The four benchmark workloads.

Each workload generates its inputs from the seed when it is constructed,
runs one pass of its operations per call to ``run_pass`` (each
operation's latency and whether it succeeded, and speed-reference
samples), and checks the program's
outputs in ``check`` after the timed passes.  Passes repeat the same
make-up of operations, so the share of failed operations is the same in
every run.
"""

from __future__ import annotations

import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import checks
import gen
import tollkit.cli as cli
import tollkit.nature as nature
import tollkit.pricing as pricing
from checks import Grid, require
from tollkit import (
    ExperimentConfig,
    MomentEnvelope,
    PriceGrid,
    family_spec,
    run_dynamic_cumulative_regret,
    run_fixed_distribution_experiment,
    run_mixed_distribution_experiment,
)
from tollkit.experiments import FAMILIES

CHILD_TIMEOUT_S = 120
# every run makes at least this many passes (run.py)
MIN_PASSES = 2


# On a shared 2-core virtual machine the same code's speed drifts by 10 to
# 25% over minutes (other tenants share the cores), which swamps most
# program changes.  So every workload times a fixed reference
# computation (the median of three timings) before every operation and once
# after the last, and reports each operation's time scaled to the speed at
# which the reference takes REFERENCE_S: seconds * REFERENCE_S / (the mean
# of the samples just before and just after it).  The reference is
# benchmark code, so no program change can alter it.
REFERENCE_S = 0.013
REFERENCE_SAMPLES = 3


def reference() -> float:
    """Wall time of a fixed mix of the kinds of work the program does:
    integer arithmetic, dict and string building, small numpy array
    operations, and numpy scalar reads in a Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc += i * i
    table = {}
    for i in range(12_000):
        table[str(i)] = i
    a = np.arange(256.0)
    for _ in range(1_000):
        a = np.minimum(a, 100.0) + 1.0
    m = a.reshape(4, 64)
    for _ in range(50):
        for j in range(64):
            if m[3, j] < -1.0:
                acc += 1
    return time.perf_counter() - start


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool


@dataclass
class Pass:
    ops: list[Op] = field(default_factory=list)
    # speed samples, one before each operation and one after the last
    refs: list[float] = field(default_factory=list)

    def sample_speed(self) -> None:
        self.refs.append(statistics.median(reference() for _ in range(REFERENCE_SAMPLES)))

    def scaled_seconds(self) -> list[float]:
        """Each operation's wall time at nominal speed."""
        return [
            op.seconds * REFERENCE_S * 2.0 / (self.refs[i] + self.refs[i + 1])
            for i, op in enumerate(self.ops)
        ]


def timed(out: Pass, name: str, fn, *args, span=None, **kwargs):
    """Run one operation; an exception counts it as failed.  The speed
    sample is taken before ``span`` (a tracer span) opens, so no layer's
    self time includes it."""
    out.sample_speed()
    start = time.perf_counter()
    with span if span is not None else nullcontext():
        try:
            result = fn(*args, **kwargs)
            ok = True
        except Exception:  # an operation's failure is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            result, ok = None, False
    out.ops.append(Op(name, time.perf_counter() - start, ok))
    return result


def self_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# sweep-interval / sweep-point
# ---------------------------------------------------------------------------


class Sweep:
    """Epsilon-sweep robust tolls; one operation is one best-response curve."""

    T = 50
    # an odd count, so the median curve of a run falls inside the middle
    # stratum's curves rather than in the cost gap between two strata
    CURVES_PER_PASS = 5
    CHECKED_CURVES = 2
    CHECKED_TOLLS = 3
    tolls_per_pass = CURVES_PER_PASS

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.seed = seed
        if name == "sweep-interval":
            self.grid, self.bands = Grid(0.0, 200.0, 4.0), gen.interval_bands
        else:
            self.grid, self.bands = Grid(0.0, 200.0, 1.0), gen.point_bands
        self.price_grid = PriceGrid(self.grid.q, self.grid.Q, self.grid.step)
        self.results: list[tuple[tuple, object]] = []

    def run_pass(self, index: int, tracer=None) -> Pass:
        out = Pass()
        solve = nature.solve_nature_ufn
        if tracer is not None:
            solve = tracer.wrap("nature.solve", solve)
        for band in self.bands(self.seed, index, self.CURVES_PER_PASS):
            env = MomentEnvelope(*band)
            span = None
            if tracer is not None:
                tracer.counts["pricing.sweep_points"] += self.price_grid.n_points
                span = tracer.span("pricing.sweep")
            res = timed(out, "curve", pricing.epsilon_sweep_robust_toll, self.price_grid, env, self.T,
                        nature=solve, span=span)
            if tracer is not None:
                tracer.op += 1
            if res is not None:
                self.results.append((band, res))
        out.sample_speed()
        return out

    def check(self) -> None:
        for band, res in self.results:
            checks.check_sweep_result(self.T, res.toll, res.epsilon, res.br_curve)
        # rebuild whole curves from a nature solve at every grid toll; check
        # each solve's feasibility, and its optimality against HiGHS at
        # seeded sample tolls, at the chosen toll and one step above it
        points = self.grid.points()
        rng = gen.rng_for(self.seed, 9)
        picks = rng.choice(MIN_PASSES * self.CURVES_PER_PASS, self.CHECKED_CURVES, replace=False)
        for key, pick in enumerate(sorted(picks.tolist())):
            band, res = self.results[pick]
            env = MomentEnvelope(*band)
            usage, values = [], []
            for r in points.tolist():
                sol = nature.solve_nature_ufn(self.price_grid, env, r)
                dist = sol.distribution
                values.append(checks.check_distribution(
                    self.grid, band, r, dist.support, dist.mass, sol.objective_value
                ))
                usage.append(checks.usage_probability(dist.support, dist.mass, r))
            checks.check_sweep_exact(points, usage, self.T, res.toll, res.epsilon, res.br_curve)
            optimal = set(gen.sample_tolls(self.seed, key, points, self.CHECKED_TOLLS))
            optimal.add(res.toll)
            optimal.add(min(res.toll + self.grid.step, self.grid.Q))
            for i, r in enumerate(points.tolist()):
                if r in optimal:
                    checks.check_nature_optimal(self.grid, band, r, values[i])

    def peak_rss_mib(self) -> float:
        return self_peak_rss_mib()


# ---------------------------------------------------------------------------
# regret-sim
# ---------------------------------------------------------------------------


class RegretSim:
    """The desk-scale regret table; one operation is one driver call."""

    LINKS, T, HISTORIES, EVALS = 5, 50, 50, 500
    DRIVERS = len(FAMILIES) + 2  # four fixed families, mixed, dynamic gamma
    tolls_per_pass = DRIVERS * HISTORIES
    TWO_POINT_CHECKS = 6

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.seed = seed
        self.rows: list = []
        self.series: list = []
        self.first_cfg: ExperimentConfig | None = None
        self.first_gamma = None

    def config(self, index: int) -> ExperimentConfig:
        return ExperimentConfig(
            links=self.LINKS,
            T=self.T,
            history_samples=self.HISTORIES,
            eval_samples=self.EVALS,
            seed=gen.experiment_seed(self.seed, index),
        )

    def run_pass(self, index: int, tracer=None) -> Pass:
        out = Pass()
        cfg = self.config(index)

        def call(label, fn, *args):
            if tracer is None:
                return timed(out, label, fn, *args)
            result = timed(out, label, fn, *args, span=tracer.span("experiments.driver"))
            tracer.op += 1
            return result

        for fam in FAMILIES:
            row = call(fam, run_fixed_distribution_experiment, cfg, family_spec(fam, cfg.grid))
            if row is not None:
                self.rows.append(row)
                if fam == "gamma" and self.first_cfg is None:
                    self.first_cfg, self.first_gamma = cfg, row
        row = call("mixed", run_mixed_distribution_experiment, cfg)
        if row is not None:
            self.rows.append(row)
        series = call("dynamic", run_dynamic_cumulative_regret, cfg, family_spec("gamma", cfg.grid))
        if series is not None:
            self.series.append(series)
        out.sample_speed()
        return out

    def check(self) -> None:
        for row in self.rows:
            checks.check_regret_values(
                row.family,
                [row.average_pct, row.stdev_pct, row.averaged_toll_pct, row.averaged_toll_stdev_pct],
            )
        for series in self.series:
            checks.check_regret_values("dynamic", series)
        require(self.first_cfg is not None, "no fixed gamma run to compare")
        pinned = run_mixed_distribution_experiment(self.first_cfg, ["gamma"])
        checks.check_mixed_identity(pinned, self.first_gamma)
        grid = Grid(0.0, 200.0, 1.0)
        price_grid = PriceGrid(0.0, 200.0, 1.0)
        for band in gen.two_point_bands(self.seed, self.TWO_POINT_CHECKS):
            res = pricing.two_point_robust_toll(price_grid, MomentEnvelope(*band), self.T)
            checks.check_two_point(grid, band, self.T, res.toll, res.br_curve)

    def peak_rss_mib(self) -> float:
        return self_peak_rss_mib()


# ---------------------------------------------------------------------------
# city-cli
# ---------------------------------------------------------------------------


def _read_csv(path: str) -> list[list[str]]:
    with open(path) as fh:
        return [line.split(",") for line in fh.read().splitlines()]


class CityCli:
    """Real ``tollkit`` processes on a generated street-lattice feed; one
    operation is one process.  The last two commands are bad input that the
    program should reject with exit code 2 (see ``BAD_INPUT``)."""

    SCALE = gen.FEED_SCALE
    INGEST_STEP = 0.5
    PAIRS = 20
    # real-exp draws its node pairs from its own --seed.  Dijkstra stops at
    # the destination, so a draw of near or far pairs moves real-exp's time
    # by +-25%; every run prices the same 20 pairs of its own lattice.
    PAIR_SEED = 0
    T = 50  # the config default every command here runs with
    MIP_EPSILON = 0.5
    STATE_SAMPLE = 200
    tolls_per_pass = 1 + PAIRS  # price, and one two-point toll per real-exp pair
    # Non-finite kappa_bar is accepted by RunConfig and MomentEnvelope: price
    # exits 0 with a toll, nature trips an internal AssertionError (exit 1).
    BAD_INPUT = ("price-nan-kappa", "nature-nan-kappa")

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.seed, self.workdir = seed, workdir
        self.lattice = gen.write_lattice_feed(seed, os.path.join(workdir, "feed.csv"))
        self.inputs = gen.cli_inputs(seed)
        gen.write_allocation(
            self.inputs, os.path.join(workdir, "bounds.csv"), os.path.join(workdir, "incidence.csv")
        )
        with open(os.path.join(workdir, "nan.cfg"), "w") as fh:
            fh.write("kappa_bar = nan\n")
        self.src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.passes = 0
        self.max_child_rss_kib = 0
        self.ingest_seconds: list[float] = []

    def commands(self, base: str) -> list[tuple[str, list[str]]]:
        """(name, argv) per operation; input paths are relative to ``base``
        and outputs go to sub-directories of the working directory."""
        i = self.inputs
        j = lambda name: os.path.join(base, name)  # noqa: E731
        pl, pu = i.price_band
        ml, mu = i.mip_band
        return [
            ("ingest", ["ingest", "--records", j("feed.csv"), "--scale", f"{self.SCALE:g}",
                        "--grid-step", f"{self.INGEST_STEP:g}", "--out-dir", "ingest"]),
            ("real-exp", ["real-exp", "--arcs", "ingest/arcs.csv", "--states", "ingest/states.csv",
                          "--pairs", str(self.PAIRS), "--seed", str(self.PAIR_SEED), "--out-dir", "real"]),
            ("price", ["price", "--u-lower", f"{pl:g}", "--u-upper", f"{pu:g}", "--out-dir", "price"]),
            ("nature", ["nature", "--u-lower", f"{i.nature_mean:g}", "--u-upper", f"{i.nature_mean:g}",
                        "--toll", f"{i.nature_toll:g}", "--out-dir", "nature"]),
            ("emit-mip", ["emit-mip", "--u-lower", f"{ml:g}", "--u-upper", f"{mu:g}", "--toll",
                          f"{i.mip_toll:g}", "--epsilon", f"{self.MIP_EPSILON:g}", "--out-dir", "mip"]),
            ("allocate", ["allocate", "--bounds", j("bounds.csv"), "--incidence", j("incidence.csv"),
                          "--out-dir", "allocate"]),
            ("price-nan-kappa", ["price", "--config", j("nan.cfg"), "--u-lower", "100", "--u-upper", "110",
                                 "--out-dir", "bad-price"]),
            ("nature-nan-kappa", ["nature", "--config", j("nan.cfg"), "--u-lower", "100", "--u-upper", "110",
                                  "--grid-step", "5", "--toll", "100", "--out-dir", "bad-nature"]),
        ]

    def _spawn(self, argv: list[str], cwd: str, log: str) -> tuple[int, float]:
        """Run one process; returns (exit code, wall seconds) and keeps the
        largest child peak RSS."""
        with open(log + ".out", "w") as out, open(log + ".err", "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "tollkit.cli", *argv], cwd=cwd, env=self.env, stdout=out, stderr=err
            )
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.max_child_rss_kib = max(self.max_child_rss_kib, usage.ru_maxrss)
        return proc.returncode, seconds

    def run_pass(self, index: int) -> Pass:
        out = Pass()
        cwd = os.path.join(self.workdir, f"pass{index}")
        logs = os.path.join(self.workdir, f"logs{index}")
        os.makedirs(cwd)
        os.makedirs(logs)
        for name, argv in self.commands(".."):
            out.sample_speed()
            code, seconds = self._spawn(argv, cwd, os.path.join(logs, name))
            if name in self.BAD_INPUT:
                with open(os.path.join(logs, name + ".err")) as fh:
                    ok = code == 2 and any(line.startswith("error:") for line in fh)
            else:
                ok = code == 0
            out.ops.append(Op(name, seconds, ok))
            if name == "ingest":
                self.ingest_seconds.append(seconds)
        out.sample_speed()
        self.passes += 1
        return out

    def run_in_process(self, index: int, tracer=None) -> tuple[float, dict[int, float]]:
        """The same commands through ``tollkit.cli.main`` in this process.
        Returns the wall time and, when traced, the library time under each
        command (the sum of its direct child spans)."""
        cwd = os.path.join(self.workdir, f"inproc{index}-{'t' if tracer else 'u'}")
        os.makedirs(cwd)
        first_span = len(tracer.spans) if tracer is not None else 0
        here = os.getcwd()
        os.chdir(cwd)
        start = time.perf_counter()
        try:
            for op, (name, argv) in enumerate(self.commands("..")):
                if tracer is not None:
                    tracer.op = op
                    ctx = tracer.span("cli.command")
                else:
                    ctx = nullcontext()
                with ctx, redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                    try:
                        cli.main(argv)
                    except AssertionError:
                        pass  # the nature-nan-kappa fault, in process
        finally:
            os.chdir(here)
        seconds = time.perf_counter() - start
        library: dict[int, float] = {}
        if tracer is not None:
            spans = tracer.spans[first_span:]
            roots = {first_span + i: s[4] for i, s in enumerate(spans) if s[0] == "cli.command"}
            for name, s0, s1, parent, op in spans:
                if parent in roots:
                    library[roots[parent]] = library.get(roots[parent], 0.0) + (s1 - s0)
        return seconds, library

    def check(self) -> None:
        first = os.path.join(self.workdir, "pass0")
        self._check_ingest(os.path.join(first, "ingest"))
        self._check_real(os.path.join(first, "real"))
        self._check_price(os.path.join(first, "price"))
        self._check_nature(os.path.join(first, "nature"))
        with open(os.path.join(first, "mip", "model.lp")) as fh:
            checks.check_model_lp(fh.read(), self.T, with_epsilon=True)
        rows = _read_csv(os.path.join(first, "allocate", "tolls.csv"))[1:]
        checks.check_allocation(self.inputs.bounds, self.inputs.incidence, [int(r[2]) for r in rows])
        self._check_reruns()

    def _check_ingest(self, d: str) -> None:
        report = {}
        with open(os.path.join(d, "ingest_report.txt")) as fh:
            for line in fh:
                key, _, value = line.partition(":")
                report[key.strip()] = int(value)
        checks.check_ingest(self.lattice, gen.LATTICE_BLOCKS, report)
        lengths = [float(r[3]) for r in _read_csv(os.path.join(d, "arcs.csv"))[1:]]
        costs = {(int(s), int(a)): float(c) for s, a, c in _read_csv(os.path.join(d, "states.csv"))[1:]}
        rng = gen.rng_for(self.seed, 8)
        n_states, n_arcs = self.lattice.speeds.shape[1], len(lengths)
        require(len(costs) == n_states * n_arcs, f"states.csv has {len(costs)} cells")
        cells = list(zip(rng.integers(0, n_states, self.STATE_SAMPLE).tolist(),
                         rng.integers(0, n_arcs, self.STATE_SAMPLE).tolist()))
        checks.check_states_sample(
            self.lattice, Grid(0.0, 200.0, self.INGEST_STEP), self.SCALE, lengths, costs, cells
        )

    def _check_real(self, d: str) -> None:
        checks.check_real_rows(_read_csv(os.path.join(d, "real_regret.csv")), self.PAIRS)

    def _check_price(self, d: str) -> None:
        header, row = _read_csv(os.path.join(d, "price.csv"))
        toll, usage = float(row[1]), int(row[2])
        curve = {float(r[1]): float(r[2]) for r in _read_csv(os.path.join(d, "br_curve.csv"))[1:]}
        band = (*self.inputs.price_band, 1.0)
        ref_usage = checks.check_two_point(Grid(0.0, 200.0, 1.0), band, self.T, toll, curve)
        require(usage == ref_usage, f"price usage {usage} != scan {ref_usage}")

    def _check_nature(self, d: str) -> None:
        rows = _read_csv(os.path.join(d, "nature.csv"))[1:]
        support, mass = [float(r[1]) for r in rows], [float(r[2]) for r in rows]
        band = (self.inputs.nature_mean, self.inputs.nature_mean, 1.0)
        grid = Grid(0.0, 200.0, 1.0)
        value = checks.check_distribution(grid, band, self.inputs.nature_toll, support, mass)
        checks.check_nature_optimal(grid, band, self.inputs.nature_toll, value)

    def _check_reruns(self) -> None:
        """Every artifact of every pass is byte-identical to the first's."""
        require(self.passes >= 2, "determinism needs two passes")
        checks.check_same_files(
            os.path.join(self.workdir, "pass0"),
            [os.path.join(self.workdir, f"pass{k}") for k in range(1, self.passes)],
            minimum=15,
        )

    def peak_rss_mib(self) -> float:
        return self.max_child_rss_kib / 1024.0


WORKLOADS = {
    "sweep-interval": Sweep,
    "sweep-point": Sweep,
    "regret-sim": RegretSim,
    "city-cli": CityCli,
}


def cleanup(workdir: str) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
