"""tollkit benchmark: one seeded workload per run, one JSON result line.

    python3 bench/run.py --workload sweep-interval --seed 1 --seconds 25 --trace 0

Runs whole passes of the workload for about ``--seconds`` seconds (at least
two), checks every output, and prints as its last line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run alternates
untraced and traced passes and reports the per-layer metrics from the
spans (see spans.py and README.md).  The program is imported from ``src``
next to this directory; nothing is installed.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
WORKLOADS = ("sweep-interval", "sweep-point", "regret-sim", "city-cli")
SETUP_SAMPLES = 5
STARTUP_SAMPLES = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(args: argparse.Namespace, tag: str):
    """Import the program and generate the seeded inputs."""
    sys.path.insert(0, SRC)
    import workloads

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    return workloads, workloads.WORKLOADS[args.workload](args.workload, args.seed, workdir), workdir


def setup_probes(args: argparse.Namespace, count: int) -> list[float]:
    """Set-up time of ``count`` fresh processes doing the same set-up."""
    out = []
    for _ in range(count):
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


def cli_startup_ms(count: int) -> float:
    """Median time a fresh interpreter takes to import ``tollkit.cli``."""
    code = "import time; t = time.perf_counter(); import tollkit.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = [
        float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout)
        for _ in range(count)
    ]
    return statistics.median(samples) * 1e3


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def run_passes(seconds: float, one_pass) -> None:
    """Call ``one_pass(index)`` for whole passes while the next is expected
    to end within ``seconds``; at least ``MIN_PASSES``."""
    from workloads import MIN_PASSES

    start = time.perf_counter()
    durations: list[float] = []
    index = 0
    while index < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        t0 = time.perf_counter()
        one_pass(index)
        durations.append(time.perf_counter() - t0)
        index += 1


def end_to_end(args, wl, setup_s: float) -> tuple[dict, list]:
    """Pass and operation times are scaled to nominal machine speed (see
    workloads.REFERENCE_S); set-up and memory are as measured."""
    ops, op_seconds, passes = [], [], []

    def one_pass(index):
        done = wl.run_pass(index)
        ops.extend(done.ops)
        scaled = done.scaled_seconds()
        op_seconds.extend(scaled)
        passes.append(sum(scaled))

    run_passes(args.seconds, one_pass)
    peak = wl.peak_rss_mib()
    # the mean pass, which damps drift within the run better than the
    # median of a few passes
    run_s = statistics.fmean(passes)
    setups = [setup_s] + setup_probes(args, SETUP_SAMPLES - 1)
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "run_s": metric(run_s, "s"),
        "op_ms_p50": metric(statistics.median(op_seconds) * 1e3, "ms"),
        "tolls_per_s": metric(wl.tolls_per_pass / run_s, "1/s"),
        "peak_rss_mib": metric(peak, "MiB"),
    }
    wall = [op.seconds for op in ops]
    print(f"{args.workload} unscaled: run_s = {sum(wall) / len(passes):.6g} s, "
          f"op_ms_p50 = {statistics.median(wall) * 1e3:.6g} ms", file=sys.stderr)
    return metrics, ops


def per_layer(args, wl) -> tuple[dict, list]:
    import spans

    tracer = spans.Tracer()
    ops, refs, plain, traced = [], [], [], []
    cli_self: list[float] = []
    processes: list[list] = []
    city = args.workload == "city-cli"

    def record(done):
        ops.extend(done.ops)
        refs.extend(done.refs)
        return done.ops

    def untraced(index):
        if city:
            plain.append(wl.run_in_process(index)[0])
            return
        t0 = time.perf_counter()
        record(wl.run_pass(index))
        plain.append(time.perf_counter() - t0)

    def with_spans(index):
        t0 = time.perf_counter()
        with spans.traced(tracer):
            if city:
                seconds, library = wl.run_in_process(index, tracer)
            else:
                record(wl.run_pass(index, tracer))
                seconds = time.perf_counter() - t0
        traced.append(seconds)
        if city:
            startup = startup_ms / 1e3
            cli_self.append(
                sum(op.seconds - startup - library.get(k, 0.0) for k, op in enumerate(processes[-1]))
            )

    def one_pass(index):
        # city-cli's processes are never traced; its spans come from the
        # same commands rerun in this process
        if city:
            processes.append(record(wl.run_pass(index)))
        # alternate the order so warm-up does not favour either side
        for step in (untraced, with_spans) if index % 2 == 0 else (with_spans, untraced):
            step(index)

    startup_ms = cli_startup_ms(STARTUP_SAMPLES) if city else 0.0
    run_passes(args.seconds, one_pass)
    n = len(traced)
    s = tracer.summary()
    counts = tracer.counts

    def calls(name):
        return metric(s[name]["calls"] / n if name in s else 0, "count")

    def self_s(*names):
        return metric(sum(s[x]["self_s"] for x in names if x in s) / n, "s")

    def ms(name, q):
        return metric(spans.percentile_ms(s[name]["durations"], q) if name in s else 0.0, "ms")

    sweep_ids = {i for i, sp in enumerate(tracer.spans) if sp[0] == "pricing.sweep"}
    sweep_solves = sum(1 for sp in tracer.spans if sp[0] == "nature.solve" and sp[3] in sweep_ids)
    ingest_rate = (
        statistics.median(wl.lattice.n_records / t for t in wl.ingest_seconds) if city else 0.0
    )
    metrics = {
        "core.envelope.calls": calls("core.envelope"),
        "core.envelope.self_s": self_s("core.envelope"),
        "lp.simplex.calls": calls("lp.simplex"),
        "lp.simplex.self_s": self_s("lp.simplex"),
        "lp.simplex.ms_p50": ms("lp.simplex", 50),
        "nature.solve.calls": calls("nature.solve"),
        "nature.solve.self_s": self_s("nature.solve"),
        "nature.solve.ms_p50": ms("nature.solve", 50),
        "nature.solve.ms_p90": ms("nature.solve", 90),
        "nature.first_feasible_lower.calls": calls("nature.first_feasible_lower"),
        "nature.first_feasible_lower.self_s": self_s("nature.first_feasible_lower"),
        "pricing.sweep.calls": calls("pricing.sweep"),
        "pricing.sweep.self_s": self_s("pricing.sweep"),
        "pricing.sweep.solves_per_point": metric(
            sweep_solves / counts["pricing.sweep_points"] if counts["pricing.sweep_points"] else 0.0,
            "ratio",
        ),
        "pricing.two_point.calls": calls("pricing.two_point"),
        "pricing.two_point.self_s": self_s("pricing.two_point"),
        "pricing.two_point.ms_p50": ms("pricing.two_point", 50),
        "pricing.hindsight.calls": calls("pricing.hindsight"),
        "pricing.hindsight.self_s": self_s("pricing.hindsight"),
        "pricing.emit_mip.self_s": self_s("pricing.emit_mip"),
        "experiments.driver.calls": calls("experiments.driver"),
        "experiments.driver.self_s": self_s("experiments.driver"),
        "experiments.cost_draws": metric(counts["experiments.cost_draws"] / n, "count"),
        "network.shortest_path.calls": calls("network.shortest_path"),
        "network.shortest_path.self_s": self_s("network.shortest_path"),
        "network.dijkstra_runs": metric(counts["network.dijkstra_runs"] / n, "count"),
        "network.io.self_s": self_s("network.io"),
        "network.allocate.self_s": self_s("network.allocate"),
        "ingest.records": metric(counts["ingest.records"] / n, "count"),
        "ingest.parse.self_s": self_s("ingest.parse"),
        "ingest.fill.self_s": self_s("ingest.fill"),
        "ingest.graph.self_s": self_s("ingest.graph"),
        "ingest.segment_pairs": metric(counts["ingest.segment_pairs"] / n, "count"),
        "ingest.costs.self_s": self_s("ingest.costs", "ingest.pipeline"),
        "ingest.records_per_s": metric(ingest_rate, "1/s"),
        "cli.startup_ms": metric(startup_ms, "ms"),
        "cli.self_s": metric(statistics.median(cli_self) if city else 0.0, "s"),
        "trace.overhead_s": metric(statistics.median(traced) - statistics.median(plain), "s"),
        "machine.ref_ms": metric(statistics.median(refs) * 1e3, "ms"),
    }
    tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.jsonl"))
    return metrics, ops


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tollkit", "__init__.py")):
        print(f"error: no tollkit sources under {SRC}", file=sys.stderr)
        return 2
    workloads, wl, workdir = set_up(args, "probe" if args.setup_probe else "run")
    setup_s = time.perf_counter() - _START
    if args.setup_probe:
        workloads.cleanup(workdir)
        print(setup_s)
        return 0
    try:
        if args.trace:
            metrics, ops = per_layer(args, wl)
        else:
            metrics, ops = end_to_end(args, wl, setup_s)
        try:
            wl.check()
            correct = True
        except Exception:  # a failed check, or an output missing or unreadable
            traceback.print_exc(file=sys.stderr)
            correct = False
    finally:
        workloads.cleanup(workdir)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value['value']:.6g} {value['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op.ok),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
