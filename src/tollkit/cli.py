"""Command-line entry point: `tollkit <subcommand>`.

Every subcommand reads the shared flat key-value config format, layers
command-line overrides on top, and writes CSV artifacts plus a
``run_manifest.txt`` echoing the fully resolved configuration into the
output directory.  Nothing is written outside the output directory, and
all randomness flows from the resolved seed, so repeating a run with the
same config and seed reproduces every artifact byte for byte.

The library returns results; this module alone decides what goes into an
artifact.  Every CSV artifact is written by ``_write_table``: a leading
``format_version`` column, ``%.12g`` floats, CRLF line ends and no
timestamps.  The files ``ingest`` writes are the network's own input
formats, written by the modules that read them back.

Exit codes: 0 success, 1 missing input file (path in the message),
2 usage or value error.  A run that exits non-zero writes nothing, not
even its output directory.  Errors print as one ``error: ...`` line on
standard error, and the library's ``UserWarning``s as one ``warning: ...``
line each.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from typing import Iterable, Sequence

from . import _EXPORTS, _lazy_getattr
from .config import RunConfig, parse_config
from .core import (
    DEFAULT_BUCKET_MINUTES,
    DEFAULT_CROSSING_TOL,
    DEFAULT_MERGE_TOL,
    FAMILIES,
    FORMAT_VERSION,
    MomentEnvelope,
    PriceGrid,
    estimate_moment_envelope,
    flag,
    format_cell,
    read_cost_history,
    read_rows,
    write_rows,
)

__all__ = ["build_parser", "main"]

# Library names resolve through the package's ``_EXPORTS`` on first use, so
# a process imports only what its subcommand runs.  Handlers look them up on
# ``_this``, which sees any object ``setattr`` put in their place.
__getattr__ = _lazy_getattr(globals(), _EXPORTS)
_this = sys.modules[__name__]

OUT_DIR_ENV = "TOLLKIT_OUT_DIR"

def _resolve_out_dir(args: argparse.Namespace) -> str:
    """Make the output directory; handlers call it only once their work is
    done, so a failed run leaves no directory behind."""
    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    overrides: dict[str, object] = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.grid_step is not None:
        overrides["step"] = args.grid_step
    if args.config is not None:
        return parse_config(args.config, **overrides)
    return RunConfig(**overrides)


def _write_table(out_dir: str, name: str, header: Sequence[str], rows: Iterable) -> None:
    """Write the CSV artifact ``name``: ``header`` and ``rows``, each behind
    a leading ``format_version`` column."""
    write_rows(
        os.path.join(out_dir, name),
        ["format_version", *header],
        ([FORMAT_VERSION, *row] for row in rows),
    )


def _write_manifest(
    out_dir: str, args: argparse.Namespace, cfg: RunConfig, extras: list[tuple[str, object]]
) -> None:
    """Echo the resolved configuration so any artifact can be re-created."""
    path = os.path.join(out_dir, "run_manifest.txt")
    with open(path, "w") as handle:
        handle.write(f"command = {args.command}\n")
        for key, value in cfg.items():
            handle.write(f"{key} = {format_cell(value)}\n")
        for key, value in extras:
            if value is not None:
                handle.write(f"{key} = {format_cell(value)}\n")


def _resolve_envelope(
    args: argparse.Namespace, cfg: RunConfig, grid: PriceGrid
) -> MomentEnvelope:
    """Envelope from an explicit mean band, or estimated from a history CSV."""
    if args.history is not None:
        if args.u_lower is not None or args.u_upper is not None:
            raise ValueError("--history excludes --u-lower and --u-upper")
        history = read_cost_history(args.history, grid, cfg.T, cfg.H)
        return estimate_moment_envelope(
            history.min(axis=1), grid, cfg.confidence_z, cfg.kappa_bar
        )
    if args.u_lower is None or args.u_upper is None:
        raise ValueError("provide --history, or both --u-lower and --u-upper")
    env = MomentEnvelope(args.u_lower, args.u_upper, cfg.kappa_bar)
    env.validate_against(grid)
    return env


def _envelope_extras(args: argparse.Namespace) -> list[tuple[str, object]]:
    return [
        ("history", args.history),
        ("u_lower", args.u_lower),
        ("u_upper", args.u_upper),
    ]


def _cmd_price(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    grid = cfg.grid()
    env = _resolve_envelope(args, cfg, grid)
    if args.method == "two-point":
        result = _this.two_point_robust_toll(grid, env, cfg.T)
    else:
        result = _this.epsilon_sweep_robust_toll(grid, env, cfg.T)
    usage = int(round(result.epsilon * cfg.T))
    revenue = result.toll * usage
    out_dir = _resolve_out_dir(args)
    _write_table(
        out_dir,
        "price.csv",
        ["toll", "usage_count", "worst_case_revenue", "method"],
        [(result.toll, usage, revenue, result.method)],
    )
    _write_table(
        out_dir, "br_curve.csv", ["toll", "worst_case_revenue"], sorted(result.br_curve.items())
    )
    _write_manifest(out_dir, args, cfg, _envelope_extras(args) + [("method", args.method)])
    print(
        f"toll {result.toll:g}: usage {usage}/{cfg.T} periods, "
        f"worst-case revenue {revenue:g}"
    )
    return 0


def _cmd_nature(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    grid = cfg.grid()
    env = _resolve_envelope(args, cfg, grid)
    solver = _this.solve_nature_an if args.objective == "an" else _this.solve_nature_ufn
    solution = solver(grid, env, args.toll)
    dist = solution.distribution
    out_dir = _resolve_out_dir(args)
    _write_table(out_dir, "nature.csv", ["support", "mass"], zip(dist.support, dist.mass))
    _write_manifest(
        out_dir,
        args,
        cfg,
        _envelope_extras(args)
        + [("toll", args.toll), ("objective", args.objective)],
    )
    print(
        f"worst-case {args.objective} objective {solution.objective_value:g}, "
        f"usage probability {solution.usage_probability:g}, "
        f"active: {', '.join(solution.active_constraints) or 'none'}"
    )
    return 0


def _cmd_emit_mip(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    grid = cfg.grid()
    env = _resolve_envelope(args, cfg, grid)
    model, text = _this.emit_nature_miqp(
        grid, env, cfg.T, r=args.toll, epsilon=args.epsilon, big_M=args.big_m
    )
    out_dir = _resolve_out_dir(args)
    path = os.path.join(out_dir, "model.lp")
    with open(path, "w") as handle:
        handle.write(text)
    _write_manifest(
        out_dir,
        args,
        cfg,
        _envelope_extras(args)
        + [
            ("toll", args.toll),
            ("epsilon", args.epsilon),
            ("big_M", model.big_M),
        ],
    )
    print(
        f"wrote {path}: {model.n_rows} rows, {model.n_continuous} continuous, "
        f"{model.n_binary} binary"
    )
    return 0


def _load_bounds(path: str) -> tuple[list[str], list[float]]:
    table = read_rows(path, "path,bound", (str.strip, float))
    names, bounds = table.columns
    if not names:
        raise ValueError(f"{table.where}: no path bounds")
    table.reject_duplicates(list(zip(names)), "path {!r}".format)
    return names, bounds


def _load_incidence(path: str, path_names: list[str]) -> tuple[list[str], list[list[bool]]]:
    table = read_rows(path, "path,arc,used", (str.strip, str.strip, flag))
    names, arcs, used = table.columns
    if not names:
        raise ValueError(f"{table.where}: no incidence rows")
    for row, name in enumerate(names):
        if name not in path_names:
            raise table.error(row, f"unknown path {name!r}")
    table.reject_duplicates(list(zip(names, arcs)), "row for path {!r}, arc {!r}".format)
    arc_names = list(dict.fromkeys(arcs))
    matrix = [[0] * len(arc_names) for _ in path_names]
    for name, arc, value in zip(names, arcs, used):
        matrix[path_names.index(name)][arc_names.index(arc)] = value
    return arc_names, matrix


def _cmd_allocate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    path_names, bounds = _load_bounds(args.bounds)
    arc_names, incidence = _load_incidence(args.incidence, path_names)
    tolls = _this.allocate_arc_tolls(bounds, incidence)
    out_dir = _resolve_out_dir(args)
    _write_table(out_dir, "tolls.csv", ["arc", "toll"], zip(arc_names, tolls))
    _write_manifest(out_dir, args, cfg, [("bounds", args.bounds), ("incidence", args.incidence)])
    print(f"total toll {sum(tolls)} across {len(arc_names)} arcs")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    grid = cfg.grid()
    records = _this.parse_traffic_records(args.records)
    skeleton, _, costs, report = _this.ingest_to_network(
        records,
        grid,
        scale=args.scale,
        bucket_minutes=args.bucket_minutes,
        merge_tolerance=args.merge_tol,
        crossing_tolerance=args.crossing_tol,
    )
    # a node whose only arcs were dropped as zero-length is on no arc
    ends = sorted({node for arc in skeleton.arcs for node in (arc.tail, arc.head)})
    if len(ends) < 2:
        raise ValueError("ingested network has fewer than two nodes")
    net = _this.skeleton_to_network(skeleton, costs, ends[0], ends[-1])
    out_dir = _resolve_out_dir(args)
    _this.write_network(
        net, os.path.join(out_dir, "arcs.csv"), os.path.join(out_dir, "states.csv")
    )
    with open(os.path.join(out_dir, "ingest_report.txt"), "w") as handle:
        handle.write(report.to_text())
    _write_manifest(
        out_dir,
        args,
        cfg,
        [
            ("records", args.records),
            ("scale", args.scale),
            ("bucket_minutes", args.bucket_minutes),
            ("merge_tol", args.merge_tol),
            ("crossing_tol", args.crossing_tol),
        ],
    )
    print(report.to_text())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    ecfg = _this.ExperimentConfig(
        links=args.links,
        T=cfg.T,
        H=cfg.H,
        kappa_bar=cfg.kappa_bar,
        history_samples=args.history_samples,
        eval_samples=args.eval_samples,
        seed=cfg.seed,
        grid=cfg.grid(),
        confidence_z=cfg.confidence_z,
    )
    series = None
    if args.family == "all":
        rows = [
            _this.run_fixed_distribution_experiment(ecfg, _this.family_spec(fam, ecfg.grid))
            for fam in FAMILIES
        ]
        rows.append(_this.run_mixed_distribution_experiment(ecfg))
    elif args.family == "mixed":
        rows = [_this.run_mixed_distribution_experiment(ecfg)]
    else:
        spec = _this.family_spec(args.family, ecfg.grid)
        rows = [_this.run_fixed_distribution_experiment(ecfg, spec)]
        series = _this.run_dynamic_cumulative_regret(ecfg, spec)
    out_dir = _resolve_out_dir(args)
    if series is not None:
        _write_table(
            out_dir,
            "cumulative_regret.csv",
            ["period", "cum_regret_pct"],
            enumerate(series.tolist(), start=1),
        )
    _write_table(
        out_dir,
        "regret_summary.csv",
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
    _write_manifest(
        out_dir,
        args,
        cfg,
        [
            ("family", args.family),
            ("links", args.links),
            ("history_samples", args.history_samples),
            ("eval_samples", args.eval_samples),
        ],
    )
    for row in rows:
        print(
            f"{row.family}: avg regret {row.average_pct:.2f}% "
            f"(stdev {row.stdev_pct:.2f}%), averaged-toll {row.averaged_toll_pct:.2f}%"
        )
    return 0


def _cmd_real_exp(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    # an empty endpoint takes its default, like an omitted one
    net = _this.load_network(args.arcs, args.states, args.origin or None, args.destination or None)
    n_states = net.state_costs.shape[0]
    history_cut = max(1, int(0.8 * n_states)) if args.history_cut is None else args.history_cut
    result = _this.run_real_data_experiment(
        net,
        args.pairs,
        history_cut,
        grid=cfg.grid(),
        T=cfg.T,
        kappa_bar=cfg.kappa_bar,
        confidence_z=cfg.confidence_z,
        seed=cfg.seed,
    )
    out_dir = _resolve_out_dir(args)
    _write_table(
        out_dir,
        "real_regret.csv",
        [
            "method",
            "avg_regret_pct",
            "stdev_regret_pct",
            "pairs_used",
            "pairs_skipped",
        ],
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
    _write_table(
        out_dir, "toll_ratio.csv", ["pair", "ratio"], enumerate(result.toll_ratios, start=1)
    )
    _write_manifest(
        out_dir,
        args,
        cfg,
        [
            ("arcs", args.arcs),
            ("states", args.states),
            ("origin", net.origin),
            ("destination", net.destination),
            ("pairs", args.pairs),
            ("history_cut", history_cut),
        ],
    )
    print(
        f"robust {result.robust_avg_pct:.2f}% vs mean-toll "
        f"{result.mean_toll_avg_pct:.2f}% average regret over "
        f"{result.n_pairs_used} pairs ({result.n_skipped} skipped)"
    )
    return 0


def _add_envelope_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--history", help="cost-history CSV (state,arc,cost) to estimate the envelope"
    )
    parser.add_argument("--u-lower", type=float, help="mean band lower limit")
    parser.add_argument("--u-upper", type=float, help="mean band upper limit")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--seed", type=int, help="master random seed override")
    common.add_argument(
        "--out-dir",
        help=f"artifact directory (default: ${OUT_DIR_ENV} or current directory)",
    )
    common.add_argument("--grid-step", type=float, help="price grid step override")

    parser = argparse.ArgumentParser(
        prog="tollkit",
        description="Robust toll pricing against worst-case cost distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "price", parents=[common], help="compute a robust toll and its BR curve"
    )
    _add_envelope_flags(p)
    p.add_argument(
        "--method",
        choices=["two-point", "sweep"],
        default="two-point",
        help="pricing route: the two-point search or the usage-level sweep",
    )
    p.set_defaults(handler=_cmd_price)

    p = sub.add_parser(
        "nature", parents=[common], help="worst-case distribution at a fixed toll"
    )
    _add_envelope_flags(p)
    p.add_argument("--toll", type=float, required=True, help="toll (grid point)")
    p.add_argument(
        "--objective",
        choices=["ufn", "an"],
        default="ufn",
        help="nature's objective: user-cost (ufn) or revenue (an)",
    )
    p.set_defaults(handler=_cmd_nature)

    p = sub.add_parser(
        "emit-mip",
        parents=[common],
        help="write the exact worst-case sample model in LP text format",
    )
    _add_envelope_flags(p)
    p.add_argument("--toll", type=float, help="fix the toll at this grid point")
    p.add_argument("--epsilon", type=float, help="minimum usage fraction row")
    p.add_argument("--big-m", type=float, help="big-M constant (default: grid Q)")
    p.set_defaults(handler=_cmd_emit_mip)

    p = sub.add_parser(
        "allocate",
        parents=[common],
        help="integer arc tolls maximizing total toll under path bounds",
    )
    p.add_argument("--bounds", required=True, help="CSV 'path,bound'")
    p.add_argument("--incidence", required=True, help="CSV 'path,arc,used'")
    p.set_defaults(handler=_cmd_allocate)

    p = sub.add_parser(
        "ingest",
        parents=[common],
        help="traffic records -> network arcs/states CSVs",
    )
    p.add_argument("--records", required=True, help="traffic records CSV")
    p.add_argument(
        "--scale", type=float, default=1.0, help="cost = scale * length / speed"
    )
    p.add_argument(
        "--bucket-minutes",
        type=int,
        default=DEFAULT_BUCKET_MINUTES,
        help="observation bucket width",
    )
    p.add_argument(
        "--merge-tol",
        type=float,
        default=DEFAULT_MERGE_TOL,
        help="endpoint merge tolerance",
    )
    p.add_argument(
        "--crossing-tol",
        type=float,
        default=DEFAULT_CROSSING_TOL,
        help="segment crossing tolerance",
    )
    p.set_defaults(handler=_cmd_ingest)

    p = sub.add_parser(
        "simulate",
        parents=[common],
        help="Monte-Carlo regret of robust tolls on synthetic cost families",
    )
    p.add_argument(
        "--family",
        choices=list(FAMILIES) + ["mixed", "all"],
        default="all",
        help="cost family (single families also emit cumulative_regret.csv)",
    )
    p.add_argument("--links", type=int, default=5, help="toll-free links per state")
    p.add_argument(
        "--history-samples", type=int, default=50, help="history sample count"
    )
    p.add_argument(
        "--eval-samples", type=int, default=500, help="evaluation sample count"
    )
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser(
        "real-exp",
        parents=[common],
        help="virtual toll roads between random node pairs of an ingested network",
    )
    p.add_argument("--arcs", required=True, help="arcs CSV (tail,head,toll_flag,length)")
    p.add_argument("--states", required=True, help="states CSV (state,arc,cost)")
    p.add_argument("--origin", help="a node of the arcs file (default: first node name)")
    p.add_argument("--destination", help="a node of the arcs file (default: last node name)")
    p.add_argument("--pairs", type=int, default=20, help="random node pairs to price")
    p.add_argument(
        "--history-cut",
        type=int,
        help="states used as history (default: 80%% of states)",
    )
    p.set_defaults(handler=_cmd_real_exp)

    return parser


def _warning_lines(show):
    """A ``warnings.showwarning`` that prints a library ``UserWarning`` as
    one ``warning: ...`` line, as errors print, and hands any other warning
    to ``show``."""

    def show_warning(message, category, *where):
        if issubclass(category, UserWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *where)

    return show_warning


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _warning_lines(warnings.showwarning)
            return args.handler(args)
    except FileNotFoundError as exc:
        path = exc.filename if exc.filename is not None else exc
        print(f"error: missing input file: {path}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
