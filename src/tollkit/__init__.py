"""Robust toll pricing against worst-case cost distributions.

The toolkit prices a toll road when only moment bounds on the free-route
cost are trusted: exact worst-case distribution solvers, the two-point
robust pricing search, arc-level toll allocation, traffic-record
ingestion, and Monte-Carlo regret experiments.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the tollkit module that defines it.  ``import tollkit``
# imports none of them; the first lookup of a name imports its module.
_EXPORTS = {
    name: module
    for module, names in {
        "config": ("RunConfig", "parse_config", "write_config"),
        "core": (
            "CostHistory",
            "DiscreteDistribution",
            "MomentEnvelope",
            "PriceGrid",
            "TollQuote",
            "estimate_moment_envelope",
            "expected_revenue",
            "expected_user_cost",
        ),
        "experiments": (
            "DistributionSpec",
            "ExperimentConfig",
            "RealDataResult",
            "RegretRow",
            "family_spec",
            "run_dynamic_cumulative_regret",
            "run_fixed_distribution_experiment",
            "run_mixed_distribution_experiment",
            "run_real_data_experiment",
            "sample_costs",
        ),
        "ingest": (
            "NetworkSkeleton",
            "RecordColumns",
            "SegmentRecord",
            "build_graph_from_segments",
            "ingest_to_network",
            "interpolate_missing",
            "parse_traffic_records",
            "travel_cost_states",
        ),
        "nature": (
            "NatureSolution",
            "TwoPointResponse",
            "pick_worst",
            "solve_nature_an",
            "solve_nature_two_point",
            "solve_nature_ufn",
        ),
        "network": (
            "Arc",
            "PathFamily",
            "TollNetwork",
            "allocate_arc_tolls",
            "build_parallel_equivalent",
            "enumerate_paths",
            "load_network",
            "state_margin_series",
            "write_network",
        ),
        "pricing": (
            "MiqpModel",
            "RobustTollResult",
            "emit_nature_miqp",
            "epsilon_sweep_robust_toll",
            "optimal_toll_for_realized_costs",
            "quote_for_result",
            "solve_nature_miqp_exact",
            "two_point_robust_toll",
        ),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def _lazy_getattr(namespace: dict, table: dict[str, str]):
    """A PEP 562 module ``__getattr__`` for the module whose globals are
    ``namespace``: a ``table`` name resolves to the object of that name in
    its tollkit module, imported on first use and then kept in
    ``namespace``, where a later ``setattr`` on the module replaces it."""

    def __getattr__(name: str):
        if name not in table:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{__name__}.{table[name]}"), name)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _EXPORTS)
