"""Spans recorded from outside the program, for the traced run.

``Tracer.patch`` replaces a public function in the namespace where its
caller looks it up (``tollkit.nature.simplex_solve``, the names
``tollkit.experiments`` imports, ...) with a wrapper that records a span:
a layer name, a start, an end, the span that was open when it began, and
the operation it belongs to.  Spans stay in memory; ``write`` saves them
when the run ends.  ``unpatch`` restores every original, so untraced
passes run the program exactly as shipped.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        # one span: [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, self.op])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, name: str, fn, on_call=None):
        """``fn`` inside a span; ``on_call(counts, args, kwargs, result)``
        records work counts measured at the same boundary."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(self.counts, args, kwargs, result)
            return result

        return traced

    def count_calls(self, key: str, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, module, attr: str, replacement) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total self time, and call durations."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "durations": []})
        for (name, start, end, _, _), own in zip(self.spans, self.self_times()):
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["durations"].append(end - start)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def percentile_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def install_library_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    import tollkit.cli as cli
    import tollkit.experiments as experiments
    import tollkit.ingest as ingest
    import tollkit.nature as nature
    import tollkit.pricing as pricing

    def dijkstra(counts, args, kwargs, result):
        counts["network.dijkstra_runs"] += args[0].n_states

    def records(counts, args, kwargs, result):
        counts["ingest.records"] += len(result)

    w, p = tracer.wrap, tracer.patch
    p(nature, "simplex_solve", w("lp.simplex", nature.simplex_solve))
    p(pricing, "first_feasible_lower", w("nature.first_feasible_lower", pricing.first_feasible_lower))
    p(experiments, "estimate_moment_envelope", w("core.envelope", experiments.estimate_moment_envelope))
    p(experiments, "two_point_robust_toll", w("pricing.two_point", experiments.two_point_robust_toll))
    p(
        experiments,
        "optimal_toll_for_realized_costs",
        w("pricing.hindsight", experiments.optimal_toll_for_realized_costs),
    )
    p(
        experiments,
        "state_shortest_path_costs",
        w("network.shortest_path", experiments.state_shortest_path_costs, dijkstra),
    )
    p(experiments, "_draw_costs", tracer.count_calls("experiments.cost_draws", experiments._draw_costs))
    p(ingest, "grid_observations", w("ingest.fill", ingest.grid_observations))
    p(ingest, "interpolate_missing", w("ingest.fill", ingest.interpolate_missing))
    p(ingest, "build_graph_from_segments", w("ingest.graph", ingest.build_graph_from_segments))
    p(ingest, "travel_cost_states", w("ingest.costs", ingest.travel_cost_states))
    p(ingest, "_crossing_params", tracer.count_calls("ingest.segment_pairs", ingest._crossing_params))
    for attr, name, hook in (
        ("parse_traffic_records", "ingest.parse", records),
        ("ingest_to_network", "ingest.pipeline", None),
        ("write_network", "network.io", None),
        ("load_network", "network.io", None),
        ("two_point_robust_toll", "pricing.two_point", None),
        ("epsilon_sweep_robust_toll", "pricing.sweep", None),
        ("solve_nature_ufn", "nature.solve", None),
        ("solve_nature_an", "nature.solve", None),
        ("emit_nature_miqp", "pricing.emit_mip", None),
        ("allocate_arc_tolls", "network.allocate", None),
        ("run_real_data_experiment", "experiments.driver", None),
        ("estimate_moment_envelope", "core.envelope", None),
    ):
        p(cli, attr, w(name, getattr(cli, attr), hook))


@contextmanager
def traced(tracer: Tracer):
    install_library_spans(tracer)
    try:
        yield
    finally:
        tracer.unpatch()
