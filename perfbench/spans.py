"""Spans around calls into transopt's layers, recorded from outside the program.

`SpanRecorder.install()` replaces the public functions and `ZeroFlowNetwork`
methods listed in `TARGETS` with wrappers, in every loaded `transopt` module
that refers to them, so calls made through `from .core import ...` names are
caught too.  Each call becomes a span [name, start_ns, end_ns, parent,
command, counts]; spans stay in memory until `write()`.  A target that a
later engine no longer has or no longer calls simply records no spans, and
its metrics read 0.

`layer_metrics()` turns the spans of many commands into per-command means of
self times (a span's duration minus its direct children's) and counts.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# span name -> (module, attribute path)
TARGETS = {
    "cli.main": ("transopt.cli", "main"),
    "cli.parse": ("transopt.cli", "parse_instance"),
    "core.new_instance": ("transopt.core", "new_instance"),
    "core.verify_optimal": ("transopt.core", "verify_optimal"),
    "core.compute_duals": ("transopt.core", "compute_duals_from_plan"),
    "hungarian.solve": ("transopt.hungarian", "solve_weighted_hungarian"),
    "hungarian.reduce": ("transopt.hungarian", "reduce_matrix"),
    "hungarian.cover": ("transopt.hungarian", "min_weight_zero_cover"),
    "hungarian.delta": ("transopt.hungarian", "delta_adjust"),
    "hungarian.extract": ("transopt.hungarian", "extract_plan_from_zeros"),
    "hungarian.network_build": ("transopt.hungarian", "ZeroFlowNetwork.__init__"),
    "hungarian.max_flow": ("transopt.hungarian", "ZeroFlowNetwork.max_flow"),
    "hungarian.min_cut": ("transopt.hungarian", "ZeroFlowNetwork.min_cut_cover"),
    "hungarian.zero_cell_flow": ("transopt.hungarian", "ZeroFlowNetwork.zero_cell_flow"),
    "nwcorner.check_monge": ("transopt.nwcorner", "check_monge"),
    "nwcorner.north_west_corner": ("transopt.nwcorner", "north_west_corner"),
}

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "hungarian.self_s": "hungarian.solve",
    "hungarian.reduce_s": "hungarian.reduce",
    "hungarian.cover_s": "hungarian.cover",
    "hungarian.delta_s": "hungarian.delta",
    "hungarian.extract_s": "hungarian.extract",
    "hungarian.network_build_s": "hungarian.network_build",
    "hungarian.max_flow_s": "hungarian.max_flow",
    "hungarian.min_cut_s": "hungarian.min_cut",
    "hungarian.zero_cell_flow_s": "hungarian.zero_cell_flow",
    "cli.self_s": "cli.main",
    "cli.parse_s": "cli.parse",
    "core.new_instance_s": "core.new_instance",
    "core.verify_optimal_s": "core.verify_optimal",
    "core.compute_duals_s": "core.compute_duals",
    "nwcorner.check_monge_s": "nwcorner.check_monge",
    "nwcorner.north_west_corner_s": "nwcorner.north_west_corner",
}


def _network_counts(args, result) -> dict:
    network = args[0]
    return {"zero_arcs": len(getattr(network, "zero_cells", ()))}


def _solve_counts(args, result) -> dict:
    """Iterations, delta steps, and delta steps after which the flow rose,
    read from the returned SolveTrace."""
    iterations = getattr(result[2], "iterations", ()) if len(result) > 2 else ()
    flows = [it.flow_value for it in iterations]
    steps = [k for k, it in enumerate(iterations) if it.delta is not None]
    raised = sum(1 for k in steps if k + 1 < len(flows) and flows[k + 1] > flows[k])
    return {"iterations": len(iterations), "delta_steps": len(steps), "flow_raising": raised}


COUNTERS = {"hungarian.network_build": _network_counts, "hungarian.solve": _solve_counts}


class SpanRecorder:
    def __init__(self, command: int) -> None:
        self.command = command
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = [name, 0, 0, parent, self.command, None]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                self._open.pop()
            if counter is not None:
                span[5] = counter(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists in the loaded transopt modules."""
        modules = [mod for key, mod in sys.modules.items() if key.split(".")[0] == "transopt"]
        for name, (module_name, path) in TARGETS.items():
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original)
            if outer:  # a method: patch it on its class
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def layer_metrics(commands: list[list[list]]) -> dict[str, float]:
    """Per-command means of self times (s) and counts over traced commands,
    given each command's span list."""
    total_self: dict[str, int] = defaultdict(int)
    total_incl: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    for spans in commands:
        child_time = [0] * len(spans)
        for name, start, end, parent, _, extra in spans:
            if parent is not None:
                child_time[parent] += end - start
            for key, value in (extra or {}).items():
                counts[key] += value
        for k, (name, start, end, *_) in enumerate(spans):
            total_incl[name] += end - start
            total_self[name] += end - start - child_time[k]
            calls[name] += 1
    per = max(len(commands), 1)
    out = {metric: total_self[span] / 1e9 / per for metric, span in SELF_TIMES.items()}
    out["hungarian.solve_s"] = total_incl["hungarian.solve"] / 1e9 / per
    out["hungarian.networks_built"] = calls["hungarian.network_build"] / per
    out["hungarian.zero_arcs"] = counts["zero_arcs"] / per
    out["hungarian.iterations"] = counts["iterations"] / per
    out["hungarian.delta_steps"] = counts["delta_steps"] / per
    steps = counts["delta_steps"]
    out["hungarian.flow_raising_ratio"] = counts["flow_raising"] / steps if steps else 0.0
    out["core.verify_calls"] = calls["core.verify_optimal"] / per
    return out
