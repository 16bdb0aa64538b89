"""Outside-in tracing of topogen's public functions.

The tracer wraps module-level functions of the program from outside,
without touching ``src/``. Several modules bind names of other modules at
import time (``from .graphs import neighborhood_graph`` in ``trees``), so a
wrapper is patched into every loaded ``topogen`` module whose namespace
holds the original function object, not only into the defining module.
``cli`` reaches the other modules through attribute lookup, so patching
module attributes is enough there.

Spans are kept in memory as ``[name, start, end, parent, excluded, counts]``
and written out once the traced process finishes. ``excluded`` is the time
the tracer spent inspecting a call's result after the call returned; it is
left out of the caller's self time so that bookkeeping is not charged to
the program.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from contextlib import contextmanager
from statistics import median

TRACED = {
    "measurements": (
        "parse_campaign_log",
        "build_loss_matrix",
        "distance_loss_correlation",
    ),
    "io": (
        "load_matrix",
        "load_positions",
        "load_tree",
        "save_matrix",
        "save_positions",
        "save_tree",
        "save_selection",
        "write_manifest",
        "graph_to_dot",
        "selection_to_dot",
        "tree_to_dot",
        "degree_distribution_csv",
    ),
    "graphs": (
        "neighborhood_graph",
        "degree_distribution",
        "monotonicity_report",
        "connected_components",
    ),
    "ilp": ("solve",),
    "degree": ("build_degree_program", "select_constant_degree"),
    "trees": ("monitored_bfs", "sweep_trees", "reduce_tree", "check_tree"),
    "synth": ("grid_scenario",),
}

# io functions whose self time is reported together as io.export.self_s.
EXPORTS = (
    "save_positions",
    "save_tree",
    "save_selection",
    "graph_to_dot",
    "selection_to_dot",
    "tree_to_dot",
    "degree_distribution_csv",
)

COMMANDS = ("ingest", "analyze", "tree", "verify", "degree")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("measurements.parse_campaign_log.self_s", "s", "lower"),
    ("measurements.parse_campaign_log.lines", "count", "higher"),
    ("measurements.parse_campaign_log.rejected", "count", "lower"),
    ("measurements.build_loss_matrix.self_s", "s", "lower"),
    ("measurements.distance_loss_correlation.self_s", "s", "lower"),
    ("io.load_matrix.calls", "count", "lower"),
    ("io.load_matrix.self_s", "s", "lower"),
    ("io.save_matrix.self_s", "s", "lower"),
    ("io.write_manifest.self_s", "s", "lower"),
    ("io.export.self_s", "s", "lower"),
    ("io.bytes_read", "B", "lower"),
    ("io.bytes_written", "B", "lower"),
    ("graphs.neighborhood_graph.calls", "count", "lower"),
    ("graphs.neighborhood_graph.self_s", "s", "lower"),
    ("graphs.degree_distribution.self_s", "s", "lower"),
    ("graphs.monotonicity_report.self_s", "s", "lower"),
    ("graphs.connected_components.self_s", "s", "lower"),
    ("graphs.useful_ratio", "ratio", "higher"),
    ("ilp.solve.calls", "count", "lower"),
    ("ilp.solve.self_s", "s", "lower"),
    ("ilp.solve.max_s", "s", "lower"),
    ("ilp.solve.variables", "count", "lower"),
    ("ilp.solve.constraints", "count", "lower"),
    ("ilp.solve.infeasible", "count", "lower"),
    ("degree.build_degree_program.self_s", "s", "lower"),
    ("degree.select_constant_degree.self_s", "s", "lower"),
    ("degree.nonempty_ratio", "ratio", "higher"),
    ("trees.monitored_bfs.calls", "count", "lower"),
    ("trees.monitored_bfs.self_s", "s", "lower"),
    ("trees.sweep_trees.self_s", "s", "lower"),
    ("trees.reduce_tree.self_s", "s", "lower"),
    ("trees.check_tree.calls", "count", "lower"),
    ("trees.check_tree.self_s", "s", "lower"),
    ("trees.best_depth_ratio", "ratio", "higher"),
    *((f"cli.{command}.self_s", "s", "lower") for command in COMMANDS),
    ("synth.grid_scenario.self_s", "s", "lower"),
    # Untraced wall time of each command and the share of failed commands,
    # taken from the untraced children of a traced run.
    ("ingest_s", "s", "lower"),
    ("analyze_s", "s", "lower"),
    ("tree_s", "s", "lower"),
    ("degree_s", "s", "lower"),
    ("fail_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _observe_read(tracer, args, kwargs, result):
    return {"bytes_read": _size(_arg(args, kwargs, 0, "path"))}


def _observe_save(tracer, args, kwargs, result):
    return {"bytes_written": _size(_arg(args, kwargs, 1, "path"))}


def _observe_render(tracer, args, kwargs, result):
    return {"bytes_written": len(result.encode("utf-8"))}


def _observe_manifest(tracer, args, kwargs, result):
    out_dir = _arg(args, kwargs, 0, "out_dir")
    inputs = _arg(args, kwargs, 3, "inputs")
    return {
        "bytes_read": sum(_size(path) for path in inputs),
        "bytes_written": _size(os.path.join(out_dir, "manifest.json")),
    }


def _observe_parse(tracer, args, kwargs, result):
    samples, rejections = result
    return {"lines": len(samples) + len(rejections), "rejected": len(rejections)}


def _observe_graph(tracer, args, kwargs, result):
    return {"edge_set": tracer.edge_set_id(result.edges)}


def _observe_solve(tracer, args, kwargs, result):
    program = _arg(args, kwargs, 0, "program")
    return {
        "variables": len(program.variables),
        "constraints": len(program.constraints),
        "infeasible": int(result.status == "infeasible"),
    }


def _observe_select(tracer, args, kwargs, result):
    family = _arg(args, kwargs, 2, "family")
    return {"selections": len(result), "bounds": len(family.betas())}


def _observe_bfs(tracer, args, kwargs, result):
    return {"depth": result.depth}


OBSERVERS = {
    "measurements.parse_campaign_log": _observe_parse,
    "io.load_matrix": _observe_read,
    "io.load_positions": _observe_read,
    "io.load_tree": _observe_read,
    "io.save_matrix": _observe_save,
    "io.save_positions": _observe_save,
    "io.save_tree": _observe_save,
    "io.save_selection": _observe_save,
    "io.write_manifest": _observe_manifest,
    "io.graph_to_dot": _observe_render,
    "io.selection_to_dot": _observe_render,
    "io.tree_to_dot": _observe_render,
    "io.degree_distribution_csv": _observe_render,
    "graphs.neighborhood_graph": _observe_graph,
    "ilp.solve": _observe_solve,
    "degree.select_constant_degree": _observe_select,
    "trees.monitored_bfs": _observe_bfs,
}


class Tracer:
    """Records one span per wrapped call, with the span that caused it."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._edge_sets: dict[frozenset, int] = {}

    def edge_set_id(self, edges: frozenset) -> int:
        return self._edge_sets.setdefault(edges, len(self._edge_sets))

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, 0.0, None])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, function):
        observe = OBSERVERS.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                start = time.perf_counter()
                self.spans[index][5] = observe(self, args, kwargs, result)
                self.spans[index][4] = time.perf_counter() - start
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch a wrapper in wherever a traced function is bound; undo on exit."""
        modules = {name: importlib.import_module(f"topogen.{name}") for name in TRACED}
        loaded = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and name.startswith("topogen.")
        ]
        patches = []
        for module_name, functions in TRACED.items():
            for function_name in functions:
                original = getattr(modules[module_name], function_name)
                wrapper = self.wrap(f"{module_name}.{function_name}", original)
                for module in loaded:
                    for attribute, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attribute, original))
                            setattr(module, attribute, wrapper)
        try:
            yield
        finally:
            for module, attribute, original in reversed(patches):
                setattr(module, attribute, original)


def self_times(spans) -> list[float]:
    """Span duration minus the time its child spans and the tracer cover."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, excluded, counts in spans:
        if parent >= 0:
            covered[parent] += end - start + excluded
    return [
        (end - start) - covered[index]
        for index, (name, start, end, parent, excluded, counts) in enumerate(spans)
    ]


def _roots(spans) -> list[str]:
    # A parent is always recorded before its children.
    roots: list[str] = []
    for name, start, end, parent, excluded, counts in spans:
        roots.append(name if parent < 0 else roots[parent])
    return roots


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced child.

    Program layers count only inside command spans (``cli.<command>``);
    ``synth`` counts only inside the harness's ``setup`` span, where the
    inputs are generated.
    """
    selfs = self_times(spans)
    roots = _roots(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    max_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    edge_sets: set[int] = set()
    depths: list[int] = []
    for index, (name, start, end, parent, excluded, span_counts) in enumerate(spans):
        in_command = roots[index].startswith("cli.")
        if name.startswith("synth.") == in_command:
            continue
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[index]
        max_s[name] = max(max_s.get(name, 0.0), end - start)
        for key, value in (span_counts or {}).items():
            if key == "edge_set":
                edge_sets.add(value)
            elif key == "depth":
                depths.append(value)
            else:
                counts[key] = counts.get(key, 0) + value

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float] = {}
    for name, unit, better in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if stat == "self_s":
            metrics[name] = self_s.get(head, 0.0)
        elif stat == "calls":
            metrics[name] = calls.get(head, 0)
        elif stat == "max_s":
            metrics[name] = max_s.get(head, 0.0)
    metrics["io.export.self_s"] = sum(self_s.get(f"io.{n}", 0.0) for n in EXPORTS)
    for key in ("lines", "rejected"):
        metrics[f"measurements.parse_campaign_log.{key}"] = counts.get(key, 0)
    for key in ("bytes_read", "bytes_written"):
        metrics[f"io.{key}"] = counts.get(key, 0)
    for key in ("variables", "constraints", "infeasible"):
        metrics[f"ilp.solve.{key}"] = counts.get(key, 0)
    metrics["graphs.useful_ratio"] = ratio(
        len(edge_sets), calls.get("graphs.neighborhood_graph", 0)
    )
    metrics["degree.nonempty_ratio"] = ratio(
        counts.get("selections", 0), counts.get("bounds", 0)
    )
    metrics["trees.best_depth_ratio"] = ratio(
        depths.count(max(depths)) if depths else 0, len(depths)
    )
    return metrics


def median_metrics(per_child: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced children."""
    return {
        name: median(child[name] for child in per_child) for name in per_child[0]
    }
