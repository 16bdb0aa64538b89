"""Command-line pipeline: ingest -> analyze -> select -> settings -> export.

All interchange is file-based and every command is deterministic for
identical inputs, so full runs can be diffed and reproduced. Exit codes:
0 success, 2 input or usage error, 3 verification failure.

A command checks its inputs and computes everything before ``_write``
puts its outputs and ``manifest.json`` into ``--out``; it returns its exit
code and stdout lines, which only ``main`` prints. So a bad input leaves
``--out`` as it was.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from io import StringIO
from pathlib import Path

from . import __version__, degree, graphs, io, measurements, radio, trees

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3
MANIFEST_SKIP = ("func", "out")  # argparse plumbing, not configuration


def _finite_float(text: str) -> float:
    """argparse type for dB values: a number, neither NaN nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, not {text!r}")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type for margins and guards: a finite dB value of 0 or more."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {text!r}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for counts: an integer of 1 or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, not {text!r}")
    return value


def _add_grid_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--beta-min", type=_finite_float, default=radio.AT86RF231.min_budget)
    parser.add_argument("--beta-max", type=_finite_float, default=radio.AT86RF231.max_budget)


def _add_out_flag(parser: argparse.ArgumentParser):
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _family(matrix, args) -> graphs.GraphFamily:
    """The family of the budget window; its error is followed by the two flags and their values."""
    try:
        return graphs.GraphFamily(matrix, args.beta_min, args.beta_max)
    except ValueError as exc:
        grid = f"(--beta-min {args.beta_min!r} --beta-max {args.beta_max!r})"
        raise ValueError(f"{exc} {grid}") from None


def _tree_matrix(path) -> measurements.LossMatrix:
    """Load a matrix for a tree command, which needs a node to root at."""
    matrix = io.load_matrix(path)
    if not matrix.nodes:
        raise ValueError(f"{path}: empty matrix, no node to root a tree at")
    return matrix


def _manifest_args(args) -> dict:
    def plain(value):
        if isinstance(value, Path):
            return str(value)
        if isinstance(value, list):
            return [plain(item) for item in value]
        return value

    return {
        key: plain(value)
        for key, value in sorted(vars(args).items())
        if key not in MANIFEST_SKIP and not callable(value)
    }


def _write(args, outputs: dict, inputs: list) -> str:
    """Write a command's outputs into ``--out``, then its manifest.

    An output is text, an ``(io.save_*, obj)`` pair, or None for a file
    that must not outlive this manifest. Returns the ``wrote`` line.
    """
    args.out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, output in outputs.items():
        path = args.out / name
        if output is None:
            path.unlink(missing_ok=True)
            continue
        if isinstance(output, str):
            path.write_text(output, encoding="utf-8")
        else:
            save, obj = output
            save(obj, path)
        written.append(str(path))
    io.write_manifest(args.out, args.command, _manifest_args(args), inputs)
    return "wrote " + " and ".join(written)


def cmd_ingest(args) -> tuple[int, list[str]]:
    try:
        measurements.parse_aggregator(args.aggregator)
    except ValueError as exc:
        raise ValueError(f"--aggregator: {exc}") from None
    samples = measurements.LossColumns()
    rejections = []
    for path in args.logs:
        # An undecodable byte reads as the ASCII text \xff, which no number
        # accepts, so it rejects only its own line.
        with open(path, encoding="utf-8", errors="backslashreplace") as stream:
            _, file_rejections = measurements.parse_campaign_log(stream, samples)
        rejections.extend((path, r) for r in file_rejections)
    try:
        matrix = measurements.build_loss_matrix(samples, aggregator=args.aggregator)
    except measurements.ChannelMismatchError as exc:
        raise ValueError(f"{', '.join(map(str, args.logs))}: {exc}") from None
    lines = [f"{len(samples)} samples accepted, {len(rejections)} lines rejected"]
    for path, rejection in rejections:
        lines.append(f"  rejected {path}:{rejection.line_number}: {rejection.reason}")
    if not samples:
        lines.append("warning: empty matrix (no valid samples)")
    for tx, rx, count in measurements.warn_low_counts(matrix, args.min_count):
        lines.append(f"  low count {tx}->{rx}: {count} < {args.min_count}")
    lines.append(_write(args, {"matrix.json": (io.save_matrix, matrix)}, args.logs))
    return EXIT_OK, lines


def cmd_analyze(args) -> tuple[int, list[str]]:
    if args.correlation != (args.positions is not None):
        raise ValueError("--correlation and --positions go together: give both or neither")
    matrix = io.load_matrix(args.matrix)
    distribution = graphs.degree_distribution(matrix, _family(matrix, args).betas())
    degrees_csv = io.degree_distribution_csv(distribution)
    monotonicity = "".join(
        f"{b1:g} -> {b2:g}: +{delta} edges\n"
        for b1, b2, delta in graphs.monotonicity_report(distribution)
    )
    inputs, lines = [args.matrix], []
    if args.correlation:
        positions = io.load_positions(args.positions)
        try:
            coefficient = measurements.distance_loss_correlation(matrix, positions)
        except measurements.PositionsError as exc:
            raise ValueError(f"{args.positions}: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{args.matrix}: {exc}") from None
        lines.append(f"distance-loss correlation: {coefficient:.4f}")
        inputs.append(args.positions)
    outputs = {"degrees.csv": degrees_csv, "monotonicity.txt": monotonicity}
    lines.append(_write(args, outputs, inputs))
    return EXIT_OK, lines


def cmd_degree(args) -> tuple[int, list[str]]:
    matrix = io.load_matrix(args.matrix)
    selections = degree.select_constant_degree(matrix, args.c, _family(matrix, args))
    if not selections:
        # A selection left by an earlier run must not outlive this manifest.
        _write(args, {"selection.json": None, "selection.dot": None}, [args.matrix])
        return EXIT_OK, [f"no nonempty selection at any beta for c={args.c}"]
    best = degree.largest_component_selection(selections)
    outputs = {
        "selection.json": (io.save_selection, best),
        "selection.dot": io.selection_to_dot(best),
    }
    return EXIT_OK, [
        f"selected {len(best.selected)} nodes at beta {best.beta:g} "
        f"(c={best.c}, connected {best.c}-regular)",
        _write(args, outputs, [args.matrix]),
    ]


def cmd_tree(args) -> tuple[int, list[str]]:
    kappa = trees.KappaSpec.parse(args.kappa)
    matrix = _tree_matrix(args.matrix)
    family = _family(matrix, args)
    if args.root is not None and args.root not in matrix.nodes:
        raise ValueError(f"--root: unknown root {args.root}, not a node of {args.matrix}")
    roots = None if args.root is None else [args.root]
    best = trees.sweep_trees(matrix, kappa, args.margin, family, roots)[0]
    violations = trees.check_tree(best, matrix, kappa)
    if violations:
        raise RuntimeError(f"constructed tree failed requirement check: {violations}")
    if args.reduce:  # reduce_tree checks the tree it returns
        best = trees.reduce_tree(best, matrix, kappa)
    outputs = {"tree.json": (io.save_tree, best), "tree.dot": io.tree_to_dot(best, matrix)}
    return EXIT_OK, [
        f"best tree: root {best.root}, beta {best.beta:g}, margin {best.margin:g}, "
        f"depth {best.depth}, {best.total_nodes} nodes",
        _write(args, outputs, [args.matrix]),
    ]


def cmd_settings(args) -> tuple[int, list[str]]:
    profile = io.load_profile(args.profile) if args.profile else radio.AT86RF231
    lines = []
    for option in radio.settings_for_bound(args.beta, profile, args.guard):
        base = option.base
        line = f"{base.tx_power:g}/{base.sensitivity:g} ({base.budget:g} dB)"
        if option.guarded is None:
            line += "  guard saturated: no headroom in profile"
        elif args.guard > 0:
            g = option.guarded
            line += f"  guarded: {g.tx_power:g}/{g.sensitivity:g} ({g.budget:g} dB)"
        lines.append(line)
    return EXIT_OK, lines


def cmd_verify(args) -> tuple[int, list[str]]:
    kappa = trees.KappaSpec.parse(args.kappa)
    tree = io.load_tree(args.topology)
    fresh = io.load_matrix(args.matrix)
    try:
        violations = trees.check_tree(tree, fresh, kappa)
    except ValueError as exc:
        raise ValueError(f"{args.matrix}: {exc}") from None
    if not violations:
        return EXIT_OK, ["PASS: all requirements hold against the fresh matrix"]
    return EXIT_VERIFY, ["FAIL:"] + [
        f"  requirement {requirement}: {detail}" for requirement, detail in violations
    ]


def cmd_sweep_report(args) -> tuple[int, list[str]]:
    kappa = trees.KappaSpec.parse(args.kappa)
    lines = [f"{'testbed':<20} {'max_depth':>9} {'beta_min':>9} {'beta_max':>9}"]
    csv_text = StringIO()
    rows = csv.writer(csv_text, lineterminator="\n")
    rows.writerow(["testbed", "max_depth", "beta_min", "beta_max", "note"])
    for path in args.matrices:
        matrix = _tree_matrix(path)
        swept = trees.sweep_trees(matrix, kappa, args.margin, _family(matrix, args))
        depth = swept[0].depth
        betas = sorted({t.beta for t in swept})
        note = "no multi-hop" if depth < 2 else ""
        suffix = f"  ({note})" if note else ""
        name = str(path).removesuffix(".json")  # every matrix topogen writes is matrix.json
        lines.append(f"{name:<20} {depth:>9} {betas[0]:>9g} {betas[-1]:>9g}{suffix}")
        rows.writerow([name, depth, f"{betas[0]:g}", f"{betas[-1]:g}", note])
    lines.append(_write(args, {"sweep_report.csv": csv_text.getvalue()}, args.matrices))
    return EXIT_OK, lines


def cmd_synth(args) -> tuple[int, list[str]]:
    matrix = io.load_scenario_matrix(args.scenario, seed=args.seed)
    return EXIT_OK, [
        f"generated matrix: {len(matrix.nodes)} nodes, "
        f"{len(matrix.entries)} directed entries",
        _write(args, {"matrix.json": (io.save_matrix, matrix)}, [args.scenario]),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topogen",
        description="Construct multi-hop topologies in dense wireless testbeds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse campaign logs into a loss matrix")
    p.add_argument("logs", nargs="+", type=Path)
    p.add_argument("--aggregator", default="mean", help="mean, median or pNN")
    p.add_argument("--min-count", type=_positive_int, default=250)
    _add_out_flag(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("analyze", help="degree distribution and diagnostics")
    p.add_argument("matrix", type=Path)
    p.add_argument("--positions", type=Path)
    p.add_argument("--correlation", action="store_true")
    _add_grid_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("degree", help="select a constant-degree topology")
    p.add_argument("matrix", type=Path)
    p.add_argument("c", type=_positive_int, help="target node degree")
    _add_grid_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("tree", help="construct a layered tree topology")
    p.add_argument("matrix", type=Path)
    p.add_argument("--kappa", default="linear", help="const:K, linear or table:1=2,...")
    p.add_argument("--margin", type=_nonnegative_float, default=15.0)
    p.add_argument("--reduce", action="store_true", help="minimize node count")
    p.add_argument("--root", type=int, help="fix the root instead of sweeping")
    _add_grid_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("settings", help="transceiver settings for a bound")
    p.add_argument("beta", type=_finite_float)
    p.add_argument("--profile", type=Path, help="radio profile file")
    p.add_argument("--guard", type=_nonnegative_float, default=3.0)
    p.set_defaults(func=cmd_settings)

    p = sub.add_parser("verify", help="revalidate a topology against fresh data")
    p.add_argument("topology", type=Path)
    p.add_argument("matrix", type=Path)
    p.add_argument("--kappa", default="linear")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "sweep-report", help="per-testbed max depth and bound range"
    )
    p.add_argument("matrices", nargs="+", type=Path)
    p.add_argument("--kappa", default="linear")
    p.add_argument("--margin", type=_nonnegative_float, default=15.0)
    _add_grid_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_sweep_report)

    p = sub.add_parser("synth", help="generate a synthetic loss matrix")
    p.add_argument("scenario", type=Path)
    p.add_argument("--seed", type=int, help="override the scenario's seed")
    _add_out_flag(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, lines = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()  # a reader that closed the pipe fails here, not at exit
    except BrokenPipeError:
        # Outputs are already written; keep the command's code and drop the rest.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
