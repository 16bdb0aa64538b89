"""Command-line pipeline: ingest -> analyze -> select -> settings -> export.

All interchange is file-based and every command is deterministic for
identical inputs, so full runs can be diffed and reproduced. Exit codes:
0 success, 2 input or usage error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
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
    parser.add_argument("--beta-step", type=_finite_float, default=1.0)


def _add_out_flag(parser: argparse.ArgumentParser):
    parser.add_argument("--out", type=Path, default=Path("."), help="output directory")


def _family(matrix, args) -> graphs.GraphFamily:
    return graphs.GraphFamily(
        matrix=matrix,
        beta_min=args.beta_min,
        beta_max=args.beta_max,
        step=args.beta_step,
    )


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


def _name_undecodable_line(path):
    """Raise ValueError naming '<path>:<line>', the first line of a log not in UTF-8."""
    with open(path, "rb") as stream:
        # splitlines counts a lone carriage return as the text-mode parse does
        lines = (line for chunk in stream for line in chunk.splitlines())
        for number, line in enumerate(lines, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from None


def cmd_ingest(args) -> int:
    samples = measurements.LossColumns()
    rejections = []
    for path in args.logs:
        try:
            with open(path, encoding="utf-8") as stream:
                file_samples, file_rejections = measurements.parse_campaign_log(stream)
        except UnicodeDecodeError as exc:
            _name_undecodable_line(path)
            raise ValueError(f"{path}: {exc}") from None
        samples.extend(file_samples)
        rejections.extend((path, r) for r in file_rejections)
    matrix = measurements.build_loss_matrix(samples, aggregator=args.aggregator)
    args.out.mkdir(parents=True, exist_ok=True)
    io.save_matrix(matrix, args.out / "matrix.json")
    io.write_manifest(args.out, "ingest", _manifest_args(args), args.logs)
    print(f"{len(samples)} samples accepted, {len(rejections)} lines rejected")
    for path, rejection in rejections:
        print(f"  rejected {path}:{rejection.line_number}: {rejection.reason}")
    if not samples:
        print("warning: empty matrix (no valid samples)")
    low = measurements.warn_low_counts(matrix, args.min_count)
    for tx, rx, count in low:
        print(f"  low count {tx}->{rx}: {count} < {args.min_count}")
    print(f"wrote {args.out / 'matrix.json'}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    matrix = io.load_matrix(args.matrix)
    family = _family(matrix, args)
    args.out.mkdir(parents=True, exist_ok=True)
    distribution = graphs.degree_distribution(family)
    (args.out / "degrees.csv").write_text(
        io.degree_distribution_csv(distribution), encoding="utf-8"
    )
    report = graphs.monotonicity_report(family)
    report_lines = [
        f"{b1:g} -> {b2:g}: +{delta} edges" for b1, b2, delta in report
    ]
    (args.out / "monotonicity.txt").write_text(
        "\n".join(report_lines) + "\n", encoding="utf-8"
    )
    inputs = [args.matrix]
    if args.correlation:
        if args.positions is None:
            raise ValueError("--correlation requires --positions")
        positions = io.load_positions(args.positions)
        coefficient = measurements.distance_loss_correlation(matrix, positions)
        print(f"distance-loss correlation: {coefficient:.4f}")
        inputs.append(args.positions)
    io.write_manifest(args.out, "analyze", _manifest_args(args), inputs)
    print(f"wrote {args.out / 'degrees.csv'} and {args.out / 'monotonicity.txt'}")
    return EXIT_OK


def cmd_degree(args) -> int:
    matrix = io.load_matrix(args.matrix)
    family = _family(matrix, args)
    selections = degree.select_constant_degree(matrix, args.c, family)
    args.out.mkdir(parents=True, exist_ok=True)
    io.write_manifest(args.out, "degree", _manifest_args(args), [args.matrix])
    if not selections:
        # A selection left by an earlier run must not outlive this manifest.
        for name in ("selection.json", "selection.dot"):
            (args.out / name).unlink(missing_ok=True)
        print(f"no nonempty selection at any beta for c={args.c}")
        return EXIT_OK
    best = degree.largest_component_selection(selections)
    io.save_selection(best, args.out / "selection.json")
    (args.out / "selection.dot").write_text(
        io.selection_to_dot(best), encoding="utf-8"
    )
    print(
        f"selected {len(best.selected)} nodes at beta {best.beta:g} "
        f"(c={best.c}, connected {best.c}-regular)"
    )
    print(f"wrote {args.out / 'selection.json'} and {args.out / 'selection.dot'}")
    return EXIT_OK


def cmd_tree(args) -> int:
    matrix = _tree_matrix(args.matrix)
    kappa = trees.KappaSpec.parse(args.kappa)
    family = _family(matrix, args)
    if args.beta is not None:
        family = graphs.GraphFamily(
            matrix=matrix, beta_min=args.beta, beta_max=args.beta, step=1.0
        )
    roots = None if args.root is None else [args.root]
    best = trees.sweep_trees(matrix, kappa, args.margin, family, roots)[0]
    if args.reduce:
        best = trees.reduce_tree(best, matrix, kappa)
    violations = trees.check_tree(best, matrix, kappa)
    if violations:
        raise RuntimeError(f"constructed tree failed requirement check: {violations}")
    args.out.mkdir(parents=True, exist_ok=True)
    io.save_tree(best, args.out / "tree.json")
    (args.out / "tree.dot").write_text(
        io.tree_to_dot(best, matrix), encoding="utf-8"
    )
    io.write_manifest(args.out, "tree", _manifest_args(args), [args.matrix])
    print(
        f"best tree: root {best.root}, beta {best.beta:g}, margin {best.margin:g}, "
        f"depth {best.depth}, {best.total_nodes} nodes"
    )
    print(f"wrote {args.out / 'tree.json'} and {args.out / 'tree.dot'}")
    return EXIT_OK


def cmd_settings(args) -> int:
    profile = io.load_profile(args.profile) if args.profile else radio.AT86RF231
    options = radio.settings_for_bound(args.beta, profile, args.guard)
    for option in options:
        base = option.base
        line = f"{base.tx_power:g}/{base.sensitivity:g} ({base.budget:g} dB)"
        if option.guarded is not None and args.guard > 0:
            g = option.guarded
            line += f"  guarded: {g.tx_power:g}/{g.sensitivity:g} ({g.budget:g} dB)"
        elif option.saturated:
            line += "  guard saturated: no headroom in profile"
        print(line)
    return EXIT_OK


def cmd_verify(args) -> int:
    tree = io.load_tree(args.topology)
    fresh = io.load_matrix(args.matrix)
    kappa = trees.KappaSpec.parse(args.kappa)
    try:
        violations = trees.check_tree(tree, fresh, kappa)
    except ValueError as exc:
        raise ValueError(f"{args.matrix}: {exc}") from None
    if not violations:
        print("PASS: all requirements hold against the fresh matrix")
        return EXIT_OK
    print("FAIL:")
    for requirement, detail in violations:
        print(f"  requirement {requirement}: {detail}")
    return EXIT_VERIFY


def cmd_sweep_report(args) -> int:
    kappa = trees.KappaSpec.parse(args.kappa)
    rows = []
    for path in args.matrices:
        matrix = _tree_matrix(path)
        family = _family(matrix, args)
        swept = trees.sweep_trees(matrix, kappa, args.margin, family)
        max_depth = swept[0].depth
        betas = sorted({t.beta for t in swept if t.depth == max_depth})
        note = "no multi-hop" if max_depth < 2 else ""
        rows.append((Path(path).stem, max_depth, betas[0], betas[-1], note))
    header = f"{'testbed':<20} {'max_depth':>9} {'beta_min':>9} {'beta_max':>9}"
    print(header)
    csv_lines = ["testbed,max_depth,beta_min,beta_max,note"]
    for name, depth_value, beta_lo, beta_hi, note in rows:
        suffix = f"  ({note})" if note else ""
        print(f"{name:<20} {depth_value:>9} {beta_lo:>9g} {beta_hi:>9g}{suffix}")
        csv_lines.append(f"{name},{depth_value},{beta_lo:g},{beta_hi:g},{note}")
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "sweep_report.csv").write_text(
        "\n".join(csv_lines) + "\n", encoding="utf-8"
    )
    io.write_manifest(args.out, "sweep-report", _manifest_args(args), args.matrices)
    print(f"wrote {args.out / 'sweep_report.csv'}")
    return EXIT_OK


def cmd_synth(args) -> int:
    matrix = io.load_scenario_matrix(args.scenario, seed=args.seed)
    args.out.mkdir(parents=True, exist_ok=True)
    io.save_matrix(matrix, args.out / "matrix.json")
    io.write_manifest(args.out, "synth", _manifest_args(args), [args.scenario])
    print(
        f"generated matrix: {len(matrix.nodes)} nodes, "
        f"{len(matrix.entries)} directed entries"
    )
    print(f"wrote {args.out / 'matrix.json'}")
    return EXIT_OK


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
    p.add_argument("c", type=int, help="target node degree")
    _add_grid_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_degree)

    p = sub.add_parser("tree", help="construct a layered tree topology")
    p.add_argument("matrix", type=Path)
    p.add_argument("--kappa", default="linear", help="const:K, linear or table:1=2,...")
    p.add_argument("--margin", type=_finite_float, default=15.0)
    p.add_argument("--reduce", action="store_true", help="minimize node count")
    p.add_argument("--root", type=int, help="fix the root instead of sweeping")
    p.add_argument("--beta", type=_finite_float, help="fix the bound instead of sweeping")
    _add_grid_flags(p)
    _add_out_flag(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("settings", help="transceiver settings for a bound")
    p.add_argument("beta", type=_finite_float)
    p.add_argument("--profile", type=Path, help="radio profile file")
    p.add_argument("--guard", type=_finite_float, default=3.0)
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
    p.add_argument("--margin", type=_finite_float, default=15.0)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
