import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import matrix_from_losses, save_profile
from topogen import degree, graphs, io, trees
from topogen.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main
from topogen.radio import AT86RF231, TransceiverProfile
from topogen.synth import chain_scenario, grid_positions, grid_scenario
from topogen.trees import KappaSpec, monitored_bfs


def write_chain_scenario(path, n=6, on=45, off=90):
    path.write_text(
        json.dumps(
            {"format": io.SCENARIO_FORMAT, "kind": "chain", "n": n, "on_loss": on, "off_loss": off}
        )
    )


def write_chain_matrix(tmp_path, name="matrix.json", n=6):
    path = tmp_path / name
    io.save_matrix(chain_scenario(n, 45, 90), path)
    return path


def test_synth_and_rerun_byte_identical(tmp_path):
    scenario = tmp_path / "scenario.json"
    write_chain_scenario(scenario)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["synth", str(scenario), "--out", str(out_a)]) == EXIT_OK
    assert main(["synth", str(scenario), "--out", str(out_b)]) == EXIT_OK
    assert (out_a / "matrix.json").read_bytes() == (out_b / "matrix.json").read_bytes()


def test_synth_seed_override(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps(
            {"format": io.SCENARIO_FORMAT, "kind": "grid", "rows": 2, "cols": 3,
             "spacing": 1.0, "shadowing_sigma": 5.0, "seed": 1}
        )
    )
    out_default = tmp_path / "default"
    out_override = tmp_path / "override"
    assert main(["synth", str(scenario), "--out", str(out_default)]) == EXIT_OK
    assert main(["synth", str(scenario), "--seed", "2", "--out", str(out_override)]) == EXIT_OK
    a = io.load_matrix(out_default / "matrix.json")
    b = io.load_matrix(out_override / "matrix.json")
    assert a.meta["seed"] == 1 and b.meta["seed"] == 2
    assert a.entries != b.entries


@pytest.mark.parametrize("fields, seed, error", [
    ({"kind": "chain", "n": 3, "on_loss": 45, "off_loss": 90}, "5",
     "{scenario}: --seed 5: a chain scenario has no random draws"),
    ({"kind": "grid", "rows": 2, "cols": 2, "spacing": 1.0}, "-3",
     "--seed -3 is not a non-negative integer"),
], ids=["chain", "negative"])
def test_synth_seed_flag_errors_name_the_flag(tmp_path, capsys, fields, seed, error):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"format": io.SCENARIO_FORMAT, **fields}))
    out = tmp_path / "out"
    assert main(["synth", str(scenario), "--seed", seed, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {error.format(scenario=scenario)}\n"
    assert not out.exists()


NAN = float("nan")


def placed(*coordinates, nodes=None):
    """A scenario's ``positions`` list: node i, or ``nodes[i]``, at ``coordinates[i]``."""
    return [
        {"node": i if nodes is None else nodes[i], "x": x, "y": y, "z": z}
        for i, (x, y, z) in enumerate(coordinates)
    ]


# case: (scenario fields, start of the error after the path)
BAD_SCENARIOS = {
    "NaN spacing": ({"kind": "grid", "rows": 2, "cols": 2, "spacing": NAN}, "spacing nan"),
    "NaN reference loss": (
        {"kind": "grid", "rows": 2, "cols": 2, "spacing": 1.0, "reference_loss": NAN},
        "reference_loss nan"),
    "negative reference loss": (
        {"kind": "grid", "rows": 2, "cols": 2, "spacing": 1.0, "reference_loss": -1.0},
        "reference_loss -1.0 is a negative loss"),
    "infinite sigma": (
        {"kind": "grid", "rows": 2, "cols": 2, "spacing": 1.0, "shadowing_sigma": float("inf")},
        "shadowing_sigma inf"),
    "NaN position": (
        {"kind": "log-distance", "positions": placed((0, 0, 0), (NAN, 1, 0))},
        "positions[1].x nan"),
    "overflowing distance": (
        {"kind": "log-distance", "positions": placed((-1e308, 0, 0), (1e308, 0, 0))},
        "loss 0 -> 1 inf"),
    "negative chain loss": (
        {"kind": "chain", "n": 3, "on_loss": -5, "off_loss": 90}, "on_loss -5 is a negative loss"),
    "infinite chain loss": (
        {"kind": "chain", "n": 3, "on_loss": 45, "off_loss": float("inf")}, "off_loss inf"),
    "misspelt field": (
        {"kind": "grid", "rows": 2, "cols": 2, "spacing": 1.0, "shadowing_sgima": 4.0},
        "generate() got an unexpected keyword argument 'shadowing_sgima'"),
    "positions as an object": (
        {"kind": "log-distance", "positions": {"0": [0, 0, 0], "1": [1, 0, 0]}},
        "positions: expected a list, found {'0': [0, 0, 0], '1': [1, 0, 0]}"),
    "positions as a list": (
        {"kind": "log-distance", "positions": [[0, 0, 0], [1, 0, 0]]},
        "positions[0]: expected an object, found list"),
    "repeated position id": (
        {"kind": "log-distance", "positions": placed((0, 0, 0), (1, 0, 0), nodes=[0, 0])},
        "positions[1].node: node 0 repeats positions[0]"),
    "seed on a chain": (
        {"kind": "chain", "n": 3, "on_loss": 45, "off_loss": 90, "seed": 1},
        "chain_scenario() got an unexpected keyword argument 'seed'"),
    "sigma as a string": (
        {"kind": "grid", "rows": 2, "cols": 2, "spacing": 1.0, "shadowing_sigma": "4"},
        "shadowing_sigma '4' is not a finite number"),
    "sigma as a bool": (
        {"kind": "grid", "rows": 2, "cols": 2, "spacing": 1.0, "shadowing_sigma": True},
        "shadowing_sigma True is not a finite number"),
    "missing rows": (
        {"kind": "grid", "cols": 2, "spacing": 1.0},
        "grid_scenario() missing 1 required positional argument: 'rows'"),
    "channel as a string": (
        {"kind": "grid", "rows": 2, "cols": 2, "spacing": 1.0, "channel": "x"},
        "channel 'x' is not an integer in 11-26"),
    "channel out of range": (
        {"kind": "grid", "rows": 2, "cols": 2, "spacing": 1.0, "channel": 99},
        "channel 99 is not an integer in 11-26"),
    "channel as a bool": (
        {"kind": "grid", "rows": 2, "cols": 2, "spacing": 1.0, "channel": True},
        "channel True is not an integer in 11-26"),
    "chain channel out of range": (
        {"kind": "chain", "n": 3, "on_loss": 45, "off_loss": 90, "channel": 10},
        "channel 10 is not an integer in 11-26"),
    "negative seed": (
        {"kind": "grid", "rows": 2, "cols": 2, "spacing": 1.0, "shadowing_sigma": 4.0,
         "seed": -1},
        "seed -1 is not a non-negative integer"),
    "rows as a string": (
        {"kind": "grid", "rows": "2", "cols": 2, "spacing": 1.0},
        "rows '2' is not a non-negative integer"),
    "cols as a string": (
        {"kind": "grid", "rows": 2, "cols": "2", "spacing": 1.0},
        "cols '2' is not a non-negative integer"),
    "chain length as a string": (
        {"kind": "chain", "n": "3", "on_loss": 45, "off_loss": 90},
        "n '3' is not a non-negative integer"),
    "position as a number": (
        {"kind": "log-distance", "positions": [*placed((0, 0, 0)), 5]},
        "positions[1]: expected an object, found int"),
    "two-dimensional positions": (
        {"kind": "log-distance", "positions": [{"node": 0, "x": 0, "y": 0}]},
        "positions[0]: missing field 'z'"),
    "mixed-length positions": (
        {"kind": "log-distance", "positions": [*placed((0, 0, 0)), {"node": 1, "x": 1, "y": 0}]},
        "positions[1]: missing field 'z'"),
    "position without a node": (
        {"kind": "log-distance", "positions": [*placed((0, 0, 0)), {"x": 1, "y": 0, "z": 0}]},
        "positions[1]: missing field 'node'"),
    "one-node grid": (
        {"kind": "grid", "rows": 1, "cols": 1, "spacing": 1.0},
        "need at least 2 positioned nodes"),
    "zero spacing": (
        {"kind": "grid", "rows": 2, "cols": 2, "spacing": 0}, "spacing must be positive"),
    "negative position id": (
        {"kind": "log-distance", "positions": placed((0, 0, 0), (1, 0, 0), nodes=[-1, 1])},
        "positions: node id -1 is negative"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCENARIOS))
def test_synth_names_a_non_finite_or_negative_field(tmp_path, capsys, case):
    fields, detail = BAD_SCENARIOS[case]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"format": io.SCENARIO_FORMAT, **fields}))
    out = tmp_path / "out"
    assert main(["synth", str(scenario), "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {scenario}: {detail}")
    assert not out.exists()


def test_ingest_round_trip(tmp_path, capsys):
    log = tmp_path / "campaign.log"
    log.write_text(
        "# header\n"
        "3 7 3.0 -60.0 17 42\n"
        "7 3 3.0 -58.0 17 43\n"
        "bad line here\n"
    )
    out = tmp_path / "out"
    assert main(["ingest", str(log), "--out", str(out), "--min-count", "2"]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "2 samples accepted, 1 lines rejected" in captured
    assert "low count" in captured
    matrix = io.load_matrix(out / "matrix.json")
    assert matrix.entries[(3, 7)].mean_loss == 63.0
    assert (out / "manifest.json").exists()


def test_ingest_mixed_channels_fails(tmp_path, capsys):
    log_a = tmp_path / "a.log"
    log_a.write_text("1 2 3.0 -60.0 17 0\n")
    log_b = tmp_path / "b.log"
    log_b.write_text("2 1 3.0 -60.0 26 0\n")
    assert main(["ingest", str(log_a), str(log_b), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: {log_a}, {log_b}: samples mix channels 17 and 26\n"


def test_ingest_rejects_non_finite_levels(tmp_path, capsys):
    log = tmp_path / "campaign.log"
    log.write_text("1 2 3.0 -60.0 26 0\n2 1 3 -inf 26 0\n2 1 3.0 -61.0 26 1\n")
    out = tmp_path / "out"
    assert main(["ingest", str(log), "--out", str(out), "--min-count", "1"]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "2 samples accepted, 1 lines rejected" in captured
    assert f"rejected {log}:2: non-finite rssi -inf" in captured
    matrix = io.load_matrix(out / "matrix.json")
    assert matrix.entries[(2, 1)].mean_loss == 64.0 and matrix.entries[(2, 1)].count == 1


def test_ingest_keeps_a_mean_near_the_float_maximum(tmp_path, capsys):
    # a float sum of the two losses overflows; the exact mean is the loss itself
    log = tmp_path / "campaign.log"
    log.write_text("1 2 1e308 -60 26 0\n1 2 1e308 -60 26 1\n2 1 3.0 -60.0 26 0\n")
    out = tmp_path / "out"
    assert main(["ingest", str(log), "--out", str(out), "--min-count", "1"]) == EXIT_OK
    assert capsys.readouterr().err == ""
    entry = io.load_matrix(out / "matrix.json").entries[(1, 2)]
    assert (entry.mean_loss, entry.stddev, entry.count) == (1e308, 0.0, 2)


def test_ingest_rounds_the_mean_once(tmp_path):
    # numpy's float sum gives 0.20000000000000004; the exact mean rounds to 0.2
    log = tmp_path / "campaign.log"
    log.write_text("1 2 0 -0.1 26 0\n1 2 0 -0.2 26 1\n1 2 0 -0.3 26 2\n2 1 0 -0.1 26 0\n")
    out = tmp_path / "out"
    assert main(["ingest", str(log), "--out", str(out), "--min-count", "1"]) == EXIT_OK
    assert '"mean_loss": 0.2,' in (out / "matrix.json").read_text()


def test_ingest_empty_log_warns(tmp_path, capsys):
    log = tmp_path / "empty.log"
    log.write_text("# nothing\n")
    assert main(["ingest", str(log), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert "empty matrix" in capsys.readouterr().out


@pytest.mark.parametrize(
    "value, reason",
    [("0", "must be >= 1, not '0'"), ("-3", "must be >= 1, not '-3'"),
     ("two", "not an integer: 'two'")],
)
def test_ingest_min_count_must_be_a_positive_integer(tmp_path, capsys, value, reason):
    log = tmp_path / "campaign.log"
    log.write_text("0 1 3 -40 26 0\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["ingest", str(log), "--min-count", value, "--out", str(out)])
    assert exit_info.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"argument --min-count: {reason}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "value, reason",
    [("0", "must be >= 1, not '0'"), ("-3", "must be >= 1, not '-3'"),
     ("two", "not an integer: 'two'")],
)
def test_degree_c_must_be_a_positive_integer(tmp_path, capsys, value, reason):
    # the matrix does not exist: c is refused before it would be read
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["degree", str(tmp_path / "missing.json"), value, "--out", str(out)])
    assert exit_info.value.code == EXIT_INPUT
    captured = capsys.readouterr()
    assert f"argument c: {reason}" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, reason",
    [
        ("p101", "percentile 101.0 outside [0, 100]"),
        ("mode", "unknown aggregator 'mode'"),
        ("pxyz", "unknown aggregator 'pxyz'"),
    ],
)
def test_ingest_checks_the_aggregator_before_any_log(tmp_path, capsys, spec, reason):
    # the log does not exist: the spec is refused before it would be opened
    out = tmp_path / "out"
    argv = ["ingest", str(tmp_path / "missing.log"), "--aggregator", spec, "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: --aggregator: {reason}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, files", [("tree", 1), ("verify", 2)])
def test_kappa_is_checked_before_any_file(tmp_path, capsys, command, files):
    # neither the tree nor the matrix exists: the spec is refused before either is read
    missing = str(tmp_path / "missing.json")
    assert main([command, *[missing] * files, "--kappa", "cubic"]) == EXIT_INPUT
    detail = "expected const:K, linear or table:D=B,..."
    assert capsys.readouterr() == ("", f"error: kappa spec 'cubic': {detail}\n")


def test_ingest_names_a_log_that_is_not_utf8(tmp_path, capsys):
    log = tmp_path / "campaign.log"
    # 10,000 lines put the bad byte far past the first 8 KiB decode chunk
    for valid in (1, 10_000):
        out = tmp_path / f"out{valid}"
        prefix = b"".join(b"0 1 3 -40 26 %d\n" % seq for seq in range(valid))
        # the bad byte rejects its own line; one inside a comment is accepted
        log.write_bytes(prefix + b"0 1 3 \xff40 26 1\n0 1 3 -40 26 0  # \xfe\n")
        assert main(["ingest", str(log), "--min-count", "1", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[:3] == [
            f"{valid + 1} samples accepted, 1 lines rejected",
            rf"  rejected {log}:{valid + 1}: could not convert string to float: '\\xff40'",
            f"wrote {out / 'matrix.json'}",
        ]
        assert io.load_matrix(out / "matrix.json").entries[(0, 1)].count == valid + 1


def test_analyze_chain(tmp_path):
    matrix = write_chain_matrix(tmp_path)
    out = tmp_path / "out"
    assert (
        main(
            ["analyze", str(matrix), "--out", str(out),
             "--beta-min", "40", "--beta-max", "95"]
        )
        == EXIT_OK
    )
    csv = (out / "degrees.csv").read_text().splitlines()
    assert csv[0] == "beta,degree,count"
    rows = {tuple(line.split(",")) for line in csv[1:]}
    assert ("40", "0", "6") in rows          # below every loss
    assert ("45", "1", "2") in rows          # path graph endpoints
    assert ("45", "2", "4") in rows
    assert ("90", "5", "6") in rows          # full mesh
    assert "edges" in (out / "monotonicity.txt").read_text()


def test_analyze_correlation_requires_positions(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path)
    code = main(["analyze", str(matrix), "--correlation", "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert "--positions" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags", [["--correlation"], ["--positions", "p.json"]], ids=["correlation", "positions"]
)
def test_analyze_checks_its_flag_pair_before_the_matrix(tmp_path, capsys, flags):
    # neither the matrix nor p.json exists: the pair is refused before either is read
    out = tmp_path / "o"
    assert main(["analyze", str(tmp_path / "missing.json"), *flags, "--out", str(out)]) == EXIT_INPUT
    detail = "--correlation and --positions go together: give both or neither"
    assert capsys.readouterr() == ("", f"error: {detail}\n")
    assert not out.exists()


def test_analyze_correlation_with_positions(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path)
    positions = tmp_path / "positions.json"
    io.save_positions({i: (float(i), 0.0, 0.0) for i in range(6)}, positions)
    code = main(
        ["analyze", str(matrix), "--correlation", "--positions", str(positions),
         "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_OK
    assert "distance-loss correlation:" in capsys.readouterr().out


@pytest.mark.parametrize("scale", [1e150, 1e-170])
def test_analyze_correlation_is_scale_free(tmp_path, capsys, scale):
    # at either scale, the sums of squares behind Pearson's r overflow or underflow a float
    matrix = tmp_path / "matrix.json"
    io.save_matrix(grid_scenario(5, 5, 10.0, shadowing_sigma=4.0, seed=1), matrix)
    lines = []
    for factor in (1.0, scale):
        positions = tmp_path / f"positions-{factor}.json"
        placed = {n: tuple(factor * v for v in p) for n, p in grid_positions(5, 5, 10.0).items()}
        io.save_positions(placed, positions)
        argv = ["analyze", str(matrix), "--correlation", "--positions", str(positions)]
        assert main([*argv, "--out", str(tmp_path / f"o-{factor}")]) == EXIT_OK
        lines.append(capsys.readouterr().out.splitlines()[0])
    assert lines[0].startswith("distance-loss correlation: 0.")
    assert lines[1] == lines[0]


# case: (losses of a matrix over nodes 0-2, text after the matrix file's name)
CORRELATION_MATRIX_FAILURES = {
    "one entry": ({(0, 1): 45.0}, "insufficient data: need at least 2 entries"),
    "equal losses": (
        {(0, 1): 45.0, (0, 2): 45.0}, "degenerate: zero variance in distance or loss"),
}


@pytest.mark.parametrize("case", sorted(CORRELATION_MATRIX_FAILURES))
def test_analyze_correlation_error_names_the_matrix(tmp_path, capsys, case):
    losses, detail = CORRELATION_MATRIX_FAILURES[case]
    matrix = tmp_path / "matrix.json"
    io.save_matrix(matrix_from_losses(losses, nodes=[0, 1, 2]), matrix)
    positions = tmp_path / "positions.json"
    io.save_positions({i: (float(i), 0.0, 0.0) for i in range(3)}, positions)
    argv = ["analyze", str(matrix), "--correlation", "--positions", str(positions)]
    assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {matrix}: {detail}\n"


def test_every_analyzed_bound_has_a_radio_setting(tmp_path):
    matrix = write_chain_matrix(tmp_path)
    out = tmp_path / "out"
    assert main(["analyze", str(matrix), "--beta-min", "40.5", "--beta-max", "50.5",
                 "--out", str(out)]) == EXIT_OK
    rows = (out / "degrees.csv").read_text().splitlines()[1:]
    betas = sorted({row.split(",")[0] for row in rows}, key=float)
    assert betas == [str(beta) for beta in range(41, 51)]
    assert all(main(["settings", beta]) == EXIT_OK for beta in betas)


def test_analyze_of_one_budget_has_no_monotonicity_delta(tmp_path):
    matrix = write_chain_matrix(tmp_path)
    out = tmp_path / "out"
    assert main(["analyze", str(matrix), "--beta-min", "50", "--beta-max", "50",
                 "--out", str(out)]) == EXIT_OK
    assert (out / "degrees.csv").read_text() == "beta,degree,count\n50,1,2\n50,2,4\n"
    assert (out / "monotonicity.txt").read_bytes() == b""


# case: analyze flags that fail after the matrix loads; "P" stands for positions lacking node 5
ANALYZE_FAILURES = {
    "positions lacking a node": ["--beta-min", "40", "--beta-max", "50", "--correlation",
                                 "--positions", "P"],
}


@pytest.mark.parametrize("case", sorted(ANALYZE_FAILURES))
def test_failing_analyze_leaves_out_as_it_was(tmp_path, capsys, case):
    matrix = write_chain_matrix(tmp_path)
    positions = tmp_path / "positions.json"
    io.save_positions({i: (float(i), 0.0, 0.0) for i in range(5)}, positions)
    flags = [str(positions) if flag == "P" else flag for flag in ANALYZE_FAILURES[case]]
    out = tmp_path / "out"
    assert main(["analyze", str(matrix), "--out", str(out)]) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == ["degrees.csv", "manifest.json", "monotonicity.txt"]
    capsys.readouterr()
    assert main(["analyze", str(matrix), "--out", str(out), *flags]) == EXIT_INPUT
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    fresh = tmp_path / "fresh"
    assert main(["analyze", str(matrix), "--out", str(fresh), *flags]) == EXIT_INPUT
    assert not fresh.exists()
    assert capsys.readouterr().out == ""


def run_into_closed_stdout(argv):
    """Exit code and stderr of the CLI run with stdout on a pipe nobody reads."""
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "topogen.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    return done.returncode, done.stderr.decode()


def test_a_closed_stdout_keeps_the_exit_code(tmp_path):
    assert run_into_closed_stdout(["settings", "82"]) == (EXIT_OK, "")
    matrix = write_chain_matrix(tmp_path)
    tree = tmp_path / "tree.json"
    one = KappaSpec.parse("const:1")
    io.save_tree(monitored_bfs(chain_scenario(6, 45, 90), 0, 50, 15, one), tree)
    argv = ["verify", str(tree), str(matrix), "--kappa", "const:2"]
    assert run_into_closed_stdout(argv) == (EXIT_VERIFY, "")


def test_degree_four_cycle(tmp_path, capsys):
    from helpers import symmetric_matrix

    matrix_path = tmp_path / "cycle.json"
    io.save_matrix(
        symmetric_matrix({(0, 1): 45.0, (1, 2): 45.0, (2, 3): 45.0, (0, 3): 45.0}),
        matrix_path,
    )
    out = tmp_path / "out"
    assert (
        main(["degree", str(matrix_path), "2", "--out", str(out),
              "--beta-min", "45", "--beta-max", "50"])
        == EXIT_OK
    )
    selection = io.load_selection(out / "selection.json")
    assert selection.selected == frozenset({0, 1, 2, 3})
    assert (out / "selection.dot").read_text().count("--") == 4


def test_degree_no_selection(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path)
    code = main(["degree", str(matrix), "99", "--out", str(tmp_path / "o"),
                 "--beta-min", "40", "--beta-max", "60"])
    assert code == EXIT_OK
    assert "no nonempty selection at any beta" in capsys.readouterr().out


def test_degree_no_selection_removes_an_earlier_selection(tmp_path):
    matrix = write_chain_matrix(tmp_path)
    out = tmp_path / "o"
    grid = ["--beta-min", "40", "--beta-max", "60"]
    assert main(["degree", str(matrix), "1", "--out", str(out), *grid]) == EXIT_OK
    assert (out / "selection.json").exists() and (out / "selection.dot").exists()
    assert main(["degree", str(matrix), "99", "--out", str(out), *grid]) == EXIT_OK
    assert not (out / "selection.json").exists()
    assert not (out / "selection.dot").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["arguments"]["c"] == 99


def test_tree_chain(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path)
    out = tmp_path / "out"
    code = main(["tree", str(matrix), "--kappa", "const:1", "--out", str(out),
                 "--beta-min", "40", "--beta-max", "60"])
    assert code == EXIT_OK
    tree = io.load_tree(out / "tree.json")
    assert tree.depth == 5
    assert "depth 5" in capsys.readouterr().out


def test_tree_root_flag_gives_shallower_tree(tmp_path):
    matrix = write_chain_matrix(tmp_path)
    out_sweep = tmp_path / "sweep"
    out_mid = tmp_path / "mid"
    args = ["--kappa", "const:1", "--beta-min", "40", "--beta-max", "60"]
    main(["tree", str(matrix), "--out", str(out_sweep), *args])
    main(["tree", str(matrix), "--root", "3", "--out", str(out_mid), *args])
    best = io.load_tree(out_sweep / "tree.json")
    mid = io.load_tree(out_mid / "tree.json")
    assert mid.root == 3
    assert mid.depth < best.depth


def test_tree_reduce_flag(tmp_path):
    from helpers import symmetric_matrix

    losses = {(0, 1): 45.0, (0, 2): 45.0, (1, 3): 45.0, (1, 4): 45.0}
    matrix_path = tmp_path / "bushy.json"
    io.save_matrix(symmetric_matrix(losses), matrix_path)
    args = ["--kappa", "const:1", "--margin", "0",
            "--beta-min", "50", "--beta-max", "50",
            "--root", "0"]
    out_full = tmp_path / "full"
    out_reduced = tmp_path / "reduced"
    main(["tree", str(matrix_path), "--out", str(out_full), *args])
    main(["tree", str(matrix_path), "--reduce", "--out", str(out_reduced), *args])
    full = io.load_tree(out_full / "tree.json")
    reduced = io.load_tree(out_reduced / "tree.json")
    assert reduced.depth == full.depth
    assert reduced.total_nodes < full.total_nodes


def test_tree_checks_the_swept_and_the_reduced_tree(tmp_path, monkeypatch):
    from helpers import symmetric_matrix

    check, checked = trees.check_tree, []

    def recording(tree, matrix, kappa):
        checked.append(tree)
        return check(tree, matrix, kappa)

    monkeypatch.setattr(trees, "check_tree", recording)
    matrix = tmp_path / "bushy.json"
    io.save_matrix(symmetric_matrix({(0, 1): 45.0, (0, 2): 45.0, (1, 3): 45.0}), matrix)
    args = [str(matrix), "--kappa", "const:1", "--beta-min", "50", "--beta-max", "50",
            "--root", "0"]
    assert main(["tree", *args, "--out", str(tmp_path / "swept")]) == EXIT_OK
    assert main(["tree", *args, "--reduce", "--out", str(tmp_path / "reduced")]) == EXIT_OK
    swept = io.load_tree(tmp_path / "swept" / "tree.json")
    reduced = io.load_tree(tmp_path / "reduced" / "tree.json")
    assert swept != reduced
    assert checked == [swept, swept, reduced]


def test_tree_reduces_a_star_of_300_leaves(tmp_path, capsys):
    from helpers import symmetric_matrix

    matrix = tmp_path / "star.json"
    io.save_matrix(symmetric_matrix({(0, leaf): 45.0 for leaf in range(1, 301)}), matrix)
    out = tmp_path / "out"
    argv = ["tree", str(matrix), "--kappa", "const:3", "--reduce", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert "root 0, beta 45, margin 15, depth 1, 4 nodes" in capsys.readouterr().out
    assert io.load_tree(out / "tree.json").levels == (frozenset({0}), frozenset({298, 299, 300}))


def test_no_command_imports_numpy(tmp_path):
    scenario = tmp_path / "grid.json"
    scenario.write_text(json.dumps(
        {"format": "synth-scenario/1", "kind": "grid", "rows": 4, "cols": 4, "spacing": 3,
         "shadowing_sigma": 4, "asymmetry_sigma": 1}
    ))
    matrix = str(tmp_path / "synth" / "matrix.json")
    commands = [
        ["synth", str(scenario), "--out", str(tmp_path / "synth")],
        ["tree", matrix, "--out", str(tmp_path / "tree")],
        ["degree", matrix, "3", "--out", str(tmp_path / "degree")],
    ]
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
        "from topogen.cli import main\n"
        f"print([main(argv) for argv in {commands!r}])\n"
    )
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[0, 0, 0]"


def test_settings_output(tmp_path, capsys):
    assert main(["settings", "46"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "-17/-63 (46 dB)" in out
    assert "guarded: -17/-66 (49 dB)" in out

    assert main(["settings", "104"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "3/-101 (104 dB)" in out
    assert "guard saturated" in out

    assert main(["settings", "30"]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["settings", "46.5"]) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", "error: bound 46.5 not exactly realizable with profile AT86RF231\n"
    )


def test_verify_fails_a_node_in_two_levels(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path, n=4)
    tree = tmp_path / "tree.json"
    levels = (frozenset({0}), frozenset({1}), frozenset({1, 2}))
    io.save_tree(trees.LayeredTree(root=0, beta=50.0, margin=15.0, levels=levels), tree)
    assert main(["verify", str(tree), str(matrix), "--kappa", "const:1"]) == EXIT_VERIFY
    assert "  requirement 1: nodes [1] appear in multiple levels" in capsys.readouterr().out


def test_verify_refuses_a_negative_tree_margin(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    io.save_matrix(chain_scenario(6, 45, 60), matrix)  # every pair links within 50 + 15
    tree = tmp_path / "tree.json"
    levels = tuple(frozenset({i}) for i in range(6))
    io.save_tree(trees.LayeredTree(root=0, beta=50.0, margin=15.0, levels=levels), tree)
    argv = ["verify", str(tree), str(matrix), "--kappa", "const:1"]
    assert main(argv) == EXIT_VERIFY
    assert "requirement 4" in capsys.readouterr().out
    tree.write_text(tree.read_text().replace('"margin": 15.0', '"margin": -100'))
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {tree}: margin -100 must be >= 0\n")


def test_verify_pass_and_fail(tmp_path, capsys):
    from helpers import symmetric_matrix

    matrix = write_chain_matrix(tmp_path, n=4)
    out = tmp_path / "out"
    main(["tree", str(matrix), "--kappa", "const:1", "--out", str(out),
          "--beta-min", "50", "--beta-max", "50"])
    tree = out / "tree.json"
    assert main(["verify", str(tree), str(matrix), "--kappa", "const:1"]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out

    loaded = io.load_tree(tree)
    shortcut = symmetric_matrix(
        {(0, 1): 45.0, (1, 2): 45.0, (2, 3): 45.0,
         (loaded.root, sorted(loaded.levels[2])[0]): 58.0},
        nodes=range(4),
    )
    fresh = tmp_path / "fresh.json"
    io.save_matrix(shortcut, fresh)
    assert main(["verify", str(tree), str(fresh), "--kappa", "const:1"]) == EXIT_VERIFY
    assert "requirement 4" in capsys.readouterr().out


def test_tree_reduce_and_verify_build_one_graph(tmp_path, monkeypatch):
    build = graphs.neighborhood_graph
    builds = []

    def counted(matrix, beta):
        builds.append(beta)
        return build(matrix, beta)

    for module in (graphs, trees, degree, io):
        if getattr(module, "neighborhood_graph", None) is build:
            monkeypatch.setattr(module, "neighborhood_graph", counted)
    matrix = write_chain_matrix(tmp_path, n=5)
    out = tmp_path / "out"
    args = ["--kappa", "const:1", "--beta-min", "45", "--beta-max", "55"]
    assert main(["tree", str(matrix), "--reduce", "--out", str(out), *args]) == EXIT_OK
    assert main(["verify", str(out / "tree.json"), str(matrix), "--kappa", "const:1"]) == EXIT_OK
    assert len(builds) == 1


def test_verify_names_the_matrix_lacking_tree_nodes(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path, n=4)
    out = tmp_path / "out"
    main(["tree", str(matrix), "--kappa", "const:1", "--out", str(out),
          "--beta-min", "50", "--beta-max", "50"])
    fresh = write_chain_matrix(tmp_path, "fresh.json", n=3)
    code = main(["verify", str(out / "tree.json"), str(fresh), "--kappa", "const:1"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {fresh}: matrix lacks tree nodes [3]\n"


def test_sweep_report(tmp_path, capsys):
    sparse = write_chain_matrix(tmp_path, "sparse.json")
    from helpers import symmetric_matrix

    compact_path = tmp_path / "compact.json"
    io.save_matrix(
        symmetric_matrix({(a, b): 50.0 for a in range(5) for b in range(a + 1, 5)}),
        compact_path,
    )
    out = tmp_path / "out"
    code = main(["sweep-report", str(compact_path), str(sparse),
                 "--kappa", "const:1", "--out", str(out),
                 "--beta-min", "45", "--beta-max", "95"])
    assert code == EXIT_OK
    report = (out / "sweep_report.csv").read_text().splitlines()
    assert report[0] == "testbed,max_depth,beta_min,beta_max,note"
    rows = {line.split(",")[0]: line.split(",") for line in report[1:]}
    compact, sparse = str(tmp_path / "compact"), str(tmp_path / "sparse")
    assert rows[compact][1] == "1"
    assert rows[compact][4] == "no multi-hop"
    assert int(rows[sparse][1]) == 5
    assert "no multi-hop" in capsys.readouterr().out


def test_sweep_report_names_each_matrix_by_its_path(tmp_path):
    matrices = []
    for site in ("a", "b"):
        (tmp_path / site).mkdir()
        matrices.append(str(write_chain_matrix(tmp_path / site)))
    out = tmp_path / "out"
    argv = ["sweep-report", *matrices, "--kappa", "const:1", "--out", str(out),
            "--beta-min", "45", "--beta-max", "60"]
    assert main(argv) == EXIT_OK
    report = (out / "sweep_report.csv").read_text().splitlines()
    names = [row.split(",")[0] for row in report[1:]]
    assert names == [str(tmp_path / "a" / "matrix"), str(tmp_path / "b" / "matrix")]


def test_sweep_report_quotes_a_name_that_holds_a_comma(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_chain_matrix(tmp_path, "site,a.json", n=4)
    argv = ["sweep-report", "site,a.json", "--kappa", "const:1", "--out", "out",
            "--beta-min", "45", "--beta-max", "60"]
    assert main(argv) == EXIT_OK
    with open(tmp_path / "out" / "sweep_report.csv", newline="") as report:
        header, row = csv.reader(report)
    assert len(header) == len(row) == 5
    assert row[0] == "site,a"


def test_single_matrix_report(tmp_path):
    matrix = write_chain_matrix(tmp_path)
    out = tmp_path / "out"
    main(["sweep-report", str(matrix), "--kappa", "const:1", "--out", str(out),
          "--beta-min", "45", "--beta-max", "60"])
    assert len((out / "sweep_report.csv").read_text().splitlines()) == 2


def test_missing_file_is_input_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_INPUT


@pytest.mark.parametrize("command", ["tree", "sweep-report"])
def test_empty_matrix_is_input_error(tmp_path, capsys, command):
    log = tmp_path / "empty.log"
    log.write_text("# nothing\n")
    assert main(["ingest", str(log), "--out", str(tmp_path)]) == EXIT_OK
    matrix = tmp_path / "matrix.json"
    assert main([command, str(matrix), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert f"error: {matrix}: empty matrix" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["tree", "sweep-report"])
def test_negative_margin_is_input_error(tmp_path, capsys, command):
    matrix = write_chain_matrix(tmp_path, n=3)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(matrix), "--margin", "-1", "--out", str(out)])
    assert exit_info.value.code == EXIT_INPUT
    assert "argument --margin: must be >= 0, not '-1'" in capsys.readouterr().err
    assert not out.exists()


def test_negative_guard_is_input_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["settings", "46", "--guard", "-1"])
    assert exit_info.value.code == EXIT_INPUT
    assert "argument --guard: must be >= 0, not '-1'" in capsys.readouterr().err


def test_settings_finds_a_decimal_budget_typed_as_its_text(tmp_path, capsys):
    profile = tmp_path / "dec.json"
    save_profile(TransceiverProfile(
        "dec",
        (-5.39, -3.0, -2.53, -2.2, 1.4, 4.1),
        (-103.69, -99.2, -86.5, -78.3, -73.67, -63.86),
    ), profile)
    # 1.4 - -63.86 is 65.26000000000001 as a float
    assert main(["settings", "65.26", "--profile", str(profile), "--guard", "0"]) == EXIT_OK
    assert capsys.readouterr().out == "1.4/-63.86 (65.26 dB)\n"


@pytest.mark.parametrize("beta, error", [
    ("62.5", "bound 62.5 not exactly realizable with profile AT86RF231"),
    ("200", "bound 200.0 outside profile AT86RF231 budget range [31.0, 104.0]"),
])
def test_tree_beta_is_refused_in_the_terms_of_settings(tmp_path, capsys, beta, error):
    matrix = write_chain_matrix(tmp_path, n=3)
    out = tmp_path / "o"
    assert main(["settings", beta]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {error}\n"
    window = ["--beta-min", beta, "--beta-max", beta]
    assert main(["tree", str(matrix), *window, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: {EMPTY} (--beta-min {float(beta)!r} --beta-max {float(beta)!r})\n"
    )
    assert not out.exists()


def test_tree_no_longer_takes_a_fixed_beta(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path, n=3)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exit_info:
        main(["tree", str(matrix), "--beta", "50", "--out", str(out)])
    assert exit_info.value.code == EXIT_INPUT
    assert "ambiguous option: --beta could match --beta-min, --beta-max" in capsys.readouterr().err
    assert not out.exists()


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _first_entry(**fields):
    return lambda d: {**d, "entries": [{**d["entries"][0], **fields}, *d["entries"][1:]]}


def _last_position(**fields):
    return lambda d: {**d, "positions": [*d["positions"][:-1], {**d["positions"][-1], **fields}]}


# case: (file to corrupt, corruption, text the error must contain)
MALFORMED = {
    "matrix without entries": ("matrix", _without("entries"), "'entries'"),
    "entry node not in nodes": ("matrix", _first_entry(tx=99), "entries[0]: node"),
    "top-level list": ("matrix", lambda d: [d], "JSON object"),
    "tree without levels": ("tree", _without("levels"), "'levels'"),
    "NaN tree margin": ("tree", lambda d: {**d, "margin": float("nan")}, "margin nan"),
    "negative tree margin": (
        "tree", lambda d: {**d, "margin": -1.0}, "margin -1.0 must be >= 0"),
    "infinite tree bound": ("tree", lambda d: {**d, "beta": float("inf")}, "beta inf"),
    "NaN loss": ("matrix", _first_entry(mean_loss=float("nan")), "entries[0].mean_loss nan"),
    "infinite loss": (
        "matrix", _first_entry(mean_loss=float("inf")), "entries[0].mean_loss inf"),
    "negative loss": ("matrix", _first_entry(mean_loss=-1.0), "entries[0].mean_loss -1.0"),
    "boolean loss": ("matrix", _first_entry(mean_loss=True), "entries[0].mean_loss True"),
    "string loss": ("matrix", _first_entry(mean_loss="x"), "entries[0].mean_loss 'x'"),
    "duplicate node id": (
        "matrix", lambda d: {**d, "nodes": d["nodes"] + d["nodes"][:1]}, "nodes: node 0 repeats"),
    "duplicate entry": (
        "matrix", lambda d: {**d, "entries": d["entries"] + d["entries"][:1]},
        "duplicate entry"),
    "string node id": ("matrix", lambda d: {**d, "nodes": [*d["nodes"], "a"]}, "nodes[3]"),
    "boolean node id": ("matrix", lambda d: {**d, "nodes": [*d["nodes"], True]}, "nodes[3]"),
    "list tree root": ("tree", lambda d: {**d, "root": [d["root"]]}, "root: node id [0]"),
    "tree without any level": ("tree", lambda d: {**d, "levels": [], "depth": -1}, "levels"),
    "scalar tree level": ("tree", lambda d: {**d, "levels": [[0], 5]}, "levels[1]"),
    "string level member": (
        "tree", lambda d: {**d, "levels": [*d["levels"][:-1], ["a"]]}, "levels[2]: node id 'a'"),
    "boolean tree bound": ("tree", lambda d: {**d, "beta": True}, "beta True"),
    "float entry node id": (
        "matrix", _first_entry(tx=1.0, rx=1), "entries[0].tx: node id 1.0"),
    "self-pair entry": ("matrix", _first_entry(tx=1, rx=1), "entries[0].rx: node 1"),
    "loss past the float range": (
        "matrix", _first_entry(mean_loss=10**400),
        "entries[0].mean_loss is a 1329-bit int, outside the float range\n"),
    "tree bound past the float range": (
        "tree", lambda d: {**d, "beta": -(10**400)}, "beta is a 1329-bit int, outside"),
    "entry without a loss": (
        "matrix", lambda d: {**d, "entries": [*d["entries"][:2], _without("mean_loss")(
            d["entries"][2]), *d["entries"][3:]]}, "entries[2]: missing field 'mean_loss'"),
    "entry without a receiver": (
        "matrix", lambda d: {**d, "entries": [_without("rx")(d["entries"][0]), *d["entries"][1:]]},
        "entries[0]: missing field 'rx'"),
    "position without z": (
        "positions", lambda d: {**d, "positions": [*d["positions"][:-1], _without("z")(
            d["positions"][-1])]}, "positions[2]: missing field 'z'"),
    "NaN position": ("positions", _last_position(z=float("nan")), "positions[2].z nan"),
    "infinite position": ("positions", _last_position(x=float("-inf")), "positions[2].x -inf"),
    "boolean position": ("positions", _last_position(y=True), "positions[2].y True"),
    "string position": ("positions", _last_position(x="1.0"), "positions[2].x '1.0'"),
    "missing position": ("positions", _last_position(y=None), "positions[2].y None"),
    "string position node": (
        "positions", _last_position(node="2"), "positions[2].node: node id '2'"),
    "string tx level": ("profile", lambda d: {**d, "tx_levels": ["a"]}, "tx_levels[0] 'a'"),
    "NaN sensitivity level": (
        "profile", lambda d: {**d, "sensitivity_levels": [-101.0, float("nan")]},
        "sensitivity_levels[1] nan"),
    "boolean tx level": ("profile", lambda d: {**d, "tx_levels": [True]}, "tx_levels[0] True"),
    "scalar tx levels": ("profile", lambda d: {**d, "tx_levels": 3.0}, "tx_levels: expected a list"),
    "numeric profile name": ("profile", lambda d: {**d, "name": 5}, "name 5 is not a string"),
    "float tree depth": ("tree", lambda d: {**d, "depth": float(d["depth"])}, "depth 2.0"),
    "string tree depth": ("tree", lambda d: {**d, "depth": "2"}, "depth '2'"),
    "string entry count": ("matrix", _first_entry(count="x"), "entries[0].count 'x'"),
    "negative entry count": ("matrix", _first_entry(count=-3), "entries[0].count -3"),
    "zero entry count": ("matrix", _first_entry(count=0), "entries[0].count 0"),
    "float entry count": ("matrix", _first_entry(count=250.0), "entries[0].count 250.0"),
    "boolean entry count": ("matrix", _first_entry(count=True), "entries[0].count True"),
    "NaN stddev": ("matrix", _first_entry(stddev=float("nan")), "entries[0].stddev nan"),
    "infinite stddev": ("matrix", _first_entry(stddev=float("inf")), "entries[0].stddev inf"),
    "negative stddev": ("matrix", _first_entry(stddev=-1.0), "entries[0].stddev -1.0"),
    "boolean stddev": ("matrix", _first_entry(stddev=False), "entries[0].stddev False"),
    "string stddev": ("matrix", _first_entry(stddev="0"), "entries[0].stddev '0'"),
    "string channel": ("matrix", lambda d: {**d, "channel": "x"}, "channel 'x'"),
    "channel below 11": ("matrix", lambda d: {**d, "channel": 5}, "channel 5"),
    "null channel with entries": ("matrix", lambda d: {**d, "channel": None}, "channel None"),
    "position lacking a node": (
        "positions", lambda d: {**d, "positions": d["positions"][:-1]},
        "missing positions for nodes [2]"),
    "positions too far apart": (
        "positions", lambda d: {**d, "positions": [
            {**p, "x": x} for p, x in zip(d["positions"], (-1.7e308, 0.0, 1.7e308))]},
        "distance of pair (0, 2) overflows"),
    "repeated position node": (
        "positions", lambda d: {**d, "positions": [*d["positions"], d["positions"][0]]},
        "positions[3].node: node 0 repeats positions[0]"),
    "object entries": ("matrix", lambda d: {**d, "entries": {}}, "entries: expected a list"),
    "scalar entries": ("matrix", lambda d: {**d, "entries": 5}, "entries: expected a list"),
    "scalar nodes": ("matrix", lambda d: {**d, "nodes": 5}, "nodes: expected a list"),
    "scalar meta": ("matrix", lambda d: {**d, "meta": 5}, "meta: expected an object"),
    "scalar entry": (
        "matrix", lambda d: {**d, "entries": [5, *d["entries"][1:]]},
        "entries[0]: expected an object"),
    "scalar tree levels": ("tree", lambda d: {**d, "levels": 5}, "levels: expected a list"),
    "object positions": (
        "positions", lambda d: {**d, "positions": {"a": 1}}, "positions: expected a list"),
    "scalar position": (
        "positions", lambda d: {**d, "positions": [*d["positions"][:-1], 5]},
        "positions[2]: expected an object"),
    "repeated level node": (
        "tree", lambda d: {**d, "levels": [[0], [1, 1], [2]]}, "levels[1]: node 1 repeats"),
    "tree depth off its levels": (
        "tree", lambda d: {**d, "depth": d["depth"] + 1},
        "depth 3 is not the 2 levels below the root"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_is_input_error(tmp_path, capsys, case):
    target, mutate, field = MALFORMED[case]
    matrix = write_chain_matrix(tmp_path, n=3)
    tree = tmp_path / "tree.json"
    one = KappaSpec.parse("const:1")
    io.save_tree(monitored_bfs(chain_scenario(3, 45, 90), 0, 50, 15, one), tree)
    positions = tmp_path / "positions.json"
    io.save_positions({i: (float(i), 0.0, 0.0) for i in range(3)}, positions)
    profile = tmp_path / "profile.json"
    save_profile(AT86RF231, profile)
    path, argv = {
        "matrix": (matrix, ["degree", str(matrix), "1", "--out", str(tmp_path / "o")]),
        "tree": (tree, ["verify", str(tree), str(matrix), "--kappa", "const:1"]),
        "positions": (positions, ["analyze", str(matrix), "--correlation", "--positions",
                                  str(positions), "--out", str(tmp_path / "o")]),
        "profile": (profile, ["settings", "46", "--profile", str(profile)]),
    }[target]
    path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
    assert main(argv) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and field in err


# (command line, float flag); "M" stands for a matrix file, "beta" is positional
FLOAT_FLAGS = [
    (["analyze", "M"], "--beta-min"),
    (["analyze", "M"], "--beta-max"),
    (["degree", "M", "3"], "--beta-max"),
    (["tree", "M"], "--beta-min"),
    (["tree", "M"], "--margin"),
    (["sweep-report", "M"], "--margin"),
    (["settings", "46"], "--guard"),
    (["settings"], "beta"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag", FLOAT_FLAGS, ids=[f"{c[0]} {f}" for c, f in FLOAT_FLAGS]
)
def test_non_finite_float_flag_is_usage_error(tmp_path, capsys, command, flag, value):
    matrix = write_chain_matrix(tmp_path, n=3)
    argv = [str(matrix) if arg == "M" else arg for arg in command]
    argv += ["--", value] if flag == "beta" else [f"{flag}={value}"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == EXIT_INPUT
    assert f"argument {flag}: must be finite, not '{value}'" in capsys.readouterr().err


BAD_KAPPAS = [
    ("const:x", "invalid literal for int() with base 10: 'x'"),
    ("const:", "invalid literal for int() with base 10: ''"),
    ("table:1=a", "invalid literal for int() with base 10: 'a'"),
    ("table:0=5", "kappa table item '0=5': depth must be >= 1"),
    ("cubic", "expected const:K, linear or table:D=B,..."),
]


@pytest.mark.parametrize("command", ["tree", "sweep-report"])
@pytest.mark.parametrize("spec, detail", BAD_KAPPAS, ids=[spec for spec, _ in BAD_KAPPAS])
def test_bad_kappa_spec_is_named(tmp_path, capsys, command, spec, detail):
    matrix = write_chain_matrix(tmp_path, n=3)
    code = main([command, str(matrix), "--kappa", spec, "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == f"error: kappa spec '{spec}': {detail}\n"


# (command, grid flags, error): the grid's own error keeps its text and is
# followed by both grid flags with their values, defaults included
EMPTY = "no budget of profile AT86RF231 lies in [beta_min, beta_max]"
BAD_GRIDS = [
    ("degree", ["--beta-min", "60", "--beta-max", "50"],
     f"{EMPTY} (--beta-min 60.0 --beta-max 50.0)"),
    ("analyze", ["--beta-min", "62.2", "--beta-max", "62.8"],
     f"{EMPTY} (--beta-min 62.2 --beta-max 62.8)"),
    ("tree", ["--beta-min", "105"], f"{EMPTY} (--beta-min 105.0 --beta-max 104.0)"),
    ("sweep-report", ["--beta-max", "30.5"], f"{EMPTY} (--beta-min 31.0 --beta-max 30.5)"),
]


@pytest.mark.parametrize(
    "command, grid, error", BAD_GRIDS, ids=[e.replace(EMPTY, "no budget") for _, _, e in BAD_GRIDS]
)
def test_grid_errors_name_their_flags(tmp_path, capsys, command, grid, error):
    matrix = write_chain_matrix(tmp_path, n=3)
    argv = [command, str(matrix), *(["1"] if command == "degree" else []), *grid]
    assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "o").exists()


def test_unknown_root_names_the_flag_and_the_matrix(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path, n=3)
    assert main(["tree", str(matrix), "--root", "99", "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: --root: unknown root 99, not a node of {matrix}\n"


@pytest.mark.parametrize("target", ["matrix", "tree"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, target):
    # json.loads recurses once per level, so 100,000 levels exceed the recursion limit
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    matrix = write_chain_matrix(tmp_path, n=3)
    argv = {
        "matrix": ["analyze", str(deep), "--out", str(tmp_path / "o")],
        "tree": ["verify", str(deep), str(matrix), "--kappa", "const:1"],
    }[target]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {deep}: ")
