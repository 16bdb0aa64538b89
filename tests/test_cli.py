import json
import time

import pytest

from topogen import degree, graphs, io, trees
from topogen.cli import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, main
from topogen.radio import AT86RF231
from topogen.synth import chain_scenario
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
    assert matrix.loss(3, 7) == 63.0
    assert (out / "manifest.json").exists()


def test_ingest_mixed_channels_fails(tmp_path, capsys):
    log_a = tmp_path / "a.log"
    log_a.write_text("1 2 3.0 -60.0 17 0\n")
    log_b = tmp_path / "b.log"
    log_b.write_text("2 1 3.0 -60.0 26 0\n")
    assert main(["ingest", str(log_a), str(log_b), "--out", str(tmp_path / "o")]) == EXIT_INPUT
    assert "mix channels" in capsys.readouterr().err


def test_ingest_rejects_non_finite_levels(tmp_path, capsys):
    log = tmp_path / "campaign.log"
    log.write_text("1 2 3.0 -60.0 26 0\n2 1 3 -inf 26 0\n2 1 3.0 -61.0 26 1\n")
    out = tmp_path / "out"
    assert main(["ingest", str(log), "--out", str(out), "--min-count", "1"]) == EXIT_OK
    captured = capsys.readouterr().out
    assert "2 samples accepted, 1 lines rejected" in captured
    assert f"rejected {log}:2: non-finite rssi -inf" in captured
    matrix = io.load_matrix(out / "matrix.json")
    assert matrix.loss(2, 1) == 64.0 and matrix.entries[(2, 1)].count == 1


def test_ingest_empty_log_warns(tmp_path, capsys):
    log = tmp_path / "empty.log"
    log.write_text("# nothing\n")
    assert main(["ingest", str(log), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert "empty matrix" in capsys.readouterr().out


def test_analyze_chain(tmp_path):
    matrix = write_chain_matrix(tmp_path)
    out = tmp_path / "out"
    assert (
        main(
            ["analyze", str(matrix), "--out", str(out),
             "--beta-min", "40", "--beta-max", "95", "--beta-step", "5"]
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
              "--beta-min", "45", "--beta-max", "50", "--beta-step", "1"])
        == EXIT_OK
    )
    selection = io.load_selection(out / "selection.json")
    assert selection.selected == frozenset({0, 1, 2, 3})
    assert (out / "selection.dot").read_text().count("--") == 4


def test_degree_no_selection(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path)
    code = main(["degree", str(matrix), "99", "--out", str(tmp_path / "o"),
                 "--beta-min", "40", "--beta-max", "60", "--beta-step", "10"])
    assert code == EXIT_OK
    assert "no nonempty selection at any beta" in capsys.readouterr().out


def test_tree_chain(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path)
    out = tmp_path / "out"
    code = main(["tree", str(matrix), "--kappa", "const:1", "--out", str(out),
                 "--beta-min", "40", "--beta-max", "60", "--beta-step", "5"])
    assert code == EXIT_OK
    tree = io.load_tree(out / "tree.json")
    assert tree.depth == 5
    assert "depth 5" in capsys.readouterr().out


def test_tree_root_flag_gives_shallower_tree(tmp_path):
    matrix = write_chain_matrix(tmp_path)
    out_sweep = tmp_path / "sweep"
    out_mid = tmp_path / "mid"
    args = ["--kappa", "const:1", "--beta-min", "40", "--beta-max", "60", "--beta-step", "5"]
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
            "--beta-min", "50", "--beta-max", "50", "--beta-step", "1",
            "--root", "0"]
    out_full = tmp_path / "full"
    out_reduced = tmp_path / "reduced"
    main(["tree", str(matrix_path), "--out", str(out_full), *args])
    main(["tree", str(matrix_path), "--reduce", "--out", str(out_reduced), *args])
    full = io.load_tree(out_full / "tree.json")
    reduced = io.load_tree(out_reduced / "tree.json")
    assert reduced.depth == full.depth
    assert reduced.total_nodes < full.total_nodes


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


def test_verify_pass_and_fail(tmp_path, capsys):
    from helpers import symmetric_matrix

    matrix = write_chain_matrix(tmp_path, n=4)
    out = tmp_path / "out"
    main(["tree", str(matrix), "--kappa", "const:1", "--out", str(out),
          "--beta-min", "50", "--beta-max", "50", "--beta-step", "1"])
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
    args = ["--kappa", "const:1", "--beta-min", "45", "--beta-max", "55", "--beta-step", "5"]
    assert main(["tree", str(matrix), "--reduce", "--out", str(out), *args]) == EXIT_OK
    assert main(["verify", str(out / "tree.json"), str(matrix), "--kappa", "const:1"]) == EXIT_OK
    assert len(builds) == 1


def test_verify_names_the_matrix_lacking_tree_nodes(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path, n=4)
    out = tmp_path / "out"
    main(["tree", str(matrix), "--kappa", "const:1", "--out", str(out),
          "--beta-min", "50", "--beta-max", "50", "--beta-step", "1"])
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
                 "--beta-min", "45", "--beta-max", "95", "--beta-step", "5"])
    assert code == EXIT_OK
    report = (out / "sweep_report.csv").read_text().splitlines()
    assert report[0] == "testbed,max_depth,beta_min,beta_max,note"
    rows = {line.split(",")[0]: line.split(",") for line in report[1:]}
    assert rows["compact"][1] == "1"
    assert rows["compact"][4] == "no multi-hop"
    assert int(rows["sparse"][1]) == 5
    assert "no multi-hop" in capsys.readouterr().out


def test_single_matrix_report(tmp_path):
    matrix = write_chain_matrix(tmp_path)
    out = tmp_path / "out"
    main(["sweep-report", str(matrix), "--kappa", "const:1", "--out", str(out),
          "--beta-min", "45", "--beta-max", "60", "--beta-step", "5"])
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
    "infinite tree bound": ("tree", lambda d: {**d, "beta": float("inf")}, "beta inf"),
    "NaN loss": ("matrix", _first_entry(mean_loss=float("nan")), "entries[0]: mean_loss"),
    "infinite loss": ("matrix", _first_entry(mean_loss=float("inf")), "entries[0]: mean_loss"),
    "negative loss": ("matrix", _first_entry(mean_loss=-1.0), "entries[0]: mean_loss"),
    "duplicate node id": (
        "matrix", lambda d: {**d, "nodes": d["nodes"] + d["nodes"][:1]}, "duplicate node ids"),
    "duplicate entry": (
        "matrix", lambda d: {**d, "entries": d["entries"] + d["entries"][:1]},
        "duplicate entry"),
    "string node id": ("matrix", lambda d: {**d, "nodes": [*d["nodes"], "a"]}, "nodes[3]"),
    "boolean node id": ("matrix", lambda d: {**d, "nodes": [*d["nodes"], True]}, "nodes[3]"),
    "list tree root": ("tree", lambda d: {**d, "root": [d["root"]]}, "root: node id [0]"),
    "string level member": (
        "tree", lambda d: {**d, "levels": [*d["levels"][:-1], ["a"]]}, "levels[2]: node id 'a'"),
    "boolean tree bound": ("tree", lambda d: {**d, "beta": True}, "beta True"),
    "float entry node id": (
        "matrix", _first_entry(tx=1.0, rx=1), "entries[0].tx: node id 1.0"),
    "self-pair entry": ("matrix", _first_entry(tx=1, rx=1), "entries[0].rx: node 1"),
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
    io.save_profile(AT86RF231, profile)
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
    (["degree", "M", "3"], "--beta-step"),
    (["tree", "M"], "--beta"),
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


def test_runaway_beta_step_is_input_error(tmp_path, capsys):
    matrix = write_chain_matrix(tmp_path, n=3)
    start = time.monotonic()
    code = main(["analyze", str(matrix), "--beta-step", "1e-9", "--out", str(tmp_path / "o")])
    assert code == EXIT_INPUT
    assert time.monotonic() - start < 1.0
    assert "error: step 1e-09 gives more than" in capsys.readouterr().err
