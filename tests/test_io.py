import json

import pytest

from helpers import save_profile, symmetric_matrix
from topogen import io
from topogen.degree import select_constant_degree
from topogen.graphs import GraphFamily, neighborhood_graph
from topogen.radio import AT86RF231
from topogen.synth import chain_scenario, grid_scenario
from topogen.trees import KappaSpec, monitored_bfs


def test_matrix_round_trip(tmp_path):
    matrix = grid_scenario(3, 4, 1.5, shadowing_sigma=4.0, seed=8)
    path = tmp_path / "matrix.json"
    io.save_matrix(matrix, path)
    assert io.load_matrix(path) == matrix


def test_matrix_write_is_deterministic(tmp_path):
    matrix = grid_scenario(2, 3, 1.0, seed=1)
    io.save_matrix(matrix, tmp_path / "a.json")
    io.save_matrix(matrix, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_wrong_format_tag(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "other/1"}))
    with pytest.raises(ValueError, match="expected format"):
        io.load_matrix(path)


def test_positions_round_trip(tmp_path):
    positions = {1: (0.0, 1.5, 0.0), 2: (3.0, 0.0, 1.0)}
    path = tmp_path / "positions.json"
    io.save_positions(positions, path)
    assert io.load_positions(path) == positions


def test_tree_round_trip(tmp_path):
    matrix = chain_scenario(5, 45, 90)
    tree = monitored_bfs(matrix, 0, 50, 15, KappaSpec.parse("const:1"))
    path = tmp_path / "tree.json"
    io.save_tree(tree, path)
    assert io.load_tree(path) == tree


def test_selection_round_trip(tmp_path):
    matrix = symmetric_matrix({(0, 1): 45.0, (1, 2): 45.0, (2, 3): 45.0, (0, 3): 45.0})
    family = GraphFamily(matrix, beta_min=50, beta_max=50)
    [selection] = select_constant_degree(matrix, 2, family)
    path = tmp_path / "selection.json"
    io.save_selection(selection, path)
    assert io.load_selection(path) == selection


# field changes to a saved 4-cycle selection, and the text its error must contain
BAD_SELECTIONS = {
    "null bound": ({"beta": None}, "beta None is not a finite number"),
    "string degree": ({"c": "3"}, "c '3' is not an integer >= 1"),
    "zero degree": ({"c": 0}, "c 0 is not an integer >= 1"),
    "string selected": ({"selected": "abc"}, "selected: expected a list, found 'abc'"),
    "boolean selected node": ({"selected": [0, 1, 2, True]}, "selected: node id True"),
    "scalar components": ({"components": 5}, "components: expected a list, found 5"),
    "string component node": ({"components": [[0, 1, 2, "3"]]}, "components[0]: node id '3'"),
    "scalar edges": ({"edges": "ab"}, "edges: expected a list, found 'ab'"),
    "edge of three nodes": ({"edges": [[0, 1, 2]]}, "edges[0]: expected a pair of node ids"),
    "float edge node": ({"edges": [[0, 1.0]]}, "edges[0]: node id 1.0"),
    "float objective": ({"objective": 4.0}, "objective 4.0 is not the 4 selected nodes"),
    "wrong objective": ({"objective": 3}, "objective 3 is not the 4 selected nodes"),
    "edge leaving the selection": (
        {"edges": [[0, 1], [0, 3], [1, 2], [2, 3], [3, 9]]},
        "edges[4]: [3, 9] is not an ascending pair of selected nodes",
    ),
    "reversed duplicate edge": (
        {"edges": [[0, 1], [1, 0], [0, 3], [1, 2], [2, 3]]},
        "edges[1]: [1, 0] is not an ascending pair of selected nodes",
    ),
    "self-loop edge": (
        {"edges": [[0, 0], [0, 1], [0, 3], [1, 2], [2, 3]]},
        "edges[0]: [0, 0] is not an ascending pair of selected nodes",
    ),
    "repeated selected node": ({"selected": [0, 1, 2, 3, 0]}, "selected: node 0 repeats"),
    "repeated component node": (
        {"components": [[0, 1, 2, 3, 3]]}, "components[0]: node 3 repeats"),
    "repeated edge": (
        {"edges": [[0, 1], [0, 1], [0, 3], [1, 2], [2, 3]]}, "edges: pair (0, 1) repeats"),
    "components not the edges' components": (
        {"components": [[7]]},
        "components [[7]] are not those of the edges",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SELECTIONS))
def test_malformed_selection_names_the_field(tmp_path, case):
    matrix = symmetric_matrix({(0, 1): 45.0, (1, 2): 45.0, (2, 3): 45.0, (0, 3): 45.0})
    [selection] = select_constant_degree(matrix, 2, GraphFamily(matrix, 50, 50))
    path = tmp_path / "selection.json"
    io.save_selection(selection, path)
    change, detail = BAD_SELECTIONS[case]
    path.write_text(json.dumps({**json.loads(path.read_text()), **change}))
    with pytest.raises(ValueError) as error:
        io.load_selection(path)
    assert str(error.value).startswith(f"{path}: ") and detail in str(error.value)


def test_profile_round_trip(tmp_path):
    path = tmp_path / "profile.json"
    save_profile(AT86RF231, path)
    assert io.load_profile(path) == AT86RF231


def test_scenario_kinds(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(
        json.dumps(
            {"format": io.SCENARIO_FORMAT, "kind": "chain", "n": 4, "on_loss": 45, "off_loss": 90}
        )
    )
    assert io.load_scenario_matrix(chain) == chain_scenario(4, 45, 90)

    grid = tmp_path / "grid.json"
    grid.write_text(
        json.dumps(
            {
                "format": io.SCENARIO_FORMAT,
                "kind": "grid",
                "rows": 2,
                "cols": 2,
                "spacing": 1.0,
                "seed": 4,
            }
        )
    )
    assert io.load_scenario_matrix(grid) == grid_scenario(2, 2, 1.0, seed=4)

    explicit = tmp_path / "explicit.json"
    explicit.write_text(
        json.dumps(
            {
                "format": io.SCENARIO_FORMAT,
                "kind": "log-distance",
                "positions": {"0": [0, 0, 0], "1": [10, 0, 0]},
            }
        )
    )
    matrix = io.load_scenario_matrix(explicit)
    assert matrix.entries[(0, 1)].mean_loss == pytest.approx(60.0)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"format": io.SCENARIO_FORMAT, "kind": "mystery"}))
    with pytest.raises(ValueError, match="unknown scenario kind"):
        io.load_scenario_matrix(bad)


def test_graph_dot_export():
    matrix = symmetric_matrix({(1, 2): 45.0}, nodes={1, 2, 3})
    graph = neighborhood_graph(matrix, 50)
    dot = io.graph_to_dot(graph.nodes, graph.edges)
    assert dot == "graph topology {\n  1;\n  2;\n  3;\n  1 -- 2;\n}\n"


def test_tree_dot_export():
    matrix = chain_scenario(4, 45, 90)
    tree = monitored_bfs(matrix, 0, 50, 15, KappaSpec.parse("const:1"))
    dot = io.tree_to_dot(tree, matrix)
    assert "{ rank=same; 0; }" in dot
    assert "0 -- 1;" in dot
    assert "2 -- 3;" in dot


def test_degree_csv():
    distribution = {46.0: (1, 2, 2), 47.0: (2, 2, 2)}
    csv = io.degree_distribution_csv(distribution)
    assert csv.splitlines()[0] == "beta,degree,count"
    assert "46,1,1" in csv
    assert "46,2,2" in csv
    assert "47,2,3" in csv


def test_manifest(tmp_path):
    source = tmp_path / "input.txt"
    source.write_text("data")
    io.write_manifest(tmp_path, "ingest", {"aggregator": "mean"}, [source])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["tool"] == "topogen"
    assert manifest["command"] == "ingest"
    assert manifest["arguments"] == {"aggregator": "mean"}
    assert str(source) in manifest["inputs"]
    assert len(manifest["inputs"][str(source)]) == 64
