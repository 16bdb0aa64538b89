import copy
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import save_profile, symmetric_matrix
from topogen import io
from topogen.degree import select_constant_degree
from topogen.graphs import GraphFamily, neighborhood_graph
from topogen.measurements import LossMatrix, MatrixEntry
from topogen.radio import AT86RF231
from topogen.synth import chain_scenario, finite, grid_scenario
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


def dumped_matrix(matrix):
    """Oracle: the matrix document as ``json.dumps`` writes it with ``_dump``'s settings."""
    document = {
        "format": io.MATRIX_FORMAT,
        "channel": matrix.channel,
        "nodes": sorted(matrix.nodes),
        "entries": [
            {"tx": tx, "rx": rx, "mean_loss": e.mean_loss, "stddev": e.stddev, "count": e.count}
            for (tx, rx), e in sorted(matrix.entries.items())
        ],
    }
    if matrix.meta:
        document["meta"] = matrix.meta
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def entry(loss, stddev=0.5, count=100):
    return MatrixEntry(mean_loss=loss, stddev=stddev, count=count)


EMITTED_MATRICES = {
    "with meta": LossMatrix(
        nodes=[3, 1, 2],
        channel=26,
        entries={(1, 2): entry(61.25), (2, 1): entry(-0.0, 1e-7), (3, 1): entry(1e16, 0.1)},
        # a nested "entries" key must not be taken for the matrix's own
        meta={"source": "a \"quoted\" name", "entries": [], "runs": {"entries": [1, 2.5]}},
    ),
    "without meta": LossMatrix(
        nodes=[1, 2], channel=11, entries={(2, 1): entry(45.0, 0.0, 2**53 + 1)}
    ),
    "no entries": LossMatrix(nodes=[4, 1], channel=None, entries={}),
    "no entries, with meta": LossMatrix(nodes=[], channel=None, entries={}, meta={"k": 1}),
    "int losses": LossMatrix(
        nodes=[1, 2, 3],
        channel=26,
        entries={(1, 2): entry(70, 0), (2, 1): entry(70, 1.5), (1, 3): entry(80.5, 2)},
    ),
    "NaN and infinite losses": LossMatrix(
        nodes=[1, 2, 3],
        channel=26,
        entries={(1, 2): entry(math.nan), (2, 1): entry(60.0, math.inf), (3, 2): entry(-math.inf)},
    ),
    "bool count": LossMatrix(nodes=[1, 2], channel=26, entries={(1, 2): entry(50.0, 0.0, True)}),
}


@pytest.mark.parametrize("case", EMITTED_MATRICES)
def test_save_matrix_writes_the_bytes_of_json_dumps(tmp_path, case):
    matrix = EMITTED_MATRICES[case]
    path = tmp_path / "matrix.json"
    io.save_matrix(matrix, path)
    assert path.read_text(encoding="utf-8") == dumped_matrix(matrix)


# an entry's fields, in the order the loader checks them
ENTRY_FIELDS = ("tx", "rx", "mean_loss", "stddev", "count")


def entry_loop(items, known):
    """Oracle: the per-entry loop with which ``load_matrix`` checked every file before.

    A missing field is named with its entry, at the point where the loop first reads it.
    """
    entries = {}
    for i, item in enumerate(items):
        item = io._object(item, f"entries[{i}]")
        missing = next((f for f in ENTRY_FIELDS if f not in item), None)
        pair = []
        for field in ("tx", "rx"):
            if field == missing:
                raise ValueError(f"entries[{i}]: missing field {field!r}")
            pair.append(io._node_id(item[field], f"entries[{i}].{field}"))
        pair = tuple(pair)
        if not known.issuperset(pair):
            raise ValueError(f"entries[{i}]: node of {pair} not in nodes")
        if pair[0] == pair[1]:
            raise ValueError(f"entries[{i}].rx: node {pair[1]} equals tx, a self pair")
        if pair in entries:
            raise ValueError(f"entries[{i}]: duplicate entry {pair}")
        if missing is not None:
            raise ValueError(f"entries[{i}]: missing field {missing!r}")
        loss, stddev, count = item["mean_loss"], item["stddev"], item["count"]
        if finite(loss, f"entries[{i}].mean_loss") < 0:
            raise ValueError(f"entries[{i}].mean_loss {loss!r} is negative")
        if finite(stddev, f"entries[{i}].stddev") < 0:
            raise ValueError(f"entries[{i}].stddev {stddev!r} is negative")
        if type(count) is not int or count < 1:
            raise ValueError(f"entries[{i}].count {count!r} is not an integer >= 1")
        entries[pair] = MatrixEntry(mean_loss=loss, stddev=stddev, count=count)
    return entries


_GRID3 = grid_scenario(3, 3, 3.0, shadowing_sigma=4.0, asymmetry_sigma=1.0, seed=2)
# node 1 has no entry, so an id True or 1.0 makes a new pair, not a duplicate
GRID3 = LossMatrix(
    nodes=_GRID3.nodes,
    channel=_GRID3.channel,
    entries={pair: e for pair, e in _GRID3.entries.items() if 1 not in pair},
)
ENTRY_COUNT = len(GRID3.entries)
LOSS_FIELDS = ("mean_loss", "stddev")
# kind -> (fields, values) it may set; "drop" deletes the field, and the last
# three kinds set no value. Values at the edge may load.
MUTATIONS = {
    "drop": (ENTRY_FIELDS, [None]),
    "node id": (("tx", "rx"), [True, "1", None, 1.0]),
    "unknown node": (("tx", "rx"), [99, -1]),
    "not finite": (LOSS_FIELDS, [math.nan, math.inf, -math.inf, 10**400]),
    "negative": (LOSS_FIELDS, [-1.0, -1, -5e-324]),
    "not a number": (LOSS_FIELDS, [True, "1", None]),
    "count": (("count",), [0, -2, 1.5, True, None]),
    "at the edge": (LOSS_FIELDS + ("count",), [-0.0, 0, 70, 2**60]),
    "self": (("rx",), [None]),
    "duplicate": ((None,), [None]),
    "list": ((None,), [None]),
}
# each kind is drawn as often, however many changes it lists
MUTATION = st.sampled_from(list(MUTATIONS)).flatmap(
    lambda kind: st.tuples(
        st.just(kind), st.sampled_from(MUTATIONS[kind][0]), st.sampled_from(MUTATIONS[kind][1])
    )
)


def mutate(entries, mutation, i, j):
    kind, field, value = mutation
    item, other = entries[i], entries[j]
    if not isinstance(item, dict):
        return  # an entry turned into a list stays one
    if kind == "drop":
        item.pop(field, None)
    elif kind == "self":
        item["rx"] = item.get("tx")
    elif kind == "duplicate":
        if isinstance(other, dict):
            item.update(tx=other.get("tx"), rx=other.get("rx"))
    elif kind == "list":
        entries[i] = list(item.values())
    else:
        item[field] = value


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(
            MUTATION, st.integers(0, ENTRY_COUNT - 1), st.integers(0, ENTRY_COUNT - 1)
        ),
        min_size=1,
        max_size=2,
    )
)
# bad in the last field checked of entry 0 and the first of entry 1: entry 0 is named
@example([(("count", "count", 0), 0, 0), (("node id", "tx", True), 1, 0)])
@example([(("negative", "stddev", -1.0), 3, 0), (("drop", "tx", None), 5, 0)])
@example([(("node id", "rx", 1.0), 7, 0)])  # equal to node 1, but no integer
@example([(("not finite", "mean_loss", 10**400), 2, 0)])  # an int past the float range
# a field checked early is named before a missing field checked later
@example([(("node id", "tx", "1"), 0, 0), (("drop", "rx", None), 0, 0)])
@example([(("unknown node", "tx", 99), 4, 0), (("drop", "count", None), 4, 0)])
@example([(("self", "rx", None), 6, 0), (("not finite", "mean_loss", math.nan), 6, 0)])
@example([(("duplicate", None, None), 3, 2), (("drop", "stddev", None), 3, 0)])
def test_matrix_loader_names_the_first_bad_entry(tmp_path_factory, mutations):
    saved = tmp_path_factory.getbasetemp() / "grid3.json"
    if not saved.exists():
        io.save_matrix(GRID3, saved)
    document = json.loads(saved.read_text(encoding="utf-8"))
    entries = copy.deepcopy(document["entries"])
    for mutation, i, j in mutations:
        mutate(entries, mutation, i, j)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps({**document, "entries": entries}), encoding="utf-8")
    try:
        expected = entry_loop(entries, frozenset(document["nodes"]))
    except ValueError as exc:
        error = ValueError(f"{path}: {exc}")
    else:
        assert io.load_matrix(path) == LossMatrix(
            nodes=GRID3.nodes, channel=GRID3.channel, entries=expected, meta=GRID3.meta
        )
        return
    with pytest.raises(type(error)) as raised:
        io.load_matrix(path)
    assert str(raised.value) == str(error)


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


def test_scenario_positions_read_as_a_positions_file(tmp_path, monkeypatch):
    items = [{"node": 7, "x": 0, "y": 1.5, "z": 0}, {"node": 2, "x": 3.0, "y": 0, "z": -1}]
    path = tmp_path / "positions.json"
    path.write_text(json.dumps({"format": io.POSITIONS_FORMAT, "positions": items}))
    positions = io.load_positions(path)
    assert positions == {7: (0, 1.5, 0), 2: (3.0, 0, -1)}
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"format": io.SCENARIO_FORMAT, "kind": "log-distance", "positions": items})
    )
    monkeypatch.setattr(io, "generate", lambda positions: positions)
    assert io.load_scenario_matrix(scenario) == positions


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
                "positions": [
                    {"node": 0, "x": 0, "y": 0, "z": 0},
                    {"node": 1, "x": 10, "y": 0, "z": 0},
                ],
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
