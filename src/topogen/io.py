"""File formats and exports.

All interchange files are JSON documents with a ``format`` tag; writes
are deterministic (sorted keys, fixed indentation) so repeated runs are
byte-identical and artifacts diff cleanly. Graphs and trees additionally
export to DOT for rendering with external tools.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .degree import DegreeSelection
from .measurements import LossMatrix, MatrixEntry, NodePositions, check_channel
from .radio import TransceiverProfile
from .synth import chain_scenario, finite, generate, grid_scenario, integer
from .trees import LayeredTree, parents_of

MATRIX_FORMAT = "loss-matrix/1"
POSITIONS_FORMAT = "node-positions/1"
TREE_FORMAT = "layered-tree/1"
SELECTION_FORMAT = "degree-selection/1"
PROFILE_FORMAT = "radio-profile/1"
SCENARIO_FORMAT = "synth-scenario/1"


def _text(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _dump(document: dict, path: Path | str):
    Path(path).write_text(_text(document), encoding="utf-8")


@contextmanager
def _load(path: Path | str, expected_format: str):
    """Yield a tagged document; malformed content raises ValueError naming the file."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(document, dict):
            raise ValueError(f"expected a JSON object, found {type(document).__name__}")
        actual = document.get("format")
        if actual != expected_format:
            raise ValueError(f"expected format {expected_format!r}, found {actual!r}")
        yield document
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc.args[0]!r}") from None
    except (TypeError, ValueError, RecursionError) as exc:  # too deep a nesting recurses
        raise ValueError(f"{path}: {exc}") from None


def _node_id(value, where: str) -> int:
    if type(value) is not int:  # bool is an int subclass, but not a node id
        raise ValueError(f"{where}: node id {value!r} is not an integer")
    return value


def save_matrix(matrix: LossMatrix, path: Path | str):
    """Write the bytes ``_dump`` would, without ``json``'s pure-Python encoder for the entries.

    The document is dumped with no entries, and each entry is spliced in
    as one string, keys in sorted order.
    """
    document = {
        "format": MATRIX_FORMAT,
        "channel": matrix.channel,
        "nodes": sorted(matrix.nodes),
        "entries": [],
    }
    if matrix.meta:
        document["meta"] = matrix.meta
    text = _text(document)
    split = text.index('\n  "entries": []') + len('\n  "entries": [')
    entries = sorted(matrix.entries.items())
    rows = [(e.count, e.mean_loss, rx, e.stddev, tx) for (tx, rx), e in entries]
    items = [
        f'\n    {{\n      "count": {count},\n      "mean_loss": {loss},\n      "rx": {rx},'
        f'\n      "stddev": {stddev},\n      "tx": {tx}\n    }}'
        for count, loss, rx, stddev, tx in zip(*map(_json_numbers, zip(*rows)))
    ]
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text[:split])
        stream.write(",".join(items))
        stream.write("\n  " if items else "")
        stream.write(text[split:])


def _json_numbers(values: list) -> list[str]:
    """Each value as ``json.dumps`` writes it: ``repr`` for an int or a finite float."""
    return [
        repr(v) if type(v) is int or type(v) is float and math.isfinite(v) else json.dumps(v)
        for v in values
    ]


def load_matrix(path: Path | str) -> LossMatrix:
    with _load(path, MATRIX_FORMAT) as document:
        channel = document["channel"]  # None after an ingest that accepted no sample
        nodes = [
            _node_id(n, f"nodes[{i}]") for i, n in enumerate(_list(document["nodes"], "nodes"))
        ]
        known = _distinct(nodes, "nodes", "node")
        entries = {}
        # Each entry's fields are read in the order they are checked, so the
        # first bad one is named; error text is built only once a check fails.
        for i, item in enumerate(_list(document["entries"], "entries")):
            try:
                if not isinstance(item, dict):
                    _object(item, f"entries[{i}]")
                tx = item["tx"]
                if type(tx) is not int:
                    _node_id(tx, f"entries[{i}].tx")
                rx = item["rx"]
                if type(rx) is not int:
                    _node_id(rx, f"entries[{i}].rx")
                if tx not in known or rx not in known:
                    raise ValueError(f"entries[{i}]: node of {(tx, rx)} not in nodes")
                if tx == rx:
                    raise ValueError(f"entries[{i}].rx: node {rx} equals tx, a self pair")
                if (tx, rx) in entries:
                    raise ValueError(f"entries[{i}]: duplicate entry {(tx, rx)}")
                loss, stddev, count = item["mean_loss"], item["stddev"], item["count"]
            except KeyError as exc:
                raise ValueError(f"entries[{i}]: missing field {exc.args[0]!r}") from None
            if type(loss) is not float or not 0 <= loss < math.inf:
                if finite(loss, f"entries[{i}].mean_loss") < 0:
                    raise ValueError(f"entries[{i}].mean_loss {loss!r} is negative")
            if type(stddev) is not float or not 0 <= stddev < math.inf:
                if finite(stddev, f"entries[{i}].stddev") < 0:
                    raise ValueError(f"entries[{i}].stddev {stddev!r} is negative")
            if type(count) is not int or count < 1:
                raise ValueError(f"entries[{i}].count {count!r} is not an integer >= 1")
            entries[tx, rx] = MatrixEntry(loss, stddev, count)
        return LossMatrix(
            nodes=nodes,
            channel=None if channel is None and not entries else check_channel(channel),
            entries=entries,
            meta=_object(document.get("meta", {}), "meta"),
        )


def save_positions(positions: NodePositions, path: Path | str):
    _dump(
        {
            "format": POSITIONS_FORMAT,
            "positions": [
                {"node": n, "x": p[0], "y": p[1], "z": p[2]}
                for n, p in sorted(positions.items())
            ],
        },
        path,
    )


def load_positions(path: Path | str) -> NodePositions:
    with _load(path, POSITIONS_FORMAT) as document:
        return _positions(document["positions"])


def _positions(items) -> NodePositions:
    """The ``{node, x, y, z}`` items of a positions file or a ``log-distance`` scenario."""
    positions: NodePositions = {}
    first: dict[int, str] = {}  # node id -> the item that placed it
    for i, item in enumerate(_list(items, "positions")):
        where = f"positions[{i}]"
        try:
            node = _node_id(_object(item, where)["node"], f"{where}.node")
            if node in first:
                raise ValueError(f"{where}.node: node {node} repeats {first[node]}")
            first[node] = where
            positions[node] = tuple(finite(item[axis], f"{where}.{axis}") for axis in "xyz")
        except KeyError as exc:
            raise ValueError(f"{where}: missing field {exc.args[0]!r}") from None
    return positions


def save_tree(tree: LayeredTree, path: Path | str):
    _dump(
        {
            "format": TREE_FORMAT,
            "root": tree.root,
            "beta": tree.beta,
            "margin": tree.margin,
            "depth": tree.depth,
            "levels": [sorted(level) for level in tree.levels],
        },
        path,
    )


def load_tree(path: Path | str) -> LayeredTree:
    with _load(path, TREE_FORMAT) as document:
        tree = LayeredTree(
            root=_node_id(document["root"], "root"),
            beta=finite(document["beta"], "beta"),
            margin=finite(document["margin"], "margin"),
            levels=tuple(
                _level(level, f"levels[{i}]")
                for i, level in enumerate(_list(document["levels"], "levels"))
            ),
        )
        depth = document["depth"]
        if type(depth) is not int or depth != tree.depth:
            raise ValueError(f"depth {depth!r} is not the {tree.depth} levels below the root")
        return tree


def _level(level, where: str) -> frozenset[int]:
    return _distinct([_node_id(n, where) for n in _list(level, where)], where, "node")


def _distinct(items: list, where: str, kind: str) -> frozenset:
    """``items`` as a set; an item listed twice is an error naming ``where``."""
    members = frozenset(items)
    if len(members) != len(items):
        repeat = next(item for i, item in enumerate(items) if item in items[:i])
        raise ValueError(f"{where}: {kind} {repeat!r} repeats")
    return members


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected a list, found {value!r}")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object, found {type(value).__name__}")
    return value


def save_selection(selection: DegreeSelection, path: Path | str):
    _dump(
        {
            "format": SELECTION_FORMAT,
            "beta": selection.beta,
            "c": selection.c,
            "selected": sorted(selection.selected),
            "components": [sorted(c) for c in selection.components],
            "edges": [list(e) for e in sorted(selection.edges)],
            "objective": selection.objective,
        },
        path,
    )


def load_selection(path: Path | str) -> DegreeSelection:
    with _load(path, SELECTION_FORMAT) as document:
        c, objective = document["c"], document["objective"]
        if type(c) is not int or c < 1:
            raise ValueError(f"c {c!r} is not an integer >= 1")
        selected = _level(document["selected"], "selected")
        if type(objective) is not int or objective != len(selected):
            raise ValueError(
                f"objective {objective!r} is not the {len(selected)} selected nodes"
            )
        edges = _list(document["edges"], "edges")
        edges = [_edge(e, f"edges[{i}]", selected) for i, e in enumerate(edges)]
        selection = DegreeSelection(
            beta=finite(document["beta"], "beta"),
            c=c,
            selected=selected,
            edges=_distinct(edges, "edges", "pair"),
        )
        components = _list(document["components"], "components")
        stored = tuple(_level(p, f"components[{i}]") for i, p in enumerate(components))
        if stored != selection.components:
            raise ValueError(f"components {components!r} are not those of the edges")
        return selection


def _edge(edge, where: str, selected: frozenset[int]) -> tuple[int, int]:
    if not (isinstance(edge, list) and len(edge) == 2):
        raise ValueError(f"{where}: expected a pair of node ids, found {edge!r}")
    a, b = _node_id(edge[0], where), _node_id(edge[1], where)
    if not (a < b and a in selected and b in selected):
        raise ValueError(f"{where}: {edge!r} is not an ascending pair of selected nodes")
    return a, b


def load_profile(path: Path | str) -> TransceiverProfile:
    with _load(path, PROFILE_FORMAT) as document:
        if type(document["name"]) is not str:
            raise ValueError(f"name {document['name']!r} is not a string")
        levels = {}
        for name in ("tx_levels", "sensitivity_levels"):
            values = _list(document[name], name)
            levels[name] = tuple(finite(v, f"{name}[{i}]") for i, v in enumerate(values))
        return TransceiverProfile(name=document["name"], **levels)


def load_scenario_matrix(path: Path | str, seed: int | None = None) -> LossMatrix:
    """Read a scenario file and generate its loss matrix.

    Kinds: ``log-distance`` (a ``positions`` list, as in a positions
    file), ``grid`` and ``chain``.
    Every other field is passed by name to the kind's generator, so an
    unknown field is an error. A non-None ``seed``, the ``--seed`` flag,
    overrides the scenario's own seed; its errors name the flag, and a
    chain, which draws nothing, refuses it.
    """
    if seed is not None:
        integer(seed, "--seed")
    with _load(path, SCENARIO_FORMAT) as document:
        del document["format"]
        kind = document.pop("kind", None)
        if seed is not None:
            if kind == "chain":
                raise ValueError(f"--seed {seed}: a chain scenario has no random draws")
            document["seed"] = seed
        if kind == "chain":
            return chain_scenario(**document)
        if kind == "grid":
            return grid_scenario(**document)
        if kind == "log-distance":
            document["positions"] = _positions(document["positions"])
            return generate(**document)
        raise ValueError(f"unknown scenario kind {kind!r}")


def graph_to_dot(nodes, edges) -> str:
    """DOT export of ``nodes`` in the given order and ``edges`` in sorted order."""
    lines = ["graph topology {"]
    lines.extend(f"  {node};" for node in nodes)
    for a, b in sorted(edges):
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def selection_to_dot(selection: DegreeSelection) -> str:
    return graph_to_dot(sorted(selection.selected), selection.edges)


def tree_to_dot(tree: LayeredTree, matrix: LossMatrix) -> str:
    """DOT export with one rank per level and each node's links to its parents."""
    lines = ["graph tree {", "  rankdir=TB;"]
    for level in tree.levels:
        members = "; ".join(str(n) for n in sorted(level))
        lines.append(f"  {{ rank=same; {members}; }}")
    for i in range(1, len(tree.levels)):
        for v in sorted(tree.levels[i]):
            for parent in sorted(parents_of(tree, matrix, v, i)):
                lines.append(f"  {parent} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def degree_distribution_csv(distribution: dict[float, tuple[int, ...]]) -> str:
    """CSV rows ``beta,degree,count`` over the whole family."""
    lines = ["beta,degree,count"]
    for beta in sorted(distribution):
        counts: dict[int, int] = {}
        for degree in distribution[beta]:
            counts[degree] = counts.get(degree, 0) + 1
        for degree in sorted(counts):
            lines.append(f"{beta:g},{degree},{counts[degree]}")
    return "\n".join(lines) + "\n"


def sha256_file(path: Path | str) -> str:
    """Hex sha256 of a file, read in 64 KiB chunks so no input is held whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_dir: Path | str, command: str, arguments: dict, inputs: list[Path | str]
):
    """Provenance record: config, input hashes and tool version."""
    _dump(
        {
            "tool": "topogen",
            "version": __version__,
            "command": command,
            "arguments": arguments,
            "inputs": {str(p): sha256_file(p) for p in sorted(map(str, inputs))},
        },
        Path(out_dir) / "manifest.json",
    )
