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
from .graphs import BoundedGraph
from .measurements import LossMatrix, MatrixEntry, NodePositions
from .radio import TransceiverProfile
from .synth import SynthScenario, chain_scenario, generate, grid_scenario
from .trees import LayeredTree, parents_of

MATRIX_FORMAT = "loss-matrix/1"
POSITIONS_FORMAT = "node-positions/1"
TREE_FORMAT = "layered-tree/1"
SELECTION_FORMAT = "degree-selection/1"
PROFILE_FORMAT = "radio-profile/1"
SCENARIO_FORMAT = "synth-scenario/1"


def _dump(document: dict, path: Path | str):
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def _node_id(value, where: str) -> int:
    if type(value) is not int:  # bool is an int subclass, but not a node id
        raise ValueError(f"{where}: node id {value!r} is not an integer")
    return value


def _finite(value, where: str) -> float:
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{where} {value!r} is not a finite number")
    return value


def save_matrix(matrix: LossMatrix, path: Path | str):
    document = {
        "format": MATRIX_FORMAT,
        "channel": matrix.channel,
        "nodes": sorted(matrix.nodes),
        "entries": [
            {
                "tx": tx,
                "rx": rx,
                "mean_loss": entry.mean_loss,
                "stddev": entry.stddev,
                "count": entry.count,
            }
            for (tx, rx), entry in sorted(matrix.entries.items())
        ],
    }
    if matrix.meta:
        document["meta"] = matrix.meta
    _dump(document, path)


def load_matrix(path: Path | str) -> LossMatrix:
    with _load(path, MATRIX_FORMAT) as document:
        nodes = [_node_id(n, f"nodes[{i}]") for i, n in enumerate(document["nodes"])]
        known = set(nodes)
        if len(known) != len(nodes):
            raise ValueError("nodes: duplicate node ids")
        entries = {}
        for i, item in enumerate(document["entries"]):
            pair = (
                _node_id(item["tx"], f"entries[{i}].tx"),
                _node_id(item["rx"], f"entries[{i}].rx"),
            )
            loss = item["mean_loss"]
            if not known.issuperset(pair):
                raise ValueError(f"entries[{i}]: node of {pair} not in nodes")
            if pair[0] == pair[1]:
                raise ValueError(f"entries[{i}].rx: node {pair[1]} equals tx, a self pair")
            if pair in entries:
                raise ValueError(f"entries[{i}]: duplicate entry {pair}")
            if not (math.isfinite(loss) and loss >= 0):
                raise ValueError(f"entries[{i}]: mean_loss {loss} is not a loss >= 0")
            entries[pair] = MatrixEntry(
                mean_loss=loss, stddev=item["stddev"], count=item["count"]
            )
        return LossMatrix(
            nodes=nodes,
            channel=document["channel"],
            entries=entries,
            meta=document.get("meta", {}),
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
        return {
            _node_id(item["node"], f"positions[{i}].node"): tuple(
                _finite(item[axis], f"positions[{i}].{axis}") for axis in "xyz"
            )
            for i, item in enumerate(document["positions"])
        }


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
        return LayeredTree(
            root=_node_id(document["root"], "root"),
            beta=_finite(document["beta"], "beta"),
            margin=_finite(document["margin"], "margin"),
            levels=tuple(
                frozenset(_node_id(n, f"levels[{i}]") for n in level)
                for i, level in enumerate(document["levels"])
            ),
            depth=document["depth"],
        )


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
        return DegreeSelection(
            beta=document["beta"],
            c=document["c"],
            selected=frozenset(document["selected"]),
            components=tuple(frozenset(c) for c in document["components"]),
            edges=frozenset(tuple(e) for e in document["edges"]),
            objective=document["objective"],
        )


def save_profile(profile: TransceiverProfile, path: Path | str):
    _dump(
        {
            "format": PROFILE_FORMAT,
            "name": profile.name,
            "tx_levels": list(profile.tx_levels),
            "sensitivity_levels": list(profile.sensitivity_levels),
        },
        path,
    )


def load_profile(path: Path | str) -> TransceiverProfile:
    with _load(path, PROFILE_FORMAT) as document:
        levels = {}
        for name in ("tx_levels", "sensitivity_levels"):
            values = document[name]
            if not isinstance(values, list):
                raise ValueError(f"{name}: expected a list of numbers")
            levels[name] = tuple(_finite(v, f"{name}[{i}]") for i, v in enumerate(values))
        return TransceiverProfile(name=document["name"], **levels)


def load_scenario_matrix(path: Path | str, seed: int | None = None) -> LossMatrix:
    """Read a scenario file and generate its loss matrix.

    Kinds: ``log-distance`` (explicit positions), ``grid`` and ``chain``.
    A non-None ``seed`` overrides the scenario's own seed.
    """
    with _load(path, SCENARIO_FORMAT) as document:
        if seed is not None:
            document["seed"] = seed
        kind = document.get("kind")
        if kind == "chain":
            return chain_scenario(
                n=document["n"],
                on_loss=document["on_loss"],
                off_loss=document["off_loss"],
                channel=document.get("channel", 26),
            )
        params = {
            key: document[key]
            for key in (
                "reference_loss",
                "path_loss_exponent",
                "shadowing_sigma",
                "asymmetry_sigma",
                "seed",
                "channel",
            )
            if key in document
        }
        if kind == "grid":
            return grid_scenario(
                rows=document["rows"],
                cols=document["cols"],
                spacing=document["spacing"],
                **params,
            )
        if kind == "log-distance":
            positions = {
                int(node): tuple(p) for node, p in document["positions"].items()
            }
            return generate(SynthScenario.from_positions(positions, **params))
        raise ValueError(f"unknown scenario kind {kind!r}")


def graph_to_dot(graph: BoundedGraph, positions: NodePositions | None = None) -> str:
    lines = ["graph topology {"]
    for node in graph.nodes:
        if positions and node in positions:
            x, y = positions[node][0], positions[node][1]
            lines.append(f'  {node} [pos="{x},{y}!"];')
        else:
            lines.append(f"  {node};")
    for a, b in sorted(graph.edges):
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def selection_to_dot(selection: DegreeSelection) -> str:
    return graph_to_dot(selection.graph)


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
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
