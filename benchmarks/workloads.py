"""The benchmark's workloads: generated inputs, command lines and checks.

Every matrix comes from ``synth.grid_scenario`` on a grid with 3 m
spacing and the ROADMAP baseline's radio parameters, seeded by the
harness seed. Commands use relative paths from a fresh working directory,
so ``manifest.json`` does not depend on where a run happens.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from topogen import degree, io, synth, trees

SPACING = 3.0
SCENARIO = {"path_loss_exponent": 3.0, "shadowing_sigma": 4.0, "asymmetry_sigma": 1.0}

# Campaign log of the ingest workload: integer RSSI of packets sent at
# 3 dBm, with per-packet noise around the scenario's mean loss.
TX_POWER = 3
CHANNEL = 26
PACKETS = 100
PACKET_SIGMA = 2.0
LOG_STREAM = 7  # keeps the packet noise independent of the scenario's draws
MALFORMED = (  # (after sequence number, line); each one is rejected by ingest
    (10, "garbage\n"),
    (30, "0 1 3 minus-forty 26 30\n"),
    (50, "0 0 3 -40 26 50\n"),
    (70, "0 1 3 -40 9 70\n"),
    (90, "0 1 3 10 26 90\n"),
)
KAPPA = "linear"
BOUNDS = 74  # the CLI's default grid: 31-104 dB in 1 dB steps


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``out`` is the directory holding its outputs."""

    name: str
    argv: tuple[str, ...]
    budget_s: float
    out: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: tuple[int, int]
    setup: Callable[[int, tuple[int, int]], None]
    setup_budget_s: float
    commands: tuple[Command, ...]
    # (working directory, grid, results) -> {command index: failure reason}
    check: Callable[[Path, tuple[int, int], list[dict]], dict[int, str]]


def grid_matrix(grid: tuple[int, int], seed: int):
    rows, cols = grid
    return synth.grid_scenario(rows, cols, SPACING, seed=seed, **SCENARIO)


def _expect_codes(results: list[dict], expected: list[int]) -> dict[int, str]:
    return {
        index: f"exit code {result['code']}, expected {code}"
        for index, (result, code) in enumerate(zip(results, expected))
        if result["code"] != code
    }


# ingest-analyze ---------------------------------------------------------


def setup_ingest_analyze(seed: int, grid: tuple[int, int]):
    matrix = grid_matrix(grid, seed)
    pairs = sorted(matrix.entries)
    mean_loss = np.array([matrix.entries[pair].mean_loss for pair in pairs])
    rng = np.random.default_rng([seed, LOG_STREAM])
    noise = rng.normal(0.0, PACKET_SIGMA, size=(len(pairs), PACKETS))
    rssi = np.minimum(np.rint(TX_POWER - mean_loss[:, None] - noise), TX_POWER)
    rssi = rssi.astype(np.int64)
    malformed = dict(MALFORMED)
    with open("campaign.log", "w", encoding="utf-8") as log:
        log.write("# tx rx tx_power rssi channel seq\n")
        for seq in range(PACKETS):
            log.write(
                "".join(
                    f"{tx} {rx} {TX_POWER} {value} {CHANNEL} {seq}\n"
                    for (tx, rx), value in zip(pairs, rssi[:, seq].tolist())
                )
            )
            log.write(malformed.get(seq, ""))
    expected = {
        f"{tx} {rx}": float(loss)
        for (tx, rx), loss in zip(pairs, (TX_POWER - rssi).mean(axis=1))
    }
    Path("expected_means.json").write_text(json.dumps(expected), encoding="utf-8")
    io.save_positions(synth.grid_positions(*grid, SPACING), "positions.json")


def check_ingest_analyze(cwd: Path, grid, results) -> dict[int, str]:
    failures = _expect_codes(results, [0, 0])
    n = grid[0] * grid[1]
    if 0 not in failures:
        summary = f"{n * (n - 1) * PACKETS} samples accepted, {len(MALFORMED)} lines rejected"
        matrix = io.load_matrix(cwd / "ingest" / "matrix.json")
        expected = json.loads((cwd / "expected_means.json").read_text(encoding="utf-8"))
        if not results[0]["stdout"].startswith(summary):
            failures[0] = f"ingest summary is not {summary!r}"
        elif len(matrix.entries) != n * (n - 1):
            failures[0] = f"{len(matrix.entries)} entries, expected {n * (n - 1)}"
        elif any(
            entry.count != PACKETS
            or abs(entry.mean_loss - expected[f"{tx} {rx}"]) > 1e-9
            for (tx, rx), entry in matrix.entries.items()
        ):
            failures[0] = "entry counts or mean losses differ from the log"
    if 1 not in failures:
        rows = (cwd / "analysis" / "degrees.csv").read_text(encoding="utf-8").split()[1:]
        per_beta: dict[str, int] = {}
        for row in rows:
            beta, _, count = row.split(",")
            per_beta[beta] = per_beta.get(beta, 0) + int(count)
        if len(per_beta) != BOUNDS or set(per_beta.values()) != {n}:
            failures[1] = f"degree distribution does not cover every node at {BOUNDS} bounds"
        elif "distance-loss correlation:" not in results[1]["stdout"]:
            failures[1] = "no correlation reported"
    return failures


# tree-sweep -------------------------------------------------------------


def setup_tree_sweep(seed: int, grid: tuple[int, int]):
    io.save_matrix(grid_matrix(grid, seed), "matrix.json")
    # A second seed stands in for a fresh campaign on the same deployment.
    io.save_matrix(grid_matrix(grid, seed + 1), "fresh.json")


def check_tree_sweep(cwd: Path, grid, results) -> dict[int, str]:
    if results[0]["code"] != 0:
        return _expect_codes(results, [0, 0, 0])
    kappa = trees.KappaSpec.parse(KAPPA)
    tree = io.load_tree(cwd / "tree" / "tree.json")
    own = trees.check_tree(tree, io.load_matrix(cwd / "matrix.json"), kappa)
    fresh = trees.check_tree(tree, io.load_matrix(cwd / "fresh.json"), kappa)
    # verify exits 0 when the tree meets every requirement, 3 otherwise.
    failures = _expect_codes(results, [0, 3 if own else 0, 3 if fresh else 0])
    if own:
        failures[0] = f"tree violates its requirements: {own}"
    return failures


# degree-sweep -----------------------------------------------------------


def setup_degree_sweep(seed: int, grid: tuple[int, int]):
    io.save_matrix(grid_matrix(grid, seed), "matrix.json")


def check_degree_sweep(cwd: Path, grid, results) -> dict[int, str]:
    failures = _expect_codes(results, [0])
    if 0 not in failures:
        path = cwd / "degree" / "selection.json"
        if not path.exists():
            failures[0] = "no selection written"
        else:
            selection = io.load_selection(path)
            bad = degree.verify_regular(selection)
            if bad:
                failures[0] = f"nodes {bad} do not have degree {selection.c}"
    return failures


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="ingest-analyze",
            why="log parsing, aggregation and matrix I/O dominate; ilp and trees never run",
            grid=(8, 8),
            setup=setup_ingest_analyze,
            setup_budget_s=30.0,
            commands=(
                Command(
                    "ingest",
                    ("ingest", "campaign.log", "--min-count", str(PACKETS), "--out", "ingest"),
                    30.0,
                    out="ingest",
                ),
                Command(
                    "analyze",
                    (
                        "analyze", "ingest/matrix.json", "--correlation",
                        "--positions", "positions.json", "--out", "analysis",
                    ),
                    15.0,
                    out="analysis",
                ),
            ),
            check=check_ingest_analyze,
        ),
        Workload(
            name="tree-sweep",
            why="per-(bound, root) graph rebuilds dominate tree; its one reduction ILP is tiny",
            grid=(8, 8),
            setup=setup_tree_sweep,
            setup_budget_s=20.0,
            commands=(
                Command(
                    "tree",
                    (
                        "tree", "matrix.json", "--kappa", KAPPA, "--margin", "15",
                        "--reduce", "--out", "tree",
                    ),
                    75.0,
                    out="tree",
                ),
                Command("verify", ("verify", "tree/tree.json", "matrix.json", "--kappa", KAPPA), 10.0),
                Command("verify", ("verify", "tree/tree.json", "fresh.json", "--kappa", KAPPA), 10.0),
            ),
            check=check_tree_sweep,
        ),
        Workload(
            name="degree-sweep",
            why="the constant-degree ILP over 74 bounds dominates; graph builds are under 1%",
            grid=(4, 4),
            setup=setup_degree_sweep,
            setup_budget_s=20.0,
            commands=(
                Command("degree", ("degree", "matrix.json", "3", "--out", "degree"), 60.0, out="degree"),
            ),
            check=check_degree_sweep,
        ),
    )
}
