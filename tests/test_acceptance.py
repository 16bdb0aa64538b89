"""Acceptance gate: one test per release criterion.

Each test prints a PASS line when its criterion holds at the stated
tolerance; run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion report.
"""

import hashlib
import itertools
import json
import random
import time
from pathlib import Path

from helpers import best_regular_subset_size, brute_force, random_matrix, random_program
from topogen import ilp, io
from topogen.cli import main
from topogen.degree import select_at, verify_regular
from topogen.graphs import GraphFamily, neighborhood_graph
from topogen.radio import AT86RF231, RadioSetting
from topogen.synth import chain_scenario, generate
from topogen.trees import KappaSpec, monitored_bfs, reduce_tree

ONE = KappaSpec.parse("const:1")
LINEAR = KappaSpec.parse("linear")


def report(name):
    print(f"ACCEPTANCE PASS: {name}")


def test_link_budget_arithmetic():
    assert RadioSetting(-17, -63).budget == 46
    assert RadioSetting(-3, -66).budget == 63
    report("link-budget arithmetic (46 dB and 63 dB worked examples, exact)")


def test_budget_range_spans_31_to_104():
    assert AT86RF231.min_budget == 31
    assert AT86RF231.max_budget == 104
    report("achievable budgets span exactly [31, 104] dB for AT86RF231")


def random_synthetic_matrix(rng):
    n = rng.randrange(2, 21)
    positions = {}
    while len(positions) < n:
        positions[len(positions)] = (
            rng.uniform(0, 40), rng.uniform(0, 40), 0.0
        )
    return generate(
        positions,
        shadowing_sigma=rng.uniform(0, 10),
        asymmetry_sigma=rng.uniform(0, 4),
        seed=rng.randrange(10**6),
    )


def test_graph_family_monotonicity():
    start = time.monotonic()
    rng = random.Random(2024)
    violations = 0
    for _ in range(200):
        matrix = random_synthetic_matrix(rng)
        previous = None
        for beta in GraphFamily(matrix).betas():
            edges = neighborhood_graph(matrix, beta).edges
            if previous is not None and not previous <= edges:
                violations += 1
            previous = edges
    elapsed = time.monotonic() - start
    assert violations == 0
    assert elapsed < 10
    report(f"edge monotonicity on 200 random matrices, 0 violations ({elapsed:.1f}s)")


def test_ilp_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(4096)
    for _ in range(200):
        program = random_program(rng, rng.randrange(1, 16))
        exact, oracle = ilp.solve(program), brute_force(program)
        assert sum(exact.assignment.values()) == sum(oracle.assignment.values())
        assert exact.assignment == oracle.assignment
    degree_checked = 0
    while degree_checked < 50:
        matrix = random_matrix(rng, rng.randrange(3, 13), present=0.55)
        c = rng.randrange(1, 4)
        beta = rng.uniform(45, 95)
        graph = neighborhood_graph(matrix, beta)
        from topogen.degree import build_degree_program

        exact = sum(ilp.solve(build_degree_program(graph, c)).assignment.values())
        assert exact == best_regular_subset_size(graph, c)
        degree_checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(
        "solver matches brute force on 200 programs and 50 degree instances "
        f"({elapsed:.1f}s)"
    )


def test_degree_selections_all_c_regular():
    rng = random.Random(555)
    checked = 0
    for _ in range(20):
        matrix = random_matrix(rng, rng.randrange(4, 11), present=0.6)
        c = rng.randrange(1, 4)
        for beta in (45.0, 55.0, 65.0, 75.0, 85.0, 95.0):
            selection = select_at(matrix, beta, c, floor=1)
            if selection is None:
                continue
            assert verify_regular(selection) == []
            graph = neighborhood_graph(matrix, selection.beta)
            for u in selection.selected:
                assert len(graph.adjacency[u] & selection.selected) == c
            checked += 1
    assert checked > 0
    report(f"independent counter confirms c-regularity on {checked} selections")


def test_monitored_bfs_hand_oracles():
    chain = chain_scenario(6, 45, 90)
    tree = monitored_bfs(chain, 0, 50, 15, ONE)
    assert tree.depth == 5
    assert all(len(level) == 1 for level in tree.levels)

    mesh_losses = {}
    for a in range(6):
        for b in range(6):
            if a != b:
                mesh_losses[(a, b)] = 50.0
    from helpers import matrix_from_losses

    mesh = matrix_from_losses(mesh_losses)
    for root in range(6):
        assert monitored_bfs(mesh, root, 60, 15, LINEAR).depth <= 1
    report("chain depth 5 with singleton levels; full mesh capped at depth 1")


def test_margin_monotonicity():
    rng = random.Random(31337)
    for _ in range(100):
        matrix = random_matrix(rng, rng.randrange(4, 13), present=0.5)
        root = rng.randrange(len(matrix.nodes))
        beta = rng.uniform(40, 90)
        d15 = monitored_bfs(matrix, root, beta, 15, ONE).depth
        d5 = monitored_bfs(matrix, root, beta, 5, ONE).depth
        d0 = monitored_bfs(matrix, root, beta, 0, ONE).depth
        assert d15 <= d5 <= d0
    report("depth(margin 15) <= depth(5) <= depth(0) on 100 instances, 0 violations")


def reduction_minimum(tree, matrix, kappa):
    graph = neighborhood_graph(matrix, tree.beta)
    reducible = sorted(set().union(*tree.levels[1:]))
    for size in range(len(reducible) + 1):
        for keep in itertools.combinations(reducible, size):
            keep_set = set(keep) | {tree.root}
            feasible = True
            for i in range(1, tree.depth + 1):
                level = tree.levels[i] & keep_set
                if len(level) < kappa(i):
                    feasible = False
                    break
                parents = tree.levels[i - 1] & keep_set
                if any(not (graph.adjacency[u] & parents) for u in level):
                    feasible = False
                    break
            if feasible:
                return size + 1
    raise AssertionError("input tree itself infeasible")


def test_reduction_optimality():
    start = time.monotonic()
    rng = random.Random(7331)
    checked = 0
    while checked < 50:
        matrix = random_matrix(rng, rng.randrange(5, 13), present=0.5)
        root = rng.randrange(len(matrix.nodes))
        kappa = rng.choice([ONE, LINEAR])
        tree = monitored_bfs(matrix, root, rng.uniform(50, 95), 5, kappa)
        if tree.depth < 1 or tree.total_nodes - 1 > 15:
            continue
        reduced = reduce_tree(tree, matrix, kappa)
        from topogen.trees import check_tree

        assert check_tree(reduced, matrix, kappa) == []
        assert reduced.total_nodes == reduction_minimum(tree, matrix, kappa)
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(f"reduction equals exhaustive minimum on 50 trees ({elapsed:.1f}s)")


def test_requirement_4_exclusion():
    from helpers import symmetric_matrix

    losses = {(0, 1): 45.0, (1, 2): 45.0, (0, 2): 58.0}
    blocked = monitored_bfs(symmetric_matrix(losses), 0, 50, 15, ONE)
    assert blocked.depth == 1
    assert 2 not in blocked.nodes

    losses[(0, 2)] = 90.0
    admitted = monitored_bfs(symmetric_matrix(losses), 0, 50, 15, ONE)
    assert admitted.depth == 2
    assert 2 in admitted.levels[2]
    report("strong shortcut excludes the level-2 node; removing it admits it")


def run_pipeline(base: Path):
    base.mkdir()
    scenario = {
        "format": io.SCENARIO_FORMAT,
        "kind": "grid",
        "rows": 3,
        "cols": 4,
        "spacing": 2.5,
        "shadowing_sigma": 6.0,
        "asymmetry_sigma": 1.0,
        "seed": 17,
    }
    (base / "scenario.json").write_text(json.dumps(scenario))
    io.save_positions(
        {r * 4 + c: (c * 2.5, r * 2.5, 0.0) for r in range(3) for c in range(4)},
        base / "positions.json",
    )
    grid = ["--beta-min", "40", "--beta-max", "80"]
    assert main(["synth", str(base / "scenario.json"), "--out", str(base)]) == 0
    matrix = str(base / "matrix.json")
    assert main(["analyze", matrix, "--correlation", "--positions",
                 str(base / "positions.json"), "--out", str(base / "analyze"), *grid]) == 0
    assert main(["degree", matrix, "2", "--out", str(base / "degree"), *grid]) == 0
    assert main(["tree", matrix, "--kappa", "const:1", "--reduce",
                 "--out", str(base / "tree"), *grid]) == 0
    assert main(["sweep-report", matrix, "--kappa", "linear",
                 "--out", str(base / "report"), *grid]) == 0
    assert main(["verify", str(base / "tree" / "tree.json"), matrix,
                 "--kappa", "const:1"]) == 0
    digest = hashlib.sha256()
    for path in sorted(base.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(base).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def test_pipeline_determinism(tmp_path, monkeypatch):
    hashes = set()
    for run in range(3):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        hashes.add(run_pipeline(Path("work")))
    assert len(hashes) == 1
    report("full pipeline byte-identical across 3 runs (sha256)")
