import itertools
import random
from collections import deque

import pytest

from helpers import matrix_from_losses, random_matrix, symmetric_matrix
from topogen.graphs import GraphFamily, neighborhood_graph
from topogen.measurements import LossMatrix, MatrixEntry
from topogen.synth import chain_scenario
from topogen.trees import (
    KappaSpec,
    LayeredTree,
    build_reduction_program,
    check_tree,
    monitored_bfs,
    reduce_tree,
    sweep_trees,
)

LINEAR = KappaSpec(kind="linear")
ONE = KappaSpec(kind="const", value=1)


def test_kappa_parsing():
    assert KappaSpec.parse("linear")(3) == 4
    assert KappaSpec.parse("const:2")(7) == 2
    table = KappaSpec.parse("table:1=2,2=3")
    assert table(1) == 2 and table(2) == 3 and table(5) == 1
    with pytest.raises(ValueError):
        KappaSpec.parse("quadratic")
    with pytest.raises(ValueError):
        KappaSpec.parse("const:0")
    for text, item in (
        ("table:1=2,1=3", "'1=3'"),
        ("table:0=5", "'0=5'"),
        ("table:-1=2", "'-1=2'"),
        ("table:1", "'1'"),
        ("table:1=2=3", "'1=2=3'"),
        ("table:2=0", "'2=0'"),
    ):
        with pytest.raises(ValueError, match=item):
            KappaSpec.parse(text)


def test_isolated_root_depth_zero():
    matrix = symmetric_matrix({(1, 2): 45.0}, nodes={1, 2, 3})
    tree = monitored_bfs(matrix, 3, 50, 15, LINEAR)
    assert tree.depth == 0
    assert tree.levels == (frozenset({3}),)


def test_chain_hand_simulation():
    # hand-run of the layered search on the 6-node chain: each level is
    # the next chain node, six levels total
    matrix = chain_scenario(6, 45, 90)
    tree = monitored_bfs(matrix, 0, 50, 15, ONE)
    assert tree.depth == 5
    assert tree.levels == tuple(frozenset({i}) for i in range(6))
    assert check_tree(tree, matrix, ONE) == []


def test_unknown_root():
    with pytest.raises(ValueError, match="unknown root"):
        monitored_bfs(chain_scenario(3, 45, 90), 99, 50, 15, ONE)


def test_full_mesh_caps_at_depth_one():
    matrix = symmetric_matrix(
        {(a, b): 50.0 for a in range(6) for b in range(a + 1, 6)}
    )
    for root in range(6):
        tree = monitored_bfs(matrix, root, 60, 15, LINEAR)
        assert tree.depth <= 1


def test_margin_shortcut_excludes_node():
    # 0-1-2 chain at the bound; the 0-2 link is above the bound but
    # within bound+margin, so 2 may not join level 2
    losses = {(0, 1): 45.0, (1, 2): 45.0, (0, 2): 58.0}
    with_shortcut = symmetric_matrix(losses)
    tree = monitored_bfs(with_shortcut, 0, 50, 15, ONE)
    assert tree.depth == 1
    assert tree.levels == (frozenset({0}), frozenset({1}))
    losses[(0, 2)] = 90.0
    without = symmetric_matrix(losses)
    tree = monitored_bfs(without, 0, 50, 15, ONE)
    assert tree.depth == 2
    assert tree.levels[2] == frozenset({2})


def test_compact_grid_fixture_depth_two():
    # engineered 12-node fixture: a compact deployment where the linear
    # breadth requirement caps the tree at depth 2 with 6 nodes
    links = {(8, 5), (8, 10), (5, 4), (10, 7), (10, 12)}
    matrix = symmetric_matrix(
        {(min(a, b), max(a, b)): 45.0 for a, b in links}, nodes=range(1, 13)
    )
    tree = monitored_bfs(matrix, 8, 46, 15, LINEAR)
    assert tree.depth == 2
    assert tree.nodes == {4, 5, 7, 8, 10, 12}
    assert tree.levels[0] == frozenset({8})
    assert tree.levels[1] == frozenset({5, 10})
    assert tree.levels[2] == frozenset({4, 7, 12})


def test_result_independent_of_entry_order():
    rng = random.Random(77)
    matrix = random_matrix(rng, 9, present=0.5)
    reference = monitored_bfs(matrix, 0, 70, 10, ONE)
    items = list(matrix.entries.items())
    for _ in range(5):
        rng.shuffle(items)
        shuffled = LossMatrix(
            nodes=list(matrix.nodes), channel=matrix.channel, entries=dict(items)
        )
        assert monitored_bfs(shuffled, 0, 70, 10, ONE) == reference


def bfs_layers(matrix, root, beta):
    """Plain breadth-first layering oracle."""
    graph = neighborhood_graph(matrix, beta)
    layers = [{root}]
    seen = {root}
    frontier = deque([root])
    while True:
        nxt = set()
        for u in sorted(layers[-1]):
            for v in graph.adjacency[u]:
                if v not in seen:
                    nxt.add(v)
        if not nxt:
            break
        seen |= nxt
        layers.append(nxt)
    return layers


def test_zero_margin_equals_plain_bfs():
    rng = random.Random(55)
    for _ in range(30):
        matrix = random_matrix(rng, rng.randrange(3, 10), present=0.5)
        root = rng.randrange(len(matrix.nodes))
        beta = rng.uniform(40, 95)
        tree = monitored_bfs(matrix, root, beta, 0, ONE)
        oracle = bfs_layers(matrix, root, beta)
        assert [set(level) for level in tree.levels] == oracle


def test_margin_monotonicity():
    rng = random.Random(101)
    for _ in range(120):
        matrix = random_matrix(rng, rng.randrange(4, 12), present=0.5)
        root = rng.randrange(len(matrix.nodes))
        beta = rng.uniform(40, 90)
        depths = [
            monitored_bfs(matrix, root, beta, margin, ONE).depth
            for margin in (15, 5, 0)
        ]
        assert depths[0] <= depths[1] <= depths[2]


def test_kappa_monotonicity():
    rng = random.Random(103)
    for _ in range(60):
        matrix = random_matrix(rng, rng.randrange(4, 12), present=0.6)
        root = rng.randrange(len(matrix.nodes))
        beta = rng.uniform(45, 90)
        small = monitored_bfs(matrix, root, beta, 5, ONE).depth
        large = monitored_bfs(matrix, root, beta, 5, LINEAR).depth
        assert small >= large


def test_checker_accepts_all_constructed_trees():
    rng = random.Random(107)
    for _ in range(40):
        matrix = random_matrix(rng, rng.randrange(3, 10), present=0.5)
        root = rng.randrange(len(matrix.nodes))
        tree = monitored_bfs(matrix, root, rng.uniform(40, 95), rng.uniform(0, 15), ONE)
        assert check_tree(tree, matrix, ONE) == []


def test_sweep_fully_meshed():
    matrix = symmetric_matrix(
        {(a, b): 50.0 for a in range(5) for b in range(a + 1, 5)}
    )
    family = GraphFamily(matrix, beta_min=45, beta_max=55, step=5)
    for tree in sweep_trees(matrix, LINEAR, 15, family):
        assert tree.depth <= 1


def test_sweep_finds_chain():
    matrix = chain_scenario(6, 45, 90)
    family = GraphFamily(matrix, beta_min=40, beta_max=60, step=5)
    swept = sweep_trees(matrix, ONE, 15, family)
    best = swept[0]
    assert best.depth == 5
    assert best.root == 0  # tie with root 5 broken by smaller id after beta
    assert len(swept) == len(family.betas()) * 6
    keys = [(-t.depth, t.total_nodes, t.beta, t.root) for t in swept]
    assert keys == sorted(keys)


def make_bushy_tree():
    # root 0; level 1 = {1, 2}; level 2 = {3, 4, 5} all hanging off node 1
    losses = {(0, 1): 45.0, (0, 2): 45.0, (1, 3): 45.0, (1, 4): 45.0, (1, 5): 45.0}
    matrix = symmetric_matrix(losses)
    tree = monitored_bfs(matrix, 0, 50, 0, ONE)
    assert tree.depth == 2
    return tree, matrix


def test_reduce_bushy_to_path():
    tree, matrix = make_bushy_tree()
    reduced = reduce_tree(tree, matrix, ONE)
    assert reduced.depth == 2
    assert reduced.total_nodes == 3
    assert reduced.levels[1] == frozenset({1})  # node 2 has no children
    assert check_tree(reduced, matrix, ONE) == []


def test_reduce_already_minimal_unchanged():
    matrix = chain_scenario(4, 45, 90)
    tree = monitored_bfs(matrix, 0, 50, 15, ONE)
    assert reduce_tree(tree, matrix, ONE) == tree


def test_reduce_respects_shared_parent_breadth():
    # level 2 has 4 nodes with a single shared parent and needs only 2
    kappa = KappaSpec.parse("table:1=1,2=2")
    losses = {(0, 1): 45.0}
    for leaf in (2, 3, 4, 5):
        losses[(1, leaf)] = 45.0
    matrix = symmetric_matrix(losses)
    tree = monitored_bfs(matrix, 0, 50, 0, kappa)
    assert len(tree.levels[2]) == 4
    reduced = reduce_tree(tree, matrix, kappa)
    assert len(reduced.levels[2]) == 2
    assert reduced.levels[1] == frozenset({1})


def test_reduce_keeps_sole_parent_chain():
    # node 4 at level 2 requires node 2; node 1 alone cannot support it
    losses = {(0, 1): 45.0, (0, 2): 45.0, (2, 4): 45.0}
    matrix = symmetric_matrix(losses)
    tree = monitored_bfs(matrix, 0, 50, 0, ONE)
    assert tree.levels[1] == frozenset({1, 2})
    reduced = reduce_tree(tree, matrix, ONE)
    assert 2 in reduced.levels[1]
    assert reduced.levels[2] == frozenset({4})


def reduction_oracle(tree, matrix, kappa):
    """Brute-force minimum node count over all keep-subsets."""
    reducible = sorted(set().union(*tree.levels[1:]))
    graph = neighborhood_graph(matrix, tree.beta)
    best = None
    for size in range(len(reducible) + 1):
        for keep in itertools.combinations(reducible, size):
            keep_set = set(keep)
            levels = [frozenset({tree.root})] + [
                frozenset(level & keep_set) for level in tree.levels[1:]
            ]
            candidate = LayeredTree(
                root=tree.root,
                beta=tree.beta,
                margin=tree.margin,
                levels=tuple(levels),
                depth=tree.depth,
            )
            if not check_tree(candidate, matrix, kappa):
                best = candidate.total_nodes
                break
        if best is not None:
            break
    return best


def test_reduction_matches_brute_force():
    rng = random.Random(113)
    checked = 0
    while checked < 25:
        matrix = random_matrix(rng, rng.randrange(5, 11), present=0.55)
        root = rng.randrange(len(matrix.nodes))
        tree = monitored_bfs(matrix, root, rng.uniform(50, 90), 5, ONE)
        if tree.depth < 1 or tree.total_nodes - 1 > 12:
            continue
        reduced = reduce_tree(tree, matrix, ONE)
        assert check_tree(reduced, matrix, ONE) == []
        assert reduced.total_nodes == reduction_oracle(tree, matrix, ONE)
        assert reduced.total_nodes <= tree.total_nodes
        checked += 1


def test_reduction_program_root_is_constant():
    tree, matrix = make_bushy_tree()
    graph = neighborhood_graph(matrix, tree.beta)
    program = build_reduction_program(tree, graph, ONE)
    assert 0 not in program.variables
    assert sorted(program.variables) == [1, 2, 3, 4, 5]


def test_revalidate_pass_and_failures():
    matrix = chain_scenario(4, 45, 90)
    tree = monitored_bfs(matrix, 0, 50, 15, ONE)
    assert check_tree(tree, matrix, ONE) == []

    # a level link rises above the bound: node 2 loses its only parent
    weakened = symmetric_matrix(
        {(0, 1): 45.0, (1, 2): 80.0, (2, 3): 45.0}, nodes=range(4)
    )
    assert any(req == 1 for req, _ in check_tree(tree, weakened, ONE))

    # a new strong shortcut from the root to level 2 breaks requirement 4
    shortcut = symmetric_matrix(
        {(0, 1): 45.0, (1, 2): 45.0, (2, 3): 45.0, (0, 2): 58.0}, nodes=range(4)
    )
    assert any(req == 4 for req, _ in check_tree(tree, shortcut, ONE))


def test_revalidate_missing_nodes():
    matrix = chain_scenario(4, 45, 90)
    tree = monitored_bfs(matrix, 0, 50, 15, ONE)
    fresh = chain_scenario(3, 45, 90)
    with pytest.raises(ValueError, match=r"\[3\]"):
        check_tree(tree, fresh, ONE)
