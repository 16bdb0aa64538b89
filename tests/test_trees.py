import dataclasses
import hashlib
import itertools
import random
import weakref
from collections import deque

import pytest

from helpers import (
    matrix_from_losses,
    random_matrix,
    relabel,
    relabeled,
    shifted,
    symmetric_matrix,
)
from test_edge_births import graph_bfs
from topogen import ilp, trees
from topogen.graphs import GraphFamily, neighborhood_graph
from topogen.measurements import LossMatrix, MatrixEntry
from topogen.synth import chain_scenario, grid_scenario
from topogen.trees import (
    KappaSpec,
    LayeredTree,
    build_reduction_program,
    check_tree,
    monitored_bfs,
    rank_key,
    reduce_tree,
    sweep_trees,
)

LINEAR = KappaSpec.parse("linear")
ONE = KappaSpec.parse("const:1")


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


# unsorted and sparse, so no node's position in the list is its id
STAR_NODES = [907, -3, 42, 15, 600, 8, 77, 1000003, 5]
STAR_ROOT = 42


def star_matrix(degree):
    """The root links at 50 dB to ``degree`` leaves, each leaf to a node of its own.

    The first two leaves link to each other, which keeps neither out of
    level 1. One node links to the root at 62 dB, above a bound of 55 but
    within 55 + 10, so it may join no level; the first leaf links to it too.
    """
    others = [n for n in STAR_NODES if n != STAR_ROOT]
    leaves, rest = others[:degree], others[degree:]
    links = {(STAR_ROOT, leaf): 50.0 for leaf in leaves}
    links[STAR_ROOT, rest[0]] = 62.0
    links.update({(leaf, far): 50.0 for leaf, far in zip(leaves, rest[1:])})
    if leaves:
        links[leaves[0], rest[0]] = 50.0
    if len(leaves) > 1:
        links[leaves[0], leaves[1]] = 50.0
    entries = {}
    for (a, b), loss in links.items():
        entries[a, b] = entries[b, a] = MatrixEntry(mean_loss=loss, stddev=0.0, count=1)
    return LossMatrix(nodes=STAR_NODES, channel=26, entries=entries)


@pytest.mark.parametrize("form", ["const:{}", "table:1={}"])
@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_level_one_at_the_breadth_boundary(form, k, offset):
    # the root's degree at the bound is k - 1, k or k + 1, or it has no neighbour
    degree = 0 if offset is None else k + offset
    matrix = star_matrix(degree)
    kappa = KappaSpec.parse(form.format(k))
    tree = monitored_bfs(matrix, STAR_ROOT, 55.0, 10.0, kappa)
    assert tree == graph_bfs(matrix, STAR_ROOT, 55.0, 10.0, kappa)
    leaves = frozenset(matrix.neighbors_within(STAR_ROOT, 55.0))
    assert len(leaves) == degree
    assert tree.levels[1:2] == ((leaves,) if degree >= k else ())
    with pytest.raises(ValueError, match="unknown root 3"):
        monitored_bfs(matrix, 3, 55.0, 10.0, kappa)  # 3 is a position, not a node


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


@pytest.mark.parametrize("margin", [-100.0, float("nan")])
def test_margin_below_zero_or_nan_is_refused_before_the_search(margin):
    # with no margin band the placed levels are not blocked, so a search
    # that ran would bounce between nodes 1 and 2 of the chain for ever
    with pytest.raises(ValueError, match="must be >= 0|is NaN"):
        monitored_bfs(chain_scenario(3, 45, 90), 0, 50, margin, ONE)


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
    family = GraphFamily(matrix, beta_min=45, beta_max=55)
    for tree in sweep_trees(matrix, LINEAR, 15, family):
        assert tree.depth <= 1


def test_sweep_finds_chain():
    matrix = chain_scenario(6, 45, 90)
    family = GraphFamily(matrix, beta_min=40, beta_max=60)
    swept = sweep_trees(matrix, ONE, 15, family)
    best = swept[0]
    assert best.depth == 5
    assert best.root == 0  # tie with root 5 broken by smaller id after beta
    every = [
        monitored_bfs(matrix, v0, beta, 15, ONE) for beta in family.betas() for v0 in range(6)
    ]
    assert all(t.depth == 5 for t in swept)
    assert len(swept) == sum(t.depth == 5 for t in every)
    keys = [(-t.depth, t.total_nodes, t.beta, t.root) for t in swept]
    assert keys == sorted(keys)


def test_sweep_keeps_every_tree_when_all_tie():
    # no edge is born below 45 dB, so every tree is its root alone
    matrix = chain_scenario(6, 45, 90)
    family = GraphFamily(matrix, beta_min=31, beta_max=44)
    swept = sweep_trees(matrix, ONE, 15, family)
    assert {t.depth for t in swept} == {0}
    assert len(swept) == len(family.betas()) * 6
    assert swept == sorted(swept, key=rank_key)


def test_sweep_holds_at_most_one_tree_beyond_the_deepest(monkeypatch):
    # a sweep that builds every tree and then filters holds thousands here
    matrix = seed_one_grid(8)
    search = trees.monitored_bfs
    live = {}  # serial number -> depth of each built tree not yet freed
    deepest = 0
    extra = []

    def counted(*args, **kwargs):
        nonlocal deepest
        extra.append(sum(depth < deepest for depth in live.values()))
        tree = search(*args, **kwargs)
        live[len(extra)] = tree.depth
        weakref.finalize(tree, live.pop, len(extra))
        deepest = max(deepest, tree.depth)
        return tree

    monkeypatch.setattr(trees, "monitored_bfs", counted)
    swept = sweep_trees(matrix, LINEAR, 15, GraphFamily(matrix))
    assert len(extra) == 74 * 64
    assert max(extra) <= 1
    assert sorted(live.values()) == [deepest] * len(swept)


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
    """Brute-force least-size valid reduction of ``tree``.

    Among the least-size keep-sets, returns the tree whose 0/1 keep vector
    is lexicographically smallest in declaration order (level by level,
    sorted), which is the one the solver must pick.
    """
    reducible = [u for level in tree.levels[1:] for u in sorted(level)]
    for size in range(len(reducible) + 1):
        found = []
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
            )
            if not check_tree(candidate, matrix, kappa):
                vector = tuple(int(u in keep_set) for u in reducible)
                found.append((vector, candidate))
        if found:
            return min(found, key=lambda item: item[0])[1]
    return None


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
        assert reduced == reduction_oracle(tree, matrix, ONE)
        assert reduced.total_nodes <= tree.total_nodes
        checked += 1


@pytest.mark.parametrize(
    "root, beta, depth, cap",
    # the second case is the depth-2 tree whose reduction explores the most
    # nodes on this grid; the drop program's packing bound explores 121 and 5,851
    [(51, 103, 1, 250), (31, 71, 2, 16000)],
)
def test_packing_bound_keeps_the_reduction_small(root, beta, depth, cap):
    # a count, not a timing
    matrix = grid_scenario(
        8, 8, 3.0, path_loss_exponent=3.0, shadowing_sigma=4.0,
        asymmetry_sigma=1.0, seed=3,
    )
    kappa = KappaSpec.parse("table:1=3,2=2")
    tree = monitored_bfs(matrix, root, beta, 15, kappa)
    assert tree.depth == depth
    program = build_reduction_program(tree, neighborhood_graph(matrix, beta), kappa)
    assert ilp.solve(program).explored <= cap


def seed_one_grid(side):
    return grid_scenario(
        side, side, 3.0, path_loss_exponent=3.0, shadowing_sigma=4.0,
        asymmetry_sigma=1.0, seed=1,
    )


# sha256 of the tree of every (bound, root) pair, best first by
# ``rank_key``, so a faster search must build the same trees and rank
# them the same way
SWEEP_DIGESTS = {
    # the tree-sweep benchmark's input
    (8, "linear", 15): "6982b42181cdd90b4ec070d7b7059f98a81da8e977373700a4a95c724bf44873",
    # deep trees, where few searches run out of unblocked nodes
    (8, "const:1", 0): "4fa1c8044e1183a5d889bccbf3c5787c71eabb8b7db68a4b606128f8f1398803",
    (16, "linear", 15): "e860dfa29f860c479ec89f82e166372fe69c62643ea6e2917995b71fa6476378",
}


@pytest.mark.parametrize("side, kappa, margin", SWEEP_DIGESTS)
def test_sweep_trees_pinned_on_seed_one_grids(side, kappa, margin):
    matrix = seed_one_grid(side)
    spec = KappaSpec.parse(kappa)
    family = GraphFamily(matrix)
    every = sorted(
        (
            monitored_bfs(matrix, v0, beta, margin, spec)
            for beta in family.betas()
            for v0 in sorted(matrix.nodes)
        ),
        key=rank_key,
    )
    lines = [
        f"{t.root} {t.beta!r} {t.margin!r} {[sorted(level) for level in t.levels]}\n"
        for t in every
    ]
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == SWEEP_DIGESTS[side, kappa, margin]
    deepest = list(itertools.takewhile(lambda t: t.depth == every[0].depth, every))
    assert sweep_trees(matrix, spec, margin, family) == deepest


def relabeled_ids_map_the_winner_and_its_reduction(side):
    matrix = seed_one_grid(side)
    found = []
    for m in (matrix, relabeled(matrix)):
        best = sweep_trees(m, LINEAR, 15, GraphFamily(m))[0]
        found.append((best, reduce_tree(best, m, LINEAR)))
    assert found[0][1].total_nodes < found[0][0].total_nodes
    assert found[1] == tuple(
        LayeredTree(
            root=relabel(tree.root), beta=tree.beta, margin=tree.margin,
            levels=tuple(frozenset(map(relabel, level)) for level in tree.levels),
        )
        for tree in found[0]
    )


def shifted_losses_and_grid_map_the_winner_and_its_reduction(side):
    matrix = seed_one_grid(side)
    found = []
    for db in (0, 10):  # the window moved by 10 dB still ends at the last budget, 104 dB
        m = shifted(matrix, db)
        family = GraphFamily(m, 31 + db, 94 + db)
        best = sweep_trees(m, LINEAR, 15, family)[0]
        found.append((best, reduce_tree(best, m, LINEAR)))
    assert found[0][1].total_nodes < found[0][0].total_nodes
    assert found[1] == tuple(dataclasses.replace(tree, beta=tree.beta + 10) for tree in found[0])


def test_relabeled_ids_map_the_8x8_winner_and_its_reduction():
    relabeled_ids_map_the_winner_and_its_reduction(8)


def test_shifted_losses_and_grid_map_the_8x8_winner_and_its_reduction():
    shifted_losses_and_grid_map_the_winner_and_its_reduction(8)


def test_relabeled_ids_map_the_16x16_winner_and_its_reduction():
    relabeled_ids_map_the_winner_and_its_reduction(16)


def test_shifted_losses_and_grid_map_the_16x16_winner_and_its_reduction():
    shifted_losses_and_grid_map_the_winner_and_its_reduction(16)


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
