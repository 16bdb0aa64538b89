"""Edge-birth rows against the per-bound graph code they replaced.

``LossMatrix.edge_births`` gives every bound's graph as a prefix of
per-node rows. The oracles below are the earlier implementations, kept
here verbatim in behaviour: a scan over every directed entry per bound,
a monitored BFS over two such graphs with sorted visiting order, and the
tree requirement checker and DOT link listing over rebuilt graphs.
Hypothesis draws matrices with one-way entries, NaN losses and losses
exactly on a budget and on a budget + margin, where ``<=`` decides.
Node ids are drawn unsorted, sparse, negative and large, because the
monitored BFS keys its bit masks by position in the matrix's node list.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from topogen import io
from topogen.graphs import (
    BoundedGraph,
    GraphFamily,
    degree_distribution,
    monotonicity_report,
    neighborhood_graph,
)
from topogen.measurements import LossMatrix, MatrixEntry
from topogen.trees import (
    KappaSpec,
    LayeredTree,
    check_tree,
    monitored_bfs,
)

BETA_MIN, BETA_MAX = 40.0, 60.0
MARGINS = (0.0, 5.0, 7.5)
# on a budget, on a budget + margin, just beside both, and far outside
ON_GRID = [35.0 + 2.5 * k for k in range(13)]
LOSSES = st.one_of(
    st.sampled_from(ON_GRID),
    st.sampled_from([math.nextafter(x, math.inf) for x in ON_GRID[::2]]),
    st.sampled_from([math.nan, math.inf]),
    st.floats(min_value=0.0, max_value=120.0),
)
KAPPAS = st.sampled_from(["const:1", "const:2", "linear", "table:1=2,2=1"])
ODD_IDS = st.one_of(st.integers(-5, 12), st.sampled_from([10**6, -(10**6), 2**70]))


def node_ids(min_size, max_size):
    """0..n-1, or unique ids in drawn order: unsorted, sparse, negative, large."""
    return st.one_of(
        st.integers(min_size, max_size).map(lambda n: list(range(n))),
        st.lists(ODD_IDS, min_size=min_size, max_size=max_size, unique=True),
    )


@st.composite
def matrices(draw):
    nodes = draw(node_ids(1, 7))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    entries = {
        pair: MatrixEntry(mean_loss=draw(LOSSES), stddev=0.0, count=1)
        for pair, keep in zip(pairs, present)
        if keep
    }
    # constructors accept what loaders reject: NaN goes in directly
    return LossMatrix(nodes=nodes, channel=26, entries=entries)


def scan_graph(matrix, beta):
    """Oracle: the dict scan over all directed entries."""
    edges = set()
    for (a, b), entry in matrix.entries.items():
        if a >= b:
            continue
        reverse = matrix.entries.get((b, a))
        if reverse is None:
            continue
        if entry.mean_loss <= beta and reverse.mean_loss <= beta:
            edges.add((a, b))
    return BoundedGraph(nodes=tuple(sorted(matrix.nodes)), edges=frozenset(edges))


def scan_degree_distribution(family):
    result = {}
    for beta in family.betas():
        graph = scan_graph(family.matrix, beta)
        result[beta] = tuple(sorted(len(graph.adjacency[n]) for n in graph.nodes))
    return result


def scan_monotonicity_report(family):
    betas = family.betas()
    counts = [len(scan_graph(family.matrix, beta).edges) for beta in betas]
    return [
        (betas[i], betas[i + 1], counts[i + 1] - counts[i])
        for i in range(len(betas) - 1)
    ]


def graph_bfs(matrix, v0, beta, margin, kappa):
    """Oracle: monitored BFS over two rebuilt graphs, sorted visiting order."""
    graph = scan_graph(matrix, beta)
    margin_graph = scan_graph(matrix, beta + margin)
    levels = [{v0}]
    placed = {v0}
    shallow = set()
    depth = 0
    while True:
        nxt = set()
        for u in sorted(levels[depth]):
            for v in sorted(graph.adjacency[u]):
                if v in placed or v in nxt:
                    continue
                if margin_graph.adjacency[v] & shallow:
                    continue
                nxt.add(v)
        shallow |= levels[depth]
        levels.append(nxt)
        placed |= nxt
        depth += 1
        if len(nxt) < kappa(depth):
            break
    levels.pop()
    return LayeredTree(
        root=v0,
        beta=beta,
        margin=margin,
        levels=tuple(frozenset(level) for level in levels),
    )


def graph_check_tree(tree, matrix, kappa):
    """Oracle: the requirement checker over two rebuilt graphs."""
    violations = []
    missing = sorted(tree.nodes - set(matrix.nodes))
    if missing:
        raise ValueError(f"matrix lacks tree nodes {missing}")
    graph = scan_graph(matrix, tree.beta)
    margin_graph = scan_graph(matrix, tree.beta + tree.margin)
    if set(tree.levels[0]) != {tree.root}:
        violations.append((2, f"level 0 is {sorted(tree.levels[0])}, not the root"))
    seen = set()
    for level in tree.levels:
        overlap = level & seen
        if overlap:
            violations.append((1, f"nodes {sorted(overlap)} appear in multiple levels"))
        seen |= level
    for i in range(1, tree.depth + 1):
        if len(tree.levels[i]) < kappa(i):
            violations.append(
                (3, f"level {i} has {len(tree.levels[i])} nodes, needs {kappa(i)}")
            )
        for v in sorted(tree.levels[i]):
            if not graph.adjacency[v] & tree.levels[i - 1]:
                violations.append((1, f"node {v} at level {i} has no parent at level {i - 1}"))
    for i in range(2, tree.depth + 1):
        above = set().union(*tree.levels[: i - 1])
        for v in sorted(tree.levels[i]):
            strong = margin_graph.adjacency[v] & above
            if strong:
                violations.append(
                    (4, f"node {v} at level {i} has strong links to {sorted(strong)}")
                )
    return violations


def graph_dot_links(tree, matrix):
    """Oracle: the DOT link lines, parents read from a rebuilt graph."""
    graph = scan_graph(matrix, tree.beta)
    return [
        f"  {parent} -- {v};"
        for i in range(1, len(tree.levels))
        for v in sorted(tree.levels[i])
        for parent in sorted(graph.adjacency[v] & tree.levels[i - 1])
    ]


@st.composite
def line_matrices(draw):
    """Nodes on a line with loss growing by distance, so trees run deep."""
    nodes = draw(node_ids(2, 7))
    n = len(nodes)
    spots = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n, unique=True))
    entries = {
        (nodes[a], nodes[b]): MatrixEntry(
            mean_loss=35.0 + 5.0 * abs(spots[a] - spots[b]) + draw(st.sampled_from([0.0, 2.5])),
            stddev=0.0,
            count=1,
        )
        for a in range(n)
        for b in range(n)
        if a != b
    }
    return LossMatrix(nodes=nodes, channel=26, entries=entries)


@st.composite
def remeasured(draw, matrix):
    """The same deployment measured again: each directed entry kept, dropped or redrawn."""
    entries = {}
    for a in matrix.nodes:
        for b in matrix.nodes:
            if a == b:
                continue
            fate = draw(st.sampled_from(["keep", "keep", "drop", "redraw"]))
            if fate == "redraw":
                entries[a, b] = MatrixEntry(mean_loss=draw(LOSSES), stddev=0.0, count=1)
            elif (a, b) in matrix.entries:
                entries[a, b] = matrix.entries[a, b]
    return LossMatrix(nodes=list(matrix.nodes), channel=26, entries=entries)


@st.composite
def checked_trees(draw):
    """A tree grown on one matrix, to be checked against it and a re-measurement.

    The tree is grown with breadth 1, which keeps it deep; the check draws
    its own breadth, and the root is sometimes moved off level 0, so
    requirements 2 and 3 fail as well as 1 and 4.
    """
    built = draw(st.one_of(matrices(), line_matrices()))
    fresh = draw(remeasured(built))
    beta = draw(st.sampled_from(ON_GRID))
    margin = draw(st.sampled_from(MARGINS))
    root = draw(st.sampled_from(built.nodes))
    tree = monitored_bfs(built, root, beta, margin, KappaSpec.parse("const:1"))
    if draw(st.booleans()):
        tree = dataclasses.replace(tree, root=draw(st.sampled_from(built.nodes)))
    return tree, built, fresh, KappaSpec.parse(draw(KAPPAS))


@settings(max_examples=300, deadline=None)
@given(checked_trees())
def test_check_tree_and_dot_match_graph_oracles(case):
    tree, built, fresh, kappa = case
    for matrix in (built, fresh):
        assert check_tree(tree, matrix, kappa) == graph_check_tree(tree, matrix, kappa)
        links = io.tree_to_dot(tree, matrix).splitlines()[2 + len(tree.levels) : -1]
        assert links == graph_dot_links(tree, matrix)


@pytest.mark.parametrize("requirement", [1, 2, 3, 4])
def test_checked_trees_reach_every_requirement(requirement):
    find(
        checked_trees(),
        lambda case: any(
            req == requirement for req, _ in graph_check_tree(case[0], case[2], case[3])
        ),
        settings=settings(
            max_examples=2000, database=None, deadline=None, derandomize=True,
            phases=[Phase.generate],
        ),
    )


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_family_matches_dict_scan(matrix):
    family = GraphFamily(matrix, beta_min=BETA_MIN, beta_max=BETA_MAX)
    for beta in family.betas():
        for bound in (beta, *(beta + margin for margin in MARGINS)):
            assert neighborhood_graph(matrix, bound).edges == scan_graph(matrix, bound).edges
    distribution = degree_distribution(matrix, family.betas())
    assert distribution == scan_degree_distribution(family)
    assert monotonicity_report(distribution) == scan_monotonicity_report(family)


def assert_sweep_matches_graph_oracle(matrix, margin, kappa_text):
    kappa = KappaSpec.parse(kappa_text)
    family = GraphFamily(matrix, beta_min=BETA_MIN, beta_max=BETA_MAX)
    for beta in family.betas():
        for v0 in matrix.nodes:
            expected = graph_bfs(matrix, v0, beta, margin, kappa)
            assert monitored_bfs(matrix, v0, beta, margin, kappa) == expected


@settings(max_examples=300, deadline=None)
@given(matrices(), st.sampled_from(MARGINS), KAPPAS)
def test_monitored_bfs_matches_graph_oracle(matrix, margin, kappa_text):
    assert_sweep_matches_graph_oracle(matrix, margin, kappa_text)


# breadths the unblocked nodes left after level 1 often cannot reach,
# and a margin above every finite loss, which blocks every node from
# level 2 on: specs where the search stops before building a level
STOPPING_KAPPAS = st.sampled_from(["const:3", "table:1=1,2=5", "linear"])
STOPPING_MARGINS = st.sampled_from([0.0, 5.0, 200.0])


@settings(max_examples=300, deadline=None)
@given(st.one_of(matrices(), line_matrices()), STOPPING_MARGINS, STOPPING_KAPPAS)
def test_monitored_bfs_stops_early_as_the_graph_oracle_does(matrix, margin, kappa_text):
    assert_sweep_matches_graph_oracle(matrix, margin, kappa_text)


def grid_matrix(rows, cols, seed):
    """Nodes on a grid with shuffled, sparse ids; links only to near spots.

    A loss is 30 dB plus 10 dB per unit of distance plus 0, 2.5 or 5 dB,
    so most links along grid lines fall exactly on a budget, or on a
    budget + margin.
    """
    rng = random.Random(seed)
    ids = rng.sample(range(-1000, 10**6), rows * cols)
    spots = {node: divmod(k, cols) for k, node in enumerate(ids)}
    entries = {
        (a, b): MatrixEntry(
            mean_loss=30.0 + 10.0 * math.dist(spots[a], spots[b]) + rng.choice([0.0, 2.5, 5.0]),
            stddev=0.0,
            count=1,
        )
        for a in ids
        for b in ids
        if a != b and math.dist(spots[a], spots[b]) < 2.9 and rng.random() < 0.95
    }
    return LossMatrix(nodes=ids, channel=26, entries=entries)


def test_monitored_bfs_matches_graph_oracle_past_64_nodes():
    # 72 nodes: masks span several machine words, and bit positions
    # follow the unsorted order of ``nodes``, which reversing must not change
    matrix = grid_matrix(9, 8, seed=5)
    reversed_matrix = LossMatrix(nodes=matrix.nodes[::-1], channel=26, entries=matrix.entries)
    family = GraphFamily(matrix, beta_min=40.0, beta_max=70.0)
    kappa = KappaSpec.parse("const:1")
    largest = 0
    for beta in family.betas():
        for v0 in matrix.nodes:
            expected = graph_bfs(matrix, v0, beta, 5.0, kappa)
            assert monitored_bfs(matrix, v0, beta, 5.0, kappa) == expected
            assert monitored_bfs(reversed_matrix, v0, beta, 5.0, kappa) == expected
            largest = max(largest, expected.total_nodes)
    assert largest > 64


def test_mask_cache_stays_bounded_over_a_long_sweep():
    matrix = grid_matrix(2, 3, seed=1)
    kappa = KappaSpec.parse("linear")
    # 2,801 bounds 1/40 dB apart, far more than the 74 budgets a sweep visits
    for beta in (30.0 + 0.025 * k for k in range(2801)):
        for v0 in sorted(matrix.nodes):
            tree = monitored_bfs(matrix, v0, beta, 5.0, kappa)
            assert len(matrix.bound_masks) == 1  # one (beta, beta + margin) pair
            fresh = LossMatrix(list(matrix.nodes), 26, dict(matrix.entries))
            assert tree == monitored_bfs(fresh, v0, beta, 5.0, kappa)


def test_rows_skip_nan_in_either_direction():
    nan = math.nan
    entries = {
        (0, 1): nan, (1, 0): 40.0,   # NaN first: max(nan, 40.0) is nan
        (0, 2): 40.0, (2, 0): nan,   # NaN second: max(40.0, nan) is 40.0
        (1, 2): 45.0, (2, 1): 50.0,
    }
    matrix = LossMatrix(
        nodes=[0, 1, 2],
        channel=26,
        entries={p: MatrixEntry(mean_loss=v, stddev=0.0, count=1) for p, v in entries.items()},
    )
    # births, neighbours and prefix masks; bit i stands for nodes[i]
    assert matrix.edge_births == {
        0: ([], [], [0]), 1: ([50.0], [2], [0, 0b100]), 2: ([50.0], [1], [0, 0b010])
    }
    assert neighborhood_graph(matrix, math.inf).edges == {(1, 2)}


def test_matrix_fields_cannot_be_reassigned():
    # the cached rows and masks are derived from the fields once
    matrix = grid_matrix(2, 2, seed=1)
    rows = matrix.edge_births
    for name, value in (("nodes", []), ("entries", {}), ("channel", 11), ("meta", {})):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(matrix, name, value)
    assert matrix.edge_births is rows


def test_nan_bound_or_margin_is_rejected():
    matrix = LossMatrix(nodes=[0], channel=26, entries={})
    for beta, margin in ((math.nan, 0.0), (50.0, math.nan)):
        with pytest.raises(ValueError):
            monitored_bfs(matrix, 0, beta, margin, KappaSpec.parse("linear"))
    with pytest.raises(ValueError):
        neighborhood_graph(matrix, math.nan)
    # check_tree and tree_to_dot read rows, which take a NaN bound as "all"
    for beta, margin in ((math.nan, 0.0), (50.0, math.nan), (math.inf, -math.inf)):
        with pytest.raises(ValueError, match="is NaN"):
            LayeredTree(root=0, beta=beta, margin=margin, levels=(frozenset({0}),))
