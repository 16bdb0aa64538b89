import random

import numpy as np
import pytest

from helpers import matrix_from_losses, random_matrix, symmetric_matrix
from topogen.graphs import (
    GraphFamily,
    connected_components,
    degree_distribution,
    monotonicity_report,
    neighborhood_graph,
)
from topogen.radio import settings_for_bound


def test_asymmetric_link_excluded():
    matrix = matrix_from_losses({(1, 2): 45.0, (2, 1): 50.0})
    assert neighborhood_graph(matrix, 47).edges == frozenset()
    assert neighborhood_graph(matrix, 50).edges == {(1, 2)}


def test_missing_direction_never_yields_edge():
    matrix = matrix_from_losses({(1, 2): 45.0}, nodes={1, 2})
    for beta in (31, 70, 104):
        assert neighborhood_graph(matrix, beta).edges == frozenset()


def test_full_mesh_at_max_bound():
    matrix = symmetric_matrix(
        {(a, b): 60.0 for a in range(5) for b in range(a + 1, 5)}
    )
    graph = neighborhood_graph(matrix, 104)
    assert len(graph.edges) == 10


def test_bounded_neighbors():
    matrix = symmetric_matrix({(1, 2): 45.0}, nodes={1, 2, 3})
    graph = neighborhood_graph(matrix, 50)
    assert graph.adjacency[3] == set()
    assert graph.adjacency[1] == {2}
    assert 99 not in graph.adjacency
    mesh = symmetric_matrix({(a, b): 50.0 for a in range(6) for b in range(a + 1, 6)})
    assert len(neighborhood_graph(mesh, 60).adjacency[0]) == 5


def test_degree_distribution_extremes():
    matrix = symmetric_matrix(
        {(a, b): 60.0 for a in range(4) for b in range(a + 1, 4)}
    )
    family = GraphFamily(matrix, beta_min=50, beta_max=70)
    distribution = degree_distribution(matrix, family.betas())
    assert distribution[50] == (0, 0, 0, 0)
    assert distribution[60] == (3, 3, 3, 3)
    assert all(len(degrees) == 4 for degrees in distribution.values())


def havel_hakimi_edges(degrees):
    remaining = sorted(enumerate(degrees), key=lambda p: -p[1])
    edges = set()
    while remaining:
        remaining.sort(key=lambda p: -p[1])
        node, d = remaining.pop(0)
        assert d <= len(remaining), "degree sequence not graphical"
        for i in range(d):
            other, od = remaining[i]
            edges.add((min(node, other), max(node, other)))
            remaining[i] = (other, od - 1)
    return edges


def test_degree_distribution_compact_testbed_fixture():
    # 12-node fixture shaped like a compact grid deployment at one bound:
    # one node with a single neighbor, five with 2, four with degree 3-4,
    # two with degree 5-8.
    degrees = [1, 2, 2, 2, 2, 2, 3, 3, 4, 4, 5, 6]
    edges = havel_hakimi_edges(degrees)
    matrix = symmetric_matrix({e: 45.0 for e in edges}, nodes=range(12))
    family = GraphFamily(matrix, beta_min=46, beta_max=46)
    observed = degree_distribution(matrix, family.betas())[46]
    assert sorted(observed) == degrees
    assert sum(1 for d in observed if d == 1) == 1
    assert sum(1 for d in observed if d == 2) == 5
    assert sum(1 for d in observed if d in (3, 4)) == 4
    assert sum(1 for d in observed if 5 <= d <= 8) == 2


def test_components_edgeless_and_mesh():
    edgeless = matrix_from_losses({}, nodes=range(5))
    components = connected_components(neighborhood_graph(edgeless, 60))
    assert components == [{0}, {1}, {2}, {3}, {4}]
    mesh = symmetric_matrix({(a, b): 50.0 for a in range(4) for b in range(a + 1, 4)})
    assert connected_components(neighborhood_graph(mesh, 60)) == [{0, 1, 2, 3}]


def test_components_ordering():
    matrix = symmetric_matrix({(5, 6): 45.0, (1, 2): 45.0, (2, 3): 45.0}, nodes=range(1, 8))
    components = connected_components(neighborhood_graph(matrix, 50))
    assert components == [{1, 2, 3}, {5, 6}, {4}, {7}]


def closure_components(graph):
    """Oracle: components via boolean transitive closure."""
    nodes = list(graph.nodes)
    index = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    reach = np.eye(n, dtype=bool)
    for a, b in graph.edges:
        reach[index[a], index[b]] = reach[index[b], index[a]] = True
    for _ in range(n):
        reach = reach | (reach @ reach)
    groups = {}
    for i, node in enumerate(nodes):
        key = tuple(reach[i])
        groups.setdefault(key, set()).add(node)
    return sorted(groups.values(), key=lambda c: (-len(c), min(c)))


def test_components_against_closure_oracle():
    rng = random.Random(3)
    for _ in range(30):
        graph = neighborhood_graph(random_matrix(rng, 10, present=0.3), 70)
        assert connected_components(graph) == closure_components(graph)


def test_components_partition_properties():
    rng = random.Random(4)
    graph = neighborhood_graph(random_matrix(rng, 12, present=0.4), 75)
    components = connected_components(graph)
    covered = set().union(*components)
    assert covered == set(graph.nodes)
    assert sum(len(c) for c in components) == len(graph.nodes)
    for c in components:
        for other in components:
            if c is not other:
                assert not any(
                    (min(a, b), max(a, b)) in graph.edges for a in c for b in other
                )


def test_monotonicity_report_two_losses():
    matrix = symmetric_matrix({(1, 2): 40.0, (3, 4): 50.0})
    family = GraphFamily(matrix, beta_min=39, beta_max=51)
    report = monotonicity_report(degree_distribution(matrix, family.betas()))
    deltas = {(b1, b2): delta for b1, b2, delta in report}
    assert deltas[(39, 40)] == 1
    assert deltas[(49, 50)] == 1
    assert sum(deltas.values()) == 2


def test_monotonicity_report_constant_matrix():
    matrix = symmetric_matrix({(a, b): 60.0 for a in range(4) for b in range(a + 1, 4)})
    family = GraphFamily(matrix, beta_min=59, beta_max=61)
    report = monotonicity_report(degree_distribution(matrix, family.betas()))
    assert [delta for _, _, delta in report] == [6, 0]


def test_monotonicity_report_of_one_budget_is_empty():
    matrix = symmetric_matrix({(1, 2): 40.0})
    assert monotonicity_report(degree_distribution(matrix, [40.0])) == []


def test_monotonicity_deltas_never_negative():
    rng = random.Random(9)
    for _ in range(20):
        matrix = random_matrix(rng, rng.randrange(3, 12))
        family = GraphFamily(matrix)
        # independent recount at each bound
        betas = family.betas()
        counts = [len(neighborhood_graph(matrix, b).edges) for b in betas]
        report = monotonicity_report(degree_distribution(matrix, betas))
        for (b1, b2, delta), c1, c2 in zip(report, counts, counts[1:]):
            assert delta == c2 - c1
            assert delta >= 0


def test_edge_monotonicity_property():
    rng = random.Random(21)
    for _ in range(50):
        matrix = random_matrix(rng, rng.randrange(2, 15))
        previous = None
        for beta in GraphFamily(matrix).betas():
            edges = neighborhood_graph(matrix, beta).edges
            if previous is not None:
                assert previous <= edges
            previous = edges


def test_family_validation():
    matrix = symmetric_matrix({(1, 2): 40.0})
    assert GraphFamily(matrix).betas() == [31.0 + k for k in range(74)]
    assert GraphFamily(matrix, 40.5, 44.5).betas() == [41.0, 42.0, 43.0, 44.0]


WINDOWS_WITHOUT_A_BUDGET = {
    "NaN beta_min": (float("nan"), 104.0),
    "NaN beta_max": (31.0, float("nan")),
    "reversed": (50.0, 40.0),
    "between two budgets": (62.2, 62.8),
    "above every budget": (104.5, 200.0),
}


@pytest.mark.parametrize("case", sorted(WINDOWS_WITHOUT_A_BUDGET))
def test_family_rejects_a_window_without_a_budget(case):
    matrix = symmetric_matrix({(1, 2): 40.0})
    with pytest.raises(ValueError, match=r"no budget of profile AT86RF231 lies in \[beta_min"):
        GraphFamily(matrix, *WINDOWS_WITHOUT_A_BUDGET[case])


@pytest.mark.parametrize("window", [(31, 104), (40, 80), (45.5, 50.5), (62, 62), (-1e9, 1e9)])
def test_every_swept_bound_has_a_radio_setting(window):
    matrix = symmetric_matrix({(1, 2): 40.0})
    for beta in GraphFamily(matrix, *window).betas():
        assert settings_for_bound(beta)
