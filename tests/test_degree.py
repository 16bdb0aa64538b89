import functools
import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    best_regular_subset_size,
    brute_force,
    random_matrix,
    relabel,
    relabeled,
    shifted,
    symmetric_matrix,
)
from topogen import degree, ilp, synth
from topogen.degree import (
    build_degree_program,
    largest_component_selection,
    select_at,
    select_constant_degree,
    verify_regular,
)
from topogen.graphs import GraphFamily, neighborhood_graph
from topogen.measurements import LossMatrix, MatrixEntry


def graph_of(edges, nodes=None, beta=50.0):
    return neighborhood_graph(symmetric_matrix({e: 45.0 for e in edges}, nodes=nodes), beta)


def test_triangle_is_2_regular():
    graph = graph_of([(0, 1), (1, 2), (0, 2)])
    solution = ilp.solve(build_degree_program(graph, 2))
    assert sum(solution.assignment.values()) == 3


def test_path_has_no_2_regular_subgraph():
    graph = graph_of([(1, 2), (2, 3)])
    program = build_degree_program(graph, 2)
    assert sum(brute_force(program).assignment.values()) == 0
    assert sum(ilp.solve(program).assignment.values()) == 0


def test_star_optimum_fixed_by_oracle():
    # hub 0 with 4 leaves; for c=1 the oracle, not intuition, sets the target
    graph = graph_of([(0, leaf) for leaf in (1, 2, 3, 4)])
    expected = best_regular_subset_size(graph, 1)
    assert expected == 2  # hub plus one leaf; leaf pairs share no edge
    assert sum(ilp.solve(build_degree_program(graph, 1)).assignment.values()) == expected


def test_c_must_be_positive():
    with pytest.raises(ValueError):
        build_degree_program(graph_of([(0, 1)]), 0)


def test_four_cycle_selected_whole():
    matrix = symmetric_matrix({(0, 1): 45.0, (1, 2): 45.0, (2, 3): 45.0, (0, 3): 45.0})
    family = GraphFamily(matrix, beta_min=50, beta_max=50)
    selections = select_constant_degree(matrix, 2, family)
    assert len(selections) == 1
    assert selections[0].beta == 50
    assert selections[0].selected == frozenset({0, 1, 2, 3})
    assert selections[0].components == (frozenset({0, 1, 2, 3}),)


def test_oversized_degree_yields_no_selection():
    matrix = symmetric_matrix({(0, 1): 45.0, (1, 2): 45.0})
    family = GraphFamily(matrix, beta_min=40, beta_max=60)
    assert select_constant_degree(matrix, 99, family) == []


def test_random_selections_regular_and_optimal():
    rng = random.Random(31)
    for _ in range(50):
        matrix = random_matrix(rng, rng.randrange(4, 11), present=0.6)
        c = rng.randrange(1, 4)
        for beta in (55.0, 70.0, 85.0):
            graph = neighborhood_graph(matrix, beta)
            expected = best_regular_subset_size(graph, c)
            selection = select_at(matrix, beta, c, floor=1)
            if expected == 0:
                assert selection is None
                continue
            assert selection is not None
            assert selection.objective == expected
            assert verify_regular(selection) == []
            # independent recount straight from the graph
            for u in selection.selected:
                assert len(graph.adjacency[u] & selection.selected) == c


def test_sweep_solves_the_matrix_it_is_given():
    rng = random.Random(5)
    matrix = random_matrix(rng, 8, present=0.8)
    other = random_matrix(rng, 8, present=0.8)
    grid = dict(beta_min=55, beta_max=85)
    expected = select_constant_degree(matrix, 2, GraphFamily(matrix, **grid))
    assert expected
    assert select_constant_degree(matrix, 2, GraphFamily(other, **grid)) == expected


def test_components_partition_selected():
    matrix = symmetric_matrix(
        {(0, 1): 45.0, (1, 2): 45.0, (0, 2): 45.0, (5, 6): 45.0, (6, 7): 45.0, (5, 7): 45.0}
    )
    family = GraphFamily(matrix, beta_min=50, beta_max=50)
    selection = select_constant_degree(matrix, 2, family)[0]
    assert selection.objective == 6
    assert len(selection.components) == 2
    union = frozenset().union(*selection.components)
    assert union == selection.selected


def two_component_selection(sizes_by_beta):
    """Selections made of disjoint triangles at given betas."""
    selections = []
    for beta, sizes in sizes_by_beta:
        edges = {}
        base = 0
        for size in sizes:
            cycle = list(range(base, base + size))
            for i, a in enumerate(cycle):
                edges[(min(a, cycle[(i + 1) % size]), max(a, cycle[(i + 1) % size]))] = 45.0
            base += size
        matrix = symmetric_matrix(edges)
        family = GraphFamily(matrix, beta_min=beta, beta_max=beta)
        selections.extend(select_constant_degree(matrix, 2, family))
    return selections


def test_largest_component_picked():
    [selection] = two_component_selection([(50, [4, 3])])
    best = largest_component_selection([selection])
    assert best.selected == frozenset(range(4))
    assert best.objective == 4
    assert verify_regular(best) == []


def test_component_tie_prefers_smaller_beta():
    selections = two_component_selection([(52, [5]), (47, [5])])
    assert len(selections) == 2
    best = largest_component_selection(selections)
    assert best.beta == 47


def every_bound_winner(matrix, c, family):
    """Winner over each bound's own selection, no record kept."""
    selections = [select_at(matrix, beta, c, floor=1) for beta in family.betas()]
    return largest_component_selection([s for s in selections if s is not None])


def cycles_matrix(cycles):
    """Disjoint induced cycles, each (nodes, loss of its edges)."""
    edges = {}
    for nodes, loss in cycles:
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            edges[min(a, b), max(a, b)] = loss
    return symmetric_matrix(edges)


def test_record_sweep_skips_bounds_that_cannot_win():
    # a 5-cycle at 50; two 4-cycles at 60, so the optimum is 13 but the
    # largest component stays 5; another 5-cycle of smaller ids at 70
    matrix = cycles_matrix([
        ([10, 11, 12, 13, 14], 50.0),
        ([20, 21, 22, 23], 60.0),
        ([24, 25, 26, 27], 60.0),
        ([0, 1, 2, 3, 4], 70.0),
    ])
    family = GraphFamily(matrix, beta_min=45, beta_max=75)
    at60 = select_at(matrix, 60, 2, floor=1)
    assert at60.objective == 13 and len(at60.components[0]) == 5
    at70 = select_at(matrix, 70, 2, floor=1)
    assert at70.components[0] == frozenset(range(5))
    records = select_constant_degree(matrix, 2, family)
    assert [s.beta for s in records] == [50]
    best = largest_component_selection(records)
    assert best == every_bound_winner(matrix, 2, family)
    assert (best.beta, best.selected) == (50, frozenset(range(10, 15)))


@pytest.mark.parametrize("size, seed", [(4, seed) for seed in range(1, 6)] + [(5, 1)])
def test_record_sweep_picks_the_every_bound_winner_on_grids(size, seed):
    matrix = synth.grid_scenario(
        size, size, 3.0, path_loss_exponent=3.0, shadowing_sigma=4.0,
        asymmetry_sigma=1.0, seed=seed,
    )
    family = GraphFamily(matrix)
    records = select_constant_degree(matrix, 3, family)
    sizes = [len(s.components[0]) for s in records]
    assert sizes == sorted(set(sizes))
    assert [s.beta for s in records] == sorted(s.beta for s in records)
    assert largest_component_selection(records) == every_bound_winner(matrix, 3, family)


def test_largest_component_requires_input():
    with pytest.raises(ValueError, match="no selections"):
        largest_component_selection([])


def test_connected_3_regular_shape():
    # cube graph (3-regular, 8 nodes) next to a triangle: the restriction
    # must come out connected and exactly 3-regular
    cube_edges = [
        (0, 1), (1, 2), (2, 3), (0, 3),
        (4, 5), (5, 6), (6, 7), (4, 7),
        (0, 4), (1, 5), (2, 6), (3, 7),
    ]
    triangle = [(10, 11), (11, 12), (10, 12)]
    matrix = symmetric_matrix({e: 47.0 for e in cube_edges + triangle})
    family = GraphFamily(matrix, beta_min=47, beta_max=47)
    selections = select_constant_degree(matrix, 3, family)
    best = largest_component_selection(selections)
    assert best.selected == frozenset(range(8))
    assert len(best.components) == 1
    assert verify_regular(best) == []


def test_packing_bound_proves_k16_optimum_quickly():
    # every node of K16 sees the other 15, so only the packing bound stops
    # the search from trying each further node beside the first K4
    graph = graph_of(list(itertools.combinations(range(16), 2)))
    solution = ilp.solve(build_degree_program(graph, 3))
    assert sum(solution.assignment.values()) == 4
    assert solution.explored <= 100


@pytest.mark.parametrize("beta", [60.0, 63.0, 66.0, 72.0, 77.0, 104.0])
def test_objective_matches_highs_on_5x5_grid(beta):
    scipy_optimize = pytest.importorskip("scipy.optimize")
    matrix = synth.grid_scenario(
        5, 5, 3.0, path_loss_exponent=3.0, shadowing_sigma=4.0,
        asymmetry_sigma=1.0, seed=1,
    )
    program = build_degree_program(neighborhood_graph(matrix, beta), 3)
    column = {v: k for k, v in enumerate(program.variables)}
    rows = np.zeros((len(program.constraints), len(program.variables)))
    for i, constraint in enumerate(program.constraints):
        for v, coefficient in constraint.coefficients.items():
            rows[i, column[v]] = coefficient
    highs = scipy_optimize.milp(
        -np.ones(len(program.variables)),
        constraints=scipy_optimize.LinearConstraint(
            rows, -np.inf, [constraint.rhs for constraint in program.constraints]
        ),
        integrality=np.ones(len(program.variables)),
        bounds=scipy_optimize.Bounds(0, 1),
    )
    assert highs.success
    assert sum(ilp.solve(program).assignment.values()) == round(-highs.fun)


def grid_matrix(size, seed):
    """A benchmark-style size x size grid."""
    return synth.grid_scenario(
        size, size, 3.0, path_loss_exponent=3.0, shadowing_sigma=4.0,
        asymmetry_sigma=1.0, seed=seed,
    )


def grid_sweep(size, seed):
    """Per-bound degree programs of the c=3 sweep on a benchmark-style grid."""
    matrix = grid_matrix(size, seed)
    for beta in GraphFamily(matrix).betas():
        yield beta, build_degree_program(neighborhood_graph(matrix, beta), 3)


@pytest.mark.parametrize("seed", range(1, 6))
def test_sweep_assignments_equal_brute_force_on_4x4_grids(seed):
    for beta, program in grid_sweep(4, seed):
        exact = ilp.solve(program)
        oracle = brute_force(program)
        assert (exact.status, exact.assignment) == (oracle.status, oracle.assignment), beta


def test_sweep_selections_pinned_on_5x5_grid():
    # sha256 of every bound's selected set, so a faster search must pick the
    # same optimum
    lines = []
    for beta, program in grid_sweep(5, 1):
        selected = [v for v, value in ilp.solve(program).assignment.items() if value]
        lines.append(f"{beta:g} {selected}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "9d9d9eb06a8ad5df154de8488404c7c7ccc50babd4bdaa71562136245a1a4756"


def test_propagation_keeps_the_4x4_sweep_small():
    # a count, not a timing: the search without propagation entered 20,860
    # nodes over these 74 bounds of the grid synth drew with numpy
    explored = sum(ilp.solve(program).explored for _, program in grid_sweep(4, 1))
    assert explored <= 6000


def test_odd_c_floor_steps_over_the_odd_count_above_the_record(monkeypatch):
    # for odd c every selection is even, so the floor is the record + 2; still
    # one solve per bound
    matrix = grid_matrix(4, 1)
    floors = []

    def spy(matrix, beta, c, floor):
        floors.append(floor)
        return select_at(matrix, beta, c, floor)

    monkeypatch.setattr(degree, "select_at", spy)
    family = GraphFamily(matrix)
    records = select_constant_degree(matrix, 3, family)
    assert len(floors) == len(family.betas())
    assert floors[0] == 2
    assert floors[-1] == len(records[-1].components[0]) + 2
    assert all(floor % 2 == 0 for floor in floors)


def test_even_c_record_may_grow_by_one_node():
    # a 4-cycle at 40; at 50 two more nodes close the 5-cycle 0-1-2-4-5, while
    # 0 and 2 gain a third neighbour each, so no selection holds 6 nodes; a
    # floor of record + 2 would miss it
    matrix = symmetric_matrix({
        (0, 1): 40.0, (1, 2): 40.0, (2, 3): 40.0, (0, 3): 40.0,
        (2, 4): 50.0, (4, 5): 50.0, (0, 5): 50.0,
    })
    family = GraphFamily(matrix, beta_min=40, beta_max=50)
    records = select_constant_degree(matrix, 2, family)
    assert [(s.beta, s.objective) for s in records] == [(40, 4), (50, 5)]
    best = largest_component_selection(records)
    assert (best.beta, best.selected) == (50, frozenset({0, 1, 2, 4, 5}))
    assert best == every_bound_winner(matrix, 2, family)


def winner(matrix, c, family):
    """The record-setting selections and the winner's (beta, selected, edges)."""
    records = select_constant_degree(matrix, c, family)
    if not records:
        return records, None
    best = largest_component_selection(records)
    return records, (best.beta, best.selected, best.edges)


def reversed_nodes(matrix):
    return LossMatrix(nodes=matrix.nodes[::-1], channel=matrix.channel, entries=matrix.entries)


@pytest.mark.parametrize("seed", range(1, 4))
def test_reversed_node_list_keeps_the_winner_on_4x4_grids(seed):
    # bit masks key nodes by position in ``nodes``; the winner must not
    matrix = grid_matrix(4, seed)
    family = GraphFamily(matrix)
    expected = winner(matrix, 3, family)
    assert expected[1] is not None
    assert winner(reversed_nodes(matrix), 3, family) == expected


@pytest.fixture(scope="module")
def grid_winner():
    """Per size, the seed-1 grid with losses rounded to 1/8 dB and its winner at 31-94 dB.

    The relabel and shift tests compare against the same winner, so each
    size's is computed once.
    """

    @functools.cache
    def of(size):
        matrix = shifted(grid_matrix(size, 1), 0)
        return matrix, winner(matrix, 3, GraphFamily(matrix, 31, 94))[1]

    return of


def relabeled_ids_map_the_winner(matrix, found):
    beta, selected, edges = found
    moved = relabeled(matrix)
    assert winner(moved, 3, GraphFamily(moved, 31, 94))[1] == (
        beta,
        frozenset(map(relabel, selected)),
        frozenset((relabel(a), relabel(b)) for a, b in edges),
    )


def shifted_losses_and_grid_map_the_winner(matrix, found):
    # the window moved by 10 dB still ends at the last budget, 104 dB
    m = shifted(matrix, 10)
    beta, selected, edges = found
    assert len(selected) >= 3
    assert winner(m, 3, GraphFamily(m, 41, 104))[1] == (beta + 10, selected, edges)


def test_relabeled_ids_map_the_5x5_winner(grid_winner):
    relabeled_ids_map_the_winner(*grid_winner(5))


def test_shifted_losses_and_grid_map_the_5x5_winner(grid_winner):
    shifted_losses_and_grid_map_the_winner(*grid_winner(5))


def test_relabeled_ids_map_the_6x6_winner(grid_winner):
    relabeled_ids_map_the_winner(*grid_winner(6))


def test_shifted_losses_and_grid_map_the_6x6_winner(grid_winner):
    shifted_losses_and_grid_map_the_winner(*grid_winner(6))


@st.composite
def unsorted_matrices(draw):
    """Up to 8 node ids in drawn order, directed losses around the 40-60 dB grid."""
    nodes = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=8, unique=True))
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    losses = draw(st.lists(st.sampled_from([38.0, 45.0, 50.0, 57.5, 90.0]),
                           min_size=len(pairs), max_size=len(pairs)))
    entries = {
        pair: MatrixEntry(mean_loss=loss, stddev=0.0, count=1) for pair, loss in zip(pairs, losses)
    }
    return LossMatrix(nodes=nodes, channel=26, entries=entries)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(unsorted_matrices(), st.integers(1, 3))
def test_reversed_node_list_keeps_the_winner(matrix, c):
    family = GraphFamily(matrix, beta_min=40, beta_max=60)
    assert winner(reversed_nodes(matrix), c, family) == winner(matrix, c, family)


def test_every_solve_of_the_4x4_sweeps_pinned(monkeypatch):
    # sha256 of each solve's floor, status, B&B node count and assignment,
    # and of the records, over the record sweeps of 4x4 seeds 1-5 at c = 2
    # and 3, so a faster solver must search exactly the same tree
    lines = []
    solve = ilp.solve

    def spy(program, floor=0):
        solution = solve(program, floor=floor)
        values = "".join(map(str, solution.assignment.values()))
        lines.append(f"{floor} {solution.status} {solution.explored} {values}\n")
        return solution

    monkeypatch.setattr(ilp, "solve", spy)
    for seed in range(1, 6):
        matrix = grid_matrix(4, seed)
        for c in (2, 3):
            for s in select_constant_degree(matrix, c, GraphFamily(matrix)):
                lines.append(f"{s.beta:g} {sorted(s.selected)} {sorted(s.edges)}\n")
    assert len(lines) == 762
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == "850f27a8c1c88bbd56380d60d7faf76f45c8cc6e68754fafa1886d7e2460aaeb"
