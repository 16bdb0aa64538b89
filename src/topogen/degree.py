"""Constant-degree topology selection.

Finds a maximum subset of nodes such that, within the neighborhood graph
for a bound beta, every selected node has exactly c selected neighbors.
Formulated as a binary program: for each node u with selection variable
x(u) and neighborhood sum S(u),

    c * x(u) <= S(u) <= c + m * (1 - x(u))

where m is the maximum degree in the graph, so the constraint is vacuous
for deselected nodes and forces S(u) = c for selected ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ilp
from .graphs import BoundedGraph, GraphFamily, connected_components
from .measurements import LossMatrix


@dataclass(frozen=True)
class DegreeSelection:
    beta: float
    c: int
    selected: frozenset[int]
    components: tuple[frozenset[int], ...]
    edges: frozenset[tuple[int, int]]  # induced subgraph edges
    objective: int


def build_degree_program(graph: BoundedGraph, c: int) -> ilp.BinaryProgram:
    """Binary program selecting a maximum exactly-c-regular induced subgraph."""
    if c < 1:
        raise ValueError("target degree c must be >= 1")
    nodes = sorted(graph.nodes)
    m = max((graph.degree(u) for u in nodes), default=0)
    constraints = []
    for u in nodes:
        neighbors = sorted(graph.adjacency[u])
        # c*x(u) - sum x(v) <= 0
        lower = {v: -1 for v in neighbors}
        lower[u] = c
        constraints.append(ilp.Constraint(lower, "<=", 0))
        # sum x(v) + m*x(u) <= c + m
        upper = {v: 1 for v in neighbors}
        upper[u] = m
        constraints.append(ilp.Constraint(upper, "<=", c + m))
    return ilp.BinaryProgram(
        variables=nodes,
        sense="maximize",
        objective={u: 1 for u in nodes},
        constraints=constraints,
    )


def induced_subgraph(graph: BoundedGraph, selected: frozenset[int]) -> BoundedGraph:
    edges = frozenset(
        (a, b) for a, b in graph.edges if a in selected and b in selected
    )
    return BoundedGraph(
        beta=graph.beta, nodes=tuple(sorted(selected)), edges=edges
    )


def verify_regular(selection: DegreeSelection) -> list[int]:
    """Nodes of the selection whose induced degree differs from c.

    Independent recount over the stored induced edges; does not trust
    the solver.
    """
    degrees = {u: 0 for u in selection.selected}
    for a, b in selection.edges:
        degrees[a] += 1
        degrees[b] += 1
    return sorted(u for u, d in degrees.items() if d != selection.c)


def _make_selection(graph: BoundedGraph, c: int, selected: frozenset[int]) -> DegreeSelection:
    sub = induced_subgraph(graph, selected)
    components = tuple(
        frozenset(comp) for comp in connected_components(sub)
    )
    selection = DegreeSelection(
        beta=graph.beta,
        c=c,
        selected=selected,
        components=components,
        edges=sub.edges,
        objective=len(selected),
    )
    bad = verify_regular(selection)
    if bad:
        raise RuntimeError(f"selection at beta {graph.beta} not {c}-regular: nodes {bad}")
    return selection


def select_constant_degree(
    matrix: LossMatrix, c: int, family: GraphFamily
) -> list[DegreeSelection]:
    """Solve the constant-degree program for every bound on the grid.

    Returns one selection per bound with a nonzero optimum, in bound
    order. Every result is re-verified c-regular by an independent
    recount.
    """
    selections = []
    previous_edges: frozenset | None = None
    for beta in family.betas():
        graph = family.graph(beta)
        if previous_edges is not None and not previous_edges <= graph.edges:
            raise RuntimeError(f"edge monotonicity violated at beta {beta}")
        previous_edges = graph.edges
        solution = ilp.solve(build_degree_program(graph, c))
        selected = frozenset(
            u for u, value in solution.assignment.items() if value
        )
        if not selected:
            continue
        selections.append(_make_selection(graph, c, selected))
    return selections


def largest_component_selection(
    selections: list[DegreeSelection],
) -> DegreeSelection:
    """Restrict the best selection to its largest connected component.

    Ties go to the smaller bound, then to the component containing the
    smallest node id. Components share no edges, so the restriction
    stays c-regular; this is re-asserted, not assumed.
    """
    if not selections:
        raise ValueError("no selections to choose from")
    selection = min(
        selections,
        key=lambda s: (-len(s.components[0]), s.beta, min(s.components[0])),
    )
    graph = BoundedGraph(
        beta=selection.beta,
        nodes=tuple(sorted(selection.selected)),
        edges=selection.edges,
    )
    return _make_selection(graph, selection.c, selection.components[0])
