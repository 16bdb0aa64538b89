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
from functools import cached_property, lru_cache

from . import ilp
from .graphs import BoundedGraph, GraphFamily, connected_components, neighborhood_graph
from .measurements import LossMatrix


@dataclass(frozen=True)
class DegreeSelection:
    beta: float
    c: int
    selected: frozenset[int]
    edges: frozenset[tuple[int, int]]  # induced subgraph edges

    @property
    def objective(self) -> int:
        return len(self.selected)

    @cached_property
    def components(self) -> tuple[frozenset[int], ...]:
        """Connected node sets of the induced subgraph, largest first."""
        induced = BoundedGraph(nodes=tuple(sorted(self.selected)), edges=self.edges)
        return tuple(map(frozenset, connected_components(induced)))


@lru_cache(maxsize=1)
def build_degree_program(graph: BoundedGraph, c: int) -> ilp.BinaryProgram:
    """Binary program selecting a maximum exactly-c-regular induced subgraph.

    Equal consecutive graphs, common in a sweep, share one compiled program.
    """
    if c < 1:
        raise ValueError("target degree c must be >= 1")
    nodes = sorted(graph.nodes)
    m = max((len(graph.adjacency[u]) for u in nodes), default=0)
    constraints = []
    for u in nodes:
        neighbors = sorted(graph.adjacency[u])
        # c*x(u) - sum x(v) <= 0
        lower = {v: -1 for v in neighbors}
        lower[u] = c
        constraints.append(ilp.Constraint(lower, 0))
        # sum x(v) + m*x(u) <= c + m
        upper = {v: 1 for v in neighbors}
        upper[u] = m
        constraints.append(ilp.Constraint(upper, c + m))
    return ilp.BinaryProgram(variables=nodes, constraints=constraints)


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


def _make_selection(beta: float, c: int, selected: frozenset[int], edges) -> DegreeSelection:
    """``selected`` with those of ``edges`` that it induces, re-verified c-regular."""
    selection = DegreeSelection(
        beta=beta,
        c=c,
        selected=selected,
        edges=frozenset((a, b) for a, b in edges if a in selected and b in selected),
    )
    bad = verify_regular(selection)
    if bad:
        raise RuntimeError(f"selection at beta {beta} not {c}-regular: nodes {bad}")
    return selection


def select_at(matrix: LossMatrix, beta: float, c: int, floor: int) -> DegreeSelection | None:
    """The maximum c-regular selection at ``beta`` if it has ``floor`` nodes or more.

    None when the optimum is below ``floor`` or is empty. The result is
    re-verified c-regular by an independent recount.
    """
    graph = neighborhood_graph(matrix, beta)
    solution = ilp.solve(build_degree_program(graph, c), floor=floor)
    selected = frozenset(u for u, value in solution.assignment.items() if value)
    return _make_selection(beta, c, selected, graph.edges) if selected else None


def select_constant_degree(
    matrix: LossMatrix, c: int, family: GraphFamily
) -> list[DegreeSelection]:
    """Sweep the bounds upward and keep the selections that set a record.

    A record is a largest component bigger than every earlier bound's.
    Each bound is solved only for a selection larger than the record so
    far: a smaller optimum holds no larger component, and an equal one
    would lose the tie to the smaller bound. For odd c, c*k/2 edges make
    every selection and component even, the record too, so the floor is
    one higher. Returns the record-setting selections in bound order, so
    ``largest_component_selection`` of the list is that of every bound's
    selection.
    """
    records = []
    record = 0
    for beta in family.betas():
        selection = select_at(matrix, beta, c, record + 1 + c % 2)
        if selection is not None and len(selection.components[0]) > record:
            records.append(selection)
            record = len(selection.components[0])
    return records


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
    best = min(selections, key=lambda s: (-len(s.components[0]), s.beta, min(s.components[0])))
    return _make_selection(best.beta, best.c, best.components[0], best.edges)
