"""Neighborhood graphs induced by a link-budget bound.

For a bound beta, an undirected edge {a, b} exists when both directed
mean losses are at most beta. Sweeping beta over the budget range a
transceiver can realize yields a family of graphs whose density grows
with the bound. The loss matrix keeps each node's neighbours in the order
their edges appear, so every graph of the family reads prefixes of the
same rows (``LossMatrix.neighbors_within``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .measurements import LossMatrix
from .radio import AT86RF231


@dataclass(frozen=True)
class BoundedGraph:
    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    @cached_property
    def adjacency(self) -> dict[int, set[int]]:
        adjacency: dict[int, set[int]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            adjacency[a].add(b)
            adjacency[b].add(a)
        return adjacency


def neighborhood_graph(matrix: LossMatrix, beta: float) -> BoundedGraph:
    """Graph with an edge wherever both directed losses are <= beta.

    Isolated nodes are kept, so the degree program has a variable and
    ``adjacency`` a row for every node.
    """
    if math.isnan(beta):
        raise ValueError("bound is NaN")
    edges = frozenset(
        (u, v)
        for u in matrix.nodes
        for v in matrix.neighbors_within(u, beta)
        if u < v
    )
    return BoundedGraph(nodes=tuple(sorted(matrix.nodes)), edges=edges)


@dataclass(frozen=True)
class GraphFamily:
    """The bounds to sweep over one loss matrix: the budgets that some
    AT86RF231 setting realizes, from ``beta_min`` to ``beta_max``.

    The default window holds all 74 of them, 31 to 104 dB.
    """

    matrix: LossMatrix
    beta_min: float = AT86RF231.min_budget
    beta_max: float = AT86RF231.max_budget

    def __post_init__(self):
        if not self.betas():  # a NaN or reversed window is empty too
            raise ValueError(f"no budget of profile {AT86RF231.name} lies in [beta_min, beta_max]")

    def betas(self) -> list[float]:
        return [beta for beta in AT86RF231.budgets if self.beta_min <= beta <= self.beta_max]

    def graph(self, beta: float) -> BoundedGraph:
        return neighborhood_graph(self.matrix, beta)


def degree_distribution(matrix: LossMatrix, betas: list[float]) -> dict[float, tuple[int, ...]]:
    """Per-bound multiset of node degrees (sorted ascending)."""
    return {
        beta: tuple(sorted(len(matrix.neighbors_within(u, beta)) for u in matrix.nodes))
        for beta in betas
    }


def connected_components(graph: BoundedGraph) -> list[set[int]]:
    """Maximal connected node sets, largest first, ties by smallest id."""
    seen: set[int] = set()
    components: list[set[int]] = []
    for start in graph.nodes:
        if start in seen:
            continue
        component = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.adjacency[u]:
                if v not in component:
                    component.add(v)
                    queue.append(v)
        seen |= component
        components.append(component)
    return sorted(components, key=lambda c: (-len(c), min(c)))


def monotonicity_report(
    distribution: dict[float, tuple[int, ...]],
) -> list[tuple[float, float, int]]:
    """Edge-count deltas between consecutive bounds of a degree distribution.

    Deltas are never negative: raising the bound can only add edges. A
    single bound has no delta.
    """
    betas = sorted(distribution)
    counts = [sum(distribution[beta]) // 2 for beta in betas]
    return [
        (betas[i], betas[i + 1], counts[i + 1] - counts[i])
        for i in range(len(betas) - 1)
    ]
