"""Neighborhood graphs induced by a link-budget bound.

For a bound beta, an undirected edge {a, b} exists when both directed
mean losses are at most beta. Sweeping beta over the budget range a
transceiver can realize yields a family of graphs whose density grows
with the bound.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from .measurements import LossMatrix

DEFAULT_BETA_MIN = 31.0
DEFAULT_BETA_MAX = 104.0


@dataclass(frozen=True)
class BoundedGraph:
    beta: float
    nodes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    adjacency: dict[int, set[int]] = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self):
        adj: dict[int, set[int]] = {n: set() for n in self.nodes}
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            adj[a].add(b)
            adj[b].add(a)
        object.__setattr__(self, "adjacency", adj)

    def degree(self, u: int) -> int:
        return len(self.adjacency[u])


def neighborhood_graph(matrix: LossMatrix, beta: float) -> BoundedGraph:
    """Graph with an edge wherever both directed losses are <= beta.

    Isolated nodes are kept so per-bound degree statistics always cover
    the whole deployment.
    """
    edges = set()
    for (a, b), entry in matrix.entries.items():
        if a >= b:
            continue
        reverse = matrix.entries.get((b, a))
        if reverse is None:
            continue
        if entry.mean_loss <= beta and reverse.mean_loss <= beta:
            edges.add((a, b))
    return BoundedGraph(
        beta=beta, nodes=tuple(sorted(matrix.nodes)), edges=frozenset(edges)
    )


@dataclass(frozen=True)
class GraphFamily:
    """A grid of bounds over one loss matrix.

    Default range covers the budgets realizable with the AT86RF231
    (31 dB to 104 dB); the 1 dB default step matches the scale of the
    transceiver's register resolution.
    """

    matrix: LossMatrix
    beta_min: float = DEFAULT_BETA_MIN
    beta_max: float = DEFAULT_BETA_MAX
    step: float = 1.0

    def __post_init__(self):
        if self.beta_min > self.beta_max:
            raise ValueError("beta_min must not exceed beta_max")
        if self.step <= 0:
            raise ValueError("step must be positive")

    def betas(self) -> list[float]:
        count = int(math.floor((self.beta_max - self.beta_min) / self.step + 1e-9))
        return [self.beta_min + k * self.step for k in range(count + 1)]

    def graph(self, beta: float) -> BoundedGraph:
        return neighborhood_graph(self.matrix, beta)


def degree_distribution(family: GraphFamily) -> dict[float, tuple[int, ...]]:
    """Per-bound multiset of node degrees (sorted ascending)."""
    result = {}
    for beta in family.betas():
        graph = family.graph(beta)
        result[beta] = tuple(sorted(graph.degree(n) for n in graph.nodes))
    return result


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


def monotonicity_report(family: GraphFamily) -> list[tuple[float, float, int]]:
    """Edge-count deltas between consecutive bounds on the grid.

    Deltas are never negative: raising the bound can only add edges.
    """
    betas = family.betas()
    if len(betas) < 2:
        raise ValueError("family grid needs at least 2 points")
    counts = [len(family.graph(beta).edges) for beta in betas]
    return [
        (betas[i], betas[i + 1], counts[i + 1] - counts[i])
        for i in range(len(betas) - 1)
    ]
