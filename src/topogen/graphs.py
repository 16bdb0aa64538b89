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

MAX_GRID_STEPS = 100_000  # far past any transceiver's budget resolution


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
    """A grid of bounds over one loss matrix.

    Default range covers the budgets realizable with the AT86RF231; the
    1 dB default step matches the scale of the transceiver's register
    resolution.
    """

    matrix: LossMatrix
    beta_min: float = AT86RF231.min_budget
    beta_max: float = AT86RF231.max_budget
    step: float = 1.0

    def __post_init__(self):
        for name in ("beta_min", "beta_max", "step"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if self.beta_min > self.beta_max:
            raise ValueError("beta_min must not exceed beta_max")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if (self.beta_max - self.beta_min) / self.step > MAX_GRID_STEPS:
            raise ValueError(
                f"step {self.step!r} gives more than {MAX_GRID_STEPS} steps "
                f"from {self.beta_min!r} to {self.beta_max!r}"
            )
        betas = self.betas()  # ascending, so equal floats are neighbours
        for low, high in zip(betas, betas[1:]):
            if low == high:
                raise ValueError(f"step {self.step!r} gives bound {low!r} more than once")

    def betas(self) -> list[float]:
        count = int(math.floor((self.beta_max - self.beta_min) / self.step + 1e-9))
        return [self.beta_min + k * self.step for k in range(count + 1)]

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

    Deltas are never negative: raising the bound can only add edges.
    """
    betas = sorted(distribution)
    if len(betas) < 2:
        raise ValueError("family grid needs at least 2 points")
    counts = [sum(distribution[beta]) // 2 for beta in betas]
    return [
        (betas[i], betas[i + 1], counts[i + 1] - counts[i])
        for i in range(len(betas) - 1)
    ]
