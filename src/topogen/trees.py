"""Layered tree topologies with prescribed per-level breadth.

A layered tree is built by a monitored breadth-first search from a root:
level i holds the nodes reachable in exactly i hops, the search aborts
once a level falls below the required breadth kappa(i), and candidates
with a link of loss <= beta + margin into levels shallower than their
parents are excluded so small channel fluctuations cannot rewire the
topology. A follow-up binary program strips nodes that are not needed to
sustain the breadth requirements and parent connectivity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ilp
from .graphs import BoundedGraph, GraphFamily, neighborhood_graph
from .measurements import LossMatrix


@dataclass(frozen=True)
class KappaSpec:
    """Required breadth per depth: constant, depth+1, or an explicit table.

    Table entries cover specific depths; unlisted depths default to 1 so
    deeper levels remain allowed.
    """

    kind: str  # "const" | "linear" | "table"
    value: int = 1
    table: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in ("const", "linear", "table"):
            raise ValueError(f"unknown kappa kind {self.kind!r}")
        if self.kind == "const" and self.value < 1:
            raise ValueError("constant breadth must be >= 1")
        depths: set[int] = set()
        for depth, breadth in self.table:
            item = f"kappa table item '{depth}={breadth}'"
            if depth < 1:
                raise ValueError(f"{item}: depth must be >= 1")
            if depth in depths:
                raise ValueError(f"{item}: duplicate depth {depth}")
            if breadth < 1:
                raise ValueError(f"{item}: breadth must be >= 1")
            depths.add(depth)

    def __call__(self, depth: int) -> int:
        if self.kind == "const":
            return self.value
        if self.kind == "linear":
            return depth + 1
        return dict(self.table).get(depth, 1)

    @classmethod
    def parse(cls, text: str) -> "KappaSpec":
        """Parse ``const:K``, ``linear`` or ``table:1=2,2=3``."""
        if text == "linear":
            return cls(kind="linear")
        if text.startswith("const:"):
            return cls(kind="const", value=int(text.split(":", 1)[1]))
        if text.startswith("table:"):
            pairs = []
            for item in text.split(":", 1)[1].split(","):
                if item.count("=") != 1:
                    raise ValueError(f"kappa table item {item!r}: expected depth=breadth")
                depth, breadth = item.split("=")
                pairs.append((int(depth), int(breadth)))
            return cls(kind="table", table=tuple(sorted(pairs)))
        raise ValueError(f"cannot parse kappa spec {text!r}")


@dataclass(frozen=True)
class LayeredTree:
    root: int
    beta: float
    margin: float
    levels: tuple[frozenset[int], ...]
    depth: int

    def __post_init__(self):
        if self.depth != len(self.levels) - 1:
            raise ValueError("depth must equal number of levels minus one")

    @property
    def nodes(self) -> set[int]:
        return set().union(*self.levels)

    @property
    def total_nodes(self) -> int:
        return sum(len(level) for level in self.levels)


def monitored_bfs(
    matrix: LossMatrix,
    v0: int,
    beta: float,
    margin: float,
    kappa: KappaSpec,
) -> LayeredTree:
    """Breadth-first layer construction with breadth and margin guards.

    A frontier neighbor is admitted to the next level only if it is not
    already placed and has no link of loss <= beta + margin into any
    level shallower than the current frontier. Expansion stops once a
    freshly built level has fewer than kappa(depth) nodes; that partial
    level is discarded.
    """
    if v0 not in matrix.nodes:
        raise ValueError(f"unknown root {v0}")
    if margin < 0:
        raise ValueError("margin must be >= 0")
    graph = neighborhood_graph(matrix, beta)
    margin_graph = neighborhood_graph(matrix, beta + margin)

    levels: list[set[int]] = [{v0}]
    placed = {v0}
    shallow: set[int] = set()  # union of levels strictly above the frontier
    depth = 0
    while True:
        nxt: set[int] = set()
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
    levels.pop()  # remove partially filled layer
    return LayeredTree(
        root=v0,
        beta=beta,
        margin=margin,
        levels=tuple(frozenset(level) for level in levels),
        depth=depth - 1,
    )


def rank_key(tree: LayeredTree) -> tuple:
    """Best-first sort key: deepest, fewest nodes, smaller bound, smaller root."""
    return (-tree.depth, tree.total_nodes, tree.beta, tree.root)


def sweep_trees(
    matrix: LossMatrix,
    kappa: KappaSpec,
    margin: float,
    family: GraphFamily,
) -> list[LayeredTree]:
    """One tree per (bound, root) pair, best first by ``rank_key``."""
    trees = []
    for beta in family.betas():
        for v0 in sorted(matrix.nodes):
            trees.append(monitored_bfs(matrix, v0, beta, margin, kappa))
    return sorted(trees, key=rank_key)


def check_tree(
    tree: LayeredTree, matrix: LossMatrix, kappa: KappaSpec
) -> list[tuple[int, str]]:
    """Independent requirement checker; reads only the loss matrix.

    Returns (requirement number, detail) for each violation:
    1 connectivity toward the root, 2 designated root level,
    3 per-level breadth, 4 no strong links into shallower levels.
    """
    violations: list[tuple[int, str]] = []
    missing = sorted(tree.nodes - set(matrix.nodes))
    if missing:
        raise ValueError(f"matrix lacks tree nodes {missing}")
    graph = neighborhood_graph(matrix, tree.beta)
    margin_graph = neighborhood_graph(matrix, tree.beta + tree.margin)

    if set(tree.levels[0]) != {tree.root}:
        violations.append((2, f"level 0 is {sorted(tree.levels[0])}, not the root"))
    seen: set[int] = set()
    for i, level in enumerate(tree.levels):
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
            parents = graph.adjacency[v] & tree.levels[i - 1]
            if not parents:
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


def build_reduction_program(
    tree: LayeredTree, graph: BoundedGraph, kappa: KappaSpec
) -> ilp.BinaryProgram:
    """Binary program minimizing the node count of a layered tree.

    Variables cover levels 1..depth; the root is a constant 1 in parent
    sums, not a variable. Per level the selected count must reach the
    breadth requirement, and a node may stay only if at least one of its
    potential parents stays.
    """
    variables = []
    for i in range(1, tree.depth + 1):
        variables.extend(sorted(tree.levels[i]))
    constraints = []
    for i in range(1, tree.depth + 1):
        constraints.append(
            ilp.Constraint({u: 1 for u in sorted(tree.levels[i])}, ">=", kappa(i))
        )
        for u in sorted(tree.levels[i]):
            parents = graph.adjacency[u] & tree.levels[i - 1]
            constant = 1 if tree.root in parents else 0
            coefficients = {v: -1 for v in sorted(parents) if v != tree.root}
            coefficients[u] = 1
            constraints.append(ilp.Constraint(coefficients, "<=", constant))
    return ilp.BinaryProgram(
        variables=variables,
        sense="minimize",
        objective={u: 1 for u in variables},
        constraints=constraints,
    )


def reduce_tree(
    tree: LayeredTree, matrix: LossMatrix, kappa: KappaSpec
) -> LayeredTree:
    """Minimal-node tree with the same depth and requirements.

    The input tree is a feasible incumbent, so the program cannot be
    infeasible unless the tree itself violates its requirements.
    """
    graph = neighborhood_graph(matrix, tree.beta)
    program = build_reduction_program(tree, graph, kappa)
    solution = ilp.solve(program)
    if solution.status != "optimal":
        raise ValueError("reduction infeasible: input tree violates its requirements")
    keep = {u for u, value in solution.assignment.items() if value}
    levels = [frozenset({tree.root})]
    for i in range(1, tree.depth + 1):
        levels.append(frozenset(tree.levels[i] & keep))
    reduced = LayeredTree(
        root=tree.root,
        beta=tree.beta,
        margin=tree.margin,
        levels=tuple(levels),
        depth=tree.depth,
    )
    violations = check_tree(reduced, matrix, kappa)
    if violations:
        raise RuntimeError(f"reduced tree violates requirements: {violations}")
    return reduced
