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

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from operator import or_

from . import ilp
from .graphs import BoundedGraph, GraphFamily, neighborhood_graph
from .measurements import LossMatrix


@dataclass(frozen=True)
class KappaSpec:
    """Required breadth per depth: an explicit table, then ``rest``.

    Depths the table does not list need ``rest`` nodes, or depth + 1 when
    ``rest`` is None.
    """

    table: tuple[tuple[int, int], ...] = ()
    rest: int | None = 1

    def __post_init__(self):
        if self.rest is not None and self.rest < 1:
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
        for listed, breadth in self.table:
            if listed == depth:
                return breadth
        return depth + 1 if self.rest is None else self.rest

    @classmethod
    def parse(cls, text: str) -> "KappaSpec":
        """Parse ``const:K``, ``linear`` or ``table:1=2,2=3``.

        A table's unlisted depths need 1 node, so deeper levels remain
        allowed. Every error names the spec: ``kappa spec 'const:x': ...``.
        """
        try:
            if text == "linear":
                return cls(rest=None)
            if text.startswith("const:"):
                return cls(rest=int(text.split(":", 1)[1]))
            if text.startswith("table:"):
                pairs = []
                for item in text.split(":", 1)[1].split(","):
                    if item.count("=") != 1:
                        raise ValueError(f"kappa table item {item!r}: expected depth=breadth")
                    depth, breadth = item.split("=")
                    pairs.append((int(depth), int(breadth)))
                return cls(table=tuple(sorted(pairs)))
        except ValueError as exc:
            raise ValueError(f"kappa spec {text!r}: {exc}") from None
        raise ValueError(f"kappa spec {text!r}: expected const:K, linear or table:D=B,...")


@dataclass(frozen=True)
class LayeredTree:
    root: int
    beta: float
    margin: float
    levels: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("levels: a tree needs at least its root level")
        if math.isnan(self.beta + self.margin):
            raise ValueError(f"bound {self.beta} plus margin {self.margin} is NaN")
        if self.margin < 0:
            raise ValueError(f"margin {self.margin} must be >= 0")

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def nodes(self) -> set[int]:
        return set().union(*self.levels)

    @property
    def total_nodes(self) -> int:
        return sum(map(len, self.levels))


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
    level is discarded. When fewer unblocked nodes remain than kappa(depth),
    no level could reach that breadth, so it stops without building one.
    """
    root = matrix.position.get(v0)
    if root is None:
        raise ValueError(f"unknown root {v0}")
    near, far = matrix.masks_within(beta, beta + margin)

    # Level 1 is the root's neighbours, a prefix of its birth-ordered row,
    # so it is never decoded from a mask.
    births, neighbors, _ = matrix.edge_births[v0]
    k = bisect_right(births, beta)
    # A negative or NaN margin, which LayeredTree refuses, stops here too:
    # the loop below needs ``far`` to cover ``near``.
    if k < kappa(1) or not beta + margin >= beta:
        return LayeredTree(root=v0, beta=beta, margin=margin, levels=(frozenset({v0}),))
    levels = [frozenset({v0}), frozenset(neighbors[:k])]
    frontier = None
    # Nodes with a strong link into a level strictly above the frontier.
    # Links are symmetric, so these are the levels' own strong neighbours.
    # Every placed node is in it too: each level lies in ``near``, so in
    # ``far``, of the level above, and only the root needs adding. The
    # masks hold node bits only, so the next level lies in the rest.
    blocked = far[root] | 1 << root
    n = len(matrix.nodes)
    while n - blocked.bit_count() >= kappa(len(levels)):
        if frontier is None:
            frontier = list(map(matrix.position.__getitem__, neighbors[:k]))
        nxt = reduce(or_, map(near.__getitem__, frontier)) & ~blocked
        if nxt.bit_count() < kappa(len(levels)):
            break  # the partial level is dropped without being decoded
        blocked |= reduce(or_, map(far.__getitem__, frontier))
        frontier = _positions(nxt)
        levels.append(frozenset(map(matrix.nodes.__getitem__, frontier)))
    return LayeredTree(root=v0, beta=beta, margin=margin, levels=tuple(levels))


def _positions(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def rank_key(tree: LayeredTree) -> tuple:
    """Best-first sort key: deepest, fewest nodes, smaller bound, smaller root."""
    return (-tree.depth, tree.total_nodes, tree.beta, tree.root)


def sweep_trees(
    matrix: LossMatrix,
    kappa: KappaSpec,
    margin: float,
    family: GraphFamily,
    roots: list[int] | None = None,
) -> list[LayeredTree]:
    """The deepest trees over every (bound, root) pair, best first by ``rank_key``.

    The roots default to every node. Bound by bound, so the matrix's
    per-bound mask vectors serve every root. A tree is dropped as soon as
    a deeper one is found, so only the deepest trees so far are held.
    """
    roots = sorted(matrix.nodes) if roots is None else roots
    deepest: list[LayeredTree] = []
    for beta in family.betas():
        for v0 in roots:
            tree = monitored_bfs(matrix, v0, beta, margin, kappa)
            if not deepest or tree.depth > deepest[0].depth:
                deepest = [tree]
            elif tree.depth == deepest[0].depth:
                deepest.append(tree)
    return sorted(deepest, key=rank_key)


def parents_of(tree: LayeredTree, matrix: LossMatrix, v: int, i: int) -> frozenset[int]:
    """Nodes of level i - 1 that node ``v`` of level i links to at the tree's bound."""
    return tree.levels[i - 1].intersection(matrix.neighbors_within(v, tree.beta))


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
            if not parents_of(tree, matrix, v, i):
                violations.append((1, f"node {v} at level {i} has no parent at level {i - 1}"))
    outer = tree.beta + tree.margin
    for i in range(2, tree.depth + 1):
        above = set().union(*tree.levels[: i - 1])
        for v in sorted(tree.levels[i]):
            strong = above.intersection(matrix.neighbors_within(v, outer))
            if strong:
                violations.append(
                    (4, f"node {v} at level {i} has strong links to {sorted(strong)}")
                )
    return violations


def build_reduction_program(
    tree: LayeredTree, graph: BoundedGraph, kappa: KappaSpec
) -> ilp.BinaryProgram:
    """Binary program dropping the most nodes from a layered tree.

    Variables are drop flags d = 1 - keep over levels 1..depth; the root
    always stays. Level i drops at most ``len(level) - kappa(i)`` nodes,
    and a node whose non-root parents P are all dropped is dropped too:
    ``sum(d_v for v in P) - d_u <= len(P) - 1``, with no row when the
    root is a parent.
    """
    variables = []
    for i in range(1, tree.depth + 1):
        variables.extend(sorted(tree.levels[i]))
    constraints = []
    for i in range(1, tree.depth + 1):
        level = sorted(tree.levels[i])
        constraints.append(ilp.Constraint(dict.fromkeys(level, 1), len(level) - kappa(i)))
        for u in level:
            parents = graph.adjacency[u] & tree.levels[i - 1]
            if tree.root not in parents:
                coefficients = dict.fromkeys(sorted(parents), 1)
                coefficients[u] = -1
                constraints.append(ilp.Constraint(coefficients, len(parents) - 1))
    return ilp.BinaryProgram(variables=variables, constraints=constraints)


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
    keep = {u for u, dropped in solution.assignment.items() if not dropped}
    levels = [frozenset({tree.root})]
    for i in range(1, tree.depth + 1):
        levels.append(frozenset(tree.levels[i] & keep))
    reduced = LayeredTree(
        root=tree.root, beta=tree.beta, margin=tree.margin, levels=tuple(levels)
    )
    violations = check_tree(reduced, matrix, kappa)
    if violations:
        raise RuntimeError(f"reduced tree violates requirements: {violations}")
    return reduced
