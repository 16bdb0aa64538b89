"""Shared fixture builders for the test suite."""

import random

from topogen.graphs import BoundedGraph
from topogen.ilp import BinaryProgram, Constraint
from topogen.measurements import LossMatrix, MatrixEntry


def matrix_from_losses(losses, nodes=None, channel=26):
    """LossMatrix with exact directed losses and nominal counts."""
    entries = {
        pair: MatrixEntry(mean_loss=loss, stddev=0.0, count=250)
        for pair, loss in losses.items()
    }
    if nodes is None:
        nodes = {n for pair in losses for n in pair}
    return LossMatrix(nodes=sorted(nodes), channel=channel, entries=entries)


def symmetric_matrix(edge_losses, nodes=None):
    """Matrix where each undirected pair gets the same loss both ways."""
    losses = {}
    for (a, b), loss in edge_losses.items():
        losses[(a, b)] = loss
        losses[(b, a)] = loss
    return matrix_from_losses(losses, nodes=nodes)


def random_matrix(rng: random.Random, n, present=0.7, lo=35.0, hi=100.0):
    losses = {}
    for a in range(n):
        for b in range(n):
            if a != b and rng.random() < present:
                losses[(a, b)] = rng.uniform(lo, hi)
    return matrix_from_losses(losses, nodes=range(n))


def random_program(rng: random.Random, n):
    variables = list(range(n))
    constraints = []
    for _ in range(rng.randint(1, max(1, n))):
        chosen = rng.sample(variables, rng.randint(1, n))
        coefficients = {v: rng.randint(-4, 4) for v in chosen}
        constraints.append(
            Constraint(coefficients, rng.choice(["<=", ">="]), rng.randint(-5, 8))
        )
    return BinaryProgram(
        variables=variables,
        sense=rng.choice(["maximize", "minimize"]),
        constraints=constraints,
    )


def random_unit_program(rng: random.Random, n):
    """Maximize the count under mixed-sign ``<=`` constraints."""
    variables = list(range(n))
    constraints = []
    for _ in range(rng.randint(1, n)):
        chosen = rng.sample(variables, rng.randint(1, n))
        coefficients = {v: rng.randint(-2, 4) for v in chosen}
        constraints.append(Constraint(coefficients, "<=", rng.randint(-2, 8)))
    return BinaryProgram(variables=variables, sense="maximize", constraints=constraints)


def random_graph(rng: random.Random, n, density):
    nodes = tuple(range(n))
    edges = frozenset(
        (a, b) for a in nodes for b in nodes if a < b and rng.random() < density
    )
    return BoundedGraph(beta=0.0, nodes=nodes, edges=edges)


def best_regular_subset_size(graph, c):
    """Exhaustive oracle: size of a maximum exactly-c-regular induced subset."""
    nodes = sorted(graph.nodes)
    best = 0
    for mask in range(1 << len(nodes)):
        selected = {nodes[i] for i in range(len(nodes)) if mask >> i & 1}
        if len(selected) <= best:
            continue
        if all(len(graph.adjacency[u] & selected) == c for u in selected):
            best = len(selected)
    return best


def pearson(xs, ys):
    """Hand-computed Pearson coefficient, independent of numpy."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    return cov / (vx**0.5 * vy**0.5)
