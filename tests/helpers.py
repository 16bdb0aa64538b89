"""Shared fixture builders and oracles for the test suite."""

import json
import random
from pathlib import Path

import numpy as np

from topogen import io
from topogen.graphs import BoundedGraph
from topogen.ilp import BinaryProgram, Constraint, Solution
from topogen.measurements import LossMatrix, MatrixEntry

BRUTE_FORCE_LIMIT = 20


def matrix_from_losses(losses, nodes=None, channel=26):
    """LossMatrix with exact directed losses and nominal counts."""
    entries = {
        pair: MatrixEntry(mean_loss=loss, stddev=0.0, count=250)
        for pair, loss in losses.items()
    }
    if nodes is None:
        nodes = {n for pair in losses for n in pair}
    return LossMatrix(nodes=sorted(nodes), channel=channel, entries=entries)


def relabel(node):
    """An order-preserving map of node ids that moves every id off its position."""
    return 3 * node + 7


def relabeled(matrix):
    """``matrix`` with every id mapped by ``relabel`` and the node list reversed.

    Ties go to the smaller id and ``nodes`` is only a list order, so any
    result on this matrix is the original result mapped by ``relabel``.
    """
    return LossMatrix(
        nodes=[relabel(n) for n in reversed(matrix.nodes)],
        channel=matrix.channel,
        entries={(relabel(a), relabel(b)): e for (a, b), e in matrix.entries.items()},
    )


def shifted(matrix, db):
    """``matrix`` with every loss rounded to a multiple of 1/8 dB, then ``db`` dB added.

    For an integer ``db`` the sums are exact, so a result on this matrix
    with the bound window moved by ``db`` is the ``db = 0`` result with
    every bound moved by ``db``.
    """
    return LossMatrix(
        nodes=list(matrix.nodes),
        channel=matrix.channel,
        entries={
            pair: MatrixEntry(round(e.mean_loss * 8) / 8 + db, e.stddev, e.count)
            for pair, e in matrix.entries.items()
        },
    )


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
    """Random program drawn with either sense and either comparator.

    A ``>=`` row is negated into a ``<=`` row, and a minimize program is
    complemented (x -> 1 - x, rhs -> rhs - sum of coefficients), so the
    result is the solver's one shape: maximize the ones under ``<=`` rows.
    """
    variables = list(range(n))
    rows = []
    for _ in range(rng.randint(1, max(1, n))):
        chosen = rng.sample(variables, rng.randint(1, n))
        coefficients = {v: rng.randint(-4, 4) for v in chosen}
        sign = rng.choice([1, -1])  # a "<=" row, or a ">=" row negated
        rows.append(({v: sign * c for v, c in coefficients.items()}, sign * rng.randint(-5, 8)))
    if rng.choice([False, True]):  # minimize, complemented
        rows = [
            ({v: -c for v, c in coefficients.items()}, rhs - sum(coefficients.values()))
            for coefficients, rhs in rows
        ]
    return BinaryProgram(
        variables=variables,
        constraints=[Constraint(coefficients, rhs) for coefficients, rhs in rows],
    )


def random_unit_program(rng: random.Random, n):
    """Program of mixed-sign rows with mostly positive coefficients."""
    variables = list(range(n))
    constraints = []
    for _ in range(rng.randint(1, n)):
        chosen = rng.sample(variables, rng.randint(1, n))
        coefficients = {v: rng.randint(-2, 4) for v in chosen}
        constraints.append(Constraint(coefficients, rng.randint(-2, 8)))
    return BinaryProgram(variables=variables, constraints=constraints)


def random_graph(rng: random.Random, n, density):
    nodes = tuple(range(n))
    edges = frozenset(
        (a, b) for a in nodes for b in nodes if a < b and rng.random() < density
    )
    return BoundedGraph(nodes=nodes, edges=edges)


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


def check_feasible(program: BinaryProgram, assignment) -> bool:
    return all(
        sum(c * assignment[v] for v, c in constraint.coefficients.items()) <= constraint.rhs
        for constraint in program.constraints
    )


def brute_force(program: BinaryProgram) -> Solution:
    """Exhaustive-search oracle, enumerating in the solver's branch order."""
    program.validate()
    order = program.variables
    n = len(order)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"{n} variables exceed brute-force limit {BRUTE_FORCE_LIMIT}")

    count = 1 << n
    # 1-branch first with variable 0 most significant: descending codes.
    codes = np.arange(count - 1, -1, -1, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (codes[:, None] >> shifts[None, :]) & 1

    feasible = np.ones(count, dtype=bool)
    for constraint in program.constraints:
        coefs = np.array([constraint.coefficients.get(v, 0) for v in order], dtype=np.int64)
        feasible &= bits @ coefs <= constraint.rhs

    if not feasible.any():
        return Solution(status="infeasible", assignment={}, explored=count)
    counts = bits.sum(axis=1)
    # argmax returns the first index, which is the first assignment in
    # branch order attaining the optimum.
    pick = int(np.argmax(np.where(feasible, counts, -1)))
    return Solution(
        status="optimal",
        assignment={v: int(bits[pick, k]) for k, v in enumerate(order)},
        explored=count,
    )


def save_profile(profile, path):
    """Write a transceiver profile in the format ``io.load_profile`` reads."""
    document = {
        "format": io.PROFILE_FORMAT,
        "name": profile.name,
        "tx_levels": list(profile.tx_levels),
        "sensitivity_levels": list(profile.sensitivity_levels),
    }
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
