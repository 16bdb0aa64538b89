"""Exact solver for binary integer linear programs.

Covers exactly the two program shapes the topology pipeline needs:
maximize or minimize the number of selected (value 1) binary variables
under ``<=`` and ``>=`` constraints with integer coefficients. Solved by
deterministic branch-and-bound (feasibility pruning plus best-so-far
count bound), so results are reproducible byte-for-byte without an
external solver.

Count bound: when maximizing, every variable not yet fixed can still be
1; each ``<=`` constraint tightens this into a packing bound. With every
unfixed negative coefficient taken, the constraint has ``slack`` left;
each of its ``cnt`` unfixed variables with a positive coefficient uses
at least ``minpos`` of it, so at most ``fit = slack // minpos`` of them
can be 1 and the bound drops by ``cnt - fit``. The largest drop over the
constraints is the one applied. When minimizing, every unfixed variable
can still be 0, so the bound is the count selected so far.

Determinism contract: variables are branched in declaration order, the
1-branch is explored first when maximizing and the 0-branch first when
minimizing, and the incumbent is replaced only on strict improvement.
The brute-force oracle enumerates assignments in the same order, so both
return identical assignments, not just identical counts. Both bounds
cut only subtrees that cannot strictly beat the incumbent, and no such
subtree can replace it, so the sequence of incumbents, and with it the
returned assignment, is that of the unpruned search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

VarId = Hashable

OPS = ("<=", ">=")
SENSES = ("maximize", "minimize")

DEFAULT_VARIABLE_LIMIT = 256
BRUTE_FORCE_LIMIT = 20


@dataclass(frozen=True)
class Constraint:
    """Linear constraint: sum of coefficient * variable  op  rhs."""

    coefficients: dict[VarId, int]
    op: str
    rhs: int


@dataclass
class BinaryProgram:
    """Maximize or minimize the count of variables set to 1."""

    variables: list[VarId]
    sense: str
    constraints: list[Constraint] = field(default_factory=list)

    def validate(self):
        if self.sense not in SENSES:
            raise ValueError(f"unknown sense {self.sense!r}")
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise ValueError("duplicate variable ids")
        for i, constraint in enumerate(self.constraints):
            if constraint.op not in OPS:
                raise ValueError(f"constraint {i}: unknown comparator {constraint.op!r}")
            if not isinstance(constraint.rhs, int):
                raise ValueError(f"constraint {i}: non-integer right-hand side")
            for var, coef in constraint.coefficients.items():
                if var not in declared:
                    raise ValueError(
                        f"constraint {i} references undeclared variable {var!r}"
                    )
                if not isinstance(coef, int):
                    raise ValueError(f"constraint {i}: non-integer coefficient")


@dataclass
class Solution:
    status: str  # "optimal" | "infeasible"
    assignment: dict[VarId, int]
    objective_value: int | None
    explored: int | None = None  # B&B nodes entered, or assignments enumerated


def check_feasible(program: BinaryProgram, assignment: dict[VarId, int]) -> bool:
    for constraint in program.constraints:
        lhs = sum(c * assignment[v] for v, c in constraint.coefficients.items())
        if constraint.op == "<=" and lhs > constraint.rhs:
            return False
        if constraint.op == ">=" and lhs < constraint.rhs:
            return False
    return True


def solve(program: BinaryProgram) -> Solution:
    """Solve to proven optimality by deterministic branch-and-bound."""
    program.validate()
    order = program.variables
    n = len(order)
    if n > DEFAULT_VARIABLE_LIMIT:
        raise ValueError(
            f"{n} variables exceed limit {DEFAULT_VARIABLE_LIMIT}; decompose the program"
        )
    maximize = program.sense == "maximize"

    cons = []
    touching: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for constraint in program.constraints:
        coefs = [constraint.coefficients.get(v, 0) for v in order]
        lo = [0] * (n + 1)
        hi = [0] * (n + 1)
        # Packing bound: count and least coefficient of the variables >= d
        # with a positive coefficient; kept only when maximizing, read only
        # for "<=".
        cnt = [0] * (n + 1)
        minpos = [0] * (n + 1)
        for d in range(n - 1, -1, -1):
            c = coefs[d]
            lo[d] = lo[d + 1] + min(0, c)
            hi[d] = hi[d + 1] + max(0, c)
            cnt[d], minpos[d] = cnt[d + 1], minpos[d + 1]
            if maximize and c > 0:
                cnt[d] += 1
                minpos[d] = min(minpos[d], c) if cnt[d + 1] else c
        ci = len(cons)
        cons.append((constraint.op, constraint.rhs, lo, hi, cnt, minpos))
        for d, c in enumerate(coefs):
            if c != 0:
                touching[d].append((ci, c))

    best: int | None = None
    best_assign: list[int] | None = None
    values = [0] * n
    sums = [0] * len(cons)
    branch_values = (1, 0) if maximize else (0, 1)
    explored = 0

    def recurse(d: int, partial: int):
        nonlocal best, best_assign, explored
        explored += 1
        # How far the subtree's count bound is past the incumbent; with no
        # incumbent, past any packing drop (at most n).
        room = n + 1
        if best is not None:
            room = partial + (n - d) - best if maximize else best - partial
            if room <= 0:
                return
        for ci, (op, rhs, lo, hi, cnt, minpos) in enumerate(cons):
            if op == "<=":
                low = sums[ci] + lo[d]
                if low > rhs:
                    return
                if cnt[d] and cnt[d] - (rhs - low) // minpos[d] >= room:
                    return
            elif sums[ci] + hi[d] < rhs:
                return
        if d == n:
            # Feasible, and strictly better than any incumbent (room > 0).
            best = partial
            best_assign = values.copy()
            return
        for value in branch_values:
            values[d] = value
            if value:
                for ci, c in touching[d]:
                    sums[ci] += c
            recurse(d + 1, partial + value)
            if value:
                for ci, c in touching[d]:
                    sums[ci] -= c

    recurse(0, 0)

    if best_assign is None:
        return Solution(
            status="infeasible", assignment={}, objective_value=None, explored=explored
        )
    return Solution(
        status="optimal",
        assignment=dict(zip(order, best_assign)),
        objective_value=best,
        explored=explored,
    )


def brute_force(program: BinaryProgram) -> Solution:
    """Exhaustive-search oracle, enumerating in the solver's branch order."""
    program.validate()
    order = program.variables
    n = len(order)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"{n} variables exceed brute-force limit {BRUTE_FORCE_LIMIT}")
    maximize = program.sense == "maximize"

    count = 1 << n
    codes = np.arange(count, dtype=np.int64)
    if maximize:
        # 1-branch first with variable 0 most significant: descending codes.
        codes = codes[::-1]
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    bits = (codes[:, None] >> shifts[None, :]) & 1

    feasible = np.ones(count, dtype=bool)
    for constraint in program.constraints:
        coefs = np.array([constraint.coefficients.get(v, 0) for v in order], dtype=np.int64)
        lhs = bits @ coefs
        if constraint.op == "<=":
            feasible &= lhs <= constraint.rhs
        else:
            feasible &= lhs >= constraint.rhs

    if not feasible.any():
        return Solution(
            status="infeasible", assignment={}, objective_value=None, explored=count
        )
    counts = bits.sum(axis=1)
    masked = np.where(feasible, counts, -1 if maximize else n + 1)
    # argmax/argmin return the first index, which is the first assignment
    # in branch order attaining the optimum.
    pick = int(np.argmax(masked) if maximize else np.argmin(masked))
    return Solution(
        status="optimal",
        assignment={v: int(bits[pick, k]) for k, v in enumerate(order)},
        objective_value=int(counts[pick]),
        explored=count,
    )
