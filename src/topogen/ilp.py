"""Exact solver for binary integer linear programs.

Covers exactly the two program shapes the topology pipeline needs:
maximize or minimize a sum of binary variables under linear inequality
constraints with integer coefficients. Solved by deterministic
branch-and-bound (feasibility pruning plus best-so-far objective bound),
so results are reproducible byte-for-byte without an external solver.

Determinism contract: variables are branched in declaration order, the
1-branch is explored first when maximizing and the 0-branch first when
minimizing, and the incumbent is replaced only on strict improvement.
The brute-force oracle enumerates assignments in the same order, so both
return identical assignments, not just identical objectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

VarId = Hashable

OPS = ("<=", ">=", "==")
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
    variables: list[VarId]
    sense: str
    objective: dict[VarId, int]
    constraints: list[Constraint] = field(default_factory=list)

    def validate(self):
        if self.sense not in SENSES:
            raise ValueError(f"unknown sense {self.sense!r}")
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise ValueError("duplicate variable ids")
        for var, coef in self.objective.items():
            if var not in declared:
                raise ValueError(f"objective references undeclared variable {var!r}")
            if not isinstance(coef, int):
                raise ValueError(f"non-integer objective coefficient for {var!r}")
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
    explored: int | None = None


def _referenced_order(program: BinaryProgram) -> list[VarId]:
    # Variables in neither objective nor any constraint are free; they
    # are excluded from the search and fixed to 0 afterwards.
    referenced = {v for v, c in program.objective.items() if c != 0}
    for constraint in program.constraints:
        referenced.update(v for v, c in constraint.coefficients.items() if c != 0)
    return [v for v in program.variables if v in referenced]


def _complete(program: BinaryProgram, partial: dict[VarId, int]) -> dict[VarId, int]:
    return {v: partial.get(v, 0) for v in program.variables}


def evaluate_objective(program: BinaryProgram, assignment: dict[VarId, int]) -> int:
    return sum(coef * assignment[var] for var, coef in program.objective.items())


def check_feasible(program: BinaryProgram, assignment: dict[VarId, int]) -> bool:
    for constraint in program.constraints:
        lhs = sum(c * assignment[v] for v, c in constraint.coefficients.items())
        if constraint.op == "<=" and lhs > constraint.rhs:
            return False
        if constraint.op == ">=" and lhs < constraint.rhs:
            return False
        if constraint.op == "==" and lhs != constraint.rhs:
            return False
    return True


def solve(program: BinaryProgram) -> Solution:
    """Solve to proven optimality by deterministic branch-and-bound."""
    program.validate()
    if len(program.variables) > DEFAULT_VARIABLE_LIMIT:
        raise ValueError(
            f"{len(program.variables)} variables exceed limit "
            f"{DEFAULT_VARIABLE_LIMIT}; decompose the program"
        )
    order = _referenced_order(program)
    n = len(order)
    index = {v: k for k, v in enumerate(order)}
    maximize = program.sense == "maximize"

    obj = [program.objective.get(v, 0) for v in order]
    # Suffix bounds on the objective contribution of variables >= depth d.
    obj_hi = [0] * (n + 1)
    obj_lo = [0] * (n + 1)
    for d in range(n - 1, -1, -1):
        obj_hi[d] = obj_hi[d + 1] + max(0, obj[d])
        obj_lo[d] = obj_lo[d + 1] + min(0, obj[d])

    cons = []
    touching: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for constraint in program.constraints:
        coefs = [0] * n
        for v, c in constraint.coefficients.items():
            if c != 0:
                coefs[index[v]] += c
        lo = [0] * (n + 1)
        hi = [0] * (n + 1)
        for d in range(n - 1, -1, -1):
            lo[d] = lo[d + 1] + min(0, coefs[d])
            hi[d] = hi[d + 1] + max(0, coefs[d])
        ci = len(cons)
        cons.append((constraint.op, constraint.rhs, lo, hi))
        for d, c in enumerate(coefs):
            if c != 0:
                touching[d].append((ci, c))

    best_obj: int | None = None
    best_assign: list[int] | None = None
    values = [0] * n
    sums = [0] * len(cons)
    branch_values = (1, 0) if maximize else (0, 1)

    def recurse(d: int, partial_obj: int):
        nonlocal best_obj, best_assign
        for ci, (op, rhs, lo, hi) in enumerate(cons):
            low = sums[ci] + lo[d]
            high = sums[ci] + hi[d]
            if op == "<=":
                if low > rhs:
                    return
            elif op == ">=":
                if high < rhs:
                    return
            else:
                if low > rhs or high < rhs:
                    return
        if d == n:
            if best_obj is None or (
                partial_obj > best_obj if maximize else partial_obj < best_obj
            ):
                best_obj = partial_obj
                best_assign = values.copy()
            return
        if best_obj is not None:
            bound = partial_obj + (obj_hi[d] if maximize else obj_lo[d])
            if maximize and bound <= best_obj:
                return
            if not maximize and bound >= best_obj:
                return
        for value in branch_values:
            values[d] = value
            if value:
                for ci, c in touching[d]:
                    sums[ci] += c
            recurse(d + 1, partial_obj + obj[d] * value)
            if value:
                for ci, c in touching[d]:
                    sums[ci] -= c

    recurse(0, 0)

    if best_assign is None:
        return Solution(status="infeasible", assignment={}, objective_value=None)
    assignment = _complete(program, dict(zip(order, best_assign)))
    return Solution(
        status="optimal",
        assignment=assignment,
        objective_value=evaluate_objective(program, assignment),
    )


def brute_force(program: BinaryProgram) -> Solution:
    """Exhaustive-search oracle, enumerating in the solver's branch order."""
    program.validate()
    order = _referenced_order(program)
    n = len(order)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"{n} referenced variables exceed brute-force limit {BRUTE_FORCE_LIMIT}"
        )
    maximize = program.sense == "maximize"

    count = 1 << n
    codes = np.arange(count, dtype=np.int64)
    if maximize:
        # 1-branch first with variable 0 most significant: descending codes.
        codes = codes[::-1]
    if n:
        shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
        bits = (codes[:, None] >> shifts[None, :]) & 1
    else:
        bits = np.zeros((1, 0), dtype=np.int64)

    feasible = np.ones(count, dtype=bool)
    index = {v: k for k, v in enumerate(order)}
    for constraint in program.constraints:
        coefs = np.zeros(n, dtype=np.int64)
        for v, c in constraint.coefficients.items():
            if c != 0:
                coefs[index[v]] += c
        lhs = bits @ coefs
        if constraint.op == "<=":
            feasible &= lhs <= constraint.rhs
        elif constraint.op == ">=":
            feasible &= lhs >= constraint.rhs
        else:
            feasible &= lhs == constraint.rhs

    if not feasible.any():
        return Solution(
            status="infeasible", assignment={}, objective_value=None, explored=count
        )
    obj_coefs = np.array([program.objective.get(v, 0) for v in order], dtype=np.int64)
    objectives = bits @ obj_coefs if n else np.zeros(1, dtype=np.int64)
    masked = np.where(feasible, objectives, np.iinfo(np.int64).min if maximize else np.iinfo(np.int64).max)
    # argmax/argmin return the first index, which is the first assignment
    # in branch order attaining the optimum.
    pick = int(np.argmax(masked) if maximize else np.argmin(masked))
    assignment = _complete(program, {v: int(bits[pick, k]) for k, v in enumerate(order)})
    return Solution(
        status="optimal",
        assignment=assignment,
        objective_value=evaluate_objective(program, assignment),
        explored=count,
    )
