"""Exact solver for binary integer linear programs.

Solves the one program shape the topology pipeline needs: maximize the
number of selected (value 1) binary variables under ``<=`` constraints
with integer coefficients. Solved by deterministic branch-and-bound with
constraint propagation, so results are reproducible byte-for-byte
without an external solver. A program is immutable: it is validated and
compiled into the solver's rows once, on its first solve.

Propagation: every row keeps its slack, the right-hand side minus the
least activity the row can still reach with every free variable at its
cheaper value. Fixing a variable lowers the slack of the rows whose
activity it grows; a slack below 0 is a conflict, and a free term whose
``|coef|`` exceeds the slack can take only its cheaper value, so it is
forced to it (0 for a positive coefficient, 1 for a negative one).
Forced values propagate in turn until nothing changes. On the degree
program this is, for example, "a node with more than c selected
neighbours cannot be selected".

Count bound: every free variable can still be 1; each row tightens this
into a packing bound. Each of the row's ``count`` free variables with a
positive coefficient uses at least ``minpos`` of its slack, so at most
``slack // minpos`` of them can be 1 and the bound drops by the rest.
The largest drop over the rows is the one applied.

Determinism contract: variables are branched in declaration order (a
forced variable has one value left and is not branched), the 1-branch
first, depth first over an explicit stack, so no recursion limit caps
the program size. The incumbent is replaced only on strict improvement.
A forced value removes only subtrees with no feasible leaf, and the
bound cuts only subtrees that cannot strictly beat the incumbent, so
the sequence of incumbents, and with it the returned assignment, is
that of the unpruned search: the first optimum in branch order, which
is the lexicographically greatest optimal 0/1 vector in declaration
order. A floor starts the incumbent at ``floor - 1`` instead of -1, so
the bound also cuts every subtree that cannot reach ``floor`` ones. The
unpruned search's incumbents strictly increase, and the floor only skips
those below it: a floor of at most the optimum returns the same
assignment as no floor, and a floor above the optimum returns
``infeasible``. The default floor of 0 is no floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import floordiv, sub
from types import MappingProxyType
from typing import Hashable, Mapping

VarId = Hashable

FREE = -1  # value of a variable not yet fixed


@dataclass(frozen=True)
class Constraint:
    """Linear constraint: sum of coefficient * variable <= rhs; coefficients kept read-only."""

    coefficients: Mapping[VarId, int]
    rhs: int

    def __post_init__(self):
        object.__setattr__(self, "coefficients", MappingProxyType(dict(self.coefficients)))


@dataclass(frozen=True)
class BinaryProgram:
    """Maximize the count of variables set to 1; lists passed in are stored as tuples."""

    variables: tuple[VarId, ...]
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def validate(self):
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise ValueError("duplicate variable ids")
        for i, constraint in enumerate(self.constraints):
            if not isinstance(constraint.rhs, int):
                raise ValueError(f"constraint {i}: non-integer right-hand side")
            for var, coef in constraint.coefficients.items():
                if var not in declared:
                    raise ValueError(
                        f"constraint {i} references undeclared variable {var!r}"
                    )
                if not isinstance(coef, int):
                    raise ValueError(f"constraint {i}: non-integer coefficient")

    @cached_property
    def compiled(self):
        """The validated program as ``solve`` reads it. Per row: its terms
        (|coef|, variable, the value a too large |coef| forces), largest first;
        its slack over the least activity; the count and least coefficient of
        its positive terms. Per variable and value, the rows whose activity
        that value grows: (row, by how much, the row's largest |coef|, the
        row's terms); per variable, the rows where its coefficient is positive.
        """
        self.validate()
        index = {v: j for j, v in enumerate(self.variables)}
        terms, slack0, count0, minpos = [], [], [], []
        grows: list[tuple[list, list]] = [([], []) for _ in self.variables]
        for row, constraint in enumerate(self.constraints):
            pos, neg = [], []
            for v, c in constraint.coefficients.items():
                if c > 0:
                    pos.append((c, index[v], 0))
                elif c:
                    neg.append((-c, index[v], 1))
            row_terms = sorted(pos + neg, reverse=True)
            terms.append(row_terms)
            slack0.append(constraint.rhs + sum(c for c, _, _ in neg))
            count0.append(len(pos))
            minpos.append(min(pos)[0] if pos else 1)
            for c, j, forced in row_terms:
                grows[j][1 - forced].append((row, c, row_terms[0][0], row_terms))
        positive = [[row for row, *_ in up] for _, up in grows]
        return terms, slack0, count0, minpos, grows, positive


@dataclass
class Solution:
    status: str  # "optimal" | "infeasible"
    assignment: dict[VarId, int]
    explored: int | None = None  # B&B nodes entered, or assignments enumerated


def solve(program: BinaryProgram, floor: int = 0) -> Solution:
    """Solve to proven optimality by deterministic branch-and-bound.

    Only assignments with at least ``floor`` ones count: when the optimum
    is below ``floor`` the result is ``infeasible``, and otherwise it is
    the assignment that ``floor=0`` returns.
    """
    terms, slack0, count0, minpos, grows, positive = program.compiled
    order = program.variables

    def propagate(values, slack, count, queue) -> bool:
        """Apply the values set for ``queue``; False on a conflict."""
        for j in queue:  # grows while it is read
            for row in positive[j]:
                count[row] -= 1
            for row, c, top, row_terms in grows[j][values[j]]:
                left = slack[row] - c
                if left < 0:
                    return False
                slack[row] = left
                if left < top:  # force each free term whose |coef| exceeds left
                    for size, k, forced in row_terms:
                        if size <= left:
                            break
                        if values[k] == FREE:
                            values[k] = forced
                            queue.append(k)
        return True

    best = floor - 1
    best_values: list[int] | None = None
    explored = 0
    # The root: every row forces as propagate's rows do, at its initial slack.
    values, queue = [FREE] * len(order), []
    for row_terms, left in zip(terms, slack0):
        for size, k, forced in row_terms:
            if size <= left:
                break
            if values[k] == FREE:
                values[k] = forced
                queue.append(k)
    slack, count = slack0.copy(), count0.copy()
    stack = []
    if min(slack, default=0) >= 0 and propagate(values, slack, count, queue):
        stack.append((values, slack, count))
    # The 1-child is pushed last, so its subtree is searched in full before
    # the 0-child is popped, entered and bound-checked against the incumbent.
    while stack:
        values, slack, count = stack.pop()
        explored += 1
        ones = values.count(1)
        room = ones + values.count(FREE) - best
        drop = max(map(sub, count, map(floordiv, slack, minpos)), default=0)
        if room <= 0 or room <= drop:
            continue
        if FREE not in values:
            # Feasible, and strictly better than any incumbent.
            best, best_values = ones, values
            continue
        d = values.index(FREE)
        for value in (0, 1):
            child, child_slack, child_count = values.copy(), slack.copy(), count.copy()
            child[d] = value
            if propagate(child, child_slack, child_count, [d]):
                stack.append((child, child_slack, child_count))

    if best_values is None:
        return Solution(status="infeasible", assignment={}, explored=explored)
    return Solution(
        status="optimal", assignment=dict(zip(order, best_values)), explored=explored
    )
