import random
from dataclasses import FrozenInstanceError

import pytest

from helpers import (
    brute_force,
    check_feasible,
    random_graph,
    random_program,
    random_unit_program,
)
from topogen.degree import build_degree_program
from topogen.ilp import BinaryProgram, Constraint, solve


def test_maximize_with_tie_takes_first_branch():
    p = BinaryProgram(["x1", "x2"], [Constraint({"x1": 1, "x2": 1}, 1)])
    solution = solve(p)
    assert solution.status == "optimal"
    assert sum(solution.assignment.values()) == 1
    assert solution.assignment == {"x1": 1, "x2": 0}


def test_minimize_simple():
    # minimize x1 subject to x1 >= 1, complemented: y1 = 1 - x1 is
    # maximized subject to y1 <= 0
    p = BinaryProgram(["y1"], [Constraint({"y1": 1}, 0)])
    solution = solve(p)
    assert sum(solution.assignment.values()) == 0
    assert solution.assignment == {"y1": 0}


def test_infeasible():
    # x1 >= 1 negated, and x1 <= 0
    p = BinaryProgram(["x1"], [Constraint({"x1": -1}, -1), Constraint({"x1": 1}, 0)])
    for result in (solve(p), brute_force(p)):
        assert result.status == "infeasible"
        assert result.assignment == {}


def test_brute_force_matches_on_examples():
    examples = [
        BinaryProgram(["x1", "x2"], [Constraint({"x1": 1, "x2": 1}, 1)]),
        BinaryProgram(["y1"], [Constraint({"y1": 1}, 0)]),
    ]
    for p in examples:
        assert brute_force(p).assignment == solve(p).assignment


def test_brute_force_enumeration_count():
    p = BinaryProgram(list(range(10)), [Constraint({v: 1 for v in range(10)}, 4)])
    assert brute_force(p).explored == 2**10


def test_brute_force_variable_limit():
    p = BinaryProgram(list(range(25)), [Constraint({v: 1 for v in range(25)}, 4)])
    with pytest.raises(ValueError, match="brute-force limit"):
        brute_force(p)


def test_solve_has_no_variable_limit():
    p = BinaryProgram(list(range(300)), [Constraint(dict.fromkeys(range(300), 1), 4)])
    solution = solve(p)
    assert sum(solution.assignment.values()) == 4
    # the first optimum in branch order
    assert solution.assignment == {v: int(v < 4) for v in range(300)}


def test_search_depth_is_not_capped_by_recursion():
    # every variable is branched on the way to the first leaf, 1,200 deep,
    # past CPython's default recursion limit of 1,000
    solution = solve(BinaryProgram(list(range(1200)), []))
    assert sum(solution.assignment.values()) == 1200


def test_unconstrained_variable_takes_its_better_value():
    # a >= 1 negated; and the minimize program complemented, which turns
    # the row into a <= 0 and leaves the free variable unconstrained
    for constraint, a in ((Constraint({"a": -1}, -1), 1), (Constraint({"a": 1}, 0), 0)):
        p = BinaryProgram(["a", "free"], [constraint])
        for result in (solve(p), brute_force(p)):
            assert result.assignment == {"a": a, "free": 1}
            assert sum(result.assignment.values()) == a + 1


def test_validation_errors():
    with pytest.raises(ValueError, match="undeclared"):
        solve(BinaryProgram(["a"], [Constraint({"b": 1}, 1)]))
    with pytest.raises(ValueError, match="non-integer"):
        solve(BinaryProgram(["a"], [Constraint({"a": 1.5}, 1)]))


def test_solve_equals_brute_force_on_random_programs():
    rng = random.Random(42)
    programs = [random_program(rng, rng.randrange(1, 16)) for _ in range(250)]
    # rows of mostly positive coefficients, where the packing bound prunes
    rng = random.Random(43)
    programs += [random_unit_program(rng, rng.randrange(1, 16)) for _ in range(250)]
    rng = random.Random(44)
    for _ in range(60):
        graph = random_graph(rng, rng.randrange(2, 19), rng.uniform(0.2, 0.9))
        programs.append(build_degree_program(graph, rng.randint(1, 4)))
    for p in programs:
        exact = solve(p)
        oracle = brute_force(p)
        assert exact.status == oracle.status
        # fixed branching: assignments identical, not merely both optimal
        assert exact.assignment == oracle.assignment
        # a floor of at most the optimum keeps the assignment; one above it
        # finds none, and a floor no assignment reaches cuts the root
        best = -1 if oracle.status == "infeasible" else sum(oracle.assignment.values())
        n = len(p.variables)
        for floor in {0, 1, max(best, 0), best + 1, n + 1}:
            floored = solve(p, floor=floor)
            kept = floor <= best
            assert floored.status == ("optimal" if kept else "infeasible")
            assert floored.assignment == (oracle.assignment if kept else {})
            assert floor <= n or floored.explored <= 1


def test_returned_objective_is_attained():
    rng = random.Random(17)
    for _ in range(50):
        p = random_program(rng, rng.randrange(1, 12))
        solution = solve(p)
        if solution.status == "optimal":
            assert check_feasible(p, solution.assignment)


def test_satisfied_constraint_keeps_optimum():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        p = random_program(rng, rng.randrange(1, 10))
        solution = solve(p)
        if solution.status != "optimal":
            continue
        # a constraint the optimum already satisfies with slack
        lhs = sum(solution.assignment[v] for v in p.variables)
        extra = Constraint({v: 1 for v in p.variables}, lhs + 1)
        p = BinaryProgram(p.variables, p.constraints + (extra,))
        assert sum(solve(p).assignment.values()) == sum(solution.assignment.values())
        checked += 1


def test_a_program_solved_again_equals_a_fresh_one():
    # one program solved at several floors gives what an equal program
    # solved once gives, B&B node count included
    rng = random.Random(45)
    programs = [random_program(rng, rng.randrange(4, 14)) for _ in range(40)]
    programs.append(build_degree_program(random_graph(rng, 14, 0.5), 3))
    for p in programs:
        best = sum(solve(p).assignment.values())
        for floor in (0, best, best + 1, 0):
            fresh = BinaryProgram(p.variables, p.constraints)
            assert solve(p, floor=floor) == solve(fresh, floor=floor)


def test_a_program_cannot_change_after_it_is_built():
    # a solved program keeps its compiled rows, so none of its parts may change
    coefficients = {"a": 1, "b": 1}
    p = BinaryProgram(["a", "b"], [Constraint(coefficients, 1)])
    assert solve(p).assignment == {"a": 1, "b": 0}
    coefficients["b"] = 0
    assert solve(p).assignment == {"a": 1, "b": 0}
    with pytest.raises(TypeError):
        p.constraints[0].coefficients["b"] = 0
    with pytest.raises(AttributeError):
        p.constraints.append(Constraint({"b": 1}, 0))
    with pytest.raises(FrozenInstanceError):
        p.variables = ("a",)
