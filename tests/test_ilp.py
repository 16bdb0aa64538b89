import random

import pytest

from helpers import random_program
from topogen.ilp import (
    BinaryProgram,
    Constraint,
    brute_force,
    check_feasible,
    evaluate_objective,
    solve,
)


def program(variables, sense, objective, constraints):
    return BinaryProgram(variables, sense, objective, constraints)


def test_maximize_with_tie_takes_first_branch():
    p = program(
        ["x1", "x2"],
        "maximize",
        {"x1": 1, "x2": 1},
        [Constraint({"x1": 1, "x2": 1}, "<=", 1)],
    )
    solution = solve(p)
    assert solution.status == "optimal"
    assert solution.objective_value == 1
    assert solution.assignment == {"x1": 1, "x2": 0}


def test_minimize_simple():
    p = program(["x1"], "minimize", {"x1": 1}, [Constraint({"x1": 1}, ">=", 1)])
    solution = solve(p)
    assert solution.objective_value == 1
    assert solution.assignment == {"x1": 1}


def test_infeasible():
    p = program(
        ["x1"],
        "maximize",
        {"x1": 1},
        [Constraint({"x1": 1}, ">=", 1), Constraint({"x1": 1}, "<=", 0)],
    )
    for result in (solve(p), brute_force(p)):
        assert result.status == "infeasible"
        assert result.objective_value is None


def test_brute_force_matches_on_examples():
    examples = [
        program(
            ["x1", "x2"],
            "maximize",
            {"x1": 1, "x2": 1},
            [Constraint({"x1": 1, "x2": 1}, "<=", 1)],
        ),
        program(["x1"], "minimize", {"x1": 1}, [Constraint({"x1": 1}, ">=", 1)]),
    ]
    for p in examples:
        assert brute_force(p).assignment == solve(p).assignment


def test_brute_force_enumeration_count():
    p = program(
        list(range(10)),
        "maximize",
        {v: 1 for v in range(10)},
        [Constraint({v: 1 for v in range(10)}, "<=", 4)],
    )
    assert brute_force(p).explored == 2**10


def test_brute_force_variable_limit():
    p = program(
        list(range(25)),
        "maximize",
        {v: 1 for v in range(25)},
        [Constraint({v: 1 for v in range(25)}, "<=", 4)],
    )
    with pytest.raises(ValueError, match="brute-force limit"):
        brute_force(p)


def test_solve_variable_limit():
    p = program(list(range(300)), "maximize", {v: 1 for v in range(300)}, [])
    with pytest.raises(ValueError, match="decompose"):
        solve(p)


def test_unreferenced_variable_assigned_zero():
    p = program(
        ["a", "free"],
        "maximize",
        {"a": 1},
        [Constraint({"a": 1}, "<=", 1)],
    )
    for result in (solve(p), brute_force(p)):
        assert result.assignment == {"a": 1, "free": 0}


def test_validation_errors():
    with pytest.raises(ValueError, match="sense"):
        solve(program(["a"], "max", {"a": 1}, []))
    with pytest.raises(ValueError, match="undeclared"):
        solve(program(["a"], "maximize", {"b": 1}, []))
    with pytest.raises(ValueError, match="undeclared"):
        solve(program(["a"], "maximize", {}, [Constraint({"b": 1}, "<=", 1)]))
    with pytest.raises(ValueError, match="non-integer"):
        solve(program(["a"], "maximize", {"a": 1.5}, []))


def test_solve_equals_brute_force_on_random_programs():
    rng = random.Random(42)
    for _ in range(250):
        p = random_program(rng, rng.randrange(1, 16))
        exact = solve(p)
        oracle = brute_force(p)
        assert exact.status == oracle.status
        assert exact.objective_value == oracle.objective_value
        # fixed branching: assignments identical, not merely both optimal
        assert exact.assignment == oracle.assignment


def test_returned_objective_is_attained():
    rng = random.Random(17)
    for _ in range(50):
        p = random_program(rng, rng.randrange(1, 12))
        solution = solve(p)
        if solution.status == "optimal":
            assert check_feasible(p, solution.assignment)
            assert evaluate_objective(p, solution.assignment) == solution.objective_value


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
        p.constraints.append(
            Constraint({v: 1 for v in p.variables}, "<=", lhs + 1)
        )
        assert solve(p).objective_value == solution.objective_value
        checked += 1
