"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line (visible with `pytest -s`).  Every comparison is exact; the
only tolerances are the stated wall-clock budgets."""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from helpers import (
    CONVEX_SHAPES,
    composition,
    random_feasible_plan,
    random_instance,
    sorted_rationals,
    worked_example,
)
from transopt import (
    TransportPlan,
    aggregate_assignment_solution,
    check_monge,
    convex_diff_cost,
    dual_objective,
    enumerate_assignment,
    enumerate_optimum,
    expand_to_assignment,
    factored_cost,
    is_feasible,
    new_instance,
    north_west_corner,
    plan_cost,
    reduce_matrix,
    solve_assignment,
    solve_weighted_hungarian,
    sum_cost,
    verify_optimal,
)
from transopt.cli import main, parse_instance, serialize_instance

DATA = Path(__file__).parent / "data"

REDUCED_START = ((7, 3, 0, 3), (0, 4, 7, 2), (4, 0, 2, 0))
REDUCED_AFTER1 = ((9, 5, 0, 5), (0, 4, 5, 2), (4, 0, 0, 0))
REDUCED_AFTER2 = ((11, 5, 0, 5), (0, 2, 3, 0), (6, 0, 0, 0))
PINNED_COVERS = {0: ({0}, {0, 1, 3}), 1: ({0, 2}, {0})}
WORKED_PLAN = TransportPlan(
    {(0, 2): 3, (1, 0): 3, (1, 3): 2, (2, 1): 2, (2, 2): 3, (2, 3): 2}
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [FAIL] {description}")
        raise
    print(f"criterion {number:2d} [PASS] {description}")


def test_criterion_01_trace_reproduction():
    with criterion(1, "reduction and delta-iterations reproduce the worked tables"):
        started = time.perf_counter()
        inst = worked_example()
        reduced, _, _ = reduce_matrix(inst.cost)
        assert reduced == REDUCED_START
        assert inst.total == 15
        # the canonical min-cut covers are the published ones
        _, _, canonical = solve_weighted_hungarian(inst)
        assert [it.matrix for it in canonical.iterations] == [REDUCED_START, REDUCED_AFTER1, REDUCED_AFTER2]
        assert [(set(it.cover.rows), set(it.cover.cols)) for it in canonical.iterations[:2]] == [
            PINNED_COVERS[0],
            PINNED_COVERS[1],
        ]
        assert [it.cover.weight for it in canonical.iterations] == [12, 13, 15]
        assert time.perf_counter() - started < 1.0


def test_criterion_02_optimal_value():
    with criterion(2, "weighted Hungarian matches the enumeration optimum on the example"):
        inst = worked_example()
        plan, cert, _ = solve_weighted_hungarian(inst)
        assert is_feasible(inst, plan)
        optimum = enumerate_optimum(inst, max_total=15).optimum
        assert plan_cost(inst, plan) == optimum
        assert is_feasible(inst, WORKED_PLAN)
        assert plan_cost(inst, WORKED_PLAN) == optimum


def test_criterion_03_convex_difference_suite():
    with criterion(3, "NW corner is optimal on 200 random convex-difference instances"):
        started = time.perf_counter()
        rng = random.Random(2026)
        shapes = sorted(CONVEX_SHAPES)
        for _ in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            x = sorted_rationals(rng, m)
            y = sorted_rationals(rng, n)
            f = CONVEX_SHAPES[rng.choice(shapes)]
            total = rng.randint(1, 10)
            inst = new_instance(
                convex_diff_cost(x, y, f),
                composition(rng, total, m),
                composition(rng, total, n),
            )
            nw = north_west_corner(inst)
            assert is_feasible(inst, nw)
            assert plan_cost(inst, nw) == enumerate_optimum(inst).optimum
        assert time.perf_counter() - started < 30.0


def test_criterion_04_monge_condition_suite():
    with criterion(4, "Monge check modes agree and a passing check forces NW optimality"):
        rng = random.Random(404)
        monge_holders = 0
        for k in range(1000):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            matrix = [[rng.randint(-5, 9) for _ in range(n)] for _ in range(m)]
            adjacent = check_monge(matrix, "adjacent")
            exhaustive = check_monge(matrix, "exhaustive")
            assert adjacent.holds == exhaustive.holds
            if exhaustive.holds:
                monge_holders += 1
                total = rng.randint(1, 10)
                inst = new_instance(
                    matrix, composition(rng, total, m), composition(rng, total, n)
                )
                nw = north_west_corner(inst)
                assert plan_cost(inst, nw) == enumerate_optimum(inst).optimum
        assert monge_holders > 0
        # structured matrices keep the implication non-vacuous beyond one line
        for _ in range(50):
            m, n = rng.randint(2, 4), rng.randint(2, 4)
            kind = rng.choice(("factored", "sum", "convexdiff"))
            if kind == "factored":
                x = sorted((rng.randint(0, 6) for _ in range(m)), reverse=True)
                y = sorted(rng.randint(0, 6) for _ in range(n))
                matrix = factored_cost(x, y)
            elif kind == "sum":
                matrix = sum_cost(
                    [rng.randint(-5, 5) for _ in range(m)],
                    [rng.randint(-5, 5) for _ in range(n)],
                )
            else:
                matrix = convex_diff_cost(
                    sorted(rng.randint(-5, 5) for _ in range(m)),
                    sorted(rng.randint(-5, 5) for _ in range(n)),
                    CONVEX_SHAPES[rng.choice(sorted(CONVEX_SHAPES))],
                )
            assert check_monge(matrix, "exhaustive").holds
            total = rng.randint(1, 10)
            inst = new_instance(
                matrix, composition(rng, total, m), composition(rng, total, n)
            )
            assert plan_cost(inst, north_west_corner(inst)) == enumerate_optimum(inst).optimum


def test_criterion_05_sum_cost_degeneracy():
    with criterion(5, "every feasible plan of a sum-cost instance has the same cost"):
        rng = random.Random(505)
        for _ in range(100):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            x = [rng.randint(-9, 9) for _ in range(m)]
            y = [rng.randint(-9, 9) for _ in range(n)]
            total = rng.randint(1, 10)
            supply = composition(rng, total, m)
            demand = composition(rng, total, n)
            inst = new_instance(sum_cost(x, y), supply, demand)
            expected = sum(a * xi for a, xi in zip(supply, x)) + sum(
                b * yj for b, yj in zip(demand, y)
            )
            for _ in range(20):
                plan = random_feasible_plan(rng, inst)
                assert plan_cost(inst, plan) == expected


def test_criterion_06_weighted_cover_equals_flow():
    with criterion(6, "max-flow equals min-cut cover weight at every iteration"):
        rng = random.Random(606)
        instances = [worked_example()] + [random_instance(rng) for _ in range(60)]
        iterations_seen = 0
        for inst in instances:
            _, _, trace = solve_weighted_hungarian(inst)
            for it in trace.iterations:
                assert it.flow_value == it.cover.weight
                iterations_seen += 1
        assert iterations_seen > len(instances)


def test_criterion_07_expansion_equivalence():
    with criterion(7, "expansion route, direct route, and oracle agree on 100 instances"):
        rng = random.Random(707)
        for _ in range(100):
            inst = random_instance(rng, max_dim=4, max_total=10, cost_low=-4)
            direct, _, _ = solve_weighted_hungarian(inst)
            expanded, row_map, col_map = expand_to_assignment(inst)
            perm, _ = solve_assignment(expanded)
            via_expansion = aggregate_assignment_solution(perm, row_map, col_map)
            assert is_feasible(inst, via_expansion)
            optimum = enumerate_optimum(inst).optimum
            assert plan_cost(inst, direct) == optimum
            assert plan_cost(inst, via_expansion) == optimum


def test_criterion_08_certificate_soundness():
    with criterion(8, "emitted certificates verify and satisfy weak duality"):
        rng = random.Random(808)
        for k in range(40):
            if k % 4 == 0:  # mix in unit-marginal assignment instances
                n = rng.randint(1, 4)
                inst = new_instance(
                    [[rng.randint(-5, 9) for _ in range(n)] for _ in range(n)],
                    [1] * n,
                    [1] * n,
                )
            else:
                inst = random_instance(rng, cost_low=-5)
            plan, cert, _ = solve_weighted_hungarian(inst)
            assert verify_optimal(inst, plan, cert)
            bound = dual_objective(inst, cert)
            assert bound == plan_cost(inst, plan)
            for _ in range(10):
                other = random_feasible_plan(rng, inst)
                assert bound <= plan_cost(inst, other)


def test_criterion_09_assignment_oracle():
    with criterion(9, "assignment solver matches factorial enumeration"):
        started = time.perf_counter()
        rng = random.Random(909)
        for _ in range(100):
            matrix = [[rng.randint(0, 20) for _ in range(4)] for _ in range(4)]
            _, cost = solve_assignment(matrix)
            assert cost == enumerate_assignment(matrix)[1]
        for _ in range(20):
            matrix = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
            _, cost = solve_assignment(matrix)
            assert cost == enumerate_assignment(matrix)[1]
        assert time.perf_counter() - started < 10.0


def test_criterion_10_cli_contract(tmp_path, capsys):
    with criterion(10, "golden trace is byte-stable, files round-trip, exit codes hold"):
        worked = str(DATA / "worked_example.txt")
        golden = (DATA / "worked_hungarian_trace.txt").read_text()
        args = ["solve", worked, "--method", "hungarian", "--trace", "--certificate"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second == golden

        golden_json = (DATA / "worked_hungarian.json").read_text()
        assert main(args + ["--json"]) == 0
        assert capsys.readouterr().out == golden_json
        json.loads(golden_json)  # stays well-formed

        for fixture in ("worked_example.txt", "tiny.txt", "rational.txt", "halves.txt"):
            text = (DATA / fixture).read_text()
            inst = parse_instance(text)
            canonical = serialize_instance(inst)
            assert parse_instance(canonical) == inst
            assert serialize_instance(parse_instance(canonical)) == canonical

        assert main(["solve", worked, "--method", "nw"]) == 0
        capsys.readouterr()
        assert main(["check-monge", worked]) == 1
        capsys.readouterr()
        holds = tmp_path / "holds.txt"
        holds.write_text("1 2\n3 3\n2\n1 1\n")
        assert main(["check-monge", str(holds)]) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\nx\n1\n1\n")
        assert main(["solve", str(bad), "--method", "nw"]) == 2
        capsys.readouterr()
        assert main(["solve", str(tmp_path / "missing.txt"), "--method", "nw"]) == 2
        capsys.readouterr()
        assert main(["solve", worked, "--method", "oracle"]) == 3
        capsys.readouterr()
        assert main(["solve", str(DATA / "halves.txt"), "--method", "oracle"]) == 0
        capsys.readouterr()
