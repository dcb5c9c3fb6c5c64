import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from reuse_alloc import simplex


def vertex_enumeration_max(c, A, b):
    """Oracle: enumerate basic feasible points of {Ax <= b, 0 <= x <= 1}."""
    n = len(c)
    rows = [(np.asarray(r, dtype=float), float(bb)) for r, bb in zip(A, b)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e, 1.0))          # x_i <= 1
        rows.append((-e, 0.0))         # x_i >= 0
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, rhs)
        if all(r @ x <= bb + 1e-9 for r, bb in rows):
            val = float(np.dot(c, x))
            best = val if best is None else max(best, val)
    return best


def test_trivial_single_variable():
    res = simplex.solve([1.0], [[1.0]], [1.0])
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(1.0)
    assert res.x[0] == pytest.approx(1.0)
    assert res.pivots == 1


def test_all_slack_optimum_reports_zero_pivots():
    # With c <= 0 the all-slack basis (x = 0) is already optimal.
    res = simplex.solve([-1.0, 0.0], [[1.0, 1.0], [2.0, 1.0]], [1.0, 3.0])
    assert res.status == simplex.OPTIMAL
    assert res.objective == 0.0
    assert res.pivots == 0
    assert (res.x == 0.0).all()


def test_degenerate_duplicate_rows_no_cycling():
    A = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
    b = [1.0, 1.0, 1.0, 0.5]
    res = simplex.solve([2.0, 1.0], A, b)
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(1.5)


def test_zero_objective_and_negative_cost_columns():
    res = simplex.solve([-1.0, -2.0], [[1.0, 1.0]], [1.0])
    assert res.status == simplex.OPTIMAL
    assert res.objective == 0.0


def test_infeasible_negative_rhs_reported():
    res = simplex.solve([1.0], [[1.0]], [-1.0])
    assert res.status == simplex.INFEASIBLE


def test_random_small_vs_vertex_enumeration():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n, m = 5, 8
        c = rng.uniform(-1.0, 2.0, n)
        A = rng.uniform(0.0, 1.0, (m, n))
        b = rng.uniform(0.5, 2.5, m)
        Afull = np.vstack([A, np.eye(n)])      # materialize x <= 1
        bfull = np.concatenate([b, np.ones(n)])
        res = simplex.solve(c, Afull, bfull)
        assert res.status == simplex.OPTIMAL
        want = vertex_enumeration_max(c, A, b)
        assert res.objective == pytest.approx(want, abs=1e-7)


def test_random_medium_vs_scipy():
    rng = np.random.default_rng(7)
    for _ in range(5):
        n, m = 200, 50
        c = rng.uniform(0.0, 1.0, n)
        A = rng.uniform(0.0, 0.2, (m, n))
        b = rng.uniform(1.0, 4.0, m)
        Afull = np.vstack([A, np.eye(n)])
        bfull = np.concatenate([b, np.ones(n)])
        res = simplex.solve(c, Afull, bfull)
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=[(0, 1)] * n, method="highs")
        assert res.status == simplex.OPTIMAL
        assert res.objective == pytest.approx(-ref.fun, rel=1e-8, abs=1e-7)


def test_solution_respects_constraints():
    rng = np.random.default_rng(3)
    n, m = 30, 12
    c = rng.uniform(0.0, 1.0, n)
    A = rng.uniform(0.0, 0.5, (m, n))
    b = rng.uniform(0.5, 2.0, m)
    res = simplex.solve(c, A, b)
    assert (A @ res.x <= b + 1e-7).all()
    assert (res.x >= -1e-9).all()
