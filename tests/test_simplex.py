import itertools
import mmap
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import helpers
import numpy as np
import pytest
from helpers import as_coo, reference_simplex
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import linprog

from reuse_alloc import simplex


def solve(c, A, b, tableau=None):
    """`simplex.solve` on the dense matrix A, by its nonzero entries."""
    return simplex.solve(c, as_coo(A), b, tableau)


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
    res = solve([1.0], [[1.0]], [1.0])
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(1.0)
    assert res.x[0] == pytest.approx(1.0)
    assert res.pivots == 1


def test_all_slack_optimum_reports_zero_pivots():
    # With c <= 0 the all-slack basis (x = 0) is already optimal.
    res = solve([-1.0, 0.0], [[1.0, 1.0], [2.0, 1.0]], [1.0, 3.0])
    assert res.status == simplex.OPTIMAL
    assert res.objective == 0.0
    assert res.pivots == 0
    assert (res.x == 0.0).all()


def test_degenerate_duplicate_rows_no_cycling():
    A = [[1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
    b = [1.0, 1.0, 1.0, 0.5]
    res = solve([2.0, 1.0], A, b)
    assert res.status == simplex.OPTIMAL
    assert res.objective == pytest.approx(1.5)


def test_zero_objective_and_negative_cost_columns():
    res = solve([-1.0, -2.0], [[1.0, 1.0]], [1.0])
    assert res.status == simplex.OPTIMAL
    assert res.objective == 0.0


@pytest.mark.parametrize("m", [0, 3])
def test_lp_without_a_column_is_optimal_at_zero(m):
    res = solve(np.zeros(0), np.zeros((m, 0)), np.ones(m))
    assert (res.status, res.objective, res.pivots) == (simplex.OPTIMAL, 0.0, 0)
    assert res.x.shape == (0,) and res.y.tobytes() == np.zeros(m).tobytes()


def test_coordinates_and_dense_input_solve_alike():
    rng = np.random.default_rng(19)
    c, A, b = random_lp(rng, 30, 40, 0.15)
    A = np.vstack([A, np.eye(40)])
    b = np.concatenate([b, np.ones(40)])
    coo = as_coo(A)
    assert coo.shape == A.shape and coo.val.size == np.count_nonzero(A)
    order = rng.permutation(coo.val.size)           # the coordinates may come in any order
    shuffled = simplex.Coo(coo.row[order], coo.col[order], coo.val[order], coo.shape)
    want = solve(c, A, b)
    for got in (simplex.solve(c, coo, b), simplex.solve(c, shuffled, b)):
        assert (got.status, got.pivots, got.objective.hex()) == (want.status, want.pivots, want.objective.hex())
        assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()


def test_infeasible_negative_rhs_reported():
    res = solve([1.0], [[1.0]], [-1.0])
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
        res = solve(c, Afull, bfull)
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
        res = solve(c, Afull, bfull)
        ref = linprog(-c, A_ub=A, b_ub=b, bounds=[(0, 1)] * n, method="highs")
        assert res.status == simplex.OPTIMAL
        assert res.objective == pytest.approx(-ref.fun, rel=1e-8, abs=1e-7)


def test_solution_respects_constraints():
    rng = np.random.default_rng(3)
    n, m = 30, 12
    c = rng.uniform(0.0, 1.0, n)
    A = rng.uniform(0.0, 0.5, (m, n))
    b = rng.uniform(0.5, 2.0, m)
    res = solve(c, A, b)
    assert (A @ res.x <= b + 1e-7).all()
    assert (res.x >= -1e-9).all()


# --- parity with the full-row pivot update ------------------------------------

def assert_same_as_reference(c, A, b):
    want = reference_simplex(c, A, b)
    got = solve(c, A, b)
    assert got.status == want.status
    assert got.pivots == want.pivots
    assert got.objective.hex() == want.objective.hex()
    assert got.x.tobytes() == want.x.tobytes()
    assert got.y.tobytes() == want.y.tobytes()
    return got


def random_lp(rng, m, n, density):
    A = rng.uniform(0.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < density)
    return rng.uniform(-0.5, 2.0, n), A, rng.uniform(0.5, 3.0, m)


# The last two are several 4 KiB pages wide with sparse rows, so pivots reach untouched pages.
@pytest.mark.parametrize("m, n, density", [(8, 5, 1.0), (12, 30, 0.5), (40, 60, 0.2), (50, 200, 0.05),
                                           (120, 80, 0.03), (20, 1500, 0.01), (300, 700, 0.004)])
def test_matches_reference_on_random_lps(m, n, density):
    rng = np.random.default_rng(m * 1000 + n)
    for _ in range(4):
        c, A, b = random_lp(rng, m, n, density)
        A = np.vstack([A, np.eye(n)])          # x <= 1 keeps every LP bounded
        assert assert_same_as_reference(c, A, np.concatenate([b, np.ones(n)])).status == simplex.OPTIMAL


def test_matches_reference_with_zero_objective_columns():
    # -c puts -0.0 in the cost row wherever a reward is 0; the sparse update
    # keeps that sign where the full update would flip it to +0.0.
    rng = np.random.default_rng(11)
    for _ in range(5):
        c, A, b = random_lp(rng, 30, 40, 0.15)
        c[::3] = 0.0
        A = np.vstack([A, np.eye(40)])
        res = assert_same_as_reference(c, A, np.concatenate([b, np.ones(40)]))
        assert res.pivots > 0


def degenerate_chain_lp(n, copies):
    """x_j <= x_{j+1} (each row `copies` times, right-hand side 0) and
    sum(x) <= 1, after two variables z0 + z1 <= 1 with small costs. Dantzig
    enters the chain first and stalls there for n - 1 pivots; once Bland's
    rule takes over it enters z0 before z1, one pivot more than Dantzig."""
    chain = np.zeros((n - 1, n))
    chain[np.arange(n - 1), np.arange(n - 1)] = 1.0
    chain[np.arange(n - 1), np.arange(1, n)] = -1.0
    body = np.vstack([chain] * copies + [np.ones((1, n))])
    A = np.zeros((body.shape[0] + 1, n + 2))
    A[0, :2] = 1.0
    A[1:, 2:] = body
    b = np.zeros(A.shape[0])
    b[0] = b[-1] = 1.0
    c = np.concatenate([[0.01, 0.02], np.linspace(2.0, 1.0, n)])
    return c, A, b


def test_matches_reference_through_the_bland_switch(monkeypatch):
    for n, copies in ((80, 2), (600, 1)):     # the second's tableau rows span 2.4 pages
        c, A, b = degenerate_chain_lp(n, copies)
        res = assert_same_as_reference(c, A, b)
        assert res.status == simplex.OPTIMAL
        assert res.objective == pytest.approx(1.52)
        with monkeypatch.context() as patch:
            patch.setattr(helpers, "STALL_LIMIT", simplex.MAX_PIVOTS)
            assert reference_simplex(c, A, b).pivots == res.pivots - 1   # so Bland's rule did take over


_ENTRIES = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 1.0, 2.0, 1.0 / 3.0, -0.5])


@given(st.integers(1, 7), st.integers(1, 9), st.data())
def test_matches_reference_on_generated_lps(m, n, data):
    A = np.array(data.draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m)))
    b = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=m, max_size=m)))
    c = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 0.5, -1.0, 2.0, 0.1]), min_size=n, max_size=n)))
    A = np.vstack([A, np.eye(n)])
    b = np.concatenate([b, np.ones(n)])
    assert_same_as_reference(c, A, b)


def test_duals_certify_the_optimum():
    rng = np.random.default_rng(5)
    for _ in range(5):
        c, A, b = random_lp(rng, 20, 30, 0.3)
        A = np.vstack([A, np.eye(30)])
        b = np.concatenate([b, np.ones(30)])
        res = solve(c, A, b)
        assert (res.y >= -1e-9).all()
        assert (A.T @ res.y >= c - 1e-9).all()
        assert b @ res.y == pytest.approx(res.objective, abs=1e-9)
        assert c @ res.x == pytest.approx(res.objective, abs=1e-9)


def test_matches_reference_at_the_iteration_limit(monkeypatch):
    c, A, b = degenerate_chain_lp(10, copies=1)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 4)
    monkeypatch.setattr(helpers, "MAX_PIVOTS", 4)
    res = assert_same_as_reference(c, A, b)
    assert (res.status, res.pivots) == (simplex.ITERATION_LIMIT, 4)


# --- rows added to a solved LP ------------------------------------------------

def solve_in_batches(c, A, b, cuts):
    """Solve on one Tableau with the rows of A given in batches ending at
    `cuts`; each result with the LP so far."""
    tab, out, start = simplex.Tableau(), [], 0
    for end in cuts:
        out.append((solve(c, A[start:end], b[start:end], tab), A[:end], b[:end]))
        start = end
    return out


def assert_optimum(res, c, A, b):
    """res is optimal for max c.x s.t. A x <= b, x >= 0, by its duals."""
    tol = 1e-9 * max(1.0, abs(res.objective))
    assert res.status == simplex.OPTIMAL
    assert res.x.shape == (A.shape[1],) and res.y.shape == (A.shape[0],)
    assert (A @ res.x <= b + tol).all() and (res.x >= -tol).all()
    assert (res.y >= -tol).all() and (A.T @ res.y >= c - tol).all()
    assert b @ res.y == pytest.approx(res.objective, abs=tol)
    assert c @ res.x == pytest.approx(res.objective, abs=tol)


@pytest.mark.parametrize("m, n, density", [(12, 30, 0.5), (40, 60, 0.2), (120, 80, 0.05), (200, 150, 0.03)])
def test_rows_added_to_a_solved_lp_give_the_cold_optimum(m, n, density):
    """x <= 1 first, then tight rows in batches: each later batch breaks the
    last optimum, and the warm solve lands on the cold solve's value."""
    rng = np.random.default_rng(m + n)
    for _ in range(3):
        c, A, b = random_lp(rng, m, n, density)
        A = np.vstack([np.eye(n), A])
        b = np.concatenate([np.ones(n), b * density * n / 8])
        cuts = [n, n + m // 3, n + m // 3 + 1, n + m]
        for res, A_so_far, b_so_far in solve_in_batches(c, A, b, cuts):
            assert_optimum(res, c, A_so_far, b_so_far)
            cold = solve(c, A_so_far, b_so_far)
            assert res.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)


@given(st.integers(1, 7), st.integers(1, 9), st.integers(1, 4), st.data())
def test_rows_added_to_a_solved_lp_on_generated_lps(m, n, parts, data):
    A = np.array(data.draw(st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=m, max_size=m)))
    b = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 3.0]), min_size=m, max_size=m)))
    c = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0, 0.5, -1.0, 2.0, 0.1]), min_size=n, max_size=n)))
    A = np.vstack([np.eye(n), A])
    b = np.concatenate([np.ones(n), b])
    cuts = sorted({n, n + m, *data.draw(st.lists(st.integers(n, n + m), max_size=parts))})
    for res, A_so_far, b_so_far in solve_in_batches(c, A, b, cuts):
        assert_optimum(res, c, A_so_far, b_so_far)
        assert res.objective == pytest.approx(reference_simplex(c, A_so_far, b_so_far).objective, abs=1e-9)


def test_a_first_solve_on_a_tableau_is_the_plain_solve():
    rng = np.random.default_rng(23)
    c, A, b = random_lp(rng, 40, 60, 0.2)
    A = np.vstack([A, np.eye(60)])
    b = np.concatenate([b, np.ones(60)])
    tab = simplex.Tableau()
    got, want = solve(c, A, b, tab), assert_same_as_reference(c, A, b)
    assert (got.status, got.pivots, got.objective.hex()) == (want.status, want.pivots, want.objective.hex())
    assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
    assert tab.T.shape == (201, 261) and tab.basis.size == 100     # room for 200 rows


# --- a first call on unit columns: the written optimum -------------------------

def primal_loops(c, A, b, written=True):
    """A first call on a Tableau, as it is or with `_unit_optimum` off: its
    result, its tableau and how many times it ran the primal pivot loop."""
    tab = simplex.Tableau()
    with mock.patch.object(simplex, "_iterate", wraps=simplex._iterate) as loop, \
            mock.patch.object(simplex, "_unit_optimum", simplex._unit_optimum if written else lambda *args: None):
        res = solve(c, A, b, tab)
    return res, tab, [call.args[2] for call in loop.call_args_list].count(simplex._primal_step)


def assert_written_as_the_loop(c, A, b):
    (got, tab, loops), (want, loop_tab, _) = primal_loops(c, A, b), primal_loops(c, A, b, written=False)
    assert loops == 0
    assert (got.status, got.pivots, got.objective.hex()) == (want.status, want.pivots, want.objective.hex())
    assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
    assert tab.T.tobytes() == loop_tab.T.tobytes() and tab.basis.tolist() == loop_tab.basis.tolist()
    return got


def unit_lp(row_of, c, b):
    """The LP whose column j has one entry, 1.0, in row row_of[j]."""
    A = np.zeros((len(b), len(c)))
    A[row_of, np.arange(len(c))] = 1.0
    return np.asarray(c, dtype=float), A, np.asarray(b, dtype=float)


# Ties, zero and sub-OPT_TOL costs, negative ones; sums that round differently in another order.
_UNIT_COSTS = st.sampled_from([0.0, 5e-10, 1e-9, -0.5, 0.1, 0.1, 1.0 / 3.0, 0.7, 0.7, 2.0, 1e-3, 3.3])


@given(st.integers(1, 12), st.data())
def test_a_written_first_round_is_the_pivot_loops(k, data):
    n = data.draw(st.integers(1, 3 * k))
    row_of = data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    c = data.draw(st.lists(_UNIT_COSTS, min_size=n, max_size=n))
    b = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 7.0]), min_size=k, max_size=k))
    assert assert_written_as_the_loop(*unit_lp(row_of, c, b)).status == simplex.OPTIMAL


def test_a_written_first_round_on_a_large_lp_is_the_pivot_loops():
    # Many tied costs and inexact sums: another tie rule, pivot order or
    # summation (numpy's pairwise np.sum) moves the tableau or the objective.
    rng = np.random.default_rng(22)
    k, n = 300, 1000
    c, A, b = unit_lp(rng.integers(0, k, n), rng.integers(-5, 60, n) / 7.0, rng.integers(0, 5, k))
    res = assert_written_as_the_loop(c, A, b)
    assert res.pivots > 250 and res.objective.hex() == reference_simplex(c, A, b).objective.hex()


def test_a_first_round_that_stalls_takes_the_pivot_loop():
    # 64 rows of right-hand side 0 come first in Dantzig's order and stall, so
    # Bland's rule enters column 64 (cost 1) before 65 (cost 2): one pivot more.
    c, A, b = unit_lp([*range(64), 64, 64], [5.0] * 64 + [1.0, 2.0], [0.0] * 64 + [1.0])
    res, _, loops = primal_loops(c, A, b)
    want = reference_simplex(c, A, b)
    assert loops == 1
    assert (res.pivots, want.pivots, res.objective.hex()) == (66, 66, want.objective.hex())
    assert res.x.tobytes() == want.x.tobytes() and res.y.tobytes() == want.y.tobytes()


def test_an_infinite_cost_takes_the_pivot_loop(monkeypatch):
    # The loop's cost row takes inf - inf = NaN, which its argmin then
    # follows; no written order matches that, so the loop runs.
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 6)
    c, A, b = unit_lp([0, 1], [np.inf, 1.0], [1.0, 1.0])
    with np.errstate(invalid="ignore"):
        res, _, loops = primal_loops(c, A, b)
    assert loops == 1 and (res.status, res.pivots) == (simplex.ITERATION_LIMIT, 6)


@pytest.mark.parametrize("fail", ["check", "stall", "bound"])
def test_a_warm_solve_that_fails_ends_as_the_cold_solve(monkeypatch, fail):
    """A warm call whose optimum fails the LP's checks, whose dual steps
    stall, or whose pivots reach its bound, ends with the cold solve of the
    LP so far, bit for bit."""
    rng = np.random.default_rng(31)
    c, A, b = random_lp(rng, 60, 40, 0.3)
    A = np.vstack([np.eye(40), A])
    b = np.concatenate([np.ones(40), b * 0.1])
    tab = simplex.Tableau()
    first = solve(c, A[:40], b[:40], tab)
    checked = []            # the shapes of the LPs that `check` was asked about
    if fail == "check":
        monkeypatch.setattr(simplex, "check", lambda c, A, b, res: checked.append(A.shape) or (("duality gap", 1.0),))
    elif fail == "stall":   # as if STALL_LIMIT pivots had gone by without progress
        dual_step = simplex._dual_step
        monkeypatch.setattr(simplex, "_dual_step", lambda T, basis, bland: dual_step(T, basis, True))
    else:                   # a warm call's bound, the 100 rows it holds, cut to 2 pivots
        iterate, limits = simplex._iterate, []

        def bounded(T, basis, step, sense, pivots, limit):
            limits.append(limit)
            return iterate(T, basis, step, sense, pivots, 2 if limit < simplex.MAX_PIVOTS else limit)

        monkeypatch.setattr(simplex, "_iterate", bounded)
    got, want = solve(c, A[40:], b[40:], tab), solve(c, A, b)
    assert (got.status, got.objective.hex()) == (want.status, want.objective.hex())
    assert got.x.tobytes() == want.x.tobytes() and got.y.tobytes() == want.y.tobytes()
    assert got.pivots >= want.pivots and first.pivots > 0
    assert tab.basis.size == 100 and len(tab.lp) == 2
    assert checked == ([(100, 40)] if fail == "check" else [])
    if fail == "bound":
        assert limits[0] == 100 and got.pivots == 2 + want.pivots


def test_rows_added_to_a_solved_lp_stop_at_the_iteration_limit(monkeypatch):
    rng = np.random.default_rng(29)
    c, A, b = random_lp(rng, 60, 40, 0.3)
    tab = simplex.Tableau()
    solve(c, np.eye(40), np.ones(40), tab)
    monkeypatch.setattr(simplex, "MAX_PIVOTS", 3)
    res = solve(c, A, b * 0.1, tab)
    assert (res.status, res.pivots, res.y.shape) == (simplex.ITERATION_LIMIT, 3, (100,))
    assert tab.basis.size == 100


TABLEAU_RSS = """
from reuse_alloc import benchmarks, generators, simplex
def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
lp = benchmarks.build_lp(generators.upper_triangular(10, 100))
before = peak_kib()
simplex.solve(lp.obj, lp.A, lp.rhs)
print(peak_kib() - before)
"""


def _huge_pages_always():
    try:
        return "[always]" in Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
    except OSError:
        return False


@pytest.mark.skipif(not hasattr(mmap, "MAP_PRIVATE"), reason="needs a private anonymous mapping")
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the peak resident size, VmHWM")
@pytest.mark.skipif(_huge_pages_always(), reason="transparent huge pages 'always' back the mapping in 2 MiB pages")
def test_only_the_tableau_pages_that_hold_a_nonzero_become_resident():
    # The tableau maps 128 MB (1056 rows written, room for 2110), but only
    # the pages that ever hold a nonzero become resident; a dense np.zeros
    # tableau of the 1056 rows alone raised the peak by 52.9 MB here (2-core
    # x86-64), the mapped one by 13.5 MB, and by 14.6 MB with its room.
    # VmHWM, not ru_maxrss: a child's ru_maxrss starts at its forking
    # parent's peak.
    src = str(Path(simplex.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", TABLEAU_RSS], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert int(out) < 25 * 1024
