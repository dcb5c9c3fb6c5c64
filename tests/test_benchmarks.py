import dataclasses
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import reference_build_lp, reference_certificate_check, reference_simplex
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog
from scipy.sparse import coo_array

import reuse_alloc
from reuse_alloc import benchmarks, engine, model, policies, simplex
from reuse_alloc.benchmarks import (OPTIMAL, LpRoundingPolicy, UnsupportedMode, brute_force_clairvoyant,
                                    build_lp, certificate_check, lp_value, solve_lp)
from reuse_alloc.distributions import (Deterministic, Exponential, MixtureWithInf, NonReusable, TwoPointInf,
                                       Uniform, WeibullIFR, ZeroOrInf)
from reuse_alloc.generators import (BatteryParams, example_a1, mnl_counterexample, random_battery,
                                    upper_triangular)


def single(usage, capacity=1, reward=1.0, times=(0.0, 1.0)):
    return model.Instance(
        mode=model.MATCHING,
        resources=(model.Resource(0, capacity, reward, usage),),
        arrivals=tuple(model.Arrival(t, model.MatchingEdges(frozenset({0}))) for t in times),
    )


def scipy_lp_value(inst):
    lp = build_lp(inst)
    A = coo_array((lp.A.val, (lp.A.row, lp.A.col)), shape=lp.A.shape)
    res = linprog(-lp.obj, A_ub=A, b_ub=lp.rhs, bounds=[(0, 1)] * len(lp.obj), method="highs")
    return -res.fun


# --- LP construction and values -----------------------------------------------

def test_lp_nonreusable_unit_capacity():
    inst = single(NonReusable(), reward=1.5)
    lp = build_lp(inst)
    cap_rows = [k for k in lp.row_kinds if k[0] == "cap"]
    assert cap_rows  # at least the binding row over both arrivals
    assert lp_value(inst) == pytest.approx(1.5, abs=1e-9)


def test_lp_full_return_counts_twice():
    inst = single(Deterministic(0.5), reward=2.0)
    assert lp_value(inst) == pytest.approx(4.0, abs=1e-9)


def test_lp_example_a1_value_exact():
    # Two independent oracles (this simplex and scipy/HiGHS) agree the value
    # is 3n - 1/4: the capacity row at the last spread arrival forces a
    # quarter-unit loss (0.5n burst mass + 0.5(n-1) earlier spread + the
    # current arrival exceed n), so the often-quoted 3n is approached only
    # asymptotically.
    for n in (1, 2, 10):
        inst = example_a1(n)
        want = 3.0 * n - 0.25
        assert lp_value(inst) == pytest.approx(want, abs=1e-7)
        assert scipy_lp_value(inst) == pytest.approx(want, abs=1e-7)


def test_lp_rejects_assortment():
    with pytest.raises(UnsupportedMode):
        build_lp(mnl_counterexample())


def test_lp_budgeted_bid_scaling():
    inst = model.Instance(
        mode=model.BUDGETED,
        resources=(model.Resource(0, 4, 1.0, NonReusable()),),
        arrivals=(model.Arrival(0.0, model.BudgetedBids({0: 3})),
                  model.Arrival(1.0, model.BudgetedBids({0: 3}))),
    )
    # 4 units over two 3-unit requests: y sums to 4/3, objective 4.
    assert lp_value(inst) == pytest.approx(4.0, abs=1e-9)


def test_lp_dominates_simulation():
    battery = random_battery(BatteryParams(n_instances=3, n_resources=3, n_arrivals=40,
                                           capacity_range=(2, 5), horizon=15.0), seed=21)
    for inst in battery:
        lp = lp_value(inst)
        for mk in (policies.GreedyPolicy, policies.BalancePolicy, policies.RbaPolicy):
            s = engine.run_trials(inst, mk(), 400, 9)
            assert s.mean <= lp + 3.0 * s.se + 1e-9


def test_lp_rounding_matches_at_lp_rate():
    inst = single(NonReusable(), capacity=100, times=tuple(float(t) for t in range(100)))
    sol = solve_lp(build_lp(inst))
    pol = LpRoundingPolicy(inst, sol)
    s = engine.run_trials(inst, pol, 2000, 5)
    delta = math.sqrt(math.log(100) / 100)
    assert s.mean / sol.objective == pytest.approx(1.0 / (1.0 + 2.0 * delta), abs=0.01)


def test_lp_rounding_zero_solution_never_matches():
    inst = single(NonReusable())
    sol = solve_lp(build_lp(inst))
    zero = benchmarks.LpSolution(status=sol.status, objective=0.0,
                                 y={k: 0.0 for k in sol.y})
    s = engine.run_trials(inst, LpRoundingPolicy(inst, zero), 50, 2)
    assert s.mean == 0.0


# --- LP builder parity and the solution check ------------------------------------

BURSTS = (0.0, 0.0, 0.0, 0.4, 0.4, 1.0, 1.0, 1.0, 1.7, 2.5, 2.5, 4.0)


def bursty_instance(mode, times=BURSTS):
    """Repeated arrival times, an arrival with no edge (budgeted: all its bids
    are 0), and one resource of each continuous family."""
    usages = (Exponential(0.7), Uniform(0.2, 1.3), WeibullIFR(0.8, 1.7),
              MixtureWithInf(0.6, Deterministic(0.5)), Deterministic(0.0))
    resources = tuple(model.Resource(i, 3 + i, 1.0 + 0.25 * i, u) for i, u in enumerate(usages))
    arrivals = []
    for t, time in enumerate(times):
        ids = [i for i in range(len(usages)) if (t + i) % 3 != 0] if t != 6 else []
        demand = (model.MatchingEdges(frozenset(ids)) if mode == model.MATCHING
                  else model.BudgetedBids({i: 1 + (t + i) % 3 if i in ids else 0 for i in range(len(usages))}))
        arrivals.append(model.Arrival(time, demand))
    return model.Instance(mode=mode, resources=resources, arrivals=tuple(arrivals))


def builder_cases():
    cases = [("example_a1", example_a1(20)), ("example_a1_dummies", example_a1(6, dummy_resources=True)),
             ("upper_triangular", upper_triangular(6, 5)),
             ("bursty_matching", bursty_instance(model.MATCHING)),
             ("bursty_budgeted", bursty_instance(model.BUDGETED)),
             ("integer_times", bursty_instance(model.MATCHING, times=(0, 0, 1, 1, 1, 2, 4, 4, 5, 7, 7, 9)))]
    for mode, bid in ((model.MATCHING, 1), (model.BUDGETED, 3)):
        for mix in (("exponential", "uniform", "weibull", "deterministic", "two_point_inf"),
                    ("zero_or_inf", "non_reusable", "two_point_inf")):
            battery = random_battery(BatteryParams(n_instances=2, n_resources=5, n_arrivals=60,
                                                   capacity_range=(2, 6), horizon=12.0, dist_mix=mix,
                                                   mode=mode, max_bid=bid), seed=len(mix))
            cases += [(f"{mode}_{mix[0]}_{k}", inst) for k, inst in enumerate(battery)]
    for mode, bid in ((model.MATCHING, 1), (model.BUDGETED, 3)):
        battery = random_battery(BatteryParams(n_instances=1, n_resources=5, n_arrivals=60, capacity_range=(2, 6),
                                               horizon=12.0, dist_mix=("mixture_inf",), mode=mode, max_bid=bid),
                                 seed=13)
        cases.append((f"{mode}_mixture_inf", battery[0]))
    return [pytest.param(inst, id=name) for name, inst in cases]


def offline_bounds_lps():
    """The three LPs of perfbench's offline_bounds workload."""
    budgeted = BatteryParams(n_instances=1, n_resources=8, n_arrivals=400, capacity_range=(20, 80),
                             dist_mix=("exponential", "uniform", "weibull", "deterministic", "two_point_inf"),
                             edge_prob=0.6, mode=model.BUDGETED, max_bid=3)
    return [pytest.param(example_a1(300), id="example_a1_n300"),
            pytest.param(upper_triangular(10, 100), id="upper_triangular_10x100"),
            pytest.param(random_battery(budgeted, seed=32)[0], id="budgeted_lp")]


@pytest.mark.parametrize("inst", builder_cases())
def test_build_lp_matches_reference(inst):
    got, want = build_lp(inst), reference_build_lp(inst)
    assert got.edges == want.edges
    assert got.rows.shape == want.rows.shape
    assert got.rows.tobytes() == want.rows.tobytes()
    assert got.rhs.tobytes() == want.rhs.tobytes()
    assert got.obj.tobytes() == want.obj.tobytes()
    assert repr(got.row_kinds) == repr(want.row_kinds)


@pytest.mark.parametrize("inst", builder_cases() + offline_bounds_lps())
def test_coordinate_solve_matches_reference_simplex(inst):
    lp = build_lp(inst)
    got = simplex.solve(lp.obj, lp.A, lp.rhs)
    want = reference_simplex(lp.obj, lp.rows, lp.rhs)
    assert (got.status, got.pivots) == (want.status, want.pivots)
    assert got.objective.hex() == want.objective.hex()
    assert got.x.tobytes() == want.x.tobytes()
    assert got.y.tobytes() == want.y.tobytes()
    sol = solve_lp(lp)
    assert (sol.status, sol.pivots, sol.objective.hex()) == (want.status, want.pivots, want.objective.hex())
    assert np.array(list(sol.y.values())).tobytes() == want.x.tobytes()


@pytest.mark.parametrize("inst", [pytest.param(example_a1(300), id="example_a1_n300"),
                                  pytest.param(upper_triangular(10, 100), id="upper_triangular_10x100")])
def test_lp_holds_no_dense_copy_of_the_matrix(inst):
    """build_lp stays under a quarter of a dense m x n A, and the solve under
    its tableau plus the coordinates plus 10%: a dense copy of A would add
    8mn bytes (21.6 MB and 46 MB here). A first build keeps out what is made
    only once: lazy imports and the instance's cached bid tables."""
    build_lp(inst)
    tracemalloc.start()
    try:
        lp = build_lp(inst)
        build_peak = tracemalloc.get_traced_memory()[1]
        solve_lp(lp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, n = lp.A.shape
    coordinates = lp.A.row.nbytes + lp.A.col.nbytes + lp.A.val.nbytes
    assert build_peak < 8 * m * n / 4
    assert peak < 1.1 * 8 * (m + 1) * (n + m + 1) + coordinates


def test_rows_is_a_fresh_dense_matrix_on_each_access():
    lp = build_lp(example_a1(3))
    first = lp.rows
    first[:] = 7.0
    assert lp.rows is not first and lp.rows.tobytes() == reference_build_lp(example_a1(3)).rows.tobytes()
    with pytest.raises(AttributeError):
        lp.rows = first


def test_lp_without_an_edge_is_zero():
    inst = model.Instance(mode=model.MATCHING, resources=(model.Resource(0, 1, 1.0, NonReusable()),),
                          arrivals=(model.Arrival(0.0, model.MatchingEdges(frozenset())),))
    lp = build_lp(inst)
    assert lp.A.shape == (0, 0) and lp.rows.shape == (0, 0)
    sol = solve_lp(lp)
    assert (sol.status, sol.objective, sol.y, sol.pivots) == (OPTIMAL, 0.0, {}, 0)
    assert lp_value(inst) == 0.0


def test_bursty_instance_has_what_it_claims():
    inst = bursty_instance(model.BUDGETED)
    assert model.validate(inst) == []
    lp = build_lp(inst)
    assert ("demand", 6) not in lp.row_kinds
    assert {kind[2] for kind in lp.row_kinds if kind[0] == "cap"} >= {2, 4, 7}   # ends of the bursts
    assert lp_value(inst) == pytest.approx(scipy_lp_value(inst), abs=1e-9)


@pytest.mark.parametrize("tamper, check", [
    (lambda r: dataclasses.replace(r, x=r.x * 1.01), "primal residual"),
    (lambda r: dataclasses.replace(r, x=np.where(r.x > 0.0, r.x, -1e-6)), "primal residual"),
    (lambda r: dataclasses.replace(r, y=r.y - 1e-6), "dual feasibility"),
    (lambda r: dataclasses.replace(r, y=np.where(r.y > 0.0, r.y * 0.5, 0.0)), "dual feasibility"),
    (lambda r: dataclasses.replace(r, y=r.y + 1e-6), "duality gap"),
])
def test_lp_solution_check_names_the_failed_check(tamper, check):
    lp = build_lp(example_a1(4))
    res = simplex.solve(lp.obj, lp.A, lp.rhs)
    benchmarks.check_lp_solution(lp, res)
    with pytest.raises(RuntimeError, match=check):
        benchmarks.check_lp_solution(lp, tamper(res))
    assert dict(simplex.check(lp.obj, lp.A, lp.rhs, tamper(res)))[check] > simplex.tolerance(res)


GAP_BITS = """
import numpy as np
from reuse_alloc import benchmarks, generators, simplex
lp = benchmarks.build_lp(generators.upper_triangular(10, 200))
res = simplex.solve(lp.obj, lp.A, lp.rhs)
print(dict(benchmarks.check_lp_solution(lp, res))["duality gap"].hex())
# max obj.x s.t. a_e x_e <= r_e: x = r / a, and y = obj / a, a little raised.
rng = np.random.default_rng(2)
a, r, obj = rng.uniform(0.5, 2.0, (3, 12_000))
lp = benchmarks.LpModel(None, [], obj, simplex.Coo(np.arange(12_000), np.arange(12_000), a, (12_000, 12_000)), r, [])
res = simplex.SimplexResult(simplex.OPTIMAL, float(obj @ (r / a)), r / a, 0, obj / a + rng.uniform(0, 1e-10, 12_000))
print(dict(benchmarks.check_lp_solution(lp, res))["duality gap"].hex())
"""


def test_lp_check_bits_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot of more than 10,000 terms across its threads.
    # upper_triangular 10x200's full LP has 11,000 columns (its sums are
    # exact, so one BLAS dot gave the same gap too); on the 12,000-column
    # diagonal LP, one BLAS dot per side gave a gap of 0x1.93a1p-21 under
    # one thread and 0x1.93a18p-21 under two (2-core x86-64, OpenBLAS).
    src = str(Path(benchmarks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    gaps = {subprocess.run([sys.executable, "-c", GAP_BITS], env={**env, "OPENBLAS_NUM_THREADS": str(n)},
                           capture_output=True, text=True, check=True).stdout for n in (1, 2)}
    assert len(gaps) == 1


def test_solve_lp_checks_every_optimum(monkeypatch):
    lp = build_lp(example_a1(3))
    real = simplex.solve

    def negated_duals(c, A, b):
        res = real(c, A, b)
        return dataclasses.replace(res, y=-res.y)

    monkeypatch.setattr(simplex, "solve", negated_duals)
    with pytest.raises(RuntimeError, match="dual feasibility"):
        solve_lp(lp)


# --- the value path: identical-arrival classes and capacity rows on demand ----------

@pytest.mark.parametrize("inst", builder_cases() + offline_bounds_lps())
def test_lp_value_maps_back_to_a_full_optimum(inst):
    """solve_lp_value's x and y, mapped back, pass the check on the full LP,
    and its value is the full solve's."""
    lp = build_lp(inst)
    res = benchmarks.solve_lp_value(inst)
    assert res.status == OPTIMAL
    assert (res.x.size, res.y.size) == (lp.A.shape[1], lp.A.shape[0])
    benchmarks.check_lp_solution(lp, res)
    full = solve_lp(lp).objective
    assert res.objective == pytest.approx(full, rel=1e-9, abs=1e-9)


def _load_workloads(monkeypatch):
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)     # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_lp_value_keeps_the_benchmark_lp_texts(monkeypatch):
    """The LP values that perfbench's offline_bounds digests hash (the `lp`
    and `compare` CSVs print 12 significant digits), on the instances the
    workload makes, equal the full solve's text."""
    instances = _load_workloads(monkeypatch).make_instances(reuse_alloc, "offline_bounds", 1)
    for key, text in (("example_a1_n300", "899.75"), ("upper_triangular_10x100", "1000"),
                      ("budgeted_lp", "1162.19745878")):
        inst = instances[key]
        assert format(lp_value(inst), ".12g") == text, key
        assert format(solve_lp(build_lp(inst)).objective, ".12g") == text, key


def test_lp_value_at_example_a1_1000_stays_small():
    """3n - 1/4 at n = 1000 under 150 MB of traced allocations; the full LP's
    dense tableau alone would take 528 MB."""
    inst = example_a1(1000)
    tracemalloc.start()
    try:
        value = lp_value(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(3 * 1000 - 0.25, abs=1e-6)
    assert peak < 150e6


def test_lp_value_prices_each_pair_once(monkeypatch):
    """Across all rounds and the check, no (resource, row, edge) coefficient
    is priced twice, and far fewer are priced than the full LP holds."""
    inst = offline_bounds_lps()[2].values[0]
    real = benchmarks._coefficients
    priced = []

    def spy(res, times, row_t, edge_t, bids):
        priced.extend(zip([res.id] * row_t.size, row_t.tolist(), edge_t.tolist()))
        return real(res, times, row_t, edge_t, bids)

    monkeypatch.setattr(benchmarks, "_coefficients", spy)
    lp_value(inst)
    assert len(set(priced)) == len(priced) < build_lp(inst).A.val.size / 2


ROUNDS = (([(302, 602), (303, 602), (304, 602), (305, 602)], [302, 1, 1, 1]), ([(10, 55)], [10]),
          ([(400, 1957), (401, 1957), (403, 1957), (407, 1957), (415, 1957), (431, 1957), (438, 1957),
            (443, 1957)], [400, 139, 4, 4, 4, 3, 2, 1]))


@pytest.mark.parametrize("inst, shapes, pivots", [pytest.param(p.values[0], shapes, pivots, id=p.id)
                                                  for p, (shapes, pivots) in zip(offline_bounds_lps(), ROUNDS)])
def test_lp_value_rounds_keep_their_shapes(monkeypatch, inst, shapes, pivots):
    """Each value-path round's LP, as the shared assembler lays out the rows
    it adds: the rounds, the m x n of the LP so far and the pivots of each
    round are pinned, no (row, column) is listed twice, and every added row
    has an entry and a right-hand side. An assembler that drops or repeats a
    row changes a shape; a round that starts again from the all-slack basis
    changes a pivot count."""
    real = simplex.solve
    seen = []

    def spy(c, A, b, tableau):
        assert len(set(zip(A.row.tolist(), A.col.tolist()))) == A.row.size
        assert np.array_equal(np.unique(A.row), np.arange(A.shape[0])) and len(b) == A.shape[0]
        res = real(c, A, b, tableau)
        seen.append(((res.y.size, A.shape[1]), res.pivots))
        return res

    monkeypatch.setattr(simplex, "solve", spy)
    assert benchmarks.solve_lp_value(inst).pivots == sum(pivots)
    assert seen == list(zip(shapes, pivots))


def _battery_lp(kind, mode):
    params = BatteryParams(n_instances=1, n_resources=4, n_arrivals=150, capacity_range=(2, 20), dist_mix=(kind,),
                           mode=mode)
    return pytest.param(random_battery(params, 1)[0], id=f"{kind}-{mode}")


@pytest.mark.parametrize("inst", [p.values[0] for p in offline_bounds_lps()]
                         + [_battery_lp(kind, mode) for kind in ("two_point_inf", "mixture_inf")
                            for mode in (model.MATCHING, model.BUDGETED)])
def test_lp_value_adds_only_rows_violated_at_the_last_optimum(monkeypatch, inst):
    """Each round after the first adds at most 1, 2, 4, ... capacity rows,
    each one with a load at the last round's optimum above its right-hand
    side: a row that no round's optimum violates is never written."""
    real = simplex.solve
    calls = []

    def spy(c, A, b, tableau):
        calls.append((A, b, real(c, A, b, tableau)))
        return calls[-1][2]

    monkeypatch.setattr(simplex, "solve", spy)
    assert benchmarks.solve_lp_value(inst).status == OPTIMAL
    for r, ((A, b, _), (_, _, last)) in enumerate(zip(calls[1:], calls), 1):
        load = np.bincount(A.row, weights=A.val * last.x[A.col], minlength=b.size)
        assert 1 <= b.size <= 2 ** (r - 1) and (load > b).all(), r


def test_lp_value_checks_its_optimum(monkeypatch):
    real = simplex.solve

    def negated_duals(c, A, b, tableau):
        res = real(c, A, b, tableau)
        return dataclasses.replace(res, y=-res.y)

    monkeypatch.setattr(simplex, "solve", negated_duals)
    with pytest.raises(RuntimeError, match="dual feasibility"):
        lp_value(example_a1(3))


@pytest.mark.parametrize("mode, seed, k, full", [(model.BUDGETED, 7, 0, 71.8954408096),
                                                 (model.BUDGETED, 3, 1, 68.8281345915),
                                                 (model.MATCHING, 1, 1, 132.60249369)])
def test_lp_value_of_mixture_inf_battery_instances(mode, seed, k, full):
    """MixtureWithInf batteries whose value path failed its check. The first
    (capacities 6, 18, 3 and 20): its second round, solved from the all-slack
    basis with every entry above FEAS_TOL a candidate pivot, pivoted on
    entries near 1e-9 and came out 3.61 off its own demand row. The others:
    warm dual steps that stalled into a blow-up or lost 2e-7 to rounding."""
    params = BatteryParams(n_instances=2, n_resources=4, n_arrivals=150, capacity_range=(2, 20),
                           dist_mix=("mixture_inf",), mode=mode, max_bid=3)
    inst = random_battery(params, seed)[k]
    assert solve_lp(build_lp(inst)).objective == pytest.approx(full, abs=1e-9)
    assert lp_value(inst) == pytest.approx(full, rel=1e-9)


VALUE_BITS = """
import hashlib
from reuse_alloc import benchmarks, model
from reuse_alloc.generators import BatteryParams, random_battery
params = BatteryParams(n_instances=1, n_resources=8, n_arrivals=400, capacity_range=(20, 80),
                       dist_mix=("exponential", "uniform", "weibull", "deterministic", "two_point_inf"),
                       edge_prob=0.6, mode=model.BUDGETED, max_bid=3)
res = benchmarks.solve_lp_value(random_battery(params, seed=32)[0])
print(res.objective.hex(), res.pivots, hashlib.sha256(res.x.tobytes() + res.y.tobytes()).hexdigest())
"""


def test_lp_value_bits_do_not_depend_on_blas_threads():
    # The warm rounds' elimination and dual pricing use no BLAS call, so
    # offline_bounds' budgeted LP gives the same bits under 1 and 2 threads.
    src = str(Path(benchmarks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = {subprocess.run([sys.executable, "-c", VALUE_BITS], env={**env, "OPENBLAS_NUM_THREADS": str(n)},
                          capture_output=True, text=True, check=True).stdout for n in (1, 2)}
    assert len(out) == 1


FAMILIES = (NonReusable(), Deterministic(0.7), Exponential(1.0), Exponential(0.3), TwoPointInf(1.0, 0.5),
            Uniform(0.2, 1.3), ZeroOrInf(0.5), MixtureWithInf(0.6, Exponential(2.0)),
            MixtureWithInf(0.5, Deterministic(0.7)))


@st.composite
def repeated_instances(draw, mode, families=FAMILIES, max_groups=6, max_copies=4, max_capacity=3):
    """Groups of identical arrivals (time and bids), on few distinct times,
    so that classes form; small capacities, so that capacity rows bind."""
    n_res = draw(st.integers(1, 3))
    resources = tuple(model.Resource(i, draw(st.integers(1, max_capacity)), draw(st.sampled_from((0.5, 1.0, 2.0))),
                                     draw(st.sampled_from(families))) for i in range(n_res))
    bids = st.dictionaries(st.integers(0, n_res - 1), st.integers(0 if mode == model.BUDGETED else 1, 3),
                           max_size=n_res)
    groups = draw(st.lists(st.tuples(st.sampled_from((0.0, 0.5, 1.0, 2.5)), bids, st.integers(1, max_copies)),
                           min_size=1, max_size=max_groups))
    arrivals = []
    for time, bid, copies in sorted(groups, key=lambda g: g[0]):
        demand = (model.MatchingEdges(frozenset(bid)) if mode == model.MATCHING
                  else model.BudgetedBids({i: bid.get(i, 0) for i in range(n_res)}))
        arrivals += [model.Arrival(time, demand)] * copies
    return model.Instance(mode=mode, resources=resources, arrivals=tuple(arrivals))


@pytest.mark.parametrize("mode", [model.MATCHING, model.BUDGETED])
@settings(max_examples=60)
@given(data=st.data())
def test_lp_value_equals_the_full_lp_property(mode, data):
    """Classes plus rows on demand give the full LP's optimum: the dense
    reference simplex's and HiGHS' within 1e-9 relative, with a mapped-back
    x and y that pass the full LP's check."""
    inst = data.draw(repeated_instances(mode))
    lp = build_lp(inst)
    res = benchmarks.solve_lp_value(inst)
    benchmarks.check_lp_solution(lp, res)
    if not lp.obj.size:     # no edge: the reference simplex needs a column
        assert res.objective == 0.0
        return
    want = reference_simplex(lp.obj, lp.rows, lp.rhs).objective
    assert res.objective == pytest.approx(want, rel=1e-9, abs=1e-9)
    assert res.objective == pytest.approx(scipy_lp_value(inst), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("mode", [model.MATCHING, model.BUDGETED])
@settings(max_examples=25)
@given(data=st.data())
def test_brute_force_at_most_lp_value_property(mode, data):
    finite = tuple(f for f in FAMILIES if isinstance(f, (Deterministic, TwoPointInf, ZeroOrInf, NonReusable)))
    inst = data.draw(repeated_instances(mode, finite, max_groups=3, max_copies=2, max_capacity=2))
    assert brute_force_clairvoyant(inst) <= lp_value(inst) + 1e-9


# --- brute-force clairvoyant -----------------------------------------------------

def test_brute_force_nonreusable_unit():
    assert brute_force_clairvoyant(single(NonReusable())) == pytest.approx(1.0)


def test_brute_force_zero_or_inf_geometric():
    # Hand expectimax, always matching: 1 + 1/2 + 1/4.
    inst = single(ZeroOrInf(0.5), times=(0.0, 1.0, 2.0))
    assert brute_force_clairvoyant(inst) == pytest.approx(1.75)


def test_brute_force_two_point_prefers_waiting_when_useful():
    # One unit, d = 1 returns w.p. 0.5; arrivals at 0, 0.5, 1.0. Matching the
    # second arrival is never possible after matching the first; value is
    # 1 + 0.5 (third arrival when the unit comes back).
    inst = single(TwoPointInf(1.0, 0.5), times=(0.0, 0.5, 1.0))
    assert brute_force_clairvoyant(inst) == pytest.approx(1.5)


def test_brute_force_guards():
    with pytest.raises(model.TooLarge):
        brute_force_clairvoyant(single(NonReusable(), capacity=3, times=tuple(range(9))))
    big = model.Instance(
        mode=model.MATCHING,
        resources=(model.Resource(0, 7, 1.0, NonReusable()),),
        arrivals=(model.Arrival(0.0, model.MatchingEdges(frozenset({0}))),),
    )
    with pytest.raises(model.TooLarge):
        brute_force_clairvoyant(big)
    cont = single(Deterministic(1.0))
    ok = brute_force_clairvoyant(cont)  # deterministic is finite-support
    assert ok == pytest.approx(2.0)


def test_brute_force_at_most_lp():
    battery = random_battery(BatteryParams(n_instances=5, n_resources=2, n_arrivals=5,
                                           capacity_range=(1, 2), horizon=4.0,
                                           dist_mix=("two_point_inf", "deterministic", "zero_or_inf")),
                             seed=33)
    for inst in battery:
        assert brute_force_clairvoyant(inst) <= lp_value(inst) + 1e-9


def test_policies_never_beat_brute_force():
    battery = random_battery(BatteryParams(n_instances=4, n_resources=2, n_arrivals=5,
                                           capacity_range=(1, 2), horizon=4.0,
                                           dist_mix=("two_point_inf", "zero_or_inf")),
                             seed=17)
    for inst in battery:
        v = brute_force_clairvoyant(inst)
        for mk in (policies.GreedyPolicy, policies.RbaPolicy):
            s = engine.run_trials(inst, mk(), 1500, 3)
            assert s.mean <= v + 3.0 * s.se + 1e-9


def test_brute_force_assortment_mode():
    v = brute_force_clairvoyant(mnl_counterexample())
    # Upper bound: three arrivals, at most one unit each, two units total plus
    # one possible return of the reusable unit.
    assert 1.0 < v <= 3.0


# --- certificate ------------------------------------------------------------------

def cert_instance():
    return upper_triangular(4, 12)


def test_certificate_alpha_zero_always_passes():
    inst = cert_instance()
    sol = solve_lp(build_lp(inst))
    rep = certificate_check(inst, "galg", LpRoundingPolicy(inst, sol), 80, 0.0, 50.0, master_seed=4)
    assert rep.passed


def test_certificate_galg_candidate_passes_with_theory_constants():
    inst = cert_instance()
    c_min = 12
    alpha = 0.99 * (1 - 1 / math.e) * math.exp(-1.0 / c_min)
    beta = 1.01 * math.exp(1.0 / c_min)
    sol = solve_lp(build_lp(inst))
    rep = certificate_check(inst, "galg", LpRoundingPolicy(inst, sol), 400, alpha, beta, master_seed=4)
    assert rep.cond1_passed
    assert rep.cond3_passed


def test_certificate_swapped_candidate_fails():
    # Needs enough scale that the rounding deflation 1/(1+2 delta) does not
    # mask the inverted candidate; fails on the most-flexible resource.
    inst = upper_triangular(8, 60)
    c_min = 60
    alpha = 0.99 * (1 - 1 / math.e) * math.exp(-1.0 / c_min)
    beta = 1.01 * math.exp(1.0 / c_min)
    sol = solve_lp(build_lp(inst))
    rep = certificate_check(inst, "galg_swapped", LpRoundingPolicy(inst, sol), 300, alpha, beta,
                            master_seed=4)
    assert not rep.cond3_passed


def test_certificate_rba_candidate_runs():
    inst = cert_instance()
    sol = solve_lp(build_lp(inst))
    rep = certificate_check(inst, "rba", LpRoundingPolicy(inst, sol), 150, 0.3, 1.05, master_seed=6)
    assert rep.cond1_passed  # beta = 1 holds by construction for this candidate
    assert isinstance(rep.rows[0].lhs, float)


def certificate_parity_instances():
    from test_acceptance import certificate_battery

    reusable = random_battery(BatteryParams(n_instances=1, n_resources=4, n_arrivals=150, capacity_range=(3, 80),
                                            horizon=15.0), seed=1112)
    return certificate_battery() + reusable


@pytest.mark.parametrize("idx", range(5))
def test_certificate_batched_equals_scalar(idx):
    """The certificate read from the lockstep engine's per-(trial, arrival)
    arrays equals the one read from scalar records, report field by field."""
    inst = certificate_parity_instances()[idx]
    c_min = min(r.capacity for r in inst.resources)
    alpha = 0.99 * (1.0 - 1.0 / math.e) * math.exp(-1.0 / c_min)
    beta = 1.01 * math.exp(1.0 / c_min)
    opt = LpRoundingPolicy(inst, solve_lp(build_lp(inst)))
    trials = 35
    for alg in ("galg", "galg_swapped", "rba"):
        want = repr(reference_certificate_check(inst, alg, opt, trials, alpha, beta, master_seed=1100 + idx))
        assert repr(certificate_check(inst, alg, opt, trials, alpha, beta, master_seed=1100 + idx)) == want, alg


@pytest.mark.parametrize("mode, names", [(model.MATCHING, ("greedy", "balance", "rba", "salg")),
                                         (model.BUDGETED, ("rba_budgeted",))])
def test_the_lp_bounds_every_simulated_policy(mode, names):
    """The fluid LP bounds every online policy's expected reward: on a small
    drawn battery, lp_value >= each policy's mean - 3 SE over 64 trials."""
    params = BatteryParams(n_instances=4, n_resources=3, n_arrivals=40, capacity_range=(1, 6),
                           mode=mode, max_bid=3, horizon=10.0)
    for inst in random_battery(params, seed=17):
        lp = lp_value(inst)
        for name in names:
            s = engine.run_trials(inst, policies.make_policy(name), 64, 3)
            assert lp >= s.mean - 3.0 * s.se, name


COMMAND_DIGESTS = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import reuse_alloc
from reuse_alloc import cli
from perfbench import checks, workloads
with tempfile.TemporaryDirectory() as work:
    instances = workloads.make_instances(reuse_alloc, sys.argv[2], checks.DEFAULT_SEED)
    files = workloads.write_and_validate(reuse_alloc, instances, work)
    wl = workloads.build(reuse_alloc, sys.argv[2], checks.DEFAULT_SEED, work, instances, files)
    out = {}
    for cmd in wl.commands:
        if cmd.kind != "mc":
            assert cli.main(cmd.argv) == 0, cmd.id
            out.update({f"{cmd.id}:{role}": checks.digest(text) for role, text in checks.output_texts(cmd, None).items()})
print(json.dumps(out, sort_keys=True))
"""


def assert_command_digests_under_1_and_2_blas_threads(workload):
    """The workload's CLI outputs, made in one process under 1 OpenBLAS
    thread and in one under 2, hash to the digests that
    perfbench/digests.json records for them. The instances and commands
    come from perfbench's own workload code."""
    root = Path(benchmarks.__file__).resolve().parents[2]
    src = str(Path(benchmarks.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    runs = [json.loads(subprocess.run([sys.executable, "-c", COMMAND_DIGESTS, str(root), workload],
                                      env={**env, "OPENBLAS_NUM_THREADS": str(n)}, capture_output=True,
                                      text=True, check=True).stdout) for n in (1, 2)]
    recorded = json.loads((root / "perfbench" / "digests.json").read_text())[workload]
    assert runs[0] == runs[1] == {key: d for key, d in recorded.items() if not key.startswith("mc.")}


def test_lp_command_bytes_do_not_depend_on_blas_threads():
    """offline_bounds' lp, compare, certify and randproc CSVs."""
    assert_command_digests_under_1_and_2_blas_threads("offline_bounds")


@pytest.mark.parametrize("workload", ["burst_spread", "mixed_modes"])
def test_run_command_bytes_do_not_depend_on_blas_threads(workload):
    """burst_spread's and mixed_modes' run CSVs, the trace CSV included."""
    assert_command_digests_under_1_and_2_blas_threads(workload)
