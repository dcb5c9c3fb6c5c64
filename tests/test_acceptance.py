"""Acceptance suite: numbered end-to-end checks, one pass/fail line each.

Two checks pin finite-size values that are derived independently of the
program:

- 4b: the burst/spread instance (example_a1) at n = 50, 100 and 300 has LP
  optimum exactly 3n - 1/4. Resource 0 serves the 2n burst with n units,
  half of which never return; with the earlier spread arrivals also on
  resource 0, its capacity row at the last spread arrival caps that
  arrival's share there at 1/2. The other half, served on resource 1, is
  still out with probability 1 - F(2) = 1/2 at the final burst. The total
  is n + n + (n - 1/4); 3n is only the limit of LP/n. scipy's HiGHS gives
  the same value.
- 6a: the 10-resource upper-triangular family at capacity c has LP = 10c
  (c = 100, 400, 1600 and 6400), and at capacity 100 a fluid/LP ratio
  within 0.005 of continuous water-filling's closed form w(10) = 0.66175
  (helpers.water_filling_ratio, from harmonic numbers). The guide's 0.664
  differs from w(10) by discretisation of order 1/capacity, and w(n)
  approaches the paper's 1 - 1/e only as the resource count grows
  (checked by 6b).
"""

import math
import random

import numpy as np

from helpers import (check_monotonicity, check_zero_point_augmentation, lp_rounding, lp_value,
                     stochastic_rewards_greedy, verify_probability_match, water_filling_ratio)

from reuse_alloc import model
from reuse_alloc.assortment import MNL, AstalgPolicy, _probability_match_generic, probability_match, run_astgalg
from reuse_alloc.benchmarks import certificate_check, brute_force_clairvoyant
from reuse_alloc.distributions import (Deterministic, Exponential, TwoPointInf, Uniform)
from reuse_alloc.engine import run_trials
from reuse_alloc.generators import (BatteryParams, example_a1, random_battery,
                                    stochastic_rewards_to_reuse, upper_triangular)
from reuse_alloc.policies import (BalancePolicy, GreedyPolicy, RbaPolicy, SalgPolicy, run_galg,
                                  salg_delta)
from reuse_alloc.randproc import ProcessSpec, fluid_process, simulate_process


def report(num, ok, detail):
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# -- 1. probability-match exactness ------------------------------------------------

def test_acceptance_01_probability_match_exactness():
    rnd = random.Random(1001)
    worst = 0.0
    for _ in range(1000):
        m = rnd.randint(1, 10)
        items = list(range(m))
        weights = {i: math.exp(rnd.uniform(math.log(0.01), math.log(100.0))) for i in items}
        cm = MNL(v0=math.exp(rnd.uniform(-2.0, 2.0)), weights=weights)
        targets = {i: cm.prob(frozenset(items), i) * rnd.random() for i in items}
        gen = _probability_match_generic(items, cm, targets)
        fast = probability_match(items, cm, targets)
        verify_probability_match(gen, cm, items, targets, tol=1e-9)   # (i)-(iii)
        verify_probability_match(fast, cm, items, targets, tol=1e-9)
        assert len(gen) == len(fast)
        for (A1, u1), (A2, u2) in zip(gen, fast):
            assert A1 == A2
            worst = max(worst, abs(u1 - u2))
    ok = worst <= 1e-9
    assert report(1, ok, f"1000 random inputs verified; max fast-vs-generic weight gap {worst:.2e}")


# -- 2. random/fluid equivalence ----------------------------------------------------

def test_acceptance_02_random_fluid_equivalence():
    rnd = random.Random(2002)
    families = [lambda: TwoPointInf(d=rnd.uniform(0.3, 2.0), p=rnd.uniform(0.2, 0.9)),
                lambda: Exponential(rate=rnd.uniform(0.3, 2.5)),
                lambda: Deterministic(d=rnd.uniform(0.3, 2.0)),
                lambda: Uniform(lo=rnd.uniform(0.0, 0.5), hi=rnd.uniform(1.0, 2.5))]
    T, trials = 12, 200_000
    worst_eta = worst_reward = 0.0
    for k in range(20):
        F = families[k % 4]()
        sigma = tuple(np.cumsum([rnd.uniform(0.1, 0.9) for _ in range(T)]))
        p = tuple(rnd.uniform(0.1, 1.0) for _ in range(T))
        spec = ProcessSpec(F, sigma, p)
        eta, reward = fluid_process(spec)
        s = simulate_process(spec, seed=7000 + k, trials=trials)
        for t in range(T):
            se = math.sqrt(max(eta[t] * (1.0 - eta[t]), 0.0) / trials)
            gap = abs(s.availability[t] - eta[t])
            assert gap <= 4.0 * se + 1e-12
            worst_eta = max(worst_eta, gap - 4.0 * se)
        gap_r = abs(s.mean - reward)
        assert gap_r <= 4.0 * s.se + 1e-12
        worst_reward = max(worst_reward, gap_r / max(s.se, 1e-12))
    assert report(2, True, f"20 specs x {trials} trials; max reward z-score {worst_reward:.2f}")


# -- 3. monotonicity and zero-point lemmas --------------------------------------------

def test_acceptance_03_monotonicity_and_zero_points():
    rnd = random.Random(3003)
    fams = [lambda: Exponential(rnd.uniform(0.2, 3.0)),
            lambda: TwoPointInf(rnd.uniform(0.1, 2.0), rnd.uniform(0.1, 1.0)),
            lambda: Uniform(0.0, rnd.uniform(0.5, 2.0)),
            lambda: Deterministic(rnd.uniform(0.1, 2.0))]
    for i in range(100):
        T = rnd.randint(2, 25)
        sigma = tuple(np.cumsum([rnd.uniform(0.05, 0.8) for _ in range(T)]))
        p_hi = [rnd.random() for _ in range(T)]
        p_lo = [rnd.uniform(0.0, 1.0) * q for q in p_hi]
        assert check_monotonicity(fams[i % 4](), sigma, p_lo, p_hi, tol=1e-12)
    for i in range(100):
        lead = rnd.randint(2, 6)
        sigma = list(np.cumsum([rnd.uniform(0.05, 0.3) for _ in range(lead)]))
        sigma += [sigma[-1] + 5.0 + j for j in range(rnd.randint(1, 8))]
        p = [1.0] * lead + [rnd.random() for _ in range(len(sigma) - lead)]
        spec = ProcessSpec(Deterministic(4.0), tuple(sigma), tuple(p))
        assert check_zero_point_augmentation(spec, tol=1e-10)
    assert report(3, True, "100 monotonicity pairs at 1e-12, 100 zero-point specs at 1e-10")


# -- 4. burst/spread reproduction -------------------------------------------------------

def test_acceptance_04a_simulated_policy_separation():
    n, trials, seed = 1000, 200, 42
    inst = example_a1(n)
    bal = run_trials(inst, BalancePolicy(), trials, seed)
    rba = run_trials(inst, RbaPolicy(), trials, seed)
    ok = (2.40 <= bal.mean / n <= 2.60
          and rba.mean / n >= 2.60
          and bal.ci95[1] < rba.ci95[0])
    assert report("4a", ok,
                  f"balance/n={bal.mean / n:.4f}, rba/n={rba.mean / n:.4f}, "
                  f"CIs [{bal.ci95[0]:.1f},{bal.ci95[1]:.1f}] vs [{rba.ci95[0]:.1f},{rba.ci95[1]:.1f}]")


def test_acceptance_04b_lp_value_target():
    """At n = 50, and at the capacity ladder's rungs n = 100 and 300."""
    for n in (50, 100, 300):
        value = lp_value(example_a1(n))
        target = 3.0 * n - 0.25
        ok = abs(value - target) <= 1e-6
        report("4b", ok, f"n={n}: LP={value:.9f} vs 3n-1/4={target}: n from the burst, n from the final "
                         f"burst, n-1/4 from the spread (the last spread arrival gets 1/2 on resource 0)")
        assert ok, f"burst/spread LP optimum at n={n} should be 3n - 1/4 = {target}, got {value}"


# -- 5. salg vs galg ---------------------------------------------------------------------

def salg_battery():
    return random_battery(BatteryParams(
        n_instances=5, n_resources=4, n_arrivals=250, capacity_range=(100, 140),
        dist_mix=("two_point_inf", "exponential", "deterministic", "uniform"),
        horizon=60.0), seed=505)


def test_acceptance_05_salg_tracks_galg_per_resource():
    trials = 1000
    worst_margin = math.inf
    worst_over = -math.inf
    worst_freq = 0.0
    for idx, inst in enumerate(salg_battery()):
        guide = run_galg(inst)
        per_res = guide.per_resource_reward()
        pol = SalgPolicy()
        s = run_trials(inst, pol, trials, 1700 + idx)
        for r in inst.resources:
            bound = (1.0 - 1.0 / r.capacity) / (1.0 + salg_delta(r.capacity)) * per_res[r.id]
            slack = s.per_resource_mean[r.id] - (bound - 3.0 * s.per_resource_se[r.id])
            worst_margin = min(worst_margin, slack)
            assert slack >= 0.0
            # salg samples i w.p. x_ti / (1 + delta_i) and matches only when a
            # unit is free, so E[salg_i] <= galg_i / (1 + delta_i).
            over = s.per_resource_mean[r.id] - per_res[r.id] / (1.0 + salg_delta(r.capacity))
            worst_over = max(worst_over, over / s.per_resource_se[r.id] if over > 0.0 else 0.0)
            assert over <= 3.0 * s.per_resource_se[r.id]
        sampled = s.event_totals.get("salg_sampled", 0)
        lost = s.event_totals.get("salg_sampled_unavailable", 0)
        if sampled:
            freq = lost / sampled
            c_min = min(r.capacity for r in inst.resources)
            se = math.sqrt(freq * (1.0 - freq) / sampled)
            assert freq <= 1.0 / c_min + 3.0 * se
            worst_freq = max(worst_freq, freq)
    assert report(5, True, f"5 instances x {trials} trials; min per-resource slack "
                           f"{worst_margin:.3f}, at most {worst_over:.2f} SE above galg_i/(1+delta_i), "
                           f"max unavailable-sample freq {worst_freq:.4f}")


# -- 6. non-reusable tightness family ------------------------------------------------------

def test_acceptance_06a_ratio_bracket_target():
    """LP = n*c at c = 100 and at the capacity ladder's rungs c = 400, 1600
    and 6400; the guide's ratio at c = 100."""
    n, c = 10, 100
    for rung in (400, 1600, 6400):
        lp = lp_value(upper_triangular(n, rung))
        assert report("6a", abs(lp - n * rung) <= 1e-6, f"c={rung}: LP={lp:.6f} vs n*c={n * rung}"), (
            f"upper_triangular({n}, {rung}) should have LP = {n * rung}, got {lp}")
    inst = upper_triangular(n, c)
    lp = lp_value(inst)
    ratio = run_galg(inst).fluid_reward / lp
    w = water_filling_ratio(n)
    floor = 1.0 - 1.0 / math.e
    ok = abs(lp - n * c) <= 1e-6 and ratio >= floor and abs(ratio - w) <= 0.005
    report("6a", ok, f"LP={lp:.6f} vs n*c={n * c}; fluid/LP={ratio:.4f} vs water-filling "
                     f"w({n})={w:.4f} +- 0.005 and floor 1-1/e={floor:.4f}")
    assert ok, (f"upper_triangular({n}, {c}) should have LP = {n * c} and a fluid/LP ratio "
                f">= 1 - 1/e within 0.005 of w({n}) = {w:.5f}; got LP={lp}, ratio={ratio}")


def test_acceptance_06b_ratio_approaches_limit():
    r10 = run_galg(upper_triangular(10, 100)).fluid_reward / lp_value(upper_triangular(10, 100))
    r20 = run_galg(upper_triangular(20, 50)).fluid_reward / lp_value(upper_triangular(20, 50))
    target = 1.0 - 1.0 / math.e
    ok = abs(r20 - target) < abs(r10 - target)
    assert report("6b", ok, f"ratio moves {r10:.4f} -> {r20:.4f} toward {target:.4f}")


# -- 7. greedy half-guarantee ----------------------------------------------------------------

def test_acceptance_07_greedy_half_of_lp():
    battery = random_battery(BatteryParams(
        n_instances=20, n_resources=5, n_arrivals=150, capacity_range=(10, 60),
        dist_mix=("two_point_inf", "exponential", "deterministic", "uniform", "non_reusable"),
        horizon=40.0), seed=707)
    worst = math.inf
    for idx, inst in enumerate(battery):
        lp = lp_value(inst)
        s = run_trials(inst, GreedyPolicy(), 500, 7000 + idx)
        slack = s.mean - (0.5 * lp - 3.0 * s.se)
        worst = min(worst, slack / lp)
        assert slack >= 0.0
    assert report(7, True, f"20 instances x 500 trials; min normalized slack {worst:.3f}")


# -- 8. brute-force clairvoyant oracle ---------------------------------------------------------

def tiny_battery():
    return random_battery(BatteryParams(
        n_instances=50, n_resources=2, n_arrivals=6, capacity_range=(1, 2),
        dist_mix=("two_point_inf", "deterministic", "zero_or_inf", "non_reusable"),
        horizon=4.0), seed=808)


def test_acceptance_08_clairvoyant_brackets_policies():
    trials = 800
    for idx, inst in enumerate(tiny_battery()):
        v = brute_force_clairvoyant(inst)
        assert v <= lp_value(inst) + 1e-9
        means = {}
        for name, mk in (("greedy", GreedyPolicy), ("balance", BalancePolicy),
                         ("rba", RbaPolicy), ("salg", SalgPolicy)):
            s = run_trials(inst, mk(), trials, 8100 + idx)
            assert s.mean <= v + 3.0 * s.se + 1e-9
            means[name] = (s.mean, s.se)
        g_mean, g_se = means["greedy"]
        assert g_mean >= 0.5 * v - 3.0 * g_se
    assert report(8, True, f"50 tiny instances: clairvoyant <= LP, policies <= clairvoyant, "
                           f"greedy >= clairvoyant/2 at {trials} trials")


# -- 9. stochastic-rewards equivalence ----------------------------------------------------------

def sr_graphs():
    rnd = random.Random(909)
    graphs = []
    for _ in range(5):
        n_res, T = 3, 8
        res = tuple(model.Resource(i, rnd.randint(1, 2), 1.0, Deterministic(1.0)) for i in range(n_res))
        arrivals = []
        for t in range(T):
            edges = [i for i in range(n_res) if rnd.random() < 0.7] or [rnd.randrange(n_res)]
            arrivals.append(model.Arrival(float(t), model.MatchingEdges(frozenset(edges))))
        graphs.append(model.Instance(mode=model.MATCHING, resources=res, arrivals=tuple(arrivals)))
    return graphs


def test_acceptance_09_stochastic_rewards_coupling():
    trials = 100_000
    worst_z = 0.0
    for g_idx, graph in enumerate(sr_graphs()):
        for p in (0.2, 0.5, 1.0):
            conv = stochastic_rewards_to_reuse(graph, p)
            seed = 9000 + g_idx
            s = run_trials(conv, GreedyPolicy(), trials, seed)       # unit rewards: mean = matches
            succ, _ = stochastic_rewards_greedy(conv, p, trials, seed)
            se_s = succ.std(ddof=1) / math.sqrt(trials)
            se = math.sqrt((p * s.se) ** 2 + se_s ** 2)
            gap = abs(p * s.mean - succ.mean())
            assert gap <= 3.0 * se + 1e-12
            worst_z = max(worst_z, gap / max(se, 1e-12))
    assert report(9, True, f"5 graphs x p in {{0.2,0.5,1.0}} x {trials} trials; max z {worst_z:.2f}")


# -- 10. astalg vs astgalg -----------------------------------------------------------------------

def assortment_battery():
    rnd = random.Random(1010)
    out = []
    for _ in range(3):
        n_res, T, c = 3, 250, 200
        res = tuple(model.Resource(i, c, round(rnd.uniform(0.5, 2.0), 3),
                                   rnd.choice([TwoPointInf(1.0, 0.5), Exponential(0.8),
                                               Deterministic(1.5), Uniform(0.5, 2.0)]))
                    for i in range(n_res))
        cm = MNL(v0=round(rnd.uniform(0.3, 1.0), 3),
                 weights={i: round(rnd.uniform(0.5, 3.0), 3) for i in range(n_res)})
        arrivals = []
        time = 0.0
        for t in range(T):
            time += rnd.uniform(0.05, 0.4)
            bids = {i: rnd.randint(1, 2) for i in range(n_res) if rnd.random() < 0.8}
            if not bids:
                bids = {rnd.randrange(n_res): 2}
            if t == 0:
                bids[0] = 2  # pin gamma = c / max bid = 100
            arrivals.append(model.Arrival(round(time, 6), model.AssortmentRequest(0, bids)))
        out.append(model.Instance(mode=model.ASSORTMENT, resources=res,
                                  arrivals=tuple(arrivals), choice_models=(cm,)))
    return out


def test_acceptance_10a_astalg_tracks_astgalg():
    trials = 1000
    worst = math.inf
    for idx, inst in enumerate(assortment_battery()):
        gamma = model.gamma(inst)
        assert gamma == 100.0
        guide = run_astgalg(inst)
        per_res = guide.per_resource_reward()
        delta = math.sqrt(2.0 * math.log(gamma) / gamma)
        s = run_trials(inst, AstalgPolicy(), trials, 2500 + idx)
        for r in inst.resources:
            bound = (1.0 - 1.0 / gamma) / (1.0 + delta) * per_res[r.id]
            slack = s.per_resource_mean[r.id] - (bound - 3.0 * s.per_resource_se[r.id])
            worst = min(worst, slack)
            assert slack >= 0.0
    assert report("10a", True, f"3 instances x {trials} trials; min per-resource slack {worst:.3f}")


def test_acceptance_10b_matching_reduction_exact():
    rnd = random.Random(4242)
    res = (model.Resource(0, 50, 1.0, TwoPointInf(1.0, 0.5)),
           model.Resource(1, 60, 1.4, Exponential(0.6)))
    times = list(np.cumsum([rnd.uniform(0.05, 0.5) for _ in range(100)]))
    match_inst = model.Instance(
        mode=model.MATCHING, resources=res,
        arrivals=tuple(model.Arrival(t, model.MatchingEdges(frozenset({0, 1}))) for t in times))
    asst_inst = model.Instance(
        mode=model.ASSORTMENT, resources=res,
        arrivals=tuple(model.Arrival(t, model.AssortmentRequest(0, {0: 1, 1: 1})) for t in times),
        choice_models=(MNL(v0=0.0, weights={0: 1.0, 1: 1.0}),))
    g = run_galg(match_inst)
    ag = run_astgalg(asst_inst)
    worst = 0.0
    for t in range(len(times)):
        consumed = {}
        for rid, _, mass in ag.allocs[t]:
            consumed[rid] = consumed.get(rid, 0.0) + mass
        for rid in (0, 1):
            worst = max(worst, abs(consumed.get(rid, 0.0) - g.x[t].get(rid, 0.0)))
    ok = worst <= 1e-9
    assert report("10b", ok, f"assortment guide == matching guide, max gap {worst:.2e}")


# -- 11. certificate for the fluid guide ------------------------------------------------------------

def certificate_battery():
    battery = random_battery(BatteryParams(
        n_instances=3, n_resources=5, n_arrivals=200, capacity_range=(100, 150),
        dist_mix=("non_reusable",), horizon=40.0), seed=1111)
    battery.append(upper_triangular(10, 100))
    return battery


def test_acceptance_11_certificate_and_negative_control():
    trials = 500
    for idx, inst in enumerate(certificate_battery()):
        c_min = min(r.capacity for r in inst.resources)
        alpha = 0.99 * (1.0 - 1.0 / math.e) * math.exp(-1.0 / c_min)
        beta = 1.01 * math.exp(1.0 / c_min)
        opt = lp_rounding(inst)
        rep = certificate_check(inst, "galg", opt, trials, alpha, beta, master_seed=1100 + idx)
        assert rep.cond1_passed and rep.cond3_passed
    tri = upper_triangular(10, 100)
    c_min = 100
    alpha = 0.99 * (1.0 - 1.0 / math.e) * math.exp(-1.0 / c_min)
    beta = 1.01 * math.exp(1.0 / c_min)
    opt = lp_rounding(tri)
    neg = certificate_check(tri, "galg_swapped", opt, trials, alpha, beta, master_seed=1199)
    assert not neg.cond3_passed
    n_fail = sum(1 for r in neg.rows if not r.passed)
    assert report(11, True, f"4 instances pass at alpha={alpha:.4f}, beta={beta:.4f}; "
                            f"swapped candidate fails on {n_fail} resource(s)")
