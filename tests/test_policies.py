import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (ReferenceResourceFluid, keep_all_advance, one_resource_ledger, reference_astgalg,
                     reference_galg, reference_rba_budgeted_decide, use_reference_fluid)
from test_acceptance import assortment_battery
from reuse_alloc import engine, fluid, model, policies
from reuse_alloc.assortment import MNL, AstgalgGuide, run_astgalg
from reuse_alloc.distributions import (Deterministic, Exponential, MixtureWithInf, NonReusable,
                                       TwoPointInf, Uniform, ZeroOrInf)
from reuse_alloc.fluid import quantized_levels
from reuse_alloc.generators import BatteryParams, example_a1, random_battery
from reuse_alloc.policies import (BalancePolicy, GreedyPolicy, RbaBudgetedPolicy, RbaPolicy, SalgPolicy,
                                  make_policy, run_galg, salg_delta)


def matching_instance(rewards, capacities, usage=None, n_arrivals=1):
    usage = usage or [NonReusable()] * len(rewards)
    res = tuple(model.Resource(i, capacities[i], rewards[i], usage[i]) for i in range(len(rewards)))
    edges = frozenset(range(len(rewards)))
    arrivals = tuple(model.Arrival(float(t), model.MatchingEdges(edges)) for t in range(n_arrivals))
    return model.Instance(mode=model.MATCHING, resources=res, arrivals=arrivals)


def state_with_avail(inst, avail):
    state = {r.id: engine._ResourceLive(r, 0) for r in inst.resources}
    for rid, ranks in avail.items():
        lv = state[rid]
        lv.in_use = lv.res.capacity - len(ranks)
        lv.avail = sorted(ranks)
    return state


# --- greedy / balance / rba decision rules ------------------------------------

def test_greedy_prefers_reward_then_lower_id():
    inst = matching_instance([1.0, 2.0], [1, 1])
    st = state_with_avail(inst, {0: [1], 1: [1]})
    assert GreedyPolicy().decide(0, inst.arrivals[0], st) == 1
    inst2 = matching_instance([1.0, 1.0], [1, 1])
    st2 = state_with_avail(inst2, {0: [1], 1: [1]})
    assert GreedyPolicy().decide(0, inst2.arrivals[0], st2) == 0
    st3 = state_with_avail(inst2, {0: [], 1: []})
    assert GreedyPolicy().decide(0, inst2.arrivals[0], st3) is None


def test_balance_prefers_fuller_resource():
    inst = matching_instance([1.0, 1.0], [10, 10])
    st = state_with_avail(inst, {0: list(range(1, 6)), 1: list(range(1, 11))})
    assert BalancePolicy().decide(0, inst.arrivals[0], st) == 1
    st_tie = state_with_avail(inst, {0: list(range(1, 11)), 1: list(range(1, 11))})
    assert BalancePolicy().decide(0, inst.arrivals[0], st_tie) == 0
    st_none = state_with_avail(inst, {0: [], 1: []})
    assert BalancePolicy().decide(0, inst.arrivals[0], st_none) is None


def test_rba_reduced_price_closed_forms():
    inst = matching_instance([1.0, 1.0], [4, 4])
    st = state_with_avail(inst, {0: [1, 2, 3, 4], 1: [1, 2]})
    assert policies.reduced_price(1.0, 4, 4) == pytest.approx(0.6321, abs=5e-5)
    assert policies.reduced_price(1.0, 2, 4) == pytest.approx(0.3935, abs=5e-5)
    assert RbaPolicy().decide(0, inst.arrivals[0], st) == 0 and st[0].avail[-1] == 4

    # Direct arithmetic oracle: 1*(1-e^-1) = 0.6321 beats 2*(1-e^-0.25) = 0.4424.
    inst2 = matching_instance([1.0, 2.0], [4, 4])
    st2 = state_with_avail(inst2, {0: [1, 2, 3, 4], 1: [1]})
    assert 2.0 * (1.0 - math.exp(-0.25)) == pytest.approx(0.4424, abs=5e-5)
    assert RbaPolicy().decide(0, inst2.arrivals[0], st2) == 0 and st2[0].avail[-1] == 4

    st3 = state_with_avail(inst2, {0: [], 1: []})
    assert RbaPolicy().decide(0, inst2.arrivals[0], st3) is None


def test_rba_budgeted_top_ranks_and_caps():
    inst = model.Instance(
        mode=model.BUDGETED,
        resources=(model.Resource(0, 4, 1.0, NonReusable()),),
        arrivals=(model.Arrival(0.0, model.BudgetedBids({0: 2})),),
    )
    st = state_with_avail(inst, {0: [1, 2, 3, 4]})
    assert RbaBudgetedPolicy().decide(0, inst.arrivals[0], st) == 0

    inst2 = model.Instance(
        mode=model.BUDGETED,
        resources=(model.Resource(0, 4, 1.0, NonReusable()),),
        arrivals=(model.Arrival(0.0, model.BudgetedBids({0: 3})),
                  model.Arrival(1.0, model.BudgetedBids({0: 0}))),
    )
    st2 = state_with_avail(inst2, {0: [1, 2]})
    assert RbaBudgetedPolicy().decide(0, inst2.arrivals[0], st2) == 0             # bid above availability
    assert RbaBudgetedPolicy().decide(1, inst2.arrivals[1], st2) is None          # zero bids: no edge


def test_rba_budgeted_argmax_matches_hand_scores():
    inst = model.Instance(
        mode=model.BUDGETED,
        resources=(model.Resource(0, 4, 1.0, NonReusable()),
                   model.Resource(1, 8, 0.9, NonReusable())),
        arrivals=(model.Arrival(0.0, model.BudgetedBids({0: 2, 1: 2})),),
    )
    st = state_with_avail(inst, {0: [1, 2, 3, 4], 1: list(range(1, 9))})
    s0 = sum(1.0 * (1 - math.exp(-k / 4)) for k in (4, 3))
    s1 = sum(0.9 * (1 - math.exp(-k / 8)) for k in (8, 7))
    want = 0 if s0 > s1 else 1
    assert RbaBudgetedPolicy().decide(0, inst.arrivals[0], st) == want


@settings(max_examples=150)
@given(data=st.data())
def test_rba_budgeted_decide_equals_the_reference_rule(data):
    """decide sums each neighbour's top ranks without a rank list; its
    choice and tie-breaks are those of the rule that lists every
    neighbour's ranks."""
    n = data.draw(st.integers(1, 5))
    caps = data.draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    rewards = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.3]) | st.floats(0.0, 3.0),
                                 min_size=n, max_size=n))
    bids = {i: data.draw(st.integers(0, 14)) for i in range(n)}
    inst = model.Instance(mode=model.BUDGETED,
                          resources=tuple(model.Resource(i, caps[i], rewards[i], NonReusable()) for i in range(n)),
                          arrivals=(model.Arrival(0.0, model.BudgetedBids(bids)),))
    state = state_with_avail(inst, {i: data.draw(st.sets(st.integers(1, caps[i]))) for i in range(n)})
    arrival = inst.arrivals[0]
    assert RbaBudgetedPolicy().decide(0, arrival, state) == reference_rba_budgeted_decide(arrival, state)


# --- fluid guide ---------------------------------------------------------------

def test_galg_first_arrival_consumes_top_unit():
    inst = matching_instance([1.0], [2], usage=[Deterministic(1.0)])
    g = run_galg(inst)
    assert g.x[0] == {0: 1.0}
    assert g.allocs[0] == [(0, 2.0, 1.0)]


def test_galg_waterfall_spills_to_next_unit():
    inst = matching_instance([1.0], [2], usage=[Deterministic(1.0)])
    guide = policies.GalgGuide(inst)
    guide.inv.state[0].Y[:] = [1.0, 0.25]   # unit 2 nearly used up
    xt = guide.step(inst.arrivals[0])
    assert xt[0] == pytest.approx(1.0)
    assert guide.allocs[0] == [(0, 2.0, 0.25), (0, 1.0, pytest.approx(0.75))]


def test_galg_conservation_every_arrival():
    inst = random_battery(BatteryParams(n_instances=1, n_resources=3, n_arrivals=60,
                                        capacity_range=(3, 8), horizon=20.0), seed=2)[0]
    guide = policies.GalgGuide(inst)
    for arrival in inst.arrivals:
        xt = guide.step(arrival)
        assert guide.inv.conservation_error() < 1e-9
        assert sum(xt.values()) <= 1.0 + 1e-9


def test_galg_example_a1_spread_fraction():
    n = 1000
    g = run_galg(example_a1(n))
    spread = g.x[2 * n: 3 * n]
    got = sum(xt.get(0, 0.0) for xt in spread)
    assert got >= 0.25 * n


def test_quantized_levels_powers_of_two():
    levels = quantized_levels(1024, 1.0)
    assert levels == [2 ** j for j in range(11)]
    assert len(levels) == 11


def test_quantized_eps_to_zero_matches_exact():
    inst = matching_instance([1.0, 1.5], [4, 4], usage=[TwoPointInf(1.0, 0.5), Exponential(1.0)],
                             n_arrivals=8)
    exact = run_galg(inst)
    quant = run_galg(inst, variant="quant", eps=1e-9)
    for xe, xq in zip(exact.x, quant.x):
        for rid in set(xe) | set(xq):
            assert xe.get(rid, 0.0) == pytest.approx(xq.get(rid, 0.0), abs=1e-9)


def test_threshold_eps_to_zero_matches_exact():
    inst = matching_instance([1.0, 1.5], [4, 4], usage=[TwoPointInf(1.0, 0.5), Exponential(1.0)],
                             n_arrivals=8)
    exact = run_galg(inst)
    thresh = run_galg(inst, variant="thresh", eps=0.0)
    assert [sorted(x.items()) for x in exact.x] == [sorted(x.items()) for x in thresh.x]


def test_threshold_skips_small_residuals():
    inst = matching_instance([1.0], [2], usage=[Deterministic(1.0)])
    guide = policies.GalgGuide(inst, variant="thresh", eps=0.1)
    guide.inv.state[0].Y[:] = [0.05, 0.95]
    xt = guide.step(inst.arrivals[0])
    assert xt[0] == pytest.approx(0.95)
    assert guide.allocs[0] == [(0, 2.0, pytest.approx(0.95))]


def test_threshold_unit_count_pigeonhole():
    eps = 0.3
    inst = random_battery(BatteryParams(n_instances=1, n_resources=4, n_arrivals=80,
                                        capacity_range=(3, 6), horizon=15.0), seed=5)[0]
    guide = run_galg(inst, variant="thresh", eps=eps)
    cap = math.ceil(1.0 / eps)
    assert all(len(allocs) <= cap for allocs in guide.allocs)


def test_quantized_keeps_most_fluid_value():
    eps = 0.5
    inst = random_battery(BatteryParams(n_instances=1, n_resources=4, n_arrivals=120,
                                        capacity_range=(8, 20), horizon=30.0), seed=8)[0]
    exact = run_galg(inst)
    quant = run_galg(inst, variant="quant", eps=eps)
    assert quant.fluid_reward >= (1.0 - eps) * exact.fluid_reward


# --- fast fluid waterfall against the reference scan -----------------------------

INF_USAGES = (TwoPointInf(1.5, 0.4), ZeroOrInf(0.3), MixtureWithInf(0.6, Exponential(0.7)),
              MixtureWithInf(0.8, Uniform(0.5, 2.0)), Exponential(1.1))


def with_usages(inst, usages):
    res = tuple(model.Resource(r.id, r.capacity, r.reward, usages[i % len(usages)])
                for i, r in enumerate(inst.resources))
    return model.Instance(mode=inst.mode, resources=res, arrivals=inst.arrivals,
                          choice_models=inst.choice_models)


def inf_battery():
    """Matching instances whose durations have mass at +inf."""
    params = BatteryParams(n_instances=2, n_resources=5, n_arrivals=300, capacity_range=(5, 30),
                           dist_mix=("two_point_inf", "zero_or_inf"), horizon=30.0)
    a, b = random_battery(params, seed=77)
    return [a, with_usages(b, INF_USAGES)]


def inf_assortment_instance():
    usages = (TwoPointInf(1.0, 0.5), MixtureWithInf(0.7, Exponential(0.8)), ZeroOrInf(0.4))
    res = tuple(model.Resource(i, 15 + 5 * i, 1.0 + 0.3 * i, usages[i]) for i in range(3))
    cm = MNL(v0=0.4, weights={0: 1.0, 1: 2.0, 2: 0.7})
    arrivals = tuple(model.Arrival(0.25 * t, model.AssortmentRequest(0, {i: 1 + (t + i) % 2 for i in range(3)}))
                     for t in range(150))
    return model.Instance(mode=model.ASSORTMENT, resources=res, arrivals=arrivals, choice_models=(cm,))


GUIDE_CASES = [("a1", "exact", 0.0), ("inf0", "exact", 0.0), ("inf1", "exact", 0.0),
               ("inf0", "quant", 0.2), ("inf1", "quant", 0.2), ("inf0", "thresh", 0.1),
               ("inf1", "thresh", 0.1)]


def guide_instance(key):
    return example_a1(200) if key == "a1" else inf_battery()[int(key[-1])]


@pytest.mark.parametrize("key,variant,eps", GUIDE_CASES)
@pytest.mark.parametrize("reference_advance", [False, True])
def test_fast_guide_equals_reference_scan(monkeypatch, key, variant, eps, reference_advance):
    inst = guide_instance(key)
    fast = run_galg(inst, variant=variant, eps=eps)
    use_reference_fluid(monkeypatch, advance=reference_advance)
    ref = run_galg(inst, variant=variant, eps=eps)
    assert fast.x == ref.x
    assert fast.allocs == ref.allocs


@pytest.mark.parametrize("reference_advance", [False, True])
def test_fast_assortment_guide_equals_reference_scan(monkeypatch, reference_advance):
    inst = inf_assortment_instance()
    fast = run_astgalg(inst)
    use_reference_fluid(monkeypatch, advance=reference_advance)
    ref = run_astgalg(inst)
    assert fast.collections == ref.collections
    assert fast.allocs == ref.allocs


@pytest.mark.parametrize("key,variant,eps", GUIDE_CASES + [("a1", "quant", 0.2), ("a1", "thresh", 0.1)])
def test_guide_equals_reference_waterfall(key, variant, eps):
    inst = guide_instance(key)
    guide = run_galg(inst, variant=variant, eps=eps)
    x, allocs = reference_galg(inst, variant=variant, eps=eps)
    assert guide.x == x
    assert guide.allocs == allocs


@pytest.mark.parametrize("idx", range(4))
def test_assortment_guide_equals_reference_waterfall(idx):
    inst = ([inf_assortment_instance()] + assortment_battery())[idx]
    guide = run_astgalg(inst)
    collections, allocs = reference_astgalg(inst)
    assert guide.collections == collections
    assert guide.allocs == allocs


def repeated_clock_instance():
    """Bursts of arrivals at one time, on families with cdf(0) > 0 (an
    immediate return) next to ones with cdf(0) = 0."""
    usages = (ZeroOrInf(0.4), Deterministic(0.0), TwoPointInf(0.0, 0.6), Exponential(0.8),
              MixtureWithInf(0.7, Deterministic(0.0)))
    res = tuple(model.Resource(i, 4 + 2 * i, 1.0 + 0.2 * i, usages[i]) for i in range(5))
    times = [0.0] * 12 + [0.5] * 6 + [0.75] + [2.0] * 9 + [2.5] * 4
    arrivals = tuple(model.Arrival(tm, model.MatchingEdges(frozenset({t % 5, (t + 2) % 5, 3})))
                     for t, tm in enumerate(times))
    return model.Instance(mode=model.MATCHING, resources=res, arrivals=arrivals)


@pytest.mark.parametrize("variant,eps", [("exact", 0.0), ("quant", 0.3), ("thresh", 0.2)])
def test_guide_at_repeated_clocks_equals_reference_fluid(monkeypatch, variant, eps):
    inst = repeated_clock_instance()
    fast = run_galg(inst, variant=variant, eps=eps)
    use_reference_fluid(monkeypatch)
    ref = run_galg(inst, variant=variant, eps=eps)
    assert fast.x == ref.x
    assert fast.allocs == ref.allocs


@pytest.mark.parametrize("usage", [ZeroOrInf(0.4), Deterministic(0.0), Exponential(0.8), Uniform(0.0, 1.0),
                                   MixtureWithInf(0.7, Deterministic(0.0))])
def test_advance_at_an_unchanged_clock_equals_reference_fluid(monkeypatch, usage):
    # Parcels booked between two advances at one clock, tiny ones (below
    # PRUNE_TOL) included, on one resource, with every advance a block of one
    # row (TABLE_CELLS = 1) and with all of them one block: Y and lost equal
    # the reference's after every advance, and so do the live parcels. Y also
    # equals the keep-all ledger's.
    res = model.Resource(0, 3, 1.0, usage)
    for cells in (1, fluid.TABLE_CELLS):
        monkeypatch.setattr(fluid, "TABLE_CELLS", cells)
        ledger, fast = one_resource_ledger(res, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.5, 1.5, 1.5, 1.5, 4.0])
        ref, plain = ReferenceResourceFluid(res), ReferenceResourceFluid(res)

        def advance_all(now):
            ledger.advance(now)
            ref.advance(now)
            keep_all_advance(plain, now)
            assert fast.Y.tobytes() == ref.Y.tobytes() == plain.Y.tobytes()
            assert fast.lost.tobytes() == ref.lost.tobytes()
            live = ledger._mass[: ledger._n]
            assert live[live != 0.0].tolist() == ref._mass[: ref._n].tolist()

        for now, g, mass in [(0.0, 2, 0.5), (0.0, 1, 1e-16), (0.0, 2, 0.25), (1.0, 0, 0.3), (1.0, 1, 2e-16),
                             (1.0, 2, 0.1), (1.5, 0, 0.2), (1.5, 0, 0.1)]:
            advance_all(now)
            for rf in (fast, ref, plain):
                rf.consume(g, mass, now)
        for now in (1.5, 1.5, 4.0):
            advance_all(now)


def test_booking_off_the_clock_is_refused():
    ledger, rf = one_resource_ledger(model.Resource(0, 2, 1.0, Exponential(1.0)), [1.0, 2.0])
    ledger.advance(1.0)
    with pytest.raises(ValueError, match="clock of the last advance"):
        rf.consume(1, 0.5, 2.0)


@pytest.mark.parametrize("key,variant,eps", [c for c in GUIDE_CASES if c[0] != "a1"])
def test_guide_conservation_with_mass_at_inf(key, variant, eps):
    inst = guide_instance(key)
    guide = policies.GalgGuide(inst, variant=variant, eps=eps)
    for arrival in inst.arrivals:
        guide.step(arrival)
        assert guide.inv.conservation_error() < 1e-9
    assert any(rf.lost.sum() > 0.0 for rf in guide.inv.state.values())


def test_assortment_guide_conservation_with_mass_at_inf():
    inst = inf_assortment_instance()
    guide = AstgalgGuide(inst)
    for arrival in inst.arrivals:
        guide.step(arrival)
        assert guide.inv.conservation_error() < 1e-9


def test_ledger_drops_parcels_whose_returns_are_over():
    n = 200
    inst = example_a1(n)
    guide = policies.GalgGuide(inst)
    for arrival in inst.arrivals[: 3 * n]:      # the burst and the spread phase
        guide.step(arrival)
    ledger = guide.inv
    live = ledger._bucket[: ledger._n][ledger._mass[: ledger._n] != 0.0]
    lo = 0
    for rf in guide.inv.state.values():
        assert ((live >= lo) & (live < lo + rf.n_groups)).sum() < rf.res.capacity
        lo += rf.n_groups
    assert guide.inv.conservation_error() < 1e-9


# --- salg ----------------------------------------------------------------------

def test_salg_single_resource_match_probability():
    c = 100
    inst = matching_instance([1.0], [c], usage=[NonReusable()])
    s = engine.run_trials(inst, SalgPolicy(), 20_000, 17)
    want = 1.0 / (1.0 + salg_delta(c))
    se = math.sqrt(want * (1 - want) / 20_000)
    assert s.mean == pytest.approx(want, abs=4 * se)


def test_salg_unavailable_sample_departs_unmatched():
    # Unit capacity: delta = 0, the guide allocates 0.5 fluid at the second
    # arrival, and half of those samples find the unit still out.
    inst = matching_instance([1.0], [1], usage=[TwoPointInf(2.0, 0.5)])
    inst = model.Instance(mode=model.MATCHING, resources=inst.resources,
                          arrivals=(model.Arrival(0.0, model.MatchingEdges(frozenset({0}))),
                                    model.Arrival(2.0, model.MatchingEdges(frozenset({0})))))
    s = engine.run_trials(inst, SalgPolicy(), 40_000, 23)
    assert s.mean == pytest.approx(1.25, abs=0.02)
    sampled = s.event_totals["salg_sampled"]
    lost = s.event_totals["salg_sampled_unavailable"]
    assert sampled / 40_000 == pytest.approx(1.5, abs=0.02)
    assert lost / 40_000 == pytest.approx(0.25, abs=0.02)


def test_salg_zero_guide_never_matches():
    inst = matching_instance([0.0], [1], usage=[NonReusable()], n_arrivals=3)
    s = engine.run_trials(inst, SalgPolicy(), 200, 1)
    assert s.mean == 0.0


# --- cross-policy invariants -----------------------------------------------------

def test_rba_equals_balance_on_nonreusable_paths():
    params = BatteryParams(n_instances=2, n_resources=4, n_arrivals=60, capacity_range=(2, 6),
                           dist_mix=("non_reusable",), horizon=10.0)
    for inst in random_battery(params, seed=3):
        for seed in (0, 1, 2):
            ta = engine.simulate(inst, RbaPolicy(), seed, 0)
            tb = engine.simulate(inst, BalancePolicy(), seed, 0)
            assert [r.resource for r in ta.records] == [r.resource for r in tb.records]


def test_reward_scale_invariance_of_decisions():
    inst = random_battery(BatteryParams(n_instances=1, n_resources=4, n_arrivals=60,
                                        capacity_range=(2, 5), horizon=12.0), seed=9)[0]
    scaled = model.Instance(
        mode=inst.mode,
        resources=tuple(model.Resource(r.id, r.capacity, 7.25 * r.reward, r.usage) for r in inst.resources),
        arrivals=inst.arrivals)
    for mk in (GreedyPolicy, BalancePolicy, RbaPolicy):
        a = engine.simulate(inst, mk(), 4, 0)
        b = engine.simulate(scaled, mk(), 4, 0)
        assert [r.resource for r in a.records] == [r.resource for r in b.records]


def test_make_policy_names():
    assert make_policy("greedy").name == "greedy"
    assert make_policy("galg_fast_quant:0.25").variant == "quant"
    assert make_policy("galg_fast_thresh:0.1").eps == 0.1
    with pytest.raises(ValueError):
        make_policy("foo")


@pytest.mark.parametrize("name", ["galg_fast_thresh:1.5", "galg_fast_thresh:-0.1", "galg_fast_thresh:nan",
                                  "galg_fast_quant:-1", "galg_fast_quant:inf", "galg_fast_quant:x"])
def test_make_policy_rejects_bad_eps(name):
    with pytest.raises(ValueError):
        make_policy(name)


def test_rba_budgeted_scale_invariance():
    params = BatteryParams(n_instances=1, n_resources=3, n_arrivals=50, capacity_range=(3, 8),
                           mode=model.BUDGETED, max_bid=3, horizon=12.0)
    inst = random_battery(params, seed=12)[0]
    scaled = model.Instance(
        mode=inst.mode,
        resources=tuple(model.Resource(r.id, r.capacity, 3.7 * r.reward, r.usage) for r in inst.resources),
        arrivals=inst.arrivals)
    a = engine.simulate(inst, policies.RbaBudgetedPolicy(), 6, 0)
    b = engine.simulate(scaled, policies.RbaBudgetedPolicy(), 6, 0)
    assert [(r.resource, r.units) for r in a.records] == [(r.resource, r.units) for r in b.records]


def test_fast_guide_policies_run_end_to_end():
    inst = matching_instance([1.0, 1.3], [40, 50],
                             usage=[TwoPointInf(1.0, 0.5), Exponential(0.8)], n_arrivals=60)
    exact = engine.run_trials(inst, make_policy("salg"), 300, 71)
    quant = engine.run_trials(inst, make_policy("galg_fast_quant:0.3"), 300, 71)
    thresh = engine.run_trials(inst, make_policy("galg_fast_thresh:0.2"), 300, 71)
    # The fast guides trade a bounded fraction of fluid value for speed.
    assert quant.mean >= (1 - 0.3) * exact.mean - 3 * (quant.se + exact.se)
    assert thresh.mean >= (1 - 0.2) * exact.mean - 3 * (thresh.se + exact.se)
