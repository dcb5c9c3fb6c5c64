import functools

import pytest

from test_acceptance import assortment_battery
from reuse_alloc import benchmarks, engine, model, policies, rng
from reuse_alloc.assortment import MNL
from reuse_alloc.distributions import (Deterministic, DurationStreamKey, NonReusable, TwoPointInf,
                                       ZeroOrInf, sample)
from reuse_alloc.generators import BatteryParams, example_a1, random_battery
from reuse_alloc.randproc import ProcessSpec, fluid_process


def single_resource(usage, capacity=1, reward=1.0, times=(0.0, 1.0)):
    return model.Instance(
        mode=model.MATCHING,
        resources=(model.Resource(0, capacity, reward, usage),),
        arrivals=tuple(model.Arrival(t, model.MatchingEdges(frozenset({0}))) for t in times),
    )


def test_capacity_exhausts_nonreusable():
    inst = single_resource(NonReusable())
    tr = engine.simulate(inst, policies.GreedyPolicy(), 7, 0, check_invariants=True)
    assert tr.total_reward == 1.0


def test_deterministic_return_before_second_arrival():
    inst = single_resource(Deterministic(0.5))
    tr = engine.simulate(inst, policies.GreedyPolicy(), 7, 0, check_invariants=True)
    assert tr.total_reward == 2.0


def test_two_point_mean_matches_fluid_recursion():
    # Oracle: the single-unit fluid recursion gives 1 + 0.5 = 1.5.
    _, expected = fluid_process(ProcessSpec(TwoPointInf(1.0, 0.5), (0.0, 2.0), (1, 1)))
    inst = single_resource(TwoPointInf(1.0, 0.5), times=(0.0, 2.0))
    s = engine.run_trials(inst, policies.GreedyPolicy(), 100_000, 11)
    assert expected == pytest.approx(1.5)
    assert s.mean == pytest.approx(expected, abs=0.005)
    assert 1.49 <= s.mean <= 1.51


def test_zero_duration_returns_for_next_arrival_not_same():
    # Certain immediate return: every arrival is served, including bursts.
    inst = model.Instance(
        mode=model.MATCHING,
        resources=(model.Resource(0, 1, 1.0, ZeroOrInf(p=1.0)),),
        arrivals=tuple(model.Arrival(0.0, model.MatchingEdges(frozenset({0}))) for _ in range(5)),
    )
    tr = engine.simulate(inst, policies.GreedyPolicy(), 7, 0, check_invariants=True)
    assert tr.total_reward == 5.0
    assert [rec.decision for rec in tr.records] == ["match"] * 5


def test_summary_deterministic_and_se_zero():
    inst = single_resource(Deterministic(0.25), times=(0.0, 1.0, 2.0))
    s1 = engine.run_trials(inst, policies.GreedyPolicy(), 50, 3)
    s2 = engine.run_trials(inst, policies.GreedyPolicy(), 50, 3)
    assert s1 == s2
    assert s1.se == 0.0 and s1.mean == 3.0


def test_common_random_numbers_across_policies():
    # Same seed, same (resource, unit, use) keys: identical realized durations
    # wherever both policies allocate the same use of the same unit.
    inst = model.Instance(
        mode=model.MATCHING,
        resources=(
            model.Resource(0, 2, 1.0, TwoPointInf(1.0, 0.5)),
            model.Resource(1, 2, 1.0, TwoPointInf(1.0, 0.5)),
        ),
        arrivals=tuple(model.Arrival(float(t), model.MatchingEdges(frozenset({0, 1}))) for t in range(6)),
    )
    t_greedy = engine.simulate(inst, policies.GreedyPolicy(), 99, 0)
    t_rba = engine.simulate(inst, policies.RbaPolicy(), 99, 0)
    seen = {}
    for tr in (t_greedy, t_rba):
        counts = {}
        for rec in tr.records:
            if rec.resource is None:
                continue
            for rank, dur in zip(rec.units, rec.durations):
                key = (rec.resource, rank, counts.setdefault((rec.resource, rank), 0))
                counts[(rec.resource, rank)] += 1
                seen.setdefault(key, set()).add(dur)
    for durs in seen.values():
        assert len(durs) == 1


def test_conservation_after_every_event():
    inst = model.Instance(
        mode=model.MATCHING,
        resources=(model.Resource(0, 3, 1.0, TwoPointInf(0.5, 0.5)),
                   model.Resource(1, 2, 2.0, ZeroOrInf(0.5))),
        arrivals=tuple(model.Arrival(0.5 * t, model.MatchingEdges(frozenset({0, 1}))) for t in range(12)),
    )
    engine.simulate(inst, policies.BalancePolicy(), 1, 0, check_invariants=True)


def test_policy_protocol_violation_unavailable():
    class BadPolicy(policies.Policy):
        def decide(self, t, arrival, state):
            return 0  # blindly insists on resource 0

    inst = single_resource(NonReusable(), times=(0.0, 1.0))
    with pytest.raises(engine.PolicyProtocolViolation):
        engine.simulate(inst, BadPolicy(), 7, 0)


def test_budgeted_allocation_below_the_top_rank():
    class LowRanks(policies.Policy):
        mode = model.BUDGETED

        def __init__(self, ranks):
            super().__init__()
            self.ranks = ranks

        def decide(self, t, arrival, state):
            return 0, self.ranks

    inst = model.Instance(
        mode=model.BUDGETED,
        resources=(model.Resource(0, 4, 1.0, NonReusable()),),
        arrivals=(model.Arrival(0.0, model.BudgetedBids({0: 2})),),
    )
    tr = engine.simulate(inst, LowRanks((1, 3)), 7, 0, check_invariants=True)
    assert tr.records[0].units == (1, 3)
    with pytest.raises(engine.PolicyProtocolViolation):
        engine.simulate(inst, LowRanks((2, 2)), 7, 0)


def test_run_trials_traces_come_from_the_summarized_pass():
    inst = single_resource(TwoPointInf(1.0, 0.5), capacity=2, times=(0.0, 1.0, 2.0, 3.0))
    traces = []
    s = engine.run_trials(inst, policies.GreedyPolicy(), 30, 6, traces=traces)
    assert s == engine.run_trials(inst, policies.GreedyPolicy(), 30, 6)
    assert s == engine.summarize(traces)
    assert [tr.trial for tr in traces] == list(range(30))
    for tr in traces:
        assert tr.total_reward == engine.simulate(inst, policies.GreedyPolicy(), 6, tr.trial).total_reward
        assert len(tr.records) == len(inst.arrivals)


def test_policy_mode_mismatch_rejected():
    inst = single_resource(NonReusable())
    with pytest.raises(engine.PolicyProtocolViolation):
        engine.simulate(inst, policies.RbaBudgetedPolicy(), 7, 0)


def test_budgeted_allocation_and_caps():
    inst = model.Instance(
        mode=model.BUDGETED,
        resources=(model.Resource(0, 4, 1.0, NonReusable()),),
        arrivals=(model.Arrival(0.0, model.BudgetedBids({0: 3})),
                  model.Arrival(1.0, model.BudgetedBids({0: 3}))),
    )
    tr = engine.simulate(inst, policies.RbaBudgetedPolicy(), 7, 0, check_invariants=True)
    assert tr.records[0].units == (4, 3, 2)   # top ranks first
    assert tr.records[1].units == (1,)        # capped at availability
    assert tr.total_reward == 4.0


def test_assortment_forced_choice_and_reward():
    cm = MNL(v0=0.0, weights={0: 1.0})
    inst = model.Instance(
        mode=model.ASSORTMENT,
        resources=(model.Resource(0, 3, 2.0, NonReusable()),),
        arrivals=(model.Arrival(0.0, model.AssortmentRequest(0, {0: 2})),),
        choice_models=(cm,),
    )
    tr = engine.simulate(inst, policies.make_policy("rba_assortment"), 7, 0, check_invariants=True)
    assert tr.records[0].offered == (0,)
    assert tr.records[0].units == (3, 2)
    assert tr.total_reward == 4.0


def test_shared_duration_flag_gives_one_draw_per_allocation():
    inst = model.Instance(
        mode=model.BUDGETED,
        resources=(model.Resource(0, 4, 1.0, TwoPointInf(1.0, 0.5)),),
        arrivals=(model.Arrival(0.0, model.BudgetedBids({0: 4})),),
    )
    for k in range(20):
        tr = engine.simulate(inst, policies.RbaBudgetedPolicy(), 31, k, shared_durations=True)
        assert len(set(tr.records[0].durations)) == 1


def test_trace_totals_consistent():
    inst = single_resource(TwoPointInf(1.0, 0.5), capacity=2, times=(0.0, 1.0, 2.0, 3.0))
    tr = engine.simulate(inst, policies.GreedyPolicy(), 13, 2)
    assert tr.total_reward == pytest.approx(sum(rec.reward for rec in tr.records))
    assert tr.total_reward == pytest.approx(sum(tr.per_resource.values()))


def test_per_resource_summary_and_ci():
    inst = single_resource(TwoPointInf(1.0, 0.5), times=(0.0, 2.0))
    s = engine.run_trials(inst, policies.GreedyPolicy(), 2000, 4)
    assert s.per_resource_mean[0] == pytest.approx(s.mean)
    lo, hi = s.ci95
    assert lo == pytest.approx(s.mean - 1.96 * s.se)
    assert hi == pytest.approx(s.mean + 1.96 * s.se)


# -- the draw contract, against the scalar chain ---------------------------------

@functools.lru_cache(maxsize=None)
def contract_instance(key):
    params = dict(n_instances=1, n_resources=4, n_arrivals=120, capacity_range=(3, 12), horizon=20.0)
    if key == "matching":
        return random_battery(BatteryParams(**params), seed=61)[0]
    if key == "budgeted":
        return random_battery(BatteryParams(**params, mode=model.BUDGETED, max_bid=3), seed=62)[0]
    if key == "assortment":
        return assortment_battery()[0]
    return example_a1(30)


def contract_policy(name, inst):
    if name == "lp_rounding":
        return benchmarks.LpRoundingPolicy(inst, benchmarks.solve_lp(benchmarks.build_lp(inst)))
    return policies.make_policy(name)


@pytest.mark.parametrize("key,name,shared", [
    ("matching", "rba", False), ("matching", "salg", False), ("budgeted", "rba_budgeted", False),
    ("budgeted", "lp_rounding", False), ("assortment", "astalg", False),
    ("assortment", "rba_assortment", False), ("a1", "salg", False), ("a1", "galg_fast_quant:0.1", False),
    ("budgeted", "rba_budgeted", True), ("assortment", "astalg", True)])
def test_draws_follow_the_scalar_chain(monkeypatch, key, name, shared):
    """Every duration in a trace is sample(dist, (resource, rank, use)) with
    `use` counted along the trace, or (resource, 0, arrival) when allocations
    share one draw; every coin list equals rng.uniform entry by entry."""
    inst = contract_instance(key)
    pol = contract_policy(name, inst)
    vectors = []                       # every (seed, key parts, output) of rng.uniform_vec
    uniform_vec = rng.uniform_vec
    monkeypatch.setattr(rng, "uniform_vec",
                        lambda seed, *parts: vectors.append((seed, parts, uniform_vec(seed, *parts)))
                        or vectors[-1][2])
    usage = {r.id: r.usage for r in inst.resources}
    arrivals = range(len(inst.arrivals))
    for trial in range(3):
        trial_seed = rng.derive(5, rng.TAG_TRIAL, trial)
        tr = engine.simulate(inst, pol, 5, trial, shared_durations=shared)
        uses = {}
        for rec in tr.records:
            for rank, d in zip(rec.units, rec.durations):
                if shared:
                    draw = DurationStreamKey(rec.resource, 0, rec.arrival)
                else:
                    uses[rec.resource, rank] = uses.get((rec.resource, rank), 0) + 1
                    draw = DurationStreamKey(rec.resource, rank, uses[rec.resource, rank])
                assert d == sample(usage[rec.resource], draw, trial_seed)
            u = rng.uniform(trial_seed, rng.TAG_POLICY, rec.arrival)
            if name in ("salg", "lp_rounding", "galg_fast_quant:0.1") and rec.resource is not None:
                assert rec.resource == rng.pick(u, pol._rows[rec.arrival])
            if name == "astalg":               # the offer lies in the collection's sampled set
                u = rng.uniform(trial_seed, rng.TAG_POLICY, rec.arrival, 0)
                assert set(rec.offered) <= (rng.pick(u, pol.guide.collections[rec.arrival]) or set())
            if rec.offered:                    # the engine's choice draw
                offer = frozenset(rec.offered)
                cm = inst.choice_models[inst.arrivals[rec.arrival].demand.choice_model]
                u = rng.uniform(trial_seed, rng.TAG_CHOICE, rec.arrival)
                assert rec.resource == rng.pick(u, [(rid, cm.prob(offer, rid)) for rid in rec.offered])
        if name in ("salg", "lp_rounding", "galg_fast_quant:0.1"):
            assert pol.coins() == [rng.uniform(trial_seed, rng.TAG_POLICY, t) for t in arrivals]
        if name == "astalg":
            assert pol.coins() == [[rng.uniform(trial_seed, rng.TAG_POLICY, t, k) for k in (0, 1)]
                                   for t in arrivals]
    for seed, (tag, t, *cols), out in vectors:
        if cols:
            expected = [[rng.uniform(seed, tag, i, k) for k in cols[0]] for i in t.ravel().tolist()]
        else:
            expected = [rng.uniform(seed, tag, i) for i in t.tolist()]
        assert out.tolist() == expected
    if inst.mode == model.ASSORTMENT:
        assert rng.TAG_CHOICE in {tag for _, (tag, *_), _ in vectors}
