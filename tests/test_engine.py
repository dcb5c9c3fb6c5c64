import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lp_rounding, reference_paths
from test_acceptance import assortment_battery
from reuse_alloc import engine, model, policies, rng
from reuse_alloc.assortment import MNL
from reuse_alloc.distributions import (Deterministic, DurationStreamKey, Exponential, MixtureWithInf,
                                       NonReusable, TwoPointInf, Uniform, WeibullIFR, ZeroOrInf,
                                       fixed_duration, sample)
from reuse_alloc.generators import BatteryParams, example_a1, example_a2, random_battery, upper_triangular
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


class FixedDecision(policies.Policy):
    """Makes the same decision at every arrival, whatever the state."""

    def __init__(self, mode, decision):
        super().__init__()
        self.mode, self.decision = mode, decision

    def decide(self, t, arrival, state):
        return self.decision


def protocol_instance(mode):
    """Resources of two and five units that never return, three arrivals that
    demand one unit of resource 0 (at most one item per offer); a budgeted
    arrival also bids 3 on resource 1. "explicit" is the assortment instance
    with a feasible list that holds no nonempty set."""
    demand = {model.MATCHING: model.MatchingEdges(frozenset({0})),
              model.BUDGETED: model.BudgetedBids({0: 1, 1: 3}),
              model.ASSORTMENT: model.AssortmentRequest(0, {0: 1}, model.MaxCardinality(1)),
              "explicit": model.AssortmentRequest(0, {0: 1}, model.ExplicitList(()))}[mode]
    mode = model.ASSORTMENT if mode == "explicit" else mode
    return model.Instance(
        mode=mode,
        resources=tuple(model.Resource(i, c, 1.0, NonReusable()) for i, c in enumerate((2, 5))),
        arrivals=tuple(model.Arrival(float(t), demand) for t in range(3)),
        choice_models=(MNL(v0=0.0, weights={0: 1.0, 1: 1.0}),) if mode == model.ASSORTMENT else ())


@pytest.mark.parametrize("mode,policy_mode,decision,message", [
    (model.MATCHING, model.BUDGETED, None, "policy mode 'budgeted' != instance mode 'matching'"),
    (model.MATCHING, model.MATCHING, 1, "arrival 0: no edge to resource 1"),
    (model.MATCHING, model.MATCHING, 0, "arrival 2: resource 0 has no available unit"),
    (model.BUDGETED, model.BUDGETED, 5, "arrival 0: no edge to resource 5"),
    (model.BUDGETED, model.BUDGETED, 0, "arrival 2: resource 0 has no available unit"),
    (model.ASSORTMENT, model.ASSORTMENT, frozenset({0, 1}), "arrival 0: offered set is not feasible"),
    (model.ASSORTMENT, model.ASSORTMENT, frozenset({1}), "arrival 0: offered resource 1 has no demand"),
    (model.ASSORTMENT, model.ASSORTMENT, frozenset({0}), "arrival 2: offered resource 0 is unavailable"),
    ("explicit", model.ASSORTMENT, frozenset({0}), "arrival 0: offered set is not feasible"),
])
def test_every_protocol_violation_is_named(mode, policy_mode, decision, message):
    with pytest.raises(engine.PolicyProtocolViolation) as err:
        engine.simulate(protocol_instance(mode), FixedDecision(policy_mode, decision), 7, 0)
    assert str(err.value) == message


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
    if key == "explicit":
        # Each arrival may be offered one of its resources or its two lowest ids, and
        # every second one has choice model 1, which gives each item probability 0.
        inst = assortment_battery()[0]
        zero = MNL(v0=0.0, weights=dict.fromkeys(inst.choice_models[0].weights, 0.0))
        arrivals = []
        for t, a in enumerate(inst.arrivals):
            ids = sorted(a.demand.bids())
            listed = model.ExplicitList(tuple(frozenset(s) for s in [*([i] for i in ids), ids[:2]]))
            arrivals.append(model.Arrival(a.time, model.AssortmentRequest(t % 2, a.demand.amounts, listed)))
        return model.Instance(model.ASSORTMENT, inst.resources, tuple(arrivals), (inst.choice_models[0], zero))
    return example_a1(30)


def contract_policy(name, inst):
    if name == "lp_rounding":
        return lp_rounding(inst)
    return policies.make_policy(name)


@pytest.mark.parametrize("key,name,shared", [
    ("matching", "rba", False), ("matching", "salg", False), ("budgeted", "rba_budgeted", False),
    ("budgeted", "lp_rounding", False), ("assortment", "astalg", False),
    ("assortment", "rba_assortment", False), ("a1", "salg", False), ("a1", "galg_fast_quant:0.1", False),
    ("budgeted", "rba_budgeted", True), ("assortment", "astalg", True), ("explicit", "rba_assortment", False)])
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
        if key == "explicit":           # MNL.prob is 0.0 under choice model 1: nothing is offered there
            assert not any(rec.offered or rec.reward for rec in tr.records if rec.arrival % 2)
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
        assert model.validate(inst) == []


EVERY_FAMILY = (Deterministic(1.5), Deterministic(0.0), NonReusable(), ZeroOrInf(0.0), ZeroOrInf(0.4),
                TwoPointInf(1.0, 0.0), TwoPointInf(1.0, 0.5), MixtureWithInf(0.0, Exponential(0.8)),
                MixtureWithInf(0.7, Exponential(0.8)), Exponential(0.8), Uniform(0.5, 2.0),
                WeibullIFR(1.5, 2.0))
FIXED = {0: 1.5, 1: 0.0, 2: float("inf"), 3: float("inf"), 5: float("inf"), 7: float("inf")}


def test_fixed_duration_is_what_every_uniform_gives():
    for i, dist in enumerate(EVERY_FAMILY):
        assert fixed_duration(dist) == FIXED.get(i)
        if i in FIXED:
            assert {dist.sample_u(u) for u in (0.0, 0.25, 0.5, 1.0 - 2.0 ** -53)} == {FIXED[i]}


@pytest.mark.parametrize("shared", [False, True])
def test_draws_of_every_family_follow_the_scalar_chain(monkeypatch, shared):
    """Every duration in a trace is sample(dist, key, trial seed) for every
    family, and no draw is made for a family whose duration is fixed."""
    n = len(EVERY_FAMILY)
    inst = model.Instance(
        mode=model.BUDGETED,
        resources=tuple(model.Resource(i, 3, 1.0, d) for i, d in enumerate(EVERY_FAMILY)),
        arrivals=tuple(model.Arrival(0.5 * t, model.BudgetedBids({t % n: 2, (5 * t + 1) % n: 1}))
                       for t in range(240)))
    spied, drawn = [], []              # every family's sample_u call, and those simulate made
    for cls in {type(dist) for dist in EVERY_FAMILY}:
        monkeypatch.setattr(cls, "sample_u", lambda dist, u, sample_u=cls.sample_u:
                            spied.append(dist) or sample_u(dist, u))
    used = set()
    for trial in range(3):
        trial_seed = rng.derive(8, rng.TAG_TRIAL, trial)
        spied.clear()
        tr = engine.simulate(inst, policies.RbaBudgetedPolicy(), 8, trial, shared_durations=shared)
        drawn += spied
        uses = {}
        for rec in tr.records:
            for rank, d in zip(rec.units, rec.durations):
                used.add(rec.resource)
                if shared:
                    key = DurationStreamKey(rec.resource, 0, rec.arrival)
                else:
                    uses[rec.resource, rank] = uses.get((rec.resource, rank), 0) + 1
                    key = DurationStreamKey(rec.resource, rank, uses[rec.resource, rank])
                assert d == sample(EVERY_FAMILY[rec.resource], key, trial_seed)
    assert used == set(range(n))
    assert drawn and not any(fixed_duration(dist) is not None for dist in drawn)


@settings(max_examples=60)
@given(seed=st.integers(0, 2**64 - 1), rid=st.integers(0, 2**40), capacity=st.integers(1, 200))
def test_block_folded_unit_streams_equal_the_scalar_folds(seed, rid, capacity):
    """A resource's unit slots are one block, folded in one vector call when
    the trial's live state is made: each slot's stream, slot 0 (the shared
    draw's) included, equals the scalar folds of (TAG_DURATION, resource,
    slot). A resource with a fixed duration folds none."""
    lv = engine._ResourceLive(model.Resource(rid, capacity, 1.0, Exponential(1.0)), seed)
    root = rng.derive(seed, rng.TAG_DURATION)
    assert lv.streams == [rng.fold(rng.fold(root, rid), slot) for slot in range(capacity + 1)]
    assert engine._ResourceLive(model.Resource(rid, capacity, 1.0, Deterministic(1.0)), seed).streams is None


@pytest.mark.parametrize("shared", [False, True])
def test_simulate_folds_unit_streams_per_block_not_per_draw(monkeypatch, shared):
    """rng.fold runs once for the trial seed and once per resource with drawn
    durations, whose unit slots are one block folded when the trial starts;
    a draw folds its use counter inline."""
    inst = random_battery(BatteryParams(n_instances=1, n_resources=4, n_arrivals=600, capacity_range=(70, 150),
                                        dist_mix=("exponential", "uniform", "two_point_inf")), seed=64)[0]
    folds = []
    fold = rng.fold
    monkeypatch.setattr(rng, "fold", lambda h, *parts: folds.append(parts) or fold(h, *parts))
    tr = engine.simulate(inst, policies.RbaPolicy(), 3, 0, shared_durations=shared)
    draws = [(rec.resource, rank) for rec in tr.records for rank in rec.units]
    drawn = [r.id for r in inst.resources if r.fixed_duration is None]
    assert len(drawn) == 4 and {rid for rid, _ in draws} == set(drawn) and len(draws) > 10 * len(drawn)
    assert len(folds) == 1 + len(drawn)


# -- the lockstep engine against the scalar one ----------------------------------

MATCHING_RULES = ("greedy", "balance", "rba", "salg", "galg_fast_quant:0.1", "galg_fast_thresh:0.3", "lp_rounding")
BUDGETED_RULES = ("rba_budgeted", "lp_rounding")


def rules_for(inst):
    return MATCHING_RULES if inst.mode == model.MATCHING else BUDGETED_RULES


def summary_bits(s):
    """Every field of a Summary, floats by their hex, dicts with their key order."""
    def h(x):
        return x.hex() if isinstance(x, float) else x
    return (s.trials, h(s.mean), h(s.se), tuple(map(h, s.ci95)),
            [(k, h(v)) for k, v in s.per_resource_mean.items()],
            [(k, h(v)) for k, v in s.per_resource_se.items()], list(s.event_totals.items()))


def scalar_summary(inst, pol, trials, seed):
    return engine.summarize(engine.simulate(inst, pol, seed, k, collect_trace=False) for k in range(trials))


def assert_batched_equals_scalar(inst, name, trials, seed):
    pol = contract_policy(name, inst)
    assert engine.batched(inst, pol)
    with mock.patch.object(engine, "simulate", side_effect=AssertionError("took the scalar path")):
        with mock.patch.object(engine, "BATCH_MIN_TRIALS", min(trials, engine.BATCH_MIN_TRIALS)):
            got = engine.run_trials(inst, pol, trials, seed)
    assert summary_bits(got) == summary_bits(scalar_summary(inst, pol, trials, seed)), (name, trials)


@functools.lru_cache(maxsize=None)
def parity_instance(key):
    fams = ("two_point_inf", "exponential", "deterministic", "uniform", "weibull", "zero_or_inf", "non_reusable")
    params = dict(n_instances=1, n_resources=5, n_arrivals=200, capacity_range=(2, 90), dist_mix=fams, horizon=25.0)
    if key == "battery_matching":
        return random_battery(BatteryParams(**params), seed=91)[0]
    if key == "battery_budgeted":
        return random_battery(BatteryParams(**params, mode=model.BUDGETED, max_bid=3), seed=92)[0]
    mixture = {**params, "dist_mix": ("mixture_inf",)}
    if key == "mixture_matching":
        return random_battery(BatteryParams(**mixture), seed=93)[0]
    if key == "mixture_budgeted":
        return random_battery(BatteryParams(**mixture, mode=model.BUDGETED, max_bid=3), seed=94)[0]
    if key == "example_a1":
        return example_a1(150)
    if key == "example_a2":
        return example_a2(60, 0.7)
    return upper_triangular(10, 100)


@pytest.mark.parametrize("key", ["battery_matching", "battery_budgeted", "mixture_matching", "mixture_budgeted",
                                 "example_a1", "example_a2", "upper_triangular"])
def test_batched_summary_equals_scalar_on_named_instances(key):
    inst = parity_instance(key)
    for name in rules_for(inst):
        assert_batched_equals_scalar(inst, name, engine.BATCH_MIN_TRIALS + 8, 17)


def test_rba_budgeted_at_bid_one_is_rba():
    """A budgeted instance whose every bid is 1 runs rba_budgeted bit for bit
    as its matching twin runs rba, in `simulate` and in `lockstep`."""
    matching = parity_instance("battery_matching")
    budgeted = model.Instance(mode=model.BUDGETED, resources=matching.resources,
                              arrivals=tuple(model.Arrival(a.time, model.BudgetedBids(dict(a.demand.bids())))
                                             for a in matching.arrivals))
    n = engine.BATCH_MIN_TRIALS
    assert summary_bits(scalar_summary(budgeted, policies.RbaBudgetedPolicy(), n, 5)) == \
        summary_bits(scalar_summary(matching, policies.RbaPolicy(), n, 5))
    with mock.patch.object(engine, "simulate", side_effect=AssertionError("took the scalar path")):
        assert summary_bits(engine.run_trials(budgeted, policies.RbaBudgetedPolicy(), n, 5)) == \
            summary_bits(engine.run_trials(matching, policies.RbaPolicy(), n, 5))


@st.composite
def lockstep_instances(draw, mode):
    """Small instances over every duration family, with bursts, arrivals
    without an edge, rewards of 0 and capacities on both sides of 64."""
    n = draw(st.integers(1, 4))
    resources = tuple(model.Resource(i, draw(st.sampled_from((1, 2, 3, 5, 66, 70))),
                                     draw(st.sampled_from((0.0, 0.5, 1.0, 1.7))), draw(st.sampled_from(EVERY_FAMILY)))
                      for i in range(n))
    gaps = draw(st.lists(st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0, 1.5)), min_size=1, max_size=45))
    arrivals = []
    for t, time in enumerate(np.cumsum(gaps).tolist()):
        edges = draw(st.sets(st.integers(0, n - 1), max_size=n))
        if mode == model.MATCHING:
            demand = model.MatchingEdges(frozenset(edges))
        else:
            demand = model.BudgetedBids({i: draw(st.integers(1, 3)) for i in sorted(edges)})
        arrivals.append(model.Arrival(time, demand))
    return model.Instance(mode=mode, resources=resources, arrivals=tuple(arrivals))


@pytest.mark.parametrize("mode", [model.MATCHING, model.BUDGETED])
@settings(max_examples=80)
@given(data=st.data())
def test_batched_equals_scalar_property(mode, data):
    """batched == scalar engine: below and at the crossover, and in chunks of
    one trial or of a few, so that trials cross chunk boundaries."""
    inst = data.draw(lockstep_instances(mode))
    trials = data.draw(st.sampled_from((1, 3, 7, engine.BATCH_MIN_TRIALS)))
    per_trial = len(inst.arrivals) + sum(r.capacity for r in inst.resources) + 1
    cells = data.draw(st.sampled_from((engine.TRIAL_CELLS, 1, 3 * per_trial)))
    with mock.patch.object(engine, "TRIAL_CELLS", cells):
        for name in rules_for(inst):
            assert_batched_equals_scalar(inst, name, trials, data.draw(st.integers(-2, 2**64)))


def test_lockstep_paths_equal_the_scalar_records():
    inst = parity_instance("battery_budgeted")
    pol = contract_policy("lp_rounding", inst)
    paths = engine.lockstep(inst, pol, 9, 4, record=True)
    scalar = reference_paths(inst, pol, 9, 4)
    for field in ("totals", "per_resource", "resource", "units", "rank"):
        assert getattr(paths, field).tobytes() == getattr(scalar, field).tobytes(), field
    assert paths.events == scalar.events
    assert paths.resource.max() >= 0 and paths.units.max() > 1


def test_lower_finds_the_next_available_rank():
    caps = (1, 2, 63, 64, 65, 130, 200)
    inst = model.Instance(mode=model.MATCHING,
                          resources=tuple(model.Resource(i, c, 1.0, NonReusable()) for i, c in enumerate(caps)),
                          arrivals=(model.Arrival(0.0, model.MatchingEdges(frozenset({0}))),))
    rnd = np.random.default_rng(3)
    n = 40
    batch = engine.Lockstep(engine._Plan(inst), np.arange(n, dtype=np.uint64), (), False)
    avail = {}
    words = batch._bits.reshape(n, len(caps), -1)
    words[:] = 0
    for k in range(n):
        for i, c in enumerate(caps):
            keep = rnd.random() < 0.9
            ranks = [z for z in range(1, c + 1) if keep and rnd.random() < rnd.choice((0.02, 0.3, 0.9))]
            avail[k, i] = ranks
            for z in ranks:
                words[k, i, (z - 1) // 64] |= np.uint64(1 << ((z - 1) % 64))
    rows, cols, ranks = [], [], []
    for (k, i), _ in avail.items():
        for z in range(0, caps[i] + 1):
            rows.append(k), cols.append(i), ranks.append(z)
    got = batch.lower(np.array(rows), np.array(cols), np.array(ranks))
    want = [max([x for x in avail[k, i] if x < z], default=0) for k, i, z in zip(rows, cols, ranks)]
    assert got.tolist() == want


def test_pick_batch_equals_pick():
    rnd = np.random.default_rng(8)
    for _ in range(300):
        w = rnd.choice((0.1, 0.25, 0.3, 1.0 / 3.0), size=rnd.integers(1, 6)) * rnd.choice((1.0, 0.7))
        pairs = list(enumerate(w.tolist()))
        cum, vals = policies.pick_table([pairs], {i: i for i in range(len(pairs))})[0]
        u = np.concatenate((cum, np.nextafter(cum, 0.0), rnd.random(20)))    # at, below and between totals
        want = [rng.pick(x, pairs) for x in u.tolist()]
        assert policies.pick_batch(u, cum, vals).tolist() == [-1 if v is None else v for v in want]


def test_bit_length_of_every_width():
    xs = [0, 1, 2, 3, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, (1 << 63), (1 << 64) - 1, (1 << 64) - (1 << 10),
          (1 << 64) - (1 << 11) + 1, (1 << 54) - 1] + [1 << k for k in range(64)] + [(1 << k) - 1 for k in range(1, 65)]
    assert engine._bit_length(np.array(xs, dtype=np.uint64)).tolist() == [x.bit_length() for x in xs]


class CountedSimulate:
    def __init__(self):
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return SIMULATE(*args, **kwargs)


SIMULATE = engine.simulate


@pytest.mark.parametrize("key,name", [(key, name) for key in ("battery_matching", "battery_budgeted")
                                      for name in rules_for(parity_instance(key))])
def test_run_trials_takes_the_batched_path_from_the_crossover(monkeypatch, key, name):
    inst = parity_instance(key)
    counted = CountedSimulate()
    monkeypatch.setattr(engine, "simulate", counted)
    n = engine.BATCH_MIN_TRIALS
    engine.run_trials(inst, contract_policy(name, inst), n, 3)
    engine.run_trials(inst, contract_policy(name, inst), n + 5, 3)
    assert counted.calls == 0
    engine.run_trials(inst, contract_policy(name, inst), n - 1, 3)
    assert counted.calls == n - 1
    engine.run_trials(inst, contract_policy(name, inst), n, 3, traces=[])
    assert counted.calls == 2 * n - 1
    if inst.mode == model.BUDGETED:
        engine.run_trials(inst, contract_policy(name, inst), n, 3, shared_durations=True)
        assert counted.calls == 3 * n - 1


def test_run_trials_stays_scalar_without_a_batched_rule(monkeypatch):
    class Cautious(policies.RbaPolicy):       # changes decide, inherits decide_batch
        def decide(self, t, arrival, state):
            return None if t % 2 else super().decide(t, arrival, state)

    class Rich(policies.RbaPolicy):           # changes score, inherits score_batch
        def score(self, lv, bid):
            return lv.res.reward

    counted = CountedSimulate()
    monkeypatch.setattr(engine, "simulate", counted)
    n = engine.BATCH_MIN_TRIALS
    for scalar in (Cautious, Rich):
        calls = counted.calls
        engine.run_trials(parity_instance("battery_matching"), scalar(), n, 3)
        assert counted.calls == calls + n
        with pytest.raises(ValueError, match="no batched rule"):
            engine.lockstep(parity_instance("battery_matching"), scalar(), n, 3)
    assortment = contract_instance("assortment")
    for name in ("rba_assortment", "astalg"):
        engine.run_trials(assortment, policies.make_policy(name), n, 3)
    assert counted.calls == 4 * n
