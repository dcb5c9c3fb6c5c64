import dataclasses
import itertools
import math
import random

import pytest

from helpers import verify_probability_match
from test_acceptance import assortment_battery
from reuse_alloc import assortment, engine, model, policies, rng
from reuse_alloc.assortment import (MNL, AstalgPolicy, ElementNotInSet, ExplicitTable, RbaAssortmentPolicy,
                                    TargetTooLarge, _probability_match_generic, assortment_oracle,
                                    probability_match, run_astgalg, validate_choice_model)
from reuse_alloc.distributions import Exponential, NonReusable, TwoPointInf


def mnl_table(items, v0, weights):
    """Tabulate an MNL model; inherits weak substitution by construction."""
    phi = {}
    for r in range(1, len(items) + 1):
        for combo in itertools.combinations(items, r):
            S = frozenset(combo)
            denom = v0 + sum(weights[i] for i in combo)
            phi[S] = {i: weights[i] / denom for i in combo}
    return ExplicitTable(items=tuple(items), phi=phi)


# --- choice probabilities ---------------------------------------------------------

def test_choice_prob_symmetric_mnl():
    cm = MNL(v0=1.0, weights={1: 1.0, 2: 1.0})
    assert cm.prob(frozenset({1, 2}), 1) == pytest.approx(1.0 / 3.0)


def test_choice_prob_lopsided_mnl():
    cm = MNL(v0=0.01, weights={1: 100.0, 2: 1.0})
    assert cm.prob(frozenset({1, 2}), 1) == pytest.approx(100.0 / 101.01)
    assert cm.prob(frozenset({1, 2}), 1) == pytest.approx(0.99000, abs=5e-6)


def test_choice_prob_forced_singleton():
    cm = MNL(v0=0.0, weights={1: 3.0})
    assert cm.prob(frozenset({1}), 1) == 1.0


def test_choice_prob_requires_membership():
    cm = MNL(v0=1.0, weights={1: 1.0, 2: 1.0})
    with pytest.raises(ElementNotInSet):
        cm.prob(frozenset({2}), 1)


def test_weak_substitution_validation():
    cm = mnl_table([0, 1, 2], 0.5, {0: 1.0, 1: 2.0, 2: 0.5})
    assert validate_choice_model(cm) == []
    bad_phi = {S: dict(row) for S, row in cm.phi.items()}
    bad_phi[frozenset({0, 1})][0] = 0.99  # exceeds phi({0},0)
    bad = ExplicitTable(items=(0, 1, 2), phi=bad_phi)
    assert validate_choice_model(bad)


def test_a_bool_is_not_a_choice_parameter():
    assert validate_choice_model(MNL(v0=True, weights={0: 1.0})) == [
        "mnl v0 and weights must be finite and nonnegative"]
    cm = mnl_table([0, 1], 0.5, {0: 1.0, 1: 2.0})
    phi = {S: dict(row) for S, row in cm.phi.items()}
    phi[frozenset({0})][0] = False
    assert validate_choice_model(ExplicitTable(items=(0, 1), phi=phi)) == [
        "choice probabilities of [0] must be finite and nonnegative"]


def test_a_large_table_is_checked_for_completeness():
    """Weak substitution is checked only up to 16 items, but completeness and
    the values at every size: a 17-item table of the singletons and the full
    set lacks 131,053 subsets."""
    items = tuple(range(17))
    phi = {frozenset({i}): {i: 0.5} for i in items}
    phi[frozenset(items)] = {i: 1.0 / 17 for i in items}
    missing = "table lists 18 of the 131071 nonempty subsets of the items"
    assert validate_choice_model(ExplicitTable(items=items, phi=phi)) == [missing]
    phi[frozenset({3})] = {3: 1.5}
    assert validate_choice_model(ExplicitTable(items=items, phi=phi)) == ["choice probabilities of [3] exceed 1",
                                                                          missing]


@pytest.mark.parametrize("key", [frozenset(), frozenset({0, 7})])
def test_a_table_entry_outside_the_items_is_rejected(key):
    cm = mnl_table([0, 1, 2], 0.5, {0: 1.0, 1: 2.0, 2: 0.5})
    phi = {S: dict(row) for S, row in cm.phi.items() if S != frozenset({0, 1, 2})}
    phi[key] = {}
    assert validate_choice_model(ExplicitTable(items=(0, 1, 2), phi=phi)) == [
        f"table entry {sorted(key)} is not a nonempty subset of the items"]


# --- probability match -------------------------------------------------------------

def test_probability_match_full_targets_single_set():
    cm = MNL(v0=1.0, weights={1: 2.0, 2: 1.0})
    targets = {s: cm.prob(frozenset({1, 2}), s) for s in (1, 2)}
    out = probability_match({1, 2}, cm, targets)
    assert len(out) == 1
    A, u = out[0]
    assert A == frozenset({1, 2}) and u == pytest.approx(1.0)


def test_probability_match_hand_example():
    # Hand-executed run: first set {1,2} at weight 3/4 (item 2 binds), then
    # {1} at 1/6; direct verification of the per-item identity is the oracle.
    cm = MNL(v0=1.0, weights={1: 1.0, 2: 1.0})
    targets = {1: 1.0 / 3.0, 2: 1.0 / 4.0}
    out = _probability_match_generic([1, 2], cm, targets)
    assert [(sorted(A), u) for A, u in out] == [
        ([1, 2], pytest.approx(0.75)), ([1], pytest.approx(1.0 / 6.0))]
    assert sum(u for _, u in out) == pytest.approx(11.0 / 12.0)
    verify_probability_match(out, cm, [1, 2], targets)


def test_probability_match_zero_targets():
    cm = MNL(v0=1.0, weights={1: 1.0, 2: 1.0})
    assert probability_match({1, 2}, cm, {1: 0.0, 2: 0.0}) == []


def test_probability_match_rejects_oversized_target():
    cm = MNL(v0=1.0, weights={1: 1.0, 2: 1.0})
    with pytest.raises(TargetTooLarge):
        probability_match({1, 2}, cm, {1: 0.5, 2: 0.1})


def test_probability_match_handles_zero_weight_items():
    cm = MNL(v0=1.0, weights={1: 0.0, 2: 1.0})
    targets = {1: 0.0, 2: 0.25}
    out = _probability_match_generic([1, 2], cm, targets)
    verify_probability_match(out, cm, [1, 2], targets)
    assert all(1 not in A for A, _ in out)


def test_probability_match_properties_random_mnl():
    rnd = random.Random(71)
    for _ in range(200):
        m = rnd.randint(1, 10)
        items = list(range(m))
        weights = {i: math.exp(rnd.uniform(math.log(0.01), math.log(100.0))) for i in items}
        cm = MNL(v0=math.exp(rnd.uniform(-2, 2)), weights=weights)
        targets = {i: cm.prob(frozenset(items), i) * rnd.random() for i in items}
        gen = _probability_match_generic(items, cm, targets)
        fast = probability_match(items, cm, targets)
        verify_probability_match(gen, cm, items, targets, tol=1e-9)
        verify_probability_match(fast, cm, items, targets, tol=1e-9)
        assert len(gen) == len(fast)
        for (A1, u1), (A2, u2) in zip(gen, fast):
            assert A1 == A2
            assert u1 == pytest.approx(u2, abs=1e-9)


def test_probability_match_generic_works_on_tables():
    cm = mnl_table([0, 1, 2], 1.0, {0: 1.0, 1: 2.0, 2: 4.0})
    targets = {0: 0.05, 1: 0.2, 2: 0.3}
    out = probability_match([0, 1, 2], cm, targets)
    verify_probability_match(out, cm, [0, 1, 2], targets)


# --- oracle -------------------------------------------------------------------------

def test_oracle_equal_weights_full_set():
    cm = MNL(v0=1.0, weights={i: 1.0 for i in range(4)})
    w = {i: 2.0 for i in range(4)}
    assert assortment_oracle(cm, model.AllSubsets(), w) == frozenset(range(4))


def test_oracle_zero_weight_item_is_dropped_without_loss():
    cm = MNL(v0=1.0, weights={0: 1.0, 1: 1.0, 2: 1.0})
    w = {0: 2.0, 1: 1.5, 2: 0.0}
    best = assortment_oracle(cm, model.AllSubsets(), w)
    assert 2 not in best
    def val(S):
        return sum(w[i] * cm.prob(frozenset(S), i) for i in S)
    assert val(best) >= val(frozenset({0, 1, 2})) - 1e-12
    assert {0, 1} <= best


def test_oracle_explicit_table_matches_brute_force():
    rnd = random.Random(5)
    for _ in range(20):
        weights = {i: rnd.uniform(0.1, 3.0) for i in range(3)}
        cm = mnl_table([0, 1, 2], rnd.uniform(0.1, 2.0), weights)
        w = {i: rnd.uniform(0.0, 2.0) for i in range(3)}
        got = assortment_oracle(cm, model.AllSubsets(), w)
        best_val, best = 0.0, frozenset()
        for r in range(1, 4):
            for combo in itertools.combinations(range(3), r):
                S = frozenset(combo)
                v = sum(w[i] * cm.prob(S, i) for i in S)
                if v > best_val:
                    best_val, best = v, S
        assert sum(w[i] * cm.prob(got, i) for i in got) == pytest.approx(best_val, abs=1e-12)


def test_oracle_respects_cardinality_and_explicit_lists():
    cm = MNL(v0=1.0, weights={0: 1.0, 1: 1.0, 2: 1.0})
    w = {0: 3.0, 1: 2.0, 2: 1.0}
    assert assortment_oracle(cm, model.MaxCardinality(1), w) == frozenset({0})
    listed = model.ExplicitList(sets=(frozenset({1}), frozenset({2}), frozenset({1, 2})))
    assert assortment_oracle(cm, listed, w) <= frozenset({1, 2})


# --- fluid guide for assortments -----------------------------------------------------

def assortment_instance(capacity, bid, v0=0.0, weight=1.0, n_arrivals=1, usage=None):
    cm = MNL(v0=v0, weights={0: weight})
    return model.Instance(
        mode=model.ASSORTMENT,
        resources=(model.Resource(0, capacity, 1.0, usage or NonReusable()),),
        arrivals=tuple(model.Arrival(float(t), model.AssortmentRequest(0, {0: bid}))
                       for t in range(n_arrivals)),
        choice_models=(cm,),
    )


def test_astgalg_forced_single_resource():
    guide = run_astgalg(assortment_instance(capacity=5, bid=1))
    assert guide.collections[0] == [(frozenset({0}), pytest.approx(1.0))]
    assert guide.allocs[0] == [(0, 5.0, pytest.approx(1.0))]


def test_astgalg_bid_scaling_consumes_units_per_weight():
    guide = run_astgalg(assortment_instance(capacity=10, bid=2))
    assert guide.collections[0][0][1] == pytest.approx(0.5)  # u = Y(z)/(2*1)
    total_units = sum(m for _, _, m in guide.allocs[0])
    assert total_units == pytest.approx(2.0)
    assert sum(u for _, u in guide.collections[0]) <= 1.0 + 1e-9


def test_astgalg_matches_galg_on_matching_reduction():
    # Matching instance recast with v0 = 0 and unit weights: the oracle is
    # forced to singletons, so the fluid allocations must coincide.
    res = (model.Resource(0, 3, 1.0, TwoPointInf(1.0, 0.5)),
           model.Resource(1, 4, 1.5, Exponential(0.7)))
    times = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    match_inst = model.Instance(
        mode=model.MATCHING, resources=res,
        arrivals=tuple(model.Arrival(t, model.MatchingEdges(frozenset({0, 1}))) for t in times))
    cm = MNL(v0=0.0, weights={0: 1.0, 1: 1.0})
    asst_inst = model.Instance(
        mode=model.ASSORTMENT, resources=res,
        arrivals=tuple(model.Arrival(t, model.AssortmentRequest(0, {0: 1, 1: 1})) for t in times),
        choice_models=(cm,))
    g = policies.run_galg(match_inst)
    ag = run_astgalg(asst_inst)
    for t in range(len(times)):
        consumed = {}
        for rid, _, mass in ag.allocs[t]:
            consumed[rid] = consumed.get(rid, 0.0) + mass
        for rid in (0, 1):
            assert consumed.get(rid, 0.0) == pytest.approx(g.x[t].get(rid, 0.0), abs=1e-9)


# --- astalg ---------------------------------------------------------------------------

def test_astalg_singleton_probability():
    c = 25
    inst = assortment_instance(capacity=c, bid=1)
    pol = AstalgPolicy()
    s = engine.run_trials(inst, pol, 40_000, 19)
    delta = math.sqrt(2.0 * math.log(c) / c)
    want = 1.0 / (1.0 + delta)
    se = math.sqrt(want * (1 - want) / 40_000)
    assert s.mean == pytest.approx(want, abs=4 * se)


def test_astalg_empty_offer_cases():
    # Capacity exhausted by the first arrival: the second sees no usable
    # resource and must offer nothing.
    inst = assortment_instance(capacity=1, bid=1, n_arrivals=2)
    tr = engine.simulate(inst, AstalgPolicy(), 3, 0)
    if tr.records[0].resource == 0:
        assert tr.records[1].offered == ()
        assert tr.records[1].reward == 0.0


def test_astalg_never_offers_short_stock():
    inst = model.Instance(
        mode=model.ASSORTMENT,
        resources=(model.Resource(0, 4, 1.0, NonReusable()),),
        arrivals=tuple(model.Arrival(float(t), model.AssortmentRequest(0, {0: 3}))
                       for t in range(4)),
        choice_models=(MNL(v0=0.2, weights={0: 5.0}),),
    )
    for k in range(50):
        tr = engine.simulate(inst, AstalgPolicy(), 7, k, check_invariants=True)
        for rec in tr.records:
            if rec.offered:
                assert rec.resource is None or len(rec.units) == 3


def test_rba_assortment_oracle_policy_runs():
    inst = assortment_instance(capacity=2, bid=1, v0=0.5, n_arrivals=3)
    tr = engine.simulate(inst, policies.make_policy("rba_assortment"), 5, 0, check_invariants=True)
    assert tr.total_reward >= 0.0


def colliding_instance():
    """Resources 0, 8 and 16 share a slot of a small frozenset table, so an
    equal set built in another order iterates, and MNL sums, in another order."""
    rnd = random.Random(816)
    ids = (0, 3, 8, 16)
    res = tuple(model.Resource(i, rnd.randint(2, 6), round(rnd.uniform(0.5, 2.0), 3),
                               rnd.choice([Exponential(0.8), TwoPointInf(1.0, 0.5)])) for i in ids)
    cm = MNL(v0=0.31, weights={0: 0.11, 3: 0.21, 8: 0.32, 16: 0.35})  # sums of 3 that hang on their order
    arrivals, time = [], 0.0
    for t in range(160):
        time += rnd.uniform(0.05, 0.4)
        bids = {i: rnd.randint(1, 2) for i in ids if rnd.random() < 0.8} or {16: 1}
        feasible = model.MaxCardinality(2) if t % 3 == 0 else model.AllSubsets()
        arrivals.append(model.Arrival(round(time, 6), model.AssortmentRequest(0, bids, feasible)))
    return model.Instance(mode=model.ASSORTMENT, resources=res, arrivals=tuple(arrivals), choice_models=(cm,))


class KeepsNothing(dict):
    """A table that stores nothing: every lookup misses and is computed afresh."""

    def __setitem__(self, key, value):
        pass


def untabled_trial(inst, name, seed, k):
    """Trial k with a fresh policy and instance whose tables keep nothing."""
    inst = dataclasses.replace(inst)
    inst.__dict__["offer_probs"] = KeepsNothing()
    pol = policies.make_policy(name)
    pol.prepare(inst)
    if name == "astalg":
        pol._pieces = KeepsNothing()
    return engine.simulate(inst, pol, seed, k)


@pytest.mark.parametrize("name", ["astalg", "rba_assortment"])
def test_a_run_equals_a_fresh_policy_and_instance_per_trial(monkeypatch, name):
    """The per-run tables (the engine's choice probabilities, astalg's
    probability-match pieces) give every trial bit for bit what it gets
    without them, also where equal sets iterate in different orders: every
    rng.pick sees the same weights."""
    picks = []
    pick = rng.pick
    monkeypatch.setattr(rng, "pick", lambda u, weighted: picks.append((u, tuple(weighted))) or pick(u, picks[-1][1]))
    inst, pol = colliding_instance(), policies.make_policy(name)
    traces = []
    summary = engine.run_trials(inst, pol, 12, 5, traces=traces)
    run_picks, picks[:] = picks[:], []
    fresh = [untabled_trial(inst, name, 5, k) for k in range(12)]
    assert picks == run_picks
    assert [tr.records for tr in traces] == [tr.records for tr in fresh]
    assert summary == engine.summarize(fresh)
    # Some set was sampled (astalg) or offered (rba_assortment) in two iteration orders.
    orders = [sampled for _, sampled, _ in pol._pieces] if name == "astalg" else [o for _, o in inst.offer_probs]
    assert len(set(map(frozenset, orders))) < len(set(orders))


def test_astalg_probability_matches_each_distinct_input_once(monkeypatch):
    inst = assortment_battery()[0]
    calls = []
    match = assortment.probability_match
    monkeypatch.setattr(assortment, "probability_match", lambda S, cm, targets:
                        calls.append((frozenset(S), tuple(sorted(targets.items())))) or match(S, cm, targets))
    engine.run_trials(inst, AstalgPolicy(), 30, 3)
    assert calls and len(calls) == len(set(calls))


def test_the_engine_computes_each_choice_probability_once(monkeypatch):
    """Over a run, the engine asks MNL.prob once per offered set (in its
    iteration order) and item; rba_assortment's MNL oracle asks none."""
    inst = assortment_battery()[0]
    calls = []
    prob = MNL.prob
    monkeypatch.setattr(MNL, "prob", lambda cm, S, i: calls.append((id(cm), tuple(S), i)) or prob(cm, S, i))
    engine.run_trials(inst, RbaAssortmentPolicy(), 30, 3)
    assert calls and len(calls) == len(set(calls))


def test_choice_model_json_round_trip():
    from reuse_alloc.assortment import choice_model_from_json, choice_model_to_json
    mnl = MNL(v0=0.01, weights={1: 100.0, 2: 1.0})
    assert choice_model_from_json(choice_model_to_json(mnl)) == mnl
    table = mnl_table([0, 1], 1.0, {0: 1.0, 1: 2.0})
    back = choice_model_from_json(choice_model_to_json(table))
    assert back.items == table.items
    for S, row in table.phi.items():
        for i, p in row.items():
            assert back.prob(S, i) == p


def test_probability_match_debug_mode_verifies_each_call():
    # The exact check of a collection passes a match and names a tampered one.
    cm = MNL(v0=1.0, weights={1: 1.0, 2: 1.0})
    targets = {1: 1.0 / 3.0, 2: 1.0 / 4.0}
    out = probability_match({1, 2}, cm, targets)
    assert sum(u for _, u in out) == pytest.approx(11.0 / 12.0)
    verify_probability_match(out, cm, [1, 2], targets)
    with pytest.raises(AssertionError, match="not nested"):
        verify_probability_match(out[::-1], cm, [1, 2], targets)
    with pytest.raises(AssertionError, match="item 1"):
        verify_probability_match([(A, u * 1.01) for A, u in out], cm, [1, 2], targets)
