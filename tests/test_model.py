import json
import math

import pytest

from helpers import fresh_objects

from reuse_alloc import model
from reuse_alloc.assortment import MNL, ExplicitTable
from reuse_alloc.distributions import (Deterministic, Exponential, MixtureWithInf, NonReusable, TwoPointInf, Uniform,
                                       WeibullIFR, ZeroOrInf)
from reuse_alloc.generators import example_a1, mnl_counterexample


def two_resource_matching(times=(0.0, 1.0)):
    return model.Instance(
        mode=model.MATCHING,
        resources=(
            model.Resource(0, 4, 1.0, NonReusable()),
            model.Resource(1, 9, 2.0, TwoPointInf(1.0, 0.5)),
        ),
        arrivals=tuple(model.Arrival(t, model.MatchingEdges(frozenset({0, 1}))) for t in times),
    )


def test_validate_well_formed():
    assert model.validate(two_resource_matching()) == []


def test_validate_time_ordering():
    bad = two_resource_matching(times=(2.0, 1.0))
    assert model.validate(bad) == ["times not nondecreasing at index 1"]


def test_validate_dangling_reference():
    inst = model.Instance(
        mode=model.MATCHING,
        resources=(model.Resource(0, 1, 1.0, NonReusable()), model.Resource(1, 1, 1.0, NonReusable())),
        arrivals=(model.Arrival(0.0, model.MatchingEdges(frozenset({7}))),),
    )
    assert model.validate(inst) == ["unknown resource 7 at arrival 0"]


def test_validate_rejects_non_finite_reward_and_time():
    inst = model.Instance(
        mode=model.MATCHING,
        resources=(model.Resource(0, 1, math.nan, NonReusable()),
                   model.Resource(1, 1, math.inf, NonReusable())),
        arrivals=(model.Arrival(math.nan, model.MatchingEdges(frozenset({0}))),),
    )
    assert model.validate(inst) == ["resource 0: reward must be finite and >= 0",
                                    "resource 1: reward must be finite and >= 0",
                                    "arrival 0: time must be finite and >= 0"]


def test_validate_reports_a_non_numeric_distribution_parameter():
    inst = model.Instance(
        mode=model.MATCHING,
        resources=(model.Resource(0, 2, 1.0, Exponential("x")),),
        arrivals=(model.Arrival(0.0, model.MatchingEdges(frozenset({0}))),),
    )
    assert model.validate(inst) == ["resource 0: Exponential rate must be a finite number, got 'x'"]


def test_validate_checks_a_bad_shared_demand_at_each_of_its_arrivals():
    # One bad demand object at three arrivals gives its messages three
    # times, in arrival order, as a fresh object per arrival does.
    res = (model.Resource(0, 2, 1.0, NonReusable()), model.Resource(1, 2, 1.0, NonReusable()))
    bad, good = model.BudgetedBids({0: -1, 7: 2, 1: 1.5}), model.BudgetedBids({0: 1, 1: 2})
    inst = model.Instance(model.BUDGETED, res, [model.Arrival(t, d) for t, d in
                                                ((0.0, bad), (1.0, good), (0.5, bad), (2.0, good), (3.0, bad))])
    assert model.validate(inst) == [
        "arrival 0: bid for resource 0 must be a nonnegative integer", "unknown resource 7 at arrival 0",
        "arrival 0: bid for resource 1 must be a nonnegative integer", "times not nondecreasing at index 2",
        "arrival 2: bid for resource 0 must be a nonnegative integer", "unknown resource 7 at arrival 2",
        "arrival 2: bid for resource 1 must be a nonnegative integer",
        "arrival 4: bid for resource 0 must be a nonnegative integer", "unknown resource 7 at arrival 4",
        "arrival 4: bid for resource 1 must be a nonnegative integer"]
    edges = model.MatchingEdges(frozenset([15, 0, 7]))
    inst = model.Instance(model.MATCHING, res, [model.Arrival(0.0, edges), model.Arrival(0.0, model.MatchingEdges(
        frozenset({0}))), model.Arrival(1.0, edges), model.Arrival(2.0, edges)])
    assert model.validate(inst) == [f"unknown resource {rid} at arrival {t}" for t in (0, 2, 3) for rid in (7, 15)]


def test_validate_checks_a_shared_arrival_object_at_each_of_its_places():
    # An arrival object used at several places is skipped only right after
    # a place where it gave no message: the NaN time, the shared bad demand
    # and the time that runs back each give their messages at every place.
    res = (model.Resource(0, 2, 1.0, NonReusable()), model.Resource(1, 2, 1.0, NonReusable()))
    edges = model.MatchingEdges(frozenset({0, 1}))
    nan, bad, late = (model.Arrival(math.nan, edges), model.Arrival(1.0, model.MatchingEdges(frozenset({0, 7}))),
                      model.Arrival(5.0, edges))
    inst = model.Instance(model.MATCHING, res, [nan, nan, nan, bad, bad, late, late, bad, late, bad, bad])
    assert model.validate(inst) == [
        "arrival 0: time must be finite and >= 0", "arrival 1: time must be finite and >= 0",
        "arrival 2: time must be finite and >= 0", "unknown resource 7 at arrival 3",
        "unknown resource 7 at arrival 4", "times not nondecreasing at index 7", "unknown resource 7 at arrival 7",
        "times not nondecreasing at index 9", "unknown resource 7 at arrival 9", "unknown resource 7 at arrival 10"]
    assert model.validate(inst) == model.validate(fresh_objects(inst))


def test_from_json_shares_only_edges_demands_alike_in_every_id_and_type():
    def objects(*demands):
        inst = model.from_json({"mode": "budgeted", "resources": [],
                                "arrivals": [{"time": 0.0, "demand": d} for d in demands]})
        assert len({id(a) for a in inst.arrivals}) == len(demands)
        return len({id(a.demand) for a in inst.arrivals})

    def edges(ids):
        return {"type": "edges", "resources": ids}

    def bids(b):
        return {"type": "bids", "bids": b}

    request = {"type": "assortment", "choice_model": 0, "bids": {"0": 1}}
    assert objects(edges([0, 1]), edges([0, 1]), edges(["a"]), edges(["a"])) == 2
    assert objects(edges([1]), edges([True]), edges([1.0]), edges([1.0])) == 4   # equal, but validate tells them apart
    assert objects(edges([-0.0]), edges([0.0]), edges([0])) == 3                 # equal, but written apart
    assert objects(edges([7, 15]), edges([15, 7])) == 2                          # equal sets that iterate apart
    assert objects(bids({"0": 1}), bids({"0": 1}), request, request) == 4        # one per arrival: keys cost more
def test_validate_is_pure():
    inst = two_resource_matching()
    assert model.validate(inst) == model.validate(inst)


def test_gamma_matching_all_unit_bids():
    assert model.gamma(two_resource_matching()) == 4.0


def test_gamma_budgeted():
    inst = model.Instance(
        mode=model.BUDGETED,
        resources=(model.Resource(0, 10, 1.0, NonReusable()),),
        arrivals=(
            model.Arrival(0.0, model.BudgetedBids({0: 2})),
            model.Arrival(1.0, model.BudgetedBids({0: 5})),
        ),
    )
    assert model.gamma(inst) == 2.0


def test_gamma_single_resource_unit_bids():
    inst = model.Instance(
        mode=model.MATCHING,
        resources=(model.Resource(0, 100, 1.0, NonReusable()),),
        arrivals=(model.Arrival(0.0, model.MatchingEdges(frozenset({0}))),),
    )
    assert model.gamma(inst) == 100.0
    # gamma never exceeds the smallest capacity when some bid is 1
    assert model.gamma(two_resource_matching()) <= 4


def test_gamma_no_edges():
    inst = model.Instance(
        mode=model.BUDGETED,
        resources=(model.Resource(0, 10, 1.0, NonReusable()),),
        arrivals=(model.Arrival(0.0, model.BudgetedBids({0: 0})),),
    )
    with pytest.raises(model.NoEdges):
        model.gamma(inst)


def test_zero_bid_means_no_edge():
    inst = model.Instance(
        mode=model.BUDGETED,
        resources=(model.Resource(0, 10, 1.0, NonReusable()), model.Resource(1, 5, 1.0, NonReusable())),
        arrivals=(model.Arrival(0.0, model.BudgetedBids({0: 0, 1: 3})),),
    )
    assert list(inst.edges()) == [(0, 1, 3)]


# One resource per duration family, with parameters that print with 17 digits.
_FAMILIES = (NonReusable(), Deterministic(0.1 + 0.2), TwoPointInf(1.0 / 3.0, 0.7), ZeroOrInf(0.1 + 0.7),
             Exponential(math.pi), Uniform(0.1, 0.1 + 0.2), WeibullIFR(2.0 / 3.0, 1.5),
             MixtureWithInf(0.3, Deterministic(2.0 / 3.0)), MixtureWithInf(1.0 / 7.0, Exponential(0.1)))


def _every_family():
    resources = tuple(model.Resource(i, i + 1, i / 3.0, dist) for i, dist in enumerate(_FAMILIES))
    edges = model.MatchingEdges(frozenset(range(len(_FAMILIES))))
    return model.Instance(mode=model.MATCHING, resources=resources,
                          arrivals=(model.Arrival(0.0, edges), model.Arrival(0.1 + 0.2, edges)))


def _bids():
    resources = (model.Resource(0, 4, 0.1, Exponential(1.0)), model.Resource(1, 9, 2.5, TwoPointInf(1.0, 0.5)))
    return model.Instance(mode=model.BUDGETED, resources=resources,
                          arrivals=(model.Arrival(0.0, model.BudgetedBids({0: 3, 1: 0})),
                                    model.Arrival(1.0 / 3.0, model.BudgetedBids({1: 2, 0: 1}))))


def _assortments():
    """Every feasibility under an MNL model and a table model."""
    resources = (model.Resource(0, 2, 1.0, NonReusable()), model.Resource(1, 3, 0.1 + 0.2, Deterministic(1.5)))
    mnl = MNL(v0=0.1, weights={0: 1.0 / 3.0, 1: 2.0})
    table = ExplicitTable(items=(0, 1), phi={frozenset({0}): {0: 0.5}, frozenset({1}): {1: 0.35},
                                             frozenset({0, 1}): {0: 0.3, 1: 0.1 + 0.2}})
    feasible = (model.AllSubsets(), model.MaxCardinality(1),
                model.ExplicitList((frozenset({0}), frozenset({1}), frozenset({0, 1}))))
    requests = [model.AssortmentRequest(cm, {0: 1, 1: 2}, f) for cm in (0, 1) for f in feasible]
    arrivals = tuple(model.Arrival(0.5 * t, d) for t, d in enumerate(requests))
    return model.Instance(mode=model.ASSORTMENT, resources=resources, arrivals=arrivals, choice_models=(mnl, table))


def test_json_round_trip_exact():
    for inst in (two_resource_matching(times=(0.0, 0.1 + 0.2)), example_a1(3), mnl_counterexample(),
                 _every_family(), _bids(), _assortments()):
        assert model.validate(inst) == []
        text = model.dumps(inst)
        back = model.loads(text)
        assert model.validate(back) == model.validate(inst)
        assert back == inst                 # field-exact, including float bits
        assert model.dumps(back) == text    # byte-stable serialization


def test_json_schema_shape():
    obj = model.to_json(two_resource_matching())
    assert set(obj) == {"mode", "resources", "arrivals", "choice_models"}
    assert obj["resources"][0] == {"id": 0, "capacity": 4, "reward": 1.0, "usage": {"type": "non_reusable"}}
    assert obj["arrivals"][0] == {"time": 0.0, "demand": {"type": "edges", "resources": [0, 1]}}
    json.dumps(obj)  # serializable as-is


def test_mode_demand_mismatch_flagged():
    inst = model.Instance(
        mode=model.BUDGETED,
        resources=(model.Resource(0, 1, 1.0, NonReusable()),),
        arrivals=(model.Arrival(0.0, model.MatchingEdges(frozenset({0}))),),
    )
    assert any("does not match mode" in msg for msg in model.validate(inst))


def test_validate_choice_model_coverage():
    from reuse_alloc.assortment import MNL
    inst = model.Instance(
        mode=model.ASSORTMENT,
        resources=(model.Resource(0, 1, 1.0, NonReusable()), model.Resource(1, 1, 1.0, NonReusable())),
        arrivals=(model.Arrival(0.0, model.AssortmentRequest(0, {0: 1, 1: 1})),),
        choice_models=(MNL(v0=1.0, weights={0: 1.0}),),  # resource 1 missing
    )
    assert any("no entry for resource 1" in m for m in model.validate(inst))


def test_choice_models_are_validated():
    from reuse_alloc.assortment import MNL, ExplicitTable
    res = (model.Resource(0, 1, 1.0, NonReusable()), model.Resource(1, 1, 1.0, NonReusable()))
    good = MNL(v0=1.0, weights={0: 1.0, 1: 2.0})
    cases = [(MNL(v0=math.nan, weights={0: 1.0, 1: 1.0}), "mnl v0 and weights must be finite and nonnegative"),
             (MNL(v0=1.0, weights={0: math.inf, 1: 1.0}), "mnl v0 and weights must be finite and nonnegative"),
             (MNL(v0=1.0, weights={0: "a", 1: 1.0}), "mnl v0 and weights must be finite and nonnegative"),
             (ExplicitTable(items=(0, 1), phi={frozenset({0}): {0: math.nan}, frozenset({1}): {1: 0.5},
                                               frozenset({0, 1}): {0: 0.2, 1: 0.2}}),
              "choice probabilities of [0] must be finite and nonnegative")]
    for cm, message in cases:
        inst = model.Instance(mode=model.ASSORTMENT, resources=res,
                              arrivals=(model.Arrival(0.0, model.AssortmentRequest(1, {0: 1, 1: 1})),),
                              choice_models=(good, cm))
        assert model.validate(inst) == [f"choice model 1: {message}"]


def test_valid_choice_models_still_validate():
    from test_acceptance import assortment_battery
    for inst in [*assortment_battery(), mnl_counterexample()]:
        assert model.validate(inst) == []
