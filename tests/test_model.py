import json
import math

import pytest

from reuse_alloc import model
from reuse_alloc.distributions import Exponential, NonReusable, TwoPointInf
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


def test_json_round_trip_exact():
    for inst in (two_resource_matching(times=(0.0, 0.1 + 0.2)), example_a1(3), mnl_counterexample()):
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
