"""The block-priced fluid ledger against the per-resource reference
ledger (`helpers.ReferenceInventory`): every guide output, Y and lost equal
bit for bit after every step."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import ReferenceInventory, one_resource_ledger, reference_guide
from test_acceptance import assortment_battery
from test_policies import inf_assortment_instance, repeated_clock_instance
from reuse_alloc import fluid, model, policies
from reuse_alloc.assortment import MNL, AstgalgGuide
from reuse_alloc.distributions import (Deterministic, Exponential, MixtureWithInf, NonReusable, TwoPointInf,
                                       Uniform, WeibullIFR, ZeroOrInf)
from reuse_alloc.generators import BatteryParams, example_a1, random_battery

FAMILIES = (Deterministic(1.0), Deterministic(0.0), TwoPointInf(1.0, 0.5), TwoPointInf(0.0, 0.6),
            ZeroOrInf(0.4), ZeroOrInf(0.0), Exponential(0.8), Uniform(0.5, 2.0), Uniform(0.0, 1.0),
            WeibullIFR(1.5, 2.0), MixtureWithInf(0.7, Exponential(0.8)), MixtureWithInf(0.6, Deterministic(0.0)),
            NonReusable())


def galg(variant="exact", eps=0.0):
    return lambda inst: policies.GalgGuide(inst, variant=variant, eps=eps)


def assert_steps_match(make, inst, check_conservation=False):
    """Step the guide on the inventory and on the reference side by side."""
    fast, ref = make(inst), reference_guide(make, inst)
    for t, arrival in enumerate(inst.arrivals):
        assert fast.step(arrival) == ref.step(arrival), t
        assert fast.allocs[-1] == ref.allocs[-1], t
        for rid, want in ref.inv.state.items():
            got = fast.inv.state[rid]
            assert got.Y.tobytes() == want.Y.tobytes(), (t, rid)
            assert got.lost.tobytes() == want.lost.tobytes(), (t, rid)
        if check_conservation:
            assert fast.inv.conservation_error() <= 1e-9
    return fast


def every_family_instance(n_arrivals=300, burst=True):
    """One resource per family and up to four edges per arrival; with
    `burst`, every seventh arrival comes at its predecessor's time."""
    n = len(FAMILIES)
    res = tuple(model.Resource(i, 3 + i % 4, 1.0 + 0.1 * i, d) for i, d in enumerate(FAMILIES))
    times, now = [], 0.0
    for t in range(n_arrivals):
        if not burst or t % 7 != 3:
            now += 0.05 + 0.3 * ((t * 37) % 11) / 11
        times.append(round(now, 6))
    arrivals = tuple(model.Arrival(tm, model.MatchingEdges(frozenset({t % n, (3 * t + 1) % n, (7 * t + 5) % n,
                                                                      (t // 3) % n})))
                     for t, tm in enumerate(times))
    return model.Instance(mode=model.MATCHING, resources=res, arrivals=arrivals)


def mixed_modes_matching():
    params = BatteryParams(n_instances=2, n_resources=8, n_arrivals=2000, capacity_range=(20, 80),
                           dist_mix=("exponential", "uniform", "weibull", "deterministic", "two_point_inf"),
                           edge_prob=0.6)
    return random_battery(params, 20)


@pytest.mark.parametrize("variant,eps", [("exact", 0.0), ("quant", 0.3), ("thresh", 0.2)])
@pytest.mark.parametrize("burst", [False, True])
def test_every_family_matches_reference(variant, eps, burst):
    assert_steps_match(galg(variant, eps), every_family_instance(burst=burst), check_conservation=True)


@pytest.mark.parametrize("variant,eps", [("exact", 0.0), ("quant", 0.3), ("thresh", 0.2)])
def test_repeated_clocks_match_reference(variant, eps):
    assert_steps_match(galg(variant, eps), repeated_clock_instance(), check_conservation=True)


@pytest.mark.parametrize("variant,eps", [("exact", 0.0), ("quant", 0.1)])
def test_example_a1_bursts_match_reference(variant, eps):
    guide = assert_steps_match(galg(variant, eps), example_a1(150))
    assert guide.inv.conservation_error() <= 1e-9


@pytest.mark.parametrize("idx", range(2))
@pytest.mark.parametrize("variant,eps", [("exact", 0.0), ("quant", 0.1)])
def test_mixed_modes_matching_battery_matches_reference(idx, variant, eps):
    guide = assert_steps_match(galg(variant, eps), mixed_modes_matching()[idx])
    assert guide.inv.conservation_error() <= 1e-9


@pytest.mark.parametrize("idx", range(4))
def test_assortment_guide_matches_reference(idx):
    inst = ([inf_assortment_instance()] + assortment_battery())[idx]
    assert_steps_match(AstgalgGuide, inst, check_conservation=True)


@pytest.mark.parametrize("usage", FAMILIES[:-1])
def test_parcels_below_prune_tol_match_reference(usage):
    # Tiny parcels booked by hand along a schedule with repeated times, each
    # on its own bucket next to ordinary ones, so they are dropped at
    # different rows of a block (or carried into the next).
    res = (model.Resource(0, 6, 1.0, usage), model.Resource(1, 2, 1.0, Exponential(2.0)))
    times = [0.0, 0.0, 0.3, 0.3, 0.3, 1.0, 1.7, 1.7, 2.5, 4.0, 4.0, 6.0, 9.0, 40.0, 41.0, 90.0] * 3
    times = [t + 100.0 * (i // 16) for i, t in enumerate(times)]
    inst = model.Instance(mode=model.MATCHING, resources=res,
                          arrivals=tuple(model.Arrival(t, model.MatchingEdges(frozenset({0, 1}))) for t in times))
    fast, ref = fluid.FluidLedger(inst), ReferenceInventory(inst)
    masses = (2e-16, 0.4, 9e-16, 1.2e-15, 0.05, 0.0, 3e-15, 0.25)
    for t, now in enumerate(times):
        fast.advance(now)
        ref.advance(now)
        for k in range(3):
            g, m = (t + k) % 6, masses[(3 * t + k) % len(masses)]
            fast.state[0].consume(g, min(m, fast.state[0].Y[g]), now)
            ref.state[0].consume(g, min(m, ref.state[0].Y[g]), now)
        fast.state[1].consume(t % 2, 1e-16 * (t % 3), now)
        ref.state[1].consume(t % 2, 1e-16 * (t % 3), now)
        for rid in (0, 1):
            assert fast.state[rid].Y.tobytes() == ref.state[rid].Y.tobytes(), (t, rid)
            assert fast.state[rid].lost.tobytes() == ref.state[rid].lost.tobytes(), (t, rid)
        assert fast.conservation_error() <= 1e-9


def test_an_advance_off_the_arrival_times_is_refused():
    # Each arrival's time in turn, repeated times included; any other time,
    # or any time after the last arrival's, raises and changes nothing.
    ledger, rf = one_resource_ledger(model.Resource(0, 4, 1.0, Exponential(0.5)), [0.0, 0.5, 0.5, 1.25])
    ledger.advance(0.0)
    rf.consume(3, 0.5, 0.0)
    with pytest.raises(ValueError, match="along the arrival times"):
        ledger.advance(0.25)
    ledger.advance(0.5)
    ledger.advance(0.5)
    with pytest.raises(ValueError, match="along the arrival times"):
        ledger.advance(0.5)
    ledger.advance(1.25)
    with pytest.raises(ValueError, match="along the arrival times"):
        ledger.advance(2.0)
    want, _ = one_resource_ledger(model.Resource(0, 4, 1.0, Exponential(0.5)), [0.0, 0.5, 0.5, 1.25])
    want.advance(0.0)
    want.state[0].consume(3, 0.5, 0.0)
    for now in (0.5, 0.5, 1.25):
        want.advance(now)
    assert rf.Y.tobytes() == want.state[0].Y.tobytes()


def test_dropped_parcels_leave_the_ledger_at_the_next_block(monkeypatch):
    monkeypatch.setattr(fluid, "TABLE_CELLS", 1)        # every block is one row
    ledger, rf = one_resource_ledger(model.Resource(0, 3, 1.0, TwoPointInf(1.0, 0.5)), [0.0, 2.0, 3.0])
    ledger.advance(0.0)
    rf.consume(2, 0.5, 0.0)
    rf.consume(1, 0.25, 0.0)
    ledger.advance(2.0)         # both reach cdf(+inf) here and are dropped
    assert rf.lost.tolist() == [0.0, 0.125, 0.25]
    ledger.advance(3.0)         # the next block: it carries nothing over
    assert ledger._n == 0


def test_a_finished_guide_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        guide = policies.run_galg(example_a1(20))
        ledger = weakref.ref(guide.inv)
        del guide
        assert ledger() is None
    finally:
        gc.enable()


# --- property test: small random instances over every family --------------------

@st.composite
def small_instances(draw, mode):
    n_res = draw(st.integers(1, 4))
    res = tuple(model.Resource(i, draw(st.integers(1, 6)), draw(st.sampled_from((0.5, 1.0, 1.5, 2.0))),
                               draw(st.sampled_from(FAMILIES))) for i in range(n_res))
    gaps = draw(st.lists(st.sampled_from((0.0, 0.0, 0.1, 0.35, 0.5, 1.0, 2.5)), min_size=1, max_size=40))
    times = np.cumsum(gaps).round(6).tolist()
    arrivals = []
    for now in times:
        ids = draw(st.sets(st.integers(0, n_res - 1), min_size=1))
        if mode == model.MATCHING:
            arrivals.append(model.Arrival(now, model.MatchingEdges(frozenset(ids))))
        else:
            arrivals.append(model.Arrival(now, model.AssortmentRequest(0, {i: draw(st.integers(1, 2))
                                                                          for i in sorted(ids)})))
    cms = ()
    if mode == model.ASSORTMENT:
        cms = (MNL(v0=draw(st.sampled_from((0.3, 1.0))),
                   weights={i: draw(st.sampled_from((0.5, 1.0, 2.5))) for i in range(n_res)}),)
    return model.Instance(mode=mode, resources=res, arrivals=tuple(arrivals), choice_models=cms)


@settings(max_examples=60)
@given(inst=small_instances(model.MATCHING),
       variant=st.sampled_from([("exact", 0.0), ("quant", 0.5), ("thresh", 0.25)]))
def test_matching_guide_property(inst, variant):
    assert_steps_match(galg(*variant), inst, check_conservation=True)


@settings(max_examples=40)
@given(inst=small_instances(model.ASSORTMENT))
def test_assortment_guide_property(inst):
    assert_steps_match(AstgalgGuide, inst, check_conservation=True)
