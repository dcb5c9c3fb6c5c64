import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_engine import EVERY_FAMILY

from reuse_alloc import distributions as dist
from reuse_alloc import rng
from reuse_alloc.distributions import (INF, Deterministic, DurationStreamKey, Exponential,
                                       MixtureWithInf, NonReusable, TwoPointInf, Uniform,
                                       UnsupportedDistribution, WeibullIFR, ZeroOrInf)

ALL_VARIANTS = [
    Deterministic(2.0),
    TwoPointInf(d=1.0, p=0.5),
    ZeroOrInf(p=0.5),
    Exponential(rate=1.0),
    Uniform(lo=0.0, hi=1.0),
    WeibullIFR(scale=1.0, shape=2.0),
    MixtureWithInf(p_finite=0.9, base=Exponential(rate=1.0)),
    NonReusable(),
]


def test_cdf_two_point_below_and_at_atom():
    d = TwoPointInf(d=1.0, p=0.5)
    assert d.cdf(0.5) == 0.0
    assert d.cdf(1.0) == 0.5  # atom included: right-continuous
    assert d.cdf(5.0) == 0.5


def test_cdf_exponential_closed_form():
    e = Exponential(rate=1.0)
    assert e.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert e.cdf(1.0) == pytest.approx(0.63212, abs=5e-6)


def test_mass_at_inf():
    assert 1 - TwoPointInf(1.0, 0.5).cdf(INF) == 0.5
    assert 1 - Exponential(1.0).cdf(INF) == 0.0
    assert 1 - MixtureWithInf(0.9, Exponential(1.0)).cdf(INF) == pytest.approx(0.1)
    assert 1 - NonReusable().cdf(INF) == 1.0
    assert 1 - ZeroOrInf(0.25).cdf(INF) == 0.75


def test_cdf_monotone_on_grid():
    ts = np.linspace(0.0, 20.0, 400)
    for d in ALL_VARIANTS:
        vals = np.asarray(d.cdf(ts), dtype=float)
        assert (np.diff(vals) >= -1e-15).all()
        assert vals.min() >= 0.0
        assert vals.max() <= d.cdf(INF) + 1e-15


def test_sample_deterministic_and_nonreusable():
    key = DurationStreamKey(0, 1, 1)
    assert dist.sample(Deterministic(2.0), key, 9) == 2.0
    assert dist.sample(NonReusable(), key, 9) == INF


def test_sample_bit_identical_for_same_key():
    d = Exponential(0.7)
    key = DurationStreamKey(3, 2, 5)
    assert dist.sample(d, key, 42) == dist.sample(d, key, 42)
    assert dist.sample(d, key, 42) != dist.sample(d, DurationStreamKey(3, 2, 6), 42)


def test_two_point_long_run_frequency():
    # Counting oracle over one million distinct keys.
    d = TwoPointInf(d=1.0, p=0.5)
    us = rng.uniform_array(2024, (rng.TAG_DURATION, 7, 1), np.arange(1_000_000))
    finite = np.isfinite(d.sample_u(us))
    assert abs(finite.mean() - 0.5) < 0.002


@pytest.mark.parametrize("d", [Exponential(1.3), Uniform(0.5, 2.0), WeibullIFR(1.0, 2.0)])
def test_sample_cdf_consistency_ks(d):
    us = rng.uniform_array(5, (rng.TAG_DURATION, 1, 0), np.arange(100_000))
    xs = np.sort(np.asarray(d.sample_u(us)))
    emp_hi = np.arange(1, xs.size + 1) / xs.size
    emp_lo = np.arange(0, xs.size) / xs.size
    cdf_vals = np.asarray(d.cdf(xs))
    ks = max(np.abs(emp_hi - cdf_vals).max(), np.abs(emp_lo - cdf_vals).max())
    assert ks < 0.01


def test_mixture_sampling_split():
    d = MixtureWithInf(p_finite=0.9, base=Exponential(1.0))
    us = rng.uniform_array(11, (rng.TAG_DURATION, 2, 0), np.arange(200_000))
    xs = np.asarray(d.sample_u(us))
    finite = np.isfinite(xs)
    assert abs(finite.mean() - 0.9) < 0.005
    # The finite branch must still follow the base law.
    assert abs(xs[finite].mean() - 1.0) < 0.02


def test_compute_L_non_increasing_densities():
    assert dist.compute_L(Exponential(1.0), 0.1, grid=1e-3) == pytest.approx(1.0, abs=2e-3)
    assert dist.compute_L(Uniform(0.0, 1.0), 0.1, grid=1e-3) == pytest.approx(1.0, abs=2e-3)


def test_compute_L_weibull_sqrt_trend():
    # Oracle: the grid maximizer itself at a finer grid; the scaled values
    # L(eps)*eps / sqrt(eps) must stay within a constant band across eps.
    vals = []
    for eps in (0.04, 0.01, 0.0025):
        L = dist.compute_L(WeibullIFR(1.0, 2.0), eps, grid=5e-4)
        vals.append(L * eps / math.sqrt(eps))
    assert max(vals) / min(vals) < 1.5


def test_compute_L_rejects_atoms():
    with pytest.raises(UnsupportedDistribution):
        dist.compute_L(TwoPointInf(1.0, 0.5), 0.1)
    with pytest.raises(UnsupportedDistribution):
        dist.compute_L(Deterministic(1.0), 0.1)


def test_json_round_trip_all_variants():
    for d in ALL_VARIANTS:
        assert dist.from_json(dist.to_json(d)) == d


def test_validate_flags_bad_parameters():
    assert dist.validate(TwoPointInf(d=-1.0, p=0.5))
    assert dist.validate(Uniform(lo=2.0, hi=1.0))
    assert dist.validate(WeibullIFR(scale=1.0, shape=0.5))
    assert not dist.validate(Exponential(0.3))


@pytest.mark.parametrize("d, want", [
    (Exponential("x"), ["Exponential rate must be a finite number, got 'x'"]),
    (Exponential(math.nan), ["Exponential rate must be a finite number, got nan"]),
    (Uniform(0.0, INF), ["Uniform hi must be a finite number, got inf"]),
    (Deterministic(True), ["Deterministic d must be a finite number, got True"]),
    (WeibullIFR(None, 2.0), ["WeibullIFR scale must be a finite number, got None"]),
    (MixtureWithInf(math.nan, Exponential(-1.0)),
     ["MixtureWithInf p_finite must be a finite number, got nan", "exponential rate must be > 0"]),
])
def test_validate_reports_non_finite_parameters(d, want):
    assert dist.validate(d) == want


def test_validate_accepts_numpy_scalars():
    assert dist.validate(Uniform(np.float64(0.5), np.int64(2))) == []


_FINITE_BASES = tuple(d for d in EVERY_FAMILY if d.cdf(INF) == 1.0) + (WeibullIFR(1.2, 1.5),)
ONE_FORM = EVERY_FAMILY + (WeibullIFR(1.2, 1.5),) + tuple(MixtureWithInf(0.6, d) for d in _FINITE_BASES)


@pytest.mark.parametrize("d", ONE_FORM)
@settings(max_examples=25)
@given(data=st.data())
def test_cdf_of_a_float_is_the_cdf_of_an_array(d, data):
    # Every caller, the LP's rows and the clairvoyant's scalar reads included,
    # gets the same bits from one numpy expression.
    base = getattr(d, "base", d)
    edges = [0.0] + [getattr(base, f) for f in ("d", "lo", "hi", "scale") if hasattr(base, f)]
    near = [float(np.nextafter(e, to)) for e in edges for to in (0.0, INF)]
    ages = data.draw(st.lists(st.sampled_from(edges + near + [INF]) | st.floats(0.0, 50.0), min_size=1,
                              max_size=40))
    vector = d.cdf(np.array(ages))
    assert [np.float64(d.cdf(float(a))).tobytes() for a in ages] == [v.tobytes() for v in vector]
