import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (check_monotonicity, check_zero_point_augmentation, reference_fluid_process,
                     reference_simulate_process)
from reuse_alloc import fluid
from reuse_alloc.distributions import (Deterministic, Exponential, MixtureWithInf, NonReusable, TwoPointInf,
                                       Uniform, WeibullIFR, ZeroOrInf)
from reuse_alloc.randproc import ProcessSpec, fluid_process, simulate_process


def test_fluid_deterministic_busy_window():
    eta, reward = fluid_process(ProcessSpec(Deterministic(1.0), (0.0, 0.5, 1.5), (1, 1, 1)))
    assert np.allclose(eta, [1.0, 0.0, 1.0])
    assert reward == pytest.approx(2.0)


def test_fluid_two_point_one_step_by_hand():
    # Hand recursion: eta_2 = eta_1 (1 - p_1) + eta_1 p_1 [F(2) - F(0)] = 0.5.
    eta, reward = fluid_process(ProcessSpec(TwoPointInf(1.0, 0.5), (0.0, 2.0), (1, 1)))
    assert np.allclose(eta, [1.0, 0.5])
    assert reward == pytest.approx(1.5)


def test_fluid_all_zero_probabilities():
    eta, reward = fluid_process(ProcessSpec(Exponential(1.0), (0.0, 1.0, 2.0), (0, 0, 0)))
    assert np.allclose(eta, 1.0)
    assert reward == 0.0


def test_fluid_zero_atom_returns_next_arrival():
    # All mass at duration zero: the unit is back for every later arrival.
    eta, reward = fluid_process(ProcessSpec(ZeroOrInf(1.0), (0.0, 1.0, 2.0), (1, 1, 1)))
    assert np.allclose(eta, 1.0)
    assert reward == pytest.approx(3.0)


def test_spec_requires_strictly_increasing_times():
    with pytest.raises(ValueError):
        ProcessSpec(Deterministic(1.0), (0.0, 0.0, 1.0), (1, 1, 1))
    with pytest.raises(ValueError):
        ProcessSpec(Deterministic(1.0), (0.0, 1.0), (1.5, 0.0))


@pytest.mark.parametrize("sigma", [(float("nan"),), (0.0, float("inf")), (float("-inf"), 0.0)])
def test_spec_rejects_non_finite_times(sigma):
    with pytest.raises(ValueError, match="finite"):
        ProcessSpec(Exponential(1.0), sigma, (0.5,) * len(sigma))


def test_eta_stays_in_unit_interval_random_specs():
    rnd = random.Random(7)
    for _ in range(50):
        T = rnd.randint(1, 30)
        sigma = np.cumsum([rnd.uniform(0.01, 1.0) for _ in range(T)])
        p = [rnd.random() for _ in range(T)]
        F = rnd.choice([Exponential(rnd.uniform(0.2, 3.0)), TwoPointInf(rnd.uniform(0.1, 2.0), rnd.random()),
                        Deterministic(rnd.uniform(0.1, 2.0)), Uniform(0.0, rnd.uniform(0.5, 2.0))])
        eta, reward = fluid_process(ProcessSpec(F, tuple(sigma), tuple(p)))
        assert (eta >= 0.0).all() and (eta <= 1.0).all()
        assert 0.0 <= reward <= T


def test_simulate_deterministic_reward_every_trial():
    s = simulate_process(ProcessSpec(Deterministic(1.0), (0.0, 0.5, 1.5), (1, 1, 1)), seed=3, trials=500)
    assert s.mean == 2.0 and s.se == 0.0
    assert np.allclose(s.availability, [1.0, 0.0, 1.0])


def test_simulate_matches_fluid_two_point():
    spec = ProcessSpec(TwoPointInf(1.0, 0.5), (0.0, 2.0), (1, 1))
    s = simulate_process(spec, seed=11, trials=100_000)
    assert s.mean == pytest.approx(1.5, abs=0.005)


def test_simulate_empty_spec():
    s = simulate_process(ProcessSpec(Exponential(1.0), (), ()), seed=1, trials=10)
    assert s.mean == 0.0


def test_monotonicity_trivial_and_random():
    rnd = random.Random(5)
    assert check_monotonicity(Exponential(1.0), (0.0, 1.0), (0.0, 0.0), (0.7, 0.2))
    assert check_monotonicity(Exponential(1.0), (0.0, 1.0), (0.5, 0.5), (0.5, 0.5))
    for _ in range(100):
        T = rnd.randint(1, 20)
        sigma = tuple(np.cumsum([rnd.uniform(0.05, 1.0) for _ in range(T)]))
        p_hi = [rnd.random() for _ in range(T)]
        p_lo = [0.5 * q for q in p_hi]
        F = rnd.choice([Exponential(rnd.uniform(0.2, 3.0)), TwoPointInf(rnd.uniform(0.1, 2.0), rnd.random()),
                        Uniform(0.0, rnd.uniform(0.5, 2.0)), Deterministic(rnd.uniform(0.1, 2.0))])
        assert check_monotonicity(F, sigma, p_lo, p_hi)


def test_monotonicity_rejects_crossing_inputs():
    with pytest.raises(ValueError):
        check_monotonicity(Exponential(1.0), (0.0, 1.0), (0.9, 0.0), (0.5, 0.5))


def test_zero_point_augmentation_no_zero_arrivals():
    assert check_zero_point_augmentation(
        ProcessSpec(Exponential(1.0), (0.0, 1.0, 2.0), (0.5, 0.5, 0.5)))


def test_zero_point_augmentation_deterministic_blockade():
    # Long deterministic busy spell: every early arrival after the first has
    # eta = 0, and forcing p = 1 there must change nothing.
    sigma = tuple(float(t) for t in range(8))
    spec = ProcessSpec(Deterministic(10.0), sigma, (1.0,) * 8)
    eta, _ = fluid_process(spec)
    assert np.allclose(eta, [1.0] + [0.0] * 7)
    assert check_zero_point_augmentation(spec)


def test_zero_point_augmentation_engineered_cases():
    rnd = random.Random(13)
    for _ in range(100):
        lead = rnd.randint(2, 6)
        # Dense prefix under a long deterministic duration forces eta = 0
        # points; the tail mixes arbitrary probabilities.
        sigma = list(np.cumsum([rnd.uniform(0.05, 0.3) for _ in range(lead)]))
        sigma += [sigma[-1] + 5.0 + i for i in range(rnd.randint(1, 6))]
        p = [1.0] * lead + [rnd.random() for _ in range(len(sigma) - lead)]
        spec = ProcessSpec(Deterministic(4.0), tuple(sigma), tuple(p))
        assert check_zero_point_augmentation(spec)


def test_fluid_reward_invariant_under_p0_insertion():
    base = ProcessSpec(Exponential(0.8), (0.0, 1.0, 2.5), (0.6, 0.3, 0.9))
    _, r0 = fluid_process(base)
    padded = ProcessSpec(Exponential(0.8), (0.0, 0.4, 1.0, 1.7, 2.5), (0.6, 0.0, 0.3, 0.0, 0.9))
    _, r1 = fluid_process(padded)
    assert r1 == pytest.approx(r0, abs=1e-12)


def test_mc_availability_tracks_fluid():
    # Smaller-scale version of the acceptance check, 4 binomial SEs.
    rnd = random.Random(3)
    for F in (TwoPointInf(0.7, 0.6), Exponential(1.2), Uniform(0.2, 1.4), Deterministic(0.9)):
        T = 10
        sigma = tuple(np.cumsum([rnd.uniform(0.1, 0.8) for _ in range(T)]))
        p = tuple(rnd.uniform(0.2, 1.0) for _ in range(T))
        spec = ProcessSpec(F, sigma, p)
        eta, reward = fluid_process(spec)
        s = simulate_process(spec, seed=17, trials=30_000)
        for t in range(T):
            se = math.sqrt(max(eta[t] * (1 - eta[t]), 0.0) / s.trials)
            assert abs(s.availability[t] - eta[t]) <= 4 * se + 1e-12
        assert abs(s.mean - reward) <= 4 * s.se + 1e-12


# -- the event-driven Monte Carlo against the per-arrival reference -------------

TENTHS = tuple(np.cumsum([0.1] * 12).tolist())     # 0.1 steps, rounded as they add up


def assert_same_summary(spec, seed, trials):
    got, want = simulate_process(spec, seed, trials), reference_simulate_process(spec, seed, trials)
    assert (got.trials, got.mean, got.se, got.ci95) == (want.trials, want.mean, want.se, want.ci95)
    assert got.availability.dtype == want.availability.dtype
    assert got.availability.tobytes() == want.availability.tobytes()


@pytest.mark.parametrize("spec,trials", [
    (ProcessSpec(Exponential(0.7), TENTHS, (0.0, 1.0) * 6), 300),                 # p = 0 and p = 1 arrivals
    (ProcessSpec(ZeroOrInf(0.6), TENTHS, (1.0, 0.5, 0.0) * 4), 300),              # an atom at 0
    (ProcessSpec(ZeroOrInf(1.0), TENTHS, (1.0,) * 12), 50),                       # every use returns at once
    (ProcessSpec(Deterministic(0.1), TENTHS, (1.0,) * 12), 50),                   # d equal to the rounded gaps
    (ProcessSpec(Deterministic(0.5), (0.0, 0.25, 0.5, 0.75, 1.0, 1.5), (1.0,) * 6), 50),
    (ProcessSpec(Deterministic(1.7 - 0.6), (0.6, 1.7, 2.5, 2.8), (1.0,) * 4), 20),   # 0.6 + d rounds above 1.7
    (ProcessSpec(Deterministic(0.2), TENTHS, (0.6,) * 12), 300),
    (ProcessSpec(NonReusable(), TENTHS, (0.3,) * 12), 300),
    (ProcessSpec(MixtureWithInf(0.6, Exponential(2.0)), TENTHS, (0.8,) * 12), 300),
    (ProcessSpec(TwoPointInf(0.3, 0.5), TENTHS, (0.9,) * 12), 300),
    (ProcessSpec(WeibullIFR(0.4, 2.0), TENTHS, (0.7,) * 12), 300),
    (ProcessSpec(Uniform(0.05, 0.35), TENTHS, (0.7,) * 12), 1),                   # one trial
    (ProcessSpec(Exponential(1.0), (), ()), 10),                                  # no arrival
])
def test_simulate_process_equals_per_arrival_reference(spec, trials):
    assert_same_summary(spec, 5, trials)


def test_simulate_process_equals_reference_on_random_specs():
    rnd = random.Random(41)
    families = (Exponential(1.3), Uniform(0.2, 1.1), WeibullIFR(0.7, 2.0), TwoPointInf(0.5, 0.6), ZeroOrInf(0.5),
                Deterministic(0.3), Deterministic(0.0), NonReusable(), MixtureWithInf(0.6, Exponential(2.0)))
    for k in range(60):
        T = rnd.randint(1, 40)
        sigma = tuple(np.cumsum([rnd.choice([0.1, 0.3, rnd.uniform(0.01, 1.0)]) for _ in range(T)]).tolist())
        p = tuple(rnd.choice([0.0, 1.0, rnd.random()]) for _ in range(T))
        assert_same_summary(ProcessSpec(rnd.choice(families), sigma, p), k, rnd.choice([1, 2, 7, 100]))


# -- the windowed, block-priced fluid recursion against the plain one -----------

def assert_same_fluid(spec):
    eta, reward = fluid_process(spec)
    want_eta, want_reward = reference_fluid_process(spec)
    assert eta.tobytes() == want_eta.tobytes()
    assert reward.hex() == want_reward.hex()


def saturating_family(kind: int, span: float, q: float):
    """A family of each kind whose CDF reaches cdf(+inf) exactly at an age
    of about `span` (-expm1(-x) rounds to 1.0 from x = 37.5 on)."""
    return (Deterministic(span), TwoPointInf(span, q), ZeroOrInf(q), Exponential(37.5 / span),
            Uniform(span / 3, span), WeibullIFR(span / 37.5 ** (1 / 1.5), 1.5),
            MixtureWithInf(q, Exponential(37.5 / span)), NonReusable())[kind]


def bench_shaped_spec(T: int, seed: int) -> ProcessSpec:
    """Exponential(0.5), gaps uniform on [0.01, 0.2] and p on [0.2, 0.9],
    rounded as in `perfbench`'s randproc spec."""
    rnd = random.Random(seed)
    sigma, p, now = [], [], 0.0
    for _ in range(T):
        now += rnd.uniform(0.01, 0.2)
        sigma.append(round(now, 6))
        p.append(round(rnd.uniform(0.2, 0.9), 3))
    return ProcessSpec(Exponential(0.5), tuple(sigma), tuple(p))


@pytest.mark.parametrize("T", [0, 1, 2, 63, 64, 65, 129, 600])
@pytest.mark.parametrize("kind", range(8))
@settings(max_examples=8)
@given(saturate_after=st.integers(1, 300), gap=st.sampled_from([0.01, 0.1, 1.0]),
       q=st.sampled_from([0.0, 1.0, 0.37]), seed=st.integers(0, 2**16))
def test_fluid_process_equals_plain_recursion(kind, T, saturate_after, gap, q, seed):
    # The CDF saturates about `saturate_after` arrivals after a booking, so
    # saturation starts at rows all through a block, not at its ends only
    # (the first block alone has fluid.block_rows(1) = 127 rows).
    rnd = random.Random(seed)
    sigma = tuple(np.cumsum([gap * rnd.uniform(0.5, 1.5) for _ in range(T)]).tolist())
    p = tuple(rnd.choice([0.0, 1.0, rnd.random()]) for _ in range(T))
    assert_same_fluid(ProcessSpec(saturating_family(kind, gap * saturate_after, q), sigma, p))


def test_fluid_process_equals_plain_recursion_on_benchmark_spec():
    # 10,000 arrivals of Exponential(0.5): the window holds 700-800 of them.
    assert_same_fluid(bench_shaped_spec(10_000, 1))


def test_block_rows_fill_the_table():
    for live, per_row in ((0, 1), (1, 1), (700, 1), (16384, 1), (10**6, 1), (40, 3), (5000, 8)):
        k = fluid.block_rows(live, per_row)
        assert k >= 1
        assert k == 1 or k * (live + per_row * k) <= fluid.TABLE_CELLS
        assert (k + 1) * (live + per_row * (k + 1)) > fluid.TABLE_CELLS


FLUID_BITS = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from test_randproc import bench_shaped_spec
from reuse_alloc.randproc import fluid_process
for seed in (1, 3):
    eta, reward = fluid_process(bench_shaped_spec(12_000, seed))
    print(hashlib.sha256(eta.tobytes()).hexdigest(), reward.hex())
"""


def test_fluid_process_bits_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot of more than 10,000 terms across its threads,
    # which moves its partial sums. The window keeps each row's dot to
    # 700-800 terms here, where the plain recursion's reach 11,999; the
    # reward p @ eta, 12,000 terms, is summed in chunks of 10,000: as one
    # dot, its bits at seed 1 differed by 1 ulp between the thread counts
    # (2-core x86-64, OpenBLAS).
    src = str(Path(fluid.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    bits = {subprocess.run([sys.executable, "-c", FLUID_BITS, str(Path(__file__).parent)],
                           env={**env, "OPENBLAS_NUM_THREADS": str(n)}, capture_output=True, text=True,
                           check=True).stdout for n in (1, 2)}
    assert len(bits) == 1
