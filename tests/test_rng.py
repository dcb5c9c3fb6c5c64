import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import uniform_from
from reuse_alloc import rng


def test_scalar_vector_agree_exactly():
    parts = (rng.TAG_DURATION, 4, 9)
    vec = rng.uniform_array(123, parts, np.arange(500))
    scal = np.array([rng.uniform(123, *parts, i) for i in range(500)])
    assert np.array_equal(vec, scal)


def test_deterministic_and_key_sensitive():
    assert rng.uniform(5, 1, 2, 3) == rng.uniform(5, 1, 2, 3)
    assert rng.uniform(5, 1, 2, 3) != rng.uniform(5, 1, 2, 4)
    assert rng.uniform(5, 1, 2, 3) != rng.uniform(6, 1, 2, 3)


def test_uniformity_and_range():
    u = rng.uniform_array(7, (0,), np.arange(200_000))
    assert u.min() >= 0.0 and u.max() < 1.0
    hist, _ = np.histogram(u, bins=20, range=(0.0, 1.0))
    assert np.abs(hist / 10_000.0 - 1.0).max() < 0.05
    assert abs(u.mean() - 0.5) < 0.005


def test_streams_uncorrelated():
    a = rng.uniform_array(7, (1, 0), np.arange(100_000))
    b = rng.uniform_array(7, (1, 1), np.arange(100_000))
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.02


def test_fold_continues_derive_for_random_keys():
    gen = np.random.default_rng(2024)
    for _ in range(200):
        seed = int(gen.integers(0, 2**63))
        key = [int(k) for k in gen.integers(0, 2**40, size=int(gen.integers(1, 6)))]
        cut = int(gen.integers(0, len(key) + 1))
        h = rng.derive(seed, *key[:cut])
        assert rng.fold(h, *key[cut:]) == rng.derive(seed, *key)
        assert uniform_from(h, *key[cut:]) == rng.uniform(seed, *key)


KEYS = st.integers(min_value=-2**70, max_value=2**70)


@given(seed=st.one_of(st.integers(-2**63, -1), st.integers(2**63, 2**66), KEYS),
       parts=st.lists(st.integers(-2**65, 2**65), max_size=4))
def test_vector_matches_scalar_for_any_int_seed(seed, parts):
    assert rng.uniform_vec(seed, *parts) == rng.uniform(seed, *parts)
    assert rng.uniform_vec(np.array([seed % 2**64], dtype=np.uint64), *parts)[0] == rng.uniform(seed, *parts)
    if parts:                   # the last part as uniform_array's counter axis
        counters = np.array([parts[-1] % 2**64], dtype=np.uint64)
        assert rng.uniform_array(seed, tuple(parts[:-1]), counters)[0] == rng.uniform(seed, *parts)


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1))
@example(0, 0)
@example(2**64 - 1, 2**64 - 1)
def test_uniform_from1_is_uniform_from_with_one_part(h, part):
    assert rng.uniform_from1(h, part) == uniform_from(h, part)
