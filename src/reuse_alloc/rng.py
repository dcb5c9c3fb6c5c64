"""Counter-based deterministic random streams.

Every random draw in the toolkit is a pure function of (master seed, key),
where the key encodes what the draw is for: (trial, resource, unit, use
counter) for usage durations, (trial, arrival) for policy coin flips, and so
on. This makes trials reproducible bit-for-bit, independent of execution
order, and lets two policies share identical duration draws for the same
(resource, unit, use) key (common random numbers).

The generator is a splitmix64-style finalizer chain: each key part is folded
into the state and passed through a 64-bit avalanche mix. Not cryptographic,
but statistically solid for Monte Carlo at the scales used here, and cheap
enough to evaluate per-draw (scalar path) or per-array (numpy path).
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FOLD = 0xD1342543DE82EF95
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# Key tags keep draw purposes in disjoint streams.
TAG_DURATION = 0x5A
TAG_POLICY = 0x3C
TAG_CHOICE = 0x7E
TAG_TRIAL = 0x11


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def derive(seed: int, *parts: int) -> int:
    """Fold integer key parts into a 64-bit state, one mix per part."""
    return fold(_mix((seed ^ 0x9D2C5680A7B4F2E1) & _MASK), *parts)


def fold(h: int, *parts: int) -> int:
    """Continue a fold from state `h`: fold(derive(s, *a), *b) == derive(s, *a, *b)."""
    for p in parts:
        h = _mix(((h + _GOLDEN) ^ ((p * _FOLD) & _MASK)) & _MASK)
    return h


def uniform(seed: int, *parts: int) -> float:
    """One uniform in [0, 1), a pure function of (seed, parts)."""
    return (derive(seed, *parts) >> 11) * 2.0**-53


def uniform_from1(h: int, part: int) -> float:
    """uniform_from1(derive(s, *a), b) == uniform(s, *a, b), folded and mixed
    inline: the simulator's per-draw call under a prefix folded once."""
    z = ((h + _GOLDEN) ^ ((part * _FOLD) & _MASK)) & _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


_U30, _U27, _U31, _UM1, _UM2 = (np.uint64(v) for v in (30, 27, 31, _M1, _M2))


def _mix_vec_inplace(z: np.ndarray) -> np.ndarray:
    z ^= z >> _U30
    z *= _UM1
    z ^= z >> _U27
    z *= _UM2
    z ^= z >> _U31
    return z


def uniform_array(seed: int, parts: tuple, counters: np.ndarray) -> np.ndarray:
    """Vector of uniforms over a counter axis, matching the scalar stream:
    uniform_vec(seed, *parts, counters), so that
    uniform_array(s, p, arange(n))[i] == uniform(s, *p, i) exactly."""
    return uniform_vec(seed, *parts, counters)


def _u64(x):
    """x mod 2**64 as uint64, the way the scalar chain reduces every key;
    x is a Python int of any sign or size, or an integer array."""
    if isinstance(x, int):
        return np.uint64(x & _MASK)
    return np.asarray(x).astype(np.uint64, copy=False)


def derive_vec(seed, *parts) -> np.ndarray:
    """Array counterpart of derive(): seed and any part may be integer arrays
    (broadcast elementwise); equals the scalar chain entry by entry."""
    if isinstance(seed, int):   # the leading Python ints take the scalar chain
        k = 0
        while k < len(parts) and isinstance(parts[k], int):
            k += 1
        return fold_vec(np.uint64(derive(seed, *parts[:k])), *parts[k:])
    with np.errstate(over="ignore"):
        h = _u64(seed) ^ np.uint64(0x9D2C5680A7B4F2E1)
    return fold_vec(_mix_vec_inplace(np.array(h, dtype=np.uint64)), *parts)


def fold_vec(h, *parts) -> np.ndarray:
    """Array counterpart of fold(): continue the folds from uint64 states
    `h`, broadcasting integer array parts elementwise."""
    with np.errstate(over="ignore"):
        for p in parts:   # the xor makes a new array (or a scalar), which the mix may overwrite
            h = _mix_vec_inplace((h + np.uint64(_GOLDEN)) ^ (_u64(p) * np.uint64(_FOLD)))
    return h


def uniform_vec(seed, *parts) -> np.ndarray:
    """Broadcasting uniforms: elementwise equal to uniform(seed_i, *parts_i)."""
    h = derive_vec(seed, *parts)
    return (h >> np.uint64(11)) * 2.0**-53


def uniform_from_vec(h, *parts) -> np.ndarray:
    """Uniforms folded on from uint64 states h: uniform_from_vec(derive(s, *a), *b)
    equals uniform(s, *a, *b_i) elementwise."""
    return (fold_vec(h, *parts) >> np.uint64(11)) * 2.0**-53


def pick(u: float, weighted):
    """The first value whose running weight total exceeds u, scanning
    (value, weight) pairs in order; None when u is at or above the total."""
    acc = 0.0
    for value, w in weighted:
        acc += w
        if u < acc:
            return value
    return None
