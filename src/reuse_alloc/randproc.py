"""Single-unit availability process and its fluid counterpart.

One unit of a resource faces arrivals at strictly increasing times sigma_t.
If the unit is available at sigma_t it transitions to in-use with probability
p_t, earns a unit reward, and stays in use for a duration drawn from F. The
fluid counterpart consumes fractions instead: p_t times the available
fraction is consumed and flows back according to the CDF of F.

The fluid availability obeys an exact recursion (one step per arrival, each
over the arrivals whose returns are not yet over), and the random process
has the same per-arrival availability probabilities, which is what makes
the fluid version usable as an exact evaluation device for the random one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .distributions import is_number
from .engine import DOT_TERMS, dot, mean_se
from .fluid import block_rows


@dataclass(frozen=True)
class ProcessSpec:
    dist: object            # usage distribution F
    sigma: tuple            # strictly increasing arrival times
    p: tuple                # transition probabilities, in [0, 1]

    def __post_init__(self):
        if not all(map(is_number, (*self.sigma, *self.p))):
            raise ValueError("sigma and p must hold numbers")
        object.__setattr__(self, "sigma", tuple(float(s) for s in self.sigma))
        object.__setattr__(self, "p", tuple(float(q) for q in self.p))
        if len(self.sigma) != len(self.p):
            raise ValueError("sigma and p must have equal length")
        if not all(map(math.isfinite, self.sigma)):
            raise ValueError("arrival times must be finite")
        for a, b in zip(self.sigma, self.sigma[1:]):
            if not b > a:
                raise ValueError("arrival times must be strictly increasing")
        if any(not 0.0 <= q <= 1.0 for q in self.p):
            raise ValueError("probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class ProcessSummary:
    trials: int
    mean: float
    se: float
    ci95: tuple
    availability: np.ndarray   # per-arrival frequency of "unit available"


def fluid_process(spec: ProcessSpec):
    """Exact fluid availability fractions eta_t and total reward sum p_t eta_t.

    eta_1 = 1 and
      eta_t = eta_{t-1}(1 - p_{t-1})
              + sum_{tau < t} eta_tau p_tau [F(sigma_t - sigma_tau) - F(sigma_{t-1} - sigma_tau)],
    where the mass consumed at tau starts with zero credited return, so an
    atom of F at 0 is paid back at the next arrival rather than lost.

    Row t takes the dot consumed[lo:t] @ (cdf(sigma_t - sigma[lo:t]) -
    credited[lo:t]). The window's front `lo` moves up 64 arrivals at a time
    once each of their credited levels equals cdf(+inf), which it then
    keeps (the CDF is monotone and bounded by it).
    A term left out is a non-negative consumed times +0.0, which adds
    nothing, and 64 is a multiple of the BLAS dot kernel's unroll width, so
    every term kept keeps its accumulator: the result is bit-identical to
    the dot over all of consumed[:t]. The levels are priced a block of
    rows at a time, one vector CDF call over (rows) x (window + rows) with
    as many rows as `fluid.block_rows` allows.

    OpenBLAS splits a dot of more than 10,000 terms across its threads,
    which moves its partial sums, so `engine.dot` sums a longer one (a row's
    over a window that wide, the reward's) in chunks added in sequence.
    """
    T = len(spec.sigma)
    if T == 0:
        return np.zeros(0), 0.0
    sigma = np.asarray(spec.sigma)
    p = np.asarray(spec.p)
    cdf = spec.dist.cdf
    cdf_inf = float(cdf(math.inf))
    eta = np.zeros(T)
    consumed = np.zeros(T)      # eta_tau * p_tau
    credited = np.zeros(T)      # CDF level already paid back per tau, as of the last block
    eta[0] = 1.0
    consumed[0] = p[0]
    e, c = 1.0, spec.p[0]       # eta and consumed at the last row
    lo, t0 = 0, 1
    while t0 < T:
        while lo + 64 < t0 and (credited[lo:lo + 64] == cdf_inf).all():
            lo += 64
        t1 = min(T, t0 + block_rows(t0 - lo))
        # C[r, j] is the CDF level of arrival lo + j at row t0 + r; a column
        # at or after its row is priced at elapsed time 0 and never counted.
        elapsed = np.subtract.outer(sigma[t0:t1], sigma[lo:t1 - 1])
        C = cdf(np.maximum(elapsed, 0.0, out=elapsed))
        for t in range(t0, t1):
            r, w = t - t0, t - lo
            if r:
                rise = C[r, :w] - C[r - 1, :w]
                rise[-1] = C[r, w - 1]      # arrival t - 1 was credited 0.0 so far
            else:
                rise = C[0, :w] - credited[lo:t]
            e = e - c + (float(consumed[lo:t] @ rise) if w <= DOT_TERMS else dot(consumed[lo:t], rise))
            e = min(max(e, 0.0), 1.0)  # guard fp residue only
            c = e * spec.p[t]
            eta[t], consumed[t] = e, c
        credited[lo:t1 - 1] = C[-1]
        t0 = t1
    return eta, dot(p, eta)


def simulate_process(spec: ProcessSpec, seed: int, trials: int) -> ProcessSummary:
    """Monte-Carlo over the random process, event-driven across trials.

    Trial k's coin at arrival t is rng.uniform(seed, TAG_POLICY, t, k) and
    the uniform of a use it starts there rng.uniform(seed, TAG_DURATION, t,
    k), turned into a duration by the family's vector sample_u. Each step
    moves every trial from the arrival where its unit is free to the next
    one: t + 1 without a take, else the first t' > t with d <= sigma[t'] -
    sigma[t] (found by searchsorted, then fixed up against that exact
    predicate, which keeps atom boundaries exact). Busy spells go into an
    integer difference array, from which the availability counts follow.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    T = len(spec.sigma)
    sigma, p = np.array(spec.sigma), np.array(spec.p)
    coin_at = rng.derive_vec(seed, rng.TAG_POLICY, np.arange(T))     # the key prefixes of each arrival
    use_at = rng.derive_vec(seed, rng.TAG_DURATION, np.arange(T))
    k = np.arange(trials if T else 0, dtype=np.uint64)   # the trials still inside the arrivals
    t = np.zeros(k.size, dtype=np.int64)         # the arrival where each one's unit is free
    rewards = np.zeros(trials)
    busy = np.zeros(T + 1, dtype=np.int64)       # difference array of the busy units per arrival
    while k.size:
        take = rng.uniform_from_vec(coin_at[t], k) < p[t]
        nxt = t + 1
        if take.any():
            tt, kt = t[take], k[take]
            d = spec.dist.sample_u(rng.uniform_from_vec(use_at[tt], kt))
            nxt[take] = free = _first_free(sigma, tt, d)
            rewards[kt] += 1.0
            np.add.at(busy, tt + 1, 1)
            np.add.at(busy, free, -1)
        left = nxt < T
        k, t = (k, nxt) if left.all() else (k[left], nxt[left])
    avail_freq = (trials - np.cumsum(busy[:T])) / trials
    mean, se = mean_se(rewards)
    return ProcessSummary(trials=trials, mean=mean, se=se,
                          ci95=(mean - 1.96 * se, mean + 1.96 * se),
                          availability=avail_freq)


def _first_free(sigma: np.ndarray, t: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per use started at arrival t with duration d, the first arrival t' > t
    with d <= sigma[t'] - sigma[t], or len(sigma) when there is none."""
    T, start = sigma.size, sigma[t]
    j = np.clip(np.searchsorted(sigma, start + d, side="left"), t + 1, T)
    while True:                 # the predicate is monotone in t': step j down, then up, to its first true
        back = (j - 1 > t) & (d <= sigma[j - 1] - start)
        if not back.any():
            break
        j[back] -= 1
    while True:
        ahead = (j < T) & ~(d <= sigma[np.minimum(j, T - 1)] - start)
        if not ahead.any():
            return j
        j[ahead] += 1

