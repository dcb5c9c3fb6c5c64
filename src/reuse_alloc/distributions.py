"""Usage-duration distributions.

A matched unit stays in use for a random duration drawn from the resource's
usage distribution. Distributions may put probability mass at +inf (the unit
never returns); that mass is represented by the IEEE infinity, never by a
large finite float.

Conventions shared with the simulator and the fluid relaxations:
  - cdf(t) = P(duration <= t) is right-continuous, so cdf(d) includes an atom
    at d. A unit matched at time tau with realized duration d is available
    again at exactly tau + d, and returns due at an arrival's time are
    processed before that arrival is matched.
  - cdf is one numpy expression, with the same bits on a float and on an
    array. The mass at +inf is 1 - cdf(+inf). Where a product or power
    overflows, IEEE's limit gives the exact cdf, so numpy does not warn.
  - Sampling is a pure function of (distribution, key, seed) via the
    counter-based stream in :mod:`reuse_alloc.rng`.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rng

INF = math.inf


class DurationStreamKey(NamedTuple):
    """Identifies one duration draw: same key + same seed => same duration."""

    resource: int
    unit: int
    use: int


class UnsupportedDistribution(ValueError):
    """Raised when an operation is undefined for the distribution family."""


@dataclass(frozen=True)
class Deterministic:
    d: float  # fixed duration, >= 0

    def cdf(self, t):
        return np.where(t >= self.d, 1.0, 0.0)

    def sample_u(self, u):
        if isinstance(u, np.ndarray):
            return np.full(u.shape, self.d)
        return self.d


@dataclass(frozen=True)
class TwoPointInf:
    """Duration d with probability p, +inf with probability 1 - p."""

    d: float
    p: float  # return probability

    def cdf(self, t):
        return np.where(t >= self.d, self.p, 0.0)

    def sample_u(self, u):
        if isinstance(u, np.ndarray):
            return np.where(u < self.p, self.d, INF)
        return self.d if u < self.p else INF


@dataclass(frozen=True)
class ZeroOrInf:
    """Immediate return with probability p, never with probability 1 - p."""

    p: float  # probability of duration 0

    def cdf(self, t):
        return np.full(np.shape(t), self.p, dtype=float)

    def sample_u(self, u):
        if isinstance(u, np.ndarray):
            return np.where(u < self.p, 0.0, INF)
        return 0.0 if u < self.p else INF


@dataclass(frozen=True)
class Exponential:
    rate: float  # > 0

    @np.errstate(over="ignore")
    def cdf(self, t):
        return -np.expm1(-self.rate * t)

    def sample_u(self, u):
        if isinstance(u, np.ndarray):
            return -np.log1p(-u) / self.rate
        return -math.log1p(-u) / self.rate

    def quantile(self, q):
        return -math.log1p(-q) / self.rate


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float  # 0 <= lo < hi

    @np.errstate(over="ignore")
    def cdf(self, t):
        return np.clip((t - self.lo) / (self.hi - self.lo), 0.0, 1.0)

    def sample_u(self, u):
        return self.lo + u * (self.hi - self.lo)

    def quantile(self, q):
        return self.lo + q * (self.hi - self.lo)


@dataclass(frozen=True)
class WeibullIFR:
    """Weibull with shape >= 1, the increasing-failure-rate branch."""

    scale: float
    shape: float

    @np.errstate(over="ignore")
    def cdf(self, t):
        # np.power, not **: a numpy scalar's ** is libm's pow, whose last
        # bits differ from the array loop's.
        return -np.expm1(-np.power(t / self.scale, self.shape))

    def sample_u(self, u):
        if isinstance(u, np.ndarray):
            return self.scale * (-np.log1p(-u)) ** (1.0 / self.shape)
        return self.scale * (-math.log1p(-u)) ** (1.0 / self.shape)

    def quantile(self, q):
        return self.scale * (-math.log1p(-q)) ** (1.0 / self.shape)


@dataclass(frozen=True)
class MixtureWithInf:
    """With probability p_finite draw from `base`, else the unit never returns."""

    p_finite: float
    base: object

    def cdf(self, t):
        return self.p_finite * self.base.cdf(t)

    def sample_u(self, u):
        # Splits one uniform: u < p_finite selects the base branch, and
        # u / p_finite is again uniform on [0, 1) within that branch.
        if isinstance(u, np.ndarray):
            finite = u < self.p_finite
            scaled = np.where(finite, u / max(self.p_finite, 1e-300), 0.0)
            return np.where(finite, self.base.sample_u(scaled), INF)
        if u < self.p_finite:
            return self.base.sample_u(u / self.p_finite)
        return INF


@dataclass(frozen=True)
class NonReusable:
    """All mass at +inf: a matched unit never comes back."""

    def cdf(self, t):
        return np.zeros(np.shape(t))

    def sample_u(self, u):
        return np.full(u.shape, INF) if isinstance(u, np.ndarray) else INF


def sample(dist, key: DurationStreamKey, seed: int):
    """Deterministic duration draw for (dist, key, seed); may be +inf. The
    simulator draws the same uniform from the unit's folded stream."""
    return dist.sample_u(rng.uniform(seed, rng.TAG_DURATION, *key))


def fixed_duration(dist):
    """The duration every draw of `dist` gives whatever its uniform, or None
    when the draw depends on it: d for Deterministic(d), +inf where all the
    mass is at +inf (cdf(+inf) == 0)."""
    if isinstance(dist, Deterministic):
        return dist.d
    return INF if dist.cdf(INF) == 0.0 else None


def compute_L(dist, eps: float, grid: float = 1e-3) -> float:
    """Boundedness diagnostic max_x [F(x + F^{-1}(eps)) - F(x)] / eps.

    Maximized on a geometric grid (relative step `grid`) from near zero up to
    the 1 - 1e-9 quantile, with x = 0 always included. Only defined for the
    continuous families; the result is >= 1 by taking x slightly below the
    quantile of eps.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if not hasattr(dist, "quantile") or dist.cdf(INF) < 1.0:
        raise UnsupportedDistribution(f"compute_L needs a continuous distribution, got {dist!r}")
    q_eps = dist.quantile(eps)
    hi = dist.quantile(1.0 - 1e-9)
    lo = max(dist.quantile(1e-12), hi * 1e-12, 1e-12)
    n = max(2, int(math.ceil(math.log(hi / lo) / math.log1p(grid))) + 1)
    xs = np.concatenate([[0.0], lo * (1.0 + grid) ** np.arange(n)])
    vals = (dist.cdf(xs + q_eps) - dist.cdf(xs)) / eps
    return float(vals.max())


_CODECS = {
    "deterministic": (Deterministic, ("d",)),
    "two_point_inf": (TwoPointInf, ("d", "p")),
    "zero_or_inf": (ZeroOrInf, ("p",)),
    "exponential": (Exponential, ("rate",)),
    "uniform": (Uniform, ("lo", "hi")),
    "weibull": (WeibullIFR, ("scale", "shape")),
    "non_reusable": (NonReusable, ()),
}


def to_json(dist) -> dict:
    if isinstance(dist, MixtureWithInf):
        return {"type": "mixture_inf", "p_finite": dist.p_finite, "base": to_json(dist.base)}
    for name, (cls, fields) in _CODECS.items():
        if isinstance(dist, cls):
            out = {"type": name}
            out.update({f: getattr(dist, f) for f in fields})
            return out
    raise UnsupportedDistribution(f"no JSON encoding for {dist!r}")


def is_number(x, kind=numbers.Real) -> bool:
    """Whether x is a number of `kind` (numbers.Real, or numbers.Integral for
    a count). A bool is not one: JSON's true and false are not numbers."""
    if type(x) in (int, float):           # the fast path, the types JSON gives, with no ABC check
        return type(x) is int or kind is numbers.Real
    return isinstance(x, kind) and not isinstance(x, bool)


def from_json(obj: dict):
    """The distribution `obj` describes. A missing parameter raises KeyError
    with its name, an unknown type UnsupportedDistribution; `validate`
    checks the parameters' values."""
    kind = obj["type"]
    if kind == "mixture_inf":
        return MixtureWithInf(p_finite=obj["p_finite"], base=from_json(obj["base"]))
    if kind not in _CODECS:
        raise UnsupportedDistribution(f"unknown distribution type {kind!r}")
    cls, fields = _CODECS[kind]
    return cls(**{f: obj[f] for f in fields})


def validate(dist) -> list:
    """Parameter checks; returns human-readable violations (empty if OK).
    A parameter that is not a finite number gets its own message and skips
    the range checks of its distribution, which could not compare it."""
    params = ([f.name for f in dataclasses.fields(dist) if f.name != "base"]
              if dataclasses.is_dataclass(dist) else [])
    bad = [f"{type(dist).__name__} {name} must be a finite number, got {value!r}"
           for name in params if not (is_number(value := getattr(dist, name)) and math.isfinite(value))]
    if not bad:
        bad = _range_violations(dist)
    if isinstance(dist, MixtureWithInf):
        bad.extend(validate(dist.base))
    return bad


def _range_violations(dist) -> list:
    bad = []
    if isinstance(dist, Deterministic) and dist.d < 0:
        bad.append("deterministic duration must be >= 0")
    if isinstance(dist, TwoPointInf):
        if dist.d < 0:
            bad.append("two-point duration must be >= 0")
        if not 0.0 <= dist.p <= 1.0:
            bad.append("two-point return probability must be in [0, 1]")
    if isinstance(dist, ZeroOrInf) and not 0.0 <= dist.p <= 1.0:
        bad.append("zero-or-inf probability must be in [0, 1]")
    if isinstance(dist, Exponential) and dist.rate <= 0:
        bad.append("exponential rate must be > 0")
    if isinstance(dist, Uniform) and not 0 <= dist.lo < dist.hi:
        bad.append("uniform needs 0 <= lo < hi")
    if isinstance(dist, WeibullIFR) and (dist.scale <= 0 or dist.shape < 1):
        bad.append("weibull needs scale > 0 and shape >= 1")
    if isinstance(dist, MixtureWithInf) and not 0.0 <= dist.p_finite <= 1.0:
        bad.append("mixture p_finite must be in [0, 1]")
    return bad
