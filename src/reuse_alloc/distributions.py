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
        if isinstance(t, np.ndarray):
            return np.where(t >= self.d, 1.0, 0.0)
        return 1.0 if t >= self.d else 0.0

    def mass_at_inf(self):
        return 0.0

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
        if isinstance(t, np.ndarray):
            return np.where(t >= self.d, self.p, 0.0)
        return self.p if t >= self.d else 0.0

    def mass_at_inf(self):
        return 1.0 - self.p

    def sample_u(self, u):
        if isinstance(u, np.ndarray):
            return np.where(u < self.p, self.d, INF)
        return self.d if u < self.p else INF


@dataclass(frozen=True)
class ZeroOrInf:
    """Immediate return with probability p, never with probability 1 - p."""

    p: float  # probability of duration 0

    def cdf(self, t):
        if isinstance(t, np.ndarray):
            return np.full(t.shape, self.p)
        return self.p

    def mass_at_inf(self):
        return 1.0 - self.p

    def sample_u(self, u):
        if isinstance(u, np.ndarray):
            return np.where(u < self.p, 0.0, INF)
        return 0.0 if u < self.p else INF


@dataclass(frozen=True)
class Exponential:
    rate: float  # > 0

    def cdf(self, t):
        if isinstance(t, np.ndarray):
            return -np.expm1(-self.rate * t)
        return -math.expm1(-self.rate * t)

    def mass_at_inf(self):
        return 0.0

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

    def cdf(self, t):
        x = (t - self.lo) / (self.hi - self.lo)
        return np.clip(x, 0.0, 1.0) if isinstance(t, np.ndarray) else min(max(x, 0.0), 1.0)

    def mass_at_inf(self):
        return 0.0

    def sample_u(self, u):
        return self.lo + u * (self.hi - self.lo)

    def quantile(self, q):
        return self.lo + q * (self.hi - self.lo)


@dataclass(frozen=True)
class WeibullIFR:
    """Weibull with shape >= 1, the increasing-failure-rate branch."""

    scale: float
    shape: float

    def cdf(self, t):
        if isinstance(t, np.ndarray):
            return -np.expm1(-((t / self.scale) ** self.shape))
        return -math.expm1(-((t / self.scale) ** self.shape))

    def mass_at_inf(self):
        return 0.0

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

    def mass_at_inf(self):
        return (1.0 - self.p_finite) + self.p_finite * self.base.mass_at_inf()

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
        return np.zeros(t.shape) if isinstance(t, np.ndarray) else 0.0

    def mass_at_inf(self):
        return 1.0

    def sample_u(self, u):
        return np.full(u.shape, INF) if isinstance(u, np.ndarray) else INF


def sample(dist, key: DurationStreamKey, seed: int, stream: int = None):
    """Deterministic duration draw for (dist, key, seed); may be +inf.

    `stream`, when given, must be rng.derive(seed, TAG_DURATION, key.resource,
    key.unit); callers drawing many uses of one unit pass it to fold it only once.
    """
    if stream is None:
        stream = rng.derive(seed, rng.TAG_DURATION, key.resource, key.unit)
    return dist.sample_u(rng.uniform_from(stream, key.use))


def fixed_duration(dist):
    """The duration every draw of `dist` gives whatever its uniform, or None
    when the draw depends on it: d for Deterministic(d), +inf for a family
    whose finite branch has probability 0 (its `sample_u` tests u < 0)."""
    if isinstance(dist, Deterministic):
        return dist.d
    if isinstance(dist, NonReusable):
        return INF
    if isinstance(dist, (ZeroOrInf, TwoPointInf)) and dist.p <= 0.0:
        return INF
    if isinstance(dist, MixtureWithInf) and dist.p_finite <= 0.0:
        return INF
    return None


def compute_L(dist, eps: float, grid: float = 1e-3) -> float:
    """Boundedness diagnostic max_x [F(x + F^{-1}(eps)) - F(x)] / eps.

    Maximized on a geometric grid (relative step `grid`) from near zero up to
    the 1 - 1e-9 quantile, with x = 0 always included. Only defined for the
    continuous families; the result is >= 1 by taking x slightly below the
    quantile of eps.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must be in (0, 1)")
    if not hasattr(dist, "quantile") or dist.mass_at_inf() > 0.0:
        raise UnsupportedDistribution(f"compute_L needs a continuous distribution, got {dist!r}")
    q_eps = dist.quantile(eps)
    hi = dist.quantile(1.0 - 1e-9)
    lo = max(dist.quantile(1e-12), hi * 1e-12, 1e-12)
    n = max(2, int(math.ceil(math.log(hi / lo) / math.log1p(grid))) + 1)
    xs = np.concatenate([[0.0], lo * (1.0 + grid) ** np.arange(n)])
    vals = (np.asarray(dist.cdf(xs + q_eps)) - np.asarray(dist.cdf(xs))) / eps
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


def _number(obj: dict, kind: str, name: str):
    value = obj[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{kind} {name} must be a number, got {value!r}")
    return value


def from_json(obj: dict):
    """The distribution `obj` describes. A missing parameter raises KeyError
    with its name, a non-numeric one ValueError, an unknown type
    UnsupportedDistribution."""
    kind = obj["type"]
    if kind == "mixture_inf":
        return MixtureWithInf(p_finite=_number(obj, kind, "p_finite"), base=from_json(obj["base"]))
    if kind not in _CODECS:
        raise UnsupportedDistribution(f"unknown distribution type {kind!r}")
    cls, fields = _CODECS[kind]
    return cls(**{f: _number(obj, kind, f) for f in fields})


def _finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def validate(dist) -> list:
    """Parameter checks; returns human-readable violations (empty if OK).
    A parameter that is not a finite number gets its own message and skips
    the range checks of its distribution, which could not compare it."""
    params = ([f.name for f in dataclasses.fields(dist) if f.name != "base"]
              if dataclasses.is_dataclass(dist) else [])
    bad = [f"{type(dist).__name__} {name} must be a finite number, got {getattr(dist, name)!r}"
           for name in params if not _finite(getattr(dist, name))]
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
