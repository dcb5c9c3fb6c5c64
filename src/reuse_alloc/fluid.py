"""Fluid-reusability bookkeeping shared by the guide algorithms.

Under fluid reusability a matched fraction of a unit flows back continuously:
of mass m matched at time tau, exactly cdf(d) * m has returned by tau + d.
Each resource keeps per-unit available masses Y and a ledger of outstanding
matched parcels (match time, mass, CDF level already credited). Advancing the
clock credits each parcel the CDF increment since the last arrival.

A freshly matched parcel starts with zero credited return, so an atom of the
usage distribution at 0 is paid back at the next arrival (matching the
simulator's returns-before-match event order) rather than silently dropped.

Units can be aggregated into rank buckets: the exact guide uses one bucket
per unit, the geometrically quantized variant groups ranks into levels
floor((1+eps)^j) and treats each group as a single unit of larger mass.

The work is proportional to what changes. A parcel leaves the ledger once
its CDF level reaches cdf(+inf), after which it can return nothing more, and
the mass a dropped parcel never returned is kept per bucket in `lost`, so
Y + outstanding + lost still equals each bucket's size. The highest bucket
at or above the waterfall's floor is searched from a cached bound that only
returns can raise, so the scans of a guide run are amortized over its units.
"""

from __future__ import annotations

import math

import numpy as np

ZERO_TOL = 1e-12      # fluid fractions below this count as zero
PRUNE_TOL = 1e-15     # parcels with less un-returned mass may be dropped


def quantized_levels(capacity: int, eps: float) -> list:
    """Distinct values floor((1+eps)^j) <= capacity, always including 1."""
    if eps <= 0:
        return list(range(1, capacity + 1))
    levels = []
    v = 1
    while v <= capacity:
        levels.append(v)
        j = math.ceil(math.log(v + 1) / math.log1p(eps))
        nxt = math.floor((1.0 + eps) ** j)
        v = max(nxt, v + 1)
    return levels


class ResourceFluid:
    """Y masses plus the outstanding-parcel ledger for one resource."""

    def __init__(self, res, levels=None):
        self.res = res
        c = res.capacity
        if levels is None:
            levels = list(range(1, c + 1))
        bounds = levels + [c + 1]
        self.index_value = np.array(levels, dtype=float)        # rank used in scores
        self.size = np.array([bounds[j + 1] - bounds[j] for j in range(len(levels))], dtype=float)
        self.Y = self.size.copy()
        self.lost = np.zeros(len(levels))    # mass of dropped parcels never credited back
        self.n_groups = len(levels)
        cap = 64
        self._time = np.zeros(cap)
        self._mass = np.zeros(cap)
        self._credited = np.zeros(cap)
        self._group = np.zeros(cap, dtype=np.int64)
        self._n = 0
        self._mass_inf = res.usage.mass_at_inf()
        self._cdf_inf = res.usage.cdf(math.inf)
        self._cdf0 = res.usage.cdf(0.0)
        # The clock of the last advance, and how many parcels it settled.
        self._clock = None
        self._settled = 0
        # Every bucket above _hint has Y < _hint_floor.
        self._hint = self.n_groups - 1
        self._hint_floor = None

    def _grow(self):
        cap = max(64, 2 * len(self._time))
        for name in ("_time", "_mass", "_credited", "_group"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def advance(self, now: float):
        """Credit returns accumulated up to time `now` back into Y."""
        # At an unchanged clock the parcels the last advance settled are
        # credited up to `now` already: their delta is exactly 0.0 and their
        # keep/drop result stands, so only parcels booked since then count.
        # Those were booked at `now`; with cdf(0) = 0 they too have nothing
        # to credit, and they stay unless their mass is below PRUNE_TOL.
        k, n = 0, self._n
        if now == self._clock:
            k = self._settled
            if k == n or self._cdf0 == 0.0 and self._mass[k:n].min() >= PRUNE_TOL:
                self._settled = n
                return
        self._clock = now
        if n == 0:
            return
        mass, group = self._mass[k:n], self._group[k:n]
        new_cdf = np.asarray(self.res.usage.cdf(now - self._time[k:n]), dtype=float)
        delta = mass * (new_cdf - self._credited[k:n])
        np.add.at(self.Y, group, delta)
        rising = delta > 0.0
        if rising.any():
            self._hint = max(self._hint, int(group[rising].max()))
        self._credited[k:n] = new_cdf
        # A parcel at cdf(+inf) returns nothing more (delta is exactly 0.0
        # from then on); without mass at +inf, one whose remainder is below
        # PRUNE_TOL is dropped as well.
        if self._mass_inf == 0.0:
            keep = mass * (1.0 - new_cdf) >= PRUNE_TOL
        else:
            keep = new_cdf != self._cdf_inf
        if not keep.all():
            drop = ~keep
            np.add.at(self.lost, group[drop], mass[drop] * (1.0 - new_cdf[drop]))
            m = k + int(keep.sum())
            for name in ("_time", "_mass", "_credited", "_group"):
                arr = getattr(self, name)
                arr[k:m] = arr[k:n][keep]
            self._n = m
        self._settled = self._n

    def top_group(self, floor: float = ZERO_TOL) -> int:
        """Index of the highest bucket with mass >= floor, else -1."""
        g = self._hint if floor == self._hint_floor else self.n_groups - 1
        Y = self.Y
        while g >= 0 and not Y[g] >= floor:
            g -= 1
        self._hint, self._hint_floor = g, floor
        return g

    def consume(self, g: int, amount: float, now: float):
        self.Y[g] -= amount
        if self._mass_inf == 1.0:       # nothing of it ever returns
            self.lost[g] += amount
            return
        if self._n == len(self._time):
            self._grow()
        i = self._n
        self._time[i] = now
        self._mass[i] = amount
        self._credited[i] = 0.0
        self._group[i] = g
        self._n = i + 1

    def conservation_error(self) -> float:
        """Max deviation of Y + outstanding + lost mass from bucket size."""
        n = self._n
        out = self.lost.copy()
        if n:
            np.add.at(out, self._group[:n], self._mass[:n] * (1.0 - self._credited[:n]))
        return float(np.abs(self.Y + out - self.size).max())


class FluidInventory:
    """All resources' fluid state, advanced arrival by arrival."""

    def __init__(self, instance, quantize_eps: float = 0.0):
        self.instance = instance
        self.state = {}
        for r in instance.resources:
            levels = quantized_levels(r.capacity, quantize_eps) if quantize_eps > 0 else None
            self.state[r.id] = ResourceFluid(r, levels)

    def advance(self, now: float):
        for rf in self.state.values():
            rf.advance(now)

    def conservation_error(self) -> float:
        return max(rf.conservation_error() for rf in self.state.values())
