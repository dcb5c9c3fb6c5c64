"""Fluid-reusability bookkeeping shared by the guide algorithms.

Under fluid reusability a matched fraction of a unit flows back continuously:
of mass m matched at time tau, exactly cdf(d) * m has returned by tau + d.
Each resource keeps per-unit available masses Y; every matched parcel (match
time, mass, CDF level already credited) waits in a ledger until its returns
are over. Advancing the clock to an arrival credits each parcel
mass * (cdf(now - tau) - credited), the CDF increment since the last arrival.

A freshly matched parcel starts with zero credited return, so an atom of the
usage distribution at 0 is paid back at the next arrival (matching the
simulator's returns-before-match event order) rather than silently dropped.

Units can be aggregated into rank buckets: the exact guide uses one bucket
per unit, the geometrically quantized variant groups ranks into levels
floor((1+eps)^j) and treats each group as a single unit of larger mass.

A parcel leaves the ledger at the first arrival where it can return nothing
more: its CDF level reaches cdf(+inf) (families with mass at +inf), or its
un-returned mass falls below PRUNE_TOL (the others). That arrival's credit is
paid first, and the remainder goes to its bucket's `lost`, so Y +
outstanding + lost still equals each bucket's size. The highest bucket at or
above the waterfall's floor is searched from a cached bound that only
returns can raise, so the scans of a guide run are amortized over its units.

Blocks. The inventory knows every arrival time in advance, so it prices the
returns of a block of scheduled arrivals at once. A booking is the set of
parcels one arrival matched on one resource; at the start of a block each
resource makes one CDF call over (block times) x (its bookings): the live
ones, where bookings equal in time and credited level share a column, plus
one per block row for the parcels the block itself will book. A block has as
many rows as keep these tables within TABLE_CELLS cells, so a short ledger
gets long blocks and a long one short blocks. From the table the ledger
takes the increment of every booking at every row, and it files each parcel
under the row, if any, at which it leaves the ledger. The parcels of all
resources sit in one ledger in booking order, over one flat Y and one flat
`lost` of which each resource's arrays are views, so an arrival credits its
returns with one gather, one multiply and one `np.add.at`. An advance to a
time off the schedule (a ledger over a standalone resource) is a block of one
row.

The output is bit-identical to advancing every resource's ledger at every
arrival with its own CDF call:
  - every credit is the same IEEE expression, mass * (cdf(now - tau) -
    credited), with credited = 0.0 for a parcel booked since the last
    advance; the CDF is always the family's vector form, whose value does
    not depend on the array it is computed in;
  - `np.add.at` adds in index order, so each bucket gets its credits (and
    `lost` its remainders) in booking order, as before;
  - a parcel that is dropped, or whose booking has nothing to credit at a
    row, adds +0.0, which leaves Y unchanged because Y is never -0.0;
  - the pruning test is unchanged, mass * (1 - cdf) < PRUNE_TOL at each
    row. A parcel is tested against its booking's smallest 1 - cdf over the
    block, which is exact because rounded multiplication is monotone, and
    row by row only if it fails that;
  - the cached top-bucket bound is raised by any booking with a positive
    increment, an upper bound on the rising buckets, so the search returns
    the same bucket.
"""

from __future__ import annotations

import math

import numpy as np

ZERO_TOL = 1e-12      # fluid fractions below this count as zero
PRUNE_TOL = 1e-15     # parcels with less un-returned mass may be dropped
TABLE_CELLS = 16384   # (row, column) cells of a block's CDF and increment tables


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
    """One resource's buckets: available masses Y and the mass `lost` by
    dropped parcels, both views into the flat arrays of the `FluidLedger`
    made over it."""

    def __init__(self, res, levels=None):
        self.res = res
        c = res.capacity
        if levels is None:
            levels = list(range(1, c + 1))
        bounds = levels + [c + 1]
        self.index_value = np.array(levels, dtype=float)        # rank used in scores
        self.size = np.array([bounds[j + 1] - bounds[j] for j in range(len(levels))], dtype=float)
        self.n_groups = len(levels)
        self._mass_inf = res.usage.mass_at_inf()
        self._cdf_inf = res.usage.cdf(math.inf)
        self._hint_floor = None

    def advance(self, now: float):
        """Advance this resource's ledger, and so every resource in it, to
        `now`. Nothing in the package calls it: the guides advance through
        `FluidInventory`. It is kept as the entry point that
        perfbench/tracer.py wraps."""
        self._ledger.advance(now)

    def top_group(self, floor: float = ZERO_TOL) -> int:
        """Index of the highest bucket with mass >= floor, else -1."""
        # Every bucket above the hint has Y < _hint_floor.
        hints, k = self._hints, self._k
        g = hints[k] if floor == self._hint_floor else self.n_groups - 1
        Y = self.Y
        while g >= 0 and not Y[g] >= floor:
            g -= 1
        hints[k], self._hint_floor = g, floor
        return g

    def consume(self, g: int, amount: float, now: float):
        """Match `amount` of bucket g at `now`, the clock of the last advance."""
        self.Y[g] -= amount
        if self._mass_inf == 1.0:       # nothing of it ever returns
            self.lost[g] += amount
            return
        self._ledger.book(self._p, g, amount, now)


class FluidInventory:
    """All resources' fluid state, advanced arrival by arrival along the
    instance's arrival times."""

    def __init__(self, instance, quantize_eps: float = 0.0):
        self.instance = instance
        fluids = [ResourceFluid(r, quantized_levels(r.capacity, quantize_eps) if quantize_eps > 0 else None)
                  for r in instance.resources]
        self.state = {rf.res.id: rf for rf in fluids}
        self.ledger = FluidLedger(fluids, [a.time for a in instance.arrivals])

    def advance(self, now: float):
        self.ledger.advance(now)

    def conservation_error(self) -> float:
        return self.ledger.conservation_error()


class FluidLedger:
    """The flat Y and lost of a set of resource fluids and the one ledger
    of their parcels, priced a block of scheduled arrivals at a time. The
    fluids point to it and it holds none of them, so a finished guide is
    freed at once rather than left to the cycle collector."""

    def __init__(self, fluids, times=()):
        self._times = np.array(times, dtype=float)
        self.size = np.concatenate([rf.size for rf in fluids])
        self.Y = self.size.copy()
        self.lost = np.zeros(len(self.size))
        self.hints = [rf.n_groups - 1 for rf in fluids]     # each fluid's top_group bound
        offs = np.cumsum([0] + [rf.n_groups for rf in fluids])
        booking = [k for k, rf in enumerate(fluids) if rf._mass_inf != 1.0]   # fluids that book parcels
        for k, rf in enumerate(fluids):
            rf._ledger, rf._hints, rf._k = self, self.hints, k
            rf.Y = self.Y[offs[k]:offs[k + 1]]
            rf.lost = self.lost[offs[k]:offs[k + 1]]
        for p, k in enumerate(booking):
            fluids[k]._p = p
        self._booking = booking
        self._offs = offs[booking].tolist()
        self._usage = [fluids[k].res.usage for k in booking]
        self._cdf_inf = np.array([np.nan if fluids[k]._mass_inf == 0.0 else fluids[k]._cdf_inf for k in booking])
        self._col0 = [0] * len(booking)     # each booking fluid's first block column
        # The ledger, in booking order: each parcel's mass (0.0 once
        # dropped), flat bucket and booking column in the current block.
        self._mass = np.zeros(64)
        self._bucket = np.zeros(64, dtype=np.int64)
        self._col = np.zeros(64, dtype=np.int64)
        self._n = 0
        self._lo = 0                  # parcels before it are all dropped
        self._topped = 0              # parcels taken into the column bounds
        self._clock = None
        self._next = 0                # the first scheduled time not yet advanced to
        self._scheduled = False       # whether the current block's rows are schedule times
        self._rows = []               # the current block's times; _row is the last advanced to
        self._row = -1

    def advance(self, now: float):
        """Credit returns accumulated up to time `now` back into Y."""
        row = self._row + 1
        if row < len(self._rows) and now == self._rows[row]:
            self._row = row
        else:
            self._start_block(now)
            row = 0
        if self._scheduled:
            self._next += 1
        self._clock = now
        if self._row_moves[row]:
            lo, n = self._lo, self._n
            if self._topped < n:        # the column bounds take in the newly booked parcels
                np.maximum.at(self._top, self._col[self._topped:n], self._bucket[self._topped:n])
                self._topped = n
            d = self._D[row]
            np.add.at(self.Y, self._bucket[lo:n], self._mass[lo:n] * d.take(self._col[lo:n]))
            bound = np.maximum.reduceat(np.where(d > 0.0, self._top, -1), self._starts)
            hints = self.hints
            for k, off, b in zip(self._booking, self._offs, bound.tolist()):
                if b - off > hints[k]:
                    hints[k] = b - off
        if self._drops[row]:
            idx = np.array(self._drops[row])
            rest = self._mass[idx] * (1.0 - self._C[self._col[idx], row])
            np.add.at(self.lost, self._bucket[idx], rest)
            self._mass[idx] = 0.0
            if idx[0] == self._lo:      # skip the dropped head of the ledger from now on
                live = self._mass[self._lo:self._n].nonzero()[0]
                self._lo += int(live[0]) if live.size else self._n - self._lo

    def book(self, p: int, g: int, amount: float, now: float):
        """Add a parcel of `amount` matched from bucket g of booking fluid p."""
        if now != self._clock:
            raise ValueError(f"a parcel is booked at the clock of the last advance, "
                             f"{self._clock}, not at {now}")
        i = self._n
        if i == len(self._mass):
            self._grow()
        amount = float(amount)
        c = self._col0[p] + self._row
        self._mass[i] = amount
        self._bucket[i] = self._offs[p] + g
        self._col[i] = c
        self._n = i + 1
        # Does the parcel leave the ledger at a later row of this block?
        if amount * self._thr_row[c] < PRUNE_TOL:
            r = self._hit_row[c]
            if r == -2:         # without mass at +inf: its first row below PRUNE_TOL
                first = self._row + 1
                gone = (amount * (1.0 - self._C[c, first:]) < PRUNE_TOL).nonzero()[0]
                r = first + int(gone[0]) if gone.size else -1
            if r >= 0:
                self._drops[r].append(i)

    def _grow(self):
        for name in ("_mass", "_bucket", "_col"):
            old = getattr(self, name)
            new = np.zeros(2 * len(old), dtype=old.dtype)
            new[: self._n] = old[: self._n]
            setattr(self, name, new)

    def _start_block(self, now: float):
        """Price the returns of the block of arrivals that starts at `now`."""
        nb = len(self._booking)
        n = self._n
        keep = self._mass[:n] != 0.0
        mass, bucket, col = self._mass[:n][keep], self._bucket[:n][keep], self._col[:n][keep]
        self._n = self._topped = m = len(mass)
        self._lo = 0
        # Carry the live bookings over, each with its time and the CDF level
        # it was credited up to; neighbours equal in both become one column.
        # Without the merge, a burst of arrivals at one time carries a column
        # per arrival into every later block, and the blocks get short.
        if self._rows:
            last = self._row
            used = np.zeros(len(self._ctime), dtype=bool)
            used[col] = True
            live = np.flatnonzero(used)
            owner, ltime = self._owner[live], self._ctime[live]
            lcred = np.where(self._first[live] <= last, self._C[live, last], 0.0)
            new = np.ones(len(live), dtype=bool)
            new[1:] = (owner[1:] != owner[:-1]) | (ltime[1:] != ltime[:-1]) | (lcred[1:] != lcred[:-1])
            group = np.cumsum(new) - 1
            owner, ltime, lcred = owner[new], ltime[new], lcred[new]
        else:
            owner = np.zeros(0, dtype=np.int64)
            ltime = lcred = np.zeros(0)
        # As many scheduled arrivals as keep the tables, k rows by the live
        # columns plus k per booking fluid, within TABLE_CELLS.
        times, L = self._times, len(owner)
        self._scheduled = self._next < len(times) and times[self._next] == now
        if not self._scheduled:
            rows = np.array([now])
        elif nb:
            k = int((math.sqrt(L * L + 4 * nb * TABLE_CELLS) - L) / (2 * nb))
            rows = times[self._next:self._next + max(k, 1)]
        else:
            rows = times[self._next:]
        k = len(rows)
        if L:
            remap = np.empty(len(used), dtype=np.int64)
            remap[live] = group + owner[group] * k
            col = remap[col]
        self._mass[:m], self._bucket[:m], self._col[:m] = mass, bucket, col
        # Columns, fluid by fluid: its live bookings, then one booking per
        # block row, whose parcels are first credited at the next row.
        nlive = np.bincount(owner, minlength=nb)
        width = nlive + k
        starts = np.cumsum(width) - width
        ncols = int(width.sum())
        at_live = np.arange(L) + owner * k
        at_row = ((starts + nlive)[:, None] + np.arange(k)).ravel()
        ctime = np.empty(ncols)
        ctime[at_live], ctime[at_row] = ltime, np.tile(rows, nb)
        first = np.zeros(ncols, dtype=np.int64)
        first[at_row] = np.tile(np.arange(1, k + 1), nb)
        # One CDF call per fluid; a row before a column's first is never
        # read, and is priced at elapsed time 0.
        elapsed = np.maximum(rows[None, :] - ctime[:, None], 0.0)
        C = np.empty((ncols, k))
        for p, usage in enumerate(self._usage):
            C[starts[p]:starts[p] + width[p]] = np.asarray(usage.cdf(elapsed[starts[p]:starts[p] + width[p]]),
                                                           dtype=float)
        self._col0 = (starts + nlive).tolist()
        D = np.empty((ncols, k))
        D[at_live, 0] = C[at_live, 0] - lcred
        D[:, 1:] = C[:, 1:] - C[:, :-1]
        fresh = at_row[first[at_row] < k]
        D[fresh, first[fresh]] = C[fresh, first[fresh]]
        counted = np.arange(k)[None, :] >= first[:, None]
        np.putmask(D, ~counted, 0.0)
        # Per column, a factor f such that a parcel of mass m is dropped in
        # the block only if m * f < PRUNE_TOL: the smallest 1 - cdf in its
        # row (no mass at +inf; hit = -2), or 0.0 if cdf reaches cdf(+inf)
        # at a counted row, the first of which is `hit`.
        cdf_inf = np.repeat(self._cdf_inf, width)
        inf_kind = ~np.isnan(cdf_inf)
        reach = counted & (C == cdf_inf[:, None])
        self._hit = np.where(inf_kind, np.where(reach.any(axis=1), reach.argmax(axis=1), -1), -2)
        self._thr = np.where(inf_kind, np.where(self._hit >= 0, 0.0, 1.0), (1.0 - C).min(axis=1))
        self._hit_row, self._thr_row = self._hit.tolist(), self._thr.tolist()   # for book's scalar reads
        self._C, self._D = C, np.ascontiguousarray(D.T)
        self._ctime, self._first, self._owner = ctime, first, np.repeat(np.arange(nb), width)
        self._starts = starts
        self._rows = rows.tolist()
        self._row = 0
        self._row_moves = D.any(axis=0).tolist()
        self._top = np.full(ncols, -1, dtype=np.int64)
        np.maximum.at(self._top, col, bucket)
        self._drops = [[] for _ in range(k)]
        self._file_drops(mass, col)

    def _file_drops(self, mass, col):
        """File each carried-over parcel that leaves the ledger in this block
        under the row at which it does, in ledger order."""
        idx = (mass * self._thr[col] < PRUNE_TOL).nonzero()[0]
        if not idx.size:
            return
        c = col[idx]
        row = self._hit[c]
        plain = (row == -2).nonzero()[0]
        if plain.size:          # without mass at +inf: the parcel's first row below PRUNE_TOL
            row[plain] = (mass[idx[plain], None] * (1.0 - self._C[c[plain]]) < PRUNE_TOL).argmax(axis=1)
        drops = self._drops
        for i, r in zip(idx.tolist(), row.tolist()):
            if r >= 0:
                drops[r].append(i)

    def conservation_error(self) -> float:
        """Max deviation of Y + outstanding + lost mass from bucket size."""
        n = self._n
        out = self.lost.copy()
        if n:
            row = self._row
            credited = np.where(self._first <= row, self._C[:, row], 0.0)
            np.add.at(out, self._bucket[:n], self._mass[:n] * (1.0 - credited[self._col[:n]]))
        return float(np.abs(self.Y + out - self.size).max())
