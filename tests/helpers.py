"""Shared test oracles.

The stochastic-rewards simulator mirrors the greedy engine run on a converted
immediate-return instance draw for draw: the same keyed uniform that decides
"duration 0 vs never returns" there decides "match fails vs succeeds" here,
so the two availability processes coincide path by path. All trials advance
in lockstep as numpy vectors; the per-unit RNG keys (resource, top rank, use
counter) are reconstructed from death and attempt counters.

The water-filling ratio is the closed form of continuous water-filling on the
upper-triangular family, computed from harmonic numbers alone.

The reference fluid is `ReferenceResourceFluid`, a ledger per resource that
makes one CDF call per resource at every arrival, as the fluid did before
block pricing; the block-priced inventory must match it bit for bit. Its
plainer forms are a full top-down scan for the highest bucket, and a ledger
that keeps and re-credits every parcel with mass at +inf at every arrival.

The reference waterfalls are the matching and assortment guides written as
two loops of their own, each re-scoring every active neighbour on every
iteration, so the shared `FluidGuide` waterfall can be checked against them.

The reference simplex updates the whole tableau row of every touched row at
each pivot, and the reference LP builder scans every edge for every row and
stacks the rows one by one; the sparse pivot and the grouped builder must
match them bit for bit.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np

from reuse_alloc import fluid, model, policies, rng
from reuse_alloc.assortment import assortment_oracle
from reuse_alloc.benchmarks import LpModel, UnsupportedMode
from reuse_alloc.simplex import (FEAS_TOL, INFEASIBLE, ITERATION_LIMIT, MAX_PIVOTS, OPT_TOL, OPTIMAL,
                                 STALL_LIMIT, SimplexResult)
from reuse_alloc.policies import reduced_price
from reuse_alloc.distributions import ZeroOrInf


def stochastic_rewards_greedy(instance: model.Instance, p: float, trials: int, master_seed: int):
    """Per-trial successful matches (and attempts) of greedy under the
    stochastic-rewards reading of a converted instance."""
    order = sorted(instance.resources, key=lambda r: (-r.reward, r.id))
    trial_seeds = rng.derive_vec(master_seed, rng.TAG_TRIAL, np.arange(trials))
    caps = {r.id: r.capacity for r in instance.resources}
    dead = {r.id: np.zeros(trials, dtype=np.int64) for r in instance.resources}
    # Attempts at the current top rank since it last changed: with top-rank
    # allocation the engine's use counter for (resource, rank c - dead) is
    # exactly this count + 1.
    streak = {r.id: np.zeros(trials, dtype=np.int64) for r in instance.resources}
    successes = np.zeros(trials)
    attempts = np.zeros(trials)
    for arrival in instance.arrivals:
        edges = arrival.demand.resources
        taken = np.zeros(trials, dtype=bool)
        for r in order:  # greedy order: reward desc, id asc
            if r.id not in edges:
                continue
            here = (~taken) & (dead[r.id] < caps[r.id])
            if not here.any():
                continue
            taken |= here
            rank = caps[r.id] - dead[r.id][here]
            use = streak[r.id][here] + 1
            u = rng.uniform_vec(trial_seeds[here], rng.TAG_DURATION, r.id, rank, use)
            died = u >= 1.0 - p  # the "never returns" branch = success
            idx = np.flatnonzero(here)
            dead[r.id][idx[died]] += 1
            streak[r.id][idx[died]] = 0
            streak[r.id][idx[~died]] += 1
            attempts[idx] += 1
            successes[idx[died]] += 1
    return successes, attempts


def convert_and_check(instance: model.Instance, p: float):
    conv = instance
    for r in conv.resources:
        assert isinstance(r.usage, ZeroOrInf) and abs(r.usage.p - (1.0 - p)) < 1e-12
    return conv


def water_filling_ratio(n: int) -> float:
    """Served fraction of continuous water-filling on the n-resource
    upper-triangular family (block j of unit mass to resources j..n-1, unit
    capacities).

    Block j spreads evenly over its n - j resources, so after k blocks they
    all sit at level H_n - H_{n-k}. With k the last block count at which that
    level is <= 1, the first k blocks are served in full and the next block
    fills the remaining n - k resources:
    w(n) = (k + (n - k)(1 - (H_n - H_{n-k}))) / n. It tends to 1 - 1/e as n
    grows; at n = 10 it is 0.661746...
    """
    harmonic = [Fraction(0)]
    for i in range(1, n + 1):
        harmonic.append(harmonic[-1] + Fraction(1, i))
    k = max(k for k in range(n + 1) if harmonic[n] - harmonic[n - k] <= 1)
    return float((k + (n - k) * (1 - (harmonic[n] - harmonic[n - k]))) / n)


class ReferenceResourceFluid:
    """`fluid.ResourceFluid` before block pricing: Y masses plus its own
    outstanding-parcel ledger, advanced with one CDF call per advance."""

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
            if k == n or self._cdf0 == 0.0 and self._mass[k:n].min() >= fluid.PRUNE_TOL:
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
            keep = mass * (1.0 - new_cdf) >= fluid.PRUNE_TOL
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

    def top_group(self, floor: float = fluid.ZERO_TOL) -> int:
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


class ReferenceInventory:
    """`fluid.FluidInventory` before block pricing: every resource advanced
    on its own at every arrival."""

    def __init__(self, instance, quantize_eps: float = 0.0):
        self.instance = instance
        self.state = {}
        for r in instance.resources:
            levels = fluid.quantized_levels(r.capacity, quantize_eps) if quantize_eps > 0 else None
            self.state[r.id] = ReferenceResourceFluid(r, levels)

    def advance(self, now: float):
        for rf in self.state.values():
            rf.advance(now)

    def conservation_error(self) -> float:
        return max(rf.conservation_error() for rf in self.state.values())


def reference_guide(make, instance):
    """The guide `make(instance)` builds, on `ReferenceInventory`."""
    with mock.patch.object(policies, "FluidInventory", ReferenceInventory):
        return make(instance)


def linear_top_group(rf, floor=fluid.ZERO_TOL):
    """Reference `top_group`: scan every bucket from the top."""
    for g in range(rf.n_groups - 1, -1, -1):
        if rf.Y[g] >= floor:
            return g
    return -1


def keep_all_advance(rf, now):
    """Reference `ReferenceResourceFluid.advance`: credit every parcel's CDF
    increment at every advance; only parcels of families without mass at
    +inf are ever pruned."""
    n = rf._n
    if n == 0:
        return
    new_cdf = np.asarray(rf.res.usage.cdf(now - rf._time[:n]), dtype=float)
    np.add.at(rf.Y, rf._group[:n], rf._mass[:n] * (new_cdf - rf._credited[:n]))
    rf._credited[:n] = new_cdf
    if rf._mass_inf == 0.0:
        keep = rf._mass[:n] * (1.0 - new_cdf) >= fluid.PRUNE_TOL
        m = int(keep.sum())
        for name in ("_time", "_mass", "_credited", "_group"):
            arr = getattr(rf, name)
            arr[:m] = arr[:n][keep]
        rf._n = m


def use_reference_fluid(monkeypatch, advance=True):
    """Build the guides on `ReferenceInventory` with the full scan (and, with
    `advance`, the keep-all ledger) for the rest of the test."""
    monkeypatch.setattr(policies, "FluidInventory", ReferenceInventory)
    monkeypatch.setattr(ReferenceResourceFluid, "top_group", linear_top_group)
    if advance:
        monkeypatch.setattr(ReferenceResourceFluid, "advance", keep_all_advance)


def reference_galg(instance, variant="exact", eps=0.0):
    """The matching guide's waterfall on its own: per arrival, serve the
    argmax reduced price (ties to the lower id) until the arrival is full.
    Returns (x, allocs) as `GalgGuide` records them."""
    inv = fluid.FluidInventory(instance, quantize_eps=eps if variant == "quant" else 0.0)
    floor = max(eps if variant == "thresh" else fluid.ZERO_TOL, fluid.ZERO_TOL)
    cap = sum(r.capacity for r in instance.resources) + len(instance.resources) + 1
    xs, all_allocs = [], []
    for arrival in instance.arrivals:
        inv.advance(arrival.time)
        active = list(arrival.demand.sorted_ids())
        xt, allocs = {}, []
        eta = 0.0
        iters = 0
        while eta < 1.0 - fluid.ZERO_TOL and active and iters < cap:
            iters += 1
            best_rid, best_g, best_score = None, -1, -1.0
            stale = []
            for rid in active:
                rf = inv.state[rid]
                g = rf.top_group(floor)
                if g < 0:
                    stale.append(rid)
                    continue
                score = reduced_price(rf.res.reward, rf.index_value[g], rf.res.capacity)
                if score > best_score:
                    best_rid, best_g, best_score = rid, g, score
            for rid in stale:
                active.remove(rid)
            if best_rid is None:
                break
            rf = inv.state[best_rid]
            take = min(rf.Y[best_g], 1.0 - eta)
            rf.consume(best_g, take, arrival.time)
            xt[best_rid] = xt.get(best_rid, 0.0) + take
            allocs.append((best_rid, float(rf.index_value[best_g]), take))
            eta += take
        xs.append(xt)
        all_allocs.append(allocs)
    return xs, all_allocs


def reference_astgalg(instance):
    """The assortment guide's waterfall on its own: per arrival, offer the
    oracle's assortment under bid-weighted reduced prices at the largest
    weight the buckets allow. Returns (collections, allocs) as
    `AstgalgGuide` records them."""
    inv = fluid.FluidInventory(instance)
    cap = sum(r.capacity for r in instance.resources) + len(instance.resources) + 1
    collections, all_allocs = [], []
    for arrival in instance.arrivals:
        inv.advance(arrival.time)
        cm = instance.choice_models[arrival.demand.choice_model]
        bids = arrival.demand.bids()
        active = sorted(bids)
        collection, allocs = [], []
        eta = 0.0
        iters = 0
        while eta < 1.0 - fluid.ZERO_TOL and active and iters < cap:
            iters += 1
            w, tops, stale = {}, {}, []
            for rid in active:
                rf = inv.state[rid]
                g = rf.top_group()
                if g < 0:
                    stale.append(rid)
                    continue
                tops[rid] = g
                w[rid] = bids[rid] * reduced_price(rf.res.reward, rf.index_value[g], rf.res.capacity)
            for rid in stale:
                active.remove(rid)
            if not w:
                break
            A = assortment_oracle(cm, arrival.demand.feasible, w)
            if not A:
                break
            u = 1.0 - eta
            for rid in A:
                u = min(u, inv.state[rid].Y[tops[rid]] / (bids[rid] * cm.prob(A, rid)))
            for rid in sorted(A):
                rf = inv.state[rid]
                g = tops[rid]
                mass = min(u * bids[rid] * cm.prob(A, rid), rf.Y[g])
                rf.consume(g, mass, arrival.time)
                allocs.append((rid, float(rf.index_value[g]), mass))
            collection.append((A, u))
            eta += u
        collections.append(collection)
        all_allocs.append(allocs)
    return collections, all_allocs


def reference_simplex(c, A, b):
    """`simplex.solve` with the full-row pivot update and the m x m identity
    temporary; its duals are the cost row's slack block."""
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if (b < 0).any():
        return SimplexResult(INFEASIBLE, 0.0, np.zeros(n), 0, np.zeros(m))

    # Tableau: [A | I | b], last row holds reduced costs (-c) and the value.
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n : n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = np.arange(n, n + m)

    bland = False
    stall = 0
    last_obj = 0.0
    pivots = 0
    while pivots < MAX_PIVOTS:
        costs = T[m, :-1]
        if bland:
            neg = np.nonzero(costs < -OPT_TOL)[0]
            if neg.size == 0:
                break
            j = int(neg[0])
        else:
            j = int(np.argmin(costs))
            if costs[j] >= -OPT_TOL:
                break
        col = T[:m, j]
        pos = np.nonzero(col > FEAS_TOL)[0]
        if pos.size == 0:
            # Our models bound every variable through a demand row, so an
            # unbounded ray means a malformed input; surface it loudly.
            raise ValueError("LP is unbounded")
        ratios = T[pos, -1] / col[pos]
        best = ratios.min()
        tied = pos[ratios <= best + FEAS_TOL]
        i = int(tied[np.argmin(basis[tied])])  # smallest basis index on ties

        T[i, :] /= T[i, j]
        colv = T[:, j].copy()
        colv[i] = 0.0
        # Exact zeros in the pivot column skip whole rows losslessly; on the
        # assignment-like LPs built here most rows stay untouched per pivot.
        nz = np.flatnonzero(colv)
        if nz.size:
            T[nz] -= np.outer(colv[nz], T[i, :])
        basis[i] = j
        pivots += 1

        obj = T[m, -1]
        if obj <= last_obj + 1e-12:
            stall += 1
            if stall >= STALL_LIMIT:
                bland = True
        else:
            stall = 0
        last_obj = obj
    else:
        return SimplexResult(ITERATION_LIMIT, float(T[m, -1]), _reference_extract(T, basis, n, m), MAX_PIVOTS,
                             T[m, n : n + m].copy())

    return SimplexResult(OPTIMAL, float(T[m, -1]), _reference_extract(T, basis, n, m), pivots,
                         T[m, n : n + m].copy())


def _reference_extract(T, basis, n, m):
    x = np.zeros(n + m)
    x[basis] = T[: m, -1]
    return x[:n]


def reference_build_lp(instance: model.Instance) -> LpModel:
    """`benchmarks.build_lp` row by row: every capacity row scans every edge,
    every demand row scans every edge, and the rows are stacked at the end."""
    if instance.mode not in (model.MATCHING, model.BUDGETED):
        raise UnsupportedMode("the LP bound covers matching and budgeted modes")
    edges = list(instance.edges())
    col = {(t, rid): e for e, (t, rid, _) in enumerate(edges)}
    times = np.array([a.time for a in instance.arrivals])
    rewards = {r.id: r.reward for r in instance.resources}

    # Last arrival index of each distinct-time group.
    group_end = {}
    for t, a in enumerate(instance.arrivals):
        group_end[a.time] = t

    n = len(edges)
    row_kinds = []
    data = []
    rhs = []
    for res in instance.resources:
        mine = [(t, bid) for (t, rid, bid) in edges if rid == res.id]
        if not mine:
            continue
        taus = sorted({group_end[times[t]] for t, _ in mine})
        for tau in taus:
            row = np.zeros(n)
            a_tau = times[tau]
            for t, bid in mine:
                if t <= tau:
                    row[col[(t, res.id)]] = bid * (1.0 - res.usage.cdf(a_tau - times[t]))
            data.append(row)
            rhs.append(float(res.capacity))
            row_kinds.append(("cap", res.id, tau))
    for t, a in enumerate(instance.arrivals):
        here = [col[(t, rid)] for (tt, rid, _) in edges if tt == t]
        if not here:
            continue
        row = np.zeros(n)
        row[here] = 1.0
        data.append(row)
        rhs.append(1.0)
        row_kinds.append(("demand", t))

    obj = np.array([bid * rewards[rid] for (_, rid, bid) in edges])
    rows = np.vstack(data) if data else np.zeros((0, n))
    return LpModel(instance=instance, edges=edges, obj=obj, rows=rows,
                   rhs=np.array(rhs), row_kinds=row_kinds)
