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

The reference budgeted rba rule builds every neighbour's top-rank list and
sums its prices, as `RbaBudgetedPolicy.decide` did before it built the rank
tuple for the winner only.

The reference fluid recursion of the single-unit process prices every
earlier arrival at every row, as `randproc.fluid_process` did before it
kept to its live window; the windowed, block-priced recursion must match it
bit for bit. The reference single-unit Monte Carlo steps every trial
through every arrival, one numpy step per arrival; the event-driven
`simulate_process` must match it bit for bit. The reference certificate check reads the
records of one scalar `simulate` trace per trial; the one that reads the
lockstep engine's per-(trial, arrival) arrays must match it bit for bit.

The single-unit process's two properties (raising the transition
probabilities never lowers the fluid reward, and forcing p_t = 1 where
eta_t = 0 changes nothing), the exact check of a probability-match
collection, and `uniform_from` (a keyed uniform folded on from a prefix
state) are oracles that only the tests call.

`solve_lp` solves `build_lp`'s full LP from the all-slack basis, the
oracle the package's one LP solve (`solve_lp_value`) is checked against;
`lp_value` is `solve_lp_value`'s objective. `as_coo` gives a dense matrix as the
coordinates `simplex.solve` takes, `row_kinds` names the rows of
`build_lp`'s LP, `lp_rounding` builds LP rounding as `certify` does, and
`one_resource_ledger` builds a fluid ledger over one resource.

`fresh_objects` rebuilds an instance with a new demand and a new arrival
object at every arrival, as instances were built before they shared one
object per distinct demand and per burst; `shared_objects` shares them
wherever two arrivals are alike. The two must give the same bytes.
"""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np

from reuse_alloc import fluid, model, policies, rng, simplex
from reuse_alloc.assortment import assortment_oracle
from reuse_alloc.benchmarks import (CertificateReport, CertificateRow, LpError, LpModel, LpRoundingPolicy,
                                    UnsupportedMode, _galg_candidate, _grouped, check_lp, solve_lp_value)
from reuse_alloc.engine import Paths, simulate
from reuse_alloc.simplex import (FEAS_TOL, INFEASIBLE, ITERATION_LIMIT, MAX_PIVOTS, OPT_TOL, OPTIMAL, PIVOT_TOL,
                                 STALL_LIMIT, Coo, SimplexResult)
from reuse_alloc.policies import RbaPolicy, reduced_price
from reuse_alloc.randproc import ProcessSpec, ProcessSummary, fluid_process


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
        self._cdf_inf = res.usage.cdf(math.inf)
        self._mass_inf = 1.0 - self._cdf_inf
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
    """`fluid.FluidLedger` before block pricing: every resource advanced
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


def one_resource_ledger(res, times):
    """A `fluid.FluidLedger` over `res` alone, for arrivals at `times`, and
    the resource's fluid in it."""
    inst = model.Instance(mode=model.MATCHING, resources=(res,),
                          arrivals=tuple(model.Arrival(t, model.MatchingEdges(frozenset({res.id}))) for t in times))
    ledger = fluid.FluidLedger(inst)
    return ledger, ledger.state[res.id]


def reference_guide(make, instance):
    """The guide `make(instance)` builds, on `ReferenceInventory`."""
    with mock.patch.object(policies, "FluidLedger", ReferenceInventory):
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
    monkeypatch.setattr(policies, "FluidLedger", ReferenceInventory)
    monkeypatch.setattr(ReferenceResourceFluid, "top_group", linear_top_group)
    if advance:
        monkeypatch.setattr(ReferenceResourceFluid, "advance", keep_all_advance)


def reference_galg(instance, variant="exact", eps=0.0):
    """The matching guide's waterfall on its own: per arrival, serve the
    argmax reduced price (ties to the lower id) until the arrival is full.
    Returns (x, allocs) as `GalgGuide` records them."""
    inv = fluid.FluidLedger(instance, quantize_eps=eps if variant == "quant" else 0.0)
    floor = max(eps if variant == "thresh" else fluid.ZERO_TOL, fluid.ZERO_TOL)
    cap = sum(r.capacity for r in instance.resources) + len(instance.resources) + 1
    xs, all_allocs = [], []
    for arrival in instance.arrivals:
        inv.advance(arrival.time)
        active = sorted(arrival.demand.resources)
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
    inv = fluid.FluidLedger(instance)
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
        pos = np.nonzero(col > PIVOT_TOL)[0]      # a tiny pivot only where no other is left
        if pos.size == 0:
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


def reference_build_lp(instance: model.Instance) -> tuple:
    """`benchmarks.build_lp` row by row: every capacity row scans every edge,
    every demand row scans every edge, and the rows are stacked at the end.
    Returns the LpModel and its rows' kinds, as `row_kinds` gives them."""
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
    return LpModel(instance=instance, edges=edges, obj=obj, A=as_coo(rows), rhs=np.array(rhs)), row_kinds


def row_kinds(lp: LpModel) -> list:
    """Each row of `build_lp`'s lp, in order: ("cap", resource id, tau) for
    the capacity row at the end tau of a distinct-time group, then
    ("demand", t) for arrival t's demand row."""
    _, edge_t, _, blocks = _grouped(lp.instance, lp.edges)
    kinds = [("cap", res.id, tau) for res, _, _, taus, _ in blocks for tau in taus.tolist()]
    return kinds + [("demand", t) for t in np.unique(edge_t).tolist()]


def as_coo(A) -> Coo:
    """A dense matrix by its nonzero entries, so a -0.0 in it is left out."""
    A = np.asarray(A, dtype=float)
    row, col = np.nonzero(A)
    return Coo(row, col, A[row, col], A.shape)


def solve_lp(lp: LpModel) -> SimplexResult:
    """The optimum of `build_lp`'s lp by one solve from the all-slack basis,
    x over `lp.edges`; LpError unless the solve ends at an optimum that
    passes `check_lp`."""
    res = simplex.solve(lp.obj, lp.A, lp.rhs)
    if res.status != OPTIMAL:
        raise LpError(f"LP solve ended with status {res.status}")
    check_lp(lp.obj, lp.A, lp.rhs, res)
    return res


def lp_value(instance: model.Instance) -> float:
    """The fluid LP's optimum, as `compare` reads it."""
    return solve_lp_value(instance).objective


def lp_rounding(instance: model.Instance) -> LpRoundingPolicy:
    """`LpRoundingPolicy` on `solve_lp_value`'s optimum, as `certify` builds it."""
    return LpRoundingPolicy(instance, solve_lp_value(instance))


def reference_fluid_process(spec):
    """randproc.fluid_process as the plain recursion: every row prices
    every earlier arrival with its own CDF call and dot product."""
    T = len(spec.sigma)
    if T == 0:
        return np.zeros(0), 0.0
    sigma = np.asarray(spec.sigma)
    p = np.asarray(spec.p)
    eta = np.zeros(T)
    consumed = np.zeros(T)      # eta_tau * p_tau
    credited = np.zeros(T)      # CDF level already paid back per tau
    eta[0] = 1.0
    consumed[0] = p[0]
    for t in range(1, T):
        new_cdf = np.asarray(spec.dist.cdf(sigma[t] - sigma[:t]))
        returned = consumed[:t] @ (new_cdf - credited[:t])
        credited[:t] = new_cdf
        eta[t] = eta[t - 1] - consumed[t - 1] + returned
        eta[t] = min(max(eta[t], 0.0), 1.0)  # guard fp residue only
        consumed[t] = eta[t] * p[t]
    return eta, float(p @ eta)


def check_monotonicity(dist, sigma, p_low, p_high, tol: float = 1e-12) -> bool:
    """Raising transition probabilities never lowers the fluid reward."""
    if any(a > b for a, b in zip(p_low, p_high)):
        raise ValueError("p_low must be <= p_high pointwise")
    _, r_low = fluid_process(ProcessSpec(dist, sigma, p_low))
    _, r_high = fluid_process(ProcessSpec(dist, sigma, p_high))
    return r_low <= r_high + tol


def check_zero_point_augmentation(spec: ProcessSpec, tol: float = 1e-10) -> bool:
    """Forcing p_t = 1 at zero-availability arrivals must not change eta."""
    eta, _ = fluid_process(spec)
    p2 = tuple(1.0 if eta[t] <= 1e-12 else spec.p[t] for t in range(len(spec.p)))
    eta2, _ = fluid_process(ProcessSpec(spec.dist, spec.sigma, p2))
    return bool(np.all(np.abs(eta2 - eta) <= tol))


def reference_simulate_process(spec, seed: int, trials: int) -> ProcessSummary:
    """simulate_process as one numpy step per arrival over all trials."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    T = len(spec.sigma)
    ids = np.arange(trials)
    match_time = np.full(trials, -np.inf)
    duration = np.zeros(trials)            # duration of the current use
    rewards = np.zeros(trials)
    avail_freq = np.zeros(T)
    for t, s in enumerate(spec.sigma):
        # Available iff the current use (if any) has ended by s; comparing
        # durations against s - match_time keeps atom boundaries exact.
        avail = duration <= s - match_time
        avail_freq[t] = avail.mean()
        if spec.p[t] > 0.0:
            u = rng.uniform_array(seed, (rng.TAG_POLICY, t), ids)
            take = avail & (u < spec.p[t])
            if take.any():
                ud = rng.uniform_array(seed, (rng.TAG_DURATION, t), ids[take])
                match_time[take] = s
                duration[take] = spec.dist.sample_u(ud)
                rewards[take] += 1.0
    mean = float(rewards.mean())
    se = float(rewards.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return ProcessSummary(trials=trials, mean=mean, se=se,
                          ci95=(mean - 1.96 * se, mean + 1.96 * se),
                          availability=avail_freq)


def reference_paths(instance: model.Instance, policy, trials: int, master_seed: int) -> Paths:
    """engine.lockstep(..., record=True) from one scalar trace per trial,
    reading its records."""
    index = {r.id: i for i, r in enumerate(instance.resources)}
    shape = (trials, len(instance.arrivals))
    paths = Paths(totals=np.zeros(trials), per_resource=np.zeros((len(index), trials)), events={},
                  resource=np.full(shape, -1, dtype=np.int64), units=np.zeros(shape, dtype=np.int64),
                  rank=np.zeros(shape, dtype=np.int64))
    for k in range(trials):
        tr = simulate(instance, policy, master_seed, k)
        paths.totals[k] = tr.total_reward
        for rid, v in tr.per_resource.items():
            paths.per_resource[index[rid], k] = v
        for name, v in tr.events.items():
            paths.events[name] = paths.events.get(name, 0) + v
        for rec in tr.records:
            if rec.resource is not None:
                paths.resource[k, rec.arrival] = index[rec.resource]
                paths.units[k, rec.arrival] = len(rec.units)
                paths.rank[k, rec.arrival] = rec.units[0] if rec.units else 0
    return paths


def reference_rba_budgeted_decide(arrival, state):
    """RbaBudgetedPolicy.decide: per neighbour in id order, its top
    min(bid, available) ranks, descending, and their summed reduced price;
    the winner."""
    best, best_score = None, -1.0
    for rid, bid in arrival.demand.bids().items():
        lv = state[rid]
        if not lv.avail:
            continue
        ranks = lv.avail[: -min(bid, len(lv.avail)) - 1 : -1]
        score = sum(map(lv.prices.__getitem__, ranks))
        if score > best_score:
            best, best_score = rid, score
    return best


def _reference_rba_candidate(instance, trials, master_seed):
    """rba's lambda and theta from one scalar trace per trial."""
    rewards = {r.id: r.reward for r in instance.resources}
    caps = {r.id: r.capacity for r in instance.resources}
    lam = np.zeros(len(instance.arrivals))
    theta = {r.id: 0.0 for r in instance.resources}
    totals = np.zeros(trials)
    pol = RbaPolicy()
    for k in range(trials):
        tr = simulate(instance, pol, master_seed, k)
        totals[k] = tr.total_reward
        for rec in tr.records:
            if rec.resource is None:
                continue
            rid = rec.resource
            g = math.exp(-rec.units[0] / caps[rid])
            lam[rec.arrival] += rewards[rid] * (1.0 - g)
            theta[rid] += rewards[rid] * g
    lam /= trials
    for rid in theta:
        theta[rid] /= trials
    se = float(totals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return lam, theta, float(totals.mean()), se


def reference_certificate_check(instance: model.Instance, alg: str, opt_policy, trials: int,
                                alpha: float, beta: float, master_seed: int = 0) -> CertificateReport:
    """certificate_check from one scalar trace per trial, reading its records.

    alg is "galg" (deterministic fluid candidate), "rba" (trace-estimated
    candidate), or "galg_swapped" (negative control with the lambda and theta
    integrands exchanged). opt_policy supplies the reference sample paths.
    """
    if instance.mode != model.MATCHING:
        raise UnsupportedMode("certificate check runs on matching instances")
    if alg == "galg":
        lam, theta, alg_value, alg_se = _galg_candidate(instance, swapped=False)
    elif alg == "galg_swapped":
        lam, theta, alg_value, alg_se = _galg_candidate(instance, swapped=True)
    elif alg == "rba":
        lam, theta, alg_value, alg_se = _reference_rba_candidate(instance, trials, rng.derive(master_seed, 1))
    else:
        raise ValueError(f"unknown candidate {alg!r}")

    rids = [r.id for r in instance.resources]
    rewards = {r.id: r.reward for r in instance.resources}
    lam_sums = {rid: np.zeros(trials) for rid in rids}
    units = {rid: np.zeros(trials) for rid in rids}
    opt_seed = rng.derive(master_seed, 2)
    for k in range(trials):
        tr = simulate(instance, opt_policy, opt_seed, k)
        for rec in tr.records:
            if rec.resource is None:
                continue
            lam_sums[rec.resource][k] += lam[rec.arrival]
            units[rec.resource][k] += len(rec.units)

    rows = []
    for rid in rids:
        diffs = lam_sums[rid] + theta[rid] - alpha * rewards[rid] * units[rid]
        se = float(diffs.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
        opt_i = float(rewards[rid] * units[rid].mean())
        lhs = theta[rid] + float(lam_sums[rid].mean())
        rows.append(CertificateRow(
            resource=rid, theta=theta[rid], opt_lambda_sum=float(lam_sums[rid].mean()),
            opt_i=opt_i, lhs=lhs, rhs=alpha * opt_i, se=se,
            passed=bool(float(diffs.mean()) >= -3.0 * se - 1e-12)))

    cond1_lhs = float(lam.sum() + sum(theta.values()))
    cond1_rhs = beta * alg_value
    cond1_se = beta * alg_se
    report = CertificateReport(
        rows=rows, cond1_lhs=cond1_lhs, cond1_rhs=cond1_rhs, cond1_se=cond1_se,
        cond1_passed=bool(cond1_lhs <= cond1_rhs + 3.0 * cond1_se + 1e-9),
        alg_value=alg_value, alpha=alpha, beta=beta)
    return report


def verify_probability_match(collection, cm, S, targets, tol: float = 1e-9):
    """Nestedness, total weight, and exact per-item match, or raise."""
    prev = None
    total = 0.0
    got = {s: 0.0 for s in S}
    for A, u in collection:
        if not A <= frozenset(S):
            raise AssertionError("assortment escapes S")
        if prev is not None and not A <= prev:
            raise AssertionError("assortments not nested")
        prev = A
        total += u
        for s in A:
            got[s] += u * cm.prob(A, s)
    if total > 1.0 + 1e-9:
        raise AssertionError(f"weights sum to {total} > 1")
    for s in S:
        if abs(got[s] - targets.get(s, 0.0)) > tol:
            raise AssertionError(f"item {s}: matched {got[s]}, target {targets.get(s, 0.0)}")


def uniform_from(h: int, *parts: int) -> float:
    """uniform_from(derive(s, *a), *b) == uniform(s, *a, *b): the oracle of
    `rng.uniform_from1`."""
    return (rng.fold(h, *parts) >> 11) * 2.0**-53


def fresh_objects(inst: model.Instance) -> model.Instance:
    """`inst` with a new demand object and a new arrival object at every arrival."""
    return dataclasses.replace(inst, arrivals=[model.Arrival(a.time, dataclasses.replace(a.demand))
                                               for a in inst.arrivals])


def shared_objects(inst: model.Instance) -> model.Instance:
    """`inst` with one demand object per demand alike in every field, field
    order and number type (its repr), and one arrival object per run of
    arrivals alike in time, time type and demand."""
    demands, arrivals = {}, []
    for a in inst.arrivals:
        d = demands.setdefault(repr(a.demand), a.demand)
        prev = arrivals[-1] if arrivals else None
        same = prev is not None and prev.demand is d and repr(prev.time) == repr(a.time)
        arrivals.append(prev if same else model.Arrival(a.time, d))
    return dataclasses.replace(inst, arrivals=arrivals)
