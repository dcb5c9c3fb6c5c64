"""Offline comparators: the fluid LP bound, its rounding policy, a brute-force
clairvoyant for tiny instances, and an empirical certificate checker.

The LP treats reusability fluidly: a unit matched at time a(t) counts toward
the capacity row at a later time a(tau) with weight 1 - F(a(tau) - a(t)), the
expected fraction still in use. Its optimum upper-bounds every online policy
and the clairvoyant; asymptotically (large capacities) the two benchmarks
coincide, so vs-LP ratios carry empirical slack at desk scale. `lp_value`
takes the optimum from a smaller, exact reduction (`solve_lp_value`);
`build_lp` and `solve_lp` give the full LP's vertex, which LP rounding reads.

The certificate checker evaluates a two-condition linear system whose
feasibility witnesses a competitive ratio: per-resource pseudo-rewards
theta_i + E[sum of lambda_t over arrivals the reference policy serves with i]
must cover alpha * OPT_i, while sum theta + sum lambda stays within
beta * ALG. It reports Monte-Carlo slack; it never proves a theorem.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import model, rng, simplex
from .distributions import Deterministic, NonReusable, TwoPointInf, ZeroOrInf, exact_vector_cdf
from .engine import lockstep, mean_se, simulate  # noqa: F401  (perfbench/tracer.py wraps benchmarks.simulate)
from .policies import RbaPolicy, RowSampler, run_galg

OPTIMAL = simplex.OPTIMAL
CDF_RUN = 1 << 14       # ages per list of Python floats in `_coefficients`


class UnsupportedMode(ValueError):
    pass


class LpError(RuntimeError):
    """An LP solve that did not end at a checked optimum."""


@dataclass
class LpModel:
    """max obj.y s.t. A y <= rhs, 0 <= y <= 1 (upper bounds are implied
    by the per-arrival demand rows, so they are not materialized). `rows`
    allocates A densely on each access; no CLI command reads it."""

    instance: model.Instance
    edges: list              # (arrival index, resource id, bid), defines y order
    obj: np.ndarray
    A: simplex.Coo
    rhs: np.ndarray
    row_kinds: list          # ("cap", rid, tau) | ("demand", t)

    @property
    def rows(self) -> np.ndarray:
        dense = np.zeros(self.A.shape)
        dense[self.A.row, self.A.col] = self.A.val
        return dense


@dataclass
class LpSolution:
    status: str
    objective: float
    y: dict                  # (arrival index, resource id) -> value
    pivots: int = 0


def _grouped(instance: model.Instance, edges: list):
    """The grouped pass behind both LP paths: (times, edge_t, edge_bid,
    blocks), with one block (res, es, ts, taus, lens) per resource with an
    edge. es are its edges in arrival order and ts their arrival indices;
    taus are the ends of the distinct-time groups that hold one of them, one
    capacity row each, and row k holds the first lens[k] edges of es. Only
    matching and budgeted instances have an LP; others raise UnsupportedMode."""
    if instance.mode not in (model.MATCHING, model.BUDGETED):
        raise UnsupportedMode("the LP bound covers matching and budgeted modes")
    times = np.array([a.time for a in instance.arrivals])
    group_end = {}
    for t, a in enumerate(instance.arrivals):
        group_end[a.time] = t
    end = np.array([group_end[a.time] for a in instance.arrivals], dtype=np.int64)
    edge_t = np.array([t for t, _, _ in edges], dtype=np.int64)
    edge_bid = np.array([bid for _, _, bid in edges], dtype=np.int64)
    mine = {r.id: [] for r in instance.resources}
    for e, (_, rid, _) in enumerate(edges):
        mine[rid].append(e)
    blocks = []
    for res in instance.resources:
        es = np.array(mine[res.id], dtype=np.int64)
        if es.size:
            ts = edge_t[es]
            taus = np.unique(end[ts])
            blocks.append((res, es, ts, taus, np.searchsorted(ts, taus, side="right")))
    return times, edge_t, edge_bid, blocks


def _coefficients(res: model.Resource, times: np.ndarray, row_t: np.ndarray, edge_t: np.ndarray,
                  bids: np.ndarray) -> np.ndarray:
    """bid * (1 - F(times[row_t] - times[edge_t])) per (row, edge) pair, with
    the CDF F of `res` at each distinct age: one vector call where that is
    bit-exact (`exact_vector_cdf`), else one scalar call per age. The
    scalar calls take Python floats (the same bits as numpy scalars, without
    their arithmetic), CDF_RUN ages to a list, into one float array."""
    ages, which = np.unique(times[row_t] - times[edge_t], return_inverse=True)
    F = res.usage.cdf
    if exact_vector_cdf(res.usage):
        cdf = F(ages)
    else:
        runs = (ages[lo : lo + CDF_RUN].tolist() for lo in range(0, ages.size, CDF_RUN))
        cdf = np.fromiter(map(F, itertools.chain.from_iterable(runs)), float, ages.size)
    return bids * (1.0 - cdf[which])


def _objective(instance: model.Instance, edges: list) -> np.ndarray:
    rewards = {r.id: r.reward for r in instance.resources}
    return np.array([bid * rewards[rid] for (_, rid, bid) in edges])


def _assemble(blocks, rows, price, edge_t, demand_rhs):
    """(A, rhs) of the LP with the capacity rows `rows` of `blocks` (one
    ascending array of row indices per block from `_grouped`, in block
    order) and, unless demand_rhs is None, one demand row per distinct
    arrival of edge_t, whose right-hand sides are demand_rhs. Column e is
    edge e, at arrival edge_t[e]; price(b, k, j) gives the coefficients of
    the pairs (row k, edge es[j]) of block b. Coordinates go into
    preallocated arrays one run of rows at a time; no m x n array is made."""
    n = edge_t.size
    demand_t = np.unique(edge_t) if demand_rhs is not None else edge_t[:0]
    counts = [lens[ks] for (*_, lens), ks in zip(blocks, rows)]
    m = sum(ks.size for ks in rows)
    nnz = sum(int(c.sum()) for c in counts) + (n if demand_rhs is not None else 0)
    row = np.empty(nnz, dtype=np.int32)
    col = np.empty(nnz, dtype=np.int32)
    val = np.empty(nnz)
    rhs = np.empty(m + demand_t.size)
    r0 = k0 = 0
    for b, ((res, es, *_), ks, c) in enumerate(zip(blocks, rows, counts)):
        # A row holds at most n edges, so a run of the rows that start in the
        # same window of 2n coordinates keeps every temporary under 3n entries.
        before = np.cumsum(c) - c
        for part in np.split(np.arange(ks.size), np.flatnonzero(np.diff(before // (2 * n))) + 1):
            pos, j = _pairs(c[part])
            k1 = k0 + pos.size
            row[k0:k1] = r0 + part[pos]
            col[k0:k1] = es[j]
            val[k0:k1] = price(b, ks[part[pos]], j)
            k0 = k1
        rhs[r0 : r0 + ks.size] = float(res.capacity)
        r0 += ks.size
    if demand_rhs is not None:
        row[k0:] = r0 + np.searchsorted(demand_t, edge_t)
        col[k0:] = np.arange(n)
        val[k0:] = 1.0
        rhs[r0:] = demand_rhs
    return simplex.Coo(row, col, val, (rhs.size, n)), rhs


def build_lp(instance: model.Instance) -> LpModel:
    """Exact fluid LP; capacity rows are emitted once per (resource, arrival
    time bucket with a new edge) because later rows with no new edge have
    pointwise smaller coefficients and the same right-hand side.

    One pass groups the edges by resource and by arrival (`_grouped`). A
    resource's edges come in arrival order, so its row at bucket end tau
    holds a prefix of them; an arrival's edges are contiguous, so its demand
    row is one run of columns. Each coefficient is bid * (1 - F(age)), with
    F evaluated once per distinct age in a run of the resource's rows
    (`_coefficients`). `_assemble` lays A out as coordinates, one per (row,
    edge) pair."""
    edges = list(instance.edges())
    times, edge_t, edge_bid, blocks = _grouped(instance, edges)

    def price(b, k, j):
        res, es, ts, taus, _ = blocks[b]
        return _coefficients(res, times, taus[k], ts[j], edge_bid[es[j]])

    A, rhs = _assemble(blocks, [np.arange(taus.size) for _, _, _, taus, _ in blocks], price, edge_t, 1.0)
    row_kinds = [("cap", res.id, tau) for res, _, _, taus, _ in blocks for tau in taus.tolist()]
    row_kinds += [("demand", t) for t in np.unique(edge_t).tolist()]
    return LpModel(instance=instance, edges=edges, obj=_objective(instance, edges), A=A, rhs=rhs,
                   row_kinds=row_kinds)


def solve_lp(lp: LpModel) -> LpSolution:
    """Solve `lp`; an optimum must pass `check_lp_solution`, else
    LpError names the check that failed."""
    res = simplex.solve(lp.obj, lp.A, lp.rhs)
    if res.status == OPTIMAL:
        check_lp_solution(lp, res)
    y = {(t, rid): float(res.x[e]) for e, (t, rid, _) in enumerate(lp.edges)}
    return LpSolution(status=res.status, objective=res.objective, y=y, pivots=res.pivots)


def check_lp_solution(lp: LpModel, res: simplex.SimplexResult) -> tuple:
    """`simplex.check` of res on lp: its (name, breach) pairs, or LpError
    naming the first breach above `simplex.tolerance(res)`."""
    return _checked(lp.obj, lp.A, lp.rhs, res)


def _checked(c, A, b, res: simplex.SimplexResult) -> tuple:
    breaches, tol = simplex.check(c, A, b, res), simplex.tolerance(res)
    for name, breach in breaches:
        if not breach <= tol:
            raise LpError(f"LP solution check failed: {name} {float(breach):.3g} exceeds {tol:.3g}")
    return breaches


def _pairs(lens: np.ndarray):
    """(pos, at): every (row, edge) pair of rows whose edges are prefixes of
    lengths lens: the row's position in lens and the edge's in its prefix."""
    return np.repeat(np.arange(lens.size), lens), simplex.ranges(np.zeros_like(lens), lens)


def _column_pairs(rows: np.ndarray, lens: np.ndarray, edges: np.ndarray):
    """(k, j): for each edge j in `edges`, every row k in `rows` (ascending)
    whose prefix of lens[k] edges holds j."""
    first = np.searchsorted(lens[rows], edges, side="right")
    counts = rows.size - first
    return rows[simplex.ranges(first, counts)], np.repeat(edges, counts)


def solve_lp_value(instance: model.Instance) -> simplex.SimplexResult:
    """The optimum of `build_lp(instance)` from a smaller LP. At an optimum,
    x and y are over `build_lp`'s columns and rows; pivots count every round.

    Classes: arrivals with the same time and the same bids have the same
    column in every row, so one demand row per class (right-hand side k, its
    size) and one column per (class, resource) give the same optimum. Rows on
    demand: the first round has the demand rows only, and each next round
    adds, of the capacity rows whose load at the last optimum exceeds their
    capacity at all, the `batch` that exceed it most (ties to the lower
    block, then the lower row), with batch = 1, 2, 4, ... over the rounds,
    until none does. So a row never violated at a round's optimum is never
    added. `_assemble` lays out the rows each round adds. Every round solves
    on one `simplex.Tableau`: the first from the all-slack basis, the next
    ones from the last round's basis, by dual simplex steps over the added
    rows. Only the rows in the LP and the (row, edge) pairs with
    x != 0 are priced, each once. The solution is mapped back: a member's x
    is its class's x / k and its demand row takes its class's dual, and a
    row never added has dual 0. It must pass `simplex.check` on the full
    LP's (objective, A, right-hand side), less only the entries of A with
    x = 0 and y = 0, which add exactly zero to A x and to A^T y; else
    LpError names the breach."""
    # rep[t] is the first arrival of t's class; its edges are the class's columns.
    # A class key holds the index of its bids, looked up once per demand object.
    rep = np.empty(len(instance.arrivals), dtype=np.int64)
    first, index, of_demand = {}, {}, {}
    for t, a in enumerate(instance.arrivals):
        if id(a.demand) not in of_demand:
            of_demand[id(a.demand)] = index.setdefault(tuple(a.demand.bids().items()), len(index))
        rep[t] = first.setdefault((a.time, of_demand[id(a.demand)]), t)
    size = np.bincount(rep, minlength=rep.size)
    edges = list(instance.edges())
    own = [e for e, (t, _, _) in enumerate(edges) if rep[t] == t]
    times, edge_t, edge_bid, blocks = _grouped(instance, [edges[e] for e in own])
    obj = _objective(instance, edges)
    demand_t = np.unique(edge_t)
    starts = [np.cumsum(lens) - lens for *_, lens in blocks]
    # Each block's coefficients in the full LP's (row, edge) layout, NaN until priced.
    cache = [np.full(int(lens.sum()), np.nan) for *_, lens in blocks]
    # Each capacity row's row in the LP, -1 until it is added; the demand rows come first.
    at_row = [np.full(taus.size, -1) for _, _, _, taus, _ in blocks]

    def price(b, k, j):
        res, es, ts, taus, _ = blocks[b]
        at = starts[b][k] + j
        a = cache[b][at]
        new = np.isnan(a)
        if new.any():           # a round's rows are mostly priced before, by the violation test
            a[new] = cache[b][at[new]] = _coefficients(res, times, taus[k[new]], ts[j[new]], edge_bid[es[j[new]]])
        return a

    tableau = simplex.Tableau()
    A, rhs = _assemble(blocks, [k[:0] for k in at_row], price, edge_t, size[demand_t])
    sol = simplex.solve(obj[own], A, rhs, tableau)
    pivots, batch = sol.pivots, 1
    while sol.status == OPTIMAL and blocks:
        over = []           # (block, row, load - capacity) of the rows not yet added whose load exceeds it
        for b, (res, es, _, taus, lens) in enumerate(blocks):
            k, j = _column_pairs(np.flatnonzero(at_row[b] < 0), lens, np.flatnonzero(sol.x[es] != 0.0))
            load = np.bincount(k, weights=price(b, k, j) * sol.x[es[j]], minlength=taus.size)
            ks = np.flatnonzero(load > res.capacity)
            over.append((np.full(ks.size, b), ks, load[ks] - res.capacity))
        bs, ks, excess = map(np.concatenate, zip(*over))
        if not ks.size:
            break
        top = np.sort(np.argsort(-excess, kind="stable")[:batch])     # ties to the lower block, then row
        batch *= 2
        rows = [ks[top][bs[top] == b] for b in range(len(blocks))]
        m = sol.y.size          # the LP's rows so far
        for b, added in enumerate(rows):
            at_row[b][added] = m + np.arange(added.size)
            m += added.size
        A, rhs = _assemble(blocks, rows, price, edge_t, None)
        sol = simplex.solve(obj[own], A, rhs, tableau)
        pivots += sol.pivots
    del tableau             # its pages go before the map-back
    if sol.status != OPTIMAL:
        return dataclasses.replace(sol, pivots=pivots)

    # Map back and check on the full LP, with every coefficient from the cache.
    X = sol.x
    full_t = np.array([t for t, _, _ in edges], dtype=np.int64)
    col_of = {edges[e][:2]: c for c, e in enumerate(own)}
    cls = np.array([col_of[(rep[t], rid)] for t, rid, _ in edges], dtype=np.int64)
    members = np.argsort(cls, kind="stable")      # members[at[c]:at[c] + k] are class column c's edges
    at = np.searchsorted(cls[members], np.arange(len(own)))
    row, col, val, y, rhs = [], [], [], [], []
    for b, (res, es, ts, taus, lens) in enumerate(blocks):
        added = at_row[b] >= 0
        dual = np.zeros(taus.size)
        dual[added] = sol.y[at_row[b][added]]
        # Every pair with X != 0, then those with X = 0 in a row with a dual != 0.
        k, j = _column_pairs(np.arange(taus.size), lens, np.flatnonzero(X[es] != 0.0))
        ks = np.flatnonzero(dual)
        pos, jj = _pairs(lens[ks])
        zero = X[es[jj]] == 0.0
        k, j = np.concatenate([k, ks[pos[zero]]]), np.concatenate([j, jj[zero]])
        reps = size[ts[j]]
        row.append(len(rhs) + np.repeat(k, reps))
        col.append(members[simplex.ranges(at[es[j]], reps)])
        val.append(np.repeat(price(b, k, j), reps))
        y.append(dual)
        rhs += [float(res.capacity)] * taus.size
    full_demand = np.unique(full_t)
    y.append(sol.y[np.searchsorted(demand_t, rep[full_demand])])
    row.append(len(rhs) + np.searchsorted(full_demand, full_t))
    col.append(np.arange(len(edges)))
    val.append(np.ones(len(edges)))
    rhs += [1.0] * full_demand.size
    # Each list is joined and dropped in turn, so that its parts and its join never all coexist.
    row = np.concatenate(row, dtype=np.int32)
    col = np.concatenate(col, dtype=np.int32)
    A = simplex.Coo(row, col, np.concatenate(val), (len(rhs), len(edges)))
    out = simplex.SimplexResult(OPTIMAL, sol.objective, X[cls] / size[rep[full_t]], pivots, np.concatenate(y))
    _checked(obj, A, np.array(rhs), out)
    return out


def lp_value(instance: model.Instance) -> float:
    """The fluid LP's optimum by `solve_lp_value`."""
    res = solve_lp_value(instance)
    if res.status != OPTIMAL:
        raise LpError(f"LP solve ended with status {res.status}")
    return res.objective


class LpRoundingPolicy(RowSampler):
    """Offline rounding of an LP solution: sample i w.p. y_{it}/(1+2 delta)."""

    name = "lp_rounding"
    events = ("lp_rounding_sampled", "lp_rounding_sampled_unavailable")
    decide_batch = RowSampler.decide_batch

    def __init__(self, instance: model.Instance, sol: LpSolution):
        super().__init__()
        self.mode = instance.mode
        c_min = min(r.capacity for r in instance.resources)
        self.delta = math.sqrt(math.log(c_min) / c_min) if c_min > 1 else 0.0
        scale = 1.0 / (1.0 + 2.0 * self.delta)
        self._rows = [[(rid, w) for rid in sorted(arr.demand.bids())
                       if (w := sol.y.get((t, rid), 0.0) * scale) > 0.0]
                      for t, arr in enumerate(instance.arrivals)]


# --- brute-force clairvoyant ----------------------------------------------------

_FINITE_SUPPORT = (Deterministic, TwoPointInf, ZeroOrInf, NonReusable)


def brute_force_clairvoyant(instance: model.Instance) -> float:
    """Exact expected reward of the optimal non-anticipating offline policy.

    Expectimax over observable states: per unit, either available or in-use
    with its match time and the CDF level already ruled out by observed
    non-return. Durations resolve lazily through conditional return
    probabilities at each next arrival, so decisions never peek at
    unrevealed randomness.
    """
    T = len(instance.arrivals)
    if T > 8:
        raise model.TooLarge("clairvoyant limited to 8 arrivals")
    if sum(r.capacity for r in instance.resources) > 6:
        raise model.TooLarge("clairvoyant limited to 6 total units")
    for r in instance.resources:
        if not isinstance(r.usage, _FINITE_SUPPORT):
            raise model.TooLarge(f"resource {r.id}: clairvoyant needs finite-support durations")
    rids = [r.id for r in instance.resources]
    res = {r.id: r for r in instance.resources}
    times = [a.time for a in instance.arrivals]
    memo = {}

    def advance(state, t_next):
        """Distribution over states after processing returns at arrival t_next."""
        per_unit = []
        for rid in rids:
            for st in state[rids.index(rid)]:
                if st == "A":
                    per_unit.append((rid, "A", 1.0, None))
                else:
                    tau, cred = st[1], st[2]
                    new_cdf = res[rid].usage.cdf(times[t_next] - tau)
                    p_ret = 0.0 if 1.0 - cred <= 0.0 else (new_cdf - cred) / (1.0 - cred)
                    per_unit.append((rid, st, p_ret, new_cdf))
        dist = [((), 1.0)]
        for rid, st, p_ret, new_cdf in per_unit:
            grown = []
            for (prefix, prob) in dist:
                if st == "A":
                    grown.append((prefix + ((rid, "A"),), prob))
                    continue
                if p_ret > 0.0:
                    grown.append((prefix + ((rid, "A"),), prob * p_ret))
                if p_ret < 1.0:
                    grown.append((prefix + ((rid, (st[0], st[1], new_cdf)),), prob * (1.0 - p_ret)))
            dist = grown
        out = []
        for prefix, prob in dist:
            buckets = {rid: [] for rid in rids}
            for rid, st in prefix:
                buckets[rid].append(st)
            out.append((tuple(tuple(sorted(buckets[rid], key=_status_key)) for rid in rids), prob))
        return out

    def avail_count(state, rid):
        return sum(1 for st in state[rids.index(rid)] if st == "A")

    def allocate(state, rid, count, now):
        idx = rids.index(rid)
        row = list(state[idx])
        done = 0
        for i, st in enumerate(row):
            if st == "A" and done < count:
                row[i] = ("U", now, 0.0)
                done += 1
        out = list(state)
        out[idx] = tuple(sorted(row, key=_status_key))
        return tuple(out)

    def value(t, state):
        if t == T:
            return 0.0
        key = (t, state)
        if key in memo:
            return memo[key]
        arrival = instance.arrivals[t]
        now = times[t]

        def go(next_state):
            if t + 1 == T:
                return value(t + 1, next_state)
            acc = 0.0
            for st2, prob in advance(next_state, t + 1):
                acc += prob * value(t + 1, st2)
            return acc

        best = go(state)  # decline
        bids = arrival.demand.bids()
        if instance.mode in (model.MATCHING, model.BUDGETED):
            for rid, bid in bids.items():
                take = min(bid, avail_count(state, rid))
                if take == 0:
                    continue
                cand = res[rid].reward * take + go(allocate(state, rid, take, now))
                best = max(best, cand)
        else:
            cm = instance.choice_models[arrival.demand.choice_model]
            offerable = [rid for rid in sorted(bids) if avail_count(state, rid) >= 1]
            for k in range(1, len(offerable) + 1):
                for combo in itertools.combinations(offerable, k):
                    S = frozenset(combo)
                    if not arrival.demand.feasible.allows(S):
                        continue
                    total = 0.0
                    p_none = 1.0
                    for rid in combo:
                        p = cm.prob(S, rid)
                        p_none -= p
                        if p == 0.0:
                            continue
                        take = min(bids[rid], avail_count(state, rid))
                        total += p * (res[rid].reward * take + go(allocate(state, rid, take, now)))
                    total += max(p_none, 0.0) * go(state)
                    best = max(best, total)
        memo[key] = best
        return best

    start = tuple(tuple(["A"] * res[rid].capacity) for rid in rids)
    return value(0, start)


def _status_key(st):
    return (0, 0.0, 0.0) if st == "A" else (1, st[1], st[2])


# --- LP-free certificate check ----------------------------------------------------

@dataclass
class CertificateRow:
    resource: int
    theta: float
    opt_lambda_sum: float
    opt_i: float
    lhs: float
    rhs: float
    se: float
    passed: bool


@dataclass
class CertificateReport:
    rows: list
    cond1_lhs: float
    cond1_rhs: float
    cond1_se: float
    cond1_passed: bool
    alg_value: float
    alpha: float
    beta: float

    @property
    def cond3_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def passed(self) -> bool:
        return self.cond1_passed and self.cond3_passed


def _galg_candidate(instance, swapped: bool):
    guide = run_galg(instance)
    rewards = {r.id: r.reward for r in instance.resources}
    caps = {r.id: r.capacity for r in instance.resources}
    lam = np.zeros(len(instance.arrivals))
    theta = {r.id: 0.0 for r in instance.resources}
    for t, allocs in enumerate(guide.allocs):
        for rid, rank, amt in allocs:
            g = math.exp(-rank / caps[rid])
            lo, hi = (1.0 - g, g) if not swapped else (g, 1.0 - g)
            lam[t] += rewards[rid] * amt * lo
            theta[rid] += caps[rid] * math.expm1(1.0 / caps[rid]) * rewards[rid] * amt * hi
    return lam, theta, guide.fluid_reward, 0.0


def _sum_in_order(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """x summed along `axis` one term after another, as a loop adds (np.sum
    adds pairwise). A +0.0 term leaves a sum that starts at +0.0 unchanged."""
    if not x.shape[axis]:
        return np.zeros(x.shape[:axis % x.ndim] + x.shape[axis % x.ndim + 1:])
    return np.take(np.cumsum(x, axis=axis), -1, axis=axis)


def _rba_candidate(instance, trials, master_seed):
    """lambda_t and theta_i from rba's sample paths: a match of rank z on
    resource i adds r_i (1 - g) to lambda_t and r_i g to theta_i, with g =
    exp(-z / c_i) by the scalar exp. Both add in the order of a pass over
    the trials, each over its arrivals: lambda_t over the trials, theta_i
    over its matches in row-major order."""
    paths = lockstep(instance, RbaPolicy(), trials, master_seed, record=True)
    rewards = np.array([r.reward for r in instance.resources])
    caps = [r.capacity for r in instance.resources]
    matched = paths.resource >= 0
    res, ranks = paths.resource[matched], paths.rank[matched]
    g = np.array([math.exp(-z / caps[i]) for i, z in zip(res.tolist(), ranks.tolist())])
    gain = np.zeros(paths.resource.shape)
    gain[matched] = rewards[res] * (1.0 - g)
    lam = _sum_in_order(gain, axis=0)
    held = rewards[res] * g
    theta = {r.id: float(_sum_in_order(held[res == i])) for i, r in enumerate(instance.resources)}
    lam /= trials
    for rid in theta:
        theta[rid] /= trials
    return (lam, theta, *mean_se(paths.totals))


def certificate_check(instance: model.Instance, alg: str, opt_policy, trials: int,
                      alpha: float, beta: float, master_seed: int = 0) -> CertificateReport:
    """Empirical feasibility of the two-condition certificate for `alg`.

    alg is "galg" (deterministic fluid candidate), "rba" (trace-estimated
    candidate), or "galg_swapped" (negative control with the lambda and theta
    integrands exchanged). opt_policy supplies the reference sample paths;
    it needs a batched rule (`engine.batched`), as LpRoundingPolicy has.
    """
    if instance.mode != model.MATCHING:
        raise UnsupportedMode("certificate check runs on matching instances")
    if alg == "galg":
        lam, theta, alg_value, alg_se = _galg_candidate(instance, swapped=False)
    elif alg == "galg_swapped":
        lam, theta, alg_value, alg_se = _galg_candidate(instance, swapped=True)
    elif alg == "rba":
        lam, theta, alg_value, alg_se = _rba_candidate(instance, trials, rng.derive(master_seed, 1))
    else:
        raise ValueError(f"unknown candidate {alg!r}")

    rids = [r.id for r in instance.resources]
    rewards = {r.id: r.reward for r in instance.resources}
    # Per trial, lambda over the arrivals matched to each resource, added in
    # arrival order, and the units allocated there.
    paths = lockstep(instance, opt_policy, trials, rng.derive(master_seed, 2), record=True)
    lam_sums, units = {}, {}
    for i, rid in enumerate(rids):
        mine = paths.resource == i
        lam_sums[rid] = _sum_in_order(np.where(mine, lam, 0.0), axis=1)
        units[rid] = np.where(mine, paths.units, 0).sum(axis=1).astype(float)

    rows = []
    for rid in rids:
        diffs = lam_sums[rid] + theta[rid] - alpha * rewards[rid] * units[rid]
        mean, se = mean_se(diffs)
        opt_i = float(rewards[rid] * units[rid].mean())
        lhs = theta[rid] + float(lam_sums[rid].mean())
        rows.append(CertificateRow(
            resource=rid, theta=theta[rid], opt_lambda_sum=float(lam_sums[rid].mean()),
            opt_i=opt_i, lhs=lhs, rhs=alpha * opt_i, se=se,
            passed=bool(mean >= -3.0 * se - 1e-12)))

    cond1_lhs = float(lam.sum() + sum(theta.values()))
    cond1_rhs = beta * alg_value
    cond1_se = beta * alg_se
    return CertificateReport(
        rows=rows, cond1_lhs=cond1_lhs, cond1_rhs=cond1_rhs, cond1_se=cond1_se,
        cond1_passed=bool(cond1_lhs <= cond1_rhs + 3.0 * cond1_se + 1e-9),
        alg_value=alg_value, alpha=alpha, beta=beta)
