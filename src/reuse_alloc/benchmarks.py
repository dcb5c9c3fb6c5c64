"""Offline comparators: the fluid LP bound, its rounding policy, a brute-force
clairvoyant for tiny instances, and an empirical certificate checker.

The LP treats reusability fluidly: a unit matched at time a(t) counts toward
the capacity row at a later time a(tau) with weight 1 - F(a(tau) - a(t)), the
expected fraction still in use. Its optimum upper-bounds every online policy
and the clairvoyant; asymptotically (large capacities) the two benchmarks
coincide, so vs-LP ratios carry empirical slack at desk scale.

The certificate checker evaluates a two-condition linear system whose
feasibility witnesses a competitive ratio: per-resource pseudo-rewards
theta_i + E[sum of lambda_t over arrivals the reference policy serves with i]
must cover alpha * OPT_i, while sum theta + sum lambda stays within
beta * ALG. It reports Monte-Carlo slack; it never proves a theorem.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import model, rng, simplex
from .distributions import Deterministic, NonReusable, TwoPointInf, ZeroOrInf
from .engine import lockstep, simulate  # noqa: F401  (perfbench/tracer.py wraps benchmarks.simulate)
from .policies import RbaPolicy, RowSampler, run_galg

OPTIMAL = simplex.OPTIMAL
CHECK_TOL = 1e-9             # check_lp_solution's tolerance, relative to max(1, |objective|)


class UnsupportedMode(ValueError):
    pass


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


def build_lp(instance: model.Instance) -> LpModel:
    """Exact fluid LP; capacity rows are emitted once per (resource, arrival
    time bucket with a new edge) because later rows with no new edge have
    pointwise smaller coefficients and the same right-hand side.

    One pass groups the edges by resource and by arrival. A resource's edges
    come in arrival order, so its row at bucket end tau holds a prefix of
    them; an arrival's edges are contiguous, so its demand row is one run of
    columns. Each coefficient is bid * (1 - F(age)) with the scalar CDF F,
    evaluated once per distinct age in a run of the resource's rows. A comes
    out as coordinates, one per (row, edge) pair; no m x n array is made."""
    if instance.mode not in (model.MATCHING, model.BUDGETED):
        raise UnsupportedMode("the LP bound covers matching and budgeted modes")
    edges = list(instance.edges())
    n = len(edges)
    rewards = {r.id: r.reward for r in instance.resources}
    obj = np.array([bid * rewards[rid] for (_, rid, bid) in edges])
    times = np.array([a.time for a in instance.arrivals])

    # Last arrival index of each distinct-time group, per arrival.
    group_end = {}
    for t, a in enumerate(instance.arrivals):
        group_end[a.time] = t
    end = np.array([group_end[a.time] for a in instance.arrivals], dtype=np.int64)

    edge_t = np.array([t for t, _, _ in edges], dtype=np.int64)
    edge_bid = np.array([bid for _, _, bid in edges], dtype=np.int64)
    mine = {rid: [] for rid in rewards}
    for e, (_, rid, _) in enumerate(edges):
        mine[rid].append(e)
    blocks = []
    for res in instance.resources:
        es = np.array(mine[res.id], dtype=np.int64)
        if es.size:
            ts = edge_t[es]
            taus = np.unique(end[ts])
            # Row k holds the first lens[k] edges.
            blocks.append((res, es, ts, taus, np.searchsorted(ts, taus, side="right")))
    demand_t = np.unique(edge_t)
    m = sum(taus.size for _, _, _, taus, _ in blocks) + demand_t.size
    nnz = sum(int(lens.sum()) for *_, lens in blocks) + n
    row = np.empty(nnz, dtype=np.int32)
    col = np.empty(nnz, dtype=np.int32)
    val = np.empty(nnz)
    rhs = np.ones(m)
    row_kinds = []
    r0 = k0 = 0
    for res, es, ts, taus, lens in blocks:
        # A row holds at most n edges, so a run of the rows that start in the
        # same window of 2n coordinates keeps every temporary under 3n entries.
        before = np.cumsum(lens) - lens
        for part in np.split(np.arange(taus.size), np.flatnonzero(np.diff(before // (2 * n))) + 1):
            # (row_of, at) lists every (row, edge) pair of the run.
            row_of = np.repeat(part, lens[part])
            at = np.arange(row_of.size) - np.repeat(before[part] - before[part[0]], lens[part])
            ages, which = np.unique(times[taus[row_of]] - times[ts[at]], return_inverse=True)
            cdf = np.array([res.usage.cdf(age) for age in ages], dtype=float)
            k1 = k0 + row_of.size
            row[k0:k1] = r0 + row_of
            col[k0:k1] = es[at]
            val[k0:k1] = edge_bid[es[at]] * (1.0 - cdf[which])
            k0 = k1
        rhs[r0 : r0 + taus.size] = float(res.capacity)
        row_kinds += [("cap", res.id, tau) for tau in taus.tolist()]
        r0 += taus.size
    row[k0:] = r0 + np.searchsorted(demand_t, edge_t)
    col[k0:] = np.arange(n)
    val[k0:] = 1.0
    row_kinds += [("demand", t) for t in demand_t.tolist()]
    return LpModel(instance=instance, edges=edges, obj=obj, A=simplex.Coo(row, col, val, (m, n)), rhs=rhs,
                   row_kinds=row_kinds)


def solve_lp(lp: LpModel) -> LpSolution:
    """Solve `lp`; an optimum must pass `check_lp_solution`, else
    RuntimeError names the check that failed."""
    res = simplex.solve(lp.obj, lp.A, lp.rhs)
    if res.status == OPTIMAL:
        check_lp_solution(lp, res)
    y = {(t, rid): float(res.x[e]) for e, (t, rid, _) in enumerate(lp.edges)}
    return LpSolution(status=res.status, objective=res.objective, y=y, pivots=res.pivots)


def check_lp_solution(lp: LpModel, res: simplex.SimplexResult) -> None:
    """Check the primal x and the duals y of an optimum: A x <= b and x >= 0,
    y >= 0 and A^T y >= c, and |b.y - c.x| (weak duality makes b.y an upper
    bound on every feasible c.x), each within CHECK_TOL * max(1, |objective|)."""
    tol = CHECK_TOL * max(1.0, abs(res.objective))
    x, y, A = res.x, res.y, lp.A
    Ax = np.bincount(A.row, weights=A.val * x[A.col], minlength=A.shape[0])
    ATy = np.bincount(A.col, weights=A.val * y[A.row], minlength=A.shape[1])
    breaches = (
        ("primal residual", max((Ax - lp.rhs).max(initial=0.0), -x.min(initial=0.0))),
        ("dual feasibility", max(-y.min(initial=0.0), (lp.obj - ATy).max(initial=0.0))),
        ("duality gap", abs(lp.rhs @ y - lp.obj @ x)),
    )
    for name, breach in breaches:
        if not breach <= tol:
            raise RuntimeError(f"LP solution check failed: {name} {float(breach):.3g} exceeds {tol:.3g}")


def lp_value(instance: model.Instance) -> float:
    sol = solve_lp(build_lp(instance))
    if sol.status != OPTIMAL:
        raise RuntimeError(f"LP solve ended with status {sol.status}")
    return sol.objective


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
    totals = paths.totals
    se = float(totals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return lam, theta, float(totals.mean()), se


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
