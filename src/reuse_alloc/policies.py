"""Online policies for matching and budgeted allocation.

Decision rules, with g(x) = exp(-x) throughout:
  - greedy: highest reward among available neighbors.
  - balance: highest r_i * (1 - g(y_i/c_i)) using remaining capacity y_i.
  - rank-based (rba): highest reduced price r_i * (1 - g(z_i/c_i)) where z_i
    is the highest available unit rank; the matched unit is always that
    highest-ranked one, which makes higher ranks busier and turns rank into a
    proxy for "effective" inventory under reusability.
  - budgeted rba: same scoring summed over the top min(bid, available) ranks.
  - galg: the fluid guide running rba under fluid reusability, producing a
    fractional allocation x_{it} per arrival (a benchmark value, not a trial
    policy). Two faster variants quantize ranks geometrically or skip units
    holding less than an eps fraction.
  - salg: non-adaptive sampler that matches arrival t to resource i with
    probability x_{it}/(1+delta_i) using the guide's output, and leaves t
    unmatched when the sampled resource has nothing available.

Ties always break toward the lower resource id. All rules are invariant to
scaling every reward by a positive constant.
"""

from __future__ import annotations

import math

from . import model, rng
from .fluid import ZERO_TOL, FluidInventory


def reduced_price(reward: float, rank: int, capacity: int) -> float:
    return reward * (1.0 - math.exp(-rank / capacity))


def greedy_decide(arrival, state):
    """Resource id with max reward among available neighbors, or None."""
    best, best_score = None, -1.0
    for rid in arrival.demand.sorted_ids():
        if state.available_count(rid) == 0:
            continue
        r = state.live[rid].res.reward
        if r > best_score:
            best, best_score = rid, r
    return best


def balance_decide(arrival, state):
    """argmax r_i (1 - e^{-y_i/c_i}) over available neighbors, or None."""
    best, best_score = None, -1.0
    for rid in arrival.demand.sorted_ids():
        lv = state.live[rid]
        y = len(lv.avail)
        if y == 0:
            continue
        score = lv.res.reward * (1.0 - math.exp(-y / lv.res.capacity))
        if score > best_score:
            best, best_score = rid, score
    return best


def rba_decide(arrival, state):
    """(resource id, unit rank) maximizing the reduced price, or None."""
    best, best_score = None, -1.0
    for rid in arrival.demand.sorted_ids():
        z = state.z(rid)
        if z == 0:
            continue
        res = state.live[rid].res
        score = reduced_price(res.reward, z, res.capacity)
        if score > best_score:
            best, best_score = (rid, z), score
    return best


def rba_budgeted_decide(arrival, state):
    """(resource id, top ranks) maximizing the summed reduced price, or None."""
    best, best_ranks, best_score = None, None, -1.0
    for rid, bid in arrival.demand.bids().items():  # bids() is id-sorted
        avail = state.available_count(rid)
        if avail == 0:
            continue
        res = state.live[rid].res
        ranks = state.top_ranks(rid, min(bid, avail))
        score = sum(reduced_price(res.reward, k, res.capacity) for k in ranks)
        if score > best_score:
            best, best_ranks, best_score = rid, tuple(ranks), score
    if best is None:
        return None
    return best, best_ranks


class Policy:
    """Base: per-trial state is reset by start_trial; precomputation such as
    a guide is built once and reused by every later trial."""

    mode = model.MATCHING

    def __init__(self):
        self.trial_events: dict = {}

    def start_trial(self, instance, trial_seed: int):
        self.instance = instance
        self.trial_seed = trial_seed
        self.trial_events = {}


class GreedyPolicy(Policy):
    name = "greedy"

    def decide(self, t, arrival, state):
        return greedy_decide(arrival, state)


class BalancePolicy(Policy):
    name = "balance"

    def decide(self, t, arrival, state):
        return balance_decide(arrival, state)


class RbaPolicy(Policy):
    name = "rba"

    def decide(self, t, arrival, state):
        hit = rba_decide(arrival, state)
        return None if hit is None else hit[0]


class RbaBudgetedPolicy(Policy):
    name = "rba_budgeted"
    mode = model.BUDGETED

    def decide(self, t, arrival, state):
        return rba_budgeted_decide(arrival, state)


# --- fluid guide -------------------------------------------------------------

class GalgGuide:
    """Fluid guide: rba on per-unit fluid masses, one step per arrival.

    variant "quant" buckets unit ranks into levels floor((1+eps)^j); variant
    "thresh" treats a unit as unavailable unless at least eps of it is free.
    """

    def __init__(self, instance, variant: str = "exact", eps: float = 0.0):
        if instance.mode not in (model.MATCHING,):
            raise ValueError("the fluid guide runs on matching instances")
        self.instance = instance
        self.variant = variant
        self.eps = eps
        self.inv = FluidInventory(instance, quantize_eps=eps if variant == "quant" else 0.0)
        self.floor = eps if variant == "thresh" else ZERO_TOL
        if variant == "thresh" and not 0.0 <= eps < 1.0:
            raise ValueError("threshold eps must be in [0, 1)")
        self.x = []            # per arrival: {rid: x_it}
        self.allocs = []       # per arrival: [(rid, rank value, amount)]
        self._next = 0
        self._iter_cap = sum(r.capacity for r in instance.resources) + len(instance.resources) + 1

    def step(self, arrival):
        """Fluid update for this arrival, then the reduced-price waterfall."""
        t = self._next
        self._next += 1
        self.inv.advance(arrival.time)
        floor = max(self.floor, ZERO_TOL)
        active = list(arrival.demand.sorted_ids())
        xt: dict = {}
        allocs = []
        eta = 0.0
        iters = 0
        while eta < 1.0 - ZERO_TOL and active and iters < self._iter_cap:
            iters += 1
            best_rid, best_g, best_score = None, -1, -1.0
            stale = []
            for rid in active:
                rf = self.inv.state[rid]
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
            rf = self.inv.state[best_rid]
            take = min(rf.Y[best_g], 1.0 - eta)
            rf.consume(best_g, take, arrival.time)
            xt[best_rid] = xt.get(best_rid, 0.0) + take
            allocs.append((best_rid, float(rf.index_value[best_g]), take))
            eta += take
        self.x.append(xt)
        self.allocs.append(allocs)
        return xt

    def run(self):
        for arrival in self.instance.arrivals[self._next:]:
            self.step(arrival)
        return self

    @property
    def fluid_reward(self) -> float:
        byid = {r.id: r.reward for r in self.instance.resources}
        return sum(byid[rid] * v for xt in self.x for rid, v in xt.items())

    def per_resource_reward(self) -> dict:
        out = {r.id: 0.0 for r in self.instance.resources}
        byid = {r.id: r.reward for r in self.instance.resources}
        for xt in self.x:
            for rid, v in xt.items():
                out[rid] += byid[rid] * v
        return out


def run_galg(instance, variant: str = "exact", eps: float = 0.0) -> GalgGuide:
    return GalgGuide(instance, variant=variant, eps=eps).run()


def salg_delta(capacity: int) -> float:
    return math.sqrt(2.0 * math.log(capacity) / capacity)


class SalgPolicy(Policy):
    """Samples the guide's fractional matching, deflated by 1/(1+delta_i)."""

    name = "salg"

    def __init__(self, variant: str = "exact", eps: float = 0.0):
        super().__init__()
        self.variant = variant
        self.eps = eps
        self._guide_for = None
        self._intervals = None

    def _prepare(self, instance):
        guide = run_galg(instance, variant=self.variant, eps=self.eps)
        deltas = {r.id: salg_delta(r.capacity) for r in instance.resources}
        intervals = []
        for xt in guide.x:
            cum = 0.0
            row = []
            for rid in sorted(xt):
                w = xt[rid] / (1.0 + deltas[rid])
                if w > 0.0:
                    cum += w
                    row.append((cum, rid))
            intervals.append(row)
        self._guide_for = instance
        self._intervals = intervals
        self.guide = guide

    def start_trial(self, instance, trial_seed: int):
        super().start_trial(instance, trial_seed)
        if self._guide_for is not instance:
            self._prepare(instance)
        self.trial_events = {"salg_sampled": 0, "salg_sampled_unavailable": 0}

    def decide(self, t, arrival, state):
        u = rng.uniform(self.trial_seed, rng.TAG_POLICY, t)
        for cum, rid in self._intervals[t]:
            if u < cum:
                self.trial_events["salg_sampled"] += 1
                if state.available_count(rid) > 0:
                    return rid
                self.trial_events["salg_sampled_unavailable"] += 1
                return None
        return None


def make_policy(name: str):
    """CLI policy names; `galg` itself is a benchmark value, not a policy."""
    if name == "greedy":
        return GreedyPolicy()
    if name == "balance":
        return BalancePolicy()
    if name == "rba":
        return RbaPolicy()
    if name == "rba_budgeted":
        return RbaBudgetedPolicy()
    if name == "salg":
        return SalgPolicy()
    if name.startswith("galg_fast_quant:"):
        return SalgPolicy(variant="quant", eps=float(name.split(":", 1)[1]))
    if name.startswith("galg_fast_thresh:"):
        return SalgPolicy(variant="thresh", eps=float(name.split(":", 1)[1]))
    if name == "rba_assortment":
        from .assortment import RbaAssortmentPolicy

        return RbaAssortmentPolicy()
    if name == "astalg":
        from .assortment import AstalgPolicy

        return AstalgPolicy()
    raise ValueError(f"unknown policy {name!r}")
