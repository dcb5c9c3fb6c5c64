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
    holding less than an eps fraction. Its waterfall, `FluidGuide`, is shared
    with the assortment guide, of which galg is the single-item case.
  - salg: non-adaptive sampler that matches arrival t to resource i with
    probability x_{it}/(1+delta_i) using the guide's output, and leaves t
    unmatched when the sampled resource has nothing available. Its rule,
    `RowSampler`, is shared with the LP-rounding benchmark
    (`benchmarks.LpRoundingPolicy`), which samples the LP's y_{it} instead.

Each rule is its class's `decide`, which returns a resource id or None,
and the engine allocates min(bid, available) of that resource's highest
available ranks: one in matching mode. Greedy, balance and rba are one
`ScoreRule` and differ only in their score, and budgeted rba is rba on
budgeted instances. A rule reads the trial's state as {resource id: live
state}, whose `avail` lists the available ranks in ascending order. Ties
always break toward the lower resource id. All rules are invariant to
scaling every reward by a positive constant.

A policy whose `decide` comes with a `decide_batch` also runs in the
lockstep engine (`engine.lockstep`): the same rule for a chunk of trials at
once, reading (trials x resources) arrays of the highest available rank and
the available count, and returning each trial's resource index (-1 for
none).
"""

from __future__ import annotations

import math

import numpy as np

from . import model, rng
from .fluid import ZERO_TOL, FluidLedger


def reduced_price(reward: float, rank: int, capacity: int) -> float:
    return reward * (1.0 - math.exp(-rank / capacity))


def pick_table(rows: list, index: dict) -> list:
    """Per arrival, the running totals of a [(resource id, weight)] row and
    the resources' indices, for `pick_batch`."""
    return [(np.cumsum([w for _, w in row], dtype=float), np.array([index[rid] for rid, _ in row], dtype=np.intp))
            for row in rows]


def pick_batch(u: np.ndarray, cum: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """rng.pick for an array of coins: vals[i] at the first running total
    cum[i] above each u, or -1. np.cumsum adds left to right, as pick does."""
    if not cum.size:
        return np.full(u.shape, -1)
    i = np.searchsorted(cum, u, side="right")
    return np.where(i < cum.size, vals[np.minimum(i, cum.size - 1)], -1)


class Policy:
    """Base: per-trial state is reset by start_trial; `_prepare` builds
    per-instance precomputation such as a guide once, before the instance's
    first trial, and every later trial reuses it."""

    mode = model.MATCHING
    events = ()                 # names of the per-trial event counters
    coin_columns = None         # (k, ...): coins per (arrival, k) instead of per arrival
    _guide_for = None

    def __init__(self):
        self.trial_events: dict = {}

    def start_trial(self, instance, trial_seed: int):
        self.instance = instance
        self.trial_seed = trial_seed
        self.trial_events = dict.fromkeys(self.events, 0)
        self._coins = None
        self.prepare(instance)

    def prepare(self, instance):
        """Build the per-instance work once, before the instance's first trial."""
        if self._guide_for is not instance:
            self._prepare(instance)
            self._guide_for = instance

    def _prepare(self, instance):
        pass

    def coins(self) -> list:
        """This trial's coins rng.uniform(trial_seed, TAG_POLICY, t), or
        (t, k) for each k in `coin_columns`, for every arrival t, drawn in
        one vector call on first use."""
        if self._coins is None:
            t = np.arange(len(self.instance.arrivals))
            keys = (t,) if self.coin_columns is None else (t[:, None], self.coin_columns)
            self._coins = rng.uniform_vec(self.trial_seed, rng.TAG_POLICY, *keys).tolist()
        return self._coins


class ScoreRule(Policy):
    """A rule that matches each arrival to its neighbour of highest `score`
    among those with a unit available, ties to the lower id; the engine
    allocates min(bid, available) of its top ranks. A subclass defines
    `score(lv, bid)` on a resource's live state and `score_batch(batch, nb,
    bid)`, its (trials x neighbours) form."""

    def decide(self, t, arrival, state):
        best, best_score = None, -1.0
        for rid, bid in arrival.demand.bids().items():      # id order
            lv = state[rid]
            if lv.avail:
                score = self.score(lv, bid)
                if score > best_score:
                    best, best_score = rid, score
        return best

    def decide_batch(self, t, arrival, batch):
        """`decide` per trial: the resource index of the best neighbour (`nb`
        in id order, so argmax ties go to the lower id), -1 for none."""
        nb = batch.plan.nbr[t]
        ok = batch.count[:, nb] > 0
        j = np.where(ok, self.score_batch(batch, nb, batch.plan.bid[t]), -1.0).argmax(axis=1)
        return np.where(ok[batch.rows, j], nb[j], -1)


class GreedyPolicy(ScoreRule):
    """Highest reward among available neighbours."""

    name = "greedy"

    def score(self, lv, bid):
        return lv.res.reward

    def score_batch(self, batch, nb, bid):
        return batch.plan.rewards[nb]


class BalancePolicy(ScoreRule):
    """Highest r_i (1 - e^{-y_i/c_i}), the reduced price at the available count y_i."""

    name = "balance"

    def score(self, lv, bid):
        return lv.prices[len(lv.avail)]

    def score_batch(self, batch, nb, bid):
        return batch.price(nb, batch.count[:, nb])


class RbaPolicy(ScoreRule):
    """Highest reduced price of the top min(bid, available) ranks, summed."""

    name = "rba"

    def score(self, lv, bid):
        """The summed reduced price of the top min(bid, available) ranks of a
        resource's live state with a unit available, added in descending rank
        order; at bid 1 the top rank's price."""
        return lv.prices[lv.avail[-1]] if bid == 1 else sum(map(lv.prices.__getitem__, lv.avail[: -bid - 1 : -1]))

    def score_batch(self, batch, nb, bid):
        """`score` per trial; a missing rank is rank 0, priced 0.0."""
        ranks = batch.top[:, nb]
        score = batch.price(nb, ranks)
        for level in range(2, int(bid.max()) + 1):
            ranks = np.where(bid >= level, batch.lower(batch.rows[:, None], nb, ranks), 0)
            score = score + batch.price(nb, ranks)
        return score


class RbaBudgetedPolicy(RbaPolicy):
    """rba on budgeted instances."""

    name = "rba_budgeted"
    mode = model.BUDGETED


# --- fluid guide -------------------------------------------------------------

def check_eps(variant: str, eps: float):
    """Raise ValueError unless eps suits the fast guide variant."""
    hi = 1.0 if variant == "thresh" else math.inf
    if variant in ("quant", "thresh") and not 0.0 <= eps < hi:
        raise ValueError(f"{variant} eps must be in [0, {hi}), got {eps}")


class FluidGuide:
    """The reduced-price waterfall under fluid reusability, one step per
    arrival, shared by the matching guide (galg) and the assortment guide
    (astgalg).

    A step advances the fluid clock and scores every neighbour by its bid
    times the reduced price of its highest bucket holding at least `floor`.
    The subclass's `_offer` turns the scores into a choice and its shares
    {rid: probability the arrival takes rid}; the choice is served at the
    largest weight that keeps every bucket nonnegative and the arrival's
    total at most 1, until the arrival is fully served or nothing is left.
    Within a step only the served resources change, so only they are
    re-scored.
    """

    floor = ZERO_TOL

    def __init__(self, instance, quantize_eps: float = 0.0):
        self.instance = instance
        self.inv = FluidLedger(instance, quantize_eps=quantize_eps)
        self.allocs = []       # per arrival: [(rid, rank value, mass)]
        self._next = 0
        self._iter_cap = sum(r.capacity for r in instance.resources) + len(instance.resources) + 1
        # Reduced price of every bucket, per resource, read at its integer rank.
        self._price = {rid: [rf.res.prices[int(v)] for v in rf.index_value.tolist()]
                       for rid, rf in self.inv.state.items()}

    def _waterfall(self, arrival, bids: dict) -> list:
        """Serve one arrival with id-sorted `bids`; books its allocs and
        returns the served [(choice, weight)]."""
        self._next += 1
        self.inv.advance(arrival.time)
        state, floor, price = self.inv.state, self.floor, self._price
        tops, w = {}, {}       # ascending ids, so argmax ties go to the lower id
        for rid in bids:
            g = state[rid].top_group(floor)
            if g >= 0:
                tops[rid] = g
                w[rid] = bids[rid] * price[rid][g]
        served, allocs = [], []
        eta = 0.0
        iters = 0
        while eta < 1.0 - ZERO_TOL and w and iters < self._iter_cap:
            iters += 1
            choice, shares = self._offer(arrival, w)
            if not shares:
                break
            u = 1.0 - eta      # min() spelt out below: this loop is galg's hot path
            for rid, p in shares.items():
                y = state[rid].Y.item(tops[rid]) / (bids[rid] * p)
                if y < u:
                    u = y
            for rid, p in shares.items():
                rf, g = state[rid], tops[rid]
                mass, y = u * bids[rid] * p, rf.Y.item(g)
                if y < mass:
                    mass = y
                rf.consume(g, mass, arrival.time)
                allocs.append((rid, rf.index_value.item(g), mass))
                g = rf.top_group(floor)
                if g < 0:
                    del tops[rid], w[rid]
                else:
                    tops[rid] = g
                    w[rid] = bids[rid] * price[rid][g]
            served.append((choice, u))
            eta += u
        self.allocs.append(allocs)
        return served

    def run(self):
        for arrival in self.instance.arrivals[self._next:]:
            self.step(arrival)
        return self


class GalgGuide(FluidGuide):
    """Fluid guide for matching: rba on per-unit fluid masses. Each arrival
    is offered its best-scoring neighbour and takes it with probability 1.

    variant "quant" buckets unit ranks into levels floor((1+eps)^j); variant
    "thresh" treats a unit as unavailable unless at least eps of it is free.
    """

    def __init__(self, instance, variant: str = "exact", eps: float = 0.0):
        if instance.mode != model.MATCHING:
            raise ValueError("the fluid guide runs on matching instances")
        check_eps(variant, eps)
        super().__init__(instance, quantize_eps=eps if variant == "quant" else 0.0)
        self.variant = variant
        self.eps = eps
        if variant == "thresh":
            self.floor = max(eps, ZERO_TOL)
        self.x = []            # per arrival: {rid: x_it}

    def _offer(self, arrival, w):
        best, best_score = None, -1.0
        for rid, score in w.items():
            if score > best_score:
                best, best_score = rid, score
        return best, {best: 1.0}

    def step(self, arrival):
        """Fluid update for this arrival, then the reduced-price waterfall."""
        xt: dict = {}
        for rid, take in self._waterfall(arrival, arrival.demand.bids()):
            xt[rid] = xt.get(rid, 0.0) + take
        self.x.append(xt)
        return xt

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


class RowSampler(Policy):
    """The rule of salg and lp_rounding: arrival t's coin picks a resource
    from the row `_rows[t]`, [(resource id, probability)] in id order, which
    is served only if a unit is free. `events` names the counts of sampled
    arrivals and of those whose pick had nothing free. A subclass builds
    `_rows`."""

    _picks = None               # pick_table of `_rows`, built by the first decide_batch

    def decide(self, t, arrival, state):
        rid = rng.pick(self.coins()[t], self._rows[t])
        if rid is None:
            return None
        sampled, unavailable = self.events
        self.trial_events[sampled] += 1
        if not state[rid].avail:
            self.trial_events[unavailable] += 1
            return None
        return rid

    def decide_batch(self, t, arrival, batch):
        if self._picks is None:
            self._picks = pick_table(self._rows, batch.plan.index)
        choice = pick_batch(batch.coins()[t], *self._picks[t])
        sampled = choice >= 0
        free = sampled & (batch.count[batch.rows, choice] > 0)
        batch.events[self.events[0]] += int(sampled.sum())
        batch.events[self.events[1]] += int((sampled & ~free).sum())
        return np.where(free, choice, -1)


class SalgPolicy(RowSampler):
    """Samples the guide's fractional matching, deflated by 1/(1+delta_i)."""

    name = "salg"
    events = ("salg_sampled", "salg_sampled_unavailable")

    def __init__(self, variant: str = "exact", eps: float = 0.0):
        super().__init__()
        check_eps(variant, eps)
        self.variant = variant
        self.eps = eps

    def _prepare(self, instance):
        self.guide = run_galg(instance, variant=self.variant, eps=self.eps)
        deltas = {r.id: salg_delta(r.capacity) for r in instance.resources}
        self._rows = [[(rid, w) for rid in sorted(xt) if (w := xt[rid] / (1.0 + deltas[rid])) > 0.0]
                      for xt in self.guide.x]
        self._picks = None


def make_policy(name: str):
    """CLI policy names; `galg` itself is a benchmark value, not a policy.
    Raises ValueError for an unknown name or a bad fast-variant eps."""
    from .assortment import AstalgPolicy, RbaAssortmentPolicy

    plain = {"greedy": GreedyPolicy, "balance": BalancePolicy, "rba": RbaPolicy,
             "rba_budgeted": RbaBudgetedPolicy, "salg": SalgPolicy,
             "rba_assortment": RbaAssortmentPolicy, "astalg": AstalgPolicy}
    fast = {"galg_fast_quant": "quant", "galg_fast_thresh": "thresh"}
    prefix, _, eps = name.partition(":")
    if name in plain:
        return plain[name]()
    if prefix in fast:
        try:
            return SalgPolicy(variant=fast[prefix], eps=float(eps))
        except ValueError as exc:
            raise ValueError(f"policy {name!r}: {exc}") from None
    raise ValueError(f"unknown policy {name!r}")
