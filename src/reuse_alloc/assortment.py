"""Choice models, probability matching, and assortment-mode algorithms.

The probability-match subroutine is the bridge from fractional to integral
assortment decisions: given a set S, a substitutable choice model, and target
per-item choice probabilities p_s <= phi(S, s), it produces a nested family
of sub-assortments with weights summing to at most one such that offering
A_j with probability u_j makes each s in S chosen with probability exactly
p_s. Each iteration offers the current set with the smallest feasible weight
ratio and retires the item that hit its target.

The fluid guide for assortment mode (AstgalgGuide) fractionally "offers" a
collection of reduced-price-optimal assortments per arrival under fluid
reusability; AstalgPolicy samples that collection online, intersects with
availability, and uses probability match (deflated by 1/(1+delta)) to keep
per-resource choice probabilities at their fluid levels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import model, rng
from .distributions import is_number
from .policies import FluidGuide, Policy, RbaPolicy

PM_TOL = 1e-12


class ElementNotInSet(ValueError):
    pass


class TargetTooLarge(ValueError):
    pass


@dataclass(frozen=True)
class MNL:
    """Multinomial logit: phi(S, i) = v_i / (v0 + sum_{j in S} v_j)."""

    v0: float
    weights: dict

    def __post_init__(self):
        object.__setattr__(self, "weights", dict(self.weights))

    def prob(self, S, i) -> float:
        if i not in S:
            raise ElementNotInSet(f"{i} not offered in {sorted(S)}")
        denom = self.v0 + sum(self.weights[j] for j in S)
        if denom <= 0.0:
            return 0.0
        return self.weights[i] / denom


@dataclass(frozen=True)
class ExplicitTable:
    """phi(S, i) listed for every nonempty S subseteq N and i in S."""

    items: tuple
    phi: dict               # frozenset -> {item: probability}

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(sorted(self.items)))
        object.__setattr__(self, "phi", {frozenset(k): dict(v) for k, v in self.phi.items()})

    def prob(self, S, i) -> float:
        if i not in S:
            raise ElementNotInSet(f"{i} not offered in {sorted(S)}")
        return self.phi[frozenset(S)].get(i, 0.0)


def validate_choice_model(cm, tol: float = 1e-9) -> list:
    """Finite nonnegative numbers as parameters (`is_number`: no bool),
    totals <= 1, a table entry for every nonempty subset of the items, and
    weak substitution; the last is checked exhaustively for tables of at
    most 16 items, and not at all for larger ones."""
    if isinstance(cm, MNL):
        if all(is_number(v) and 0 <= v < math.inf for v in (cm.v0, *cm.weights.values())):
            return []
        return ["mnl v0 and weights must be finite and nonnegative"]
    bad = []
    for S, row in cm.phi.items():
        if not all(is_number(v) and 0 <= v < math.inf for v in row.values()):
            return [f"choice probabilities of {sorted(S)} must be finite and nonnegative"]
        if sum(row.values()) > 1.0 + tol:
            bad.append(f"choice probabilities of {sorted(S)} exceed 1")
    universe = set(cm.items)
    stray = [sorted(S) for S in cm.phi if not S or not S <= universe]
    if stray:
        return bad + [f"table entry {stray[0]} is not a nonempty subset of the items"]
    if len(cm.phi) != 2 ** len(universe) - 1:
        return bad + [f"table lists {len(cm.phi)} of the {2 ** len(universe) - 1} nonempty subsets of the items"]
    if len(universe) > 16:
        return bad
    for S, row in cm.phi.items():
        for i in S:
            p_here = row.get(i, 0.0)
            for j in universe - S:
                bigger = cm.phi[S | {j}]
                if bigger.get(i, 0.0) > p_here + tol:
                    bad.append(f"weak substitution violated: phi({sorted(S | {j})},{i}) > phi({sorted(S)},{i})")
    return bad


def choice_model_to_json(cm) -> dict:
    if isinstance(cm, MNL):
        return {"type": "mnl", "v0": cm.v0, "weights": {str(i): v for i, v in sorted(cm.weights.items())}}
    return {
        "type": "table",
        "n": len(cm.items),
        "items": list(cm.items),
        "phi": {"{" + ",".join(str(i) for i in sorted(S)) + "}": {str(i): p for i, p in sorted(row.items())}
                for S, row in sorted(cm.phi.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))},
    }


def choice_model_from_json(obj: dict):
    if obj["type"] == "mnl":
        return MNL(v0=obj["v0"], weights={int(i): v for i, v in obj["weights"].items()})
    phi = {}
    for key, row in obj["phi"].items():
        S = frozenset(int(x) for x in key.strip("{}").split(",") if x != "")
        phi[S] = {int(i): p for i, p in row.items()}
    items = obj.get("items")
    if items is None:
        items = sorted(set().union(*phi.keys()))
    return ExplicitTable(items=tuple(items), phi=phi)


# --- probability match --------------------------------------------------------

def probability_match(S, cm, targets: dict):
    """Weighted nested assortments reproducing the target choice probabilities.

    Returns a list of (assortment, weight) with assortments nested inside S,
    weights summing to <= 1, and sum_{A_j containing s} u_j phi(A_j, s) == p_s
    for every s in S. Raises TargetTooLarge if some p_s > phi(S, s). An MNL
    model takes the one-sort path, any other the generic one.
    """
    S = sorted(S)
    for s in S:
        cap = cm.prob(frozenset(S), s)
        if targets.get(s, 0.0) > cap * (1.0 + PM_TOL) + 1e-15:
            raise TargetTooLarge(f"target for {s} exceeds phi(S, {s}) = {cap}")
    if isinstance(cm, MNL):
        return _probability_match_mnl(S, cm, targets)
    return _probability_match_generic(S, cm, targets)


def _probability_match_generic(S, cm, targets):
    remaining = list(S)
    residual = {s: max(float(targets.get(s, 0.0)), 0.0) for s in S}
    out = []
    while remaining:
        cur = frozenset(remaining)
        phis = {s: cm.prob(cur, s) for s in remaining}
        star, zeta_star = None, None
        for s in remaining:  # ascending id; strict < keeps the lowest on ties
            z = residual[s] / phis[s] if phis[s] > 0.0 else 0.0
            z = max(z, 0.0)
            if zeta_star is None or z < zeta_star:
                star, zeta_star = s, z
        if zeta_star > 0.0:
            out.append((cur, zeta_star))
            for s in remaining:
                residual[s] -= zeta_star * phis[s]
        remaining.remove(star)
    return out


def _probability_match_mnl(S, cm, targets):
    # Under MNL the removal order by residual/weight never changes, so one
    # sort up front suffices and each step is O(1).
    v = cm.weights
    heavy = [s for s in S if v[s] > 0.0]
    order = sorted(heavy, key=lambda s: (targets.get(s, 0.0) / v[s], s))
    V = cm.v0 + sum(v[s] for s in heavy)
    out = []
    carried = 0.0           # sum of u_j / (v0 + V_{j-1}) so far
    for j, s in enumerate(order):
        u = (max(targets.get(s, 0.0), 0.0) / v[s] - carried) * V
        if u > 0.0:
            out.append((frozenset(order[j:]), u))
            carried += u / V
        V -= v[s]
    return out


# --- assortment optimization oracle -------------------------------------------

def _oracle_value(cm, S, w):
    return sum(w.get(i, 0.0) * cm.prob(S, i) for i in S)


def assortment_oracle(cm, feasible, w: dict):
    """Feasible S maximizing sum_{i in S} w_i phi(S, i); may be empty.

    MNL uses revenue-ordered prefixes in w (ties to the lower id) intersected
    with any cardinality cap; explicit tables and explicit feasible lists are
    searched exhaustively. The returned set never contains an item it would
    offer with zero choice probability (dropping such an item never lowers
    the objective, by weak substitution).
    """
    if isinstance(feasible, model.ExplicitList):
        best, best_val = frozenset(), 0.0
        for S in feasible.sets:
            S = frozenset(i for i in S if i in w)
            if not S or any(cm.prob(S, i) == 0.0 for i in S):
                continue
            val = _oracle_value(cm, S, w)
            if val > best_val:
                best, best_val = S, val
        return best
    if isinstance(cm, MNL):
        cand = [i for i in w if w[i] > 0.0 and cm.weights.get(i, 0.0) > 0.0]
        cand.sort(key=lambda i: (-w[i], i))
        if isinstance(feasible, model.MaxCardinality):
            cand = cand[: feasible.k]
        best, best_val = frozenset(), 0.0
        num = den = 0.0
        for k in range(1, len(cand) + 1):
            num += w[cand[k - 1]] * cm.weights[cand[k - 1]]
            den += cm.weights[cand[k - 1]]
            val = num / (cm.v0 + den)
            if val > best_val:
                best, best_val = frozenset(cand[:k]), val
        return best
    if len(cm.items) > 20:
        raise model.TooLarge("explicit-table oracle is limited to 20 items")
    items = [i for i in cm.items if i in w]
    best, best_val = frozenset(), 0.0
    for r in range(1, len(items) + 1):
        if isinstance(feasible, model.MaxCardinality) and r > feasible.k:
            break
        for combo in itertools.combinations(items, r):
            S = frozenset(combo)
            if not feasible.allows(S) or any(cm.prob(S, i) == 0.0 for i in S):
                continue
            val = _oracle_value(cm, S, w)
            if val > best_val:
                best, best_val = S, val
    return best


# --- fluid guide for assortment mode -------------------------------------------

class AstgalgGuide(FluidGuide):
    """Fluid assortment guide: per arrival, a weighted collection of
    reduced-price-optimal assortments consumed under fluid reusability."""

    def __init__(self, instance: model.Instance):
        if instance.mode != model.ASSORTMENT:
            raise ValueError("assortment guide needs an assortment-mode instance")
        super().__init__(instance)
        self.collections = []   # per arrival: [(assortment, weight)]

    def _offer(self, arrival, w):
        cm = self.instance.choice_models[arrival.demand.choice_model]
        A = assortment_oracle(cm, arrival.demand.feasible, w)
        return A, {rid: cm.prob(A, rid) for rid in sorted(A)}

    def step(self, arrival):
        collection = self._waterfall(arrival, arrival.demand.bids())
        self.collections.append(collection)
        return collection

    def per_resource_reward(self) -> dict:
        out = {r.id: 0.0 for r in self.instance.resources}
        byid = {r.id: r.reward for r in self.instance.resources}
        for allocs in self.allocs:
            for rid, _, mass in allocs:
                out[rid] += byid[rid] * mass
        return out

    @property
    def fluid_reward(self) -> float:
        return sum(self.per_resource_reward().values())


def run_astgalg(instance: model.Instance) -> AstgalgGuide:
    return AstgalgGuide(instance).run()


# --- online policies for assortment mode ----------------------------------------

class AstalgPolicy(Policy):
    """Samples the assortment guide's collection, then probability-matches the
    available subset at targets phi(A, s)/(1 + delta)."""

    name = "astalg"
    mode = model.ASSORTMENT
    coin_columns = (0, 1)       # the collection draw, then the probability-match draw

    def _prepare(self, instance):
        self.guide = run_astgalg(instance)
        gam = model.gamma(instance)
        self.delta = math.sqrt(2.0 * max(math.log(gam), 0.0) / gam) if gam > 0 else 0.0
        # (choice model, sampled set in iteration order, usable set) -> pieces:
        # the targets sum in the sampled set's order under MNL.
        self._pieces = {}

    def decide(self, t, arrival, state):
        coins = self.coins()[t]
        sampled = rng.pick(coins[0], self.guide.collections[t])
        if not sampled:
            return frozenset()
        bids = arrival.demand.bids()
        usable = frozenset(s for s in sampled if len(state[s].avail) >= bids[s])
        if not usable:
            return frozenset()
        key = (arrival.demand.choice_model, tuple(sampled), usable)
        pieces = self._pieces.get(key)
        if pieces is None:
            cm = self.instance.choice_models[key[0]]
            targets = {s: cm.prob(sampled, s) / (1.0 + self.delta) for s in usable}
            pieces = self._pieces[key] = probability_match(usable, cm, targets)
        return rng.pick(coins[1], pieces) or frozenset()


class RbaAssortmentPolicy(RbaPolicy):
    """Offers the oracle-optimal set under rba's scores, the summed reduced
    prices of the top min(bid, available) ranks."""

    name = "rba_assortment"
    mode = model.ASSORTMENT

    def decide(self, t, arrival, state):
        cm = self.instance.choice_models[arrival.demand.choice_model]
        w = {}
        for rid, bid in arrival.demand.bids().items():
            lv = state[rid]
            if lv.avail:
                w[rid] = self.score(lv, bid)
        if not w:
            return frozenset()
        return assortment_oracle(cm, arrival.demand.feasible, w)
