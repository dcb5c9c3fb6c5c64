"""Canonical stress instances and reproducible random batteries.

The named constructors build the small set of adversarial instances the
benchmarks revolve around: the two-resource burst/spread sequence where
remaining-capacity scoring underuses returning inventory, the exponential
two-price sequence where rank scoring adapts to the return rate, the
immediate-return conversion of stochastic-reward graphs, the all-to-all
instance separating the clairvoyant from a duration-omniscient benchmark,
the upper-triangular non-reusable family (the classic tightness case for
balance-type guarantees), and a three-arrival choice instance whose optimal
offer depends on a resource's own past usage durations.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

from . import model
from .assortment import MNL
from .distributions import (Deterministic, Exponential, MixtureWithInf, NonReusable, TwoPointInf,
                            Uniform, WeibullIFR, ZeroOrInf)


def example_a1(n: int, dummy_resources: bool = False, dummy_slack: float = 0.01) -> model.Instance:
    """Two equal resources with two-point returns; a burst only resource 0 can
    serve, spread arrivals either can serve, then a burst only resource 1 can
    serve. With the optional flag, each arrival also gets a private
    non-reusable dummy priced near reduced-price / (1 - 1/e)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    usage = TwoPointInf(d=1.0, p=0.5)
    resources = [
        model.Resource(id=0, capacity=n, reward=1.0, usage=usage),
        model.Resource(id=1, capacity=n, reward=1.0, usage=usage),
    ]
    only0, either, only1 = (model.MatchingEdges(frozenset(ids)) for ids in ({0}, {0, 1}, {1}))
    arrivals = [model.Arrival(time=0.0, demand=only0)] * (2 * n)
    arrivals += [model.Arrival(time=2.0 * k, demand=either) for k in range(1, n + 1)]
    arrivals += [model.Arrival(time=2.0 * n + 2.0, demand=only1)] * n
    inst = model.Instance(mode=model.MATCHING, resources=tuple(resources), arrivals=tuple(arrivals))
    if not dummy_resources:
        return inst
    prices = _balance_reduced_prices(inst)
    resources = list(inst.resources)
    new_arrivals = []
    for t, arr in enumerate(inst.arrivals):
        rid = 2 + t
        price = max(0.0, prices[t] / (1.0 - 1.0 / math.e) - dummy_slack)
        resources.append(model.Resource(id=rid, capacity=n, reward=price, usage=NonReusable()))
        new_arrivals.append(model.Arrival(
            time=arr.time, demand=model.MatchingEdges(arr.demand.resources | {rid})))
    return model.Instance(mode=model.MATCHING, resources=tuple(resources), arrivals=tuple(new_arrivals))


def _balance_reduced_prices(inst: model.Instance) -> list:
    """Reduced price of the remaining-capacity rule's match per arrival, on one
    deterministic reference path (seed 0)."""
    from .engine import simulate
    from .policies import BalancePolicy

    tr = simulate(inst, BalancePolicy(), master_seed=0, trial_id=0)
    return [0.0 if rec.resource is None else inst.resource_by_id(rec.resource).prices[rec.units[0]]
            for rec in tr.records]


def example_a2(n: int, mu: float) -> model.Instance:
    """Two exponential resources with rewards 1 and 2; n - 1 arrivals at time 0
    want only the expensive one, a final arrival at time 1 takes either."""
    if n < 2 or mu <= 0:
        raise ValueError("need n >= 2 and mu > 0")
    usage = Exponential(rate=mu)
    resources = [
        model.Resource(id=0, capacity=n, reward=1.0, usage=usage),
        model.Resource(id=1, capacity=n, reward=2.0, usage=usage),
    ]
    arrivals = [model.Arrival(time=0.0, demand=model.MatchingEdges(frozenset({1})))] * (n - 1)
    arrivals.append(model.Arrival(time=1.0, demand=model.MatchingEdges(frozenset({0, 1}))))
    return model.Instance(mode=model.MATCHING, resources=tuple(resources), arrivals=tuple(arrivals))


def stochastic_rewards_to_reuse(instance: model.Instance, p: float) -> model.Instance:
    """Reuse counterpart of a stochastic-rewards graph with success rate p:
    every match ties the unit up forever w.p. p, else returns it immediately."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    resources = tuple(
        model.Resource(id=r.id, capacity=r.capacity, reward=r.reward, usage=ZeroOrInf(p=1.0 - p))
        for r in instance.resources
    )
    return model.Instance(mode=instance.mode, resources=resources,
                          arrivals=instance.arrivals, choice_models=instance.choice_models)


def omniscient_gap(n: int) -> model.Instance:
    """n single-unit resources with 50/50 now-or-never returns and n^2
    all-to-all arrivals; no duration-blind benchmark can pass 2n expected."""
    if n < 1:
        raise ValueError("n must be >= 1")
    resources = tuple(model.Resource(id=i, capacity=1, reward=1.0, usage=ZeroOrInf(p=0.5))
                      for i in range(n))
    everyone = model.MatchingEdges(frozenset(range(n)))
    arrivals = tuple(model.Arrival(time=float(t), demand=everyone) for t in range(n * n))
    return model.Instance(mode=model.MATCHING, resources=resources, arrivals=arrivals)


def upper_triangular(n_resources: int, capacity: int, reward: float = 1.0) -> model.Instance:
    """Non-reusable block family: block j (capacity arrivals at time j) has
    edges to resources j..n, so early demand is flexible and late demand is
    stuck; the classic tightness case for balance-type guarantees."""
    resources = tuple(model.Resource(id=i, capacity=capacity, reward=reward, usage=NonReusable())
                      for i in range(n_resources))
    arrivals = []
    for j in range(n_resources):
        group = model.Arrival(time=float(j + 1), demand=model.MatchingEdges(frozenset(range(j, n_resources))))
        arrivals += [group] * capacity
    return model.Instance(mode=model.MATCHING, resources=resources, arrivals=tuple(arrivals))


def mnl_counterexample() -> model.Instance:
    """Two unit-capacity resources, one reusable with a two-point duration,
    three choice arrivals; whether the last arrival takes the reusable
    resource depends on that resource's own earlier durations."""
    resources = (
        model.Resource(id=0, capacity=1, reward=1.0, usage=TwoPointInf(d=1.0, p=0.5)),
        model.Resource(id=1, capacity=1, reward=1.0, usage=NonReusable()),
    )
    first = MNL(v0=0.01, weights={0: 100.0, 1: 1.0})
    last = MNL(v0=0.01, weights={0: 1.0, 1: 100.0})
    by_first = model.AssortmentRequest(0, {0: 1, 1: 1})
    arrivals = (
        model.Arrival(time=0.0, demand=by_first),
        model.Arrival(time=1.0, demand=by_first),
        model.Arrival(time=2.0, demand=model.AssortmentRequest(1, by_first.amounts)),
    )
    return model.Instance(mode=model.ASSORTMENT, resources=resources, arrivals=arrivals,
                          choice_models=(first, last))


@dataclass(frozen=True)
class BatteryParams:
    n_instances: int = 5
    n_resources: int = 4          # <= 10
    n_arrivals: int = 120         # <= 5000
    capacity_range: tuple = (50, 150)
    mode: str = model.MATCHING
    dist_mix: tuple = ("two_point_inf", "exponential", "deterministic", "uniform")
    reward_range: tuple = (0.5, 2.0)
    edge_prob: float = 0.6
    max_bid: int = 1
    horizon: float = 50.0


_FINITE_KINDS = ("exponential", "deterministic", "uniform", "weibull")   # bases of "mixture_inf"


def _random_dist(kind: str, rnd: random.Random):
    if kind == "two_point_inf":
        return TwoPointInf(d=round(rnd.uniform(0.5, 5.0), 3), p=round(rnd.uniform(0.2, 0.9), 3))
    if kind == "exponential":
        return Exponential(rate=round(rnd.uniform(0.1, 2.0), 3))
    if kind == "deterministic":
        return Deterministic(d=round(rnd.uniform(0.5, 5.0), 3))
    if kind == "uniform":
        lo = round(rnd.uniform(0.0, 2.0), 3)
        return Uniform(lo=lo, hi=lo + round(rnd.uniform(0.5, 3.0), 3))
    if kind == "weibull":
        return WeibullIFR(scale=round(rnd.uniform(0.5, 3.0), 3), shape=round(rnd.uniform(1.0, 3.0), 3))
    if kind == "zero_or_inf":
        return ZeroOrInf(p=round(rnd.uniform(0.2, 0.8), 3))
    if kind == "non_reusable":
        return NonReusable()
    if kind == "mixture_inf":
        p_finite = round(rnd.uniform(0.2, 0.9), 3)
        return MixtureWithInf(p_finite=p_finite, base=_random_dist(rnd.choice(_FINITE_KINDS), rnd))
    raise ValueError(f"unknown distribution kind {kind!r}")


def random_battery(params: BatteryParams, seed: int) -> list:
    """Reproducible list of instances; same params and seed, same battery."""
    rnd = random.Random(seed)
    out = []
    for idx in range(params.n_instances):
        resources = []
        for i in range(params.n_resources):
            kind = params.dist_mix[rnd.randrange(len(params.dist_mix))]
            resources.append(model.Resource(
                id=i,
                capacity=rnd.randint(*params.capacity_range),
                reward=round(rnd.uniform(*params.reward_range), 3),
                usage=_random_dist(kind, rnd),
            ))
        arrivals, made = [], {}
        time = 0.0
        for _ in range(params.n_arrivals):
            time += rnd.uniform(0.0, 2.0 * params.horizon / params.n_arrivals)
            edges = [i for i in range(params.n_resources) if rnd.random() < params.edge_prob]
            if not edges:
                edges = [rnd.randrange(params.n_resources)]
            if params.mode == model.MATCHING:
                key = tuple(edges)
            elif params.mode == model.BUDGETED:
                key = tuple({i: rnd.randint(1, params.max_bid) for i in edges}.items())
            else:
                raise ValueError("random_battery covers matching and budgeted modes")
            demand = made.get(key)      # one object per distinct demand
            if demand is None:
                demand = made[key] = (model.MatchingEdges(frozenset(edges)) if params.mode == model.MATCHING
                                      else model.BudgetedBids(dict(key)))
            arrivals.append(model.Arrival(time=round(time, 6), demand=demand))
        inst = model.Instance(mode=params.mode, resources=tuple(resources), arrivals=tuple(arrivals))
        bad = model.validate(inst)
        if bad:
            raise AssertionError(f"generator produced an invalid instance: {bad}")
        out.append(inst)
    return out


def battery_hash(instances: list) -> str:
    """Stable digest of a battery's JSON form, for drift guards."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(model.dumps(inst).encode())
    return h.hexdigest()[:16]
