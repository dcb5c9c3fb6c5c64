"""Problem-instance data model.

An instance is a set of reusable resources plus an ordered arrival sequence.
Instances are immutable after construction and safe to share across
concurrent trials. Arrival times may repeat (bursts); ties are broken by
arrival index, and the simulator processes returns due at an arrival's time
before matching that arrival.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

from . import distributions
from .distributions import is_number

MATCHING = "matching"
BUDGETED = "budgeted"
ASSORTMENT = "assortment"
MODES = (MATCHING, BUDGETED, ASSORTMENT)


class NoEdges(ValueError):
    """Raised when an instance has no demand at all."""


class TooLarge(ValueError):
    """Raised when an exhaustive search is asked for more than it allows."""


@dataclass(frozen=True)
class Resource:
    id: int                 # unique small integer
    capacity: int           # units, >= 1
    reward: float           # per allocated unit, >= 0
    usage: object           # duration distribution (see distributions)

    @cached_property
    def prices(self) -> list:
        """Reduced price of unit rank k, for k = 1..capacity, built once;
        index 0, no unit, holds 0.0."""
        from .policies import reduced_price  # local import: policies imports this module

        return [0.0] + [reduced_price(self.reward, k, self.capacity) for k in range(1, self.capacity + 1)]

    @cached_property
    def fixed_duration(self):
        """The duration every use of a unit lasts, or None when it is drawn
        (see distributions.fixed_duration)."""
        return distributions.fixed_duration(self.usage)


class _Demand:
    """bids() is {resource id: units} over the bids >= 1 in ascending id
    order. Instances never change, so it is built once per demand, and
    callers must not mutate it."""

    def bids(self) -> dict:
        return self._bids

    @cached_property
    def _bids(self) -> dict:
        return {i: b for i, b in sorted(self.amounts.items()) if b >= 1}


@dataclass(frozen=True)
class MatchingEdges(_Demand):
    resources: frozenset    # ids the arrival can be matched to

    def sorted_ids(self) -> tuple:
        return self._sorted

    @cached_property
    def _sorted(self) -> tuple:
        return tuple(sorted(self.resources))

    @cached_property
    def _bids(self) -> dict:
        return dict.fromkeys(self._sorted, 1)


@dataclass(frozen=True)
class BudgetedBids(_Demand):
    amounts: dict           # resource id -> requested units; 0 means no edge


@dataclass(frozen=True)
class AllSubsets:
    def allows(self, s) -> bool:
        return True


@dataclass(frozen=True)
class MaxCardinality:
    k: int

    def allows(self, s) -> bool:
        return len(s) <= self.k


@dataclass(frozen=True)
class ExplicitList:
    sets: tuple             # tuple of frozensets, downward closed

    def allows(self, s) -> bool:
        return frozenset(s) in self.sets or len(s) == 0


@dataclass(frozen=True)
class AssortmentRequest(_Demand):
    choice_model: int       # index into instance.choice_models
    amounts: dict           # resource id -> requested units
    feasible: object = field(default_factory=AllSubsets)


@dataclass(frozen=True)
class Arrival:
    time: float             # nondecreasing in arrival index
    demand: object          # MatchingEdges | BudgetedBids | AssortmentRequest


_DEMAND_FOR_MODE = {MATCHING: MatchingEdges, BUDGETED: BudgetedBids, ASSORTMENT: AssortmentRequest}


@dataclass(frozen=True)
class Instance:
    mode: str
    resources: tuple
    arrivals: tuple
    choice_models: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "resources", tuple(self.resources))
        object.__setattr__(self, "arrivals", tuple(self.arrivals))
        object.__setattr__(self, "choice_models", tuple(self.choice_models))

    def resource_by_id(self, rid: int) -> Resource:
        return self._index[rid]

    @cached_property
    def _index(self) -> dict:
        return {r.id: r for r in self.resources}

    @cached_property
    def offer_probs(self) -> dict:
        """The simulator's choice probabilities, filled as sets are offered:
        (choice model index, offered set in iteration order, as MNL sums)
        -> [(item, probability)] in ascending item order."""
        return {}

    def edges(self):
        """Yield (arrival index, resource id, bid) over all positive bids."""
        for t, arr in enumerate(self.arrivals):
            for rid, b in arr.demand.bids().items():
                yield t, rid, b


def validate(instance: Instance) -> list:
    """Every invariant violation as a message; empty iff well formed. A
    bool is not a number (`distributions.is_number`), so JSON's true is not
    a resource id, capacity, reward, time, bid, choice model index or
    max_cardinality k."""
    from . import assortment  # local import to avoid a cycle

    bad = []
    if instance.mode not in MODES:
        bad.append(f"unknown mode {instance.mode!r}")
        return bad
    seen = set()
    for r in instance.resources:
        if not is_number(r.id, numbers.Integral):
            bad.append(f"resource {r.id!r}: id must be an integer")
        elif not -2**63 <= r.id < 2**63:       # ids, capacities and bids go into int64 arrays
            bad.append(f"resource {r.id}: id must lie in [-2^63, 2^63)")
        elif r.id in seen:
            bad.append(f"duplicate resource id {r.id}")
        seen.add(r.id)
        if not is_number(r.capacity, numbers.Integral) or r.capacity < 1:
            bad.append(f"resource {r.id}: capacity must be an integer >= 1")
        elif r.capacity >= 2**63:
            bad.append(f"resource {r.id}: capacity must be below 2^63")
        if not (is_number(r.reward) and 0 <= r.reward < math.inf):
            bad.append(f"resource {r.id}: reward must be finite and >= 0")
        for msg in distributions.validate(r.usage):
            bad.append(f"resource {r.id}: {msg}")
    reward = {r.id: r.reward for r in instance.resources if is_number(r.reward) and 0 <= r.reward < math.inf}
    for k, cm in enumerate(instance.choice_models):
        bad += [f"choice model {k}: {msg}" for msg in assortment.validate_choice_model(cm)]
    want = _DEMAND_FOR_MODE[instance.mode]
    prev, last = None, None     # last: the previous arrival, when it gave no message
    passed = set()      # ids of the demands that passed: checks see a demand and the instance only
    for t, arr in enumerate(instance.arrivals):
        if arr is last:
            continue
        last, found = None, len(bad)
        numeric = is_number(arr.time)
        if numeric and prev is not None and arr.time < prev:
            bad.append(f"times not nondecreasing at index {t}")
        if numeric:
            prev = arr.time
        if not (numeric and 0 <= arr.time < math.inf):
            bad.append(f"arrival {t}: time must be finite and >= 0")
        if id(arr.demand) in passed:
            last = arr if len(bad) == found else None
            continue
        if not isinstance(arr.demand, want):
            bad.append(f"arrival {t}: demand kind does not match mode {instance.mode}")
            continue
        items = dict.fromkeys(arr.demand.resources, 1) if isinstance(arr.demand, MatchingEdges) else arr.demand.amounts
        for rid, b in items.items():
            if not is_number(rid, numbers.Integral) or rid not in seen:
                bad.append(f"unknown resource {rid!r} at arrival {t}")
            if not is_number(b, numbers.Integral) or b < 0:
                bad.append(f"arrival {t}: bid for resource {rid} must be a nonnegative integer")
            elif b >= 2**63:
                bad.append(f"arrival {t}: bid for resource {rid} must be below 2^63")
            elif instance.mode == BUDGETED and not math.isfinite(reward.get(rid, 0.0) * b):
                bad.append(f"arrival {t}: reward * bid for resource {rid} must be finite")
        if isinstance(arr.demand, AssortmentRequest):
            bidders = [rid for rid, b in items.items() if is_number(b) and b >= 1]  # bids() raises on a non-number
            cm_index = arr.demand.choice_model
            if not (is_number(cm_index, numbers.Integral) and 0 <= cm_index < len(instance.choice_models)):
                bad.append(f"arrival {t}: choice model {arr.demand.choice_model} does not exist")
            else:
                cm = instance.choice_models[arr.demand.choice_model]
                weights = getattr(cm, "weights", None)
                universe = set(weights) if weights is not None else set(getattr(cm, "items", ()))
                for rid in bidders:
                    if rid not in universe:
                        bad.append(f"arrival {t}: choice model has no entry for resource {rid}")
            k = arr.demand.feasible.k if isinstance(arr.demand.feasible, MaxCardinality) else 0
            if not is_number(k, numbers.Integral) or k < 0:
                bad.append(f"arrival {t}: max_cardinality k must be a nonnegative integer")
            if isinstance(arr.demand.feasible, ExplicitList):
                sets = set(arr.demand.feasible.sets)
                stray = {repr(x) for s in sets for x in s if x not in bidders}
                if stray:
                    bad.append(f"arrival {t}: explicit feasible list names {', '.join(sorted(stray))}, "
                               "not among the arrival's bid resources")
                for s in sets:
                    for x in s:
                        if frozenset(s - {x}) not in sets and len(s) > 1:
                            bad.append(f"arrival {t}: explicit feasible list is not downward closed")
                            break
        if len(bad) == found:
            passed.add(id(arr.demand))
            last = arr
    return bad


def gamma(instance: Instance) -> float:
    """min over edges of capacity / bid, the budget-to-bid ratio."""
    best = None
    for t, rid, b in instance.edges():
        ratio = instance.resource_by_id(rid).capacity / b
        best = ratio if best is None else min(best, ratio)
    if best is None:
        raise NoEdges("instance has no demand")
    return best


# --- JSON round-trip (exact: floats serialized via repr) ---------------------

def _feasible_to_json(f):
    if isinstance(f, AllSubsets):
        return {"type": "all"}
    if isinstance(f, MaxCardinality):
        return {"type": "max_cardinality", "k": f.k}
    return {"type": "explicit", "sets": [sorted(s) for s in f.sets]}


def _feasible_from_json(obj):
    if obj["type"] == "all":
        return AllSubsets()
    if obj["type"] == "max_cardinality":
        return MaxCardinality(k=obj["k"])
    if obj["type"] != "explicit":
        raise ValueError(f"unknown feasible type {obj['type']!r}")
    return ExplicitList(sets=tuple(frozenset(s) for s in obj["sets"]))


def _demand_to_json(d):
    if isinstance(d, MatchingEdges):
        return {"type": "edges", "resources": sorted(d.resources)}
    if isinstance(d, BudgetedBids):
        return {"type": "bids", "bids": {str(i): b for i, b in sorted(d.amounts.items())}}
    return {
        "type": "assortment",
        "choice_model": d.choice_model,
        "bids": {str(i): b for i, b in sorted(d.amounts.items())},
        "feasible": _feasible_to_json(d.feasible),
    }


_PLAIN = frozenset({int, str})     # id types whose equal ids are alike; 1, 1.0 and true are equal, not alike


def _demand_from_json(obj, made: dict):
    """The demand `obj` describes. An edges demand of int or str ids is made
    once per id list, held in `made`: lists in another order can make equal
    sets that iterate apart, and validate's messages follow that order."""
    kind = obj["type"]
    if kind == "edges":
        ids = tuple(obj["resources"])
        if not _PLAIN.issuperset(map(type, ids)):
            return MatchingEdges(resources=frozenset(ids))
        demand = made.get(ids)
        if demand is None:
            demand = made[ids] = MatchingEdges(resources=frozenset(ids))
        return demand
    if kind == "bids":
        return BudgetedBids(amounts={int(i): b for i, b in obj["bids"].items()})
    if kind != "assortment":
        raise ValueError(f"unknown demand type {kind!r}")
    return AssortmentRequest(
        choice_model=obj["choice_model"],
        amounts={int(i): b for i, b in obj["bids"].items()},
        feasible=_feasible_from_json(obj.get("feasible", {"type": "all"})),
    )


def to_json(instance: Instance) -> dict:
    """JSON values; arrivals that share a demand object share its JSON object: edit none in place."""
    from . import assortment  # local import to avoid a cycle

    demands = {id(a.demand): a.demand for a in instance.arrivals}
    encoded = {key: _demand_to_json(d) for key, d in demands.items()}
    return {
        "mode": instance.mode,
        "resources": [
            {"id": r.id, "capacity": r.capacity, "reward": r.reward,
             "usage": distributions.to_json(r.usage)}
            for r in instance.resources
        ],
        "arrivals": [{"time": a.time, "demand": encoded[id(a.demand)]} for a in instance.arrivals],
        "choice_models": [assortment.choice_model_to_json(m) for m in instance.choice_models],
    }


def from_json(obj: dict) -> Instance:
    """The instance `obj` describes. JSON that does not fit the schema raises
    one ValueError naming the first resource, arrival or choice model at
    fault; `validate` checks the values afterwards."""
    from . import assortment

    part, i = "instance", None        # where the parse is, for the error message
    try:
        mode, resource_objs, arrival_objs = obj["mode"], obj["resources"], obj["arrivals"]
        choice_model_objs = obj.get("choice_models", [])
        part, resources = "resources", []
        for i, r in enumerate(resource_objs):
            resources.append(Resource(id=r["id"], capacity=r["capacity"], reward=r["reward"],
                                      usage=distributions.from_json(r["usage"])))
        part, i, arrivals, made = "arrivals", None, [], {}
        for i, a in enumerate(arrival_objs):
            arrivals.append(Arrival(a["time"], _demand_from_json(a["demand"], made)))
        part, i, choice_models = "choice_models", None, []
        for i, m in enumerate(choice_model_objs):
            choice_models.append(assortment.choice_model_from_json(m))
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        where = part if i is None else f"{part}[{i}]"
        if isinstance(exc, KeyError):
            raise ValueError(f"{where}: missing field {exc.args[0]!r}") from None
        raise ValueError(f"{where}: {exc}") from None
    return Instance(mode=mode, resources=resources, arrivals=arrivals, choice_models=choice_models)


def dumps(instance: Instance) -> str:
    return json.dumps(to_json(instance))


def loads(text: str) -> Instance:
    return from_json(json.loads(text))
