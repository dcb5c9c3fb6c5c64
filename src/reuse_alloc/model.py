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

    def edges(self):
        """Yield (arrival index, resource id, bid) over all positive bids."""
        for t, arr in enumerate(self.arrivals):
            for rid, b in arr.demand.bids().items():
                yield t, rid, b


def _real(x) -> bool:
    return isinstance(x, (int, float)) or isinstance(x, numbers.Real)   # the first test is the fast one


def validate(instance: Instance) -> list:
    """Every invariant violation as a message; empty iff well formed."""
    from . import assortment  # local import to avoid a cycle

    bad = []
    if instance.mode not in MODES:
        bad.append(f"unknown mode {instance.mode!r}")
        return bad
    seen = set()
    for r in instance.resources:
        if r.id in seen:
            bad.append(f"duplicate resource id {r.id}")
        seen.add(r.id)
        if not isinstance(r.capacity, numbers.Integral) or r.capacity < 1:
            bad.append(f"resource {r.id}: capacity must be an integer >= 1")
        if not (_real(r.reward) and 0 <= r.reward < math.inf):
            bad.append(f"resource {r.id}: reward must be finite and >= 0")
        for msg in distributions.validate(r.usage):
            bad.append(f"resource {r.id}: {msg}")
    for k, cm in enumerate(instance.choice_models):
        bad += [f"choice model {k}: {msg}" for msg in assortment.validate_choice_model(cm)]
    want = _DEMAND_FOR_MODE[instance.mode]
    prev = None
    for t, arr in enumerate(instance.arrivals):
        numeric = _real(arr.time)
        if numeric and prev is not None and arr.time < prev:
            bad.append(f"times not nondecreasing at index {t}")
        if numeric:
            prev = arr.time
        if not (numeric and 0 <= arr.time < math.inf):
            bad.append(f"arrival {t}: time must be finite and >= 0")
        if not isinstance(arr.demand, want):
            bad.append(f"arrival {t}: demand kind does not match mode {instance.mode}")
            continue
        raw = arr.demand.resources if isinstance(arr.demand, MatchingEdges) else arr.demand.amounts
        items = {i: 1 for i in raw} if isinstance(arr.demand, MatchingEdges) else raw
        for rid, b in items.items():
            if rid not in seen:
                bad.append(f"unknown resource {rid} at arrival {t}")
            if not isinstance(b, int) or b < 0:
                bad.append(f"arrival {t}: bid for resource {rid} must be a nonnegative integer")
        if isinstance(arr.demand, AssortmentRequest):
            cm_index = arr.demand.choice_model
            if not (isinstance(cm_index, numbers.Integral) and 0 <= cm_index < len(instance.choice_models)):
                bad.append(f"arrival {t}: choice model {arr.demand.choice_model} does not exist")
            else:
                cm = instance.choice_models[arr.demand.choice_model]
                weights = getattr(cm, "weights", None)
                universe = set(weights) if weights is not None else set(getattr(cm, "items", ()))
                for rid in arr.demand.bids():
                    if rid not in universe:
                        bad.append(f"arrival {t}: choice model has no entry for resource {rid}")
            if isinstance(arr.demand.feasible, ExplicitList):
                sets = set(arr.demand.feasible.sets)
                for s in sets:
                    for x in s:
                        if frozenset(s - {x}) not in sets and len(s) > 1:
                            bad.append(f"arrival {t}: explicit feasible list is not downward closed")
                            break
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


def _demand_from_json(obj):
    kind = obj["type"]
    if kind == "edges":
        return MatchingEdges(resources=frozenset(obj["resources"]))
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
    from . import assortment  # local import to avoid a cycle

    return {
        "mode": instance.mode,
        "resources": [
            {"id": r.id, "capacity": r.capacity, "reward": r.reward,
             "usage": distributions.to_json(r.usage)}
            for r in instance.resources
        ],
        "arrivals": [{"time": a.time, "demand": _demand_to_json(a.demand)} for a in instance.arrivals],
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
        part, i, arrivals = "arrivals", None, []
        for i, a in enumerate(arrival_objs):
            arrivals.append(Arrival(time=a["time"], demand=_demand_from_json(a["demand"])))
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
