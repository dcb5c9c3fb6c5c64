"""Discrete-event simulator for online allocation with reusable resources.

Replays an arrival sequence against an online policy under true stochastic
reusability. At each arrival, in order: (i) units whose realized return time
is due are made available again, (ii) the policy is queried and its
allocation applied, durations drawn from the keyed stream and returns
scheduled. Reward accrues at match time, `reward * units allocated`.

All randomness flows from (master seed, trial id): durations are keyed by
(resource, unit rank, use counter), policy coins and customer choice by
arrival index. Two policies run under the same seed therefore see identical
durations for the same unit-use key. A family whose draw cannot depend on its
uniform (Deterministic, or no finite branch) gives its one duration without
touching the stream.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from . import model, rng
from .distributions import DurationStreamKey, sample


class PolicyProtocolViolation(RuntimeError):
    """A policy allocated an unavailable unit or exceeded feasibility."""


@dataclass
class ArrivalRecord:
    arrival: int
    time: float
    decision: str            # "match" | "offer" | "none"
    resource: object         # chosen resource id or None
    units: tuple             # allocated unit ranks
    durations: tuple         # realized durations for those units
    reward: float
    offered: tuple = ()      # assortment mode: the offered set


@dataclass
class TrialTrace:
    trial: int
    records: list
    total_reward: float
    per_resource: dict       # resource id -> reward
    events: dict             # policy event counters


@dataclass
class Summary:
    trials: int
    mean: float
    se: float
    ci95: tuple
    per_resource_mean: dict
    per_resource_se: dict = field(default_factory=dict)
    event_totals: dict = field(default_factory=dict)


class _ResourceLive:
    """Mutable per-trial unit bookkeeping for one resource."""

    __slots__ = ("res", "prices", "avail", "in_use", "dead", "use_count", "stream", "unit_streams")

    def __init__(self, res: model.Resource):
        self.res = res
        self.prices = res.prices
        self.avail = list(range(1, res.capacity + 1))  # ascending ranks
        self.in_use = 0
        self.dead = 0
        self.use_count = [0] * (res.capacity + 1)
        # Duration streams of the resource and of each unit slot, folded on
        # first use in the trial; slot 0 is the shared draw's.
        self.stream = None
        self.unit_streams = [None] * (res.capacity + 1)


class EngineState:
    """Read view handed to policies: current inventory plus the clock."""

    def __init__(self, instance: model.Instance):
        self.instance = instance
        self.live = {r.id: _ResourceLive(r) for r in instance.resources}
        self.time = 0.0
        self.arrival_index = -1

    def available_count(self, rid: int) -> int:
        return len(self.live[rid].avail)

    def z(self, rid: int) -> int:
        """Highest available unit rank, 0 when none."""
        a = self.live[rid].avail
        return a[-1] if a else 0

    def top_ranks(self, rid: int, k: int) -> list:
        """The k highest available ranks, descending."""
        a = self.live[rid].avail
        return a[: -k - 1 : -1] if k else []

    def check_conservation(self):
        for rid, lv in self.live.items():
            total = len(lv.avail) + lv.in_use + lv.dead
            if total != lv.res.capacity:
                raise AssertionError(f"resource {rid}: {total} units tracked, capacity {lv.res.capacity}")


def simulate(instance: model.Instance, policy, master_seed: int, trial_id: int,
             collect_trace: bool = True, check_invariants: bool = False,
             shared_durations: bool = False) -> TrialTrace:
    """Run one sample path; deterministic in (instance, policy, seed, trial)."""
    if policy.mode != instance.mode:
        raise PolicyProtocolViolation(f"policy mode {policy.mode!r} != instance mode {instance.mode!r}")
    trial_seed = rng.derive(master_seed, rng.TAG_TRIAL, trial_id)
    state = EngineState(instance)
    policy.start_trial(instance, trial_seed)
    returns = []             # heap of (return time, seq, rid, rank)
    seq = 0
    total = 0.0
    per_resource = {r.id: 0.0 for r in instance.resources}
    records = [] if collect_trace else None
    choice_coins = None      # rng.uniform(trial_seed, TAG_CHOICE, t) for every t, drawn on first use
    duration_root = rng.derive(trial_seed, rng.TAG_DURATION)   # folded with (resource, rank, use) per draw

    def draw_duration(rid: int, rank: int, t: int):
        lv = state.live[rid]
        if lv.res.fixed_duration is not None:  # no draw can change it
            return lv.res.fixed_duration
        if shared_durations:
            rank, use = 0, t                    # unit slot 0 marks the shared draw
        else:
            use = lv.use_count[rank] = lv.use_count[rank] + 1
        stream = lv.unit_streams[rank]
        if stream is None:
            if lv.stream is None:
                lv.stream = rng.fold(duration_root, rid)
            stream = lv.unit_streams[rank] = rng.fold(lv.stream, rank)
        return sample(lv.res.usage, DurationStreamKey(rid, rank, use), trial_seed, stream)

    def allocate(rid: int, ranks, t: int):
        nonlocal seq, total
        lv = state.live[rid]
        durations = []
        shared = draw_duration(rid, ranks[0], t) if shared_durations and ranks else None
        avail = lv.avail
        for rank in ranks:
            if avail and avail[-1] == rank:     # top-rank allocation, the common case
                avail.pop()
            else:
                try:
                    avail.remove(rank)
                except ValueError:
                    raise PolicyProtocolViolation(f"unit {rank} of resource {rid} is not available") from None
            d = shared if shared_durations else draw_duration(rid, rank, t)
            durations.append(d)
            if math.isinf(d):
                lv.dead += 1
            else:
                lv.in_use += 1
                seq += 1
                heapq.heappush(returns, (state.time + d, seq, rid, rank))
        gained = lv.res.reward * len(ranks)
        total += gained
        per_resource[rid] += gained
        return durations, gained

    for t, arrival in enumerate(instance.arrivals):
        state.time = arrival.time
        state.arrival_index = t
        while returns and returns[0][0] <= arrival.time:
            _, _, rid, rank = heapq.heappop(returns)
            lv = state.live[rid]
            lv.in_use -= 1
            insort(lv.avail, rank)
        decision = policy.decide(t, arrival, state)
        rec = None
        if decision is None:
            if collect_trace:
                rec = ArrivalRecord(t, arrival.time, "none", None, (), (), 0.0)
        elif instance.mode == model.MATCHING:
            rid = decision
            if rid not in arrival.demand.resources:
                raise PolicyProtocolViolation(f"arrival {t}: no edge to resource {rid}")
            rank = state.z(rid)
            if rank == 0:
                raise PolicyProtocolViolation(f"arrival {t}: resource {rid} has no available unit")
            durations, gained = allocate(rid, [rank], t)
            if collect_trace:
                rec = ArrivalRecord(t, arrival.time, "match", rid, (rank,), tuple(durations), gained)
        elif instance.mode == model.BUDGETED:
            rid, ranks = decision
            bids = arrival.demand.bids()
            if rid not in bids or len(ranks) > bids[rid]:
                raise PolicyProtocolViolation(f"arrival {t}: allocation exceeds bid for resource {rid}")
            durations, gained = allocate(rid, list(ranks), t)
            if collect_trace:
                rec = ArrivalRecord(t, arrival.time, "match", rid, tuple(ranks), tuple(durations), gained)
        else:
            offer = frozenset(decision)
            bids = arrival.demand.bids()
            cm = instance.choice_models[arrival.demand.choice_model]
            if offer and not arrival.demand.feasible.allows(offer):
                raise PolicyProtocolViolation(f"arrival {t}: offered set is not feasible")
            for rid in offer:
                if rid not in bids:
                    raise PolicyProtocolViolation(f"arrival {t}: offered resource {rid} has no demand")
                if state.available_count(rid) == 0:
                    raise PolicyProtocolViolation(f"arrival {t}: offered resource {rid} is unavailable")
            chosen = None
            if offer:
                if choice_coins is None:
                    choice_coins = rng.uniform_vec(trial_seed, rng.TAG_CHOICE,
                                                   np.arange(len(instance.arrivals))).tolist()
                chosen = rng.pick(choice_coins[t], ((rid, cm.prob(offer, rid)) for rid in sorted(offer)))
            if chosen is None:
                if collect_trace:
                    rec = ArrivalRecord(t, arrival.time, "offer", None, (), (), 0.0, tuple(sorted(offer)))
            else:
                take = min(bids[chosen], state.available_count(chosen))
                ranks = state.top_ranks(chosen, take)
                durations, gained = allocate(chosen, ranks, t)
                if collect_trace:
                    rec = ArrivalRecord(t, arrival.time, "offer", chosen, tuple(ranks),
                                        tuple(durations), gained, tuple(sorted(offer)))
        if collect_trace:
            records.append(rec)
        if check_invariants:
            state.check_conservation()

    return TrialTrace(trial=trial_id, records=records, total_reward=total,
                      per_resource=per_resource, events=dict(getattr(policy, "trial_events", {})))


def run_trials(instance: model.Instance, policy, trials: int, master_seed: int,
               shared_durations: bool = False, traces: list = None) -> Summary:
    """Independent trials k = 0..trials-1, run in order, then summarized.

    When `traces` is a list it is filled with every trial's full trace,
    records included, from the same pass that makes the summary.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    runs = (simulate(instance, policy, master_seed, k, collect_trace=traces is not None,
                     shared_durations=shared_durations) for k in range(trials))
    if traces is not None:
        traces[:] = runs
        runs = traces
    return summarize(runs)


def summarize(traces) -> Summary:
    """Mean, standard error, 95% interval and per-resource means over trials."""
    totals = []
    per_res: dict = {}
    events: dict = {}
    for tr in traces:
        totals.append(tr.total_reward)
        for rid, v in tr.per_resource.items():
            per_res.setdefault(rid, []).append(v)
        for name, v in tr.events.items():
            events[name] = events.get(name, 0) + v
    trials = len(totals)
    totals = np.array(totals)
    per_res = {rid: np.array(v) for rid, v in per_res.items()}
    mean = float(totals.mean())
    se = float(totals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    root = math.sqrt(trials)
    return Summary(trials=trials, mean=mean, se=se,
                   ci95=(mean - 1.96 * se, mean + 1.96 * se),
                   per_resource_mean={rid: float(v.mean()) for rid, v in per_res.items()},
                   per_resource_se={rid: float(v.std(ddof=1) / root) if trials > 1 else 0.0
                                    for rid, v in per_res.items()},
                   event_totals=events)
