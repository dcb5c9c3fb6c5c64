"""Discrete-event simulator for online allocation with reusable resources.

Replays an arrival sequence against an online policy under true stochastic
reusability. At each arrival, in order: (i) units whose realized return time
is due are made available again, (ii) the policy is queried and its
allocation applied, durations drawn from the keyed stream and returns
scheduled. Reward accrues at match time: the resource's reward per unit
allocated.

All randomness flows from (master seed, trial id): durations are keyed by
(resource, unit rank, use counter), policy coins and customer choice by
arrival index. Two policies run under the same seed therefore see identical
durations for the same unit-use key. A family whose draw cannot depend on its
uniform (Deterministic, or no finite branch) gives its one duration without
touching the stream.

Two engines share these semantics. `simulate` runs one trial, a policy
`decide` call per arrival; it is the oracle and the only one that records
traces. Rules read the trial's state as {resource id: `_ResourceLive`}. It
turns the decision of every mode into one resource, the matched one or the
customer's choice from the offered set, takes min(bid, available) of its
highest available ranks (one in matching mode), and applies and records
that allocation in one place. It folds each unit stream of a resource with
drawn durations in one `rng.derive_vec` call when the trial starts, so a
draw is one inline fold of its use counter (`rng.uniform_from1`), and it
computes the choice probabilities of an offered set once per instance
(`Instance.offer_probs`). `lockstep` runs a chunk of trials at once as
arrays over (trials x resources) and (trials x units), for the policies
whose `decide` comes with a batched rule, `decide_batch` (`batched`), and
records per (trial, arrival) what was matched when asked; its allocation
takes a resource per trial and allocates the same units. Every key stays
the same: trial seeds come from `rng.derive_vec`, a unit's duration stream
is folded to (resource, rank) once per chunk and each draw is one fold of
its use counter, and the uniform becomes a duration through the family's
scalar `sample_u`, the one `simulate` calls (numpy's vector log1p, expm1
and exp differ from `math`'s in the last bit on some inputs). A return is
filed once, at allocation, under the first arrival whose time is at or
after it, `np.searchsorted(times, time + d, side="left")`, and never under
the allocating arrival itself, so units come back exactly where `simulate`
pops them. `run_trials` takes the batched path from BATCH_MIN_TRIALS trials
on, when no trace is asked for and durations are not shared.
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from . import model, rng
from .distributions import sample  # noqa: F401  (perfbench/tracer.py patches engine.sample by name)


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
    """Mutable per-trial unit bookkeeping for one resource, the `state`
    that scalar rules read as {resource id: _ResourceLive}."""

    __slots__ = ("res", "prices", "avail", "in_use", "dead", "use_count", "streams")

    def __init__(self, res: model.Resource, trial_seed: int):
        self.res = res
        self.prices = res.prices
        self.avail = list(range(1, res.capacity + 1))  # ascending ranks
        self.in_use = 0
        self.dead = 0
        self.use_count = [0] * (res.capacity + 1)
        # Each unit slot's duration stream, rng.derive(trial_seed, TAG_DURATION,
        # resource id, slot), slot 0 the shared draw's; none for a fixed duration.
        self.streams = None if res.fixed_duration is not None else rng.derive_vec(
            trial_seed, rng.TAG_DURATION, res.id, np.arange(res.capacity + 1)).tolist()


def simulate(instance: model.Instance, policy, master_seed: int, trial_id: int,
             collect_trace: bool = True, check_invariants: bool = False,
             shared_durations: bool = False) -> TrialTrace:
    """Run one sample path; deterministic in (instance, policy, seed, trial)."""
    if policy.mode != instance.mode:
        raise PolicyProtocolViolation(f"policy mode {policy.mode!r} != instance mode {instance.mode!r}")
    trial_seed = rng.derive(master_seed, rng.TAG_TRIAL, trial_id)
    state = {r.id: _ResourceLive(r, trial_seed) for r in instance.resources}
    policy.start_trial(instance, trial_seed)
    returns = []             # heap of (return time, seq, rid, rank)
    seq = 0
    total = 0.0
    per_resource = {r.id: 0.0 for r in instance.resources}
    records = [] if collect_trace else None
    choice_coins = None      # rng.uniform(trial_seed, TAG_CHOICE, t) for every t, drawn on first use
    choices = instance.offer_probs

    for t, arrival in enumerate(instance.arrivals):
        while returns and returns[0][0] <= arrival.time:
            _, _, rid, rank = heapq.heappop(returns)
            lv = state[rid]
            lv.in_use -= 1
            insort(lv.avail, rank)
        # Every mode's decision becomes one resource `rid`, of which min(bid, available) units are
        # allocated and recorded below.
        decision = policy.decide(t, arrival, state)
        rid, offer, bids = None, (), arrival.demand.bids()
        if decision is None:
            kind = "none"
        elif instance.mode != model.ASSORTMENT:
            kind, rid = "match", decision
            if rid not in bids:
                raise PolicyProtocolViolation(f"arrival {t}: no edge to resource {rid}")
        else:
            kind, offer = "offer", frozenset(decision)
            if offer and not arrival.demand.feasible.allows(offer):
                raise PolicyProtocolViolation(f"arrival {t}: offered set is not feasible")
            for i in offer:
                if i not in bids:
                    raise PolicyProtocolViolation(f"arrival {t}: offered resource {i} has no demand")
                if not state[i].avail:
                    raise PolicyProtocolViolation(f"arrival {t}: offered resource {i} is unavailable")
            if offer:
                if choice_coins is None:
                    choice_coins = rng.uniform_vec(trial_seed, rng.TAG_CHOICE,
                                                   np.arange(len(instance.arrivals))).tolist()
                key = (arrival.demand.choice_model, tuple(offer))
                probs = choices.get(key)
                if probs is None:
                    cm = instance.choice_models[key[0]]
                    probs = choices[key] = [(i, cm.prob(offer, i)) for i in sorted(offer)]
                rid = rng.pick(choice_coins[t], probs)
        ranks, durations, gained = (), [], 0.0
        if rid is not None:
            lv = state[rid]
            avail, fixed = lv.avail, lv.res.fixed_duration   # fixed: no draw can change the duration
            if not avail:
                raise PolicyProtocolViolation(f"arrival {t}: resource {rid} has no available unit")
            ranks = avail[: -bids[rid] - 1 : -1]            # the top min(bid, available) ranks
            units = len(ranks)
            del avail[-units:]
            if fixed is None:        # a draw is one fold of the use counter onto the unit's stream
                sample_u, streams, uses = lv.res.usage.sample_u, lv.streams, lv.use_count
                if shared_durations:                 # one draw for all: unit slot 0, use t
                    fixed = sample_u(rng.uniform_from1(streams[0], t))
            for rank in ranks:
                d = fixed
                if d is None:
                    use = uses[rank] = uses[rank] + 1
                    d = sample_u(rng.uniform_from1(streams[rank], use))
                durations.append(d)
                if math.isinf(d):
                    lv.dead += 1
                else:
                    lv.in_use += 1
                    seq += 1
                    heapq.heappush(returns, (arrival.time + d, seq, rid, rank))
            gained = lv.res.reward * units
            total += gained
            per_resource[rid] += gained
        if collect_trace:
            records.append(ArrivalRecord(t, arrival.time, kind, rid, tuple(ranks), tuple(durations), gained,
                                         tuple(sorted(offer))))
        if check_invariants:
            for rid, lv in state.items():
                tracked = len(lv.avail) + lv.in_use + lv.dead
                if tracked != lv.res.capacity:
                    raise AssertionError(f"resource {rid}: {tracked} units tracked, capacity {lv.res.capacity}")

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
    if traces is None and not shared_durations and trials >= BATCH_MIN_TRIALS and batched(instance, policy):
        paths = lockstep(instance, policy, trials, master_seed)
        return _summary(paths.totals, {r.id: paths.per_resource[i] for i, r in enumerate(instance.resources)},
                        paths.events)
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
    return _summary(np.array(totals), {rid: np.array(v) for rid, v in per_res.items()}, events)


def mean_se(values: np.ndarray) -> tuple:
    """(mean, standard error of the mean) of per-trial values, as floats: the
    sample standard deviation over sqrt(trials), 0.0 for a single trial."""
    trials = len(values)
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0


DOT_TERMS = 10_000     # OpenBLAS runs a dot of up to this many terms on one thread


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """x @ y, in chunks of DOT_TERMS added in sequence, whatever the BLAS threads."""
    total = float(x[:DOT_TERMS] @ y[:DOT_TERMS])
    for i in range(DOT_TERMS, x.size, DOT_TERMS):
        total += float(x[i:i + DOT_TERMS] @ y[i:i + DOT_TERMS])
    return total


def _summary(totals: np.ndarray, per_res: dict, events: dict) -> Summary:
    mean, se = mean_se(totals)
    per_res = {rid: mean_se(v) for rid, v in per_res.items()}
    return Summary(trials=len(totals), mean=mean, se=se,
                   ci95=(mean - 1.96 * se, mean + 1.96 * se),
                   per_resource_mean={rid: m for rid, (m, _) in per_res.items()},
                   per_resource_se={rid: e for rid, (_, e) in per_res.items()},
                   event_totals=events)


# --- the lockstep engine ------------------------------------------------------

BATCH_MIN_TRIALS = 64        # run_trials runs batched from this many trials (README: crossover)
TRIAL_CELLS = 1 << 21        # (trial, arrival), (trial, drawn unit) and bit-word cells of a chunk


def batched(instance: model.Instance, policy) -> bool:
    """Whether `lockstep` can run `policy` on `instance`: the class that
    defines its `decide_batch` also defines its `decide`, and the class that
    defines its `score_batch`, if any, also defines its `score` (a subclass
    that only inherits the batched form may have changed the scalar one),
    compared by `__qualname__`, which a wrapper made by
    `functools.update_wrapper` keeps; and the modes are matching or budgeted
    and agree."""
    def owner(name):
        return getattr(getattr(type(policy), name, None), "__qualname__", "").rpartition(".")[0]

    return (owner("decide_batch") == owner("decide") and owner("score_batch") == owner("score")
            and policy.mode == instance.mode and instance.mode in (model.MATCHING, model.BUDGETED))


@dataclass
class Paths:
    """What a batch of trials did. Resources are indexed in instance order;
    `resource`, `units` and `rank` are filled when asked for."""

    totals: np.ndarray                # (trials,) total reward
    per_resource: np.ndarray          # (resources, trials) reward
    events: dict                      # policy event totals
    resource: np.ndarray = None       # (trials, arrivals) resource index matched, -1 for none
    units: np.ndarray = None          # (trials, arrivals) units allocated
    rank: np.ndarray = None           # (trials, arrivals) highest rank allocated


class _Plan:
    """Per-instance tables of the lockstep engine, built once per run."""

    def __init__(self, instance: model.Instance):
        res = instance.resources
        self.index = {r.id: i for i, r in enumerate(res)}
        self.times = np.array([a.time for a in instance.arrivals], dtype=float)
        caps = np.array([r.capacity for r in res], dtype=np.int64)
        self.caps = caps
        self.rewards = np.array([r.reward for r in res], dtype=float)
        # The reduced price of rank z of resource i is prices[poff[i] + z].
        self.poff = np.cumsum(caps + 1) - (caps + 1)
        self.prices = np.array([p for r in res for p in r.prices], dtype=float)
        # Rank j of resource i is unit column uoff[i] + j - 1.
        self.uoff = np.cumsum(caps) - caps
        self.units = int(caps.sum())
        self.unit_res = np.repeat(np.arange(len(res)), caps)
        self.unit_rank = np.arange(self.units) - self.uoff[self.unit_res] + 1
        self.budgeted = instance.mode == model.BUDGETED
        self.fixed = np.array([math.nan if r.fixed_duration is None else r.fixed_duration for r in res])
        self.drawn = np.isnan(self.fixed)
        self.samplers = [r.usage.sample_u for r in res]
        # The units whose durations are drawn: each unit's column among them
        # (-1 for a fixed duration) and their (resource id, rank) stream keys.
        drawn_units = np.flatnonzero(self.drawn[self.unit_res])
        self.draw_col = np.full(self.units, -1)
        self.draw_col[drawn_units] = np.arange(drawn_units.size)
        ids = np.array([r.id for r in res], dtype=np.int64)
        self.stream_keys = (ids[self.unit_res[drawn_units]], self.unit_rank[drawn_units])
        self.n_drawn = drawn_units.size
        # Availability bit sets, `words` 64-bit words per (trial, resource):
        # rank z is bit (z - 1) % 64 of word (z - 1) // 64. Per rank z, its
        # word and bit, and the word and mask of the bits of the ranks below
        # it that share a word with rank z - 1 (mask 0 for z < 2).
        top = int(caps.max(initial=1))
        words = -(-top // 64)
        self.full = np.array([[(1 << min(max(int(c) - 64 * w, 0), 64)) - 1 for w in range(words)]
                              for c in caps], dtype=np.uint64).reshape(len(res), words)
        pos = np.arange(-1, top)
        self.bit_word = np.maximum(pos, 0) >> 6
        self.bit = np.where(pos >= 0, np.uint64(1) << (pos & 63).astype(np.uint64), np.uint64(0))
        self.low_word = np.maximum(pos - 1, 0) >> 6
        self.low_mask = np.where(pos >= 1, (np.uint64(2) << ((pos - 1) & 63).astype(np.uint64)) - np.uint64(1),
                                 np.uint64(0))
        # Per arrival, its neighbours' indices in id order and their bids.
        self.nbr, self.bid = [], []
        for a in instance.arrivals:
            bids = a.demand.bids()
            self.nbr.append(np.array([self.index[i] for i in bids], dtype=np.intp))
            self.bid.append(np.array(list(bids.values()), dtype=np.int64))


def _bit_length(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each uint64. The exponent of x as a double is
    exact below 2**53; above, rounding may carry x up to the next power of
    two, which the shift test takes back."""
    e = np.frexp(x.astype(float))[1]
    big = x >= np.uint64(1 << 53)
    if big.any():
        e = np.minimum(e, 64)
        e = np.where(big & (x >> (e - 1).astype(np.uint64) == 0), e - 1, e)
    return e


class Lockstep:
    """A chunk of trials run in lockstep, the state that batched decide rules
    read. `top` is the highest available rank and `count` the number of
    available units per (trial, resource), resources in instance order;
    both are kept up to date as units leave and return. Inside, a (trial,
    resource) pair is the flat index trial * resources + resource, and a
    (trial, unit) pair the key trial * units + unit."""

    def __init__(self, plan: _Plan, trial_seeds: np.ndarray, events: tuple, record: bool):
        n, T = trial_seeds.size, plan.times.size
        self.plan = plan
        self.n = n
        self.rows = np.arange(n)
        self.trial_seeds = trial_seeds
        self.top = np.tile(plan.caps, (n, 1))
        self.count = self.top.copy()
        self.events = dict.fromkeys(events, 0)
        self.total = np.zeros(n)
        self.per_resource = np.zeros((plan.caps.size, n))
        self._bits = np.tile(plan.full, (n, 1))        # (trial, resource) x words
        self._coins = None
        self._due = {}                                 # arrival index -> [unit keys returning there]
        # Per (trial, drawn unit), the duration stream folded to (resource, rank) and the use counter.
        self._streams = rng.derive_vec(trial_seeds[:, None], rng.TAG_DURATION, *plan.stream_keys).ravel()
        self._use = np.zeros(self._streams.size, dtype=np.uint64)
        self.record = record
        if record:
            self.resource = np.full((n, T), -1, dtype=np.int64)
            self.units = np.zeros((n, T), dtype=np.int64)
            self.rank = np.zeros((n, T), dtype=np.int64)

    def coins(self) -> np.ndarray:
        """Policy coins, (arrivals x trials): row t holds
        rng.uniform(trial_seed, TAG_POLICY, t) of every trial; drawn on first use."""
        if self._coins is None:
            self._coins = rng.uniform_vec(self.trial_seeds[None, :], rng.TAG_POLICY,
                                          np.arange(self.plan.times.size)[:, None])
        return self._coins

    def price(self, cols, ranks) -> np.ndarray:
        """Reduced price of rank `ranks` of resources `cols` (0.0 at rank 0)."""
        return self.plan.prices[self.plan.poff[cols] + ranks]

    def lower(self, rows, cols, ranks) -> np.ndarray:
        """The highest available rank below `ranks` of each (trial, resource)
        pair, 0 when there is none; the arguments broadcast."""
        rows, cols, ranks = np.broadcast_arrays(rows, cols, ranks)
        pairs = rows * self.plan.caps.size + cols
        return self._lower(pairs.ravel(), ranks.ravel()).reshape(ranks.shape)

    def _lower(self, pairs, ranks):
        bits, plan = self._bits, self.plan
        W = bits.shape[1]
        word = plan.low_word[ranks]
        x = bits.ravel()[pairs * W + word] & plan.low_mask[ranks]
        found = np.where(x != 0, 64 * word + _bit_length(x), 0)
        if W > 1:                                        # nothing in that word: search the words below
            miss = np.flatnonzero((x == 0) & (word > 0))
            if miss.size:
                lower = np.where(np.arange(W) < word[miss, None], bits[pairs[miss]], np.uint64(0))
                last = W - 1 - np.argmax(lower[:, ::-1] != 0, axis=1)
                y = lower[np.arange(miss.size), last]
                found[miss] = np.where(y != 0, 64 * last + _bit_length(y), 0)
        return found

    def release(self, t: int):
        """Make the units due back at arrival t available."""
        parts = self._due.pop(t, None)
        if not parts:
            return
        plan = self.plan
        keys = np.concatenate(parts)
        rows, units = np.divmod(keys, plan.units)
        pairs = rows * plan.caps.size + plan.unit_res[units]
        ranks = plan.unit_rank[units]
        np.bitwise_or.at(self._bits.ravel(), pairs * self._bits.shape[1] + plan.bit_word[ranks], plan.bit[ranks])
        np.maximum.at(self.top.ravel(), pairs, ranks)
        np.add.at(self.count.ravel(), pairs, 1)

    def allocate(self, t: int, choice: np.ndarray):
        """Give each trial the top min(bid, available) units of its choice at
        arrival t, one in matching mode; choice -1 is no match."""
        rows = np.flatnonzero(choice >= 0)
        if not rows.size:
            return
        plan = self.plan
        cols = choice[rows]
        pairs = rows * plan.caps.size + cols
        if plan.budgeted:
            bid = np.zeros(plan.caps.size, dtype=np.int64)
            bid[plan.nbr[t]] = plan.bid[t]
            take = np.minimum(bid[cols], self.count.ravel()[pairs])
        else:
            take = np.ones(rows.size, dtype=np.int64)
        gained = plan.rewards[cols] * take
        self.total[rows] += gained
        self.per_resource.ravel()[cols * self.n + rows] += gained
        top, bits = self.top.ravel(), self._bits.ravel()
        ranks = top[pairs]
        if self.record:
            self.resource[rows, t] = cols
            self.units[rows, t] = take
            self.rank[rows, t] = ranks
        self.count.ravel()[pairs] -= take
        taken = []                                       # (trials, units, resources) per pass
        while True:                                      # one pass per unit, from the top down
            bits[pairs * self._bits.shape[1] + plan.bit_word[ranks]] &= ~plan.bit[ranks]
            taken.append((rows, plan.uoff[cols] + ranks - 1, cols))
            ranks = top[pairs] = self._lower(pairs, ranks)
            take = take - 1
            more = take > 0
            if not more.any():
                break
            rows, cols, pairs, ranks, take = rows[more], cols[more], pairs[more], ranks[more], take[more]
        self._schedule(t, *map(np.concatenate, zip(*taken)))

    def _schedule(self, t: int, rows, units, cols):
        """Draw the durations of newly allocated units and file their returns."""
        plan = self.plan
        d = plan.fixed[cols]
        drawn = plan.drawn[cols]
        if drawn.any():
            d[drawn] = self._draw(rows[drawn], units[drawn], cols[drawn])
        at = np.maximum(np.searchsorted(plan.times, plan.times[t] + d, side="left"), t + 1)
        due = at < plan.times.size
        at, keys = at[due], rows[due] * plan.units + units[due]
        order = np.argsort(at)
        ats, starts = np.unique(at[order], return_index=True)
        for a, part in zip(ats.tolist(), np.split(keys[order], starts[1:])):
            self._due.setdefault(a, []).append(part)

    def _draw(self, rows, units, cols) -> list:
        """Durations of the next use of (trial, unit) pairs: one fold of each
        use counter onto the unit's stream, then the family's scalar sample_u."""
        keys = rows * self.plan.n_drawn + self.plan.draw_col[units]
        use = self._use[keys] + np.uint64(1)
        self._use[keys] = use
        us = rng.uniform_from_vec(self._streams[keys], use).tolist()
        sample_u = self.plan.samplers
        return [sample_u[c](u) for c, u in zip(cols.tolist(), us)]


def lockstep(instance: model.Instance, policy, trials: int, master_seed: int,
             record: bool = False) -> Paths:
    """Trials 0..trials-1 of a policy with a batched rule (see `batched`),
    run in chunks of lockstep trials that keep the chunk's cells, (trial,
    arrival), (trial, drawn unit) and (trial, resource, bit word), within
    TRIAL_CELLS; every number equals what `simulate` gives for the same
    trial. Raises ValueError for a policy that `batched` rejects."""
    if not batched(instance, policy):
        raise ValueError(f"policy {policy.name!r} has no batched rule for {instance.mode} instances")
    plan = _Plan(instance)
    policy.prepare(instance)
    size = max(1, TRIAL_CELLS // (plan.times.size + plan.n_drawn + plan.full.size + 1))
    chunks = []
    for k0 in range(0, trials, size):
        seeds = rng.derive_vec(master_seed, rng.TAG_TRIAL, np.arange(k0, min(trials, k0 + size)))
        batch = Lockstep(plan, seeds, policy.events, record)
        for t, arrival in enumerate(instance.arrivals):
            batch.release(t)
            if plan.nbr[t].size:        # no neighbour: no rule matches or counts an event
                batch.allocate(t, policy.decide_batch(t, arrival, batch))
        chunks.append(batch)
    paths = Paths(totals=np.concatenate([c.total for c in chunks]),
                  per_resource=np.concatenate([c.per_resource for c in chunks], axis=1),
                  events={name: sum(c.events[name] for c in chunks) for name in policy.events})
    if record:
        paths.resource, paths.units, paths.rank = (np.concatenate([getattr(c, a) for c in chunks])
                                                   for a in ("resource", "units", "rank"))
    return paths

