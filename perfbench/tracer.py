"""Per-layer tracing from outside the package, and the single-draw
microbenchmarks.

`Tracer.install` wraps each layer's public functions where callers look the
names up: module attributes for names called through a module, the
importing module for names bound by `from ... import` (`engine.sample`,
`benchmarks.simulate`, `benchmarks.run_galg`), and the class for methods
(`GalgGuide.step`, `ResourceFluid.advance`, `MNL.prob`, each policy's
`decide`). Nothing under `src/` is edited; `uninstall` restores every
original.

Each wrapped call is a frame. Coarse calls (commands, trials, guide runs, LP
builds and solves) are kept as spans with their name, start, end, parent
span and operation id. Hot calls (draws, decisions, CDFs, waterfall steps)
are aggregated per (name, parent name) so memory stays bounded. Self time is
a frame's duration minus the time its child frames cover; each wrapper's own
bookkeeping is charged to the child, not to the caller's self time. Worker
threads (`--threads 2`) time their frames with the thread's CPU clock, so a
worker's self time excludes the time it waits for the interpreter lock.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

# Policy names as the CLI knows them, with ":" spelled "-".
POLICY_KEYS = ("greedy", "balance", "rba", "salg", "galg_fast_quant-0.1", "rba_budgeted",
               "rba_assortment", "astalg", "lp_rounding")

DURATION_FAMILIES = ("deterministic", "two_point_inf", "zero_or_inf", "exponential", "uniform",
                     "weibull", "mixture_inf", "non_reusable")


class _ThreadState:
    """One thread's frame stack and tallies; merged when the pass ends, so
    threads never update a shared count."""

    __slots__ = ("stack", "clock", "root", "kind", "agg", "counters", "per_op")

    def __init__(self, main: bool, root_sid):
        self.stack = []
        self.clock = time.perf_counter if main else time.thread_time
        self.kind = "wall" if main else "thread_cpu"
        self.root = [0.0, None, root_sid]      # [child time, name, span id]
        self.agg = {}                          # (name, parent name) -> [calls, total s, self s]
        self.counters = defaultdict(float)
        self.per_op = defaultdict(lambda: defaultdict(int))   # op -> counter -> n


class Tracer:
    def __init__(self):
        self.spans = []             # (id, name, start, end, parent id, op, clock)
        self.guides = []
        self._states = []
        self.op = None
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._patches = []

    # -- frames --------------------------------------------------------------

    def _state(self) -> _ThreadState:
        """This thread's frames. A worker thread's top frames are parented to
        the span the main thread has open when the worker starts."""
        st = self._tls.__dict__.get("st")
        if st is None:
            if threading.current_thread() is threading.main_thread():
                st = _ThreadState(True, None)
            else:
                main = self._main_state.stack
                st = _ThreadState(False, main[-1][2] if main else None)
            self._tls.st = st
            self._states.append(st)
        return st

    def wrap(self, name: str, fn, keep: bool = False, after=None):
        """`fn` timed as frame `name`; `after(state, args, result, seconds)`
        runs after the frame closes and is charged to this call."""
        tracer, spans = self, self.spans

        def wrapper(*args, **kwargs):
            st = tracer._tls.__dict__.get("st") or tracer._state()
            clock = st.clock
            t0 = clock()
            stack = st.stack
            parent = stack[-1] if stack else st.root
            sid = next(tracer._ids) if keep else parent[2]
            frame = [0.0, name, sid]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
            t1 = clock()
            dur = t1 - t0
            key = (name, parent[1])
            a = st.agg.get(key)
            if a is None:
                a = st.agg[key] = [0, 0.0, 0.0]
            a[0] += 1
            a[1] += dur
            a[2] += dur - frame[0]
            if keep:
                spans.append((sid, name, t0, t1, parent[2], tracer.op, st.kind))
            if after is not None:
                after(st, args, out, dur)
            parent[0] += clock() - t0
            return out

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, attr: str, name: str, keep: bool = False, after=None):
        if isinstance(owner, dict):
            orig = owner[attr]
            owner[attr] = self.wrap(name, orig, keep, after)
        else:
            orig = getattr(owner, attr)
            setattr(owner, attr, self.wrap(name, orig, keep, after))
        self._patches.append((owner, attr, orig))

    # -- hooks ---------------------------------------------------------------

    def _count(self, st, key, n=1):
        st.counters[key] += n
        st.per_op[self.op][key] += n

    def _after_simulate(self, st, args, out, dur):
        inst = args[0]
        self._count(st, "engine.simulate_calls")
        self._count(st, "engine.steps", len(inst.arrivals))

    def _after_run_trials(self, st, args, out, dur):
        ev = out.event_totals
        self._count(st, "salg_sampled", ev.get("salg_sampled", 0))
        self._count(st, "salg_unavailable", ev.get("salg_sampled_unavailable", 0))

    def _after_sample(self, st, args, out, dur):
        if math.isinf(out):
            st.counters["sample_inf"] += 1

    def _after_cdf(self, st, args, out, dur):
        st.counters["cdf_elems"] += getattr(args[1], "size", 1)

    def _after_vec(self, st, args, out, dur):
        st.counters["uniform_vec_elems"] += out.size

    def _after_make_policy(self, st, args, out, dur):
        out._bench_name = args[0].replace(":", "-")

    def _after_decide(self, st, args, out, dur):
        pol = args[0]
        key = pol.__dict__.get("_bench_name") or pol.name
        st.counters["decide_s." + key] += dur
        st.counters["decide_calls." + key] += 1
        if out is not None and (not isinstance(out, frozenset) or out):
            st.counters["decide_matches"] += 1

    def _after_prepare(self, st, args, out, dur):
        self._count(st, "guide_builds")

    def _after_guide(self, st, args, out, dur):
        self.guides.append(out)

    def _after_build_lp(self, st, args, out, dur):
        m, n = out.rows.shape
        st.counters["lp_rows"] += m
        st.counters["lp_cols"] += n
        st.counters["lp_nnz"] += int(np.count_nonzero(out.rows))

    def _after_solve(self, st, args, out, dur):
        m, n = np.shape(args[1])
        st.counters["pivots"] += out.pivots
        st.counters["tableau_bytes"] = max(st.counters["tableau_bytes"], 8 * (m + 1) * (n + m + 1))

    def _after_mc(self, st, args, out, dur):
        st.counters["mc_steps"] += out.trials * len(args[0].sigma)

    # -- install -------------------------------------------------------------

    def install(self, ra):
        """Wrap every layer; call from the main thread."""
        self._main_state = self._state()
        P = self._patch
        P(ra.cli, "main", "cli.main", keep=True)
        for gname in list(ra.cli._GENERATORS):
            P(ra.cli._GENERATORS, gname, "generators.generate", keep=True)
        P(ra.model, "from_json", "model.from_json", keep=True)
        P(ra.model, "validate", "model.validate", keep=True)
        P(ra.rng, "uniform", "rng.uniform")
        P(ra.rng, "uniform_array", "rng.uniform_vec", after=self._after_vec)
        P(ra.rng, "uniform_vec", "rng.uniform_vec", after=self._after_vec)
        d = ra.distributions
        for cls in (d.Deterministic, d.TwoPointInf, d.ZeroOrInf, d.Exponential, d.Uniform,
                    d.WeibullIFR, d.MixtureWithInf, d.NonReusable):
            P(cls, "cdf", "distributions.cdf", after=self._after_cdf)
        P(ra.engine, "sample", "distributions.sample", after=self._after_sample)
        P(ra.engine, "run_trials", "engine.run_trials", keep=True, after=self._after_run_trials)
        P(ra.engine, "simulate", "engine.simulate", keep=True, after=self._after_simulate)
        P(ra.benchmarks, "simulate", "engine.simulate", keep=True, after=self._after_simulate)
        p, a = ra.policies, ra.assortment
        P(p, "make_policy", "policies.make_policy", after=self._after_make_policy)
        for cls in (p.GreedyPolicy, p.BalancePolicy, p.RbaPolicy, p.RbaBudgetedPolicy, p.SalgPolicy,
                    a.RbaAssortmentPolicy, a.AstalgPolicy, ra.benchmarks.LpRoundingPolicy):
            P(cls, "decide", "policies.decide", after=self._after_decide)
        P(p.SalgPolicy, "_prepare", "policies.SalgPolicy._prepare", keep=True, after=self._after_prepare)
        P(p, "run_galg", "policies.run_galg", keep=True, after=self._after_guide)
        P(ra.benchmarks, "run_galg", "policies.run_galg", keep=True, after=self._after_guide)
        P(p.GalgGuide, "step", "policies.GalgGuide.step")
        f = ra.fluid
        P(f.ResourceFluid, "advance", "fluid.advance")
        P(f.ResourceFluid, "top_group", "fluid.top_group")
        P(f.ResourceFluid, "consume", "fluid.consume")
        P(a, "run_astgalg", "assortment.run_astgalg", keep=True, after=self._after_guide)
        P(a.AstgalgGuide, "step", "assortment.AstgalgGuide.step")
        P(a, "assortment_oracle", "assortment.oracle")
        P(a, "probability_match", "assortment.probability_match")
        P(a.MNL, "prob", "assortment.choice_prob")
        P(a.ExplicitTable, "prob", "assortment.choice_prob")
        P(ra.benchmarks, "build_lp", "benchmarks.build_lp", keep=True, after=self._after_build_lp)
        P(ra.benchmarks, "certificate_check", "benchmarks.certificate_check", keep=True)
        P(ra.simplex, "solve", "simplex.solve", keep=True, after=self._after_solve)
        P(ra.randproc, "fluid_process", "randproc.fluid_process", keep=True)
        P(ra.randproc, "simulate_process", "randproc.simulate_process", keep=True, after=self._after_mc)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def merged(self):
        """(aggregates, counters, per-operation counters) over all threads."""
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        counters = defaultdict(float)
        per_op = defaultdict(lambda: defaultdict(int))
        for st in self._states:
            for key, vals in st.agg.items():
                row = agg[key]
                for i, v in enumerate(vals):
                    row[i] += v
            for key, v in st.counters.items():
                counters[key] += v
            for op, cs in st.per_op.items():
                for key, v in cs.items():
                    per_op[op][key] += v
        return agg, counters, per_op

    def layer_metrics(self, commands) -> dict:
        """Every per-layer metric of the traced pass, by name."""
        agg, c, per_op = self.merged()
        by = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _), vals in agg.items():
            for i, v in enumerate(vals):
                by[name][i] += v
        calls = defaultdict(int, {k: v[0] for k, v in by.items()})
        total = defaultdict(float, {k: v[1] for k, v in by.items()})
        own = defaultdict(float, {k: v[2] for k, v in by.items()})

        def ratio(a, b):
            return a / b if b else 0.0

        trace_cmd = next((cmd for cmd in commands if "trace" in cmd.outputs), None)
        threads_cmd = next((cmd for cmd in commands if ".threads" in cmd.id), None)
        galg_steps = calls["policies.GalgGuide.step"]
        galg_iters = agg[("fluid.consume", "policies.GalgGuide.step")][0]
        m = {
            "cli.self_s": own["cli.main"],
            "cli.trace_resim_ratio": ratio(per_op[trace_cmd.id]["engine.simulate_calls"],
                                           trace_cmd.trials) if trace_cmd else 0.0,
            "model.load_s": total["model.from_json"] + total["model.validate"],
            "generators.gen_s": total["generators.generate"],
            "rng.uniform_calls": calls["rng.uniform"],
            "rng.uniform_vec_elems": c["uniform_vec_elems"],
            "distributions.sample_calls": calls["distributions.sample"],
            "distributions.inf_frac": ratio(c["sample_inf"], calls["distributions.sample"]),
            "distributions.cdf_calls": calls["distributions.cdf"],
            "distributions.cdf_elems": c["cdf_elems"],
            "engine.simulate_calls": c["engine.simulate_calls"],
            "engine.steps": c["engine.steps"],
            "engine.self_s": own["engine.simulate"],
            "engine.self_ns_per_step": 1e9 * ratio(own["engine.simulate"], c["engine.steps"]),
            "engine.run_trials_s": total["engine.run_trials"],
            "policies.decide_calls": calls["policies.decide"],
        }
        for key in POLICY_KEYS:
            m["policies.decide_ns." + key] = 1e9 * ratio(c["decide_s." + key], c["decide_calls." + key])
        m.update({
            "policies.match_frac": ratio(c["decide_matches"], calls["policies.decide"]),
            "policies.salg_unavailable_frac": ratio(c["salg_unavailable"], c["salg_sampled"]),
            "policies.galg_s": total["policies.run_galg"],
            "policies.galg_steps": galg_steps,
            "policies.galg_iters_per_step": ratio(galg_iters, galg_steps),
            "policies.guide_builds": c["guide_builds"],
            "policies.guide_builds_threads2":
                per_op[threads_cmd.id]["guide_builds"] if threads_cmd else 0,
            "fluid.advance_calls": calls["fluid.advance"],
            "fluid.advance_s": total["fluid.advance"],
            "fluid.top_group_calls": calls["fluid.top_group"],
            "fluid.top_group_s": total["fluid.top_group"],
            "fluid.consume_calls": calls["fluid.consume"],
            "fluid.conservation_error": self.conservation_error(),
            "assortment.astgalg_s": total["assortment.run_astgalg"],
            "assortment.astgalg_steps": calls["assortment.AstgalgGuide.step"],
            "assortment.oracle_calls": calls["assortment.oracle"],
            "assortment.oracle_s": total["assortment.oracle"],
            "assortment.pm_calls": calls["assortment.probability_match"],
            "assortment.pm_s": total["assortment.probability_match"],
            "assortment.choice_prob_calls": calls["assortment.choice_prob"],
            "benchmarks.build_lp_s": total["benchmarks.build_lp"],
            "benchmarks.lp_rows": c["lp_rows"],
            "benchmarks.lp_cols": c["lp_cols"],
            "benchmarks.lp_nnz": c["lp_nnz"],
            "benchmarks.certificate_s": total["benchmarks.certificate_check"],
            "simplex.solve_s": total["simplex.solve"],
            "simplex.pivots": c["pivots"],
            "simplex.pivots_per_s": ratio(c["pivots"], total["simplex.solve"]),
            "simplex.tableau_bytes": c["tableau_bytes"],
            "randproc.fluid_process_s": total["randproc.fluid_process"],
            "randproc.mc_steps_per_s": ratio(c["mc_steps"], total["randproc.simulate_process"]),
        })
        return m

    def conservation_error(self) -> float:
        """Largest conservation error over every guide the traced pass built."""
        return max((gd.inv.conservation_error() for gd in self.guides), default=0.0)

    def write(self, path: str):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op, clock in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "clock": clock}) + "\n")
            agg = [{"name": n, "parent": p, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                   for (n, p), v in sorted(self.merged()[0].items(), key=lambda kv: (kv[0][0], str(kv[0][1])))]
            fh.write(json.dumps({"aggregate": agg}) + "\n")


# -- single-draw microbenchmarks ------------------------------------------------

def _per_call_ns(fn, args_list, reps: int) -> float:
    """Median over `reps` of the mean time of one direct call."""
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for a in args_list:
            fn(*a)
        samples.append((time.perf_counter() - t0) / len(args_list) * 1e9)
    return statistics.median(samples)


def micro(ra, reps: int = 15, calls: int = 2_000, vec_elems: int = 100_000) -> dict:
    """`rng.uniform_ns`, `rng.uniform_vec_ns_per_elem` at `vec_elems`
    elements, and `distributions.sample_ns.<family>` for each family."""
    rng, d = ra.rng, ra.distributions
    seed = 0x5EED
    out = {"rng.uniform_ns": _per_call_ns(
        rng.uniform, [(seed, rng.TAG_DURATION, 1, i, 1) for i in range(calls)], reps)}
    counters = np.arange(vec_elems, dtype=np.uint64)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        rng.uniform_vec(seed, rng.TAG_DURATION, 1, counters, 1)
        samples.append((time.perf_counter() - t0) / vec_elems * 1e9)
    out["rng.uniform_vec_ns_per_elem"] = statistics.median(samples)
    dists = {
        "deterministic": d.Deterministic(1.5),
        "two_point_inf": d.TwoPointInf(1.0, 0.5),
        "zero_or_inf": d.ZeroOrInf(0.5),
        "exponential": d.Exponential(0.8),
        "uniform": d.Uniform(0.5, 2.0),
        "weibull": d.WeibullIFR(1.5, 2.0),
        "mixture_inf": d.MixtureWithInf(0.7, d.Exponential(0.8)),
        "non_reusable": d.NonReusable(),
    }
    keys = [d.DurationStreamKey(1, i, 1) for i in range(calls)]
    for fam in DURATION_FAMILIES:
        out["distributions.sample_ns." + fam] = _per_call_ns(
            d.sample, [(dists[fam], k, seed) for k in keys], reps)
    return out
