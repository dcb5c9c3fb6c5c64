"""The three benchmark workloads: their instances and their command lists.

Every workload is a closed loop: one caller issues each command after the
previous one returns, in a single process.

The instances come from fixed seeds, because their cost swings widely from
draw to draw (the `compare` LP solves in 0.3 s to 10 s depending on the
battery seed), and a run's cost must not depend on the workload seed. The
workload seed drives every stochastic stream: the `--seed` of each
simulating command, the Monte-Carlo seed of `simulate_process`, and the
`randproc` spec, whose cost does not depend on the values drawn.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("burst_spread", "mixed_modes", "offline_bounds")

# Fixed instance seeds (see the module docstring).
MATCHING_BATTERY_SEED = 20
BUDGETED_BATTERY_SEED = 21
ASSORTMENT_SEED = 1010
LP_BATTERY_SEED = 32

CONTINUOUS_MIX = ("exponential", "uniform", "weibull", "deterministic", "two_point_inf")

# Trial counts per command; sized so that one pass takes a few seconds.
BURST_TRIALS = 4
MATCHING_TRIALS = 10
BUDGETED_TRIALS = 10
ASSORTMENT_TRIALS = 30
COMPARE_TRIALS = 4
CERTIFY_TRIALS = 100
MC_TRIALS = 2000
RANDPROC_ARRIVALS = 10_000

# The certificate parameters of acceptance check 11 at capacity 100.
CERT_ALPHA = 0.99 * (1.0 - 1.0 / math.e) * math.exp(-1.0 / 100)
CERT_BETA = 1.01 * math.exp(1.0 / 100)


@dataclass
class Command:
    """One operation of a pass: a CLI call, or the one library call (`mc`)."""

    id: str
    kind: str                     # run | compare | lp | certify | randproc | mc
    argv: list = field(default_factory=list)
    instance: object = None       # the instance the command reads, for checks
    policies: tuple = ()
    trials: int = 0
    seed: int = 0
    outputs: dict = field(default_factory=dict)   # role -> path ("out", "trace")
    closed_form: float = None     # known LP value, for lp commands
    spec: object = None           # randproc.ProcessSpec for randproc / mc

    @property
    def steps(self) -> int:
        """Trials x arrivals this command simulates (run and compare only)."""
        if self.kind not in ("run", "compare"):
            return 0
        return self.trials * len(self.instance.arrivals) * len(self.policies)

    @property
    def mode(self):
        return None if self.instance is None else self.instance.mode


@dataclass
class Workload:
    name: str
    seed: int
    instances: dict               # name -> Instance or spec JSON (hashed in the manifest)
    commands: list


def _assortment_instances(ra, seed: int) -> list:
    """Three MNL instances shaped like acceptance check 10a: 3 resources of
    capacity 200, 250 arrivals, bids 1-2, gamma pinned to 100."""
    model, d = ra.model, ra.distributions
    rnd = random.Random(seed)
    out = []
    for _ in range(3):
        n_res, n_arr, cap = 3, 250, 200
        res = tuple(model.Resource(i, cap, round(rnd.uniform(0.5, 2.0), 3),
                                   rnd.choice([d.TwoPointInf(1.0, 0.5), d.Exponential(0.8),
                                               d.Deterministic(1.5), d.Uniform(0.5, 2.0)]))
                    for i in range(n_res))
        cm = ra.assortment.MNL(v0=round(rnd.uniform(0.3, 1.0), 3),
                               weights={i: round(rnd.uniform(0.5, 3.0), 3) for i in range(n_res)})
        arrivals = []
        time = 0.0
        for t in range(n_arr):
            time += rnd.uniform(0.05, 0.4)
            bids = {i: rnd.randint(1, 2) for i in range(n_res) if rnd.random() < 0.8}
            if not bids:
                bids = {rnd.randrange(n_res): 2}
            if t == 0:
                bids[0] = 2
            arrivals.append(model.Arrival(round(time, 6), model.AssortmentRequest(0, bids)))
        out.append(model.Instance(mode=model.ASSORTMENT, resources=res,
                                  arrivals=tuple(arrivals), choice_models=(cm,)))
    return out


def _randproc_spec_json(seed: int) -> dict:
    """About 10k arrivals of one exponential unit; values from the seed."""
    rnd = random.Random(seed)
    sigma, p, now = [], [], 0.0
    for _ in range(RANDPROC_ARRIVALS):
        now += rnd.uniform(0.01, 0.2)
        sigma.append(round(now, 6))
        p.append(round(rnd.uniform(0.2, 0.9), 3))
    return {"distribution": {"type": "exponential", "rate": 0.5}, "sigma": sigma, "p": p}


def make_instances(ra, name: str, seed: int) -> dict:
    """The workload's instances (and the randproc spec as JSON), by name."""
    gen = ra.generators
    if name == "burst_spread":
        return {"example_a1_n1000": gen.example_a1(1000)}
    if name == "mixed_modes":
        base = dict(n_instances=2, n_resources=8, n_arrivals=2000, capacity_range=(20, 80),
                    dist_mix=CONTINUOUS_MIX, edge_prob=0.6)
        out = {}
        for i, inst in enumerate(gen.random_battery(gen.BatteryParams(**base), MATCHING_BATTERY_SEED)):
            out[f"matching{i}"] = inst
        budgeted = gen.BatteryParams(**base, mode=ra.model.BUDGETED, max_bid=3)
        for i, inst in enumerate(gen.random_battery(budgeted, BUDGETED_BATTERY_SEED)):
            out[f"budgeted{i}"] = inst
        for i, inst in enumerate(_assortment_instances(ra, ASSORTMENT_SEED)):
            out[f"assortment{i}"] = inst
        return out
    if name == "offline_bounds":
        lp_params = gen.BatteryParams(n_instances=1, n_resources=8, n_arrivals=400,
                                      capacity_range=(20, 80), dist_mix=CONTINUOUS_MIX,
                                      edge_prob=0.6, mode=ra.model.BUDGETED, max_bid=3)
        return {
            "example_a1_n300": gen.example_a1(300),
            "upper_triangular_10x100": gen.upper_triangular(10, 100),
            "budgeted_lp": gen.random_battery(lp_params, LP_BATTERY_SEED)[0],
            "randproc_spec": _randproc_spec_json(seed),
        }
    raise ValueError(f"unknown workload {name!r}")


def write_and_validate(ra, instances: dict, workdir: str) -> dict:
    """Write each instance (and the spec) as JSON, read it back and validate
    it; raise on any error. Returns name -> path."""
    files = {}
    for key, obj in instances.items():
        path = os.path.join(workdir, f"{key}.json")
        text = json.dumps(obj) if isinstance(obj, dict) else ra.model.dumps(obj)
        with open(path, "w") as fh:
            fh.write(text)
        with open(path) as fh:
            back = json.load(fh)
        if isinstance(obj, dict):
            ra.randproc.ProcessSpec(dist=ra.distributions.from_json(back["distribution"]),
                                    sigma=back["sigma"], p=back["p"])
        else:
            inst = ra.model.from_json(back)
            bad = ra.model.validate(inst)
            if bad:
                raise ValueError(f"{key}: invalid instance: {bad}")
            if ra.model.dumps(inst) != text:
                raise ValueError(f"{key}: JSON round trip is not exact")
        files[key] = path
    return files


def _gen_args(name: str, params: dict) -> list:
    out = ["--gen", name]
    for k, v in params.items():
        out += ["--param", k, str(v)]
    return out


def build(ra, name: str, seed: int, workdir: str, instances: dict, files: dict) -> Workload:
    """The workload's command list, writing outputs under `workdir`."""
    cmds = []

    def out(cid, role="out"):
        return os.path.join(workdir, f"{cid}.{role}.csv")

    def sim(cid, kind, source, inst, policies, trials, extra=()):
        c = Command(id=cid, kind=kind, instance=inst, policies=tuple(policies),
                    trials=trials, seed=seed, outputs={"out": out(cid)})
        c.argv = [kind, *source, "--policies", ",".join(policies), "--trials", str(trials),
                  "--seed", str(seed), "--out", c.outputs["out"], *extra]
        cmds.append(c)
        return c

    if name == "burst_spread":
        inst = instances["example_a1_n1000"]
        src = _gen_args("example_a1", {"n": 1000})
        for pol in ("greedy", "balance", "rba", "salg"):
            sim(f"run.{pol}", "run", src, inst, [pol], BURST_TRIALS, ["--threads", "1"])
        sim("run.salg.threads2", "run", src, inst, ["salg"], BURST_TRIALS, ["--threads", "2"])
        c = sim("run.rba.trace", "run", src, inst, ["rba"], BURST_TRIALS, ["--threads", "1"])
        c.outputs["trace"] = out(c.id, "trace")
        c.argv += ["--trace", c.outputs["trace"]]
    elif name == "mixed_modes":
        for key, inst in instances.items():
            src = ["--instance", files[key]]
            if key.startswith("matching"):
                sim(f"run.{key}", "run", src, inst, ["rba", "salg", "galg_fast_quant:0.1"],
                    MATCHING_TRIALS, ["--threads", "1"])
            elif key.startswith("budgeted"):
                sim(f"run.{key}", "run", src, inst, ["rba_budgeted"], BUDGETED_TRIALS,
                    ["--threads", "1"])
            else:
                sim(f"run.{key}", "run", src, inst, ["astalg", "rba_assortment"],
                    ASSORTMENT_TRIALS, ["--threads", "1"])
    elif name == "offline_bounds":
        for cid, key, gname, params, closed, extra in (
                ("lp.example_a1", "example_a1_n300", "example_a1", {"n": 300}, 3 * 300 - 0.25, []),
                ("lp.upper_triangular", "upper_triangular_10x100", "upper_triangular",
                 {"n_resources": 10, "capacity": 100}, 1000.0, ["--galg"])):
            c = Command(id=cid, kind="lp", instance=instances[key], outputs={"out": out(cid)},
                        closed_form=closed)
            c.argv = ["lp", *_gen_args(gname, params), "--out", c.outputs["out"], *extra]
            cmds.append(c)
        sim("compare.budgeted", "compare", ["--instance", files["budgeted_lp"]],
            instances["budgeted_lp"], ["rba_budgeted"], COMPARE_TRIALS, ["--threads", "1"])
        c = Command(id="certify.upper_triangular", kind="certify",
                    instance=instances["upper_triangular_10x100"], trials=CERTIFY_TRIALS,
                    seed=seed, outputs={"out": out("certify.upper_triangular")})
        c.argv = ["certify", *_gen_args("upper_triangular", {"n_resources": 10, "capacity": 100}),
                  "--alg", "galg", "--trials", str(CERTIFY_TRIALS), "--seed", str(seed),
                  "--alpha", repr(CERT_ALPHA), "--beta", repr(CERT_BETA), "--out", c.outputs["out"]]
        cmds.append(c)
        sj = instances["randproc_spec"]
        spec = ra.randproc.ProcessSpec(dist=ra.distributions.from_json(sj["distribution"]),
                                       sigma=sj["sigma"], p=sj["p"])
        c = Command(id="randproc", kind="randproc", spec=spec, outputs={"out": out("randproc")})
        c.argv = ["randproc", files["randproc_spec"], "--out", c.outputs["out"]]
        cmds.append(c)
        cmds.append(Command(id="mc.simulate_process", kind="mc", spec=spec, trials=MC_TRIALS, seed=seed))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name=name, seed=seed, instances=instances, commands=cmds)
