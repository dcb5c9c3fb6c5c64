"""Output checks for every benchmark operation; none of them runs while a
pass is being timed.

An operation is one command of one pass. It fails when it raises, exits
non-zero, or when its output fails a check:

- at the default seed, each output matches the digest in `digests.json`;
- for any seed, the CSV invariants hold, and every simulated row is
  reproduced by re-running its trials through
  `engine.simulate(..., check_invariants=True)`;
- `--threads 2` output equals `--threads 1` output, and a `--trace` run's
  per-trial rewards reproduce the re-run totals;
- every LP objective equals scipy's HiGHS within 1e-9 (relative), and the
  closed form where one is known;
- every fluid guide's conservation error stays at or below 1e-9;
- the `randproc` fluid reward lies within 4 standard errors of the
  `simulate_process` mean.

Later passes must reproduce the first pass's outputs byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(HERE, "digests.json")
DEFAULT_SEED = 1
LP_RTOL = 1e-9
CONSERVATION_LIMIT = 1e-9
SAME_RTOL = 1e-9


class Ledger:
    """Operations attempted and failed, with the problems of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []          # (operation, [problem, ...])

    def record(self, op: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append((op, list(problems)))


def fmt(x: float) -> str:
    """The CLI's float format."""
    return format(x, ".12g")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def mc_text(summary) -> str:
    """Canonical text of a `simulate_process` result, for digests."""
    return json.dumps({"trials": summary.trials, "mean": repr(summary.mean), "se": repr(summary.se),
                       "availability": [repr(float(a)) for a in summary.availability]})


def output_texts(cmd, result) -> dict:
    """role -> text of everything the command produced."""
    if cmd.kind == "mc":
        return {"result": mc_text(result)} if result is not None else {}
    out = {}
    for role, path in cmd.outputs.items():
        if os.path.exists(path):
            with open(path) as fh:
                out[role] = fh.read()
    return out


def load_digests() -> dict:
    if not os.path.exists(DIGESTS_PATH):
        return {}
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)


def _close(a: float, b: float, rtol: float = SAME_RTOL) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _parse(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return [], []
    return rows[0], rows[1:]


class Context:
    """Reference values shared by the checks of one workload, computed once."""

    def __init__(self, ra, workload: str, seed: int):
        self.ra = ra
        self.texts = {}             # command id -> role -> text (first pass)
        self.results = {}           # command id -> library result (first pass)
        self._resim = {}
        self._highs = {}
        self.expected = load_digests().get(workload, {}) if seed == DEFAULT_SEED else None

    def resimulate(self, inst, pname: str, trials: int, seed: int):
        """Per-trial totals and per-resource means of `trials` checked re-runs,
        plus the policy's guide when it has one."""
        key = (id(inst), pname, trials, seed)
        if key not in self._resim:
            ra = self.ra
            pol = ra.policies.make_policy(pname)
            totals = np.zeros(trials)
            rids = [r.id for r in inst.resources]
            per = {rid: np.zeros(trials) for rid in rids}
            for k in range(trials):
                tr = ra.engine.simulate(inst, pol, seed, k, collect_trace=False, check_invariants=True)
                totals[k] = tr.total_reward
                for rid in rids:
                    per[rid][k] = tr.per_resource[rid]
            self._resim[key] = (totals, {rid: float(v.mean()) for rid, v in per.items()},
                                getattr(pol, "guide", None))
        return self._resim[key]

    def highs_value(self, inst) -> float:
        """The LP optimum by scipy's HiGHS on the model `build_lp` makes."""
        if id(inst) not in self._highs:
            from scipy.optimize import linprog
            from scipy.sparse import csr_matrix

            lp = self.ra.benchmarks.build_lp(inst)
            res = linprog(-lp.obj, A_ub=csr_matrix(lp.rows), b_ub=lp.rhs, bounds=(0, None),
                          method="highs")
            self._highs[id(inst)] = -res.fun if res.status == 0 else math.nan
        return self._highs[id(inst)]


def _max_reward(inst) -> float:
    rewards = {r.id: r.reward for r in inst.resources}
    return sum(max((rewards[rid] * b for rid, b in a.demand.bids().items()), default=0.0)
               for a in inst.arrivals)


def _check_conservation(guide, what: str) -> list:
    if guide is None:
        return []
    err = guide.inv.conservation_error()
    if not err <= CONSERVATION_LIMIT:
        return [f"{what}: guide conservation error {err:.3g} > {CONSERVATION_LIMIT}"]
    return []


def _check_sim_rows(ctx, cmd, header, rows, res_cols: list) -> list:
    """Shared part of run and compare: one row per policy, re-run totals."""
    problems = []
    inst = cmd.instance
    if not rows:
        return ["no rows"]
    if [r[1] for r in rows] != list(cmd.policies):
        return [f"policies {[r[1] for r in rows]} != {list(cmd.policies)}"]
    hi = _max_reward(inst)
    for row in rows:
        pname = row[1]
        if row[2] != str(cmd.trials) or row[3] != str(cmd.seed):
            problems.append(f"{pname}: trials/seed columns {row[2:4]}")
            continue
        mean, se = float(row[4]), float(row[5])
        if not (se >= 0.0 and -1e-9 <= mean <= hi * (1 + 1e-12) + 1e-9):
            problems.append(f"{pname}: mean {mean} or se {se} out of range")
        totals, per_res, guide = ctx.resimulate(inst, pname, cmd.trials, cmd.seed)
        if row[4] != fmt(float(totals.mean())):
            problems.append(f"{pname}: mean {row[4]} != re-run {fmt(float(totals.mean()))}")
        problems += _check_conservation(guide, pname)
        for col in res_cols:
            i = header.index(col)
            rid = int(col[len("mean_r"):])
            if row[i] != fmt(per_res[rid]):
                problems.append(f"{pname}: {col} {row[i]} != re-run {fmt(per_res[rid])}")
    return problems


def check_run(ctx, cmd, texts) -> list:
    inst = cmd.instance
    header, rows = _parse(texts.get("out", ""))
    res_cols = [f"mean_r{r.id}" for r in inst.resources]
    want = ["instance", "policy", "trials", "seed", "mean", "se", "ci_lo", "ci_hi"] + res_cols
    if header != want:
        return [f"header {header} != {want}"]
    problems = _check_sim_rows(ctx, cmd, header, rows, res_cols)
    for row in rows:
        mean, lo, hi = float(row[4]), float(row[6]), float(row[7])
        if not lo <= mean <= hi:
            problems.append(f"{row[1]}: mean {mean} outside [{lo}, {hi}]")
        if not _close(sum(float(v) for v in row[8:]), mean):
            problems.append(f"{row[1]}: per-resource means do not sum to the mean")
    if "--threads" in cmd.argv and cmd.argv[cmd.argv.index("--threads") + 1] != "1":
        twin = ctx.texts.get(cmd.id.rsplit(".threads", 1)[0], {}).get("out")
        if twin is None or twin != texts.get("out"):
            problems.append("--threads output differs from --threads 1 output")
    if "trace" in cmd.outputs:
        problems += _check_trace(ctx, cmd, texts, rows)
    return problems


def _check_trace(ctx, cmd, texts, rows) -> list:
    inst = cmd.instance
    header, trows = _parse(texts.get("trace", ""))
    if header != ["trial", "arrival", "time", "decision", "resource", "units", "reward"]:
        return [f"trace header {header}"]
    n = len(inst.arrivals)
    if len(trows) != cmd.trials * n:
        return [f"trace has {len(trows)} rows, expected {cmd.trials * n}"]
    totals = np.zeros(cmd.trials)
    for r in trows:
        if r[3] not in ("match", "none", "offer"):
            return [f"trace decision {r[3]!r}"]
        totals[int(r[0])] += float(r[6])
    problems = []
    want, _, _ = ctx.resimulate(inst, cmd.policies[0], cmd.trials, cmd.seed)
    if not np.array_equal(totals, want):
        problems.append("trace per-trial rewards differ from the re-run totals")
    if rows and rows[0][4] != fmt(float(totals.mean())):
        problems.append("trace mean differs from the summary mean")
    return problems


def check_compare(ctx, cmd, texts) -> list:
    header, rows = _parse(texts.get("out", ""))
    want = ["instance", "policy", "trials", "seed", "mean", "se", "lp_value", "ratio"]
    if header != want:
        return [f"header {header} != {want}"]
    problems = _check_sim_rows(ctx, cmd, header, rows, [])
    ref = ctx.highs_value(cmd.instance)
    for row in rows:
        lp, ratio = float(row[6]), float(row[7])
        if not _close(lp, ref, LP_RTOL):
            problems.append(f"lp_value {lp!r} != HiGHS {ref!r}")
        if not _close(ratio, float(row[4]) / lp):
            problems.append(f"ratio {ratio} != mean / lp_value")
    return problems


def check_lp(ctx, cmd, texts) -> list:
    header, rows = _parse(texts.get("out", ""))
    galg = "--galg" in cmd.argv
    want = ["instance", "status", "lp_value"] + (["galg_fluid"] if galg else [])
    if header != want or len(rows) != 1:
        return [f"header {header} != {want} or {len(rows)} rows"]
    row = rows[0]
    problems = []
    if row[1] != "Optimal":
        problems.append(f"status {row[1]}")
    value = float(row[2])
    ref = ctx.highs_value(cmd.instance)
    if not _close(value, ref, LP_RTOL):
        problems.append(f"lp_value {value!r} != HiGHS {ref!r}")
    if cmd.closed_form is not None and not _close(value, cmd.closed_form, LP_RTOL):
        problems.append(f"lp_value {value!r} != closed form {cmd.closed_form!r}")
    if galg:
        guide = ctx.ra.policies.run_galg(cmd.instance)
        if row[3] != fmt(guide.fluid_reward):
            problems.append(f"galg_fluid {row[3]} != {fmt(guide.fluid_reward)}")
        problems += _check_conservation(guide, "galg")
    return problems


def check_certify(ctx, cmd, texts) -> list:
    header, rows = _parse(texts.get("out", ""))
    want = ["instance", "resource", "theta", "opt_lambda_sum", "opt_i", "lhs", "rhs", "se", "status"]
    if header != want:
        return [f"header {header} != {want}"]
    rids = [str(r.id) for r in cmd.instance.resources]
    if [r[1] for r in rows] != rids + ["cond1"]:
        return [f"resource column {[r[1] for r in rows]}"]
    alpha = float(cmd.argv[cmd.argv.index("--alpha") + 1])
    problems = []
    for row in rows:
        if row[8] != "pass":
            problems.append(f"resource {row[1]}: {row[8]}")
        if row[1] == "cond1":
            if not float(row[5]) <= float(row[6]) + 3.0 * float(row[7]) + 1e-9:
                problems.append("cond1 lhs exceeds rhs")
            continue
        theta, lam, opt_i, lhs, rhs = (float(v) for v in row[2:7])
        if not _close(lhs, theta + lam) or not _close(rhs, alpha * opt_i):
            problems.append(f"resource {row[1]}: lhs or rhs inconsistent")
    return problems


def check_randproc(ctx, cmd, texts) -> list:
    header, rows = _parse(texts.get("out", ""))
    if header != ["arrival", "sigma", "p", "eta"]:
        return [f"header {header}"]
    spec = cmd.spec
    n = len(spec.sigma)
    if len(rows) != n + 1 or rows[-1][0] != "reward":
        return [f"{len(rows)} rows, expected {n} and a reward row"]
    problems = []
    eta = np.array([float(r[3]) for r in rows[:-1]])
    if not ((eta >= 0.0) & (eta <= 1.0)).all():
        problems.append("eta outside [0, 1]")
    if any(r[1] != fmt(s) or r[2] != fmt(q) for r, s, q in zip(rows, spec.sigma, spec.p)):
        problems.append("sigma or p columns differ from the spec")
    reward = float(rows[-1][3])
    if not _close(reward, float(np.asarray(spec.p) @ eta)):
        problems.append("reward != sum p * eta")
    mc = ctx.results.get("mc.simulate_process")
    if mc is None:
        problems.append("no simulate_process result to compare with")
    elif not abs(reward - mc.mean) <= 4.0 * mc.se:
        problems.append(f"fluid reward {reward} not within 4 se of Monte-Carlo mean {mc.mean} (se {mc.se})")
    return problems


def check_mc(ctx, cmd, result) -> list:
    n = len(cmd.spec.sigma)
    av = np.asarray(result.availability)
    if result.trials != cmd.trials or not 0.0 <= result.mean <= n or not result.se > 0.0:
        return [f"summary out of range: trials {result.trials}, mean {result.mean}, se {result.se}"]
    if av.shape != (n,) or not ((av >= 0.0) & (av <= 1.0)).all():
        return ["availability out of range"]
    return []


_CHECKS = {"run": check_run, "compare": check_compare, "lp": check_lp,
           "certify": check_certify, "randproc": check_randproc}


def check_command(ctx, cmd, texts: dict, result) -> list:
    """Every problem with one command's outputs (first pass)."""
    problems = []
    try:
        if cmd.kind == "mc":
            problems = check_mc(ctx, cmd, result) if result is not None else ["no result"]
        else:
            if "out" not in texts:
                return ["no output written"]
            problems = _CHECKS[cmd.kind](ctx, cmd, texts)
    except (ValueError, IndexError, KeyError, AssertionError) as exc:
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    if ctx.expected is not None:
        for role, text in texts.items():
            want = ctx.expected.get(f"{cmd.id}:{role}")
            if want != digest(text):
                problems.append(f"{role} digest {digest(text)[:12]} != committed {str(want)[:12]}")
    return problems


def negative_control(ra, workdir: str) -> Ledger:
    """Two small clean operations, then the same two with a perturbed CSV
    mean and a perturbed LP objective. A sound checker records exactly the
    two perturbed operations as failed."""
    from perfbench.workloads import Command

    inst = ra.generators.example_a1(20)
    run = Command(id="run.rba", kind="run", instance=inst, policies=("rba",), trials=3, seed=7,
                  outputs={"out": os.path.join(workdir, "negctl.run.csv")})
    run.argv = ["run", "--gen", "example_a1", "--param", "n", "20", "--policies", "rba",
                "--trials", "3", "--seed", "7", "--out", run.outputs["out"]]
    lp = Command(id="lp.example_a1", kind="lp", instance=inst, closed_form=3 * 20 - 0.25,
                 outputs={"out": os.path.join(workdir, "negctl.lp.csv")})
    lp.argv = ["lp", "--gen", "example_a1", "--param", "n", "20", "--out", lp.outputs["out"]]
    ctx = Context(ra, "negative_control", seed=7)
    ledger = Ledger()
    for cmd in (run, lp):
        rc = ra.cli.main(cmd.argv)
        texts = output_texts(cmd, None)
        ledger.record(cmd.id, ([f"exit {rc}"] if rc else []) + check_command(ctx, cmd, texts, None))
        ledger.record(cmd.id + ".perturbed", check_command(ctx, cmd, perturb(cmd, texts), None))
    return ledger


def perturb(cmd, texts: dict) -> dict:
    """The command's output with its headline number nudged in the last
    printed digit (mean for run, lp_value for lp)."""
    header, rows = _parse(texts["out"])
    col = header.index("mean" if cmd.kind == "run" else "lp_value")
    value = float(rows[0][col])
    rows[0][col] = fmt(value + abs(value) * 1e-6 + 1e-9)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + rows)
    return {**texts, "out": buf.getvalue()}
