"""Command-line front end.

Commands: run (trial batteries), compare (adds the LP value and the empirical
ratio), lp (LP value, optionally the y vector or the fluid-guide value),
certify (certificate report), gen (instance JSON), randproc (fluid
availability of a single-unit process spec).

lp, compare and certify read one LP solve, `benchmarks.solve_lp_value`: the
LP value, and the y that `lp --y-csv` prints and LP rounding samples (an
optimum, not always a vertex: a class of arrivals splits its y evenly).

Output is CSV with a header row, 12 significant digits, fully determined by
the flags and the mandatory --seed; there is no wall-clock seeding anywhere.
Malformed input, and a path that cannot be read or written, give one line
on stderr that starts with "error:", and exit status 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import benchmarks, distributions, generators, model, policies, randproc

_GENERATORS = {
    "example_a1": generators.example_a1,
    "example_a2": generators.example_a2,
    "omniscient_gap": generators.omniscient_gap,
    "upper_triangular": generators.upper_triangular,
    "mnl_counterexample": generators.mnl_counterexample,
}


class CliError(Exception):
    pass


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _write(text: str, path=None):
    """`text` into the file `path`, or to stdout when there is none."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(rows, header, out_path=None):
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    _write("\n".join(lines) + "\n", out_path)


def _gen_kwargs(pairs):
    out = {}
    for key, raw in pairs:
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def _generate(name: str, pairs):
    maker = _GENERATORS.get(name)
    if maker is None:
        raise CliError(f"unknown generator {name!r}")
    try:
        return maker(**_gen_kwargs(pairs))
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad generator parameters: {exc}") from None


def _read_json(path: str, parse):
    """parse(the JSON value in `path`); a file that is not JSON, or does not
    fit the schema, is one CliError."""
    with open(path) as fh:
        try:
            return parse(json.load(fh))
        except KeyError as exc:
            raise CliError(f"{path}: missing field {exc.args[0]!r}") from None
        except (TypeError, AttributeError, ValueError) as exc:   # json.JSONDecodeError is a ValueError
            raise CliError(f"{path}: {exc}") from None


def _checked(inst):
    """inst, or one CliError naming every `model.validate` message."""
    bad = model.validate(inst)
    if bad:
        raise CliError("invalid instance: " + "; ".join(bad))
    return inst


def _load_instance(args) -> tuple:
    if getattr(args, "instance", None):
        return _checked(_read_json(args.instance, model.from_json)), os.path.basename(args.instance)
    if getattr(args, "gen", None):
        return _checked(_generate(args.gen, args.param)), args.gen
    raise CliError("provide --instance FILE or --gen NAME")


def _policy(name: str):
    try:
        return policies.make_policy(name)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _check_mode(inst, name: str, mode: str):
    if mode != inst.mode:
        raise CliError(f"{name} runs on {mode} instances, not {inst.mode} ones")


def _policies(args, inst, galg: bool = False) -> list:
    """(name, policy) for each name in --policies, each checked against the
    instance's mode before any trial or LP solve; `galg`, the fluid guide
    value (policy None), only where allowed."""
    out = []
    for name in (p.strip() for p in args.policies.split(",")):
        if name == "galg" and not galg:
            raise CliError("galg is a benchmark value; use `compare` with policy galg")
        pol = None if name == "galg" else _policy(name)
        _check_mode(inst, f"policy {name!r}", model.MATCHING if pol is None else pol.mode)
        out.append((name, pol))
    return out


def cmd_run(args) -> int:
    from .engine import run_trials

    inst, name = _load_instance(args)
    named = _policies(args, inst)
    if args.trace and len(named) != 1:
        raise CliError("--trace needs exactly one policy")
    rows = []
    rids = [r.id for r in inst.resources]
    traces = [] if args.trace else None
    for pname, pol in named:
        s = run_trials(inst, pol, args.trials, args.seed,
                       shared_durations=args.shared_durations, traces=traces)
        rows.append([name, pname, args.trials, args.seed, s.mean, s.se, s.ci95[0], s.ci95[1]]
                    + [s.per_resource_mean[r] for r in rids])
    header = (["instance", "policy", "trials", "seed", "mean", "se", "ci_lo", "ci_hi"]
              + [f"mean_r{r}" for r in rids])
    _emit(rows, header, args.out)
    if args.trace:      # one format per row, a time per arrival: the bytes _emit would write
        times = [_fmt(a.time) for a in inst.arrivals]       # a record's time is its arrival's
        lines = [f"{tr.trial},{rec.arrival},{times[rec.arrival]},{rec.decision},"
                 f"{'' if rec.resource is None else rec.resource},{';'.join(map(str, rec.units))},"
                 f"{_fmt(rec.reward)}\n" for tr in traces for rec in tr.records]
        _write("trial,arrival,time,decision,resource,units,reward\n" + "".join(lines), args.trace)
    return 0


def cmd_compare(args) -> int:
    from .engine import run_trials

    inst, name = _load_instance(args)
    named = _policies(args, inst, galg=True)
    lp = benchmarks.solve_lp_value(inst).objective
    # galg's value is the exact guide's, which an exact salg builds for its trials too: build it once.
    salg = next((pol for _, pol in named if isinstance(pol, policies.SalgPolicy) and pol.variant == "exact"), None)
    rows = []
    for pname, pol in named:
        if pol is None:
            if salg is None:
                guide = policies.run_galg(inst)
            else:
                salg.prepare(inst)
                guide = salg.guide
            mean, se = guide.fluid_reward, 0.0
        else:
            s = run_trials(inst, pol, args.trials, args.seed)
            mean, se = s.mean, s.se
        rows.append([name, pname, args.trials, args.seed, mean, se, lp, mean / lp if lp else float("nan")])
    _emit(rows, ["instance", "policy", "trials", "seed", "mean", "se", "lp_value", "ratio"], args.out)
    return 0


def cmd_lp(args) -> int:
    if args.y_csv and args.galg:
        raise CliError("--galg adds a column to the lp_value row, which --y-csv does not print")
    inst, name = _load_instance(args)
    if args.galg:
        _check_mode(inst, "galg", model.MATCHING)
    res = benchmarks.solve_lp_value(inst)
    if args.y_csv:
        rows = [[t, rid, y] for (t, rid, _), y in zip(inst.edges(), res.x.tolist()) if y > 1e-12]
        _emit(rows, ["arrival", "resource", "y"], args.out)
        return 0
    rows = [[name, res.status, res.objective]]
    header = ["instance", "status", "lp_value"]
    if args.galg:
        rows[0].append(policies.run_galg(inst).fluid_reward)
        header.append("galg_fluid")
    _emit(rows, header, args.out)
    return 0


def cmd_certify(args) -> int:
    for flag, value in (("--alpha", args.alpha), ("--beta", args.beta)):
        if not math.isfinite(value):
            raise CliError(f"{flag} must be a finite number, got {value}")
    inst, name = _load_instance(args)
    _check_mode(inst, "certify", model.MATCHING)
    opt = benchmarks.LpRoundingPolicy(inst, benchmarks.solve_lp_value(inst))
    report = benchmarks.certificate_check(inst, args.alg, opt, args.trials,
                                          args.alpha, args.beta, master_seed=args.seed)
    rows = [[name, r.resource, r.theta, r.opt_lambda_sum, r.opt_i, r.lhs, r.rhs, r.se,
             "pass" if r.passed else "fail"] for r in report.rows]
    rows.append([name, "cond1", report.cond1_lhs, "", "", report.cond1_lhs, report.cond1_rhs,
                 report.cond1_se, "pass" if report.cond1_passed else "fail"])
    _emit(rows, ["instance", "resource", "theta", "opt_lambda_sum", "opt_i", "lhs", "rhs", "se", "status"],
          args.out)
    return 0


def cmd_gen(args) -> int:
    inst = _checked(_generate(args.name, args.param))
    _write(json.dumps(model.to_json(inst), indent=None) + "\n", args.out)
    return 0


def _process_spec(obj) -> randproc.ProcessSpec:
    dist = distributions.from_json(obj["distribution"])
    bad = distributions.validate(dist)
    if bad:
        raise ValueError("invalid distribution: " + "; ".join(bad))
    return randproc.ProcessSpec(dist=dist, sigma=tuple(obj["sigma"]), p=tuple(obj["p"]))


def cmd_randproc(args) -> int:
    spec = _read_json(args.spec, _process_spec)
    eta, reward = randproc.fluid_process(spec)
    rows = [[t, spec.sigma[t], spec.p[t], float(eta[t])] for t in range(len(eta))]
    rows.append(["reward", "", "", reward])
    _emit(rows, ["arrival", "sigma", "p", "eta"], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="reuse-alloc",
                                 description="online allocation of reusable resources: trials and benchmarks")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_threads_opt(p):
        p.add_argument("--threads", type=int, default=1, help="accepted and ignored: trials run serially")

    def add_instance_opts(p):
        p.add_argument("--instance", help="instance JSON file")
        p.add_argument("--gen", help="built-in generator name")
        p.add_argument("--param", nargs=2, action="append", default=[],
                       metavar=("KEY", "VALUE"), help="generator parameter, repeatable")
        p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("run", help="simulate policies, print summary CSV")
    add_instance_opts(p)
    p.add_argument("--policies", required=True, help="comma-separated policy names")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    add_threads_opt(p)
    p.add_argument("--trace", help="dump per-arrival trace CSV here")
    p.add_argument("--shared-durations", action="store_true",
                   help="multi-unit allocations share one duration draw")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="policies vs the LP bound")
    add_instance_opts(p)
    p.add_argument("--policies", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    add_threads_opt(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("lp", help="solve the fluid LP bound")
    add_instance_opts(p)
    p.add_argument("--y-csv", action="store_true", help="print nonzero y values")
    p.add_argument("--galg", action="store_true", help="add the fluid-guide value column")
    p.set_defaults(func=cmd_lp)

    p = sub.add_parser("certify", help="empirical certificate report")
    add_instance_opts(p)
    p.add_argument("--alg", default="galg", choices=["galg", "rba", "galg_swapped"])
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("gen", help="write a generated instance as JSON")
    p.add_argument("name")
    p.add_argument("--param", nargs=2, action="append", default=[], metavar=("KEY", "VALUE"))
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("randproc", help="fluid availability of a process spec")
    p.add_argument("spec", help="JSON file with distribution, sigma, p")
    p.add_argument("--out")
    p.set_defaults(func=cmd_randproc)
    return ap


_parser = functools.cache(build_parser)    # one per process: parse_args keeps no state between calls


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "trials", 1) < 1:
            raise CliError("--trials must be >= 1")
        return args.func(args)
    except (CliError, benchmarks.UnsupportedMode, model.NoEdges, model.TooLarge, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except benchmarks.LpError as exc:     # a valid input whose LP solve failed its check
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
