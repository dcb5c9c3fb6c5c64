"""Benchmark of the reuse-alloc CLI and library on three named workloads.

    python3 perfbench/run.py --workload burst_spread --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Each workload drives `reuse_alloc.cli.main`
in-process, one command after another (a closed loop, one caller). Passes
over the workload's commands repeat until `--seconds` is used up; timings
are medians over the passes. Every output is checked after the timed passes
(see checks.py); an operation that raises or fails a check counts as failed.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs untraced passes
for half the time, then one traced pass (tracer.py) and the single-draw
microbenchmarks, and prints the per-layer metrics and the tracing overhead.
`--workload all` runs every workload in its own process, then the checker's
negative control. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
WORK_DIR = os.path.join(HERE, "_work")
SETUP_REPS = 3                # before the first pass; one more follows every pass

# End-to-end metrics gated by BENCHMARK.json; every workload reports them.
GATED = (("setup_s", "s"), ("wall_s", "s"), ("sim_steps_per_s", "steps/s"), ("peak_rss_mb", "MB"))

# Command kinds whose wall time is reported on its own.
PHASES = (("lp_s", "lp"), ("compare_s", "compare"), ("certify_s", "certify"),
          ("randproc_s", "randproc"))


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-digests", action="store_true",
                    help="record the first pass's output digests (default seed only)")
    return ap.parse_args(argv)


def _package_modules() -> dict:
    return {m: mod for m, mod in sys.modules.items() if m == "reuse_alloc" or m.startswith("reuse_alloc.")}


def set_up(workloads, name: str, seed: int, workdir: str):
    """One timed set-up: import reuse_alloc afresh, make the instances, write
    and validate their JSON. Returns the package, instances, files and time."""
    for m in _package_modules():
        del sys.modules[m]
    t0 = time.perf_counter()
    ra = importlib.import_module("reuse_alloc")
    importlib.import_module("reuse_alloc.cli")
    instances = workloads.make_instances(ra, name, seed)
    files = workloads.write_and_validate(ra, instances, workdir)
    return ra, instances, files, time.perf_counter() - t0


def set_up_again(workloads, name: str, seed: int, workdir: str) -> float:
    """Time one more set-up, then put back the modules the passes use, so
    that every layer keeps calling the package the passes started with."""
    working = _package_modules()
    try:
        return set_up(workloads, name, seed, workdir)[3]
    finally:
        for m in _package_modules():
            del sys.modules[m]
        sys.modules.update(working)


class Pass:
    def __init__(self):
        self.wall = 0.0
        self.times = {}             # command id -> seconds
        self.errors = {}            # command id -> problem
        self.results = {}           # command id -> library result
        self.texts = {}             # command id -> role -> text


def run_pass(ra, checks, commands, tracer=None) -> Pass:
    """One closed-loop pass; outputs are read back after the timed loop."""
    p = Pass()
    t_pass = time.perf_counter()
    for cmd in commands:
        if tracer is not None:
            tracer.op = cmd.id
        t0 = time.perf_counter()
        try:
            if cmd.kind == "mc":
                p.results[cmd.id] = ra.randproc.simulate_process(cmd.spec, cmd.seed, cmd.trials)
            else:
                rc = ra.cli.main(cmd.argv)
                if rc != 0:
                    p.errors[cmd.id] = f"exit code {rc}"
        except Exception as exc:  # a failed operation must not stop the run
            traceback.print_exc(file=sys.stderr)
            p.errors[cmd.id] = f"raised {type(exc).__name__}: {exc}"
        p.times[cmd.id] = time.perf_counter() - t0
    p.wall = time.perf_counter() - t_pass
    for cmd in commands:
        p.texts[cmd.id] = checks.output_texts(cmd, p.results.get(cmd.id))
        for path in cmd.outputs.values():
            if os.path.exists(path):
                os.remove(path)
    return p


def measure(ra, checks, commands, budget: float, between=None) -> list:
    """Passes until the next one would end after `budget` seconds (at least
    one); `between()` runs after each pass."""
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(ra, checks, commands))
        if between is not None:
            between()
        if time.perf_counter() - t0 + passes[-1].wall > budget:
            return passes


def check_passes(checks, wl, passes, ctx):
    """Check the first pass's outputs, then require every pass to reproduce
    them. Returns the ledger."""
    first = passes[0]
    ctx.texts, ctx.results = first.texts, first.results
    problems = {cmd.id: checks.check_command(ctx, cmd, first.texts[cmd.id], first.results.get(cmd.id))
                for cmd in wl.commands}
    ledger = checks.Ledger()
    for i, p in enumerate(passes):
        for cmd in wl.commands:
            found = list(problems[cmd.id])
            if cmd.id in p.errors:
                found.append(p.errors[cmd.id])
            if p.texts[cmd.id] != first.texts[cmd.id]:
                found.append("output differs from the first pass")
            ledger.record(f"pass{i}:{cmd.id}", found)
    return ledger


def end_to_end(wl, passes, setup_times, rss_mb) -> dict:
    """name -> (value, unit, samples) for every end-to-end metric that applies."""
    n = len(passes)
    med = statistics.median
    out = {"setup_s": (med(setup_times), "s", len(setup_times)),
           "wall_s": (med(p.wall for p in passes), "s", n)}

    def steps_per_s(cmds):
        return med(sum(c.steps for c in cmds) / sum(p.times[c.id] for c in cmds) for p in passes)

    sims = [c for c in wl.commands if c.steps]
    out["sim_steps_per_s"] = (steps_per_s(sims), "steps/s", n)
    modes = sorted({c.mode for c in sims})
    if len(modes) > 1:
        for mode in modes:
            out["sim_steps_per_s." + mode] = (steps_per_s([c for c in sims if c.mode == mode]), "steps/s", n)
    for metric, kind in PHASES:
        cmds = [c for c in wl.commands if c.kind == kind]
        if cmds:
            out[metric] = (med(sum(p.times[c.id] for c in cmds) for p in passes), "s", n)
    out["peak_rss_mb"] = (rss_mb, "MB", 1)
    return out


def manifest(ra, wl) -> dict:
    """What was measured, on what."""
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")   # scipy itself loads only for checks
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    instances = {k: v for k, v in wl.instances.items() if not isinstance(v, dict)}
    specs = {k: v for k, v in wl.instances.items() if isinstance(v, dict)}
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "reuse_alloc")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + b"\0" + fh.read())
    return {
        "workload": wl.name,
        "seed": wl.seed,
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "battery_hash": ra.generators.battery_hash(list(instances.values())),
        "instances": {k: ra.generators.battery_hash([v]) for k, v in instances.items()},
        "spec_hash": {k: hashlib.sha256(json.dumps(v).encode()).hexdigest()[:16] for k, v in specs.items()},
    }


def _print_metrics(title, metrics):
    print(title)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value!r} {unit} (n={n})")


def run_workload(args) -> int:
    import numpy  # noqa: F401  (a dependency; loaded before set-up is timed)

    from perfbench import checks, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        # Set-up repeats before the passes and between them, so that its
        # median samples the whole run, as the passes do.
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPS):
            ra, instances, files, t = set_up(workloads, args.workload, args.seed, workdir)
            setup_times.append(t)
        wl = workloads.build(ra, args.workload, args.seed, workdir, instances, files)
        man = manifest(ra, wl)
        print("manifest " + json.dumps(man, sort_keys=True))
        budget = args.seconds / 2 if args.trace else args.seconds
        passes = measure(ra, checks, wl.commands, budget, None if args.trace else lambda: setup_times.append(
            set_up_again(workloads, args.workload, args.seed, workdir)))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = end_to_end(wl, passes, setup_times, rss_mb)
        layer = None
        if args.trace:
            from perfbench import tracer as tracing

            tr = tracing.Tracer()
            tr.install(ra)
            try:
                traced = run_pass(ra, checks, wl.commands, tr)
            finally:
                tr.uninstall()
            layer = tr.layer_metrics(wl.commands)
            layer.update(tracing.micro(ra))
            untraced = e2e["wall_s"][0]
            layer["trace.wall_s"] = traced.wall
            layer["trace.overhead_s"] = traced.wall - untraced
            layer["trace.overhead_frac"] = traced.wall / untraced - 1.0
            passes.append(traced)
            os.makedirs(OUT_DIR, exist_ok=True)
            tr.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
        ctx = checks.Context(ra, args.workload, args.seed)
        if args.write_digests:
            ctx.expected = None
        ledger = check_passes(checks, wl, passes, ctx)
        if layer is not None:
            err = layer["fluid.conservation_error"]
            ledger.record("traced guides", [] if err <= checks.CONSERVATION_LIMIT else
                          [f"guide conservation error {err:.3g} > {checks.CONSERVATION_LIMIT}"])
        if args.write_digests:
            _write_digests(checks, args, wl, passes[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = ledger.failed / ledger.attempted
    shown = dict(e2e)
    shown["failed_frac"] = (failed_frac, "ratio", ledger.attempted)
    _print_metrics(f"{args.workload} seed={args.seed} passes={len(passes)}"
                   f"{' (last one traced)' if args.trace else ''}", shown)
    print(f"  pass walls: {[round(p.wall, 4) for p in passes]}; set-up: {[round(t, 4) for t in setup_times]}")
    for op, found in ledger.problems:
        print(f"  FAILED {op}: {'; '.join(found)}")
    if args.trace:
        print("per-layer (traced pass)")
        for name, value in layer.items():
            print(f"  {name} = {value!r}")
        metrics = {name: {"value": float(value), "unit": _layer_unit(name)} for name, value in layer.items()}
    else:
        metrics = {name: {"value": float(e2e[name][0]), "unit": unit} for name, unit in GATED}
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "_ns" in name:
        return "ns"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio", "_per_step")):
        return "ratio"
    if name.endswith("_error"):
        return "units"              # resource units of fluid mass
    return "count"


def _write_digests(checks, args, wl, first):
    if args.seed != checks.DEFAULT_SEED:
        raise SystemExit(f"digests are recorded at the default seed {checks.DEFAULT_SEED} only")
    table = checks.load_digests()
    table[wl.name] = {f"{cid}:{role}": checks.digest(text)
                      for cid, texts in first.texts.items() for role, text in sorted(texts.items())}
    with open(checks.DIGESTS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_all(args) -> int:
    """Every workload in its own process, then the negative control."""
    import subprocess

    from perfbench import checks, workloads

    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    workdir = os.path.join(WORK_DIR, f"negative-control-{os.getpid()}")
    os.makedirs(workdir)
    try:
        ra = importlib.import_module("reuse_alloc")
        importlib.import_module("reuse_alloc.cli")
        neg = checks.negative_control(ra, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    neg_ok = neg.attempted == 4 and [op for op, _ in neg.problems] == [
        "run.rba.perturbed", "lp.example_a1.perturbed"]
    print(f"negative control: {neg.failed} of {neg.attempted} operations counted as failed "
          f"({', '.join(op for op, _ in neg.problems)}); {'as expected' if neg_ok else 'UNEXPECTED'}")
    print(json.dumps({
        "correct": neg_ok and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "reuse_alloc")):
        print(f"error: no reuse_alloc package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
