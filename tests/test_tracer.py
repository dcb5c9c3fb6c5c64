"""The benchmark's tracer patches names inside the package (policy classes'
`decide`, `ResourceFluid.advance`, `benchmarks.simulate`,
`rng.uniform_array`, ...); this checks that it still installs, that the
engine keeps its batched rules under it, and that it restores every name."""

import importlib.util
import os

import reuse_alloc
import reuse_alloc.assortment  # noqa: F401  (the tracer reads each module as an attribute)
import reuse_alloc.cli
import reuse_alloc.fluid  # noqa: F401
import reuse_alloc.simplex  # noqa: F401
from reuse_alloc import benchmarks, engine, policies
from reuse_alloc.generators import example_a1

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def test_tracer_installs_runs_and_restores(capsys):
    tracer = load_tracer().Tracer()
    inst = example_a1(12)
    lp_rounding = benchmarks.LpRoundingPolicy(inst, benchmarks.solve_lp_value(inst))
    tracer.install(reuse_alloc)
    patches = list(tracer._patches)
    try:
        assert patches and all(current(owner, attr) is not orig for owner, attr, orig in patches)
        assert engine.batched(inst, policies.SalgPolicy())
        assert engine.batched(inst, lp_rounding)
        gen = ["--gen", "example_a1", "--param", "n", "12", "--seed", "3"]
        assert reuse_alloc.cli.main(["certify", *gen, "--trials", "8", "--alpha", "0.5", "--beta", "1.2"]) == 0
        trials = str(engine.BATCH_MIN_TRIALS)
        assert reuse_alloc.cli.main(["run", *gen, "--policies", "salg,rba", "--trials", trials]) == 0
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert "cond1" in out and "salg" in out
    assert all(current(owner, attr) is orig for owner, attr, orig in patches)
    frames, counts, _ = tracer.merged()
    assert {"engine.run_trials", "benchmarks.certificate_check"} <= {name for name, _ in frames}
    assert counts["pivots"] > 0
    # BATCH_MIN_TRIALS trials of salg and certify's lp_rounding run in lockstep: no scalar decide call.
    assert counts["decide_calls.salg"] == counts["decide_calls.lp_rounding"] == 0
