"""Negative controls for the benchmark's output checks.

    python3 -m pytest perfbench
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import reuse_alloc  # noqa: E402
import reuse_alloc.cli  # noqa: E402,F401

from perfbench import checks, run, workloads  # noqa: E402


def test_perturbed_csv_and_lp_objective_count_as_failed(tmp_path):
    ledger = checks.negative_control(reuse_alloc, str(tmp_path))
    assert ledger.attempted == 4
    assert ledger.failed == 2
    failed = dict(ledger.problems)
    assert list(failed) == ["run.rba.perturbed", "lp.example_a1.perturbed"]
    assert any("re-run" in p for p in failed["run.rba.perturbed"])
    lp_problems = " ".join(failed["lp.example_a1.perturbed"])
    assert "HiGHS" in lp_problems and "closed form" in lp_problems


def test_pass_that_differs_from_the_first_counts_as_failed(tmp_path):
    inst = reuse_alloc.generators.example_a1(10)
    cmd = workloads.Command(id="run.greedy", kind="run", instance=inst, policies=("greedy",),
                            trials=2, seed=3, outputs={"out": str(tmp_path / "out.csv")})
    cmd.argv = ["run", "--gen", "example_a1", "--param", "n", "10", "--policies", "greedy",
                "--trials", "2", "--seed", "3", "--out", cmd.outputs["out"]]
    wl = workloads.Workload(name="t", seed=3, instances={}, commands=[cmd])
    passes = [run.run_pass(reuse_alloc, checks, wl.commands) for _ in range(3)]
    clean = run.check_passes(checks, wl, passes, checks.Context(reuse_alloc, "t", 3))
    assert (clean.attempted, clean.failed) == (3, 0)
    passes[2].texts[cmd.id]["out"] += "\n"
    dirty = run.check_passes(checks, wl, passes, checks.Context(reuse_alloc, "t", 3))
    assert (dirty.attempted, dirty.failed) == (3, 1)
    assert dirty.problems[0][0] == "pass2:run.greedy"


def test_command_that_exits_nonzero_counts_as_failed(tmp_path):
    cmd = workloads.Command(id="lp.bad", kind="lp", outputs={"out": str(tmp_path / "lp.csv")},
                            instance=reuse_alloc.generators.example_a1(3))
    cmd.argv = ["lp", "--gen", "no_such_generator", "--out", cmd.outputs["out"]]
    wl = workloads.Workload(name="t", seed=1, instances={}, commands=[cmd])
    passes = [run.run_pass(reuse_alloc, checks, wl.commands)]
    ledger = run.check_passes(checks, wl, passes, checks.Context(reuse_alloc, "t", 1))
    assert (ledger.attempted, ledger.failed) == (1, 1)
