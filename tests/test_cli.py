import json

import pytest

from reuse_alloc import cli, model


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_deterministic_output(capsys, tmp_path):
    argv = ["run", "--gen", "example_a1", "--param", "n", "5",
            "--policies", "greedy,rba", "--trials", "50", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0].split(",")
    assert header[:8] == ["instance", "policy", "trials", "seed", "mean", "se", "ci_lo", "ci_hi"]
    assert len(out1.splitlines()) == 3


def test_run_threads_do_not_change_output(capsys):
    base = ["run", "--gen", "example_a1", "--param", "n", "4",
            "--policies", "balance", "--trials", "40", "--seed", "9"]
    _, out1, _ = run_cli(capsys, base + ["--threads", "1"])
    _, out4, _ = run_cli(capsys, base + ["--threads", "4"])
    assert out1 == out4


def test_unknown_policy_exits_2(capsys):
    code, _, err = run_cli(capsys, ["run", "--gen", "example_a1", "--param", "n", "2",
                                    "--policies", "foo", "--trials", "2", "--seed", "1"])
    assert code == 2
    assert "unknown policy" in err


@pytest.mark.parametrize("argv", [
    ["run", "--gen", "example_a1", "--param", "n", "2", "--policies", "greedy", "--trials", "0"],
    ["run", "--gen", "example_a1", "--param", "n", "0", "--policies", "greedy", "--trials", "2"],
    ["run", "--gen", "example_a1", "--param", "n", "2", "--policies", "galg_fast_thresh:1.5", "--trials", "2"],
])
def test_bad_input_gives_one_error_line(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--seed", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("policies,message", [("rba,foo", "unknown policy 'foo'"),
                                               ("galg_fast_thresh:1.5", "thresh eps must be in")])
def test_compare_checks_policies_before_the_lp_solve(capsys, monkeypatch, policies, message):
    from reuse_alloc import benchmarks

    def no_solve(instance):
        raise AssertionError("the LP solve started")

    monkeypatch.setattr(benchmarks, "lp_value", no_solve)
    code, out, err = run_cli(capsys, ["compare", "--gen", "example_a1", "--param", "n", "150",
                                      "--policies", policies, "--trials", "2", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("flag,value", [("--alpha", "nan"), ("--beta", "inf"), ("--alpha", "-inf")])
def test_certify_rejects_a_non_finite_parameter_before_the_lp(capsys, monkeypatch, flag, value):
    from reuse_alloc import benchmarks

    def no_solve(lp):
        raise AssertionError("the LP solve started")

    monkeypatch.setattr(benchmarks, "solve_lp", no_solve)
    params = {"--alpha": "0.5", "--beta": "1.0", flag: value}
    code, out, err = run_cli(capsys, ["certify", "--gen", "upper_triangular", "--param", "n_resources", "2",
                                      "--param", "capacity", "2", "--trials", "2", "--seed", "1",
                                      *[f"{k}={v}" for k, v in params.items()]])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and f"{flag} must be a finite number" in err


def _instance_json():
    return {"mode": "matching",
            "resources": [{"id": 0, "capacity": 2, "reward": 1.0,
                           "usage": {"type": "exponential", "rate": 1.0}}],
            "arrivals": [{"time": 0.0, "demand": {"type": "edges", "resources": [0]}}]}


def _without_reward(obj):
    del obj["resources"][0]["reward"]
    return json.dumps(obj)


def _capacity_x(obj):
    obj["resources"][0]["capacity"] = "x"
    return json.dumps(obj)


@pytest.mark.parametrize("text,message", [
    (_without_reward, "resources[0]: missing field 'reward'"),
    (_capacity_x, "resource 0: capacity must be an integer >= 1"),
    (lambda obj: json.dumps(obj)[:60], "Expecting"),          # a truncated file
])
def test_malformed_instance_json_gives_one_error_line(capsys, tmp_path, text, message):
    path = tmp_path / "instance.json"
    path.write_text(text(_instance_json()))
    code, out, err = run_cli(capsys, ["run", "--instance", str(path), "--policies", "rba",
                                      "--trials", "2", "--seed", "1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def _assortment_json(choice_model):
    return json.dumps({
        "mode": "assortment",
        "resources": [{"id": i, "capacity": 3, "reward": 1.0, "usage": {"type": "deterministic", "d": 1.0}}
                      for i in (0, 1)],
        "arrivals": [{"time": float(t), "demand": {"type": "assortment", "choice_model": 0,
                                                   "bids": {"0": 1, "1": 1}, "feasible": {"type": "all"}}}
                     for t in range(4)],
        "choice_models": [choice_model],
    })


@pytest.mark.parametrize("policy", ["astalg", "rba_assortment"])
@pytest.mark.parametrize("choice_model,message", [
    ({"type": "mnl", "v0": 1.0, "weights": {"0": -2.0, "1": 1.0}},
     "choice model 0: mnl v0 and weights must be finite and nonnegative"),
    ({"type": "table", "n": 2, "phi": {"{0}": {"0": 0.5}, "{1}": {"1": 0.5}, "{0,1}": {"0": 0.8, "1": 0.8}}},
     "choice model 0: choice probabilities of [0, 1] exceed 1"),
])
def test_bad_choice_model_gives_one_error_line(capsys, tmp_path, policy, choice_model, message):
    path = tmp_path / "instance.json"
    path.write_text(_assortment_json(choice_model))
    code, out, err = run_cli(capsys, ["run", "--instance", str(path), "--policies", policy,
                                      "--trials", "2", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid instance: ") and err.count("\n") == 1 and message in err


def test_threads_env_is_not_read(capsys, monkeypatch):
    monkeypatch.setenv("REUSE_ALLOC_THREADS", "two")
    code, out, _ = run_cli(capsys, ["gen", "example_a1", "--param", "n", "2"])
    assert code == 0
    assert len(model.from_json(json.loads(out)).arrivals) == 8


def test_galg_rejected_as_trial_policy(capsys):
    code, _, err = run_cli(capsys, ["run", "--gen", "example_a1", "--param", "n", "2",
                                    "--policies", "galg", "--trials", "2", "--seed", "1"])
    assert code == 2
    assert "benchmark" in err


def test_missing_instance_source_exits_2(capsys):
    code, _, err = run_cli(capsys, ["run", "--policies", "greedy", "--trials", "2", "--seed", "1"])
    assert code == 2


def test_gen_emits_valid_instance(capsys):
    code, out, _ = run_cli(capsys, ["gen", "example_a1", "--param", "n", "3"])
    assert code == 0
    inst = model.from_json(json.loads(out))
    assert model.validate(inst) == []
    assert len(inst.arrivals) == 12


def test_lp_on_deterministic_toy(capsys, tmp_path):
    path = tmp_path / "toy.json"
    inst = {
        "mode": "matching",
        "resources": [{"id": 0, "capacity": 1, "reward": 1.0,
                       "usage": {"type": "deterministic", "d": 0.5}}],
        "arrivals": [{"time": 0.0, "demand": {"type": "edges", "resources": [0]}},
                     {"time": 1.0, "demand": {"type": "edges", "resources": [0]}}],
        "choice_models": [],
    }
    path.write_text(json.dumps(inst))
    code, out, _ = run_cli(capsys, ["lp", "--instance", str(path)])
    assert code == 0
    assert out.splitlines()[1].split(",")[2] == "2"


def test_lp_galg_benchmark_column(capsys):
    code, out, _ = run_cli(capsys, ["lp", "--gen", "upper_triangular",
                                    "--param", "n_resources", "3", "--param", "capacity", "4",
                                    "--galg"])
    assert code == 0
    assert out.splitlines()[0].endswith("galg_fluid")


def test_compare_ratio_column(capsys):
    code, out, _ = run_cli(capsys, ["compare", "--gen", "example_a1", "--param", "n", "4",
                                    "--policies", "greedy,galg", "--trials", "200", "--seed", "5"])
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    for row in rows:
        mean, se, lp, ratio = map(float, row[4:8])
        assert ratio == pytest.approx(mean / lp, rel=1e-9)
        assert ratio <= 1.0 + 3.0 * se / lp + 1e-9
    assert rows[1][1] == "galg" and float(rows[1][5]) == 0.0


def test_randproc_command(capsys, tmp_path):
    spec = {"distribution": {"type": "deterministic", "d": 1.0},
            "sigma": [0.0, 0.5, 1.5], "p": [1.0, 1.0, 1.0]}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run_cli(capsys, ["randproc", str(path)])
    assert code == 0
    lines = out.splitlines()
    etas = [line.split(",")[3] for line in lines[1:4]]
    assert etas == ["1", "0", "1"]
    assert lines[4].split(",")[3] == "2"


@pytest.mark.parametrize("distribution,sigma,message", [
    ({"type": "exponential", "rate": 1.0}, [float("nan")], "arrival times must be finite"),
    ({"type": "exponential", "rate": -1}, [0.0, 1.0], "exponential rate must be > 0"),
    ({"type": "exponential", "rate": float("inf")}, [0.0, 1.0], "rate must be a finite number"),
])
def test_randproc_rejects_a_bad_spec(capsys, tmp_path, distribution, sigma, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"distribution": distribution, "sigma": sigma, "p": [0.5] * len(sigma)}))
    code, out, err = run_cli(capsys, ["randproc", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_trace_dump_schema(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, ["run", "--gen", "example_a1", "--param", "n", "2",
                                  "--policies", "greedy", "--trials", "2", "--seed", "1",
                                  "--trace", str(trace)])
    assert code == 0
    lines = trace.read_text().splitlines()
    assert lines[0] == "trial,arrival,time,decision,resource,units,reward"
    assert len(lines) == 1 + 2 * 8  # two trials, eight arrivals each


def test_trace_is_recorded_in_the_summarized_pass(capsys, tmp_path, monkeypatch):
    from reuse_alloc import engine

    calls = []
    simulate = engine.simulate
    monkeypatch.setattr(engine, "simulate", lambda *a, **k: calls.append(a[3]) or simulate(*a, **k))
    argv = ["run", "--gen", "example_a1", "--param", "n", "3", "--policies", "rba",
            "--trials", "4", "--seed", "2"]
    _, plain, _ = run_cli(capsys, argv)
    calls.clear()
    trace = tmp_path / "trace.csv"
    code, traced, _ = run_cli(capsys, argv + ["--trace", str(trace)])
    assert code == 0
    assert traced == plain
    assert calls == [0, 1, 2, 3]
    rows = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    means = plain.splitlines()[1].split(",")
    per_trial = [sum(float(r[6]) for r in rows if r[0] == str(k)) for k in range(4)]
    assert float(means[4]) == pytest.approx(sum(per_trial) / 4)


def test_trace_requires_single_policy(capsys, tmp_path):
    code, _, err = run_cli(capsys, ["run", "--gen", "example_a1", "--param", "n", "2",
                                    "--policies", "greedy,rba", "--trials", "2", "--seed", "1",
                                    "--trace", str(tmp_path / "t.csv")])
    assert code == 2
    assert "exactly one policy" in err


def test_certify_command_runs(capsys):
    code, out, _ = run_cli(capsys, [
        "certify", "--gen", "upper_triangular",
        "--param", "n_resources", "3", "--param", "capacity", "10",
        "--alg", "galg", "--trials", "50", "--seed", "2",
        "--alpha", "0.0", "--beta", "10.0"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("instance,resource,theta")
    assert all(line.endswith("pass") for line in lines[1:])


NO_EDGE = {"mode": "matching", "choice_models": [],
           "resources": [{"id": 0, "capacity": 1, "reward": 1.0,
                          "usage": {"type": "two_point_inf", "d": 1.0, "p": 0.5}}],
           "arrivals": [{"time": 0.0, "demand": {"type": "edges", "resources": []}}]}


@pytest.mark.parametrize("argv, want", [
    (["lp"], ["instance,status,lp_value", "no_edge.json,Optimal,0"]),   # the CSV writes 0.0 as 0
    (["compare", "--policies", "greedy,rba,galg", "--trials", "3", "--seed", "1"],
     ["instance,policy,trials,seed,mean,se,lp_value,ratio", "no_edge.json,greedy,3,1,0,0,0,nan",
      "no_edge.json,rba,3,1,0,0,0,nan", "no_edge.json,galg,3,1,0,0,0,nan"]),
    (["certify", "--alg", "rba", "--trials", "3", "--seed", "1", "--alpha", "0.5", "--beta", "1"],
     ["instance,resource,theta,opt_lambda_sum,opt_i,lhs,rhs,se,status", "no_edge.json,0,0,0,0,0,0,0,pass",
      "no_edge.json,cond1,0,,,0,0,0,pass"]),
])
def test_lp_commands_on_an_instance_without_an_edge(capsys, tmp_path, monkeypatch, argv, want):
    (tmp_path / "no_edge.json").write_text(json.dumps(NO_EDGE))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv + ["--instance", "no_edge.json"])
    assert (code, err) == (0, "")
    assert out.splitlines() == want


def test_compare_rejects_assortment_mode(capsys):
    code, _, err = run_cli(capsys, ["compare", "--gen", "mnl_counterexample",
                                    "--policies", "rba_assortment", "--trials", "5", "--seed", "1"])
    assert code == 2
    assert "matching and budgeted" in err


BUDGETED = {
    "mode": "budgeted",
    "resources": [{"id": 0, "capacity": 6, "reward": 1.0, "usage": {"type": "two_point_inf", "d": 1.0, "p": 0.5}}],
    "arrivals": [{"time": float(t), "demand": {"type": "bids", "bids": {"0": 2}}} for t in range(5)],
    "choice_models": [],
}


@pytest.mark.parametrize("argv,message", [
    (["run", "--gen", "example_a1", "--param", "n", "3", "--policies", "rba_assortment"],
     "policy 'rba_assortment' runs on assortment instances, not matching ones"),
    (["run", "--instance", "budgeted.json", "--policies", "rba"], "policy 'rba' runs on matching instances"),
    (["run", "--instance", "budgeted.json", "--policies", "rba_budgeted,salg"], "policy 'salg' runs on matching"),
    (["compare", "--instance", "budgeted.json", "--policies", "rba_budgeted,galg"],
     "policy 'galg' runs on matching instances, not budgeted ones"),
    (["lp", "--instance", "budgeted.json", "--galg"], "galg runs on matching instances, not budgeted ones"),
    (["certify", "--instance", "budgeted.json", "--alpha", "0.5", "--beta", "1"],
     "certify runs on matching instances, not budgeted ones"),
    (["certify", "--gen", "mnl_counterexample", "--alpha", "0.5", "--beta", "1"],
     "certify runs on matching instances, not assortment ones"),
])
def test_mode_mismatch_is_one_error_line_before_any_work(capsys, tmp_path, monkeypatch, argv, message):
    from reuse_alloc import benchmarks, engine

    def no_work(*args, **kwargs):
        raise AssertionError("an LP solve or a trial started")

    monkeypatch.setattr(benchmarks, "solve_lp", no_work)
    monkeypatch.setattr(engine, "run_trials", no_work)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "budgeted.json").write_text(json.dumps(BUDGETED))
    seed = [] if argv[0] == "lp" else ["--seed", "1"]
    code, out, err = run_cli(capsys, argv + seed)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_budgeted_instance_through_cli(capsys, tmp_path):
    path = tmp_path / "budgeted.json"
    path.write_text(json.dumps(BUDGETED))
    code, out, _ = run_cli(capsys, ["compare", "--instance", str(path),
                                    "--policies", "rba_budgeted", "--trials", "200", "--seed", "3"])
    assert code == 0
    mean, se, lp, ratio = map(float, out.splitlines()[1].split(",")[4:8])
    assert lp > 0 and ratio <= 1.0 + 3 * se / lp + 1e-9


def test_compare_ratios_on_burst_spread_instance(capsys):
    code, out, _ = run_cli(capsys, ["compare", "--gen", "example_a1", "--param", "n", "200",
                                    "--policies", "balance,rba", "--trials", "200", "--seed", "11"])
    assert code == 0
    rows = {line.split(",")[1]: line.split(",") for line in out.splitlines()[1:]}
    ratio_balance = float(rows["balance"][7])
    ratio_rba = float(rows["rba"][7])
    assert ratio_balance == pytest.approx(2.5 / 3.0, abs=0.02)
    assert ratio_rba >= 0.86
