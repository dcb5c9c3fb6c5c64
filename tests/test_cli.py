import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import fresh_objects, shared_objects

from reuse_alloc import cli, engine, model, policies
from reuse_alloc.assortment import MNL, AstgalgGuide
from reuse_alloc.distributions import Deterministic, Exponential, NonReusable, TwoPointInf


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


def _big_id(obj):
    obj["resources"][0]["id"] = 2**63 + 5
    obj["arrivals"][0]["demand"]["resources"] = [2**63 + 5]
    return json.dumps(obj)


def _big_capacity(obj):
    obj["resources"][0]["capacity"] = 2**63
    return json.dumps(obj)


def _big_bid(obj):
    obj["mode"] = "budgeted"
    obj["arrivals"][0]["demand"] = {"type": "bids", "bids": {"0": 2**63}}
    return json.dumps(obj)


@pytest.mark.parametrize("text,argv,message", [
    (_big_id, ["run", "--policies", "greedy", "--trials", str(engine.BATCH_MIN_TRIALS), "--seed", "1"],
     "resource 9223372036854775813: id must lie in [-2^63, 2^63)"),
    (_big_id, ["certify", "--trials", "4", "--seed", "1", "--alpha", "0.5", "--beta", "1"], "id must lie in"),
    (_big_bid, ["lp"], "arrival 0: bid for resource 0 must be below 2^63"),
    (_big_bid, ["compare", "--policies", "rba_budgeted", "--trials", "2", "--seed", "1"], "below 2^63"),
    (_big_bid, ["run", "--policies", "rba_budgeted", "--trials", str(engine.BATCH_MIN_TRIALS), "--seed", "1"],
     "below 2^63"),
], ids=["id_run", "id_certify", "bid_lp", "bid_compare", "bid_run"])
def test_an_id_or_bid_beyond_int64_is_one_error_line(capsys, tmp_path, text, argv, message):
    # The engine's batched path, certify and the LP hold ids and bids in int64 arrays.
    path = tmp_path / "instance.json"
    path.write_text(text(_instance_json()))
    code, out, err = run_cli(capsys, argv + ["--instance", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid instance: ") and err.count("\n") == 1 and message in err


def _overflowing_score(obj):
    obj["mode"] = "budgeted"
    obj["resources"][0]["reward"] = 1e300
    obj["arrivals"][0]["demand"] = {"type": "bids", "bids": {"0": 2**62}}
    return json.dumps(obj)


@pytest.mark.parametrize("argv", [["lp"], ["compare", "--policies", "rba_budgeted", "--trials", "2", "--seed", "1"],
                                  ["run", "--policies", "rba_budgeted", "--trials", "2", "--seed", "1"]],
                         ids=["lp", "compare", "run"])
def test_a_reward_times_bid_beyond_a_float_is_one_error_line(capsys, tmp_path, monkeypatch, argv):
    # The LP's objective is reward * bid; an inf there sends the simplex's
    # pivot loop on to MAX_PIVOTS.
    monkeypatch.setattr(cli.benchmarks, "solve_lp_value", mock.Mock(side_effect=AssertionError("LP solved")))
    path = tmp_path / "instance.json"
    path.write_text(_overflowing_score(_instance_json()))
    code, out, err = run_cli(capsys, argv + ["--instance", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: invalid instance: arrival 0: reward * bid for resource 0 must be finite\n"


@pytest.mark.parametrize("argv", [["run", "--policies", "greedy", "--trials", "64", "--seed", "1"], ["lp"]],
                         ids=["run", "lp"])
def test_a_capacity_beyond_int64_is_one_error_line(capsys, tmp_path, argv):
    # The batched engine holds capacities in an int64 array (it overflowed there),
    # and the scalar engine would count units up to the capacity.
    path = tmp_path / "instance.json"
    path.write_text(_big_capacity(_instance_json()))
    code, out, err = run_cli(capsys, argv + ["--instance", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: invalid instance: resource 0: capacity must be below 2^63\n"


def _set(path, value):
    """An instance JSON with the field at `path` (keys and indices) set to value."""
    def make(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        obj[last] = value
    return make


def _all_times(value):
    def make(obj):
        obj["arrivals"].append({"time": 1.0, "demand": {"type": "edges", "resources": [0]}})
        for a in obj["arrivals"]:
            a["time"] = value
    return make


def _edge_to_true(obj):
    obj["resources"][0]["id"] = 1                   # True == 1, so only the type tells them apart
    for a in obj["arrivals"]:
        a["demand"]["resources"] = [True]


def _budgeted_bid(obj):
    obj["mode"] = "budgeted"
    obj["arrivals"][0]["demand"] = {"type": "bids", "bids": {"0": True}}


@pytest.mark.parametrize("command", [["run", "--policies", "rba", "--trials", "2", "--seed", "1"], ["lp"]])
@pytest.mark.parametrize("edit,message", [
    (_set(("resources", 0, "capacity"), True), "resource 0: capacity must be an integer >= 1"),
    (_set(("resources", 0, "reward"), True), "resource 0: reward must be finite and >= 0"),
    (_set(("resources", 0, "id"), True), "resource True: id must be an integer"),
    (_set(("resources", 0, "usage", "rate"), True), "Exponential rate must be a finite number, got True"),
    (_set(("arrivals", 0, "time"), False), "arrival 0: time must be finite and >= 0"),
    (_all_times(True), "arrival 1: time must be finite and >= 0"),
    (_edge_to_true, "unknown resource True at arrival 0"),
    (_budgeted_bid, "arrival 0: bid for resource 0 must be a nonnegative integer"),
], ids=["capacity", "reward", "id", "rate", "time", "all_times", "edge", "bid"])
def test_a_bool_is_not_a_number(capsys, tmp_path, command, edit, message):
    obj = _instance_json()
    edit(obj)
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, [command[0], "--instance", str(path), *command[1:]])
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid instance: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("sigma,p", [(["0", "1.5"], [0.5, 0.5]), ([0.0, 1.5], [True, 0.5]), ([False, 1.5], [0.5, 0.5])])
def test_randproc_rejects_what_is_not_a_number(capsys, tmp_path, sigma, p):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"distribution": {"type": "exponential", "rate": 1.0}, "sigma": sigma, "p": p}))
    code, out, err = run_cli(capsys, ["randproc", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "sigma and p must hold numbers" in err


@pytest.mark.parametrize("argv", [
    lambda d: ["run", "--instance", str(d), "--policies", "rba", "--trials", "2", "--seed", "1"],
    lambda d: ["randproc", str(d)],
    lambda d: ["lp", "--gen", "example_a1", "--param", "n", "2", "--out", str(d)],
    lambda d: ["lp", "--gen", "example_a1", "--param", "n", "2", "--out", str(d / "missing" / "lp.csv")],
    lambda d: ["gen", "example_a1", "--param", "n", "2", "--out", str(d)],
], ids=["run_instance_dir", "randproc_dir", "out_dir", "out_missing_dir", "gen_out_dir"])
def test_a_path_that_cannot_be_read_or_written_is_one_error_line(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, argv(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err


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


@pytest.mark.parametrize("k", ["x", True, -1, 1.5])
def test_a_bad_max_cardinality_is_one_error_line(capsys, tmp_path, k):
    obj = json.loads(_assortment_json({"type": "mnl", "v0": 1.0, "weights": {"0": 1.0, "1": 1.0}}))
    for a in obj["arrivals"]:
        a["demand"]["feasible"] = {"type": "max_cardinality", "k": k}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, ["run", "--instance", str(path), "--policies", "astalg",
                                      "--trials", "2", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid instance: ") and err.count("\n") == 1
    assert "arrival 0: max_cardinality k must be a nonnegative integer" in err


@pytest.mark.parametrize("field,value,message", [
    ("feasible", {"type": "explicit", "sets": [["x"], [0]]},
     "invalid instance: arrival 0: explicit feasible list names 'x', not among the arrival's bid resources"),
    ("feasible", {"type": "explicit", "sets": [[0], [2], [0, 2]]},
     "invalid instance: arrival 0: explicit feasible list names 2, not among the arrival's bid resources"),
    ("feasible", {"type": "subsets", "sets": [[0]]}, "arrivals[0]: unknown feasible type 'subsets'"),
    ("feasible", {"type": "subsets"}, "arrivals[0]: unknown feasible type 'subsets'"),
    ("bids", {"0": "x", "1": 1}, "invalid instance: arrival 0: bid for resource 0 must be a nonnegative integer"),
])
def test_a_bad_assortment_request_is_one_error_line(capsys, tmp_path, field, value, message):
    obj = json.loads(_assortment_json({"type": "mnl", "v0": 1.0, "weights": {"0": 1.0, "1": 1.0}}))
    obj["arrivals"][0]["demand"][field] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, ["run", "--instance", str(path), "--policies", "astalg",
                                      "--trials", "2", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


@pytest.mark.parametrize("field,value,message", [
    ("choice_model", [0], "arrival {t}: choice model [0] does not exist"),
    ("choice_model", {"0": 0}, "arrival {t}: choice model {{'0': 0}} does not exist"),
    ("bids", {"0": [1], "1": 1}, "arrival {t}: bid for resource 0 must be a nonnegative integer"),
], ids=["list_choice_model", "dict_choice_model", "list_bid"])
def test_an_unhashable_demand_field_at_every_arrival_is_one_error_line(capsys, tmp_path, field, value, message):
    obj = json.loads(_assortment_json({"type": "mnl", "v0": 1.0, "weights": {"0": 1.0, "1": 1.0}}))
    for a in obj["arrivals"]:
        a["demand"][field] = value
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, ["run", "--instance", str(path), "--policies", "astalg",
                                      "--trials", "2", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == "error: invalid instance: " + "; ".join(message.format(t=t) for t in range(4)) + "\n"


@pytest.mark.parametrize("mode,demands,message", [
    ("matching", [{"type": "edges", "resources": [0]}, {"type": "edges", "resources": [True]}],
     "unknown resource True at arrival 1"),
    ("budgeted", [{"type": "bids", "bids": {"0": 1}}, {"type": "bids", "bids": {"0": True}}],
     "arrival 1: bid for resource 0 must be a nonnegative integer"),
    ("budgeted", [{"type": "bids", "bids": {"0": 1}}, {"type": "bids", "bids": {"0": 1.0}}],
     "arrival 1: bid for resource 0 must be a nonnegative integer"),
    ("matching", [{"type": "edges", "resources": [7, 15]}, {"type": "edges", "resources": [15, 7]}],
     "unknown resource 15 at arrival 0; unknown resource 7 at arrival 0; "
     "unknown resource 7 at arrival 1; unknown resource 15 at arrival 1"),
], ids=["true_edge", "true_bid", "float_bid", "edge_order"])
def test_equal_demands_that_validate_tells_apart_keep_their_messages(capsys, tmp_path, mode, demands, message):
    # 1, 1.0 and True are equal, and so are {7, 15} built in either order,
    # which iterates the other way: each arrival keeps its own messages.
    obj = _instance_json()
    obj["mode"] = mode
    obj["arrivals"] = [{"time": float(t), "demand": d} for t, d in enumerate(demands)]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, ["lp", "--instance", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: invalid instance: {message}\n"


_POOLS = {        # a few demands per mode, so that most repeat
    model.MATCHING: [model.MatchingEdges(frozenset(s)) for s in ({0}, {0, 1}, {1, 2}, {2, 0, 1})],
    model.BUDGETED: [model.BudgetedBids(b) for b in ({0: 1, 1: 2}, {1: 1, 2: 1}, {2: 2, 0: 1}, {2: 3})],
    model.ASSORTMENT: [model.AssortmentRequest(0, b) for b in ({0: 1, 1: 2}, {1: 1, 2: 1}, {2: 2, 0: 1})],
}


def _bursty_instance(mode: str, seed: int) -> model.Instance:
    """About 30 arrivals on 3 resources, in bursts of 1-4 alike arrivals
    whose demands come from a small pool; at about half the seeds the times
    and rewards are ints, as JSON can hold them."""
    rnd = random.Random(seed)
    whole = rnd.random() < 0.5
    usage = [TwoPointInf(1.0, 0.5), Exponential(0.8), Deterministic(1.5), NonReusable()]
    resources = tuple(model.Resource(i, rnd.randint(2, 4), rnd.randint(1, 3) if whole else round(rnd.uniform(0.5, 2), 3),
                                     rnd.choice(usage)) for i in range(3))
    arrivals, time = [], 0 if whole else 0.0
    while len(arrivals) < 30:
        time += rnd.randint(0, 1) if whole else round(rnd.uniform(0.0, 0.6), 3)
        demand = rnd.choice(_POOLS[mode])
        arrivals += [model.Arrival(time, type(demand)(**vars(demand)))] * rnd.randint(1, 4)
    cms = (MNL(0.5, {0: 1.0, 1: 2.0, 2: 0.7}),) if mode == model.ASSORTMENT else ()
    return model.Instance(mode, resources, arrivals, cms)


_SIMULATE = {model.MATCHING: ["greedy", "balance", "rba", "salg", "galg_fast_quant:0.1"],
             model.BUDGETED: ["rba_budgeted"], model.ASSORTMENT: ["astalg", "rba_assortment"]}


@pytest.mark.parametrize("mode", model.MODES)
@settings(max_examples=4)
@given(seed=st.integers(0, 2**16))
def test_shared_demand_and_arrival_objects_change_no_output(tmp_path_factory, mode, seed):
    # The same instance with one object per distinct demand and per burst,
    # and with a fresh demand and arrival object per arrival, gives the
    # same bytes: every run --trace, compare, lp and certify CSV, and the
    # guides' x and allocs.
    inst = _bursty_instance(mode, seed)
    tmp = tmp_path_factory.mktemp("shared")
    (tmp / "instance.json").write_text(model.dumps(inst))
    commands = [["run", "--policies", ",".join(_SIMULATE[mode])]]
    commands += [["run", "--policies", name, "--trace", str(tmp / "trace.csv")] for name in _SIMULATE[mode]]
    if mode != model.ASSORTMENT:        # the LP covers matching and budgeted modes
        commands += [["compare", "--policies", _SIMULATE[mode][-1]], ["lp", "--y-csv"], ["lp"]]
    if mode == model.MATCHING:
        commands += [["lp", "--galg"], ["compare", "--policies", "galg"],
                     ["certify", "--alg", "galg", "--alpha", "0.5", "--beta", "0.5"]]
    from_json = model.from_json

    def outputs(build):
        texts = []
        with mock.patch.object(model, "from_json", lambda obj: build(from_json(obj))):
            for argv in commands:
                seeded = ["--trials", "3", "--seed", "5"] if argv[0] != "lp" else []
                code = cli.main([*argv, "--instance", str(tmp / "instance.json"), *seeded,
                                 "--out", str(tmp / "out.csv")])
                assert code == 0
                texts.append((tmp / "out.csv").read_bytes())
                if "--trace" in argv:
                    texts.append((tmp / "trace.csv").read_bytes())
        built = build(inst)
        guide = (policies.run_galg(built) if mode == model.MATCHING
                 else AstgalgGuide(built).run() if mode == model.ASSORTMENT else None)
        if guide is not None:
            texts.append(repr((getattr(guide, "x", None), guide.allocs)))
        return texts

    shared, fresh = shared_objects(inst), fresh_objects(inst)
    assert len({id(a.demand) for a in shared.arrivals}) <= len(_POOLS[mode])
    assert len({id(a) for a in shared.arrivals}) < len({id(a) for a in fresh.arrivals}) == len(inst.arrivals)
    assert outputs(shared_objects) == outputs(fresh_objects)


@pytest.mark.parametrize("name,params", [("example_a1", ["n", "6"]), ("example_a2", ["n", "5", "mu", "1.0"]),
                                         ("upper_triangular", ["n_resources", "3", "capacity", "4"])])
def test_generated_instances_give_the_bytes_of_fresh_objects(tmp_path, name, params):
    argv = ["run", "--gen", name, *[x for k, v in zip(params[::2], params[1::2]) for x in ("--param", k, v)],
            "--policies", "rba", "--trials", "3", "--seed", "4", "--trace", str(tmp_path / "trace.csv"),
            "--out", str(tmp_path / "out.csv")]

    def outputs():
        assert cli.main(argv) == 0
        return (tmp_path / "out.csv").read_bytes(), (tmp_path / "trace.csv").read_bytes()

    shared = outputs()
    make = cli._GENERATORS[name]
    with mock.patch.dict(cli._GENERATORS, {name: lambda **kw: fresh_objects(make(**kw))}):
        assert outputs() == shared


def _trace_instance(mode: str) -> dict:
    """Eight arrivals at int times on two resources with int rewards, as
    JSON: some go unmatched, and budgeted ones take 2 or 3 units."""
    demand = {model.MATCHING: {"type": "edges", "resources": [0, 1]},
              model.BUDGETED: {"type": "bids", "bids": {"0": 3, "1": 2}},
              model.ASSORTMENT: {"type": "assortment", "choice_model": 0, "bids": {"0": 2, "1": 1}}}[mode]
    return {"mode": mode,
            "resources": [{"id": 0, "capacity": 3, "reward": 2, "usage": {"type": "non_reusable"}},
                          {"id": 1, "capacity": 2, "reward": 1, "usage": {"type": "two_point_inf", "d": 1.0, "p": 0.5}}],
            "arrivals": [{"time": t, "demand": demand} for t in (0, 0, 1, 1, 2, 3, 3, 4)],
            "choice_models": [{"type": "mnl", "v0": 0.5, "weights": {"0": 1.0, "1": 2.0}}]}


@pytest.mark.parametrize("mode,policy", [(model.MATCHING, "greedy"), (model.BUDGETED, "rba_budgeted"),
                                         (model.ASSORTMENT, "astalg")])
def test_trace_rows_are_the_bytes_of_emit(tmp_path, mode, policy):
    from reuse_alloc.engine import run_trials

    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_trace_instance(mode)))
    trace = tmp_path / "trace.csv"
    code = cli.main(["run", "--instance", str(path), "--policies", policy, "--trials", "4", "--seed", "3",
                     "--trace", str(trace), "--out", str(tmp_path / "out.csv")])
    assert code == 0
    traces = []
    run_trials(model.loads(path.read_text()), policies.make_policy(policy), 4, 3, traces=traces)
    rows = [(tr.trial, rec.arrival, rec.time, rec.decision, "" if rec.resource is None else rec.resource,
             ";".join(str(u) for u in rec.units), rec.reward) for tr in traces for rec in tr.records]
    cli._emit(rows, ["trial", "arrival", "time", "decision", "resource", "units", "reward"], tmp_path / "emit.csv")
    assert trace.read_bytes() == (tmp_path / "emit.csv").read_bytes()
    fields = [line.split(",") for line in trace.read_text().splitlines()[1:]]
    assert {f[2] for f in fields} == {"0", "1", "2", "3", "4"}            # int times stay ints
    assert any(f[4] == "" for f in fields)                                  # an unmatched arrival
    assert all(f[6].isdigit() for f in fields)                              # int rewards stay ints
    if mode == model.BUDGETED:
        assert any(f[5].count(";") == 2 for f in fields)                    # 3 unit ranks
    if mode == model.ASSORTMENT:
        assert any(f[3] == "offer" for f in fields)


def test_the_parser_is_built_once_and_keeps_nothing_between_calls(capsys, tmp_path):
    # --param lists do not pile up, a failed call (exit 2, or argparse's
    # SystemExit) leaves the next one as it would be in a new process, and
    # run, gen and lp interleave.
    calls = [["gen", "upper_triangular", "--param", "n_resources", "2", "--param", "capacity", "2"],
             ["run", "--gen", "example_a1", "--param", "n", "3", "--policies", "rba", "--trials", "2", "--seed", "1"],
             ["lp", "--gen", "example_a1", "--param", "n", "3"],
             ["gen", "example_a1", "--param", "n", "2"],
             ["gen", "upper_triangular", "--param", "n_resources", "2"],       # exit 2: capacity is missing
             ["run", "--gen", "example_a1", "--policies", "rba"],              # SystemExit: --seed is required
             ["lp", "--gen", "upper_triangular", "--param", "n_resources", "2", "--param", "capacity", "3", "--galg"],
             ["gen", "example_a1", "--param", "n", "2"],
             ["lp", "--gen", "example_a1"],                                    # exit 2: n is missing
             ["lp", "--gen", "example_a1"]]

    def call(argv):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
        return code, capsys.readouterr()

    alone = []
    for argv in calls:
        cli._parser.cache_clear()
        alone.append(call(argv))
    cli._parser.cache_clear()
    assert [call(argv) for argv in calls] == alone
    assert cli._parser.cache_info().misses == 1
    assert [code for code, _ in alone] == [0, 0, 0, 0, 2, ("exit", 2), 0, 0, 2, 2]


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


def test_lp_y_csv_with_galg_is_one_error_line(capsys, monkeypatch):
    # --y-csv prints the LP's y rows, with no row for galg_fluid to go in.
    monkeypatch.setattr(cli.benchmarks, "build_lp", mock.Mock(side_effect=AssertionError("LP built")))
    code, out, err = run_cli(capsys, ["lp", "--gen", "upper_triangular", "--param", "n_resources", "3",
                                      "--param", "capacity", "4", "--y-csv", "--galg"])
    assert (code, out) == (2, "")
    assert err == "error: --galg adds a column to the lp_value row, which --y-csv does not print\n"


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


@pytest.mark.parametrize("names", ["galg,salg", "salg,galg", "galg,salg,galg_fast_quant:0.1"])
def test_compare_builds_the_exact_guide_once_for_galg_and_salg(capsys, monkeypatch, names):
    base = ["compare", "--gen", "upper_triangular", "--param", "n_resources", "3", "--param", "capacity", "5",
            "--trials", "4", "--seed", "2", "--policies"]
    alone = {name: run_cli(capsys, base + [name])[1].splitlines() for name in names.split(",")}
    builds = []
    real = policies.run_galg
    monkeypatch.setattr(policies, "run_galg", lambda inst, **kw: builds.append(kw) or real(inst, **kw))
    code, out, _ = run_cli(capsys, base + [names])
    assert code == 0 and [kw.get("variant", "exact") for kw in builds].count("exact") == 1
    lines = out.splitlines()
    assert lines == [lines[0]] + [alone[name][1] for name in names.split(",")]


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


def _table_instance(n_items: int) -> dict:
    """One arrival offered n_items unit resources under an explicit table that
    lists only the singletons and the full set."""
    items = list(range(n_items))
    phi = {"{%d}" % i: {str(i): 0.5} for i in items}
    phi["{" + ",".join(map(str, items)) + "}"] = {str(i): 1.0 / n_items for i in items}
    return {"mode": "assortment",
            "resources": [{"id": i, "capacity": 1, "reward": 1.0, "usage": {"type": "non_reusable"}} for i in items],
            "arrivals": [{"time": 0.0, "demand": {"type": "assortment", "choice_model": 0,
                                                  "bids": {str(i): 1 for i in items}, "feasible": {"type": "all"}}}],
            "choice_models": [{"type": "table", "n": n_items, "items": items, "phi": phi}]}


def test_an_incomplete_large_table_is_one_error_line(capsys, tmp_path):
    path = tmp_path / "table17.json"
    path.write_text(json.dumps(_table_instance(17)))
    code, out, err = run_cli(capsys, ["run", "--instance", str(path), "--policies", "rba_assortment",
                                      "--trials", "2", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == ("error: invalid instance: choice model 0: table lists 18 of the 131071 nonempty subsets "
                   "of the items\n")


def test_too_large_is_one_error_line(capsys, monkeypatch):
    from reuse_alloc import benchmarks

    def too_large(instance):
        raise model.TooLarge("explicit-table oracle is limited to 20 items")

    monkeypatch.setattr(benchmarks, "lp_value", too_large)
    code, out, err = run_cli(capsys, ["compare", "--gen", "example_a1", "--param", "n", "2",
                                      "--policies", "greedy", "--trials", "2", "--seed", "1"])
    assert (code, out) == (2, "")
    assert err == "error: explicit-table oracle is limited to 20 items\n"


@pytest.mark.parametrize("argv", [
    ["lp"], ["lp", "--y-csv"], ["compare", "--policies", "greedy", "--trials", "2", "--seed", "1"],
    ["certify", "--trials", "2", "--seed", "1", "--alpha", "0.5", "--beta", "1"]])
def test_a_failed_lp_check_is_one_error_line(capsys, monkeypatch, argv):
    from reuse_alloc import simplex

    real = simplex.solve

    def negated_duals(*args):
        res = real(*args)
        return res.__class__(res.status, res.objective, res.x, res.pivots, -res.y)

    monkeypatch.setattr(simplex, "solve", negated_duals)
    code, out, err = run_cli(capsys, argv + ["--gen", "example_a1", "--param", "n", "3"])
    assert (code, out) == (1, "")
    assert err.startswith("error: LP solution check failed: dual feasibility ") and err.count("\n") == 1


def test_a_non_optimal_lp_value_is_one_error_line(capsys, monkeypatch):
    from reuse_alloc import simplex

    real = simplex.solve

    def stopped(*args):
        res = real(*args)
        return res.__class__(simplex.ITERATION_LIMIT, res.objective, res.x, res.pivots, res.y)

    monkeypatch.setattr(simplex, "solve", stopped)
    code, out, err = run_cli(capsys, ["compare", "--gen", "example_a1", "--param", "n", "3",
                                      "--policies", "greedy", "--trials", "2", "--seed", "1"])
    assert (code, out, err) == (1, "", "error: LP solve ended with status IterationLimit\n")


def test_lp_value_and_vertex_paths(capsys, monkeypatch):
    """`lp` prints the value from the reduced LP and never builds the full
    one; `lp --y-csv` prints the full LP's vertex."""
    from reuse_alloc import benchmarks

    gen = ["lp", "--gen", "upper_triangular", "--param", "n_resources", "3", "--param", "capacity", "2"]
    code, out, _ = run_cli(capsys, gen + ["--y-csv"])
    assert code == 0 and out.startswith("arrival,resource,y\n") and len(out.splitlines()) > 1

    def no_build(instance):
        raise AssertionError("the full LP was built")

    monkeypatch.setattr(benchmarks, "build_lp", no_build)
    code, out, _ = run_cli(capsys, gen)
    assert (code, out) == (0, "instance,status,lp_value\nupper_triangular,Optimal,6\n")
