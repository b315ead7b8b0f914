import json
from pathlib import Path

import numpy as np
import pytest

from leapsim.cli import main
from leapsim.files import decode_array, encode_array


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def scenario_file(tmp_path):
    out = tmp_path / "gen"
    assert run(["gen", "--seed", 7, "--clients", 12, "--edges", 3, "--out", out]) == 0
    return out / "scenario.json"


def test_gen_writes_scenario(scenario_file):
    data = json.loads(scenario_file.read_text())
    assert data["schema"] == "leapsim.scenario.v3"
    columns = data["clients"]
    assert columns["data_size"]["dtype"] == "<i8" and columns["channel_gains"]["dtype"] == "<f8"
    assert decode_array(columns["data_size"], "data_size").shape == (12,)
    assert decode_array(columns["channel_gains"], "channel_gains").shape == (12, 3)


def test_full_stage_pipeline(tmp_path, scenario_file):
    stage = tmp_path / "stage"
    assert run(["coalition", "--scenario", scenario_file, "--seed", 3, "--out", stage]) == 0
    partition = stage / "partition.json"
    assert partition.exists() and (stage / "game_trace.csv").exists()

    assert run(
        ["allocate", "--scenario", scenario_file, "--partition", partition, "--out", stage]
    ) == 0
    plan = stage / "plan.json"
    assert plan.exists() and (stage / "gp_trace.csv").exists()

    assert run(
        [
            "simulate", "--scenario", scenario_file, "--partition", partition,
            "--out", stage, "--features", 4, "--tau-c", 2, "--tau-e", 2, "--tau-g", 3,
        ]
    ) == 0
    assert (stage / "accuracy.csv").exists()

    assert run(
        [
            "report", "--scenario", scenario_file, "--partition", partition,
            "--plan", plan, "--out", stage,
        ]
    ) == 0
    metrics = json.loads((stage / "metrics.json").read_text())
    assert metrics["schema"] == "leapsim.metrics.v1"
    assert {"per_client", "per_coalition", "system"} <= set(metrics)
    assert metrics["weights"] == {"lambda1": 1.0, "lambda2": 1.0}
    assert (stage / "metrics.csv").exists()


def test_compare_emits_report(tmp_path, scenario_file):
    out = tmp_path / "cmp"
    assert run(
        [
            "compare", "--scenario", scenario_file, "--seed", 11, "--out", out,
            "--methods", "leap", "rb_rp",
        ]
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["methods"]) == {"leap", "rb_rp"}
    assert (out / "summary.csv").exists()


def test_compare_strict_exit_code_on_infeasible(tmp_path, scenario_file):
    # rp draws powers below the deadline requirement somewhere on this
    # seed, so strict mode must signal it
    out = tmp_path / "strict"
    code = run(
        [
            "compare", "--scenario", scenario_file, "--seed", 0, "--out", out,
            "--methods", "leap", "rp", "rb_rp", "--strict",
        ]
    )
    report = json.loads((out / "report.json").read_text())
    feasible = {m: report["methods"][m]["feasible"] for m in report["methods"]}
    assert code == (0 if all(feasible.values()) else 2)
    assert feasible["leap"]


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LEAPSIM_OUT", str(tmp_path / "envout"))
    assert run(["gen", "--seed", 1, "--clients", 6, "--edges", 2]) == 0
    assert (tmp_path / "envout" / "scenario.json").exists()


def test_gen_dirichlet_flag(tmp_path):
    out = tmp_path / "diri"
    assert run(
        ["gen", "--seed", 2, "--clients", 8, "--edges", 2, "--dirichlet", 0.5, "--out", out]
    ) == 0
    data = json.loads((out / "scenario.json").read_text())
    assert data["meta"]["scheme"] == "dirichlet"


def test_pipeline_byte_determinism(tmp_path, scenario_file):
    outs = []
    for k in (1, 2):
        out = tmp_path / f"det{k}"
        assert run(
            ["compare", "--scenario", scenario_file, "--seed", 5, "--out", out,
             "--methods", "leap", "rb", "rp"]
        ) == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _error_lines(capsys):
    err = capsys.readouterr().err
    return [line for line in err.splitlines() if line]


def test_missing_input_file_is_one_line_and_exit_2(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    assert run(["compare", "--scenario", missing, "--out", tmp_path / "o"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and "nonexistent.json" in lines[0]
    assert "Traceback" not in lines[0]


def test_malformed_inputs_are_one_line_and_exit_2(tmp_path, scenario_file, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run(["coalition", "--scenario", bad_json, "--out", tmp_path / "o"]) == 2
    assert len(_error_lines(capsys)) == 1

    wrong_schema = tmp_path / "wrong.json"
    wrong_schema.write_text(json.dumps({"schema": "leapsim.plan.v1"}))
    assert run(["coalition", "--scenario", wrong_schema, "--out", tmp_path / "o"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and "leapsim.scenario.v3" in lines[0]

    no_config = json.loads(scenario_file.read_text())
    del no_config["config"]
    stripped = tmp_path / "noconfig.json"
    stripped.write_text(json.dumps(no_config))
    assert run(["coalition", "--scenario", stripped, "--out", tmp_path / "o"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and "config" in lines[0]


@pytest.mark.parametrize("field, value, words", [
    ("num_edges", 4, "4 edges"),
    ("assignment", [0, 1, 2], "3 clients"),
])
def test_partition_that_disagrees_with_the_scenario_is_rejected(
    tmp_path, scenario_file, capsys, field, value, words
):
    from leapsim.cli import _load_partition
    from leapsim.game import InvalidPartitionError
    from leapsim.scenario import load_scenario

    stage = tmp_path / "stage"
    assert run(["coalition", "--scenario", scenario_file, "--seed", 3, "--out", stage]) == 0
    capsys.readouterr()
    data = json.loads((stage / "partition.json").read_text())
    data[field] = value
    if field == "num_edges":  # a valid 4-edge assignment, on a 3-edge scenario
        data["assignment"] = [n % 4 for n in range(len(data["assignment"]))]
    bad = tmp_path / "partition.json"
    bad.write_text(json.dumps(data))

    with pytest.raises(InvalidPartitionError, match=words):
        _load_partition(str(bad), load_scenario(scenario_file))
    assert run(
        ["allocate", "--scenario", scenario_file, "--partition", bad, "--out", tmp_path / "a"]
    ) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and words in lines[0]


@pytest.mark.parametrize("value", ["bogus", 7, None])
def test_partition_with_an_unknown_denominator_is_one_line_and_exit_2(
    tmp_path, scenario_file, capsys, value
):
    stage = tmp_path / "stage"
    assert run(["coalition", "--scenario", scenario_file, "--seed", 3, "--out", stage]) == 0
    capsys.readouterr()
    data = json.loads((stage / "partition.json").read_text())
    data["denominator"] = value
    bad = tmp_path / "partition.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "a"
    assert run(["allocate", "--scenario", scenario_file, "--partition", bad, "--out", out]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1
    assert f"denominator must be 'M' or 'pairs', got {value!r}" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("which", ["--scenario", "--partition"])
def test_a_file_that_is_not_utf8_is_one_line_and_exit_2(
    tmp_path, scenario_file, staged, capsys, which
):
    capsys.readouterr()
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe{\x00}\x00\x80\x81")
    inputs = {"--scenario": scenario_file, "--partition": staged / "partition.json"}
    inputs[which] = binary
    argv = ["allocate", "--scenario", inputs["--scenario"],
            "--partition", inputs["--partition"], "--out", tmp_path / "a"]
    assert run(argv) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and "bin.json: not UTF-8 text" in lines[0]


def _scenario_with(tmp_path, scenario_file, keys, value):
    """A copy of the scenario file with the entry at the path ``keys`` set
    to ``value``.  A path that goes on past a ``clients`` column indexes
    the decoded array, which is widened to hold ``value`` (a float in
    ``data_size`` makes it a "<f8" column) and encoded again."""
    data = json.loads(scenario_file.read_text())
    if keys[0] == "clients" and len(keys) > 2 and isinstance(keys[2], int):
        field, index = keys[1], tuple(keys[2:])
        array = decode_array(data["clients"][field], field)
        array = array.astype(np.result_type(array, value))
        array[index] = value
        keys, value = keys[:2], encode_array(array)
    *parents, last = keys
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / f"bad_{keys[-1]}.json"
    path.write_text(json.dumps(data))
    return path


def _ragged_gains(scenario_file, row, gains):
    """The channel_gains column with client ``row`` holding ``gains``: the
    data no longer fits the stored shape."""
    column = json.loads(scenario_file.read_text())["clients"]["channel_gains"]
    array = decode_array(column, "channel_gains")
    values = np.concatenate([array[:row].ravel(), gains, array[row + 1:].ravel()])
    return {**encode_array(values), "shape": column["shape"]}


@pytest.mark.parametrize("argv, words", [
    (["gen", "--clients", 6, "--edges", 1], "n_edges >= 2"),
    (["gen", "--dirichlet", "nan"], "alpha must be finite, got nan"),
    (["gen", "--dirichlet", "inf"], "alpha must be finite, got inf"),
    ("p_max", "p_max must be strictly positive"),
    pytest.param("channel_gains ragged",
                 "clients.channel_gains: 280 bytes of data, shape [12, 3] needs 288",
                 id="channel_gains ragged row"),
])
def test_bad_values_are_one_line_and_exit_2(tmp_path, scenario_file, capsys, argv, words):
    if argv == "p_max":
        bad = _scenario_with(tmp_path, scenario_file, ("clients", "p_max", 5), -1)
        argv = ["compare", "--scenario", bad, "--methods", "leap"]
    elif argv == "channel_gains ragged":  # client 5 has 2 of the 3 gains
        gains = _ragged_gains(scenario_file, 5, [1e-7, 1e-7])
        bad = _scenario_with(tmp_path, scenario_file, ("clients", "channel_gains"), gains)
        argv = ["compare", "--scenario", bad, "--methods", "leap"]
    assert run([*argv, "--out", tmp_path / "o"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and words in lines[0]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("keys, value, words", [
    pytest.param(("clients", "p_max", 5), NAN, "p_max must be strictly positive and finite",
                 id="p_max NaN"),
    pytest.param(("clients", "channel_gains", 5, 1), NAN,
                 "channel_gains must be strictly positive and finite", id="gain NaN"),
    pytest.param(("clients", "cpu_freq", 5), INF, "cpu_freq must be strictly positive and finite",
                 id="cpu_freq Infinity"),
    pytest.param(("clients", "cycles_per_item", 5), NAN,
                 "cycles_per_item must be strictly positive and finite", id="cycles NaN"),
    pytest.param(("config", "deadline"), NAN, "deadline must be finite", id="deadline NaN"),
    pytest.param(("config", "capacitance"), INF, "capacitance must be finite",
                 id="capacitance Infinity"),
    pytest.param(("config", "lambda1"), NAN, "lambda1 must be finite", id="lambda1 NaN"),
    pytest.param(("config", "tau_c"), 2.5, "tau_c must be an integer, got 2.5", id="tau_c 2.5"),
    pytest.param(("config", "tau_e"), 2.5, "tau_e must be an integer, got 2.5", id="tau_e 2.5"),
    pytest.param(("config", "tau_g"), True, "tau_g must be an integer, got True", id="tau_g true"),
    pytest.param(("clients", "data_size", 5), 200.0, "data_size must hold integers",
                 id="data_size 200.0"),
    pytest.param(("clients", "label_counts", "dtype"), "<U1",
                 "clients.label_counts: dtype must be '<f8' or '<i8', got '<U1'",
                 id="label_counts strings"),
    pytest.param(("clients", "cpu_freq", "dtype"), ">f8",
                 "clients.cpu_freq: dtype must be '<f8' or '<i8', got '>f8'",
                 id="cpu_freq big-endian"),
    pytest.param(("clients", "p_max"), [0.5] * 12,
                 "clients.p_max must be an object with keys base64, dtype and shape, got list",
                 id="p_max v2 list"),
    pytest.param(("clients",), [],
                 "clients must be an object with keys channel_gains, cpu_freq, cycles_per_item, "
                 "data_size, label_counts, p_max, got list", id="clients list"),
    pytest.param(("clients", "p_max", "order"), "C",
                 "keys base64, dtype and shape, got ['base64', 'dtype', 'order', 'shape']",
                 id="p_max extra key"),
    pytest.param(("clients", "p_max", "base64"), "AAAAAAAAAAA=\n",
                 "clients.p_max: invalid base64", id="p_max bad base64"),
    pytest.param(("clients", "p_max", "shape"), [True],
                 "clients.p_max: shape must be a list of non-negative integers, got [true]",
                 id="p_max bool shape"),
    pytest.param(("clients", "channel_gains", "shape"), [-12, -3],
                 "clients.channel_gains: shape must be a list of non-negative integers",
                 id="gains negative shape"),
    pytest.param(("meta",), [1], "meta must be a JSON object, got [1]", id="meta list"),
    pytest.param(("num_edges",), 3.0, "num_edges must be a JSON integer", id="num_edges 3.0"),
    pytest.param(("num_edges",), 2, "channel_gains has 3 columns, num_edges is 2",
                 id="num_edges 2"),
    pytest.param(("schema",), "leapsim.scenario.v1", "found 'leapsim.scenario.v1'", id="v1 file"),
    pytest.param(("schema",), "leapsim.scenario.v2", "found 'leapsim.scenario.v2'", id="v2 file"),
])
def test_bad_scenario_fields_are_one_line_and_exit_2(
    tmp_path, scenario_file, capsys, keys, value, words
):
    bad = _scenario_with(tmp_path, scenario_file, keys, value)
    argv = ["compare", "--scenario", bad, "--methods", "leap", "--out", tmp_path / "o"]
    if keys[-1] == "tau_e":  # the learner reads tau_e directly
        argv += ["--train", "--features", 4]
    assert run(argv) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and words in lines[0] and str(bad) in lines[0]
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("argv, words", [
    (["compare", "--max-iters", 0], "max_iters must be at least 1"),
    (["compare", "--max-iters", -5], "max_iters must be at least 1"),
    (["compare", "--max-iters", 0, "--methods", "random_assoc"], "max_iters must be at least 1"),
    (["coalition", "--max-iters", 0], "max_iters must be at least 1"),
    (["compare", "--train", "--tau-c", 0], "tau_c must be at least 1"),
    (["compare", "--tau-g", -1], "tau_g must be at least 1"),
    (["compare", "--lr", -1], "lr must be strictly positive"),
    (["compare", "--features", 0], "n_features must be at least 1"),
    (["compare", "--train", "--features", 4, "--lr", 1e308], "training diverged"),
    (["compare", "--gp-tol", "nan"], "tolerance must be finite, got nan"),
    (["compare", "--step", "inf"], "step_size must be finite, got inf"),
    (["compare", "--floor", "nan"], "min_bandwidth_floor must be finite, got nan"),
])
def test_bad_counts_and_training_flags_are_one_line_and_exit_2(
    tmp_path, scenario_file, capsys, argv, words
):
    assert run([*argv, "--scenario", scenario_file, "--out", tmp_path / "o"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and words in lines[0]
    assert not (tmp_path / "o" / "report.json").exists()


def test_simulate_rejects_a_zero_period_and_honours_explicit_ones(tmp_path, scenario_file):
    stage = tmp_path / "stage"
    assert run(["coalition", "--scenario", scenario_file, "--seed", 3, "--out", stage]) == 0
    simulate = ["simulate", "--scenario", scenario_file, "--partition", stage / "partition.json",
                "--features", 4, "--tau-e", 1, "--tau-g", 2]
    assert run([*simulate, "--tau-c", 0, "--out", tmp_path / "zero"]) == 2
    assert not (tmp_path / "zero" / "accuracy.csv").exists()
    curves = []
    for tau_c in (1, 5):
        out = tmp_path / f"tau{tau_c}"
        assert run([*simulate, "--tau-c", tau_c, "--out", out]) == 0
        curves.append((out / "accuracy.csv").read_bytes())
    assert curves[0] != curves[1]


def test_simulate_reports_divergence_in_one_line_and_exit_2(tmp_path, scenario_file, capsys):
    stage = tmp_path / "stage"
    assert run(["coalition", "--scenario", scenario_file, "--seed", 3, "--out", stage]) == 0
    capsys.readouterr()
    assert run(["simulate", "--scenario", scenario_file, "--partition", stage / "partition.json",
                "--features", 4, "--lr", 1e308, "--out", tmp_path / "o"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and "training diverged; lower the learning rate" in lines[0]
    assert not (tmp_path / "o" / "accuracy.csv").exists()


@pytest.mark.parametrize("field, value, words", [
    # 0.5 used to be truncated to edge 0 and true read as edge 1
    ("assignment[0]", 0.5, "assignment[0] must be a JSON integer, got 0.5"),
    ("assignment[0]", True, "assignment[0] must be a JSON integer, got True"),
    ("assignment[0]", "0", "assignment[0] must be a JSON integer, got '0'"),
    ("assignment", {"0": 1}, "assignment must be a list"),
    ("num_edges", "3", "num_edges must be a JSON integer, got '3'"),
    ("num_edges", 3.0, "num_edges must be a JSON integer, got 3.0"),
    ("num_edges", True, "num_edges must be a JSON integer, got True"),
])
def test_partition_fields_must_be_json_integers(
    tmp_path, scenario_file, capsys, field, value, words
):
    stage = tmp_path / "stage"
    assert run(["coalition", "--scenario", scenario_file, "--seed", 3, "--out", stage]) == 0
    capsys.readouterr()
    data = json.loads((stage / "partition.json").read_text())
    if field == "assignment[0]":
        data["assignment"][0] = value
    else:
        data[field] = value
    bad = tmp_path / "partition.json"
    bad.write_text(json.dumps(data))
    assert run(
        ["allocate", "--scenario", scenario_file, "--partition", bad, "--out", tmp_path / "a"]
    ) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and str(bad) in lines[0] and words in lines[0]


def test_report_rejects_plan_arrays_of_the_wrong_length(tmp_path, scenario_file, capsys):
    stage = tmp_path / "stage"
    assert run(["coalition", "--scenario", scenario_file, "--seed", 3, "--out", stage]) == 0
    partition = stage / "partition.json"
    assert run(
        ["allocate", "--scenario", scenario_file, "--partition", partition, "--out", stage]
    ) == 0
    capsys.readouterr()
    report = ["report", "--scenario", scenario_file, "--partition", partition]
    good = json.loads((stage / "plan.json").read_text())
    tampered = tmp_path / "plan.json"
    for field, value, words in (
        ("power", good["power"][:3], "power has 3 entries, expected 12"),
        ("client_bandwidth", good["client_bandwidth"] * 2,
         "client_bandwidth has 24 entries, expected 12"),
        ("bandwidth", good["bandwidth"][:1], "bandwidth has 1 entries, expected 3"),
        ("bandwidth", None, "bandwidth must be a list of 3 numbers, got null"),
    ):
        tampered.write_text(json.dumps({**good, field: value}))
        assert run([*report, "--plan", tampered, "--out", tmp_path / "bad"]) == 2
        lines = _error_lines(capsys)
        assert len(lines) == 1 and str(tampered) in lines[0] and words in lines[0]
        assert not (tmp_path / "bad" / "metrics.json").exists()


@pytest.mark.parametrize("field, index, value, words", [
    ("power", 4, "0.5", 'power[4] must be a JSON number, got "0.5"'),
    ("bandwidth", 1, True, "bandwidth[1] must be a JSON number, got true"),
    ("client_bandwidth", 0, None, "client_bandwidth[0] must be a JSON number, got null"),
])
def test_report_rejects_plan_values_that_are_not_json_numbers(
    tmp_path, scenario_file, capsys, field, index, value, words
):
    stage = tmp_path / "stage"
    assert run(["coalition", "--scenario", scenario_file, "--seed", 3, "--out", stage]) == 0
    partition = stage / "partition.json"
    assert run(
        ["allocate", "--scenario", scenario_file, "--partition", partition, "--out", stage]
    ) == 0
    capsys.readouterr()
    data = json.loads((stage / "plan.json").read_text())
    data[field][index] = value
    tampered = tmp_path / "plan.json"
    tampered.write_text(json.dumps(data))
    assert run(["report", "--scenario", scenario_file, "--partition", partition,
                "--plan", tampered, "--out", tmp_path / "bad"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and str(tampered) in lines[0] and words in lines[0]
    assert not (tmp_path / "bad" / "metrics.json").exists()


def test_coalition_and_compare_share_the_default_game_budget(
    tmp_path, scenario_file, monkeypatch
):
    import leapsim.cli
    import leapsim.experiment
    from leapsim.game import default_max_iters, run_coalition_formation

    budgets = {}

    def recording(verb):
        def wrapped(start, max_iters, **kwargs):
            budgets[verb] = max_iters
            return run_coalition_formation(start, max_iters, **kwargs)
        return wrapped

    monkeypatch.setattr(leapsim.cli, "run_coalition_formation", recording("coalition"))
    monkeypatch.setattr(leapsim.experiment, "run_coalition_formation", recording("compare"))
    assert run(["coalition", "--scenario", scenario_file, "--seed", 5,
                "--out", tmp_path / "c"]) == 0
    assert run(["compare", "--scenario", scenario_file, "--seed", 5, "--methods", "leap",
                "--out", tmp_path / "p"]) == 0
    assert budgets == {"coalition": default_max_iters(12), "compare": default_max_iters(12)}


def test_report_refuses_a_plan_that_differs_from_its_recomputation(
    tmp_path, scenario_file, capsys
):
    stage = tmp_path / "stage"
    assert run(["coalition", "--scenario", scenario_file, "--seed", 3, "--out", stage]) == 0
    partition = stage / "partition.json"
    assert run(
        ["allocate", "--scenario", scenario_file, "--partition", partition, "--out", stage]
    ) == 0
    report = ["report", "--scenario", scenario_file, "--partition", partition]
    assert run([*report, "--plan", stage / "plan.json", "--out", tmp_path / "ok"]) == 0
    capsys.readouterr()

    plan = json.loads((stage / "plan.json").read_text())
    plan["tx_energy"][2] *= 1.0 + 1e-6
    tampered = tmp_path / "plan.json"
    tampered.write_text(json.dumps(plan))
    assert run([*report, "--plan", tampered, "--out", tmp_path / "bad"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and "stored tx_energy differs" in lines[0]
    assert not (tmp_path / "bad" / "metrics.json").exists()

    del plan["tx_energy"]
    tampered.write_text(json.dumps(plan))
    assert run([*report, "--plan", tampered, "--out", tmp_path / "bad"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and "malformed plan" in lines[0]


@pytest.fixture()
def staged(tmp_path, scenario_file):
    """Directory holding a partition and a plan for ``scenario_file``."""
    stage = tmp_path / "stage"
    assert run(["coalition", "--scenario", scenario_file, "--out", stage]) == 0
    partition = stage / "partition.json"
    assert run(["allocate", "--scenario", scenario_file, "--partition", partition,
                "--out", stage]) == 0
    return stage


def _verb_inputs(verb, scenario_file, stage):
    scenario = ["--scenario", scenario_file]
    partition = [*scenario, "--partition", stage / "partition.json"]
    return {
        "gen": [],
        "coalition": scenario,
        "allocate": partition,
        "simulate": partition,
        "report": [*partition, "--plan", stage / "plan.json"],
        "compare": scenario,
    }[verb]


@pytest.mark.parametrize("verb", ["gen", "coalition", "allocate", "simulate", "report", "compare"])
def test_a_negative_seed_is_one_line_and_exit_2(tmp_path, scenario_file, staged, capsys, verb):
    capsys.readouterr()
    out = tmp_path / "o"
    argv = [verb, *_verb_inputs(verb, scenario_file, staged), "--seed", -3, "--out", out]
    assert run(argv) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and "--seed must be a non-negative integer, got -3" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("verb", ["report", "compare"])
@pytest.mark.parametrize("formats", ["xml", "json,xml", "", "json,", "JSON"])
def test_an_unknown_format_is_one_line_and_exit_2(
    tmp_path, scenario_file, staged, capsys, verb, formats
):
    capsys.readouterr()
    out = tmp_path / "o"
    argv = [verb, *_verb_inputs(verb, scenario_file, staged), "--format", formats, "--out", out]
    assert run(argv) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1
    assert f"--format takes json and/or csv separated by commas, got {formats!r}" in lines[0]
    assert not out.exists()
