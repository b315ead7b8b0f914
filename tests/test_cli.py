import json
from pathlib import Path

import pytest

from leapsim.cli import main


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def scenario_file(tmp_path):
    out = tmp_path / "gen"
    assert run(["gen", "--seed", 7, "--clients", 12, "--edges", 3, "--out", out]) == 0
    return out / "scenario.json"


def test_gen_writes_scenario(scenario_file):
    data = json.loads(scenario_file.read_text())
    assert data["schema"] == "leapsim.scenario.v1"
    assert len(data["clients"]) == 12


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
    assert len(lines) == 1 and "leapsim.scenario.v1" in lines[0]

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


def _scenario_with(tmp_path, scenario_file, field, value):
    data = json.loads(scenario_file.read_text())
    data["clients"][5][field] = value
    path = tmp_path / f"bad_{field}.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("argv, words", [
    (["gen", "--clients", 6, "--edges", 1], "n_edges >= 2"),
    ("p_max", "p_max must be strictly positive"),
    ("channel_gains", "client 5 has 2 channel gains"),
])
def test_bad_values_are_one_line_and_exit_2(tmp_path, scenario_file, capsys, argv, words):
    if isinstance(argv, str):
        value = -1 if argv == "p_max" else [1e-7, 1e-7]
        bad = _scenario_with(tmp_path, scenario_file, argv, value)
        argv = ["compare", "--scenario", bad, "--methods", "leap"]
    assert run([*argv, "--out", tmp_path / "o"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and words in lines[0]


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
