import argparse
import ast
import base64
import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import leapsim
import leapsim.cli
from leapsim.cli import build_parser, main
from leapsim.scenario import generate_scenario

from oracles import read_scenario_ref, write_scenario_ref


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def scenario_file(tmp_path):
    out = tmp_path / "gen"
    assert run(["gen", "--seed", 7, "--clients", 12, "--edges", 3, "--out", out]) == 0
    return out / "scenario.bin"


def test_gen_writes_scenario(scenario_file):
    data, columns = read_scenario_ref(scenario_file)
    assert data["schema"] == "leapsim.scenario.v4"
    specs = data["clients"]
    assert specs["data_size"]["dtype"] == "<i8" and specs["channel_gains"]["dtype"] == "<f8"
    assert columns["data_size"].shape == (12,) and columns["channel_gains"].shape == (12, 3)


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
    assert (tmp_path / "envout" / "scenario.bin").exists()


def test_gen_dirichlet_flag(tmp_path):
    out = tmp_path / "diri"
    assert run(
        ["gen", "--seed", 2, "--clients", 8, "--edges", 2, "--dirichlet", 0.5, "--out", out]
    ) == 0
    data, _ = read_scenario_ref(out / "scenario.bin")
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
    assert len(lines) == 1 and "leapsim.scenario.v4" in lines[0]

    no_config, columns = read_scenario_ref(scenario_file)
    del no_config["config"]
    stripped = tmp_path / "noconfig.bin"
    write_scenario_ref(stripped, no_config, columns)
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
    assert len(lines) == 1 and str(bad) in lines[0]
    assert f"denominator must be 'M' or 'pairs', got {value!r}" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("which, words", [
    pytest.param("--scenario", "bin.json: not a 'leapsim.scenario.v4' file: its first line is "
                 "not a JSON header ('utf-8' codec can't decode byte 0xff", id="--scenario"),
    pytest.param("--partition", "bin.json: not UTF-8 text", id="--partition"),
])
def test_a_file_that_is_not_utf8_is_one_line_and_exit_2(
    tmp_path, scenario_file, staged, capsys, which, words
):
    capsys.readouterr()
    binary = tmp_path / "bin.json"
    binary.write_bytes(b"\xff\xfe{\x00}\n\x00\x80\x81")
    inputs = {"--scenario": scenario_file, "--partition": staged / "partition.json"}
    inputs[which] = binary
    argv = ["allocate", "--scenario", inputs["--scenario"],
            "--partition", inputs["--partition"], "--out", tmp_path / "a"]
    assert run(argv) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and words in lines[0]


def _scenario_with(tmp_path, scenario_file, keys, value):
    """A copy of the scenario file with the header entry at the path
    ``keys`` set to ``value``.  A path that goes on past a ``clients``
    column indexes the column instead, which is widened to hold ``value``
    (a float in ``data_size`` makes it a "<f8" column) and described
    anew in the header."""
    data, columns = read_scenario_ref(scenario_file)
    if keys[0] == "clients" and len(keys) > 2 and isinstance(keys[2], int):
        field, index = keys[1], tuple(keys[2:])
        array = columns[field].astype(np.result_type(columns[field], value))
        array[index] = value
        columns[field] = array
        keys, value = keys[:2], {"dtype": array.dtype.str, "shape": list(array.shape)}
    *parents, last = keys
    target = data
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / f"bad_{keys[-1]}.bin"
    write_scenario_ref(path, data, columns)
    return path


@pytest.mark.parametrize("argv, words", [
    (["gen", "--clients", 6, "--edges", 1], "n_edges >= 2"),
    (["gen", "--dirichlet", "nan"], "alpha must be finite, got nan"),
    (["gen", "--dirichlet", "inf"], "alpha must be finite, got inf"),
    (["gen", "--deadline", 5, "--deadline-slack", "nan"], "deadline_slack must be finite, got nan"),
    # integers outside the int64 range
    (["gen", "--tau-c", 2**70], f"tau_c is an integer too large for an int64, got {2**70}"),
    (["gen", "--tau-g", 2**63], f"tau_g is an integer too large for an int64, got {2**63}"),
    (["gen", "--data-size", 2**70], f"data_size is an integer too large for an int64, got {2**70}"),
    ("p_max", "p_max must be strictly positive"),
    # 12 clients and 10 classes make 960 bytes of label_counts, the last column
    pytest.param("channel_gains ragged", "label_counts: 952 bytes of data, shape [12, 10] needs 960",
                 id="channel_gains ragged row"),
])
def test_bad_values_are_one_line_and_exit_2(tmp_path, scenario_file, capsys, argv, words):
    if argv == "p_max":
        bad = _scenario_with(tmp_path, scenario_file, ("clients", "p_max", 5), -1)
        argv = ["compare", "--scenario", bad, "--methods", "leap"]
    elif argv == "channel_gains ragged":  # client 5 has 2 of the 3 gains
        header, columns = read_scenario_ref(scenario_file)
        gains = columns["channel_gains"]
        columns["channel_gains"] = np.concatenate(
            [gains[:5].ravel(), gains[5, :2], gains[6:].ravel()]
        )
        bad = tmp_path / "ragged.bin"
        write_scenario_ref(bad, header, columns)
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
    pytest.param(("config", "lambda1"), True, "lambda1 must be a number, got True",
                 id="lambda1 true"),
    pytest.param(("config", "total_bandwidth"), True, "total_bandwidth must be a number, got True",
                 id="total_bandwidth true"),
    pytest.param(("config", "lambda2"), 2**70,
                 f"lambda2 is an integer too large for an int64, got {2**70}", id="lambda2 2**70"),
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
                 "clients.p_max must be an object with keys dtype and shape, got list",
                 id="p_max v2 list"),
    pytest.param(("clients",), [], "clients must be an object, got list", id="clients list"),
    pytest.param(("clients", "extra"), {"dtype": "<f8", "shape": [0]},
                 "unexpected keyword argument 'extra'", id="extra column"),
    pytest.param(("clients", "p_max", "order"), "C",
                 "keys dtype and shape, got ['dtype', 'order', 'shape']", id="p_max extra key"),
    # 12 clients and 10 classes make 960 bytes of label_counts, the last column
    pytest.param(("clients", "p_max", "shape"), [13],
                 "label_counts: 952 bytes of data, shape [12, 10] needs 960", id="p_max one row more"),
    pytest.param(("clients", "channel_gains", "shape"), [12, 2],
                 "label_counts: 1056 bytes of data, shape [12, 10] needs 960", id="gains one column less"),
    pytest.param(("clients", "p_max", "shape"), [True],
                 "clients.p_max: shape must be a list of non-negative integers, got [true]",
                 id="p_max bool shape"),
    pytest.param(("clients", "channel_gains", "shape"), [-12, -3],
                 "clients.channel_gains: shape must be a list of non-negative integers",
                 id="gains negative shape"),
    pytest.param(("meta",), [1], "meta must be a JSON object, got [1]", id="meta list"),
    pytest.param(("meta", "deadline_slack"), NAN, "meta must hold finite numbers only",
                 id="meta NaN"),
    pytest.param(("meta", "seed"), 2**64,
                 "meta must hold finite numbers only (Integer exceeds 64-bit range)", id="meta 2**64"),
    pytest.param(("num_edges",), 3.0, "num_edges must be a JSON integer", id="num_edges 3.0"),
    pytest.param(("num_edges",), 2, "channel_gains has 3 columns, num_edges is 2",
                 id="num_edges 2"),
    pytest.param(("schema",), "leapsim.scenario.v1", "found 'leapsim.scenario.v1'", id="v1 file"),
    pytest.param(("schema",), "leapsim.scenario.v2", "found 'leapsim.scenario.v2'", id="v2 file"),
    pytest.param(("schema",), "leapsim.scenario.v3", "found 'leapsim.scenario.v3'", id="v3 file"),
    pytest.param(("extra",), 1, "the header holds ['clients', 'config', 'extra', 'meta', "
                 "'num_edges', 'schema'], not ['clients', 'config', 'meta', 'num_edges', 'schema']",
                 id="extra header key"),
    pytest.param(("config", "deadline"), 10**400, "deadline is an integer too large for a float",
                 id="deadline 1e400 integer"),
    pytest.param(("config", "tau_c"), 10**400, "tau_c is an integer too large for a float",
                 id="tau_c 1e400 integer"),
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


def test_a_v3_json_scenario_is_one_line_and_exit_2(tmp_path, scenario_file, capsys):
    # leapsim.scenario.v3 was indented JSON holding each column in base64
    header, columns = read_scenario_ref(scenario_file)
    header["schema"] = "leapsim.scenario.v3"
    for name, array in columns.items():
        header["clients"][name]["base64"] = base64.b64encode(array.tobytes()).decode("ascii")
    v3 = tmp_path / "scenario.json"
    v3.write_text(json.dumps(header, indent=2, sort_keys=True) + "\n")
    capsys.readouterr()
    assert run(["compare", "--scenario", v3, "--out", tmp_path / "o"]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and lines[0].startswith(
        f"leapsim compare: error: {v3}: not a 'leapsim.scenario.v4' file"
    )


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
    (["compare", "--lr", "inf"], "lr must be finite, got inf"),
    (["compare", "--step", 1e300], "their sum overflows float precision"),
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
    ("assignment[0]", 0.5, "assignment[0] must be an integer, got 0.5"),
    ("assignment[0]", True, "assignment[0] must be an integer, got True"),
    ("assignment[0]", "0", "assignment[0] must be an integer, got '0'"),
    ("assignment", {"0": 1}, "assignment must be a list"),
    ("num_edges", "3", "num_edges must be an integer, got '3'"),
    ("num_edges", 3.0, "num_edges must be an integer, got 3.0"),
    ("num_edges", True, "num_edges must be an integer, got True"),
    # entries past the int64 range used to end in a bare OverflowError and exit 1
    pytest.param("assignment[0]", 2**63, f"assignment[0] is an integer too large for an int64, "
                 f"got {2**63}", id="assignment 2**63"),
    pytest.param("assignment[0]", 2**64, f"assignment[0] is an integer too large for an int64, "
                 f"got {2**64}", id="assignment 2**64"),
    pytest.param("assignment[0]", 10**30, f"assignment[0] is an integer too large for an int64, "
                 f"got {10**30}", id="assignment 10**30"),
    pytest.param("assignment[0]", -1, "assignment[0] must be at least 0, got -1",
                 id="assignment -1"),
    pytest.param("num_edges", 2**63, f"num_edges is an integer too large for an int64, got {2**63}",
                 id="num_edges 2**63"),
    pytest.param("num_edges", 0, "num_edges must be at least 1, got 0", id="num_edges 0"),
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
        ("bandwidth", good["bandwidth"][:1], "bandwidth has 1 entries, expected 3"),
        ("bandwidth", None, "bandwidth must be a list of 3 numbers, got null"),
    ):
        tampered.write_text(json.dumps({**good, field: value}))
        assert run([*report, "--plan", tampered, "--out", tmp_path / "bad"]) == 2
        lines = _error_lines(capsys)
        assert len(lines) == 1 and str(tampered) in lines[0] and words in lines[0]
        assert not (tmp_path / "bad" / "metrics.json").exists()


@pytest.mark.parametrize("field, index, value, words", [
    ("power", 4, "0.5", "power[4] must be a number, got '0.5'"),
    ("bandwidth", 1, True, "bandwidth[1] must be a number, got True"),
    pytest.param("power", 2, None, "power[2] must be a number, got None", id="power null"),
    pytest.param("power", 0, 2**63, f"power[0] is an integer too large for an int64, got {2**63}",
                 id="power 2**63"),
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


@pytest.mark.parametrize("field, index, value, words", [
    ("power", 0, 0.0, "every client power must be strictly positive"),
    ("power", 5, -2, "every client power must be strictly positive"),
    ("bandwidth", 1, -1.5, "every coalition bandwidth must be strictly positive"),
])
def test_report_names_the_plan_whose_decision_is_out_of_range(
    tmp_path, scenario_file, capsys, field, index, value, words
):
    """A number that is valid JSON but not a decision ends in build_plan's
    check, and the one line names the plan file before its words."""
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
    assert _error_lines(capsys) == [f"leapsim report: error: {tampered}: {words}"]
    assert not (tmp_path / "bad" / "metrics.json").exists()


def test_coalition_and_compare_share_the_default_game_budget(
    tmp_path, scenario_file, monkeypatch
):
    import leapsim.experiment
    from leapsim.game import default_max_iters, run_coalition_formation

    budgets = []

    def recording(start, max_iters, **kwargs):
        budgets.append(max_iters)
        return run_coalition_formation(start, max_iters, **kwargs)

    # both verbs form coalitions through experiment.form_coalitions
    monkeypatch.setattr(leapsim.experiment, "run_coalition_formation", recording)
    assert run(["coalition", "--scenario", scenario_file, "--seed", 5,
                "--out", tmp_path / "c"]) == 0
    assert run(["compare", "--scenario", scenario_file, "--seed", 5, "--methods", "leap",
                "--out", tmp_path / "p"]) == 0
    assert budgets == [default_max_iters(12), default_max_iters(12)]


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
    # the plan of another partition, and a scenario of the same shape
    other = tmp_path / "other"
    assert run(["coalition", "--scenario", scenario_file, "--seed", 3, "--grouped-start",
                "--out", other]) == 0
    assert run(["gen", "--seed", 8, "--clients", 12, "--edges", 3, "--out", other]) == 0
    capsys.readouterr()
    assignments = [json.loads((d / "partition.json").read_text())["assignment"]
                   for d in (stage, other)]
    assert assignments[0] != assignments[1]

    def refused(plan_file, words, argv=report):
        assert run([*argv, "--plan", plan_file, "--out", tmp_path / "bad"]) == 2
        lines = _error_lines(capsys)
        assert len(lines) == 1 and str(plan_file) in lines[0] and words in lines[0]
        assert not (tmp_path / "bad" / "metrics.json").exists()

    plan = json.loads((stage / "plan.json").read_text())
    tampered = tmp_path / "plan.json"
    for name, value, words in (
        ("total_energy", plan["total_energy"] * (1.0 + 1e-6), "stored total_energy differs"),
        ("avg_js", plan["avg_js"] + 1e-3, "stored avg_js differs"),
        ("feasible", not plan["feasible"], "stored feasible differs"),
        ("total_energy", 10**400, "total_energy is an integer too large for a float"),
        ("utility", "1.0", "utility must be a number, got '1.0'"),
        ("uplink_energy", None, "uplink_energy must be a number, got None"),
        ("total_latency", float("nan"), "total_latency must be finite, got nan"),
        ("feasible", int(plan["feasible"]), "stored feasible differs"),
    ):
        tampered.write_text(json.dumps({**plan, name: value}))
        refused(tampered, words)
    for name in ("total_latency", "surrogate_objective", "notes"):
        tampered.write_text(json.dumps({k: v for k, v in plan.items() if k != name}))
        refused(tampered, f"malformed plan (no {name!r})")
    tampered.write_text(json.dumps({**plan, "schema": "leapsim.plan.v1"}))
    refused(tampered, "leapsim.plan.v2")

    refused(stage / "plan.json", "differs from the plan recomputed",
            ["report", "--scenario", scenario_file, "--partition", other / "partition.json"])
    refused(stage / "plan.json", "differs from the plan recomputed",
            ["report", "--scenario", other / "scenario.bin", "--partition", partition])


def test_plan_holds_the_decision_notes_and_totals(tmp_path, scenario_file):
    from leapsim.cli import PLAN_KEYS

    stage = tmp_path / "stage"
    assert run(["coalition", "--scenario", scenario_file, "--seed", 3, "--out", stage]) == 0
    assert run(["allocate", "--scenario", scenario_file, "--partition", stage / "partition.json",
                "--out", stage]) == 0
    plan = json.loads((stage / "plan.json").read_text())
    assert set(plan) == {
        "schema", "bandwidth", "power", "notes", "total_latency", "total_energy",
        "uplink_energy", "avg_js", "utility", "surrogate_objective", "feasible",
    } == {"schema", *PLAN_KEYS}
    assert plan["schema"] == "leapsim.plan.v2"
    assert len(plan["bandwidth"]) == 3 and len(plan["power"]) == 12


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


def test_partition_holds_the_association_and_the_game_run(staged):
    from leapsim.cli import PARTITION_KEYS

    partition = json.loads((staged / "partition.json").read_text())
    assert set(partition) == {"schema", *PARTITION_KEYS}


@pytest.mark.parametrize("name, verb", [
    ("partition.json", "allocate"),
    ("partition.json", "simulate"),
    ("partition.json", "report"),
    ("plan.json", "report"),
])
def test_a_key_its_writer_does_not_write_is_one_line_and_exit_2(
    tmp_path, scenario_file, staged, capsys, name, verb
):
    data = json.loads((staged / name).read_text())
    data["extra"] = 1
    (staged / name).write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "o"
    assert run([verb, *_verb_inputs(verb, scenario_file, staged), "--out", out]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and f"error: {staged / name}: unknown keys ['extra'], expected" in lines[0]
    assert not out.exists()


RUN_FIELD_REFUSALS = [
    ("avg_js", float("nan"), "avg_js must be finite, got nan"),
    ("avg_js", float("inf"), "avg_js must be finite, got inf"),
    ("avg_js", "0.1", "avg_js must be a number, got '0.1'"),
    ("avg_js", [0.1], "avg_js must be a number, got [0.1]"),
    ("avg_js", None, "avg_js must be a number, got None"),
    ("avg_js", True, "avg_js must be a number, got True"),
    ("avg_js", 10**60, "avg_js is an integer too large for an int64"),
    ("initial_avg_js", float("-inf"), "initial_avg_js must be finite, got -inf"),
    ("initial_avg_js", "x", "initial_avg_js must be a number, got 'x'"),
    ("converged", 1, "converged must be a bool, got 1"),
    ("converged", None, "converged must be a bool, got None"),
    ("converged", "true", "converged must be a bool, got 'true'"),
    ("iterations_used", -1, "iterations_used must be at least 0, got -1"),
    ("iterations_used", 2.0, "iterations_used must be an integer, got 2.0"),
    ("iterations_used", True, "iterations_used must be an integer, got True"),
    ("iterations_used", 2**63, f"iterations_used is an integer too large for an int64, got {2**63}"),
    ("seed", -1, "seed must be an integer in [0, 2**64), got -1"),
    ("seed", 2**64, f"seed must be an integer in [0, 2**64), got {2**64}"),
    ("seed", 1.0, "seed must be an integer in [0, 2**64), got 1.0"),
    ("seed", "3", "seed must be an integer in [0, 2**64), got '3'"),
]


@pytest.mark.parametrize("key, value, words", RUN_FIELD_REFUSALS,
                         ids=[f"{key}={value!r}" for key, value, _ in RUN_FIELD_REFUSALS])
@pytest.mark.parametrize("verb", ["allocate", "simulate", "report"])
def test_a_partition_run_field_of_the_wrong_kind_is_one_line_and_exit_2(
    tmp_path, scenario_file, staged, capsys, verb, key, value, words
):
    data = json.loads((staged / "partition.json").read_text())
    data[key] = value
    (staged / "partition.json").write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "o"
    assert run([verb, *_verb_inputs(verb, scenario_file, staged), "--out", out]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and f"error: {staged / 'partition.json'}: {words}" in lines[0], lines
    assert not out.exists()


@pytest.mark.parametrize("key", ["avg_js", "initial_avg_js", "converged", "iterations_used",
                                 "seed", "assignment", "num_edges"])
def test_a_partition_without_a_key_its_writer_writes_is_one_line_and_exit_2(
    tmp_path, scenario_file, staged, capsys, key
):
    data = json.loads((staged / "partition.json").read_text())
    del data[key]
    (staged / "partition.json").write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "o"
    assert run(["allocate", *_verb_inputs("allocate", scenario_file, staged), "--out", out]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1
    assert f"error: {staged / 'partition.json'}: malformed partition (no {key!r})" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.0 - 1e-6, 0.0])
def test_a_partition_whose_avg_js_is_not_its_own_is_one_line_and_exit_2(
    tmp_path, scenario_file, staged, capsys, scale
):
    data = json.loads((staged / "partition.json").read_text())
    assert data["avg_js"] > 0
    data["avg_js"] *= scale
    (staged / "partition.json").write_text(json.dumps(data))
    capsys.readouterr()
    out = tmp_path / "o"
    assert run(["allocate", *_verb_inputs("allocate", scenario_file, staged), "--out", out]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1
    assert f"error: {staged / 'partition.json'}: stored avg_js differs from the partition's" \
        in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("value, words", [
    (None, "null"),
    (float("nan"), "NaN"),
    (float("-inf"), "-Infinity"),
    (10**60, str(10**60)),
    ("a note", '"a note"'),
    ({"a": "b"}, '{"a": "b"}'),
    ([1], "[1]"),
    (["ok", None], '["ok", null]'),
    ([["nested"]], '[["nested"]]'),
], ids=repr)
def test_plan_notes_that_are_not_a_list_of_strings_are_one_line_and_exit_2(
    tmp_path, scenario_file, staged, capsys, value, words
):
    plan = json.loads((staged / "plan.json").read_text())
    tampered = tmp_path / "plan.json"
    tampered.write_text(json.dumps({**plan, "notes": value}))
    capsys.readouterr()
    out = tmp_path / "o"
    argv = ["report", *_verb_inputs("allocate", scenario_file, staged), "--plan", tampered]
    assert run([*argv, "--out", out]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1
    assert f"error: {tampered}: notes must be a list of strings, got {words}" in lines[0], lines
    assert not out.exists()


@pytest.fixture(scope="module")
def staged_once(tmp_path_factory):
    """A scenario, a partition and a plan, written once for the module."""
    stage = tmp_path_factory.mktemp("staged_once")
    assert run(["gen", "--seed", 7, "--clients", 12, "--edges", 3, "--out", stage]) == 0
    assert run(["coalition", "--scenario", stage / "scenario.bin", "--out", stage]) == 0
    assert run(["allocate", "--scenario", stage / "scenario.bin",
                "--partition", stage / "partition.json", "--out", stage]) == 0
    return stage


DELETED = object()
SWAPS = [float("nan"), float("inf"), -float("inf"), 10**60, -1, 0, 2.5, True, None, "x", [1], {}]


def _still_valid(name, key, value, original) -> bool:
    """Whether the file stays loadable with ``key`` set to ``value``
    (or deleted): the run fields need only their type, every other key
    is the decision or is audited against the rebuild from it."""
    if value is DELETED:
        return (name, key) == ("partition.json", "denominator")
    if name == "partition.json" and key == "seed":
        return type(value) is int and 0 <= value < 2**64
    if name == "partition.json" and key == "iterations_used":
        return type(value) is int and 0 <= value < 2**63
    if name == "partition.json" and key == "initial_avg_js":
        return (type(value) is float and math.isfinite(value)
                or type(value) is int and -(2**63) <= value < 2**63)
    if name == "partition.json" and key == "converged":
        return type(value) is bool
    return type(value) is type(original) and value == original


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_a_mutated_partition_or_plan_loads_only_when_it_stays_valid(staged_once, data):
    """A key deleted or its value swapped, as a mutation fuzzer does: each
    verb that reads the file exits 0 exactly when the file stays valid,
    and otherwise exits 2 with one line naming the file."""
    name = data.draw(st.sampled_from(["partition.json", "plan.json"]))
    good = json.loads((staged_once / name).read_text())
    key = data.draw(st.sampled_from(sorted(good)))
    value = data.draw(st.sampled_from([DELETED, *SWAPS]))
    mutated = {k: v for k, v in good.items() if k != key}
    if value is not DELETED:
        mutated[key] = value
    # a fresh directory per example, as in the scenario property below
    example = Path(tempfile.mkdtemp(dir=staged_once))
    path = example / name
    path.write_text(json.dumps(mutated))
    files = {"partition.json": staged_once / "partition.json",
             "plan.json": staged_once / "plan.json", name: path}
    inputs = ["--scenario", staged_once / "scenario.bin", "--partition", files["partition.json"]]
    verbs = {"report": ["report", *inputs, "--plan", files["plan.json"]]}
    if name == "partition.json":
        verbs["allocate"] = ["allocate", *inputs]
    for verb, argv in verbs.items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run([*argv, "--out", example / verb])
        lines = [line for line in err.getvalue().splitlines() if line]
        if _still_valid(name, key, value, good.get(key)):
            assert code == 0 and lines == [], (verb, key, value, lines)
        else:
            assert code == 2 and len(lines) == 1, (verb, key, value, lines)
            assert lines[0].startswith(f"leapsim {verb}: error: {path}"), lines


# values written into one slot of a client column; a float widens an
# integer column to "<f8", which the loader refuses
SLOTS = [float("nan"), float("inf"), -float("inf"), 1e300, 5e-324, 2.5, -1.0, 0.0, -1, 0, 3]


def _header_paths(header, prefix=()):
    """Every key path of a scenario header, sections and leaves alike."""
    for key, value in header.items():
        yield (*prefix, key)
        if isinstance(value, dict):
            yield from _header_paths(value, (*prefix, key))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_mutated_scenario_loads_or_is_one_line_and_exit_2(staged_once, data):
    """A header key deleted or its value swapped, one column slot
    overwritten, or one axis of a column's shape moved by one: each verb
    that reads the scenario exits 0 with nothing on stderr, or 2 with one
    line."""
    header, columns = read_scenario_ref(staged_once / "scenario.bin")
    kind = data.draw(st.sampled_from(["key", "slot", "shape"]))
    if kind == "key":
        *parents, key = data.draw(st.sampled_from(sorted(_header_paths(header))))
        value = data.draw(st.sampled_from([DELETED, *SWAPS]))
        section = header
        for parent in parents:
            section = section[parent]
        if value is DELETED:
            del section[key]
        else:
            section[key] = value
    else:
        name = data.draw(st.sampled_from(sorted(columns)))
        spec = header["clients"][name]
        if kind == "slot":
            value = data.draw(st.sampled_from(SLOTS))
            array = columns[name].astype(np.result_type(columns[name], value))
            array.flat[data.draw(st.integers(0, array.size - 1))] = value
            columns[name], spec["dtype"] = array, array.dtype.str
        else:
            spec["shape"][data.draw(st.integers(0, len(spec["shape"]) - 1))] += data.draw(
                st.sampled_from([-1, 1]))
    # a fresh directory per example: on ext4, replacing a file that exists
    # flushes it to disk, which costs tens of ms a file on a busy disk
    example = Path(tempfile.mkdtemp(dir=staged_once))
    path = example / "scenario.bin"
    write_scenario_ref(path, header, columns)
    inputs = ["--scenario", path, "--partition", staged_once / "partition.json"]
    training = ["--features", 4, "--tau-c", 2, "--tau-e", 2, "--tau-g", 3]
    for argv in (["compare", "--scenario", path], ["coalition", "--scenario", path],
                 ["allocate", *inputs], ["simulate", *inputs, *training]):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run([*argv, "--out", example / argv[0]])
        lines = [line for line in err.getvalue().splitlines() if line]
        assert (code, lines) == (0, []) or code == 2 and len(lines) == 1, (argv[0], code, lines)
        if code == 2:
            assert lines[0].startswith(f"leapsim {argv[0]}: error: "), lines


@pytest.mark.parametrize("gen_flags, coalition_flags", [
    ([], []),
    ([], ["--denominator", "pairs"]),
    ([], ["--grouped-start"]),
    (["--dirichlet", 0.3, "--classes", 20], ["--denominator", "pairs"]),
    (["--clients", 4, "--edges", 4], []),
    (["--classes", 1, "--shards", 1], []),
    (["--deadline", 1e-6], []),
], ids=repr)
def test_every_file_coalition_and_allocate_write_loads(tmp_path, gen_flags, coalition_flags):
    """Notes included: an infeasible deadline makes allocate write some."""
    for seed in range(4):
        out = tmp_path / str(seed)
        assert run(["gen", "--seed", seed, "--clients", 12, "--edges", 3, *gen_flags,
                    "--out", out]) == 0
        inputs = ["--scenario", out / "scenario.bin", "--partition", out / "partition.json"]
        assert run(["coalition", *inputs[:2], "--seed", seed, *coalition_flags,
                    "--out", out]) == 0
        assert run(["allocate", *inputs, "--out", out]) == 0
        assert run(["report", *inputs, "--plan", out / "plan.json", "--out", out]) == 0


def test_a_partition_without_its_denominator_loads_as_m(tmp_path, scenario_file, staged):
    data = json.loads((staged / "partition.json").read_text())
    assert data.pop("denominator") == "M"
    bare = tmp_path / "partition.json"
    bare.write_text(json.dumps(data))
    for partition, out in ((staged / "partition.json", tmp_path / "a"), (bare, tmp_path / "b")):
        assert run(["allocate", "--scenario", scenario_file, "--partition", partition,
                    "--out", out]) == 0
    assert (tmp_path / "a" / "plan.json").read_bytes() == (tmp_path / "b" / "plan.json").read_bytes()


@pytest.mark.parametrize("verb", ["gen", "coalition", "simulate", "compare"])
def test_a_negative_seed_is_one_line_and_exit_2(tmp_path, scenario_file, staged, capsys, verb):
    capsys.readouterr()
    out = tmp_path / "o"
    argv = [verb, *_verb_inputs(verb, scenario_file, staged), "--seed", -3, "--out", out]
    assert run(argv) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and "--seed must be an integer in [0, 2**64), got -3" in lines[0]
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


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_one_parser_serves_every_command_of_a_process(tmp_path, scenario_file):
    assert build_parser() is build_parser()
    commands = {
        "compare": ["compare", "--scenario", scenario_file, "--seed", 3],
        "compare_leap": ["compare", "--scenario", scenario_file, "--seed", 3, "--methods", "leap"],
        "gen": ["gen", "--seed", 4, "--clients", 10, "--edges", 2],
    }
    for name, args in commands.items():  # one after the other, in this process
        assert run([*args, "--out", tmp_path / "same" / name]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(leapsim.__file__).parents[1])}
    for name, args in commands.items():  # each in a fresh process
        fresh = [sys.executable, "-m", "leapsim.cli", *map(str, args),
                 "--out", str(tmp_path / "fresh" / name)]
        assert subprocess.run(fresh, env=env, capture_output=True).returncode == 0
    for name in commands:
        same, fresh = _files(tmp_path / "same" / name), _files(tmp_path / "fresh" / name)
        assert same and same == fresh, name
    assert "leap_gp_trace.csv" in _files(tmp_path / "same" / "compare")
    assert json.loads((tmp_path / "same" / "compare_leap" / "report.json").read_text())[
        "methods"].keys() == {"leap"}


def _args_read(functions: dict[str, ast.FunctionDef], name: str, seen: set[str]) -> set[str]:
    """The ``args.<dest>`` names read in cli function ``name`` and in the
    cli functions it calls.  ``main`` is not followed: it reads
    ``args.command`` and ``args.seed`` for every verb alike."""
    if name in seen or name == "main":
        return set()
    seen.add(name)
    read = set()
    for node in ast.walk(functions[name]):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "args":
            read.add(node.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in functions:
            read |= _args_read(functions, node.func.id, seen)
    return read


def test_every_flag_of_a_verb_is_read_by_its_command():
    tree = ast.parse(Path(leapsim.cli.__file__).read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    [verbs] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(verbs.choices) == {"gen", "coalition", "allocate", "simulate", "report", "compare"}
    unread = {}
    for verb, parser in verbs.choices.items():
        command = parser.get_default("func").__name__
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        never = dests - {"command", "func"} - _args_read(functions, command, set())
        if never:
            unread[verb] = sorted(never)
    assert unread == {}, f"flags their command never reads: {unread}"


def test_every_generate_scenario_option_is_a_gen_flag():
    tree = ast.parse(Path(leapsim.cli.__file__).read_text(encoding="utf-8"))
    [cmd_gen] = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "cmd_gen"]
    [call] = [node for node in ast.walk(cmd_gen) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name) and node.func.id == "generate_scenario"]
    passed = {keyword.arg for keyword in call.keywords}
    assert set(inspect.signature(generate_scenario).parameters) - passed == set()


@pytest.mark.parametrize("verb", ["gen", "coalition", "simulate", "compare"])
def test_a_seed_of_2_to_the_64_is_one_line_and_exit_2(
    tmp_path, scenario_file, staged, capsys, verb
):
    capsys.readouterr()
    out = tmp_path / "o"
    argv = [verb, *_verb_inputs(verb, scenario_file, staged), "--seed", 2**64, "--out", out]
    assert run(argv) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and f"--seed must be an integer in [0, 2**64), got {2**64}" in lines[0]
    assert not out.exists()


def test_the_largest_seed_is_written_as_it_is(tmp_path):
    assert run(["gen", "--seed", 2**64 - 1, "--clients", 4, "--edges", 2, "--out", tmp_path]) == 0
    assert read_scenario_ref(tmp_path / "scenario.bin")[0]["meta"]["seed"] == 2**64 - 1


@pytest.mark.parametrize("text, words", [
    ("NaN", "power[0] must be finite, got nan"),
    ("-Infinity", "power[0] must be finite, got -inf"),
    ("1e400", "power[0] must be finite, got inf"),
    ("1" + "0" * 400, "power[0] is an integer too large for a float"),
    # more digits than int() converts by default (4300)
    ("1" + "0" * 5000, "not valid JSON (Exceeds the limit"),
])
def test_report_rejects_plan_values_that_are_not_finite(
    tmp_path, scenario_file, staged, capsys, text, words
):
    capsys.readouterr()
    plan = json.loads((staged / "plan.json").read_text())
    tampered = tmp_path / "plan.json"
    tampered.write_text(json.dumps(plan).replace(json.dumps(plan["power"][0]), text, 1))
    out = tmp_path / "bad"
    argv = ["report", *_verb_inputs("allocate", scenario_file, staged), "--plan", tampered]
    assert run([*argv, "--out", out]) == 2
    lines = _error_lines(capsys)
    assert len(lines) == 1 and str(tampered) in lines[0] and words in lines[0]
    assert not out.exists()


def _with_fields(path, edits):
    """Rewrite the scenario file at ``path`` with each (section, name) of
    ``edits`` set to its value, a client column to that value throughout."""
    data, columns = read_scenario_ref(path)
    for (section, name), value in edits.items():
        if section == "clients":
            columns[name] = np.full_like(columns[name], value)
        else:
            data[section][name] = value
    write_scenario_ref(path, data, columns)


# (gen flags, scenario edits, solver flags, the exit code of each verb);
# report runs only on a plan that allocate wrote
DEGENERATE = [
    pytest.param(["--clients", 4, "--edges", 4], {}, [],
                 {"coalition": 0, "allocate": 0, "report": 0, "compare": 0},
                 id="single-member coalitions"),
    pytest.param(["--classes", 1, "--shards", 1], {}, [],
                 {"coalition": 0, "allocate": 0, "report": 0, "compare": 0}, id="K=1"),
    pytest.param(["--deadline", 1e-6], {}, [],
                 {"coalition": 0, "allocate": 0, "report": 0, "compare": 0},
                 id="infeasible deadline"),
    pytest.param([], {("clients", "channel_gains"): 1e300}, [],
                 {"coalition": 0, "allocate": 0, "report": 0, "compare": 0}, id="gains 1e300"),
    pytest.param([], {("clients", "channel_gains"): 1e-300}, [],
                 {"coalition": 0, "allocate": 2, "compare": 2}, id="gains 1e-300"),
    pytest.param([], {("clients", "channel_gains"): 5e-324}, [],
                 {"coalition": 0, "allocate": 2, "compare": 2}, id="gains 5e-324"),
    pytest.param([], {("config", "model_size"): 1e-300}, [],
                 {"coalition": 0, "allocate": 0, "report": 0, "compare": 0},
                 id="model_size 1e-300"),
    pytest.param([], {("config", "noise_power"): 1e-320}, [],
                 {"coalition": 0, "allocate": 0, "report": 0, "compare": 0},
                 id="noise_power 1e-320"),
    pytest.param([], {("clients", "cycles_per_item"): 1e300, ("clients", "cpu_freq"): 1e-300}, [],
                 {"coalition": 0, "allocate": 2, "compare": 2}, id="latency overflow"),
    pytest.param([], {("clients", "cpu_freq"): 1e200}, [],
                 {"coalition": 0, "allocate": 2, "compare": 2}, id="energy overflow"),
    # the projection of the equal split onto the simplex is off by an ulp at
    # M = 7, which this step size turns into an infinite projected-gradient norm
    pytest.param(["--clients", 7, "--edges", 7, "--seed", 1], {}, ["--step", 5e-324],
                 {"coalition": 0, "allocate": 2, "compare": 0}, id="step 5e-324"),
    pytest.param(["--clients", 8], {}, ["--step", 1e300],
                 {"coalition": 0, "allocate": 2, "compare": 2}, id="step 1e300"),
]


@pytest.mark.parametrize("gen_flags, edits, gp_flags, codes", DEGENERATE)
def test_degenerate_inputs_end_in_one_line_or_in_finite_files(
    tmp_path, capsys, finite_json, gen_flags, edits, gp_flags, codes
):
    """Each verb exits 2 with one line, or exits 0 having written no NaN
    or infinity (``finite_json`` checks every payload)."""
    gen = tmp_path / "gen"
    assert run(["gen", "--seed", 7, "--clients", 12, "--edges", 3, *gen_flags, "--out", gen]) == 0
    scenario = gen / "scenario.bin"
    _with_fields(scenario, edits)
    stage, compared = tmp_path / "stage", tmp_path / "compare"
    partition = ["--scenario", scenario, "--partition", stage / "partition.json"]
    verbs = {
        "coalition": ["coalition", "--scenario", scenario, "--out", stage],
        "allocate": ["allocate", *partition, *gp_flags, "--out", stage],
        "report": ["report", *partition, "--plan", stage / "plan.json", "--out", stage],
        "compare": ["compare", "--scenario", scenario, *gp_flags, "--out", compared],
    }
    capsys.readouterr()
    found = {}
    # no np.errstate here: a numpy warning on the way to a refusal would
    # fail the test (warnings are errors) and is never printed by the CLI
    for verb, argv in verbs.items():
        if verb == "report" and found["allocate"] != 0:
            continue
        found[verb] = run(argv)
        lines = _error_lines(capsys)
        assert lines == [] if found[verb] == 0 else (
            len(lines) == 1 and lines[0].startswith(f"leapsim {verb}: error: ")
        ), lines
    assert found == codes
    assert (compared / "report.json").exists() == (codes["compare"] == 0)
    # gen's scenario, and the one JSON file of each verb that exits 0
    assert len(finite_json) == 1 + sum(code == 0 for code in found.values())
