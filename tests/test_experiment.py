import csv
import dataclasses
import json
import re

import numpy as np
import pytest

from leapsim import experiment
from leapsim.alloc import NonFiniteInputError
from leapsim.errors import InvalidPartitionError, InvalidValueError
from leapsim.experiment import (
    METHODS,
    TrainOptions,
    emit_report,
    recompute_plan,
    run_experiment,
)
from leapsim.scenario import generate_scenario


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(seed=21, n_clients=15, n_edges=3)


@pytest.fixture(scope="module")
def report(scenario):
    return run_experiment(scenario, master_seed=5)


def test_all_methods_present(report):
    assert set(report.methods) == set(METHODS)


def test_single_method_report_has_one_section(scenario):
    solo = run_experiment(scenario, methods=["leap"], master_seed=5)
    assert list(solo.methods) == ["leap"]


def test_unknown_method_rejected(scenario):
    with pytest.raises(InvalidValueError, match="magic"):
        run_experiment(scenario, methods=["leap", "magic"])


@pytest.mark.parametrize("max_iters, words", [
    (2.5, "max_iters must be an integer, got 2.5"),
    (True, "max_iters must be an integer, got True"),
    (0, "max_iters must be at least 1, got 0"),
])
def test_game_budget_is_checked_when_no_method_plays_the_game(scenario, max_iters, words):
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        run_experiment(scenario, methods=["random_assoc"], game_max_iters=max_iters)


@pytest.mark.parametrize("seed", [True, -1, 1.5, 2**64, np.float64(3), "7", None])
def test_master_seed_outside_the_cli_seed_range_is_refused(scenario, seed):
    # True was recorded in report.json as true; -1, 1.5 and None ended in numpy's errors
    words = f"master_seed must be an integer in [0, 2**64), got {seed!r}"
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        run_experiment(scenario, methods=["random_assoc"], master_seed=seed)


def test_master_seed_takes_the_whole_cli_seed_range(scenario):
    # past check_integer's int64 cap, and numpy integers recorded as plain ints
    for seed in (2**64 - 1, np.uint64(2**64 - 1), np.int32(5)):
        rep = run_experiment(scenario, methods=["random_assoc"], master_seed=seed)
        assert type(rep.master_seed) is int and rep.master_seed == seed
    numpy_seed = run_experiment(scenario, methods=["random_assoc"], master_seed=np.int32(5))
    plain_seed = run_experiment(scenario, methods=["random_assoc"], master_seed=5)
    assert numpy_seed.to_dict() == plain_seed.to_dict()


def test_leap_never_worse_than_random_association(scenario):
    # the improvement loop only ever accepts strictly improving switches
    for seed in range(5):
        rep = run_experiment(
            scenario, methods=["leap", "random_assoc"], master_seed=seed
        )
        assert rep.methods["leap"].avg_js <= rep.methods["random_assoc"].avg_js + 1e-12


def test_weights_echoed(report):
    assert report.weights == {"lambda1": 1.0, "lambda2": 1.0}


def test_game_trace_monotone_in_report(report):
    entries = report.methods["leap"].game_trace["entries"]
    values = [row[4] for row in entries]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_gp_trace_monotone_in_report(report):
    for name in ("leap", "random_assoc"):
        values = report.methods[name].gp_trace["objective_values"]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_baselines_share_the_formed_partition(report):
    leap = report.methods["leap"].assignment
    for name in ("rb", "rp", "rb_rp", "equal_split"):
        assert report.methods[name].assignment == leap


def test_each_method_runs_the_stages_it_is_defined_by(scenario, report):
    """leap and random_assoc run the full pipeline on their own association;
    the other methods keep the formed coalitions and replace the bandwidth,
    the power or both, each reporting only the seed streams it draws from."""
    trained = run_experiment(
        scenario, master_seed=5,
        train_options=TrainOptions(n_features=4, tau_c=1, tau_e=1, tau_g=2),
    )
    full = {"leap", "random_assoc"}
    for rep in (report, trained):
        m = rep.methods
        assert m["rp"].plan["bandwidth"] == m["leap"].plan["bandwidth"]
        total, n_edges = scenario.config.total_bandwidth, scenario.num_edges
        assert m["equal_split"].plan["bandwidth"] == [total / n_edges] * n_edges
        assert {name for name, r in m.items() if r.gp_trace is not None} == full
        assert {name for name, r in m.items() if r.game_trace is not None} == {"leap"}
        assert {name: set(r.seeds) for name, r in m.items()} == {
            "leap": {"init_partition", "game"},
            "random_assoc": {"association"},
            "equal_split": set(),
            "rb": {"rb_bandwidth"},
            "rp": {"rp_power"},
            "rb_rp": {"rb_rp_bandwidth", "rb_rp_power"},
        }
    assert all(r.accuracy is None for r in report.methods.values())
    assert {name for name, r in trained.methods.items() if r.accuracy is not None} == full


def test_rb_bandwidth_sums_to_total(scenario, report):
    for name in ("rb", "rb_rp"):
        bw = np.asarray(report.methods[name].plan["bandwidth"])
        assert bw.sum() == pytest.approx(scenario.config.total_bandwidth, rel=1e-9)
        assert np.all(bw > 0)


def test_rp_power_within_caps(scenario, report):
    for name in ("rp", "rb_rp"):
        power = np.asarray(report.methods[name].plan["power"])
        caps = np.asarray([c.p_max for c in scenario.clients])
        assert np.all(power > 0) and np.all(power <= caps)


def test_audit_metrics_recomputable_from_plan(scenario, report):
    for name, m in report.methods.items():
        plan = recompute_plan(
            scenario, m.assignment, m.plan["bandwidth"], m.plan["power"]
        )
        fresh = plan.to_dict()
        for key in ("total_latency", "total_energy", "uplink_energy", "utility", "avg_js"):
            assert fresh[key] == pytest.approx(m.plan[key], rel=1e-9), (name, key)
        assert fresh["feasible"] == m.plan["feasible"]


def test_recompute_plan_refuses_an_assignment_it_would_have_cast(scenario, report):
    m = report.methods["leap"]
    for assignment in ([float(a) for a in m.assignment], [str(a) for a in m.assignment]):
        with pytest.raises(InvalidPartitionError, match="an assignment must be a 1-D integer array"):
            recompute_plan(scenario, assignment, m.plan["bandwidth"], m.plan["power"])


def test_report_roundtrip(tmp_path, report):
    paths = emit_report(report, tmp_path)
    assert json.loads((tmp_path / "report.json").read_text()) == report.to_dict()
    assert any(p.name == "summary.csv" for p in paths)


def test_csv_row_counts_match_traces(tmp_path, report):
    emit_report(report, tmp_path)

    def rows(name):
        return list(csv.reader((tmp_path / name).read_text().splitlines()))

    # comment line + header + entries
    assert len(rows("leap_game_trace.csv")) - 2 == len(report.methods["leap"].game_trace["entries"])
    assert len(rows("leap_gp_trace.csv")) - 2 == len(
        report.methods["leap"].gp_trace["objective_values"]
    )
    assert len(rows("summary.csv")) - 2 == len(report.methods)


def test_schema_version_in_every_file(tmp_path, report):
    paths = emit_report(report, tmp_path)
    for path in paths:
        if path.suffix == ".json":
            assert "schema" in json.loads(path.read_text())
        else:
            assert path.read_text().startswith("# schema=")


def test_experiment_deterministic(scenario):
    a = run_experiment(scenario, master_seed=33)
    b = run_experiment(scenario, master_seed=33)
    assert a.to_dict() == b.to_dict()
    c = run_experiment(scenario, master_seed=34)
    assert c.to_dict() != a.to_dict()


def test_training_curves_attached_when_requested():
    sc = generate_scenario(seed=2, n_clients=8, n_edges=2, data_size=30)
    from leapsim.experiment import TrainOptions

    methods = ["leap", "random_assoc", "rb"]
    rep = run_experiment(
        sc,
        methods=methods,
        master_seed=1,
        train_options=TrainOptions(n_features=4, tau_c=2, tau_e=2, tau_g=3, lr=0.1),
    )
    # one curve per full-pipeline method, none for a baseline
    curves = {name: m.accuracy for name, m in rep.methods.items() if m.accuracy is not None}
    assert {name: len(curve) for name, curve in curves.items()} == {"leap": 3, "random_assoc": 3}
    untrained = run_experiment(sc, methods=methods, master_seed=1)
    assert all(m.accuracy is None for m in untrained.methods.values())
    for name, m in untrained.methods.items():
        m.accuracy = rep.methods[name].accuracy
    assert untrained.to_dict() == rep.to_dict()


@pytest.mark.parametrize("field, value", [
    ("n_features", 0), ("lr", 0.0), ("lr", -1.0), ("lr", float("nan")),
    ("lr", float("inf")), ("class_sep", float("nan")), ("class_sep", float("-inf")),
    ("noise", float("inf")), ("noise", float("nan")),
    pytest.param("lr", 10**400, id="lr-10**400"), ("lr", True),
    ("tau_c", 0), ("tau_e", -2), ("tau_g", 0),
])
def test_train_options_reject_values_outside_their_domain(field, value):
    with pytest.raises(InvalidValueError, match=field):
        TrainOptions(**{field: value})


@pytest.mark.parametrize("field", ["n_features", "tau_c", "tau_e", "tau_g"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(3.0), "2"], ids=repr)
def test_train_options_refuse_counts_that_are_not_integers(field, value):
    with pytest.raises(InvalidValueError, match=f"{field} must be an integer, got"):
        TrainOptions(**{field: value})


def test_train_options_take_numpy_integer_counts_and_need_a_feature_count():
    opts = TrainOptions(n_features=np.int64(4), tau_c=np.uint8(2), tau_e=np.int32(1))
    assert (opts.n_features, opts.tau_c, opts.tau_e, opts.tau_g) == (4, 2, 1, None)
    with pytest.raises(InvalidValueError, match="n_features must be an integer, got None"):
        TrainOptions(n_features=None)


def test_only_none_defers_a_training_period_to_the_scenario(scenario):
    config = scenario.config
    assert TrainOptions().periods(config) == {
        "tau_c": config.tau_c, "tau_e": config.tau_e, "tau_g": config.tau_g
    }
    assert TrainOptions(tau_c=1, tau_g=2).periods(config) == {
        "tau_c": 1, "tau_e": config.tau_e, "tau_g": 2
    }


def test_an_uplink_ratio_beyond_the_float_range_is_refused(scenario, monkeypatch):
    solve = experiment.plan_full

    def subnormal_uplink(*args, **kwargs):
        plan, trace = solve(*args, **kwargs)
        return dataclasses.replace(plan, uplink_energy=5e-324), trace

    monkeypatch.setattr(experiment, "plan_full", subnormal_uplink)
    with pytest.raises(NonFiniteInputError, match="uplink energy ratio"):
        run_experiment(scenario, methods=["leap", "rp"], master_seed=5)
