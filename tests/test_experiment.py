import csv
import json

import numpy as np
import pytest

from leapsim.experiment import (
    METHODS,
    emit_report,
    load_report,
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
    with pytest.raises(ValueError):
        run_experiment(scenario, methods=["leap", "magic"])


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


def test_report_roundtrip(tmp_path, report):
    paths = emit_report(report, tmp_path)
    loaded = load_report(tmp_path / "report.json")
    assert loaded.to_dict() == report.to_dict()
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

    rep = run_experiment(
        sc,
        methods=["leap", "random_assoc"],
        master_seed=1,
        train=True,
        train_options=TrainOptions(n_features=4, tau_c=2, tau_e=2, tau_g=3, lr=0.1),
    )
    for name in ("leap", "random_assoc"):
        assert len(rep.methods[name].accuracy) == 3
