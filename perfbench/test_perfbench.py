"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import END_TO_END, NAME_RE, PER_LAYER, UNIT_RE, WORKLOADS, manifest

run.require_sources()

from checks import check_report  # noqa: E402


def test_names_units_and_bounds_follow_the_manifest_rules():
    names = [w.name for w in WORKLOADS] + [m.name for m in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(name) for name in names)
    assert all(UNIT_RE.match(m.unit) for m in END_TO_END + PER_LAYER)
    assert all(m.better in ("lower", "higher") for m in END_TO_END + PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    bounds = {m.name: m.bound for m in END_TO_END}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w.why) <= 200 and "\n" not in w.why for w in WORKLOADS)


def test_committed_manifest_is_current():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == manifest()


def test_self_time_on_a_synthetic_span_tree():
    Node = tracing.Node
    nodes = [
        Node("root", None, False),
        Node("a", 0, False, count=1, total=10.0, start=0.0, end=10.0),
        Node("b", 1, False, count=1, total=3.0, start=1.0, end=4.0),
        Node("c", 1, False, count=1, total=3.0, start=3.0, end=6.0),  # overlaps b
        Node("d", 1, True, count=5, total=2.0),
        Node("e", 4, True, count=9, total=0.5),
    ]
    assert tracing.self_times(nodes)[1:] == pytest.approx([10 - 5 - 2, 3, 3, 1.5, 0.5])


def test_tracer_records_spans_and_aggregates_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap(lambda x: x, "leaf", aggregate=True)
    with tracer.span("outer"):
        leaf(1)
        leaf(2)
    stats = tracer.summary()
    assert stats["outer"] == {"count": 1, "total": 5.0, "self": 3.0}
    assert stats["leaf"] == {"count": 2, "total": 2.0, "self": 2.0}
    assert tracer.count_under("leaf", "outer") == 2


def test_installed_restores_every_binding_and_lists_missing_targets():
    import leapsim.game

    original = leapsim.game.js_divergence
    apply = leapsim.game.Partition.apply
    tracer = tracing.Tracer()
    targets = tracing.TARGETS + (tracing.Target("leapsim.game", "no_such_function", "x"),)
    with tracing.installed(tracer, targets):
        assert leapsim.game.js_divergence is not original
        assert leapsim.game.Partition.apply is not apply
    assert leapsim.game.js_divergence is original
    assert leapsim.game.Partition.apply is apply
    assert tracer.missing == ["leapsim.game.no_such_function"]


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
def test_scaled_down_operation_runs_and_passes_its_checks(workload, trace, tmp_path):
    small = workload.scaled_down()
    result = run.run_workload(small, seed=3, seconds=1.0, trace=trace, work=tmp_path, n_ops=2)
    facts, metrics = result["facts"], result["metrics"]
    assert facts["failures"] == []
    expected = PER_LAYER if trace else END_TO_END
    assert list(metrics) == [m.name for m in expected]
    if not trace:
        assert all(value > 0 for value in metrics.values())
        return
    assert facts["trace_warnings"] == [] and facts["trace_missing"] == []
    assert metrics["trace.overhead"] > 0
    assert metrics["alloc.gp_iters"] > 0 and metrics["alloc.halvings"] >= 0
    if small.primary == "leap":
        assert metrics["game.certify_calls"] >= 2
        assert 0 <= metrics["game.certify_failed"] < metrics["game.certify_calls"]
        assert metrics["game.switches_priced"] > 0
    if small.train:
        s = small.scenario
        steps = s["tau_g"] * s["tau_e"] * s["n_clients"]
        assert metrics["hfl.local_train_calls"] == 2 * len(small.methods) * steps
        assert metrics["hfl.grad_calls"] == 5 * metrics["hfl.local_train_calls"]
    else:
        assert metrics["hfl.grad_calls"] == 0


def test_counts_repeat_exactly_across_runs(tmp_path):
    small = WORKLOADS[1].scaled_down()
    counts = [m.name for m in PER_LAYER if m.unit in ("count", "bytes")]
    seen = []
    for name in ("first", "second"):
        (tmp_path / name).mkdir()
        metrics = run.run_workload(
            small, seed=5, seconds=1.0, trace=True, work=tmp_path / name, n_ops=2
        )["metrics"]
        seen.append({n: metrics[n] for n in counts})
    assert seen[0] == seen[1]


def test_checks_reject_a_tampered_plan(tmp_path):
    small = WORKLOADS[0].scaled_down()
    _, seeds = run.op_seeds(7, 1)
    scenarios, paths, _, _ = run.set_up(small, [seeds[0][0]], tmp_path)
    elapsed, error = run.run_op(run.compare_argv(small, paths[0], seeds[0][1], tmp_path / "out"))
    assert error is None and elapsed > 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert check_report(report, scenarios[0], small.methods, small.zero_js, small.train) == []

    report["methods"]["leap"]["plan"]["tx_energy"][0] *= 1.5
    report["methods"]["leap"]["plan"]["per_client_feasible"][1] = False
    problems = check_report(report, scenarios[0], small.methods, small.zero_js, small.train)
    assert any("tx_energy" in p for p in problems)
    assert any("deadline flags" in p for p in problems)


def test_equal_split_reference_matches_leapsim_at_the_equal_split():
    import numpy as np
    from leapsim.alloc import deadline_powers
    from leapsim.experiment import recompute_plan
    from leapsim.scenario import generate_scenario

    scenario = generate_scenario(seed=11, **WORKLOADS[1].scaled_down().scenario)
    assignment = [n % scenario.num_edges for n in range(scenario.n_clients)]
    coalitions = [[n for n in range(scenario.n_clients) if assignment[n] == m]
                  for m in range(scenario.num_edges)]
    per_client = scenario.config.total_bandwidth / scenario.n_clients
    bandwidth = np.array([per_client * len(c) for c in coalitions])
    power, _ = deadline_powers(coalitions, scenario.clients, scenario.config, bandwidth)
    plan = recompute_plan(scenario, assignment, bandwidth.tolist(), power.tolist())
    assert run.equal_split_uplink(scenario, assignment) == pytest.approx(
        plan.uplink_energy, rel=1e-9
    )


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "game_shards", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not any(Path(tmp_path).glob(".perfbench_work/*"))
