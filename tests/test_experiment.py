import csv
import dataclasses
import gc
import json
import os
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leapsim import experiment
from leapsim.alloc import NonFiniteInputError
from leapsim.cli import main
from leapsim.errors import (
    InvalidPartitionError,
    InvalidValueError,
    LeapsimError,
    TrainingDivergedError,
)
from leapsim.experiment import (
    METHODS,
    TrainOptions,
    emit_report,
    recompute_plan,
    run_experiment,
    train_curves,
)
from leapsim.files import json_bytes
from leapsim.game import random_partition
from leapsim.netmodel import check_deadline
from leapsim.scenario import generate_scenario, save_scenario


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
    assert json_bytes(numpy_seed.to_dict()) == json_bytes(plain_seed.to_dict())


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
        assert np.array_equal(report.methods[name].assignment, leap)


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
        assert np.array_equal(m["rp"].plan["bandwidth"], m["leap"].plan["bandwidth"])
        total, n_edges = scenario.config.total_bandwidth, scenario.num_edges
        assert np.array_equal(m["equal_split"].plan["bandwidth"], [total / n_edges] * n_edges)
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
    assert (tmp_path / "report.json").read_bytes() == json_bytes(report.to_dict())
    assert any(p.name == "summary.csv" for p in paths)


def test_a_large_report_keeps_its_columns_as_arrays():
    """At N=4000, M=40 the per-client columns of one method stay numpy
    arrays: the report keeps ~0.26 MB, where the same columns as lists of
    Python floats kept ~0.95 MB."""
    scenario = generate_scenario(seed=1, n_clients=4000, n_edges=40, shards=2)
    run_experiment(scenario, methods=["random_assoc"])  # fill the module caches first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run_experiment(scenario, methods=["random_assoc"])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 400_000, retained
    method = report.methods["random_assoc"]
    assert isinstance(method.assignment, np.ndarray)
    assert isinstance(method.plan["client_latency"], np.ndarray)


@pytest.mark.parametrize("formats, unknown", [
    (("xml",), ["xml"]),
    (("json", "xml"), ["xml"]),
    (("JSON", "csv", ""), ["JSON", ""]),
], ids=["xml", "json_xml", "case_and_empty"])
def test_emit_report_refuses_a_format_it_does_not_know(tmp_path, report, formats, unknown):
    # it used to write nothing for ("xml",) and return []
    words = f"unknown report formats {unknown}; expected a subset of ('json', 'csv')"
    out = tmp_path / "o"
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        emit_report(report, out, formats=formats)
    assert not out.exists()


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
    assert json_bytes(a.to_dict()) == json_bytes(b.to_dict())
    c = run_experiment(scenario, master_seed=34)
    assert json_bytes(c.to_dict()) != json_bytes(a.to_dict())


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
    assert json_bytes(untrained.to_dict()) == json_bytes(rep.to_dict())


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


# -- training runs in forked children -------------------------------------------

SMALL_TRAINING = TrainOptions(n_features=4, tau_c=2, tau_e=2, tau_g=3, lr=0.1)  # 96 steps at N=8


@pytest.fixture(scope="module")
def small():
    return generate_scenario(seed=2, n_clients=8, n_edges=2, data_size=30)


def small_partitions(scenario, count):
    return [
        random_partition(scenario.clients.label_counts, 2, np.random.default_rng(s))
        for s in range(count)
    ]


def force_forks(monkeypatch, cpus=2, min_steps=1):
    """Let train_curves fork for runs of ``min_steps`` client steps as if
    this process had ``cpus`` CPUs (None: no ``os.sched_getaffinity``);
    returns the list of the forks this process makes."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(experiment, "FORK_MIN_STEPS", min_steps)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fail_in_run(monkeypatch, partition, failure):
    """Make experiment.run_hfl call ``failure()`` for ``partition`` alone;
    a forked child inherits the patch."""
    run = experiment.run_hfl

    def run_or_fail(part, *args, **kwargs):
        return failure() if part is partition else run(part, *args, **kwargs)

    monkeypatch.setattr(experiment, "run_hfl", run_or_fail)


@pytest.mark.parametrize("runs, cpus, min_steps, forked", [
    (3, 2, 1, 1),  # one child trains the second run and then the third
    (3, 3, 1, 1),  # however many CPUs there are
    (2, 2, 96, 1),  # a run of these options takes 96 client steps
    (2, 2, 97, 0),
    (1, 2, 1, 0),
    (2, 1, 1, 0),
    (2, None, 1, 0),
])
def test_forked_training_gives_the_serial_curves(
    small, monkeypatch, runs, cpus, min_steps, forked
):
    partitions = small_partitions(small, runs)
    serial = train_curves(small, partitions, SMALL_TRAINING, 4, 5)
    assert len({tuple(curve) for curve in serial}) == runs  # a swapped curve would show
    forks = force_forks(monkeypatch, cpus, min_steps)
    assert train_curves(small, partitions, SMALL_TRAINING, 4, 5) == serial
    assert len(forks) == forked
    assert_no_child_left()


def test_compare_train_writes_the_same_bytes_with_a_forked_run(small, tmp_path, monkeypatch):
    save_scenario(small, tmp_path / "scenario.bin")

    def compare(out):
        assert main([
            "compare", "--scenario", str(tmp_path / "scenario.bin"), "--seed", "3", "--train",
            "--features", "4", "--tau-c", "2", "--tau-e", "2", "--tau-g", "3",
            "--out", str(out),
        ]) == 0
        return {path.name: path.read_bytes() for path in out.iterdir()}

    serial = compare(tmp_path / "serial")
    forks = force_forks(monkeypatch)
    assert compare(tmp_path / "forked") == serial
    assert len(forks) == 1
    methods = json.loads(serial["report.json"])["methods"]
    assert [len(methods[name]["accuracy"]) for name in ("leap", "random_assoc")] == [3, 3]
    assert_no_child_left()


class NeedsTwoArguments(Exception):
    """Pickles, but its one stored argument does not unpickle."""

    def __init__(self, first, second):
        super().__init__(f"{first} and {second}")


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("no pickling")


@pytest.mark.parametrize("error, surfaced", [
    (TrainingDivergedError("training diverged; lower the learning rate"), None),
    (InvalidValueError("client 3: features must be a 2-D array of real numbers"), None),
    (NeedsTwoArguments("one", "two"), RuntimeError("NeedsTwoArguments: one and two")),
    (Unpicklable("words"), RuntimeError("Unpicklable: words")),
], ids=["diverged", "invalid", "no unpickling", "no pickling"])
def test_an_error_in_the_childs_run_alone_surfaces_in_this_process(
    small, monkeypatch, error, surfaced
):
    partitions = small_partitions(small, 2)

    def fail():
        raise error

    fail_in_run(monkeypatch, partitions[1], fail)
    with pytest.raises(type(error)) as serial:
        train_curves(small, partitions, SMALL_TRAINING, 4, 5)
    forks = force_forks(monkeypatch)
    surfaced = surfaced or error
    with pytest.raises(type(surfaced)) as forked:
        train_curves(small, partitions, SMALL_TRAINING, 4, 5)
    assert len(forks) == 1
    assert (str(serial.value), str(forked.value)) == (str(error), str(surfaced))
    assert_no_child_left()


def test_a_child_that_dies_without_a_result_is_an_error(small, monkeypatch):
    partitions = small_partitions(small, 2)
    parent = os.getpid()

    def die():
        assert os.getpid() != parent, "the second run trained in this process"
        os._exit(3)

    fail_in_run(monkeypatch, partitions[1], die)
    force_forks(monkeypatch)
    words = "^a training child exited with code 3 and sent no result$"
    with pytest.raises(RuntimeError, match=words):
        train_curves(small, partitions, SMALL_TRAINING, 4, 5)
    assert_no_child_left()


def test_an_error_in_this_processs_run_kills_and_reaps_the_child(small, monkeypatch):
    partitions = small_partitions(small, 2)

    def diverge():
        raise TrainingDivergedError("training diverged; lower the learning rate")

    fail_in_run(monkeypatch, partitions[1], lambda: time.sleep(60))  # the child would hang
    fail_in_run(monkeypatch, partitions[0], diverge)
    forks = force_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(TrainingDivergedError, match="^training diverged; lower the learning rate$"):
        train_curves(small, partitions, SMALL_TRAINING, 4, 5)
    assert time.monotonic() - start < 30
    assert len(forks) == 1
    assert_no_child_left()


def raising(error):
    def fail():
        raise error
    return fail


@pytest.mark.parametrize("failures", [
    {2: TrainingDivergedError("training diverged; lower the learning rate")},
    {1: InvalidValueError("the second run failed"), 2: TrainingDivergedError("the third run")},
], ids=["second_run_only", "both_runs"])
def test_the_first_error_of_the_childs_runs_in_partition_order_surfaces(
    small, monkeypatch, failures
):
    """The child trains the second run and then the third; the error of the
    first to fail surfaces here, as on the serial path."""
    partitions = small_partitions(small, 3)
    for i, error in failures.items():
        fail_in_run(monkeypatch, partitions[i], raising(error))
    first = failures[min(failures)]
    words = f"^{re.escape(str(first))}$"
    with pytest.raises(type(first), match=words):
        train_curves(small, partitions, SMALL_TRAINING, 4, 5)
    forks = force_forks(monkeypatch)
    with pytest.raises(type(first), match=words):
        train_curves(small, partitions, SMALL_TRAINING, 4, 5)
    assert len(forks) == 1
    assert_no_child_left()


def test_an_error_in_this_processs_run_kills_the_child_holding_two_runs(small, monkeypatch):
    partitions = small_partitions(small, 3)
    for partition in partitions[1:]:
        fail_in_run(monkeypatch, partition, lambda: time.sleep(30))  # 60 s in the child
    diverge = raising(TrainingDivergedError("training diverged; lower the learning rate"))
    fail_in_run(monkeypatch, partitions[0], diverge)
    forks = force_forks(monkeypatch)
    start = time.monotonic()
    with pytest.raises(TrainingDivergedError, match="^training diverged; lower the learning rate$"):
        train_curves(small, partitions, SMALL_TRAINING, 4, 5)
    assert time.monotonic() - start < 15
    assert len(forks) == 1
    assert_no_child_left()


# (part of the scenario, field, value): one field pushed to an extreme
EXTREMES = [
    ("clients", "channel_gains", 1e-300),
    ("clients", "p_max", 1e-300),
    ("config", "total_bandwidth", 1e-300),
    ("config", "total_bandwidth", 1e300),
    ("config", "capacitance", 1e300),
    ("clients", "cpu_freq", 1e300),
    ("config", "lambda2", 1e300),
    ("config", "deadline", 1e-300),
    ("config", "deadline", 1e300),
]
# one shape at an edge: M = N, K = 1, or N = M + 1, where every partition
# has M - 1 single-member coalitions
SHAPE_EDGES = ["m_equals_n", "one_class", "single_members"]


@st.composite
def degenerate_scenarios(draw, case):
    """A scenario of at most 7 clients with ``case``, an entry of EXTREMES
    or of SHAPE_EDGES, applied to it."""
    n = draw(st.integers(2, 6))
    m, k = draw(st.integers(2, max(2, n))), draw(st.integers(1, 4))
    if case == "m_equals_n":
        m = n
    elif case == "one_class":
        k = 1
    elif case == "single_members":
        n = m + 1
    dirichlet = draw(st.booleans())
    scenario = generate_scenario(
        draw(st.integers(0, 2**32)), n, m, n_classes=k, data_size=8,
        shards=None if dirichlet else min(2, k), dirichlet_alpha=0.3 if dirichlet else None,
    )
    if case in SHAPE_EDGES:
        return scenario
    where, name, value = case
    part = getattr(scenario, where)
    if where == "clients":
        value = np.full_like(getattr(part, name), value, dtype=float)
    return dataclasses.replace(scenario, **{where: dataclasses.replace(part, **{name: value})})


@pytest.mark.parametrize(
    "case", EXTREMES + SHAPE_EDGES,
    ids=[f"{name}={value:g}" for _, name, value in EXTREMES] + SHAPE_EDGES,
)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), master_seed=st.integers(0, 2**32))
def test_degenerate_planner_instances_end_typed_or_valid(case, data, master_seed):
    """Every method ends in a LeapsimError or in plans whose deadline flags
    are check_deadline's of their client latencies.

    It runs under np.errstate(all="ignore"), as ``cli.main`` does: several
    of these instances overflow or divide by zero on the way to their
    typed error, and the suite's filterwarnings = error would raise
    numpy's RuntimeWarnings instead."""
    scenario = data.draw(degenerate_scenarios(case))
    with np.errstate(all="ignore"):
        try:
            report = run_experiment(scenario, master_seed=master_seed)
        except LeapsimError:
            return
        for name, method in report.methods.items():
            ok, feasible = check_deadline(method.plan["client_latency"], scenario.config)
            assert np.array_equal(ok, method.plan["per_client_feasible"]), name
            assert feasible is method.feasible, name
