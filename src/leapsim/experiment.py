"""Experiment orchestration: optimized pipeline versus baselines.

The full pipeline ("leap") chains the three solvers: coalition
formation for the association, gradient projection for the bandwidth
split, closed-form deadline power per client.  Each baseline replaces
one stage or two; ``METHOD_STAGES`` is the one definition of every
method's association, bandwidth and power, and ``run_experiment``
builds every method from it along one code path.

Deadline violations are reported per client, never repaired.  Every
random stream derives from one master seed in a fixed order, so a
report is a pure function of (scenario, methods, master seed).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .alloc import GPConfig, GPTrace, NonFiniteInputError, build_plan, deadline_powers, plan_full
from .errors import InvalidValueError, check_integer, check_number, check_seed
from .files import fields_dict, write_csv, write_json
from .game import (
    GameTrace,
    Partition,
    default_max_iters,
    random_partition,
    run_coalition_formation,
)
from .hfl import SyntheticDataset, run_hfl
from .netmodel import AllocationPlan, NetworkConfig
from .scenario import Scenario, label_count_matrix, shard_grouped_partition

__all__ = [
    "REPORT_SCHEMA",
    "METHOD_STAGES",
    "METHODS",
    "FORMATS",
    "TrainOptions",
    "MethodResult",
    "ExperimentReport",
    "form_coalitions",
    "run_experiment",
    "train_curves",
    "emit_report",
    "write_game_trace",
    "write_gp_trace",
    "write_accuracy",
    "recompute_plan",
]

REPORT_SCHEMA = "leapsim.report.v1"

# Each method's (association, bandwidth, power).  "game": the coalitions
# the game forms; "gp": plan_full's split on the method's association;
# "equal": total/M per edge; "deadline": closed-form deadline power.  Any
# other entry names the seed stream of a random draw: a random association,
# a split uniform on the simplex, or a power uniform on (0, p_max] per client.
# A "gp" + "deadline" method is the full pipeline on its association: only
# it reports the game and solver traces, the association's seeds and an
# accuracy curve.  The others report the seed streams they draw from.
METHOD_STAGES = {
    "leap": ("game", "gp", "deadline"),
    "random_assoc": ("random_assoc", "gp", "deadline"),
    "equal_split": ("game", "equal", "deadline"),
    "rb": ("game", "rb_bandwidth", "deadline"),
    "rp": ("game", "gp", "rp_power"),
    "rb_rp": ("game", "rb_rp_bandwidth", "rb_rp_power"),
}

METHODS = tuple(METHOD_STAGES)
FORMATS = ("json", "csv")

# fixed-order seed block so each stream is independent of which
# methods were requested
_SEED_STREAMS = (
    "init_partition", "game", "random_assoc", "rb_bandwidth", "rp_power",
    "rb_rp_bandwidth", "rb_rp_power", "training_data",
)

_PERIODS = ("tau_c", "tau_e", "tau_g")


@dataclass
class TrainOptions:
    """Knobs for the toy training comparison; a tau of None defers to the scenario.

    ``n_features`` and each tau that is set must be an integer >= 1.
    """

    n_features: int = 16
    class_sep: float = 2.0
    noise: float = 1.0
    lr: float = 0.2
    tau_c: int | None = None
    tau_e: int | None = None
    tau_g: int | None = None

    def __post_init__(self):
        for name in ("class_sep", "noise", "lr"):
            check_number(name, getattr(self, name))
        if not self.lr > 0:
            raise InvalidValueError(f"lr must be strictly positive, got {self.lr}")
        check_integer("n_features", self.n_features, 1)
        for name in _PERIODS:
            if getattr(self, name) is not None:
                check_integer(name, getattr(self, name), 1)

    def periods(self, config: NetworkConfig) -> dict[str, int]:
        """tau_c, tau_e and tau_g: each option that is set, else the config's."""
        return {
            name: getattr(config, name) if getattr(self, name) is None else getattr(self, name)
            for name in _PERIODS
        }


@dataclass
class MethodResult:
    """One method's run; ``assignment`` and the columns of ``plan`` are numpy arrays."""

    name: str
    seeds: dict
    assignment: np.ndarray
    avg_js: float
    plan: dict
    feasible: bool
    game_trace: dict | None = None
    gp_trace: dict | None = None
    accuracy: list[float] | None = None


@dataclass
class ExperimentReport:
    scenario_meta: dict
    master_seed: int
    js_denominator: str
    weights: dict
    methods: dict[str, MethodResult] = field(default_factory=dict)
    summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            **fields_dict(self),
            "methods": {name: fields_dict(m) for name, m in self.methods.items()},
        }


def form_coalitions(
    scenario: Scenario,
    denominator: str,
    init_seed: int,
    game_seed: int,
    max_iters: int | None = None,
    grouped_start: bool = False,
) -> tuple[Partition, Partition, GameTrace]:
    """The game's start partition, and the partition and trace it forms.

    The start is ``random_partition``'s draw from ``init_seed``, or with
    ``grouped_start`` the label-grouped adversarial partition.  The game
    samples from ``game_seed`` for at most ``max_iters`` iterations,
    ``default_max_iters`` of the client count when None.
    """
    if grouped_start:
        start = shard_grouped_partition(scenario, denominator)
    else:
        start = random_partition(
            label_count_matrix(scenario),
            scenario.num_edges,
            np.random.default_rng(init_seed),
            denominator,
        )
    if max_iters is None:
        max_iters = default_max_iters(scenario.n_clients)
    partition, trace = run_coalition_formation(start, max_iters=max_iters, rng_seed=game_seed)
    return start, partition, trace


def train_curves(
    scenario: Scenario,
    partitions: Sequence[Partition],
    opts: TrainOptions,
    data_seed: int,
    seed: int,
) -> list[list[float]]:
    """Test accuracy per global round of one HFL run on each partition, all
    on one synthetic dataset drawn from ``data_seed`` and the scenario's labels.

    The runs train here, one after the other in partition order, so the
    first run that raises ends the call with its error.  Each run batches
    its local steps as ``hfl.run_hfl`` does from ``hfl.BATCH_MIN_STEPS``
    client gradient steps on.
    """
    dataset = SyntheticDataset.generate(
        label_counts=label_count_matrix(scenario),
        n_features=opts.n_features,
        seed=data_seed,
        class_sep=opts.class_sep,
        noise=opts.noise,
    )
    periods = opts.periods(scenario.config)
    return [
        run_hfl(partition, dataset, **periods, lr=opts.lr, seed=seed)[1]
        for partition in partitions
    ]


def run_experiment(
    scenario: Scenario,
    methods: list[str] | tuple[str, ...] = METHODS,
    gp: GPConfig | None = None,
    master_seed: int = 0,
    game_max_iters: int | None = None,
    js_denominator: str = "M",
    train_options: TrainOptions | None = None,
) -> ExperimentReport:
    """Run the requested methods on one scenario and collect the report.

    Each association, and each association's ``plan_full``, is computed
    at most once however many methods share it.  ``master_seed``, an
    integer in [0, 2**64), seeds every stream.  Given ``train_options``,
    every full-pipeline method also gets its accuracy curve.

    numpy may warn of overflow or division by zero on a degenerate
    scenario before a typed error or a valid report; the CLI runs inside
    ``with np.errstate(all="ignore"):``, which silences them.
    """
    unknown = [m for m in methods if m not in METHOD_STAGES]
    if unknown:
        raise InvalidValueError(f"unknown methods {unknown}; expected a subset of {METHODS}")

    counts = label_count_matrix(scenario)
    config = scenario.config
    clients = scenario.clients
    n_edges = scenario.num_edges
    if game_max_iters is not None:  # checked even when no requested method runs the game
        check_integer("max_iters", game_max_iters, 1)
    master_seed = check_seed("master_seed", master_seed)  # the CLI's --seed range

    seed_rng = np.random.default_rng(master_seed)
    seeds = {
        name: int(s)
        for name, s in zip(_SEED_STREAMS, seed_rng.integers(2**62, size=len(_SEED_STREAMS)))
    }

    report = ExperimentReport(
        scenario_meta=dict(scenario.meta),
        master_seed=master_seed,
        js_denominator=js_denominator,
        weights={"lambda1": config.lambda1, "lambda2": config.lambda2},
    )

    @functools.cache
    def associate(kind: str) -> tuple[Partition, dict | None, dict[str, int]]:
        """The partition, the game trace as JSON reads it back and the seeds used."""
        if kind == "game":
            _, partition, trace = form_coalitions(
                scenario, js_denominator, seeds["init_partition"], seeds["game"], game_max_iters
            )
            return (
                partition,
                {**fields_dict(trace), "entries": [list(e) for e in trace.entries]},
                {"init_partition": seeds["init_partition"], "game": seeds["game"]},
            )
        rng = np.random.default_rng(seeds[kind])
        partition = random_partition(counts, n_edges, rng, js_denominator)
        return partition, None, {"association": seeds[kind]}

    @functools.cache
    def full_plan(kind: str) -> tuple[AllocationPlan, GPTrace]:
        return plan_full(associate(kind)[0], clients, config, gp)

    trained: dict[str, Partition] = {}
    for name in methods:
        association, bandwidth_stage, power_stage = METHOD_STAGES[name]
        partition, game_trace, association_seeds = associate(association)
        if bandwidth_stage == "gp" and power_stage == "deadline":
            plan, gp_trace = full_plan(association)
            used_seeds = association_seeds
            if train_options is not None:
                trained[name] = partition
        else:
            game_trace = gp_trace = None
            used_seeds = {}
            if bandwidth_stage == "gp":
                bandwidth = full_plan(association)[0].bandwidth
            elif bandwidth_stage == "equal":
                bandwidth = np.full(n_edges, config.total_bandwidth / n_edges)
            else:
                rng = np.random.default_rng(seeds[bandwidth_stage])
                bandwidth = rng.dirichlet(np.ones(n_edges)) * config.total_bandwidth
                used_seeds[bandwidth_stage] = seeds[bandwidth_stage]
            if power_stage == "deadline":
                power, notes = deadline_powers(partition, clients, config, bandwidth)
            else:
                rng = np.random.default_rng(seeds[power_stage])
                power, notes = clients.p_max * (1.0 - rng.random(len(clients))), []
                used_seeds[power_stage] = seeds[power_stage]
            plan = build_plan(partition, clients, config, bandwidth, power, notes=notes)

        report.methods[name] = MethodResult(
            name=name,
            seeds=used_seeds,
            assignment=partition.assignment,
            avg_js=plan.avg_js,
            plan=plan.to_dict(),
            feasible=plan.feasible,
            game_trace=game_trace,
            gp_trace=None if gp_trace is None else fields_dict(gp_trace),
        )

    if trained:
        curves = train_curves(
            scenario, [*trained.values()], train_options, seeds["training_data"], master_seed
        )
        for name, curve in zip(trained, curves):
            report.methods[name].accuracy = curve

    uplink = {name: m.plan["uplink_energy"] for name, m in report.methods.items()}
    summary: dict = {
        "uplink_energy": uplink,
        "total_energy": {name: m.plan["total_energy"] for name, m in report.methods.items()},
        "avg_js": {name: m.avg_js for name, m in report.methods.items()},
        "deadline_feasible": {name: m.feasible for name, m in report.methods.items()},
    }
    if "leap" in uplink and uplink["leap"] > 0:
        ratios = {name: value / uplink["leap"] for name, value in uplink.items()}
        if not all(map(math.isfinite, ratios.values())):
            raise NonFiniteInputError("an uplink energy ratio to leap's is beyond the float range")
        summary["uplink_energy_ratio_vs_leap"] = ratios
    report.summary = summary
    return report


def write_game_trace(path: str | Path, entries: Iterable[Sequence]) -> None:
    """Game trace CSV, one row per sampled iteration; no target means no move."""
    write_csv(
        path,
        "leapsim.game-trace.v1",
        ["iteration", "client", "from", "to", "avg_js"],
        (
            [it, client, src, "" if tgt is None else tgt, js]
            for it, client, src, tgt, js in entries
        ),
    )


def write_gp_trace(path: str | Path, objective_values: Sequence[float]) -> None:
    write_csv(
        path, "leapsim.gp-trace.v1", ["iteration", "objective"], enumerate(objective_values)
    )


def write_accuracy(path: str | Path, curve: Sequence[float], avg_js: float) -> None:
    write_csv(
        path,
        "leapsim.accuracy.v1",
        ["round", "accuracy", "avg_js"],
        ([i, acc, avg_js] for i, acc in enumerate(curve)),
    )


def emit_report(
    report: ExperimentReport,
    out_dir: str | Path,
    formats: tuple[str, ...] = FORMATS,
) -> list[Path]:
    """Write the report and its CSV projections; returns the paths.

    ``formats`` is a subset of FORMATS; any other format is refused."""
    unknown = [f for f in formats if f not in FORMATS]
    if unknown:
        raise InvalidValueError(f"unknown report formats {unknown}; expected a subset of {FORMATS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if "json" in formats:
        written.append(out / "report.json")
        write_json(written[-1], report.to_dict())

    if "csv" in formats:
        written.append(out / "summary.csv")
        write_csv(
            written[-1],
            "leapsim.summary.v1",
            ["method", "avg_js", "total_latency", "total_energy",
             "uplink_energy", "utility", "feasible"],
            (
                [name, m.avg_js, m.plan["total_latency"], m.plan["total_energy"],
                 m.plan["uplink_energy"], m.plan["utility"], m.feasible]
                for name, m in report.methods.items()
            ),
        )
        for name, m in report.methods.items():
            if m.game_trace is not None:
                written.append(out / f"{name}_game_trace.csv")
                write_game_trace(written[-1], m.game_trace["entries"])
            if m.gp_trace is not None:
                written.append(out / f"{name}_gp_trace.csv")
                write_gp_trace(written[-1], m.gp_trace["objective_values"])
            if m.accuracy is not None:
                written.append(out / f"{name}_accuracy.csv")
                write_accuracy(written[-1], m.accuracy, m.avg_js)
    return written


def recompute_plan(
    scenario: Scenario,
    assignment: list[int],
    bandwidth: list[float],
    power: list[float],
    js_denominator: str = "M",
) -> AllocationPlan:
    """Rebuild every metric from the serialized allocation state.

    Used to audit emitted reports: the returned plan must match the
    stored one within numerical tolerance.
    """
    partition = Partition(
        assignment, label_count_matrix(scenario), scenario.num_edges, js_denominator
    )
    return build_plan(partition, scenario.clients, scenario.config, bandwidth, power)
