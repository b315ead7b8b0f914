"""Experiment orchestration: optimized pipeline versus baselines.

The full pipeline ("leap") chains the three solvers: coalition
formation for the association, gradient projection for the bandwidth
split, closed-form deadline power per client.  Baselines replace one
stage at a time on top of the formed coalitions:

    random_assoc  random association, bandwidth/power still optimized
    equal_split   equal bandwidth split, optimized power
    rb            bandwidth drawn uniformly on the simplex
    rp            power drawn uniformly on (0, p_max] per client
    rb_rp         both draws combined

Deadline violations are reported per client, never repaired.  Every
random stream derives from one master seed in a fixed order, so a
report is a pure function of (scenario, methods, master seed).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .alloc import GPConfig, GPTrace, build_plan, deadline_powers, plan_full
from .errors import InvalidValueError
from .files import fields_dict, read_json, write_csv, write_json
from .game import (
    GameTrace,
    Partition,
    default_max_iters,
    random_partition,
    run_coalition_formation,
)
from .hfl import SyntheticDataset, run_hfl
from .netmodel import AllocationPlan, NetworkConfig
from .scenario import Scenario, label_count_matrix

__all__ = [
    "REPORT_SCHEMA",
    "METHODS",
    "TrainOptions",
    "MethodResult",
    "ExperimentReport",
    "run_experiment",
    "emit_report",
    "write_game_trace",
    "write_gp_trace",
    "write_accuracy",
    "load_report",
    "recompute_plan",
]

REPORT_SCHEMA = "leapsim.report.v1"

METHODS = ("leap", "random_assoc", "equal_split", "rb", "rp", "rb_rp")

_PERIODS = ("tau_c", "tau_e", "tau_g")


@dataclass
class TrainOptions:
    """Knobs for the toy training comparison; a tau of None defers to the scenario."""

    n_features: int = 16
    class_sep: float = 2.0
    noise: float = 1.0
    lr: float = 0.2
    tau_c: int | None = None
    tau_e: int | None = None
    tau_g: int | None = None
    test_per_class: int = 100

    def __post_init__(self):
        if self.n_features < 1:
            raise InvalidValueError(f"n_features must be at least 1, got {self.n_features}")
        if not self.lr > 0:
            raise InvalidValueError(f"lr must be strictly positive, got {self.lr}")
        for name in _PERIODS:
            value = getattr(self, name)
            if value is not None and value < 1:
                raise InvalidValueError(f"{name} must be at least 1, got {value}")

    def periods(self, config: NetworkConfig) -> dict[str, int]:
        """tau_c, tau_e and tau_g: each option that is set, else the config's."""
        return {
            name: getattr(config, name) if getattr(self, name) is None else getattr(self, name)
            for name in _PERIODS
        }


@dataclass
class MethodResult:
    name: str
    seeds: dict
    assignment: list[int]
    avg_js: float
    plan: dict
    feasible: bool
    game_trace: dict | None = None
    gp_trace: dict | None = None
    accuracy: list[float] | None = None

    def to_dict(self) -> dict:
        return fields_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MethodResult":
        return cls(**data)


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
            "methods": {name: m.to_dict() for name, m in self.methods.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        values = {f.name: data[f.name] for f in fields(cls)}
        values["methods"] = {
            name: MethodResult.from_dict(m) for name, m in data["methods"].items()
        }
        return cls(**values)


def _trace_to_dict(trace: GameTrace) -> dict:
    # entries become lists, as they read back from JSON
    return {**fields_dict(trace), "entries": [list(e) for e in trace.entries]}


def run_experiment(
    scenario: Scenario,
    methods: list[str] | tuple[str, ...] = METHODS,
    gp: GPConfig | None = None,
    master_seed: int = 0,
    game_max_iters: int | None = None,
    js_denominator: str = "M",
    train: bool = False,
    train_options: TrainOptions | None = None,
) -> ExperimentReport:
    """Run the requested methods on one scenario and collect the report."""
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; expected a subset of {METHODS}")

    counts = label_count_matrix(scenario)
    config = scenario.config
    clients = scenario.table
    n_edges = scenario.num_edges
    if game_max_iters is None:
        game_max_iters = default_max_iters(scenario.n_clients)
    elif game_max_iters < 1:  # rejected even when no requested method runs the game
        raise InvalidValueError(f"max_iters must be at least 1, got {game_max_iters}")

    # fixed-order seed block so each stream is independent of which
    # methods were requested
    seed_rng = np.random.default_rng(master_seed)
    names = (
        "init_partition",
        "game",
        "random_assoc",
        "rb_bandwidth",
        "rp_power",
        "rb_rp_bandwidth",
        "rb_rp_power",
        "training_data",
    )
    seeds = {name: int(s) for name, s in zip(names, seed_rng.integers(2**62, size=len(names)))}

    report = ExperimentReport(
        scenario_meta=dict(scenario.meta),
        master_seed=master_seed,
        js_denominator=js_denominator,
        weights={"lambda1": config.lambda1, "lambda2": config.lambda2},
    )

    # the formed coalition structure is shared by every bandwidth/power
    # baseline; compute it once even when "leap" itself is not reported
    base_partition: Partition | None = None
    base_trace: GameTrace | None = None
    base_plan: AllocationPlan | None = None
    base_gp_trace = None

    def formed_partition() -> tuple[Partition, GameTrace]:
        nonlocal base_partition, base_trace
        if base_partition is None:
            start = random_partition(
                counts, n_edges, np.random.default_rng(seeds["init_partition"]), js_denominator
            )
            base_partition, base_trace = run_coalition_formation(
                start, max_iters=game_max_iters, rng_seed=seeds["game"]
            )
        return base_partition, base_trace

    def formed_plan():
        nonlocal base_plan, base_gp_trace
        partition, _ = formed_partition()
        if base_plan is None:
            base_plan, base_gp_trace = plan_full(
                partition, clients, config, gp, avg_js=partition.avg_js()
            )
        return base_plan, base_gp_trace

    dataset: SyntheticDataset | None = None
    opts = train_options or TrainOptions()

    def train_curve(partition: Partition) -> list[float]:
        nonlocal dataset
        if dataset is None:
            dataset = SyntheticDataset.generate(
                label_counts=counts.tolist(),
                n_features=opts.n_features,
                seed=seeds["training_data"],
                class_sep=opts.class_sep,
                noise=opts.noise,
                test_per_class=opts.test_per_class,
            )
        _, curve = run_hfl(
            partition, dataset, **opts.periods(config), lr=opts.lr, seed=master_seed
        )
        return curve

    def optimized(
        name: str,
        partition: Partition,
        used_seeds: dict,
        plan: AllocationPlan,
        gp_trace: GPTrace,
        game_trace: GameTrace | None = None,
    ) -> MethodResult:
        """Result of a method whose plan is ``plan_full`` on its partition."""
        result = MethodResult(
            name=name,
            seeds=used_seeds,
            assignment=[int(a) for a in partition.assignment],
            avg_js=partition.avg_js(),
            plan=plan.to_dict(),
            feasible=plan.feasible,
            game_trace=None if game_trace is None else _trace_to_dict(game_trace),
            gp_trace=asdict(gp_trace),
        )
        if train:
            result.accuracy = train_curve(partition)
        return result

    for name in methods:
        if name == "leap":
            partition, trace = formed_partition()
            result = optimized(
                name,
                partition,
                {"init_partition": seeds["init_partition"], "game": seeds["game"]},
                *formed_plan(),
                game_trace=trace,
            )

        elif name == "random_assoc":
            partition = random_partition(
                counts, n_edges, np.random.default_rng(seeds["random_assoc"]), js_denominator
            )
            result = optimized(
                name,
                partition,
                {"association": seeds["random_assoc"]},
                *plan_full(partition, clients, config, gp, avg_js=partition.avg_js()),
            )

        else:
            partition, _ = formed_partition()
            used_seeds: dict[str, int] = {}
            if name == "equal_split":
                bandwidth = np.full(n_edges, config.total_bandwidth / n_edges)
            elif name in ("rb", "rb_rp"):
                key = "rb_bandwidth" if name == "rb" else "rb_rp_bandwidth"
                rng = np.random.default_rng(seeds[key])
                bandwidth = rng.dirichlet(np.ones(n_edges)) * config.total_bandwidth
                used_seeds[key] = seeds[key]
            else:  # rp keeps the optimized bandwidth
                plan_opt, _ = formed_plan()
                bandwidth = np.asarray(plan_opt.bandwidth)

            if name in ("rp", "rb_rp"):
                key = "rp_power" if name == "rp" else "rb_rp_power"
                rng = np.random.default_rng(seeds[key])
                power = clients.p_max * (1.0 - rng.random(len(clients)))
                used_seeds[key] = seeds[key]
                notes: list[str] = []
            else:
                power, notes = deadline_powers(partition, clients, config, bandwidth)

            plan = build_plan(
                partition,
                clients,
                config,
                bandwidth,
                power,
                avg_js=partition.avg_js(),
                notes=notes,
            )
            result = MethodResult(
                name=name,
                seeds=used_seeds,
                assignment=[int(a) for a in partition.assignment],
                avg_js=partition.avg_js(),
                plan=plan.to_dict(),
                feasible=plan.feasible,
            )

        report.methods[name] = result

    uplink = {name: m.plan["uplink_energy"] for name, m in report.methods.items()}
    summary: dict = {
        "uplink_energy": uplink,
        "total_energy": {name: m.plan["total_energy"] for name, m in report.methods.items()},
        "avg_js": {name: m.avg_js for name, m in report.methods.items()},
        "deadline_feasible": {name: m.feasible for name, m in report.methods.items()},
    }
    if "leap" in uplink and uplink["leap"] > 0:
        summary["uplink_energy_ratio_vs_leap"] = {
            name: value / uplink["leap"] for name, value in uplink.items()
        }
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
    formats: tuple[str, ...] = ("json", "csv"),
) -> list[Path]:
    """Write the report and its CSV projections; returns the paths."""
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


def load_report(path: str | Path) -> ExperimentReport:
    return ExperimentReport.from_dict(read_json(path, REPORT_SCHEMA))


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
        np.asarray(assignment, dtype=np.int64),
        label_count_matrix(scenario),
        scenario.num_edges,
        js_denominator,
    )
    return build_plan(
        partition,
        scenario.table,
        scenario.config,
        np.asarray(bandwidth, dtype=float),
        np.asarray(power, dtype=float),
        avg_js=partition.avg_js(),
    )
