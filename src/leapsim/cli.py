"""Command-line front end.

Each verb consumes and produces files so the pipeline stages stay
independently runnable and testable:

    gen        draw a scenario file from a seed
    coalition  form coalitions on a scenario (association stage)
    allocate   solve bandwidth and power for a partition (the decision)
    simulate   toy hierarchical training on a partition
    report     derive the metrics of a saved plan's decision
    compare    full pipeline against the baselines, one report

The default output directory comes from the LEAPSIM_OUT environment
variable (falling back to the working directory).  With --strict,
allocate, report and compare exit nonzero when a plan misses the deadline.
Rejected input (a missing or malformed file, files that disagree, a
plan that differs from its recomputation, or any other typed leapsim
error) ends with a one-line message, all of stderr, and exit code 2.
A scenario, partition or plan file is audited where it is loaded:
``files.check_keys`` refuses a missing key (but a partition's optional
denominator) and an unknown one, the JSON readers a key written twice;
each value must be of its type, and a partition's avg_js and a plan's
totals must match the rebuild's.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .alloc import GPConfig, build_plan, plan_full
from .experiment import (
    FORMATS,
    METHODS,
    SYSTEM_TOTALS,
    TrainOptions,
    emit_report,
    form_coalitions,
    run_experiment,
    train_curves,
    write_accuracy,
    write_game_trace,
    write_gp_trace,
)
from .errors import (
    InputFileError,
    InvalidPartitionError,
    InvalidValueError,
    LeapsimError,
    check_integer,
    check_number,
    check_seed,
)
from .files import read_json, write_csv, write_json
from .game import Partition
from .netmodel import AllocationPlan
from .scenario import Scenario, generate_scenario, load_scenario, save_scenario

PARTITION_SCHEMA = "leapsim.partition.v1"
PLAN_SCHEMA = "leapsim.plan.v2"
METRICS_SCHEMA = "leapsim.metrics.v1"

# partition.json holds the association and the game's run (denominator optional)
PARTITION_KEYS = ("assignment", "num_edges", "denominator", "avg_js", "initial_avg_js",
                  "converged", "iterations_used", "seed")
# plan.json holds the decision, allocate's notes and the totals report audits
PLAN_TOTALS = (*SYSTEM_TOTALS, "surrogate_objective")
PLAN_KEYS = ("bandwidth", "power", "notes", *PLAN_TOTALS)
# relative tolerance of the plan audit in ``report``
PLAN_AUDIT_RTOL = 1e-9


def _out_dir(args) -> Path:
    out = Path(args.out or os.environ.get("LEAPSIM_OUT", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _formats(value: str) -> set[str]:
    """The comma-separated ``--format`` tokens, each one of FORMATS."""
    tokens = set(value.split(","))
    if not tokens <= set(FORMATS):
        raise InvalidValueError(
            f"--format takes {' and/or '.join(FORMATS)} separated by commas, got {value!r}"
        )
    return tokens


def _load_partition(path: str, scenario: Scenario) -> Partition:
    data = read_json(path, PARTITION_SCHEMA, PARTITION_KEYS, optional=("denominator",))
    for key in ("avg_js", "initial_avg_js"):
        check_number(f"{path}: {key}", data[key], InputFileError)
    if type(data["converged"]) is not bool:
        raise InputFileError(f"{path}: converged must be a bool, got {data['converged']!r}")
    check_integer(f"{path}: iterations_used", data["iterations_used"], 0, InputFileError)
    check_seed(f"{path}: seed", data["seed"], InputFileError)
    num_edges, entries = data["num_edges"], data["assignment"]
    try:
        check_integer("num_edges", num_edges, 1, InvalidPartitionError)
        if num_edges != scenario.num_edges:
            raise InvalidPartitionError(
                f"partition has {num_edges} edges, the scenario {scenario.num_edges}"
            )
        if not isinstance(entries, list):
            raise InvalidPartitionError(f"assignment must be a list, got {entries!r}")
        if len(entries) != scenario.n_clients:
            raise InvalidPartitionError(
                f"partition assigns {len(entries)} clients, the scenario has {scenario.n_clients}"
            )
        for i, entry in enumerate(entries):
            check_integer(f"assignment[{i}]", entry, 0, InvalidPartitionError)
        partition = Partition(
            entries, scenario.clients.label_counts, num_edges, data.get("denominator", "M")
        )
    except InvalidPartitionError as exc:  # an entry, an edge, the denominator
        raise InvalidPartitionError(f"{path}: {exc}") from exc
    if not math.isclose(data["avg_js"], partition.avg_js(), rel_tol=PLAN_AUDIT_RTOL):
        raise InputFileError(f"{path}: stored avg_js differs from the partition's own")
    return partition


def cmd_gen(args) -> int:
    scenario = generate_scenario(
        seed=args.seed,
        n_clients=args.clients,
        n_edges=args.edges,
        n_classes=args.classes,
        shards=None if args.dirichlet is not None else args.shards,
        dirichlet_alpha=args.dirichlet,
        data_size=args.data_size,
        deadline=args.deadline,
        deadline_slack=args.deadline_slack,
        tau_c=args.tau_c,
        tau_e=args.tau_e,
        tau_g=args.tau_g,
        gain_mode=args.gain_mode,
    )
    path = _out_dir(args) / "scenario.bin"
    save_scenario(scenario, path)
    print(f"wrote {path}")
    return 0


def cmd_coalition(args) -> int:
    scenario = load_scenario(args.scenario)
    start, partition, trace = form_coalitions(
        scenario, args.denominator, args.seed, args.seed, args.max_iters, args.grouped_start
    )
    out = _out_dir(args)
    write_json(
        out / "partition.json",
        {
            "schema": PARTITION_SCHEMA,
            "assignment": partition.assignment,
            "num_edges": partition.num_coalitions,
            "denominator": partition.denominator,
            "avg_js": partition.avg_js(),
            "initial_avg_js": start.avg_js(),
            "converged": trace.converged,
            "iterations_used": trace.iterations_used,
            "seed": args.seed,
        },
    )
    write_game_trace(out / "game_trace.csv", trace.entries)
    print(f"avg_js {start.avg_js():.6f} -> {partition.avg_js():.6f} "
          f"in {trace.iterations_used} iterations (converged={trace.converged})")
    print(f"wrote {out / 'partition.json'} and {out / 'game_trace.csv'}")
    return 0


def _gp_config(args) -> GPConfig:
    """The solver flags shared by ``allocate`` and ``compare``, validated."""
    return GPConfig(
        step_size=args.step,
        tolerance=args.gp_tol,
        max_iters=args.gp_max_iters,
        min_bandwidth_floor=args.floor,
    )


def cmd_allocate(args) -> int:
    scenario = load_scenario(args.scenario)
    partition = _load_partition(args.partition, scenario)
    plan, trace = plan_full(partition, scenario.clients, scenario.config, _gp_config(args))
    out = _out_dir(args)
    stored = plan.to_dict()
    write_json(out / "plan.json", {"schema": PLAN_SCHEMA, **{k: stored[k] for k in PLAN_KEYS}})
    write_gp_trace(out / "gp_trace.csv", trace.objective_values)
    print(
        f"objective {trace.objective_values[0]:.6g} -> {trace.objective_values[-1]:.6g} "
        f"in {trace.iterations_used} iterations, feasible={plan.feasible}"
    )
    print(f"wrote {out / 'plan.json'} and {out / 'gp_trace.csv'}")
    if args.strict and not plan.feasible:
        return 2
    return 0


def _train_options(args, **extra) -> TrainOptions:
    """The training flags shared by ``simulate`` and ``compare``, validated."""
    return TrainOptions(
        n_features=args.features,
        lr=args.lr,
        tau_c=args.tau_c,
        tau_e=args.tau_e,
        tau_g=args.tau_g,
        **extra,
    )


def cmd_simulate(args) -> int:
    opts = _train_options(args, class_sep=args.class_sep, noise=args.noise)
    scenario = load_scenario(args.scenario)
    partition = _load_partition(args.partition, scenario)
    [curve] = train_curves(scenario, [partition], opts, args.seed, args.seed)
    path = _out_dir(args) / "accuracy.csv"
    write_accuracy(path, curve, partition.avg_js())
    print(f"final accuracy {curve[-1]:.4f}; wrote {path}")
    return 0


def _audited_plan(path: str, scenario: Scenario, partition: Partition) -> AllocationPlan:
    """The plan rebuilt from the stored plan's bandwidth and power.

    Raises InputFileError when the file does not hold exactly PLAN_KEYS
    (``files.read_json``), when ``notes`` is not a list of strings, when
    ``bandwidth`` or ``power`` is not a list of one number per edge or
    client, or when a total of PLAN_TOTALS is not the rebuild's
    (``feasible`` exactly, the others within PLAN_AUDIT_RTOL): the totals
    tie a plan to the scenario and partition it was solved for.  Each number must pass
    ``errors.check_number``: finite, not a bool, and an integer only
    within the int64 range.  An error of ``build_plan`` (a bandwidth or
    power <= 0, a metric beyond the float range) keeps its type and gains
    the path in front.
    """
    data = read_json(path, PLAN_SCHEMA, PLAN_KEYS)
    notes = data["notes"]
    if not isinstance(notes, list) or not all(isinstance(note, str) for note in notes):
        raise InputFileError(f"{path}: notes must be a list of strings, got {json.dumps(notes)}")
    for name, length in (("bandwidth", scenario.num_edges), ("power", scenario.n_clients)):
        value = data[name]
        if not isinstance(value, list):
            raise InputFileError(
                f"{path}: {name} must be a list of {length} numbers, got {json.dumps(value)}"
            )
        if len(value) != length:
            raise InputFileError(f"{path}: {name} has {len(value)} entries, expected {length}")
        for i, entry in enumerate(value):
            check_number(f"{path}: {name}[{i}]", entry, InputFileError)
    try:
        plan = build_plan(
            partition, scenario.clients, scenario.config, data["bandwidth"], data["power"]
        )
    except LeapsimError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    for name in PLAN_TOTALS:
        kept, fresh = data[name], getattr(plan, name)
        if name == "feasible":
            same = kept is bool(fresh)
        else:
            check_number(f"{path}: {name}", kept, InputFileError)
            same = math.isclose(kept, fresh, rel_tol=PLAN_AUDIT_RTOL)
        if not same:
            raise InputFileError(
                f"{path}: stored {name} differs from the plan recomputed "
                "from the scenario and partition"
            )
    return plan


def cmd_report(args) -> int:
    formats = _formats(args.format)
    scenario = load_scenario(args.scenario)
    partition = _load_partition(args.partition, scenario)
    plan = _audited_plan(args.plan, scenario, partition).to_dict()
    out = _out_dir(args)

    payload = {
        "schema": METRICS_SCHEMA,
        "weights": {
            "lambda1": scenario.config.lambda1,
            "lambda2": scenario.config.lambda2,
        },
        "per_client": {
            "comp_latency": plan["comp_latency"],
            "tx_latency": plan["tx_latency"],
            "latency": plan["client_latency"],
            "comp_energy": plan["comp_energy"],
            "tx_energy": plan["tx_energy"],
            "power": plan["power"],
            "bandwidth_share": plan["client_bandwidth"],
            "deadline_ok": plan["per_client_feasible"],
        },
        "per_coalition": {
            "bandwidth": plan["bandwidth"],
            "latency": plan["coalition_latency"],
            "energy": plan["coalition_energy"],
            "size": partition.sizes,
        },
        "system": {key: plan[key] for key in SYSTEM_TOTALS},
    }
    if "json" in formats:
        write_json(out / "metrics.json", payload)
        print(f"wrote {out / 'metrics.json'}")
    if "csv" in formats:
        path = out / "metrics.csv"
        columns = {k: v for k, v in payload["per_client"].items() if k != "latency"}
        write_csv(
            path,
            METRICS_SCHEMA,
            ["client", "coalition", *columns],
            zip(range(partition.n_clients), partition.assignment.tolist(),
                *(v.tolist() for v in columns.values())),  # numpy floats print as np.float64(...)
        )
        print(f"wrote {path}")
    if args.strict and not plan["feasible"]:
        return 2
    return 0


def cmd_compare(args) -> int:
    formats = _formats(args.format)
    train_options = _train_options(args)  # refused without --train too
    scenario = load_scenario(args.scenario)
    report = run_experiment(
        scenario,
        methods=args.methods,
        gp=_gp_config(args),
        master_seed=args.seed,
        game_max_iters=args.max_iters,
        js_denominator=args.denominator,
        train_options=train_options if args.train else None,
    )
    out = _out_dir(args)
    written = emit_report(report, out, formats=tuple(formats))
    for path in written:
        print(f"wrote {path}")
    for name, m in report.methods.items():
        print(
            f"{name:>13}: avg_js={m.avg_js:.4f} uplink_energy={m.plan['uplink_energy']:.6g} "
            f"feasible={m.feasible}"
        )
    if args.strict and not all(m.feasible for m in report.methods.values()):
        return 2
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; every default is immutable, so a
    parse leaves nothing behind for the next."""
    parser = argparse.ArgumentParser(
        prog="leapsim",
        description="Coalition, bandwidth and power planning for hierarchical FL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seed: bool, strict: bool):
        p.add_argument("--out", default=None, help="output directory (default $LEAPSIM_OUT or .)")
        if seed:
            p.add_argument("--seed", type=int, default=0)
        if strict:
            p.add_argument("--strict", action="store_true",
                           help="exit nonzero when a plan misses the deadline")

    gen = sub.add_parser("gen", help="generate a scenario file")
    add_common(gen, seed=True, strict=False)
    gen.add_argument("--clients", type=int, default=20)
    gen.add_argument("--edges", type=int, default=4)
    gen.add_argument("--classes", type=int, default=10)
    group = gen.add_mutually_exclusive_group()
    group.add_argument("--shards", type=int, default=2, help="classes held per client")
    group.add_argument("--dirichlet", type=float, default=None,
                       help="Dirichlet concentration for the label mix")
    gen.add_argument("--data-size", type=int, default=200)
    gen.add_argument("--deadline", type=float, default=None)
    gen.add_argument("--deadline-slack", type=float, default=1.5)
    gen.add_argument("--tau-c", type=int, default=5)
    gen.add_argument("--tau-e", type=int, default=12)
    gen.add_argument("--tau-g", type=int, default=100)
    gen.add_argument("--gain-mode", choices=("pair", "client"), default="pair")
    gen.set_defaults(func=cmd_gen)

    coalition = sub.add_parser("coalition", help="run the coalition formation game")
    add_common(coalition, seed=True, strict=False)
    coalition.add_argument("--scenario", required=True)
    coalition.add_argument("--max-iters", type=int, default=None)
    coalition.add_argument("--denominator", choices=("M", "pairs"), default="M")
    coalition.add_argument("--grouped-start", action="store_true",
                           help="start from the label-grouped adversarial partition")
    coalition.set_defaults(func=cmd_coalition)

    def add_gp(p):
        p.add_argument("--step", type=float, default=None, help="gradient step size")
        p.add_argument("--gp-tol", type=float, default=GPConfig.tolerance)
        p.add_argument("--gp-max-iters", type=int, default=GPConfig.max_iters)
        p.add_argument("--floor", type=float, default=None,
                       help="per-coalition bandwidth floor in Hz")

    allocate = sub.add_parser("allocate", help="solve bandwidth and power")
    add_common(allocate, seed=False, strict=True)
    allocate.add_argument("--scenario", required=True)
    allocate.add_argument("--partition", required=True)
    add_gp(allocate)
    allocate.set_defaults(func=cmd_allocate)

    def add_train(p):
        p.add_argument("--features", type=int, default=TrainOptions.n_features)
        p.add_argument("--lr", type=float, default=TrainOptions.lr)
        p.add_argument("--tau-c", type=int, default=None)
        p.add_argument("--tau-e", type=int, default=None)
        p.add_argument("--tau-g", type=int, default=None)

    simulate = sub.add_parser("simulate", help="toy hierarchical training run")
    add_common(simulate, seed=True, strict=False)
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--partition", required=True)
    add_train(simulate)
    simulate.add_argument("--class-sep", type=float, default=TrainOptions.class_sep)
    simulate.add_argument("--noise", type=float, default=TrainOptions.noise)
    simulate.set_defaults(func=cmd_simulate)

    report = sub.add_parser("report", help="emit metrics for a saved plan")
    add_common(report, seed=False, strict=True)
    report.add_argument("--scenario", required=True)
    report.add_argument("--partition", required=True)
    report.add_argument("--plan", required=True)
    report.add_argument("--format", default="json,csv", help="json and/or csv, comma-separated")
    report.set_defaults(func=cmd_report)

    compare = sub.add_parser("compare", help="run methods side by side")
    add_common(compare, seed=True, strict=True)
    compare.add_argument("--scenario", required=True)
    compare.add_argument("--methods", nargs="+", default=METHODS, choices=METHODS)
    compare.add_argument("--max-iters", type=int, default=None)
    compare.add_argument("--denominator", choices=("M", "pairs"), default="M")
    compare.add_argument("--format", default="json,csv", help="json and/or csv, comma-separated")
    compare.add_argument("--train", action="store_true")
    add_gp(compare)
    add_train(compare)
    compare.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_seed("--seed", getattr(args, "seed", 0))
        with np.errstate(all="ignore"):  # the typed checks report what overflows
            return args.func(args)
    except (LeapsimError, OSError) as exc:
        print(f"leapsim {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
