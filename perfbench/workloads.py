"""Workloads and metric definitions of the leapsim planning benchmark.

This module is the single source of the benchmark's manifest: the
workload list with the reason for each, the end-to-end metrics with
their direction and regression bound, and the per-layer metrics of the
traced run.  ``python3 perfbench/run.py --write-manifest`` renders it
into ``BENCHMARK.json`` at the repository root.

Every operation is one ``leapsim compare`` call on a scenario file.
The number of operations in a run is fixed by ``--seconds`` and the
workload's nominal operation cost, never by how fast the code under
test is, so two commits measured with the same settings do the same
work.  The nominal costs are raw operation times on a busy 2-core Intel
Xeon VM with Python 3.11 and numpy 2.4, except two that are set lower
so that a run averages over more scenarios: hfl_train's, because the
uplink energy of its 20-client plans varies most from one scenario to
the next, and game_dirichlet's, because the length of its games varies
most, which made the 90th percentile of 53 operations spread by up to
0.23 over ten seeds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

RUN_SECONDS = 20
MIN_OPS = 3


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a scenario shape and the compare flags.

    ``scenario`` holds the ``generate_scenario`` keyword arguments other
    than the seed.  With ``shared_scenario`` every operation of a run
    plans the same scenario under its own master seed; otherwise each
    operation draws its own scenario.  ``small`` overrides scenario
    parameters for the scaled-down operation the tests run.
    """

    name: str
    why: str
    scenario: dict
    methods: tuple[str, ...]
    nominal_op_s: float
    extra_args: tuple[str, ...] = ()
    shared_scenario: bool = False
    zero_js: bool = False
    small: dict = field(default_factory=dict)

    @property
    def primary(self) -> str:
        return self.methods[0]

    @property
    def train(self) -> bool:
        return "--train" in self.extra_args

    def n_ops(self, seconds: float) -> int:
        return max(MIN_OPS, round(seconds / self.nominal_op_s))

    def scaled_down(self) -> "Workload":
        return replace(self, scenario={**self.scenario, **self.small})


WORKLOADS = (
    Workload(
        name="game_shards",
        why="2-of-10 label shards, N=120 M=8: the game is 98% of traced time (stability "
        "certification 33%, improvement loop 65%) and converges to avg_js 0; alloc under 1%, no hfl",
        scenario=dict(n_clients=120, n_edges=8, n_classes=10, shards=2),
        methods=("leap",),
        nominal_op_s=0.95,
        zero_js=True,
        small=dict(n_clients=20, n_edges=4),
    ),
    Workload(
        name="game_dirichlet",
        why="Dirichlet(0.3) labels over 50 classes, N=40 M=5: improvement loop 80% of traced "
        "time, certification 16% with most sweeps failing; wide histograms, nonzero equilibrium",
        scenario=dict(n_clients=40, n_edges=5, n_classes=50, shards=None, dirichlet_alpha=0.3),
        methods=("leap",),
        nominal_op_s=0.25,
        small=dict(n_clients=16, n_edges=4),
    ),
    Workload(
        name="alloc_bulk",
        why="4000 clients on 40 edges, random association: scenario load 46%, gp_solve 18%, "
        "report writing 15%, plan assembly 7%, power 5% of traced time; no game loop, no hfl",
        scenario=dict(n_clients=4000, n_edges=40, n_classes=10, shards=2),
        methods=("random_assoc",),
        nominal_op_s=0.4,
        shared_scenario=True,
        small=dict(n_clients=200, n_edges=8),
    ),
    Workload(
        name="hfl_train",
        why="toy hierarchical FedAvg, C7 rounds (N=20 M=4 tau_e 40) for 2 global rounds: hfl "
        "95% of traced time (gradient self time 82%, training loops 13%), game and alloc 4%",
        scenario=dict(n_clients=20, n_edges=4, n_classes=10, shards=2, data_size=60,
                      tau_e=40, tau_g=2),
        methods=("leap", "random_assoc"),
        extra_args=("--train", "--features", "8", "--lr", "0.8"),
        nominal_op_s=0.7,
        small=dict(n_clients=8, n_edges=2, tau_e=2, tau_g=2),
    ),
)

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


# The last four are plan-quality guards.  They repeat exactly at a fixed
# seed, but their bounds must also hold across the ten seeds of a set,
# so each bound is set from the seed-to-seed quartile spread.
# uplink_energy_j follows the scenario's geometry (spread up to 0.11 on
# hfl_train), so it only catches energy rises of about a quarter.
# uplink_vs_equal_split divides that energy by a naive allocation of the
# same coalitions (spread under 0.001) and catches a 0.5% rise caused
# by the bandwidth or power choice.  label_similarity is 1 - normalized
# mean pairwise JSD (spread up to 0.0014): it misses a JSD rise below
# 0.005, which is 7% of game_dirichlet's equilibrium JSD.
# deadline_met_frac is 1 on every seed tried; its bound is below one
# client in any run, so a single new deadline miss fails it.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("instance_p50_s", "s", "lower", 0.25),
    Metric("instance_p90_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("uplink_energy_j", "J", "lower", 0.25),
    Metric("uplink_vs_equal_split", "ratio", "lower", 0.005),
    Metric("label_similarity", "ratio", "higher", 0.005),
    Metric("deadline_met_frac", "ratio", "higher", 0.000001),
)

# Totals over the traced operations of one run.  Names ending in
# "_self_s" exclude the time of traced children; other times include it.
PER_LAYER = (
    Metric("dist.js_calls", "count", "lower"),
    Metric("dist.js_self_s", "s", "lower"),
    Metric("dist.us_per_js", "us", "lower"),
    Metric("game.sampled_iters", "count", "lower"),
    Metric("game.accepted", "count", "lower"),
    Metric("game.accept_ratio", "ratio", "higher"),
    Metric("game.switches_priced", "count", "lower"),
    Metric("game.price_self_s", "s", "lower"),
    Metric("game.apply_s", "s", "lower"),
    Metric("game.certify_calls", "count", "lower"),
    Metric("game.certify_failed", "count", "lower"),
    Metric("game.certify_s", "s", "lower"),
    Metric("game.loop_self_s", "s", "lower"),
    Metric("game.init_s", "s", "lower"),
    Metric("alloc.gp_solve_s", "s", "lower"),
    Metric("alloc.gp_iters", "count", "lower"),
    Metric("alloc.objective_evals", "count", "lower"),
    Metric("alloc.halvings", "count", "lower"),
    Metric("alloc.power_s", "s", "lower"),
    Metric("alloc.build_plan_s", "s", "lower"),
    Metric("netmodel.latency_s", "s", "lower"),
    Metric("netmodel.energy_s", "s", "lower"),
    Metric("scenario.generate_s", "s", "lower"),
    Metric("scenario.load_s", "s", "lower"),
    Metric("scenario.file_bytes", "bytes", "lower"),
    Metric("experiment.self_s", "s", "lower"),
    Metric("experiment.emit_s", "s", "lower"),
    Metric("experiment.report_bytes", "bytes", "lower"),
    Metric("hfl.run_s", "s", "lower"),
    Metric("hfl.local_train_calls", "count", "lower"),
    Metric("hfl.grad_calls", "count", "lower"),
    Metric("hfl.grad_self_s", "s", "lower"),
    Metric("hfl.us_per_grad", "us", "lower"),
    Metric("hfl.outer_self_s", "s", "lower"),
    Metric("cli.self_s", "s", "lower"),
    Metric("trace.overhead", "ratio", "lower"),
)


def manifest() -> dict:
    """The BENCHMARK.json document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
