"""Output checks run on every operation, outside the timed region.

Each check returns a list of problems; an operation with any problem
counts as failed.  The checks audit the emitted ``report.json`` against
leapsim's own recomputation: the stored plan must match
``recompute_plan``, the per-client deadline flags must match
``check_deadline``, and a formed partition must be converged and
certified stable when rebuilt from the report.
"""

from __future__ import annotations

import math

import numpy as np

from leapsim.experiment import recompute_plan
from leapsim.game import Partition, certify_stability
from leapsim.netmodel import check_deadline
from leapsim.scenario import Scenario, label_count_matrix

PLAN_ARRAYS = (
    "bandwidth", "client_bandwidth", "power", "comp_latency", "tx_latency",
    "client_latency", "coalition_latency", "comp_energy", "tx_energy",
    "coalition_energy",
)
PLAN_SCALARS = (
    "total_latency", "total_energy", "uplink_energy", "avg_js", "utility",
    "surrogate_objective",
)
RTOL = 1e-9


def _close(stored, fresh) -> bool:
    stored = np.asarray(stored, dtype=float)
    fresh = np.asarray(fresh, dtype=float)
    return stored.shape == fresh.shape and bool(
        np.allclose(stored, fresh, rtol=RTOL, atol=0.0)
    )


def check_method(
    name: str,
    result: dict,
    scenario: Scenario,
    denominator: str,
    zero_js: bool,
    tau_g: int | None,
) -> list[str]:
    problems: list[str] = []
    plan = result["plan"]

    fresh = recompute_plan(
        scenario, result["assignment"], plan["bandwidth"], plan["power"], denominator
    ).to_dict()
    for key in PLAN_ARRAYS + PLAN_SCALARS:
        if not _close(plan[key], fresh[key]):
            problems.append(f"{name}: stored {key} differs from recompute_plan")

    ok, all_ok = check_deadline(plan["client_latency"], scenario.config)
    if [bool(x) for x in ok] != plan["per_client_feasible"]:
        problems.append(f"{name}: per-client deadline flags differ from check_deadline")
    if all_ok != plan["feasible"] or result["feasible"] != plan["feasible"]:
        problems.append(f"{name}: plan feasibility differs from check_deadline")

    if result.get("game_trace") is not None:
        if not result["game_trace"]["converged"]:
            problems.append(f"{name}: coalition game did not converge")
        partition = Partition(
            np.asarray(result["assignment"], dtype=np.int64),
            label_count_matrix(scenario),
            scenario.num_edges,
            denominator,
        )
        if not certify_stability(partition):
            problems.append(f"{name}: rebuilt partition is not Nash-stable")
        if not math.isclose(partition.avg_js(), result["avg_js"], rel_tol=RTOL, abs_tol=1e-15):
            problems.append(f"{name}: avg_js differs from the rebuilt partition")
        if zero_js and result["avg_js"] != 0.0:
            problems.append(f"{name}: avg_js {result['avg_js']!r} is not 0 on a balanced scenario")

    if tau_g is not None:
        curve = result.get("accuracy")
        if curve is None or len(curve) != tau_g:
            problems.append(f"{name}: expected {tau_g} accuracy values")
        elif not all(math.isfinite(a) and 0.0 <= a <= 1.0 for a in curve):
            problems.append(f"{name}: accuracy outside [0, 1] or not finite")
    return problems


def check_report(
    report: dict,
    scenario: Scenario,
    methods: tuple[str, ...],
    zero_js: bool,
    train: bool,
) -> list[str]:
    """Problems found in one operation's report."""
    if report.get("schema") != "leapsim.report.v1":
        return [f"unexpected report schema {report.get('schema')!r}"]
    if sorted(report["methods"]) != sorted(methods):
        return [f"report holds methods {list(report['methods'])}, expected {list(methods)}"]
    problems: list[str] = []
    for name in methods:
        problems += check_method(
            name,
            report["methods"][name],
            scenario,
            report["js_denominator"],
            zero_js,
            scenario.config.tau_g if train else None,
        )
    return problems
