#!/usr/bin/env python3
"""Benchmark of the leapsim planner, measured from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload game_shards --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --write-manifest      # regenerate BENCHMARK.json

One operation is one in-process ``leapsim.cli.main(["compare", ...])``
call: it reads a scenario file and writes ``report.json`` and the CSVs.
Scenario and master seeds derive from ``--seed``.  Load comes from this
single thread in a closed loop, one operation after the other; BLAS is
pinned to one thread.  Every operation's outputs are checked outside
the timed region.

Timings are reported at a reference host speed.  Host speed on a shared
machine drifts by tens of percent over minutes and slows leapsim and a
fixed reference kernel alike: interleaving one identical compare
operation with the kernel for four minutes on a 2-core Xeon VM, means
over 20 operations ranged 0.70-1.05 s while their ratio to the kernel
stayed within 32.9-36.4.  So the kernel runs before and after every
timed operation and set-up, for about a twentieth of its time on each
side, and each time is scaled by REFERENCE_KERNEL_S over the mean kernel
time on its two sides.  The raw wall time and the overall scale are
printed as well.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it wraps each layer's public functions (see tracing.py)
and reports the per-layer metrics instead; the first operations also
run untraced, which gives the tracing overhead and checks that the
emitted files are byte-identical with and without tracing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the run environment and every metric by name and unit.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOADS_BY_NAME,
    Workload,
    manifest,
)

ROOT = Path(__file__).resolve().parent.parent
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_REPEATS = 50
PAIRED_SHARE = 8  # one operation in this many also runs untraced in a traced run
KERNEL_SHARE = 0.05  # reference kernel time per unit of timed work, on each side
REFERENCE_KERNEL_S = 0.014  # the kernel's time on a quiet 2-core Xeon VM


def require_sources() -> None:
    """Put the checkout's own leapsim sources first on the import path."""
    src = ROOT / "src"
    if not (src / "leapsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no leapsim sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def op_seeds(seed: int, n_ops: int) -> tuple[int, list[tuple[int, int]]]:
    """(shared scenario seed, [(scenario seed, master seed)] per operation)."""
    import numpy as np

    root = np.random.SeedSequence(seed)
    shared = int(root.generate_state(1)[0])
    per_op = [tuple(int(x) for x in child.generate_state(2)) for child in root.spawn(n_ops)]
    return shared, per_op


def set_up(workload: Workload, scenario_seeds: list[int], work: Path):
    """Generate and write the scenario files; median of repeated set-ups."""
    from leapsim.scenario import generate_scenario, save_scenario

    totals, generation, gaps = [], [], [kernel_gap(0.0)]
    while len(totals) < SETUP_MIN_REPEATS or (
        sum(totals) < SETUP_MIN_SECONDS and len(totals) < SETUP_MAX_REPEATS
    ):
        start = perf_counter()
        generate = 0.0
        scenarios, paths = [], []
        for i, scenario_seed in enumerate(scenario_seeds):
            begin = perf_counter()
            scenario = generate_scenario(seed=scenario_seed, **workload.scenario)
            generate += perf_counter() - begin
            path = work / f"scenario{i}.json"
            save_scenario(scenario, path)
            scenarios.append(scenario)
            paths.append(path)
        totals.append(perf_counter() - start)
        generation.append(generate)
        gaps.append(kernel_gap(totals[-1]))
    return (
        scenarios,
        paths,
        statistics.median(at_reference_speed(totals, gaps)),
        statistics.median(at_reference_speed(generation, gaps)),
    )


def compare_argv(workload: Workload, scenario: Path, master_seed: int, out: Path) -> list[str]:
    return [
        "compare", "--scenario", str(scenario), "--seed", str(master_seed),
        "--out", str(out), "--methods", *workload.methods, *workload.extra_args,
    ]


def run_op(argv: list[str], tracer=None) -> tuple[float, str | None]:
    """Time one compare call; returns (seconds, error or None)."""
    from leapsim.cli import main
    from tracing import installed

    error = None
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(installed(tracer))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        start = perf_counter()
        try:
            if tracer is None:
                code = main(argv)
            else:
                with tracer.span("cli.main"):
                    code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a failed operation is counted, and the run goes on
            where = traceback.extract_tb(exc.__traceback__)[-1]
            code = None
            error = f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"
        elapsed = perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}"
    return elapsed, error


def reference_kernel() -> float:
    """Seconds for a fixed mix of small numpy reductions and dict updates.

    Any change to this function changes every reported time.
    """
    import numpy as np

    p = np.linspace(1.0, 2.0, 50)
    p /= p.sum()
    q = p[::-1].copy()
    table: dict[int, float] = {}
    acc = 0.0
    start = perf_counter()
    for i in range(3000):
        acc += float(np.sum(p * np.log2(2.0 * p / (p + q))))
        table[i % 97] = acc
    return perf_counter() - start


def kernel_gap(seconds: float) -> float:
    """Mean kernel time over about KERNEL_SHARE * seconds of kernel runs."""
    reps = max(1, round(KERNEL_SHARE * seconds / REFERENCE_KERNEL_S))
    return statistics.fmean(reference_kernel() for _ in range(reps))


def at_reference_speed(durations: list[float], gaps: list[float]) -> list[float]:
    """Scale duration i by the kernel times gaps[i] and gaps[i + 1] around it."""
    return [
        t * 2.0 * REFERENCE_KERNEL_S / (gaps[i] + gaps[i + 1])
        for i, t in enumerate(durations)
    ]


def _same_files(first: Path, second: Path) -> bool:
    names = sorted(p.name for p in first.iterdir())
    return names == sorted(p.name for p in second.iterdir()) and all(
        (first / n).read_bytes() == (second / n).read_bytes() for n in names
    )


def equal_split_uplink(scenario, assignment: list[int]) -> float:
    """Uplink energy of the given coalitions under a naive allocation.

    Every client gets the same bandwidth share and the smallest power
    that meets its deadline, capped at p_max.  The powers come from the
    rate formula here rather than from leapsim.alloc, so a change to the
    planner's bandwidth or power choices moves the plan's energy but not
    this reference, while most of the scenario's geometry cancels.
    """
    import numpy as np
    from leapsim.netmodel import comp_latency, energies

    config, clients = scenario.config, scenario.clients
    share = np.full(len(clients), config.total_bandwidth / len(clients))
    power = np.empty(len(clients))
    for n, (client, edge) in enumerate(zip(clients, assignment)):
        budget = config.iteration_budget - comp_latency(client, config)
        if budget <= 0:
            power[n] = client.p_max
            continue
        with np.errstate(over="ignore"):
            growth = np.expm1(np.log(2.0) * config.model_size / (share[n] * budget))
        power[n] = min(client.p_max, share[n] * config.noise_power * growth / client.gain(edge))
    coalitions = [[] for _ in range(scenario.num_edges)]
    for n, edge in enumerate(assignment):
        coalitions[edge].append(n)
    return energies(coalitions, clients, share, power, config).total_tx


def summarize(report: dict, workload: Workload, scenario) -> dict:
    """The quantities the metrics need from one operation's report."""
    methods = report["methods"]
    primary = methods[workload.primary]
    num_edges = scenario.num_edges
    pairs = num_edges * (num_edges - 1) / 2
    scale = num_edges if report["js_denominator"] == "M" else pairs
    plans = [m["plan"] for m in methods.values()]
    traces = [m["game_trace"] for m in methods.values() if m.get("game_trace")]
    gp_traces = [m["gp_trace"] for m in methods.values() if m.get("gp_trace")]
    uplink = primary["plan"]["uplink_energy"]
    return {
        "uplink_energy": uplink,
        "uplink_ratio": uplink / equal_split_uplink(scenario, primary["assignment"]),
        "avg_js": primary["avg_js"],
        "similarity": 1.0 - primary["avg_js"] * scale / pairs,
        "misses": sum(not ok for p in plans for ok in p["per_client_feasible"]),
        "clients": sum(len(p["per_client_feasible"]) for p in plans),
        "accuracy": methods["leap"]["accuracy"][-1] if workload.train else None,
        "converged_games": sum(1 for t in traces if t["converged"]),
        "sampled": sum(t["iterations_used"] for t in traces),
        "accepted": sum(1 for t in traces for e in t["entries"] if e[3] is not None),
        "gp_iters": sum(t["iterations_used"] for t in gp_traces),
        "gp_solves": len(gp_traces),
    }


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
    n_ops: int | None = None,
) -> dict:
    """Set up, run and check every operation; returns the result record."""
    from checks import check_report
    from tracing import Tracer

    n_ops = n_ops or workload.n_ops(seconds)
    shared_seed, seeds = op_seeds(seed, n_ops)
    scenario_seeds = [shared_seed] if workload.shared_scenario else [s for s, _ in seeds]
    scenarios, paths, setup_s, generate_s = set_up(workload, scenario_seeds, work)

    tracer = Tracer() if trace else None
    paired = max(1, n_ops // PAIRED_SHARE) if trace else 0
    out, plain_out = work / "out", work / "plain"
    times, plain_times, summaries, failures = [], [], [], []
    gaps = [kernel_gap(workload.nominal_op_s)]
    file_bytes = report_bytes = 0
    for i, (_, master_seed) in enumerate(seeds):
        k = 0 if workload.shared_scenario else i
        problems = []
        if i < paired:
            plain_time, error = run_op(compare_argv(workload, paths[k], master_seed, plain_out))
            plain_times.append(plain_time)
            problems += [f"untraced: {error}"] if error else []
        elapsed, error = run_op(compare_argv(workload, paths[k], master_seed, out), tracer)
        times.append(elapsed)
        gaps.append(kernel_gap(elapsed))
        if error:
            problems.append(error)
        else:
            raw = (out / "report.json").read_bytes()
            report = json.loads(raw)
            problems += check_report(
                report, scenarios[k], workload.methods, workload.zero_js, workload.train
            )
            if i < paired and not problems and not _same_files(plain_out, out):
                problems.append("outputs differ between the untraced and the traced run")
            if not problems:
                summaries.append(summarize(report, workload, scenarios[k]))
                report_bytes += len(raw)
                file_bytes += paths[k].stat().st_size
        if problems:
            failures.append({"op": i, "master_seed": master_seed, "problems": problems})

    scaled = at_reference_speed(times, gaps)
    facts = {
        "ops": n_ops,
        "failures": failures,
        "fail_frac": len(failures) / n_ops,
        "setup_s": setup_s,
        "times": times,
        "scaled_times": scaled,
        "summaries": summaries,
        "host_scale": sum(scaled) / sum(times),
    }
    if tracer is None:
        metrics = end_to_end_metrics(facts)
    else:
        metrics, warnings = layer_metrics(
            tracer, facts["host_scale"], summaries, generate_s, file_bytes, report_bytes,
            sum(times[:paired]) / sum(plain_times),
        )
        facts["trace_warnings"] = warnings
        facts["trace_missing"] = tracer.missing
    return {"metrics": metrics, "facts": facts}


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end_metrics(facts: dict) -> dict[str, float]:
    times, summaries = facts["scaled_times"], facts["summaries"]
    clients = sum(s["clients"] for s in summaries)
    misses = sum(s["misses"] for s in summaries)
    return {
        "setup_s": facts["setup_s"],
        "wall_s": sum(times),
        "instance_p50_s": statistics.median(times),
        "instance_p90_s": statistics.quantiles(times, n=10, method="inclusive")[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "uplink_energy_j": _mean([s["uplink_energy"] for s in summaries]),
        "uplink_vs_equal_split": _mean([s["uplink_ratio"] for s in summaries]),
        "label_similarity": _mean([s["similarity"] for s in summaries]),
        "deadline_met_frac": 1.0 - misses / clients if clients else 0.0,
    }


def layer_metrics(tracer, scale, summaries, generate_s, file_bytes, report_bytes, overhead):
    """Per-layer metrics from the tracer and the reports; also consistency warnings.

    Traced times are multiplied by the run's host-speed ``scale``.
    """
    stats = tracer.summary()

    def get(name: str, key: str) -> float:
        if key == "count":
            return stats.get(name, {}).get(key, 0)
        return scale * stats.get(name, {}).get(key, 0.0)

    def per_call_us(name: str) -> float:
        calls = get(name, "count")
        return 1e6 * get(name, "self") / calls if calls else 0.0

    sampled = sum(s["sampled"] for s in summaries)
    accepted = sum(s["accepted"] for s in summaries)
    gp_iters = sum(s["gp_iters"] for s in summaries)
    certify_calls = get("game.certify", "count")
    solves = get("alloc.gp_solve", "count")
    evals = tracer.count_under("alloc.objective", "alloc.gp_solve")
    metrics = {
        "dist.js_calls": get("dist.js", "count"),
        "dist.js_self_s": get("dist.js", "self"),
        "dist.us_per_js": per_call_us("dist.js"),
        "game.sampled_iters": sampled,
        "game.accepted": accepted,
        "game.accept_ratio": accepted / sampled if sampled else 0.0,
        "game.switches_priced": get("game.price", "count"),
        "game.price_self_s": get("game.price", "self"),
        "game.apply_s": get("game.apply", "total"),
        "game.certify_calls": certify_calls,
        # every passing game converged, which ends with one successful sweep
        "game.certify_failed": certify_calls - sum(s["converged_games"] for s in summaries),
        "game.certify_s": get("game.certify", "total"),
        "game.loop_self_s": get("game.loop", "self"),
        "game.init_s": get("game.init", "total"),
        "alloc.gp_solve_s": get("alloc.gp_solve", "total"),
        "alloc.gp_iters": gp_iters,
        "alloc.objective_evals": evals,
        "alloc.halvings": evals - gp_iters - solves,
        "alloc.power_s": get("alloc.power", "total"),
        "alloc.build_plan_s": get("alloc.build_plan", "total"),
        "netmodel.latency_s": get("netmodel.latency", "total"),
        "netmodel.energy_s": get("netmodel.energy", "total"),
        "scenario.generate_s": generate_s,
        "scenario.load_s": get("scenario.load", "total"),
        "scenario.file_bytes": file_bytes,
        "experiment.self_s": get("experiment.run", "self"),
        "experiment.emit_s": get("experiment.emit", "total"),
        "experiment.report_bytes": report_bytes,
        "hfl.run_s": get("hfl.run", "total"),
        "hfl.local_train_calls": get("hfl.local_train", "count"),
        "hfl.grad_calls": get("hfl.grad", "count"),
        "hfl.grad_self_s": get("hfl.grad", "self"),
        "hfl.us_per_grad": per_call_us("hfl.grad"),
        "hfl.outer_self_s": get("hfl.run", "self") + get("hfl.local_train", "self"),
        "cli.self_s": get("cli.main", "self"),
        "trace.overhead": overhead,
    }
    warnings = []
    if get("game.apply", "count") != accepted:
        warnings.append("Partition.apply calls differ from accepted switches in the game traces")
    if solves != sum(s["gp_solves"] for s in summaries):
        warnings.append("gp_solve calls differ from the GP traces in the reports")
    return metrics, warnings


def environment(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = None
    with contextlib.suppress(AttributeError, KeyError, TypeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "workload": {k: v for k, v in asdict(workload).items() if k not in ("why", "small")},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def report_lines(
    facts: dict, metrics: dict, units: dict[str, str], workload: Workload, trace: bool
) -> list[str]:
    lines = [f"{name} = {value!r} {units[name]}" for name, value in metrics.items()]
    lines.append(f"ops = {facts['ops']} count")
    lines.append(f"host_scale = {facts['host_scale']!r} ratio")
    lines.append(f"raw_wall_s = {sum(facts['times'])!r} s")
    lines.append(f"fail_frac = {facts['fail_frac']!r} ratio")
    summaries = facts["summaries"]
    if not trace and summaries:
        clients = sum(s["clients"] for s in summaries)
        lines.append(f"avg_js = {_mean([s['avg_js'] for s in summaries])!r} bits")
        lines.append(
            f"deadline_miss_frac = {sum(s['misses'] for s in summaries) / clients!r} ratio"
        )
        if workload.train:
            lines.append(
                f"final_accuracy = {_mean([s['accuracy'] for s in summaries])!r} ratio"
            )
    for failure in facts["failures"]:
        lines.append(f"FAILED op {failure['op']}: {'; '.join(failure['problems'])}")
    for warning in facts.get("trace_warnings", []):
        lines.append(f"WARNING {warning}")
    for label in facts.get("trace_missing", []):
        lines.append(f"WARNING not traced, no such function: {label}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    require_sources()
    workload = WORKLOADS_BY_NAME[args.workload]
    trace = bool(args.trace)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    try:
        result = run_workload(workload, args.seed, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    facts, metrics = result["facts"], result["metrics"]
    units = {m.name: m.unit for m in (PER_LAYER if trace else END_TO_END)}
    print("env " + json.dumps(environment(workload, args.seed, args.seconds, trace), sort_keys=True))
    for line in report_lines(facts, metrics, units, workload, trace):
        print(line)
    failed = len(facts["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": facts["ops"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
