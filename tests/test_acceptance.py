"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Every tolerance is pinned here;
nothing is deferred to later calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest

import leapsim as L
from leapsim.cli import main as cli_main
from leapsim.game import evaluate_switch
from leapsim.hfl import (
    SyntheticDataset,
    edge_aggregate,
    init_params,
    onehot_targets,
    run_hfl,
    softmax_loss_and_grad,
)
from leapsim.netmodel import comp_latency, tx_latency

from oracles import (
    bisect_min_feasible_power,
    enumerate_best_avg_js,
    flat_params,
    make_alloc_instance,
    make_clients,
    min_uplink_energy_grid_ref,
    model_params,
    potential_ref,
    random_counts,
    softmax_loss_and_grad_labels_ref,
    surrogate_objective_ref,
    switch_deltas_ref,
    uplink_energy_ref,
)


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_c1_exact_potential_property():
    """C1: |delta potential - delta utility| <= 1e-9 on 1000 random switches.

    The potential is recomputed from the label counts by the oracle; the
    utility change is the switch's price as the game computes it, from
    the pairs that touch the source and the target coalition only.
    """
    rng = np.random.default_rng(90210)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 1000:
        m = int(rng.integers(2, 6))
        n = int(rng.integers(m + 1, 21))
        c = int(rng.integers(2, 11))
        counts = random_counts(rng, n, c, scheme="dirichlet", size=int(rng.integers(5, 50)))
        partition = L.random_partition(counts, m, rng)
        client = int(rng.integers(n))
        source = int(partition.assignment[client])
        if partition.sizes[source] == 1:
            continue
        target = int(rng.choice([k for k in range(m) if k != source]))
        proposal = evaluate_switch(partition, client, target, switch_deltas_ref(partition, client))

        moved = partition.assignment.copy()
        moved[client] = target
        delta_potential = potential_ref(moved, counts, m) - potential_ref(
            partition.assignment, counts, m
        )
        delta_utility = proposal.delta_js * partition.pair_denominator()
        worst = max(worst, abs(delta_potential - delta_utility))
        assert abs(delta_potential - delta_utility) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(f"C1 PASS exact-potential: 1000/1000 within 1e-9 "
           f"(worst {worst:.2e}, {elapsed:.1f}s < 10s)")


def test_c2_balanced_scenario_converges_to_zero():
    """C2: adversarial 2-shard start reaches avg JS 0 monotonically, 10 seeds."""
    start = time.perf_counter()
    scenario = L.generate_scenario(seed=42, n_clients=25, n_edges=5, n_classes=10, shards=2)
    finals = []
    for seed in range(10):
        initial = L.shard_grouped_partition(scenario)
        final, trace = L.run_coalition_formation(initial, max_iters=10000, rng_seed=seed)
        values = [entry[4] for entry in trace.entries]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:])), "trace not monotone"
        assert final.avg_js() <= 1e-9
        assert trace.converged
        finals.append(final.avg_js())
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"C2 PASS coalition convergence: 10/10 seeds reach avg_js 0 "
           f"(max final {max(finals):.1e}, initial {L.shard_grouped_partition(scenario).avg_js():.2f}, "
           f"{elapsed:.1f}s < 30s)")


def test_c3_local_optimality_strength():
    """C3: converged avg JS hits the exhaustive optimum in >= 95 of 100 runs."""
    rng = np.random.default_rng(12345)
    hits = 0
    for _ in range(100):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(m + 1, 9))
        c = int(rng.integers(3, 6))
        counts = random_counts(rng, n, c, scheme="shard", size=20)
        initial = L.random_partition(counts, m, rng)
        final, _ = L.run_coalition_formation(
            initial, max_iters=3000, rng_seed=int(rng.integers(2**32))
        )
        best = enumerate_best_avg_js(counts, m)
        if final.avg_js() <= best + 1e-9:
            hits += 1
    assert hits >= 95
    report(f"C3 PASS local-optimality: {hits}/100 converged runs at the "
           f"exhaustive global optimum (>= 95 required; label-shard instances)")


def test_c4_gradient_projection_matches_grid_oracles():
    """C4: GP matches grid search (M=2 coords, M=3 objective), monotone traces."""
    start = time.perf_counter()
    rng = np.random.default_rng(777)

    worst_coord = 0.0
    for _ in range(50):
        coalitions, clients, cfg = make_alloc_instance(rng, 2)
        b_star, trace = L.gp_solve(coalitions, clients, cfg)
        values = trace.objective_values
        assert all(b <= a for a, b in zip(values, values[1:]))
        floor = 1e-6 * cfg.total_bandwidth
        grid = np.linspace(floor, cfg.total_bandwidth - floor, 100000)
        objective = surrogate_objective_ref(
            [grid, cfg.total_bandwidth - grid], coalitions, clients, cfg
        )
        first = grid[int(np.argmin(objective))]
        oracle = np.array([first, cfg.total_bandwidth - first])
        rel = float(np.max(np.abs(b_star - oracle) / oracle))
        worst_coord = max(worst_coord, rel)
        assert rel <= 1e-3

    worst_gap = -math.inf
    for _ in range(20):
        coalitions, clients, cfg = make_alloc_instance(rng, 3)
        b_star, trace = L.gp_solve(coalitions, clients, cfg)
        values = trace.objective_values
        assert all(b <= a for a, b in zip(values, values[1:]))
        solved = L.p3_objective(b_star, coalitions, clients, cfg)
        total, floor = cfg.total_bandwidth, 1e-6 * cfg.total_bandwidth
        axis = np.linspace(floor, total - 2 * floor, 200)
        b1, b2 = np.meshgrid(axis, axis)
        b3 = total - b1 - b2
        mask = b3 >= floor
        b1, b2, b3 = b1[mask], b2[mask], b3[mask]
        grid_best = float(
            surrogate_objective_ref([b1, b2, b3], coalitions, clients, cfg).min()
        )
        gap = (solved - grid_best) / abs(grid_best)
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6

    for m in (2, 3, 5):
        coalitions, clients, cfg = make_alloc_instance(rng, m, symmetric=True)
        b_star, _ = L.gp_solve(coalitions, clients, cfg)
        equal = cfg.total_bandwidth / m
        assert np.all(np.abs(b_star - equal) / equal <= 1e-6)

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"C4 PASS gradient projection: 50 M=2 coords within 1e-3 "
           f"(worst {worst_coord:.1e}), 20 M=3 objectives within 1e-6 of grid "
           f"(worst gap {worst_gap:+.1e}), symmetric exact ({elapsed:.1f}s < 60s)")


def test_c5_power_matches_bisection_oracle():
    """C5: closed-form power equals the bisection oracle and sits on the deadline."""
    rng = np.random.default_rng(4242)
    checked = 0
    clamped = 0
    worst_gap = 0.0
    worst_deadline = 0.0
    while checked < 200:
        gain = float(np.exp(rng.uniform(np.log(3e-7), np.log(3e-5))))
        data_size = int(rng.integers(50, 300))
        table = make_clients(
            data_size=data_size,
            cycles_per_item=float(rng.uniform(1e5, 5e5)),
            cpu_freq=float(rng.uniform(1e9, 2e9)),
            gains=gain,
            p_max=float(rng.uniform(0.1, 1.0)),
        )
        client = table[0]
        share = float(rng.uniform(1e5, 2e6))
        cfg = L.NetworkConfig(
            total_bandwidth=1e7, noise_power=1e-13, model_size=1e6,
            tau_c=5, tau_e=12, tau_g=100,
            deadline=float(rng.uniform(2e5, 3e6)), capacitance=1e-28,
        )
        if cfg.iteration_budget <= comp_latency(client, cfg):
            continue
        checked += 1
        power, _ = L.deadline_powers(np.zeros(1, dtype=np.int64), table, cfg, [share])
        solved = float(power[0])
        oracle = bisect_min_feasible_power(client, share, gain, cfg)
        if oracle is None:
            assert solved == client.p_max
            clamped += 1
            continue
        gap = abs(solved - oracle)
        worst_gap = max(worst_gap, gap / client.p_max)
        assert gap <= 1e-7 * client.p_max
        if solved < client.p_max:
            total = comp_latency(client, cfg) + tx_latency(share, solved, gain, cfg)
            rel = abs(total - cfg.iteration_budget) / cfg.iteration_budget
            worst_deadline = max(worst_deadline, rel)
            assert rel <= 1e-9

    # transmission energy is strictly increasing in power (log-spaced grid)
    cfg = L.NetworkConfig(
        total_bandwidth=1e7, noise_power=1e-13, model_size=1e6,
        tau_c=5, tau_e=12, tau_g=100, deadline=1e6, capacitance=1e-28,
    )
    for gain in (1e-7, 1e-6, 1e-5):
        powers = np.logspace(-6, 0, 200)
        energy = np.array([tx_latency(5e5, p, gain, cfg) * p for p in powers])
        assert np.all(np.diff(energy) > 0)

    report(f"C5 PASS power: 200/200 match bisection within 1e-7*p_max "
           f"(worst {worst_gap:.1e}, {clamped} clamped at p_max), deadline equality "
           f"worst {worst_deadline:.1e} <= 1e-9, uplink energy monotone in power")


def test_c6_baseline_comparison():
    """C6: optimized plans beat RB_RP on uplink energy and stay feasible; RP trips."""
    ratios = []
    rp_violations = 0
    for k in range(20):
        scenario = L.generate_scenario(seed=k, n_clients=20, n_edges=4)
        rep = L.run_experiment(
            scenario, methods=["leap", "rp", "rb_rp"], master_seed=1000 + k
        )
        leap = rep.methods["leap"]
        rb_rp = rep.methods["rb_rp"]
        assert leap.feasible, f"scenario {k}: optimized plan missed the deadline"
        assert leap.plan["uplink_energy"] < rb_rp.plan["uplink_energy"], (
            f"scenario {k}: rb_rp beat the optimized pipeline"
        )
        ratios.append(rb_rp.plan["uplink_energy"] / leap.plan["uplink_energy"])
        if not rep.methods["rp"].feasible:
            rp_violations += 1
    assert rp_violations >= 1
    report(f"C6 PASS baselines: uplink energy leap < rb_rp in 20/20 scenarios, "
           f"achieved ratio min/mean/max = {min(ratios):.2f}/{np.mean(ratios):.2f}/"
           f"{max(ratios):.2f}; rp violated the deadline in {rp_violations}/20; "
           f"leap feasible in all")


def test_c7_directional_accuracy_effect():
    """C7: balanced coalitions train at least as well as random ones, 5 seeds."""
    start = time.perf_counter()
    leap_acc, random_acc = [], []
    for seed in range(5):
        scenario = L.generate_scenario(
            seed=1000 + seed, n_clients=20, n_edges=4, n_classes=10, shards=2,
            data_size=60,
        )
        counts = L.label_count_matrix(scenario)
        dataset = SyntheticDataset.generate(
            counts.tolist(), n_features=8, seed=2000 + seed,
            class_sep=1.0, noise=1.0, test_per_class=200,
        )
        initial = L.random_partition(counts, 4, np.random.default_rng(seed))
        leap_part, trace = L.run_coalition_formation(initial, max_iters=4000, rng_seed=seed)
        assert trace.converged
        random_part = L.random_partition(counts, 4, np.random.default_rng(7000 + seed))

        _, leap_curve = run_hfl(leap_part, dataset, tau_c=5, tau_e=40, tau_g=8, lr=0.8, seed=seed)
        _, random_curve = run_hfl(random_part, dataset, tau_c=5, tau_e=40, tau_g=8, lr=0.8, seed=seed)
        leap_acc.append(leap_curve[-1])
        random_acc.append(random_curve[-1])

    wins = sum(l > r for l, r in zip(leap_acc, random_acc))
    assert np.mean(leap_acc) >= np.mean(random_acc)
    assert wins >= 4
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(f"C7 PASS accuracy effect: mean {np.mean(leap_acc):.4f} vs "
           f"{np.mean(random_acc):.4f}, strict wins {wins}/5 (>= 4 required), "
           f"{elapsed:.0f}s < 300s")


def test_c8_gradient_and_model_checks():
    """C8: analytic gradients vs finite differences; nested aggregation exact."""
    rng = np.random.default_rng(31415)

    worst_p3 = 0.0
    for _ in range(10):
        m = int(rng.integers(2, 5))
        coalitions, clients, cfg = make_alloc_instance(rng, m)
        bandwidth = rng.dirichlet(np.ones(m)) * cfg.total_bandwidth
        grad = L.p3_gradient(bandwidth, coalitions, clients, cfg)
        for k in range(m):
            step = 1e-4 * bandwidth[k]
            up, down = bandwidth.copy(), bandwidth.copy()
            up[k] += step
            down[k] -= step
            numeric = (
                L.p3_objective(up, coalitions, clients, cfg)
                - L.p3_objective(down, coalitions, clients, cfg)
            ) / (2 * step)
            rel = abs(grad[k] - numeric) / abs(grad[k])
            worst_p3 = max(worst_p3, rel)
            assert rel < 1e-5

    worst_lr = 0.0
    features = rng.normal(size=(15, 5))
    labels = rng.integers(4, size=15)
    params = 0.3 * rng.standard_normal(4 * (5 + 1))  # flat, as the reference perturbs it
    design = np.ones((15, 6))  # [X | 1]
    design[:, :5] = features
    step = np.empty((4, 6))  # [grad_W | grad_b]
    softmax_loss_and_grad(
        model_params(params, 4, 5), design, onehot_targets(labels, 4), design / 15,
        step, np.empty((4, 15)), np.empty(15),
    )
    grad = flat_params(step)
    eps = 1e-6
    for k in range(params.size):
        up, down = params.copy(), params.copy()
        up[k] += eps
        down[k] -= eps
        lu, _ = softmax_loss_and_grad_labels_ref(up, features, labels, 4)
        ld, _ = softmax_loss_and_grad_labels_ref(down, features, labels, 4)
        numeric = (lu - ld) / (2 * eps)
        rel = abs(grad[k] - numeric) / max(abs(grad[k]), 1e-8)
        worst_lr = max(worst_lr, rel)
        assert rel < 1e-4

    worst_agg = 0.0
    for _ in range(20):
        models = [rng.normal(size=(3, 3)) for _ in range(7)]  # [W | b], K = 3, d = 2
        sizes = rng.integers(1, 50, size=7).astype(float)
        groups = [[0, 1, 2], [3, 4], [5, 6]]
        edge_models = [
            edge_aggregate([models[i] for i in g], [sizes[i] for i in g]) for g in groups
        ]
        edge_sizes = [sum(sizes[i] for i in g) for g in groups]
        nested = edge_aggregate(edge_models, edge_sizes)
        flat = edge_aggregate(models, sizes)
        assert nested.shape == flat.shape == (3, 3)
        worst_agg = max(worst_agg, float(np.max(np.abs(nested - flat))))
        assert np.max(np.abs(nested - flat)) <= 1e-12

    report(f"C8 PASS gradients and model: bandwidth gradient worst rel {worst_p3:.1e} "
           f"< 1e-5, learner gradient worst rel {worst_lr:.1e} < 1e-4, nested vs flat "
           f"aggregation worst {worst_agg:.1e} <= 1e-12")


def test_c9_end_to_end_determinism(tmp_path):
    """C9: identical seeds produce byte-identical pipelines."""
    gen_dirs = [tmp_path / "gen1", tmp_path / "gen2"]
    for out in gen_dirs:
        code = cli_main(
            ["gen", "--seed", "17", "--clients", "12", "--edges", "3",
             "--data-size", "40", "--out", str(out)]
        )
        assert code == 0
    scenario_bytes = [(d / "scenario.bin").read_bytes() for d in gen_dirs]
    assert scenario_bytes[0] == scenario_bytes[1]

    run_dirs = [tmp_path / "run1", tmp_path / "run2"]
    for out in run_dirs:
        code = cli_main(
            ["compare", "--scenario", str(gen_dirs[0] / "scenario.bin"),
             "--seed", "23", "--out", str(out), "--train",
             "--features", "4", "--tau-c", "2", "--tau-e", "2", "--tau-g", "3"]
        )
        assert code == 0
    names = sorted(p.name for p in run_dirs[0].iterdir())
    assert names == sorted(p.name for p in run_dirs[1].iterdir())
    for name in names:
        assert (run_dirs[0] / name).read_bytes() == (run_dirs[1] / name).read_bytes(), name
    report(f"C9 PASS determinism: {len(names) + 1} output files byte-identical "
           f"across two full pipeline runs (incl. training curves)")


def test_c10_what_the_bandwidth_stage_buys():
    """C10: the GP's split lowers the worst-member surrogate, lands near the
    least total uplink energy, and the random baselines use more.

    Measured at these seeds (N=30, M=3): ``leap`` 0.04-0.41% above the
    grid optimum of total uplink energy, ``rp`` 1.09-1.30x and ``rb_rp``
    1.19-1.66x ``leap``'s uplink energy.  The GP minimizes the surrogate,
    not total uplink energy, so ``leap`` is not always below ``equal_split``
    on the latter; only the surrogate is guaranteed."""
    gaps, rp_ratios, rb_rp_ratios = [], [], []
    for seed in range(1, 11):
        scenario = L.generate_scenario(seed=seed, n_clients=30, n_edges=3)
        rep = L.run_experiment(
            scenario, methods=["leap", "equal_split", "rp", "rb_rp"], master_seed=seed
        )
        leap, equal = rep.methods["leap"].plan, rep.methods["equal_split"].plan
        # the GP starts from the equal split and accepts only descents
        assert leap["surrogate_objective"] <= equal["surrogate_objective"], seed

        assignment = np.asarray(rep.methods["leap"].assignment)
        clients, cfg = scenario.clients, scenario.config
        at_leap = uplink_energy_ref([leap["bandwidth"]], assignment, clients, cfg)[0]
        assert math.isclose(at_leap, leap["uplink_energy"], rel_tol=1e-9), seed
        optimum, _ = min_uplink_energy_grid_ref(assignment, clients, cfg)
        gap = leap["uplink_energy"] / optimum - 1.0
        # the grid optimum lies within ~2e-6 of a finer grid's at these seeds
        assert -1e-5 <= gap <= 0.01, (seed, gap)
        gaps.append(gap)

        rp_ratios.append(rep.methods["rp"].plan["uplink_energy"] / leap["uplink_energy"])
        rb_rp_ratios.append(rep.methods["rb_rp"].plan["uplink_energy"] / leap["uplink_energy"])
        assert rp_ratios[-1] >= 1.05 and rb_rp_ratios[-1] >= 1.10, seed
    report(f"C10 PASS bandwidth stage: surrogate leap <= equal_split in 10/10, leap "
           f"{min(gaps):.2%}-{max(gaps):.2%} above the grid's least uplink energy (<= 1%), "
           f"rp {min(rp_ratios):.2f}-{max(rp_ratios):.2f}x (>= 1.05x) and rb_rp "
           f"{min(rb_rp_ratios):.2f}-{max(rb_rp_ratios):.2f}x (>= 1.10x) leap's uplink energy")
