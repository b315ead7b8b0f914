"""Independent reference implementations used to check the package.

Everything here is written directly from the defining formulas with
plain numpy, deliberately avoiding the package's own code paths, so a
test comparing the two is a genuine dual-route check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

LN2 = math.log(2.0)


def kl_ref(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))


def js_ref(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = (a + b) / 2.0
    return 0.5 * (kl_ref(a, mid) + kl_ref(b, mid))


def avg_js_ref(prob_rows, denominator="M"):
    m = len(prob_rows)
    total = sum(
        js_ref(prob_rows[i], prob_rows[j])
        for i in range(m)
        for j in range(i + 1, m)
    )
    return total / (m if denominator == "M" else m * (m - 1) / 2)


def partition_avg_js_ref(assignment, counts, num_coalitions, denominator="M"):
    """Average JS of a partition recomputed from scratch."""
    rows = []
    for m in range(num_coalitions):
        members = np.nonzero(np.asarray(assignment) == m)[0]
        total = counts[members].sum(axis=0).astype(float)
        rows.append(total / total.sum())
    return avg_js_ref(rows, denominator)


def stable_ref(assignment, counts, num_coalitions, tolerance=1e-10, denominator="M"):
    """Brute-force Nash-stability check: every admissible single-client
    move is priced by recomputing the partition's avg JS from scratch."""
    assignment = np.asarray(assignment)
    base = partition_avg_js_ref(assignment, counts, num_coalitions, denominator)
    sizes = np.bincount(assignment, minlength=num_coalitions)
    for client, source in enumerate(assignment):
        if sizes[source] == 1:
            continue
        for target in range(num_coalitions):
            if target == source:
                continue
            moved = assignment.copy()
            moved[client] = target
            after = partition_avg_js_ref(moved, counts, num_coalitions, denominator)
            if after - base < -tolerance:
                return False
    return True


def enumerate_best_avg_js(counts, num_coalitions, denominator="M"):
    """Exhaustive global optimum over assignments with no empty coalition."""
    n = counts.shape[0]
    assignments = np.array(
        list(itertools.product(range(num_coalitions), repeat=n)), dtype=np.int64
    )
    valid = np.ones(len(assignments), dtype=bool)
    for m in range(num_coalitions):
        valid &= (assignments == m).any(axis=1)
    assignments = assignments[valid]
    onehot = np.eye(num_coalitions)[assignments]
    coal = np.einsum("knm,nc->kmc", onehot, counts.astype(float))
    probs = coal / coal.sum(axis=2, keepdims=True)

    total = np.zeros(len(assignments))
    for i in range(num_coalitions):
        for j in range(i + 1, num_coalitions):
            p, q = probs[:, i, :], probs[:, j, :]
            mid = (p + q) / 2.0
            kl_p = np.where(
                p > 0, p * np.log2(np.where(p > 0, p, 1.0) / np.where(mid > 0, mid, 1.0)), 0.0
            ).sum(axis=1)
            kl_q = np.where(
                q > 0, q * np.log2(np.where(q > 0, q, 1.0) / np.where(mid > 0, mid, 1.0)), 0.0
            ).sum(axis=1)
            total += (kl_p + kl_q) / 2.0
    denom = num_coalitions if denominator == "M" else num_coalitions * (num_coalitions - 1) / 2
    return float(total.min() / denom)


def worst_client(members, clients, edge):
    """Member with the weakest transmission, argmin of p_max * gain; ties
    resolve to the lowest client id."""
    return min(members, key=lambda n: (clients[n].p_max * clients[n].gain(edge), n))


def surrogate_objective_ref(bandwidths, coalitions, clients, cfg):
    """Worst-case-energy bandwidth objective, vectorized over grids.

    ``bandwidths`` is a list of arrays, one per coalition, of matching
    shape (scalars broadcast).
    """
    total = np.zeros(np.broadcast(*[np.asarray(b) for b in bandwidths]).shape)
    for m, members in enumerate(coalitions):
        size = len(members)
        worst = worst_client(members, clients, m)
        p = clients[worst].p_max
        h = clients[worst].gain(m)
        share = np.asarray(bandwidths[m], dtype=float) / size
        rate = share * np.log1p(p * h / (share * cfg.noise_power)) / LN2
        total = total + cfg.lambda2 * size * cfg.tau_g * cfg.tau_e * p * cfg.model_size / rate
    return total


def tx_time_ref(share, power, gain, cfg):
    rate = share * math.log1p(power * gain / (share * cfg.noise_power)) / LN2
    return cfg.model_size / rate


def comp_time_ref(client, cfg):
    return cfg.tau_c * client.cycles_per_item * client.data_size / client.cpu_freq


def deadline_powers_ref(coalitions, clients, cfg, bandwidth):
    """Per-client loop over the member sets: the smallest power meeting the
    budget at the equal coalition share, clipped at p_max; p_max and a
    note where computation alone exceeds the budget."""
    power = np.empty(len(clients))
    notes = []
    for m, members in enumerate(coalitions):
        share = bandwidth[m] / len(members)
        for n in sorted(members):
            c = clients[n]
            budget = cfg.iteration_budget - comp_time_ref(c, cfg)
            if budget <= 0:
                power[n] = c.p_max
                notes.append(f"client {n}: computation alone exceeds the deadline budget")
                continue
            exponent = cfg.model_size / (share * budget) * LN2
            growth = math.expm1(exponent) if exponent < 700 else math.inf
            power[n] = min(c.p_max, share * cfg.noise_power * growth / c.gain(m))
    return power, notes


def plan_ref(coalitions, clients, cfg, bandwidth, power, avg_js):
    """Every AllocationPlan field from per-client loops over the member sets."""
    n_clients = len(clients)
    share = np.empty(n_clients)
    t_comp = np.empty(n_clients)
    t_tx = np.empty(n_clients)
    e_comp = np.empty(n_clients)
    for m, members in enumerate(coalitions):
        for n in members:
            c = clients[n]
            share[n] = bandwidth[m] / len(members)
            t_comp[n] = comp_time_ref(c, cfg)
            t_tx[n] = tx_time_ref(share[n], power[n], c.gain(m), cfg)
            e_comp[n] = cfg.tau_c * cfg.capacitance * c.cycles_per_item * c.data_size * c.cpu_freq**2
    t_client = t_comp + t_tx
    e_tx = t_tx * power
    rounds = cfg.tau_g * cfg.tau_e
    coalition_latency = [cfg.tau_e * max(t_client[n] for n in members) for members in coalitions]
    coalition_energy = [rounds * sum(e_comp[n] + e_tx[n] for n in members) for members in coalitions]
    total_energy = sum(coalition_energy)
    ok = [t <= cfg.iteration_budget * (1 + 1e-9) for t in t_client]
    return {
        "bandwidth": list(bandwidth),
        "client_bandwidth": list(share),
        "power": list(power),
        "comp_latency": list(t_comp),
        "tx_latency": list(t_client - t_comp),
        "client_latency": list(t_client),
        "coalition_latency": coalition_latency,
        "total_latency": cfg.tau_g * max(coalition_latency),
        "comp_energy": list(e_comp),
        "tx_energy": list(e_tx),
        "coalition_energy": coalition_energy,
        "total_energy": total_energy,
        "uplink_energy": rounds * sum(e_tx),
        "avg_js": avg_js,
        "utility": cfg.lambda1 * (1 - avg_js) - cfg.lambda2 * total_energy,
        "surrogate_objective": float(
            surrogate_objective_ref(list(bandwidth), coalitions, clients, cfg)
        ),
        "per_client_feasible": ok,
        "feasible": all(ok),
    }


def bisect_min_feasible_power(client, share, gain, cfg, resolution_factor=1e-7):
    """Smallest power meeting the per-iteration budget, or None.

    Bisection on the feasibility predicate over (0, p_max] down to
    resolution_factor * p_max, justified because upload time is
    strictly decreasing in power.
    """
    t_comp = cfg.tau_c * client.cycles_per_item * client.data_size / client.cpu_freq
    budget = cfg.iteration_budget - t_comp
    if budget <= 0:
        raise ValueError("no transmission budget at all")
    if tx_time_ref(share, client.p_max, gain, cfg) > budget:
        return None
    lo, hi = 0.0, client.p_max
    while hi - lo > resolution_factor * client.p_max:
        mid = (lo + hi) / 2.0
        if mid > 0 and tx_time_ref(share, mid, gain, cfg) <= budget:
            hi = mid
        else:
            lo = mid
    return hi


def make_alloc_instance(rng, num_coalitions, symmetric=False, deadline=1e9):
    """Random well-conditioned allocation instance for solver tests.

    Channel gains are drawn so the SNR at typical shares spans roughly
    [0.3, 300], where bandwidth genuinely matters; the deep low-SNR
    regime would make the objective nearly flat.
    """
    from leapsim.netmodel import ClientProfile, NetworkConfig

    sizes = [4] * num_coalitions if symmetric else rng.integers(2, 8, size=num_coalitions)
    h_shared = float(np.exp(rng.uniform(np.log(3e-7), np.log(3e-5))))
    p_shared = float(rng.uniform(0.1, 1.0))
    clients, coalitions, next_id = [], [], 0
    for m in range(num_coalitions):
        members = set()
        for _ in range(sizes[m]):
            gain = h_shared if symmetric else float(
                np.exp(rng.uniform(np.log(3e-7), np.log(3e-5)))
            )
            p_max = p_shared if symmetric else float(rng.uniform(0.1, 1.0))
            clients.append(
                ClientProfile(
                    data_size=100,
                    cycles_per_item=2e5,
                    cpu_freq=1.5e9,
                    channel_gains=tuple(gain for _ in range(num_coalitions)),
                    p_max=p_max,
                    label_counts=(100,),
                )
            )
            members.add(next_id)
            next_id += 1
        coalitions.append(members)
    cfg = NetworkConfig(
        total_bandwidth=1e7,
        noise_power=1e-13,
        model_size=1e6,
        tau_c=5,
        tau_e=12,
        tau_g=100,
        deadline=deadline,
        capacitance=1e-28,
    )
    return coalitions, clients, cfg


def random_counts(rng, n_clients, n_classes, scheme="dirichlet", size=20, alpha=0.7):
    """Random per-client label count matrices for game tests."""
    counts = np.zeros((n_clients, n_classes), dtype=np.int64)
    if scheme == "dirichlet":
        for n in range(n_clients):
            counts[n] = rng.multinomial(size, rng.dirichlet(np.full(n_classes, alpha)))
    elif scheme == "shard":
        shards = int(rng.integers(1, 3))
        per = size // shards
        for n in range(n_clients):
            classes = rng.choice(n_classes, size=shards, replace=False)
            for c in classes:
                counts[n, c] = per
    else:
        raise ValueError(scheme)
    return counts
