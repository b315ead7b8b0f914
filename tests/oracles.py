"""Independent reference implementations used to check the package.

Everything here is written directly from the defining formulas with
plain numpy, deliberately avoiding the package's own code paths, so a
test comparing the two is a genuine dual-route check.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

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


def js_rows_ratio_ref(p, q):
    """Ratio-form JS kernel: sum_k x_k (1 + log2(x_k / (p_k + q_k))) over
    both inputs, halved and clipped to [0, 1], with 0 * log 0 = 0.  This
    is the kernel ``leapsim.dist.js_rows`` evaluated before it moved to
    the entropy form; it broadcasts the same way."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    joint = p + q
    total = 0.0
    for x in (p, q):
        term = np.divide(x, joint, out=np.ones(joint.shape), where=x > 0.0)
        np.log2(term, out=term)
        term += 1.0
        term *= x
        total = total + term.sum(axis=-1)
    return np.clip(0.5 * total, 0.0, 1.0)


def xlog2x_sums_ref(x):
    """sum_k x_k log2 x_k along the last axis with the zero guard
    ``leapsim.dist.xlog2x_sums`` used before it added 2**-1074: each term
    is x log2(max(x, 2**-1074)), exactly 0 at x = 0.  The terms are summed
    as the package sums them, one contiguous C-order row at a time, so
    the two differ only where their guards do."""
    terms = np.maximum(x, 5e-324, order="C")
    np.log2(terms, out=terms)
    terms *= x
    return np.add.reduce(terms, axis=-1)


def avg_js_ref(prob_rows, denominator="M"):
    m = len(prob_rows)
    total = sum(
        js_ref(prob_rows[i], prob_rows[j])
        for i in range(m)
        for j in range(i + 1, m)
    )
    return total / (m if denominator == "M" else m * (m - 1) / 2)


def coalition_counts_ref(assignment, counts, num_coalitions):
    """Each coalition's integer label counts, one masked sum per coalition."""
    assignment, counts = np.asarray(assignment), np.asarray(counts)
    return np.array([counts[assignment == m].sum(axis=0) for m in range(num_coalitions)])


def partition_avg_js_ref(assignment, counts, num_coalitions, denominator="M"):
    """Average JS of a partition recomputed from scratch."""
    rows = []
    for m in range(num_coalitions):
        members = np.nonzero(np.asarray(assignment) == m)[0]
        total = counts[members].sum(axis=0).astype(float)
        rows.append(total / total.sum())
    return avg_js_ref(rows, denominator)


def potential_ref(assignment, counts, num_coalitions):
    """The game's potential, the un-normalized pairwise JS sum, recomputed
    from scratch: avg JS over the "M" denominator times M."""
    return partition_avg_js_ref(assignment, counts, num_coalitions, "M") * num_coalitions


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


def make_clients(
    *, data_size=1, cycles_per_item=1.0, cpu_freq=1.0, p_max=1.0, gains=1.0, num_edges=1,
    label_counts=None,
):
    """A ClientTable from per-client columns; a scalar repeats for every client.

    ``gains`` is a scalar, one gain per client repeated toward all
    ``num_edges`` edges, or an (N, M) matrix.  ``label_counts``
    defaults to one class holding each client's data.
    """
    from leapsim.netmodel import ClientTable

    gains = np.asarray(gains, dtype=float)
    columns = [np.asarray(c) for c in (data_size, cycles_per_item, cpu_freq, p_max)]
    n = max([c.size for c in columns] + [len(gains) if gains.ndim else 1])
    data_size, cycles_per_item, cpu_freq, p_max = (np.broadcast_to(c, (n,)) for c in columns)
    if gains.ndim < 2:
        gains = np.repeat(np.broadcast_to(gains, (n,))[:, None], num_edges, axis=1)
    return ClientTable(
        data_size=data_size,
        cycles_per_item=cycles_per_item,
        cpu_freq=cpu_freq,
        channel_gains=gains,
        p_max=p_max,
        label_counts=data_size[:, None] if label_counts is None else label_counts,
    )


def deadline_power(client, share, edge, cfg):
    """Smallest transmit power that exactly meets the deadline budget.

    Scalar closed form for one ClientProfile row; the value can exceed
    p_max.  Raises ValueError when computation alone exceeds the budget.
    """
    budget = cfg.iteration_budget - comp_time_ref(client, cfg)
    if budget <= 0:
        raise ValueError("computation latency exceeds the per-iteration deadline budget")
    exponent = cfg.model_size / (share * budget) * LN2
    growth = math.expm1(exponent) if exponent < 700 else math.inf
    return share * cfg.noise_power * growth / client.gain(edge)


def optimal_power(client, share, edge, cfg):
    """Energy-optimal power under the deadline, min(p_max, deadline power)."""
    return min(client.p_max, deadline_power(client, share, edge, cfg))


def shard_grouped_assignment_ref(clients, num_edges):
    """Clients sorted by their tuple of supported classes (ties by id) and
    dealt to edges in contiguous blocks of n / num_edges."""
    signatures = [tuple(np.nonzero(np.asarray(c.label_counts))[0].tolist()) for c in clients]
    order = sorted(range(len(clients)), key=lambda n: (signatures[n], n))
    assignment = np.empty(len(clients), dtype=np.int64)
    block = len(clients) / num_edges
    for position, client in enumerate(order):
        assignment[client] = min(int(position / block), num_edges - 1)
    return assignment


def make_alloc_instance(rng, num_coalitions, symmetric=False, deadline=1e9):
    """Random well-conditioned allocation instance for solver tests.

    Channel gains are drawn so the SNR at typical shares spans roughly
    [0.3, 300], where bandwidth genuinely matters; the deep low-SNR
    regime would make the objective nearly flat.  Each client has one
    gain, repeated toward every edge.
    """
    from leapsim.netmodel import NetworkConfig

    sizes = [4] * num_coalitions if symmetric else rng.integers(2, 8, size=num_coalitions)
    h_shared = float(np.exp(rng.uniform(np.log(3e-7), np.log(3e-5))))
    p_shared = float(rng.uniform(0.1, 1.0))
    gains, p_max, coalitions = [], [], []
    for m in range(num_coalitions):
        first = len(gains)
        for _ in range(sizes[m]):
            gains.append(h_shared if symmetric else float(
                np.exp(rng.uniform(np.log(3e-7), np.log(3e-5)))
            ))
            p_max.append(p_shared if symmetric else float(rng.uniform(0.1, 1.0)))
        coalitions.append(set(range(first, len(gains))))
    clients = make_clients(
        data_size=100, cycles_per_item=2e5, cpu_freq=1.5e9, p_max=p_max, gains=gains,
        num_edges=num_coalitions,
    )
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


def random_partition_ref(client_label_counts, num_coalitions, rng, denominator="M"):
    """``game.random_partition`` with its first deal as a per-coalition loop."""
    from leapsim.game import Partition

    n = np.asarray(client_label_counts).shape[0]
    assignment = np.empty(n, dtype=np.int64)
    order = rng.permutation(n)
    for m in range(num_coalitions):
        assignment[order[m]] = m
    assignment[order[num_coalitions:]] = rng.integers(
        num_coalitions, size=n - num_coalitions
    )
    return Partition(assignment, client_label_counts, num_coalitions, denominator)


def switch_deltas_ref(partition, client):
    """Avg-JS change of moving ``client`` alone to each of the M coalitions.

    Entry t is avg JS after the move to t minus avg JS before; the
    client's own coalition holds +inf.  The client is priced by a
    one-client ``leapsim.game._price_moves`` batch.  Raises
    InvalidSwitchError when there is no other coalition, or when the
    client is alone in its coalition, since every move would empty it.
    """
    from leapsim.game import InvalidSwitchError, _price_moves

    if partition.num_coalitions < 2:
        raise InvalidSwitchError("there is no other coalition to switch to")
    if partition.sizes[partition.assignment[client]] == 1:
        raise InvalidSwitchError("switch would empty the source coalition")
    return _price_moves(partition, np.array([client]))[0][0]


def best_switch_ref(partition, client):
    """The best switch of ``client`` priced alone, or None when staying wins.

    The target at the first minimum of ``switch_deltas_ref``'s row, as a
    ``SwitchProposal``, when its price is below ``-SWITCH_TOLERANCE``;
    None also when the client has nowhere to go.
    """
    from leapsim.game import SWITCH_TOLERANCE, evaluate_switch

    src = int(partition.assignment[client])
    if partition.num_coalitions < 2 or partition.sizes[src] == 1:
        return None
    deltas = switch_deltas_ref(partition, client)
    best = evaluate_switch(partition, client, int(deltas.argmin()), deltas)
    return best if best.delta_js < -SWITCH_TOLERANCE else None


def coalition_formation_ref(initial, max_iters, rng_seed=0):
    """The improvement loop one sample at a time, with nothing reused.

    Each iteration draws one client, prices it alone with
    ``best_switch_ref``, applies an improving switch and recomputes avg
    JS; the stability check asks every client for a ``best_switch_ref``,
    each priced alone, so it shares neither the loop's memo nor
    ``certify_stability`` and its zero-potential shortcut.  It shares
    the package's partition primitives, so it pins the batched loop's
    sampling, reuse of prices, settled epochs and stopping rule to this
    plain form, decision for decision.  Returns (final assignment, trace
    entries, iterations used, converged, failed stability checks).
    """

    def stable(partition):
        return all(
            best_switch_ref(partition, client) is None
            for client in range(partition.n_clients)
        )

    partition = initial.copy()
    rng = np.random.default_rng(rng_seed)
    entries = []
    n = partition.n_clients
    quiet = iteration = failed = 0
    converged = False
    while iteration < max_iters:
        client = int(rng.integers(n))
        src = int(partition.assignment[client])
        proposal = best_switch_ref(partition, client)
        if proposal is not None:
            partition.apply(proposal)
            quiet = 0
        else:
            quiet += 1
        target = None if proposal is None else proposal.target
        entries.append((iteration, client, src, target, partition.avg_js()))
        iteration += 1
        if quiet >= n:
            if stable(partition):
                converged = True
                break
            failed += 1
            quiet = 0
    converged = converged or stable(partition)
    return partition.assignment, entries, iteration, converged, failed


def flat_params(model):
    """The flat layout of a model [W | b] (K, d + 1): the class-by-feature
    weights row by row, then the K biases.

    The textbook learner references below take and return this layout,
    and every comparison between them and ``leapsim.hfl``'s models goes
    through this converter or its inverse ``model_params``."""
    return np.concatenate((model[:, :-1].ravel(), model[:, -1]))


def model_params(flat, n_classes, n_features):
    """The model [W | b] (n_classes, n_features + 1) of a flat vector;
    the inverse of ``flat_params``."""
    kd = n_classes * n_features
    return np.column_stack((flat[:kd].reshape(n_classes, n_features), flat[kd:]))


def softmax_loss_and_grad_ref(params, features, labels, n_classes):
    """Row-major softmax cross-entropy: logits (n, K), mean over samples.

    The learner's step as first written: the mean loss and the flat
    gradient (class-by-feature weights, then biases) from the textbook
    formulas, with fresh temporaries throughout.
    """
    n, d = features.shape
    weights = params[: n_classes * d].reshape(n_classes, d)
    biases = params[n_classes * d :]
    logits = features @ weights.T + biases
    logits -= logits.max(axis=1, keepdims=True)  # stable softmax
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = -float(np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    grad_w = delta.T @ features / n
    grad_b = delta.mean(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


def softmax_loss_and_grad_labels_ref(params, features, labels, n_classes):
    """The class-major step indexed by labels: the slow exact reference.

    The same gradient arithmetic as ``hfl.softmax_loss_and_grad`` in the
    same order, on the design matrix [X | 1] and the model [W | b], plus
    the mean loss that the fast step does not compute, but it takes the
    labels, reads and writes the true-class entries through a fresh
    ``(labels, arange(n))`` tuple index and allocates every temporary,
    so the fast step's gradient must equal it bit for bit.  Parameters
    and gradient are flat, like the other learner references.
    """
    n, d = features.shape
    design = np.ones((n, d + 1))  # C order, as prepare_runs makes it
    design[:, :d] = features
    probs = np.dot(model_params(params, n_classes, d), design.T)
    probs -= np.maximum.reduce(probs, axis=0)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=0)
    true = (labels, np.arange(n))
    picked = probs[true]
    probs[true] = picked - 1.0
    picked += 1e-300
    loss = -float(np.add.reduce(np.log(picked, out=picked))) / n
    return loss, flat_params(np.dot(probs, design / n))


def local_train_ref(params, features, labels, n_classes, tau_c, lr, step=softmax_loss_and_grad_ref):
    """tau_c plain gradient steps on ``step``, checking the loss and the
    parameters after every step."""
    out = params.copy()
    for _ in range(tau_c):
        loss, grad = step(out, features, labels, n_classes)
        out = out - lr * grad
        if not (np.isfinite(loss) and np.isfinite(out).all()):
            raise FloatingPointError("training diverged")
    return out


def client_data(dataset, n):
    """Client ``n``'s features and labels: its rows of the dataset's
    arrays, sliced here from ``client_sizes``, never from the learner's
    prepared views."""
    end = int(np.sum(dataset.client_sizes[: n + 1]))
    rows = slice(end - int(dataset.client_sizes[n]), end)
    return dataset.features[rows], dataset.labels[rows]


def synthetic_data_ref(label_counts, n_features, seed, class_sep, noise, test_per_class):
    """``SyntheticDataset.generate``'s draws as first written, one client at a
    time: a list of (features, labels) per client, then the test set's pair."""
    n_classes = len(label_counts[0])
    rng = np.random.default_rng(seed)
    means = class_sep * rng.standard_normal((n_classes, n_features))

    def draw(counts):
        labels = np.repeat(np.arange(n_classes), counts)
        features = means[labels] + noise * rng.standard_normal((labels.size, n_features))
        order = rng.permutation(labels.size)
        return features[order], labels[order]

    clients = [draw(counts) for counts in label_counts]
    return clients, draw([test_per_class] * n_classes)


def local_train_per_call_ref(model, features, targets, tau_c, lr):
    """``hfl.local_train`` as it was before clients were prepared once per run.

    It steps with ``hfl.softmax_loss_and_grad`` on a copy of the model
    [W | b] but builds a chunk of one client, ``hfl.PreparedClient``, on
    each call, not through ``prepare_runs``: the design [X | 1] (a fresh
    C-order copy) and ``design / n``; and it returns the copy.  Raises
    ``TrainingDivergedError`` where ``local_train`` must.
    """
    from leapsim.errors import TrainingDivergedError
    from leapsim.hfl import PreparedClient, softmax_loss_and_grad

    n, d = features.shape
    design = np.empty((1, n, d + 1))
    design[0, :, :d] = features
    design[0, :, d] = 1.0
    work = np.array(model, dtype=float)[None]
    chunk = PreparedClient(design, design / n, targets)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(tau_c):
            grad = softmax_loss_and_grad(work, chunk)
            grad *= lr
            work -= grad
        if not np.isfinite(work).all():
            raise TrainingDivergedError("training diverged; lower the learning rate")
    return work[0]


def run_hfl_per_call_ref(assignment, dataset, tau_c, tau_e, tau_g, lr, seed=0):
    """``hfl.run_hfl``'s loop around ``local_train_per_call_ref``: the same
    aggregation calls in the same order, so its parameters and curve must
    equal ``run_hfl``'s bit for bit."""
    from leapsim.hfl import accuracy, edge_aggregate, init_params, onehot_targets

    assignment = np.asarray(assignment)
    sizes = np.asarray(dataset.client_sizes, dtype=float)
    coalitions = [np.flatnonzero(assignment == m) for m in range(assignment.max() + 1)]
    edge_sizes = np.bincount(assignment, weights=sizes)
    n_classes = dataset.n_classes
    clients = [client_data(dataset, n) for n in range(sizes.size)]
    targets = [onehot_targets(y, n_classes) for _, y in clients]
    model = init_params(n_classes, dataset.n_features, seed)
    curve = []
    for _ in range(tau_g):
        edge_models = np.tile(model, (len(coalitions), 1, 1))
        for _ in range(tau_e):
            for edge, members in zip(edge_models, coalitions):
                stack = np.empty((members.size, *model.shape))
                for row, n in enumerate(members):
                    stack[row] = local_train_per_call_ref(
                        edge, clients[n][0], targets[n], tau_c, lr
                    )
                edge[:] = edge_aggregate(stack, sizes[members])
        model = edge_aggregate(edge_models, edge_sizes)
        curve.append(accuracy(model, dataset.test_features, dataset.test_labels))
    return model, curve


def run_hfl_ref(assignment, dataset, tau_c, tau_e, tau_g, lr, seed=0):
    """HierFAVG (Liu et al., arXiv:1905.06641) as three nested plain loops.

    Every member of coalition m starts each edge iteration from edge
    model m; the edge keeps the data-size weighted mean of its members'
    tau_c-step results, and after tau_e edge iterations the cloud keeps
    the data-size weighted mean of the edge models.  Returns the final
    parameters, flat (``flat_params``), and the held-out accuracy after
    every global round.
    """
    n_classes, d = dataset.n_classes, dataset.n_features
    clients = [client_data(dataset, n) for n in range(len(assignment))]
    sizes = [float(len(y)) for _, y in clients]
    groups = [
        [n for n, a in enumerate(assignment) if a == m] for m in range(max(assignment) + 1)
    ]
    params = 0.01 * np.random.default_rng(seed).standard_normal(n_classes * d + n_classes)
    curve = []
    for _ in range(tau_g):
        edges = [params.copy() for _ in groups]
        for _ in range(tau_e):
            for m, members in enumerate(groups):
                total = np.zeros_like(params)
                for n in members:
                    trained = local_train_ref(edges[m], *clients[n], n_classes, tau_c, lr)
                    total += sizes[n] * trained
                edges[m] = total / sum(sizes[n] for n in members)
        total = np.zeros_like(params)
        for m, members in enumerate(groups):
            total += sum(sizes[n] for n in members) * edges[m]
        params = total / sum(sizes)
        weights = params[: n_classes * d].reshape(n_classes, d)
        logits = dataset.test_features @ weights.T + params[n_classes * d :]
        curve.append(float(np.mean(np.argmax(logits, axis=1) == dataset.test_labels)))
    return params, curve


def shard_label_counts_ref(n_clients, n_classes, shards, data_size):
    """Label-shard histograms, one client and one shard at a time: client
    n's k-th shard is class (n * shards + k) mod n_classes and holds
    data_size // shards items, plus one for the first data_size % shards."""
    counts = np.zeros((n_clients, n_classes), dtype=np.int64)
    base, extra = divmod(data_size, shards)
    for n in range(n_clients):
        for k in range(shards):
            counts[n, (n * shards + k) % n_classes] += base + (1 if k < extra else 0)
    return counts


def _surrogate_ref(bandwidth, assignment, clients, cfg):
    """(sizes, x, g, K) of the surrogate, worst members rebuilt from the assignment."""
    from leapsim.alloc import worst_members

    sizes = np.bincount(assignment, minlength=clients.num_edges)
    worst = worst_members(assignment, clients)
    p = clients.p_max[worst]
    h = clients.channel_gains[worst, np.arange(sizes.size)]
    share = np.asarray(bandwidth, dtype=float) / sizes
    x = p * h / (share * cfg.noise_power)
    g = share * np.log1p(x) / LN2
    k = cfg.lambda2 * sizes * cfg.tau_g * cfg.tau_e * p * cfg.model_size
    return sizes, x, g, k


def uplink_energy_ref(splits, assignment, clients, cfg):
    """Total uplink energy of each bandwidth split, a row of ``splits``
    (G, M), with the deadline powers recomputed at that split.

    A client's power is the smallest that meets the per-iteration budget
    at its coalition's equal per-client share, clipped at p_max, and
    p_max where computation alone exceeds the budget.  Its uplink energy
    is tau_g * tau_e * power * model_size / rate.  Returns (G,)."""
    splits = np.asarray(splits, dtype=float)
    sizes = np.bincount(assignment, minlength=splits.shape[1])
    share = splits[:, assignment] / sizes[assignment]  # (G, N)
    gain = clients.channel_gains[np.arange(len(assignment)), assignment]
    comp = cfg.tau_c * clients.cycles_per_item * clients.data_size / clients.cpu_freq
    budget = cfg.iteration_budget - comp
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # where budget <= 0
        growth = np.expm1(cfg.model_size * LN2 / (share * budget))
    power = np.where(
        budget > 0, np.minimum(clients.p_max, share * cfg.noise_power * growth / gain), clients.p_max
    )
    rate = share * np.log1p(power * gain / (share * cfg.noise_power)) / LN2
    return cfg.tau_g * cfg.tau_e * (power * cfg.model_size / rate).sum(axis=1)


def min_uplink_energy_grid_ref(assignment, clients, cfg, points=200):
    """The least total uplink energy over a ``points`` x ``points`` grid
    of the M=3 bandwidth simplex (each edge at least 1e-6 of the total),
    powers recomputed at every split; returns (energy, split)."""
    total, floor = cfg.total_bandwidth, 1e-6 * cfg.total_bandwidth
    axis = np.linspace(floor, total - 2 * floor, points)
    b1, b2 = np.meshgrid(axis, axis)
    b3 = total - b1 - b2
    keep = b3 >= floor
    splits = np.stack([b1[keep], b2[keep], b3[keep]], axis=1)
    energy = uplink_energy_ref(splits, np.asarray(assignment), clients, cfg)
    best = int(np.argmin(energy))
    return float(energy[best]), splits[best]


def min_uplink_energy_kkt_ref(assignment, clients, cfg, steps=50, rounds=5, points=33):
    """The least total uplink energy over the bandwidth simplex, any M,
    powers as ``uplink_energy_ref`` sets them; returns (energy, split).

    Where no member is held at p_max, a client's uplink energy
    tau_g*tau_e * b * s*N0/h * (2^(D/(s*b)) - 1), b its transmit budget
    and s its share, is the perspective of a convex function: decreasing
    and convex in its coalition's bandwidth.  The total is separable, so
    the least one has every dE_m/dB_m at one multiplier -lambda, which
    lies between the coalitions' slopes at the equal split.  Each of
    ``rounds`` passes narrows lambda to two neighbours of ``points``
    log-spaced values, whose splits a bisection of ``steps`` halvings
    per coalition finds for all values at once.  Where a member is held
    at p_max (it then misses the deadline) the energy has a concave kink,
    so a split that holds members there is not certified optimal.
    """
    assignment = np.asarray(assignment)
    m, total = clients.num_edges, cfg.total_bandwidth
    sizes = np.bincount(assignment, minlength=m)
    member = np.eye(m)[assignment] / sizes  # (N, M): dE_m/dB_m sums dE_i/ds over |G_m|
    gain = clients.channel_gains[np.arange(len(assignment)), assignment]
    comp = cfg.tau_c * clients.cycles_per_item * clients.data_size / clients.cpu_freq
    budget = cfg.iteration_budget - comp
    periods, n0 = cfg.tau_g * cfg.tau_e, cfg.noise_power
    strength = clients.p_max * gain / n0

    def slope(split):
        """dE_m/dB_m of each coalition at each row of ``split`` (K, M)."""
        share = split[:, assignment] / sizes[assignment]
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = cfg.model_size / (share * budget)
            at_deadline = share * n0 * np.expm1(x * LN2) / gain <= clients.p_max
            deadline = periods * budget * n0 / gain * (np.exp2(x) * (1.0 - x * LN2) - 1.0)
            # held at p_max: E = periods * p_max * D / r, r = s * log2(1 + strength / s)
            rate = share * np.log1p(strength / share) / LN2
            rate_slope = rate / share - strength / ((share + strength) * LN2)
            capped = -periods * clients.p_max * cfg.model_size * rate_slope / rate**2
        return np.where((budget > 0) & at_deadline, deadline, capped) @ member

    def splits(lams):
        lo, hi = np.zeros((len(lams), m)), np.full((len(lams), m), float(total))
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            steeper = slope(mid) < -lams[:, None]  # the coalition takes more
            lo, hi = np.where(steeper, mid, lo), np.where(steeper, hi, mid)
        return hi

    at_equal = -slope(np.full((1, m), total / m))[0]
    log_lo, log_hi = math.log(at_equal.min()), math.log(at_equal.max())
    for _ in range(rounds):
        logs = np.linspace(log_lo, log_hi, points)
        over = splits(np.exp(logs)).sum(axis=1) > total  # falls as lambda grows
        j = min(int(over.sum()), points - 1)
        log_lo, log_hi = logs[max(j - 1, 0)], logs[j]
    split = splits(np.exp([log_hi]))[0]
    split *= total / split.sum()
    return float(uplink_energy_ref([split], assignment, clients, cfg)[0]), split


def gp_solve_ref(assignment, clients, cfg, gp):
    """The projected-gradient loop of ``gp_solve``, every objective and
    gradient evaluation rebuilding its terms from the assignment.

    Returns (bandwidth, objective values, iterations, halvings,
    projected-gradient norm).
    """
    from leapsim.alloc import project_to_simplex

    def objective(b):
        _, _, g, k = _surrogate_ref(b, assignment, clients, cfg)
        return float((k / g).sum())

    def gradient(b):
        sizes, x, g, k = _surrogate_ref(b, assignment, clients, cfg)
        return -k * ((np.log1p(x) - x / (1.0 + x)) / LN2) / (g**2 * sizes)

    m, total = clients.num_edges, cfg.total_bandwidth
    floor = gp.floor_for(cfg)
    b = np.full(m, total / m)
    value = objective(b)
    values = [value]
    grad = gradient(b)
    base_step = gp.step_size
    if base_step is None:
        base_step = 0.25 * (total / m) / max(float(np.abs(grad).max()), 1e-300)
    step = base_step
    iterations = total_halvings = 0
    for _ in range(gp.max_iters):
        iterations += 1
        candidate = project_to_simplex(b - step * grad, total, floor)
        candidate_value = objective(candidate)
        halvings = 0
        while candidate_value > value and halvings < 80:
            step *= 0.5
            candidate = project_to_simplex(b - step * grad, total, floor)
            candidate_value = objective(candidate)
            halvings += 1
        total_halvings += halvings
        if candidate_value > value:
            break
        drop = value - candidate_value
        b, value = candidate, candidate_value
        values.append(value)
        grad = gradient(b)
        if halvings == 0:
            step = min(step * 2.0, 1e9 * base_step)
        if drop < gp.tolerance * max(abs(value), 1e-300):
            break
    moved = project_to_simplex(b - base_step * grad, total, floor) - b
    return b, values, iterations, total_halvings, float(np.linalg.norm(moved) / base_step)


def read_scenario_ref(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The JSON header and the columns of a ``leapsim.scenario.v4`` file,
    read from its documented layout: one line of JSON, then each column
    ``header["clients"]`` lists, in that order, as little-endian C-order
    bytes, and nothing after them."""
    line, _, payload = Path(path).read_bytes().partition(b"\n")
    header = json.loads(line)
    columns, offset = {}, 0
    for name, spec in header["clients"].items():
        size = 8 * math.prod(spec["shape"])
        data = np.frombuffer(payload[offset:offset + size], dtype=spec["dtype"])
        columns[name] = data.reshape(spec["shape"]).copy()
        offset += size
    assert offset == len(payload), "bytes left after the columns"
    return header, columns


def write_scenario_ref(path, header: dict, columns: dict) -> None:
    """A scenario file written by hand: ``header`` as ``json.dumps``
    writes it (NaN stays NaN, nothing is checked against the columns),
    then each column's little-endian C-order bytes in dict order."""
    data = b"".join(a.astype(a.dtype.newbyteorder("<")).tobytes() for a in columns.values())
    Path(path).write_bytes(json.dumps(header).encode("utf-8") + b"\n" + data)
