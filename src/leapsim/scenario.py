"""Scenario synthesis: clients, channels, label skew and task constants.

A scenario bundles the shared task constants with one ClientTable.
Hardware is drawn from configurable ranges (channel gains
log-uniformly, everything else uniformly); label histograms come from
either a label-shard scheme, where client n holds ``shards`` classes
tiled as (n * shards + k) mod n_classes, or a Dirichlet scheme drawing
each client's class mix from Dirichlet(alpha).  The shard tiling makes
balanced instances exact: when n_clients * shards is a multiple of
n_classes, a partition with identical per-edge label mixes exists.

Every draw goes through one seeded generator in a fixed order, so a
seed fully determines the scenario and its serialized bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import InputFileError, InvalidValueError
from .files import fields_dict, read_json, write_json
from .game import Partition
from .netmodel import ClientTable, NetworkConfig, comp_latency, tx_latency

__all__ = [
    "SCENARIO_SCHEMA",
    "HardwareRanges",
    "Scenario",
    "shard_label_counts",
    "dirichlet_label_counts",
    "generate_scenario",
    "save_scenario",
    "load_scenario",
    "label_count_matrix",
    "shard_grouped_partition",
]

SCENARIO_SCHEMA = "leapsim.scenario.v2"


@dataclass(frozen=True)
class HardwareRanges:
    """Sampling ranges for client hardware, in SI units."""

    cpu_freq: tuple[float, float] = (1e9, 2e9)          # cycles/s
    cycles_per_item: tuple[float, float] = (1e5, 5e5)   # cycles/item
    channel_gain: tuple[float, float] = (1e-8, 1e-6)    # linear, log-uniform
    p_max: tuple[float, float] = (0.1, 1.0)             # Watts


@dataclass
class Scenario:
    """One solvable instance: task constants plus client population."""

    config: NetworkConfig
    clients: ClientTable
    num_edges: int
    meta: dict = field(default_factory=dict)

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    def to_dict(self) -> dict:
        return {
            "schema": SCENARIO_SCHEMA,
            **fields_dict(self),
            "config": fields_dict(self.config),
            "clients": fields_dict(self.clients),
        }


def shard_label_counts(
    n_clients: int, n_classes: int, shards: int, data_size: int
) -> np.ndarray:
    """Label-shard histograms: client n holds ``shards`` tiled classes.

    The data size splits as evenly as possible across the client's
    shard classes, so with data_size divisible by ``shards`` every
    client of the same tile position holds an identical histogram.
    """
    if not 1 <= shards <= n_classes:
        raise InvalidValueError("shards must lie in [1, n_classes]")
    counts = np.zeros((n_clients, n_classes), dtype=np.int64)
    base, extra = divmod(data_size, shards)
    for n in range(n_clients):
        for k in range(shards):
            cls_index = (n * shards + k) % n_classes
            counts[n, cls_index] += base + (1 if k < extra else 0)
    return counts


def dirichlet_label_counts(
    rng: np.random.Generator,
    n_clients: int,
    n_classes: int,
    alpha: float,
    data_size: int,
) -> np.ndarray:
    """Per-client multinomial draws from Dirichlet(alpha) class mixes."""
    if alpha <= 0:
        raise InvalidValueError("alpha must be strictly positive")
    counts = np.zeros((n_clients, n_classes), dtype=np.int64)
    for n in range(n_clients):
        mix = rng.dirichlet(np.full(n_classes, alpha))
        counts[n] = rng.multinomial(data_size, mix)
    return counts


def generate_scenario(
    seed: int,
    n_clients: int,
    n_edges: int,
    n_classes: int = 10,
    shards: int | None = 2,
    dirichlet_alpha: float | None = None,
    data_size: int = 200,
    ranges: HardwareRanges | None = None,
    total_bandwidth: float = 1e7,
    noise_power: float = 1e-13,
    model_size: float = 1e6,
    tau_c: int = 5,
    tau_e: int = 12,
    tau_g: int = 100,
    deadline: float | None = None,
    deadline_slack: float = 1.5,
    capacitance: float = 1e-28,
    lambda1: float = 1.0,
    lambda2: float = 1.0,
    gain_mode: str = "pair",
) -> Scenario:
    """Deterministic scenario draw.

    Exactly one of ``shards`` / ``dirichlet_alpha`` selects the label
    scheme.  When ``deadline`` is None it is derived from the draw
    itself: ``deadline_slack`` times the task latency of the slowest
    client transmitting at full power on a uniform per-client share,
    which leaves every client feasible at p_max with margin.
    ``gain_mode`` "pair" draws one gain per (client, edge); "client"
    draws a single gain per client and repeats it across the client's
    row of ``channel_gains``.
    """
    if n_clients < n_edges or n_edges < 2:
        raise InvalidValueError("need n_clients >= n_edges >= 2")
    if (shards is None) == (dirichlet_alpha is None):
        raise InvalidValueError("choose exactly one of shards or dirichlet_alpha")
    if gain_mode not in ("pair", "client"):
        raise InvalidValueError("gain_mode must be 'pair' or 'client'")
    ranges = ranges or HardwareRanges()

    rng = np.random.default_rng(seed)
    freqs = rng.uniform(*ranges.cpu_freq, size=n_clients)
    cycles = rng.uniform(*ranges.cycles_per_item, size=n_clients)
    p_caps = rng.uniform(*ranges.p_max, size=n_clients)
    gain_lo, gain_hi = np.log(ranges.channel_gain[0]), np.log(ranges.channel_gain[1])
    n_gains = n_edges if gain_mode == "pair" else 1
    gains = np.exp(rng.uniform(gain_lo, gain_hi, size=(n_clients, n_gains)))

    if shards is not None:
        counts = shard_label_counts(n_clients, n_classes, shards, data_size)
        scheme = {"scheme": "shards", "shards": shards}
    else:
        counts = dirichlet_label_counts(rng, n_clients, n_classes, dirichlet_alpha, data_size)
        scheme = {"scheme": "dirichlet", "alpha": dirichlet_alpha}

    clients = ClientTable(
        data_size=np.full(n_clients, data_size),
        cycles_per_item=cycles,
        cpu_freq=freqs,
        channel_gains=np.broadcast_to(gains, (n_clients, n_edges)).copy(),
        p_max=p_caps,
        label_counts=counts,
    )

    config = NetworkConfig(
        total_bandwidth=total_bandwidth,
        noise_power=noise_power,
        model_size=model_size,
        tau_c=tau_c,
        tau_e=tau_e,
        tau_g=tau_g,
        deadline=1.0 if deadline is None else float(deadline),
        capacitance=capacitance,
        lambda1=lambda1,
        lambda2=lambda2,
    )
    meta = {
        "seed": seed,
        "n_clients": n_clients,
        "n_edges": n_edges,
        "n_classes": n_classes,
        "data_size": data_size,
        "gain_mode": gain_mode,
        "deadline_slack": deadline_slack,
        **scheme,
    }
    if deadline is None:
        # replace the placeholder deadline by the slowest client's latency
        # at full power on a uniform per-client share, on its worst gain
        # in case re-association lands anywhere
        worst = np.max(
            comp_latency(clients, config)
            + tx_latency(
                total_bandwidth / n_clients, clients.p_max, clients.channel_gains.min(axis=1),
                config,
            )
        )
        config = replace(config, deadline=float(deadline_slack * tau_e * tau_g * worst))
    return Scenario(config=config, clients=clients, num_edges=n_edges, meta=meta)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    write_json(path, scenario.to_dict())


def load_scenario(path: str | Path) -> Scenario:
    """Read and check a scenario file; any bad field raises InputFileError.

    ``num_edges`` must be a JSON integer equal to the width of
    ``channel_gains``, ``meta`` a JSON object, and the config and client
    arrays must pass the NetworkConfig and ClientTable checks.
    """
    data = read_json(path, SCENARIO_SCHEMA)
    try:
        num_edges, meta = data["num_edges"], data.get("meta", {})
        if type(num_edges) is not int:
            raise InvalidValueError(f"num_edges must be a JSON integer, got {num_edges!r}")
        if not isinstance(meta, dict):
            raise InvalidValueError(f"meta must be a JSON object, got {json.dumps(meta)}")
        clients = ClientTable(**data["clients"])
        if clients.num_edges != num_edges:
            raise InvalidValueError(
                f"channel_gains has {clients.num_edges} columns, num_edges is {num_edges}"
            )
        return Scenario(NetworkConfig(**data["config"]), clients, num_edges, meta)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputFileError(
            f"{path}: malformed scenario ({type(exc).__name__}: {exc})"
        ) from exc


def label_count_matrix(scenario: Scenario) -> np.ndarray:
    return scenario.clients.label_counts


def shard_grouped_partition(scenario: Scenario, denominator: str = "M") -> Partition:
    """Adversarial start: clients with similar label support sit together.

    Clients are ordered by their label-support signature and dealt to
    edges in contiguous blocks, so each edge initially sees as few
    distinct classes as possible (the worst case for cross-edge
    similarity).  Blocks are sized to keep every edge non-empty.
    """
    support = scenario.clients.label_counts > 0
    classes = np.arange(support.shape[1])
    # each row's supported classes in ascending order, padded with -1 so a
    # lexicographic sort puts a signature before its own extensions
    signatures = np.sort(np.where(support, classes, support.shape[1]), axis=1)
    signatures[signatures == support.shape[1]] = -1
    order = np.lexsort(signatures.T[::-1])
    n, m = scenario.n_clients, scenario.num_edges
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.minimum(np.arange(n) / (n / m), m - 1).astype(np.int64)
    return Partition(assignment, label_count_matrix(scenario), m, denominator)
