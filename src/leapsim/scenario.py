"""Scenario synthesis: clients, channels, label skew and task constants.

A scenario bundles the shared task constants with one ClientTable.
Hardware is drawn from the ``*_RANGE`` constants (channel gains
log-uniformly, everything else uniformly), and the rest of the config
is fixed.  Label histograms come from either a label-shard scheme, where
client n holds ``shards`` classes tiled as (n * shards + k) mod
n_classes, or a Dirichlet scheme drawing each client's class mix from
Dirichlet(alpha).  The shard tiling makes balanced instances exact: when
n_clients * shards is a multiple of n_classes, a partition with
identical per-edge label mixes exists.

Every draw goes through one seeded generator in a fixed order, so a
seed fully determines the scenario and its serialized bytes.  The file
is a ``files.write_columns`` file: a one-line JSON header (schema,
config, num_edges, meta and each column's dtype and shape) and then
each ClientTable field as raw little-endian bytes, so loading returns
the saved arrays bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import InputFileError, InvalidValueError, check_integer, check_number, check_seed
from .files import check_keys, fields_dict, json_bytes, read_columns, write_columns
from .game import Partition
from .netmodel import ClientTable, NetworkConfig, comp_latency, tx_latency

__all__ = [
    "SCENARIO_SCHEMA",
    "Scenario",
    "shard_label_counts",
    "dirichlet_label_counts",
    "generate_scenario",
    "save_scenario",
    "load_scenario",
    "label_count_matrix",
    "shard_grouped_partition",
]

SCENARIO_SCHEMA = "leapsim.scenario.v4"

# the ClientTable fields, each stored as one binary column under "clients"
_COLUMNS = tuple(f.name for f in fields(ClientTable))
_HEADER_KEYS = ("schema", "config", "num_edges", "meta", "clients")
_CONFIG_KEYS = tuple(f.name for f in fields(NetworkConfig))


# the sampling ranges of client hardware, in SI units
CPU_FREQ_RANGE = (1e9, 2e9)          # cycles/s
CYCLES_PER_ITEM_RANGE = (1e5, 5e5)   # cycles/item
CHANNEL_GAIN_RANGE = (1e-8, 1e-6)    # linear, drawn log-uniformly
P_MAX_RANGE = (0.1, 1.0)             # Watts


@dataclass
class Scenario:
    """One solvable instance: task constants plus client population."""

    config: NetworkConfig
    clients: ClientTable
    meta: dict = field(default_factory=dict)

    @property
    def n_clients(self) -> int:
        return len(self.clients)

    @property
    def num_edges(self) -> int:
        return self.clients.num_edges


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
    k = np.arange(shards)
    clients = np.arange(n_clients)[:, None]
    # shards <= n_classes, so a client's shard classes are distinct
    counts[clients, (clients * shards + k) % n_classes] = base + (k < extra)
    return counts


def dirichlet_label_counts(
    rng: np.random.Generator,
    n_clients: int,
    n_classes: int,
    alpha: float,
    data_size: int,
) -> np.ndarray:
    """Per-client multinomial draws from Dirichlet(alpha) class mixes."""
    check_number("alpha", alpha)
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
    tau_c: int = 5,
    tau_e: int = 12,
    tau_g: int = 100,
    deadline: float | None = None,
    deadline_slack: float = 1.5,
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
    row of ``channel_gains``.  ``seed`` is an integer in [0, 2**64),
    which ``meta`` records as a plain int.
    """
    seed = check_seed("seed", seed)
    for name, value in (("n_clients", n_clients), ("n_edges", n_edges), ("n_classes", n_classes),
                        ("data_size", data_size), ("shards", shards)):
        if value is not None:  # shards is None with dirichlet_alpha
            check_integer(name, value, 1)
    if n_clients < n_edges or n_edges < 2:
        raise InvalidValueError("need n_clients >= n_edges >= 2")
    if (shards is None) == (dirichlet_alpha is None):
        raise InvalidValueError("choose exactly one of shards or dirichlet_alpha")
    if gain_mode not in ("pair", "client"):
        raise InvalidValueError("gain_mode must be 'pair' or 'client'")
    check_number("deadline_slack", deadline_slack)  # meta holds it even when a deadline is given
    if deadline is not None:
        check_number("deadline", deadline)

    rng = np.random.default_rng(seed)
    freqs = rng.uniform(*CPU_FREQ_RANGE, size=n_clients)
    cycles = rng.uniform(*CYCLES_PER_ITEM_RANGE, size=n_clients)
    p_caps = rng.uniform(*P_MAX_RANGE, size=n_clients)
    gain_lo, gain_hi = np.log(CHANNEL_GAIN_RANGE[0]), np.log(CHANNEL_GAIN_RANGE[1])
    n_gains = n_edges if gain_mode == "pair" else 1
    gains = rng.uniform(gain_lo, gain_hi, size=(n_clients, n_gains))
    np.exp(gains, out=gains)

    if shards is not None:
        counts = shard_label_counts(n_clients, n_classes, shards, data_size)
        scheme = {"scheme": "shards", "shards": shards}
    else:
        counts = dirichlet_label_counts(rng, n_clients, n_classes, dirichlet_alpha, data_size)
        scheme = {"scheme": "dirichlet", "alpha": float(dirichlet_alpha)}

    clients = ClientTable(
        data_size=np.full(n_clients, data_size),
        cycles_per_item=cycles,
        cpu_freq=freqs,
        channel_gains=gains if gain_mode == "pair" else np.repeat(gains, n_edges, axis=1),
        p_max=p_caps,
        label_counts=counts,
    )

    config = NetworkConfig(
        total_bandwidth=1e7,
        noise_power=1e-13,
        model_size=1e6,
        tau_c=tau_c,
        tau_e=tau_e,
        tau_g=tau_g,
        deadline=1.0 if deadline is None else float(deadline),
        capacitance=1e-28,
    )
    meta = {
        "seed": seed,
        "n_clients": n_clients,
        "n_edges": n_edges,
        "n_classes": n_classes,
        "data_size": data_size,
        "gain_mode": gain_mode,
        "deadline_slack": float(deadline_slack),
        **scheme,
    }
    if deadline is None:
        # replace the placeholder deadline by the slowest client's latency
        # at full power on a uniform per-client share, on its worst gain
        # in case re-association lands anywhere
        worst = np.max(
            comp_latency(clients, config)
            + tx_latency(config.total_bandwidth / n_clients, clients.p_max,
                         clients.channel_gains.min(axis=1), config)
        )
        config = replace(config, deadline=float(deadline_slack * tau_e * tau_g * worst))
    return Scenario(config=config, clients=clients, meta=meta)


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    header = {"schema": SCENARIO_SCHEMA, "config": fields_dict(scenario.config),
              "num_edges": scenario.num_edges, "meta": scenario.meta}
    columns = {name: getattr(scenario.clients, name) for name in _COLUMNS}
    write_columns(path, header, "clients", columns)


def load_scenario(path: str | Path) -> Scenario:
    """Read and check a scenario file; any bad field raises InputFileError.

    Beyond the ``read_columns`` checks, the header must hold exactly
    schema, config, num_edges, meta and clients, and ``config`` exactly
    the NetworkConfig fields, as ``files.check_keys`` checks them.
    ``num_edges`` must be a JSON integer equal to the width of
    ``channel_gains``, ``meta`` a JSON object that ``write_json`` writes
    unchanged (``report.json`` copies it), and the config and the columns
    (one per ClientTable field) must pass the NetworkConfig and
    ClientTable checks.
    """
    data, columns = read_columns(path, SCENARIO_SCHEMA, "clients")
    check_keys(str(path), data, _HEADER_KEYS)
    check_keys(f"{path}: config", data["config"], _CONFIG_KEYS)
    try:
        num_edges, meta = data["num_edges"], data["meta"]
        if type(num_edges) is not int:
            raise InvalidValueError(f"num_edges must be a JSON integer, got {num_edges!r}")
        if not isinstance(meta, dict):
            raise InvalidValueError(f"meta must be a JSON object, got {json.dumps(meta)}")
        try:  # report.json copies meta; orjson writes NaN as null and refuses huge integers
            json.dumps(meta, allow_nan=False)
            json_bytes(meta)
        except (TypeError, ValueError) as exc:
            raise InvalidValueError(f"meta must hold finite numbers only ({exc})") from None
        clients = ClientTable(**columns)
        if clients.num_edges != num_edges:
            raise InvalidValueError(
                f"channel_gains has {clients.num_edges} columns, num_edges is {num_edges}"
            )
        return Scenario(NetworkConfig(**data["config"]), clients, meta)
    except (TypeError, ValueError) as exc:
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
    return Partition(assignment, scenario.clients.label_counts, m, denominator)
