"""Latency, rate, energy and utility model for one training task.

Per client n in coalition m, with share s = B_m / |G_m| of the
coalition's bandwidth:

    compute latency   t_comp = tau_c * cycles_per_item * data_size / cpu_freq
    uplink rate       rate   = s * log2(1 + p * h / (s * noise_power))
    upload latency    t_tx   = model_size / rate
    round latency     t      = t_comp + t_tx
    coalition latency = tau_e * max over members of t   (synchronous rounds)
    task latency      = tau_g * max over coalitions
    compute energy    e_comp = tau_c * capacitance * cycles_per_item * data_size * cpu_freq^2
    upload energy     e_tx   = t_tx * p
    coalition energy  = sum over members of tau_g * tau_e * (e_comp + e_tx)

Downlink, aggregation compute and server-link costs are all zero in
this model; the deadline applies per edge iteration as
t <= deadline / (tau_e * tau_g).  Units are Hz, bits, seconds, Watts
and Joules; channel gains are linear power gains, stored per
(client, edge) pair so re-association can change the channel.

Every quantity is elementwise in the client and its edge, so each
formula is one array expression over a ``ClientTable`` (the
struct-of-arrays view of the clients) and the assignment vector a:
the member share is ``B[a] / sizes[a]`` and the gain
``clients.gain(a)``.  Coalition maxima and sums are scatter reductions
over a.  The same closed forms accept one ``ClientProfile`` row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import InvalidPartitionError, InvalidValueError, check_integer, check_number
from .files import fields_dict
from .game import Partition, assignment_vector

__all__ = [
    "ClientProfile",
    "ClientTable",
    "NetworkConfig",
    "AllocationPlan",
    "coalition_assignment",
    "partition_arrays",
    "comp_latency",
    "uplink_rate",
    "tx_latency",
    "round_and_total_latency",
    "energies",
    "EnergyBreakdown",
    "network_utility",
    "check_deadline",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class ClientProfile:
    """One client's row of a ClientTable, as Python scalars and tuples.

    The read-only record ``ClientTable[n]`` returns; the table holds and
    checks the data.
    """

    data_size: int
    cycles_per_item: float
    cpu_freq: float
    channel_gains: tuple[float, ...]
    p_max: float
    label_counts: tuple[int, ...]

    def gain(self, edge: int) -> float:
        """Linear channel gain toward the given edge server."""
        return self.channel_gains[edge]


_INTEGER_FIELDS = ("data_size", "label_counts")
_MATRIX_FIELDS = ("channel_gains", "label_counts")


def _numeric(name: str, value) -> np.ndarray:
    """``value`` as an int64 or float array; raises InvalidValueError on
    rows of unequal length or non-empty values of a non-numeric (for an
    integer field, non-integer) dtype."""
    try:
        array = np.asarray(value)
    except ValueError:  # rows of unequal length
        widths = [np.size(row) for row in value]
        n = next((i for i, w in enumerate(widths) if w != widths[0]), 0)
        raise InvalidValueError(
            f"client {n} has {widths[n]} {name.replace('_', ' ')}, client 0 has {widths[0]}"
        ) from None
    integer = name in _INTEGER_FIELDS
    if array.size and array.dtype.kind not in ("iu" if integer else "iuf"):
        raise InvalidValueError(
            f"{name} must hold {'integers' if integer else 'numbers'}, got {array.dtype.name}"
        )
    return array.astype(np.int64 if integer else float, copy=False)


def _require(name: str, values: np.ndarray, ok: np.ndarray, what: str) -> None:
    if not ok.all():
        where = tuple(np.argwhere(~ok)[0])
        raise InvalidValueError(
            f"{name} must {what}, client {where[0]} has {values[where].item()!r}"
        )


@dataclass(frozen=True, eq=False)
class ClientTable:
    """The clients as a struct of arrays, one array per ClientProfile field.

    ``channel_gains`` is (N, M), one gain toward every edge, and
    ``label_counts`` is (N, K); every other field is (N,).  Because the
    names match ClientProfile's, a closed form written for one profile
    evaluates elementwise on the table.

    Construction converts every field to an int64 (``data_size``,
    ``label_counts``) or float array and raises InvalidValueError
    unless N >= 1, the shapes agree, every float is finite, every field
    but the label counts is strictly positive, label counts are
    non-negative and each client's label counts sum to its data size.
    """

    data_size: np.ndarray
    cycles_per_item: np.ndarray
    cpu_freq: np.ndarray
    channel_gains: np.ndarray
    p_max: np.ndarray
    label_counts: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _numeric(f.name, getattr(self, f.name)))
        n = self.data_size.size
        if n == 0:
            raise InvalidValueError("a client table needs at least one client")
        for f in fields(self):
            shape = getattr(self, f.name).shape
            if f.name in _MATRIX_FIELDS:
                if len(shape) != 2 or shape[0] != n or shape[1] == 0:
                    raise InvalidValueError(
                        f"{f.name} must have {n} rows and at least one column, got shape {shape}"
                    )
            elif shape != (n,):
                raise InvalidValueError(f"{f.name} must have shape ({n},), got {shape}")
        for name in ("cycles_per_item", "cpu_freq", "channel_gains", "p_max"):
            values = getattr(self, name)
            _require(name, values, np.isfinite(values) & (values > 0),
                     "be strictly positive and finite")
        _require("data_size", self.data_size, self.data_size > 0, "be strictly positive")
        _require("label_counts", self.label_counts, self.label_counts >= 0, "be non-negative")
        sums = self.label_counts.sum(axis=1)
        _require("label_counts", sums, sums == self.data_size, "sum to data_size")

    def __len__(self) -> int:
        return self.data_size.shape[0]

    def __getitem__(self, n: int) -> ClientProfile:
        return ClientProfile(
            data_size=int(self.data_size[n]),
            cycles_per_item=float(self.cycles_per_item[n]),
            cpu_freq=float(self.cpu_freq[n]),
            channel_gains=tuple(self.channel_gains[n].tolist()),
            p_max=float(self.p_max[n]),
            label_counts=tuple(self.label_counts[n].tolist()),
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    @property
    def num_edges(self) -> int:
        return self.channel_gains.shape[1]

    def gain(self, edge: np.ndarray) -> np.ndarray:
        """Each client's gain toward its own entry of ``edge`` (length N)."""
        return self.channel_gains[np.arange(len(self)), edge]


def coalition_assignment(partition, n_clients: int) -> tuple[np.ndarray, np.ndarray]:
    """(assignment, sizes) of a partition of ``n_clients`` clients.

    ``partition`` is a Partition, a 1-D integer array holding each
    client's coalition index, or a sequence of member collections, one
    per coalition.  Raises InvalidPartitionError when it is none of these
    (a list of indices is not), a client is missing, repeated or out of
    range, or a coalition is empty.
    """
    if isinstance(partition, Partition):
        assignment, sizes = partition.assignment, partition.sizes
    elif isinstance(partition, np.ndarray):
        assignment = assignment_vector(partition, n_clients)  # M <= n, or a coalition is empty
        sizes = np.bincount(assignment)
    else:
        try:
            groups = [np.fromiter(members, dtype=np.int64) for members in partition]
        except TypeError:  # not iterable, or a member that is no collection
            raise InvalidPartitionError(
                "a partition must be a Partition, a 1-D integer array of coalition indices or "
                f"member collections, got {type(partition).__name__} {partition!r:.60}"
            ) from None
        sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
        members = np.concatenate(groups) if groups else np.empty(0, dtype=np.int64)
        if members.size and (members.min() < 0 or members.max() >= n_clients):
            raise InvalidPartitionError(f"a member id lies outside [0, {n_clients})")
        seen = np.bincount(members, minlength=n_clients)
        if np.any(seen != 1):
            n = int(np.flatnonzero(seen != 1)[0])
            raise InvalidPartitionError(f"client {n} is {'repeated' if seen[n] else 'missing'}")
        assignment = np.empty(n_clients, dtype=np.int64)
        assignment[members] = np.repeat(np.arange(len(groups)), sizes)
    if assignment.shape != (n_clients,):
        raise InvalidPartitionError(
            f"the partition assigns {assignment.size} clients, expected {n_clients}"
        )
    empty = np.flatnonzero(sizes == 0)
    if empty.size:
        raise InvalidPartitionError(f"coalition {empty[0]} is empty")
    return assignment, sizes


def partition_arrays(partition, clients: ClientTable) -> tuple[np.ndarray, np.ndarray]:
    """(assignment, sizes) of a partition of the table's clients.

    Raises InvalidPartitionError when the partition's coalition count
    differs from the table's edge count.
    """
    assignment, sizes = coalition_assignment(partition, len(clients))
    if clients.num_edges != len(sizes):
        raise InvalidPartitionError(
            f"{len(sizes)} coalitions, but the clients have gains toward {clients.num_edges} edges"
        )
    return assignment, sizes


@dataclass(frozen=True)
class NetworkConfig:
    """Shared task constants.

    tau_c, tau_e and tau_g are the local-round, edge-iteration and
    global-round counts; ``deadline`` caps the task execution latency
    and ``capacitance`` is the effective switched-capacitance
    coefficient of the compute chipset.  lambda1 and lambda2 weight
    distribution similarity against energy in the network utility.
    Every field must be a finite number, and the tau counts integers >= 1.
    """

    total_bandwidth: float
    noise_power: float
    model_size: float
    tau_c: int
    tau_e: int
    tau_g: int
    deadline: float
    capacitance: float
    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                check_integer(f.name, value, 1)
            else:
                check_number(f.name, value)
        for name in ("total_bandwidth", "noise_power", "model_size", "deadline", "capacitance"):
            if getattr(self, name) <= 0:
                raise InvalidValueError(f"{name} must be strictly positive")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise InvalidValueError("utility weights must be non-negative")

    @property
    def iteration_budget(self) -> float:
        """Per-edge-iteration latency cap deadline / (tau_e * tau_g)."""
        return self.deadline / (self.tau_e * self.tau_g)


def comp_latency(client: ClientProfile | ClientTable, config: NetworkConfig):
    """Local training latency for one edge iteration (tau_c passes)."""
    return config.tau_c * client.cycles_per_item * client.data_size / client.cpu_freq


def uplink_rate(bandwidth_share, power, gain, config: NetworkConfig):
    """Shannon rate over the client's bandwidth share, bits per second."""
    share = np.asarray(bandwidth_share, dtype=float)
    if np.any(share <= 0):
        raise InvalidValueError("bandwidth share must be strictly positive")
    if np.any(np.asarray(power) <= 0):
        raise InvalidValueError("transmit power must be strictly positive")
    snr = power * gain / (share * config.noise_power)
    return share * np.log1p(snr) / _LN2


def tx_latency(bandwidth_share, power, gain, config: NetworkConfig):
    """Model upload time, seconds."""
    rate = uplink_rate(bandwidth_share, power, gain, config)
    if np.any(rate <= 0):
        raise InvalidValueError("uplink rate is zero")
    return config.model_size / rate


def round_and_total_latency(
    partition,
    clients: ClientTable,
    bandwidth_share,
    power,
    config: NetworkConfig,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-client, per-coalition and task latency.

    Returns (t_client, t_coalition, t_task) where t_client[n] is the
    client's per-edge-iteration latency, t_coalition[m] the straggler
    latency summed over tau_e iterations and t_task the tau_g-round
    total.  The per-iteration straggler maxima are constant under this
    static model, so the sums collapse to products.
    """
    assignment, sizes = partition_arrays(partition, clients)
    t_client = comp_latency(clients, config) + tx_latency(
        bandwidth_share, power, clients.gain(assignment), config
    )
    straggler = np.full(len(sizes), -np.inf)
    np.maximum.at(straggler, assignment, t_client)
    t_coalition = config.tau_e * straggler
    return t_client, t_coalition, config.tau_g * float(t_coalition.max())


@dataclass
class EnergyBreakdown:
    """Energy terms at client, coalition and system granularity."""

    comp: np.ndarray      # per client, one edge iteration
    tx: np.ndarray        # per client, one edge iteration
    coalition: np.ndarray  # per coalition, whole task
    total: float           # whole task
    total_tx: float        # transmission part of total, whole task


def energies(
    partition,
    clients: ClientTable,
    bandwidth_share,
    power,
    config: NetworkConfig,
) -> EnergyBreakdown:
    """Per-client and aggregated energy for the whole task."""
    assignment, sizes = partition_arrays(partition, clients)
    power = np.asarray(power, dtype=float)
    e_comp = (
        config.tau_c
        * config.capacitance
        * clients.cycles_per_item
        * clients.data_size
        * clients.cpu_freq**2
    )
    e_tx = tx_latency(bandwidth_share, power, clients.gain(assignment), config) * power
    rounds = config.tau_g * config.tau_e
    e_coalition = rounds * np.bincount(assignment, weights=e_comp + e_tx, minlength=len(sizes))
    return EnergyBreakdown(
        comp=e_comp,
        tx=e_tx,
        coalition=e_coalition,
        total=float(e_coalition.sum()),
        total_tx=rounds * float(e_tx.sum()),
    )


def network_utility(avg_js: float, total_energy: float, config: NetworkConfig) -> float:
    """lambda1 * (1 - avg_js) - lambda2 * total_energy."""
    return config.lambda1 * (1.0 - avg_js) - config.lambda2 * total_energy


def check_deadline(t_client, config: NetworkConfig) -> tuple[np.ndarray, bool]:
    """Flag clients whose per-edge-iteration latency fits the budget.

    The bound is inclusive, with a relative allowance of 1e-9 so the
    closed-form deadline power, which lands exactly on the budget up to
    float rounding, is recognized as feasible.
    """
    ok = np.asarray(t_client, dtype=float) <= config.iteration_budget * (1.0 + 1e-9)
    return ok, bool(ok.all())


@dataclass
class AllocationPlan:
    """Solved bandwidth/power assignment plus every derived metric.

    ``bandwidth`` is per coalition and sums to the configured total;
    ``client_bandwidth`` is the equal within-coalition share each
    member transmits on.  ``surrogate_objective`` is the worst-case
    coalition energy surrogate the bandwidth solver minimized, kept
    alongside the true per-client energies because the surrogate
    overestimates non-worst members.
    """

    bandwidth: np.ndarray
    client_bandwidth: np.ndarray
    power: np.ndarray
    comp_latency: np.ndarray
    tx_latency: np.ndarray
    client_latency: np.ndarray
    coalition_latency: np.ndarray
    total_latency: float
    comp_energy: np.ndarray
    tx_energy: np.ndarray
    coalition_energy: np.ndarray
    total_energy: float
    uplink_energy: float
    avg_js: float
    utility: float
    surrogate_objective: float
    per_client_feasible: np.ndarray
    feasible: bool
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return fields_dict(self)
