"""Bandwidth allocation by projected gradient and closed-form power.

Bandwidth is split across coalitions by minimizing a worst-case
transmission-energy surrogate: each coalition is represented by its
worst member (smallest p_max * gain, which maximizes upload time at any
common share) transmitting at full power, scaled by the coalition size.
With per-member share s = B_m / |G_m| and a = p_max * h / noise_power,
the per-coalition term is

    K / g(s),   g(s) = s * log2(1 + a / s),
    K = lambda2 * |G_m| * tau_g * tau_e * p_max * model_size

g is increasing and concave in s, so every term is convex and
decreasing in B_m; the objective blows up as any share approaches zero,
which keeps the solution interior.  The analytic gradient follows from

    g'(s) = [ln(1 + x) - x / (1 + x)] / ln 2,  x = a / s  (> 0 for x > 0)

as d(term)/dB_m = -K * g'(s) / (g(s)^2 * |G_m|).

Power is then set per client in closed form: upload energy is strictly
increasing in transmit power, so the optimum is the smallest power that
meets the per-iteration deadline budget, clipped at p_max.  A client
whose deadline power exceeds p_max is flagged infeasible rather than
silently clamped.

Both stages are array expressions over the assignment vector and the
client table (see ``netmodel``); the worst member of every coalition
comes from two scatter minima, one over p_max * gain and one over the
ids that attain it, taken once per solve in ``surrogate_terms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    InvalidPartitionError, InvalidValueError, LeapsimError, check_integer, check_number,
)
from .game import Partition
from .netmodel import (
    AllocationPlan,
    ClientTable,
    NetworkConfig,
    check_deadline,
    comp_latency,
    energies,
    network_utility,
    partition_arrays,
    round_and_total_latency,
)

__all__ = [
    "InfeasibleError",
    "NonFiniteInputError",
    "GPConfig",
    "GPTrace",
    "worst_members",
    "SurrogateTerms",
    "surrogate_terms",
    "p3_objective",
    "p3_gradient",
    "project_to_simplex",
    "gp_solve",
    "deadline_powers",
    "build_plan",
    "plan_full",
]

_LN2 = math.log(2.0)


class InfeasibleError(LeapsimError):
    """The feasible set of the requested problem is empty."""


class NonFiniteInputError(LeapsimError):
    """A solver input, or a value computed from finite inputs, holds NaN or an infinity."""


@dataclass
class GPConfig:
    """Projected-gradient solver knobs.

    ``step_size`` is the base step wrapped by backtracking; None picks
    a scale-aware default from the initial gradient.  ``tolerance`` is
    the relative objective change that counts as converged, and
    ``max_iters``, an integer >= 1, caps the iterations.
    ``min_bandwidth_floor`` closes the open constraint B_m > 0; None
    defaults to 1e-6 of the total bandwidth.
    """

    step_size: float | None = None
    tolerance: float = 1e-8
    max_iters: int = 10000
    min_bandwidth_floor: float | None = None

    def __post_init__(self):
        # NaN passes every comparison below, so finiteness comes first
        for name in ("step_size", "tolerance", "min_bandwidth_floor"):
            if getattr(self, name) is not None:
                check_number(name, getattr(self, name))
        if self.step_size is not None and self.step_size <= 0:
            raise InvalidValueError("step_size must be strictly positive")
        if self.tolerance <= 0:
            raise InvalidValueError("tolerance must be strictly positive")
        check_integer("max_iters", self.max_iters, 1)

    def floor_for(self, config: NetworkConfig) -> float:
        floor = (
            1e-6 * config.total_bandwidth
            if self.min_bandwidth_floor is None
            else self.min_bandwidth_floor
        )
        return float(floor)


@dataclass
class GPTrace:
    """Objective trace of one projected-gradient run."""

    objective_values: list[float] = field(default_factory=list)
    iterations_used: int = 0
    converged: bool = False
    projected_gradient_norm: float | None = None


def _checked_positive(values, count: int, name: str) -> np.ndarray:
    """``values`` as a float array, InvalidValueError unless it holds
    ``count`` entries, one per coalition or client, none <= 0."""
    array = np.asarray(values, dtype=float)
    if array.shape != (count,):
        raise InvalidValueError(f"expected {count} {name}s, got {array.size}")
    if np.any(array <= 0):
        raise InvalidValueError(f"every {name} must be strictly positive")
    return array


def _checked_bandwidth(bandwidth, sizes: np.ndarray) -> np.ndarray:
    return _checked_positive(bandwidth, sizes.size, "coalition bandwidth")


def worst_members(partition, clients: ClientTable) -> np.ndarray:
    """Each coalition's weakest transmitter, the member minimizing p_max * gain.

    At a common bandwidth share the upload time is decreasing in
    p_max * gain, so this member is the coalition's straggler bound.
    Ties resolve to the lowest client id.
    """
    assignment, sizes = partition_arrays(partition, clients)
    strength = clients.p_max * clients.gain(assignment)
    weakest = np.full(sizes.size, np.inf)
    np.minimum.at(weakest, assignment, strength)
    tied = np.flatnonzero(strength == weakest[assignment])
    worst = np.full(sizes.size, len(clients))
    np.minimum.at(worst, assignment[tied], tied)
    return worst


class SurrogateTerms(NamedTuple):
    """The bandwidth-free terms of the surrogate on one partition: the
    coalition sizes, each worst member's p_max * gain, and each K."""

    sizes: np.ndarray
    strength: np.ndarray
    k: np.ndarray


def surrogate_terms(partition, clients: ClientTable, config: NetworkConfig) -> SurrogateTerms:
    """The surrogate's terms on a partition, an assignment, or terms already built."""
    if isinstance(partition, SurrogateTerms):
        return partition
    assignment, sizes = partition_arrays(partition, clients)
    worst = worst_members(partition, clients)
    p = clients.p_max[worst]
    h = clients.channel_gains[worst, np.arange(sizes.size)]
    k = config.lambda2 * sizes * config.tau_g * config.tau_e * p * config.model_size
    return SurrogateTerms(sizes, p * h, k)


def _surrogate_parts(bandwidth, terms: SurrogateTerms, config: NetworkConfig):
    """(x, g) of the surrogate terms K / g at the given bandwidth."""
    share = _checked_bandwidth(bandwidth, terms.sizes) / terms.sizes
    x = terms.strength / (share * config.noise_power)
    g = share * np.log1p(x) / _LN2
    return x, g


def p3_objective(
    bandwidth: np.ndarray, partition, clients: ClientTable, config: NetworkConfig
) -> float:
    """Worst-case transmission-energy surrogate at full power."""
    terms = surrogate_terms(partition, clients, config)
    _, g = _surrogate_parts(bandwidth, terms, config)
    return float((terms.k / g).sum())


def p3_gradient(
    bandwidth: np.ndarray, partition, clients: ClientTable, config: NetworkConfig
) -> np.ndarray:
    """Analytic gradient of the surrogate; every component is negative."""
    terms = surrogate_terms(partition, clients, config)
    x, g = _surrogate_parts(bandwidth, terms, config)
    g_prime = (np.log1p(x) - x / (1.0 + x)) / _LN2
    return -terms.k * g_prime / (g**2 * terms.sizes)


def project_to_simplex(v: np.ndarray, total: float, floor: float = 0.0) -> np.ndarray:
    """Euclidean projection onto {x : sum x = total, x_m >= floor}.

    Shifts by the floor, projects onto the scaled probability simplex
    with the exact sorting-based finite algorithm, and shifts back.
    Entries so large that rounding swamps the total raise InvalidValueError.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise NonFiniteInputError("cannot project a vector with NaN or inf entries")
    m = v.size
    mass = total - m * floor
    if mass <= 0:
        raise InfeasibleError("floor * M leaves no bandwidth to distribute")
    w = v - floor
    u = np.sort(w)[::-1]
    excess = np.cumsum(u) - mass
    ranks = np.arange(1, m + 1)
    support = np.nonzero(u - excess / ranks > 0)[0]
    # the largest entry is always in the support unless rounding swamped the total
    if not support.size or not math.isfinite(excess[-1]):
        raise InvalidValueError(f"cannot project entries from {u[-1]:.3g} to {u[0]:.3g} onto a "
                                f"total of {mass:.3g}: their sum overflows float precision")
    rho = support[-1]
    theta = excess[rho] / (rho + 1)
    return np.maximum(w - theta, 0.0) + floor


def _pg_norm(b, grad, total, floor, step) -> float:
    """Norm of the projected step, a first-order stationarity measure;
    NonFiniteInputError if a tiny step makes it overflow."""
    norm = float(np.linalg.norm(project_to_simplex(b - step * grad, total, floor) - b)) / step
    if not math.isfinite(norm):
        raise NonFiniteInputError(f"the projected-gradient norm overflowed at step size {step!r}")
    return norm


def gp_solve(
    partition,
    clients: ClientTable,
    config: NetworkConfig,
    gp: GPConfig | None = None,
) -> tuple[np.ndarray, GPTrace]:
    """Minimize the surrogate over the bandwidth simplex.

    Starts from the equal split and runs projected gradient steps with
    backtracking (the base step is halved while the objective fails to
    decrease, and relaxed again after clean steps) until the relative
    objective change drops below the tolerance or the iteration cap is
    hit.  The returned trace is non-increasing and ends with the
    projected-gradient norm at the solution; the surrogate is convex, so
    a near-zero norm certifies global optimality.

    The partition's ``surrogate_terms`` (sizes, worst members, K) do not
    depend on the bandwidth, so they are built once per solve and every
    objective and gradient evaluation takes them in place of the
    partition.
    """
    gp = gp or GPConfig()
    terms = surrogate_terms(partition, clients, config)
    m = terms.sizes.size
    total = config.total_bandwidth
    floor = gp.floor_for(config)
    if not 0 < floor * m < total:
        raise InfeasibleError("bandwidth floor is infeasible for this coalition count")

    b = np.full(m, total / m)
    value = p3_objective(b, terms, clients, config)
    if not math.isfinite(value):
        raise InfeasibleError("objective is not finite at the starting point")
    trace = GPTrace(objective_values=[value])

    grad = p3_gradient(b, terms, clients, config)
    base_step = gp.step_size
    if base_step is None:
        # first step may move a coordinate by a quarter of the mean share
        base_step = 0.25 * (total / m) / max(float(np.abs(grad).max()), 1e-300)
    step = base_step

    converged = False
    iterations = 0
    for _ in range(gp.max_iters):
        iterations += 1
        candidate = project_to_simplex(b - step * grad, total, floor)
        candidate_value = p3_objective(candidate, terms, clients, config)
        halvings = 0
        while candidate_value > value and halvings < 80:
            step *= 0.5
            candidate = project_to_simplex(b - step * grad, total, floor)
            candidate_value = p3_objective(candidate, terms, clients, config)
            halvings += 1
        if not math.isfinite(candidate_value):
            raise InfeasibleError("objective became non-finite during the solve")
        if candidate_value > value:
            converged = True  # no descent left along the gradient
            break
        drop = value - candidate_value
        b, value = candidate, candidate_value
        trace.objective_values.append(value)
        grad = p3_gradient(b, terms, clients, config)
        if halvings == 0:
            step = min(step * 2.0, 1e9 * base_step)
        if drop < gp.tolerance * max(abs(value), 1e-300):
            converged = True
            break

    trace.iterations_used = iterations
    trace.converged = converged
    trace.projected_gradient_norm = _pg_norm(b, grad, total, floor, base_step)
    return b, trace


def deadline_powers(
    partition,
    clients: ClientTable,
    config: NetworkConfig,
    bandwidth: np.ndarray,
) -> tuple[np.ndarray, list[str]]:
    """Energy-optimal power for every client at its equal coalition share.

    The smallest power meeting the deadline budget inverts the rate
    formula at t_tx = budget, and is clipped at p_max.  Clients whose
    computation alone exceeds the deadline budget fall back to p_max
    and are listed in the returned notes, by coalition and then by id;
    the deadline check on the assembled plan flags them.
    """
    assignment, sizes = partition_arrays(partition, clients)
    share = _checked_bandwidth(bandwidth, sizes)[assignment] / sizes[assignment]
    budget = config.iteration_budget - comp_latency(clients, config)
    budget = np.where(budget > 0, budget, np.nan)  # NaN: no time left to transmit
    exponent = config.model_size / (share * budget)
    with np.errstate(over="ignore"):
        growth = np.expm1(exponent * _LN2)  # 2**exponent - 1
    needed = share * config.noise_power * growth / clients.gain(assignment)
    late = np.flatnonzero(np.isnan(needed))
    late = late[np.argsort(assignment[late], kind="stable")]
    notes = [f"client {n}: computation alone exceeds the deadline budget" for n in late.tolist()]
    return np.fmin(clients.p_max, needed), notes


def _check_plan_partition(partition, clients: ClientTable) -> None:
    if not isinstance(partition, Partition):
        raise InvalidPartitionError(f"a plan needs a Partition, got {type(partition).__name__}: "
                                    "a plan reports its partition's avg JS")
    # every product path builds its Partition on the table's own array
    counts = partition.client_counts
    if counts is not clients.label_counts and not np.array_equal(counts, clients.label_counts):
        raise InvalidPartitionError("a plan needs a Partition of the clients' label_counts, "
                                    "got other label counts: a plan reports its partition's avg JS")


def build_plan(
    partition: Partition,
    clients: ClientTable,
    config: NetworkConfig,
    bandwidth: np.ndarray,
    power: np.ndarray,
    surrogate_objective: float | None = None,
    notes: list[str] | None = None,
) -> AllocationPlan:
    """Assemble an AllocationPlan with every derived metric filled in, avg JS from the
    partition, which must be a Partition of ``clients.label_counts``
    (InvalidPartitionError otherwise); InvalidValueError unless
    ``bandwidth`` holds one entry per coalition and ``power`` one per
    client, each strictly positive; NonFiniteInputError names the fields
    that hold NaN or an infinity."""
    _check_plan_partition(partition, clients)
    assignment, sizes = partition_arrays(partition, clients)
    bandwidth = _checked_bandwidth(bandwidth, sizes)
    power = _checked_positive(power, assignment.size, "client power")
    share = bandwidth[assignment] / sizes[assignment]

    t_client, t_coalition, t_total = round_and_total_latency(
        partition, clients, share, power, config
    )
    t_comp = comp_latency(clients, config)
    breakdown = energies(partition, clients, share, power, config)
    ok, all_ok = check_deadline(t_client, config)
    if surrogate_objective is None:
        surrogate_objective = p3_objective(bandwidth, partition, clients, config)
    avg_js = partition.avg_js()
    plan = AllocationPlan(
        bandwidth=bandwidth,
        client_bandwidth=share,
        power=power,
        comp_latency=t_comp,
        tx_latency=t_client - t_comp,
        client_latency=t_client,
        coalition_latency=t_coalition,
        total_latency=t_total,
        comp_energy=breakdown.comp,
        tx_energy=breakdown.tx,
        coalition_energy=breakdown.coalition,
        total_energy=breakdown.total,
        uplink_energy=breakdown.total_tx,
        avg_js=avg_js,
        utility=network_utility(avg_js, breakdown.total, config),
        surrogate_objective=float(surrogate_objective),
        per_client_feasible=ok,
        feasible=all_ok,
        notes=notes or [],
    )
    bad = [k for k, v in vars(plan).items() if k != "notes" and not np.isfinite(v).all()]
    if bad:
        raise NonFiniteInputError(f"the plan's {', '.join(bad)} are not finite")
    return plan


def plan_full(
    partition: Partition,
    clients: ClientTable,
    config: NetworkConfig,
    gp: GPConfig | None = None,
) -> tuple[AllocationPlan, GPTrace]:
    """Bandwidth by gradient projection, then per-client deadline power.

    The bandwidth solve assumes full power (upload time is minimized at
    p_max); each member then gets the energy-optimal power for its
    equal share.  Clients that cannot meet the deadline even at p_max
    stay at p_max and are flagged in the plan instead of raising.

    numpy may warn of overflow or division by zero on extreme inputs
    before a typed error or a valid plan; the CLI runs inside ``with
    np.errstate(all="ignore"):``, which silences them.
    """
    _check_plan_partition(partition, clients)
    bandwidth, trace = gp_solve(partition, clients, config, gp)
    power, notes = deadline_powers(partition, clients, config, bandwidth)
    plan = build_plan(
        partition, clients, config, bandwidth, power,
        surrogate_objective=trace.objective_values[-1], notes=notes,
    )
    return plan, trace
