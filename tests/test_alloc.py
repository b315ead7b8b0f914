import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leapsim.alloc import (
    GPConfig,
    GPTrace,
    InfeasibleError,
    NonFiniteInputError,
    build_plan,
    deadline_powers,
    gp_solve,
    p3_gradient,
    p3_objective,
    plan_full,
    project_to_simplex,
    worst_members,
)
from leapsim.errors import InvalidPartitionError, InvalidValueError
from leapsim.game import Partition
from leapsim.netmodel import ClientTable, NetworkConfig, energies, partition_arrays

from oracles import (
    deadline_power,
    gp_solve_ref,
    make_alloc_instance,
    make_clients,
    optimal_power,
    surrogate_objective_ref,
    worst_client,
)


def simple_clients(p_max, gain, n_edges=2):
    """Clients with the given p_max and gain columns, each gain repeated
    toward every edge."""
    return make_clients(
        data_size=100, cycles_per_item=2e5, cpu_freq=1.5e9, p_max=p_max, gains=gain,
        num_edges=n_edges,
    )


def as_partition(coalitions, clients):
    """The coalitions as a Partition of the clients' label counts."""
    assignment, sizes = partition_arrays(coalitions, clients)
    return Partition(assignment, clients.label_counts, len(sizes))


def with_class_labels(clients, n_classes=3):
    """The clients with all of client n's data in class n % n_classes."""
    counts = np.zeros((len(clients), n_classes), dtype=np.int64)
    counts[np.arange(len(clients)), np.arange(len(clients)) % n_classes] = clients.data_size
    return dataclasses.replace(clients, label_counts=counts)


# -- worst client ---------------------------------------------------------------

def test_worst_client_argmin_p_h():
    clients = simple_clients([2.0, 1.0, 3.0], [2.0, 1.0, 3.0], 1)
    assert worst_members([{0, 1, 2}], clients).tolist() == [1]


def test_worst_client_single_member():
    clients = simple_clients([1.0, 2.0], [1.0, 3.0])
    assert worst_members([{1}, {0}], clients).tolist() == [1, 0]


def test_worst_client_tie_lowest_id():
    clients = simple_clients([1.0, 2.0, 1.0], [2.0, 1.0, 2.0], 1)
    assert worst_members([{2, 1, 0}], clients).tolist() == [0]


def test_worst_members_match_the_scalar_reference():
    # coarse gain and power grids make exact ties common
    rng = np.random.default_rng(40)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 15))
        assignment = np.concatenate([np.arange(m), rng.integers(m, size=n - m)])
        gains = rng.integers(1, 4, size=(n, m if rng.random() < 0.5 else 1))
        clients = make_clients(
            data_size=10, p_max=[float(rng.integers(1, 4)) for _ in range(n)],
            gains=np.broadcast_to(gains, (n, m)),
        )
        coalitions = [set(np.flatnonzero(assignment == k).tolist()) for k in range(m)]
        expected = [worst_client(coalitions[k], clients, k) for k in range(m)]
        assert worst_members(assignment, clients).tolist() == expected
        assert worst_members(coalitions, clients).tolist() == expected


# -- objective and gradient --------------------------------------------------------

def test_p3_objective_single_coalition_closed_form():
    rng = np.random.default_rng(0)
    coalitions, clients, cfg = make_alloc_instance(rng, 1)
    members = coalitions[0]
    bandwidth = cfg.total_bandwidth
    value = p3_objective(np.array([bandwidth]), coalitions, clients, cfg)
    worst = worst_client(members, clients, 0)
    share = bandwidth / len(members)
    p, h = clients[worst].p_max, clients[worst].gain(0)
    rate = share * math.log1p(p * h / (share * cfg.noise_power)) / math.log(2)
    expected = cfg.lambda2 * len(members) * cfg.tau_g * cfg.tau_e * p * cfg.model_size / rate
    assert value == pytest.approx(expected, rel=1e-12)


def test_p3_objective_symmetric_terms_equal():
    # identical coalitions contribute identical terms, so swapping their
    # bandwidths leaves the objective unchanged
    rng = np.random.default_rng(1)
    coalitions, clients, cfg = make_alloc_instance(rng, 2, symmetric=True)
    bandwidth = np.array([0.3, 0.7]) * cfg.total_bandwidth
    assert p3_objective(bandwidth, coalitions, clients, cfg) == pytest.approx(
        p3_objective(bandwidth[::-1], coalitions, clients, cfg), rel=1e-12
    )


def test_p3_objective_matches_energies_with_worst_case_clones():
    # cross-module check: every member cloned to its coalition's worst
    # transmission parameters makes the surrogate exact
    rng = np.random.default_rng(2)
    coalitions, clients, cfg = make_alloc_instance(rng, 3)
    bandwidth = rng.dirichlet(np.ones(3)) * cfg.total_bandwidth
    source = np.arange(len(clients))
    shares = np.empty(len(clients))
    for m, members in enumerate(coalitions):
        worst = worst_client(members, clients, m)
        for n in members:
            source[n] = worst
            shares[n] = bandwidth[m] / len(members)
    clones = ClientTable(**{
        name: getattr(clients, name)[source]
        for name in ("data_size", "cycles_per_item", "cpu_freq", "channel_gains", "p_max",
                     "label_counts")
    })
    breakdown = energies(coalitions, clones, shares, clones.p_max, cfg)
    assert p3_objective(bandwidth, coalitions, clients, cfg) == pytest.approx(
        cfg.lambda2 * breakdown.total_tx, rel=1e-12
    )


def test_p3_objective_rejects_nonpositive_bandwidth():
    rng = np.random.default_rng(3)
    coalitions, clients, cfg = make_alloc_instance(rng, 2)
    with pytest.raises(ValueError):
        p3_objective(np.array([0.0, cfg.total_bandwidth]), coalitions, clients, cfg)


def test_p3_gradient_negative_on_grid():
    rng = np.random.default_rng(4)
    coalitions, clients, cfg = make_alloc_instance(rng, 3)
    for _ in range(20):
        b = rng.dirichlet(np.ones(3)) * cfg.total_bandwidth
        grad = p3_gradient(b, coalitions, clients, cfg)
        assert np.all(grad < 0)


def test_p3_gradient_matches_central_differences():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        coalitions, clients, cfg = make_alloc_instance(rng, m)
        b = rng.dirichlet(np.ones(m)) * cfg.total_bandwidth
        grad = p3_gradient(b, coalitions, clients, cfg)
        step = 1e-4 * b
        for k in range(m):
            up, down = b.copy(), b.copy()
            up[k] += step[k]
            down[k] -= step[k]
            numeric = (
                p3_objective(up, coalitions, clients, cfg)
                - p3_objective(down, coalitions, clients, cfg)
            ) / (2 * step[k])
            assert abs(grad[k] - numeric) / abs(grad[k]) < 1e-5


def test_p3_gradient_symmetric_instance_equal_components():
    rng = np.random.default_rng(6)
    coalitions, clients, cfg = make_alloc_instance(rng, 3, symmetric=True)
    equal = np.full(3, cfg.total_bandwidth / 3)
    grad = p3_gradient(equal, coalitions, clients, cfg)
    assert np.allclose(grad, grad[0], rtol=1e-12)


def test_p3_objective_midpoint_convexity():
    rng = np.random.default_rng(7)
    coalitions, clients, cfg = make_alloc_instance(rng, 3)
    for _ in range(100):
        a = rng.dirichlet(np.ones(3)) * cfg.total_bandwidth
        b = rng.dirichlet(np.ones(3)) * cfg.total_bandwidth
        mid = (a + b) / 2
        fa = p3_objective(a, coalitions, clients, cfg)
        fb = p3_objective(b, coalitions, clients, cfg)
        fm = p3_objective(mid, coalitions, clients, cfg)
        assert fm <= (fa + fb) / 2 + 1e-9 * max(fa, fb)


# -- simplex projection ---------------------------------------------------------------

def test_projection_identity_on_feasible_point():
    v = np.array([0.2, 0.3, 0.5])
    out = project_to_simplex(v, 1.0, floor=0.0)
    assert np.allclose(out, v, atol=1e-15)


def test_projection_canonical_two_dim():
    out = project_to_simplex(np.array([1.5, 0.5]), 1.0, floor=0.0)
    assert np.allclose(out, [1.0, 0.0], atol=1e-12)


def test_projection_respects_floor():
    out = project_to_simplex(np.array([2.0, 0.0]), 1.0, floor=0.1)
    assert np.allclose(out, [0.9, 0.1], atol=1e-12)
    assert out.sum() == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("v", [
    [1.63e296, 3.15e296, 1.67e296],  # the total is lost in rounding: no support at all
    [5.0, -1e308, -1e308],  # a partial sum passes the float range: the result was inf
])
def test_projection_refuses_entries_that_swamp_the_total(v):
    with np.errstate(over="ignore"), pytest.raises(
        InvalidValueError, match="their sum overflows float precision"
    ):
        project_to_simplex(np.array(v), 1e7, floor=10.0)


def test_projection_idempotent():
    rng = np.random.default_rng(8)
    for _ in range(20):
        v = rng.normal(size=4) * 10
        once = project_to_simplex(v, 5.0, floor=0.01)
        twice = project_to_simplex(once, 5.0, floor=0.01)
        assert np.allclose(once, twice, atol=1e-12)


def test_projection_minimizes_euclidean_distance_vs_grid():
    rng = np.random.default_rng(9)
    for _ in range(10):
        v = rng.normal(size=2) * 3
        out = project_to_simplex(v, 1.0, floor=0.0)
        grid = np.linspace(0.0, 1.0, 20001)
        candidates = np.stack([grid, 1.0 - grid], axis=1)
        dists = np.sum((candidates - v) ** 2, axis=1)
        best = candidates[np.argmin(dists)]
        assert np.sum((out - v) ** 2) <= np.sum((best - v) ** 2) + 1e-9


def test_projection_minimizes_distance_three_dim_grid():
    rng = np.random.default_rng(10)
    v = rng.normal(size=3) * 2
    out = project_to_simplex(v, 1.0, floor=0.0)
    axis = np.linspace(0.0, 1.0, 301)
    x, y = np.meshgrid(axis, axis)
    z = 1.0 - x - y
    mask = z >= 0
    d_grid = ((x - v[0]) ** 2 + (y - v[1]) ** 2 + (z - v[2]) ** 2)[mask].min()
    assert np.sum((out - v) ** 2) <= d_grid + 1e-9


def test_projection_infeasible_floor():
    with pytest.raises(InfeasibleError):
        project_to_simplex(np.array([1.0, 1.0]), 1.0, floor=0.6)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_projection_rejects_non_finite_input(bad):
    with pytest.raises(NonFiniteInputError):
        project_to_simplex(np.array([1.0, bad, 0.5]), 1.0, floor=0.0)


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_projection_output_always_feasible(values):
    v = np.asarray(values)
    out = project_to_simplex(v, 7.0, floor=0.05)
    assert abs(out.sum() - 7.0) <= 1e-9 * 7.0
    assert np.all(out >= 0.05 - 1e-12)


# -- gp_solve -----------------------------------------------------------------------

def test_gp_symmetric_instance_returns_equal_split():
    rng = np.random.default_rng(11)
    for m in (2, 3, 5):
        coalitions, clients, cfg = make_alloc_instance(rng, m, symmetric=True)
        b_star, trace = gp_solve(coalitions, clients, cfg)
        equal = cfg.total_bandwidth / m
        assert np.all(np.abs(b_star - equal) / equal < 1e-6)
        assert trace.converged


def test_gp_trace_non_increasing_and_feasible_result():
    rng = np.random.default_rng(12)
    for _ in range(10):
        m = int(rng.integers(2, 5))
        coalitions, clients, cfg = make_alloc_instance(rng, m)
        b_star, trace = gp_solve(coalitions, clients, cfg)
        values = trace.objective_values
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert b_star.sum() == pytest.approx(cfg.total_bandwidth, rel=1e-9)
        assert np.all(b_star >= 1e-6 * cfg.total_bandwidth - 1e-3)


def test_gp_matches_independent_objective_oracle():
    rng = np.random.default_rng(13)
    coalitions, clients, cfg = make_alloc_instance(rng, 2)
    b_star, _ = gp_solve(coalitions, clients, cfg)
    ours = p3_objective(b_star, coalitions, clients, cfg)
    ref = float(surrogate_objective_ref([b_star[0], b_star[1]], coalitions, clients, cfg))
    assert ours == pytest.approx(ref, rel=1e-12)


def test_gp_config_validation():
    with pytest.raises(ValueError):
        GPConfig(step_size=-1.0)
    with pytest.raises(ValueError):
        GPConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        GPConfig(max_iters=0)
    for name, value in (("step_size", math.inf), ("tolerance", math.nan),
                        ("min_bandwidth_floor", math.nan), ("min_bandwidth_floor", -math.inf)):
        with pytest.raises(InvalidValueError, match=f"{name} must be finite"):
            GPConfig(**{name: value})
    with pytest.raises(InvalidValueError, match="tolerance is an integer too large for a float"):
        GPConfig(tolerance=10**400)


@pytest.mark.parametrize("max_iters", [2.5, 3.0, True, np.float64(4.0), "10", None], ids=repr)
def test_gp_config_refuses_an_iteration_cap_that_is_not_an_integer(max_iters):
    # 2.5 used to reach range() inside gp_solve, and True ran one iteration
    with pytest.raises(InvalidValueError, match="max_iters must be an integer, got"):
        GPConfig(max_iters=max_iters)


def test_gp_config_takes_numpy_integer_caps():
    rng = np.random.default_rng(14)
    coalitions, clients, cfg = make_alloc_instance(rng, 2)
    plain, trace = gp_solve(coalitions, clients, cfg, GPConfig(max_iters=3))
    for cap in (np.int64(3), np.uint8(3)):
        b, same = gp_solve(coalitions, clients, cfg, GPConfig(max_iters=cap))
        assert np.array_equal(b, plain) and same.objective_values == trace.objective_values


def test_gp_explicit_step_size_still_converges():
    rng = np.random.default_rng(15)
    coalitions, clients, cfg = make_alloc_instance(rng, 2)
    auto, _ = gp_solve(coalitions, clients, cfg)
    grad0 = p3_gradient(
        np.full(2, cfg.total_bandwidth / 2), coalitions, clients, cfg
    )
    explicit = GPConfig(step_size=0.1 * (cfg.total_bandwidth / 2) / np.abs(grad0).max())
    manual, trace = gp_solve(coalitions, clients, cfg, explicit)
    assert np.allclose(manual, auto, rtol=1e-3)


def _gp_cases():
    """(coalitions, clients, cfg, gp): the make_alloc_instance cases under
    default, explicit-step, capped, tight and floored solver settings."""
    rng = np.random.default_rng(16)
    for _ in range(8):
        coalitions, clients, cfg = make_alloc_instance(rng, int(rng.integers(2, 7)))
        m = len(coalitions)
        for gp in (
            GPConfig(),
            GPConfig(step_size=1e9),  # far too long: the first steps halve
            GPConfig(max_iters=3),
            GPConfig(tolerance=1e-14),
            GPConfig(min_bandwidth_floor=0.5 * cfg.total_bandwidth / m),
        ):
            yield coalitions, clients, cfg, gp


def test_gp_solve_is_bit_identical_to_rebuilding_the_terms_every_evaluation():
    halved = 0
    for coalitions, clients, cfg, gp in _gp_cases():
        assignment, _ = partition_arrays(coalitions, clients)
        b, trace = gp_solve(coalitions, clients, cfg, gp)
        b_ref, values, iterations, halvings, pg_norm = gp_solve_ref(assignment, clients, cfg, gp)
        assert b.tobytes() == b_ref.tobytes()
        assert trace.objective_values == values
        assert trace.iterations_used == iterations
        assert trace.projected_gradient_norm == pg_norm
        halved += halvings > 0
    assert halved  # the backtracking path is exercised


def test_gp_solve_builds_the_terms_once_and_evaluates_through_the_public_functions(
    monkeypatch,
):
    import leapsim.alloc

    calls = {"p3_objective": 0, "p3_gradient": 0, "worst_members": 0}
    for name in calls:
        def counting(*args, _fn=getattr(leapsim.alloc, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(leapsim.alloc, name, counting)

    for coalitions, clients, cfg, gp in _gp_cases():
        assignment, _ = partition_arrays(coalitions, clients)
        _, values, iterations, halvings, _ = gp_solve_ref(assignment, clients, cfg, gp)
        calls.update(dict.fromkeys(calls, 0))
        _, trace = gp_solve(coalitions, clients, cfg, gp)
        assert calls == {
            "p3_objective": 1 + iterations + halvings,
            "p3_gradient": len(trace.objective_values),
            "worst_members": 1,
        }
        calls.update(dict.fromkeys(calls, 0))
        plan_full(as_partition(coalitions, clients), clients, cfg, gp)  # reuses the objective
        assert calls["worst_members"] == 1
        assert calls["p3_objective"] == 1 + iterations + halvings


# -- deadline power ---------------------------------------------------------------------

def power_config(deadline, share_ref=1e6):
    return NetworkConfig(
        total_bandwidth=1e7,
        noise_power=1e-9,
        model_size=1e6,
        tau_c=1,
        tau_e=1,
        tau_g=1,
        deadline=deadline,
        capacitance=1e-28,
    )


def alone(client):
    """A one-client, one-edge table holding the given client row (or table
    row 0) with its gain toward edge 0."""
    return make_clients(
        data_size=client.data_size, cycles_per_item=client.cycles_per_item,
        cpu_freq=client.cpu_freq, p_max=client.p_max, gains=client.gain(0),
    )


def power_alone(clients, share, cfg):
    """deadline_powers for a one-client table at the given share: (power, notes)."""
    power, notes = deadline_powers(np.zeros(1, dtype=np.int64), clients, cfg, [share])
    return float(power[0]), notes


def test_optimal_power_exponent_one_case():
    # transmission budget of exactly model_size/share seconds makes the
    # exponent 1, so p = share * noise * (2 - 1) / gain = 1.0 W
    c = make_clients(cycles_per_item=1e-3, cpu_freq=1e9, gains=1e-3, p_max=5.0)
    t_comp = 1 * 1e-3 * 1 / 1e9
    cfg = power_config(deadline=1.0 + t_comp)
    p, notes = power_alone(c, 1e6, cfg)
    assert p == pytest.approx(1.0, rel=1e-9) and not notes
    assert p == pytest.approx(optimal_power(c[0], 1e6, 0, cfg), rel=1e-12)


def test_optimal_power_loose_deadline_tends_to_zero():
    c = simple_clients(1.0, 1e-3, 1)
    cfg = power_config(deadline=1e9)
    p, _ = power_alone(c, 1e6, cfg)
    assert 0 < p < 1e-6


def test_optimal_power_clamps_at_p_max():
    c = simple_clients(0.5, 1e-9, 1)
    cfg = power_config(deadline=1.0)
    assert power_alone(c, 1e5, cfg) == (0.5, [])
    assert optimal_power(c[0], 1e5, 0, cfg) == 0.5


def test_deadline_power_raises_when_compute_exceeds_budget():
    c = make_clients(data_size=100, cycles_per_item=1e9, cpu_freq=1e9, gains=1e-3)
    # comp latency 100 s
    cfg = power_config(deadline=1.0)
    with pytest.raises(ValueError):
        deadline_power(c[0], 1e6, 0, cfg)
    assert power_alone(c, 1e6, cfg) == (
        1.0, ["client 0: computation alone exceeds the deadline budget"]
    )


def test_optimal_power_meets_deadline_exactly_when_unclamped():
    rng = np.random.default_rng(16)
    from leapsim.netmodel import comp_latency, tx_latency

    for _ in range(50):
        coalitions, clients, cfg0 = make_alloc_instance(rng, 2)
        c = clients[int(rng.integers(len(clients)))]
        share = float(rng.uniform(1e5, 2e6))
        cfg = NetworkConfig(
            total_bandwidth=cfg0.total_bandwidth,
            noise_power=cfg0.noise_power,
            model_size=cfg0.model_size,
            tau_c=cfg0.tau_c,
            tau_e=cfg0.tau_e,
            tau_g=cfg0.tau_g,
            deadline=float(rng.uniform(2e5, 3e6)),
            capacitance=cfg0.capacitance,
        )
        p, _ = power_alone(alone(c), share, cfg)
        assert p == pytest.approx(optimal_power(c, share, 0, cfg), rel=1e-12)
        assert 0 < p <= c.p_max
        if p < c.p_max:
            total = comp_latency(c, cfg) + tx_latency(share, p, c.gain(0), cfg)
            assert total == pytest.approx(cfg.iteration_budget, rel=1e-9)


def test_power_optimization_never_increases_energy():
    rng = np.random.default_rng(17)
    from leapsim.netmodel import tx_latency

    for _ in range(50):
        coalitions, clients, cfg = make_alloc_instance(rng, 2, deadline=float(rng.uniform(2e5, 1e7)))
        c = clients[int(rng.integers(len(clients)))]
        share = float(rng.uniform(1e5, 2e6))
        p, notes = power_alone(alone(c), share, cfg)
        if notes:
            continue
        e_opt = tx_latency(share, p, c.gain(0), cfg) * p
        e_max = tx_latency(share, c.p_max, c.gain(0), cfg) * c.p_max
        assert e_opt <= e_max + 1e-12 * e_max
        if p < c.p_max:
            assert e_opt < e_max


# -- full plan ---------------------------------------------------------------------------

def test_plan_full_symmetric_instance():
    rng = np.random.default_rng(18)
    coalitions, clients, cfg = make_alloc_instance(rng, 3, symmetric=True, deadline=1e7)
    plan, trace = plan_full(as_partition(coalitions, clients), clients, cfg)
    equal = cfg.total_bandwidth / 3
    assert np.all(np.abs(plan.bandwidth - equal) / equal < 1e-6)
    assert np.allclose(plan.power, plan.power[0], rtol=1e-6)
    assert plan.feasible


def test_plan_full_latencies_within_budget_by_construction():
    rng = np.random.default_rng(19)
    coalitions, clients, cfg = make_alloc_instance(rng, 3, deadline=1e7)
    plan, _ = plan_full(as_partition(coalitions, clients), clients, cfg)
    assert plan.feasible
    assert np.all(plan.client_latency <= cfg.iteration_budget * (1 + 1e-9))


def test_plan_full_flags_impossible_clients_instead_of_raising():
    clients = make_clients(
        data_size=100, cycles_per_item=[1e9, 2e5], cpu_freq=[1e9, 1.5e9], gains=1e-4,
        num_edges=2,
    )
    cfg = power_config(deadline=10.0)
    plan, _ = plan_full(as_partition([{0}, {1}], clients), clients, cfg)
    assert not plan.feasible
    assert not plan.per_client_feasible[0]
    assert plan.notes  # structured infeasibility report


@pytest.mark.parametrize("form", ["assignment", "member sets", "other counts"])
def test_plans_refuse_a_partition_that_is_not_a_partition_object(form):
    # a plan reports its partition's avg JS, which an array or member sets
    # lack and a Partition of other clients' label counts gets wrong
    rng = np.random.default_rng(22)
    coalitions, clients, cfg = make_alloc_instance(rng, 2)
    assignment = partition_arrays(coalitions, clients)[0]
    if form == "other counts":
        # an equal copy of the clients' counts plans like the table's own array
        same = Partition(assignment, clients.label_counts.copy(), 2)
        assert plan_full(same, clients, cfg)[0].avg_js == plan_full(
            as_partition(coalitions, clients), clients, cfg)[0].avg_js
        other = clients.label_counts.copy()
        other[0, 0] += 1
        partition = Partition(assignment, other, 2)
        words = ("^a plan needs a Partition of the clients' label_counts, got other label "
                 "counts: a plan reports its partition's avg JS$")
    else:
        partition = coalitions if form == "member sets" else assignment
        got = type(partition).__name__
        words = f"^a plan needs a Partition, got {got}: a plan reports its partition's avg JS$"
    with pytest.raises(InvalidPartitionError, match=words):
        plan_full(partition, clients, cfg)
    with pytest.raises(InvalidPartitionError, match=words):
        build_plan(partition, clients, cfg, np.array([4e6, 6e6]), clients.p_max)


def test_build_plan_metrics_are_consistent():
    rng = np.random.default_rng(20)
    coalitions, clients, cfg = make_alloc_instance(rng, 2, deadline=1e7)
    clients = with_class_labels(clients)
    partition = as_partition(coalitions, clients)
    assert partition.avg_js() > 0
    bandwidth = np.array([4e6, 6e6])
    power = np.array([c.p_max for c in clients])
    plan = build_plan(partition, clients, cfg, bandwidth, power)
    assert plan.avg_js == partition.avg_js()
    assert plan.total_energy == pytest.approx(float(plan.coalition_energy.sum()), rel=1e-12)
    rounds = cfg.tau_g * cfg.tau_e
    assert plan.uplink_energy == pytest.approx(rounds * float(plan.tx_energy.sum()), rel=1e-12)
    assert plan.utility == pytest.approx(
        cfg.lambda1 * (1 - partition.avg_js()) - cfg.lambda2 * plan.total_energy, rel=1e-12
    )


@pytest.mark.parametrize("bandwidth, power, words", [
    ([4e6, 6e6], 0.5, "expected 7 client powers, got 1"),
    ([4e6, 6e6], [0.5] * 6, "expected 7 client powers, got 6"),
    ([4e6, 6e6], [[0.5] * 7], "expected 7 client powers, got 7"),
    ([4e6, 6e6], [0.5] * 6 + [0.0], "every client power must be strictly positive"),
    ([4e6, 6e6], [-0.5] + [0.5] * 6, "every client power must be strictly positive"),
    ([4e6], [0.5] * 7, "expected 2 coalition bandwidths, got 1"),
    ([4e6, 0.0], [0.5] * 7, "every coalition bandwidth must be strictly positive"),
], ids=["scalar_power", "short_power", "2d_power", "zero_power", "negative_power",
        "short_bandwidth", "zero_bandwidth"])
def test_build_plan_checks_one_positive_power_per_client_as_it_checks_bandwidth(
    bandwidth, power, words
):
    """A scalar power was broadcast to every client and a short one ended
    in numpy's broadcasting error; both are refused as a short bandwidth is."""
    clients = make_clients(
        data_size=100, cycles_per_item=2e5, cpu_freq=1.5e9, p_max=[1.0] * 7, gains=1e-7,
        num_edges=2,
    )
    partition = as_partition([{0, 1, 2}, {3, 4, 5, 6}], clients)
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        build_plan(partition, clients, power_config(10.0), bandwidth, power)


@pytest.mark.parametrize("columns, fields", [
    ({"cycles_per_item": 1e300, "cpu_freq": 1e-300},
     "comp_latency, tx_latency, client_latency, coalition_latency, total_latency"),
    ({"cpu_freq": 1e200}, "comp_energy, coalition_energy, total_energy, utility"),
], ids=["latency", "energy"])
def test_build_plan_refuses_a_plan_whose_floats_overflow(columns, fields):
    clients = make_clients(
        **{"data_size": 100, "cycles_per_item": 2e5, "cpu_freq": 1.5e9, **columns},
        p_max=[1.0, 1.0], gains=1e-7, num_edges=2,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteInputError, match=f"^the plan's {fields} are not finite"):
            build_plan(as_partition([{0}, {1}], clients), clients, power_config(10.0),
                       np.array([5e6, 5e6]), clients.p_max)


def test_a_solve_sets_the_projected_gradient_norm_a_fresh_trace_lacks():
    assert GPTrace().projected_gradient_norm is None
    rng = np.random.default_rng(21)
    coalitions, clients, cfg = make_alloc_instance(rng, 3)
    _, trace = gp_solve(coalitions, clients, cfg)
    assert math.isfinite(trace.projected_gradient_norm)


# -- vectorized plan against the per-client reference -----------------------------------

def random_plan_instance(rng):
    """Random coalitions, clients and deadline for differential tests.

    Coalition 0 is a singleton; half of the instances repeat one gain
    per client toward every edge ("client" gain mode); compute latencies spread around the
    per-iteration budget, so some clients run out of budget on
    computation alone and others need more than p_max.
    """
    m = int(rng.integers(2, 6))
    n = int(rng.integers(m + 1, 25))
    assignment = np.concatenate([np.arange(m), rng.integers(1, m, size=n - m)])
    rng.shuffle(assignment)
    per_edge = rng.random() < 0.5
    rows = []
    for _ in range(n):
        gains = np.exp(rng.uniform(np.log(1e-8), np.log(1e-5), size=m if per_edge else 1))
        data = int(rng.integers(20, 200))
        rows.append((
            data,
            float(rng.uniform(1e4, 1e6)),
            float(rng.uniform(1e9, 2e9)),
            np.broadcast_to(gains, (m,)),
            float(rng.uniform(0.1, 1.0)),
        ))
    data, cycles, freq, gains, p_max = zip(*rows)
    clients = make_clients(
        data_size=data, cycles_per_item=cycles, cpu_freq=freq, gains=np.array(gains), p_max=p_max
    )
    cfg = NetworkConfig(
        total_bandwidth=1e7, noise_power=1e-13, model_size=2e5, tau_c=5, tau_e=3,
        tau_g=4, deadline=12 * float(rng.uniform(0.2, 0.6)), capacitance=1e-28,
    )
    coalitions = [set(np.flatnonzero(assignment == k).tolist()) for k in range(m)]
    bandwidth = rng.dirichlet(np.ones(m)) * cfg.total_bandwidth
    return assignment, coalitions, clients, cfg, bandwidth


def assert_plan_matches(plan, ref):
    for name, expected in ref.items():
        value = getattr(plan, name)
        if name in ("per_client_feasible", "feasible"):
            assert np.array_equal(value, expected), name
        else:
            np.testing.assert_allclose(value, expected, rtol=1e-12, atol=0, err_msg=name)


def test_deadline_powers_and_build_plan_match_the_per_client_reference():
    from oracles import deadline_powers_ref, plan_ref

    rng = np.random.default_rng(41)
    seen = {"late": 0, "clipped": 0, "client_mode": 0, "js": 0}
    for _ in range(60):
        assignment, coalitions, clients, cfg, bandwidth = random_plan_instance(rng)
        clients = with_class_labels(clients)
        power, notes = deadline_powers(assignment, clients, cfg, bandwidth)
        ref_power, ref_notes = deadline_powers_ref(coalitions, clients, cfg, bandwidth)
        np.testing.assert_allclose(power, ref_power, rtol=1e-12, atol=0)
        assert notes == ref_notes
        p_max = np.array([c.p_max for c in clients])
        seen["late"] += len(notes)
        seen["clipped"] += int(np.sum(power == p_max)) - len(notes)
        seen["client_mode"] += bool(np.all(clients.channel_gains == clients.channel_gains[:, :1]))

        partition = as_partition(coalitions, clients)
        avg_js = partition.avg_js()
        seen["js"] += avg_js > 0
        for trial_power in (power, p_max * rng.uniform(0.01, 1.0, size=len(clients))):
            plan = build_plan(partition, clients, cfg, bandwidth, trial_power)
            assert_plan_matches(
                plan, plan_ref(coalitions, clients, cfg, bandwidth, trial_power, avg_js)
            )
    assert all(count > 0 for count in seen.values()), seen
