import numpy as np
import pytest

from leapsim.alloc import plan_full
from leapsim.errors import InvalidPartitionError, InvalidValueError
from leapsim.game import Partition
from leapsim.netmodel import (
    AllocationPlan,
    ClientProfile,
    ClientTable,
    NetworkConfig,
    check_deadline,
    client_table,
    coalition_assignment,
    comp_latency,
    energies,
    network_utility,
    round_and_total_latency,
    tx_latency,
    uplink_rate,
)


def unit_config(**overrides):
    base = dict(
        total_bandwidth=1e7,
        noise_power=1e-9,
        model_size=1e6,
        tau_c=1,
        tau_e=1,
        tau_g=1,
        deadline=10.0,
        capacitance=1.0,
    )
    base.update(overrides)
    return NetworkConfig(**base)


def client(data_size=1, cycles=1.0, freq=1.0, gains=(1.0,), p_max=1.0):
    return ClientProfile(
        data_size=data_size,
        cycles_per_item=cycles,
        cpu_freq=freq,
        channel_gains=gains,
        p_max=p_max,
        label_counts=(data_size,),
    )


# -- profile and config validation -------------------------------------------

def test_profile_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        client(freq=0.0)
    with pytest.raises(ValueError):
        client(gains=(0.0,))
    with pytest.raises(ValueError):
        ClientProfile(
            data_size=5, cycles_per_item=1, cpu_freq=1,
            channel_gains=(1.0,), p_max=1, label_counts=(2, 2),
        )


def test_profile_gain_broadcast_and_per_edge():
    scalar = client(gains=(2.0,))
    assert scalar.gain(0) == scalar.gain(3) == 2.0
    per_edge = client(gains=(1.0, 2.0, 3.0))
    assert per_edge.gain(1) == 2.0


def test_config_rejects_nonpositive_and_negative_weights():
    with pytest.raises(ValueError):
        unit_config(tau_e=0)
    with pytest.raises(ValueError):
        unit_config(lambda1=-1.0)


# -- compute latency -----------------------------------------------------------

def test_comp_latency_unit_case():
    assert comp_latency(client(), unit_config()) == 1.0


def test_comp_latency_formula():
    cfg = unit_config(tau_c=5)
    c = client(data_size=200, cycles=1e6, freq=1e9)
    assert comp_latency(c, cfg) == pytest.approx(1.0, rel=1e-15)


def test_comp_latency_halves_with_double_frequency():
    cfg = unit_config()
    slow = client(freq=1.0)
    fast = client(freq=2.0)
    assert comp_latency(fast, cfg) == pytest.approx(comp_latency(slow, cfg) / 2)


# -- uplink rate and upload time -------------------------------------------------

def test_uplink_rate_snr_one():
    cfg = unit_config()
    # power * gain == share * noise -> log2(2) = 1
    assert uplink_rate(1e6, 1e-3, 1.0, cfg) == pytest.approx(1e6, rel=1e-12)


def test_uplink_rate_snr_three():
    cfg = unit_config()
    assert uplink_rate(1e6, 3e-3, 1.0, cfg) == pytest.approx(2e6, rel=1e-12)


def test_uplink_rate_vanishes_with_power():
    cfg = unit_config()
    assert uplink_rate(1e6, 1e-15, 1.0, cfg) < 1.0


def test_uplink_rate_rejects_nonpositive():
    cfg = unit_config()
    with pytest.raises(ValueError):
        uplink_rate(0.0, 1.0, 1.0, cfg)
    with pytest.raises(ValueError):
        uplink_rate(1.0, 0.0, 1.0, cfg)


def test_uplink_rate_increasing_concave_in_power():
    cfg = unit_config()
    powers = np.logspace(-6, 1, 60)
    rates = np.array([uplink_rate(1e6, p, 1e-3, cfg) for p in powers])
    assert np.all(np.diff(rates) > 0)
    # concavity on a uniform grid: second differences negative
    uniform = np.linspace(0.01, 10.0, 200)
    vals = np.array([uplink_rate(1e6, p, 1e-3, cfg) for p in uniform])
    assert np.all(np.diff(vals, 2) < 1e-9)


def test_tx_latency_unit_and_derived():
    cfg = unit_config()
    assert tx_latency(1e6, 1e-3, 1.0, cfg) == pytest.approx(1.0, rel=1e-12)
    cfg44 = unit_config(model_size=4.4e5)
    assert tx_latency(1e6, 3e-3, 1.0, cfg44) == pytest.approx(0.22, rel=1e-12)


def test_tx_latency_decreasing_in_share_and_power():
    cfg = unit_config()
    shares = np.linspace(1e5, 1e7, 50)
    ts = [tx_latency(s, 0.5, 1e-3, cfg) for s in shares]
    assert all(b < a for a, b in zip(ts, ts[1:]))
    powers = np.logspace(-4, 0, 50)
    tp = [tx_latency(1e6, p, 1e-3, cfg) for p in powers]
    assert all(b < a for a, b in zip(tp, tp[1:]))


def test_uplink_energy_increasing_in_power():
    # E(p) = t_tx(p) * p on log-spaced grids
    cfg = unit_config()
    powers = np.logspace(-8, 0, 100)
    energy = np.array([tx_latency(1e6, p, 1e-3, cfg) * p for p in powers])
    assert np.all(np.diff(energy) > 0)


# -- aggregation ------------------------------------------------------------------

def test_single_client_total_latency():
    cfg = unit_config(tau_e=2, tau_g=3)
    c = client()  # comp latency 1.0
    # pick share/power for a 1.0 s upload: rate 1e6, model 1e6 bits
    t_client, t_coal, t_total = round_and_total_latency(
        [{0}], [c], [1e6], [1e-3], cfg
    )
    assert t_client[0] == pytest.approx(2.0, rel=1e-12)
    assert t_coal[0] == pytest.approx(4.0, rel=1e-12)
    assert t_total == pytest.approx(12.0, rel=1e-12)


def test_straggler_sets_coalition_latency():
    cfg = unit_config()
    fast = client(freq=1.0, cycles=2.0)   # comp 2 s
    slow = client(freq=1.0, cycles=5.0)   # comp 5 s
    share, power = 1e6, 1e-3
    t_client, t_coal, t_total = round_and_total_latency(
        [{0, 1}], [fast, slow], [share, share], [power, power], cfg
    )
    assert t_coal[0] == pytest.approx(max(t_client), rel=1e-12)
    assert t_total == pytest.approx(t_coal[0], rel=1e-12)


def test_adding_faster_client_never_increases_coalition_latency():
    cfg = unit_config()
    slow = client(cycles=5.0)
    fast = client(cycles=1.0)
    _, t_before, _ = round_and_total_latency([{0}], [slow], [1e6], [1e-3], cfg)
    _, t_after, _ = round_and_total_latency(
        [{0, 1}], [slow, fast], [5e5, 5e5], [1e-3, 1e-3], cfg
    )
    # halved share slows the straggler itself; compare at its original share
    _, t_same_share, _ = round_and_total_latency(
        [{0, 1}], [slow, fast], [1e6, 1e6], [1e-3, 1e-3], cfg
    )
    assert t_same_share[0] <= t_before[0] + 1e-12


def test_energy_unit_cases_and_additivity():
    cfg = unit_config()
    c = client()
    out = energies([{0}], [c], [1e6], [1e-3], cfg)
    assert out.comp[0] == pytest.approx(1.0, rel=1e-12)  # phi c |D| f^2
    # upload at 1 s and 1e-3 W
    assert out.tx[0] == pytest.approx(1e-3, rel=1e-12)

    two = energies([{0, 1}], [c, c], [1e6, 1e6], [1e-3, 1e-3], cfg)
    assert two.total == pytest.approx(2 * out.total, rel=1e-12)


def test_energy_example_tu_times_power():
    cfg = unit_config(model_size=2e6)
    c = client()
    out = energies([{0}], [c], [1e6], [1e-3], cfg)  # upload takes 2 s
    assert out.tx[0] == pytest.approx(2e-3, rel=1e-12)


def test_coalition_aggregation_matches_direct_sums():
    rng = np.random.default_rng(0)
    cfg = unit_config(tau_e=3, tau_g=2, capacitance=1e-28)
    clients = [
        client(
            data_size=int(rng.integers(10, 50)),
            cycles=float(rng.uniform(1e5, 5e5)),
            freq=float(rng.uniform(1e9, 2e9)),
            gains=(float(rng.uniform(1e-7, 1e-5)),),
            p_max=1.0,
        )
        for _ in range(6)
    ]
    coalitions = [{0, 1, 2}, {3, 4, 5}]
    shares = rng.uniform(1e5, 1e6, size=6)
    powers = rng.uniform(0.01, 1.0, size=6)
    t_client, t_coal, t_total = round_and_total_latency(
        coalitions, clients, shares, powers, cfg
    )
    for m, members in enumerate(coalitions):
        assert t_coal[m] == pytest.approx(
            cfg.tau_e * max(t_client[n] for n in members), rel=1e-12
        )
    assert t_total == pytest.approx(cfg.tau_g * t_coal.max(), rel=1e-12)

    out = energies(coalitions, clients, shares, powers, cfg)
    direct = cfg.tau_g * cfg.tau_e * float(np.sum(out.comp + out.tx))
    assert out.total == pytest.approx(direct, rel=1e-12)
    assert np.all(np.isfinite(t_client)) and np.all(t_client > 0)
    assert np.all(np.isfinite(out.client)) and np.all(out.client > 0)


# -- utility and deadline ------------------------------------------------------------

def test_network_utility_examples():
    assert network_utility(0.0, 5.0, unit_config(lambda1=1, lambda2=0)) == 1.0
    assert network_utility(0.9, 3.0, unit_config(lambda1=0, lambda2=1)) == -3.0
    assert network_utility(0.5, 0.2, unit_config()) == pytest.approx(0.3, abs=1e-15)


def test_deadline_boundary_inclusive():
    cfg = unit_config(deadline=6.0, tau_e=2, tau_g=3)  # budget 1.0
    ok, all_ok = check_deadline([1.0, 0.5], cfg)
    assert ok.tolist() == [True, True] and all_ok


def test_deadline_violation_flagged():
    cfg = unit_config(deadline=6.0, tau_e=2, tau_g=3)
    ok, all_ok = check_deadline([1.5, 0.5], cfg)
    assert ok.tolist() == [False, True] and not all_ok


def test_compute_alone_over_budget_is_infeasible():
    cfg = unit_config(deadline=0.5)  # budget 0.5 < comp latency 1.0
    c = client()
    t_client, _, _ = round_and_total_latency([{0}], [c], [1e6], [1.0], cfg)
    ok, all_ok = check_deadline(t_client, cfg)
    assert not all_ok


# -- plan serialization ---------------------------------------------------------------

def test_allocation_plan_roundtrip():
    plan = AllocationPlan(
        bandwidth=np.array([5e6, 5e6]),
        client_bandwidth=np.array([5e6, 5e6]),
        power=np.array([0.1, 0.2]),
        comp_latency=np.array([1.0, 2.0]),
        tx_latency=np.array([0.5, 0.25]),
        client_latency=np.array([1.5, 2.25]),
        coalition_latency=np.array([1.5, 2.25]),
        total_latency=2.25,
        comp_energy=np.array([0.1, 0.2]),
        tx_energy=np.array([0.05, 0.05]),
        coalition_energy=np.array([0.15, 0.25]),
        total_energy=0.4,
        uplink_energy=0.1,
        avg_js=0.25,
        utility=0.35,
        surrogate_objective=1.0,
        per_client_feasible=np.array([True, True]),
        feasible=True,
    )
    again = AllocationPlan.from_dict(plan.to_dict())
    assert again.to_dict() == plan.to_dict()


# -- client table and partition forms ---------------------------------------------------

def test_value_errors_are_typed():
    with pytest.raises(InvalidValueError):
        client(p_max=-1.0)
    with pytest.raises(InvalidValueError):
        unit_config(deadline=0.0)


def test_table_broadcasts_single_gains_and_matches_profiles():
    clients = [client(gains=(2.0,), cycles=3.0), client(gains=(1.0, 5.0, 7.0), freq=2.0)]
    table = ClientTable.from_profiles(clients, 3)
    assert table.channel_gains.tolist() == [[2.0, 2.0, 2.0], [1.0, 5.0, 7.0]]
    assert table.label_counts.shape == (2, 1) and len(table) == 2
    cfg = unit_config(tau_c=3)
    assert comp_latency(table, cfg).tolist() == [comp_latency(c, cfg) for c in clients]
    assert table.gain(np.array([2, 1])).tolist() == [clients[0].gain(2), clients[1].gain(1)]
    assert client_table(table, 3) is table


def test_table_rejects_misshapen_clients():
    with pytest.raises(InvalidValueError, match="client 1 has 3 channel gains"):
        ClientTable.from_profiles([client(gains=(1.0, 1.0)), client(gains=(1.0, 1.0, 1.0))], 2)
    odd = ClientProfile(
        data_size=2, cycles_per_item=1.0, cpu_freq=1.0, channel_gains=(1.0,),
        p_max=1.0, label_counts=(1, 1),
    )
    with pytest.raises(InvalidValueError, match="client 1 has 2 label counts"):
        ClientTable.from_profiles([client(), odd], 2)
    with pytest.raises(InvalidPartitionError):
        client_table(ClientTable.from_profiles([client()], 2), 3)


def test_partition_forms_give_one_assignment():
    counts = np.ones((5, 2), dtype=np.int64)
    assignment = np.array([1, 0, 2, 1, 0])
    expected = (assignment.tolist(), [2, 2, 1])
    for form in (
        Partition(assignment, counts, 3),
        assignment,
        [{1, 4}, [3, 0], (2,)],
    ):
        found, sizes = coalition_assignment(form, 5)
        assert (found.tolist(), sizes.tolist()) == expected


BAD_PARTITIONS = {
    "missing client": ([{0, 1, 2}, {3, 4}], "client 5 is missing"),
    "repeated client": ([{0, 1, 2}, {2, 3, 4, 5}], "client 2 is repeated"),
    "out of range": ([{0, 1, 2}, {3, 4, 6}], "outside"),
    "empty coalition": ([{0, 1, 2, 3, 4, 5}, set()], "coalition 1 is empty"),
}


@pytest.mark.parametrize("case", sorted(BAD_PARTITIONS))
@pytest.mark.parametrize("solver", ["energies", "round_and_total_latency", "plan_full"])
def test_solvers_reject_a_partition_that_is_not_a_disjoint_cover(case, solver):
    coalitions, words = BAD_PARTITIONS[case]
    rng = np.random.default_rng(3)
    clients = [
        client(gains=(float(rng.uniform(1e-7, 1e-5)),) * 2, cycles=1e-6) for _ in range(6)
    ]
    cfg = unit_config(noise_power=1e-13)
    share, power = np.full(6, 1e6), np.full(6, 0.5)
    with pytest.raises(InvalidPartitionError, match=words):
        if solver == "energies":
            energies(coalitions, clients, share, power, cfg)
        elif solver == "round_and_total_latency":
            round_and_total_latency(coalitions, clients, share, power, cfg)
        else:
            plan_full(coalitions, clients, cfg)
