import re

import numpy as np
import pytest

from leapsim.alloc import plan_full
from leapsim.errors import InvalidPartitionError, InvalidValueError
from leapsim.game import Partition
from leapsim.netmodel import (
    ClientProfile,
    ClientTable,
    NetworkConfig,
    check_deadline,
    coalition_assignment,
    comp_latency,
    energies,
    network_utility,
    partition_arrays,
    round_and_total_latency,
    tx_latency,
    uplink_rate,
)
from leapsim.scenario import generate_scenario

from oracles import make_clients


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
    """A one-client table with one gain per edge."""
    return make_clients(
        data_size=data_size, cycles_per_item=cycles, cpu_freq=freq, gains=[gains], p_max=p_max
    )


# -- table and config validation -------------------------------------------

def test_profile_rejects_nonpositive_fields():
    with pytest.raises(ValueError):
        client(freq=0.0)
    with pytest.raises(ValueError):
        client(gains=(0.0,))
    with pytest.raises(ValueError):
        make_clients(data_size=5, label_counts=[[2, 2]])


def test_profile_gain_broadcast_and_per_edge():
    repeated = make_clients(gains=2.0, num_edges=4)[0]
    assert isinstance(repeated, ClientProfile)
    assert repeated.gain(0) == repeated.gain(3) == 2.0
    per_edge = client(gains=(1.0, 2.0, 3.0))[0]
    assert per_edge.gain(1) == 2.0 and per_edge.channel_gains == (1.0, 2.0, 3.0)


def test_config_rejects_nonpositive_and_negative_weights():
    with pytest.raises(ValueError):
        unit_config(tau_e=0)
    with pytest.raises(ValueError):
        unit_config(lambda1=-1.0)


@pytest.mark.parametrize("field", ["tau_c", "tau_e", "tau_g"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(3.0), "2", None], ids=repr)
def test_config_refuses_a_tau_that_is_not_an_integer(field, value):
    with pytest.raises(InvalidValueError, match=f"{field} must be an integer, got"):
        unit_config(**{field: value})


@pytest.mark.parametrize("field", ["tau_c", "tau_e", "tau_g"])
def test_config_takes_numpy_integer_taus_of_at_least_1(field):
    assert getattr(unit_config(**{field: np.int64(3)}), field) == 3
    for value in (0, -2, np.int64(0)):
        with pytest.raises(InvalidValueError, match=f"{field} must be at least 1, got"):
            unit_config(**{field: value})


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
        [{0}], c, [1e6], [1e-3], cfg
    )
    assert t_client[0] == pytest.approx(2.0, rel=1e-12)
    assert t_coal[0] == pytest.approx(4.0, rel=1e-12)
    assert t_total == pytest.approx(12.0, rel=1e-12)


def test_straggler_sets_coalition_latency():
    cfg = unit_config()
    fast_slow = make_clients(cycles_per_item=[2.0, 5.0])   # comp 2 s and 5 s
    share, power = 1e6, 1e-3
    t_client, t_coal, t_total = round_and_total_latency(
        [{0, 1}], fast_slow, [share, share], [power, power], cfg
    )
    assert t_coal[0] == pytest.approx(max(t_client), rel=1e-12)
    assert t_total == pytest.approx(t_coal[0], rel=1e-12)


def test_adding_faster_client_never_increases_coalition_latency():
    cfg = unit_config()
    slow = client(cycles=5.0)
    slow_fast = make_clients(cycles_per_item=[5.0, 1.0])
    _, t_before, _ = round_and_total_latency([{0}], slow, [1e6], [1e-3], cfg)
    _, t_after, _ = round_and_total_latency(
        [{0, 1}], slow_fast, [5e5, 5e5], [1e-3, 1e-3], cfg
    )
    # halved share slows the straggler itself; compare at its original share
    _, t_same_share, _ = round_and_total_latency(
        [{0, 1}], slow_fast, [1e6, 1e6], [1e-3, 1e-3], cfg
    )
    assert t_same_share[0] <= t_before[0] + 1e-12


def test_energy_unit_cases_and_additivity():
    cfg = unit_config()
    c = client()
    out = energies([{0}], c, [1e6], [1e-3], cfg)
    assert out.comp[0] == pytest.approx(1.0, rel=1e-12)  # phi c |D| f^2
    # upload at 1 s and 1e-3 W
    assert out.tx[0] == pytest.approx(1e-3, rel=1e-12)

    two = energies([{0, 1}], make_clients(data_size=[1, 1]), [1e6, 1e6], [1e-3, 1e-3], cfg)
    assert two.total == pytest.approx(2 * out.total, rel=1e-12)


def test_energy_example_tu_times_power():
    cfg = unit_config(model_size=2e6)
    c = client()
    out = energies([{0}], c, [1e6], [1e-3], cfg)  # upload takes 2 s
    assert out.tx[0] == pytest.approx(2e-3, rel=1e-12)


def test_coalition_aggregation_matches_direct_sums():
    rng = np.random.default_rng(0)
    cfg = unit_config(tau_e=3, tau_g=2, capacitance=1e-28)
    rows = [
        (
            int(rng.integers(10, 50)),
            float(rng.uniform(1e5, 5e5)),
            float(rng.uniform(1e9, 2e9)),
            float(rng.uniform(1e-7, 1e-5)),
        )
        for _ in range(6)
    ]
    data, cycles, freq, gains = zip(*rows)
    clients = make_clients(
        data_size=data, cycles_per_item=cycles, cpu_freq=freq, gains=gains, num_edges=2
    )
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
    per_client = out.comp + out.tx
    assert np.all(np.isfinite(per_client)) and np.all(per_client > 0)


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
    t_client, _, _ = round_and_total_latency([{0}], c, [1e6], [1.0], cfg)
    ok, all_ok = check_deadline(t_client, cfg)
    assert not all_ok


# -- client table and partition forms ---------------------------------------------------

def test_value_errors_are_typed():
    with pytest.raises(InvalidValueError):
        client(p_max=-1.0)
    with pytest.raises(InvalidValueError):
        unit_config(deadline=0.0)


def test_table_broadcasts_single_gains_and_matches_profiles():
    # "client" gain mode draws one gain per client and repeats it toward every edge
    sc = generate_scenario(seed=4, n_clients=8, n_edges=3, gain_mode="client")
    table = sc.clients
    assert table.channel_gains.shape == (8, 3) and table.num_edges == 3
    assert np.all(table.channel_gains == table.channel_gains[:, :1])
    rows = list(table)
    assert len(rows) == len(table) == 8 and all(isinstance(r, ClientProfile) for r in rows)
    assert [r.p_max for r in rows] == table.p_max.tolist()
    assert [r.label_counts for r in rows] == [tuple(c) for c in table.label_counts.tolist()]
    cfg = unit_config(tau_c=3)
    assert comp_latency(table, cfg).tolist() == [comp_latency(r, cfg) for r in rows]
    assert table.gain(np.array([2, 1, 0] * 2 + [0, 0])).tolist() == [
        r.gain(e) for r, e in zip(rows, [2, 1, 0] * 2 + [0, 0])
    ]


def test_table_rejects_misshapen_clients():
    with pytest.raises(InvalidValueError, match="client 2 has 3 channel gains, client 0 has 2"):
        ClientTable(**table_columns(channel_gains=[[1.0, 1.0], [1.0, 1.0], [1.0, 1.0, 1.0]]))
    with pytest.raises(InvalidValueError, match="client 1 has 2 label counts, client 0 has 1"):
        ClientTable(**table_columns(label_counts=[[4], [1, 1], [0, 3]]))
    # a table with gains toward 2 edges cannot serve a 3-coalition partition
    with pytest.raises(InvalidPartitionError, match="3 coalitions"):
        partition_arrays(np.array([0, 1, 2]), make_clients(data_size=[1, 1, 1], num_edges=2))
    with pytest.raises(InvalidPartitionError, match="3 coalitions"):
        energies([{0}, {1}, {2}], make_clients(data_size=[1, 1, 1], num_edges=2),
                 np.ones(3), np.ones(3), unit_config())


def table_columns(**changes):
    """Valid constructor arguments for 3 clients on 2 edges and 2 classes, changed."""
    columns = dict(
        data_size=[4, 2, 3],
        cycles_per_item=[1.0, 2.0, 3.0],
        cpu_freq=[1e9, 2e9, 3e9],
        channel_gains=[[1e-7, 2e-7], [3e-7, 4e-7], [5e-7, 6e-7]],
        p_max=[0.5, 0.6, 0.7],
        label_counts=[[4, 0], [1, 1], [0, 3]],
    )
    columns.update(changes)
    return columns


NAN, INF = float("nan"), float("inf")
GOOD_GAINS = [[1e-7, 2e-7], [3e-7, 4e-7], [5e-7, 6e-7]]


@pytest.mark.parametrize("changes, words", [
    pytest.param(dict(channel_gains=[1e-7, 2e-7, 3e-7]),
                 "channel_gains must have 3 rows and at least one column, got shape (3,)",
                 id="gains one column per client"),
    pytest.param(dict(channel_gains=GOOD_GAINS[:2]),
                 "channel_gains must have 3 rows and at least one column, got shape (2, 2)",
                 id="gains for 2 clients"),
    pytest.param(dict(channel_gains=[[], [], []]),
                 "channel_gains must have 3 rows and at least one column, got shape (3, 0)",
                 id="gains with no edge"),
    pytest.param(dict(channel_gains=[[1e-7, 2e-7], [3e-7], [5e-7, 6e-7]]),
                 "client 1 has 1 channel gains, client 0 has 2", id="ragged gains"),
    pytest.param(dict(label_counts=[[4, 0], [2], [0, 3]]),
                 "client 1 has 1 label counts, client 0 has 2", id="ragged labels"),
    pytest.param(dict(label_counts=[[4, 0], [1, 2], [0, 3]]),
                 "label_counts must sum to data_size, client 1 has 3",
                 id="labels not summing"),
    pytest.param(dict(label_counts=[[5, -1], [1, 1], [0, 3]]),
                 "label_counts must be non-negative, client 0 has -1", id="negative label"),
    pytest.param(dict(p_max=[0.5, 0.6]), "p_max must have shape (3,), got (2,)",
                 id="short column"),
    pytest.param(dict(data_size=[4, 0, 3], label_counts=[[4, 0], [0, 0], [0, 3]]),
                 "data_size must be strictly positive, client 1 has 0", id="zero data size"),
    pytest.param(dict(cpu_freq=[1e9, 0.0, 3e9]),
                 "cpu_freq must be strictly positive and finite, client 1 has 0.0",
                 id="zero frequency"),
    pytest.param(dict(cycles_per_item=[1.0, 2.0, -3.0]),
                 "cycles_per_item must be strictly positive and finite, client 2 has -3.0",
                 id="negative cycles"),
    pytest.param(dict(channel_gains=[[1e-7, 2e-7], [3e-7, 0.0], [5e-7, 6e-7]]),
                 "channel_gains must be strictly positive and finite, client 1 has 0.0",
                 id="zero gain"),
    pytest.param(dict(p_max=[0.5, NAN, 0.7]),
                 "p_max must be strictly positive and finite, client 1 has nan", id="nan p_max"),
    pytest.param(dict(cpu_freq=[1e9, 2e9, INF]),
                 "cpu_freq must be strictly positive and finite, client 2 has inf",
                 id="inf frequency"),
    pytest.param(dict(channel_gains=[[1e-7, NAN], [3e-7, 4e-7], [5e-7, 6e-7]]),
                 "channel_gains must be strictly positive and finite, client 0 has nan",
                 id="nan gain"),
    pytest.param(dict(data_size=[4.0, 2.0, 3.0]), "data_size must hold integers, got float64",
                 id="float data size"),
    pytest.param(dict(label_counts=[[4.0, 0.0], [1.0, 1.0], [0.0, 3.0]]),
                 "label_counts must hold integers, got float64", id="float labels"),
    pytest.param(dict(data_size=[True, 2, 3], label_counts=[[1, 0], [1, 1], [0, 3]]),
                 "data_size must hold integers, got a bool entry", id="bool data size"),
    pytest.param(dict(label_counts=[[4, 0], [True, 1], [0, 3]]),
                 "label_counts must hold integers, got a bool entry", id="bool label count"),
    pytest.param(dict(label_counts=[[4, 0], [1, np.True_], [0, 3]]),
                 "label_counts must hold integers, got a bool entry", id="numpy bool label count"),
    pytest.param(dict(cpu_freq=["fast"] * 3), "cpu_freq must hold numbers, got str",
                 id="string field"),
    pytest.param(dict(p_max=[True] * 3), "p_max must hold numbers, got bool", id="bool field"),
    pytest.param(dict(data_size=[], cycles_per_item=[], cpu_freq=[], channel_gains=[], p_max=[],
                      label_counts=[]),
                 "a client table needs at least one client", id="no clients"),
])
def test_table_constructor_rejects(changes, words):
    with pytest.raises(InvalidValueError, match=re.escape(words)):
        ClientTable(**table_columns(**changes))


def test_table_constructor_stores_typed_arrays():
    table = ClientTable(**table_columns(p_max=[1, 2, 3]))
    assert table.data_size.dtype == np.int64 and table.label_counts.dtype == np.int64
    assert table.p_max.dtype == float and table.p_max.tolist() == [1.0, 2.0, 3.0]
    assert (len(table), table.num_edges) == (3, 2)
    assert table[1] == ClientProfile(2, 2.0, 2e9, (3e-7, 4e-7), 2.0, (1, 1))


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


def test_an_assignment_array_gets_the_partition_index_check():
    counts = np.ones((4, 2), dtype=np.int64)
    for form in (np.array([0, 1, 1, 0], dtype=np.uint64), np.array([0, 1, 1, 0], dtype=np.int32)):
        found, sizes = coalition_assignment(form, 4)
        assert found.dtype == np.int64 and (found.tolist(), sizes.tolist()) == ([0, 1, 1, 0], [2, 2])
    for bad, words in (
        (np.array([0.0, 1.0, 1.0, 0.0]), "an assignment must be a 1-D integer array, got float64"),
        (np.array([False, True, True, False]), "an assignment must be a 1-D integer array, got bool"),
        (np.array([0, 1, 1, -1]), "assignment index out of range"),
        # an index of n or more leaves a coalition empty; no bincount of its size is made
        (np.array([0, 1, 1, 10**12]), "assignment index out of range"),
        (np.array([0, 1, 1, 2**63], dtype=np.uint64), "assignment index out of range"),
    ):
        for check in (lambda: coalition_assignment(bad, 4), lambda: Partition(bad, counts, 2)):
            with pytest.raises(InvalidPartitionError, match=re.escape(words)):
                check()


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
    clients = make_clients(
        cycles_per_item=1e-6, gains=[float(rng.uniform(1e-7, 1e-5)) for _ in range(6)],
        num_edges=2,
    )
    cfg = unit_config(noise_power=1e-13)
    share, power = np.full(6, 1e6), np.full(6, 0.5)
    with pytest.raises(InvalidPartitionError, match=words):
        if solver == "energies":
            energies(coalitions, clients, share, power, cfg)
        elif solver == "round_and_total_latency":
            round_and_total_latency(coalitions, clients, share, power, cfg)
        else:
            plan_full(coalitions, clients, cfg)
