import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leapsim.errors import InputFileError, InvalidValueError
from leapsim.netmodel import ClientTable
from leapsim.scenario import (
    HardwareRanges,
    dirichlet_label_counts,
    generate_scenario,
    label_count_matrix,
    load_scenario,
    save_scenario,
    shard_grouped_partition,
    shard_label_counts,
)

from oracles import shard_grouped_assignment_ref


def test_same_seed_gives_byte_identical_files(tmp_path):
    for k in (1, 2):
        sc = generate_scenario(seed=123, n_clients=20, n_edges=4)
        save_scenario(sc, tmp_path / f"s{k}.json")
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()


def test_different_seeds_differ():
    a = generate_scenario(seed=1, n_clients=10, n_edges=2)
    b = generate_scenario(seed=2, n_clients=10, n_edges=2)
    assert a.to_dict() != b.to_dict()


def test_shard_scheme_exact_support_size():
    sc = generate_scenario(seed=5, n_clients=30, n_edges=3, n_classes=10, shards=2)
    for c in sc.clients:
        assert np.count_nonzero(c.label_counts) == 2
        assert sum(c.label_counts) == c.data_size


def test_shard_counts_tile_classes_evenly():
    counts = shard_label_counts(25, 10, 2, 200)
    assert np.all(counts.sum(axis=1) == 200)
    # 25 clients * 2 shards over 10 classes: each class appears 5 times
    assert np.all((counts > 0).sum(axis=0) == 5)


def test_dirichlet_scheme():
    rng = np.random.default_rng(0)
    counts = dirichlet_label_counts(rng, 15, 8, alpha=0.3, data_size=100)
    assert counts.shape == (15, 8)
    assert np.all(counts.sum(axis=1) == 100)
    sc = generate_scenario(seed=9, n_clients=10, n_edges=2, shards=None, dirichlet_alpha=0.5)
    assert sc.meta["scheme"] == "dirichlet"


def test_large_scale_setting_runs():
    sc = generate_scenario(seed=0, n_clients=50, n_edges=5)
    assert sc.n_clients == 50 and sc.num_edges == 5
    assert label_count_matrix(sc).shape == (50, 10)


def test_scheme_selection_is_exclusive():
    with pytest.raises(ValueError):
        generate_scenario(seed=0, n_clients=10, n_edges=2, shards=2, dirichlet_alpha=0.5)
    with pytest.raises(ValueError):
        generate_scenario(seed=0, n_clients=10, n_edges=2, shards=None, dirichlet_alpha=None)


def test_gain_modes():
    pair = generate_scenario(seed=1, n_clients=6, n_edges=3, gain_mode="pair")
    assert pair.clients.channel_gains.shape == (6, 3)
    assert len(set(pair.clients[0].channel_gains)) == 3
    solo = generate_scenario(seed=1, n_clients=6, n_edges=3, gain_mode="client")
    assert solo.clients.channel_gains.shape == (6, 3)
    assert solo.clients[0].gain(0) == solo.clients[0].gain(2)
    assert np.all(solo.clients.channel_gains == solo.clients.channel_gains[:, :1])
    assert (pair.meta["gain_mode"], solo.meta["gain_mode"]) == ("pair", "client")


def test_hardware_within_ranges():
    ranges = HardwareRanges()
    sc = generate_scenario(seed=7, n_clients=25, n_edges=5)
    for c in sc.clients:
        assert ranges.cpu_freq[0] <= c.cpu_freq <= ranges.cpu_freq[1]
        assert ranges.cycles_per_item[0] <= c.cycles_per_item <= ranges.cycles_per_item[1]
        assert ranges.p_max[0] <= c.p_max <= ranges.p_max[1]
        for g in c.channel_gains:
            assert ranges.channel_gain[0] <= g <= ranges.channel_gain[1]


def test_auto_deadline_leaves_margin_at_full_power():
    from leapsim.netmodel import comp_latency, tx_latency

    sc = generate_scenario(seed=11, n_clients=20, n_edges=4, deadline_slack=1.5)
    cfg = sc.config
    share = cfg.total_bandwidth / sc.n_clients
    worst = max(
        comp_latency(c, cfg) + tx_latency(share, c.p_max, min(c.channel_gains), cfg)
        for c in sc.clients
    )
    assert cfg.iteration_budget == pytest.approx(1.5 * worst, rel=1e-9)


def test_explicit_deadline_respected():
    sc = generate_scenario(seed=11, n_clients=10, n_edges=2, deadline=123.0)
    assert sc.config.deadline == 123.0


def test_save_load_roundtrip(tmp_path):
    sc = generate_scenario(seed=3, n_clients=12, n_edges=3)
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    again = load_scenario(path)
    assert again.to_dict() == sc.to_dict()


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "other"}))
    with pytest.raises(ValueError):
        load_scenario(path)


def test_schema_version_present(tmp_path):
    sc = generate_scenario(seed=3, n_clients=12, n_edges=3)
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    assert json.loads(path.read_text())["schema"] == "leapsim.scenario.v2"


def test_grouped_partition_is_adversarial_and_valid():
    sc = generate_scenario(seed=42, n_clients=25, n_edges=5, n_classes=10, shards=2)
    part = shard_grouped_partition(sc)
    part.validate()
    # grouping clients by identical support leaves each edge with the
    # fewest possible classes: exactly the 2 shard classes here
    counts = label_count_matrix(sc)
    for m in range(sc.num_edges):
        support = np.nonzero(counts[part.assignment == m].sum(axis=0))[0]
        assert len(support) == 2
    assert part.avg_js() > 1.0


def test_generator_argument_errors_are_typed():
    with pytest.raises(InvalidValueError):
        generate_scenario(seed=0, n_clients=10, n_edges=1)
    with pytest.raises(InvalidValueError):
        generate_scenario(seed=0, n_clients=10, n_edges=2, gain_mode="other")


@pytest.mark.parametrize("field, value, words", [
    ("channel_gains", [1e-7, 1e-7, 1e-7], "3 channel gains"),
    ("label_counts", [100, 100], "2 label counts"),
    ("p_max", -1, "p_max"),
    ("cpu_freq", "fast", "cpu_freq must hold numbers"),
])
def test_load_rejects_a_bad_client(tmp_path, field, value, words):
    sc = generate_scenario(seed=3, n_clients=6, n_edges=2)
    data = sc.to_dict()
    data["clients"][field][4] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InputFileError, match=words):
        load_scenario(path)


def test_table_is_built_once_and_matches_the_profiles():
    sc = generate_scenario(seed=4, n_clients=8, n_edges=3, gain_mode="client")
    assert isinstance(sc.clients, ClientTable) and sc.clients.channel_gains.shape == (8, 3)
    assert sc.clients.channel_gains[:, 2].tolist() == [c.gain(2) for c in sc.clients]
    assert sc.clients.p_max.tolist() == [c.p_max for c in sc.clients]
    assert label_count_matrix(sc) is sc.clients.label_counts


TABLE_FIELDS = [f.name for f in fields(ClientTable)]


@given(
    seed=st.integers(0, 2**32 - 1),
    n_edges=st.integers(2, 5),
    extra_clients=st.sampled_from([0, 0, 1, 7]),
    dirichlet=st.booleans(),
    gain_mode=st.sampled_from(["pair", "client"]),
)
@settings(max_examples=40, deadline=None)
def test_save_load_returns_the_generated_arrays(
    tmp_path_factory, seed, n_edges, extra_clients, dirichlet, gain_mode
):
    # extra_clients 0 gives N = M
    sc = generate_scenario(
        seed=seed, n_clients=n_edges + extra_clients, n_edges=n_edges, n_classes=4,
        shards=None if dirichlet else 2, dirichlet_alpha=0.4 if dirichlet else None,
        data_size=30, gain_mode=gain_mode,
    )
    path = tmp_path_factory.mktemp("roundtrip") / "scenario.json"
    save_scenario(sc, path)
    again = load_scenario(path)
    for name in TABLE_FIELDS:
        kept, loaded = getattr(sc.clients, name), getattr(again.clients, name)
        assert loaded.dtype == kept.dtype and np.array_equal(loaded, kept), name
    assert (again.config, again.num_edges, again.meta) == (sc.config, sc.num_edges, sc.meta)


def test_load_rejects_a_v1_file(tmp_path):
    sc = generate_scenario(seed=3, n_clients=6, n_edges=2)
    data = {**sc.to_dict(), "schema": "leapsim.scenario.v1"}
    data["clients"] = [dict(zip(TABLE_FIELDS, row)) for row in zip(*data["clients"].values())]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InputFileError, match="expected schema 'leapsim.scenario.v2', "
                       "found 'leapsim.scenario.v1'"):
        load_scenario(path)


@pytest.mark.parametrize("kwargs", [
    dict(n_clients=25, n_edges=5, n_classes=10, shards=2),
    dict(n_clients=40, n_edges=4, n_classes=6, shards=3),
    dict(n_clients=30, n_edges=3, n_classes=3, shards=1),
    dict(n_clients=33, n_edges=4, n_classes=5, shards=None, dirichlet_alpha=0.2, data_size=8),
    dict(n_clients=50, n_edges=6, n_classes=12, shards=None, dirichlet_alpha=1.0),
    dict(n_clients=21, n_edges=5, n_classes=4, shards=None, dirichlet_alpha=0.1,
         data_size=3, gain_mode="client"),
])
def test_grouped_partition_matches_the_signature_sort_reference(kwargs):
    for seed in range(5):
        sc = generate_scenario(seed=seed, **kwargs)
        supports = [tuple(row) for row in (sc.clients.label_counts > 0).tolist()]
        # the shard schemes repeat supports; the small Dirichlet draws do too
        assert len(set(supports)) < len(supports)
        expected = shard_grouped_assignment_ref(sc.clients, sc.num_edges)
        assert shard_grouped_partition(sc).assignment.tolist() == expected.tolist()
