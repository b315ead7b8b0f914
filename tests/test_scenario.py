import hashlib
import json
import math
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leapsim.errors import InputFileError, InvalidValueError
from leapsim.files import fields_dict
from leapsim.netmodel import ClientTable
from leapsim.scenario import (
    CHANNEL_GAIN_RANGE,
    CPU_FREQ_RANGE,
    CYCLES_PER_ITEM_RANGE,
    P_MAX_RANGE,
    dirichlet_label_counts,
    generate_scenario,
    label_count_matrix,
    load_scenario,
    save_scenario,
    shard_grouped_partition,
    shard_label_counts,
)

from oracles import (
    read_scenario_ref,
    shard_grouped_assignment_ref,
    shard_label_counts_ref,
    write_scenario_ref,
)


def test_same_seed_gives_byte_identical_files(tmp_path):
    for k in (1, 2):
        sc = generate_scenario(seed=123, n_clients=20, n_edges=4)
        save_scenario(sc, tmp_path / f"s{k}.bin")
    assert (tmp_path / "s1.bin").read_bytes() == (tmp_path / "s2.bin").read_bytes()


def test_different_seeds_differ(tmp_path):
    for seed in (1, 2):
        save_scenario(generate_scenario(seed=seed, n_clients=10, n_edges=2), tmp_path / f"{seed}")
    assert (tmp_path / "1").read_bytes() != (tmp_path / "2").read_bytes()


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


@pytest.mark.parametrize("n_clients, n_classes, shards, data_size", [
    (25, 10, 2, 200),
    (7, 10, 3, 200),  # 200 % 3 == 2: the first two shards hold one item more
    (13, 5, 5, 17),
    (6, 4, 4, 3),  # fewer items than shards: the last shard is empty
    (9, 1, 1, 10),
    (1, 10, 10, 0),
    (0, 3, 2, 5),
])
def test_shard_counts_match_the_per_client_loop(n_clients, n_classes, shards, data_size):
    counts = shard_label_counts(n_clients, n_classes, shards, data_size)
    expected = shard_label_counts_ref(n_clients, n_classes, shards, data_size)
    assert counts.dtype == expected.dtype and np.array_equal(counts, expected)


@given(
    n_clients=st.integers(0, 40),
    n_classes=st.integers(1, 12),
    shards=st.integers(1, 12),
    data_size=st.integers(0, 500),
)
@settings(max_examples=100, deadline=None)
def test_shard_counts_match_the_per_client_loop_on_random_shapes(
    n_clients, n_classes, shards, data_size
):
    shards = min(shards, n_classes)
    counts = shard_label_counts(n_clients, n_classes, shards, data_size)
    assert np.array_equal(counts, shard_label_counts_ref(n_clients, n_classes, shards, data_size))


def test_dirichlet_scheme():
    rng = np.random.default_rng(0)
    counts = dirichlet_label_counts(rng, 15, 8, alpha=0.3, data_size=100)
    assert counts.shape == (15, 8)
    assert np.all(counts.sum(axis=1) == 100)
    sc = generate_scenario(seed=9, n_clients=10, n_edges=2, shards=None, dirichlet_alpha=0.5)
    assert sc.meta["scheme"] == "dirichlet"


@pytest.mark.parametrize("alpha, words", [
    pytest.param(10**400, "alpha is an integer too large for a float", id="10**400"),
    (True, "alpha must be a number, got True"),
    (float("nan"), "alpha must be finite, got nan"),
])
def test_dirichlet_alpha_must_be_a_finite_number(alpha, words):
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        dirichlet_label_counts(np.random.default_rng(0), 4, 3, alpha=alpha, data_size=10)


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
    sc = generate_scenario(seed=7, n_clients=25, n_edges=5)
    for c in sc.clients:
        assert CPU_FREQ_RANGE[0] <= c.cpu_freq <= CPU_FREQ_RANGE[1]
        assert CYCLES_PER_ITEM_RANGE[0] <= c.cycles_per_item <= CYCLES_PER_ITEM_RANGE[1]
        assert P_MAX_RANGE[0] <= c.p_max <= P_MAX_RANGE[1]
        for g in c.channel_gains:
            assert CHANNEL_GAIN_RANGE[0] <= g <= CHANNEL_GAIN_RANGE[1]


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


TABLE_FIELDS = [f.name for f in fields(ClientTable)]


def assert_same_scenario(again, sc):
    """``again`` holds ``sc``'s arrays bit for bit (as native-order,
    writable arrays) and its config, num_edges and meta."""
    for name in TABLE_FIELDS:
        kept, loaded = getattr(sc.clients, name), getattr(again.clients, name)
        assert loaded.dtype == kept.dtype and loaded.shape == kept.shape, name
        assert loaded.tobytes() == kept.tobytes() and loaded.flags.writeable, name
    assert (again.config, again.num_edges, again.meta) == (sc.config, sc.num_edges, sc.meta)


def assert_reloads_bit_for_bit(tmp_path, **kwargs):
    sc = generate_scenario(seed=3, n_clients=12, n_edges=3, **kwargs)
    save_scenario(sc, tmp_path / "a.bin")
    again = load_scenario(tmp_path / "a.bin")
    assert_same_scenario(again, sc)
    assert sc.num_edges == again.num_edges == again.clients.channel_gains.shape[1] == 3
    save_scenario(again, tmp_path / "b.bin")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_save_load_roundtrip(tmp_path):
    assert_reloads_bit_for_bit(tmp_path, shards=2)


@pytest.mark.parametrize("kwargs", [
    dict(shards=None, dirichlet_alpha=0.3),
    dict(shards=3, gain_mode="client"),
], ids=["dirichlet", "client gains"])
def test_other_scenario_kinds_save_load_roundtrip(tmp_path, kwargs):
    assert_reloads_bit_for_bit(tmp_path, **kwargs)


@pytest.mark.parametrize("kwargs, digest", [
    (dict(seed=5, n_clients=30, n_edges=4, shards=3, gain_mode="client"),
     "9db5b8b96e70f28cb7aa95fa5ac86bc80cadd9c89b148138eee1d47af3c12845"),
    (dict(seed=6, n_clients=30, n_edges=4, shards=None, dirichlet_alpha=0.3),
     "f7028888aa7bf0403f12d0aa00e9f6b5f6c4835d495b716c29925667ddbe36c4"),
], ids=["client gains", "dirichlet"])
def test_saved_bytes_are_pinned(tmp_path, kwargs, digest):
    """The sha256 of two saved scenarios the golden matrix does not write.
    Like the golden manifest's, the bytes are pinned per Python, numpy
    and orjson version; a change meant to move them says so in CHANGES.md."""
    save_scenario(generate_scenario(**kwargs), tmp_path / "scenario.bin")
    assert hashlib.sha256((tmp_path / "scenario.bin").read_bytes()).hexdigest() == digest


def test_save_and_load_hold_no_copy_of_the_columns(tmp_path):
    """Saving writes the columns from the arrays' own memory, and loading
    reads them into one block: above the scenario itself, saving holds
    next to nothing and loading little more than the arrays it returns."""
    sc = generate_scenario(seed=3, n_clients=4000, n_edges=40)
    path = tmp_path / "scenario.bin"
    tracemalloc.start()
    try:
        save_scenario(sc, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        again = load_scenario(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert_same_scenario(again, sc)
    size = path.stat().st_size
    assert size > 1_600_000
    assert save_peak < 0.05 * size, (save_peak, size)
    assert load_peak < 1.5 * size, (load_peak, size)


def test_the_file_is_a_json_line_then_the_columns(tmp_path):
    sc = generate_scenario(seed=3, n_clients=12, n_edges=3)
    save_scenario(sc, tmp_path / "scenario.bin")
    header, columns = read_scenario_ref(tmp_path / "scenario.bin")
    assert header == {
        "schema": "leapsim.scenario.v4",
        "config": fields_dict(sc.config),
        "num_edges": 3,
        "meta": sc.meta,
        "clients": {name: {"dtype": getattr(sc.clients, name).dtype.newbyteorder("<").str,
                           "shape": list(getattr(sc.clients, name).shape)}
                    for name in TABLE_FIELDS},
    }
    for name in TABLE_FIELDS:
        assert columns[name].tobytes() == getattr(sc.clients, name).tobytes()


def test_numpy_float_arguments_are_saved_as_plain_floats(tmp_path):
    # the writer refuses numpy scalars, and meta keeps these two arguments as given
    sc = generate_scenario(seed=3, n_clients=12, n_edges=3, shards=None,
                           dirichlet_alpha=np.float64(0.5), deadline_slack=np.float64(2.0))
    save_scenario(sc, tmp_path / "scenario.bin")
    meta = load_scenario(tmp_path / "scenario.bin").meta
    assert (meta["alpha"], meta["deadline_slack"]) == (0.5, 2.0)


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_text(json.dumps({"schema": "other"}) + "\n")
    with pytest.raises(InputFileError,
                       match="expected schema 'leapsim.scenario.v4', found 'other'"):
        load_scenario(path)


def test_schema_version_present(tmp_path):
    sc = generate_scenario(seed=3, n_clients=12, n_edges=3)
    path = tmp_path / "scenario.bin"
    save_scenario(sc, path)
    assert json.loads(path.read_bytes().split(b"\n", 1)[0])["schema"] == "leapsim.scenario.v4"


def _refuses_an_older_json_file(tmp_path, schema):
    # the earlier schemas were indented JSON, whose first line is "{"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"schema": schema, "num_edges": 2}, indent=2) + "\n")
    with pytest.raises(InputFileError, match=re.escape(
        f"{path}: not a 'leapsim.scenario.v4' file: its first line is not a JSON header"
    )):
        load_scenario(path)


def test_load_rejects_a_v1_file(tmp_path):
    _refuses_an_older_json_file(tmp_path, "leapsim.scenario.v1")


def test_load_rejects_a_v2_file(tmp_path):
    _refuses_an_older_json_file(tmp_path, "leapsim.scenario.v2")


def test_load_rejects_a_v3_file(tmp_path):
    _refuses_an_older_json_file(tmp_path, "leapsim.scenario.v3")


def test_every_prefix_and_a_trailing_byte_are_refused(tmp_path):
    sc = generate_scenario(seed=3, n_clients=2, n_edges=2, n_classes=2, shards=1, data_size=4)
    save_scenario(sc, tmp_path / "good.bin")
    data = (tmp_path / "good.bin").read_bytes()
    path = tmp_path / "bad.bin"
    for cut in [*range(len(data)), None]:
        path.write_bytes(data + b"\0" if cut is None else data[:cut])
        with pytest.raises(InputFileError, match=re.escape(f"{path}: ")):
            load_scenario(path)
    path.write_bytes(data)
    assert_same_scenario(load_scenario(path), sc)


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


@pytest.mark.parametrize("name, value, words", [
    ("n_clients", 20.0, "n_clients must be an integer, got 20.0"),
    ("n_edges", 4.0, "n_edges must be an integer, got 4.0"),
    ("n_classes", 10.0, "n_classes must be an integer, got 10.0"),
    ("data_size", 200.0, "data_size must be an integer, got 200.0"),
    ("shards", 2.0, "shards must be an integer, got 2.0"),
    ("data_size", True, "data_size must be an integer, got True"),
    ("n_classes", 0, "n_classes must be at least 1, got 0"),
])
def test_generator_refuses_a_count_that_is_not_a_positive_integer(name, value, words):
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        generate_scenario(**{"seed": 0, "n_clients": 20, "n_edges": 4, name: value})


@pytest.mark.parametrize("name, value, words", [
    ("deadline", True, "deadline must be a number, got True"),
    ("deadline", np.True_, "deadline must be a number, got np.True_"),
    ("deadline", "5", "deadline must be a number, got '5'"),
    ("deadline", math.inf, "deadline must be finite, got inf"),
    pytest.param("deadline", 10**400, "deadline is an integer too large for a float",
                 id="deadline-10**400"),
    ("deadline_slack", True, "deadline_slack must be a number, got True"),
])
def test_generator_refuses_a_deadline_that_is_not_a_finite_number(name, value, words):
    # each used to be cast: deadline=True gave a 1.0 s deadline, "5" a 5.0 s one
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        generate_scenario(**{"seed": 0, "n_clients": 6, "n_edges": 2, name: value})


@pytest.mark.parametrize("field, value, words", [
    # a list is client 4's new row: a row of another length leaves data
    # that no longer fits the stored shape
    # (6 clients and 10 classes make 480 bytes of label_counts, the last column)
    pytest.param("channel_gains", [1e-7, 1e-7, 1e-7],
                 "clients.label_counts: 488 bytes of data, shape [6, 10] needs 480",
                 id="channel_gains ragged row"),
    pytest.param("label_counts", [100, 100], 
                 "clients.label_counts: 416 bytes of data, shape [6, 10] needs 480",
                 id="label_counts ragged row"),
    ("p_max", -1, "p_max"),
    # a string is the column's dtype: a string column's is not allowed
    pytest.param("cpu_freq", "<U4", "clients.cpu_freq: dtype must be '<f8' or '<i8', got '<U4'",
                 id="cpu_freq string dtype"),
])
def test_load_rejects_a_bad_client(tmp_path, field, value, words):
    sc = generate_scenario(seed=3, n_clients=6, n_edges=2)
    save_scenario(sc, tmp_path / "good.bin")
    header, columns = read_scenario_ref(tmp_path / "good.bin")
    array = columns[field]
    if isinstance(value, str):
        header["clients"][field]["dtype"] = value
    elif isinstance(value, list):  # the header keeps the old shape
        columns[field] = np.concatenate([array[:4].ravel(), value, array[5:].ravel()])
    else:
        array[4] = value
    path = tmp_path / "scenario.bin"
    write_scenario_ref(path, header, columns)
    with pytest.raises(InputFileError, match=re.escape(words)):
        load_scenario(path)


def test_table_is_built_once_and_matches_the_profiles():
    sc = generate_scenario(seed=4, n_clients=8, n_edges=3, gain_mode="client")
    assert isinstance(sc.clients, ClientTable) and sc.clients.channel_gains.shape == (8, 3)
    assert sc.clients.channel_gains[:, 2].tolist() == [c.gain(2) for c in sc.clients]
    assert sc.clients.p_max.tolist() == [c.p_max for c in sc.clients]
    assert label_count_matrix(sc) is sc.clients.label_counts


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
    path = tmp_path_factory.mktemp("roundtrip") / "scenario.bin"
    save_scenario(sc, path)
    assert_same_scenario(load_scenario(path), sc)


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
