import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from leapsim.dist import js_rows, xlog2x_sums
from leapsim.errors import InvalidValueError, described
from leapsim.files import fields_dict, write_json
from leapsim.game import (
    DRAW_BLOCK,
    LOOKAHEAD_DRAWS,
    InvalidPartitionError,
    InvalidSwitchError,
    Partition,
    SwitchProposal,
    _price_moves,
    certify_stability,
    evaluate_switch,
    random_partition,
    run_coalition_formation,
)

from leapsim.experiment import write_game_trace
from leapsim.scenario import generate_scenario, label_count_matrix

from oracles import (
    best_switch_ref,
    coalition_counts_ref,
    coalition_formation_ref,
    partition_avg_js_ref,
    potential_ref,
    random_counts,
    random_partition_ref,
    stable_ref,
    switch_deltas_ref,
)

ONE_HOT_4 = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.int64)


def make_partition(assignment, counts, m, denominator="M"):
    return Partition(np.asarray(assignment), np.asarray(counts), m, denominator)


def priced_switch(part, client, target):
    """``evaluate_switch`` of the move, priced by the client's reference row."""
    return evaluate_switch(part, client, target, switch_deltas_ref(part, client))


def accepted(trace):
    """The trace rows of accepted switches."""
    return [entry for entry in trace.entries if entry[3] is not None]


# -- partition construction and invariants -----------------------------------

def test_partition_rejects_empty_coalition():
    with pytest.raises(InvalidPartitionError):
        make_partition([0, 0, 0], np.eye(3, dtype=np.int64), 2)


def test_partition_rejects_out_of_range_assignment():
    with pytest.raises(InvalidPartitionError):
        make_partition([0, 3], np.eye(2, dtype=np.int64), 2)


@pytest.mark.parametrize("assignment, words", [
    # 1.7, 1.0 and "1" used to be cast to edge 1, and False, True to edges 0, 1;
    # 2**64 and the ragged list raised numpy's own errors
    ([0, 1.7], "got float64 of shape (2,)"),
    ([0, 1.0], "got float64 of shape (2,)"),
    ([0, "1"], "got <U21 of shape (2,)"),
    ([False, True], "got bool of shape (2,)"),
    ([0, 2**64], "got object of shape (2,)"),
    ([[0, 1]], "got int64 of shape (1, 2)"),
    ([[0], [0, 1]], "inhomogeneous"),
])
def test_partition_refuses_an_assignment_that_is_not_integer(assignment, words):
    words = re.escape("an assignment must be a 1-D integer array") + ".*" + re.escape(words)
    with pytest.raises(InvalidPartitionError, match=words):
        Partition(assignment, np.eye(2, dtype=np.int64) + 1, 2)


def test_partition_refuses_an_index_past_int64_without_overflow():
    counts = np.eye(2, dtype=np.int64) + 1
    for assignment in ([0, 2**63], np.array([0, 2**63], dtype=np.uint64)):
        with pytest.raises(InvalidPartitionError):  # a float list, or an index out of range
            Partition(assignment, counts, 2)


def test_partition_takes_integer_lists_and_arrays_of_any_integer_dtype():
    counts = np.eye(4, 2, dtype=np.int64) + 1
    for form in ([0, 1, 1, 0], np.array([0, 1, 1, 0], dtype=np.uint8),
                 np.array([0, 1, 1, 0], dtype=np.int32), np.array([0, 1, 1, 0], dtype=np.uint64)):
        part = Partition(form, counts, 2)
        assert part.assignment.dtype == np.int64 and part.assignment.tolist() == [0, 1, 1, 0]


@pytest.mark.parametrize("counts, words", [
    # each used to be cast: [[0.5, 1.9], [1, 1]] became [[0, 1], [1, 1]]
    ([[0.5, 1.9], [1, 1]], "got float64 of shape (2, 2)"),
    (np.array([[2.7, 1.9], [1.0, 1.0]]), "got float64 of shape (2, 2)"),
    ([[2.0, 1.0], [1.0, 1.0]], "got float64 of shape (2, 2)"),
    ([[True, False], [False, True]], "got bool of shape (2, 2)"),
    ([[True, False], [1, 1]], "got a bool entry"),  # numpy reads this list as int64
    ([[np.True_, 0], [1, 1]], "got a bool entry"),
    ([["1", "0"], ["0", "1"]], "got <U1 of shape (2, 2)"),
    ([[1, 0], [0, 2**64]], "got object of shape (2, 2)"),
    ([[1, 0], [0]], "inhomogeneous"),
], ids=["float_list", "float_array", "integral_floats", "bool_list", "bool_in_int_list",
        "numpy_bool_in_int_list", "strings", "past_uint64", "ragged"])
def test_partition_refuses_label_counts_that_are_not_integer(counts, words):
    pattern = re.escape("label counts must be an integer array") + ".*" + re.escape(words)
    with pytest.raises(InvalidPartitionError, match=pattern):
        Partition([0, 1], counts, 2)


def test_partition_refuses_a_bool_inside_an_integer_assignment_list():
    for assignment in ([0, True], [np.False_, 1]):
        with pytest.raises(InvalidPartitionError, match="1-D integer array, got a bool entry"):
            Partition(assignment, np.eye(2, dtype=np.int64) + 1, 2)


def test_partition_takes_label_counts_of_any_integer_dtype():
    for counts in ([[2, 1], [1, 2]], np.array([[2, 1], [1, 2]], dtype=np.uint8),
                   [np.array([2, 1], dtype=np.int32), np.array([1, 2], dtype=np.int32)]):
        part = Partition([0, 1], counts, 2)
        assert part.client_counts.dtype == np.int64
        assert part.client_counts.tolist() == [[2, 1], [1, 2]]


@pytest.mark.parametrize("denominator", ["bogus", "m", "", 7, None])
def test_partition_rejects_an_unknown_denominator(denominator):
    with pytest.raises(InvalidPartitionError, match="denominator must be 'M' or 'pairs'"):
        make_partition([0, 0, 1, 1], ONE_HOT_4, 2, denominator)
    with pytest.raises(InvalidPartitionError):
        random_partition(ONE_HOT_4, 2, np.random.default_rng(0), denominator)


def test_partition_rejects_negative_label_counts():
    with pytest.raises(InvalidPartitionError, match="label counts must be >= 0"):
        make_partition([0, 1], [[-1, 2], [1, 1]], 2)
    with pytest.raises(InvalidPartitionError, match="label counts must be >= 0"):
        random_partition(np.array([[3, 0], [0, -2], [1, 1]]), 2, np.random.default_rng(0))


@pytest.mark.parametrize("num_coalitions", [0, -1])
def test_random_partition_rejects_fewer_than_one_coalition(num_coalitions):
    with pytest.raises(InvalidPartitionError, match="num_coalitions must be at least 1"):
        random_partition(ONE_HOT_4, num_coalitions, np.random.default_rng(0))


@pytest.mark.parametrize("num_coalitions, words", [
    # 2.0 and np.float64(2) ended in a bare TypeError, True in "an integer is
    # required" and 10**30 in an OverflowError
    (0, "num_coalitions must be at least 1, got 0"),
    (-1, "num_coalitions must be at least 1, got -1"),
    (2.0, "num_coalitions must be an integer, got 2.0"),
    (np.float64(2), "num_coalitions must be an integer, got np.float64(2.0)"),
    (True, "num_coalitions must be an integer, got True"),
    ("2", "num_coalitions must be an integer, got '2'"),
    (10**30, "num_coalitions is an integer too large for an int64"),
])
def test_partition_and_random_partition_check_the_coalition_count(num_coalitions, words):
    pattern = "^" + re.escape(words)
    for assignment in ([0, 1, 0, 1], [0, 0, 0, 0]):
        with pytest.raises(InvalidPartitionError, match=pattern):
            make_partition(assignment, ONE_HOT_4, num_coalitions)
    with pytest.raises(InvalidPartitionError, match=pattern):
        random_partition(ONE_HOT_4, num_coalitions, np.random.default_rng(0))
    assert make_partition([0, 1, 0, 1], ONE_HOT_4, np.int64(2)).num_coalitions == 2


@st.composite
def partition_inputs(draw):
    """(assignment, label counts, M): 1-6 coalitions, none empty and some of
    one member, over 1-5 classes, every client holding a label."""
    m, k = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    extra = draw(st.lists(st.integers(0, m - 1), max_size=2 * m))
    assignment = draw(st.permutations(list(range(m)) + extra))
    counts = draw(hnp.arrays(np.int64, (len(assignment), k), elements=st.integers(0, 2**40)))
    counts[:, draw(st.integers(0, k - 1))] += 1
    return assignment, counts, m


@given(case=partition_inputs())
@example(case=([0, 1, 2], np.array([[3], [1], [2]]), 3))  # K = 1, every coalition single
@settings(max_examples=200, deadline=None)
def test_partition_counts_equal_the_per_coalition_sums(case):
    assignment, counts, m = case
    part = Partition(assignment, counts, m)
    assert part.counts.dtype == np.int64
    assert np.array_equal(part.counts, coalition_counts_ref(assignment, counts, m))
    part.validate()


def test_partition_counts_equal_the_per_coalition_sums_at_4000_clients():
    counts = label_count_matrix(generate_scenario(seed=1, n_clients=4000, n_edges=40, shards=2))
    part = random_partition(counts, 40, np.random.default_rng(3))
    assert np.array_equal(part.counts, coalition_counts_ref(part.assignment, counts, 40))
    part.validate()


def test_partition_caches_match_fresh_computation():
    rng = np.random.default_rng(0)
    counts = random_counts(rng, 8, 4)
    part = random_partition(counts, 3, rng)
    part.validate()
    assert part.avg_js() == pytest.approx(
        partition_avg_js_ref(part.assignment, counts, 3), abs=1e-12
    )


@pytest.mark.parametrize("denominator", ["M", "pairs"])
def test_one_coalition_has_zero_avg_js_and_is_stable(denominator):
    part = make_partition([0, 0], [[1, 0], [0, 1]], 1, denominator)
    assert part.avg_js() == 0.0
    assert certify_stability(part)
    assert best_switch_ref(part, 0) is None
    with pytest.raises(InvalidSwitchError):
        switch_deltas_ref(part, 0)


def test_partition_copy_is_independent():
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    clone = part.copy()
    prop = priced_switch(clone, 0, 1)
    clone.apply(prop)
    assert part.assignment.tolist() == [0, 0, 1, 1]
    part.validate()
    clone.validate()


def test_random_partition_matches_the_per_coalition_loop():
    rng = np.random.default_rng(9)
    for seed in range(20):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m, 4 * m + 3))
        counts = random_counts(rng, n, 4)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        part = random_partition(counts, m, ours, "pairs" if seed % 2 else "M")
        ref = random_partition_ref(counts, m, theirs, part.denominator)
        assert np.array_equal(part.assignment, ref.assignment)
        assert part.denominator == ref.denominator
        assert ours.integers(2**62) == theirs.integers(2**62)  # same draws consumed


def test_apply_updates_caches_incrementally():
    rng = np.random.default_rng(1)
    counts = random_counts(rng, 10, 5)
    part = random_partition(counts, 3, rng)
    for _ in range(10):
        client = int(rng.integers(10))
        src = int(part.assignment[client])
        if part.sizes[src] == 1:
            continue
        target = (src + 1) % 3
        part.apply(priced_switch(part, client, target))
        part.validate()  # cached distributions and JS matrix vs rebuild
        assert part.plogp.tobytes() == xlog2x_sums(part.probs).tobytes()


def test_validate_catches_a_stale_entropy_cache():
    rng = np.random.default_rng(2)
    part = random_partition(random_counts(rng, 9, 4), 3, rng)
    before = part.plogp.copy()
    client = int(np.flatnonzero(part.sizes[part.assignment] > 1)[0])
    part.apply(priced_switch(part, client, (int(part.assignment[client]) + 1) % 3))
    part.validate()
    assert not np.array_equal(part.plogp, before)
    for stale in (before, part.plogp + 1e-9, np.where(np.arange(3) == 1, np.nan, part.plogp)):
        broken = part.copy()
        broken.plogp = stale.copy()
        with pytest.raises(InvalidPartitionError, match="cached coalition entropies are stale"):
            broken.validate()
        with pytest.raises(InvalidPartitionError, match="entropies are stale"):
            run_coalition_formation(broken, max_iters=10, rng_seed=0)
    # a NaN is stale in every float cache
    for name, message in (("probs", "distribution"), ("js_matrix", "JS matrix")):
        broken = part.copy()
        getattr(broken, name)[0, 0] = np.nan
        with pytest.raises(InvalidPartitionError, match=f"{message} is stale"):
            broken.validate()


# -- evaluate_switch -----------------------------------------------------------

def test_switch_into_opposite_coalition_improves():
    # two same-label clients together, loner apart: moving one of them
    # over equalizes both coalitions
    part = make_partition([0, 0, 1], np.array([[1, 0], [1, 0], [0, 1]]), 2)
    prop = priced_switch(part, 0, 1)
    assert prop.delta_js < 0


def test_switch_indifferent_client_changes_nothing():
    # client matches both coalition distributions exactly
    counts = np.array([[1, 1], [1, 1], [1, 1], [1, 1]])
    part = make_partition([0, 0, 1, 1], counts, 2)
    prop = priced_switch(part, 0, 1)
    assert prop.delta_js == pytest.approx(0.0, abs=1e-12)


def test_switch_between_identical_balanced_coalitions_does_not_improve():
    part = make_partition([0, 1, 0, 1], ONE_HOT_4, 2)  # both coalitions {e0, e1}
    for client in range(4):
        src = int(part.assignment[client])
        prop = priced_switch(part, client, 1 - src)
        assert prop.delta_js >= -1e-15


def test_switch_same_target_rejected():
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    with pytest.raises(InvalidSwitchError):  # Partition.apply judges admissibility
        part.apply(evaluate_switch(part, 0, 0, switch_deltas_ref(part, 0)))


def test_switch_emptying_source_rejected():
    part = make_partition([0, 1, 1, 1], ONE_HOT_4, 2)
    with pytest.raises(InvalidSwitchError):  # refused before the client is priced
        part.apply(evaluate_switch(part, 0, 1, np.zeros(2)))


@pytest.mark.parametrize("target", [-1, 2])
def test_switch_target_outside_the_coalitions_rejected(target):
    # numpy would wrap -1 to the last coalition's price and raise a bare IndexError at 2
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    with pytest.raises(InvalidSwitchError, match="^target coalition index out of range$"):
        evaluate_switch(part, 0, target, switch_deltas_ref(part, 0))


def test_incremental_delta_matches_full_recompute():
    rng = np.random.default_rng(2)
    for _ in range(30):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 12))
        counts = random_counts(rng, n, int(rng.integers(2, 6)))
        part = random_partition(counts, m, rng)
        client = int(rng.integers(n))
        src = int(part.assignment[client])
        if part.sizes[src] == 1:
            continue
        target = int(rng.choice([k for k in range(m) if k != src]))
        prop = priced_switch(part, client, target)
        before = partition_avg_js_ref(part.assignment, counts, m)
        after_assignment = part.assignment.copy()
        after_assignment[client] = target
        after = partition_avg_js_ref(after_assignment, counts, m)
        assert prop.delta_js == pytest.approx(after - before, abs=1e-12)


def _random_partition_case(rng, max_coalitions=6, max_classes=6):
    m = int(rng.integers(2, max_coalitions + 1))
    n = int(rng.integers(m + 1, 3 * m + 2))
    k = int(rng.integers(1, max_classes + 1))
    scheme = "shard" if rng.random() < 0.5 else "dirichlet"
    counts = random_counts(rng, n, k, scheme=scheme) if k > 1 else np.full((n, 1), 5)
    return random_partition(counts, m, rng, "M" if rng.random() < 0.5 else "pairs"), counts


def test_switch_deltas_match_full_recompute_for_every_target():
    rng = np.random.default_rng(21)
    checked = 0
    for _ in range(60):
        part, counts = _random_partition_case(rng)
        m = part.num_coalitions
        before = partition_avg_js_ref(part.assignment, counts, m, part.denominator)
        for client in range(part.n_clients):
            src = int(part.assignment[client])
            if part.sizes[src] == 1:
                with pytest.raises(InvalidSwitchError):
                    switch_deltas_ref(part, client)
                continue
            deltas = switch_deltas_ref(part, client)
            assert deltas.shape == (m,) and deltas[src] == np.inf
            for target in range(m):
                if target == src:
                    continue
                moved = part.assignment.copy()
                moved[client] = target
                after = partition_avg_js_ref(moved, counts, m, part.denominator)
                assert deltas[target] == pytest.approx(after - before, abs=1e-12)
                assert evaluate_switch(part, client, target, deltas).delta_js == deltas[target]
                checked += 1
    assert checked > 500


# -- best_switch_ref ------------------------------------------------------------

def test_best_switch_blocked_for_singleton():
    part = make_partition([0, 1, 1, 1], ONE_HOT_4, 2)
    assert best_switch_ref(part, 0) is None


def test_best_switch_finds_unique_improvement():
    part = make_partition([0, 0, 1], np.array([[1, 0], [1, 0], [0, 1]]), 2)
    prop = best_switch_ref(part, 0)
    assert prop is not None and prop.target == 1


def test_best_switch_none_when_all_moves_worse():
    part = make_partition([0, 1, 0, 1], ONE_HOT_4, 2)
    for client in range(4):
        assert best_switch_ref(part, client) is None


def test_best_switch_exhaustive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 10))
        counts = random_counts(rng, n, 4)
        part = random_partition(counts, m, rng)
        client = int(rng.integers(n))
        src = int(part.assignment[client])
        if part.sizes[src] == 1:
            assert best_switch_ref(part, client) is None
            continue
        deltas = {
            t: priced_switch(part, client, t).delta_js
            for t in range(m)
            if t != src
        }
        expected_target = min(deltas, key=lambda t: (deltas[t], t))
        got = best_switch_ref(part, client)
        if deltas[expected_target] < -1e-10:
            assert got is not None and got.target == expected_target
        else:
            assert got is None


def test_best_switch_tie_breaks_to_lowest_index():
    # coalitions 1 and 2 hold identical counts, so moving the skewed
    # client of coalition 0 into either is an exactly tied improvement
    counts = np.array([[1, 1], [3, 1], [2, 0], [0, 2], [2, 0], [0, 2]])
    part = make_partition([0, 0, 1, 1, 2, 2], counts, 3)
    deltas = [priced_switch(part, 1, t).delta_js for t in (1, 2)]
    assert deltas[0] == deltas[1]
    assert deltas[0] < -1e-10
    prop = best_switch_ref(part, 1)
    assert prop is not None and prop.target == 1


# -- formation loop ----------------------------------------------------------------

def test_run_on_stable_partition_returns_it_unchanged():
    part = make_partition([0, 1, 0, 1], ONE_HOT_4, 2)
    final, trace = run_coalition_formation(part, max_iters=200, rng_seed=0)
    assert trace.converged
    assert final.assignment.tolist() == [0, 1, 0, 1]
    assert len(accepted(trace)) == 0


def test_run_adversarial_one_hot_reaches_global_zero():
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    final, trace = run_coalition_formation(part, max_iters=500, rng_seed=7)
    assert trace.converged
    assert final.avg_js() == pytest.approx(0.0, abs=1e-12)
    sets = [frozenset(final.counts[m].tolist()) for m in range(2)]
    assert sets[0] == sets[1] == frozenset({1})  # each coalition holds one of each


def test_run_trace_monotone_and_strictly_decreasing_on_accepts():
    rng = np.random.default_rng(4)
    counts = random_counts(rng, 12, 5, scheme="shard")
    part = random_partition(counts, 3, rng)
    final, trace = run_coalition_formation(part, max_iters=3000, rng_seed=11)
    values = [entry[4] for entry in trace.entries]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    accepts = accepted(trace)
    for (_, _, _, _, js_prev), (_, _, _, _, js_next) in zip(accepts, accepts[1:]):
        assert js_next < js_prev - 1e-10 / 2
    final.validate()


def test_run_converged_partition_is_nash_stable():
    rng = np.random.default_rng(5)
    for seed in range(5):
        counts = random_counts(rng, 10, 4)
        part = random_partition(counts, 3, rng)
        final, trace = run_coalition_formation(part, max_iters=4000, rng_seed=seed)
        assert trace.converged
        assert certify_stability(final)


def test_run_requires_valid_initial_partition():
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    part.sizes[0] -= 1  # corrupt the caches
    with pytest.raises(InvalidPartitionError):
        run_coalition_formation(part, max_iters=10, rng_seed=0)


@pytest.mark.parametrize(
    "rng_seed",
    [-1, 1.5, True, False, np.bool_(True), np.float64(2.0), "3", [1], 2**64, 2**70],
    ids=repr,
)
def test_loop_rejects_a_seed_that_is_not_none_or_an_integer_at_least_0(rng_seed):
    # 2**64 and beyond used to run and leave a trace the JSON writer refused
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    words = re.escape(f"rng_seed must be an integer in [0, 2**64), got {rng_seed!r}")
    with pytest.raises(InvalidValueError, match=f"^{words}$"):
        run_coalition_formation(part, max_iters=10, rng_seed=rng_seed)


def test_loop_runs_on_the_largest_seed_and_its_trace_writes(tmp_path):
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    for seed in (2**64 - 1, np.uint64(2**64 - 1)):
        _, trace = run_coalition_formation(part, max_iters=50, rng_seed=seed)
        assert type(trace.seed) is int and trace.seed == 2**64 - 1
        write_json(tmp_path / "trace.json", fields_dict(trace))
        assert json.loads((tmp_path / "trace.json").read_text())["seed"] == 2**64 - 1


def test_loop_accepts_numpy_integer_seeds_and_none():
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    _, plain = run_coalition_formation(part, max_iters=50, rng_seed=7)
    for seed in (np.int64(7), np.uint8(7)):
        _, trace = run_coalition_formation(part, max_iters=50, rng_seed=seed)
        assert trace.entries == plain.entries
    _, trace = run_coalition_formation(part, max_iters=50, rng_seed=None)
    assert trace.converged and trace.seed is None


def test_run_is_reproducible_per_seed():
    rng = np.random.default_rng(6)
    counts = random_counts(rng, 10, 4)
    part = random_partition(counts, 3, rng)
    final_a, trace_a = run_coalition_formation(part, max_iters=2000, rng_seed=42)
    final_b, trace_b = run_coalition_formation(part, max_iters=2000, rng_seed=42)
    assert final_a.assignment.tolist() == final_b.assignment.tolist()
    assert trace_a.entries == trace_b.entries


# -- potential and the exact-potential property ---------------------------------

def potential(part):
    """The game's potential as the partition holds it."""
    return part.avg_js() * part.pair_denominator()


def test_potential_examples():
    three_counts = np.array([[1, 0], [1, 0], [0, 1]])
    for assignment, counts, m, expected in (
        ([0, 1, 0, 1], ONE_HOT_4, 2, 0.0),
        ([0, 0, 1, 1], ONE_HOT_4, 2, 1.0),
        ([0, 1, 2], three_counts, 3, 2.0),
    ):
        assert potential_ref(assignment, counts, m) == pytest.approx(expected, abs=1e-15)
        for denominator in ("M", "pairs"):
            part = make_partition(assignment, counts, m, denominator)
            assert potential(part) == pytest.approx(expected, abs=1e-15)
    assert potential(make_partition([0, 1, 0, 1], ONE_HOT_4, 2)) == 0.0


def test_exact_potential_on_random_switches():
    # a switch's price times the denominator is the change of the
    # potential recomputed from scratch, and so is the applied partition's
    rng = np.random.default_rng(7)
    checked = 0
    for case in range(200):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 12))
        counts = random_counts(rng, n, int(rng.integers(2, 6)))
        part = random_partition(counts, m, rng, "pairs" if case % 2 else "M")
        client = int(rng.integers(n))
        src = int(part.assignment[client])
        if part.sizes[src] == 1:
            continue
        target = int(rng.choice([k for k in range(m) if k != src]))
        prop = priced_switch(part, client, target)
        post = part.copy()
        post.apply(prop)
        before = potential_ref(part.assignment, counts, m)
        change = potential_ref(post.assignment, counts, m) - before
        assert prop.delta_js * part.pair_denominator() == pytest.approx(change, abs=1e-9)
        assert potential(post) - potential(part) == pytest.approx(change, abs=1e-9)
        checked += 1
    assert checked > 100


def test_accepted_switch_strictly_decreases_potential():
    rng = np.random.default_rng(8)
    counts = random_counts(rng, 10, 4, scheme="shard")
    part = random_partition(counts, 3, rng)
    improving = 0
    for client in range(10):
        prop = best_switch_ref(part, client)
        if prop is None:
            continue
        post = part.copy()
        post.apply(prop)
        before = potential_ref(part.assignment, counts, 3)
        assert potential_ref(post.assignment, counts, 3) < before - 1e-10
        improving += 1
    assert improving > 0


# -- stability certificate ---------------------------------------------------------

def test_certify_adversarial_start_unstable():
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    assert not certify_stability(part)


def test_certify_identical_singletons_stable():
    counts = np.array([[2, 2], [2, 2], [2, 2]])
    part = make_partition([0, 1, 2], counts, 3)
    assert certify_stability(part)


@pytest.mark.parametrize("block_elements", [None, 1, 40, 300])
def test_certify_matches_brute_force_oracle(monkeypatch, block_elements):
    # default blocks, and blocks of one or a few clients
    import leapsim.game

    if block_elements is not None:
        monkeypatch.setattr(leapsim.game, "KERNEL_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(22)
    verdicts, with_singletons = set(), 0
    for case in range(40):
        part, counts = _random_partition_case(rng, max_coalitions=5, max_classes=5)
        if case % 2:  # a converged partition, so both verdicts occur
            part, _ = run_coalition_formation(part, max_iters=2000, rng_seed=case)
        m = part.num_coalitions
        with_singletons += bool(np.any(np.bincount(part.assignment, minlength=m) == 1))
        expected = stable_ref(part.assignment, counts, m, denominator=part.denominator)
        assert certify_stability(part) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}
    assert with_singletons > 0

    # zero potential: answered without pricing, and stable by brute force
    for part in _zero_potential_cases():
        assert not part.js_matrix.any()
        assert certify_stability(part)
        assert stable_ref(part.assignment, part.client_counts, part.num_coalitions,
                          denominator=part.denominator)


def _zero_potential_cases():
    """Partitions whose coalitions all hold the same label mix."""
    cases = []
    for denominator in ("M", "pairs"):
        cases.append(make_partition([0, 1, 1, 0, 2, 2, 1], np.full((7, 1), 4), 3, denominator))
        cases.append(make_partition([0, 1, 0, 1], ONE_HOT_4, 2, denominator))
        cases.append(make_partition([0, 1, 2], np.full((3, 2), 2), 3, denominator))  # singletons
        counts = np.zeros((24, 3), dtype=np.int64)
        counts[np.arange(24), np.arange(24) % 3] = 5
        cases.append(make_partition((np.arange(24) // 3) % 4, counts, 4, denominator))
    return cases


def test_certify_zero_potential_without_a_memo_prices_nothing(monkeypatch):
    import leapsim.game

    def forbidden(*args, **kwargs):
        raise AssertionError("a zero-potential partition was priced")

    monkeypatch.setattr(leapsim.game, "_price_moves", forbidden)
    for part in _zero_potential_cases():
        assert certify_stability(part)
        # a memo changes nothing: no row is priced, and none is written
        known = np.full((part.n_clients, part.num_coalitions), np.nan)
        assert certify_stability(part, known=known)
        assert np.isnan(known).all()


def test_certify_spans_several_default_blocks():
    import leapsim.game

    # 600 one-hot clients over 10 labels, dealt in whole label groups:
    # every coalition holds the same uniform mix, the global optimum
    n, m, k = 600, 4, 10
    counts = np.zeros((n, k), dtype=np.int64)
    counts[np.arange(n), np.arange(n) % k] = 5
    assignment = (np.arange(n) // k) % m
    part = make_partition(assignment, counts, m)
    block = leapsim.game.KERNEL_BLOCK_ELEMENTS // ((m + 1) ** 2 * k)
    assert n > 3 * block
    assert certify_stability(part) and stable_ref(assignment, counts, m)

    # moving the last client off balance makes moving it back improving
    last = n - 1
    part.apply(priced_switch(part, last, (int(assignment[last]) + 1) % m))
    assert not certify_stability(part)
    assert not stable_ref(part.assignment, counts, m)


# -- batch pricing and the per-epoch memo ---------------------------------------------

def _movable(part):
    return np.flatnonzero(part.sizes[part.assignment] > 1)


def _pricing_cases(rng):
    """Random partitions plus fixed K=1 and M=2 ones, both denominators."""
    cases = [_random_partition_case(rng)[0] for _ in range(30)]
    for denominator in ("M", "pairs"):
        cases.append(make_partition([0, 1, 1, 0, 2, 2, 1], np.full((7, 1), 4), 3, denominator))
        counts = random_counts(rng, 9, 5)
        cases.append(random_partition(counts, 2, rng, denominator))
    return cases


def test_batch_rows_equal_single_client_pricing_bit_for_bit():
    rng = np.random.default_rng(31)
    shapes = set()
    for part in _pricing_cases(rng):
        movable = _movable(part)
        single = {int(c): switch_deltas_ref(part, int(c)) for c in movable}
        for size in range(1, movable.size + 1):
            # unsorted, non-consecutive ids; every other size as a strided view
            ids = rng.permutation(movable)[:size]
            if size % 2:
                ids = np.repeat(ids, 2)[::2]
            rows = _price_moves(part, ids)[0]
            assert rows.shape == (size, part.num_coalitions)
            for i, client in enumerate(ids):
                assert np.array_equal(rows[i], single[int(client)])
        shapes.add((part.counts.shape[1] == 1, part.num_coalitions == 2, part.denominator))
    assert {(True, False, "M"), (True, False, "pairs"), (False, True, "M"),
            (False, True, "pairs")} <= shapes


def test_batch_grid_equals_the_kernel_without_kept_sums():
    # the cached plogp and the rows' own sums stand in for the kernel's
    # input sums without moving a bit
    rng = np.random.default_rng(37)
    for part in _pricing_cases(rng):
        m = part.num_coalitions
        _, rows, grid, _ = _price_moves(part, _movable(part))
        cols = np.concatenate([np.broadcast_to(part.probs, rows[:, :m].shape), rows[:, :1]], 1)
        assert np.array_equal(grid, js_rows(rows[:, :, None, :], cols[:, None, :, :]))
        assert np.array_equal(part.js_matrix, js_rows(part.probs[:, None], part.probs[None]))


@pytest.mark.parametrize("block_elements", [None, 1])
def test_certify_with_a_partial_memo_matches_certify_without(monkeypatch, block_elements):
    import leapsim.game

    if block_elements is not None:
        monkeypatch.setattr(leapsim.game, "KERNEL_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(32)
    seen = set()
    for case in range(60):
        part, _ = _random_partition_case(rng, max_coalitions=5, max_classes=5)
        if case % 3 == 0:
            part, _ = run_coalition_formation(part, max_iters=2000, rng_seed=case)
        movable = _movable(part)
        rows = _price_moves(part, movable)[0]
        improving = set(movable[np.any(rows < -1e-10, axis=1)].tolist())
        stable = certify_stability(part)
        assert stable == (not improving)

        # a random share of the movable clients is priced; for an
        # unstable partition, either exactly one improving client is
        # inside the memo or every improving client is outside it
        inside = rng.random(movable.size) < 0.5
        if improving:
            first = movable.tolist().index(min(improving))
            is_improving = np.isin(movable, list(improving))
            inside &= ~is_improving
            if case % 2:
                inside[first] = True
        known = np.full((part.n_clients, part.num_coalitions), np.nan)
        known[movable[inside]] = rows[inside]
        assert certify_stability(part, known=known) == stable

        # every row the check priced stays in the memo, equal to the
        # rows of one _price_moves call on the same partition
        priced = np.flatnonzero(~np.isnan(known[:, 0]))
        assert set(priced.tolist()) <= set(movable.tolist())
        assert np.array_equal(known[priced], rows[np.searchsorted(movable, priced)])
        if stable and not part.js_matrix.any():  # zero potential: the memo is untouched
            assert priced.tolist() == movable[inside].tolist()
        elif stable:
            assert priced.tolist() == movable.tolist()
        else:  # an improving row is kept, whether it was known or priced
            assert np.any(known[priced] < -1e-10)
        seen.add("stable" if stable else "inside" if case % 2 else "outside")
    assert seen == {"stable", "inside", "outside"}


def test_loop_rejects_fewer_than_one_iteration():
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    for max_iters in (0, -5):
        with pytest.raises(InvalidValueError, match="max_iters"):
            run_coalition_formation(part, max_iters=max_iters)


@pytest.mark.parametrize("max_iters", [2.5, 3.0, True, np.float64(4.0), "10", None])
def test_loop_rejects_a_non_integer_iteration_budget(max_iters):
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    with pytest.raises(InvalidValueError, match="max_iters must be an integer"):
        run_coalition_formation(part, max_iters=max_iters)


def test_loop_accepts_numpy_integer_budgets():
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    _, plain = run_coalition_formation(part, max_iters=3, rng_seed=1)
    for max_iters in (np.int64(3), np.int32(3), np.uint8(3)):
        _, trace = run_coalition_formation(part, max_iters=max_iters, rng_seed=1)
        assert trace.entries == plain.entries and trace.iterations_used == 3


@pytest.mark.parametrize(
    "known",
    [np.full((3, 2), np.nan), np.full((5, 3), np.nan), np.full(5, np.nan),
     np.full((5, 2), -1, dtype=np.int64), [[np.nan] * 2] * 5],
    ids=["short", "wide", "1-D", "int", "list"],
)
def test_certify_rejects_a_memo_of_the_wrong_shape_or_type(known):
    part = make_partition([0, 0, 1, 1, 0], np.eye(5, 2, dtype=np.int64) + 1, 2)
    words = f"known must be a float array of shape (5, 2), got {described(known)}"
    with pytest.raises(InvalidValueError, match=re.escape(words) + "$"):
        certify_stability(part, known=known)


def _replay_facts(initial, entries, window):
    """Singleton-source samples, and windows of held draws that repeat a client."""
    assignment = initial.assignment.copy()
    singles = 0
    for _, client, src, target, _ in entries:
        singles += int(np.count_nonzero(assignment == src) == 1)
        if target is not None:
            assignment[client] = target
    clients = [e[1] for e in entries]
    repeats = sum(
        len(set(clients[i:i + window])) < len(clients[i:i + window])
        for i in range(len(clients))
    )
    return singles, repeats


def _settled_samples(initial, entries):
    """Samples taken on a partition with zero potential (avg JS exactly 0)."""
    values = [initial.avg_js()] + [entry[4] for entry in entries]
    return sum(before == 0.0 for before in values[:-1])


def _balanced_case(rng, denominator):
    """One-hot clients in whole label groups: a zero-potential partition exists."""
    m, k = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    n = m * k * int(rng.integers(1, 3))
    counts = np.zeros((n, k), dtype=np.int64)
    counts[np.arange(n), np.arange(n) % k] = 3
    return random_partition(counts, m, rng, denominator)


def _mirrored_case(rng, denominator):
    """Coalitions 1 .. M-1 hold equal one-hot label counts, coalition 0 others.

    A client of coalition 0 prices every mirrored coalition with the same
    inputs, so its deltas tie exactly between them.
    """
    m, k = int(rng.integers(3, 6)), int(rng.integers(2, 4))
    own = rng.integers(k, size=int(rng.integers(3, 8)))
    mirrored = rng.integers(k, size=int(rng.integers(1, 4)))
    labels = np.concatenate([own, np.tile(mirrored, m - 1)])
    assignment = np.repeat(np.arange(m), [len(own)] + [len(mirrored)] * (m - 1))
    counts = np.zeros((len(labels), k), dtype=np.int64)
    counts[np.arange(len(labels)), labels] = 3
    return Partition(assignment, counts, m, denominator)


def _tied_accepts(initial, entries):
    """Accepted samples whose smallest delta is shared by two or more targets."""
    part = initial.copy()
    tied = 0
    for _, client, _, target, _ in entries:
        if target is not None:
            deltas = switch_deltas_ref(part, client)
            tied += int(np.count_nonzero(deltas == deltas.min()) > 1)
            part.apply(evaluate_switch(part, client, target, deltas))
    return tied


def test_loop_breaks_exact_ties_like_the_reference():
    """A delta tied exactly between targets goes to the first minimum.

    The loop decides from its memo row; ``best_switch_ref``, which the
    reference calls, takes ``argmin`` of the same row.  Mirrored
    coalitions make many accepted switches tie exactly, so a loop that
    took another tied target would leave the reference's trace.
    """
    rng = np.random.default_rng(37)
    tied = 0
    for case in range(40):
        start = _mirrored_case(rng, "pairs" if case % 2 else "M")
        seed = int(rng.integers(2**31))
        final, trace = run_coalition_formation(start, max_iters=3000, rng_seed=seed)
        ref_assignment, entries, used, converged, _ = coalition_formation_ref(start, 3000, seed)
        assert trace.entries == entries
        assert np.array_equal(final.assignment, ref_assignment)
        assert (trace.iterations_used, trace.converged) == (used, converged)
        tied += _tied_accepts(start, entries)
    assert tied >= 10


def test_batched_loop_matches_the_one_sample_reference_exactly():
    rng = np.random.default_rng(33)
    facts = dict(singles=0, repeats=0, two=0, pairs=0, cut=0, failed=0, settled=0)
    cases = []
    for case in range(60):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m, 4 * m + 2))
        k = int(rng.integers(1, 6))
        counts = random_counts(rng, n, k) if k > 1 else np.full((n, 1), 3)
        denominator = "pairs" if case % 2 else "M"
        start = random_partition(counts, m, rng, denominator)
        max_iters = int(rng.integers(1, 120)) if case % 3 == 0 else 3000
        cases.append((start, max_iters, int(rng.integers(2**31))))
    for case in range(10):
        start = _balanced_case(rng, "pairs" if case % 2 else "M")
        cases.append((start, 3000, int(rng.integers(2**31))))

    for start, max_iters, seed in cases:
        final, trace = run_coalition_formation(start, max_iters=max_iters, rng_seed=seed)
        ref_assignment, entries, used, converged, failed = coalition_formation_ref(
            start, max_iters, seed
        )
        assert trace.entries == entries
        assert np.array_equal(final.assignment, ref_assignment)
        assert trace.iterations_used == used
        assert trace.converged == converged

        singles, repeats = _replay_facts(start, entries, LOOKAHEAD_DRAWS)
        facts["singles"] += singles
        facts["repeats"] += repeats
        facts["two"] += start.num_coalitions == 2
        facts["pairs"] += start.denominator == "pairs"
        facts["cut"] += used == max_iters and used % LOOKAHEAD_DRAWS != 0
        facts["failed"] += failed
        # cases that reach zero potential and keep sampling before they stop
        facts["settled"] += _settled_samples(start, entries) > 0
    assert all(count > 0 for count in facts.values()), facts


@pytest.mark.parametrize("n", [1, 7, 40, 120, 3 * 2**30])
def test_block_draws_are_the_stream_of_scalar_draws(n):
    # odd and even blocks, and blocks that straddle the loop's block size;
    # 3 * 2**30 rejects about a third of the raw 32-bit draws
    sizes = [1, 2, 3, 8, 5, DRAW_BLOCK - 1, DRAW_BLOCK, DRAW_BLOCK + 1, 2 * DRAW_BLOCK, 7]
    for seed in (0, 5, 2024):
        blocks, scalars = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = [v for size in sizes for v in blocks.integers(n, size=size).tolist()]
        assert drawn == [int(scalars.integers(n)) for _ in drawn]
        assert blocks.integers(2**62) == scalars.integers(2**62)  # same state after


@pytest.mark.parametrize("block", [1, 3, LOOKAHEAD_DRAWS, 9, None])
def test_batched_loop_matches_the_reference_across_draw_blocks(monkeypatch, block):
    """Every draw block size gives the reference's games and the same batches.

    A block of 1 is one draw per sample; every other block must hold the
    same draws ahead, so each epoch prices the same clients in the same
    batches.  Each game runs to convergence and again under a budget
    that ends inside a block, past the first one.
    """
    import leapsim.game

    def recording(partition, clients):
        batches.append(clients.tolist())
        return real(partition, clients)

    def run(draw_block, start, max_iters, seed):
        batches.clear()
        monkeypatch.setattr(leapsim.game, "DRAW_BLOCK", draw_block)
        return (*run_coalition_formation(start, max_iters=max_iters, rng_seed=seed), [*batches])

    real, batches = leapsim.game._price_moves, []
    monkeypatch.setattr(leapsim.game, "_price_moves", recording)
    size = DRAW_BLOCK if block is None else block
    rng = np.random.default_rng(36)
    spans = []
    for case in range(12):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(12 * m, 20 * m))
        counts = random_counts(rng, n, int(rng.integers(2, 6)))
        start = random_partition(counts, m, rng, "pairs" if case % 2 else "M")
        seed = int(rng.integers(2**31))
        full = run(1, start, 3000, seed)[1].iterations_used
        budgets = [3000]
        cut = full - 1 - ((full - 1) % size == 0)  # not a whole number of blocks
        if cut > size:
            budgets.append(cut)
        for max_iters in budgets:
            final, trace, priced = run(size, start, max_iters, seed)
            assert priced == run(1, start, max_iters, seed)[2]
            ref_assignment, entries, used, converged, _ = coalition_formation_ref(
                start, max_iters, seed
            )
            assert trace.entries == entries
            assert np.array_equal(final.assignment, ref_assignment)
            assert (trace.iterations_used, trace.converged) == (used, converged)
        spans.append((full // size, len(budgets)))
    assert sum(blocks >= 2 for blocks, _ in spans) >= 6
    assert sum(games == 2 for _, games in spans) >= 6


@pytest.mark.parametrize("m, k, n, width", [(40, 10, 90, 1), (20, 10, 50, 3), (5, 50, 40, 8)],
                         ids=["M40-K10", "M20-K10", "M5-K50"])
def test_loop_batches_stay_inside_the_kernel_element_budget(monkeypatch, m, k, n, width):
    """A lookahead batch of B clients holds a grid of B * (M+1)^2 * K
    elements, within KERNEL_BLOCK_ELEMENTS unless B is 1.

    At M=40, K=10 one client's grid is past the budget and the loop prices
    one client per call; at M=20, K=10 the budget holds 3; at M=5, K=50
    it holds 9, and LOOKAHEAD_DRAWS bounds the batch at 8.  Certification
    blocks keep the same budget.  Each game is the reference's.
    """
    import leapsim.game

    budget, cells = leapsim.game.KERNEL_BLOCK_ELEMENTS, (m + 1) ** 2 * k
    assert width == min(LOOKAHEAD_DRAWS, max(1, budget // cells))

    def recording(partition, clients):
        batches.append((certifying, len(clients)))
        return real_price(partition, clients)

    def certify(partition, known=None):
        nonlocal certifying
        certifying = True
        try:
            return real_certify(partition, known)
        finally:
            certifying = False

    real_price, real_certify = leapsim.game._price_moves, leapsim.game.certify_stability
    batches, certifying = [], False
    monkeypatch.setattr(leapsim.game, "_price_moves", recording)
    monkeypatch.setattr(leapsim.game, "certify_stability", certify)
    rng = np.random.default_rng(39)
    for case in range(2):
        batches.clear()
        start = random_partition(random_counts(rng, n, k), m, rng, "pairs" if case else "M")
        seed = int(rng.integers(2**31))
        final, trace = run_coalition_formation(start, max_iters=3000, rng_seed=seed)
        priced = [*batches]  # the reference prices through _price_moves too
        ref_assignment, entries, used, converged, _ = coalition_formation_ref(start, 3000, seed)
        assert trace.entries == entries
        assert np.array_equal(final.assignment, ref_assignment)
        assert (trace.iterations_used, trace.converged) == (used, converged)

        assert all(size == 1 or size * cells <= budget for _, size in priced), priced
        assert any(certified for certified, _ in priced)
        # the widest lookahead batch fills the window
        assert max(size for certified, size in priced if not certified) == width, priced
        # a window wider than one sample holds repeated clients, which join once
        _, repeats = _replay_facts(start, entries, width)
        assert (repeats > 0) == (width > 1)


# -- applying a switch from its priced rows ---------------------------------------

STATE = ("assignment", "sizes", "counts", "probs", "plogp", "js_matrix")


def _state(part):
    return {name: getattr(part, name).tobytes() for name in STATE}


def _priced(part, clients):
    """Each listed client's (rows, grid, sums) slice of one _price_moves batch."""
    _, rows, grid, sums = _price_moves(part, np.asarray(clients))
    return {int(c): (rows[i], grid[i], sums[i]) for i, c in enumerate(clients)}


def _rebuilt(part):
    return Partition(part.assignment, part.client_counts, part.num_coalitions, part.denominator)


def test_priced_apply_equals_recomputing_apply_bit_for_bit():
    """Every cache after an apply has the bits of a fresh rebuild.

    Each case takes a walk of random switches.  Each switch is applied
    from the rows of a batch that priced the client, and also without
    rows (apply prices the client itself); after each, both partitions'
    caches must equal a ``Partition`` built from scratch on the new
    assignment.
    """
    rng = np.random.default_rng(34)
    cases = _pricing_cases(rng)
    for denominator in ("M", "pairs"):  # singleton coalitions beside movable clients
        cases.append(make_partition([0, 1, 2, 2, 3, 2], random_counts(rng, 6, 3), 4, denominator))
        # rows of K >= 8 are summed pairwise, so their kept sums meet numpy's blocking
        cases.append(random_partition(random_counts(rng, 12, 50, size=200), 4, rng, denominator))
    moves, shapes = 0, set()
    for part in cases:
        shapes.add((part.counts.shape[1] == 1, part.num_coalitions == 2,
                    bool(np.any(part.sizes == 1)), part.denominator))
        unpriced = part.copy()
        for _ in range(40):
            movable = _movable(part)
            if part.num_coalitions < 2 or movable.size == 0:
                break
            client = int(rng.choice(movable))
            target = int(rng.choice(np.delete(np.arange(part.num_coalitions),
                                              part.assignment[client])))
            # the client's slice of a batch of every movable client, in random order
            priced = _priced(part, rng.permutation(movable))[client]
            part.apply(priced_switch(part, client, target), priced)
            unpriced.apply(priced_switch(unpriced, client, target))
            fresh = _rebuilt(part)
            for name in STATE:
                assert np.array_equal(getattr(part, name), getattr(fresh, name)), name
                assert np.array_equal(getattr(unpriced, name), getattr(fresh, name)), name
            moves += 1
    assert moves > 500
    assert {(True, False, False, "M"), (False, True, False, "pairs"),
            (False, False, True, "M"), (False, False, True, "pairs")} <= shapes


def test_priced_apply_rejects_inadmissible_or_misshapen_input_untouched():
    part = make_partition([0, 0, 1, 1, 2, 0], np.eye(6, 3, dtype=np.int64) + 1, 3)
    priced = _priced(part, [0, 1, 5])
    before = _state(part)
    stale = SwitchProposal(client=0, source=1, target=2, delta_js=0.0)
    same = SwitchProposal(client=0, source=0, target=0, delta_js=0.0)
    emptying = SwitchProposal(client=4, source=2, target=0, delta_js=0.0)
    # an index past M, or a negative one numpy would wrap, must not reach the caches
    outside = [SwitchProposal(client=0, source=0, target=t, delta_js=0.0) for t in (3, -1)]
    for proposal in (stale, same, emptying, *outside):
        with pytest.raises(InvalidSwitchError):
            part.apply(proposal, priced.get(proposal.client, priced[0]))
        assert _state(part) == before
    rows, grid, sums = priced[0]
    good = priced_switch(part, 0, 1)
    for bad in (
        (rows[:-1], grid, sums), (rows, grid[:, :-1], sums), (rows[..., None], grid, sums),
        (rows, grid.T[0], sums), (rows, grid, sums[:-1]), (rows, grid, sums[:, None]),
    ):
        with pytest.raises(InvalidValueError, match="priced rows and grid must have shapes"):
            part.apply(good, bad)
        assert _state(part) == before


# -- the names perfbench's tracer wraps ---------------------------------------------

def test_loop_calls_through_module_bindings(monkeypatch):
    """Loop calls go through ``leapsim.game``'s globals and ``Partition.apply``.

    The benchmark's tracer wraps ``evaluate_switch``, ``certify_stability``
    and the ``Partition.apply`` class attribute, and checks one apply
    per accepted switch; a refactor that binds or inlines them elsewhere
    fails here.
    """
    import leapsim.game

    calls = dict(evaluate_switch=0, certify_stability=0, _price_moves=0, apply=0)
    for name in ("evaluate_switch", "certify_stability", "_price_moves"):
        real = getattr(leapsim.game, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(leapsim.game, name, counted)
    real_apply = Partition.apply

    def counted_apply(self, *args, **kwargs):
        calls["apply"] += 1
        return real_apply(self, *args, **kwargs)

    monkeypatch.setattr(Partition, "apply", counted_apply)

    rng = np.random.default_rng(35)
    unsettled = 0
    for case in range(16):
        start, _ = _random_partition_case(rng)
        if case % 4 == 0:
            start = _balanced_case(rng, start.denominator)
        max_iters = 40 if case % 3 == 0 else 3000
        for name in calls:
            calls[name] = 0
        _, trace = run_coalition_formation(start, max_iters=max_iters, rng_seed=case)
        seen = dict(calls)  # the reference below calls through the same names
        _, entries, _, _, failed = coalition_formation_ref(start, max_iters, case)
        assert seen["apply"] == len(accepted(trace)), "one Partition.apply per accepted switch"
        assert seen["certify_stability"] == failed + 1, "one certify per convergence check"
        # game.switches_priced: the loop decides from its memo row and
        # builds a proposal only for the switch it applies
        assert seen["evaluate_switch"] == len(accepted(trace)), "one proposal per accepted switch"
        unsettled += seen["evaluate_switch"] > 0
    assert unsettled >= 6

    # a settled game records every sample without pricing one
    part = make_partition([0, 1, 1, 0, 2, 2, 1], np.full((7, 1), 4), 3)
    for name in calls:
        calls[name] = 0
    _, trace = run_coalition_formation(part, max_iters=100, rng_seed=0)
    assert trace.converged and len(trace.entries) == 7
    assert calls == dict(evaluate_switch=0, certify_stability=1, _price_moves=0, apply=0)


# -- the epoch's memo: prices for every client, kernel arrays for the last batch ---------

# the scenario shapes of the benchmark's game workloads
GAME_SHARDS = dict(n_clients=120, n_edges=8, n_classes=10, shards=2)
GAME_DIRICHLET = dict(n_clients=40, n_edges=5, n_classes=50, shards=None, dirichlet_alpha=0.3)


def game_start(seed, **shape):
    """A random start partition of a scenario of ``shape`` drawn from ``seed``."""
    scenario = generate_scenario(seed=seed, **shape)
    return random_partition(
        label_count_matrix(scenario), scenario.num_edges, np.random.default_rng(seed)
    )


# (shape, switches a failed certificate priced over seeds 1-10)
@pytest.mark.parametrize("shape, self_priced", [(GAME_SHARDS, 0), (GAME_DIRICHLET, 11)],
                         ids=["shards", "dirichlet"])
def test_apply_prices_a_switch_itself_only_after_a_failed_certificate_priced_it(
    monkeypatch, shape, self_priced
):
    """The loop keeps the kernel arrays of its last batch only.  A batch's
    members are decided before the next batch is priced, so every
    accepted switch is applied from the last batch's arrays, unless a
    failed ``certify_stability`` wrote the client's row in this epoch:
    only then does ``Partition.apply`` get no arrays and price it."""
    import leapsim.game

    written = set()  # clients whose rows a failed certificate wrote this epoch
    applied = {"from_batch": 0, "self_priced": 0}
    real_certify, real_apply = leapsim.game.certify_stability, Partition.apply

    def recording_certify(partition, known):
        unpriced = np.isnan(known[:, 0])
        stable = real_certify(partition, known)
        if not stable:
            written.update(np.flatnonzero(unpriced & ~np.isnan(known[:, 0])).tolist())
        return stable

    def recording_apply(self, proposal, priced=None):
        if priced is None:
            assert proposal.client in written, "a batch-priced switch was priced again"
            applied["self_priced"] += 1
        else:
            applied["from_batch"] += 1
        written.clear()  # the next epoch prices every row afresh
        return real_apply(self, proposal, priced)

    monkeypatch.setattr(leapsim.game, "certify_stability", recording_certify)
    monkeypatch.setattr(Partition, "apply", recording_apply)
    for seed in range(1, 11):
        start = game_start(seed, **shape)
        written.clear()
        partition, trace = run_coalition_formation(start, max_iters=200 * start.n_clients,
                                                   rng_seed=seed)
        assert trace.converged
        partition.validate()
    assert applied["self_priced"] == self_priced and applied["from_batch"] > 300


def test_a_large_m_game_keeps_no_kernel_arrays_past_its_last_batch():
    """At N=600, M=40 (the large-M pin's 3-shard shape) a game's
    tracemalloc peak stays below 2 MB; keeping every batch-priced
    client's kernel arrays for the epoch took it to ~7.4 MB."""
    scenario = generate_scenario(seed=7, n_clients=600, n_edges=40, n_classes=10, shards=3)
    start = random_partition(label_count_matrix(scenario), 40, np.random.default_rng(1))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, trace = run_coalition_formation(start, max_iters=200 * 600, rng_seed=2)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert trace.converged and trace.iterations_used > 1000
    assert peak < 2_000_000, peak



def test_trace_csv_roundtrip_row_count(tmp_path):
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    _, trace = run_coalition_formation(part, max_iters=300, rng_seed=3)
    path = tmp_path / "trace.csv"
    write_game_trace(path, trace.entries)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# schema=")
    assert lines[1] == "iteration,client,from,to,avg_js"
    assert len(lines) - 2 == len(trace.entries)
