import numpy as np
import pytest

from leapsim.errors import InvalidValueError
from leapsim.game import (
    LOOKAHEAD_DRAWS,
    InvalidPartitionError,
    InvalidSwitchError,
    Partition,
    _price_moves,
    best_switch,
    certify_stability,
    evaluate_switch,
    potential,
    random_partition,
    run_coalition_formation,
    switch_deltas,
    verify_exact_potential,
)

from leapsim.experiment import write_game_trace

from oracles import coalition_formation_ref, partition_avg_js_ref, random_counts, stable_ref

ONE_HOT_4 = np.array([[1, 0], [1, 0], [0, 1], [0, 1]], dtype=np.int64)


def make_partition(assignment, counts, m, denominator="M"):
    return Partition(np.asarray(assignment), np.asarray(counts), m, denominator)


# -- partition construction and invariants -----------------------------------

def test_partition_rejects_empty_coalition():
    with pytest.raises(InvalidPartitionError):
        make_partition([0, 0, 0], np.eye(3, dtype=np.int64), 2)


def test_partition_rejects_out_of_range_assignment():
    with pytest.raises(InvalidPartitionError):
        make_partition([0, 3], np.eye(2, dtype=np.int64), 2)


@pytest.mark.parametrize("denominator", ["bogus", "m", "", 7, None])
def test_partition_rejects_an_unknown_denominator(denominator):
    with pytest.raises(InvalidPartitionError, match="denominator must be 'M' or 'pairs'"):
        make_partition([0, 0, 1, 1], ONE_HOT_4, 2, denominator)
    with pytest.raises(InvalidPartitionError):
        random_partition(ONE_HOT_4, 2, np.random.default_rng(0), denominator)


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
    assert best_switch(part, 0) is None
    with pytest.raises(InvalidSwitchError):
        switch_deltas(part, 0)


def test_partition_copy_is_independent():
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    clone = part.copy()
    prop = evaluate_switch(clone, 0, 1)
    clone.apply(prop)
    assert part.assignment.tolist() == [0, 0, 1, 1]
    part.validate()
    clone.validate()


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
        part.apply(evaluate_switch(part, client, target))
        part.validate()  # cached distributions and JS matrix vs rebuild


# -- evaluate_switch -----------------------------------------------------------

def test_switch_into_opposite_coalition_improves():
    # two same-label clients together, loner apart: moving one of them
    # over equalizes both coalitions
    part = make_partition([0, 0, 1], np.array([[1, 0], [1, 0], [0, 1]]), 2)
    prop = evaluate_switch(part, 0, 1)
    assert prop.delta_js < 0


def test_switch_indifferent_client_changes_nothing():
    # client matches both coalition distributions exactly
    counts = np.array([[1, 1], [1, 1], [1, 1], [1, 1]])
    part = make_partition([0, 0, 1, 1], counts, 2)
    prop = evaluate_switch(part, 0, 1)
    assert prop.delta_js == pytest.approx(0.0, abs=1e-12)


def test_switch_between_identical_balanced_coalitions_does_not_improve():
    part = make_partition([0, 1, 0, 1], ONE_HOT_4, 2)  # both coalitions {e0, e1}
    for client in range(4):
        src = int(part.assignment[client])
        prop = evaluate_switch(part, client, 1 - src)
        assert prop.delta_js >= -1e-15


def test_switch_same_target_rejected():
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    with pytest.raises(InvalidSwitchError):
        evaluate_switch(part, 0, 0)


def test_switch_emptying_source_rejected():
    part = make_partition([0, 1, 1, 1], ONE_HOT_4, 2)
    with pytest.raises(InvalidSwitchError):
        evaluate_switch(part, 0, 1)


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
        prop = evaluate_switch(part, client, target)
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
                    switch_deltas(part, client)
                continue
            deltas = switch_deltas(part, client)
            assert deltas.shape == (m,) and deltas[src] == np.inf
            for target in range(m):
                if target == src:
                    continue
                moved = part.assignment.copy()
                moved[client] = target
                after = partition_avg_js_ref(moved, counts, m, part.denominator)
                assert deltas[target] == pytest.approx(after - before, abs=1e-12)
                assert evaluate_switch(part, client, target).delta_js == deltas[target]
                checked += 1
    assert checked > 500


# -- best_switch ----------------------------------------------------------------

def test_best_switch_blocked_for_singleton():
    part = make_partition([0, 1, 1, 1], ONE_HOT_4, 2)
    assert best_switch(part, 0) is None


def test_best_switch_finds_unique_improvement():
    part = make_partition([0, 0, 1], np.array([[1, 0], [1, 0], [0, 1]]), 2)
    prop = best_switch(part, 0)
    assert prop is not None and prop.target == 1


def test_best_switch_none_when_all_moves_worse():
    part = make_partition([0, 1, 0, 1], ONE_HOT_4, 2)
    for client in range(4):
        assert best_switch(part, client) is None


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
            assert best_switch(part, client) is None
            continue
        deltas = {
            t: evaluate_switch(part, client, t).delta_js
            for t in range(m)
            if t != src
        }
        expected_target = min(deltas, key=lambda t: (deltas[t], t))
        got = best_switch(part, client)
        if deltas[expected_target] < -1e-10:
            assert got is not None and got.target == expected_target
        else:
            assert got is None


def test_best_switch_tie_breaks_to_lowest_index():
    # coalitions 1 and 2 hold identical counts, so moving the skewed
    # client of coalition 0 into either is an exactly tied improvement
    counts = np.array([[1, 1], [3, 1], [2, 0], [0, 2], [2, 0], [0, 2]])
    part = make_partition([0, 0, 1, 1, 2, 2], counts, 3)
    deltas = [evaluate_switch(part, 1, t).delta_js for t in (1, 2)]
    assert deltas[0] == deltas[1]
    assert deltas[0] < -1e-10
    prop = best_switch(part, 1)
    assert prop is not None and prop.target == 1


# -- formation loop ----------------------------------------------------------------

def test_run_on_stable_partition_returns_it_unchanged():
    part = make_partition([0, 1, 0, 1], ONE_HOT_4, 2)
    final, trace = run_coalition_formation(part, max_iters=200, rng_seed=0)
    assert trace.converged
    assert final.assignment.tolist() == [0, 1, 0, 1]
    assert len(trace.accepted()) == 0


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
    accepted = trace.accepted()
    for (_, _, _, _, js_prev), (_, _, _, _, js_next) in zip(accepted, accepted[1:]):
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


def test_run_is_reproducible_per_seed():
    rng = np.random.default_rng(6)
    counts = random_counts(rng, 10, 4)
    part = random_partition(counts, 3, rng)
    final_a, trace_a = run_coalition_formation(part, max_iters=2000, rng_seed=42)
    final_b, trace_b = run_coalition_formation(part, max_iters=2000, rng_seed=42)
    assert final_a.assignment.tolist() == final_b.assignment.tolist()
    assert trace_a.entries == trace_b.entries


# -- potential and the exact-potential property ---------------------------------

def test_potential_examples():
    identical = make_partition([0, 1, 0, 1], ONE_HOT_4, 2)
    assert potential(identical) == 0.0
    split = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    assert potential(split) == pytest.approx(1.0, abs=1e-15)
    three = make_partition(
        [0, 1, 2], np.array([[1, 0], [1, 0], [0, 1]]), 3
    )
    assert potential(three) == pytest.approx(2.0, abs=1e-15)


def test_exact_potential_on_random_switches():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 12))
        counts = random_counts(rng, n, int(rng.integers(2, 6)))
        part = random_partition(counts, m, rng)
        client = int(rng.integers(n))
        src = int(part.assignment[client])
        if part.sizes[src] == 1:
            continue
        target = int(rng.choice([k for k in range(m) if k != src]))
        prop = evaluate_switch(part, client, target)
        assert verify_exact_potential(part, prop, tol=1e-9)


def test_accepted_switch_strictly_decreases_potential():
    rng = np.random.default_rng(8)
    counts = random_counts(rng, 10, 4, scheme="shard")
    part = random_partition(counts, 3, rng)
    for client in range(10):
        prop = best_switch(part, client)
        if prop is None:
            continue
        before = potential(part)
        post = part.copy()
        post.apply(prop)
        assert potential(post) < before - 1e-10


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
        monkeypatch.setattr(leapsim.game, "CERTIFY_BLOCK_ELEMENTS", block_elements)
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


def test_certify_spans_several_default_blocks():
    import leapsim.game

    # 600 one-hot clients over 10 labels, dealt in whole label groups:
    # every coalition holds the same uniform mix, the global optimum
    n, m, k = 600, 4, 10
    counts = np.zeros((n, k), dtype=np.int64)
    counts[np.arange(n), np.arange(n) % k] = 5
    assignment = (np.arange(n) // k) % m
    part = make_partition(assignment, counts, m)
    block = leapsim.game.CERTIFY_BLOCK_ELEMENTS // ((m + 1) ** 2 * k)
    assert n > 3 * block
    assert certify_stability(part) and stable_ref(assignment, counts, m)

    # moving the last client off balance makes moving it back improving
    last = n - 1
    part.apply(evaluate_switch(part, last, (int(assignment[last]) + 1) % m))
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
        single = {int(c): switch_deltas(part, int(c)) for c in movable}
        for size in range(1, movable.size + 1):
            # unsorted, non-consecutive ids; every other size as a strided view
            ids = rng.permutation(movable)[:size]
            if size % 2:
                ids = np.repeat(ids, 2)[::2]
            rows = _price_moves(part, ids)
            assert rows.shape == (size, part.num_coalitions)
            for i, client in enumerate(ids):
                assert np.array_equal(rows[i], single[int(client)])
        shapes.add((part.counts.shape[1] == 1, part.num_coalitions == 2, part.denominator))
    assert {(True, False, "M"), (True, False, "pairs"), (False, True, "M"),
            (False, True, "pairs")} <= shapes


@pytest.mark.parametrize("block_elements", [None, 1])
def test_certify_with_a_partial_memo_matches_certify_without(monkeypatch, block_elements):
    import leapsim.game

    if block_elements is not None:
        monkeypatch.setattr(leapsim.game, "CERTIFY_BLOCK_ELEMENTS", block_elements)
    rng = np.random.default_rng(32)
    seen = set()
    for case in range(60):
        part, _ = _random_partition_case(rng, max_coalitions=5, max_classes=5)
        if case % 3 == 0:
            part, _ = run_coalition_formation(part, max_iters=2000, rng_seed=case)
        movable = _movable(part)
        rows = _price_moves(part, movable)
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
        if stable:
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


def test_batched_loop_matches_the_one_sample_reference_exactly():
    rng = np.random.default_rng(33)
    facts = dict(singles=0, repeats=0, two=0, pairs=0, cut=0, failed=0)
    for case in range(60):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m, 4 * m + 2))
        k = int(rng.integers(1, 6))
        counts = random_counts(rng, n, k) if k > 1 else np.full((n, 1), 3)
        denominator = "pairs" if case % 2 else "M"
        start = random_partition(counts, m, rng, denominator)
        max_iters = int(rng.integers(1, 120)) if case % 3 == 0 else 3000
        seed = int(rng.integers(2**31))

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
        facts["two"] += m == 2
        facts["pairs"] += denominator == "pairs"
        facts["cut"] += used == max_iters and used % LOOKAHEAD_DRAWS != 0
        facts["failed"] += failed
    assert all(count > 0 for count in facts.values()), facts


# -- trace serialization ------------------------------------------------------------

def test_trace_csv_roundtrip_row_count(tmp_path):
    part = make_partition([0, 0, 1, 1], ONE_HOT_4, 2)
    _, trace = run_coalition_formation(part, max_iters=300, rng_seed=3)
    path = tmp_path / "trace.csv"
    write_game_trace(path, trace.entries)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# schema=")
    assert lines[1] == "iteration,client,from,to,avg_js"
    assert len(lines) - 2 == len(trace.entries)
