import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leapsim.dist import EmptyDistributionError, js_divergence, js_rows
from leapsim.game import InvalidPartitionError, Partition, random_partition, switch_deltas

from oracles import js_ref, js_rows_ratio_ref, kl_ref, partition_avg_js_ref, random_counts


def coalition(*member_counts):
    """A one-coalition partition whose members hold the given label counts."""
    counts = np.asarray(member_counts, dtype=np.int64)
    return Partition(np.zeros(len(counts), dtype=np.int64), counts, 1)


def one_per_coalition(*counts, denominator="M"):
    """A partition with one client per coalition, holding the given counts."""
    counts = np.asarray(counts, dtype=np.int64)
    return Partition(np.arange(len(counts)), counts, len(counts), denominator)


# -- coalition histograms: Partition normalizes exact label counts ------------

def test_from_counts_normalizes():
    part = coalition([30, 10])
    assert np.allclose(part.probs, [[0.75, 0.25]])
    assert part.counts.tolist() == [[30, 10]]


def test_from_counts_zero_total_is_empty_and_unusable():
    # client 0 leaving coalition 0 would leave it holding no labels: the
    # switch cannot be priced, and no empty histogram reaches the kernel
    part = Partition(np.array([0, 0, 1]), np.array([[1, 0], [0, 0], [0, 1]]), 2)
    with pytest.raises(EmptyDistributionError):
        switch_deltas(part, 0)


def test_coalition_single_member():
    assert np.allclose(coalition([10, 0]).probs, [[1.0, 0.0]])


def test_coalition_two_equal_one_hot():
    assert np.allclose(coalition([1, 0], [0, 1]).probs, [[0.5, 0.5]])


def test_coalition_count_weighting():
    part = coalition([30, 10], [10, 30])
    assert np.allclose(part.probs, [[0.5, 0.5]])
    assert part.counts.tolist() == [[40, 40]]


def test_coalition_order_invariant():
    rng = np.random.default_rng(2)
    rows = [rng.integers(1, 20, size=6) for _ in range(5)]
    a = coalition(*rows)
    b = coalition(*rows[::-1])
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.probs, b.probs)


def test_coalition_equal_sizes_reduce_to_uniform_average():
    rows = [[4, 6, 0], [2, 2, 6], [10, 0, 0]]
    uniform = np.mean([np.asarray(r) / 10 for r in rows], axis=0)
    assert np.allclose(coalition(*rows).probs[0], uniform, atol=1e-15)


def test_coalition_empty_member_set():
    with pytest.raises(InvalidPartitionError):
        Partition(np.zeros(0, dtype=np.int64), np.zeros((0, 3), dtype=np.int64), 1)


# -- the KL reference that js_ref is built on ----------------------------------

def test_kl_identical_is_zero():
    assert kl_ref([0.5, 0.5], [0.5, 0.5]) == 0.0


def test_kl_point_mass_vs_mean():
    # direct evaluation of the summation: log2(1 / 0.75) = log2(4/3)
    assert kl_ref([1.0, 0.0], [0.75, 0.25]) == pytest.approx(0.41503749927884376, abs=1e-15)


def test_kl_half_half_vs_skewed():
    # 0.5*log2(2/3) + 0.5*log2(2)
    assert kl_ref([0.5, 0.5], [0.75, 0.25]) == pytest.approx(0.20751874963942185, abs=1e-15)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4)) + 1e-9
        q /= q.sum()
        kl = kl_ref(p, q)
        assert kl >= 0.0  # Gibbs' inequality
        # cross entropy minus entropy
        assert kl == pytest.approx(np.sum(p * np.log2(p)) - np.sum(p * np.log2(q)), abs=1e-12)


def test_kl_against_mean_always_finite():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.dirichlet(np.ones(5) * 0.2)
        q = rng.dirichlet(np.ones(5) * 0.2)
        mid = (p + q) / 2.0
        to_p, to_q = kl_ref(p, mid), kl_ref(q, mid)
        assert np.isfinite(to_p) and np.isfinite(to_q)
        assert js_divergence(p, q) == pytest.approx((to_p + to_q) / 2.0, abs=1e-12)


# -- JS ------------------------------------------------------------------------

def test_js_identical_zero_and_disjoint_one():
    p = np.array([0.3, 0.7])
    assert js_divergence(p, p) == 0.0
    assert js_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_js_point_mass_vs_uniform():
    point, uniform = np.array([1.0, 0.0]), np.array([0.5, 0.5])
    got = js_rows(np.array([point, uniform]), np.array([uniform, point]))
    assert got == pytest.approx([0.31127812445913283] * 2, abs=1e-15)


def entropy(x):
    x = np.asarray(x, dtype=float)
    x = x[x > 0]
    return float(-np.sum(x * np.log2(x)))


@pytest.mark.parametrize(
    "a, b, midpoint",
    [
        ([1, 0], [0, 1], [0.5, 0.5]),
        ([1, 0], [1, 0], [1.0, 0.0]),
        ([0.2, 0.8], [0.6, 0.4], [0.4, 0.6]),
    ],
)
def test_js_is_the_entropy_of_the_midpoint_minus_the_mean_entropy(a, b, midpoint):
    expected = entropy(midpoint) - (entropy(a) + entropy(b)) / 2.0
    assert js_divergence(np.array(a, float), np.array(b, float)) == pytest.approx(
        expected, abs=1e-15
    )


@st.composite
def prob_pair(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    def vec():
        raw = draw(
            st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n)
        )
        arr = np.asarray(raw)
        total = arr.sum()
        if total <= 0:
            arr = np.ones(n)
            total = float(n)
        return arr / total
    return vec(), vec()


@given(prob_pair())
@settings(max_examples=200, deadline=None)
def test_js_symmetry_and_bounds(pair):
    a, b = pair
    ab = js_divergence(a, b)
    assert js_divergence(b, a) == ab  # symmetric bit for bit
    assert 0.0 <= ab <= 1.0
    if ab == 0.0:
        assert np.max(np.abs(a - b)) <= 1e-12
    if np.array_equal(a, b):
        assert ab == 0.0
    # the naive midpoint oracle underflows on subnormal probabilities;
    # compare only where it is itself well defined
    positives = np.concatenate([a[a > 0], b[b > 0]])
    if positives.min() > 1e-300:
        assert ab == pytest.approx(js_ref(a, b), abs=1e-12)


# -- average pairwise JS: Partition.avg_js ---------------------------------------

def test_avg_js_identical_coalitions():
    assert one_per_coalition([3, 3], [3, 3], [3, 3]).avg_js() == 0.0


def test_avg_js_two_disjoint_denominator_m():
    assert one_per_coalition([1, 0], [0, 1]).avg_js() == pytest.approx(0.5, abs=1e-15)


def test_avg_js_three_coalitions():
    counts = ([1, 0], [1, 0], [0, 1])
    assert one_per_coalition(*counts).avg_js() == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert one_per_coalition(*counts, denominator="pairs").avg_js() == pytest.approx(
        2.0 / 3.0, abs=1e-15
    )


def test_avg_js_denominator_pairs_stays_in_unit_interval():
    # five disjoint point masses: ten pairs at JS = 1 each, which "M" divides by 5
    eye = np.eye(5, dtype=np.int64)
    assert one_per_coalition(*eye).avg_js() == 2.0
    assert one_per_coalition(*eye, denominator="pairs").avg_js() == 1.0
    rng = np.random.default_rng(3)
    for _ in range(20):
        counts = random_counts(rng, 12, 4, alpha=0.3)
        part = random_partition(counts, 5, rng, "pairs")
        assert 0.0 <= part.avg_js() <= 1.0


def test_avg_js_relabeling_invariant():
    rng = np.random.default_rng(4)
    counts = random_counts(rng, 10, 4)
    part = random_partition(counts, 4, rng)
    base = part.avg_js()
    for _ in range(5):
        perm = rng.permutation(4)
        relabeled = Partition(perm[part.assignment], counts, 4)
        assert relabeled.avg_js() == pytest.approx(base, abs=1e-12)


def test_avg_js_matches_reference():
    rng = np.random.default_rng(5)
    counts = random_counts(rng, 12, 6, alpha=0.4)
    for denominator in ("M", "pairs"):
        part = random_partition(counts, 4, rng, denominator)
        expected = partition_avg_js_ref(part.assignment, counts, 4, denominator)
        assert part.avg_js() == pytest.approx(expected, abs=1e-12)


def test_avg_js_empty_coalition_rejected():
    with pytest.raises(EmptyDistributionError):
        one_per_coalition([1, 0], [0, 0])


# -- pairwise JS matrix: Partition.js_matrix ---------------------------------------

def test_pairwise_matrix_symmetric_zero_diagonal():
    rng = np.random.default_rng(6)
    counts = random_counts(rng, 10, 3)
    part = random_partition(counts, 4, rng)
    mat = part.js_matrix
    assert np.array_equal(mat, mat.T)
    assert np.all(np.diag(mat) == 0.0)


def test_pairwise_matrix_is_the_kernel_grid():
    rng = np.random.default_rng(7)
    counts = random_counts(rng, 15, 5, alpha=0.3)
    part = random_partition(counts, 6, rng)
    probs = part.probs
    assert np.array_equal(part.js_matrix, js_rows(probs[:, None, :], probs[None, :, :]))
    for i in range(6):
        for j in range(6):
            assert part.js_matrix[i, j] == js_divergence(probs[i], probs[j])
            assert part.js_matrix[i, j] == pytest.approx(js_ref(probs[i], probs[j]), abs=1e-12)


# -- batched kernel ----------------------------------------------------------------

@st.composite
def prob_rows(draw):
    """Two (n, K) stacks of probability rows, mixing dense, one-hot and
    identical rows; K = 1 is included."""
    k = draw(st.integers(min_value=1, max_value=7))
    n = draw(st.integers(min_value=1, max_value=5))

    def row():
        if draw(st.booleans()):
            out = np.zeros(k)
            out[draw(st.integers(min_value=0, max_value=k - 1))] = 1.0
            return out
        raw = np.asarray(
            draw(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=k, max_size=k))
        )
        return raw / raw.sum() if raw.sum() > 0 else np.full(k, 1.0 / k)

    p = np.array([row() for _ in range(n)])
    q = np.array([row() for _ in range(n)])
    for i in range(n):
        if draw(st.booleans()):
            q[i] = p[i]
    return p, q


@given(prob_rows())
@settings(max_examples=300, deadline=None)
def test_js_rows_matches_reference(rows):
    p, q = rows
    got = js_rows(p, q)
    assert got.shape == (p.shape[0],)
    assert np.array_equal(got, js_rows(q, p))  # symmetric bit for bit
    assert np.all((got >= 0.0) & (got <= 1.0))
    for i in range(p.shape[0]):
        if np.array_equal(p[i], q[i]):
            assert got[i] == 0.0
        # the naive midpoint oracle underflows on subnormal probabilities
        positives = np.concatenate([p[i][p[i] > 0], q[i][q[i] > 0]])
        if positives.min() > 1e-300:
            assert got[i] == pytest.approx(js_ref(p[i], q[i]), abs=1e-12)
        # the scalar form is the kernel on one row pair
        assert js_divergence(p[i], q[i]) == got[i]


@given(prob_rows())
@settings(max_examples=100, deadline=None)
def test_js_rows_broadcast_grid_equals_row_pairs(rows):
    p, q = rows
    grid = js_rows(p[:, None, :], q[None, :, :])
    assert grid.shape == (p.shape[0], q.shape[0])
    for i in range(p.shape[0]):
        assert np.array_equal(grid[i], js_rows(np.broadcast_to(p[i], q.shape), q))


@pytest.mark.parametrize("k", [1, 2, 5, 10])
def test_js_rows_one_hot_disjoint_and_identical(k):
    eye = np.eye(k)
    assert np.array_equal(js_rows(eye, eye), np.zeros(k))
    grid = js_rows(eye[:, None, :], eye[None, :, :])
    assert np.array_equal(grid, 1.0 - eye)  # distinct point masses are disjoint


@st.composite
def wide_prob_rows(draw):
    """Two (n, K) stacks with K up to 200: dense, sparse, point-mass,
    uniform and subnormal-laden rows, some of them equal across stacks."""
    k = draw(st.integers(min_value=1, max_value=200))
    n = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))

    def row():
        kind = draw(st.sampled_from(["dense", "sparse", "point", "uniform", "subnormal"]))
        out = np.zeros(k)
        if kind == "point":
            out[rng.integers(k)] = 1.0
            return out
        if kind == "uniform":
            out[: rng.integers(1, k + 1)] = 1.0
            return out / out.sum()
        out = rng.dirichlet(np.full(k, draw(st.sampled_from([0.05, 0.5, 5.0]))))
        if kind in ("sparse", "subnormal"):
            out[rng.random(k) < 0.7] = 0.0
        if out.sum() == 0.0:
            out[rng.integers(k)] = 1.0
        out /= out.sum()
        if kind == "subnormal":
            out[(out == 0.0) & (rng.random(k) < 0.5)] = 5e-324
        return out

    p = np.array([row() for _ in range(n)])
    q = np.array([row() for _ in range(n)])
    for i in range(n):
        if draw(st.booleans()):
            q[i] = p[i]
    return p, q


@given(wide_prob_rows())
@settings(max_examples=300, deadline=None)
def test_js_rows_matches_the_ratio_form_reference(rows):
    p, q = rows
    got = js_rows(p, q)
    assert np.max(np.abs(got - js_rows_ratio_ref(p, q))) <= 1e-14
    grid = js_rows(p[:, None, :], q[None, :, :])
    assert np.max(np.abs(grid - js_rows_ratio_ref(p[:, None, :], q[None, :, :]))) <= 1e-14
    for i in range(p.shape[0]):
        if np.array_equal(p[i], q[i]):
            assert got[i] == 0.0


def test_js_rows_k1_grid_is_exactly_zero():
    one = np.ones((4, 1))
    assert np.array_equal(js_rows(one[:, None, :], one[None, :, :]), np.zeros((4, 4)))

