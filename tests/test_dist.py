import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leapsim.dist import (
    DimensionMismatchError,
    EmptyDistributionError,
    LabelDistribution,
    SupportViolationError,
    avg_pairwise_js,
    coalition_distribution,
    js_divergence,
    js_rows,
    kl_divergence,
    mean_distribution,
    pairwise_js_matrix,
)

from oracles import avg_js_ref, js_ref, kl_ref


def dist(*probs):
    return LabelDistribution.from_probs(list(probs))


def from_counts(*counts):
    return LabelDistribution.from_counts(list(counts))


# -- construction -----------------------------------------------------------

def test_from_counts_normalizes():
    d = from_counts(30, 10)
    assert np.allclose(d.probs, [0.75, 0.25])
    assert d.counts.tolist() == [30, 10]
    assert not d.empty


def test_from_counts_zero_total_is_empty_and_unusable():
    d = from_counts(0, 0)
    assert d.empty
    with pytest.raises(EmptyDistributionError):
        js_divergence(d, from_counts(1, 0))
    with pytest.raises(EmptyDistributionError):
        kl_divergence(d, from_counts(1, 0))


def test_from_probs_rejects_bad_sum_and_negatives():
    with pytest.raises(ValueError):
        LabelDistribution.from_probs([0.5, 0.6])
    with pytest.raises(ValueError):
        LabelDistribution.from_probs([1.5, -0.5])


def test_probs_are_readonly():
    d = from_counts(1, 1)
    with pytest.raises(ValueError):
        d.probs[0] = 0.3


# -- KL ----------------------------------------------------------------------

def test_kl_identical_is_zero():
    d = dist(0.5, 0.5)
    assert kl_divergence(d, d) == 0.0


def test_kl_point_mass_vs_mean():
    # direct evaluation of the summation: log2(1 / 0.75) = log2(4/3)
    assert kl_divergence(dist(1.0, 0.0), dist(0.75, 0.25)) == pytest.approx(
        0.41503749927884376, abs=1e-15
    )


def test_kl_half_half_vs_skewed():
    # 0.5*log2(2/3) + 0.5*log2(2)
    assert kl_divergence(dist(0.5, 0.5), dist(0.75, 0.25)) == pytest.approx(
        0.20751874963942185, abs=1e-15
    )


def test_kl_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        kl_divergence(dist(1.0), dist(0.5, 0.5))


def test_kl_support_violation():
    with pytest.raises(SupportViolationError):
        kl_divergence(dist(0.5, 0.5), dist(1.0, 0.0))


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4)) + 1e-9
        q /= q.sum()
        d = kl_divergence(LabelDistribution(probs=p), LabelDistribution(probs=q))
        assert d >= 0.0
        assert d == pytest.approx(kl_ref(p, q), abs=1e-12)


# -- mean ---------------------------------------------------------------------

@pytest.mark.parametrize(
    "a, b, expected",
    [
        ([1, 0], [0, 1], [0.5, 0.5]),
        ([1, 0], [1, 0], [1.0, 0.0]),
        ([0.2, 0.8], [0.6, 0.4], [0.4, 0.6]),
    ],
)
def test_mean_distribution(a, b, expected):
    out = mean_distribution(dist(*a), dist(*b))
    assert np.allclose(out.probs, expected, atol=1e-15)


# -- JS ------------------------------------------------------------------------

def test_js_identical_zero_and_disjoint_one():
    d = dist(0.3, 0.7)
    assert js_divergence(d, d) == 0.0
    assert js_divergence(dist(1, 0), dist(0, 1)) == 1.0


def test_js_point_mass_vs_uniform():
    assert js_divergence(dist(1, 0), dist(0.5, 0.5)) == pytest.approx(
        0.31127812445913283, abs=1e-15
    )


def test_kl_against_mean_always_finite():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = LabelDistribution(probs=rng.dirichlet(np.ones(5) * 0.2))
        q = LabelDistribution(probs=rng.dirichlet(np.ones(5) * 0.2))
        mid = mean_distribution(p, q)
        assert np.isfinite(kl_divergence(p, mid))
        assert np.isfinite(kl_divergence(q, mid))


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
    a = LabelDistribution(probs=pair[0] / pair[0].sum())
    b = LabelDistribution(probs=pair[1] / pair[1].sum())
    ab = js_divergence(a, b)
    ba = js_divergence(b, a)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert 0.0 <= ab <= 1.0
    if ab == 0.0:
        assert np.max(np.abs(a.probs - b.probs)) <= 1e-12
    if np.array_equal(a.probs, b.probs):
        assert ab == 0.0
    # the naive midpoint oracle underflows on subnormal probabilities;
    # compare only where it is itself well defined
    positives = np.concatenate([a.probs[a.probs > 0], b.probs[b.probs > 0]])
    if positives.min() > 1e-300:
        assert ab == pytest.approx(js_ref(a.probs, b.probs), abs=1e-12)


# -- coalition aggregation ------------------------------------------------------

def test_coalition_single_member():
    assert np.allclose(coalition_distribution([[10, 0]]).probs, [1.0, 0.0])


def test_coalition_two_equal_one_hot():
    out = coalition_distribution([[1, 0], [0, 1]])
    assert np.allclose(out.probs, [0.5, 0.5])


def test_coalition_count_weighting():
    out = coalition_distribution([[30, 10], [10, 30]])
    assert np.allclose(out.probs, [0.5, 0.5])
    assert out.counts.tolist() == [40, 40]


def test_coalition_order_invariant():
    rng = np.random.default_rng(2)
    rows = [rng.integers(0, 20, size=6) for _ in range(5)]
    a = coalition_distribution(rows)
    b = coalition_distribution(rows[::-1])
    assert np.array_equal(a.counts, b.counts)


def test_coalition_equal_sizes_reduce_to_uniform_average():
    rows = [[4, 6, 0], [2, 2, 6], [10, 0, 0]]
    out = coalition_distribution(rows)
    uniform = np.mean([np.asarray(r) / 10 for r in rows], axis=0)
    assert np.allclose(out.probs, uniform, atol=1e-15)


def test_coalition_empty_member_set():
    with pytest.raises(ValueError):
        coalition_distribution([])


# -- average pairwise JS ---------------------------------------------------------

def test_avg_js_identical_coalitions():
    d = from_counts(3, 3)
    assert avg_pairwise_js([d, d, d]) == 0.0


def test_avg_js_two_disjoint_denominator_m():
    assert avg_pairwise_js([dist(1, 0), dist(0, 1)]) == pytest.approx(0.5, abs=1e-15)


def test_avg_js_three_coalitions():
    dists = [dist(1, 0), dist(1, 0), dist(0, 1)]
    assert avg_pairwise_js(dists) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert avg_pairwise_js(dists, denominator="pairs") == pytest.approx(
        2.0 / 3.0, abs=1e-15
    )


def test_avg_js_denominator_pairs_stays_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dists = [LabelDistribution(probs=rng.dirichlet(np.ones(4) * 0.3)) for _ in range(5)]
        assert 0.0 <= avg_pairwise_js(dists, denominator="pairs") <= 1.0


def test_avg_js_relabeling_invariant():
    rng = np.random.default_rng(4)
    dists = [LabelDistribution(probs=rng.dirichlet(np.ones(4))) for _ in range(4)]
    base = avg_pairwise_js(dists)
    for _ in range(5):
        perm = rng.permutation(4)
        assert avg_pairwise_js([dists[i] for i in perm]) == pytest.approx(base, abs=1e-12)


def test_avg_js_matches_reference():
    rng = np.random.default_rng(5)
    rows = [rng.dirichlet(np.ones(6) * 0.4) for _ in range(4)]
    dists = [LabelDistribution(probs=r) for r in rows]
    assert avg_pairwise_js(dists) == pytest.approx(avg_js_ref(rows), abs=1e-12)


def test_pairwise_matrix_symmetric_zero_diagonal():
    rng = np.random.default_rng(6)
    dists = [LabelDistribution(probs=rng.dirichlet(np.ones(3))) for _ in range(4)]
    mat = pairwise_js_matrix(dists)
    assert np.allclose(mat, mat.T)
    assert np.all(np.diag(mat) == 0.0)


def test_avg_js_empty_coalition_rejected():
    with pytest.raises(EmptyDistributionError):
        avg_pairwise_js([from_counts(1, 0), from_counts(0, 0)])


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
        # the scalar wrapper is the kernel on one row pair
        assert js_divergence(
            LabelDistribution(probs=p[i]), LabelDistribution(probs=q[i])
        ) == got[i]


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


def test_pairwise_matrix_is_the_kernel_grid():
    rng = np.random.default_rng(7)
    dists = [LabelDistribution(probs=rng.dirichlet(np.ones(5) * 0.3)) for _ in range(6)]
    mat = pairwise_js_matrix(dists)
    for i in range(6):
        for j in range(6):
            assert mat[i, j] == js_divergence(dists[i], dists[j])
            assert mat[i, j] == pytest.approx(js_ref(dists[i].probs, dists[j].probs), abs=1e-12)
