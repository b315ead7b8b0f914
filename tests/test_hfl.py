import dataclasses
import itertools
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import leapsim.hfl as hfl
from leapsim.errors import (
    InvalidPartitionError,
    InvalidValueError,
    LeapsimError,
    TrainingDivergedError,
)
from leapsim.hfl import (
    SyntheticDataset,
    accuracy,
    edge_aggregate,
    init_params,
    local_train,
    onehot_targets,
    predict,
    prepare_runs,
    run_hfl,
    softmax_loss_and_grad,
)
from leapsim.game import random_partition, run_coalition_formation
from leapsim.netmodel import coalition_assignment
from leapsim.scenario import generate_scenario, label_count_matrix, load_scenario, save_scenario
from oracles import (
    client_data,
    flat_params,
    local_train_per_call_ref,
    local_train_ref,
    model_params,
    run_hfl_per_call_ref,
    run_hfl_ref,
    softmax_loss_and_grad_labels_ref,
    softmax_loss_and_grad_ref,
    synthetic_data_ref,
)


def toy_dataset(seed=0, n_classes=3, n_features=4, per_class=30, clients=4):
    counts = [[per_class] * n_classes for _ in range(clients)]
    return SyntheticDataset.generate(
        counts, n_features=n_features, seed=seed, class_sep=3.0, noise=0.7,
        test_per_class=50,
    )


def prepared(features, labels, k):
    """The one client of a dataset of ``features`` and ``labels`` (its test
    set as well), prepared as ``run_hfl`` prepares its clients below
    ``BATCH_MIN_STEPS``: a chunk of one."""
    dataset = SyntheticDataset(features, labels, np.array([len(labels)]), features, labels, k)
    ((_, client),) = prepare_runs(dataset, 0)
    return client


def gradient(params, features, labels, k):
    """``softmax_loss_and_grad``'s gradient at the flat ``params`` and
    ``labels`` on the prepared client, flat like the parameters, as the
    textbook references take and return them."""
    weights = model_params(params, k, features.shape[1])[None]
    return flat_params(softmax_loss_and_grad(weights, prepared(features, labels, k))[0])


def dataset_of(members, k):
    """A dataset of one client per (features, labels) pair of ``members``,
    scored on the first."""
    features, labels = (np.concatenate(column) for column in zip(*members))
    sizes = np.array([len(y) for _, y in members])
    return SyntheticDataset(features, labels, sizes, *members[0], k)


def stack_of(model):
    """A fresh (1, K, d + 1) stack holding a copy of the model [W | b]:
    the ``out`` of a chunk of one client that starts from ``model``."""
    return np.array(model, dtype=float)[None]


def train(model, features, labels, k, tau_c, lr):
    """``local_train`` on a freshly prepared client from a copy of
    ``model``: the client's trained (K, d + 1) matrix."""
    return local_train(prepared(features, labels, k), tau_c, lr, stack_of(model))[0]


# -- learner ------------------------------------------------------------------

def test_init_params_holds_the_flat_draws_weights_row_by_row_then_biases():
    """The model [W | b] holds the draws of the flat layout it replaced:
    the first K·d fill W row by row, the last K fill b; and ``predict``
    gives the labels the flat layout's weights and biases give."""
    draws = 0.01 * np.random.default_rng(5).standard_normal(3 * 4 + 3)
    model = init_params(3, 4, seed=5)
    assert model.shape == (3, 5) and model.dtype == np.float64
    assert np.array_equal(model[:, :4], draws[:12].reshape(3, 4))
    assert np.array_equal(model[:, 4], draws[12:])
    assert np.array_equal(flat_params(model), draws)
    features = toy_dataset().test_features
    for flat in (draws, np.random.default_rng(6).normal(size=15)):
        labels = np.argmax(features @ flat[:12].reshape(3, 4).T + flat[12:], axis=1)
        assert np.array_equal(predict(model_params(flat, 3, 4), features), labels)
    assert len(set(labels.tolist())) == 3


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(12, 4))
    labels = rng.integers(3, size=12)
    params = 0.5 * rng.standard_normal(3 * (4 + 1))
    grad = gradient(params, features, labels, 3)
    eps = 1e-6
    for k in range(params.size):
        up, down = params.copy(), params.copy()
        up[k] += eps
        down[k] -= eps
        lu, _ = softmax_loss_and_grad_labels_ref(up, features, labels, 3)
        ld, _ = softmax_loss_and_grad_labels_ref(down, features, labels, 3)
        numeric = (lu - ld) / (2 * eps)
        denom = max(abs(grad[k]), 1e-8)
        assert abs(grad[k] - numeric) / denom < 1e-4


def test_single_step_matches_analytic_softmax_gradient():
    # one sample: grad_W = (softmax - onehot) x^T, grad_b = softmax - onehot
    x = np.array([[1.0, -2.0]])
    y = np.array([1])
    params = np.zeros(2 * (2 + 1))
    grad = gradient(params, x, y, 2)
    probs = np.array([0.5, 0.5])  # zero logits
    delta = probs - np.array([0.0, 1.0])
    expected_w = np.outer(delta, x[0])
    expected_b = delta
    assert np.allclose(grad[:4].reshape(2, 2), expected_w, atol=1e-12)
    assert np.allclose(grad[4:], expected_b, atol=1e-12)


def test_local_train_zero_lr_is_identity():
    rng = np.random.default_rng(1)
    model = rng.normal(size=(3, 5))
    kept = model.copy()
    ds = toy_dataset()
    out = train(model, *client_data(ds, 0), 3, 5, 0.0)
    assert np.array_equal(out, model)
    assert out is not model and np.array_equal(model, kept)  # input untouched


def test_local_train_decreases_loss_for_small_lr():
    ds = toy_dataset()
    model = init_params(3, 4, seed=2)
    features, labels = client_data(ds, 0)
    before, _ = softmax_loss_and_grad_labels_ref(flat_params(model), features, labels, 3)
    trained = train(model, features, labels, 3, 5, 0.01)
    after, _ = softmax_loss_and_grad_labels_ref(flat_params(trained), features, labels, 3)
    assert after <= before


LAYOUTS = ("c", "fortran", "row_stride", "col_stride", "transposed")


def feature_layouts(values):
    """The (n, d) ``values`` as C, Fortran, row-strided, column-strided and
    transposed-view arrays, each holding the same numbers."""
    n, d = values.shape
    rows = np.zeros((2 * n, d))
    rows[::2] = values
    columns = np.zeros((n, 3 * d))
    columns[:, 1::3] = values
    return {
        "c": values.copy(),
        "fortran": np.asfortranarray(values),
        "row_stride": rows[::2],
        "col_stride": columns[:, 1::3],
        "transposed": np.ascontiguousarray(values.T).T,
    }


@st.composite
def learner_instance(draw):
    """A softmax step's inputs: sizes from 1, skewed labels, big or small
    flat parameters, and features that may be a non-contiguous view."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 8))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(LAYOUTS))
    features = feature_layouts(rng.normal(size=(n, d)))[layout]
    if draw(st.booleans()):
        labels = np.full(n, draw(st.integers(0, k - 1)), dtype=np.int64)
    else:
        labels = rng.integers(k, size=n)
    # scale 1e3 pushes logits past exp's overflow point without the max shift
    scale = draw(st.sampled_from([0.0, 0.01, 1.0, 30.0, 1e3]))
    params = scale * rng.standard_normal(k * (d + 1))
    return params, features, labels, k


@given(learner_instance())
@settings(max_examples=300, deadline=None)
def test_class_major_step_matches_the_row_major_reference(instance):
    params, features, labels, k = instance
    kept = params.copy()
    grad = gradient(params, features, labels, k)
    _, grad_ref = softmax_loss_and_grad_ref(params, features, labels, k)
    assert np.array_equal(params, kept)  # the input is not written to
    assert grad.shape == grad_ref.shape and np.isfinite(grad).all()
    np.testing.assert_allclose(grad, grad_ref, rtol=1e-12, atol=1e-15)


@given(learner_instance())
@example((np.array([40.0, -3.0]), np.array([[25.0]]), np.array([0]), 1))  # n = 1, K = 1
@example((np.array([1e3, -1e3, 0.0, 0.0]), np.array([[30.0]]), np.array([0]), 2))  # p = +0.0
@settings(max_examples=300, deadline=None)
def test_onehot_step_equals_the_label_indexed_step_bit_for_bit(instance):
    """Subtracting the one-hot matrix gives the label-indexed step's bits:
    p - 1.0 at a true class as before, and p - 0.0 == p elsewhere, also
    where exp underflows to +0.0."""
    params, features, labels, k = instance
    kept = params.copy()
    grad = gradient(params, features, labels, k)
    _, grad_ref = softmax_loss_and_grad_labels_ref(params, features, labels, k)
    assert np.array_equal(params, kept)  # the input is not written to
    assert np.array_equal(grad, grad_ref)


@pytest.mark.parametrize("k", [1, 2])
def test_class_major_step_on_the_smallest_shapes(k):
    params = np.array([0.3] * k + [-0.2] * k)
    features, labels = np.array([[1.5]]), np.array([k - 1])
    grad = gradient(params, features, labels, k)
    _, grad_ref = softmax_loss_and_grad_ref(params, features, labels, k)
    np.testing.assert_allclose(grad, grad_ref, rtol=1e-12, atol=1e-15)
    if k == 1:  # the softmax of one class is 1: no gradient
        assert np.array_equal(grad, np.zeros(2))


def test_local_train_raises_on_divergence():
    ds = toy_dataset()
    params = init_params(3, 4, seed=3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
        train(params, *client_data(ds, 0), 3, 5, 1e308)


def test_divergence_is_a_typed_error_without_warnings():
    # pytest turns warnings into errors here, so an unmuted overflow would fail
    ds = toy_dataset()
    params = init_params(3, 4, seed=3)
    with pytest.raises(TrainingDivergedError, match="lower the learning rate") as info:
        train(params, *client_data(ds, 0), 3, 5, 1e308)
    assert isinstance(info.value, LeapsimError) and isinstance(info.value, FloatingPointError)


def _poisoned(model, where, value):
    """The model [W | b] with ``value`` written at one weight, one bias or both."""
    out = model.copy()
    if where in ("weight", "both"):
        out[0, 0] = value
    if where in ("bias", "both"):
        out[0, -1] = value
    return out


@given(
    learner_instance(),
    st.integers(1, 4),
    st.one_of(
        st.sampled_from([0.0, 0.8, 1e3, 1e100, 1e300, 1e308, np.finfo(float).max]),
        st.floats(0.0, 1e308),
    ),
    st.sampled_from(["none"] * 3 + ["weight", "bias", "both"]),
    st.sampled_from([math.inf, -math.inf, math.nan]),
)
@example((np.zeros(6), np.ones((3, 1)), np.array([0, 1, 1]), 3), 2, 0.1, "bias", -math.inf)
@settings(max_examples=300, deadline=None)
def test_local_train_diverges_exactly_when_a_check_after_every_step_does(
    instance, tau_c, lr, where, value
):
    """One check after the last step raises exactly when the reference's
    check of the loss and the parameters after every step does.

    The reference steps with the label-indexed exact step, so both sides
    see the same bits: a row-major step's rounding would move the point
    where lr * grad overflows.  Starting parameters may hold +-inf or NaN;
    a -inf bias keeps the loss finite while the parameters are not."""
    params, features, labels, k = instance
    model = model_params(params, k, features.shape[1])
    model = model if where == "none" else _poisoned(model, where, value)
    try:
        with np.errstate(all="ignore"):
            expected = local_train_ref(
                flat_params(model), features, labels, k, tau_c, lr,
                step=softmax_loss_and_grad_labels_ref,
            )
    except FloatingPointError:
        expected = None
    if expected is None:
        with pytest.raises(TrainingDivergedError, match="lower the learning rate"):
            train(model, features, labels, k, tau_c, lr)
    else:
        trained = train(model, features, labels, k, tau_c, lr)
        np.testing.assert_allclose(flat_params(trained), expected, rtol=0, atol=1e-12)

    # a stack of three members of n samples, this one and two with its
    # rows rescaled and its labels rolled: it raises exactly when one of
    # them, trained alone, would, and otherwise holds their bits.  Members
    # of one sample each are one-client chunks, stepped one after another.
    members = [(scale * np.ascontiguousarray(features), np.roll(labels, shift))
               for scale, shift in ((1.0, 0), (0.1, 1), (30.0, 2))]
    alone = []
    for member in members:
        try:
            alone.append(train(model, *member, k, tau_c, lr).tobytes())
        except TrainingDivergedError:
            alone.append(None)
    chunks = prepare_runs(dataset_of(members, k), hfl.CHUNK_BYTES)
    cuts = [(0, 3)] if labels.size > 1 else [(0, 1), (1, 2), (2, 3)]
    assert [(rows.start, rows.stop) for rows, _ in chunks] == cuts
    out = np.empty((3, *model.shape))

    def step_every_chunk():
        out[:] = model
        for rows, run in chunks:
            rows_out = out[rows]
            assert local_train(run, tau_c, lr, rows_out) is rows_out

    if None in alone:
        words = "^training diverged; lower the learning rate$"
        with pytest.raises(TrainingDivergedError, match=words):
            step_every_chunk()
    else:
        step_every_chunk()
        assert [row.tobytes() for row in out] == alone


@pytest.mark.parametrize("tau_c", [0, -1, 2.5, 2.0, True, None])
def test_local_train_refuses_a_step_count_before_its_first_step(monkeypatch, tau_c):
    def no_step(*args, **kwargs):
        raise AssertionError("a gradient step ran with an unchecked tau_c")

    monkeypatch.setattr(hfl, "softmax_loss_and_grad", no_step)
    ds = toy_dataset()
    with pytest.raises(InvalidValueError, match="^tau_c must be"):
        local_train(prepare_runs(ds, 0)[0][1], tau_c, 0.1, stack_of(init_params(3, 4)))


@pytest.mark.parametrize(
    "dtype", [np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64]
)
def test_onehot_targets_of_any_integer_dtype(dtype):
    expected = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 1.0, 1.0, 0.0],
    ])
    targets = onehot_targets(np.array([2, 0, 1, 2, 2, 0], dtype=dtype), 3)
    assert targets.dtype == np.float64 and np.array_equal(targets, expected)


# the model [W | b] without the chunk's axis, the old flat layout of its
# K·d + K = 15 values, stacks one row, column or client off, and the
# right shape in another dtype or as a list
@pytest.mark.parametrize("out, got", [
    (np.zeros((3, 5)), "float64 of shape (3, 5)"),
    (np.zeros(15), "float64 of shape (15,)"),
    (np.zeros((1, 3, 4)), "float64 of shape (1, 3, 4)"),
    (np.zeros((1, 4, 5)), "float64 of shape (1, 4, 5)"),
    (np.zeros((2, 3, 5)), "float64 of shape (2, 3, 5)"),
    (np.zeros((1, 3, 5), dtype=np.float32), "float32 of shape (1, 3, 5)"),
    (np.zeros((1, 3, 5), dtype=np.int64), "int64 of shape (1, 3, 5)"),
    (np.zeros((1, 3, 5)).tolist(), "list"),
], ids=["model", "flat", "K_by_d", "K+1_by_d+1", "two_clients", "float32", "int64", "list"])
def test_local_train_refuses_an_out_that_is_not_the_chunks_stack_before_its_first_step(
    monkeypatch, out, got
):
    """An ``out`` that is not a float64 array of the chunk's (B, K, d + 1)
    shape is refused before a step runs; it used to end in numpy's own
    error after the first step, or to broadcast."""
    def no_step(*args):
        raise AssertionError("a gradient step ran on an out of the wrong shape")

    monkeypatch.setattr(hfl, "softmax_loss_and_grad", no_step)
    chunk = prepared(*client_data(toy_dataset(), 0), 3)
    words = rf"^out must be a float64 array of shape \(1, 3, 5\), got {re.escape(got)}$"
    with pytest.raises(InvalidValueError, match=words):
        local_train(chunk, 5, 0.1, out)


@pytest.mark.parametrize(
    "shape", [(5,), (12,), (16,), (20,), (15,), (3, 4), (3, 6), (0, 5)],
    ids=["5", "Kd", "Kd+K+1", "20", "flat", "K_by_d", "K_by_d+2", "no_class"],
)
def test_predict_and_accuracy_refuse_params_of_the_wrong_length(shape):
    # (3, 6) would broadcast silently, a flat vector fail in numpy's indexing
    # and (0, 5) in an argmax over no class; K is the model's row count
    ds = toy_dataset()
    words = rf"^model must be a \(K, 5\) matrix \[W \| b\], got shape {re.escape(str(shape))}$"
    with pytest.raises(InvalidValueError, match=words):
        predict(np.zeros(shape), ds.test_features)
    with pytest.raises(InvalidValueError, match=words):
        accuracy(np.zeros(shape), ds.test_features, ds.test_labels)


def test_predict_and_accuracy_take_the_class_count_from_the_model():
    ds = toy_dataset()
    model = np.zeros((7, 5))
    model[6, 4] = 1.0  # class 6's bias: every sample is predicted class 6
    assert np.array_equal(predict(model, ds.test_features), np.full(len(ds.test_labels), 6))
    assert accuracy(model, ds.test_features, ds.test_labels) == 0.0


@pytest.mark.parametrize("features, got", [
    (np.ones(4), "float64 of shape (4,)"),
    (np.ones((1, 2, 4)), "float64 of shape (1, 2, 4)"),
    (np.ones((6, 4), dtype=complex), "complex128 of shape (6, 4)"),
    (np.full((6, 4), "1"), "<U1 of shape (6, 4)"),
    ([[1.0] * 4] * 6, "list"),
], ids=["1-D", "3-D", "complex", "strings", "list"])
def test_predict_and_accuracy_refuse_features_that_are_not_a_2d_real_array(features, got):
    # a 1-D array has no features.shape[1] to read
    words = f"^features must be a 2-D array of real numbers, got {re.escape(got)}$"
    with pytest.raises(InvalidValueError, match=words):
        predict(np.zeros((3, 5)), features)
    with pytest.raises(InvalidValueError, match=words):
        accuracy(np.zeros((3, 5)), features, np.zeros(6, dtype=np.int64))


@pytest.mark.parametrize("labels", [
    np.array([0]), np.array([0, 1]), np.zeros(7, dtype=np.int64), np.zeros((6, 1), dtype=np.int64),
], ids=["one", "two", "seven", "column"])
def test_accuracy_refuses_labels_that_are_not_one_per_feature_row(labels):
    # one label would broadcast to a silent 1.0, two to a bare numpy ValueError
    features = np.ones((6, 4))
    words = (r"^labels must be 1-D with one entry per feature row \(6\), "
             rf"got shape {re.escape(str(labels.shape))}$")
    with pytest.raises(InvalidValueError, match=words):
        accuracy(np.zeros((3, 5)), features, labels)
    assert accuracy(np.zeros((3, 5)), features, np.zeros(6, dtype=np.int64)) == 1.0


def test_accuracy_refuses_an_empty_test_set():
    # zero rows used to give NaN after numpy's "Mean of empty slice" warning
    words = r"^accuracy needs at least one feature row, got shape \(0, 4\)$"
    with pytest.raises(InvalidValueError, match=words):
        accuracy(np.zeros((3, 5)), np.ones((0, 4)), np.zeros(0, dtype=np.int64))


@pytest.mark.parametrize("form", [[0, 0, 1, 1], (0, 0, 1, 1)], ids=["list", "tuple"])
def test_a_plain_sequence_of_coalition_indices_is_refused_with_the_accepted_forms(form):
    """A list or tuple of indices is neither an index array nor member
    collections; it used to end in a bare TypeError."""
    words = "a partition must be a Partition, a 1-D integer array of coalition indices or " \
        "member collections, got "
    with pytest.raises(InvalidPartitionError, match=words):
        coalition_assignment(form, 4)
    with pytest.raises(InvalidPartitionError, match=words):
        run_hfl(form, toy_dataset(), tau_c=1, tau_e=1, tau_g=1, lr=0.1)
    assert coalition_assignment(np.array(form), 4)[0].tolist() == [0, 0, 1, 1]


@pytest.mark.parametrize("partition, words", [
    ([[0.5, 1.7], [2, 3]], "got float64 of shape (2,)"),
    ([["0", 1], [2, 3]], "got <U21 of shape (2,)"),
    ([[True, False], [2, 3]], "got bool of shape (2,)"),
    ([[0, True], [2, 3]], "got a bool entry"),  # numpy reads this list as int64
    ([{0, 1}, [[2, 3]]], "got int64 of shape (1, 2)"),
], ids=["floats", "string", "bools", "bool_in_ints", "nested"])
def test_member_ids_that_are_not_integers_are_refused_not_cast(partition, words):
    """Each of these used to become the assignment [0, 0, 1, 1]."""
    message = "^" + re.escape(f"member ids must be integers, {words}") + "$"
    with pytest.raises(InvalidPartitionError, match=message):
        coalition_assignment(partition, 4)
    with pytest.raises(InvalidPartitionError, match=message):
        run_hfl(partition, toy_dataset(), tau_c=1, tau_e=1, tau_g=1, lr=0.1)


def test_member_collections_of_integer_ids_are_taken_in_any_form():
    for form in (
        [[0, 1], [2, 3]],
        ([0, 1], (3, 2)),
        [{1, 0}, frozenset({2, 3})],
        [np.array([0, 1], dtype=np.uint64), np.array([2, 3], dtype=np.int32)],
        [[np.int64(0), 1], np.array([3, 2])],
    ):
        found, sizes = coalition_assignment(form, 4)
        assert found.dtype == np.int64
        assert (found.tolist(), sizes.tolist()) == ([0, 0, 1, 1], [2, 2])
    for empty in ([], set(), np.array([], dtype=float)):
        with pytest.raises(InvalidPartitionError, match="^coalition 0 is empty$"):
            coalition_assignment([empty, [0, 1, 2, 3]], 4)
    with pytest.raises(InvalidPartitionError, match=r"^a member id lies outside \[0, 4\)$"):
        coalition_assignment([np.array([2**64 - 1, 1], dtype=np.uint64), [2, 3]], 4)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, 2**64, 2**70, None], ids=repr)
def test_every_seed_is_an_integer_in_the_numpy_range(seed):
    """-1, 1.5, "3" and None ended in numpy's bare errors, True was taken
    as 1, and a scenario drawn from 2**70 could not be saved."""
    words = re.escape(f"seed must be an integer in [0, 2**64), got {seed!r}")
    calls = [
        lambda: generate_scenario(seed=seed, n_clients=4, n_edges=2),
        lambda: init_params(3, 4, seed),
        lambda: run_hfl([[0, 1], [2, 3]], toy_dataset(), tau_c=1, tau_e=1, tau_g=1, lr=0.1,
                        seed=seed),
        lambda: SyntheticDataset.generate([[2, 1]], seed=seed),
    ]
    for call in calls:
        with pytest.raises(InvalidValueError, match=f"^{words}$"):
            call()


@pytest.mark.parametrize("n_classes, n_features, words", [
    (2.5, 3, "n_classes must be an integer, got 2.5"),
    (2, True, "n_features must be an integer, got True"),
    (-1, 3, "n_classes must be at least 1, got -1"),
    (0, 3, "n_classes must be at least 1, got 0"),
], ids=["float_classes", "bool_features", "negative_classes", "no_class"])
def test_init_params_refuses_counts_that_are_not_integers_from_one(n_classes, n_features, words):
    """2.5 and True ended in numpy's TypeError, -1 in its ValueError, and
    0 gave a (0, 4) model that ``predict`` then refused."""
    with pytest.raises(InvalidValueError, match=f"^{re.escape(words)}$"):
        init_params(n_classes, n_features)


def test_a_numpy_integer_seed_is_recorded_as_a_plain_int(tmp_path):
    scenario = generate_scenario(seed=np.uint64(5), n_clients=4, n_edges=2)
    assert type(scenario.meta["seed"]) is int and scenario.meta["seed"] == 5
    save_scenario(scenario, tmp_path / "s.bin")  # used to fail in the JSON header
    assert load_scenario(tmp_path / "s.bin").meta == scenario.meta
    assert np.array_equal(init_params(3, 4, np.uint64(5)), init_params(3, 4, 5))


@given(learner_instance(), st.integers(1, 4), st.sampled_from([0.0, 0.1, 0.8, 1e3, 1e300]))
@settings(max_examples=100, deadline=None)
def test_step_and_local_train_do_not_depend_on_the_feature_layout(instance, tau_c, lr):
    """``prepare_runs`` makes the design a fresh C-order copy, so the
    layout of the features moves no bit of the step's gradient or of
    local_train's result (a divergence included), and neither input is
    written to."""
    params, features, labels, k = instance
    values = np.ascontiguousarray(features)
    model = model_params(params, k, values.shape[1])
    kept = params.copy()
    grads, trained = [], []
    for layout in feature_layouts(values).values():
        grads.append(gradient(params, layout, labels, k).tobytes())
        try:
            trained.append(train(model, layout, labels, k, tau_c, lr).tobytes())
        except TrainingDivergedError:
            trained.append(None)
        assert np.array_equal(layout, values) and np.array_equal(flat_params(model), kept)
    assert grads.count(grads[0]) == len(grads)
    assert trained.count(trained[0]) == len(trained)


def hfl_train_like(seed):
    """An hfl_train-shaped instance with tau_e cut to 3: 20 clients of
    unequal sizes (15-90 samples, Dirichlet(0.5) labels over 10 classes)
    on 4 edges, 8 features, the whole features array in one layout (C,
    Fortran, row- or column-strided, transposed view)."""
    rng = np.random.default_rng(seed)
    counts = [rng.multinomial(rng.integers(15, 91), rng.dirichlet([0.5] * 10)) for _ in range(20)]
    ds = SyntheticDataset.generate(
        [c.tolist() for c in counts], n_features=8, seed=seed, class_sep=1.0, noise=1.0,
        test_per_class=20,
    )
    assignment = rng.permutation(np.arange(20) % 4)
    layout = LAYOUTS[int(rng.integers(len(LAYOUTS)))]
    ds = dataclasses.replace(ds, features=feature_layouts(ds.features)[layout])
    return assignment, ds, dict(tau_c=5, tau_e=3, tau_g=2, lr=0.8, seed=seed)


@pytest.mark.parametrize("seed", range(32))
def test_prepared_run_hfl_equals_the_per_call_build_bit_for_bit(seed):
    """Preparing the whole dataset once per run and stepping on views of
    it moves no bit: models and curves equal the per-call build's
    exactly; and on poisoned edge models one client's view and the
    per-call build both diverge, or neither does and their bits agree."""
    assignment, ds, periods = hfl_train_like(seed)
    model, curve = run_hfl(assignment, ds, **periods)
    model_ref, curve_ref = run_hfl_per_call_ref(assignment, ds, **periods)
    assert model.shape == model_ref.shape == (10, 9)
    assert model.tobytes() == model_ref.tobytes() and curve == curve_ref

    rng = np.random.default_rng(seed)
    n = int(rng.integers(20))
    features, labels = client_data(ds, n)
    _, client = prepare_runs(ds, 0)[n]
    where = ["none", "weight", "bias", "both"][seed % 4]
    poisoned = _poisoned(model, where, [math.inf, -math.inf, math.nan][seed % 3])
    lr = [0.8, 1e3, 1e300][seed // 4 % 3]

    def outcome(run):
        try:
            return run().tobytes()
        except TrainingDivergedError:
            return None

    assert outcome(
        lambda: local_train(client, 5, lr, stack_of(poisoned))[0]
    ) == outcome(
        lambda: local_train_per_call_ref(poisoned, features, onehot_targets(labels, 10), 5, lr)
    )


# -- aggregation -------------------------------------------------------------------

def test_edge_aggregate_idempotent_on_identical_inputs():
    v = np.arange(5.0)
    out = edge_aggregate([v, v.copy(), v.copy()], [3, 1, 2])
    assert np.allclose(out, v, atol=1e-15)


def test_edge_aggregate_symmetry_cancels():
    v = np.ones(4)
    out = edge_aggregate([v, -v], [10, 10])
    assert np.allclose(out, 0.0, atol=1e-15)


def test_edge_aggregate_weighted_mean():
    out = edge_aggregate([np.zeros(3), np.full(3, 4.0)], [1, 3])
    assert np.allclose(out, 3.0, atol=1e-15)


def test_global_of_edges_equals_flat_weighted_mean():
    rng = np.random.default_rng(4)
    params = [rng.normal(size=7) for _ in range(6)]
    sizes = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    edges = [[0, 1], [2, 3, 4], [5]]
    edge_params = [
        edge_aggregate([params[i] for i in group], [sizes[i] for i in group])
        for group in edges
    ]
    edge_sizes = [sum(sizes[i] for i in group) for group in edges]
    nested = edge_aggregate(edge_params, edge_sizes)
    flat = edge_aggregate(params, sizes)
    assert np.max(np.abs(nested - flat)) <= 1e-12


def test_edge_aggregate_averages_a_stack_of_models_elementwise():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(4, 3, 5))
    sizes = np.array([1.0, 2.0, 3.0, 4.0])
    mean = edge_aggregate(stack, sizes)
    assert mean.shape == (3, 5)
    np.testing.assert_allclose(
        mean, (sizes[:, None, None] * stack).sum(axis=0) / sizes.sum(), rtol=0, atol=1e-15
    )


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        edge_aggregate([], [])


@pytest.mark.parametrize(
    "rows, sizes, message",
    [
        (np.zeros((0, 3)), [], "at least one row"),
        (np.ones((2, 3)), [1.0, 2.0, 3.0], "one size per row"),
        (np.ones((3, 3)), [1.0, 2.0], "one size per row"),
        (np.ones((2, 3)), [[1.0, 2.0]], "one size per row"),
        (np.ones((2, 3)), [0.0, 0.0], "positive finite total"),
        (np.ones((2, 3)), [1.0, -3.0], "positive finite total"),
        (np.ones((2, 3)), [1.0, math.nan], "positive finite total"),
        (np.ones((2, 3)), [1.0, math.inf], "positive finite total"),
    ],
    ids=["no_rows", "more_sizes", "fewer_sizes", "2d_sizes", "zero_total", "negative_total",
         "nan_total", "inf_total"],
)
def test_aggregate_refuses_rows_and_sizes_that_do_not_make_a_weighted_mean(rows, sizes, message):
    # pytest turns warnings into errors here, so a division by a zero total would fail
    with pytest.raises(InvalidValueError, match=message):
        edge_aggregate(rows, sizes)


# -- synthetic data -------------------------------------------------------------------

def test_dataset_honors_label_counts():
    counts = [[5, 0, 7], [0, 3, 0]]
    ds = SyntheticDataset.generate(counts, n_features=4, seed=5)
    for n, expected in enumerate(counts):
        hist = np.bincount(client_data(ds, n)[1], minlength=3)
        assert hist.tolist() == expected
    assert ds.n_features == 4
    assert ds.features.shape == (15, 4) and ds.test_features.shape == (300, 4)
    assert ds.client_sizes.dtype == np.int64 and ds.client_sizes.tolist() == [12, 3]


@pytest.mark.parametrize(
    "counts, client",
    [
        ([[1, 1], [1]], 1),  # ragged rows
        ([[2, 1], [0, 0], [1, 1]], 1),  # a client without samples
        ([[3, 1], [2, -1]], 1),  # a negative count
        ([[1.0, 2]], 0),  # a float count
        ([[2, 2], [True, 3]], 1),  # numpy reads this row as int64, and the client had 4 samples
        ([[2, 2], [np.True_, 3]], 1),
        ([[2**62, 2**62], [1, 1]], 0),  # its total wraps to -2**63 in int64
        ([[2**62, 1], [2**62, 1], [1, 1]], 1),  # so does the total of the first two rows
    ],
    ids=["ragged", "all_zero", "negative", "float", "bool", "numpy_bool", "row_beyond_int64",
         "rows_beyond_int64"],
)
def test_dataset_rejects_a_bad_client_row_by_name(counts, client):
    with pytest.raises(InvalidValueError, match=f"^client {client}: label counts must be"):
        SyntheticDataset.generate(counts, n_features=2, seed=0)


def test_dataset_takes_uint64_label_counts_as_it_takes_int64_ones():
    """np.repeat refuses to cast uint64 counts; the checked rows are taken as int64."""
    counts = np.array([[2, 1], [1, 2]])
    a = SyntheticDataset.generate(counts.astype(np.uint64), n_features=2, seed=3)
    b = SyntheticDataset.generate(counts, n_features=2, seed=3)
    for name in ("features", "labels", "client_sizes", "test_features", "test_labels"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.client_sizes.dtype == np.int64


def test_dataset_takes_the_label_count_matrix_as_it_takes_its_rows():
    counts = np.array([[5, 0, 7], [0, 3, 1]])
    a = SyntheticDataset.generate(counts, n_features=3, seed=8)
    b = SyntheticDataset.generate(counts.tolist(), n_features=3, seed=8)
    assert a.client_sizes.tolist() == [12, 4]
    assert np.array_equal(a.features, b.features) and np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.test_features, b.test_features)


def test_dataset_rejects_an_empty_client_list():
    with pytest.raises(InvalidValueError, match="at least one client"):
        SyntheticDataset.generate([], n_features=2, seed=0)


@pytest.mark.parametrize("value", [0, 2.5, True])
@pytest.mark.parametrize("name", ["n_features", "test_per_class"])
def test_dataset_rejects_a_count_that_is_not_a_positive_integer(name, value):
    with pytest.raises(InvalidValueError, match=f"^{name} must be"):
        SyntheticDataset.generate([[2, 1]], seed=0, **{name: value})


@pytest.mark.parametrize("value, words", [
    ("1", "must be a number, got '1'"),
    (True, "must be a number, got True"),
    (math.nan, "must be finite, got nan"),
    (math.inf, "must be finite, got inf"),
], ids=["string", "bool", "nan", "inf"])
@pytest.mark.parametrize("name", ["class_sep", "noise"])
def test_dataset_rejects_a_spread_that_is_not_a_finite_number(name, value, words):
    """A string noise ended in numpy's bare UFuncTypeError, and a NaN one
    was blamed on client 0's features."""
    with pytest.raises(InvalidValueError, match=f"^{name} {re.escape(words)}$"):
        SyntheticDataset.generate([[2, 1]], seed=0, **{name: value})


def test_dataset_draws_the_values_of_the_per_client_draws():
    """Concatenating keeps every value: the arrays equal the client blocks
    drawn one client at a time from the same stream."""
    counts = [[5, 0, 7], [0, 3, 1], [2, 2, 2]]
    ds = SyntheticDataset.generate(counts, n_features=3, seed=4, class_sep=1.5, noise=0.5,
                                   test_per_class=7)
    clients, (test_features, test_labels) = synthetic_data_ref(counts, 3, 4, 1.5, 0.5, 7)
    for n, (features, labels) in enumerate(clients):
        assert client_data(ds, n)[0].tobytes() == features.tobytes()
        assert np.array_equal(client_data(ds, n)[1], labels)
    assert ds.test_features.tobytes() == test_features.tobytes()
    assert np.array_equal(ds.test_labels, test_labels)


def test_dataset_deterministic_per_seed():
    counts = [[4, 4], [4, 4]]
    a = SyntheticDataset.generate(counts, n_features=3, seed=6)
    b = SyntheticDataset.generate(counts, n_features=3, seed=6)
    assert np.array_equal(a.test_features, b.test_features)
    assert np.array_equal(a.features, b.features)


def small_dataset():
    """Eight clients, 3 classes and 4 features: clients 0-6 hold 3 rows
    each and client 7 the last 5 (rows 21-25); 45 test rows."""
    return SyntheticDataset.generate(
        [[1, 1, 1]] * 7 + [[2, 2, 1]], n_features=4, seed=0, test_per_class=15
    )


def _nan_at(features, row, col):
    out = features.copy()
    out[row, col] = math.nan
    return out


def _label_at(labels, row, label):
    out = labels.copy()
    out[row] = label
    return out


@pytest.mark.parametrize("change, message", [
    (lambda ds: dict(features=np.zeros(26)),
     r"^features must be a 2-D array of real numbers, got float64 of shape \(26,\)$"),
    (lambda ds: dict(features=np.zeros((26, 1, 2))),
     r"^features must be a 2-D array .* shape \(26, 1, 2\)"),
    (lambda ds: dict(features=ds.features.tolist()),
     "^features must be a 2-D array of real numbers, got list$"),
    (lambda ds: dict(features=np.ones((26, 4), dtype=bool)),
     r"^features must .* real numbers, got bool of shape \(26, 4\)$"),
    (lambda ds: dict(features=np.ones((26, 4), dtype=complex)),
     r"^features must .* real numbers, got complex128 of shape \(26, 4\)$"),
    (lambda ds: dict(features=_nan_at(ds.features, 21 + 3, 1)),
     "^client 7: features must be finite, got nan at row 3, column 1$"),
    (lambda ds: dict(features=np.where(np.arange(26)[:, None] >= 21, -math.inf, ds.features)),
     "^client 7: features must be finite, got -inf at row 0, column 0$"),
    (lambda ds: dict(features=ds.features[:-1]), "^features have 25 rows for 26 labels$"),
    (lambda ds: dict(features=np.ones((27, 4))), "^features have 27 rows for 26 labels$"),
    (lambda ds: dict(labels=_label_at(ds.labels, 21 + 2, 3)),
     r"^client 7: labels must lie in \[0, 3\), got 3$"),
    # what the type closes: each of these used to train or fail late
    (lambda ds: dict(test_labels=ds.test_labels + 5),
     r"^test_labels must lie in \[0, 3\), got [5-7]$"),
    (lambda ds: dict(test_features=np.ones((45, 5))),
     "^test_features must have the clients' 4 columns, got 5$"),
    (lambda ds: dict(test_features=ds.test_features[:-1]),
     "^test_features have 44 rows for 45 test_labels$"),
    (lambda ds: dict(test_features=_nan_at(ds.test_features, 2, 1)),
     "^test_features must be finite, got nan at row 2, column 1$"),
    (lambda ds: dict(test_features=ds.test_features[:, 0]),
     r"^test_features must be a 2-D array of real numbers, got float64 of shape \(45,\)"),
    (lambda ds: dict(client_sizes=ds.client_sizes[:-1]),
     r"^client_sizes must be 1-D and sum to the 26 feature rows, got shape \(7,\) summing "
     "to 21$"),
    (lambda ds: dict(client_sizes=np.append(ds.client_sizes, 1)),
     "^client_sizes must be 1-D and sum to the 26 feature rows, .* summing to 27$"),
    (lambda ds: dict(client_sizes=ds.client_sizes.reshape(2, 4)),
     r"^client_sizes must be 1-D .*, got shape \(2, 4\) summing to 26$"),
    (lambda ds: dict(client_sizes=ds.client_sizes.astype(float)),
     r"^client_sizes must be integers, got float64 of shape \(8,\)$"),
    (lambda ds: dict(client_sizes=np.array([3] * 6 + [9, -1])),
     r"^client 7: labels must hold at least one entry, got client_sizes\[7\] = -1$"),
    (lambda ds: dict(client_sizes=np.array([2**64 - 1] + [3] * 6 + [6], dtype=np.uint64)),
     f"^client_sizes must be 1-D and sum to the 26 feature rows, .* summing to {2**64 + 23}$"),
    (lambda ds: dict(labels=ds.labels.reshape(2, 13)),  # its repr takes two lines
     r"^labels must be a 1-D integer array with at least one entry, got int64 of shape "
     r"\(2, 13\)$"),
], ids=["1d", "3d", "list", "bool", "complex", "nan", "inf", "fewer_rows", "more_rows",
        "label_k", "test_label_k", "test_width", "test_rows", "test_nan", "test_1d",
        "sizes_one_short",
        "sizes_one_over", "sizes_2d", "sizes_float", "sizes_negative", "sizes_huge",
        "labels_2d"])
def test_dataset_refuses_data_it_cannot_train_on(change, message):
    """One line, naming the client and the row within it where a client's
    rows are at fault, instead of a bare IndexError (1-D features), a
    divergence blamed on the learning rate (NaN features), a silent
    [0.0] curve (test labels of no class), a silent score (NaN test
    features), a model shape the caller never gave (a test set of
    another width) or a partition error (one client size short)."""
    ds = small_dataset()
    assert ds.client_sizes.tolist() == [3] * 7 + [5]
    with pytest.raises(InvalidValueError, match=message) as info:
        dataclasses.replace(ds, **change(ds))
    assert "\n" not in str(info.value)


def test_dataset_names_the_client_and_its_row_whose_features_are_refused():
    ds = toy_dataset()  # 4 clients of 90 rows
    with pytest.raises(InvalidValueError,
                       match="^client 2: features must be finite, got nan at row 1, column 0$"):
        dataclasses.replace(ds, features=_nan_at(ds.features, 2 * 90 + 1, 0))


def test_dataset_refuses_a_client_without_samples():
    ds = small_dataset()
    sizes = np.array([0, 6] + [3] * 5 + [5])
    words = r"^client 0: labels must hold at least one entry, got client_sizes\[0\] = 0$"
    with pytest.raises(InvalidValueError, match=words):
        dataclasses.replace(ds, client_sizes=sizes)


def one_client(labels, n_classes=3):
    """A one-client dataset of ``labels`` on 2-feature rows, with a valid test set."""
    features = np.ones((len(labels), 2))
    return SyntheticDataset(
        features, labels, np.array([len(labels)]), np.ones((3, 2)), np.array([0, 1, 2]),
        n_classes,
    )


@pytest.mark.parametrize("labels, message", [
    (np.array([0, 3, 1]), r"^client 0: labels must lie in \[0, 3\), got 3$"),  # label K
    (np.array([0, 1, -1]), r"^client 0: labels must lie in \[0, 3\), got -1$"),  # label -1
    (np.array([[0, 1, 2]]), r"^labels must be a 1-D integer array .*, got int64 of shape "
                            r"\(1, 3\)$"),
    (np.array([0.0, 1.0]), r"^labels must be a 1-D integer array .*, got float64 of shape "
                           r"\(2,\)$"),
    (np.array([True, False]), r"^labels must be a 1-D integer array .*, got bool of shape "
                              r"\(2,\)$"),
    (np.zeros(0, np.int64), r"^labels must be a 1-D integer array .*, got int64 of shape "
                            r"\(0,\)$"),
    ([0, 1, 2], "^labels must be a 1-D integer array .*, got list$"),
], ids=["label_k", "label_minus_one", "2d", "float", "bool", "empty", "list"])
def test_dataset_refuses_labels_it_cannot_place(labels, message):
    with pytest.raises(InvalidValueError, match=message):
        one_client(labels)


@pytest.mark.parametrize("n_classes", [0, 2.0, True])
def test_dataset_refuses_a_class_count_that_is_not_a_positive_integer(n_classes):
    # 2.0 used to be blamed on "client 0: n_classes must be an integer"
    with pytest.raises(InvalidValueError, match=f"^n_classes must be .*, got {n_classes!r}$"):
        one_client(np.array([0, 0]), n_classes)


def _flat_indices(targets):
    """Flat true-class indices ``labels * n + arange(n)`` into a C-order (K, n) block."""
    n = targets.shape[1]
    return targets.argmax(axis=0) * n + np.arange(n)


@pytest.mark.parametrize("change, message", [
    (lambda t: t, "labels must be a 1-D"),  # the one-hot matrix itself
    (_flat_indices, r"client 0: labels must lie in \[0, 3\)"),
    (lambda t: t.T, "labels must be a 1-D"),  # (n, K)
    (lambda t: np.zeros((4, t.shape[1])), "labels must be a 1-D"),  # K + 1 rows
    (lambda t: t[:, :-1], "labels must be a 1-D"),  # one column short
    (lambda t: t.astype(np.int64), "labels must be a 1-D"),
    (lambda t: t.astype(np.float32), "labels must be a 1-D"),
    (lambda t: t.astype(bool), "labels must be a 1-D"),
    (lambda t: t.tolist(), "labels must be a 1-D"),
], ids=["onehot", "flat_indices", "transposed", "wrong_k", "short", "int_dtype", "float",
        "bool", "list"])
def test_dataset_refuses_targets_in_place_of_labels(change, message):
    """The dataset holds labels, and the learner builds its targets from
    them; the one-hot matrix in any form, handed over in place of a
    client's labels, is refused where the dataset is built."""
    features, labels = client_data(toy_dataset(), 0)
    targets = onehot_targets(labels, 3)
    with pytest.raises(InvalidValueError, match="^" + message):
        SyntheticDataset(features, change(targets), np.array([len(labels)]), features, labels, 3)


# -- training loop ---------------------------------------------------------------------

def test_run_hfl_single_edge_single_round_equals_plain_fedavg():
    ds = toy_dataset(clients=3)
    out, curve = run_hfl([{0, 1, 2}], ds, tau_c=4, tau_e=1, tau_g=1, lr=0.05, seed=9)
    start = init_params(ds.n_classes, ds.n_features, 9)
    k = ds.n_classes
    locals_ = [train(start, *client_data(ds, n), k, 4, 0.05) for n in range(3)]
    manual = edge_aggregate(locals_, [len(client_data(ds, n)[1]) for n in range(3)])
    assert np.array_equal(out, manual)
    assert len(curve) == 1


def test_run_hfl_iid_separable_reaches_ninety_percent():
    # central upper-bound first: the same learner trained on the pooled
    # data must clear the bar for the federated claim to be meaningful
    ds = toy_dataset(seed=10, clients=4)
    central = train(init_params(3, 4, 0), ds.features, ds.labels, 3, 250, 0.1)
    assert accuracy(central, ds.test_features, ds.test_labels) >= 0.9

    _, curve = run_hfl([{0, 1}, {2, 3}], ds, tau_c=5, tau_e=1, tau_g=50, lr=0.1, seed=0)
    assert max(curve) >= 0.9


def test_run_hfl_bit_reproducible():
    ds = toy_dataset(seed=11)
    a, curve_a = run_hfl([{0, 1}, {2, 3}], ds, tau_c=3, tau_e=2, tau_g=3, lr=0.1, seed=1)
    b, curve_b = run_hfl([{0, 1}, {2, 3}], ds, tau_c=3, tau_e=2, tau_g=3, lr=0.1, seed=1)
    assert np.array_equal(a, b)
    assert curve_a == curve_b


def test_run_hfl_independent_of_member_iteration_order():
    ds = toy_dataset(seed=12)
    a, _ = run_hfl([{1, 0}, {3, 2}], ds, tau_c=2, tau_e=2, tau_g=2, lr=0.1, seed=2)
    b, _ = run_hfl([{0, 1}, {2, 3}], ds, tau_c=2, tau_e=2, tau_g=2, lr=0.1, seed=2)
    assert np.array_equal(a, b)


def test_run_hfl_rejects_empty_coalition():
    ds = toy_dataset()
    with pytest.raises(ValueError):
        run_hfl([set(), {0, 1, 2, 3}], ds, tau_c=1, tau_e=1, tau_g=1, lr=0.1)


@pytest.mark.parametrize("value", [0, 2.5, True])
@pytest.mark.parametrize("name", ["tau_c", "tau_e", "tau_g"])
def test_run_hfl_rejects_a_period_that_is_not_a_positive_integer(name, value):
    periods = {"tau_c": 1, "tau_e": 1, "tau_g": 1, name: value}
    with pytest.raises(InvalidValueError, match=f"^{name} must be"):
        run_hfl([0, 0, 1, 1], toy_dataset(), lr=0.1, **periods)


def c7_like(seed=0):
    """One C7 instance: 20 two-shard clients of 60 samples on 4 edges."""
    scenario = generate_scenario(
        seed=1000 + seed, n_clients=20, n_edges=4, n_classes=10, shards=2, data_size=60
    )
    counts = label_count_matrix(scenario)
    dataset = SyntheticDataset.generate(
        counts.tolist(), n_features=8, seed=2000 + seed, class_sep=1.0, noise=1.0,
        test_per_class=200,
    )
    initial = random_partition(counts, 4, np.random.default_rng(seed))
    formed, _ = run_coalition_formation(initial, max_iters=4000, rng_seed=seed)
    return formed.assignment, dataset


@pytest.mark.parametrize("case", ["c7", "toy_two_edges", "toy_one_edge"])
def test_run_hfl_matches_the_reference_loop(case):
    if case == "c7":
        assignment, ds = c7_like()
        periods = dict(tau_c=5, tau_e=40, tau_g=2, lr=0.8, seed=0)
    else:
        ds = toy_dataset(seed=14)
        assignment = np.array([0, 1, 1, 0] if case == "toy_two_edges" else [0, 0, 0, 0])
        periods = dict(tau_c=3, tau_e=4, tau_g=5, lr=0.1, seed=3)
    model, curve = run_hfl(assignment, ds, **periods)
    params_ref, curve_ref = run_hfl_ref(assignment.tolist(), ds, **periods)
    assert curve == curve_ref
    np.testing.assert_allclose(flat_params(model), params_ref, rtol=0, atol=1e-12)


@st.composite
def tiny_hfl_instance(draw):
    """Degenerate learner runs: 1-sample clients, K = 1-3, singleton
    coalitions and M = N."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    most = 1 if draw(st.booleans()) else 3  # one sample per client, or a few
    counts = np.zeros((n, k), dtype=np.int64)
    for client in range(n):
        np.add.at(counts[client], rng.integers(k, size=int(rng.integers(1, most + 1))), 1)
    m = draw(st.sampled_from([n, 1, int(rng.integers(1, n + 1))]))
    assignment = rng.integers(m, size=n)
    assignment[rng.permutation(n)[:m]] = np.arange(m)  # no empty coalition
    dataset = SyntheticDataset.generate(
        counts.tolist(), n_features=draw(st.integers(1, 3)), seed=draw(st.integers(0, 99)),
        test_per_class=draw(st.integers(1, 4)),
    )
    periods = dict(
        tau_c=draw(st.integers(1, 3)), tau_e=draw(st.integers(1, 3)),
        tau_g=draw(st.integers(1, 3)), lr=draw(st.sampled_from([0.05, 0.5, 1.0])),
        seed=draw(st.integers(0, 99)),
    )
    return assignment, dataset, periods


@given(tiny_hfl_instance())
@settings(max_examples=60, deadline=None)
def test_run_hfl_matches_the_reference_loop_on_degenerate_instances(instance):
    assignment, ds, periods = instance
    model, curve = run_hfl(assignment, ds, **periods)
    params_ref, curve_ref = run_hfl_ref(assignment.tolist(), ds, **periods)
    assert curve == curve_ref
    np.testing.assert_allclose(flat_params(model), params_ref, rtol=0, atol=1e-12)


def test_run_hfl_calls_through_module_bindings(monkeypatch):
    """The per-client and per-step calls go through ``leapsim.hfl``'s globals.

    The benchmark's tracer wraps these two names to count one local
    training call per client per edge iteration and tau_c gradients per
    call; a refactor that binds or inlines them elsewhere fails here.
    The wrappers also record what each call is handed: every step of a
    ``local_train`` call reads that call's chunk and steps its ``out``,
    and the five clients are five chunks, each called every edge
    iteration.
    """
    calls = {"local_train": 0, "softmax_loss_and_grad": 0}
    handed = []  # per local_train call: (chunk, out, [(weights, chunk) of each step])

    def counted_train(chunk, tau_c, lr, out, _real=hfl.local_train):
        calls["local_train"] += 1
        handed.append((chunk, out, []))
        return _real(chunk, tau_c, lr, out)

    def counted_step(weights, chunk, _real=hfl.softmax_loss_and_grad):
        calls["softmax_loss_and_grad"] += 1
        handed[-1][2].append((weights, chunk))
        return _real(weights, chunk)

    monkeypatch.setattr(hfl, "local_train", counted_train)
    monkeypatch.setattr(hfl, "softmax_loss_and_grad", counted_step)
    ds = toy_dataset(clients=5)
    tau_c, tau_e, tau_g = 3, 2, 4
    run_hfl(np.array([0, 1, 0, 1, 1]), ds, tau_c=tau_c, tau_e=tau_e, tau_g=tau_g, lr=0.1)
    assert calls["local_train"] == 5 * tau_e * tau_g, "one local_train per client per edge step"
    assert calls["softmax_loss_and_grad"] == tau_c * calls["local_train"], (
        "tau_c softmax_loss_and_grad calls per local_train"
    )
    assert all(len(steps) == tau_c for _, _, steps in handed)
    assert all(weights is out and step_chunk is chunk
               for chunk, out, steps in handed for weights, step_chunk in steps), (
        "the tau_c steps of one local_train call step its out on its chunk"
    )
    assert len({id(chunk) for chunk, _, _ in handed}) == 5


def test_run_hfl_prepares_each_client_once_per_run(monkeypatch):
    """Below ``BATCH_MIN_STEPS`` (120 client steps here) one call of the one
    builder prepares the whole dataset, with no byte budget: one chunk per
    client."""
    prepared = []

    def counted_prepare(dataset, chunk_bytes, _real=hfl.prepare_runs):
        chunks = _real(dataset, chunk_bytes)
        prepared.append((dataset, chunk_bytes, len(chunks)))
        return chunks

    monkeypatch.setattr(hfl, "prepare_runs", counted_prepare)
    ds = toy_dataset(clients=5)
    run_hfl(np.array([0, 1, 0, 1, 1]), ds, tau_c=3, tau_e=2, tau_g=4, lr=0.1)
    assert prepared == [(ds, 0, 5)], "one whole-dataset preparation per run_hfl"


# -- batched local steps ----------------------------------------------------------------

@pytest.mark.parametrize("chunk_bytes, cuts", [
    (hfl.CHUNK_BYTES, [(0, 3), (3, 5), (5, 6)]),
    (100, [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]),  # 48 bytes of logits / client of 3
    (1, [(n, n + 1) for n in range(6)]),
], ids=["default", "two_of_three", "one"])
def test_prepare_runs_cuts_clients_into_equal_size_chunks_with_the_per_client_bits(
    chunk_bytes, cuts
):
    """Maximal runs of equal sample count in id order, cut into chunks of
    at most ``chunk_bytes`` of logits, each in fresh read-only C-order
    arrays, whatever the layout of the features, which are not written
    to.  A chunk of B clients of n samples holds client b's design
    [X | 1] and its rows divided by n at b, and its one-hot targets
    (K, n) in columns b·n to (b + 1)·n - 1 of one (K, B·n) block, the
    shape of the step's logits; the step returns a fresh (B, K, d + 1)
    gradient."""
    ds = SyntheticDataset.generate(
        [[2, 1], [3, 0], [1, 2], [2, 2], [0, 4], [1, 1]], n_features=3, seed=4
    )  # sizes 3, 3, 3, 4, 4, 2
    ds = dataclasses.replace(ds, features=np.asfortranarray(ds.features))
    kept = ds.features.copy()
    chunks = prepare_runs(ds, chunk_bytes)
    assert [(rows.start, rows.stop) for rows, _ in chunks] == cuts
    for rows, chunk in chunks:
        count, size = rows.stop - rows.start, int(ds.client_sizes[rows.start])
        assert chunk.targets.nbytes <= chunk_bytes or count == 1
        for field in dataclasses.fields(chunk):
            array = getattr(chunk, field.name)
            assert array.flags.c_contiguous and array.base is None
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        assert chunk.design.shape == chunk.mean_design.shape == (count, size, 4)
        assert chunk.targets.shape == (2, count * size)
        grad = softmax_loss_and_grad(np.zeros((count, 2, 4)), chunk)
        assert grad.shape == (count, 2, 4) and grad.flags.c_contiguous and grad.flags.writeable
        assert not any(np.shares_memory(grad, getattr(chunk, field.name))
                       for field in dataclasses.fields(chunk))
        for b, n in enumerate(range(6)[rows]):
            features, labels = client_data(ds, n)
            design = np.column_stack((features, np.ones(size)))
            assert chunk.design[b].tobytes() == design.tobytes()
            assert chunk.mean_design[b].tobytes() == (design / size).tobytes()
            columns = chunk.targets[:, b * size:(b + 1) * size]
            assert np.ascontiguousarray(columns).tobytes() == onehot_targets(labels, 2).tobytes()
    assert np.array_equal(ds.features, kept)


@pytest.mark.parametrize("chunk_bytes", [hfl.CHUNK_BYTES, 320, 0], ids=["default", "two", "one"])
def test_chunks_share_no_memory_and_a_local_train_writes_its_own_rows_alone(chunk_bytes):
    """No two arrays of one ``prepare_runs`` share memory, within a chunk
    or across chunks of the same shape, and a ``local_train`` on one
    chunk leaves every chunk's arrays, its own included, and every other
    row of the stack, bit for bit as they were.  (320 bytes hold the
    logits of two clients of 4 samples.)"""
    rng = np.random.default_rng(3)
    sizes = [4] * 6 + [7] * 4 + [1] * 3 + [4] * 2
    ds = SyntheticDataset.generate(
        [rng.multinomial(size, [0.2] * 5).tolist() for size in sizes], n_features=3, seed=3
    )
    chunks = prepare_runs(ds, chunk_bytes)
    owned = [[getattr(chunk, field.name) for field in dataclasses.fields(chunk)]
             for _, chunk in chunks]
    for first, second in itertools.combinations(itertools.chain(*owned), 2):
        assert not np.shares_memory(first, second)
    stack = rng.standard_normal((len(sizes), 5, 4))
    arrays = list(itertools.chain(*owned))
    for rows, chunk in chunks:
        kept, kept_stack = [array.tobytes() for array in arrays], stack.copy()
        local_train(chunk, 3, 0.1, stack[rows])
        assert [array.tobytes() for array in arrays] == kept
        outside = np.ones(len(stack), dtype=bool)
        outside[rows] = False
        assert stack[outside].tobytes() == kept_stack[outside].tobytes()
        assert not np.array_equal(stack[rows], kept_stack[rows])
    assert len(chunks) > 1


@pytest.mark.parametrize("chunk_bytes", [hfl.CHUNK_BYTES, 320, 0], ids=["default", "two", "one"])
def test_a_preparation_holds_the_clients_data_and_nothing_more(chunk_bytes):
    """The arrays of one ``prepare_runs`` hold (2·(d + 1) + K)·Σn float64
    values, each sample's design row, that row divided by n and its
    one-hot target column; the step's logits, column and gradient are its
    own."""
    rng = np.random.default_rng(4)
    sizes = [4] * 6 + [7] * 4 + [1] * 3 + [4] * 2
    ds = SyntheticDataset.generate(
        [rng.multinomial(size, [0.2] * 5).tolist() for size in sizes], n_features=3, seed=4
    )
    held = sum(getattr(chunk, field.name).nbytes
               for _, chunk in prepare_runs(ds, chunk_bytes) for field in dataclasses.fields(chunk))
    assert held == 8 * (2 * (3 + 1) + 5) * sum(sizes)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 9, 60])
def test_a_stacked_step_gives_every_client_the_gradient_bits_it_has_alone(n):
    """A grid of B clients of n samples, K classes and d + 1 design
    columns, each in chunks of ``prepare_runs`` with room for all B: the
    gradient of a stacked step, at a model of the client's own, equals
    the bits of that client stepped alone, as a chunk of one whose logits
    are its own (K, n).  One sample per client (from K = 8 on numpy sums
    a contiguous class column pairwise) gives one-client chunks."""
    rng = np.random.default_rng(n)
    for count, k, width in itertools.product(
        [1, 2, 3, 7, 20], [1, 2, 3, 7, 8, 9, 10, 11, 16, 50], [1, 2, 9, 17]
    ):
        d = width - 1
        features = rng.standard_normal((count * n, d))
        labels = rng.integers(k, size=count * n)
        ds = SyntheticDataset(features, labels, np.full(count, n), features, labels, k)
        chunks = prepare_runs(ds, 8 * k * n * count)
        cuts = [(0, count)] if n > 1 else [(b, b + 1) for b in range(count)]
        assert [(rows.start, rows.stop) for rows, _ in chunks] == cuts
        models = 3.0 * rng.standard_normal((count, k, width))
        grad = np.concatenate([softmax_loss_and_grad(models[rows], chunk)
                               for rows, chunk in chunks])
        for b in range(count):
            rows = slice(b * n, (b + 1) * n)
            alone = prepared(features[rows], labels[rows], k)
            alone_grad = softmax_loss_and_grad(models[b:b + 1], alone)
            assert grad[b].tobytes() == alone_grad[0].tobytes(), (count, k, n, width, b)


def either_way(assignment, ds, **periods):
    """``run_hfl``'s outcome with every client in its own ``local_train``
    call and with each chunk of equal-size clients in one: the model's
    bytes and the curve, or the words of its ``TrainingDivergedError``;
    and the number of ``local_train`` calls of each."""
    outcomes, calls = [], []
    real = hfl.local_train

    def counted(*args):
        calls[-1] += 1
        return real(*args)

    for threshold in (math.inf, 0):
        calls.append(0)
        with mock.patch.object(hfl, "BATCH_MIN_STEPS", threshold), \
                mock.patch.object(hfl, "local_train", counted):
            try:
                model, curve = run_hfl(assignment, ds, **periods)
                outcomes.append((model.tobytes(), curve))
            except TrainingDivergedError as error:
                outcomes.append(str(error))
    return outcomes, calls


@pytest.mark.parametrize("seed", range(5))
def test_batched_run_hfl_equals_the_per_client_one_on_c7_runs(seed):
    """C7's ten runs (five seeds, the game's partition and a random one):
    equal sizes put all twenty clients in one chunk, one call per edge step."""
    assignment, ds = c7_like(seed)
    random = random_partition(
        label_count_matrix(generate_scenario(
            seed=1000 + seed, n_clients=20, n_edges=4, n_classes=10, shards=2, data_size=60
        )), 4, np.random.default_rng(7000 + seed),
    ).assignment
    for partition in (assignment, random):
        (per_client, batched), calls = either_way(
            partition, ds, tau_c=5, tau_e=40, tau_g=8, lr=0.8, seed=seed
        )
        assert isinstance(per_client, tuple) and batched == per_client
        assert calls == [20 * 40 * 8, 1 * 40 * 8]


@pytest.mark.parametrize("seed", range(32))
def test_batched_run_hfl_equals_the_per_client_one_on_unequal_sizes(seed):
    assignment, ds, periods = hfl_train_like(seed)
    (per_client, batched), calls = either_way(assignment, ds, **periods)
    assert isinstance(per_client, tuple) and batched == per_client
    assert calls[1] <= calls[0] == 20 * 3 * 2


@pytest.mark.parametrize("clients_per_chunk, calls", [(1, 20), (7, 3), (20, 1)])
def test_batched_run_hfl_moves_no_bit_with_the_chunk_size(monkeypatch, clients_per_chunk, calls):
    """Chunks of 1, 7 and all N clients train to the per-client bits, in
    one ``local_train`` call per chunk per edge iteration."""
    assignment, ds = c7_like(1)
    periods = dict(tau_c=5, tau_e=10, tau_g=2, lr=0.8, seed=1)
    logits_per_client = 8 * ds.n_classes * int(ds.client_sizes[0])
    assert np.all(ds.client_sizes == ds.client_sizes[0]) and ds.client_sizes.size == 20
    monkeypatch.setattr(hfl, "CHUNK_BYTES", clients_per_chunk * logits_per_client)
    (per_client, batched), counts = either_way(assignment, ds, **periods)
    assert isinstance(per_client, tuple) and batched == per_client
    assert counts == [20 * 10 * 2, calls * 10 * 2]


def test_batched_run_hfl_equals_the_per_client_one_when_runs_cross_coalitions():
    """Equal-size runs of ids 0-3, 4-5 and 6-7 each hold members of both
    coalitions: the chunks follow the ids, the aggregation the partition."""
    rng = np.random.default_rng(5)
    sizes = [3, 3, 3, 3, 5, 5, 2, 2]
    counts = [rng.multinomial(size, [0.25] * 4).tolist() for size in sizes]
    ds = SyntheticDataset.generate(counts, n_features=3, seed=5, test_per_class=10)
    assignment = np.array([0, 1, 0, 1, 1, 0, 0, 1])
    periods = dict(tau_c=3, tau_e=4, tau_g=3, lr=0.5, seed=5)
    (per_client, batched), calls = either_way(assignment, ds, **periods)
    assert isinstance(per_client, tuple) and batched == per_client
    assert calls == [8 * 4 * 3, 3 * 4 * 3]
    model, curve = run_hfl(assignment, ds, **periods)
    params_ref, curve_ref = run_hfl_ref(assignment.tolist(), ds, **periods)
    assert curve == curve_ref
    np.testing.assert_allclose(flat_params(model), params_ref, rtol=0, atol=1e-12)


def test_run_hfl_raises_when_an_aggregation_overflows(monkeypatch):
    """One client of 3 samples whose finite parameters near the float max
    (8.5e307 at lr 1.5e308) overflow in the data-size weighted sum of the
    first edge iteration: a typed error on both paths, not a model of
    +-inf, before any held-out score."""
    def no_score(*args):
        raise AssertionError("a model was scored before its aggregate was checked")

    monkeypatch.setattr(hfl, "accuracy", no_score)
    ds = SyntheticDataset.generate([[1, 2]], n_features=2, seed=0)
    with np.errstate(all="ignore"):
        outcomes, _ = either_way(np.array([0]), ds, tau_c=1, tau_e=1, tau_g=2, lr=1.5e308)
    assert outcomes == ["training diverged; lower the learning rate"] * 2


def test_run_hfl_raises_when_the_held_out_logits_overflow():
    """The same client at lr 1e308 trains to a finite model (max |entry|
    5.7e307) whose test logits overflow: a typed error, not a curve of
    argmaxes over infinities; and ``predict`` and ``accuracy`` refuse such
    a model with no numpy warning (which this suite turns into errors)."""
    ds = SyntheticDataset.generate([[1, 2]], n_features=2, seed=0)
    with np.errstate(all="ignore"):
        outcomes, _ = either_way(np.array([0]), ds, tau_c=1, tau_e=1, tau_g=1, lr=1e308)
    assert outcomes == ["training diverged; lower the learning rate"] * 2
    model = np.array([[5e307, -5e307, 0.0], [-5e307, 5e307, 1.0]])
    assert np.isfinite(model).all()
    words = "^training diverged; lower the learning rate$"
    with pytest.raises(TrainingDivergedError, match=words):
        predict(model, ds.test_features)
    with pytest.raises(TrainingDivergedError, match=words):
        accuracy(model, ds.test_features, ds.test_labels)


@given(
    tiny_hfl_instance(),
    st.sampled_from([None, None, 1e3, 1e300, 1e308, np.finfo(float).max]),
)
@settings(max_examples=300, deadline=None)
def test_batched_run_hfl_equals_the_per_client_one_on_degenerate_instances(instance, lr):
    """1-sample clients, K = 1, singleton coalitions, unequal sizes, and
    learning rates that diverge: the same bits, or the same error.  (Near
    1e308 an aggregation or a prediction may overflow on finite
    parameters; the CLI silences numpy's warnings, and so does this test.)"""
    assignment, ds, periods = instance
    if lr is not None:
        periods = {**periods, "lr": lr}
    with np.errstate(all="ignore"):
        (per_client, batched), _ = either_way(assignment, ds, **periods)
    assert batched == per_client
