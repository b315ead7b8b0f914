import numpy as np
import pytest

from leapsim.hfl import (
    SyntheticDataset,
    accuracy,
    edge_aggregate,
    init_params,
    local_train,
    param_dim,
    run_hfl,
    softmax_loss_and_grad,
    unpack_params,
)


def toy_dataset(seed=0, n_classes=3, n_features=4, per_class=30, clients=4):
    counts = [[per_class] * n_classes for _ in range(clients)]
    return SyntheticDataset.generate(
        counts, n_features=n_features, seed=seed, class_sep=3.0, noise=0.7,
        test_per_class=50,
    )


# -- learner ------------------------------------------------------------------

def test_param_dim_and_unpack():
    params = init_params(3, 4, seed=0)
    assert params.shape == (param_dim(3, 4),)
    w, b = unpack_params(params, 3, 4)
    assert w.shape == (3, 4) and b.shape == (3,)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(12, 4))
    labels = rng.integers(3, size=12)
    params = 0.5 * rng.standard_normal(param_dim(3, 4))
    _, grad = softmax_loss_and_grad(params, features, labels, 3)
    eps = 1e-6
    for k in range(params.size):
        up, down = params.copy(), params.copy()
        up[k] += eps
        down[k] -= eps
        lu, _ = softmax_loss_and_grad(up, features, labels, 3)
        ld, _ = softmax_loss_and_grad(down, features, labels, 3)
        numeric = (lu - ld) / (2 * eps)
        denom = max(abs(grad[k]), 1e-8)
        assert abs(grad[k] - numeric) / denom < 1e-4


def test_single_step_matches_analytic_softmax_gradient():
    # one sample: grad_W = (softmax - onehot) x^T, grad_b = softmax - onehot
    x = np.array([[1.0, -2.0]])
    y = np.array([1])
    params = np.zeros(param_dim(2, 2))
    loss, grad = softmax_loss_and_grad(params, x, y, 2)
    probs = np.array([0.5, 0.5])  # zero logits
    delta = probs - np.array([0.0, 1.0])
    expected_w = np.outer(delta, x[0])
    expected_b = delta
    assert loss == pytest.approx(np.log(2.0), rel=1e-12)
    assert np.allclose(grad[:4].reshape(2, 2), expected_w, atol=1e-12)
    assert np.allclose(grad[4:], expected_b, atol=1e-12)


def test_local_train_zero_lr_is_identity():
    rng = np.random.default_rng(1)
    params = rng.normal(size=param_dim(3, 4))
    ds = toy_dataset()
    out = local_train(params, ds.client_features[0], ds.client_labels[0], 3, 5, 0.0)
    assert np.array_equal(out, params)
    assert out is not params  # input untouched


def test_local_train_decreases_loss_for_small_lr():
    ds = toy_dataset()
    params = init_params(3, 4, seed=2)
    before, _ = softmax_loss_and_grad(params, ds.client_features[0], ds.client_labels[0], 3)
    trained = local_train(params, ds.client_features[0], ds.client_labels[0], 3, 5, 0.01)
    after, _ = softmax_loss_and_grad(trained, ds.client_features[0], ds.client_labels[0], 3)
    assert after <= before


def test_local_train_raises_on_divergence():
    ds = toy_dataset()
    params = init_params(3, 4, seed=3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
        local_train(params, ds.client_features[0], ds.client_labels[0], 3, 5, 1e308)


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


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        edge_aggregate([], [])


# -- synthetic data -------------------------------------------------------------------

def test_dataset_honors_label_counts():
    counts = [[5, 0, 7], [0, 3, 0]]
    ds = SyntheticDataset.generate(counts, n_features=4, seed=5)
    for n, expected in enumerate(counts):
        hist = np.bincount(ds.client_labels[n], minlength=3)
        assert hist.tolist() == expected


def test_dataset_deterministic_per_seed():
    counts = [[4, 4], [4, 4]]
    a = SyntheticDataset.generate(counts, n_features=3, seed=6)
    b = SyntheticDataset.generate(counts, n_features=3, seed=6)
    assert np.array_equal(a.test_features, b.test_features)
    assert all(np.array_equal(x, y) for x, y in zip(a.client_features, b.client_features))


# -- training loop ---------------------------------------------------------------------

def test_run_hfl_single_edge_single_round_equals_plain_fedavg():
    ds = toy_dataset(clients=3)
    out, curve = run_hfl([{0, 1, 2}], ds, tau_c=4, tau_e=1, tau_g=1, lr=0.05, seed=9)
    start = init_params(ds.n_classes, ds.n_features, 9)
    locals_ = [
        local_train(start, ds.client_features[n], ds.client_labels[n], ds.n_classes, 4, 0.05)
        for n in range(3)
    ]
    manual = edge_aggregate(locals_, [len(ds.client_labels[n]) for n in range(3)])
    assert np.array_equal(out, manual)
    assert len(curve) == 1


def test_run_hfl_iid_separable_reaches_ninety_percent():
    # central upper-bound first: the same learner trained on the pooled
    # data must clear the bar for the federated claim to be meaningful
    ds = toy_dataset(seed=10, clients=4)
    pooled_x = np.concatenate(ds.client_features)
    pooled_y = np.concatenate(ds.client_labels)
    central = local_train(
        init_params(3, 4, 0), pooled_x, pooled_y, 3, 250, 0.1
    )
    assert accuracy(central, ds.test_features, ds.test_labels, 3) >= 0.9

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
