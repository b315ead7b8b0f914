"""Desk-scale hierarchical FedAvg on synthetic Gaussian-cluster data.

The learner is multinomial logistic regression trained by full-batch
gradient descent, which keeps every run deterministic for a fixed seed
and makes the effect of cross-edge label skew visible within seconds.
One global round runs tau_e edge iterations; each edge iteration runs
tau_c local passes on every member and aggregates the members'
parameters by data size.  Global aggregation averages the edge models,
again by data size, and the held-out accuracy is recorded once per
global round.

Parameters travel as a single flat vector holding the class-by-feature
weight matrix followed by the per-class biases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .netmodel import coalition_assignment

__all__ = [
    "param_dim",
    "init_params",
    "unpack_params",
    "softmax_loss_and_grad",
    "predict",
    "accuracy",
    "local_train",
    "edge_aggregate",
    "run_hfl",
    "SyntheticDataset",
]


def param_dim(n_classes: int, n_features: int) -> int:
    return n_classes * n_features + n_classes


def init_params(n_classes: int, n_features: int, seed: int | None = 0) -> np.ndarray:
    """Small Gaussian initialization, reproducible per seed."""
    rng = np.random.default_rng(seed)
    return 0.01 * rng.standard_normal(param_dim(n_classes, n_features))


def unpack_params(params: np.ndarray, n_classes: int, n_features: int):
    weights = params[: n_classes * n_features].reshape(n_classes, n_features)
    biases = params[n_classes * n_features :]
    return weights, biases


def _logits(params, features, n_classes):
    weights, biases = unpack_params(params, n_classes, features.shape[1])
    return features @ weights.T + biases


def softmax_loss_and_grad(
    params: np.ndarray, features: np.ndarray, labels: np.ndarray, n_classes: int
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient in flat-parameter layout."""
    n = features.shape[0]
    logits = _logits(params, features, n_classes)
    logits -= logits.max(axis=1, keepdims=True)  # stable softmax
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = -float(np.mean(np.log(probs[np.arange(n), labels] + 1e-300)))
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    grad_w = delta.T @ features / n
    grad_b = delta.mean(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


def predict(params: np.ndarray, features: np.ndarray, n_classes: int) -> np.ndarray:
    return np.argmax(_logits(params, features, n_classes), axis=1)


def accuracy(
    params: np.ndarray, features: np.ndarray, labels: np.ndarray, n_classes: int
) -> float:
    return float(np.mean(predict(params, features, n_classes) == labels))


def local_train(
    params: np.ndarray,
    features: np.ndarray,
    labels: np.ndarray,
    n_classes: int,
    tau_c: int,
    lr: float,
) -> np.ndarray:
    """tau_c full-batch gradient steps; raises on a diverging loss."""
    out = params.copy()
    for _ in range(tau_c):
        loss, grad = softmax_loss_and_grad(out, features, labels, n_classes)
        out -= lr * grad
        if not (np.isfinite(loss) and np.isfinite(out).all()):
            raise FloatingPointError("training diverged; lower the learning rate")
    return out


def edge_aggregate(
    member_params: Sequence[np.ndarray], member_sizes: Sequence[float]
) -> np.ndarray:
    """Data-size weighted parameter average, at the edge and the cloud alike."""
    if not member_params:
        raise ValueError("nothing to aggregate")
    stacked = np.stack(member_params)
    weights = np.asarray(member_sizes, dtype=float)
    return weights @ stacked / weights.sum()


@dataclass
class SyntheticDataset:
    """Gaussian class clusters split across clients by label histogram.

    Each class c has a fixed mean in feature space; every sample of
    class c is that mean plus isotropic noise.  Client data honors the
    requested per-client label counts exactly, and a balanced held-out
    test set is drawn from the same clusters.
    """

    client_features: list[np.ndarray]
    client_labels: list[np.ndarray]
    test_features: np.ndarray
    test_labels: np.ndarray
    n_classes: int
    n_features: int

    @property
    def client_sizes(self) -> list[int]:
        return [len(y) for y in self.client_labels]

    @classmethod
    def generate(
        cls,
        label_counts: Sequence[Sequence[int]],
        n_features: int = 16,
        seed: int = 0,
        class_sep: float = 2.0,
        noise: float = 1.0,
        test_per_class: int = 100,
    ) -> "SyntheticDataset":
        rng = np.random.default_rng(seed)
        n_classes = len(label_counts[0])
        means = class_sep * rng.standard_normal((n_classes, n_features))

        def draw(count_vector):
            feats, labs = [], []
            for c, count in enumerate(count_vector):
                if count == 0:
                    continue
                feats.append(means[c] + noise * rng.standard_normal((count, n_features)))
                labs.append(np.full(count, c, dtype=np.int64))
            features = np.concatenate(feats)
            labels = np.concatenate(labs)
            order = rng.permutation(len(labels))
            return features[order], labels[order]

        client_features, client_labels = [], []
        for counts in label_counts:
            x, y = draw(counts)
            client_features.append(x)
            client_labels.append(y)
        test_x, test_y = draw([test_per_class] * n_classes)
        return cls(
            client_features=client_features,
            client_labels=client_labels,
            test_features=test_x,
            test_labels=test_y,
            n_classes=n_classes,
            n_features=n_features,
        )


def run_hfl(
    partition,
    dataset: SyntheticDataset,
    tau_c: int,
    tau_e: int,
    tau_g: int,
    lr: float,
    seed: int = 0,
) -> tuple[np.ndarray, list[float]]:
    """Nested client/edge/global training loop.

    ``partition`` takes any form ``netmodel.coalition_assignment``
    accepts.  Members are visited in ascending id order inside every
    aggregation so results do not depend on set iteration order.
    Returns the final global parameters and one held-out accuracy per
    global round.
    """
    assignment, coalition_sizes = coalition_assignment(partition, len(dataset.client_labels))
    sizes = np.asarray(dataset.client_sizes, dtype=float)
    coalitions = [np.flatnonzero(assignment == m) for m in range(coalition_sizes.size)]
    edge_sizes = np.bincount(assignment, weights=sizes)

    params = init_params(dataset.n_classes, dataset.n_features, seed)
    curve: list[float] = []
    for _ in range(tau_g):
        edge_params = [params.copy() for _ in coalitions]
        for _ in range(tau_e):
            for m, members in enumerate(coalitions):
                locals_ = [
                    local_train(
                        edge_params[m],
                        dataset.client_features[n],
                        dataset.client_labels[n],
                        dataset.n_classes,
                        tau_c,
                        lr,
                    )
                    for n in members
                ]
                edge_params[m] = edge_aggregate(locals_, sizes[members])
        params = edge_aggregate(edge_params, edge_sizes)
        curve.append(
            accuracy(params, dataset.test_features, dataset.test_labels, dataset.n_classes)
        )
    return params, curve
