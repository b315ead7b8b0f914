"""Desk-scale hierarchical FedAvg on synthetic Gaussian-cluster data.

The learner is multinomial logistic regression trained by full-batch
gradient descent, which keeps every run deterministic for a fixed seed
and makes the effect of cross-edge label skew visible within seconds.
One global round runs tau_e edge iterations; each edge iteration runs
tau_c local passes on every member and aggregates the members'
parameters by data size.  Global aggregation averages the edge models,
again by data size, and the held-out accuracy is recorded once per
global round.

Parameters travel as one flat vector (class-by-feature weights, then
per-class biases), labels as their flat ``logit_targets``.  The
benchmark counts one ``local_train`` per client per edge iteration and
tau_c ``softmax_loss_and_grad`` calls in each, through this module's
globals, so that call structure stays fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidValueError, TrainingDivergedError
from .netmodel import coalition_assignment

__all__ = [
    "param_dim",
    "init_params",
    "unpack_params",
    "logit_targets",
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


def logit_targets(labels: np.ndarray) -> np.ndarray:
    """Each sample's flat index ``labels * n + arange(n)`` in a C-order (K, n) block."""
    n = len(labels)
    return labels * n + np.arange(n)


def softmax_loss_and_grad(
    params: np.ndarray, features: np.ndarray, targets: np.ndarray, n_classes: int
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy and its gradient in flat-parameter layout.

    The logits are class-major, (n_classes, n): the softmax reduces over
    axis 0, the true-class entries are read and written at ``targets``
    (``logit_targets``) in the flat view, and the weight and bias
    gradients go straight into one fresh flat vector."""
    n, d = features.shape
    kd = n_classes * d
    probs = np.dot(params[:kd].reshape(n_classes, d), features.T)
    probs += params[kd:, None]
    probs -= np.maximum.reduce(probs, axis=0)  # stable softmax
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=0)
    flat = probs.reshape(-1)
    picked = flat[targets]
    flat[targets] = picked - 1.0  # probs now holds the logit gradient, softmax - onehot
    picked += 1e-300
    loss = -float(np.add.reduce(np.log(picked, out=picked))) / n
    grad = np.empty(kd + n_classes)
    np.dot(probs, features, out=grad[:kd].reshape(n_classes, d))
    np.add.reduce(probs, axis=1, out=grad[kd:])
    grad /= n
    return loss, grad


def predict(params: np.ndarray, features: np.ndarray, n_classes: int) -> np.ndarray:
    weights, biases = unpack_params(params, n_classes, features.shape[1])
    return np.argmax(features @ weights.T + biases, axis=1)


def accuracy(
    params: np.ndarray, features: np.ndarray, labels: np.ndarray, n_classes: int
) -> float:
    return float(np.mean(predict(params, features, n_classes) == labels))


def local_train(
    params: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    n_classes: int,
    tau_c: int,
    lr: float,
) -> np.ndarray:
    """tau_c full-batch gradient steps at ``targets`` (``logit_targets``).

    Raises TrainingDivergedError (a FloatingPointError) as soon as the
    loss or a parameter stops being finite; the overflows on the way
    there are expected and not reported as numpy warnings.
    """
    out = params.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(tau_c):
            loss, grad = softmax_loss_and_grad(out, features, targets, n_classes)
            grad *= lr
            out -= grad
            if not (math.isfinite(loss) and np.isfinite(out).all()):
                raise TrainingDivergedError("training diverged; lower the learning rate")
    return out


def edge_aggregate(member_params: np.ndarray, member_sizes: Sequence[float]) -> np.ndarray:
    """Data-size weighted mean of the (members, P) rows, at the edge and the cloud alike."""
    if len(member_params) == 0:
        raise ValueError("nothing to aggregate")
    weights = np.asarray(member_sizes, dtype=float)
    return weights @ member_params / weights.sum()


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
        """Draw every client's samples, then the test set, from one seeded stream.

        Each client's row of per-class counts must hold integers >= 0 with
        a positive total, as many as the first row's; InvalidValueError
        names the first client whose row does not."""
        if len(label_counts) == 0:
            raise InvalidValueError("label_counts must hold at least one client")
        n_classes = len(label_counts[0])
        for client, counts in enumerate(label_counts):
            row = np.asarray(counts)
            shaped = row.shape == (n_classes,) and row.dtype.kind in "iu"
            if not (shaped and row.min(initial=0) >= 0 and row.any()):
                raise InvalidValueError(
                    f"client {client}: label counts must be {n_classes} integers >= 0 with a "
                    f"positive total, got {counts!r}"
                )
        rng = np.random.default_rng(seed)
        means = class_sep * rng.standard_normal((n_classes, n_features))

        def draw(count_vector):
            labels = np.repeat(np.arange(n_classes), count_vector)
            features = means[labels] + noise * rng.standard_normal((labels.size, n_features))
            order = rng.permutation(labels.size)
            return features[order], labels[order]

        clients = [draw(counts) for counts in label_counts]
        test_x, test_y = draw([test_per_class] * n_classes)
        return cls(
            [x for x, _ in clients], [y for _, y in clients], test_x, test_y, n_classes, n_features
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
    aggregation so results do not depend on set iteration order, and
    write their results into one (members, P) buffer per coalition.
    Returns the final global parameters and one held-out accuracy per
    global round.
    """
    assignment, coalition_sizes = coalition_assignment(partition, len(dataset.client_labels))
    sizes = np.asarray(dataset.client_sizes, dtype=float)
    coalitions = [np.flatnonzero(assignment == m) for m in range(coalition_sizes.size)]
    edge_sizes = np.bincount(assignment, weights=sizes)
    features, n_classes = dataset.client_features, dataset.n_classes
    targets = [logit_targets(y) for y in dataset.client_labels]

    params = init_params(n_classes, dataset.n_features, seed)
    buffers = [np.empty((members.size, params.size)) for members in coalitions]
    curve: list[float] = []
    for _ in range(tau_g):
        edge_params = np.tile(params, (len(coalitions), 1))
        for _ in range(tau_e):
            for edge, members, stacked in zip(edge_params, coalitions, buffers):
                for row, n in enumerate(members):
                    stacked[row] = local_train(edge, features[n], targets[n], n_classes, tau_c, lr)
                edge[:] = edge_aggregate(stacked, sizes[members])
        params = edge_aggregate(edge_params, edge_sizes)
        curve.append(accuracy(params, dataset.test_features, dataset.test_labels, n_classes))
    return params, curve
