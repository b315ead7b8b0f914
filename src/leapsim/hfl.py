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
per-class biases), labels as their ``onehot_targets``, a float64
(n_classes, n) matrix built once per client per run.  The benchmark
counts one ``local_train`` per client per edge iteration and tau_c
``softmax_loss_and_grad`` calls in each, through this module's
globals, so that call structure stays fixed.  Inside that structure a
local step does gradient arithmetic only: ``local_train`` makes the
parameter views and one gradient buffer once per call, the step
computes no loss and writes its gradient into that buffer, and
``local_train`` checks once, after its last step, that the parameters
are finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidValueError, TrainingDivergedError, check_integer
from .netmodel import coalition_assignment

__all__ = [
    "param_dim",
    "init_params",
    "unpack_params",
    "onehot_targets",
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


def onehot_targets(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """The float64 (n_classes, n) matrix with 1.0 at (labels[i], i), 0.0 elsewhere.

    InvalidValueError, naming the bad value, unless ``n_classes`` is an
    integer >= 1 and ``labels`` is a 1-D integer array with at least one
    entry, every one in [0, n_classes).  ``local_train`` trusts the
    values of a matrix of the right shape and dtype; this is where they
    are checked."""
    check_integer("n_classes", n_classes, 1)
    if not (
        isinstance(labels, np.ndarray)
        and labels.ndim == 1
        and labels.dtype.kind in "iu"
        and labels.size > 0
    ):
        raise InvalidValueError(
            f"labels must be a 1-D integer array with at least one entry, got {labels!r}"
        )
    outside = (labels < 0) | (labels >= n_classes)
    if outside.any():
        bad = labels[outside.argmax()]
        raise InvalidValueError(f"labels must lie in [0, {n_classes}), got {bad}")
    targets = np.zeros((n_classes, labels.size))
    targets[labels, np.arange(labels.size)] = 1.0
    return targets


def softmax_loss_and_grad(
    weights: np.ndarray,
    biases: np.ndarray,
    features: np.ndarray,
    targets: np.ndarray,
    grad: np.ndarray,
    grad_w: np.ndarray,
    grad_b: np.ndarray,
) -> None:
    """Write the mean cross-entropy's gradient into the flat ``grad``.

    ``weights`` (K, d) and ``biases`` (K, 1) are views of the flat
    parameters, ``targets`` is ``onehot_targets`` (K, n), and ``grad_w``
    (K, d) and ``grad_b`` (K,) are views of ``grad``; ``local_train``
    makes them once per call.  The logits are class-major, (K, n): the
    softmax reduces over axis 0 and subtracting ``targets`` leaves the
    logit gradient, softmax - onehot.  At a true class that is p - 1.0,
    elsewhere p - 0.0, which is p for every softmax output (>= +0.0 or
    NaN).  No loss is computed, since the learner reads none; the name
    is the one the benchmark counts once per step."""
    probs = np.dot(weights, features.T)
    probs += biases
    probs -= np.maximum.reduce(probs, axis=0)  # stable softmax
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=0)
    probs -= targets
    np.dot(probs, features, out=grad_w)
    np.add.reduce(probs, axis=1, out=grad_b)
    grad /= len(features)


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
    """tau_c full-batch gradient steps at ``targets`` (``onehot_targets``).

    Raises InvalidValueError, before the first step, unless ``tau_c`` is
    an integer >= 1, ``features`` has a row and ``targets`` is a float64
    ndarray of shape (n_classes, n), one column per row of ``features``,
    so that plain labels and flat indices are refused by their shape or
    dtype.  This check is O(1): the values of a matrix of that shape and
    dtype are trusted, since ``onehot_targets`` checks the labels it is
    built from.

    The weight and bias views of the trained copy, one gradient buffer
    and its weight and bias views are made once per call and reused by
    every step; ``out -= grad`` updates in place, so the views stay
    valid.

    Raises TrainingDivergedError (a FloatingPointError) if the
    parameters after the tau_c steps are not finite; the overflows on
    the way there are expected and not reported as numpy warnings.  This
    one check after the last step raises exactly when a check after
    every step of the parameters and of the loss, the mean of
    ``-log(p + 1e-300)`` over the true-class probabilities p, would:

    - ``out -= lr * grad`` never makes a non-finite entry finite again:
      NaN stays NaN, +-inf minus a finite value stays +-inf, and
      inf - inf is NaN.  A parameter that leaves the finite range at
      some step is still outside it after the last.
    - That loss can only stop being finite through a NaN true-class
      probability: probabilities lie in [0, 1] and the ``+ 1e-300``
      rules out log 0.  A NaN probability of class k puts NaN into
      class k's bias gradient (its sum over samples), so the same step
      leaves a NaN parameter.
    """
    check_integer("tau_c", tau_c, 1)
    n = len(features)
    shaped = isinstance(targets, np.ndarray) and targets.shape == (n_classes, n)
    if n == 0 or not (shaped and targets.dtype == np.float64):
        raise InvalidValueError(
            f"targets must be onehot_targets(labels, {n_classes}) for {n} samples, at least "
            f"one: float64 of shape ({n_classes}, {n})"
        )
    out = params.copy()
    grad = np.empty_like(out)
    weights, biases = unpack_params(out, n_classes, features.shape[1])
    grad_w, grad_b = unpack_params(grad, n_classes, features.shape[1])
    biases = biases[:, None]  # a column, added to every sample's logits
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(tau_c):
            softmax_loss_and_grad(weights, biases, features, targets, grad, grad_w, grad_b)
            grad *= lr
            out -= grad
        if not np.isfinite(out).all():
            raise TrainingDivergedError("training diverged; lower the learning rate")
    return out


def edge_aggregate(member_params: np.ndarray, member_sizes: Sequence[float]) -> np.ndarray:
    """Data-size weighted mean of the (members, P) rows, at the edge and the cloud alike.

    InvalidValueError if there is no row, if the sizes are not one per
    row, or if their total is not positive and finite."""
    rows = len(member_params)
    weights = np.asarray(member_sizes, dtype=float)
    if rows == 0 or weights.shape != (rows,):
        raise InvalidValueError(
            f"edge_aggregate needs at least one row and one size per row, got {rows} rows "
            f"and sizes of shape {weights.shape}"
        )
    total = weights.sum()
    if not 0.0 < total < math.inf:
        raise InvalidValueError(f"member sizes must have a positive finite total, got {total}")
    return weights @ member_params / total


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
        names the first client whose row does not, and so does an
        ``n_features`` or ``test_per_class`` that is not an integer >= 1."""
        check_integer("n_features", n_features, 1)
        check_integer("test_per_class", test_per_class, 1)
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
    global round; InvalidValueError if a tau is not an integer >= 1.
    """
    for name, tau in (("tau_c", tau_c), ("tau_e", tau_e), ("tau_g", tau_g)):
        check_integer(name, tau, 1)
    assignment, coalition_sizes = coalition_assignment(partition, len(dataset.client_labels))
    sizes = np.asarray(dataset.client_sizes, dtype=float)
    coalitions = [np.flatnonzero(assignment == m) for m in range(coalition_sizes.size)]
    member_sizes = [sizes[members] for members in coalitions]
    edge_sizes = np.bincount(assignment, weights=sizes)
    features, n_classes = dataset.client_features, dataset.n_classes
    targets = [onehot_targets(y, n_classes) for y in dataset.client_labels]

    params = init_params(n_classes, dataset.n_features, seed)
    buffers = [np.empty((members.size, params.size)) for members in coalitions]
    curve: list[float] = []
    for _ in range(tau_g):
        edge_params = np.tile(params, (len(coalitions), 1))
        for _ in range(tau_e):
            for edge, members, data_sizes, stacked in zip(
                edge_params, coalitions, member_sizes, buffers
            ):
                for row, n in enumerate(members):
                    stacked[row] = local_train(edge, features[n], targets[n], n_classes, tau_c, lr)
                edge[:] = edge_aggregate(stacked, data_sizes)
        params = edge_aggregate(edge_params, edge_sizes)
        curve.append(accuracy(params, dataset.test_features, dataset.test_labels, n_classes))
    return params, curve
