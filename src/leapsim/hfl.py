"""Desk-scale hierarchical FedAvg on synthetic Gaussian-cluster data.

The learner is multinomial logistic regression trained by full-batch
gradient descent, which keeps every run deterministic for a fixed seed
and makes the effect of cross-edge label skew visible within seconds.
One global round runs tau_e edge iterations; each edge iteration runs
tau_c local passes on every member and aggregates the members'
parameters by data size.  Global aggregation averages the edge models,
again by data size, and the held-out accuracy is recorded once per
global round.

A model is one (n_classes, n_features + 1) matrix [W | b], the
class-by-feature weights with the per-class biases as one more column,
and a local step works on the design matrix [X | 1], so that one matmul
gives the logits and one the whole gradient.  ``SyntheticDataset``
holds every client's rows in one array and is checked where it is
built.  The benchmark counts one ``local_train`` per client per edge
iteration and tau_c ``softmax_loss_and_grad`` calls in each, through
this module's globals, so that call structure stays fixed; once per
call ``local_train`` copies the edge model into the member's row of the
coalition's (members, K, d + 1) stack, runs its steps there and checks
once that the result is finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidValueError, TrainingDivergedError
from .errors import check_integer, check_number, check_seed, integer_array
from .netmodel import coalition_assignment

__all__ = [
    "init_params",
    "onehot_targets",
    "softmax_loss_and_grad",
    "predict",
    "accuracy",
    "PreparedClient",
    "prepare_clients",
    "local_train",
    "edge_aggregate",
    "run_hfl",
    "SyntheticDataset",
]


def init_params(n_classes: int, n_features: int, seed: int = 0) -> np.ndarray:
    """The model [W | b] (n_classes, n_features + 1), a small Gaussian draw
    reproducible per ``seed``, an integer in [0, 2**64) (InvalidValueError
    otherwise): the first K·d draws fill W row by row, the last K fill b."""
    kd = n_classes * n_features
    draws = 0.01 * np.random.default_rng(check_seed("seed", seed)).standard_normal(kd + n_classes)
    return np.column_stack((draws[:kd].reshape(n_classes, n_features), draws[kd:]))


def onehot_targets(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """The float64 (n_classes, n) matrix with 1.0 at (labels[i], i), 0.0
    elsewhere, for 1-D integer labels in [0, n_classes), which
    ``SyntheticDataset`` checks."""
    targets = np.zeros((n_classes, labels.size))
    targets[labels, np.arange(labels.size)] = 1.0
    return targets


def softmax_loss_and_grad(
    weights: np.ndarray,
    design: np.ndarray,
    targets: np.ndarray,
    mean_design: np.ndarray,
    grad: np.ndarray,
    logits: np.ndarray,
    column: np.ndarray,
) -> None:
    """Write the mean cross-entropy's gradient, as a (K, d + 1) matrix, into ``grad``.

    ``weights`` is the model [W | b] (K, d + 1), ``design`` the
    design matrix [X | 1] (n, d + 1), ``targets`` is ``onehot_targets``
    (K, n) and ``mean_design`` is ``design / n``; ``grad`` (K, d + 1),
    ``logits`` (K, n) and ``column`` (n,) are buffers made once per run
    (``prepare_clients`` and ``run_hfl``), so a step allocates nothing.
    The logits are class-major, [W | b] [X | 1]^T: the softmax reduces
    over axis 0 and subtracting ``targets`` leaves the logit gradient,
    softmax - onehot.  At a true class that is p - 1.0, elsewhere
    p - 0.0, which is p for every softmax output (>= +0.0 or NaN).  One
    more matmul with ``mean_design`` gives the weight gradient and, in
    the ones column, the bias gradient, both already divided by n.  No
    loss is computed, since the learner reads none; the name is the one
    the benchmark counts once per step."""
    np.dot(weights, design.T, out=logits)
    np.maximum.reduce(logits, axis=0, out=column)  # stable softmax
    logits -= column
    np.exp(logits, out=logits)
    np.add.reduce(logits, axis=0, out=column)
    logits /= column
    logits -= targets
    np.dot(logits, mean_design, out=grad)


def _check_model(model: np.ndarray, n_classes: int, n_features: int) -> None:
    """InvalidValueError unless ``model`` is a (n_classes, n_features + 1) matrix."""
    shape = (n_classes, n_features + 1)
    if np.shape(model) != shape:
        raise InvalidValueError(
            f"model must be a {shape} matrix [W | b], got shape {np.shape(model)}"
        )


def _check_features(features, prefix: str = "") -> None:
    """InvalidValueError, its line starting ``prefix``, unless ``features``
    is a 2-D array of real numbers."""
    if isinstance(features, np.ndarray) and features.ndim == 2 and features.dtype.kind in "fiu":
        return
    raise InvalidValueError(f"{prefix}features must be a 2-D array of real numbers, "
                            f"got {_described(features)}")


def _described(value) -> str:
    """An array by its shape and dtype, anything else by its type, in one line."""
    if isinstance(value, np.ndarray):
        return f"shape {value.shape} of dtype {value.dtype}"
    return type(value).__name__


def predict(model: np.ndarray, features: np.ndarray) -> np.ndarray:
    """The most likely of the model's K classes for every row of ``features``;
    InvalidValueError unless ``features`` is a 2-D array of real numbers and
    ``model`` a (K, d + 1) matrix [W | b], K >= 1."""
    _check_features(features)
    d, shape = features.shape[1], np.shape(model)
    if len(shape) != 2 or shape[0] == 0 or shape[1] != d + 1:
        raise InvalidValueError(f"model must be a (K, {d + 1}) matrix [W | b], got shape {shape}")
    return np.argmax(features @ model[:, :d].T + model[:, d], axis=1)


def accuracy(model: np.ndarray, features: np.ndarray, labels: np.ndarray) -> float:
    """The share of ``features`` rows that ``predict`` gives their label;
    InvalidValueError unless there is a row and ``labels`` is 1-D with one
    entry per row."""
    predicted = predict(model, features)
    if predicted.size == 0:
        raise InvalidValueError(
            f"accuracy needs at least one feature row, got shape {features.shape}"
        )
    if np.shape(labels) != predicted.shape:
        raise InvalidValueError("labels must be 1-D with one entry per feature row "
                                f"({predicted.size}), got shape {np.shape(labels)}")
    return float(np.mean(predicted == labels))


@dataclass(frozen=True, slots=True)
class PreparedClient:
    """One client's data as the local step reads it, built by ``prepare_clients``.

    ``design`` is the client's row block (n, d + 1) of the design [X | 1]
    and ``mean_design`` its row block of ``design / n``, both views;
    ``targets`` is its ``onehot_targets`` (K, n), and ``logits`` (K, n)
    and ``column`` (n,) are the step's scratch buffers, all three its own
    C-order arrays.  (A column block of one (K, rows) targets matrix is
    strided; with it a ``local_train`` at hfl_train's shape took ~6% longer.)"""

    design: np.ndarray
    mean_design: np.ndarray
    targets: np.ndarray
    logits: np.ndarray
    column: np.ndarray


def prepare_clients(dataset: SyntheticDataset) -> list[PreparedClient]:
    """What the local steps read, built once per run: the design [X | 1] of
    all rows as one fresh C-order array, whatever the layout of the
    features (so the layout moves no bit of a step), each row divided by
    its client's n, and every client's one-hot targets."""
    sizes, n_classes = dataset.client_sizes, dataset.n_classes
    rows, d = dataset.features.shape
    design = np.empty((rows, d + 1))
    design[:, :d] = dataset.features
    design[:, d] = 1.0
    mean_design = design / np.repeat(sizes, sizes)[:, None]
    ends = np.cumsum(sizes)
    return [
        PreparedClient(design[a:b], mean_design[a:b],
                       onehot_targets(dataset.labels[a:b], n_classes),
                       np.empty((n_classes, b - a)), np.empty(b - a))
        for a, b in zip(ends - sizes, ends)
    ]


def local_train(
    model: np.ndarray,
    client: PreparedClient,
    tau_c: int,
    lr: float,
    grad: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """tau_c full-batch gradient steps from ``model`` on one prepared client.

    ``model`` is copied into ``out``, a float64 (K, d + 1) matrix (in
    ``run_hfl`` the member's row of the coalition's stack), and every
    step updates ``out`` in place, ``out -= lr * grad``; ``out`` is
    returned and ``model`` is not written to.  ``grad`` is the step's
    (K, d + 1) gradient buffer, which ``run_hfl`` makes once per run and
    shares among its clients.  ``lr`` multiplies the gradient, not the
    design, so the step's result stays the gradient.  Raises
    InvalidValueError, before the first step, unless ``tau_c`` is an
    integer >= 1 and ``model`` a (K, d + 1) matrix [W | b].

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
      rules out log 0.  A NaN probability of class k at some sample
      meets that sample's 1 / n in the ones column of ``mean_design``,
      so class k's bias gradient, the last column of ``grad``, is NaN
      and the same step leaves a NaN parameter.
    """
    check_integer("tau_c", tau_c, 1)
    design, targets = client.design, client.targets
    _check_model(model, targets.shape[0], design.shape[1] - 1)
    mean_design, logits, column = client.mean_design, client.logits, client.column
    out[:] = model
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(tau_c):
            softmax_loss_and_grad(out, design, targets, mean_design, grad, logits, column)
            grad *= lr
            out -= grad
        if not np.isfinite(out).all():
            raise TrainingDivergedError("training diverged; lower the learning rate")
    return out


def edge_aggregate(stack: np.ndarray, sizes: Sequence[float]) -> np.ndarray:
    """Data-size weighted mean over the first axis of ``stack``, at the edge and the cloud alike.

    InvalidValueError if there is no row, if the sizes are not one per
    row, or if their total is not positive and finite."""
    stack = np.asarray(stack)
    rows = len(stack)
    weights = np.asarray(sizes, dtype=float)
    if rows == 0 or weights.shape != (rows,):
        raise InvalidValueError(
            f"edge_aggregate needs at least one row and one size per row, got {rows} rows "
            f"and sizes of shape {weights.shape}"
        )
    total = weights.sum()
    if not 0.0 < total < math.inf:
        raise InvalidValueError(f"member sizes must have a positive finite total, got {total}")
    return (weights @ stack.reshape(rows, -1) / total).reshape(stack.shape[1:])


@dataclass(frozen=True, slots=True, eq=False)
class SyntheticDataset:
    """The clients' training rows, client after client, and a held-out test set.

    Client n holds ``client_sizes[n]`` rows of ``features`` (rows, d) and
    ``labels`` (rows,).  The data is checked here and nowhere else:
    InvalidValueError refuses what ``run_hfl`` cannot train on or score
    well, and a refusal of a client's rows starts ``client <n>:`` and
    names the row within that client.  No array is copied or written to;
    ``client_sizes`` is kept as int64.
    """

    features: np.ndarray
    labels: np.ndarray
    client_sizes: np.ndarray
    test_features: np.ndarray
    test_labels: np.ndarray
    n_classes: int

    def __post_init__(self) -> None:
        check_integer("n_classes", k := self.n_classes, 1)
        tables = (("", self.features, self.labels), ("test_", self.test_features, self.test_labels))
        for prefix, features, labels in tables:
            _check_features(features, prefix)
            if not (isinstance(labels, np.ndarray) and labels.ndim == 1
                    and labels.dtype.kind in "iu" and labels.size > 0):
                raise InvalidValueError(f"{prefix}labels must be a 1-D integer array with at "
                                        f"least one entry, got {_described(labels)}")
            if len(features) != labels.size:
                raise InvalidValueError(f"{prefix}features have {len(features)} rows for "
                                        f"{labels.size} {prefix}labels")
        (rows, d), width = self.features.shape, self.test_features.shape[1]
        if width != d:
            raise InvalidValueError(f"test_features must have the clients' {d} columns, "
                                    f"got {width}")
        sizes = integer_array(self.client_sizes, "client_sizes must be integers")
        total = sizes.sum(dtype=object)  # exact, whatever the integer dtype
        if sizes.ndim != 1 or sizes.size == 0 or total != rows:
            raise InvalidValueError(f"client_sizes must be 1-D and sum to the {rows} feature "
                                    f"rows, got shape {sizes.shape} summing to {total}")
        if sizes.min() < 1:
            n = int(np.argmax(sizes < 1))
            raise InvalidValueError(f"client {n}: labels must hold at least one entry, got "
                                    f"client_sizes[{n}] = {sizes[n]}")
        object.__setattr__(self, "client_sizes", sizes := sizes.astype(np.int64))
        starts = np.cumsum(sizes) - sizes

        def client(row: int) -> tuple[str, int]:  # the line's prefix, the row within the client
            n = int(np.searchsorted(starts, row, side="right")) - 1
            return f"client {n}: ", row - starts[n]

        for prefix, features, labels in tables:
            finite = np.isfinite(features)
            if not finite.all():
                row, col = np.unravel_index(finite.argmin(), finite.shape)
                where, at = (prefix, row) if prefix else client(row)
                raise InvalidValueError(f"{where}features must be finite, got "
                                        f"{features[row, col]} at row {at}, column {col}")
            outside = (labels < 0) | (labels >= k)
            if outside.any():
                row = outside.argmax()
                where = prefix or client(row)[0]
                raise InvalidValueError(f"{where}labels must lie in [0, {k}), got {labels[row]}")

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

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

        Each class c has a fixed mean in feature space; every sample of
        class c is that mean plus isotropic noise.  Client n gets exactly
        the label counts ``label_counts[n]``, and the test set
        ``test_per_class`` samples of every class.

        Each client's row of per-class counts must hold integers >= 0 with
        a positive total, as many as the first row's (a bool is no
        integer), and all rows must total at most the int64 maximum;
        InvalidValueError names the first client whose row does not, and
        so does an ``n_features`` or ``test_per_class`` that is
        not an integer >= 1, a ``class_sep`` or ``noise`` that is not a
        finite number or a ``seed`` outside [0, 2**64)."""
        check_integer("n_features", n_features, 1)
        check_integer("test_per_class", test_per_class, 1)
        check_number("class_sep", class_sep)
        check_number("noise", noise)
        rng = np.random.default_rng(check_seed("seed", seed))
        if len(label_counts) == 0:
            raise InvalidValueError("label_counts must hold at least one client")
        n_classes = len(label_counts[0])
        table = np.empty((len(label_counts), n_classes), dtype=np.int64)
        room = int(np.iinfo(np.int64).max)  # the rows the int64 offsets can still count
        for client, counts in enumerate(label_counts):
            requirement = (
                f"client {client}: label counts must be {n_classes} integers >= 0 with a "
                "positive total"
            )
            row = integer_array(counts, requirement)
            if not (row.shape == (n_classes,) and row.min(initial=0) >= 0 and row.any()):
                raise InvalidValueError(f"{requirement}, got {counts!r}")
            total = row.sum(dtype=object)  # exact, whatever the integer dtype
            if total > room:
                raise InvalidValueError(f"client {client}: label counts must be at most {room} "
                                        f"in total, got {total}")
            room -= total
            table[client] = row
        sizes = table.sum(axis=1)
        means = class_sep * rng.standard_normal((n_classes, n_features))

        def draw(count_vector):
            labels = np.repeat(np.arange(n_classes), count_vector)
            features = means[labels] + noise * rng.standard_normal((labels.size, n_features))
            order = rng.permutation(labels.size)
            return features[order], labels[order]

        ends = np.cumsum(sizes)
        features = np.empty((ends[-1], n_features))
        labels = np.empty(ends[-1], dtype=np.int64)
        for counts, a, b in zip(table, ends - sizes, ends):
            features[a:b], labels[a:b] = draw(counts)
        test_features, test_labels = draw([test_per_class] * n_classes)
        return cls(features, labels, sizes, test_features, test_labels, n_classes)


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
    accepts.  The clients are prepared once (``prepare_clients``), and
    all share one gradient buffer.  Members are visited in ascending id
    order inside every aggregation so results do not depend on set
    iteration order, and train into their rows of one (members, K, d + 1)
    stack per coalition.
    Returns the final global model [W | b] and one held-out accuracy per
    global round; InvalidValueError if a tau is not an integer >= 1 or
    the seed is refused by ``init_params``.
    """
    for name, tau in (("tau_c", tau_c), ("tau_e", tau_e), ("tau_g", tau_g)):
        check_integer(name, tau, 1)
    sizes = dataset.client_sizes.astype(float)
    assignment, coalition_sizes = coalition_assignment(partition, sizes.size)
    coalitions = [np.flatnonzero(assignment == m) for m in range(coalition_sizes.size)]
    member_sizes = [sizes[members] for members in coalitions]
    edge_sizes = np.bincount(assignment, weights=sizes)
    clients = prepare_clients(dataset)

    model = init_params(dataset.n_classes, dataset.n_features, seed)
    grad = np.empty_like(model)
    stacks = [np.empty((members.size, *model.shape)) for members in coalitions]
    curve: list[float] = []
    for _ in range(tau_g):
        edge_models = np.tile(model, (len(coalitions), 1, 1))
        for _ in range(tau_e):
            for edge, members, data_sizes, stack in zip(
                edge_models, coalitions, member_sizes, stacks
            ):
                for row, n in enumerate(members):
                    local_train(edge, clients[n], tau_c, lr, grad, stack[row])
                edge[:] = edge_aggregate(stack, data_sizes)
        model = edge_aggregate(edge_models, edge_sizes)
        curve.append(accuracy(model, dataset.test_features, dataset.test_labels))
    return model, curve
