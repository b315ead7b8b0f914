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
built.  ``run_hfl`` trains every client in its row of one (N, K, d + 1)
stack in client id order: each edge iteration writes every client's
edge model into its row, steps the rows in place, and aggregates each
coalition's rows, in ascending id order.  One builder,
``prepare_runs``, cuts the clients into maximal runs of equal sample
count and each run into chunks of at most a byte budget of logits.  A
chunk, a ``PreparedClient``, is its clients' read-only design and
targets; each step allocates its own logits, column and gradient.
``local_train(chunk, tau_c, lr, out)`` takes its tau_c steps on the
chunk's rows of the stack, each one
``softmax_loss_and_grad(weights, chunk)``.  A run of
fewer than ``BATCH_MIN_STEPS`` client gradient steps has no budget, so
every chunk holds one client: one ``local_train`` call per client per
edge iteration and tau_c ``softmax_loss_and_grad`` in each, through this
module's globals, which the benchmark's scaled-down hfl_train counts.
From that threshold on the budget is ``CHUNK_BYTES``.  A step on B
clients of n samples keeps its logits class-major, one (K, B·n) block,
so the softmax's passes along the class axis run over B·n long columns
rather than B·K short rows; its two matmuls see the block as a strided
(B, K, n) stack, and numpy's stacked matmul runs one gemm per matrix.
So either way, and whatever the chunk size, a client's parameters hold
the bits it has alone; clients of one sample, whose class sums would
otherwise change their order, are always chunks of one.  ``local_train``
checks once that its result is finite, ``run_hfl`` checks each
aggregate, and ``predict`` each held-out logit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidValueError, TrainingDivergedError
from .errors import check_integer, check_number, check_seed, described, integer_array
from .netmodel import coalition_assignment

# run_hfl trains each chunk of equal-size clients as one stack when a run
# takes at least this many client gradient steps
# (N * tau_c * tau_e * tau_g); below it, one local_train call per client.
# perfbench's scaled-down hfl_train (160 steps) counts one local_train call
# per client per edge iteration, so it must stay on the per-client path.
BATCH_MIN_STEPS = 2000

# run_hfl's byte budget for prepare_runs: each run of equal-size clients is
# cut into chunks of at most this many bytes of (K, B·n) logits, 16 clients
# at the north star's shape (N=1000, n=200, d=16, K=10).  There, two runs
# (2-CPU AMD EPYC, BLAS on one thread, medians of three) took 0.79 s with
# class-major chunks; 2**19 took as long, 2**16 15% more, 2**17 5%, 2**20
# 8% and 2**22 34%.
CHUNK_BYTES = 2**18

__all__ = [
    "init_params",
    "onehot_targets",
    "softmax_loss_and_grad",
    "predict",
    "accuracy",
    "BATCH_MIN_STEPS",
    "PreparedClient",
    "prepare_runs",
    "local_train",
    "edge_aggregate",
    "run_hfl",
    "SyntheticDataset",
]


def init_params(n_classes: int, n_features: int, seed: int = 0) -> np.ndarray:
    """The model [W | b] (n_classes, n_features + 1), a small Gaussian draw
    reproducible per ``seed``: the first K·d draws fill W row by row, the
    last K fill b.  InvalidValueError unless both counts are integers >= 1
    and ``seed`` is an integer in [0, 2**64)."""
    check_integer("n_classes", n_classes, 1)
    check_integer("n_features", n_features, 1)
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


def softmax_loss_and_grad(weights: np.ndarray, chunk: PreparedClient) -> np.ndarray:
    """The mean cross-entropy's gradient at ``weights``, a fresh (B, K, d + 1) stack.

    ``chunk`` holds B clients of n samples each, as ``prepare_runs``
    builds it, and ``weights`` one model [W | b] (K, d + 1) per client,
    a (B, K, d + 1) stack.  The step writes nothing of the chunk: it
    allocates the clients' logits as one class-major (K, B·n) block and
    their class-axis max and sum as one (B·n,) column.  The two matmuls
    write and read the block through its (B, K, n) view, whose rows are
    B·n apart, which numpy hands to BLAS as one gemm per matrix without
    a copy; the class-axis max and sum reduce the block's K rows over
    all B·n columns at once, and the subtract and the divide broadcast
    the column over them.  Each client's gradient keeps the bits it has
    alone, except for n = 1, which ``prepare_runs`` never stacks.
    The logits are class-major, [W | b] [X | 1]^T: the softmax reduces
    over the class axis and subtracting ``targets`` leaves the logit
    gradient, softmax - onehot.  At a true class that is p - 1.0,
    elsewhere p - 0.0, which is p for every softmax output (>= +0.0 or
    NaN).  One more matmul with ``mean_design`` gives the weight
    gradient and, in the ones column, the bias gradient, both already
    divided by n.  No loss is computed, since the learner reads none;
    the name is the one the benchmark counts once per step."""
    design, targets = chunk.design, chunk.targets
    logits, column = np.empty(targets.shape), np.empty(targets.shape[1])
    batch = logits.reshape(len(logits), *design.shape[:-1]).swapaxes(0, -2)  # (B, K, n) view
    np.matmul(weights, design.swapaxes(-1, -2), out=batch)
    np.maximum.reduce(logits, axis=0, out=column)  # stable softmax
    logits -= column
    np.exp(logits, out=logits)
    np.add.reduce(logits, axis=0, out=column)
    logits /= column
    logits -= targets
    return np.matmul(batch, chunk.mean_design)


def _check_features(features, prefix: str = "") -> None:
    """InvalidValueError, its line starting ``prefix``, unless ``features``
    is a 2-D array of real numbers."""
    if isinstance(features, np.ndarray) and features.ndim == 2 and features.dtype.kind in "fiu":
        return
    raise InvalidValueError(f"{prefix}features must be a 2-D array of real numbers, "
                            f"got {described(features)}")


def predict(model: np.ndarray, features: np.ndarray) -> np.ndarray:
    """The most likely of the model's K classes for every row of ``features``;
    InvalidValueError unless ``features`` is a 2-D array of real numbers and
    ``model`` a (K, d + 1) matrix [W | b], K >= 1.  The logits are
    computed with numpy's overflow warnings off, and TrainingDivergedError
    refuses them unless every one is finite: a finite model near the float
    max can overflow there, and an argmax over infinities scores nothing."""
    _check_features(features)
    d, shape = features.shape[1], np.shape(model)
    if len(shape) != 2 or shape[0] == 0 or shape[1] != d + 1:
        raise InvalidValueError(f"model must be a (K, {d + 1}) matrix [W | b], got shape {shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        logits = features @ model[:, :d].T + model[:, d]
    _check_finite(logits)
    return np.argmax(logits, axis=1)


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
    """A chunk of B >= 1 clients of one sample count n as the local step
    reads it, built by ``prepare_runs``.

    ``design`` (B, n, d + 1) holds each client's design [X | 1] and
    ``mean_design`` that design divided by n; ``targets`` is one
    class-major (K, B·n) block of the clients' ``onehot_targets``,
    client b in columns b·n to (b + 1)·n - 1.  All three are the chunk's
    own read-only C-order arrays.  For B = 1 the block is the client's
    (K, n)."""

    design: np.ndarray
    mean_design: np.ndarray
    targets: np.ndarray


def prepare_runs(
    dataset: SyntheticDataset, chunk_bytes: int
) -> list[tuple[slice, PreparedClient]]:
    """All clients, in id order, cut into maximal runs of equal sample
    count and each run into chunks of at most ``chunk_bytes`` of logits
    (at least one client each), each chunk as the local step reads it;
    ``run_hfl`` passes 0 below ``BATCH_MIN_STEPS``, one client per chunk.

    A chunk of B clients of n samples gets a design [X | 1] (B, n, d + 1),
    fresh and in C order whatever the layout of the features (so the
    layout moves no bit of a step), that design divided by n and the
    clients' ``onehot_targets`` (K, B·n), client b in columns b·n to
    (b + 1)·n - 1, built straight from the dataset's rows, which are one
    block for consecutive clients, and marked read-only.
    For n = 1 the class-axis sums would run over a flat (K, B) block,
    which numpy adds up sequentially, while a client alone, (K, 1), is
    one contiguous column that numpy sums pairwise from K = 8 on, so
    each such client is a chunk of its own.  Returns (the chunk's client
    ids as a slice, the chunk) in id order; it depends on the dataset
    alone, not on a partition."""
    sizes, k, d = dataset.client_sizes, dataset.n_classes, dataset.n_features
    ends = np.cumsum(sizes)
    bounds = [0, *np.flatnonzero(np.diff(sizes)) + 1, sizes.size]
    chunks = []
    for a, b in zip(bounds, bounds[1:]):
        n = int(sizes[a])
        step = max(1, chunk_bytes // (8 * k * n)) if n > 1 else 1
        for lo in range(a, b, step):
            rows = slice(lo, min(lo + step, b))
            block, count = slice(ends[lo] - n, ends[rows.stop - 1]), rows.stop - lo
            design = np.empty((count, n, d + 1))  # C order, whatever the features' layout
            design[..., :d] = dataset.features[block].reshape(count, n, d)
            design[..., d] = 1.0
            arrays = design, design / n, onehot_targets(dataset.labels[block], k)
            for array in arrays:
                array.setflags(write=False)
            chunks.append((rows, PreparedClient(*arrays)))
    return chunks


def local_train(chunk: PreparedClient, tau_c: int, lr: float, out: np.ndarray) -> np.ndarray:
    """tau_c full-batch gradient steps on one prepared chunk, in ``out``.

    ``out`` is the chunk's float64 (B, K, d + 1) stack of models, one per
    client (in ``run_hfl`` their rows of the run's one (N, K, d + 1)
    stack).  The steps start from what it holds and update it in place,
    ``out -= lr * grad``, and ``out`` is returned.  ``lr``
    multiplies the gradient, not the design, so the step's result stays
    the gradient.  Raises InvalidValueError, before the first step,
    unless ``tau_c`` is an integer >= 1 and ``out`` a float64 array of
    the chunk's (B, K, d + 1) shape.

    Raises TrainingDivergedError (a FloatingPointError) if the
    parameters after the tau_c steps are not finite, anywhere in a
    stack; the overflows on the way there are expected and not reported
    as numpy warnings.  Each member of a stack steps with the bits it
    has alone, so a stack raises exactly when one of its members,
    trained alone, would.  This one check after the last step raises
    exactly when a check after every step of the parameters and of the
    loss, the mean of ``-log(p + 1e-300)`` over the true-class
    probabilities p, would:

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
    design = chunk.design
    shape = (len(design), len(chunk.targets), design.shape[-1])
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64 and out.shape == shape):
        raise InvalidValueError(f"out must be a float64 array of shape {shape}, "
                                f"got {described(out)}")
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(tau_c):
            grad = softmax_loss_and_grad(out, chunk)
            grad *= lr
            out -= grad
    _check_finite(out)
    return out


def _check_finite(params: np.ndarray) -> None:
    """TrainingDivergedError unless every parameter is finite."""
    if not np.isfinite(params).all():
        raise TrainingDivergedError("training diverged; lower the learning rate")


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
                                        f"least one entry, got {described(labels)}")
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
    accepts.  Every client trains in its row of one (N, K, d + 1) stack,
    in id order, which each edge iteration fills with the clients' edge
    models by one ``np.take``; each coalition then averages its members'
    rows in ascending id order, so results do not depend on set
    iteration order.  The clients are prepared once per run by
    ``prepare_runs``, as read-only chunks of equal size whose steps keep
    their logits in one class-major (K, B·n) block; each chunk trains in one
    ``local_train`` call.  Below ``BATCH_MIN_STEPS`` client gradient steps
    (N * tau_c * tau_e * tau_g) the byte budget is 0, so every client is
    a chunk of its own; from there on it is ``CHUNK_BYTES``, and clients
    of one sample stay chunks of one.  The models and curves are the same
    bits either way.
    Returns the final global model [W | b] and one held-out accuracy per
    global round; InvalidValueError if a tau is not an integer >= 1 or
    the seed is refused by ``init_params``, and TrainingDivergedError if
    a local step, an edge aggregate, the global one or a held-out logit
    is not finite (an aggregate sums size x parameter before it divides,
    and the logits sum products, so finite parameters near the float max
    may overflow there).
    """
    for name, tau in (("tau_c", tau_c), ("tau_e", tau_e), ("tau_g", tau_g)):
        check_integer(name, tau, 1)
    sizes = dataset.client_sizes.astype(float)
    assignment, coalition_sizes = coalition_assignment(partition, sizes.size)
    coalitions = [np.flatnonzero(assignment == m) for m in range(coalition_sizes.size)]
    member_sizes = [sizes[members] for members in coalitions]
    edge_sizes = np.bincount(assignment, weights=sizes)
    batched = sizes.size * tau_c * tau_e * tau_g >= BATCH_MIN_STEPS
    work = prepare_runs(dataset, CHUNK_BYTES if batched else 0)

    model = init_params(dataset.n_classes, dataset.n_features, seed)
    stack = np.empty((sizes.size, *model.shape))
    curve: list[float] = []
    for _ in range(tau_g):
        edge_models = np.tile(model, (len(coalitions), 1, 1))
        for _ in range(tau_e):
            np.take(edge_models, assignment, axis=0, out=stack)
            for rows, chunk in work:
                local_train(chunk, tau_c, lr, stack[rows])
            for edge, members, data_sizes in zip(edge_models, coalitions, member_sizes):
                edge[:] = edge_aggregate(stack[members], data_sizes)
            _check_finite(edge_models)
        model = edge_aggregate(edge_models, edge_sizes)
        _check_finite(model)
        curve.append(accuracy(model, dataset.test_features, dataset.test_labels))
    return model, curve
