"""Label-distribution arithmetic and divergence measures.

Distributions over class labels are the currency of the coalition game:
every edge coalition is summarized by the normalized histogram of the
labels its member clients hold.  Cross-coalition similarity is measured
by the Jensen-Shannon divergence

    JS(a, b) = (KL(a, m) + KL(b, m)) / 2,   m = (a + b) / 2

with Kullback-Leibler divergence KL(p, q) = sum_k p_k * log2(p_k / q_k).
All logarithms are base 2, so JS is bounded by [0, 1]; disjoint point
masses saturate it at exactly 1.  The convention 0 * log(0/x) = 0 makes
one-hot histograms (the normal case for label-shard clients) well
defined.

The kernel evaluates the equivalent entropy form (Lin, "Divergence
measures based on the Shannon entropy", IEEE Trans. Inf. Theory 37(1),
1991)

    JS(a, b) = H(m) - (H(a) + H(b)) / 2
             = (sum a log2 a + sum b log2 b) / 2 - sum m log2 m
             = 1 + (sum a log2 a + sum b log2 b - sum j log2 j) / 2

with j = a + b, the last line for rows that sum to 1.  A grid of row
pairs costs one logarithm per cell: the two input entropies are row
sums over the inputs as given, and only the midpoint term runs on the
broadcast grid.

Distributions are normally built from exact integer label counts so that
incremental coalition updates (client joins/leaves) stay exact and
reversible; the normalized probability vector is derived on demand.

``js_rows`` is the one implementation of the JS formula: it works on
stacked probability arrays and broadcasts, so the coalition game prices
every candidate switch of a client in a single call.  The
``LabelDistribution`` functions below are thin checked wrappers over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import LeapsimError

__all__ = [
    "LabelDistribution",
    "DimensionMismatchError",
    "SupportViolationError",
    "EmptyDistributionError",
    "kl_divergence",
    "mean_distribution",
    "js_rows",
    "js_divergence",
    "coalition_distribution",
    "pairwise_js_matrix",
    "avg_pairwise_js",
]

PROB_SUM_TOL = 1e-12


class DimensionMismatchError(LeapsimError):
    """Two distributions do not share the same class count."""


class SupportViolationError(LeapsimError):
    """KL(p, q) requested where q has zero mass on part of p's support."""


class EmptyDistributionError(LeapsimError):
    """A distribution with zero total count was used in a divergence."""


@dataclass(frozen=True)
class LabelDistribution:
    """Normalized histogram over class labels.

    ``probs`` always has the scenario's fixed class count.  ``counts``
    holds the raw integer label counts the histogram was normalized
    from, when known; it is None for derived objects such as mean
    distributions.  A distribution built from all-zero counts is
    flagged empty and rejected by every divergence operation.
    """

    probs: np.ndarray
    counts: np.ndarray | None = None
    empty: bool = field(default=False)

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "LabelDistribution":
        arr = np.asarray(counts)
        if arr.ndim != 1:
            raise ValueError("counts must be a 1-D vector")
        if np.any(arr < 0):
            raise ValueError("label counts must be non-negative")
        arr = arr.astype(np.int64)
        total = int(arr.sum())
        if total == 0:
            probs = np.zeros(arr.shape[0], dtype=float)
            return cls(probs=probs, counts=arr, empty=True)
        return cls(probs=arr / total, counts=arr)

    @classmethod
    def from_probs(cls, probs: Iterable[float]) -> "LabelDistribution":
        arr = np.asarray(probs, dtype=float)
        if arr.ndim != 1:
            raise ValueError("probs must be a 1-D vector")
        if np.any(arr < 0):
            raise ValueError("probabilities must be non-negative")
        if abs(arr.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities sum to {arr.sum()!r}, not 1")
        return cls(probs=arr)

    def __post_init__(self):
        self.probs.setflags(write=False)
        if self.counts is not None:
            self.counts.setflags(write=False)

    @property
    def n_classes(self) -> int:
        return int(self.probs.shape[0])


def _check_pair(a: LabelDistribution, b: LabelDistribution) -> None:
    if a.n_classes != b.n_classes:
        raise DimensionMismatchError(
            f"class counts differ: {a.n_classes} vs {b.n_classes}"
        )


def _check_usable(*dists: LabelDistribution) -> None:
    for d in dists:
        if d.empty:
            raise EmptyDistributionError("empty distribution in divergence")


def kl_divergence(p: LabelDistribution, q: LabelDistribution) -> float:
    """KL(p, q) = sum_k p_k log2(p_k / q_k), in bits.

    Terms with p_k = 0 contribute nothing.  Raises
    SupportViolationError when q_k = 0 on some k with p_k > 0 (never
    happens when q is a mean distribution that contains p).
    """
    _check_pair(p, q)
    _check_usable(p, q)
    mask = p.probs > 0.0
    if np.any(q.probs[mask] == 0.0):
        raise SupportViolationError("q has zero mass where p is positive")
    pm = p.probs[mask]
    qm = q.probs[mask]
    return float(np.sum(pm * np.log2(pm / qm)))


def mean_distribution(a: LabelDistribution, b: LabelDistribution) -> LabelDistribution:
    """Element-wise midpoint (a + b) / 2."""
    _check_pair(a, b)
    return LabelDistribution(probs=(a.probs + b.probs) / 2.0)


# smallest positive double: log2 of it is finite (-1074), so x * log2(max(x, _TINY))
# is exactly 0 at x = 0 and needs no mask or warning filter
_TINY = 5e-324


def _xlog2x_sums(x: np.ndarray) -> np.ndarray:
    """sum_k x_k log2 x_k along the last axis, with 0 log2 0 = 0."""
    # C order makes every row one contiguous run, which numpy sums
    # pairwise and the same way whatever the input's layout; a
    # sequential sum of K equal terms (uniform rows) drifts by ~K ulp
    terms = np.maximum(x, _TINY, order="C")
    np.log2(terms, out=terms)
    terms *= x
    return np.add.reduce(terms, axis=-1)


def js_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence between matching rows of two arrays.

    ``p`` and ``q`` hold probability vectors along their last axis and
    broadcast against each other in the leading axes; the result has the
    broadcast leading shape.  Each row pair is evaluated in entropy form

        JS = (sum_k p_k log2 p_k + sum_k q_k log2 q_k) / 2
             - sum_k m_k log2 m_k,                 m = (p + q) / 2

    which is H(m) - (H(p) + H(q)) / 2 = (KL(p, m) + KL(q, m)) / 2, and
    equals 1 + (sum p log2 p + sum q log2 q - sum j log2 j) / 2 with
    j = p + q for rows that sum to 1.  The two input sums run on the
    inputs as given, before broadcasting; only the midpoint term runs on
    the grid, with one ``log2`` per cell.  Zero probabilities contribute
    nothing (0 * log 0 = 0); a midpoint entry that underflows to 0 loses
    a term below 1e-320.  Guarantees, and why they hold:

    * symmetric bit for bit: p + q and the sum of the two input terms
      are commutative in floating point;
    * a grid equals its row pairs bit for bit: each sum reduces one
      contiguous C-order row of length K, whatever the leading shape
      or the input layout;
    * exactly 0 for equal rows: (p + p) / 2 is p exactly, so the
      midpoint sum is bit for bit the input sum h, and h - (h + h) / 2
      is 0 exactly;
    * exactly 1 for disjoint point masses: the input terms are
      1 * log2 1 = 0 or 0, and the midpoint terms 0.5 * log2 0.5 = -0.5;
    * inside [0, 1]: rounding can push the value a few ulp past the
      theoretical range, and the result is clipped.

    Inputs are not checked.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    js = np.asarray(_xlog2x_sums(p) + _xlog2x_sums(q))  # 0-d for a single pair
    js *= 0.5
    mid = p + q
    mid *= 0.5
    js -= _xlog2x_sums(mid)
    np.maximum(js, 0.0, out=js)  # the clip to [0, 1]; np.clip costs more per call
    return np.minimum(js, 1.0, out=js)


def js_divergence(a: LabelDistribution, b: LabelDistribution) -> float:
    """Jensen-Shannon divergence in [0, 1] (base-2 logs); see ``js_rows``."""
    _check_pair(a, b)
    _check_usable(a, b)
    return float(js_rows(a.probs, b.probs))


def coalition_distribution(
    member_counts: Iterable[np.ndarray | Sequence[int]],
) -> LabelDistribution:
    """Aggregate label distribution of a coalition.

    ``member_counts`` are the raw per-member label count vectors; the
    result is their sum renormalized, which is exactly the data-size
    weighted mixture of the member histograms.  With equal-size members
    it reduces to the uniform average.
    """
    vectors = [np.asarray(c, dtype=np.int64) for c in member_counts]
    if not vectors:
        raise ValueError("coalition has no members")
    width = vectors[0].shape[0]
    for v in vectors:
        if v.shape != (width,):
            raise DimensionMismatchError("member count vectors differ in length")
    return LabelDistribution.from_counts(np.sum(vectors, axis=0))


def pairwise_js_matrix(dists: Sequence[LabelDistribution]) -> np.ndarray:
    """Symmetric matrix of JS divergences with a zero diagonal."""
    if not dists:
        return np.zeros((0, 0))
    for d in dists[1:]:
        _check_pair(dists[0], d)
    _check_usable(*dists)
    probs = np.array([d.probs for d in dists], dtype=float)
    return js_rows(probs[:, None, :], probs[None, :, :])


def avg_pairwise_js(
    dists: Sequence[LabelDistribution], denominator: str = "M"
) -> float:
    """Average cross-coalition divergence sum_{i<j} JS(Q_i, Q_j) / denom.

    ``denominator`` selects the normalization: "M" (the default)
    divides by the number of coalitions, "pairs" by the number of
    distinct pairs M(M-1)/2.  With "M" the value can exceed 1 for
    M >= 5; "pairs" keeps it inside [0, 1].
    """
    m = len(dists)
    if m == 0:
        raise ValueError("no coalition distributions given")
    if denominator not in ("M", "pairs"):
        raise ValueError(f"unknown denominator mode {denominator!r}")
    if denominator == "pairs" and m < 2:
        return 0.0
    total = float(np.sum(np.triu(pairwise_js_matrix(dists), k=1)))
    return total / (m if denominator == "M" else m * (m - 1) / 2)
