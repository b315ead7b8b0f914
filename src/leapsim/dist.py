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


def js_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Jensen-Shannon divergence between matching rows of two arrays.

    ``p`` and ``q`` hold probability vectors along their last axis and
    broadcast against each other in the leading axes; the result has the
    broadcast leading shape.  Each row pair is evaluated as

        JS = (sum_k p_k (1 + log2(p_k / (p_k + q_k)))
              + sum_k q_k (1 + log2(q_k / (p_k + q_k)))) / 2

    which equals (KL(p, m) + KL(q, m)) / 2 against the midpoint
    m = (p + q) / 2: p + q never rounds below max(p, q), so the
    midpoint's support provably covers both inputs even where an
    explicit (p + q) / 2 would underflow to zero.  Terms with a zero
    probability contribute nothing (0 * log 0 = 0).  The result is
    symmetric in its arguments bit for bit, 0 exactly for equal rows
    and 1 exactly for disjoint point masses.  Inputs are not checked.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    joint = p + q
    total = 0.0
    for x in (p, q):
        # where x is 0 the ratio stays 1, so the term is 0 * (1 + 0) = 0
        term = np.divide(x, joint, out=np.ones(joint.shape), where=x > 0.0)
        np.log2(term, out=term)
        term += 1.0
        term *= x
        total = total + term.sum(axis=-1)
    # rounding in the normalized inputs can push the sum a few ulp past
    # the theoretical [0, 1] range
    return np.clip(0.5 * total, 0.0, 1.0)


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
