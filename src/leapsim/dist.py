"""Jensen-Shannon divergence between label distributions.

Distributions over class labels are the currency of the coalition game:
every edge coalition is summarized by the normalized histogram of the
labels its member clients hold (``game.Partition`` keeps the exact
integer counts and derives the rows).  Cross-coalition similarity is
measured by the Jensen-Shannon divergence

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

``js_rows`` is the one implementation of the JS formula: it works on
stacked probability arrays and broadcasts, so the coalition game prices
every candidate switch of a client in a single call.  ``js_divergence``
is its value on one pair of vectors.
"""

from __future__ import annotations

import numpy as np

from .errors import LeapsimError

__all__ = ["EmptyDistributionError", "js_rows", "js_divergence"]


class EmptyDistributionError(LeapsimError):
    """A distribution with zero total count was used in a divergence."""


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


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """JS divergence in [0, 1] of two probability vectors; see ``js_rows``."""
    return float(js_rows(p, q))
