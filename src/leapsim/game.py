"""Coalition formation game over client-to-edge associations.

Clients are repeatedly offered the chance to leave their edge coalition
for another one; a move is accepted only when it strictly lowers the
average cross-coalition Jensen-Shannon divergence (the coalition-friendly
preference).  The improvement loop samples clients uniformly at random
and applies the best admissible switch, so it is a randomized local
search whose state is the partition itself.  A client's best switch is
the target at the first minimum of its row of switch prices, taken only
when that price is below ``-SWITCH_TOLERANCE``.  Prices equal as floats
resolve to the lowest coalition index; prices tied in exact arithmetic
but summed in a different order per target resolve by that rounding,
reproducibly but not always to the lower index.

The game is an exact potential game.  Its potential is the
un-normalized pairwise JS sum, ``partition.avg_js() *
partition.pair_denominator()``.  A switch changes only the pairs that
touch its source and target coalition, so its price, the change of the
switching client's coalition-level utility, is the change of the
potential over the denominator.  A switch is accepted only when it
lowers avg JS by more than SWITCH_TOLERANCE, so the potential strictly
decreases, which guarantees termination in a Nash-stable partition (no
single client can improve by deviating alone).

Partitions keep exact integer label counts per coalition plus dense
caches of the coalition probability rows, their entropy sums and the
pairwise JS matrix.  Pricing a client's switches only recomputes the
pairs that touch the source and the target coalition, and
``_price_moves`` does that for every target of a batch of clients with
a single call of the broadcasting JS kernel; the loop prices its
lookahead batches with it and ``certify_stability`` blocks of clients.
A call on B clients builds grids of B * (M+1)^2 * K elements, and both
kinds of batch hold as many clients as KERNEL_BLOCK_ELEMENTS allows, at
least one; a lookahead batch holds at most LOOKAHEAD_DRAWS.

The improvement loop prices each partition state (an epoch: the span
between two accepted switches) at most once per client, in lookahead
batches.  It keeps every priced client's prices for the epoch, but the
kernel arrays of the last batch only; see ``run_coalition_formation``.

The potential is bounded below by 0, so a partition whose JS matrix is
all zeros is a global minimum: every switch price is a sum of clipped,
non-negative kernel values, none beats staying, and the partition is
Nash-stable.  The loop prices nothing in such a settled epoch, and
``certify_stability`` answers it without pricing.  Both shortcuts give
exactly the verdicts pricing would, because SWITCH_TOLERANCE is >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dist import EmptyDistributionError, js_rows, xlog2x_sums
# the game no longer calls the scalar JS; the name stays bound here
# because perfbench's tracer wraps leapsim.game.js_divergence
from .dist import js_divergence  # noqa: F401
from .errors import (
    InvalidPartitionError,
    InvalidValueError,
    LeapsimError,
    check_integer,
    check_seed,
    described,
    integer_array,
)

__all__ = [
    "SWITCH_TOLERANCE",
    "InvalidPartitionError",
    "InvalidSwitchError",
    "SwitchProposal",
    "GameTrace",
    "Partition",
    "assignment_vector",
    "evaluate_switch",
    "run_coalition_formation",
    "default_max_iters",
    "certify_stability",
    "random_partition",
]

# Switches must improve avg JS by more than this to be accepted; a strict
# margin keeps the potential strictly decreasing despite float rounding,
# which is what guarantees termination.
SWITCH_TOLERANCE = 1e-10

# Upper bound on the elements of one JS-kernel grid: certification prices
# clients in blocks, and the improvement loop in lookahead batches, of
# B clients whose B * (M+1)^2 * K grid stays within it (B >= 1), so no
# kernel temporary crosses glibc's 128 KiB mmap threshold (each one would
# be mapped and unmapped per call) and peak memory does not grow with the
# number of clients.
KERNEL_BLOCK_ELEMENTS = 1 << 14

# Draws the improvement loop holds, the sampled one included: a sampled
# client without a price on the current partition is priced in one
# batch with the unpriced clients among the next held draws, as many as
# KERNEL_BLOCK_ELEMENTS allows (``_block_clients``).  Deeper windows
# price more clients that an accepted switch makes stale before they are
# sampled; 6 to 8 were fastest on the benchmark's game workloads.
LOOKAHEAD_DRAWS = 8

# Samples the improvement loop draws from its generator per call.  A
# block of draws is the same stream as one scalar draw per sample, at
# about a tenth of the cost per sample; at most one block less a sample
# is drawn and not used.
DRAW_BLOCK = 64


class InvalidSwitchError(LeapsimError):
    """Requested switch is inadmissible (same coalition, or empties the source)."""


@dataclass(frozen=True)
class SwitchProposal:
    """A candidate single-client move and its effect on the average JS.

    ``delta_js`` is avg JS after the move minus avg JS before, computed
    incrementally over the pairs that touch the source and target
    coalitions only (see ``_price_moves``).
    """

    client: int
    source: int
    target: int
    delta_js: float


@dataclass
class GameTrace:
    """Iteration log of one improvement run.

    ``entries`` holds one row per sampled iteration:
    (iteration, client, source, accepted target or None, avg_js after);
    ``experiment.write_game_trace`` writes them as CSV.
    """

    entries: list[tuple[int, int, int, int | None, float]] = field(default_factory=list)
    iterations_used: int = 0
    converged: bool = False
    seed: int | None = None
    generator: str = "numpy.default_rng"


def _normalized(counts: np.ndarray) -> np.ndarray:
    """Probability rows of integer label-count rows (last axis)."""
    totals = counts.sum(axis=-1, keepdims=True)
    if not totals.all():
        raise EmptyDistributionError("a coalition holds no labels")
    return counts / totals


@lru_cache(maxsize=64)
def _arange(n: int) -> np.ndarray:
    """Read-only ``np.arange(n)``, for the index vectors of every pricing call."""
    indices = np.arange(n)
    indices.setflags(write=False)
    return indices


@lru_cache(maxsize=32)
def _strict_upper(m: int) -> np.ndarray:
    """Read-only (m, m) float mask, 1.0 above the diagonal and 0.0 elsewhere.

    A product with it holds the same values as ``np.triu(x, k=1)``, so
    its sum has the same bits, at a fraction of ``np.triu``'s cost.
    """
    mask = np.triu(np.ones((m, m)), k=1)
    mask.setflags(write=False)
    return mask


def assignment_vector(assignment, bound: int) -> np.ndarray:
    """``assignment`` as a 1-D int64 array of coalition indices in [0, ``bound``).

    Raises InvalidPartitionError unless it is 1-D with an integer dtype
    and, as a list, holds no bool, so floats, strings and bools are
    refused rather than cast, or when an index lies outside the range.
    """
    requirement = "an assignment must be a 1-D integer array"
    array = integer_array(assignment, requirement, InvalidPartitionError)
    if array.ndim != 1:
        raise InvalidPartitionError(f"{requirement}, got {described(array)}")
    if array.size and (array.min() < 0 or array.max() >= bound):
        raise InvalidPartitionError("assignment index out of range")
    return array.astype(np.int64, copy=False)


class Partition:
    """Disjoint assignment of clients to M edge coalitions.

    State is the per-client coalition index ``assignment``.  The
    coalition sizes ``sizes`` (M,) and four dense caches are maintained
    incrementally as switches are applied: integer label counts
    ``counts`` (M, K), probability rows ``probs`` (M, K), their sums
    ``plogp`` (M,) of P_k log2 P_k (``dist.xlog2x_sums``: the input
    terms of every JS value against a coalition row) and the pairwise
    JS matrix ``js_matrix`` (M, M).  Label counts must be an integer
    array of values >= 0 and ``num_coalitions`` an integer >= 1; floats
    and bools are refused, never cast.
    ``denominator`` fixes the avg-JS normalization for every operation
    on this partition: "M" divides the pairwise JS sum by the number of
    coalitions (the value can exceed 1 for M >= 5), "pairs" by the
    number of pairs M(M-1)/2, which keeps it inside [0, 1].
    """

    def __init__(
        self,
        assignment: np.ndarray,
        client_label_counts: np.ndarray,
        num_coalitions: int,
        denominator: str = "M",
    ):
        check_integer("num_coalitions", num_coalitions, 1, InvalidPartitionError)
        assignment = assignment_vector(assignment, num_coalitions)
        client_label_counts = integer_array(
            client_label_counts, "label counts must be an integer array", InvalidPartitionError
        ).astype(np.int64, copy=False)
        if client_label_counts.ndim != 2 or client_label_counts.shape[0] != assignment.shape[0]:
            raise InvalidPartitionError("label counts must be (n_clients, n_classes)")
        if client_label_counts.size and client_label_counts.min() < 0:
            raise InvalidPartitionError("label counts must be >= 0")
        if denominator not in ("M", "pairs"):
            raise InvalidPartitionError(
                f"denominator must be 'M' or 'pairs', got {denominator!r}"
            )

        self.assignment = assignment.copy()
        self.client_counts = client_label_counts
        self.num_coalitions = int(num_coalitions)
        self.denominator = denominator

        self.sizes = np.bincount(self.assignment, minlength=self.num_coalitions)
        empty = np.flatnonzero(self.sizes == 0)
        if empty.size:
            raise InvalidPartitionError(f"coalition {empty[0]} is empty")

        # one 1-D scatter at the flat indices coalition * K + class
        k = client_label_counts.shape[1]
        self.counts = np.zeros((num_coalitions, k), dtype=np.int64)
        flat = (self.assignment[:, None] * k + np.arange(k)).ravel()
        np.add.at(self.counts.reshape(-1), flat, self.client_counts.ravel())
        self.probs = _normalized(self.counts)
        self.plogp = xlog2x_sums(self.probs)
        self.js_matrix = js_rows(
            self.probs[:, None, :], self.probs[None, :, :], self.plogp[:, None], self.plogp[None]
        )

    # -- properties ------------------------------------------------------

    @property
    def n_clients(self) -> int:
        return int(self.assignment.shape[0])

    def pair_denominator(self) -> float:
        m = self.num_coalitions
        return float(m) if self.denominator == "M" else m * (m - 1) / 2.0

    def avg_js(self) -> float:
        """Pairwise JS sum over the denominator; 0.0 when there is no pair."""
        if self.num_coalitions < 2:
            return 0.0
        total = float((self.js_matrix * _strict_upper(self.num_coalitions)).sum())
        return total / self.pair_denominator()

    def copy(self) -> "Partition":
        clone = object.__new__(Partition)
        clone.assignment = self.assignment.copy()
        clone.client_counts = self.client_counts
        clone.num_coalitions = self.num_coalitions
        clone.denominator = self.denominator
        clone.sizes = self.sizes.copy()
        clone.counts = self.counts.copy()
        clone.probs = self.probs.copy()
        clone.plogp = self.plogp.copy()
        clone.js_matrix = self.js_matrix.copy()
        return clone

    def validate(self) -> None:
        """Check every cache against a rebuild from the assignment.

        Float caches must lie within 1e-12 of the rebuild; a NaN entry
        is never within it.
        """
        fresh = Partition(
            self.assignment, self.client_counts, self.num_coalitions, self.denominator
        )
        if not np.array_equal(self.sizes, fresh.sizes):
            raise InvalidPartitionError("cached coalition sizes are stale")
        if not np.array_equal(self.counts, fresh.counts):
            raise InvalidPartitionError("cached label counts are stale")
        tol = 1e-12
        if not np.all(np.abs(self.probs - fresh.probs) <= tol):
            raise InvalidPartitionError("cached coalition distribution is stale")
        if not np.all(np.abs(self.plogp - fresh.plogp) <= tol):
            raise InvalidPartitionError("cached coalition entropies are stale")
        if not np.all(np.abs(self.js_matrix - fresh.js_matrix) <= tol):
            raise InvalidPartitionError("cached JS matrix is stale")

    # -- mutation --------------------------------------------------------

    def apply(
        self,
        proposal: SwitchProposal,
        priced: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        """Execute an accepted switch and refresh the touched caches.

        ``priced`` is the proposal's client's slice of a ``_price_moves``
        batch that priced it on the current state: its kernel rows
        [s', t'_0 .. t'_{M-1}] of shape (M+1, K), its JS grid of shape
        (M+1, M+1) and the rows' ``xlog2x_sums`` of shape (M+1,); without
        it the client is priced here.  The new rows of source s and
        target t, their ``plogp`` sums and their JS rows are read from
        that slice: rows 0 and 1+t are the normalized counts after the
        move, grid rows 0 and 1+t hold JS(s', P_k) and JS(t', P_k), and
        grid[1+t, M] is JS(t', s').  The caches hold the bits of a fresh
        ``Partition`` of the new assignment, because a row's sum does not
        depend on the array that holds it and ``js_rows`` gives a grid
        equal to its row pairs, is symmetric, and is exactly 0 on equal
        rows (the two diagonal entries).
        """
        client, src, tgt = proposal.client, proposal.source, proposal.target
        if self.assignment[client] != src:
            raise InvalidSwitchError("proposal is stale: client moved already")
        if src == tgt:
            raise InvalidSwitchError("source and target coalitions are equal")
        if not 0 <= tgt < self.num_coalitions:
            raise InvalidSwitchError("target coalition index out of range")
        if self.sizes[src] == 1:
            raise InvalidSwitchError("switch would empty the source coalition")
        m, k = self.probs.shape
        if priced is None:
            _, rows, grid, sums = _price_moves(self, np.array([client]))
            rows, grid, sums = rows[0], grid[0], sums[0]
        else:
            rows, grid, sums = priced
            shapes = (np.shape(rows), np.shape(grid), np.shape(sums))
            if shapes != ((m + 1, k), (m + 1, m + 1), (m + 1,)):
                raise InvalidValueError(
                    f"priced rows and grid must have shapes {(m + 1, k)} and {(m + 1, m + 1)}, "
                    f"and their sums {(m + 1,)}; got {shapes}"
                )

        self.assignment[client] = tgt
        self.sizes[src] -= 1
        self.sizes[tgt] += 1
        self.counts[src] -= self.client_counts[client]
        self.counts[tgt] += self.client_counts[client]
        self.probs[src] = rows[0]
        self.probs[tgt] = rows[1 + tgt]
        self.plogp[src] = sums[0]
        self.plogp[tgt] = sums[1 + tgt]
        js = self.js_matrix
        # against the old rows; the four entries among s and t are set after
        js[src] = js[:, src] = grid[0, :m]
        js[tgt] = js[:, tgt] = grid[1 + tgt, :m]
        js[src, src] = js[tgt, tgt] = 0.0
        js[src, tgt] = js[tgt, src] = grid[1 + tgt, m]


def _block_clients(partition: Partition) -> int:
    """Clients one kernel call may price within KERNEL_BLOCK_ELEMENTS, at least 1."""
    m, k = partition.counts.shape
    return max(1, KERNEL_BLOCK_ELEMENTS // ((m + 1) ** 2 * k))


def _price_moves(
    partition: Partition, clients: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Avg-JS change of moving each listed client to each coalition.

    Returns the (len(clients), M) deltas, with +inf at every client's
    own coalition, and the kernel's rows (len(clients), M+1, K), grid
    (len(clients), M+1, M+1) and row sums (len(clients), M+1) that
    ``Partition.apply`` can take.  No listed client may be alone in its
    coalition.

    A move of client c from s to t changes the pairs that touch s or t
    only: for every other coalition k, JS(s', P_k) - J[s, k] and
    JS(t', P_k) - J[t, k], plus the pair itself, JS(s', t') - J[s, t],
    where s' and t' are the two coalitions after the move.  One kernel
    call evaluates all of them on a grid: rows [s', t'_0 .. t'_{M-1}]
    against columns [P_0 .. P_{M-1}, s'].  The rows are normalized
    from one count block and their entropy sums taken once; the
    columns' sums are the partition's cached ``plogp`` and the row sum
    of s'.
    """
    m, k = partition.probs.shape
    src = partition.assignment[clients]
    moved = partition.client_counts[clients]
    counts = np.empty((len(clients), m + 1, k), dtype=np.int64)
    np.subtract(partition.counts[src], moved, out=counts[:, 0])
    np.add(partition.counts, moved[:, None, :], out=counts[:, 1:])
    rows = _normalized(counts)
    row_sums = xlog2x_sums(rows)
    cols = np.empty_like(rows)
    cols[:, :m] = partition.probs
    cols[:, m] = rows[:, 0]
    col_sums = np.empty_like(row_sums)
    col_sums[:, :m] = partition.plogp
    col_sums[:, m] = row_sums[:, 0]
    grid = js_rows(
        rows[:, :, None, :], cols[:, None, :, :], row_sums[:, :, None], col_sums[:, None, :]
    )

    current = partition.js_matrix
    src_rows = current[src]
    each = _arange(len(clients))
    # [c, t, k]: change of pairs (s, k) and (t, k) when c moves to t
    changes = (grid[:, :1, :m] - src_rows[:, None, :]) + (grid[:, 1:, :m] - current[None, :, :])
    every = _arange(m)
    changes[:, every, every] = 0.0  # k == t: no pair (t, t); (s, t) is the pair itself
    changes[each, :, src] = 0.0  # k == s: no pair (s, s); (t, s) likewise
    deltas = (grid[:, 1:, m] - src_rows) + changes.sum(axis=2)
    deltas /= partition.pair_denominator()
    deltas[each, src] = np.inf
    return deltas, rows, grid, row_sums


def evaluate_switch(
    partition: Partition, client: int, target: int, deltas: np.ndarray
) -> SwitchProposal:
    """The move of ``client`` to ``target`` as a proposal priced ``deltas[target]``.

    ``deltas`` is the client's ``_price_moves`` row on the partition's
    current state.  The partition is not mutated, and ``Partition.apply``
    alone judges whether the switch is admissible.
    """
    if not 0 <= target < partition.num_coalitions:
        raise InvalidSwitchError("target coalition index out of range")
    return SwitchProposal(client, int(partition.assignment[client]), target, float(deltas[target]))


def default_max_iters(n_clients: int) -> int:
    """The game budget ``coalition`` and ``compare`` use when none is given."""
    return max(2000, 200 * n_clients)


def run_coalition_formation(
    initial: Partition,
    max_iters: int,
    rng_seed: int | None = 0,
) -> tuple[Partition, GameTrace]:
    """Randomized improvement loop over single-client switches.

    Each iteration samples a client uniformly at random and applies its
    best improving switch, if any: the target at the first minimum of
    its ``_price_moves`` row, taken when that delta is below
    ``-SWITCH_TOLERANCE``.  The loop stops once no switch has been
    accepted for n_clients consecutive samples and an exhaustive
    deviation check confirms stability (random sampling alone can miss
    an improving client), or when ``max_iters``, an integer >= 1, is
    reached.  The returned trace records every sampled iteration, so its
    avg JS column is non-increasing.

    ``rng_seed``, None or an integer in [0, 2**64), seeds
    ``numpy.random.default_rng``.  Clients are drawn DRAW_BLOCK at a
    time, at most ``max_iters`` in all, and LOOKAHEAD_DRAWS samples are
    held ahead wherever the budget allows.  A block of draws is the same
    stream as one scalar draw per sample, so the samples are those of
    one draw per iteration.  A sampled client that is not yet priced on
    the current partition is priced in one batch with every unpriced,
    movable client among the next B - 1 held draws, where B is
    max(1, min(LOOKAHEAD_DRAWS, KERNEL_BLOCK_ELEMENTS // ((M+1)^2 * K))):
    B is 8 up to (M+1)^2 * K = 2048 and 1 past 8192.  A price does not
    depend on its batch, so B moves no decision.  The prices are kept
    until the next accepted switch, and the stability check reuses them.
    A sample is decided from its row of those prices; only an accepted
    switch gets a ``SwitchProposal`` (``evaluate_switch``), and it is
    applied (``Partition.apply``) from the kernel rows, grid and row
    sums of the last batch, which alone are kept.  Every held draw
    between a batch's first client and its other members is priced when
    the batch is, so each member is decided before the next batch is
    priced, and a client rejected once stays rejected for the epoch.  So
    an accepted switch either comes from the last batch or was priced by
    a failed stability check, which keeps no kernel arrays; ``apply``
    prices such a switch itself.

    An all-zero JS matrix is a global minimum of the potential: such a
    settled epoch records its samples as rejections without pricing.
    """
    check_integer("max_iters", max_iters, 1)
    rng_seed = None if rng_seed is None else check_seed("rng_seed", rng_seed)
    initial.validate()
    partition = initial.copy()
    rng = np.random.default_rng(rng_seed)
    trace = GameTrace(seed=rng_seed)

    n, m = partition.n_clients, partition.num_coalitions
    # the sampled draw and the held draws after it that may join its batch
    width = min(LOOKAHEAD_DRAWS, _block_clients(partition))
    # this epoch's _price_moves rows; NaN rows are not priced yet
    known = np.full((n, m), np.nan)
    # the clients of this epoch's last batch, and its kernel (rows, grid, sums)
    batch: list[int] = []
    kernel: list[np.ndarray] = []
    # per client, as lists indexed per sample: the coalition, not alone
    # in it, and a row in ``known``
    assignment = partition.assignment.tolist()
    movable = ((partition.sizes[partition.assignment] > 1) & (m > 1)).tolist()
    priced = [False] * n
    settled = not partition.js_matrix.any()
    avg_js = partition.avg_js()
    draws: list[int] = []  # draws[taken:] are drawn and not yet sampled
    taken = 0
    undrawn = max_iters
    quiet = 0
    iteration = 0
    converged = False
    while iteration < max_iters:
        while len(draws) - taken < LOOKAHEAD_DRAWS and undrawn:
            size = min(DRAW_BLOCK, undrawn)
            draws = draws[taken:] + rng.integers(n, size=size).tolist()
            taken = 0
            undrawn -= size
        client = draws[taken]
        taken += 1
        src = assignment[client]
        target = None
        if movable[client] and not settled:
            if not priced[client]:
                batch = [client]
                for other in draws[taken:taken + width - 1]:
                    if movable[other] and not priced[other] and other not in batch:
                        batch.append(other)
                index = np.array(batch)
                known[index], *kernel = _price_moves(partition, index)
                for other in batch:
                    priced[other] = True
            # the first minimum of the row, accepted below -SWITCH_TOLERANCE
            row = known[client]
            best = int(row.argmin())
            if row[best] < -SWITCH_TOLERANCE:
                target = best
        if target is not None:
            slot = None  # a row priced by a failed certificate has no grid
            if client in batch:
                slot = tuple(array[batch.index(client)] for array in kernel)
            partition.apply(evaluate_switch(partition, client, target, row), slot)
            assignment[client] = target
            known.fill(np.nan)
            batch, kernel = [], []
            # only a coalition whose size crosses between 1 and 2 changes
            # whether its members may move
            if partition.sizes[src] == 1 or partition.sizes[target] == 2:
                movable = (partition.sizes[partition.assignment] > 1).tolist()
            priced = [False] * n
            settled = not partition.js_matrix.any()
            avg_js = partition.avg_js()
            quiet = 0
        else:
            quiet += 1
        trace.entries.append((iteration, client, src, target, avg_js))
        iteration += 1
        if quiet >= n:
            if certify_stability(partition, known):
                converged = True
                break
            quiet = 0  # sampling missed an improving client; keep going
            priced = (~np.isnan(known[:, 0])).tolist()

    trace.iterations_used = iteration
    trace.converged = converged or certify_stability(partition, known)
    return partition, trace


def certify_stability(partition: Partition, known: np.ndarray | None = None) -> bool:
    """Exhaustively confirm that no single-client switch improves avg JS.

    Every client that is not alone in its coalition is priced against
    every target, in blocks of clients sized by KERNEL_BLOCK_ELEMENTS.
    With a single coalition no client has anywhere to go.  A partition
    whose JS matrix is all zeros is stable at once, with nothing priced:
    it is a global minimum of the potential, and every price there is a
    sum of non-negative kernel values.

    ``known``, when given, is a float array of shape (n_clients, M)
    holding the ``_price_moves`` row of each client already priced
    on the partition's current state and NaN in every other row.  An
    improving known row fails the check at once; only the movable
    clients with a NaN row are priced, and their rows are written into
    ``known``, so a failed check leaves every row it priced for the
    caller to reuse and a passed one on a nonzero potential has priced
    every movable client.
    """
    m = partition.num_coalitions
    if known is not None and not (
        isinstance(known, np.ndarray)
        and known.dtype.kind == "f"
        and known.shape == (partition.n_clients, m)
    ):
        raise InvalidValueError(
            f"known must be a float array of shape {(partition.n_clients, m)}, "
            f"got {described(known)}"
        )
    if m < 2 or not partition.js_matrix.any():
        return True
    unpriced = partition.sizes[partition.assignment] > 1
    if known is not None:
        if np.any(known < -SWITCH_TOLERANCE):
            return False
        unpriced &= np.isnan(known[:, 0])
    movable = np.flatnonzero(unpriced)
    block = _block_clients(partition)
    for start in range(0, movable.size, block):
        clients = movable[start:start + block]
        deltas = _price_moves(partition, clients)[0]
        if known is not None:
            known[clients] = deltas
        if np.any(deltas < -SWITCH_TOLERANCE):
            return False
    return True


def random_partition(
    client_label_counts: np.ndarray,
    num_coalitions: int,
    rng: np.random.Generator,
    denominator: str = "M",
) -> Partition:
    """Random client-to-edge association with every edge non-empty.

    One client is dealt to each coalition first (divergences are
    undefined on an empty coalition), the rest are assigned uniformly.
    ``num_coalitions`` must be an integer from 1 to the client count.
    """
    n = np.asarray(client_label_counts).shape[0]
    check_integer("num_coalitions", num_coalitions, 1, InvalidPartitionError)
    if n < num_coalitions:
        raise InvalidPartitionError("fewer clients than coalitions")
    assignment = np.empty(n, dtype=np.int64)
    order = rng.permutation(n)
    assignment[order[:num_coalitions]] = np.arange(num_coalitions)
    assignment[order[num_coalitions:]] = rng.integers(
        num_coalitions, size=n - num_coalitions
    )
    return Partition(assignment, client_label_counts, num_coalitions, denominator)
