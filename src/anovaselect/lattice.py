"""Subset and frequency-lattice combinatorics.

Candidate interaction groups are k-element subsets u of {1, ..., d}.  Each
group indexes Fourier coefficients on the punctured integer lattice: points
of Z^k with every coordinate nonzero.  This module provides

* log-space binomial counts (stable up to d ~ 1e6),
* the active-component count N = round(C(d,k)^(1-beta)),
* the squared-norm shell structure of the balls {l : |l| < R, all l_j != 0}:
  one convolution over coordinates gives the point count, or the sum of any
  per-coordinate product mass, on every shell (every radial quantity is
  constant on a shell); the list of occupied shells (``rho``, ``counts``;
  l^2 with count 2 at k = 1) is a pure function of (k, size), memoised with
  ``functools.cache`` as read-only arrays (the dense point-count table it is
  read from is not kept), with power-of-two sizes so one list serves every
  smaller ball: :func:`shell_counts` returns read-only prefix views of it,
  cut by ``searchsorted``, so the calibration's thousands of supports share
  it,
* the ball's points for the active path, never stored whole: the
  ball of Z^k is the lexicographic walk over leading-coordinate slabs of a
  (k - 1)-dimensional tail, so :func:`_ball_tail` memoises the small tail
  (the package's one cache policy: ``functools.cache`` on a pure helper that
  returns read-only arrays) and :func:`_ball_chunks` streams the points in
  the slab walk's own pieces of at most ``BLOCK_ENTRIES`` points, each point
  as its lead position, tail index and shell index, so that past the
  memoised tail no array is sized by the tail or the ball,
* the two capacity guards of the package, each checked where its array is
  allocated: ``MAX_SHELL_INDEX`` bounds every per-shell array that
  :func:`shell_counts` builds, and ``MAX_BALL_POINTS`` bounds the one stored
  array of lattice points, the tail above; ``BLOCK_ENTRIES`` is the
  package's one block size, bounding every temporary of a blocked loop (the
  slab walk's masks and pieces, the audit's null-draw rows and the
  coefficient vectors' cos/sin rows) at 512 kB of float64,
* lexicographic subset ranking, which keys the per-subset random substreams
  so that full and pooled enumeration agree on shared subsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError

@dataclass(frozen=True, order=True)
class Subset:
    """A k-element subset of {1, ..., d}, stored as a sorted index tuple."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) < 1:
            raise ValueError("subset must contain at least one index")
        if any(i < 1 for i in idx):
            raise ValueError(f"subset indices must be >= 1, got {idx}")
        if any(a >= b for a, b in zip(idx, idx[1:])):
            raise ValueError(f"subset indices must be strictly increasing, got {idx}")

    @property
    def k(self) -> int:
        return len(self.indices)

    def __repr__(self) -> str:  # {1,2,5} reads better than Subset(indices=(1, 2, 5))
        return "{" + ",".join(str(i) for i in self.indices) + "}"


@dataclass(frozen=True)
class DimensionSpec:
    """Problem dimensions: ambient d, maximal order s, sparsity/smoothness/noise."""

    d: int
    s: int
    beta: float
    sigma: float
    epsilon: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d}")
        if not 1 <= self.s < self.d:
            raise ValueError(f"s must satisfy 1 <= s < d, got s={self.s}, d={self.d}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")


def log_binomial(d: int, k: int) -> float:
    """Natural log of C(d, k), computed via log-gamma (no overflow)."""
    if d < 1:
        raise ValueError(f"d must be a positive integer, got {d}")
    if not 0 <= k <= d:
        raise ValueError(f"k must lie in [0, {d}], got {k}")
    return math.lgamma(d + 1) - math.lgamma(k + 1) - math.lgamma(d - k + 1)


def active_count(d: int, k: int, beta: float) -> int:
    """Number of active components N = round(C(d,k)^(1-beta)).

    Rounding is to the nearest integer, halves away from zero.  Note that the
    bundled benchmark bank pins three two-way components for every d, which
    at d=200 differs from this rounding (3.62 rounds to 4); pattern counts are
    authoritative for reproducing the benchmark table.
    """
    if not 1 <= k <= d:
        raise ValueError(f"k must lie in [1, {d}], got {k}")
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    value = math.exp((1.0 - beta) * log_binomial(d, k))
    return max(1, int(math.floor(value + 0.5)))


# ---------------------------------------------------------------------------
# Shell structure of the punctured lattice
# ---------------------------------------------------------------------------

# Largest per-shell array: the dense table of a k >= 2 ball (m + 1 entries
# for squared norms up to m) and the shell list of a k = 1 ball (one shell
# per root, isqrt(m) of them).
MAX_SHELL_INDEX = 5_000_000

# Largest number of lattice points stored at once, which only the memoised
# (k - 1)-dimensional tail of a ball does, checked level by level where it is
# allocated (the largest any benchmark configuration builds is 162848 points
# at k = 4, 973696 at k = 5 with truncation = rule).
MAX_BALL_POINTS = 10_000_000

# Entries per block of every blocked loop: the slab walk's masks and the
# pieces in which the active path streams the ball, the audit's null-draw
# rows and the coefficient vectors' cos/sin rows.  A float64 block is 512 kB,
# so it stays in cache.
BLOCK_ENTRIES = 1 << 16


def shell_convolve(masses: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Per-shell sums of a product mass over the punctured lattice Z^k.

    ``masses[j][l - 1]`` is the mass of coordinate j at |l_j| = l, both signs
    together.  Entry rho (0 <= rho < size) of the result is the sum, over the
    points l with all l_j != 0 and sum l_j^2 = rho, of prod_j masses[j][|l_j| - 1].
    Each coordinate is one pass over its roots, so the cost is
    O(size * sum_j len(masses[j])) and no point is materialised.
    """
    first = np.asarray(masses[0])
    acc = np.zeros(size, dtype=first.dtype)
    roots = np.arange(1, len(first) + 1)
    inside = roots * roots < size
    acc[roots[inside] ** 2] = first[inside]
    for mass in masses[1:]:
        nxt = np.zeros_like(acc)
        for l, weight in enumerate(mass, start=1):
            sq = l * l
            if sq >= size:
                break
            nxt[sq:] += weight * acc[: size - sq]
        acc = nxt
    return acc


def _shell_table(k: int, size: int) -> np.ndarray:
    """c[rho] = #{l in Z^k : all l_j != 0, sum l_j^2 = rho} for 0 <= rho < size."""
    two = np.full(math.isqrt(size - 1), 2, dtype=np.int64)  # +-l: two points each
    return shell_convolve([two] * k, size)


def _table_size(n: int) -> int:
    """The one sizing policy of the memoised shell arrays: the power of two
    above n (at least 32), capped at ``MAX_SHELL_INDEX + 1``."""
    return min(max(32, 1 << n.bit_length()), MAX_SHELL_INDEX + 1)


@functools.cache
def _occupied_shells(k: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(rho, counts)`` of every occupied shell of a table size.

    For k >= 2 the shells are the nonzero entries of ``_shell_table(k, size)``
    (squared norms below ``size``); for k = 1 they are l^2 for the roots
    1 <= l < size, two points each.
    """
    if k == 1:
        roots = np.arange(1, size, dtype=np.int64)
        rho, counts = roots * roots, np.full(size - 1, 2, dtype=np.int64)
    else:
        table = _shell_table(k, size)
        rho = np.nonzero(table)[0].astype(np.int64)
        counts = table[rho]
    rho.setflags(write=False)
    counts.setflags(write=False)
    return rho, counts


_NO_SHELLS = np.empty(0, dtype=np.int64)
_NO_SHELLS.setflags(write=False)


def shell_counts(k: int, r2_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Occupied shells of the open ball {l in Z^k : all l_j != 0, |l|^2 < r2_max}.

    Returns ``(rho, counts)`` where ``rho`` lists the attained squared norms in
    increasing order and ``counts[i]`` is the number of lattice points on shell
    ``rho[i]``.  Both are read-only prefix views of the memoised shell list of
    the order (empty when the ball contains no admissible point), so a call
    costs one ``searchsorted``, not a scan of the shell table.
    Raises ``CapacityError`` when an array would exceed ``MAX_SHELL_INDEX``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = int(math.ceil(r2_max)) - 1  # strict inequality: rho <= m
    if m < k:
        return _NO_SHELLS, _NO_SHELLS
    n = math.isqrt(m) if k == 1 else m  # k = 1 lists roots, k >= 2 squared norms
    if n > MAX_SHELL_INDEX:
        what = (f"one-dimensional ball has {n} shells" if k == 1
                else f"shell table for k={k} needs {n} entries")
        raise CapacityError(f"{what}, exceeding the table limit of {MAX_SHELL_INDEX}")
    rho, counts = _occupied_shells(k, _table_size(n))
    stop = int(np.searchsorted(rho, m, side="right"))
    return rho[:stop], counts[:stop]


def _slabs(
    axis: np.ndarray, tail_rho: np.ndarray, r2_max: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(lead position, tail index, squared norm) of the points l1 x t of the ball.

    Slab l1 keeps the tail points with ``tail_rho < r2_max - l1^2``, in tail
    order, so lead-major order over a lexicographic tail is lexicographic.
    Each block masks at most ``BLOCK_ENTRIES`` (slab, tail point) pairs: a
    window of one slab of a long tail, or many slabs of a short one, and
    every array it yields holds at most that many points.  Norms are
    integers, so each compares with the integer ``ceil`` of its float bound,
    which keeps the same points without casting the block to float.
    """
    n = len(tail_rho)
    if len(axis) == 0 or n == 0:
        return
    sq = axis.astype(np.int64) ** 2
    rows = BLOCK_ENTRIES // n
    if rows <= 1:
        for pos, lead_sq in enumerate(sq.tolist()):
            bound = math.ceil(r2_max - lead_sq)
            for t in range(0, n, BLOCK_ENTRIES):
                window = tail_rho[t : t + BLOCK_ENTRIES]
                idx = np.flatnonzero(window < bound)
                rho = window.take(idx)
                rho += lead_sq
                idx += t
                yield np.broadcast_to(pos, idx.shape), idx, rho
        return
    bound = math.ceil(r2_max)
    for a in range(0, len(sq), rows):
        rho = tail_rho + sq[a : a + rows, None]
        keep = rho < bound
        lead, idx = np.nonzero(keep)
        lead += a
        rho = rho[keep]
        yield lead, idx, rho


@functools.cache
def _ball_tail(
    k: int, r2_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The pieces from which :func:`_ball_chunks` streams the ball of Z^k.

    Returns read-only ``(axis, tail, tail_rho, shell_of)``: the nonzero lead
    coordinates in increasing order, in the smallest signed integer dtype
    that holds them (int8 up to |l| = 127); the (k - 1)-dimensional tail, the
    all-nonzero points with squared norm < r2_max - 1 (room for l1^2 >= 1),
    in lexicographic order and the same dtype; their int32 squared norms; and
    the map from a squared norm to its shell index in
    ``shell_counts(k, r2_max)[0]`` (empty at k = 1, whose shells are l1^2).
    The tail grows one leading coordinate at a time, each level the slabs of
    the one before, so no box of the whole cube is formed; every level is
    guarded by ``MAX_BALL_POINTS`` where it is allocated.
    """
    rho_vals, _ = shell_counts(k, r2_max)
    limit = math.isqrt(int(rho_vals[-1]) - (k - 1)) if len(rho_vals) else 0
    dtype = np.min_scalar_type(-limit - 1)  # signed, holds -limit..limit
    axis = np.concatenate([np.arange(-limit, 0), np.arange(1, limit + 1)]).astype(dtype)
    tail = np.empty((1, 0), dtype=dtype)
    tail_rho = np.zeros(1, dtype=np.int32)
    for j in range(1, k):
        # the ball of Z^j inside r2_max - (k - j): the later coordinates need >= 1 each
        r2 = r2_max - (k - j)
        sizes = np.searchsorted(np.sort(tail_rho), r2 - axis.astype(np.int64) ** 2)
        total = int(sizes.sum())
        if total > MAX_BALL_POINTS:
            raise CapacityError(
                f"lattice ball for k={k} stores a {j}-dimensional tail of {total} "
                f"points, exceeding the cap of {MAX_BALL_POINTS}"
            )
        grown = np.empty((total, j), dtype=dtype)
        grown_rho = np.empty(total, dtype=np.int32)
        start = 0
        for lead, idx, rho in _slabs(axis, tail_rho, r2):
            stop = start + len(lead)
            grown[start:stop, 0] = axis[lead]
            grown[start:stop, 1:] = tail[idx]
            grown_rho[start:stop] = rho
            start = stop
        tail, tail_rho = grown, grown_rho
    shell_of = np.zeros(0, dtype=np.int32)
    if k > 1 and len(rho_vals):
        shell_of = np.zeros(int(rho_vals[-1]) + 1, dtype=np.int32)
        shell_of[rho_vals] = np.arange(len(rho_vals), dtype=np.int32)
    for arr in (axis, tail, tail_rho, shell_of):
        arr.setflags(write=False)
    return axis, tail, tail_rho, shell_of


def _ball_chunks(
    k: int, r2_max: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The ball of Z^k in lexicographic order, streamed from its memoised tail.

    Yields ``(lead, idx, shell)`` per piece of the slab walk, as
    :func:`_slabs` yields them: each point's position in the tail's ``axis``
    and its index in ``tail`` (both intp, so gathers take them without
    conversion), and its int32 shell index.  A piece holds at most
    ``BLOCK_ENTRIES`` points, possibly none, and stays valid after the next
    is yielded.  No array is sized by the tail.
    """
    axis, _, tail_rho, shell_of = _ball_tail(k, r2_max)
    if k == 1:  # shell l1^2 is the (|l1| - 1)-th: map lead positions, not norms
        shell_of = np.abs(axis.astype(np.int32)) - 1
    for lead, idx, rho in _slabs(axis, tail_rho, r2_max):
        yield lead, idx, shell_of.take(lead if k == 1 else rho)


# ---------------------------------------------------------------------------
# Subset enumeration, ranking, and pooled sampling
# ---------------------------------------------------------------------------

def subset_rank(subset: Subset, d: int) -> int:
    """Lexicographic rank of ``subset`` among all k-subsets of {1..d}."""
    idx = subset.indices
    k = len(idx)
    if idx[-1] > d:
        raise ValueError(f"subset {subset} does not fit in dimension d={d}")
    rank = 0
    prev = 0
    for pos, a in enumerate(idx):
        for b in range(prev + 1, a):
            rank += math.comb(d - b, k - pos - 1)
        prev = a
    return rank
