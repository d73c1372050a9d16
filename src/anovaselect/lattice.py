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
* the package's capacity guards on lattice arrays: ``MAX_SHELL_INDEX``
  bounds every per-shell array that :func:`shell_counts` builds, and an
  integer :func:`shell_convolve` refuses a count beyond int64;
  ``BLOCK_ENTRIES`` is the package's one block size, bounding every
  temporary of a blocked loop (the audit's null-draw rows and the
  coefficient vectors' cos/sin rows) at 512 kB of float64,
* lexicographic subset ranking, which keys the per-subset random substreams
  so that full and pooled enumeration agree on shared subsets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

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

# Entries per block of every blocked loop: the audit's null-draw rows and the
# coefficient vectors' cos/sin rows.  A float64 block is 512 kB, so it stays
# in cache.
BLOCK_ENTRIES = 1 << 16

INT64_MAX = np.iinfo(np.int64).max


def shell_convolve(masses: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Per-shell sums of a product mass over the punctured lattice Z^k.

    ``masses[j][l - 1]`` is the mass of coordinate j at |l_j| = l, both signs
    together.  Entry rho (0 <= rho < size) of the result is the sum, over the
    points l with all l_j != 0 and sum l_j^2 = rho, of prod_j masses[j][|l_j| - 1].
    Each coordinate is one pass over its roots, so the cost is
    O(size * sum_j len(masses[j])) and no point is materialised.  A pass
    fills only the entries that can still reach the result (each later
    coordinate adds at least 1 to rho).  With nonnegative integer masses, a
    pass whose entries could pass int64 is summed in exact Python integers,
    and ``CapacityError`` is raised if one does; for point counts (mass 2 at
    every l) that happens only when a count of the result passes int64.
    """
    first = np.asarray(masses[0])
    acc = np.zeros(size, dtype=first.dtype)
    roots = np.arange(1, len(first) + 1)
    inside = roots * roots < size
    acc[roots[inside] ** 2] = first[inside]
    integer = acc.dtype.kind in "iu"
    for j, mass in enumerate(masses[1:], start=1):
        reach = size - (len(masses) - 1 - j)
        if integer and int(acc[:reach].max(initial=0)) * int(np.sum(mass)) > INT64_MAX:
            acc, mass = acc.astype(object), [int(w) for w in mass]
        nxt = np.zeros_like(acc)
        for l, weight in enumerate(mass, start=1):
            sq = l * l
            if sq >= reach:
                break
            nxt[sq:reach] += weight * acc[: reach - sq]
        if nxt.dtype == object:
            if nxt.max() > INT64_MAX:
                raise CapacityError(
                    f"a shell count of order {len(masses)} exceeds the int64 limit {INT64_MAX}"
                )
            nxt = nxt.astype(np.int64)
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
