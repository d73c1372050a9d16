"""Subset and frequency-lattice combinatorics.

Candidate interaction groups are k-element subsets u of {1, ..., d}.  Each
group indexes Fourier coefficients on the punctured integer lattice: points
of Z^k with every coordinate nonzero.  This module provides

* log-space binomial counts (stable up to d ~ 1e6),
* the active-component count N = round(C(d,k)^(1-beta)),
* the squared-norm shell structure of the balls {l : |l| < R, all l_j != 0}:
  one convolution over coordinates gives the point count, or the sum of any
  per-coordinate product mass, on every shell (every radial quantity is
  constant on a shell), plus the ball's points for callers that need them;
  the point-count table is a pure function of (k, size), memoised with
  ``functools.cache`` as a read-only array, with power-of-two sizes so one
  table serves every smaller ball,
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

# Hard ceiling on materialised lattice points; generous for every benchmark
# configuration (the largest support used anywhere is ~7e6 points at k=4).
DEFAULT_POINT_CAP = 10_000_000


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
        if not 1 <= self.s <= self.d:
            raise ValueError(f"s must satisfy 1 <= s <= d, got s={self.s}, d={self.d}")
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

# Resource guard for the dense shell tables (entries are 8-byte counts).
MAX_SHELL_INDEX = 50_000_000


def ball_volume_estimate(k: int, radius: float) -> float:
    """Continuum volume of the k-ball; the lattice count is below this."""
    if radius <= 0:
        return 0.0
    log_vol = 0.5 * k * math.log(math.pi) + k * math.log(radius) - math.lgamma(
        0.5 * k + 1.0
    )
    return math.exp(min(log_vol, 700.0))


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


@functools.cache
def _shell_table(k: int, size: int) -> np.ndarray:
    """c[rho] = #{l in Z^k : all l_j != 0, sum l_j^2 = rho} for 0 <= rho < size."""
    two = np.full(math.isqrt(size - 1), 2, dtype=np.int64)  # +-l: two points each
    table = shell_convolve([two] * k, size)
    table.setflags(write=False)
    return table


def _shell_array(k: int, m: int) -> np.ndarray:
    """Counts of all-nonzero lattice points per squared norm 0..m (k >= 2)."""
    if m > MAX_SHELL_INDEX:
        raise CapacityError(
            f"shell table for k={k} needs {m} entries, exceeding the table "
            f"limit of {MAX_SHELL_INDEX}"
        )
    size = max(32, 1 << m.bit_length())  # power of two above m
    return _shell_table(k, min(size, MAX_SHELL_INDEX + 1))


def shell_counts(k: int, r2_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Occupied shells of the open ball {l in Z^k : all l_j != 0, |l|^2 < r2_max}.

    Returns ``(rho, counts)`` where ``rho`` lists the attained squared norms in
    increasing order and ``counts[i]`` is the number of lattice points on shell
    ``rho[i]``.  Empty arrays when the ball contains no admissible point.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    m = int(math.ceil(r2_max)) - 1  # strict inequality: rho <= m
    if m < k:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if k == 1:
        # one coordinate: shell l^2 holds the two points +-l
        limit = math.isqrt(m)
        if limit > MAX_SHELL_INDEX:
            raise CapacityError(
                f"one-dimensional ball holds {2 * limit} points, exceeding the "
                f"table limit of {MAX_SHELL_INDEX}"
            )
        roots = np.arange(1, limit + 1, dtype=np.int64)
        return roots * roots, np.full(limit, 2, dtype=np.int64)
    acc = _shell_array(k, m)
    rho = np.nonzero(acc[: m + 1])[0]
    return rho.astype(np.int64), acc[rho]


def ball_coords(k: int, r2_max: float, cap: int = DEFAULT_POINT_CAP):
    """All-nonzero lattice points with squared norm < r2_max, as arrays.

    Returns ``(coords, rho)``: an (n, k) int32 array in lexicographic order
    and the squared norm of each row.  Guarded by ``cap``.
    """
    rho_vals, counts = shell_counts(k, r2_max)
    total = int(counts.sum())
    if total > cap:
        raise CapacityError(
            f"lattice ball for k={k} holds {total} points, exceeding the cap of {cap}"
        )
    if total == 0:
        return np.empty((0, k), dtype=np.int32), np.empty(0, dtype=np.int64)
    limit = math.isqrt(int(rho_vals[-1]) - (k - 1))
    axis = np.concatenate([np.arange(-limit, 0), np.arange(1, limit + 1)]).astype(np.int32)
    if k == 1:
        coords = axis.reshape(-1, 1)
        rho = (axis.astype(np.int64)) ** 2
        keep = rho < r2_max
        return coords[keep], rho[keep]
    # chunk over the leading coordinate to bound transient memory
    tail = np.stack(
        np.meshgrid(*([axis] * (k - 1)), indexing="ij"), axis=-1
    ).reshape(-1, k - 1)
    tail_rho = (tail.astype(np.int64) ** 2).sum(axis=1)
    out_coords = []
    out_rho = []
    for l1 in axis:
        rho = tail_rho + int(l1) * int(l1)
        keep = rho < r2_max
        if not keep.any():
            continue
        block = np.empty((int(keep.sum()), k), dtype=np.int32)
        block[:, 0] = l1
        block[:, 1:] = tail[keep]
        out_coords.append(block)
        out_rho.append(rho[keep])
    coords = np.concatenate(out_coords, axis=0)
    return coords, np.concatenate(out_rho)


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
