"""Selector calibration: the sequence-space statistics' weights, thresholds,
truncation and random substreams, plus null shell sampling and tail audits.

Observations per candidate subset u of order k are X_l = eta_u theta_l + eps xi_l
on the punctured lattice.  For each grid point m the statistic

    S_{u,m} = sum_l omega_l(r*_{k,m}) ((X_l / eps)^2 - 1)

has mean 0 and variance 1 under the null (sum omega^2 = 1/2).  A subset is
selected when max_m S_{u,m} exceeds t_k = sqrt((2 + eps_hat)(log C(d,k) + log M)).
All M statistics of a subset come from one product with the order's
``(M, shells)`` weight matrix, which calibration fills row by row and
:class:`SelectorConfig` stores, read-only, next to the profiles that view it.

Randomness is organised as counter-based substreams: every (cycle, order,
subset-rank) owns a Philox stream spawned from the master seed, so full and
pooled enumeration agree on shared subsets and reruns are bit-identical.
The statistics themselves are evaluated per shell by ``risk.select`` and the
risk estimators.

A substream is the stream of ``Philox(SeedSequence(seed, spawn_key=words))``,
where each key part below 2^64 contributes two 32-bit words.  numpy's own
``SeedSequence`` mixes the seed; each key word is mixed in here, with its hash,
into the memoised (``functools.cache``) pool of the shorter prefix, so a new
stream mixes in only its rank's low word before the pool is hashed out to the
128-bit key.  ``substream(..., into=rng)`` re-keys an existing Philox generator
in place (counter 0, empty buffer, no half-word left) instead of building a
new one, and the generator then draws exactly what a fresh one would; the
null blocks of the risk estimators draw every subset and cycle through one
generator this way.

The tail audit and the null moments draw S = sum omega Q in batches of
``BATCH_ROWS`` rows, and batch ``idx`` owns the audit substream ``offset + idx``,
so batches are independent and may run in any order.  ``null_stat_batches``
runs them through :func:`_run_jobs`, the one worker pool that also runs the
risk driver's blocks, with one thread per CPU in the process's affinity set
(at most 8; ``taskset`` sets fewer), and yields their S vectors in batch
order, so callers sum in a fixed order.  Each batch draws its stream in row
blocks of at most ``lattice.BLOCK_ENTRIES`` entries, 512 kB of float64 (numpy
fills C-order rows from one stream, so the variates are those of one call),
and reduces each block with ``np.einsum("ij,j->i", ...)``: a fixed-order loop
per row, with no BLAS, so the S bits depend neither on the block size nor on
the CPU count.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .extremal import GridSpec, WeightProfile, calibrate_radii, order_weights
from .lattice import BLOCK_ENTRIES, DimensionSpec, log_binomial

# Stream phase tags keep independent uses of the master seed disjoint.
_PHASE_OBS = 1
_PHASE_POOL = 2
_PHASE_AUDIT = 3

PRESET_TRUNCATION = {1: 622, 2: 154, 3: 65, 4: 36}

# Rows per audit batch: the unit of work a worker takes and of the substreams.
BATCH_ROWS = 20_000


# Constants of numpy's seed hash (numpy/random/bit_generator.pyx): the mixing
# hash and the output hash of its pool of four 32-bit words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_ZERO4 = (0, 0, 0, 0)


def _uint32_words(n: int) -> tuple[int, ...]:
    """Little-endian 32-bit words of a nonnegative int; 0 is one word."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return tuple(words)


def _absorb(pool: tuple[int, ...], h: int, word: int) -> tuple[tuple[int, ...], int]:
    """Mix one more entropy word into every pool word, as SeedSequence does.

    The key words after the seed are mixed here, by hand, because every stream
    pays for one; numpy's own ``SeedSequence`` mixes the seed.
    """
    out = []
    for x in pool:
        v = word ^ h
        h = (h * _MULT_A) & _MASK32
        v = (v * h) & _MASK32
        r = (_MIX_L * x - _MIX_R * (v ^ (v >> 16))) & _MASK32
        out.append(r ^ (r >> 16))
    return tuple(out), h


@functools.cache
def _pool_state(seed: int, words: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Pool and hash constant after SeedSequence mixes the seed, then ``words``.

    numpy mixes the seed in 4 * max(seed words, 4) steps, whatever their values,
    each multiplying the constant by ``_MULT_A``; a word is absorbed into its prefix.
    """
    if words:
        return _absorb(*_pool_state(seed, words[:-1]), words[-1])
    steps = 4 * max(len(_uint32_words(seed)), 4)
    pool = np.random.SeedSequence(seed).pool
    return tuple(pool.tolist()), _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32


def _philox_key(seed: int, words: tuple[int, ...]) -> tuple[int, int]:
    """The two 64-bit words ``generate_state(2, np.uint64)`` gives for this entropy."""
    pool, h = _pool_state(seed, words[:-1])
    if words:
        pool, _ = _absorb(pool, h, words[-1])
    out = []
    h = _INIT_B
    for x in pool:
        x ^= h
        h = (h * _MULT_B) & _MASK32
        x = (x * h) & _MASK32
        out.append(x ^ (x >> 16))
    return out[0] | out[1] << 32, out[2] | out[3] << 32


def substream(
    seed: int, *key: int, into: np.random.Generator | None = None
) -> np.random.Generator:
    """Philox generator for a (seed, key...) address; reruns are bit-identical.

    The stream is the one of ``Philox(SeedSequence(seed, spawn_key=words))``,
    where each key part contributes the words (part >> 32, part & 0xFFFFFFFF);
    the pool before the last word is memoised, and that word is mixed in and
    the key hashed out directly.  With ``into``, that Philox generator is
    re-keyed in place (counter 0, empty buffer) and returned instead of a new
    one; it then draws exactly what a fresh stream would.
    """
    seed = int(seed)
    if seed < 0:
        raise ValueError("the stream seed must be nonnegative")
    words: list[int] = []
    for part in key:
        part = int(part)
        if part < 0:
            raise ValueError("stream key parts must be nonnegative")
        high = part >> 32
        words += _uint32_words(high) if high >> 32 else (high,)
        words.append(part & _MASK32)
    k0, k1 = _philox_key(seed, tuple(words))
    if into is None:
        return np.random.Generator(np.random.Philox(key=k0 | k1 << 64))
    into.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO4, "key": (k0, k1)},
        "buffer": _ZERO4,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return into


def observation_stream(
    seed: int, cycle: int, k: int, rank: int, into: np.random.Generator | None = None
) -> np.random.Generator:
    return substream(seed, _PHASE_OBS, cycle, k, rank, into=into)


def pool_stream(seed: int, k: int) -> np.random.Generator:
    return substream(seed, _PHASE_POOL, k)


def audit_stream(seed: int, chunk: int) -> np.random.Generator:
    return substream(seed, _PHASE_AUDIT, chunk)


def epsilon_hat(d: int, k: int, rule: str = "fixed", s: int | None = None) -> float:
    """Threshold inflation: 1/sqrt(log C(d,k)), or the documented growing-s rule.

    The growing-s variant returns max(1/sqrt(log d), log(s) log(log d) / log d),
    a choice that vanishes while eps_hat log d diverges and log s stays
    negligible against eps_hat log d in the regimes s = o(d), log log d = o(s).
    """
    if rule == "fixed":
        log_c = log_binomial(d, k)
        if log_c <= 0.0:
            raise ValueError(f"log C({d},{k}) = {log_c:.3g} is not positive")
        return 1.0 / math.sqrt(log_c)
    if rule != "growing_s":
        raise ValueError(f"rule must be 'fixed' or 'growing_s', got {rule!r}")
    if s is None:
        raise ValueError("growing_s rule requires s")
    log_d = math.log(d)
    if log_d <= 0.0 or s < 2 or math.log(log_d) <= 0.0:
        raise ValueError(f"growing_s rule needs d > e and s >= 2, got d={d}, s={s}")
    return max(1.0 / math.sqrt(log_d), math.log(s) * math.log(log_d) / log_d)


def threshold(d: int, k: int, M: int, eps_hat: float) -> float:
    """Selection threshold sqrt((2 + eps_hat)(log C(d,k) + log M))."""
    if M < 1:
        raise ValueError(f"grid size M must be >= 1, got {M}")
    return math.sqrt((2.0 + eps_hat) * (log_binomial(d, k) + math.log(M)))


def truncation_radius(
    k: int,
    profiles: Sequence[WeightProfile] | None = None,
    mode: str = "rule",
) -> int:
    """Lattice truncation n per order.

    ``preset`` returns the benchmark constants {622, 154, 65, 36} for
    k in 1..4.  ``rule`` returns ceil(max_m R(r*_{k,m})), which covers every
    weight support of the grid but is not the smallest such box: a support
    point has |l_j| < R, so n is at least one above the largest |l_j|, and
    two above at k = 3, R^2 = 17.5 (n = 5, largest |l_j| = 3).  Changing the
    rule would move bits, because n picks the quadrature rule.
    """
    if mode == "preset":
        if k not in PRESET_TRUNCATION:
            raise ValueError(f"no preset truncation for k={k}; use rule mode")
        return PRESET_TRUNCATION[k]
    if mode != "rule":
        raise ValueError(f"mode must be 'rule' or 'preset', got {mode!r}")
    if not profiles:
        raise ValueError("rule mode requires the calibrated weight profiles")
    return int(math.ceil(max(p.support_radius for p in profiles)))


@dataclass(frozen=True, eq=False)
class SelectorConfig:
    """Calibrated selector: grid, weight profiles, thresholds, truncation.

    ``weight_matrix[k]`` is the read-only ``(M, shells)`` matrix of order k
    that :func:`extremal.order_weights` returns with ``profiles[k]``: row m
    holds profile m's weights, zero-padded to the widest support.  Every
    construction checks that each truncation box covers its order's weights.
    """

    dim: DimensionSpec
    grid: GridSpec
    profiles: Mapping[int, tuple[WeightProfile, ...]]
    weight_matrix: Mapping[int, np.ndarray]
    thresholds: Mapping[int, float]
    truncation: Mapping[int, int]

    def __post_init__(self):
        for k, profiles in self.profiles.items():
            covered = max(p.max_abs_coord for p in profiles)
            if covered > self.truncation[k]:
                raise ValueError(
                    f"truncation n={self.truncation[k]} at k={k} does not cover the "
                    f"weight support, which reaches |l|={covered}"
                )

    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.profiles))


def build_selector_config(
    dim: DimensionSpec,
    M: int = 20,
    calibration: str = "exact",
    truncation: str = "preset",
    eps_hat_rule: str = "fixed",
) -> SelectorConfig:
    """Calibrate the full per-order grid for a problem configuration.

    For every order k <= s: an M-point sparsity grid, radii r* solving
    a(r*) = (1 + sqrt(1-beta_m)) sqrt(2 log C(d,k)), weight profiles built from
    the exact lattice sum (so their squared sum is exactly 1/2) and written
    into the order's weight matrix, the threshold t_k, and a truncation box,
    which the config checks to cover every nonzero weight.  The grid keeps
    only what calibration solved for: the betas, the targets and the a(r*),
    which in both modes are the profiles' exact ``a_value``, so
    ``asymptotic`` radii show the closed form's error against the targets.
    Each r* is its profile's ``source_r``, M is ``len(grid.betas)``, and
    eps_hat enters only t_k.
    """
    targets: dict[int, tuple[float, ...]] = {}
    a_values: dict[int, tuple[float, ...]] = {}
    profiles: dict[int, tuple[WeightProfile, ...]] = {}
    matrices: dict[int, np.ndarray] = {}
    thresholds_map: dict[int, float] = {}
    trunc: dict[int, int] = {}
    betas: tuple[float, ...] = ()
    for k in range(1, dim.s + 1):
        betas, targets[k], r_stars = calibrate_radii(
            dim.d, k, dim.sigma, dim.epsilon, M, mode=calibration
        )
        profiles[k], matrices[k] = order_weights(r_stars, k, dim.sigma, dim.epsilon)
        a_values[k] = tuple(p.a_value for p in profiles[k])
        eps_hat = epsilon_hat(dim.d, k, rule=eps_hat_rule, s=dim.s)
        thresholds_map[k] = threshold(dim.d, k, M, eps_hat)
        trunc[k] = truncation_radius(k, profiles[k], mode=truncation)
    grid = GridSpec(betas=betas, targets=targets, a_values=a_values)
    return SelectorConfig(
        dim=dim,
        grid=grid,
        profiles=profiles,
        weight_matrix=matrices,
        thresholds=thresholds_map,
        truncation=trunc,
    )


# ---------------------------------------------------------------------------
# Shell-level sampling (sufficient statistics for radial weights)
# ---------------------------------------------------------------------------

def null_shell_draw(rng: np.random.Generator, counts: np.ndarray, size: int) -> np.ndarray:
    """Draw Q_rho = chi2(N_rho) - N_rho for each shell; rows are replicates.

    Because every weight is constant on a squared-norm shell, the statistic
    depends on the noise only through per-shell sums of xi^2; sampling those
    directly is distributionally identical to per-index noise and far cheaper.
    Every shell holds at least one point (``shell_counts`` returns occupied
    shells only).  k = 1 shells hold two points each, and chi2(2) is a doubled
    exponential: numpy draws the same bytes either way, and the exponential
    path is about twice as fast (one-row draw of 620 shells).
    """
    df = np.asarray(counts, dtype=np.float64)
    if (df == 2.0).all():
        q = rng.standard_exponential(size=(size, len(counts)))
        q *= 2.0
    else:
        q = rng.chisquare(df, size=(size, len(counts)))
    q -= df
    return q


def _resolve_threads() -> int:
    """Worker count: the CPUs this process may run on, at most 8."""
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


def _run_job(job: tuple[Callable, tuple]) -> object:
    fn, args = job
    return fn(*args)


def _run_jobs(jobs: Iterable[tuple[Callable, tuple]]) -> Iterator:
    """Results of ``(function, arguments)`` jobs, in job order, run on one worker
    thread per CPU this process may run on, at most 8.  Every job is submitted
    at once; closing the iterator cancels the jobs not yet started and waits
    for the running ones."""
    with ThreadPoolExecutor(_resolve_threads()) as pool:
        yield from pool.map(_run_job, jobs)


def _batch_stats(w: WeightProfile, seed: int, stream: int, size: int) -> np.ndarray:
    """S for ``size`` null draws of one audit substream, one row block at a time."""
    rng = audit_stream(seed, stream)
    rows = max(1, BLOCK_ENTRIES // len(w.counts))
    stats = np.empty(size)
    for start in range(0, size, rows):
        block = stats[start : start + rows]
        np.einsum("ij,j->i", null_shell_draw(rng, w.counts, len(block)), w.values, out=block)
    return stats


def null_stat_batches(
    w: WeightProfile, trials: int, seed: int, offset: int
) -> Iterator[np.ndarray]:
    """Yield ``trials`` null draws of S = sum omega Q, in batches of <= ``BATCH_ROWS``.

    Batch idx draws from the audit substream ``offset + idx``, so callers with
    disjoint offsets get independent samples and reruns are bit-identical.
    Batches run on the worker pool of :func:`_run_jobs` and come out in batch
    order.  Closing the generator cancels the batches not yet started.
    ``trials`` must be >= 1; the check runs at the first draw.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    jobs = [
        (_batch_stats, (w, seed, offset + idx, min(BATCH_ROWS, trials - start)))
        for idx, start in enumerate(range(0, trials, BATCH_ROWS))
    ]
    yield from _run_jobs(jobs)


@dataclass(frozen=True)
class TailAudit:
    """Empirical tail frequency of a null statistic against exp(-T^2/2)."""

    empirical_upper: float
    reference: float
    regime_ok: bool


def tail_bound_audit(T: float, trials: int, seed: int, w: WeightProfile) -> TailAudit:
    """Estimate P0(S > T) and compare with exp(-T^2/2).

    The bound is asymptotic and only meaningful while T * max omega stays
    small; outside that regime the report carries a warning flag rather than
    failing.
    """
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    upper_hits = 0
    for stats in null_stat_batches(w, trials, seed, 0):
        upper_hits += int(np.count_nonzero(stats > T))
    return TailAudit(
        empirical_upper=upper_hits / trials,
        reference=math.exp(-T * T / 2.0),
        regime_ok=T * w.max_weight <= 0.1,
    )
