"""The adaptive selector, Monte Carlo Hamming-risk estimation, the
attenuation experiment, and classification against the selection and
detection boundaries.

One engine evaluates the statistics S_{u,m} for :func:`select` and the risk
estimators alike, with the config's weight matrix of its order as it is.
Because every weight is radial, a null subset's statistics depend on the
noise only through per-shell sums of xi^2, which are sampled directly as
chi-square variates; active subsets are drawn point-by-point on the
weight-support ball so their means enter exactly.  The ball is never
stored: each active draw streams it from the memoised (k - 1)-dimensional
tail of its order (``lattice._ball_tail``) in the slab walk's pieces of at
most ``lattice.BLOCK_ENTRIES`` points (512 kB per float64 temporary), and
means, normals and shell sums are formed piece by piece, in point order, so
no per-point array of the ball's size exists and the statistic is the
unchunked one, bit for bit.  Nor is any array sized by the tail: each
component keeps only the tail's k - 1 small-integer coordinate columns and
gathers its coefficients per piece, and each stream draws its normals into
one buffer sized to the largest piece.
Both paths draw from the same per-(cycle, order, subset-rank) substreams, so
results are bit-reproducible, full and pooled enumeration agree on shared
subsets, :func:`select` sees exactly the draws of the matching risk cycle,
and re-running a single subset (as the attenuation experiment does)
reproduces exactly what a full rerun would see.  The risk driver runs each
active component and each block of inactive ranks as one job on the worker
pool of ``selector._run_jobs``, which also runs the audit's batches; the
jobs' counts add into per-cycle misses and per-order, per-cycle false
positives, from which one function builds every :class:`RiskReport`.

There is no module-level cache: pure inputs (coefficient vectors, shell
tables, ball tails) are memoised where they are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CapacityError
from .extremal import a_exact, admissible_r_max
from .lattice import (
    DimensionSpec,
    Subset,
    _ball_chunks,
    _ball_tail,
    log_binomial,
    subset_rank,
)
from .selector import (
    SelectorConfig,
    _run_jobs,
    null_shell_draw,
    observation_stream,
    pool_stream,
)
from .signals import ComponentSpec, SparsityPattern, coeff_vector

SQRT2 = math.sqrt(2.0)

# Largest number of subsets of one order that full enumeration will visit.
MAX_FULL_SUBSETS = 500_000


class _OrderEngine:
    """Shell-compressed statistics for one interaction order."""

    def __init__(self, config: SelectorConfig, k: int):
        widest = max(config.profiles[k], key=lambda p: len(p.rho))
        self.k = k
        self.epsilon = config.dim.epsilon
        self.threshold = config.thresholds[k]
        self.truncation = config.truncation[k]
        self.rho = widest.rho
        self.counts = widest.counts.astype(np.float64)
        self.W = config.weight_matrix[k]  # the config's own, read-only
        self.r2_max = float(self.rho[-1]) + 0.5  # the ball of the union support

    def component_means(
        self, comp: ComponentSpec
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """(shell index, theta_l / eps) over the ball, one slab piece at a time.

        The pieces are those of :func:`lattice._ball_chunks`, at most
        ``BLOCK_ENTRIES`` points each.  The lead factor is gathered once over
        the short lead axis, with the amplitude folded in.  The tail factors
        are gathered per piece: each tail coordinate is kept as one
        contiguous column of the tail's small integer dtype, and a piece
        takes its coordinates from it and then their coefficients from the
        factor's vector, rolled by n so that a negative coordinate indexes
        from the end.  No array is sized by the tail.  A piece's means
        multiply the factors at its points in factor order, (amplitude / eps)
        * c_1 * ... * c_k as a per-point gather over the whole ball does, so
        every mean has the same bits.
        """
        axis, tail, _, _ = _ball_tail(self.k, self.r2_max)
        n = self.truncation
        lead_vec, *tail_vecs = (coeff_vector(fid, n) for fid in comp.factor_ids)
        lead_factor = comp.amplitude / self.epsilon * lead_vec[axis.astype(np.intp) + n]
        tail_factors = [
            (np.ascontiguousarray(tail[:, p]), np.roll(vec, -n))
            for p, vec in enumerate(tail_vecs)
        ]
        for lead, idx, shell in _ball_chunks(self.k, self.r2_max):
            mu = lead_factor[lead]
            for col, vec in tail_factors:
                mu *= vec[col.take(idx).astype(np.intp)]
            yield shell, mu

    def null_stats(self, rng: np.random.Generator) -> np.ndarray:
        q = null_shell_draw(rng, self.counts, 1)[0]
        return self.W @ q

    def active_stats(
        self,
        rngs: Sequence[np.random.Generator],
        means: Iterable[tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """One row of S_m per stream, from one pass over the (shell, mean) pieces.

        Stream j draws its normals piece by piece into one buffer sized to
        the largest piece, which is the sequence one call of ``len(ball)``
        normals gives, and ``np.add.at`` adds the piece into the shell sums
        in point order, as ``np.bincount`` over the whole ball would: each
        row is bit-identical to the unchunked statistic.
        """
        q = np.zeros((len(rngs), len(self.rho)))
        buf = np.empty(0)
        for idx, mu in means:
            if len(buf) < len(mu):
                buf = np.empty(len(mu))
            y = buf[: len(mu)]
            for rng, acc in zip(rngs, q):
                rng.standard_normal(out=y)
                y += mu
                y *= y
                y -= 1.0
                np.add.at(acc, idx, y)
        # one gemv per row: a blocked matrix product would change the last bits
        return np.array([self.W @ acc for acc in q])

    def mean_stats(self, means: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Deterministic statistic means E S_m = sum omega (theta/eps)^2."""
        q = np.zeros(len(self.rho))
        for idx, mu in means:
            np.add.at(q, idx, mu * mu)
        return self.W @ q


@dataclass(frozen=True)
class SubsetDecision:
    stats: tuple[float, ...]
    selected: bool
    argmax: int | None  # 1-based grid index m of the largest statistic


@dataclass(eq=False)
class SelectionResult:
    """Selector output: per-subset indicators with all M statistics recorded."""

    decisions: dict[Subset, SubsetDecision]
    thresholds: Mapping[int, float]


def hamming_loss(estimate: SelectionResult, truth: SparsityPattern) -> int:
    """Number of evaluated subsets where the selector and the truth disagree."""
    loss = 0
    for subset, decision in estimate.decisions.items():
        eta = truth.eta(subset)  # raises on universe mismatch
        loss += abs(int(decision.selected) - eta)
    return loss


def _check_pattern(pattern: SparsityPattern, config: SelectorConfig) -> None:
    if pattern.d != config.dim.d or pattern.s > config.dim.s:
        raise ValueError("pattern dimensions do not match the selector configuration")


def select(
    pattern: SparsityPattern,
    config: SelectorConfig,
    subsets: Iterable[Subset],
    seed: int,
    cycle: int = 0,
) -> SelectionResult:
    """Simulate one cycle of the sequence model and apply the adaptive selector.

    u is selected iff max_m S_{u,m} > t_k.  Subset u of order k draws its
    noise from the (seed, cycle, k, rank) substream, through the same engine
    and the same draws as :func:`estimate_risk`; over all subsets of orders
    1..pattern.s, ``hamming_loss`` of the result is that cycle's loss under
    ``estimate_risk(mode="full")``.
    """
    _check_pattern(pattern, config)
    components = {c.subset: c for k in range(1, pattern.s + 1) for c in pattern.active(k)}
    engines: dict[int, _OrderEngine] = {}
    decisions: dict[Subset, SubsetDecision] = {}
    for subset in subsets:
        k = subset.k
        if k not in engines:
            if k not in config.profiles:
                raise ValueError(f"config carries no grid for order k={k}")
            engines[k] = _OrderEngine(config, k)
        engine = engines[k]
        rng = observation_stream(seed, cycle, k, subset_rank(subset, config.dim.d))
        comp = components.get(subset)
        if comp is None:
            stats = engine.null_stats(rng)
        else:
            stats = engine.active_stats([rng], engine.component_means(comp))[0]
        selected = bool(stats.max() > engine.threshold)
        decisions[subset] = SubsetDecision(
            stats=tuple(float(v) for v in stats),
            selected=selected,
            argmax=int(np.argmax(stats)) + 1 if selected else None,
        )
    return SelectionResult(decisions=decisions, thresholds=dict(config.thresholds))


@dataclass(eq=False)
class RiskReport:
    """Monte Carlo Hamming-risk estimate with per-cycle losses."""

    err: float
    per_cycle_losses: tuple[int, ...]
    alpha: float | None
    false_positives: int
    misses: int
    evaluated_inactive: dict[int, int]
    extrapolated_fp: dict[int, float]


def _inactive_ranks(
    d: int, k: int, active_ranks: set[int], size: int, seed: int
) -> np.ndarray:
    """Sorted uniform sample of ``size`` inactive subset ranks, fixed across cycles.

    When ``size`` covers the inactive population, every inactive rank.
    Otherwise the first ``size`` inactive ranks of a uniformly ordered sample
    of ``size + len(active_ranks)`` distinct ranks: the sample holds at least
    ``size`` of them, and the first ``size`` inactive entries of a uniform
    ordering form a uniform ``size``-subset of the inactive ranks.
    """
    total = math.comb(d, k)
    active = np.fromiter(active_ranks, dtype=np.int64, count=len(active_ranks))
    if size >= total - len(active):
        return np.setdiff1d(np.arange(total, dtype=np.int64), active)
    candidates = pool_stream(seed, k).choice(total, size + len(active), replace=False)
    return np.sort(candidates[~np.isin(candidates, active)][:size])


def _null_block(
    engine: _OrderEngine, ranks: Sequence[int], J: int, seed: int
) -> np.ndarray:
    """False-positive counts per cycle over a block of inactive subsets.

    The block owns one generator and re-keys it to each subset's substream,
    which draws exactly what a fresh generator on that substream would.
    """
    fp = np.zeros(J, dtype=np.int64)
    t = engine.threshold
    rng = None
    for rank in ranks:
        for j in range(J):
            rng = observation_stream(seed, j, engine.k, int(rank), into=rng)
            stats = engine.null_stats(rng)
            if stats.max() > t:
                fp[j] += 1
    return fp


def _active_block(
    engine: _OrderEngine, comp: ComponentSpec, rank: int, J: int, seed: int
) -> np.ndarray:
    """Miss indicators per cycle for one active component, in one ball pass."""
    rngs = [observation_stream(seed, j, engine.k, rank) for j in range(J)]
    stats = engine.active_stats(rngs, engine.component_means(comp))
    return (~(stats.max(axis=1) > engine.threshold)).astype(np.int64)


def _run_cycles(
    pattern: SparsityPattern,
    config: SelectorConfig,
    J: int,
    seed: int,
    mode: str,
    pool_inactive: int,
    threads: int,
    skip_subsets: frozenset[Subset] = frozenset(),
) -> tuple[np.ndarray, dict[int, np.ndarray], dict[int, int], dict[int, _OrderEngine]]:
    """Shared cycle driver.

    Every active component and every block of inactive ranks is one
    ``(block function, arguments)`` job with a tally: an active block's miss
    indicators add into the per-cycle miss tally, a null block's counts into
    its order's per-cycle false-positive tally.  The jobs run on ``threads``
    workers (0 = auto), all submitted at once so that no worker idles behind
    a long active block, and their counts are added in job order.  Returns
    (miss_per_cycle, fp_per_cycle_by_k, n_inactive, engines).  The ball tail
    of every order with an active job is built here, on the calling thread,
    before any draw: workers only read it from the cache, and a
    ``CapacityError`` surfaces before the pool starts.
    """
    d = config.dim.d
    _check_pattern(pattern, config)
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    if pool_inactive < 0:
        raise ValueError(f"pool_inactive must be >= 0, got {pool_inactive}")
    if mode not in ("full", "pool"):
        raise ValueError(f"mode must be 'full' or 'pool', got {mode!r}")

    miss = np.zeros(J, dtype=np.int64)
    fp: dict[int, np.ndarray] = {}
    n_inactive: dict[int, int] = {}
    engines: dict[int, _OrderEngine] = {}
    jobs = []
    tallies = []
    for k in range(1, pattern.s + 1):
        engine = engines[k] = _OrderEngine(config, k)
        actives = [c for c in pattern.active(k) if c.subset not in skip_subsets]
        if actives:
            _ball_tail(k, engine.r2_max)  # before the pool starts: workers only read it
        for comp in actives:
            rank = subset_rank(comp.subset, d)
            jobs.append((_active_block, (engine, comp, rank, J, seed)))
            tallies.append(miss)
        total = math.comb(d, k)
        if mode == "full" and total > MAX_FULL_SUBSETS:
            raise CapacityError(
                f"full enumeration at k={k} needs {total} subsets, "
                f"exceeding the cap of {MAX_FULL_SUBSETS}"
            )
        active_ranks = {subset_rank(c.subset, d) for c in pattern.active(k)}
        size = total if mode == "full" else pool_inactive
        ranks = _inactive_ranks(d, k, active_ranks, size, seed)
        n_inactive[k] = len(ranks)
        fp[k] = np.zeros(J, dtype=np.int64)
        chunk = max(64, len(ranks) // 32 or 1)
        for start in range(0, len(ranks), chunk):
            block = ranks[start : start + chunk]
            jobs.append((_null_block, (engine, block, J, seed)))
            tallies.append(fp[k])

    for counts, tally in zip(_run_jobs(jobs, threads), tallies):
        tally += counts
    return miss, fp, n_inactive, engines


def _report(
    pattern: SparsityPattern, miss: np.ndarray, fp: Mapping[int, np.ndarray],
    n_inactive: dict[int, int], alpha: float | None,
) -> RiskReport:
    """The report of the tallies; each order's false-positive rate over its
    evaluated inactive subsets is extrapolated to all its inactive subsets."""
    J = len(miss)
    fp_per_cycle = sum(fp.values())
    losses = miss + fp_per_cycle
    extrapolated = {}
    for k, n_eval in n_inactive.items():
        population = math.comb(pattern.d, k) - len(pattern.active(k))
        extrapolated[k] = int(fp[k].sum()) / (n_eval * J) * population if n_eval else 0.0
    return RiskReport(
        err=float(losses.mean()),
        per_cycle_losses=tuple(int(v) for v in losses),
        alpha=alpha,
        false_positives=int(fp_per_cycle.sum()),
        misses=int(miss.sum()),
        evaluated_inactive=n_inactive,
        extrapolated_fp=extrapolated,
    )


def estimate_risk(
    pattern: SparsityPattern,
    config: SelectorConfig,
    J: int,
    seed: int,
    mode: str = "pool",
    pool_inactive: int = 2000,
    threads: int = 0,
    alpha: float | None = None,
) -> RiskReport:
    """Estimate the Hamming risk over J independent simulation cycles.

    In pool mode every active subset is evaluated together with a fixed
    uniform sample of ``pool_inactive`` inactive subsets per order; the
    false-positive rate observed on the pool is extrapolated to the full
    subset population in the report.
    """
    miss, fp, n_inactive, _ = _run_cycles(pattern, config, J, seed, mode, pool_inactive, threads)
    return _report(pattern, miss, fp, n_inactive, alpha)


def attenuation_experiment(
    alphas: Sequence[float],
    pattern: SparsityPattern,
    config: SelectorConfig,
    J: int,
    seed: int,
    mode: str = "pool",
    pool_inactive: int = 2000,
    threads: int = 0,
) -> list[RiskReport]:
    """Hamming risk as one first-order component is attenuated by alpha.

    Only the designated component changes across alpha, and every subset owns
    its own substream, so the shared part of each cycle is computed once; the
    resulting reports are identical to independent :func:`estimate_risk` runs
    on ``pattern.with_attenuated(alpha)``.
    """
    if not alphas:
        raise ValueError("alphas must hold at least one value")
    if any(not 0.0 < a <= 1.0 for a in alphas):
        raise ValueError("alphas must lie in (0, 1]")
    firsts = pattern.active(1)
    if not firsts:
        raise ValueError("pattern has no first-order component to attenuate")
    designated = firsts[0]
    rank = subset_rank(designated.subset, pattern.d)
    base_miss, fp, n_inactive, engines = _run_cycles(
        pattern, config, J, seed, mode, pool_inactive, threads,
        skip_subsets=frozenset({designated.subset}),
    )
    reports = []
    for alpha in alphas:
        miss = base_miss + _active_block(engines[1], designated.scaled(alpha), rank, J, seed)
        reports.append(_report(pattern, miss, fp, n_inactive, float(alpha)))
    return reports


# ---------------------------------------------------------------------------
# Boundary classification
# ---------------------------------------------------------------------------

def selection_boundary(beta: float) -> float:
    """Critical ratio sqrt(2)(1 + sqrt(1 - beta)) above which selection is possible."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return SQRT2 * (1.0 + math.sqrt(1.0 - beta))


DETECTION_BOUNDARY = SQRT2


@dataclass(frozen=True)
class RegimeVerdict:
    """Position of a radius family relative to the sharp boundaries."""

    ratio: float
    per_order: dict[int, float]
    verdict: str  # selectable | detectable_only | undetectable | boundary


def _verdict(ratio: float, sel: float, det: float, band: float) -> str:
    if ratio > sel + band:
        return "selectable"
    if det + band < ratio < sel - band:
        return "detectable_only"
    if ratio < det - band:
        return "undetectable"
    return "boundary"


def classify_regime(
    r_family: Mapping[int, float],
    spec: DimensionSpec,
    band: float = 0.05,
) -> RegimeVerdict:
    """Classify min_k a(r_k)/sqrt(log C(d,k)) against the sharp boundaries.

    Verdicts within ``band`` of a critical level come back as ``boundary``;
    finite-noise calibration makes knife-edge labels meaningless.
    """
    if not r_family:
        raise ValueError("r_family must contain at least one order")
    per_order = {}
    for k, r in r_family.items():
        per_order[k] = a_exact(r, k, spec.sigma, spec.epsilon) / math.sqrt(
            log_binomial(spec.d, k)
        )
    ratio = min(per_order.values())
    verdict = _verdict(ratio, selection_boundary(spec.beta), DETECTION_BOUNDARY, band)
    return RegimeVerdict(ratio=ratio, per_order=per_order, verdict=verdict)


@dataclass(frozen=True)
class SweepRow:
    beta: float
    sigma: float
    d: int
    k: int
    r: float
    ratio: float
    verdict: str


def boundary_sweep(
    spec: DimensionSpec,
    betas: Sequence[float],
    radii: Sequence[float],
    ks: Sequence[int],
    band: float = 0.05,
) -> list[SweepRow]:
    """Phase data over a (beta, r) grid; rows only for admissible radii.

    The ratio a(r)/sqrt(log C(d,k)) does not depend on beta, so it is computed
    once per (k, r) and classified against each beta's thresholds.
    """
    rows: list[SweepRow] = []
    det = DETECTION_BOUNDARY
    for k in ks:
        r_hi = admissible_r_max(k, spec.sigma)
        log_c = math.sqrt(log_binomial(spec.d, k))
        for r in radii:
            if not 0.0 < r < r_hi:
                continue
            ratio = a_exact(r, k, spec.sigma, spec.epsilon) / log_c
            for beta in betas:
                sel = selection_boundary(beta)
                rows.append(
                    SweepRow(
                        beta=float(beta),
                        sigma=spec.sigma,
                        d=spec.d,
                        k=int(k),
                        r=float(r),
                        ratio=ratio,
                        verdict=_verdict(ratio, sel, det, band),
                    )
                )
    return rows
