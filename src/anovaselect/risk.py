"""The adaptive selector, Monte Carlo Hamming-risk estimation, the
attenuation experiment, and classification against the selection and
detection boundaries.

One engine evaluates the statistics S_{u,m} for :func:`select` and the risk
estimators alike.  Because every weight is radial, a null subset's statistics
depend on the noise only through per-shell sums of xi^2, which are sampled
directly as chi-square variates; active subsets are materialised
point-by-point on the weight-support ball so their means enter exactly.  Both
paths draw from the same per-(cycle, order, subset-rank) substreams, so
results are bit-reproducible, full and pooled enumeration agree on shared
subsets, :func:`select` sees exactly the draws of the matching risk cycle, and
re-running a single subset (as the attenuation experiment does) reproduces
exactly what a full rerun would see.

There is no module-level cache: pure inputs (coefficient vectors, shell
tables) are memoised where they are computed, and each :class:`_OrderEngine`
owns its lattice ball for the lifetime of the run that created it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError
from .extremal import a_exact, admissible_r_max
from .lattice import (
    DimensionSpec,
    Subset,
    ball_coords,
    log_binomial,
    subset_rank,
)
from .selector import SelectorConfig, null_shell_draw, observation_stream, pool_stream
from .signals import ComponentSpec, SparsityPattern, coeff_vector

SQRT2 = math.sqrt(2.0)

# Largest number of subsets of one order that full enumeration will visit.
MAX_FULL_SUBSETS = 500_000


class _OrderEngine:
    """Shell-compressed statistics for one interaction order."""

    def __init__(self, config: SelectorConfig, k: int):
        profiles = config.profiles[k]
        self.k = k
        self.epsilon = config.dim.epsilon
        self.threshold = config.thresholds[k]
        self.truncation = config.truncation[k]
        longest = max(profiles, key=lambda p: len(p.rho))
        if longest.max_abs_coord > self.truncation:
            raise ValueError(
                f"truncation n={self.truncation} at k={k} does not cover the weight "
                f"support, which reaches |l|={longest.max_abs_coord}"
            )
        self.rho = longest.rho
        self.counts = longest.counts.astype(np.float64)
        self.W = np.zeros((len(profiles), len(self.rho)))
        for m, prof in enumerate(profiles):
            if not np.array_equal(prof.rho, self.rho[: len(prof.rho)]):
                raise AssertionError("weight supports are not nested shell prefixes")
            self.W[m, : len(prof.values)] = prof.values
        self._ball: tuple[np.ndarray, np.ndarray] | None = None

    def ball(self) -> tuple[np.ndarray, np.ndarray]:
        """(coords, shell index) for the union weight support, built on first use.

        The first call builds the ball and is not safe to race: callers that
        share an engine between threads (``_run_cycles``) call it once on the
        main thread before the workers start, so the workers only read it.
        """
        if self._ball is None:
            coords, rho = ball_coords(self.k, float(self.rho[-1]) + 0.5)
            shell_idx = np.searchsorted(self.rho, rho).astype(np.int32)
            self._ball = (coords.astype(np.int16), shell_idx)
        return self._ball

    def component_means(self, comp: ComponentSpec) -> np.ndarray:
        """theta_l / eps over the ball, from the factored coefficient vectors."""
        coords, _ = self.ball()
        n = self.truncation
        mu = np.full(coords.shape[0], comp.amplitude / self.epsilon)
        for p, fid in enumerate(comp.factor_ids):
            vec = coeff_vector(fid, n)
            mu *= vec[coords[:, p].astype(np.int64) + n]
        return mu

    def null_stats(self, rng: np.random.Generator) -> np.ndarray:
        q = null_shell_draw(rng, self.counts, 1)[0]
        return self.W @ q

    def active_stats(self, rng: np.random.Generator, mu: np.ndarray) -> np.ndarray:
        _, shell_idx = self.ball()
        xi = rng.standard_normal(mu.shape[0])
        y = (mu + xi) ** 2 - 1.0
        q = np.bincount(shell_idx, weights=y, minlength=len(self.rho))
        return self.W @ q

    def mean_stats(self, mu: np.ndarray) -> np.ndarray:
        """Deterministic statistic means E S_m = sum omega (theta/eps)^2."""
        _, shell_idx = self.ball()
        q = np.bincount(shell_idx, weights=mu**2, minlength=len(self.rho))
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
            stats = engine.active_stats(rng, engine.component_means(comp))
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
    J: int
    alpha: float | None
    mode: str
    seed: int
    false_positives: int
    misses: int
    evaluated_inactive: dict[int, int]
    extrapolated_fp: dict[int, float]
    config_echo: dict[str, object] = field(default_factory=dict)


def _inactive_ranks(
    d: int, k: int, active_ranks: set[int], size: int, seed: int
) -> np.ndarray:
    """Uniform sample of inactive subset ranks, fixed across cycles."""
    total = math.comb(d, k)
    n_inactive = total - len(active_ranks)
    size = min(size, n_inactive)
    rng = pool_stream(seed, k)
    if total <= 4 * size or total <= 1_000_000:
        candidates = rng.permutation(total)
        active = np.fromiter(active_ranks, dtype=np.int64, count=len(active_ranks))
        return np.sort(candidates[~np.isin(candidates, active)][:size])
    chosen: set[int] = set()
    while len(chosen) < size:
        for v in rng.integers(0, total, size=2 * (size - len(chosen))):
            v = int(v)
            if v not in active_ranks:
                chosen.add(v)
                if len(chosen) == size:
                    break
    return np.array(sorted(chosen), dtype=np.int64)


def _resolve_threads(threads: int) -> int:
    """Worker count; 0 means the CPUs this process may run on, at most 8."""
    if threads < 0:
        raise ValueError(f"threads must be >= 0, got {threads}")
    if threads == 0:
        if hasattr(os, "sched_getaffinity"):
            return min(8, len(os.sched_getaffinity(0)))
        return min(8, os.cpu_count() or 1)
    return threads


def _null_block(
    engine: _OrderEngine, ranks: Sequence[int], J: int, seed: int
) -> np.ndarray:
    """False-positive counts per cycle over a block of inactive subsets."""
    fp = np.zeros(J, dtype=np.int64)
    t = engine.threshold
    for rank in ranks:
        for j in range(J):
            rng = observation_stream(seed, j, engine.k, int(rank))
            stats = engine.null_stats(rng)
            if stats.max() > t:
                fp[j] += 1
    return fp


def _active_block(
    engine: _OrderEngine, comp: ComponentSpec, rank: int, J: int, seed: int
) -> np.ndarray:
    """Miss indicators per cycle for one active component."""
    mu = engine.component_means(comp)
    miss = np.zeros(J, dtype=np.int64)
    t = engine.threshold
    for j in range(J):
        rng = observation_stream(seed, j, engine.k, rank)
        stats = engine.active_stats(rng, mu)
        if not stats.max() > t:
            miss[j] += 1
    return miss


def _run_cycles(
    pattern: SparsityPattern,
    config: SelectorConfig,
    J: int,
    seed: int,
    mode: str,
    pool_inactive: int,
    threads: int,
    skip_subsets: frozenset[Subset] = frozenset(),
) -> tuple[
    np.ndarray, np.ndarray, dict[int, int], dict[int, int], dict[int, _OrderEngine]
]:
    """Shared cycle driver.

    Returns (miss_per_cycle, fp_per_cycle, n_inactive, fp_by_k, engines).  The
    ball of every order with an active task is built here, on the calling
    thread, before any draw: workers only read it, and a ``CapacityError``
    surfaces before the pool starts.
    """
    d = config.dim.d
    _check_pattern(pattern, config)
    if mode not in ("full", "pool"):
        raise ValueError(f"mode must be 'full' or 'pool', got {mode!r}")

    tasks = []
    n_inactive: dict[int, int] = {}
    engines: dict[int, _OrderEngine] = {}
    fp_by_k: dict[int, np.ndarray] = {}
    for k in range(1, pattern.s + 1):
        engines[k] = _OrderEngine(config, k)
        actives = [c for c in pattern.active(k) if c.subset not in skip_subsets]
        if actives:
            engines[k].ball()  # before the pool starts, so workers only read it
        active_ranks = {subset_rank(c.subset, d) for c in pattern.active(k)}
        for comp in actives:
            tasks.append(("active", k, comp, subset_rank(comp.subset, d)))
        total = math.comb(d, k)
        if mode == "full":
            if total > MAX_FULL_SUBSETS:
                raise CapacityError(
                    f"full enumeration at k={k} needs {total} subsets, "
                    f"exceeding the cap of {MAX_FULL_SUBSETS}"
                )
            ranks = np.array(
                sorted(set(range(total)) - active_ranks), dtype=np.int64
            )
        else:
            ranks = _inactive_ranks(d, k, active_ranks, pool_inactive, seed)
        n_inactive[k] = len(ranks)
        fp_by_k[k] = np.zeros(J, dtype=np.int64)
        chunk = max(64, len(ranks) // 32 or 1)
        for start in range(0, len(ranks), chunk):
            tasks.append(("nulls", k, ranks[start : start + chunk], None))

    miss = np.zeros(J, dtype=np.int64)
    fp = np.zeros(J, dtype=np.int64)

    def run_task(task):
        kind, k, payload, rank = task
        if kind == "active":
            return task, _active_block(engines[k], payload, rank, J, seed)
        return task, _null_block(engines[k], payload, J, seed)

    n_threads = _resolve_threads(threads)
    if n_threads > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(run_task, tasks))
    else:
        results = [run_task(t) for t in tasks]
    for task, counts in results:
        kind, k = task[0], task[1]
        if kind == "active":
            miss += counts
        else:
            fp += counts
            fp_by_k[k] += counts
    return miss, fp, n_inactive, {k: int(v.sum()) for k, v in fp_by_k.items()}, engines


def _echo(config: SelectorConfig, J: int, seed: int, mode: str, pool_inactive: int) -> dict:
    dim = config.dim
    return {
        "d": dim.d,
        "s": dim.s,
        "beta": dim.beta,
        "sigma": dim.sigma,
        "epsilon": dim.epsilon,
        "grid_m": config.grid.M,
        "calibration": config.grid.calibration_mode,
        "truncation": config.truncation_mode,
        "cycles": J,
        "seed": seed,
        "mode": mode,
        "pool_inactive": pool_inactive,
    }


def _extrapolated_fp(
    d: int, fp_by_k: Mapping[int, int], n_inactive: Mapping[int, int], J: int,
    pattern: SparsityPattern,
) -> dict[int, float]:
    out = {}
    for k, n_eval in n_inactive.items():
        population = math.comb(d, k) - len(pattern.active(k))
        if n_eval == 0 or population == 0:
            out[k] = 0.0
            continue
        rate = fp_by_k.get(k, 0) / (n_eval * J)
        out[k] = rate * population
    return out


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
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    miss, fp, n_inactive, fp_by_k, _ = _run_cycles(
        pattern, config, J, seed, mode, pool_inactive, threads
    )
    losses = miss + fp
    return RiskReport(
        err=float(losses.mean()),
        per_cycle_losses=tuple(int(v) for v in losses),
        J=J,
        alpha=alpha,
        mode=mode,
        seed=seed,
        false_positives=int(fp.sum()),
        misses=int(miss.sum()),
        evaluated_inactive=n_inactive,
        extrapolated_fp=_extrapolated_fp(config.dim.d, fp_by_k, n_inactive, J, pattern),
        config_echo=_echo(config, J, seed, mode, pool_inactive),
    )


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
    if any(not 0.0 < a <= 1.0 for a in alphas):
        raise ValueError("alphas must lie in (0, 1]")
    firsts = pattern.active(1)
    if not firsts:
        raise ValueError("pattern has no first-order component to attenuate")
    designated = firsts[0]
    rank = subset_rank(designated.subset, pattern.d)
    base_miss, base_fp, n_inactive, fp_by_k, engines = _run_cycles(
        pattern,
        config,
        J,
        seed,
        mode,
        pool_inactive,
        threads,
        skip_subsets=frozenset({designated.subset}),
    )
    reports = []
    for alpha in alphas:
        miss_extra = _active_block(engines[1], designated.scaled(alpha), rank, J, seed)
        losses = base_miss + base_fp + miss_extra
        reports.append(
            RiskReport(
                err=float(losses.mean()),
                per_cycle_losses=tuple(int(v) for v in losses),
                J=J,
                alpha=float(alpha),
                mode=mode,
                seed=seed,
                false_positives=int(base_fp.sum()),
                misses=int(base_miss.sum() + miss_extra.sum()),
                evaluated_inactive=n_inactive,
                extrapolated_fp=_extrapolated_fp(
                    config.dim.d, fp_by_k, n_inactive, J, pattern
                ),
                config_echo=_echo(config, J, seed, mode, pool_inactive),
            )
        )
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
    selection_threshold: float
    detection_threshold: float
    band: float
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
    sel = selection_boundary(spec.beta)
    det = DETECTION_BOUNDARY
    return RegimeVerdict(
        ratio=ratio,
        per_order=per_order,
        selection_threshold=sel,
        detection_threshold=det,
        band=band,
        verdict=_verdict(ratio, sel, det, band),
    )


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
