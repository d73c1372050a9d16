"""The adaptive selector, Monte Carlo Hamming-risk estimation, the
attenuation experiment, and classification against the selection and
detection boundaries.

One engine method, :meth:`_OrderEngine.stats`, draws the statistics S_{u,m}
of every subset for :func:`select` and the risk estimators alike, with the
config's weight matrix of its order as it is.  Every weight is radial, so a
subset's statistics depend on its noise only through per-shell sums, and
only their law differs: chi-square for a null subset, and for an active
subset of order k >= 2 noncentral chi-square, one variate per shell; both
are exact in distribution.  A first-order active is drawn point by point,
as the acceptance gate freezes its draws.  Every subset draws from its own
(cycle, order, subset-rank) substream, so results are bit-reproducible, full
and pooled enumeration agree on shared subsets, :func:`select` sees exactly
the draws of the matching risk cycle, and re-running a single subset (as
the attenuation experiment does) reproduces exactly what a full rerun would
see.  One block loop, :func:`_selected`, counts the selections of a block
of subset ranks per cycle.  The risk driver takes each order's actives as
(subset rank, means) pairs, whatever signal the means come from, and makes
each active and each block of inactive ranks one job.  Each active keeps its
per-cycle hits, each order's null blocks sum into its false positives, and
one function builds every :class:`RiskReport` from these integer tallies, so
no result depends on the worker count or on which thread ran a job.

There is no module-level cache: pure inputs (coefficient vectors, shell
tables) are memoised where they are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import CapacityError
from .extremal import a_exact
from .lattice import INT64_MAX, DimensionSpec, Subset, log_binomial, subset_rank
from .selector import (
    SelectorConfig,
    _run_jobs,
    null_shell_draw,
    observation_stream,
    pool_stream,
)
from .signals import ComponentSpec, SparsityPattern, coeff_vector, shell_energy

SQRT2 = math.sqrt(2.0)

# Largest number of inactive subsets of one order that a run evaluates, also
# when a pool that covers the population enumerates it.
MAX_EVALUATED_SUBSETS = 500_000

# Orders whose statistic draws fewer shells than this run on the calling
# thread, the others on the worker pool.  On 2 CPUs the pool lost to one
# thread at 1178 shells (k = 4, d = 50) and gained from 3022 shells (k = 3,
# d = 200) up; CHANGES.md holds the per-order timings.
POOL_MIN_SHELLS = 2048


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

    def active_means(self, comp: ComponentSpec) -> np.ndarray:
        """The means :meth:`stats` draws an active component from.

        At k = 1, theta_l / eps at the 2n points l = -n..-1, 1..n, where n is
        the number of shells (shell l^2 holds -l and l); at k >= 2 the shell
        noncentralities :meth:`shell_lam`.
        """
        if self.k > 1:
            return self.shell_lam(comp)
        n, trunc = len(self.rho), self.truncation
        vec = coeff_vector(comp.factor_ids[0], trunc)
        return comp.amplitude / self.epsilon * vec[np.r_[-n:0, 1 : n + 1] + trunc]

    def stats(self, rng: np.random.Generator, means: np.ndarray | None = None) -> np.ndarray:
        """One row of S_m = W @ q from ``rng``: a null subset's, or an active
        one's from ``means``, laid out as :meth:`active_means` lays them out.

        The weights are constant on a shell, so S_m = sum_rho w_m(rho) q_rho
        with q_rho = Y_rho - N_rho, where Y_rho is the shell sum of
        (mu_l + xi_l)^2 over its N_rho points, independent across shells.
        Drawing Y_rho from its law is therefore exact in distribution: for a
        null subset chi2(N_rho), by ``null_shell_draw``; for an active one at
        k >= 2 noncentral chi2(N_rho, lam_rho), lam_rho = ``means`` the shell
        sum of mu_l^2.  At k = 1 the 2n normals are drawn in point order, as
        the acceptance gate's frozen draws need, and each shell sums its two.
        """
        if means is None:
            q = null_shell_draw(rng, self.counts, 1)[0]
        elif self.k > 1:
            q = rng.noncentral_chisquare(self.counts, means) - self.counts
        else:
            n = len(self.rho)
            y = rng.standard_normal(2 * n)
            y += means
            y *= y
            y -= 1.0
            q = y[n - 1 :: -1] + y[n:]
        return self.W @ q

    def shell_lam(self, comp: ComponentSpec) -> np.ndarray:
        """Noncentralities lam_rho = sum over shell rho of (theta_l / eps)^2.

        They are the component's ``shell_energy`` on the engine's shells,
        times (amplitude / eps)^2; the config's coverage check puts every
        point of those shells inside the truncation box.  The statistic means
        are ``W @ shell_lam(comp)``.
        """
        rho, energy = shell_energy(comp.factor_ids, self.truncation)
        return (comp.amplitude / self.epsilon) ** 2 * energy[np.searchsorted(rho, self.rho)]


@dataclass(frozen=True)
class SubsetDecision:
    stats: tuple[float, ...]
    selected: bool
    argmax: int | None  # 1-based grid index m of the largest statistic


def hamming_loss(estimate: Mapping[Subset, SubsetDecision], truth: SparsityPattern) -> int:
    """Number of evaluated subsets where the selector and the truth disagree."""
    loss = 0
    for subset, decision in estimate.items():
        eta = truth.eta(subset)  # raises on universe mismatch
        loss += abs(int(decision.selected) - eta)
    return loss


def _pattern_actives(pattern: SparsityPattern, config: SelectorConfig,
                     subsets: set[Subset] | None = None) -> dict[int, dict]:
    """Per order 1..pattern.s, each active subset's rank mapped to its
    ``active_means``, for the actives among ``subsets`` if it is given."""
    d = config.dim.d
    if pattern.d != d or pattern.s > config.dim.s:
        raise ValueError("pattern dimensions do not match the selector configuration")
    engines = {k: _OrderEngine(config, k) for k in range(1, pattern.s + 1)}
    return {k: {subset_rank(c.subset, d): e.active_means(c) for c in pattern.active(k)
                if subsets is None or c.subset in subsets} for k, e in engines.items()}


def select(
    pattern: SparsityPattern,
    config: SelectorConfig,
    subsets: Iterable[Subset],
    seed: int,
    cycle: int = 0,
) -> dict[Subset, SubsetDecision]:
    """Simulate one cycle of the sequence model and apply the adaptive selector.

    u is selected iff max_m S_{u,m} > t_k.  Subset u of order k draws its
    noise from the (seed, cycle, k, rank) substream, and an active one the
    means of :func:`_pattern_actives`, as in :func:`estimate_risk`; over all
    subsets of orders 1..pattern.s, ``hamming_loss`` of the result is that
    cycle's loss under ``estimate_risk`` with a covering ``pool_inactive``.
    """
    subsets = list(subsets)
    actives = _pattern_actives(pattern, config, set(subsets))
    engines: dict[int, _OrderEngine] = {}
    decisions: dict[Subset, SubsetDecision] = {}
    for subset in subsets:
        k = subset.k
        if k not in engines:
            if k not in config.profiles:
                raise ValueError(f"config carries no grid for order k={k}")
            engines[k] = _OrderEngine(config, k)
        engine = engines[k]
        rank = subset_rank(subset, config.dim.d)
        rng = observation_stream(seed, cycle, k, rank)
        stats = engine.stats(rng, actives.get(k, {}).get(rank))
        selected = bool(stats.max() > engine.threshold)
        decisions[subset] = SubsetDecision(
            stats=tuple(float(v) for v in stats),
            selected=selected,
            argmax=int(np.argmax(stats)) + 1 if selected else None,
        )
    return decisions


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

    ``size`` is first clamped to the inactive count.  The result is the first
    ``size`` inactive ranks of a uniformly ordered sample of
    ``size + len(active_ranks)`` distinct ranks: the sample holds at least
    ``size`` of them, and the first ``size`` inactive entries of a uniform
    ordering form a uniform ``size``-subset of the inactive ranks.  A covering
    ``size`` samples every rank, so every inactive rank comes back.
    """
    total = math.comb(d, k)
    active = np.fromiter(active_ranks, dtype=np.int64, count=len(active_ranks))
    size = min(size, total - len(active))
    candidates = pool_stream(seed, k).choice(total, size + len(active), replace=False)
    return np.sort(candidates[~np.isin(candidates, active)][:size])


def _selected(
    engine: _OrderEngine, ranks: Sequence[int], means: np.ndarray | None, J: int, seed: int
) -> np.ndarray:
    """Per cycle, how many of the subsets ``ranks`` the selector picks.

    The subsets are null (``means`` None) or one active with its
    ``active_means``.  One generator is re-keyed to each subset's substream,
    which draws exactly what a fresh generator on that substream would.
    """
    hits = np.zeros(J, dtype=np.int64)
    t = engine.threshold
    rng = None
    for rank in ranks:
        for j in range(J):
            rng = observation_stream(seed, j, engine.k, int(rank), into=rng)
            if engine.stats(rng, means).max() > t:
                hits[j] += 1
    return hits


def _run_cycles(
    config: SelectorConfig,
    actives: Mapping[int, Mapping[int, np.ndarray]],
    J: int,
    seed: int,
    pool_inactive: int,
) -> tuple[dict[tuple[int, int], np.ndarray], dict[int, np.ndarray], dict[int, int]]:
    """Shared cycle driver over the orders k that ``actives`` holds.

    ``actives[k]`` maps each active subset's rank to the means that
    :meth:`_OrderEngine.stats` draws it from, whatever the signal, and each
    order draws ``pool_inactive`` inactive ranks, or all of them.  Each
    active and each block of inactive ranks is one :func:`_selected` job with
    an integer tally; orders below ``POOL_MIN_SHELLS`` shells run here, the
    others on the worker pool of ``selector._run_jobs``.  Returns (hits, fp,
    n_inactive): ``hits[k, rank]`` is an active's per-cycle selections,
    ``fp[k]`` order k's per-cycle false positives and ``n_inactive[k]`` its
    evaluated inactive subsets.  Subset counts are checked before any draw.
    """
    d = config.dim.d
    if J < 1:
        raise ValueError(f"J must be >= 1, got {J}")
    if pool_inactive < 0:
        raise ValueError(f"pool_inactive must be >= 0, got {pool_inactive}")

    hits: dict[tuple[int, int], np.ndarray] = {}
    fp: dict[int, np.ndarray] = {}
    n_inactive: dict[int, int] = {}
    inline: list[tuple[tuple, np.ndarray]] = []
    pooled: list[tuple[tuple, np.ndarray]] = []
    for k, order_actives in actives.items():
        total = math.comb(d, k)
        if total > INT64_MAX:
            raise CapacityError(
                f"order k={k} at d={d} has {total} subsets, "
                f"beyond the int64 limit {INT64_MAX} of subset ranks"
            )
        engine = _OrderEngine(config, k)
        jobs = inline if len(engine.counts) < POOL_MIN_SHELLS else pooled
        for rank, means in order_actives.items():
            hits[k, rank] = np.zeros(J, dtype=np.int64)
            jobs.append(((engine, [rank], means, J, seed), hits[k, rank]))
        size = min(pool_inactive, total - len(order_actives))
        if size > MAX_EVALUATED_SUBSETS:
            raise CapacityError(
                f"order k={k} would evaluate {size} inactive subsets, exceeding the cap "
                f"of {MAX_EVALUATED_SUBSETS}; draw a pool of at most {MAX_EVALUATED_SUBSETS}"
            )
        ranks = _inactive_ranks(d, k, set(order_actives), size, seed)
        n_inactive[k] = len(ranks)
        fp[k] = np.zeros(J, dtype=np.int64)
        chunk = max(64, len(ranks) // 32 or 1)
        for start in range(0, len(ranks), chunk):
            block = ranks[start : start + chunk]
            jobs.append(((engine, block, None, J, seed), fp[k]))

    for args, tally in inline:
        tally += _selected(*args)
    counts = _run_jobs((_selected, args) for args, _ in pooled)
    for selected, (_, tally) in zip(counts, pooled):
        tally += selected
    return hits, fp, n_inactive


def _report(
    d: int, actives: Mapping[int, Mapping], hits: Mapping[tuple[int, int], np.ndarray],
    fp: Mapping[int, np.ndarray], n_inactive: dict[int, int], alpha: float | None,
) -> RiskReport:
    """The report of the tallies: a cycle's misses are its unselected actives,
    and each order's false-positive rate over its evaluated inactive subsets
    is extrapolated to all its inactive subsets."""
    fp_per_cycle = sum(fp.values())
    J = len(fp_per_cycle)
    miss = sum((1 - h for h in hits.values()), np.zeros(J, dtype=np.int64))
    losses = miss + fp_per_cycle
    extrapolated = {}
    for k, n_eval in n_inactive.items():
        population = math.comb(d, k) - len(actives[k])
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


def _check_mode(mode: str) -> None:
    if mode != "pool":
        raise ValueError(f"mode must be 'pool', got {mode!r}; "
                         "a pool_inactive at or above C(d, k) draws all subsets")


def estimate_risk(
    pattern: SparsityPattern,
    config: SelectorConfig,
    J: int,
    seed: int,
    mode: str = "pool",
    pool_inactive: int = 2000,
) -> RiskReport:
    """Estimate the Hamming risk over J independent simulation cycles.

    Each order draws its actives and a fixed uniform pool of ``pool_inactive``
    inactive subsets, all of them at or above C(d, k); the report extrapolates
    the pool's false-positive rate to the population.  ``mode`` must be "pool".
    """
    _check_mode(mode)
    actives = _pattern_actives(pattern, config)
    hits, fp, n_inactive = _run_cycles(config, actives, J, seed, pool_inactive)
    return _report(pattern.d, actives, hits, fp, n_inactive, None)


def attenuation_experiment(
    alphas: Sequence[float],
    pattern: SparsityPattern,
    config: SelectorConfig,
    J: int,
    seed: int,
    mode: str = "pool",
    pool_inactive: int = 2000,
) -> list[RiskReport]:
    """Hamming risk as one first-order component is attenuated by alpha.

    Only the designated component, the one ``pattern.with_attenuated``
    scales, changes across alpha, and every subset owns its own substream:
    the cycles run once at the first alpha, and each later alpha redraws only
    that component's hits.  The reports are therefore identical to
    independent :func:`estimate_risk` runs on ``pattern.with_attenuated(alpha)``.
    """
    if len(alphas) == 0:
        raise ValueError("alphas must hold at least one value")
    if any(not 0.0 < a <= 1.0 for a in alphas):
        raise ValueError("alphas must lie in (0, 1]")
    _check_mode(mode)
    actives = _pattern_actives(pattern.with_attenuated(alphas[0]), config)
    hits, fp, n_inactive = _run_cycles(config, actives, J, seed, pool_inactive)
    engine = _OrderEngine(config, 1)
    reports = [_report(pattern.d, actives, hits, fp, n_inactive, float(alphas[0]))]
    for alpha in alphas[1:]:
        designated = pattern.with_attenuated(alpha).active(1)[0]
        rank = subset_rank(designated.subset, pattern.d)
        hits[1, rank] = _selected(engine, [rank], engine.active_means(designated), J, seed)
        reports.append(_report(pattern.d, actives, hits, fp, n_inactive, float(alpha)))
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


def _boundary_ratio(r: float, k: int, spec: DimensionSpec) -> float:
    """a(r)/sqrt(log C(d,k)), the ratio both sharp boundaries are stated in."""
    log_c = log_binomial(spec.d, k)
    if log_c <= 0.0:
        raise ValueError(f"no boundary ratio at k={k}, d={spec.d}: log C(d,k) = 0")
    return a_exact(r, k, spec.sigma, spec.epsilon) / math.sqrt(log_c)


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
    per_order = {k: _boundary_ratio(r, k, spec) for k, r in r_family.items()}
    ratio = min(per_order.values())
    verdict = _verdict(ratio, selection_boundary(spec.beta), DETECTION_BOUNDARY, band)
    return RegimeVerdict(ratio=ratio, per_order=per_order, verdict=verdict)


@dataclass(frozen=True)
class SweepRow:
    beta: float
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
    """Phase data over a (beta, r) grid.

    A radius outside (0, admissible_r_max(k, sigma)) raises ``ValueError``, as
    in :func:`classify_regime`.  The ratio a(r)/sqrt(log C(d,k)) does not
    depend on beta, so it is computed once per (k, r) and classified against
    each beta's thresholds.
    """
    rows: list[SweepRow] = []
    for k in ks:
        for r in radii:
            ratio = _boundary_ratio(r, k, spec)
            for beta in betas:
                sel = selection_boundary(beta)
                rows.append(
                    SweepRow(
                        beta=float(beta),
                        k=int(k),
                        r=float(r),
                        ratio=ratio,
                        verdict=_verdict(ratio, sel, DETECTION_BOUNDARY, band),
                    )
                )
    return rows
