"""Selector calibration: the sequence-space statistics' weights, thresholds,
truncation and random substreams, plus null shell sampling and tail audits.

Observations per candidate subset u of order k are X_l = eta_u theta_l + eps xi_l
on the punctured lattice.  For each grid point m the statistic

    S_{u,m} = sum_l omega_l(r*_{k,m}) ((X_l / eps)^2 - 1)

has mean 0 and variance 1 under the null (sum omega^2 = 1/2).  A subset is
selected when max_m S_{u,m} exceeds t_k = sqrt((2 + eps_hat)(log C(d,k) + log M)).

Randomness is organised as counter-based substreams: every (cycle, order,
subset-rank) owns a Philox stream spawned from the master seed, so full and
pooled enumeration agree on shared subsets and reruns are bit-identical.
The statistics themselves are evaluated per shell by ``risk.select`` and the
risk estimators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .extremal import GridSpec, WeightProfile, calibrate_radii, weights
from .lattice import DEFAULT_POINT_CAP, DimensionSpec, log_binomial

# Stream phase tags keep independent uses of the master seed disjoint.
_PHASE_OBS = 1
_PHASE_POOL = 2
_PHASE_AUDIT = 3

PRESET_TRUNCATION = {1: 622, 2: 154, 3: 65, 4: 36}


def substream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for a (seed, key...) address; reruns are bit-identical."""
    words = []
    for part in key:
        part = int(part)
        if part < 0:
            raise ValueError("stream key parts must be nonnegative")
        words.extend((part >> 32, part & 0xFFFFFFFF))
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(words))
    return np.random.Generator(np.random.Philox(ss))


def observation_stream(seed: int, cycle: int, k: int, rank: int) -> np.random.Generator:
    return substream(seed, _PHASE_OBS, cycle, k, rank)


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
    k in 1..4.  ``rule`` returns ceil(max_m R(r*_{k,m})), the smallest box
    covering every weight support of the grid.
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
    """Calibrated selector: grid, weight profiles, thresholds, truncation."""

    dim: DimensionSpec
    grid: GridSpec
    profiles: Mapping[int, tuple[WeightProfile, ...]]
    thresholds: Mapping[int, float]
    truncation: Mapping[int, int]
    truncation_mode: str
    eps_hat_rule: str

    def orders(self) -> tuple[int, ...]:
        return tuple(sorted(self.profiles))


def build_selector_config(
    dim: DimensionSpec,
    M: int = 20,
    calibration: str = "exact",
    truncation: str = "preset",
    eps_hat_rule: str = "fixed",
    cap: int = DEFAULT_POINT_CAP,
) -> SelectorConfig:
    """Calibrate the full per-order grid for a problem configuration.

    For every order k <= s: an M-point sparsity grid, radii r* solving
    a(r*) = (1 + sqrt(1-beta_m)) sqrt(2 log C(d,k)), weight profiles built from
    the exact lattice sum (so their squared sum is exactly 1/2), the threshold
    t_k, and a truncation box checked to cover every nonzero weight.
    """
    targets: dict[int, tuple[float, ...]] = {}
    r_stars: dict[int, tuple[float, ...]] = {}
    a_values: dict[int, tuple[float, ...]] = {}
    eps_hats: dict[int, float] = {}
    profiles: dict[int, tuple[WeightProfile, ...]] = {}
    thresholds_map: dict[int, float] = {}
    trunc: dict[int, int] = {}
    betas: tuple[float, ...] = ()
    for k in range(1, dim.s + 1):
        blist, tlist, rlist, alist = calibrate_radii(
            dim.d, k, dim.sigma, dim.epsilon, M, mode=calibration, cap=cap
        )
        betas = tuple(blist)
        targets[k] = tuple(tlist)
        r_stars[k] = tuple(rlist)
        a_values[k] = tuple(alist)
        eps_hats[k] = epsilon_hat(dim.d, k, rule=eps_hat_rule, s=dim.s)
        profiles[k] = tuple(weights(r, k, dim.sigma, dim.epsilon, cap=cap) for r in rlist)
        thresholds_map[k] = threshold(dim.d, k, M, eps_hats[k])
        n_k = truncation_radius(k, profiles[k], mode=truncation)
        covered = max(p.max_abs_coord for p in profiles[k])
        if covered > n_k:
            raise ValueError(
                f"truncation n={n_k} at k={k} misses weights up to |l|={covered}"
            )
        trunc[k] = n_k
    grid = GridSpec(
        M=M,
        betas=betas,
        targets=targets,
        r_stars=r_stars,
        a_values=a_values,
        eps_hat=eps_hats,
        calibration_mode=calibration,
    )
    return SelectorConfig(
        dim=dim,
        grid=grid,
        profiles=profiles,
        thresholds=thresholds_map,
        truncation=trunc,
        truncation_mode=truncation,
        eps_hat_rule=eps_hat_rule,
    )


# ---------------------------------------------------------------------------
# Shell-level sampling (sufficient statistics for radial weights)
# ---------------------------------------------------------------------------

def null_shell_draw(rng: np.random.Generator, counts: np.ndarray, size: int) -> np.ndarray:
    """Draw Q_rho = chi2(N_rho) - N_rho for each shell; rows are replicates.

    Because every weight is constant on a squared-norm shell, the statistic
    depends on the noise only through per-shell sums of xi^2; sampling those
    directly is distributionally identical to per-index noise and far cheaper.
    """
    df = counts.astype(np.float64)
    if np.all(counts == 2):  # k = 1 shells; chi2_2 is a doubled exponential
        q = 2.0 * rng.standard_exponential(size=(size, len(counts)))
    else:
        q = np.zeros((size, len(counts)))
        pos = df > 0  # shells fully occupied by signal points have no null mass
        q[:, pos] = rng.chisquare(df[pos], size=(size, int(pos.sum())))
    return q - df


def null_stat_batches(
    w: WeightProfile, trials: int, seed: int, offset: int, chunk: int = 20_000
) -> Iterator[np.ndarray]:
    """Yield ``trials`` null draws of S = sum omega Q, in batches of <= ``chunk``.

    Batch idx draws from the audit substream ``offset + idx``, so callers with
    disjoint offsets get independent samples and reruns are bit-identical.
    """
    for idx, start in enumerate(range(0, trials, chunk)):
        size = min(chunk, trials - start)
        q = null_shell_draw(audit_stream(seed, offset + idx), w.counts, size)
        yield q @ w.values


@dataclass(frozen=True)
class TailAudit:
    """Empirical tail frequency of a null statistic against exp(-T^2/2)."""

    T: float
    trials: int
    empirical_upper: float
    reference: float
    max_weight: float
    regime_ok: bool


def tail_bound_audit(
    T: float,
    trials: int,
    seed: int,
    w: WeightProfile,
    chunk: int = 20_000,
) -> TailAudit:
    """Estimate P0(S > T) and compare with exp(-T^2/2).

    The bound is asymptotic and only meaningful while T * max omega stays
    small; outside that regime the report carries a warning flag rather than
    failing.
    """
    if T < 0:
        raise ValueError(f"T must be nonnegative, got {T}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    upper_hits = 0
    for stats in null_stat_batches(w, trials, seed, offset=0, chunk=chunk):
        upper_hits += int(np.count_nonzero(stats > T))
    return TailAudit(
        T=T,
        trials=trials,
        empirical_upper=upper_hits / trials,
        reference=math.exp(-T * T / 2.0),
        max_weight=w.max_weight,
        regime_ok=T * w.max_weight <= 0.1,
    )
