"""Extremal squared-amplitude profiles, the signal-strength functional a(r),
weight profiles, and radius calibration.

For smoothness sigma and order k, the least-favourable squared amplitudes over
the Sobolev ellipsoid shell of radius r are radial on the punctured lattice:

    theta*^2(l) = A(r, k, sigma) * (1 - (4 pi^2 |l|^2)^sigma * r^2 / (1 + 4 sigma/k))_+

with A the closed-form constant evaluated here in log space.  The functional

    a(r) = sqrt( sum_l theta*^4(l) / (2 eps^4) )

is computed as an exact lattice sum over squared-norm shells (the default),
or from its closed-form small-r limits (``fixed_k`` / ``growing_k`` modes).
Weights omega_l = theta*^2(l) / (2 eps^2 a(r)) then satisfy
sum omega^2 = 1/2 identically, which the test statistics rely on.

Radius calibration solves a(r*) = target by safeguarded bisection; in
asymptotic mode the equation inverts in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import CalibrationError
from .lattice import log_binomial, shell_counts

FOUR_PI_SQ = 4.0 * math.pi * math.pi

# Relative residual in a(r*) at which the exact calibration's bisection stops.
RTOL = 1e-8


def admissible_r_max(k: int, sigma: float) -> float:
    """Upper endpoint of the admissible radius interval, (2 pi)^-sigma k^(-sigma/2)."""
    return (2.0 * math.pi) ** (-sigma) * float(k) ** (-sigma / 2.0)


def _check_r(r: float, k: int, sigma: float) -> None:
    hi = admissible_r_max(k, sigma)
    if not 0.0 < r < hi:
        raise ValueError(
            f"radius r={r} outside the admissible interval (0, {hi:.6g}) "
            f"for k={k}, sigma={sigma}"
        )


def _log_amplitude(r: float, k: int, sigma: float) -> float:
    # (2 + k/sigma) log r + log[2^k pi^(k/2) (k+2s) Gamma(1+k/2)] - log[2s (1+4s/k)^(k/2s)]
    return (
        (2.0 + k / sigma) * math.log(r)
        + k * math.log(2.0)
        + 0.5 * k * math.log(math.pi)
        + math.log(k + 2.0 * sigma)
        + math.lgamma(1.0 + 0.5 * k)
        - math.log(2.0 * sigma)
        - (k / (2.0 * sigma)) * math.log(1.0 + 4.0 * sigma / k)
    )


@dataclass(frozen=True, eq=False)
class ExtremalProfile:
    """Radial extremal profile: squared amplitudes per squared-norm shell."""

    r: float
    k: int
    sigma: float
    rho: np.ndarray        # occupied squared norms, increasing
    counts: np.ndarray     # lattice points per shell
    theta_sq: np.ndarray   # theta*^2 on each shell (all > 0)
    support_radius: float  # (1+4s/k)^(1/2s) / (2 pi r^(1/s))

    @property
    def support_size(self) -> int:
        return int(self.counts.sum())


def extremal_sequence(r: float, k: int, sigma: float) -> ExtremalProfile:
    """Extremal profile theta*^2 at radius r (positive part, radial).

    The bracket decreases in rho, so the support is a prefix of the shells of
    ``shell_counts``: ``rho`` and ``counts`` are read-only prefix views of a
    memoised shell list of the order, shared by every radius.  Only per-shell
    arrays are built, so the one capacity guard is ``shell_counts``'s bound
    on their length.
    """
    _check_r(r, k, sigma)
    bound = 1.0 + 4.0 * sigma / k
    # support: (4 pi^2 rho)^sigma r^2 < bound  <=>  rho < r2_support
    r2_support = bound ** (1.0 / sigma) / (FOUR_PI_SQ * r ** (2.0 / sigma))
    rho, counts = shell_counts(k, r2_support)
    amp = math.exp(_log_amplitude(r, k, sigma))
    bracket = 1.0 - (FOUR_PI_SQ * rho.astype(np.float64)) ** sigma * (r * r / bound)
    stop = int(np.count_nonzero(bracket > 0.0))  # the positive entries lead
    return ExtremalProfile(
        r=r,
        k=k,
        sigma=sigma,
        rho=rho[:stop],
        counts=counts[:stop],
        theta_sq=amp * bracket[:stop],
        support_radius=math.sqrt(r2_support),
    )


def a_exact(
    r: float,
    k: int,
    sigma: float,
    epsilon: float,
    profile: ExtremalProfile | None = None,
) -> float:
    """a(r) from the exact lattice sum: sqrt(sum theta*^4 / (2 eps^4))."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if profile is None:
        profile = extremal_sequence(r, k, sigma)
    quartic = float(np.dot(profile.counts.astype(np.float64), profile.theta_sq**2))
    return math.sqrt(quartic / 2.0) / (epsilon * epsilon)


def asymp_constant(sigma: float, k: int, regime: str = "fixed_k") -> float:
    """Constant in the small-r law a(r) ~ const * r^(2 + k/(2 sigma)) / eps^2."""
    if regime == "fixed_k":
        log_c2 = (
            k * math.log(math.pi)
            + math.log(1.0 + 2.0 * sigma / k)
            + math.lgamma(1.0 + 0.5 * k)
            - (1.0 + k / (2.0 * sigma)) * math.log(1.0 + 4.0 * sigma / k)
            - k * math.lgamma(1.5)
        )
        return math.exp(0.5 * log_c2)
    if regime == "growing_k":
        log_c = (
            0.25 * k * (math.log(2.0 * math.pi * k) - 1.0)
            - 1.0
            + 0.25 * math.log(math.pi * k)
        )
        return math.exp(log_c)
    raise ValueError(f"regime must be 'fixed_k' or 'growing_k', got {regime!r}")


def a_asymp(
    r: float, k: int, sigma: float, epsilon: float, regime: str = "fixed_k"
) -> float:
    """Closed-form asymptotic value of a(r); exact 0 at r = 0."""
    if r < 0:
        raise ValueError(f"r must be nonnegative, got {r}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if r == 0.0:
        return 0.0
    const = asymp_constant(sigma, k, regime)
    return const * r ** (2.0 + k / (2.0 * sigma)) / (epsilon * epsilon)


def solve_r_star(
    target_a: float,
    k: int,
    sigma: float,
    epsilon: float,
    mode: str = "exact",
) -> float:
    """Solve a(r*) = target_a for r*.

    ``mode="asymptotic"`` inverts the closed form.  ``mode="exact"`` brackets
    around the asymptotic solution and bisects the monotone exact lattice sum
    until the relative residual in a is below ``RTOL``.
    """
    if target_a <= 0:
        raise ValueError(f"target must be positive, got {target_a}")
    exponent = 2.0 + k / (2.0 * sigma)
    const = asymp_constant(sigma, k, "fixed_k")
    r_guess = (target_a * epsilon * epsilon / const) ** (1.0 / exponent)
    if mode == "asymptotic":
        return r_guess
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")

    r_hi_bound = admissible_r_max(k, sigma) * (1.0 - 1e-12)

    def residual(r: float) -> float:
        return a_exact(r, k, sigma, epsilon) - target_a

    hi = min(r_guess, r_hi_bound)
    f_hi = residual(hi)
    while f_hi < 0.0:
        if hi >= r_hi_bound:
            raise CalibrationError(
                f"target a={target_a} unreachable for k={k}, sigma={sigma}: "
                f"a at the right endpoint is {f_hi + target_a:.6g}"
            )
        hi = min(hi * 2.0, r_hi_bound)
        f_hi = residual(hi)
    lo = hi / 2.0
    f_lo = residual(lo)
    while f_lo > 0.0:
        lo /= 2.0
        f_lo = residual(lo)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = residual(mid)
        if abs(f_mid) <= RTOL * target_a:
            return mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    raise CalibrationError(
        f"bisection failed to reach rtol={RTOL} for target a={target_a} (k={k})"
    )


def calibration_target(d: int, k: int, beta_m: float) -> float:
    """Grid target (1 + sqrt(1 - beta_m)) * sqrt(2 log C(d,k))."""
    if not 0.0 < beta_m < 1.0:
        raise ValueError(f"beta_m must lie in (0, 1), got {beta_m}")
    return (1.0 + math.sqrt(1.0 - beta_m)) * math.sqrt(2.0 * log_binomial(d, k))


def beta_grid(M: int) -> list[float]:
    """M equidistant sparsity levels on [0.001, 0.999]."""
    if M < 2:
        raise ValueError(f"grid size M must be >= 2, got {M}")
    step = 0.998 / (M - 1)
    return [0.001 + m * step for m in range(M)]


@dataclass(frozen=True, eq=False)
class WeightProfile:
    """Statistic weights omega per squared-norm shell, for one grid radius.

    Built by :func:`order_weights`, so ``values`` is a read-only prefix view
    of the radius's row in its order's weight matrix.
    """

    k: int
    sigma: float
    epsilon: float
    source_r: float
    a_value: float
    rho: np.ndarray
    counts: np.ndarray
    values: np.ndarray  # omega on each shell

    @property
    def support_size(self) -> int:
        return int(self.counts.sum())

    @property
    def support_radius(self) -> float:
        bound = 1.0 + 4.0 * self.sigma / self.k
        return bound ** (1.0 / (2.0 * self.sigma)) / (
            2.0 * math.pi * self.source_r ** (1.0 / self.sigma)
        )

    @property
    def max_weight(self) -> float:
        return float(self.values.max()) if len(self.values) else 0.0

    @property
    def max_abs_coord(self) -> int:
        """Largest |l_j| over the support (other coordinates at +-1)."""
        if len(self.rho) == 0:
            return 0
        return math.isqrt(int(self.rho[-1]) - (self.k - 1))

    def sum_sq(self) -> float:
        return float(np.dot(self.counts.astype(np.float64), self.values**2))


def order_weights(
    radii: Sequence[float], k: int, sigma: float, epsilon: float
) -> tuple[tuple[WeightProfile, ...], np.ndarray]:
    """Weight profiles of one order's radii, with their weights as one matrix.

    Row m of the read-only ``(len(radii), shells)`` matrix holds
    omega = theta*^2 / (2 eps^2 a(r_m)) on the shells of the widest support,
    which belongs to the smallest radius (the support shrinks as r grows), and
    0 past its own support.  Each row is written in place from its extremal
    profile, so no other copy of the weights exists: profile m's ``rho`` and
    ``counts`` are prefix views of the widest support's shells, and its
    ``values`` the matching prefix view of row m.
    """
    widest = extremal_sequence(min(radii), k, sigma)
    rho, counts = widest.rho, widest.counts
    del widest  # hold one profile's arrays at a time, not the widest's as well
    matrix = np.zeros((len(radii), len(rho)))
    profiles = []
    for row, r in zip(matrix, radii):
        profile = extremal_sequence(r, k, sigma)
        a_value = a_exact(r, k, sigma, epsilon, profile=profile)
        n = len(profile.rho)
        values = np.multiply(
            profile.theta_sq, 1.0 / (2.0 * epsilon * epsilon * a_value), out=row[:n]
        )
        values.setflags(write=False)
        profiles.append(
            WeightProfile(
                k=k,
                sigma=sigma,
                epsilon=epsilon,
                source_r=r,
                a_value=a_value,
                rho=rho[:n],
                counts=counts[:n],
                values=values,
            )
        )
    matrix.setflags(write=False)
    return tuple(profiles), matrix


def weights(r_star: float, k: int, sigma: float, epsilon: float) -> WeightProfile:
    """Weight profile omega = theta*^2 / (2 eps^2 a(r*)); sum omega^2 = 1/2."""
    return order_weights((r_star,), k, sigma, epsilon)[0][0]


@dataclass(frozen=True)
class GridSpec:
    """Calibrated sparsity grid: radii r*_{k,m} solving a(r*) = target(beta_m)."""

    M: int
    betas: tuple[float, ...]
    targets: dict[int, tuple[float, ...]] = field(default_factory=dict)
    r_stars: dict[int, tuple[float, ...]] = field(default_factory=dict)
    a_values: dict[int, tuple[float, ...]] = field(default_factory=dict)
    eps_hat: dict[int, float] = field(default_factory=dict)


def calibrate_radii(
    d: int,
    k: int,
    sigma: float,
    epsilon: float,
    M: int,
    mode: str = "exact",
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Per-order grid calibration: betas, targets, radii, and a(r*) values."""
    betas = beta_grid(M)
    targets = [calibration_target(d, k, b) for b in betas]
    r_stars = [solve_r_star(t, k, sigma, epsilon, mode=mode) for t in targets]
    if mode == "exact":
        a_vals = [a_exact(r, k, sigma, epsilon) for r in r_stars]
    else:
        a_vals = [a_asymp(r, k, sigma, epsilon) for r in r_stars]
    return betas, targets, r_stars, a_vals
