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
asymptotic mode the equation inverts in closed form.  In both, a(r*) is the
exact sum over the radius's one profile, built once by :func:`order_weights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CalibrationError
from .lattice import log_binomial, shell_counts

FOUR_PI_SQ = 4.0 * math.pi * math.pi

# Relative residual in a(r*) at which the exact calibration's bisection stops.
RTOL = 1e-8


def admissible_r_max(k: int, sigma: float) -> float:
    """Upper endpoint of the admissible radius interval, (2 pi)^-sigma k^(-sigma/2).

    Raises ``CalibrationError`` when it underflows to 0, leaving no radius.
    """
    r_max = (2.0 * math.pi) ** (-sigma) * float(k) ** (-sigma / 2.0)
    if r_max == 0.0:
        raise CalibrationError(
            f"no admissible radius for k={k} at sigma={sigma}: the interval's end "
            f"(2 pi)^-sigma k^(-sigma/2) underflows to 0"
        )
    return r_max


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

    rho: np.ndarray        # occupied squared norms, increasing
    counts: np.ndarray     # lattice points per shell
    theta_sq: np.ndarray   # theta*^2 on each shell (all > 0)
    support_radius: float  # R: the support is the ball |l| < R


def extremal_sequence(r: float, k: int, sigma: float) -> ExtremalProfile:
    """Extremal profile theta*^2 at radius r (positive part, radial).

    The bracket decreases in rho, so the support is a prefix of the shells of
    ``shell_counts``: ``rho`` and ``counts`` are read-only prefix views of a
    memoised shell list of the order, shared by every radius.  Only per-shell
    arrays are built, so the one capacity guard is ``shell_counts``'s bound
    on their length.  A radius whose r^(2/sigma) underflows has no finite
    support and raises ``CalibrationError``.
    """
    _check_r(r, k, sigma)
    bound = 1.0 + 4.0 * sigma / k
    # support: (4 pi^2 rho)^sigma r^2 < bound  <=>  rho < r2_support
    shrink = FOUR_PI_SQ * r ** (2.0 / sigma)
    r2_support = bound ** (1.0 / sigma) / shrink if shrink > 0.0 else math.inf
    if r2_support == math.inf:
        raise CalibrationError(
            f"radius r={r:.6g} at k={k}, sigma={sigma}: r^(2/sigma) underflows, "
            f"so the support of the extremal profile is not finite"
        )
    rho, counts = shell_counts(k, r2_support)
    amp = math.exp(_log_amplitude(r, k, sigma))
    bracket = 1.0 - (FOUR_PI_SQ * rho.astype(np.float64)) ** sigma * (r * r / bound)
    stop = int(np.count_nonzero(bracket > 0.0))  # the positive entries lead
    return ExtremalProfile(
        rho=rho[:stop],
        counts=counts[:stop],
        theta_sq=amp * bracket[:stop],
        support_radius=math.sqrt(r2_support),
    )


def _over_eps2(value: float, k: int, epsilon: float) -> float:
    """``value / (epsilon * epsilon)``, the 1/eps^2 scaling of a(r); raises
    ``CalibrationError`` when eps^2 underflows to 0 or the quotient is not finite."""
    eps2 = epsilon * epsilon
    a = value / eps2 if eps2 else math.inf
    if not math.isfinite(a):
        raise CalibrationError(f"a(r) at k={k}, epsilon={epsilon} is beyond the float range")
    return a


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
    return _over_eps2(math.sqrt(quartic / 2.0), k, epsilon)


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
    return _over_eps2(const * r ** (2.0 + k / (2.0 * sigma)), k, epsilon)


def solve_r_star(
    target_a: float,
    k: int,
    sigma: float,
    epsilon: float,
    mode: str = "exact",
) -> float:
    """Solve a(r*) = target_a for r*.

    ``mode="asymptotic"`` inverts the closed form.  ``mode="exact"`` brackets
    around the asymptotic solution, clipped to the admissible interval, and
    bisects the monotone exact lattice sum until the relative residual in a is
    below ``RTOL``.  A start radius that is not a positive number inside the
    interval (the closed form underflowed to 0, say) raises
    ``CalibrationError``.
    """
    if target_a <= 0:
        raise ValueError(f"target must be positive, got {target_a}")
    if mode not in ("exact", "asymptotic"):
        raise ValueError(f"mode must be 'exact' or 'asymptotic', got {mode!r}")
    exponent = 2.0 + k / (2.0 * sigma)
    const = asymp_constant(sigma, k, "fixed_k")
    r_guess = (target_a * epsilon * epsilon / const) ** (1.0 / exponent)
    r_max = admissible_r_max(k, sigma)
    r_hi_bound = r_max * (1.0 - 1e-12)
    hi = r_guess if mode == "asymptotic" else min(r_guess, r_hi_bound)
    if not 0.0 < hi < r_max:
        raise CalibrationError(
            f"no radius for target a={target_a} at k={k}, sigma={sigma}, "
            f"epsilon={epsilon}: the start radius {hi:.6g} lies outside the "
            f"admissible interval (0, {r_max:.6g})"
        )
    if mode == "asymptotic":
        return r_guess

    def residual(r: float) -> float:
        return a_exact(r, k, sigma, epsilon) - target_a

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
    of the radius's row in its order's weight matrix, and ``a_value`` and
    ``support_radius`` are those of the radius's one extremal profile.
    """

    k: int
    source_r: float
    a_value: float
    support_radius: float
    rho: np.ndarray
    counts: np.ndarray
    values: np.ndarray  # omega on each shell

    @property
    def support_size(self) -> int:
        return int(self.counts.sum())

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
    0 past its own support.  The rows are filled widest first, each in place
    from its radius's one extremal profile, so no profile is built twice and
    no other copy of the weights exists: profile m's ``rho`` and ``counts``
    are prefix views of the widest support's shells, and its ``values`` the
    matching prefix view of row m.
    """
    order = sorted(range(len(radii)), key=radii.__getitem__)
    profiles: list[WeightProfile | None] = [None] * len(radii)
    for m in order:
        r = radii[m]
        extremal = extremal_sequence(r, k, sigma)
        if m == order[0]:
            rho, counts = extremal.rho, extremal.counts
            matrix = np.zeros((len(radii), len(rho)))
        a_value = a_exact(r, k, sigma, epsilon, profile=extremal)
        n = len(extremal.rho)
        values = np.multiply(
            extremal.theta_sq, 1.0 / (2.0 * epsilon * epsilon * a_value), out=matrix[m, :n]
        )
        values.setflags(write=False)
        profiles[m] = WeightProfile(
            k=k,
            source_r=r,
            a_value=a_value,
            support_radius=extremal.support_radius,
            rho=rho[:n],
            counts=counts[:n],
            values=values,
        )
    matrix.setflags(write=False)
    return tuple(profiles), matrix


@dataclass(frozen=True)
class GridSpec:
    """Calibrated sparsity grid: per order, the targets(beta_m) and the exact
    a(r*_{k,m}) that calibration reached; the radii r* are the profiles'
    ``source_r``."""

    betas: tuple[float, ...]
    targets: dict[int, tuple[float, ...]]
    a_values: dict[int, tuple[float, ...]]


def calibrate_radii(
    d: int,
    k: int,
    sigma: float,
    epsilon: float,
    M: int,
    mode: str = "exact",
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Per-order grid calibration: betas, targets and radii r*."""
    betas = tuple(beta_grid(M))
    targets = tuple(calibration_target(d, k, b) for b in betas)
    r_stars = tuple(solve_r_star(t, k, sigma, epsilon, mode=mode) for t in targets)
    return betas, targets, r_stars
