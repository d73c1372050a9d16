import itertools
import math

import numpy as np
import pytest

from anovaselect import extremal, lattice
from anovaselect.errors import CalibrationError
from anovaselect.extremal import (
    FOUR_PI_SQ,
    _log_amplitude,
    a_asymp,
    a_exact,
    admissible_r_max,
    asymp_constant,
    beta_grid,
    calibrate_radii,
    calibration_target,
    extremal_sequence,
    order_weights,
    solve_r_star,
)
from anovaselect.lattice import log_binomial

from conftest import brute_ball, brute_lattice

PI = math.pi


def profile_oracle(l, r, k, sigma):
    """Inline closed form for theta*^2 at a single lattice point."""
    amp = (
        r ** (2 + k / sigma)
        * 2**k
        * PI ** (k / 2)
        * (k + 2 * sigma)
        * math.gamma(1 + k / 2)
        / (2 * sigma * (1 + 4 * sigma / k) ** (k / (2 * sigma)))
    )
    rho = sum(v * v for v in l)
    bracket = 1.0 - (4 * PI**2 * rho) ** sigma * r * r / (1 + 4 * sigma / k)
    return amp * max(bracket, 0.0)


def a_oracle(r, k, sigma, epsilon, scan=25):
    """Independent lattice-sum oracle: brute-force scan, quartic sum."""
    total = 0.0
    for coords in itertools.product(range(-scan, scan + 1), repeat=k):
        if any(v == 0 for v in coords):
            continue
        total += profile_oracle(coords, r, k, sigma) ** 2
    return math.sqrt(total / (2 * epsilon**4))


class TestExtremalSequence:
    def test_support_is_lattice_ball(self):
        prof = extremal_sequence(0.1, 1, 1.0)
        assert prof.support_radius == pytest.approx(math.sqrt(5) / (2 * PI * 0.1), rel=1e-12)
        assert prof.rho.tolist() == [1, 4, 9] and prof.counts.tolist() == [2, 2, 2]

    def test_value_at_one(self):
        prof = extremal_sequence(0.1, 1, 1.0)
        theta_sq = prof.theta_sq[prof.rho == 1][0]
        assert theta_sq == pytest.approx(profile_oracle((1,), 0.1, 1, 1.0), rel=1e-12)
        assert theta_sq == pytest.approx(1.9409e-3, rel=1e-4)

    def test_outside_support_clamps_to_zero(self):
        # |l| = 4 lies outside the support: no shell, and the oracle clamps to 0
        prof = extremal_sequence(0.1, 1, 1.0)
        assert 16 not in prof.rho
        assert profile_oracle((4,), 0.1, 1, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="admissible"):
            extremal_sequence(0.2, 1, 1.0)  # 0.2 > 1/(2 pi)
        with pytest.raises(ValueError):
            extremal_sequence(-0.1, 1, 1.0)

    def test_radial_symmetry(self):
        # the per-shell profile matches the pointwise closed form at every point
        prof = extremal_sequence(0.1, 2, 1.0)
        coords, shell = brute_lattice(2, prof.support_radius**2)
        per_point = prof.theta_sq[shell]
        oracle = [profile_oracle(c, 0.1, 2, 1.0) for c in coords.tolist()]
        assert np.allclose(per_point, oracle, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("r,k", [(0.12, 1), (0.08, 2), (0.05, 3)])
    def test_support_count_matches_ball(self, r, k):
        prof = extremal_sequence(r, k, 1.0)
        assert int(prof.counts.sum()) == len(brute_ball(k, prof.support_radius))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    @pytest.mark.parametrize("frac", [0.9, 0.5, 0.2, 0.05])
    def test_bits_match_dense_table_oracle(self, k, sigma, frac):
        r = frac * admissible_r_max(k, sigma)
        assert_profile_bits(extremal_sequence(r, k, sigma), dense_oracle(r, k, sigma))

    @pytest.mark.parametrize("k,sigma,rho0", [(1, 0.5, 25), (2, 1.0, 37), (3, 1.0, 18), (4, 0.5, 28)])
    def test_bits_match_oracle_with_support_on_a_shell(self, k, sigma, rho0):
        # r2_support lands on the occupied shell rho0, just above it, so the
        # shell is listed while its bracket is zero to rounding (exactly 0 in
        # IEEE double for these cases, which drops the shell)
        bound = 1.0 + 4.0 * sigma / k
        r = (bound ** (1.0 / sigma) / (FOUR_PI_SQ * rho0)) ** (sigma / 2.0)
        while r2_support(r, k, sigma) <= rho0:
            r = float(np.nextafter(r, 0.0))
        assert rho0 in lattice.shell_counts(k, r2_support(r, k, sigma))[0]
        assert_profile_bits(extremal_sequence(r, k, sigma), dense_oracle(r, k, sigma))


def r2_support(r, k, sigma):
    bound = 1.0 + 4.0 * sigma / k
    return bound ** (1.0 / sigma) / (FOUR_PI_SQ * r ** (2.0 / sigma))


def dense_oracle(r, k, sigma):
    """extremal_sequence's (rho, counts, theta_sq) in the dense-table form: a
    ``np.nonzero`` scan of the shell table and a boolean support mask."""
    bound = 1.0 + 4.0 * sigma / k
    m = math.ceil(r2_support(r, k, sigma)) - 1
    if k == 1:
        rho = np.arange(1, math.isqrt(m) + 1, dtype=np.int64) ** 2
        counts = np.full(len(rho), 2, dtype=np.int64)
    else:
        table = lattice._shell_table(k, 1 << (m + 1).bit_length())
        rho = np.nonzero(table[: m + 1])[0].astype(np.int64)
        counts = table[rho]
    amp = math.exp(_log_amplitude(r, k, sigma))
    bracket = 1.0 - (FOUR_PI_SQ * rho.astype(np.float64)) ** sigma * (r * r / bound)
    keep = bracket > 0.0
    return rho[keep], counts[keep], amp * bracket[keep]


def assert_profile_bits(prof, oracle):
    for got, want in zip((prof.rho, prof.counts, prof.theta_sq), oracle):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestAExact:
    def test_example_against_oracle(self):
        value = a_exact(0.1, 1, 1.0, 0.01)
        assert value == pytest.approx(a_oracle(0.1, 1, 1.0, 0.01), rel=1e-12)
        assert value == pytest.approx(24.94, abs=5e-3)

    def test_oracle_two_dim(self):
        assert a_exact(0.08, 2, 1.0, 0.02) == pytest.approx(
            a_oracle(0.08, 2, 1.0, 0.02), rel=1e-12
        )

    def test_epsilon_scaling_exact(self):
        a1 = a_exact(0.07, 2, 1.0, 0.01)
        a2 = a_exact(0.07, 2, 1.0, 0.005)
        assert a2 == pytest.approx(4.0 * a1, rel=1e-12)
        # a * eps^2 is epsilon-free
        assert a1 * 0.01**2 == pytest.approx(a2 * 0.005**2, rel=1e-12)

    def test_domain_error_above_admissible(self):
        with pytest.raises(ValueError):
            a_exact(0.2, 1, 1.0, 0.01)

    def test_monotone_on_geometric_grid(self):
        for k in (1, 2, 3):
            for sigma in (1.0, 2.0):
                hi = admissible_r_max(k, sigma)
                grid = [0.01 * 1.2**i for i in range(60) if 0.01 * 1.2**i < hi]
                vals = [a_exact(r, k, sigma, 0.01) for r in grid]
                assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_continuity_property(self):
        r, delta = 0.05, 1e-3
        ratio = a_exact((1 + delta) * r, 1, 1.0, 0.01) / a_exact(r, 1, 1.0, 0.01)
        assert 1.0 <= ratio <= 1.05


class TestAAsymp:
    def test_fixed_k_constant(self):
        c = asymp_constant(1.0, 1, "fixed_k")
        assert c**2 == pytest.approx(3 * PI / 5**1.5, rel=1e-12)
        assert c == pytest.approx(0.91814, abs=1e-5)

    def test_example_value(self):
        assert a_asymp(0.1, 1, 1.0, 0.01) == pytest.approx(
            0.9181386 * 0.1**2.5 * 1e4, rel=1e-6
        )

    def test_zero_radius(self):
        assert a_asymp(0.0, 3, 1.0, 0.01) == 0.0
        assert a_asymp(0.0, 3, 1.0, 0.01, regime="growing_k") == 0.0

    def test_growing_k_log_space(self):
        value = a_asymp(1e-4, 60, 1.0, 0.01, regime="growing_k")
        assert math.isfinite(value) and value >= 0.0

    def test_bad_regime(self):
        with pytest.raises(ValueError):
            a_asymp(0.1, 1, 1.0, 0.01, regime="auto")

    def test_convergence_to_exact(self):
        rs = [0.1, 0.05, 0.02, 0.01]
        devs = [abs(a_exact(r, 1, 1.0, 0.01) / a_asymp(r, 1, 1.0, 0.01) - 1) for r in rs]
        assert all(b < a for a, b in zip(devs, devs[1:]))
        assert devs[-1] <= 0.05


class TestSolveRStar:
    def test_asymptotic_round_trip(self):
        r = 0.05
        target = a_asymp(r, 1, 1.0, 0.01)
        assert solve_r_star(target, 1, 1.0, 0.01, mode="asymptotic") == pytest.approx(
            r, rel=1e-8
        )

    def test_closed_form_inversion(self):
        assert solve_r_star(29.03, 1, 1.0, 0.01, mode="asymptotic") == pytest.approx(
            0.1, rel=2e-4
        )

    def test_exact_mode_residual(self):
        for target, k in [(5.0, 1), (12.0, 2), (3.0, 3)]:
            r = solve_r_star(target, k, 1.0, 0.01, mode="exact")
            assert abs(a_exact(r, k, 1.0, 0.01) - target) / target <= 1e-8

    def test_monotone_in_target(self):
        r1 = solve_r_star(5.0, 1, 1.0, 0.01, mode="exact")
        r2 = solve_r_star(10.0, 1, 1.0, 0.01, mode="exact")
        assert r2 > r1

    def test_unreachable_target(self):
        with pytest.raises(CalibrationError, match="right endpoint"):
            solve_r_star(1e9, 1, 1.0, 0.01, mode="exact")

    def test_invalid_target(self):
        with pytest.raises(ValueError):
            solve_r_star(-1.0, 1, 1.0, 0.01)


class TestCalibrationTarget:
    def test_values(self):
        assert calibration_target(50, 1, 0.87) == pytest.approx(
            (1 + math.sqrt(0.13)) * math.sqrt(2 * math.log(50)), rel=1e-12
        )
        assert calibration_target(50, 1, 0.87) == pytest.approx(3.8056, abs=2e-4)
        assert calibration_target(50, 1, 0.001) == pytest.approx(5.5930, abs=2e-4)

    def test_beta_to_one_limit(self):
        base = math.sqrt(2 * log_binomial(50, 1))
        assert calibration_target(50, 1, 1 - 1e-12) == pytest.approx(base, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            calibration_target(50, 1, 1.0)


class TestBetaGrid:
    def test_twenty_point_grid(self):
        grid = beta_grid(20)
        assert grid[0] == pytest.approx(0.001, abs=1e-15)
        assert grid[-1] == pytest.approx(0.999, abs=1e-15)
        spacing = np.diff(grid)
        assert np.allclose(spacing, 0.998 / 19, atol=1e-15)

    def test_two_points(self):
        assert beta_grid(2) == pytest.approx([0.001, 0.999])

    def test_too_small(self):
        with pytest.raises(ValueError):
            beta_grid(1)


class TestWeights:
    def test_example_values(self):
        w = order_weights((0.1,), 1, 1.0, 0.01)[0][0]
        assert w.rho.tolist() == [1, 4, 9]
        assert w.values[0] == pytest.approx(0.3891, abs=2e-4)
        assert w.values[1] == pytest.approx(0.2891, abs=2e-4)
        assert w.values[2] == pytest.approx(0.1223, abs=2e-4)

    def test_normalisation_identity(self):
        for r, k in [(0.1, 1), (0.05, 1), (0.08, 2), (0.05, 3)]:
            w = order_weights((r,), k, 1.0, 0.01)[0][0]
            assert abs(w.sum_sq() - 0.5) <= 1e-10 * 0.5

    def test_sum_sq_oracle(self):
        # per-point sum over the support, not the per-shell count product
        w = order_weights((0.1,), 1, 1.0, 0.01)[0][0]
        _, shell = brute_lattice(1, float(w.rho[-1]) + 0.5)
        per_point = w.values[shell]
        assert len(per_point) == 6
        assert sum(v * v for v in per_point) == pytest.approx(0.5, rel=1e-12)

    def test_nonnegative(self):
        w = order_weights((0.07,), 2, 1.0, 0.01)[0][0]
        assert (w.values >= 0).all()

    def test_order_weights_builds_each_profile_once(self, monkeypatch):
        calls = []

        def counted(r, k, sigma):
            calls.append(r)
            return extremal_sequence(r, k, sigma)

        monkeypatch.setattr(extremal, "extremal_sequence", counted)
        radii = (0.08, 0.07, 0.09)
        profiles, _ = extremal.order_weights(radii, 2, 1.0, 0.01)
        assert sorted(calls) == sorted(radii)
        for r, prof in zip(radii, profiles):
            assert prof.source_r == r
            assert prof.support_radius == extremal_sequence(r, 2, 1.0).support_radius

    def test_max_abs_coord_matches_table(self):
        w = order_weights((0.08,), 2, 1.0, 0.01)[0][0]
        coords, _ = brute_lattice(2, float(w.rho[-1]) + 0.5)
        assert w.max_abs_coord == int(np.abs(coords).max())


class TestCalibrateRadii:
    def test_grid_invariants(self):
        betas, targets, r_stars = calibrate_radii(20, 1, 1.0, 0.01, M=5)
        assert all(a < b for a, b in zip(betas, betas[1:]))
        hi = admissible_r_max(1, 1.0)
        assert all(0 < r < hi for r in r_stars)
        for target, r in zip(targets, r_stars):
            assert abs(a_exact(r, 1, 1.0, 0.01) - target) / target <= 1e-8
