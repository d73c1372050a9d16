import math

import numpy as np
import pytest

from conftest import dense_active_stats, manual_config, shell_active_stats

from anovaselect.extremal import weights
from anovaselect.lattice import DimensionSpec, Subset, ball_coords, subset_rank
from anovaselect.risk import _OrderEngine, select
from anovaselect.selector import (
    SelectorConfig,
    epsilon_hat,
    null_shell_draw,
    observation_stream,
    substream,
    tail_bound_audit,
    threshold,
    truncation_radius,
)
from anovaselect.signals import ComponentSpec, build_pattern, product_coeff


def explicit_pattern(d, s, components, epsilon, beta=0.5):
    dim = DimensionSpec(d=d, s=s, beta=beta, sigma=1.0, epsilon=epsilon)
    return build_pattern(dim, mode="explicit", components=components)


class TestEpsilonHat:
    def test_fixed_values(self):
        assert epsilon_hat(50, 1) == pytest.approx(0.50563, abs=1e-4)
        assert epsilon_hat(50, 2) == pytest.approx(0.37503, abs=1e-4)

    def test_inflation_diverges_with_d(self):
        values = [epsilon_hat(d, 1) * math.log(d) for d in (100, 1000, 10000)]
        assert values[0] < values[1] < values[2]

    def test_fixed_degenerate(self):
        with pytest.raises(ValueError):
            epsilon_hat(1, 1)

    def test_growing_s_rule(self):
        value = epsilon_hat(10_000, 1, rule="growing_s", s=10)
        expected = max(
            1 / math.sqrt(math.log(10_000)),
            math.log(10) * math.log(math.log(10_000)) / math.log(10_000),
        )
        assert value == pytest.approx(expected, rel=1e-12)
        with pytest.raises(ValueError):
            epsilon_hat(10_000, 1, rule="growing_s")  # s missing
        with pytest.raises(ValueError):
            epsilon_hat(2, 1, rule="growing_s", s=2)


class TestThreshold:
    def test_examples(self):
        eh = epsilon_hat(50, 1)
        expected = math.sqrt((2 + eh) * (math.log(50) + math.log(20)))
        assert threshold(50, 1, 20, eh) == pytest.approx(expected, rel=1e-12)
        assert threshold(50, 1, 20, eh) == pytest.approx(4.1601, abs=1e-3)
        assert threshold(50, 1, 1, 0.0) == pytest.approx(math.sqrt(2 * math.log(50)), rel=1e-12)

    def test_increasing_in_grid_size(self):
        eh = epsilon_hat(50, 1)
        assert threshold(50, 1, 40, eh) > threshold(50, 1, 20, eh)

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            threshold(50, 1, 0, 0.1)


class TestTruncation:
    def test_presets(self):
        profiles = None
        assert truncation_radius(1, profiles, mode="preset") == 622
        assert truncation_radius(4, profiles, mode="preset") == 36
        with pytest.raises(ValueError):
            truncation_radius(5, profiles, mode="preset")

    def test_rule_covers_every_weight(self, tiny_config):
        for k, profiles in tiny_config.profiles.items():
            n = truncation_radius(k, profiles, mode="rule")
            for prof in profiles:
                coords, _ = ball_coords(k, float(prof.rho[-1]) + 0.5)
                assert int(np.abs(coords).max()) <= n


def pinned_xi(k, rank, size, seed=0, cycle=0):
    """The standard normals an active subset draws from its substream."""
    return observation_stream(seed, cycle, k, rank).standard_normal(size)


class TestSimulateObservations:
    def test_bit_identical_reruns(self, tiny_config, tiny_dim):
        pattern = explicit_pattern(12, 2, [ComponentSpec(Subset((1,)), (1,))], 0.01)
        subsets = [Subset((1,)), Subset((5,)), Subset((2, 7))]
        first = select(pattern, tiny_config, subsets, seed=3)
        second = select(pattern, tiny_config, subsets, seed=3)
        for u in subsets:
            assert first.decisions[u] == second.decisions[u]
        assert select(pattern, tiny_config, subsets, seed=4).decisions != first.decisions

    def test_stream_independent_of_companions(self, tiny_config):
        pattern = explicit_pattern(12, 2, [ComponentSpec(Subset((2,)), (1,))], 0.01)
        for u in (Subset((4,)), Subset((2,))):
            solo = select(pattern, tiny_config, [u], seed=9, cycle=1)
            both = select(pattern, tiny_config, [Subset((3, 5)), Subset((1,)), u],
                          seed=9, cycle=1)
            assert solo.decisions[u] == both.decisions[u]

    def test_pure_noise_moments(self, tiny_config):
        # noise-only statistics are standardised: mean 0, variance 1 at every m
        pattern = explicit_pattern(12, 2, [], 0.01)
        subsets = [Subset((i, j)) for i in range(1, 13) for j in range(i + 1, 13)]
        stats = np.array([
            dec.stats
            for cycle in range(30)
            for dec in select(pattern, tiny_config, subsets, seed=1, cycle=cycle)
            .decisions.values()
        ])
        n = stats.shape[0]
        assert n == 30 * 66
        assert np.all(np.abs(stats.mean(axis=0)) <= 4.0 / math.sqrt(n))
        assert np.all(np.abs(stats.var(axis=0) - 1.0) <= 0.15)

    def test_vanishing_noise_limit(self):
        # the active means are the coefficients over eps at every ball point
        epsilon = 1e-12
        config = manual_config(20, {1: (0.1,)}, epsilon)
        comp = ComponentSpec(Subset((1,)), (1,))
        engine = _OrderEngine(config, 1)
        coords, _ = engine.ball()
        mu = engine.component_means(comp)
        for row, m in zip(coords.tolist(), mu):
            assert m * epsilon == pytest.approx(product_coeff(comp, row), abs=1e-11)


class TestStatistic:
    def test_constant_epsilon_values_give_zero(self, tiny_config):
        # |X_l| = eps at every point: each term (X/eps)^2 - 1 vanishes
        engine = _OrderEngine(tiny_config, 2)
        n = engine.ball()[0].shape[0]
        mu = 1.0 - pinned_xi(2, 7, n)
        stats = engine.active_stats(observation_stream(0, 0, 2, 7), mu)
        assert np.allclose(stats, 0.0, atol=1e-12)

    def test_missing_index_raises(self, tiny_config):
        # a truncation box that misses weight points is rejected before any draw
        short = SelectorConfig(
            dim=tiny_config.dim,
            grid=tiny_config.grid,
            profiles=tiny_config.profiles,
            thresholds=tiny_config.thresholds,
            truncation={**tiny_config.truncation, 2: 1},
            truncation_mode="rule",
            eps_hat_rule="fixed",
        )
        pattern = explicit_pattern(12, 2, [], 0.01)
        with pytest.raises(ValueError, match="does not cover the weight support"):
            select(pattern, short, [Subset((1, 2))], seed=0)

    def test_null_moments_small_mc(self, bench_k1_config):
        prof = bench_k1_config.profiles[1][9]
        rng = substream(7, 99)
        q = null_shell_draw(rng, prof.counts, 20_000)
        s = q @ prof.values
        assert abs(s.mean()) <= 0.05
        assert abs(s.var() - 1.0) <= 0.1

    def test_signal_mean_matches_mc(self):
        # toy table: E S = sum omega (theta/eps)^2 against a direct simulation
        epsilon = 0.01
        w = weights(0.1, 1, 1.0, epsilon)
        table = {(-2,): 0.004, (-1,): -0.006, (1,): 0.008, (2,): 0.002, (3,): 0.001}
        coords, rho = ball_coords(1, float(w.rho[-1]) + 0.5)
        coords = [tuple(row) for row in coords.tolist()]
        omega = w.values[np.searchsorted(w.rho, rho)]
        mu = np.array([table.get(c, 0.0) / epsilon for c in coords])
        expected = float(omega @ mu**2)
        rng = np.random.default_rng(42)
        draws = 40_000
        xi = rng.standard_normal((draws, len(coords)))
        s = ((mu + xi) ** 2 - 1.0) @ omega
        se = s.std(ddof=1) / math.sqrt(draws)
        assert abs(s.mean() - expected) <= 3 * se


class TestSelect:
    def test_planted_signal_selected_with_argmax(self):
        epsilon = 0.001
        config = manual_config(20, {1: (0.1,)}, epsilon)
        t = config.thresholds[1]
        u = Subset((2,))
        pattern = explicit_pattern(20, 1, [ComponentSpec(u, (3,))], epsilon)
        decision = select(pattern, config, [u, Subset((5,))], seed=0).decisions[u]
        assert decision.selected and decision.argmax == 1
        assert max(decision.stats) > 5 * t

    def test_monotone_in_single_coordinate(self, tiny_config):
        # pushing any one X_l away from zero never lowers a statistic
        engine = _OrderEngine(tiny_config, 2)
        comp = ComponentSpec(Subset((3, 9)), (2, 5), amplitude=0.3)
        mu = engine.component_means(comp)
        x = mu + pinned_xi(2, 11, len(mu))
        base = engine.active_stats(observation_stream(0, 0, 2, 11), mu)
        for i in range(0, len(mu), 7):
            bumped = mu.copy()
            bumped[i] += 2.0 * x[i] + np.sign(x[i]) * 5.0
            stats = engine.active_stats(observation_stream(0, 0, 2, 11), bumped)
            assert np.all(stats >= base - 1e-12)

    def test_scaling_all_values_never_decreases_stats(self, tiny_config):
        # X -> 1.7 X at every point raises every statistic (weights are >= 0)
        engine = _OrderEngine(tiny_config, 2)
        comp = ComponentSpec(Subset((1, 4)), (6, 7))
        mu = engine.component_means(comp)
        xi = pinned_xi(2, 4, len(mu))
        base = engine.active_stats(observation_stream(0, 0, 2, 4), mu)
        scaled = engine.active_stats(observation_stream(0, 0, 2, 4), 1.7 * mu + 0.7 * xi)
        assert np.all(scaled >= base)

    def test_threshold_identity(self, tiny_config, tiny_dim):
        for k, t in tiny_config.thresholds.items():
            rebuilt = threshold(tiny_dim.d, k, tiny_config.grid.M, tiny_config.grid.eps_hat[k])
            assert abs(t - rebuilt) <= 1e-12 * rebuilt

    def test_order_without_grid_rejected(self, tiny_config):
        pattern = explicit_pattern(12, 2, [], 0.01)
        with pytest.raises(ValueError, match="no grid for order k=3"):
            select(pattern, tiny_config, [Subset((1, 2, 3))], seed=0)

    def test_null_selection_frequency(self, bench_k1_config):
        # noise-only false-selection rate at the d = 50 first-order configuration
        engine = _OrderEngine(bench_k1_config, 1)
        t = bench_k1_config.thresholds[1]
        hits = 0
        n = 10_000
        for rank in range(n):
            rng = observation_stream(20250810, 0, 1, rank)
            if engine.null_stats(rng).max() > t:
                hits += 1
        assert hits / n <= 1e-3


class TestTailAudit:
    def test_reference_squares_when_doubling(self):
        a = tail_bound_audit(1.5, 10, seed=0, w=weights(0.1, 1, 1.0, 0.01))
        b = tail_bound_audit(3.0, 10, seed=0, w=weights(0.1, 1, 1.0, 0.01))
        assert b.reference == pytest.approx(a.reference**4, rel=1e-12)

    def test_symmetry_at_zero(self, bench_k1_config):
        prof = bench_k1_config.profiles[1][9]
        audit = tail_bound_audit(0.0, 50_000, seed=11, w=prof)
        assert abs(audit.empirical_upper - 0.5) <= 0.01

    def test_upper_tail_within_slack_bound(self, bench_k1_config):
        prof = bench_k1_config.profiles[1][9]
        audit = tail_bound_audit(3.0, 100_000, seed=11, w=prof)
        assert audit.regime_ok
        assert audit.empirical_upper <= math.exp(-(3.0**2) / 2.0 * 0.8)

    def test_regime_violation_flagged_not_fatal(self):
        w = weights(0.1, 1, 1.0, 0.01)  # six points, max weight ~ 0.39
        audit = tail_bound_audit(3.0, 1000, seed=1, w=w)
        assert not audit.regime_ok


class TestShellFastPathConsistency:
    def test_engine_stats_match_dense_statistic(self, tiny_config):
        # same substream, statistic computed per point vs per shell
        comp = ComponentSpec(Subset((1, 2)), (1, 2))
        pattern = explicit_pattern(12, 2, [comp], 0.01)
        rank = subset_rank(comp.subset, 12)
        for cycle in (0, 3):
            fast = select(pattern, tiny_config, [comp.subset], seed=21, cycle=cycle)
            dense = dense_active_stats(tiny_config, comp, 21, cycle, rank)
            assert np.allclose(fast.decisions[comp.subset].stats, dense, rtol=1e-12, atol=1e-10)

    def test_mean_stats_identity(self, tiny_config):
        comp = ComponentSpec(Subset((3, 9)), (2, 5), amplitude=0.7)
        engine = _OrderEngine(tiny_config, 2)
        mu = engine.component_means(comp)
        means = engine.mean_stats(mu)
        for m, prof in enumerate(tiny_config.profiles[2]):
            coords, rho = ball_coords(2, float(prof.rho[-1]) + 0.5)
            omega = prof.values[np.searchsorted(prof.rho, rho)]
            theta = np.array([product_coeff(comp, c) for c in coords.tolist()])
            expected = float(omega @ (theta / 0.01) ** 2)
            assert means[m] == pytest.approx(expected, rel=1e-10)

    def test_point_path_matches_shell_oracle_in_distribution(self, bench_k1_config):
        # per-point active draws against noncentral chi-square draws per shell
        comp = ComponentSpec(Subset((1,)), (1,), amplitude=0.001)
        engine = _OrderEngine(bench_k1_config, 1)
        mu = engine.component_means(comp)
        n = 2000
        point = np.array([
            engine.active_stats(observation_stream(3, j, 1, 0), mu) for j in range(n)
        ])
        shell = shell_active_stats(engine, comp, np.random.default_rng(3), n)
        miss_point = float(np.mean(point.max(axis=1) <= engine.threshold))
        miss_shell = float(np.mean(shell.max(axis=1) <= engine.threshold))
        pooled = 0.5 * (miss_point + miss_shell)
        assert 0.1 < pooled < 0.9  # the miss frequency is informative here
        se_miss = math.sqrt(pooled * (1 - pooled) * 2 / n)
        assert abs(miss_point - miss_shell) <= 5.0 * se_miss
        se = np.sqrt((point.var(axis=0) + shell.var(axis=0)) / n)
        assert np.all(np.abs(point.mean(axis=0) - shell.mean(axis=0)) <= 5.0 * se)
