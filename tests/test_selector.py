import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (
    ball_coords,
    dense_active_stats,
    engine_ball,
    engine_means,
    manual_config,
    shell_active_stats,
)

from anovaselect import selector
from anovaselect.extremal import a_exact, extremal_sequence, weights
from anovaselect.lattice import BLOCK_ENTRIES, DimensionSpec, Subset, subset_rank
from anovaselect.risk import _OrderEngine, select
from anovaselect.selector import (
    SelectorConfig,
    audit_stream,
    epsilon_hat,
    null_shell_draw,
    null_stat_batches,
    observation_stream,
    pool_stream,
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


class TestWeightMatrix:
    @pytest.mark.parametrize("source", ["bench", "manual"])
    def test_profiles_are_views_of_one_matrix(self, source, request):
        # manual radii out of order: the smallest, with the widest support, is row 1
        config = (request.getfixturevalue("bench_config") if source == "bench"
                  else manual_config(12, {1: (0.12, 0.1), 2: (0.08, 0.07, 0.09)}, 0.01))
        for k, profiles in config.profiles.items():
            W = config.weight_matrix[k]
            assert not W.flags.writeable
            assert W.shape == (len(profiles), max(len(p.values) for p in profiles))
            for m, prof in enumerate(profiles):
                n = len(prof.values)
                assert prof.values.base is W and prof.values.ctypes.data == W[m].ctypes.data
                assert not prof.values.flags.writeable
                assert not W[m, n:].any()
            assert _OrderEngine(config, k).W is W

    def test_rows_match_padded_weight_profiles(self, bench_config):
        # one weights(r) construction per radius, zero-padded to the widest support
        sigma, eps = bench_config.dim.sigma, bench_config.dim.epsilon
        for k in bench_config.orders():
            W = bench_config.weight_matrix[k]
            expected = np.zeros(W.shape)
            for m, r in enumerate(bench_config.grid.r_stars[k]):
                prof = extremal_sequence(r, k, sigma)
                a_value = a_exact(r, k, sigma, eps, profile=prof)
                expected[m, : len(prof.rho)] = prof.theta_sq * (1.0 / (2.0 * eps * eps * a_value))
                assert bench_config.profiles[k][m].a_value == a_value
            assert W.tobytes() == expected.tobytes()


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
        coords, _ = engine_ball(engine)
        mu = engine_means(engine, comp)
        for row, m in zip(coords.tolist(), mu):
            assert m * epsilon == pytest.approx(product_coeff(comp, row), abs=1e-11)


class TestStatistic:
    def test_constant_epsilon_values_give_zero(self, tiny_config):
        # |X_l| = eps at every point: each term (X/eps)^2 - 1 vanishes
        engine = _OrderEngine(tiny_config, 2)
        _, shell = engine_ball(engine)
        mu = 1.0 - pinned_xi(2, 7, len(shell))
        stats = engine.active_stats([observation_stream(0, 0, 2, 7)], [(shell, mu)])[0]
        assert np.allclose(stats, 0.0, atol=1e-12)

    def test_missing_index_raises(self, tiny_config):
        # a truncation box that misses weight points is rejected when the
        # config is built, before any draw
        with pytest.raises(ValueError, match="does not cover the weight support"):
            SelectorConfig(
                dim=tiny_config.dim,
                grid=tiny_config.grid,
                profiles=tiny_config.profiles,
                weight_matrix=tiny_config.weight_matrix,
                thresholds=tiny_config.thresholds,
                truncation={**tiny_config.truncation, 2: 1},
            )

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
        coords, shell = ball_coords(1, float(w.rho[-1]) + 0.5)
        coords = [tuple(row) for row in coords.tolist()]
        omega = w.values[shell]
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
        _, shell = engine_ball(engine)
        mu = engine_means(engine, comp)
        x = mu + pinned_xi(2, 11, len(mu))
        base = engine.active_stats([observation_stream(0, 0, 2, 11)], [(shell, mu)])[0]
        for i in range(0, len(mu), 7):
            bumped = mu.copy()
            bumped[i] += 2.0 * x[i] + np.sign(x[i]) * 5.0
            stats = engine.active_stats(
                [observation_stream(0, 0, 2, 11)], [(shell, bumped)]
            )[0]
            assert np.all(stats >= base - 1e-12)

    def test_scaling_all_values_never_decreases_stats(self, tiny_config):
        # X -> 1.7 X at every point raises every statistic (weights are >= 0)
        engine = _OrderEngine(tiny_config, 2)
        comp = ComponentSpec(Subset((1, 4)), (6, 7))
        _, shell = engine_ball(engine)
        mu = engine_means(engine, comp)
        xi = pinned_xi(2, 4, len(mu))
        base = engine.active_stats([observation_stream(0, 0, 2, 4)], [(shell, mu)])[0]
        scaled = engine.active_stats(
            [observation_stream(0, 0, 2, 4)], [(shell, 1.7 * mu + 0.7 * xi)]
        )[0]
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


def philox_key(rng):
    return [int(v) for v in rng.bit_generator.state["state"]["key"]]


class TestSubstreams:
    # (stream, phase tag, address, Philox key) at seed 10, recorded with numpy
    # 2.4: a change of the key derivation on either side (ours or numpy's
    # SeedSequence) would move every stream and every seeded result.
    GOLDEN = [
        (observation_stream, 1, (0, 1, 0), [9521107119006602321, 948906545580397462]),
        (observation_stream, 1, (3, 2, 1224), [7394338000087781639, 6257513590254045905]),
        (observation_stream, 1, (9, 4, 230299), [15776732815485062971, 6110330755088486223]),
        (observation_stream, 1, (7, 1, 199), [10649349199958790246, 846368248214284617]),
        (pool_stream, 2, (1,), [6653273504105402237, 2550465457864846800]),
        (pool_stream, 2, (4,), [7648858248129995017, 12082171556202462444]),
        (audit_stream, 3, (0,), [9734252454608947117, 10372529109608555794]),
        (audit_stream, 3, (1_000_000,), [18368358132650398580, 5576687590213123453]),
    ]

    @pytest.mark.parametrize("stream, phase, address, key", GOLDEN)
    def test_pinned_keys(self, stream, phase, address, key):
        rng = stream(10, *address)
        assert philox_key(rng) == key
        assert rng.bit_generator.state["state"]["counter"].tolist() == [0, 0, 0, 0]
        words = [w for part in (phase, *address) for w in (part >> 32, part & 0xFFFFFFFF)]
        seeded = np.random.SeedSequence(10, spawn_key=tuple(words))
        assert seeded.generate_state(2, np.uint64).tolist() == key

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            substream(-1, 0)


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


class TestAuditBatches:
    def test_bits_independent_of_threads_and_blocks(self, bench_k1_config, monkeypatch):
        prof = bench_k1_config.profiles[1][9]
        rows, trials, offset = 5000, 12_000, 40
        monkeypatch.setattr(selector, "BATCH_ROWS", rows)
        expected = [
            np.einsum("ij,j->i", null_shell_draw(audit_stream(3, offset + idx), prof.counts,
                                                 min(rows, trials - start)), prof.values)
            for idx, start in enumerate(range(0, trials, rows))
        ]
        shells = len(prof.counts)
        for entries in (7 * shells, BLOCK_ENTRIES, rows * shells):
            monkeypatch.setattr(selector, "BLOCK_ENTRIES", entries)
            for threads in (1, 2, 4):
                got = list(null_stat_batches(prof, trials, 3, offset, threads))
                assert len(got) == len(expected)
                for a, b in zip(got, expected):
                    assert np.array_equal(a, b)

    def test_tail_audit_memory_below_three_blocks(self, bench_k1_config):
        # the d = 50, k = 1 profile: one 20000-row batch alone is 81 MB, so
        # holding whole batches breaks the bound; row blocks are 512 kB each
        prof = bench_k1_config.profiles[1][9]
        tracemalloc.start()
        try:
            tail_bound_audit(3.0, 40_000, seed=11, w=prof)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * BLOCK_ENTRIES

    @pytest.mark.parametrize("trials", [0, -5], ids=lambda v: f"trials-{v}")
    def test_batch_inputs_validated(self, trials):
        # no trials must not run zero batches and report a tail of 0.0
        w = weights(0.1, 1, 1.0, 0.01)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            list(null_stat_batches(w, trials, 0, 0))
        with pytest.raises(ValueError, match="trials must be >= 1"):
            tail_bound_audit(3.0, trials, 0, w)

    def test_close_cancels_pending_batches(self, bench_k1_config, monkeypatch):
        prof = bench_k1_config.profiles[1][9]
        started = []

        def recording_stream(seed, chunk):
            started.append(chunk)
            return audit_stream(seed, chunk)

        monkeypatch.setattr(selector, "audit_stream", recording_stream)
        batches = null_stat_batches(prof, 200 * 20_000, 5, 0, threads=2)
        begin = time.perf_counter()
        assert len(next(batches)) == 20_000
        batches.close()
        assert time.perf_counter() - begin < 10.0
        # closing cancels the queued batches and waits for the running ones
        settled = len(started)
        assert settled <= 5
        time.sleep(0.2)
        assert len(started) == settled


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
        means = engine.mean_stats(engine.component_means(comp))
        for m, prof in enumerate(tiny_config.profiles[2]):
            coords, shell = ball_coords(2, float(prof.rho[-1]) + 0.5)
            omega = prof.values[shell]
            theta = np.array([product_coeff(comp, c) for c in coords.tolist()])
            expected = float(omega @ (theta / 0.01) ** 2)
            assert means[m] == pytest.approx(expected, rel=1e-10)

    def test_point_path_matches_shell_oracle_in_distribution(self, bench_k1_config):
        # per-point active draws against noncentral chi-square draws per shell
        comp = ComponentSpec(Subset((1,)), (1,), amplitude=0.001)
        engine = _OrderEngine(bench_k1_config, 1)
        _, shell = engine_ball(engine)
        mu = engine_means(engine, comp)
        n = 2000
        point = np.array([
            engine.active_stats([observation_stream(3, j, 1, 0)], [(shell, mu)])[0]
            for j in range(n)
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
