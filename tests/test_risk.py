import dataclasses
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import engine_ball, engine_means, fake_cpus, manual_config, shell_active_stats

from anovaselect import risk
from anovaselect.errors import CapacityError
from anovaselect.lattice import DimensionSpec, Subset
from anovaselect.risk import (
    DETECTION_BOUNDARY,
    SubsetDecision,
    _OrderEngine,
    attenuation_experiment,
    boundary_sweep,
    classify_regime,
    estimate_risk,
    hamming_loss,
    select,
    selection_boundary,
)
from anovaselect.extremal import a_exact, admissible_r_max, solve_r_star
from anovaselect.lattice import log_binomial
from anovaselect.selector import _resolve_threads, build_selector_config, observation_stream
from anovaselect.signals import ComponentSpec, build_pattern, coeff_vector, shell_energy


def explicit_pattern(d, s, components, epsilon=0.01, beta=0.6):
    dim = DimensionSpec(d=d, s=s, beta=beta, sigma=1.0, epsilon=epsilon)
    return build_pattern(dim, mode="explicit", components=components)


# a pool_inactive at or above every C(d, k) of these tests: all inactive subsets
ALL = 10**6


def decisions(mapping):
    return {
        subset: SubsetDecision(stats=(), selected=bool(sel), argmax=None)
        for subset, sel in mapping.items()
    }


class TestHammingLoss:
    def test_perfect_recovery(self):
        pattern = explicit_pattern(8, 2, [ComponentSpec(Subset((1, 2)), (1, 2))])
        estimate = decisions({Subset((1, 2)): 1, Subset((3, 4)): 0, Subset((5,)): 0})
        assert hamming_loss(estimate, pattern) == 0

    def test_counts_false_positives(self):
        pattern = explicit_pattern(8, 2, [])
        estimate = decisions({Subset((1,)): 1, Subset((2,)): 1, Subset((4, 5)): 1})
        assert hamming_loss(estimate, pattern) == 3

    def test_matches_bruteforce_on_random_pairs(self):
        rng = np.random.default_rng(5)
        subsets = [Subset((int(i),)) for i in range(1, 21)]
        truth_bits = rng.integers(0, 2, size=20)
        est_bits = rng.integers(0, 2, size=20)
        comps = [
            ComponentSpec(s, (1,)) for s, b in zip(subsets, truth_bits) if b
        ]
        pattern = explicit_pattern(20, 1, comps)
        estimate = decisions(dict(zip(subsets, est_bits)))
        assert hamming_loss(estimate, pattern) == int(np.abs(truth_bits - est_bits).sum())

    def test_universe_mismatch(self):
        pattern = explicit_pattern(8, 1, [])
        with pytest.raises(ValueError, match="universe"):
            hamming_loss(decisions({Subset((9,)): 1}), pattern)


@pytest.fixture(scope="module")
def small_pattern():
    return explicit_pattern(
        12,
        2,
        [ComponentSpec(Subset((1,)), (1,)), ComponentSpec(Subset((1, 2)), (1, 2))],
    )


@pytest.fixture(scope="module")
def noisy_config(tiny_config):
    """``tiny_config`` with thresholds low enough that null subsets get selected."""
    return dataclasses.replace(tiny_config, thresholds={1: 1.5, 2: 2.0})


class TestEstimateRisk:
    def test_bit_reproducible(self, small_pattern, tiny_config, monkeypatch):
        fake_cpus(monkeypatch, 1)
        a = estimate_risk(small_pattern, tiny_config, J=4, seed=77, pool_inactive=ALL)
        fake_cpus(monkeypatch, 2)
        b = estimate_risk(small_pattern, tiny_config, J=4, seed=77, pool_inactive=ALL)
        assert a.per_cycle_losses == b.per_cycle_losses
        assert a.err == b.err

    def test_err_is_mean_of_losses(self, small_pattern, tiny_config):
        rep = estimate_risk(small_pattern, tiny_config, J=5, seed=3, pool_inactive=ALL)
        assert rep.err == pytest.approx(sum(rep.per_cycle_losses) / 5, rel=1e-15)
        assert len(rep.per_cycle_losses) == 5

    def test_order_beyond_int64_ranks_fails_before_any_draw(self, monkeypatch):
        # C(200, 13) is about 8.8e19 subsets, whose ranks int64 cannot hold
        dim = DimensionSpec(d=200, s=13, beta=0.5, sigma=1.0, epsilon=5e-6)
        config = build_selector_config(dim, M=3, truncation="rule")
        pattern = explicit_pattern(200, 13, [], epsilon=5e-6, beta=0.5)
        draws = []
        monkeypatch.setattr(risk, "observation_stream", lambda *a, **kw: draws.append(a))
        with pytest.raises(CapacityError, match=f"k=13 at d=200 has {math.comb(200, 13)} subsets"):
            estimate_risk(pattern, config, J=1, seed=0, pool_inactive=5)
        assert draws == []

    def test_subset_cap_fails_before_any_draw(self, monkeypatch):
        # C(62, 4) = 557845 inactive subsets: a covering pool enumerates them
        # all, beyond the cap
        dim = DimensionSpec(d=62, s=4, beta=0.5, sigma=1.0, epsilon=5e-5)
        config = build_selector_config(dim, M=2, truncation="rule")
        pattern = explicit_pattern(62, 4, [], epsilon=5e-5, beta=0.5)
        draws, sampled = [], []
        monkeypatch.setattr(risk, "observation_stream", lambda *a, **kw: draws.append(a))

        def no_ranks(d, k, active_ranks, size, seed):
            sampled.append(k)
            return np.empty(0, dtype=np.int64)

        monkeypatch.setattr(risk, "_inactive_ranks", no_ranks)
        with pytest.raises(CapacityError, match=f"k=4 would evaluate {math.comb(62, 4)} "):
            estimate_risk(pattern, config, J=1, seed=0, pool_inactive=ALL)
        assert sampled == [1, 2, 3]  # order 4 raised before its ranks were allocated
        assert draws == []
        assert risk.MAX_EVALUATED_SUBSETS == 500_000

    def test_strong_signal_never_missed(self, small_pattern, tiny_config):
        # at full amplitude the statistic means sit far above both thresholds
        rep = estimate_risk(small_pattern, tiny_config, J=6, seed=11, pool_inactive=ALL)
        assert rep.misses == 0

    def test_pool_mode_counts(self, small_pattern, tiny_config):
        rep = estimate_risk(
            small_pattern, tiny_config, J=2, seed=11, mode="pool", pool_inactive=6
        )
        assert rep.evaluated_inactive == {1: 6, 2: 6}
        assert all(v == 0.0 for v in rep.extrapolated_fp.values())

    def test_extrapolated_fp_counts_selected_nulls(self, small_pattern, noisy_config):
        # a covering pool evaluates every inactive subset, so extrapolated_fp[k]
        # * J is the number of (cycle, inactive order-k subset) pairs selected
        J, seed = 3, 41
        rep = estimate_risk(small_pattern, noisy_config, J=J, seed=seed, pool_inactive=ALL)
        subsets = [Subset(c) for k in (1, 2) for c in itertools.combinations(range(1, 13), k)]
        selected = {1: 0, 2: 0}
        for j in range(J):
            result = select(small_pattern, noisy_config, subsets, seed, cycle=j)
            for subset, decision in result.items():
                if decision.selected and not small_pattern.eta(subset):
                    selected[subset.k] += 1
        assert min(selected.values()) > 0
        assert rep.false_positives == sum(selected.values())
        for k in (1, 2):
            assert rep.extrapolated_fp[k] * J == pytest.approx(selected[k], rel=1e-12)

    def test_noise_free_limit(self):
        epsilon = 1e-12
        config = manual_config(20, {1: (0.1,)}, epsilon)
        pattern = explicit_pattern(20, 1, [ComponentSpec(Subset((2,)), (3,))], epsilon)
        rep = estimate_risk(pattern, config, J=1, seed=4, pool_inactive=ALL)
        assert rep.err == 0.0

    def test_two_seeds_close(self, tiny_config):
        # flaky-test guard: independent seeds agree to ~3 binomial standard errors
        pattern = explicit_pattern(
            12, 2, [ComponentSpec(Subset((1,)), (1,), amplitude=0.019)]
        )
        reps = [
            estimate_risk(pattern, tiny_config, J=60, seed=s, mode="pool", pool_inactive=4)
            for s in (101, 202)
        ]
        p = np.mean([r.err for r in reps])
        se = math.sqrt(max(p * (1 - p), 0.02) / 60)
        assert abs(reps[0].err - reps[1].err) <= 3 * se * math.sqrt(2)

    def test_rejects_mismatched_pattern(self, tiny_config):
        pattern = explicit_pattern(13, 2, [])
        with pytest.raises(ValueError, match="dimensions"):
            estimate_risk(pattern, tiny_config, J=1, seed=0)

    def test_active_order_five_runs(self, order_five):
        # the 21.6M-point k = 5 ball is drawn per shell, never walked
        config, pattern = order_five
        rep = estimate_risk(pattern, config, J=1, seed=0, pool_inactive=4)
        assert rep.evaluated_inactive[5] == 4 and rep.misses in (0, 1)
        assert int(_OrderEngine(config, 5).counts.sum()) == 21_592_448


@pytest.fixture(scope="module")
def order_five():
    """s = 5 at the benchmark noise level, with one active k = 5 component."""
    dim = DimensionSpec(d=50, s=5, beta=0.87, sigma=1.0, epsilon=5e-5)
    config = build_selector_config(dim, M=20, truncation="rule")
    comp = ComponentSpec(Subset((1, 2, 3, 4, 5)), (1, 2, 3, 4, 5))
    return config, build_pattern(dim, mode="explicit", components=[comp])


class TestSelectMatchesRisk:
    def test_per_cycle_losses_equal(self, tiny_config):
        # select over every subset sees exactly the draws of a covering pool;
        # amplitudes near the boundary make the two cycles' losses differ
        pattern = explicit_pattern(12, 2, [
            ComponentSpec(Subset((1,)), (1,), amplitude=0.05),
            ComponentSpec(Subset((1, 2)), (1, 2), amplitude=0.3),
        ])
        rep = estimate_risk(pattern, tiny_config, J=2, seed=41, pool_inactive=ALL)
        subsets = [
            Subset(c) for k in (1, 2) for c in itertools.combinations(range(1, 13), k)
        ]
        losses = tuple(
            hamming_loss(select(pattern, tiny_config, subsets, seed=41, cycle=j), pattern)
            for j in range(2)
        )
        assert losses == rep.per_cycle_losses
        assert len(set(losses)) == 2

    def test_rejects_mismatched_pattern(self, tiny_config):
        with pytest.raises(ValueError, match="dimensions"):
            select(explicit_pattern(13, 2, []), tiny_config, [Subset((1,))], seed=0)

    def test_means_only_of_the_given_actives(self, bench_dim, bench_config, monkeypatch):
        # the README quick start's 5 subsets hold 3 of the benchmark's 14
        # actives, {1}, {2} and {1, 2}; an iterator is read once
        pattern = build_pattern(bench_dim)
        subsets = [Subset((1,)), Subset((2,)), Subset((7,)), Subset((1, 2)), Subset((5, 9))]
        expected = select(pattern, bench_config, subsets, seed=10)
        calls = []
        active_means = _OrderEngine.active_means

        def counted(engine, comp):
            calls.append(comp.subset)
            return active_means(engine, comp)

        monkeypatch.setattr(_OrderEngine, "active_means", counted)
        result = select(pattern, bench_config, iter(subsets), seed=10)
        assert sorted(calls) == [Subset((1,)), Subset((1, 2)), Subset((2,))]
        assert list(result) == subsets and result == expected


class TestThreadsAndBallCache:
    def test_auto_threads_follow_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert _resolve_threads() == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)),
                            raising=False)
        assert _resolve_threads() == 8
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _resolve_threads() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _resolve_threads() == 1

    def test_inline_orders_give_the_pooled_reports(self, bench_dim, bench_config, monkeypatch):
        # bench_config has orders on both sides of POOL_MIN_SHELLS: k = 1 and
        # k = 4 (620 and 1178 shells) run inline, k = 2 and k = 3 on the pool
        pattern = build_pattern(bench_dim)
        pooled_orders = []
        run_jobs = risk._run_jobs

        def recording(jobs):
            jobs = list(jobs)
            pooled_orders.append(sorted({args[0].k for _, args in jobs}))
            return run_jobs(jobs)

        monkeypatch.setattr(risk, "_run_jobs", recording)
        results = []
        for min_shells in (0, risk.POOL_MIN_SHELLS, 10**9):
            monkeypatch.setattr(risk, "POOL_MIN_SHELLS", min_shells)
            for cpus in (1, 2):
                fake_cpus(monkeypatch, cpus)
                reports = [estimate_risk(pattern, bench_config, J=2, seed=7, pool_inactive=40)]
                reports += attenuation_experiment(
                    [0.001, 1.0], pattern, bench_config, J=2, seed=7, pool_inactive=40
                )
                results.append([dataclasses.astuple(rep) for rep in reports])
        assert all(result == results[0] for result in results)
        assert results[0][1][4] > 0  # the attenuated component is missed
        assert pooled_orders == [[1, 2, 3, 4]] * 4 + [[2, 3]] * 4 + [[]] * 4

def one_shot_stats(engine, comp, rng):
    """The unchunked first-order statistic: per-point means and normals of the
    whole ball, enumerated by brute force."""
    coords, shell = engine_ball(engine)
    xi = rng.standard_normal(coords.shape[0])
    y = (engine_means(engine, comp) + xi) ** 2 - 1.0
    return engine.W @ np.bincount(shell, weights=y, minlength=len(engine.rho))


ACTIVE_CASES = [
    ("tiny_config", ComponentSpec(Subset((3, 9)), (2, 5), amplitude=0.3)),
    ("bench_config", ComponentSpec(Subset((4, 17, 30)), (1, 5, 8))),
    ("bench_config", ComponentSpec(Subset((7,)), (3,))),  # k = 1: drawn per point
    ("k4_config", ComponentSpec(Subset((2, 5, 6, 11)), (1, 2, 3, 4), amplitude=3.0)),
]


class TestStreamedActivePath:
    # the block loop re-keys one generator from subset to subset, so the
    # generator first draws ``before`` normals on another stream
    @pytest.mark.parametrize("before", [7, 1 << 16, 1000])
    @pytest.mark.parametrize("config_name,comp", ACTIVE_CASES)
    def test_bit_identical_to_one_shot(self, request, config_name, comp, before):
        engine = _OrderEngine(request.getfixturevalue(config_name), comp.subset.k)
        rng = observation_stream(5, 3, comp.subset.k, 18)
        rng.standard_normal(before)
        rng = observation_stream(5, 2, comp.subset.k, 17, into=rng)
        same = observation_stream(5, 2, comp.subset.k, 17)
        drawn = engine.stats(rng, engine.active_means(comp))
        if comp.subset.k == 1:
            expected = one_shot_stats(engine, comp, same)
        else:
            expected = shell_active_stats(engine, comp, same, 1)[0]
        assert np.array_equal(drawn, expected)

    def test_rows_independent_of_companion_streams(self, tiny_config):
        # one generator re-keyed per cycle draws what a fresh stream per cycle would
        comp = ACTIVE_CASES[0][1]
        engine = _OrderEngine(tiny_config, 2)
        lam = engine.active_means(comp)
        rng = None
        rows = []
        for j in range(4):
            rng = observation_stream(5, j, 2, 17, into=rng)
            rows.append(engine.stats(rng, lam))
        for j, row in enumerate(rows):
            assert np.array_equal(row, engine.stats(observation_stream(5, j, 2, 17), lam))
        assert not np.array_equal(rows[0], rows[1])

    @pytest.mark.parametrize("factor_ids", [(4,), (2, 5)], ids=["k1", "k2"])
    def test_selected_counts_misses_of_fresh_streams(self, tiny_config, factor_ids):
        # J - _selected over one active equals, cycle by cycle, its misses on
        # fresh streams; the mean statistic peaks at t_k, so some cycles miss
        k, J, seed, rank = len(factor_ids), 40, 5, 17
        engine = _OrderEngine(tiny_config, k)
        comp = ComponentSpec(Subset(tuple(range(3, 3 + k))), factor_ids)
        peak = (engine.W @ engine.shell_lam(comp)).max()
        means = engine.active_means(comp.scaled(math.sqrt(engine.threshold / peak)))
        misses = np.array([
            engine.stats(observation_stream(seed, j, k, rank), means).max() <= engine.threshold
            for j in range(J)
        ])
        assert 0 < misses.sum() < J
        assert np.array_equal(1 - risk._selected(engine, [rank], means, J, seed), misses)

    def test_active_block_memory_below_one_point_array(self, bench_config):
        # one float64 per ball point is 8.4 MB at d = 50, k = 3; the shell
        # draw holds one row of the 3349 shells at a time
        comp = ACTIVE_CASES[1][1]
        engine = _OrderEngine(bench_config, 3)
        points = int(engine.counts.sum())
        assert points == 1_050_552
        lam = engine.active_means(comp)
        tracemalloc.start()
        try:
            risk._selected(engine, [0], lam, 2, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * points

    def test_active_block_k3_holds_no_chunk_buffers(self, bench_config):
        # one generator re-keyed per cycle: a k = 3 block at J = 8 holds two
        # rows of 3349 shells (the draw and q) at a time, whatever J is
        comp = ACTIVE_CASES[1][1]
        engine = _OrderEngine(bench_config, 3)
        lam = engine.active_means(comp)
        risk._selected(engine, [0], lam, 8, 5)  # memoised stream keys, imports
        tracemalloc.start()
        try:
            risk._selected(engine, [0], lam, 8, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * len(engine.rho) + 2**14  # two rows and generator state

    def test_active_block_k4_peak_below_16_mb(self, bench_config):
        # a stored k = 4 ball would take 51.5 MB; the shell draw, its
        # noncentralities' shell convolution included, stays below 256 kB
        comp = ComponentSpec(Subset((1, 2, 3, 4)), (1, 2, 3, 4))
        engine = _OrderEngine(bench_config, 4)
        for fid in comp.factor_ids:
            coeff_vector(fid, engine.truncation)  # memoised before the trace
        tracemalloc.start()
        try:
            risk._selected(engine, [0], engine.active_means(comp), 1, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**18

    def test_active_block_k4_holds_no_tail_sized_array(self, bench_config):
        # a k = 4 block at J = 8 holds two rows of 1178 shells at a time
        comp = ComponentSpec(Subset((1, 2, 3, 4)), (1, 2, 3, 4))
        engine = _OrderEngine(bench_config, 4)
        lam = engine.active_means(comp)
        risk._selected(engine, [0], lam, 8, 5)  # memoised stream keys, imports
        tracemalloc.start()
        try:
            risk._selected(engine, [0], lam, 8, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * len(engine.rho) + 2**14  # two rows and generator state

    def test_active_means_fail_before_any_draw(self, bench_dim, bench_config, monkeypatch):
        # every active's means are computed before the cycle driver starts,
        # so a failure stops the run before anything is drawn
        pattern = build_pattern(bench_dim)
        draws = []
        monkeypatch.setattr(risk, "observation_stream", lambda *a, **kw: draws.append(a))

        def refuse(factor_ids, n):
            if len(factor_ids) == 4:
                raise CapacityError("refused")
            return shell_energy(factor_ids, n)

        monkeypatch.setattr(risk, "shell_energy", refuse)
        fake_cpus(monkeypatch, 2)
        with pytest.raises(CapacityError, match="refused"):
            estimate_risk(pattern, bench_config, J=2, seed=5, pool_inactive=8)
        with pytest.raises(CapacityError, match="refused"):
            attenuation_experiment([0.5, 1.0], pattern, bench_config, J=2, seed=5, pool_inactive=8)
        assert draws == []

    def test_driver_draws_means_of_any_signal(self, tiny_config):
        # lam = c * counts at k = 2 is no ComponentSpec's shell energy; the
        # driver draws it as it draws any active, with a mean statistic that
        # peaks at t_2, so some cycles miss
        J, seed, rank = 40, 5, 17
        engine = _OrderEngine(tiny_config, 2)
        means = engine.threshold / (engine.W @ engine.counts).max() * engine.counts
        hits, fp, n_inactive = risk._run_cycles(tiny_config, {1: {}, 2: {rank: means}}, J, seed, 4)
        assert list(hits) == [(2, rank)]
        assert np.array_equal(hits[2, rank], risk._selected(engine, [rank], means, J, seed))
        assert 0 < hits[2, rank].sum() < J
        assert n_inactive == {1: 4, 2: 4} and set(fp) == {1, 2}


class TestAttenuation:
    # the first alpha runs through the cycle driver and each later one redraws
    # only the designated component, so unsorted, repeated and single alphas
    # must each give the independent runs' reports, also as a numpy array
    @pytest.mark.parametrize(
        "alphas",
        [[0.05, 0.4, 1.0], [1.0, 0.05, 0.4], [0.4, 0.4], [0.05], np.array([0.05, 0.4, 1.0])],
        ids=["sorted", "unsorted", "repeated", "single", "array"],
    )
    def test_matches_independent_runs(self, small_pattern, tiny_config, noisy_config, alphas):
        for config in (tiny_config, noisy_config):
            series = attenuation_experiment(
                alphas, small_pattern, config, J=5, seed=29, pool_inactive=ALL
            )
            for alpha, rep in zip(alphas, series):
                solo = estimate_risk(
                    small_pattern.with_attenuated(alpha),
                    config,
                    J=5,
                    seed=29,
                    pool_inactive=ALL,
                )
                assert rep.alpha == alpha
                assert rep.per_cycle_losses == solo.per_cycle_losses
                assert rep.err == solo.err
                assert rep.false_positives == solo.false_positives
                assert rep.misses == solo.misses
                assert rep.evaluated_inactive == solo.evaluated_inactive
                assert rep.extrapolated_fp == solo.extrapolated_fp
        assert series[0].false_positives > 0  # the lowered thresholds do select nulls

    def test_draws_each_subset_once_per_cycle_plus_each_later_alpha(
        self, small_pattern, tiny_config, monkeypatch
    ):
        # the bench's risk.stat_evals: every active and every evaluated inactive
        # subset once per cycle, plus the designated component once per later alpha
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return observation_stream(*args, **kwargs)

        monkeypatch.setattr(risk, "observation_stream", counted)
        alphas, J = [0.05, 0.4, 1.0], 3
        series = attenuation_experiment(
            alphas, small_pattern, tiny_config, J=J, seed=4, pool_inactive=20
        )
        actives = sum(len(small_pattern.active(k)) for k in (1, 2))
        inactive = sum(series[0].evaluated_inactive.values())
        assert series[0].evaluated_inactive == {1: 11, 2: 20}
        assert len(calls) == J * (actives + inactive + len(alphas) - 1)

    def test_alpha_validation(self, small_pattern, tiny_config):
        with pytest.raises(ValueError):
            attenuation_experiment([0.0, 1.0], small_pattern, tiny_config, J=1, seed=0)
        with pytest.raises(ValueError):
            attenuation_experiment(
                [0.5], explicit_pattern(12, 2, []), tiny_config, J=1, seed=0
            )

    def test_empty_alphas_refused_before_any_draw(self, small_pattern, tiny_config, monkeypatch):
        draws = []
        monkeypatch.setattr(risk, "observation_stream", lambda *a, **kw: draws.append(a))
        with pytest.raises(ValueError, match="alphas must hold at least one value"):
            attenuation_experiment([], small_pattern, tiny_config, J=1, seed=0)
        assert draws == []

    @pytest.mark.parametrize(
        "key,bad",
        [("J", 0), ("pool_inactive", -3), ("mode", "everything"), ("mode", "full")],
    )
    def test_cycle_inputs_validated(self, small_pattern, tiny_config, monkeypatch, key, bad):
        # the retired mode="full" names its replacement, a covering pool_inactive
        message = {"J": "J must be >= 1", "pool_inactive": "pool_inactive must be >= 0",
                   "mode": r"mode must be 'pool'.*pool_inactive at or above C\(d, k\)"}[key]
        draws = []
        monkeypatch.setattr(risk, "observation_stream", lambda *a, **kw: draws.append(a))
        inputs = {"J": 2, "seed": 0, "pool_inactive": 4, key: bad}
        with pytest.raises(ValueError, match=message):
            estimate_risk(small_pattern, tiny_config, **inputs)
        with pytest.raises(ValueError, match=message):
            attenuation_experiment([0.5], small_pattern, tiny_config, **inputs)
        assert draws == []

    def test_err_bounded_by_one_with_single_attenuation(self, tiny_config):
        pattern = explicit_pattern(
            12, 2, [ComponentSpec(Subset((1,)), (1,), amplitude=0.02)]
        )
        series = attenuation_experiment(
            [0.2, 0.6, 1.0], pattern, tiny_config, J=8, seed=17, mode="pool",
            pool_inactive=8,
        )
        for rep in series:
            if rep.false_positives == 0:
                assert 0.0 <= rep.err <= 1.0


class TestRegimeClassification:
    def test_reference_thresholds(self):
        assert selection_boundary(0.87) == pytest.approx(1.9241, abs=5e-5)
        assert DETECTION_BOUNDARY == pytest.approx(1.41421, abs=5e-6)

    def synthetic_radius(self, spec, k, ratio):
        target = ratio * math.sqrt(log_binomial(spec.d, k))
        return solve_r_star(target, k, spec.sigma, spec.epsilon, mode="exact")

    def test_selectable_verdict(self):
        spec = DimensionSpec(d=50, s=2, beta=0.87, sigma=1.0, epsilon=0.01)
        r = self.synthetic_radius(spec, 1, 2.2)
        verdict = classify_regime({1: r}, spec)
        assert verdict.verdict == "selectable"
        assert verdict.ratio == pytest.approx(2.2, rel=1e-6)

    def test_detectable_only_verdict(self):
        spec = DimensionSpec(d=50, s=2, beta=0.87, sigma=1.0, epsilon=0.01)
        r = self.synthetic_radius(spec, 1, 1.6)
        assert classify_regime({1: r}, spec).verdict == "detectable_only"

    def test_undetectable_and_boundary(self):
        spec = DimensionSpec(d=50, s=2, beta=0.87, sigma=1.0, epsilon=0.01)
        assert classify_regime({1: self.synthetic_radius(spec, 1, 0.9)}, spec).verdict == (
            "undetectable"
        )
        assert classify_regime(
            {1: self.synthetic_radius(spec, 1, math.sqrt(2))}, spec
        ).verdict == "boundary"

    def test_minimum_over_orders(self):
        spec = DimensionSpec(d=50, s=2, beta=0.87, sigma=1.0, epsilon=0.01)
        r1 = self.synthetic_radius(spec, 1, 2.5)
        r2 = self.synthetic_radius(spec, 2, 1.6)
        verdict = classify_regime({1: r1, 2: r2}, spec)
        assert verdict.ratio == pytest.approx(1.6, rel=1e-6)
        assert verdict.verdict == "detectable_only"

    def test_order_equal_to_d_raises(self):
        # log C(d, d) = 0, so the ratio a(r)/sqrt(log C(d,k)) is undefined
        spec = DimensionSpec(d=3, s=2, beta=0.5, sigma=1.0, epsilon=0.01)
        r = 0.5 * admissible_r_max(3, 1.0)
        with pytest.raises(ValueError, match="k=3, d=3"):
            classify_regime({3: r}, spec)

    def test_rescaling_invariance(self):
        # a(r) eps^2 is epsilon-free, so verdicts survive joint rescaling
        spec = DimensionSpec(d=50, s=1, beta=0.87, sigma=1.0, epsilon=0.01)
        r = self.synthetic_radius(spec, 1, 2.0)
        assert a_exact(r, 1, 1.0, 0.01) * 0.01**2 == pytest.approx(
            a_exact(r, 1, 1.0, 0.0025) * 0.0025**2, rel=1e-12
        )
        scaled = DimensionSpec(d=50, s=1, beta=0.87, sigma=1.0, epsilon=0.0025)
        r_scaled = self.synthetic_radius(scaled, 1, 2.0)
        assert classify_regime({1: r}, spec).verdict == classify_regime(
            {1: r_scaled}, scaled
        ).verdict


class TestBoundarySweep:
    def test_selection_region_inside_detection_region(self):
        spec = DimensionSpec(d=50, s=2, beta=0.5, sigma=1.0, epsilon=0.01)
        betas = np.linspace(0.05, 0.95, 10)
        rows = []
        for k in (1, 2):
            hi = admissible_r_max(k, 1.0)
            rows += boundary_sweep(spec, betas, np.geomspace(0.02 * hi, 0.9 * hi, 10), [k])
        assert rows
        for row in rows:
            if row.verdict == "selectable":
                assert row.ratio > DETECTION_BOUNDARY

    def test_thresholds_converge_as_beta_to_one(self):
        # gap is sqrt(2) sqrt(1 - beta)
        assert selection_boundary(0.9999) - DETECTION_BOUNDARY <= 1.5e-2
        assert selection_boundary(1 - 1e-8) - DETECTION_BOUNDARY <= 2e-4

    def test_monotone_transition_along_radius(self):
        spec = DimensionSpec(d=50, s=1, beta=0.87, sigma=1.0, epsilon=0.01)
        hi = admissible_r_max(1, 1.0)
        radii = np.geomspace(0.01 * hi, 0.95 * hi, 40)
        rows = boundary_sweep(spec, [0.87], radii, [1])
        ratios = [row.ratio for row in rows]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        order = {"undetectable": 0, "boundary": 1, "detectable_only": 2, "selectable": 4}
        codes = [order[row.verdict] for row in rows]
        assert all(b >= a for a, b in zip(codes, codes[1:]))
        assert codes[0] == 0 and codes[-1] == 4

    def test_order_equal_to_d_raises(self):
        spec = DimensionSpec(d=3, s=2, beta=0.5, sigma=1.0, epsilon=0.01)
        r = 0.5 * admissible_r_max(3, 1.0)
        with pytest.raises(ValueError, match="k=3, d=3"):
            boundary_sweep(spec, [0.5], [r], [3])

    def test_inadmissible_radii_raise(self):
        # as in classify_regime: nothing is dropped silently
        spec = DimensionSpec(d=50, s=1, beta=0.5, sigma=1.0, epsilon=0.01)
        hi = admissible_r_max(1, 1.0)
        for r in (hi * 1.5, 0.0):
            with pytest.raises(ValueError, match="outside the admissible interval"):
                boundary_sweep(spec, [0.5], [hi * 0.5, r], [1])
