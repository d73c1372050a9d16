import dataclasses
import functools
import itertools
import math
import os
import tracemalloc

import numpy as np
import pytest

from conftest import engine_ball, manual_config

from anovaselect import lattice, risk
from anovaselect.errors import CapacityError
from anovaselect.lattice import DimensionSpec, Subset
from anovaselect.risk import (
    DETECTION_BOUNDARY,
    SelectionResult,
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
from anovaselect.lattice import log_binomial, shell_counts
from anovaselect.selector import _resolve_threads, build_selector_config, observation_stream
from anovaselect.signals import ComponentSpec, build_pattern, coeff_vector


def explicit_pattern(d, s, components, epsilon=0.01, beta=0.6):
    dim = DimensionSpec(d=d, s=s, beta=beta, sigma=1.0, epsilon=epsilon)
    return build_pattern(dim, mode="explicit", components=components)


def decisions(mapping):
    return SelectionResult(
        decisions={
            subset: SubsetDecision(stats=(), selected=bool(sel), argmax=None)
            for subset, sel in mapping.items()
        },
        thresholds={},
    )


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
    def test_bit_reproducible(self, small_pattern, tiny_config):
        a = estimate_risk(small_pattern, tiny_config, J=4, seed=77, mode="full", threads=1)
        b = estimate_risk(small_pattern, tiny_config, J=4, seed=77, mode="full", threads=2)
        assert a.per_cycle_losses == b.per_cycle_losses
        assert a.err == b.err

    def test_err_is_mean_of_losses(self, small_pattern, tiny_config):
        rep = estimate_risk(small_pattern, tiny_config, J=5, seed=3, mode="full")
        assert rep.err == pytest.approx(sum(rep.per_cycle_losses) / 5, rel=1e-15)
        assert len(rep.per_cycle_losses) == 5

    def test_strong_signal_never_missed(self, small_pattern, tiny_config):
        # at full amplitude the statistic means sit far above both thresholds
        rep = estimate_risk(small_pattern, tiny_config, J=6, seed=11, mode="full")
        assert rep.misses == 0

    def test_pool_mode_counts(self, small_pattern, tiny_config):
        rep = estimate_risk(
            small_pattern, tiny_config, J=2, seed=11, mode="pool", pool_inactive=6
        )
        assert rep.evaluated_inactive == {1: 6, 2: 6}
        assert all(v == 0.0 for v in rep.extrapolated_fp.values())

    def test_extrapolated_fp_counts_selected_nulls(self, small_pattern, noisy_config):
        # in full mode every inactive subset is evaluated, so extrapolated_fp[k]
        # * J is the number of (cycle, inactive order-k subset) pairs selected
        J, seed = 3, 41
        rep = estimate_risk(small_pattern, noisy_config, J=J, seed=seed, mode="full")
        subsets = [Subset(c) for k in (1, 2) for c in itertools.combinations(range(1, 13), k)]
        selected = {1: 0, 2: 0}
        for j in range(J):
            result = select(small_pattern, noisy_config, subsets, seed, cycle=j)
            for subset, decision in result.decisions.items():
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
        rep = estimate_risk(pattern, config, J=1, seed=4, mode="full")
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

    def test_active_order_five_exceeds_ball_cap(self, order_five, monkeypatch):
        # an active k = 5 component streams its ball from a 973696-point tail;
        # below that bound the guard refuses it before any draw
        config, pattern = order_five
        draws = []
        monkeypatch.setattr(risk, "observation_stream", lambda *a, **kw: draws.append(a))
        monkeypatch.setattr(lattice, "MAX_BALL_POINTS", 500_000)
        lattice._ball_tail.cache_clear()
        with pytest.raises(CapacityError, match="lattice ball for k=5"):
            estimate_risk(pattern, config, J=1, seed=0)
        assert draws == []

    def test_active_order_five_runs(self, order_five):
        # the 21.6M-point k = 5 ball is streamed, never stored
        config, pattern = order_five
        rep = estimate_risk(pattern, config, J=1, seed=0, pool_inactive=4)
        assert rep.evaluated_inactive[5] == 4 and rep.misses in (0, 1)
        engine = _OrderEngine(config, 5)
        assert int(shell_counts(5, engine.r2_max)[1].sum()) == 21_592_448
        assert lattice._ball_tail(5, engine.r2_max)[1].shape == (973_696, 4)


@pytest.fixture(scope="module")
def order_five():
    """s = 5 at the benchmark noise level, with one active k = 5 component."""
    dim = DimensionSpec(d=50, s=5, beta=0.87, sigma=1.0, epsilon=5e-5)
    config = build_selector_config(dim, M=20, truncation="rule")
    comp = ComponentSpec(Subset((1, 2, 3, 4, 5)), (1, 2, 3, 4, 5))
    return config, build_pattern(dim, mode="explicit", components=[comp])


class TestSelectMatchesRisk:
    def test_per_cycle_losses_equal(self, tiny_config):
        # select over every subset sees exactly the draws of estimate_risk(full);
        # amplitudes near the boundary make the two cycles' losses differ
        pattern = explicit_pattern(12, 2, [
            ComponentSpec(Subset((1,)), (1,), amplitude=0.05),
            ComponentSpec(Subset((1, 2)), (1, 2), amplitude=0.3),
        ])
        rep = estimate_risk(pattern, tiny_config, J=2, seed=41, mode="full")
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


class TestThreadsAndBallCache:
    def test_auto_threads_follow_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert _resolve_threads(0) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(32)),
                            raising=False)
        assert _resolve_threads(0) == 8
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert _resolve_threads(0) == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _resolve_threads(0) == 1
        assert _resolve_threads(5) == 5
        with pytest.raises(ValueError):
            _resolve_threads(-1)

    def test_one_ball_per_active_order(self, tiny_config, monkeypatch):
        # one tail build per active order, through the cache: the attenuated
        # k = 1 subset reuses the k = 1 tail built for the cycles
        calls = []
        build = lattice._ball_tail.__wrapped__

        @functools.cache
        def counting(k, *args, **kwargs):
            calls.append(k)
            return build(k, *args, **kwargs)

        monkeypatch.setattr(lattice, "_ball_tail", counting)
        monkeypatch.setattr(risk, "_ball_tail", counting)
        pattern = explicit_pattern(12, 2, [
            ComponentSpec(Subset((1,)), (1,)),
            ComponentSpec(Subset((2,)), (2,)),
            ComponentSpec(Subset((1, 2)), (1, 2)),
        ])
        attenuation_experiment(
            [0.5, 1.0], pattern, tiny_config, J=3, seed=5, pool_inactive=20, threads=4
        )
        assert sorted(calls) == [1, 2]


def one_shot_stats(engine, comp, rng):
    """The unchunked active statistic: per-point means and normals of the whole
    ball, enumerated by brute force rather than by the slab walk under test."""
    coords, shell = engine_ball(engine)
    n = engine.truncation
    mu = np.full(coords.shape[0], comp.amplitude / engine.epsilon)
    for p, fid in enumerate(comp.factor_ids):
        mu *= coeff_vector(fid, n)[coords[:, p].astype(np.int64) + n]
    xi = rng.standard_normal(coords.shape[0])
    q = np.bincount(shell, weights=(mu + xi) ** 2 - 1.0, minlength=len(engine.rho))
    return engine.W @ q


ACTIVE_CASES = [
    ("tiny_config", ComponentSpec(Subset((3, 9)), (2, 5), amplitude=0.3)),
    ("bench_config", ComponentSpec(Subset((4, 17, 30)), (1, 5, 8))),
    ("bench_config", ComponentSpec(Subset((7,)), (3,))),  # k = 1: an empty tail
    ("k4_config", ComponentSpec(Subset((2, 5, 6, 11)), (1, 2, 3, 4), amplitude=3.0)),
]


class TestStreamedActivePath:
    # the pieces follow the block size: 7 entries cut every slab longer than
    # 7, and 1000 hold 1000 of the k = 1 ball's one-point slabs
    @pytest.mark.parametrize("chunk", [7, lattice.BLOCK_ENTRIES, 1000])
    @pytest.mark.parametrize("config_name,comp", ACTIVE_CASES)
    def test_bit_identical_to_one_shot(self, request, monkeypatch, config_name, comp, chunk):
        monkeypatch.setattr(lattice, "BLOCK_ENTRIES", chunk)
        engine = _OrderEngine(request.getfixturevalue(config_name), comp.subset.k)
        rng, same = (observation_stream(5, 2, comp.subset.k, 17) for _ in range(2))
        streamed = engine.active_stats([rng], engine.component_means(comp))[0]
        assert np.array_equal(streamed, one_shot_stats(engine, comp, same))

    def test_rows_independent_of_companion_streams(self, tiny_config):
        comp = ACTIVE_CASES[0][1]
        engine = _OrderEngine(tiny_config, 2)
        rngs = [observation_stream(5, j, 2, 17) for j in range(4)]
        joint = engine.active_stats(rngs, engine.component_means(comp))
        for j in range(4):
            solo = engine.active_stats(
                [observation_stream(5, j, 2, 17)], engine.component_means(comp)
            )[0]
            assert np.array_equal(joint[j], solo)
        assert not np.array_equal(joint[0], joint[1])

    def test_active_block_memory_below_one_point_array(self, bench_config):
        # one float64 per ball point is 8.4 MB at d = 50, k = 3; the streamed
        # block must stay below it (the unchunked path allocated several)
        comp = ACTIVE_CASES[1][1]
        engine = _OrderEngine(bench_config, 3)
        points = int(shell_counts(3, engine.r2_max)[1].sum())
        assert points == 1_050_552
        for fid in comp.factor_ids:
            coeff_vector(fid, engine.truncation)  # memoised before the trace
        tracemalloc.start()
        try:
            risk._active_block(engine, comp, rank=0, J=2, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * points

    def test_active_block_k3_holds_no_chunk_buffers(self, bench_config):
        # with the tail and the vectors built, one k = 3 block at J = 8 holds
        # about 9.7 float64 blocks; copying the slab pieces into chunk buffers
        # took 12.4
        comp = ACTIVE_CASES[1][1]
        engine = _OrderEngine(bench_config, 3)
        risk._active_block(engine, comp, rank=0, J=1, seed=5)  # tail, vectors, imports
        tracemalloc.start()
        try:
            risk._active_block(engine, comp, rank=0, J=8, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10.5 * 8 * lattice.BLOCK_ENTRIES

    def test_active_block_k4_peak_below_16_mb(self, bench_config):
        # a stored k = 4 ball would take 51.5 MB; the streamed block, tail
        # build included, stays below 16 MB
        comp = ComponentSpec(Subset((1, 2, 3, 4)), (1, 2, 3, 4))
        engine = _OrderEngine(bench_config, 4)
        for fid in comp.factor_ids:
            coeff_vector(fid, engine.truncation)  # memoised before the trace
        lattice._ball_tail.cache_clear()
        tracemalloc.start()
        try:
            risk._active_block(engine, comp, rank=0, J=1, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_active_block_k4_holds_no_tail_sized_array(self, bench_config):
        # with the tail and the vectors built, one k = 4 block at J = 8 holds
        # about 11 float64 blocks; three tail-length float64 factors (7.5
        # blocks of the 162848-point tail) and straddle copies took 19.5
        comp = ComponentSpec(Subset((1, 2, 3, 4)), (1, 2, 3, 4))
        engine = _OrderEngine(bench_config, 4)
        assert len(lattice._ball_tail(4, engine.r2_max)[1]) == 162_848
        for fid in comp.factor_ids:
            coeff_vector(fid, engine.truncation)  # memoised before the trace
        tracemalloc.start()
        try:
            risk._active_block(engine, comp, rank=0, J=8, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 14 * 8 * lattice.BLOCK_ENTRIES

    def test_tail_bound_refused_before_any_draw(self, bench_dim, bench_config, monkeypatch):
        # the k = 4 tail holds 162848 points: a lower bound stops the run on the
        # main thread before the first draw
        pattern = build_pattern(bench_dim)
        draws = []
        monkeypatch.setattr(risk, "observation_stream", lambda *a, **kw: draws.append(a))
        monkeypatch.setattr(lattice, "MAX_BALL_POINTS", 100_000)
        lattice._ball_tail.cache_clear()
        with pytest.raises(CapacityError, match="lattice ball for k=4"):
            risk._run_cycles(pattern, bench_config, 2, 5, "pool", 8, threads=2)
        assert draws == []


class TestAttenuation:
    def test_matches_independent_runs(self, small_pattern, tiny_config, noisy_config):
        alphas = [0.05, 0.4, 1.0]
        for config in (tiny_config, noisy_config):
            series = attenuation_experiment(
                alphas, small_pattern, config, J=5, seed=29, mode="full"
            )
            for alpha, rep in zip(alphas, series):
                solo = estimate_risk(
                    small_pattern.with_attenuated(alpha),
                    config,
                    J=5,
                    seed=29,
                    mode="full",
                    alpha=alpha,
                )
                assert rep.per_cycle_losses == solo.per_cycle_losses
                assert rep.err == solo.err
                assert rep.false_positives == solo.false_positives
                assert rep.misses == solo.misses
                assert rep.evaluated_inactive == solo.evaluated_inactive
                assert rep.extrapolated_fp == solo.extrapolated_fp
        assert series[0].false_positives > 0  # the lowered thresholds do select nulls

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

    @pytest.mark.parametrize("key,bad", [("J", 0), ("pool_inactive", -3)])
    def test_cycle_inputs_validated(self, small_pattern, tiny_config, key, bad):
        inputs = {"J": 2, "seed": 0, "pool_inactive": 4, key: bad}
        with pytest.raises(ValueError, match=f"{key} must be >= "):
            estimate_risk(small_pattern, tiny_config, **inputs)
        with pytest.raises(ValueError, match=f"{key} must be >= "):
            attenuation_experiment([0.5], small_pattern, tiny_config, **inputs)

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

    def test_inadmissible_radii_skipped(self):
        spec = DimensionSpec(d=50, s=1, beta=0.5, sigma=1.0, epsilon=0.01)
        hi = admissible_r_max(1, 1.0)
        rows = boundary_sweep(spec, [0.5], [hi * 1.5, hi * 0.5], [1])
        assert len(rows) == 1 and rows[0].r == pytest.approx(hi * 0.5)
