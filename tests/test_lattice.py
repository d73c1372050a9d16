import functools
import itertools
import math
import weakref

import numpy as np
import pytest

from conftest import brute_ball, brute_lattice

from anovaselect import extremal, lattice
from anovaselect.errors import CapacityError
from anovaselect.lattice import (
    MAX_SHELL_INDEX,
    DimensionSpec,
    Subset,
    active_count,
    log_binomial,
    shell_counts,
    subset_rank,
)
from anovaselect.risk import _inactive_ranks, estimate_risk
from anovaselect.selector import build_selector_config
from anovaselect.signals import ComponentSpec, build_pattern


def ball_points(k, radius):
    """brute_lattice's points of the open ball of the given radius, as tuples."""
    coords, _ = brute_lattice(k, radius * radius)
    return [tuple(int(v) for v in row) for row in coords]


class TestLogBinomial:
    def test_small_case(self):
        assert log_binomial(4, 2) == pytest.approx(math.log(6), abs=1e-12)

    def test_k_zero(self):
        assert log_binomial(50, 0) == pytest.approx(0.0, abs=1e-12)

    def test_exact_oracle(self):
        # arbitrary-precision oracle: integer binomial, then log
        assert log_binomial(50, 2) == pytest.approx(math.log(math.comb(50, 2)), abs=1e-12)
        for d, k in [(30, 7), (200, 4), (977, 13)]:
            assert log_binomial(d, k) == pytest.approx(
                math.log(math.comb(d, k)), rel=1e-13
            )

    def test_no_overflow_at_large_d(self):
        value = log_binomial(1_000_000, 437)
        assert math.isfinite(value) and value > 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_binomial(10, -1)
        with pytest.raises(ValueError):
            log_binomial(10, 11)


class TestActiveCount:
    def test_rounding_rule_grid(self):
        # round(C(d,k)^(1-beta)) at beta = 0.87; the bundled benchmark bank
        # pins (200, 2) at 3 instead, which build_pattern covers
        assert [active_count(50, k, 0.87) for k in range(1, 5)] == [2, 3, 4, 5]
        assert [active_count(100, k, 0.87) for k in range(1, 5)] == [2, 3, 5, 7]
        assert [active_count(200, k, 0.87) for k in range(1, 5)] == [2, 4, 6, 10]

    def test_beta_one(self):
        for d, k in [(10, 3), (500, 2), (50, 1)]:
            assert active_count(d, k, 1.0) == 1

    def test_nondecreasing_in_d(self):
        for k, beta in [(1, 0.5), (2, 0.87), (3, 0.3)]:
            counts = [active_count(d, k, beta) for d in range(k, 80)]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            active_count(10, 0, 0.5)
        with pytest.raises(ValueError):
            active_count(10, 2, 0.0)
        with pytest.raises(ValueError):
            active_count(10, 2, 1.2)


class TestLatticeBall:
    def test_one_dim(self):
        assert ball_points(1, 2.5) == [(-2,), (-1,), (1,), (2,)]

    def test_smallest_two_dim(self):
        assert set(ball_points(2, 1.5)) == {(-1, -1), (-1, 1), (1, -1), (1, 1)}

    def test_count_example(self):
        assert len(ball_points(2, 2.3)) == 12  # brute-forced below as well

    @pytest.mark.parametrize("k,radius", [(1, 7.2), (2, 2.3), (2, 5.7), (3, 3.9), (3, 5.0)])
    def test_matches_bruteforce(self, k, radius):
        assert ball_points(k, radius) == sorted(brute_ball(k, radius))

    def test_lexicographic_order(self):
        pts = ball_points(2, 3.2)
        assert pts == sorted(pts)

    def test_shell_list_keeps_no_dense_table(self, monkeypatch):
        # the memoised list copies the table's occupied entries, so the dense
        # table, one entry per squared norm, dies once the list is built
        build, refs = lattice._shell_table, []

        def table(k, size):
            out = build(k, size)
            refs.append(weakref.ref(out))
            return out

        monkeypatch.setattr(lattice, "_shell_table", table)
        monkeypatch.setattr(lattice, "_occupied_shells",
                            functools.cache(lattice._occupied_shells.__wrapped__))
        shell_counts(3, 1000.5)
        assert len(refs) == 1 and refs[0]() is None

    def test_radius_validation(self):
        # no admissible point below the smallest shell: an empty (0, k) array
        for r2 in (-1.0, 0.0, 2.0):
            coords, shell = brute_lattice(3, r2)
            assert coords.shape == (0, 3) and len(shell) == 0


class TestShellCounts:
    @pytest.mark.parametrize("k,radius", [(1, 12.0), (2, 9.5), (3, 6.2)])
    def test_totals_match_ball(self, k, radius):
        rho, counts = shell_counts(k, radius * radius)
        pts = brute_ball(k, radius)
        assert counts.sum() == len(pts)
        by_rho = {}
        for p in pts:
            by_rho[sum(v * v for v in p)] = by_rho.get(sum(v * v for v in p), 0) + 1
        assert dict(zip(rho.tolist(), counts.tolist())) == by_rho

    def test_empty_ball(self):
        rho, counts = shell_counts(3, 2.0)  # smallest norm^2 is 3
        assert len(rho) == 0 and len(counts) == 0

    def test_one_dim_shell_bound(self):
        # k = 1 lists isqrt(r2) shells: the last admitted list is MAX_SHELL_INDEX long
        top = (MAX_SHELL_INDEX + 1) ** 2
        rho, counts = shell_counts(1, top)
        assert len(rho) == MAX_SHELL_INDEX and rho[-1] == MAX_SHELL_INDEX**2
        with pytest.raises(CapacityError, match="shells"):
            shell_counts(1, top + 1)

    @pytest.mark.parametrize("k,r2", [(1, 50.0), (3, 40.0), (3, 2.0)])
    def test_arrays_are_read_only(self, k, r2):
        # k = 1, k >= 2 and the empty ball (m < k)
        for arr in shell_counts(k, r2):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 1

    def test_int64_count_guard(self):
        # shell rho = k holds the 2^k points with every |l_j| = 1: 2^62 fits
        # in int64, 2^63 does not
        rho, counts = shell_counts(62, 64.0)
        assert rho.tolist() == [62] and counts.tolist() == [2**62]
        with pytest.raises(CapacityError, match="int64"):
            shell_counts(63, 64.0)

    def test_one_shell_list_per_order_and_size(self, monkeypatch):
        # calibration asks for thousands of supports; each (k, size) shell
        # list is built once, and every profile's shells are views of it
        built = []
        build = lattice._occupied_shells.__wrapped__

        @functools.cache
        def counting(k, size):
            built.append((k, size))
            return build(k, size)

        asked = []

        def counting_shell_counts(k, r2_max):
            asked.append(k)
            return shell_counts(k, r2_max)

        monkeypatch.setattr(lattice, "_occupied_shells", counting)
        monkeypatch.setattr(extremal, "shell_counts", counting_shell_counts)
        config = build_selector_config(DimensionSpec(50, 4, 0.87, 1.0, 5e-5), M=20)
        assert len(built) == len(set(built)) and {k for k, _ in built} == {1, 2, 3, 4}
        assert len(asked) > 100 * len(built)
        for k, profiles in config.profiles.items():
            lists = [counting(k, size) for kk, size in built if kk == k]
            for prof in profiles:
                assert not prof.rho.flags.writeable and not prof.counts.flags.writeable
                assert any(prof.rho.base is rho and prof.counts.base is counts
                           for rho, counts in lists)

class TestSubsets:
    def test_full_enumeration_small(self):
        combos = list(itertools.combinations(range(1, 4), 2))
        assert [subset_rank(Subset(c), 3) for c in combos] == [0, 1, 2]

    def test_full_count(self, tiny_config):
        # a covering pool evaluates every inactive subset of every order
        pattern = build_pattern(
            tiny_config.dim, mode="explicit",
            components=[ComponentSpec(Subset((4,)), (1,)), ComponentSpec(Subset((2, 5)), (1, 2))],
        )
        rep = estimate_risk(pattern, tiny_config, J=1, seed=0, pool_inactive=10**6)
        assert rep.evaluated_inactive == {1: 12 - 1, 2: math.comb(12, 2) - 1}

    def test_count_matches_log_binomial(self):
        # the last subset in lexicographic order closes the rank range
        for d, k in [(9, 3), (14, 5), (30, 2)]:
            last = Subset(tuple(range(d - k + 1, d + 1)))
            assert subset_rank(last, d) + 1 == round(math.exp(log_binomial(d, k)))

    def test_pool_reproducible_and_distinct(self):
        active = {3, 17}
        first = _inactive_ranks(50, 4, active, 1000, seed=7)
        second = _inactive_ranks(50, 4, active, 1000, seed=7)
        assert np.array_equal(first, second)
        assert len(set(first.tolist())) == 1000
        assert np.all(np.diff(first) > 0)
        assert first.min() >= 0 and first.max() < math.comb(50, 4)
        assert not active & set(first.tolist())

    def test_pool_different_seed_differs(self):
        a = _inactive_ranks(50, 4, set(), 50, seed=1)
        b = _inactive_ranks(50, 4, set(), 50, seed=2)
        assert not np.array_equal(a, b)

    def test_pool_size_exceeds_population(self):
        # a pool larger than the inactive population takes every inactive rank
        ranks = _inactive_ranks(5, 2, {0, 4}, 11, seed=0)
        assert ranks.tolist() == [r for r in range(10) if r not in (0, 4)]

    def test_pool_uniform_over_inactive_ranks(self):
        # every inactive rank of C(8, 2) = 28 enters a 5-pool with frequency 5/26
        active, size, seeds = {3, 10}, 5, 4000
        hits = np.zeros(math.comb(8, 2))
        for seed in range(seeds):
            hits[_inactive_ranks(8, 2, active, size, seed)] += 1
        assert hits[sorted(active)].sum() == 0
        p = size / (len(hits) - len(active))
        inactive = np.setdiff1d(np.arange(len(hits)), sorted(active))
        z = (hits[inactive] / seeds - p) / math.sqrt(p * (1 - p) / seeds)
        assert np.abs(z).max() < 5

    def test_rank_roundtrip_matches_lexicographic(self):
        d, k = 12, 4
        combos = itertools.combinations(range(1, d + 1), k)
        for rank, combo in enumerate(combos):
            assert subset_rank(Subset(combo), d) == rank

    def test_subset_validation(self):
        with pytest.raises(ValueError):
            Subset((2, 1))
        with pytest.raises(ValueError):
            Subset((0, 3))
        with pytest.raises(ValueError):
            Subset((1, 1))
        with pytest.raises(ValueError):
            Subset(())


class TestDimensionSpec:
    def test_valid(self):
        spec = DimensionSpec(d=50, s=4, beta=0.87, sigma=1.0, epsilon=5e-5)
        assert spec.d == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=0, s=1, beta=0.5, sigma=1.0, epsilon=0.1),
            dict(d=5, s=6, beta=0.5, sigma=1.0, epsilon=0.1),
            dict(d=5, s=2, beta=0.0, sigma=1.0, epsilon=0.1),
            dict(d=5, s=2, beta=1.0, sigma=1.0, epsilon=0.1),
            dict(d=5, s=2, beta=0.5, sigma=0.0, epsilon=0.1),
            dict(d=5, s=2, beta=0.5, sigma=1.0, epsilon=0.0),
            dict(d=5, s=2, beta=0.5, sigma=1.0, epsilon=math.nan),
            dict(d=5, s=2, beta=0.5, sigma=1.0, epsilon=math.inf),
            dict(d=5, s=2, beta=0.5, sigma=math.nan, epsilon=0.1),
            dict(d=5, s=2, beta=0.5, sigma=math.inf, epsilon=0.1),
            dict(d=5, s=2, beta=math.nan, sigma=1.0, epsilon=0.1),
            dict(d=5, s=5, beta=0.5, sigma=1.0, epsilon=0.1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            DimensionSpec(**kwargs)
