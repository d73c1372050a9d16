"""Property tests: lattice shells, shell convolution, subset
ranks, weight normalisation, the inactive-rank pool and the substream key
derivation against brute force or numpy's SeedSequence over generated inputs,
and the monotonicity of the statistic means in the signal amplitude."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import brute_ball

from anovaselect.extremal import admissible_r_max, weights
from anovaselect.lattice import Subset, shell_convolve, shell_counts, subset_rank
from anovaselect.risk import _OrderEngine, _inactive_ranks
from anovaselect.selector import substream
from anovaselect.signals import N_FACTORS, ComponentSpec

FAST = settings(max_examples=60, deadline=None)


@FAST
@given(k=st.integers(1, 3), radius=st.floats(0.0, math.sqrt(40.0)))
def test_shell_counts_match_bruteforce(k, radius):
    rho, counts = shell_counts(k, radius * radius)
    expected = {}
    for p in brute_ball(k, radius):
        r2 = sum(v * v for v in p)
        expected[r2] = expected.get(r2, 0) + 1
    assert rho.tolist() == sorted(expected)
    assert counts.tolist() == [expected[r] for r in sorted(expected)]


@FAST
@given(
    masses=st.lists(
        st.lists(st.integers(0, 9), min_size=1, max_size=6), min_size=1, max_size=3
    ),
    size=st.integers(1, 60),
)
def test_shell_convolve_matches_bruteforce(masses, size):
    # masses[j][l - 1] is coordinate j's mass at |l_j| = l
    expected = np.zeros(size, dtype=np.int64)
    for ls in itertools.product(*(range(1, len(m) + 1) for m in masses)):
        r2 = sum(l * l for l in ls)
        if r2 < size:
            expected[r2] += math.prod(m[l - 1] for m, l in zip(masses, ls))
    got = shell_convolve([np.array(m, dtype=np.int64) for m in masses], size)
    assert got.tolist() == expected.tolist()


@st.composite
def pool_requests(draw):
    d = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(d, 4)))
    total = math.comb(d, k)
    active = draw(st.sets(st.integers(0, total - 1), max_size=min(total, 6)))
    size = draw(st.integers(0, total + 2))
    seed = draw(st.integers(0, 2**32 - 1))
    return d, k, active, size, seed


@FAST
@given(pool_requests())
def test_inactive_ranks_properties(request):
    d, k, active, size, seed = request
    ranks = _inactive_ranks(d, k, active, size, seed).tolist()
    inactive = [r for r in range(math.comb(d, k)) if r not in active]
    assert all(a < b for a, b in zip(ranks, ranks[1:]))  # sorted and distinct
    assert not active & set(ranks)
    assert set(ranks) <= set(inactive)
    assert len(ranks) == min(size, len(inactive))
    if size >= len(inactive):
        assert ranks == inactive


@FAST
@given(d=st.integers(1, 12), k=st.integers(1, 4), data=st.data())
def test_subset_rank_is_combinations_index(d, k, data):
    combos = list(itertools.combinations(range(1, d + 1), k))
    if not combos:  # k > d
        return
    index = data.draw(st.integers(0, len(combos) - 1))
    assert subset_rank(Subset(combos[index]), d) == index


@FAST
@given(
    k=st.integers(1, 3),
    sigma=st.floats(0.75, 3.0),
    frac=st.floats(0.05, 0.95),
    epsilon=st.floats(1e-6, 1e-2),
)
def test_weights_square_sum_is_half(k, sigma, frac, epsilon):
    w = weights(frac * admissible_r_max(k, sigma), k, sigma, epsilon)
    assert w.sum_sq() == pytest.approx(0.5, rel=1e-10)


def seed_sequence_stream(seed, key):
    """The substream of (seed, key...) as numpy's SeedSequence spawns it."""
    words = []
    for part in key:
        words += [part >> 32, part & 0xFFFFFFFF]
    ss = np.random.SeedSequence(seed, spawn_key=tuple(words))
    return np.random.Generator(np.random.Philox(ss))


SEEDS = st.integers(0, 2**160)
KEYS = st.lists(st.integers(0, 2**64), min_size=0, max_size=4)


@FAST
@given(seed=SEEDS, key=KEYS)
# Entropy lengths the hash constant's step count must get right: a one-word
# seed and no key, the observation layout, a five-word seed and no key, and a
# key part of 2^64 (a three-word part) after a six-word seed.
@example(seed=0, key=[])
@example(seed=10, key=[1, 3, 2, 77])
@example(seed=2**128 + 1, key=[])
@example(seed=2**160, key=[2**64])
def test_substream_key_matches_seed_sequence(seed, key):
    got = substream(seed, *key).bit_generator.state
    want = seed_sequence_stream(seed, key).bit_generator.state
    assert np.array_equal(got["state"]["key"], want["state"]["key"])
    assert np.array_equal(got["state"]["counter"], want["state"]["counter"])


@FAST
@given(seed=SEEDS, key=KEYS, odd=st.integers(0, 4), size=st.integers(1, 9))
@example(seed=0, key=[], odd=1, size=5)
@example(seed=10, key=[1, 3, 2, 77], odd=1, size=5)
@example(seed=2**128 + 1, key=[], odd=1, size=5)
@example(seed=2**160, key=[2**64], odd=1, size=5)
def test_rekeyed_generator_draws_like_a_fresh_stream(seed, key, odd, size):
    rng = substream(seed + 1, 5)
    rng.standard_normal(3)
    rng.integers(0, 2**32, size=2 * odd + 1, dtype=np.uint32)  # leaves a buffered half-word
    assert substream(seed, *key, into=rng) is rng
    fresh = seed_sequence_stream(seed, key)
    assert np.array_equal(
        rng.integers(0, 2**32, size=size, dtype=np.uint32),
        fresh.integers(0, 2**32, size=size, dtype=np.uint32),
    )
    assert np.array_equal(rng.standard_normal(size), fresh.standard_normal(size))
    assert np.array_equal(rng.chisquare(3.0, size), fresh.chisquare(3.0, size))


@FAST
@given(seed=SEEDS, key=KEYS, where=st.integers(0, 3), negative=st.integers(-(2**64), -1))
def test_negative_key_part_rejected(seed, key, where, negative):
    key = list(key)
    key.insert(min(where, len(key)), negative)
    with pytest.raises(ValueError, match="nonnegative"):
        substream(seed, *key)


@FAST
@given(
    k=st.integers(1, 2),
    factor_ids=st.lists(st.integers(1, N_FACTORS), min_size=2, max_size=2),
    amplitude=st.floats(1e-3, 1e3),
    scale=st.floats(1.0, 1e3),
)
def test_scaling_the_means_up_never_lowers_a_mean_stat(
    tiny_config, k, factor_ids, amplitude, scale
):
    # E S_m = sum omega lam with omega >= 0 and lam growing with the amplitude
    engine = _OrderEngine(tiny_config, k)
    assert (engine.W >= 0.0).all()
    comp = ComponentSpec(Subset(tuple(range(1, k + 1))), factor_ids[:k], amplitude)
    before = engine.W @ engine.shell_lam(comp)
    after = engine.W @ engine.shell_lam(comp.scaled(scale))
    assert (after >= before).all()
