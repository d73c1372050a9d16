import csv
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from anovaselect import signals
from anovaselect.lattice import BLOCK_ENTRIES, DimensionSpec, Subset
from anovaselect.selector import PRESET_TRUNCATION
from anovaselect.signals import (
    ComponentSpec,
    QuadratureSpec,
    SparsityPattern,
    build_pattern,
    coeff_vector,
    eval_g,
    fourier_coeff_1d,
    orthogonality_check,
    product_coeff,
    quadrature_for,
    shell_energy,
    sobolev_norm,
)

SQRT2 = math.sqrt(2.0)
AUDIT_FIXTURE = (
    Path(__file__).resolve().parents[1] / "bench" / "tests" / "fixtures" / "seed10" / "audit.csv"
)


def traced_peak(fn, *args):
    """(result, peak bytes tracemalloc saw while ``fn(*args)`` ran)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def bench_spec(d):
    return DimensionSpec(d=d, s=4, beta=0.87, sigma=1.0, epsilon=5e-5)


def digests_under_blas_threads(script):
    """stdout of ``script``, stripped, run once with one BLAS thread and once
    with the default count, each in a fresh interpreter on this package."""
    src = str(Path(signals.__file__).resolve().parents[1])
    digests = []
    for blas_threads in ("1", None):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        res = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(res.stdout.strip())
    return digests


class TestEvalG:
    def test_pointwise_examples(self):
        assert eval_g(4, 0.5) == pytest.approx(0.0, abs=1e-15)
        assert eval_g(1, 0.0) == pytest.approx(-0.5424, abs=1e-15)
        assert eval_g(6, 0.4) == pytest.approx(-0.1867, abs=1e-15)

    def test_vectorised(self):
        t = np.linspace(0, 1, 11)
        out = eval_g(5, t)
        assert out.shape == t.shape
        assert out[7] == pytest.approx(eval_g(5, 0.7), rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eval_g(0, 0.5)
        with pytest.raises(ValueError):
            eval_g(10, 0.5)
        with pytest.raises(ValueError):
            eval_g(3, 1.5)


class TestFourierCoeff:
    def test_mean_of_centered_linear(self):
        assert abs(fourier_coeff_1d(4, 0)) <= 1e-12

    def test_cosine_vanishes(self):
        assert abs(fourier_coeff_1d(4, 1)) <= 1e-9

    def test_sine_closed_form(self):
        # integration by parts: (t - 1/2, sqrt(2) sin(2 pi l t)) = -sqrt(2)/(2 pi l)
        for l in (1, 3, 17):
            assert fourier_coeff_1d(4, -l) == pytest.approx(
                -SQRT2 / (2 * math.pi * l), abs=1e-11
            )

    def test_insufficient_nodes_rejected(self):
        with pytest.raises(ValueError, match="nodes"):
            fourier_coeff_1d(1, 600, quad=QuadratureSpec(panels=4, nodes=16))

    def test_quadrature_halving_stable(self):
        # halving the panel width changes no coefficient by more than 1e-9: the
        # vector's own rule against the scalar path on the finer rule
        base = quadrature_for(700)
        fine = QuadratureSpec(panels=2 * base.panels, nodes=base.nodes)
        for i in range(1, 10):
            vec = coeff_vector(i, 700)
            for l in range(-700, 701, 35):
                assert abs(vec[l + 700] - fourier_coeff_1d(i, l, quad=fine)) <= 1e-9

    def test_sobolev_decay_envelope(self):
        # |c(l)| <= K / |l| with K fitted on moderate frequencies
        for i in range(1, 10):
            vec = coeff_vector(i, 700)
            ls = np.arange(-700, 701)
            mask_fit = (np.abs(ls) >= 32) & (np.abs(ls) <= 128)
            K = float(np.max(np.abs(vec[mask_fit]) * np.abs(ls[mask_fit])))
            mask_all = np.abs(ls) >= 32
            assert np.all(
                np.abs(vec[mask_all]) <= 1.05 * K / np.abs(ls[mask_all])
            ), f"decay envelope violated for g{i}"

    def test_memoised_arrays_are_read_only(self):
        vec = coeff_vector(3, 20)
        assert coeff_vector(3, 20) is vec
        x, w = QuadratureSpec(panels=8, nodes=4).grid()
        for arr in (vec, x, w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_vector_matches_scalar(self):
        vec = coeff_vector(2, 40)
        for l in (-40, -3, 0, 5, 40):
            assert vec[l + 40] == pytest.approx(fourier_coeff_1d(2, l), abs=1e-12)

    def test_vector_bits_independent_of_block_size(self, monkeypatch):
        compute = signals._coeff_vector.__wrapped__  # bypass the memo
        quad = quadrature_for(154)
        for i in (1, 3, 9):
            default = compute(i, 154)
            monkeypatch.setattr(signals, "BLOCK_ENTRIES", 7 * quad.total_nodes)
            seven_rows = compute(i, 154)
            monkeypatch.setattr(signals, "BLOCK_ENTRIES", BLOCK_ENTRIES)
            assert np.array_equal(seven_rows, default)
            assert np.array_equal(compute(i, 154), default)

    def test_vector_memory_below_four_blocks(self):
        # a block is at most 512 kB of float64; at n = 622 one-shot phase, cos
        # and sin matrices would be 24.8 MB each
        quadrature_for(622).grid()  # memoised before the trace
        out, peak = traced_peak(signals._coeff_vector.__wrapped__, 1, 622)
        assert 8 * BLOCK_ENTRIES <= 512 * 1024
        assert peak < 4 * 8 * BLOCK_ENTRIES + out.nbytes

    def test_vector_bits_independent_of_blas_threads(self):
        # the reduction uses no BLAS, so one BLAS thread and the default agree
        script = (
            "import hashlib\n"
            "from anovaselect.signals import coeff_vector\n"
            "h = hashlib.sha256()\n"
            "for n in (622, 154, 65, 36):\n"
            "    for i in range(1, 10):\n"
            "        h.update(coeff_vector(i, n).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        digests = digests_under_blas_threads(script)
        assert len(digests[0]) == 64 and digests[0] == digests[1]


class TestOrthogonality:
    def test_exact_centring(self):
        res = orthogonality_check(4, 1e-12)
        assert res.passed and res.residual <= 1e-14

    def test_all_factors_to_four_decimals(self):
        for i in range(1, 10):
            assert orthogonality_check(i, 1e-4).passed

    def test_reports_residual(self):
        res = orthogonality_check(6, 1e-9)
        assert not res.passed
        assert res.residual == pytest.approx(abs(2 * 0.28 / 3 - 0.1867), abs=1e-9)


class TestProductCoeff:
    def test_zero_factor_annihilates(self):
        spec = ComponentSpec(Subset((1, 2)), (4, 4))
        # the cosine coefficient of g4 vanishes, so the product does too
        assert abs(product_coeff(spec, (1, -1))) <= 1e-12

    def test_product_of_sine_coeffs(self):
        spec = ComponentSpec(Subset((1, 2)), (4, 4))
        assert product_coeff(spec, (-1, -1)) == pytest.approx((-0.2250791) ** 2, abs=1e-7)

    def test_tensor_consistency_with_2d_quadrature(self):
        # direct two-dimensional quadrature oracle
        spec = ComponentSpec(Subset((1, 2)), (4, 4))
        x, w = QuadratureSpec(panels=32, nodes=16).grid()
        phi = SQRT2 * np.sin(2 * math.pi * x)
        vals = eval_g(4, x) * phi
        two_d = float(np.outer(w * vals, w * vals).sum())
        assert product_coeff(spec, (-1, -1)) == pytest.approx(two_d, abs=1e-8)

    def test_amplitude_scales_exactly(self):
        base = ComponentSpec(Subset((2, 5)), (1, 3))
        scaled = base.scaled(0.25)
        for coords in [(1, 1), (-2, 4), (7, -7)]:
            assert product_coeff(scaled, coords) == pytest.approx(
                0.25 * product_coeff(base, coords), rel=1e-14
            )

    def test_arity_mismatch(self):
        spec = ComponentSpec(Subset((1, 2)), (4, 4))
        with pytest.raises(ValueError, match="arity"):
            product_coeff(spec, (1, 2, 3))


class TestCoefficientTable:
    """The box's coefficients in factored form: shell energies and norms."""

    def test_factored_matches_product_coeff(self):
        # per-shell sums of the unit-amplitude squares, point by point
        cases = [
            (ComponentSpec(Subset((1, 3)), (2, 7), amplitude=0.8), 12),
            (ComponentSpec(Subset((5,)), (9,)), 10),
            (ComponentSpec(Subset((1, 2, 4)), (3, 1, 6)), 4),
        ]
        for comp, n in cases:
            k = comp.subset.k
            quad = quadrature_for(n)
            brute: dict[int, float] = {}
            for coords in box_points(k, n):
                rho = sum(v * v for v in coords)
                square = (product_coeff(comp, coords, quad=quad) / comp.amplitude) ** 2
                brute[rho] = brute.get(rho, 0.0) + square
            rho, energy = shell_energy(comp.factor_ids, n)
            assert rho.dtype == np.int64
            if k == 1:
                assert rho.tolist() == [l * l for l in range(1, n + 1)]
            else:
                assert rho.tolist() == list(range(k * n * n + 1))
            got = dict(zip(rho.tolist(), energy.tolist()))
            assert {r for r, e in got.items() if e != 0.0} == set(brute)
            for r, value in brute.items():
                assert got[r] == pytest.approx(value, rel=1e-12)

    def test_l2_norm_matches_bruteforce(self):
        comp = ComponentSpec(Subset((1, 2)), (4, 6))
        quad = quadrature_for(8)
        brute = sum(product_coeff(comp, c, quad=quad) ** 2 for c in box_points(2, 8))
        assert sobolev_norm(comp, 8, 0.0) == pytest.approx(brute, rel=1e-12)

    def test_sobolev_norm_examples(self):
        comp = ComponentSpec(Subset((3,)), (4,))
        single = sobolev_norm(comp, 5, 1.0)
        assert sobolev_norm(comp.scaled(2.0), 5, 1.0) == pytest.approx(4 * single, rel=1e-12)
        # g4 = t - 1/2 has only sine coefficients -sqrt(2)/(2 pi l), so each
        # frequency contributes (4 pi^2 l^2) * 2 / (4 pi^2 l^2) = 2 at sigma = 1
        assert single == pytest.approx(2.0 * 5, rel=1e-9)

    def test_sobolev_separable_path_matches_bruteforce(self):
        cases = [
            (ComponentSpec(Subset((2,)), (3,), amplitude=1.3), 40),
            (ComponentSpec(Subset((1, 2)), (4, 6), amplitude=0.7), 6),
            (ComponentSpec(Subset((1, 2, 5)), (1, 8, 3)), 4),
        ]
        for comp, n in cases:
            quad = quadrature_for(n)
            for sigma in (0.5, 1.0, 2.0):
                brute = sum(
                    product_coeff(comp, c, quad=quad) ** 2
                    * (4 * math.pi**2 * sum(v * v for v in c)) ** sigma
                    for c in box_points(comp.subset.k, n)
                )
                assert sobolev_norm(comp, n, sigma) == pytest.approx(brute, rel=1e-12)

    def test_sobolev_norm_memory_below_three_tables(self):
        # k = 1, n = 622: the sum runs over the n roots, so no (n^2 + 1)-entry
        # array is built at all
        n = PRESET_TRUNCATION[1]
        comp = build_pattern(bench_spec(50)).active(1)[0]
        coeff_vector(comp.factor_ids[0], n)  # memoised before the trace
        _, peak = traced_peak(sobolev_norm, comp, n, 1.0)
        assert peak < 3 * 8 * (n * n + 1)

    def test_ellipsoid_memberships_match_audit_fixture(self):
        # the audit's 14 benchmark components at d = 50, sigma = 1, preset
        # truncation; the fixture holds them as the CSV writes them, to 12 digits
        with AUDIT_FIXTURE.open(newline="") as fh:
            expected = [(int(row["k"]), row["value"]) for row in csv.DictReader(fh)
                        if row["check"] == "ellipsoid_membership"]
        pattern = build_pattern(bench_spec(50))
        got = [
            (k, f"{sobolev_norm(comp, PRESET_TRUNCATION[k], 1.0):.12g}")
            for k in sorted(pattern.counts())
            for comp in pattern.active(k)
        ]
        assert len(expected) == 14
        assert got == expected

    def test_sobolev_norm_bits_independent_of_blas_threads(self):
        # the audit's 14 benchmark components at three smoothness levels: the
        # sum uses no BLAS, so one BLAS thread and the default agree
        script = (
            "import hashlib\n"
            "from anovaselect.lattice import DimensionSpec\n"
            "from anovaselect.selector import PRESET_TRUNCATION\n"
            "from anovaselect.signals import build_pattern, sobolev_norm\n"
            "pattern = build_pattern(DimensionSpec(50, 4, 0.87, 1.0, 5e-5))\n"
            "h = hashlib.sha256()\n"
            "for k in sorted(pattern.counts()):\n"
            "    for comp in pattern.active(k):\n"
            "        for sigma in (0.5, 1.0, 2.0):\n"
            "            value = sobolev_norm(comp, PRESET_TRUNCATION[k], sigma)\n"
            "            h.update(repr(value).encode())\n"
            "print(h.hexdigest())\n"
        )
        digests = digests_under_blas_threads(script)
        assert len(digests[0]) == 64 and digests[0] == digests[1]

    def test_sobolev_norm_order_four_box(self):
        # the k = 4, n = 36 box holds 26.9M entries; the shell sum never builds it
        comp = ComponentSpec(Subset((1, 2, 3, 4)), (1, 2, 3, 4))
        value = sobolev_norm(comp, 36, 2.0)
        assert math.isfinite(value) and value > sobolev_norm(comp, 36, 1.0) > 0.0


def box_points(k, n):
    """Every index of the box |l_j| <= n, l_j != 0."""
    axis = [l for l in range(-n, n + 1) if l != 0]
    return itertools.product(axis, repeat=k)


class TestSparsityPattern:
    def test_counts_reproduce_reference_table(self):
        expected = {50: [2, 3, 4, 5], 100: [2, 3, 5, 7], 200: [2, 3, 6, 10]}
        for d, row in expected.items():
            counts = build_pattern(bench_spec(d), mode="benchmark").counts()
            assert [counts[k] for k in range(1, 5)] == row

    def test_order_two_components_at_d50(self):
        pattern = build_pattern(bench_spec(50), mode="benchmark")
        comps = pattern.active(2)
        assert [c.subset.indices for c in comps] == [(1, 2), (2, 3), (3, 4)]
        assert [c.factor_ids for c in comps] == [(1, 2), (2, 3), (3, 4)]

    def test_added_components_at_larger_d(self):
        p200 = build_pattern(bench_spec(200), mode="benchmark")
        subsets4 = {c.subset.indices for c in p200.active(4)}
        assert (1, 2, 4, 9) in subsets4 and (1, 2, 5, 7) in subsets4
        assert all(p200.eta(c.subset) == 1 for c in p200.active(3))

    def test_eta_and_universe(self):
        pattern = build_pattern(bench_spec(50), mode="benchmark")
        assert pattern.eta(Subset((1,))) == 1
        assert pattern.eta(Subset((3,))) == 0
        assert pattern.eta(Subset((1, 2, 3, 4))) == 1
        with pytest.raises(ValueError):
            pattern.eta(Subset((51,)))

    def test_explicit_empty_pattern(self):
        pattern = build_pattern(bench_spec(50), mode="explicit", components=[])
        assert pattern.eta(Subset((1,))) == 0
        assert pattern.counts() == {1: 0, 2: 0, 3: 0, 4: 0}

    def test_benchmark_rejects_other_configs(self):
        bad = DimensionSpec(d=60, s=4, beta=0.87, sigma=1.0, epsilon=5e-5)
        with pytest.raises(ValueError, match="explicit"):
            build_pattern(bad, mode="benchmark")

    def test_attenuation(self):
        pattern = build_pattern(bench_spec(50), mode="benchmark")
        attenuated = pattern.with_attenuated(0.001)
        assert attenuated.active(1)[0].amplitude == pytest.approx(0.001)
        assert attenuated.active(1)[1].amplitude == 1.0
        assert pattern.active(1)[0].amplitude == 1.0  # original untouched
        with pytest.raises(ValueError):
            pattern.with_attenuated(0.0)

    def test_duplicate_actives_rejected(self):
        comp = ComponentSpec(Subset((1,)), (1,))
        with pytest.raises(ValueError, match="duplicate"):
            SparsityPattern(d=5, s=1, components={1: (comp, comp)})

    def test_components_above_s_rejected(self):
        # they would never be drawn: risk reports no miss for them
        spec = DimensionSpec(d=12, s=1, beta=0.6, sigma=1.0, epsilon=0.01)
        comp = ComponentSpec(Subset((1, 2)), (1, 2))
        with pytest.raises(ValueError, match="order 2 above the maximal order s=1"):
            build_pattern(spec, "explicit", [comp])
