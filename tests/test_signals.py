import itertools
import math

import numpy as np
import pytest

from anovaselect.lattice import DimensionSpec, Subset, _shell_array
from anovaselect.signals import (
    CoefficientTable,
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
)

SQRT2 = math.sqrt(2.0)


def bench_spec(d):
    return DimensionSpec(d=d, s=4, beta=0.87, sigma=1.0, epsilon=5e-5)


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
        # halving the panel width changes no coefficient by more than 1e-9
        base = quadrature_for(700)
        fine = QuadratureSpec(panels=2 * base.panels, nodes=base.nodes)
        for i in range(1, 10):
            coarse_vec = coeff_vector(i, 700, quad=base)
            fine_vec = coeff_vector(i, 700, quad=fine)
            assert np.max(np.abs(coarse_vec - fine_vec)) <= 1e-9

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
        table = _shell_array(2, 100)
        for arr in (vec, x, w, table):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1

    def test_vector_matches_scalar(self):
        vec = coeff_vector(2, 40)
        for l in (-40, -3, 0, 5, 40):
            assert vec[l + 40] == pytest.approx(fourier_coeff_1d(2, l), abs=1e-12)


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
    def test_factored_matches_product_coeff(self):
        comp = ComponentSpec(Subset((1, 3)), (2, 7), amplitude=0.8)
        table = CoefficientTable.from_component(comp, 12)
        for coords in [(1, 1), (-5, 9), (12, -12)]:
            factored = table.amplitude * math.prod(
                vec[l + table.n] for vec, l in zip(table.factors, coords)
            )
            assert factored == pytest.approx(product_coeff(comp, coords), rel=1e-12)

    def test_l2_norm_matches_bruteforce(self):
        comp = ComponentSpec(Subset((1, 2)), (4, 6))
        table = CoefficientTable.from_component(comp, 8)
        quad = quadrature_for(8)
        brute = sum(product_coeff(comp, c, quad=quad) ** 2 for c in box_points(2, 8))
        assert table.l2_norm_sq() == pytest.approx(brute, rel=1e-12)

    def test_sobolev_norm_examples(self):
        comp = ComponentSpec(Subset((3,)), (4,))
        single = CoefficientTable.from_component(comp, 5)
        doubled = CoefficientTable.from_component(comp.scaled(2.0), 5)
        assert doubled.sobolev_norm(1.0) == pytest.approx(
            4 * single.sobolev_norm(1.0), rel=1e-12
        )
        assert single.sobolev_norm(0.0) == pytest.approx(single.l2_norm_sq(), rel=1e-15)
        # g4 = t - 1/2 has only sine coefficients -sqrt(2)/(2 pi l), so each
        # frequency contributes (4 pi^2 l^2) * 2 / (4 pi^2 l^2) = 2 at sigma = 1
        assert single.sobolev_norm(1.0) == pytest.approx(2.0 * 5, rel=1e-9)

    def test_sobolev_separable_path_matches_bruteforce(self):
        cases = [
            (ComponentSpec(Subset((2,)), (3,), amplitude=1.3), 40),
            (ComponentSpec(Subset((1, 2)), (4, 6), amplitude=0.7), 6),
            (ComponentSpec(Subset((1, 2, 5)), (1, 8, 3)), 4),
        ]
        for comp, n in cases:
            table = CoefficientTable.from_component(comp, n)
            quad = quadrature_for(n)
            for sigma in (0.5, 1.0, 2.0):
                brute = sum(
                    product_coeff(comp, c, quad=quad) ** 2
                    * (4 * math.pi**2 * sum(v * v for v in c)) ** sigma
                    for c in box_points(comp.subset.k, n)
                )
                assert table.sobolev_norm(sigma) == pytest.approx(brute, rel=1e-12)

    def test_sobolev_norm_order_four_box(self):
        # the k = 4, n = 36 box holds 26.9M entries; the shell sum never builds it
        comp = ComponentSpec(Subset((1, 2, 3, 4)), (1, 2, 3, 4))
        table = CoefficientTable.from_component(comp, 36)
        value = table.sobolev_norm(2.0)
        assert math.isfinite(value) and value > table.sobolev_norm(1.0) > 0.0


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
        with pytest.raises(ValueError):
            pattern.with_attenuated(0.5, subset=Subset((9,)))

    def test_duplicate_actives_rejected(self):
        comp = ComponentSpec(Subset((1,)), (1,))
        with pytest.raises(ValueError, match="duplicate"):
            SparsityPattern(d=5, s=1, beta=0.5, components={1: (comp, comp)})
