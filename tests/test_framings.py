import itertools
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilationkit import (
    Frame,
    Framing,
    RescalePlan,
    ZeroPair,
    apply_rescale,
    check_reconstruction,
    coordinate_weight_sums,
    example_e11,
    example_e11_weights,
    frame_bounds,
    is_dual_frame_pair,
    multiplier_apply,
    rescale_sqrt,
    unconditionality_diagnostics,
)
from dilationkit.frames import direct_sum_bounds, reconstruction_residual
from dilationkit.framings import dual_pair_verdict

from conftest import random_framing, random_matrix


def reference_unconditionality(x, y):
    """K_u over all 2^n sign patterns and subset_sup over all 2^n subsets,
    each sum built term by term."""
    terms = [np.outer(xi, np.conj(yi)) for xi, yi in zip(x, y)]
    k_u = max(
        np.linalg.norm(sum(s * t for s, t in zip(signs, terms)), 2)
        for signs in itertools.product((1.0, -1.0), repeat=len(terms))
    )
    subset_sup = max(
        np.linalg.norm(sum((t for b, t in zip(keep, terms) if b), np.zeros_like(terms[0])), 2)
        for keep in itertools.product((False, True), repeat=len(terms))
    )
    return k_u, subset_sup


class TestFramingConstruction:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Framing(np.eye(2), np.eye(3))

    def test_tolerance_autofill(self):
        f = example_e11(3)
        assert f.count == 6
        assert f.dim == 3
        assert f.tolerance == 0.0

    def test_explicit_tolerance_enforced(self):
        with pytest.raises(ValueError):
            Framing([[1.0]], [[0.5]], tolerance=0.01)

    def test_explicit_tolerance_accepted(self):
        f = Framing([[1.0]], [[1.0]], tolerance=1e-12)
        assert f.tolerance == 1e-12

    def test_frames_accessor(self, rng):
        f = random_framing(rng, 5, 3)
        fx, fy = f.frames()
        npt.assert_array_equal(fx.vectors, f.x)
        npt.assert_array_equal(fy.vectors, f.y)

    def test_check_reconstruction_matches_stored(self, rng):
        f = random_framing(rng, 6, 3, complex_field=True)
        assert check_reconstruction(f) <= 1e-12


class TestMultiplier:
    def test_full_coefficients_give_identity(self, rng):
        f = random_framing(rng, 6, 3)
        op = multiplier_apply(f, np.ones(6))
        assert np.abs(op - np.eye(3)).max() <= 1e-12

    def test_indicator_matches_manual_partial_sum(self, rng):
        f = random_framing(rng, 5, 2, complex_field=True)
        # an indicator and a complex non-indicator coefficient vector
        for coeffs in ([1.0, 0.0, 1.0, 0.0, 1.0], [0.5 - 2j, 0.0, -1.25, 3j, 1e-3 + 1j]):
            manual = np.zeros((2, 2), dtype=complex)
            for i, c in enumerate(coeffs):
                if c != 0:
                    manual += c * np.outer(f.x[i], f.y[i].conj())
            assert np.array_equal(multiplier_apply(f, np.array(coeffs)), manual)

    def test_zero_coefficients_skipped_exactly(self):
        f = example_e11(2)
        out = multiplier_apply(f, np.zeros(f.count))
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_wrong_length_rejected(self):
        f = example_e11(2)
        with pytest.raises(ValueError):
            multiplier_apply(f, [1.0, 2.0])

    def test_complex_coefficients_promote(self):
        f = example_e11(2)
        out = multiplier_apply(f, np.array([1j, 0, 0]))
        assert np.iscomplexobj(out)
        npt.assert_allclose(out, np.diag([1j, 0]))


class TestUnconditionality:
    def test_orthonormal_basis_is_one(self):
        f = Framing(np.eye(3), np.eye(3))
        report = unconditionality_diagnostics(f)
        assert report.exact
        assert report.K_u == 1.0
        assert report.subset_sup == 1.0

    def test_cancelling_pair_on_line(self):
        # 2 - 1 = 1 reconstructs, but the sign flip 2 + 1 = 3 does not cancel
        f = Framing([[1.0], [1.0]], [[2.0], [-1.0]])
        report = unconditionality_diagnostics(f)
        assert report.exact
        assert report.K_u == pytest.approx(3.0, abs=1e-12)
        assert report.subset_sup == pytest.approx(2.0, abs=1e-12)

    def test_e11_is_unconditionally_one(self):
        report = unconditionality_diagnostics(example_e11(3))
        assert report.exact
        assert report.K_u == pytest.approx(1.0, abs=1e-12)
        assert report.subset_sup == pytest.approx(1.0, abs=1e-12)

    def test_chain_inequality(self, rng):
        for complex_field in (False, True):
            f = random_framing(rng, 7, 3, complex_field)
            report = unconditionality_diagnostics(f)
            assert report.exact
            assert report.subset_sup <= report.K_u + 1e-12
            assert report.K_u <= 2.0 * report.subset_sup + 1e-12

    @given(
        st.integers(0, 2**32 - 1), st.integers(1, 8), st.integers(1, 3), st.booleans()
    )
    @settings(max_examples=60, deadline=None)
    def test_against_brute_force(self, seed, count, dim, complex_field):
        rng = np.random.default_rng(seed)
        x = random_matrix(rng, count, dim, complex_field)
        y = random_matrix(rng, count, dim, complex_field)
        report = unconditionality_diagnostics(Framing(x, y))
        k_u, subset_sup = reference_unconditionality(x, y)
        assert report.exact
        assert report.K_u == pytest.approx(k_u, rel=1e-12)
        assert report.subset_sup == pytest.approx(subset_sup, rel=1e-12)

    def test_certified_above_limit_is_exact(self):
        # 24 pairs are above the pattern limit, but the full set meets the
        # bound sum_i ||T_i|| = 1 for both suprema, so neither is sampled
        f = Framing(np.ones((24, 1)), np.full((24, 1), 1 / 24))
        report = unconditionality_diagnostics(f)
        assert report.exact
        assert report.K_u == pytest.approx(1.0, abs=1e-12)
        assert report.subset_sup == pytest.approx(1.0, abs=1e-12)

    def test_sampled_above_limit(self, rng):
        f = random_framing(rng, 21, 3)
        report = unconditionality_diagnostics(f, seed=5)
        again = unconditionality_diagnostics(f, seed=5)
        assert not report.exact
        assert report.K_u == again.K_u
        assert report.subset_sup == again.subset_sup
        assert report.subset_sup <= report.K_u + 1e-12


class TestRescaling:
    def test_plan_validates_products(self):
        with pytest.raises(ValueError):
            RescalePlan(alphas=np.array([2.0]), betas=np.array([1.0]))
        plan = RescalePlan(alphas=np.array([2.0]), betas=np.array([0.5]))
        npt.assert_array_equal(plan.alphas, [2.0])

    def test_complex_phase_plan(self):
        # alpha * conj(beta) = 1 allows opposite phases
        plan = RescalePlan(alphas=np.array([1j]), betas=np.array([1j]))
        assert plan.alphas[0] == 1j

    def test_sqrt_plan_balances_norms(self, rng):
        f = random_framing(rng, 6, 3)
        plan = rescale_sqrt(f)
        g = apply_rescale(f, plan)
        nx = np.linalg.norm(g.x, axis=1)
        ny = np.linalg.norm(g.y, axis=1)
        npt.assert_allclose(nx, ny, rtol=1e-12)

    def test_e11_rescale_is_parseval(self):
        f = example_e11(4)
        g = apply_rescale(f, rescale_sqrt(f))
        for fam in g.frames():
            bounds = frame_bounds(fam)
            assert abs(bounds.lower - 1.0) <= 1e-12
            assert abs(bounds.upper - 1.0) <= 1e-12
        assert check_reconstruction(g) <= 1e-12

    def test_rescale_preserves_rank_one_terms(self, rng):
        f = random_framing(rng, 5, 2, complex_field=True)
        g = apply_rescale(f, rescale_sqrt(f))
        for i in range(f.count):
            before = np.outer(f.x[i], f.y[i].conj())
            after = np.outer(g.x[i], g.y[i].conj())
            assert np.abs(before - after).max() <= 1e-12

    def test_zero_pair_reported_with_indices(self):
        f = Framing([[1.0], [0.0], [0.0]], [[1.0], [0.0], [0.0]])
        with pytest.raises(ZeroPair) as info:
            rescale_sqrt(f)
        assert info.value.indices == [1, 2]

    def test_plan_length_mismatch(self):
        f = example_e11(2)
        plan = RescalePlan(alphas=np.array([1.0]), betas=np.array([1.0]))
        with pytest.raises(ValueError):
            apply_rescale(f, plan)


class TestDualPairPredicate:
    def test_e11_sides_are_dual(self):
        f = example_e11(3)
        fx, fy = f.frames()
        assert is_dual_frame_pair(fx, fy)

    def test_rescaled_e11_still_dual(self):
        f = example_e11(3)
        g = apply_rescale(f, rescale_sqrt(f))
        assert is_dual_frame_pair(*g.frames())

    def test_non_dual_rejected(self, rng):
        x = Frame(rng.normal(size=(5, 2)))
        assert not is_dual_frame_pair(x, x)

    def test_deficient_family_rejected(self):
        x = Frame([[1.0, 0.0], [1.0, 0.0]])
        assert not is_dual_frame_pair(x, x)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            is_dual_frame_pair(Frame(np.eye(2)), Frame(np.eye(3)))

    def test_direct_sum_verdict_takes_the_global_bounds(self):
        # each block alone is a dual frame pair, but the sum's x side has
        # bounds (1e-14, 1) and its y side (1, 1e14): both fail the 1e-12 rule
        blocks = [(1e-7 * np.eye(2), 1e7 * np.eye(2)), (np.eye(2), np.eye(2))]
        x_bounds, y_bounds, residual = [], [], 0.0
        for x, y in blocks:
            fx, fy = Frame(x), Frame(y)
            assert is_dual_frame_pair(fx, fy)
            x_bounds.append(frame_bounds(fx))
            y_bounds.append(frame_bounds(fy))
            residual = max(residual, reconstruction_residual(x, y))
        x_sum, y_sum = direct_sum_bounds(x_bounds), direct_sum_bounds(y_bounds)
        assert (x_sum.lower, x_sum.upper) == (x_bounds[0].lower, x_bounds[1].upper)
        assert not dual_pair_verdict(x_sum, y_sum, residual)
        zero = np.zeros((2, 2))
        dense = [np.block([[a, zero], [zero, b]]) for a, b in zip(*blocks)]
        assert not is_dual_frame_pair(Frame(dense[0]), Frame(dense[1]))


class TestExampleWeights:
    def test_exact_weights(self):
        x_sums, y_sums = example_e11_weights(5)
        assert x_sums == [Fraction(j) for j in range(1, 6)]
        assert y_sums == [Fraction(1, j) for j in range(1, 6)]

    def test_float_weights_track_exact(self):
        f = example_e11(5)
        x_sums, y_sums = coordinate_weight_sums(f)
        npt.assert_array_equal(x_sums, np.arange(1.0, 6.0))
        npt.assert_allclose(y_sums, 1.0 / np.arange(1.0, 6.0), rtol=1e-15)

    def test_x_side_bounds_grow(self):
        f = example_e11(6)
        fx, _ = f.frames()
        bounds = frame_bounds(fx)
        assert bounds.lower == pytest.approx(1.0, abs=1e-12)
        assert bounds.upper == pytest.approx(6.0, abs=1e-12)

    def test_m_validation(self):
        with pytest.raises(ValueError):
            example_e11(0)
