import itertools
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from dilationkit import apply_rescale, check_reconstruction, frame_bounds, rescale_sqrt
from dilationkit import rademacher
from dilationkit.linalg import lp_norm, spectral_norm
from dilationkit.rademacher import (
    MAX_LEVEL,
    MONOTONE_RTOL,
    assemble_framing,
    balanced_ratios,
    bounds_stay_finite,
    build_block,
    khintchine_report,
    project,
    projection_norm_bounds,
    projection_ratio,
    sign_matrix,
)

P_VALUES = (4.0 / 3.0, 1.5, 4.0, 6.0)


def haagerup_b(p):
    """Haagerup's optimal upper Khintchine constant for p >= 2."""
    return math.sqrt(2.0) * (math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi)) ** (1.0 / p)


def haagerup_a(p):
    """Haagerup's optimal lower Khintchine constant for 1 <= p < 2: the two
    expressions cross at p0 ~ 1.847, where Gamma((p + 1)/2) = sqrt(pi)/2."""
    p0 = 1.8474163
    return 2.0 ** (0.5 - 1.0 / p) if p <= p0 else haagerup_b(p)


class TestSignMatrix:
    def test_level_one(self):
        npt.assert_array_equal(sign_matrix(1), [[1, -1]])

    def test_level_two(self):
        npt.assert_array_equal(sign_matrix(2), [[1, 1, -1, -1], [1, -1, 1, -1]])

    def test_row_orthogonality_is_integer_exact(self):
        for n in (1, 2, 3, 7, MAX_LEVEL):
            eps = sign_matrix(n)
            assert eps.dtype == np.int64
            assert np.array_equal(eps @ eps.T, (1 << n) * np.eye(n, dtype=np.int64))

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            sign_matrix(0)
        with pytest.raises(ValueError):
            sign_matrix(MAX_LEVEL + 1)


class TestBlock:
    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            build_block(2, 1.0)
        with pytest.raises(ValueError):
            build_block(2, 0.5)
        with pytest.raises(ValueError):
            build_block(2, 2.0)

    def test_conjugate_exponent(self):
        for p in P_VALUES:
            block = build_block(3, p)
            assert 1.0 / block.p + 1.0 / block.q == pytest.approx(1.0, abs=1e-15)

    def test_rows_are_unit_lp(self):
        for p in P_VALUES:
            for n in range(1, 9):
                block = build_block(n, p)
                for i in range(n):
                    assert abs(lp_norm(block.r[i], p) - 1.0) <= 1e-12

    def test_projection_level_one(self):
        block = build_block(1, 4.0)
        npt.assert_array_equal(project(block, np.eye(2)), [[0.5, -0.5], [-0.5, 0.5]])

    def test_projection_level_two(self):
        block = build_block(2, 4.0)
        expected = 0.5 * np.array(
            [
                [1.0, 0.0, 0.0, -1.0],
                [0.0, 1.0, -1.0, 0.0],
                [0.0, -1.0, 1.0, 0.0],
                [-1.0, 0.0, 0.0, 1.0],
            ]
        )
        npt.assert_array_equal(project(block, np.eye(4)), expected)

    def test_projection_idempotent_bitwise(self):
        # dyadic entries with small numerators: the product rounds nowhere
        for n in range(1, 11):
            p = project(build_block(n, 4.0), np.eye(1 << n))
            assert np.array_equal(p @ p, p)

    def test_projection_fixes_r_rows(self):
        for p in P_VALUES:
            for n in range(1, 9):
                block = build_block(n, p)
                for i in range(n):
                    assert abs(projection_ratio(block, block.r[i]) - 1.0) <= 1e-13

    def test_alphas_level_two_quartic(self):
        block = build_block(2, 4.0)
        npt.assert_allclose(block.alphas, np.sqrt(2.0), rtol=1e-15)

    def test_projection_ratio_rejects_zero(self):
        block = build_block(2, 4.0)
        with pytest.raises(ValueError):
            projection_ratio(block, np.zeros(4))


def dense_projection(eps):
    return (eps.T @ eps) / (1 << eps.shape[0])


class TestProjectionAgainstDense:
    def test_project_matches_dense_matrix(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            block = build_block(n, 4.0)
            dense = dense_projection(block.eps)
            x = rng.normal(size=(1 << n, 3))
            npt.assert_allclose(project(block, x), dense @ x, rtol=1e-12, atol=1e-14)
            npt.assert_allclose(project(block, x[:, 0]), dense @ x[:, 0], rtol=1e-12, atol=1e-14)

    def test_first_coordinate_vector_attains_every_column_ratio(self):
        for p in P_VALUES:
            for n in range(1, 9):
                block = build_block(n, p)
                dense = dense_projection(block.eps)
                worst = max(lp_norm(dense[:, k], p) for k in range(1 << n))
                e0 = np.zeros(1 << n)
                e0[0] = 1.0
                assert abs(projection_ratio(block, e0) - worst) <= 1e-14 * worst

    def test_level_eleven_stays_below_eight_mib(self):
        # one dense 2048 x 2048 float64 array alone is 32 MiB
        tracemalloc.start()
        try:
            block = build_block(11, 4.0)
            assert np.abs(project(block, block.r.T) - block.r.T).max() <= 1e-10
            khintchine_report(block)
            lower, upper, _ = projection_norm_bounds(block)
            assert 1.0 < lower <= upper
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestProjectionEvidence:
    def test_at_least_one_and_reproducible(self):
        block = build_block(3, 4.0)
        first = projection_norm_bounds(block)
        second = projection_norm_bounds(block)
        assert first[:2] == second[:2]
        assert np.array_equal(first[2], second[2])
        assert first[0] > 1.0

    def test_bounded_for_quartic(self):
        values = [projection_norm_bounds(build_block(n, 4.0)) for n in (2, 3, 4)]
        lowers = [lower for lower, _, _ in values]
        assert max(lowers) <= 2.0 * min(lowers)
        for lower, upper, _ in values:
            assert lower <= upper
            assert abs(upper - 3.0 ** 0.25) <= 1e-15


class TestProjectionNormBounds:
    def test_upper_is_haagerup_constant_of_the_larger_exponent(self):
        assert abs(projection_norm_bounds(build_block(3, 4.0))[1] - 3.0 ** 0.25) <= 1e-15
        for p in P_VALUES:
            block = build_block(3, p)
            upper = projection_norm_bounds(block)[1]
            assert abs(upper - haagerup_b(max(block.p, block.q))) <= 1e-15 * upper
            dual = projection_norm_bounds(build_block(3, block.q))[1]
            assert abs(upper - dual) <= 1e-15 * upper

    def test_lower_dominates_every_sign_vector_and_column(self):
        # started as chl5 starts it: from e_0 and the lifted previous maximizer
        for p in P_VALUES:
            start = None
            for n in range(1, 5):
                block = build_block(n, p)
                lower, upper, maximizer = projection_norm_bounds(block, start)
                start = np.repeat(maximizer, 2)
                dense = dense_projection(block.eps)
                signs = np.array(list(itertools.product((-1.0, 1.0), repeat=1 << n)))
                # ||s||_p = 2^(n/p) for every sign vector s, ||e_k||_p = 1
                images = np.sum(np.abs(signs @ dense) ** p, axis=1) ** (1 / p)
                columns = np.sum(np.abs(dense) ** p, axis=0) ** (1 / p)
                best = max(images.max() / 2.0 ** (n / p), columns.max())
                assert lower >= best * (1 - 1e-14), (p, n)
                assert lower <= upper

    def test_maximizer_ratio_is_the_lower_bound(self):
        for p in P_VALUES:
            start = None
            for n in range(1, 9):
                block = build_block(n, p)
                lower, _, maximizer = projection_norm_bounds(block, start)
                assert projection_ratio(block, maximizer) == lower
                start = np.repeat(maximizer, 2)

    def test_lifted_maximizer_keeps_the_lower_bound(self):
        for p in P_VALUES + (1.1, 10.0):
            start, previous = None, 0.0
            for n in range(1, 12):
                lower, upper, maximizer = projection_norm_bounds(build_block(n, p), start)
                assert lower >= previous * (1 - MONOTONE_RTOL), (p, n)
                assert lower <= upper
                if n >= 3:
                    assert lower > 1.0
                start, previous = np.repeat(maximizer, 2), lower

    def test_without_start_lower_can_trail_a_sign_vector(self):
        # e_0 alone reaches a local maximum: valid, but weaker than the best
        # sign vector, which the docstring states
        block = build_block(4, 6.0)
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=16)))
        best = max(projection_ratio(block, s) for s in signs)
        assert projection_norm_bounds(block)[0] == 1.1702959692436576
        assert best == pytest.approx(1.1913659566696366, abs=0, rel=1e-14)

    def test_start_in_the_kernel_is_ignored(self):
        block = build_block(2, 4.0)
        kernel = np.array([1.0, -1.0, -1.0, 1.0])
        assert np.array_equal(project(block, kernel), np.zeros(4))
        assert projection_norm_bounds(block, kernel)[:2] == projection_norm_bounds(block)[:2]


class TestKhintchine:
    def test_candidates_are_genuine_ratios(self):
        # each balanced ratio from binomial moments is the ratio of a = 1_k/sqrt(k)
        for p in P_VALUES + (1.2, 1.9, 3.0, 10.0):
            for n in range(1, 9):
                block = build_block(n, p)
                for k, ratio in enumerate(balanced_ratios(block), start=1):
                    a = np.where(np.arange(n) < k, 1.0 / math.sqrt(k), 0.0)
                    direct = lp_norm(a @ block.r, p) / np.linalg.norm(a)
                    assert ratio == pytest.approx(direct, abs=0, rel=1e-14), (p, n, k)

    def test_report_is_the_extreme_candidates(self):
        block = build_block(6, 3.0)
        report = khintchine_report(block)
        ratios = balanced_ratios(block)
        assert (report.lower, report.upper) == (ratios.min(), ratios.max())

    def test_quartic_upper_is_exact(self):
        # E(sum a_i eps_i)^4 = 3 - 2 sum a_i^4 on the unit sphere, largest at
        # equal coefficients
        for n in range(1, 11):
            report = khintchine_report(build_block(n, 4.0))
            assert report.upper == (3.0 - 2.0 / n) ** 0.25, n
            assert report.lower == 1.0, n

    def test_lower_is_haagerup_constant_below_p0(self):
        for p in (1.1, 1.2, 1.5, 1.8):
            assert khintchine_report(build_block(1, p)).lower == 1.0
            for n in range(2, 9):
                lower = khintchine_report(build_block(n, p)).lower
                assert lower == pytest.approx(haagerup_a(p), abs=0, rel=1e-15), (p, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_no_grid_vector_beats_the_exact_sides(self, n):
        # every sign pattern is a column of eps, so a @ eps covers them all;
        # the grid holds every nonzero a with entries in {-1, -3/4, ..., 1}
        grid = np.array(list(itertools.product(np.linspace(-1.0, 1.0, 9), repeat=n)))
        grid = grid[np.abs(grid).max(axis=1) > 0]
        norms = np.linalg.norm(grid, axis=1)
        for p, side in ((4.0, "upper"), (1.2, "lower"), (1.5, "lower")):
            block = build_block(n, p)
            report = khintchine_report(block)
            ratios = lp_norm(grid @ block.r, p) / norms
            if side == "upper":
                assert ratios.max() <= report.upper * (1 + 1e-14), (p, n)
            else:
                assert ratios.min() >= report.lower * (1 - 1e-14), (p, n)

    def test_balanced_quartic_ratio(self):
        block = build_block(2, 4.0)
        a = np.array([1.0, 1.0]) / np.sqrt(2.0)
        ratio = lp_norm(a @ block.r, 4.0) / np.linalg.norm(a)
        assert abs(ratio - 2.0 ** 0.25) <= 1e-12

    def test_envelope_lies_inside_haagerup_constants(self):
        # the sampled ratios are genuine, so they obey Khintchine's inequality
        # A_p ||a||_2 <= ||sum a_i r_i||_p <= B_p ||a||_2; the side that is
        # trivially 1 is attained at a = e_i, where ||r_i||_p = 1
        for p in P_VALUES + (1.9, 3.0):
            for n in range(1, 9):
                report = khintchine_report(build_block(n, p))
                if p > 2.0:
                    assert abs(report.lower - 1.0) <= 1e-12, (p, n)
                    assert report.upper <= haagerup_b(p) * (1 + 1e-12), (p, n)
                else:
                    assert abs(report.upper - 1.0) <= 1e-12, (p, n)
                    assert report.lower >= haagerup_a(p) * (1 - 1e-12), (p, n)

    def test_envelope_brackets_exact_ratio(self):
        # the balanced vector is one of the candidates
        block = build_block(2, 4.0)
        report = khintchine_report(block)
        assert report.lower <= 2.0 ** 0.25 <= report.upper * (1 + 1e-3)


class TestAssembledFraming:
    def test_two_pairs_on_a_line(self):
        f = assemble_framing(4.0, 1)
        assert f.count == 2
        assert f.dim == 1
        assert check_reconstruction(f) <= 1e-12

    def test_level_three_quartic(self):
        f = assemble_framing(4.0, 3)
        assert f.count == 14
        assert f.dim == 6
        assert check_reconstruction(f) <= 1e-10
        g = apply_rescale(f, rescale_sqrt(f))
        for fam in g.frames():
            bounds = frame_bounds(fam)
            assert abs(bounds.lower - 1.0) <= 1e-10
            assert abs(bounds.upper - 1.0) <= 1e-10

    def test_rescale_recovers_block_alphas(self):
        f = assemble_framing(4.0, 3)
        plan = rescale_sqrt(f)
        expected = np.repeat(
            [build_block(n, 4.0).alphas[0] for n in (1, 2, 3)], [2, 4, 8]
        )
        npt.assert_allclose(plan.alphas, expected, rtol=1e-12)

    def test_levels_have_disjoint_support(self):
        f = assemble_framing(1.5, 3)
        supports = [set(np.flatnonzero(f.x[i]).tolist()) for i in range(f.count)]
        assert all(s <= {0} for s in supports[:2])
        assert all(s <= {1, 2} for s in supports[2:6])
        assert all(s <= {3, 4, 5} for s in supports[6:])

    def test_bitwise_equal_to_pair_by_pair_assembly(self):
        for p in (4.0, 1.5):
            for n_max in range(1, 12):
                dim = n_max * (n_max + 1) // 2
                xs, ys = [], []
                offset = 0
                for n in range(1, n_max + 1):
                    block = build_block(n, p)
                    cols = block.eps.T.astype(np.float64)
                    for i in range(1 << n):
                        x = np.zeros(dim)
                        y = np.zeros(dim)
                        x[offset : offset + n] = (2.0 ** (-n / block.q)) * cols[i]
                        y[offset : offset + n] = (2.0 ** (-n / block.p)) * cols[i]
                        xs.append(x)
                        ys.append(y)
                    offset += n
                f = assemble_framing(p, n_max)
                assert np.array_equal(f.x, np.array(xs))
                assert np.array_equal(f.y, np.array(ys))

    def test_level_eleven_residual_matches_compensated_sum(self):
        f = assemble_framing(4.0, 11)
        assert f.count == 4094
        # each entry of sum_i x_i y_i^T, its 4094 products summed by math.fsum
        exact = np.array(
            [
                [math.fsum((f.x[:, j] * f.y[:, k]).tolist()) for k in range(f.dim)]
                for j in range(f.dim)
            ]
        )
        reference = spectral_norm(exact - np.eye(f.dim))
        assert abs(check_reconstruction(f) - reference) <= 4094 * np.finfo(float).eps

    def test_level_eleven_residual_stays_below_one_mib(self):
        # an (N, d, d) stack of the 4094 rank-one terms on R^66 would be 143 MB
        f = assemble_framing(4.0, 11)
        tracemalloc.start()
        try:
            assert check_reconstruction(f) <= 1e-9
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_level_bounds(self):
        with pytest.raises(ValueError):
            assemble_framing(4.0, 0)
        with pytest.raises(ValueError):
            assemble_framing(4.0, 12)


def largest_admitted_exponent(n_max):
    """The largest p the guard admits at n_max, by bisection on floats."""
    lo, hi = 3.0, 400.0
    while math.nextafter(lo, hi) < hi:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if bounds_stay_finite(mid, n_max) else (lo, mid)
    return lo


class TestFloatRange:
    @pytest.mark.parametrize("n_max", range(1, 12))
    def test_admitted_edge_gives_finite_bounds(self, n_max):
        r = largest_admitted_exponent(n_max)
        # the largest exponent and the smallest conjugate one, q = r
        for p in (r, r / (r - 1.0)):
            assert bounds_stay_finite(p, n_max), p
            for n in range(1, n_max + 1):
                block = build_block(n, p)
                lower, upper, _ = projection_norm_bounds(block)
                ratios = balanced_ratios(block)
                assert all(map(math.isfinite, [lower, upper, *ratios])), (p, n)

    def test_rejects_where_todays_arithmetic_overflows(self):
        # math.gamma((r + 1)/2) overflows from r = 342.25 on
        with pytest.raises(OverflowError):
            projection_norm_bounds(build_block(1, 343.0))
        assert not bounds_stay_finite(343.0, 1)
        assert not bounds_stay_finite(1.0029, 1)
        # 11^296 is finite, but the j = 0 and j = 11 terms sum past the range
        assert not np.isfinite(balanced_ratios(build_block(11, 296.0))).all()
        assert not bounds_stay_finite(296.0, 11)
        assert bounds_stay_finite(296.0, 10)

    @pytest.mark.parametrize("p", [1.0 + 2.0**-52, 1e6, 1e308])
    def test_extreme_exponents_are_rejected_without_raising(self, p):
        assert not bounds_stay_finite(p, 11)
        assert not bounds_stay_finite(p, 1)

    def test_quartic_is_far_inside(self):
        assert bounds_stay_finite(4.0, 11)
        assert largest_admitted_exponent(11) > 292.0
