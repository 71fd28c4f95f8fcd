import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilationkit import (
    Frame,
    IndefiniteInput,
    NotAFrame,
    canonical_dual,
    eig_hermitian,
    lp_norm,
    outer_pair,
    polar_decompose,
    psd_factor,
    spectral_norm,
)
from dilationkit.linalg import numerical_rank

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm([3.0, 4.0], 2) == 5.0

    def test_quartic_of_ones(self):
        # (1 + 1 + 1 + 1) ** (1/4) = sqrt(2)
        assert lp_norm([1.0, 1.0, 1.0, 1.0], 4) == pytest.approx(4 ** 0.25, abs=0, rel=1e-15)

    def test_infinity_is_max(self):
        assert lp_norm([1.0, -7.0, 3.0], math.inf) == 7.0

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm([1.0, 2.0], 0.5)

    def test_integer_rows(self):
        assert lp_norm([3, 4], 2) == 5.0
        assert lp_norm(np.array([[3, 4], [0, 0]]), 2).tolist() == [5.0, 0.0]

    def test_zero_vector(self):
        assert lp_norm(np.zeros(5), 3) == 0.0

    def test_complex_entries(self):
        assert lp_norm([3 + 4j], 1) == pytest.approx(5.0)

    def test_no_overflow_at_large_p(self):
        v = np.array([1e200, 1e200])
        assert np.isfinite(lp_norm(v, 10))

    @given(
        st.lists(finite_floats, min_size=1, max_size=8),
        st.floats(min_value=1.0, max_value=64.0),
        st.floats(min_value=1.0, max_value=64.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_p(self, entries, p, q):
        # p >= q implies lp <= lq, up to roundoff
        v = np.array(entries)
        lo, hi = sorted((p, q))
        assert lp_norm(v, hi) <= lp_norm(v, lo) * (1 + 1e-12) + 1e-300

    @given(
        st.lists(st.lists(finite_floats, min_size=3, max_size=3), min_size=1, max_size=6),
        st.one_of(st.floats(min_value=1.0, max_value=64.0), st.just(math.inf)),
    )
    @settings(max_examples=200, deadline=None)
    def test_rows_match_single_vectors(self, rows, p):
        stack = np.array(rows + [[0.0, 0.0, 0.0]])
        norms = lp_norm(stack, p)
        assert norms.shape == (len(stack),)
        assert norms.tolist() == [lp_norm(row, p) for row in stack]


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([1.0, -2.0])) == 2.0

    def test_matches_gram_eigenvalue_route(self, rng):
        for _ in range(20):
            a = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
            oracle = math.sqrt(max(np.linalg.eigvalsh(a.conj().T @ a).max(), 0.0))
            assert spectral_norm(a) == pytest.approx(oracle, rel=1e-10)

    @given(st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_submultiplicative(self, n, seed):
        gen = np.random.default_rng(seed)
        a = gen.normal(size=(n, n))
        b = gen.normal(size=(n, n))
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) * (1 + 1e-10)

    def test_rejects_vector_input(self):
        with pytest.raises(ValueError):
            spectral_norm(np.ones(3))


class TestEigHermitian:
    def test_two_by_two(self):
        eig = eig_hermitian([[2.0, 1.0], [1.0, 2.0]])
        npt.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-14)

    def test_descending_and_orthonormal(self, rng):
        for _ in range(20):
            a = random_hermitian(rng, 5)
            eig = eig_hermitian(a)
            assert np.all(np.diff(eig.eigenvalues) <= 0)
            gram = eig.eigenvectors.conj().T @ eig.eigenvectors
            assert np.abs(gram - np.eye(5)).max() <= 1e-12

    def test_residual(self, rng):
        for _ in range(20):
            a = random_hermitian(rng, 6)
            eig = eig_hermitian(a)
            resid = a @ eig.eigenvectors - eig.eigenvectors * eig.eigenvalues[None, :]
            assert spectral_norm(resid) <= 1e-10 * max(spectral_norm(a), 1e-30)

    def test_symmetrizes_input(self):
        eig = eig_hermitian([[1.0, 1.0], [0.0, 1.0]])
        npt.assert_allclose(eig.eigenvalues, [1.5, 0.5], atol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.ones((2, 3)))

    def test_phase_convention(self, rng):
        a = random_hermitian(rng, 4, complex_field=True)
        eig = eig_hermitian(a)
        for j in range(4):
            col = eig.eigenvectors[:, j]
            pivot = col[int(np.argmax(np.abs(col)))]
            assert abs(pivot.imag) <= 1e-14
            assert pivot.real > 0


class TestPolarDecompose:
    def test_rotation_is_its_own_unitary_part(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        u, p = polar_decompose(rot)
        npt.assert_allclose(u, rot, atol=1e-14)
        npt.assert_allclose(p, np.eye(2), atol=1e-14)

    def test_negative_identity(self):
        u, p = polar_decompose(-np.eye(2))
        npt.assert_allclose(u, -np.eye(2), atol=1e-14)
        npt.assert_allclose(p, np.eye(2), atol=1e-14)

    def test_roundtrip_random(self, rng):
        for k in range(100):
            n = 2 + k % 5
            a = rng.normal(size=(n, n))
            if k % 3 == 0:
                a = a + 1j * rng.normal(size=(n, n))
            u, p = polar_decompose(a)
            scale = max(spectral_norm(a), 1e-30)
            assert spectral_norm(u @ p - a) <= 1e-10 * scale
            assert np.linalg.eigvalsh((p + p.conj().T) / 2).min() >= -1e-10 * scale
            # u acts isometrically on the range of p
            v, rank = psd_factor(p, 1e-10)
            basis = v.conj().T[:, :rank] if rank else np.zeros((n, 0))
            image = u @ basis
            norms_in = np.linalg.norm(basis, axis=0)
            norms_out = np.linalg.norm(image, axis=0)
            npt.assert_allclose(norms_out, norms_in, rtol=1e-10)

    def test_singular_matrix(self):
        a = np.diag([3.0, 0.0])
        u, p = polar_decompose(a)
        npt.assert_allclose(p, a, atol=1e-14)
        npt.assert_allclose(u @ p, a, atol=1e-14)


class TestPsdFactor:
    def test_rank_and_roundtrip(self):
        a = np.diag([2.0, 1.0, 0.0])
        v, rank = psd_factor(a)
        assert rank == 2
        assert v.shape == (2, 3)
        npt.assert_allclose(v.conj().T @ v, a, atol=1e-14)

    def test_rejects_indefinite(self):
        with pytest.raises(IndefiniteInput):
            psd_factor(np.diag([1.0, -1.0]))

    def test_tolerates_tiny_negative(self):
        a = np.diag([1.0, -1e-14])
        v, rank = psd_factor(a)
        assert rank == 1

    def test_zero_matrix(self):
        v, rank = psd_factor(np.zeros((3, 3)))
        assert rank == 0
        assert v.shape == (0, 3)

    def test_roundtrip_random(self, rng):
        for k in range(100):
            n = 2 + k % 6
            r = min(n, 1 + k % 4)
            b = rng.normal(size=(n, r))
            if k % 2:
                b = b + 1j * rng.normal(size=(n, r))
            a = b @ b.conj().T
            v, rank = psd_factor(a)
            assert rank == r
            assert v.shape[0] == rank
            assert spectral_norm(v.conj().T @ v - a) <= 1e-10 * spectral_norm(a)


@pytest.mark.parametrize(
    "spectrum, rank",
    [
        ([0.0, 0.0], 0),
        ([1.0, -1e-17], 1),  # rounding-negative: accepted and not counted
        ([1.0, -0.25], 1),  # exactly at the negative cutoff: accepted
        ([1.0, 0.25], 1),  # exactly at the cutoff: not counted
        ([1.0, 0.5], 2),
    ],
)
def test_edge_spectra_share_one_rank_rule(spectrum, rank):
    # psd_factor and canonical_dual both decide through numerical_rank
    rel_tol = 0.25
    v, got = psd_factor(np.diag(spectrum), rel_tol)
    assert got == rank == numerical_rank(np.sort(spectrum)[::-1], rel_tol)
    assert v.shape == (rank, 2)
    if min(spectrum) >= 0.0:
        # the frame operator of these two vectors is diag(spectrum)
        frame = Frame(np.diag(np.sqrt(spectrum)))
        if rank < 2:
            with pytest.raises(NotAFrame):
                canonical_dual(frame, rel_tol)
        else:
            canonical_dual(frame, rel_tol)


class TestOuterPair:
    def test_matrix_form(self):
        m = outer_pair([1.0, 2.0], [3.0, 5.0])
        npt.assert_array_equal(m, [[3.0, 5.0], [6.0, 10.0]])

    def test_conjugates_second_argument(self):
        m = outer_pair(np.array([1.0 + 0j]), np.array([1j]))
        assert m[0, 0] == -1j

    @pytest.mark.parametrize("complex_field", [False, True])
    def test_row_stacks_match_np_outer_bitwise(self, rng, complex_field):
        x, y = rng.normal(size=(2, 7, 4))
        if complex_field:
            x = x + 1j * rng.normal(size=(7, 4))
            y = y - 1j * rng.normal(size=(7, 4))
        stack = outer_pair(x, y)
        assert stack.shape == (7, 4, 4)
        for i in range(7):
            assert np.array_equal(stack[i], np.outer(x[i], np.conj(y[i])))


def random_hermitian(rng, n, complex_field=False):
    a = rng.normal(size=(n, n))
    if complex_field:
        a = a + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2
