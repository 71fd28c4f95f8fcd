import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from dilationkit import (
    Frame,
    NotAFrame,
    NotDualPair,
    NotParseval,
    OverlappingSupports,
    analysis_operator,
    assemble_block_decomposition,
    canonical_dual,
    dilate_dual_pair_to_riesz,
    dilate_parseval_to_onb,
    frame_bounds,
    frame_operator,
    rank_one_decompose,
    spectral_norm,
)

MERCEDES = np.array(
    [[1.0, 0.0], [-0.5, np.sqrt(3.0) / 2.0], [-0.5, -np.sqrt(3.0) / 2.0]]
)


def parseval_frame(rng, count, dim, complex_field=False):
    x = rng.normal(size=(count, dim))
    if complex_field:
        x = x + 1j * rng.normal(size=(count, dim))
    s = x.T @ x.conj()
    vals, vecs = np.linalg.eigh(s)
    inv_root = vecs @ ((1.0 / np.sqrt(vals))[:, None] * vecs.conj().T)
    return Frame((inv_root @ x.T).T)


def dual_pair(rng, count, dim, complex_field=False, canonical=True):
    """x and its canonical dual S^{-1} x, or that dual plus rows w_n with
    sum_n x_n w_n* = 0, which is again a dual of x."""
    x = rng.normal(size=(count, dim))
    if complex_field:
        x = x + 1j * rng.normal(size=(count, dim))
    s = x.T @ x.conj()
    y = np.linalg.solve(s, x.T).T
    if not canonical:
        # w's columns are orthogonal to x's in C^count, so x^T conj(w) = 0
        z = rng.normal(size=(count, dim))
        if complex_field:
            z = z + 1j * rng.normal(size=(count, dim))
        q, _ = np.linalg.qr(x)
        y = y + z - q @ (q.conj().T @ z)
    return Frame(x), Frame(y)


# (complex_field, canonical): real and complex pairs, each with the canonical
# dual and with a non-canonical one
DUAL_PAIR_KINDS = [(c, k) for c in (False, True) for k in (True, False)]


class TestFrameBasics:
    def test_mercedes_bounds(self):
        bounds = frame_bounds(Frame(MERCEDES))
        assert abs(bounds.lower - 1.5) <= 1e-12
        assert abs(bounds.upper - 1.5) <= 1e-12
        assert bounds.is_tight()
        assert not bounds.is_parseval()

    def test_mercedes_frame_operator(self):
        npt.assert_allclose(frame_operator(Frame(MERCEDES)), 1.5 * np.eye(2), atol=1e-14)

    def test_analysis_operator_rows(self):
        f = Frame(np.array([[1j, 0.0], [0.0, 2.0]]))
        theta = analysis_operator(f)
        npt.assert_array_equal(theta, f.vectors.conj())

    def test_analysis_synthesis_consistency(self, rng):
        f = Frame(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
        theta = analysis_operator(f)
        npt.assert_allclose(theta.conj().T @ theta, frame_operator(f), atol=1e-12)

    def test_deficient_family_has_zero_lower_bound(self):
        bounds = frame_bounds(Frame([[1.0, 0.0], [2.0, 0.0]]))
        assert bounds.lower <= 1e-14
        assert bounds.upper > 0

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            Frame(np.ones(3))
        with pytest.raises(ValueError):
            Frame(np.ones((0, 2)))
        with pytest.raises(ValueError):
            Frame([[np.inf, 0.0]])

    def test_one_private_copy(self):
        x = np.random.default_rng(2).normal(size=(2000, 50))
        tracemalloc.start()
        try:
            frame = Frame(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the copy plus the finiteness mask; a second copy would reach 2x
        assert peak < 1.5 * x.nbytes
        assert not frame.vectors.flags.writeable
        kept = x.copy()
        x[0, 0] = 7.0
        assert np.array_equal(frame.vectors, kept)

    def test_int_vectors_become_float64(self):
        frame = Frame(np.arange(6).reshape(3, 2))
        assert frame.vectors.dtype == np.float64
        assert np.array_equal(frame.vectors, [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]])


class TestCanonicalDual:
    def test_mercedes_dual_is_two_thirds(self):
        dual = canonical_dual(Frame(MERCEDES))
        npt.assert_allclose(dual.vectors, (2.0 / 3.0) * MERCEDES, atol=1e-14)

    def test_dual_twice_restores(self, rng):
        for complex_field in (False, True):
            x = rng.normal(size=(6, 3))
            if complex_field:
                x = x + 1j * rng.normal(size=(6, 3))
            f = Frame(x)
            twice = canonical_dual(canonical_dual(f))
            assert np.abs(twice.vectors - f.vectors).max() <= 1e-9

    def test_dual_reconstructs_identity(self, rng):
        f = Frame(rng.normal(size=(7, 4)))
        dual = canonical_dual(f)
        recon = sum(
            np.outer(dual.vectors[i], f.vectors[i].conj()) for i in range(7)
        )
        npt.assert_allclose(recon, np.eye(4), atol=1e-12)

    def test_not_a_frame(self):
        with pytest.raises(NotAFrame):
            canonical_dual(Frame([[1.0, 0.0], [-1.0, 0.0]]))


class TestOnbDilation:
    def test_requires_parseval(self):
        with pytest.raises(NotParseval):
            dilate_parseval_to_onb(Frame(MERCEDES))

    def test_scaled_mercedes_passes(self):
        f = Frame(np.sqrt(2.0 / 3.0) * MERCEDES)
        dilation = dilate_parseval_to_onb(f)
        assert dilation.parseval_residual <= 1e-8

    def test_embedding_isometry_and_projection(self, rng):
        for complex_field in (False, True):
            f = parseval_frame(rng, 6, 3, complex_field)
            d = dilate_parseval_to_onb(f)
            gram = d.embedding.conj().T @ d.embedding
            assert spectral_norm(gram - np.eye(3)) <= 1e-10
            p = d.projection
            assert spectral_norm(p @ p - p) <= 1e-10
            assert spectral_norm(p - p.conj().T) <= 1e-10
            npt.assert_allclose(d.embedding @ d.embedding.conj().T, p, atol=1e-12)

    def test_large_frame_stores_no_n_by_n_array(self):
        # a Parseval frame of 3000 vectors in R^2; one 3000 x 3000 float64
        # array would be 72 MB
        count = 3000
        angles = 2.0 * np.pi * np.arange(count) / count
        f = Frame(np.sqrt(2.0 / count) * np.column_stack([np.cos(angles), np.sin(angles)]))
        tracemalloc.start()
        try:
            d = dilate_parseval_to_onb(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert d.embedding.shape == (count, 2)

    def test_onb_is_standard_basis(self, rng):
        f = parseval_frame(rng, 5, 2)
        d = dilate_parseval_to_onb(f)
        npt.assert_array_equal(d.onb.vectors, np.eye(5))

    def test_compression_reproduces_frame(self, rng):
        for complex_field in (False, True):
            f = parseval_frame(rng, 7, 4, complex_field)
            d = dilate_parseval_to_onb(f)
            # embedding* e_n recovers x_n, one basis vector at a time
            recovered = d.embedding.conj().T
            npt.assert_allclose(recovered, f.vectors.T, atol=1e-9)


class TestRieszDilation:
    def test_requires_dual_pair(self, rng):
        f = Frame(rng.normal(size=(4, 2)))
        with pytest.raises(NotDualPair):
            dilate_dual_pair_to_riesz(f, f)

    def test_biorthogonality(self, rng):
        for kind in DUAL_PAIR_KINDS:
            x, y = dual_pair(rng, 6, 3, *kind)
            d = dilate_dual_pair_to_riesz(x, y)
            gram = d.riesz_dual.vectors.conj() @ d.riesz.vectors.T
            assert np.abs(gram - np.eye(6)).max() <= 1e-9

    def test_compressions_recover_pair(self, rng):
        for kind in DUAL_PAIR_KINDS:
            x, y = dual_pair(rng, 6, 3, *kind)
            d = dilate_dual_pair_to_riesz(x, y)
            got_x = d.embedding.conj().T @ d.riesz.vectors.T
            got_y = d.embedding.conj().T @ d.riesz_dual.vectors.T
            assert np.abs(got_x - x.vectors.T).max() <= 1e-9
            assert np.abs(got_y - y.vectors.T).max() <= 1e-9

    def test_projection_is_orthogonal(self, rng):
        for kind in DUAL_PAIR_KINDS:
            x, y = dual_pair(rng, 5, 2, *kind)
            d = dilate_dual_pair_to_riesz(x, y)
            p = d.projection
            assert spectral_norm(p @ p - p) <= 1e-9
            assert spectral_norm(p - p.conj().T) <= 1e-9
            assert spectral_norm(d.embedding.conj().T @ d.embedding - np.eye(2)) <= 1e-9

    def test_gram_matrix_solves_y_g_equals_x(self, rng):
        for kind in DUAL_PAIR_KINDS:
            x, y = dual_pair(rng, 7, 3, *kind)
            canonical = np.linalg.solve(frame_operator(x), x.vectors.T).T
            assert (np.abs(y.vectors - canonical).max() > 0.1) == (not kind[1])
            d = dilate_dual_pair_to_riesz(x, y)
            # riesz_n is column n of G^{1/2}, so G = G^{1/2} G^{1/2}
            half = d.riesz.vectors.T
            gram = half @ half
            assert np.abs(y.vectors.T @ gram - x.vectors.T).max() <= 1e-9
            assert np.linalg.eigvalsh((gram + gram.conj().T) / 2).min() > 0.0

    def test_zero_y_does_not_span(self, rng):
        # ||0 - I|| = 1 passes tol = 2, so only the span check can reject it
        x = Frame(rng.normal(size=(4, 2)))
        with pytest.raises(NotDualPair, match="y family does not span"):
            dilate_dual_pair_to_riesz(x, Frame(np.zeros((4, 2))), tol=2.0)

    def test_parseval_self_pair_degenerates_to_onb(self, rng):
        f = parseval_frame(rng, 5, 2)
        d = dilate_dual_pair_to_riesz(f, f)
        # Gram completion is the identity, so the Riesz basis is orthonormal
        npt.assert_allclose(d.riesz.vectors, np.eye(5), atol=1e-9)
        npt.assert_allclose(d.riesz_dual.vectors, np.eye(5), atol=1e-9)
        assert d.gram_condition == pytest.approx(1.0, abs=1e-9)

    def test_mismatched_counts_rejected(self, rng):
        x, y = dual_pair(rng, 5, 2)
        with pytest.raises(ValueError):
            dilate_dual_pair_to_riesz(x, Frame(y.vectors[:4]))


def all_partial_sums_bounded(dec, bound):
    k = dec.term_count
    assert k <= 12
    for mask in range(1 << k):
        assert spectral_norm(dec.partial_sum(mask)) <= bound + 1e-10


class TestRankOneDecompose:
    def test_diagonal(self):
        dec = rank_one_decompose(np.diag([2.0, 1.0]))
        assert dec.term_count == 2
        assert dec.source_norm == pytest.approx(2.0)
        total = dec.partial_sum(0b11)
        npt.assert_allclose(total, np.diag([2.0, 1.0]), atol=1e-12)
        all_partial_sums_bounded(dec, 2.0)

    def test_rank_one_input_single_term(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0])
        dec = rank_one_decompose(a)
        assert dec.term_count == 1
        npt.assert_allclose(dec.term(0), a, atol=1e-12)

    def test_random_rank_three(self, rng):
        b = rng.normal(size=(5, 3))
        c = rng.normal(size=(3, 5))
        a = b @ c
        dec = rank_one_decompose(a)
        assert dec.term_count == 3
        npt.assert_allclose(dec.partial_sum(0b111), a, atol=1e-10)
        all_partial_sums_bounded(dec, spectral_norm(a))

    def test_exhaustive_subset_bound(self, rng):
        for k in range(20):
            n = 3 + k % 5
            r = 1 + k % 4
            b = rng.normal(size=(n, r))
            c = rng.normal(size=(r, n))
            a = b @ c
            if k % 2:
                a = a + 1j * (rng.normal(size=(n, r)) @ rng.normal(size=(r, n)))
            dec = rank_one_decompose(a)
            all_partial_sums_bounded(dec, spectral_norm(a))

    def test_zero_matrix(self):
        dec = rank_one_decompose(np.zeros((3, 3)))
        assert dec.term_count == 0
        assert dec.source_norm == 0.0


class TestBlockDecomposition:
    def test_single_entry_blocks(self):
        blocks = [np.diag([2.0, 0.0]), np.diag([0.0, -3.0])]
        dec = assemble_block_decomposition(blocks)
        npt.assert_allclose(dec.partial_sum((1 << dec.term_count) - 1), np.diag([2.0, -3.0]), atol=1e-12)
        all_partial_sums_bounded(dec, 3.0)

    def test_two_plus_one_blocks(self):
        a = np.zeros((3, 3))
        a[:2, :2] = np.diag([2.0, 1.0])
        b = np.zeros((3, 3))
        b[2, 2] = 3.0
        dec = assemble_block_decomposition([a, b])
        assert dec.source_norm == pytest.approx(3.0)
        all_partial_sums_bounded(dec, 3.0)

    def test_random_disjoint_blocks(self, rng):
        a = np.zeros((5, 5))
        a[:2, :2] = rng.normal(size=(2, 2))
        b = np.zeros((5, 5))
        b[2:, 2:] = rng.normal(size=(3, 3))
        dec = assemble_block_decomposition([a, b])
        bound = max(spectral_norm(a), spectral_norm(b))
        assert dec.source_norm == pytest.approx(bound, rel=1e-12)
        npt.assert_allclose(dec.partial_sum((1 << dec.term_count) - 1), a + b, atol=1e-10)
        all_partial_sums_bounded(dec, bound)

    def test_overlap_detected(self):
        a = np.diag([1.0, 0.0])
        b = np.diag([1.0, 1.0])
        with pytest.raises(OverlappingSupports):
            assemble_block_decomposition([a, b])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            assemble_block_decomposition([np.eye(2), np.eye(3)])

    def test_all_zero_blocks(self):
        dec = assemble_block_decomposition([np.zeros((2, 2)), np.zeros((2, 2))])
        assert dec.term_count == 0
        assert dec.source_norm == 0.0
