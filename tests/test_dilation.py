import itertools

import numpy as np
import numpy.testing as npt
import pytest

from dilationkit import _subsets, alpha, dilation
from dilationkit import (
    AlphaNorm,
    DilationTriple,
    ExactModeTooLarge,
    NotPositive,
    Ovm,
    Representation,
    alpha_norm,
    alpha_norm_bounds,
    build_block_dilation,
    example_e11,
    induced_from_framing,
    minimality_gap,
    naimark_dilate,
    omega_upper_bound,
    spectral_norm,
    verify_dilation,
)
from dilationkit.alpha import _atom_images

from conftest import (
    full_rank_povm,
    random_general_ovm,
    random_positive_probability_ovm,
    random_representation,
)


def signed_line_pair():
    # two atoms on the line, one positive and one negative
    return Ovm(np.array([[[1.0]], [[-1.0]]]))


def rep_norm_at(ovm, rep, mask):
    acc = np.zeros(ovm.dim_out, dtype=complex)
    for i in range(rep.term_count):
        acc = acc + rep.coeffs[i] * (ovm.evaluate(mask & rep.masks[i]) @ rep.vectors[i])
    return float(np.linalg.norm(acc))


class TestRepresentation:
    def test_from_terms(self):
        rep = Representation.from_terms([(2.0, 0b01, [1.0, 0.0]), (1j, 0b10, [0.0, 1.0])])
        assert rep.term_count == 2
        assert rep.masks == (1, 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Representation(np.array([1.0]), (1, 2), np.eye(2))

    def test_negative_mask(self):
        with pytest.raises(ValueError):
            Representation(np.array([1.0]), (-1,), np.array([[1.0]]))

    def test_scaled(self):
        rep = Representation.from_terms([(2.0, 1, [1.0])])
        npt.assert_array_equal(rep.scaled(3.0).coeffs, [6.0])
        assert rep.scaled(3.0).masks == rep.masks


class TestAlphaNorm:
    def test_cancelling_atoms(self):
        rep = Representation.from_terms([(1.0, 0b11, [1.0])])
        result = alpha_norm(signed_line_pair(), rep)
        assert result.value == 1.0
        assert result.witness == 1

    def test_exact_tie_takes_the_smallest_mask(self):
        # {1} and {0, 2} both reach 2: alpha, max_subset_norm and the engine
        # all name the smallest maximizing mask
        v = Ovm(np.array([[[1.0]], [[-2.0]], [[1.0]]]))
        rep = Representation.from_terms([(1.0, 0b111, [1.0])])
        assert alpha_norm(v, rep) == AlphaNorm(value=2.0, witness=0b010)
        assert _subsets.max_subset_norm(v.atoms[:, 0]) == (2.0, 0b010)
        norm = _subsets.Statistic("norm", _subsets.batched_spectral_norms, 4.0)
        sup = _subsets.subset_sup(v.atoms, [norm])["norm"]
        assert (sup.lower, sup.witness_mask) == (2.0, 0b010)

    @pytest.mark.parametrize("term_count", [1, 7, 50])
    def test_atom_images_match_the_term_loop(self, rng, term_count):
        for dim_out, dim_in in ((3, 3), (2, 4)):
            v = random_general_ovm(rng, 9, dim_out, dim_in, complex_field=True)
            rep = random_representation(rng, v, term_count, complex_field=True)
            want = np.zeros((v.atom_count, dim_out), dtype=complex)
            for j in range(v.atom_count):
                combined = np.zeros(dim_in, dtype=complex)
                for i in range(rep.term_count):
                    if rep.masks[i] >> j & 1:
                        combined += rep.coeffs[i] * rep.vectors[i]
                want[j] = v.atoms[j] @ combined
            images = _atom_images(v, rep)
            assert np.linalg.norm(images - want) <= 1e-12 * np.linalg.norm(want)

    def test_witness_skips_zero_images(self, monkeypatch):
        # the zero image is dropped before the ceiling is compared, so one
        # nonzero atom fits a ceiling of 1
        v = Ovm(np.array([[[0.0]], [[1.0]]]))
        rep = Representation.from_terms([(1.0, 0b11, [1.0])])
        monkeypatch.setattr(alpha, "_EXACT_TERM_LIMIT", 1)
        result = alpha_norm(v, rep)
        assert result.value == 1.0
        assert result.witness == 0b10

    def test_witness_attains_value(self, rng):
        v = random_general_ovm(rng, 6, 3, 2, complex_field=True)
        rep = random_representation(rng, v, 3, complex_field=True)
        result = alpha_norm(v, rep)
        assert rep_norm_at(v, rep, result.witness) == pytest.approx(result.value, rel=1e-12)

    def test_exhaustive_maximum(self, rng):
        v = random_general_ovm(rng, 5, 3, 3)
        rep = random_representation(rng, v, 2)
        result = alpha_norm(v, rep)
        brute = max(rep_norm_at(v, rep, mask) for mask in range(1 << 5))
        assert result.value == pytest.approx(brute, rel=1e-12)

    def test_homogeneity(self, rng):
        v = random_general_ovm(rng, 5, 3, 3, complex_field=True)
        rep = random_representation(rng, v, 3, complex_field=True)
        base = alpha_norm(v, rep).value
        scaled = alpha_norm(v, rep.scaled(2.0 - 1.5j)).value
        assert scaled == pytest.approx(abs(2.0 - 1.5j) * base, rel=1e-12)

    def test_triangle(self, rng):
        v = random_general_ovm(rng, 5, 3, 3)
        rep1 = random_representation(rng, v, 2)
        rep2 = random_representation(rng, v, 3)
        combined = Representation(
            np.concatenate([rep1.coeffs, rep2.coeffs]),
            rep1.masks + rep2.masks,
            np.vstack([rep1.vectors, rep2.vectors]),
        )
        a1 = alpha_norm(v, rep1).value
        a2 = alpha_norm(v, rep2).value
        assert alpha_norm(v, combined).value <= a1 + a2 + 1e-12

    def test_exact_ceiling(self, rng):
        # 25 atoms with nonzero images exceed the ceiling of 24; the check
        # comes before any enumeration
        v = random_general_ovm(rng, 25, 2, 2)
        rep = Representation.from_terms([(1.0, (1 << 25) - 1, [1.0, 1.0])])
        with pytest.raises(ExactModeTooLarge, match="25 nonzero atoms exceed .* 24"):
            alpha_norm(v, rep)
        with pytest.raises(ExactModeTooLarge):
            omega_upper_bound(v, rep)

    def test_vector_dimension_checked(self):
        rep = Representation.from_terms([(1.0, 1, [1.0, 0.0])])
        with pytest.raises(ValueError):
            alpha_norm(signed_line_pair(), rep)

    def test_mask_range_checked(self):
        rep = Representation.from_terms([(1.0, 0b100, [1.0])])
        with pytest.raises(ValueError):
            alpha_norm(signed_line_pair(), rep)


class TestAlphaBounds:
    def test_enclosure(self, rng):
        for _ in range(10):
            v = random_general_ovm(rng, 7, 3, 3, complex_field=True)
            rep = random_representation(rng, v, 3, complex_field=True)
            exact = alpha_norm(v, rep).value
            bounds = alpha_norm_bounds(v, rep)
            assert bounds.lower <= exact + 1e-12
            assert exact <= bounds.upper + 1e-12

    def test_witness_attains_lower(self, rng):
        v = random_general_ovm(rng, 6, 3, 3)
        rep = random_representation(rng, v, 2)
        bounds = alpha_norm_bounds(v, rep)
        assert rep_norm_at(v, rep, bounds.witness) == pytest.approx(bounds.lower, rel=1e-12)


def in_order_norm(ovm, rep, mask):
    """Norm of the witness's atom images summed from zero in index order."""
    images = _atom_images(ovm, rep)
    acc = np.zeros(ovm.dim_out, dtype=images.dtype)
    for j in _subsets.bit_indices(mask):
        acc = acc + images[j]
    return float(np.linalg.norm(acc))


@pytest.mark.parametrize("n", [8, 18])
def test_reported_alpha_values_reproduce_from_their_witnesses(n):
    # the meet-in-the-middle expansion and the greedy's descending-norm
    # running sum each differ from this sum in the last bits on some seeds
    for seed in range(20):
        rng = np.random.default_rng(seed)
        v = random_general_ovm(rng, n, 3, 2, complex_field=True)
        vector = rng.normal(size=2) + 1j * rng.normal(size=2)
        rep = Representation.from_terms([(1.0, v.full_mask, vector)])
        exact = alpha_norm(v, rep)
        assert exact.value == in_order_norm(v, rep, exact.witness)
        bounds = alpha_norm_bounds(v, rep)
        assert bounds.lower == in_order_norm(v, rep, bounds.witness)


class TestOmegaBound:
    def test_single_term_equals_alpha_bitwise(self, rng):
        for complex_field in (False, True):
            v = random_general_ovm(rng, 6, 3, 2, complex_field=complex_field)
            rep = random_representation(rng, v, 1, complex_field=complex_field)
            assert omega_upper_bound(v, rep) == alpha_norm(v, rep).value

    def test_strict_gap_example(self):
        v = signed_line_pair()
        rep = Representation.from_terms([(1.0, 0b01, [1.0]), (-1.0, 0b10, [-1.0])])
        assert alpha_norm(v, rep).value == 1.0
        assert omega_upper_bound(v, rep) == 2.0

    def test_dominates_alpha(self, rng):
        v = random_general_ovm(rng, 5, 3, 3)
        rep = random_representation(rng, v, 4)
        assert alpha_norm(v, rep).value <= omega_upper_bound(v, rep) + 1e-12


class TestBlockDilation:
    def test_e11_blocks_are_exact(self):
        v = induced_from_framing(example_e11(2))
        triple = build_block_dilation(v)
        assert triple.block_ranks == (1, 1, 1)
        assert triple.total_dim == 3
        for mask in range(8):
            assert spectral_norm(v.evaluate(mask) - triple.evaluate(mask)) <= 1e-14

    def test_f_products_are_bitwise(self, rng):
        v = random_general_ovm(rng, 4, 3, 2, complex_field=True)
        triple = build_block_dilation(v)
        for a in range(16):
            for b in range(16):
                lhs = triple.f_evaluate(a) @ triple.f_evaluate(b)
                assert np.array_equal(lhs, triple.f_evaluate(a & b))

    def test_zero_atom_skipped(self):
        atoms = np.stack([np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 1.0])])
        triple = build_block_dilation(Ovm(atoms))
        assert triple.block_ranks == (1, 0, 1)
        assert triple.total_dim == 2
        npt.assert_array_equal(triple.f_evaluate(triple.full_mask), np.eye(2))

    def test_report_on_random_measure(self, rng):
        v = random_general_ovm(rng, 5, 4, 3, complex_field=True)
        report = verify_dilation(v, build_block_dilation(v))
        assert report.eval_residual <= 1e-10
        assert report.ranks_match
        assert not report.sampled
        assert report.st_residual is None

    def test_mask_range(self, rng):
        triple = build_block_dilation(random_general_ovm(rng, 3, 2, 2))
        with pytest.raises(ValueError):
            triple.f_evaluate(8)


class TestVerify:
    def test_detects_corrupted_left(self, rng):
        v = random_positive_probability_ovm(rng, 4, 3)
        triple = build_block_dilation(v)
        bad = DilationTriple(
            left=triple.left + 1e-3,
            right=triple.right,
            block_ranks=triple.block_ranks,
        )
        assert verify_dilation(v, bad).eval_residual > 1e-4

    def test_st_residual_bounds_the_idempotent_defect(self, rng):
        # g @ g - g = right (left right - I) left, so with g = right @ left
        # ||g @ g - g|| <= ||left|| ||right|| (st_residual + ||E(Omega) - I||)
        def check(v, triple):
            g = triple.right @ triple.left
            dense = spectral_norm(g @ g - g)
            report = verify_dilation(v, triple)
            e_defect = spectral_norm(v.evaluate(v.full_mask) - np.eye(v.dim_out))
            scale = spectral_norm(triple.left) * spectral_norm(triple.right)
            # forming g @ g - g rounds at about eps ||g||^2 <= eps scale^2
            rounding = 16 * np.finfo(float).eps * scale**2
            assert dense <= scale * (report.st_residual + e_defect) + rounding
            return dense, report.st_residual

        v = random_positive_probability_ovm(rng, 4, 3, True)
        triple = naimark_dilate(v).as_triple()
        bad = DilationTriple(triple.left, triple.right * 1.01, triple.block_ranks)
        dense, st_residual = check(v, bad)
        assert dense > 1e-3 and st_residual > 1e-10
        for complex_field in (False, True):
            for _ in range(5):
                v = random_positive_probability_ovm(rng, 5, 3, complex_field)
                dense, st_residual = check(v, build_block_dilation(v))
                assert st_residual <= 1e-10

    def test_atom_count_mismatch(self, rng):
        v = random_general_ovm(rng, 3, 2, 2)
        w = random_general_ovm(rng, 4, 2, 2)
        with pytest.raises(ValueError):
            verify_dilation(w, build_block_dilation(v))

    def test_block_rank_pairs_use_the_package_rank_rule(self):
        # numpy's matrix_rank cutoff 2 * eps would count 1e-12 and report 2
        left = np.diag([1.0, 1e-12])
        triple = DilationTriple(left=left, right=np.eye(2), block_ranks=(2,))
        report = verify_dilation(Ovm(left[None]), triple)
        assert report.eval_residual == 0.0
        assert report.block_rank_pairs == ((2, 1),)
        assert not report.ranks_match

    def test_ranks_are_counted_at_the_construction_cutoff(self):
        # the 1e-11 direction is kept at a 1e-12 cutoff and dropped at the default
        v = Ovm(np.array([np.diag([1.0, 1e-11]), np.diag([0.0, 1.0])]))
        triple = build_block_dilation(v, rel_tol=1e-12)
        assert triple.block_ranks == (2, 1)
        report = verify_dilation(v, triple, rel_tol=1e-12)
        assert report.block_rank_pairs == ((2, 2), (1, 1))
        assert report.ranks_match
        assert not verify_dilation(v, triple).ranks_match

    def test_sampled_above_limit(self):
        v = Ovm(np.full((17, 1, 1), 1.0 / 17))
        report = verify_dilation(v, build_block_dilation(v))
        assert report.sampled
        assert report.eval_residual <= 1e-12


class TestNaimark:
    def test_half_identity_pair(self):
        v = Ovm(np.array([[[0.5]], [[0.5]]]))
        d = naimark_dilate(v)
        root = np.sqrt(0.5)
        npt.assert_allclose(d.isometry, [[root], [root]], atol=1e-15)
        report = verify_dilation(v, d.as_triple())
        assert report.eval_residual <= 1e-12
        assert report.st_residual <= 1e-12

    def test_isometry_on_random_positive(self, rng):
        for complex_field in (False, True):
            v = random_positive_probability_ovm(rng, 6, 4, complex_field)
            d = naimark_dilate(v)
            gram = d.isometry.conj().T @ d.isometry
            assert spectral_norm(gram - np.eye(4)) <= 1e-10
            report = verify_dilation(v, d.as_triple())
            assert report.eval_residual <= 1e-10

    def test_scaled_right_factor_shows_in_st_residual(self, rng):
        # st_residual is ||V*V - E(Omega)||, the CLI's isometry_gram_residual
        v = random_positive_probability_ovm(rng, 6, 4, True)
        triple = naimark_dilate(v).as_triple()
        assert verify_dilation(v, triple).st_residual <= 1e-12
        bad = DilationTriple(triple.left, triple.right * (1 + 1e-5), triple.block_ranks)
        assert verify_dilation(v, bad).st_residual > 1e-10

    def test_non_hermitian_atom(self):
        atoms = np.stack([np.array([[0.5, 0.3], [0.0, 0.5]]), np.eye(2) * 0.5])
        with pytest.raises(NotPositive) as info:
            naimark_dilate(Ovm(atoms))
        assert info.value.index == 0

    def test_indefinite_atom(self):
        atoms = np.stack([np.diag([1.5, -0.5]), np.diag([-0.5, 1.5])])
        with pytest.raises(NotPositive):
            naimark_dilate(Ovm(atoms))

    @pytest.mark.parametrize(
        "first, index, message",
        [
            (np.diag([1.5, -0.5]), 0, "atom 0 is not positive semidefinite"),
            (np.diag([0.5, 0.5]), 1, "atom 1 is not Hermitian"),
        ],
    )
    def test_first_failing_atom_is_named(self, first, index, message):
        # atom 1 is not Hermitian; atom 0 decides whether it is reached
        atoms = np.stack([first, np.array([[0.5, 0.3], [0.0, 0.5]])])
        with pytest.raises(NotPositive) as info:
            naimark_dilate(Ovm(atoms))
        assert info.value.index == index
        assert str(info.value).startswith(message)

    def test_atoms_are_checked_in_one_batched_pass(self, rng, monkeypatch):
        calls = {"batched": 0, "single": 0}
        batched, single = dilation._subsets.batched_spectral_norms, dilation.spectral_norm

        def count(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(dilation._subsets, "batched_spectral_norms", count("batched", batched))
        monkeypatch.setattr(dilation, "spectral_norm", count("single", single))
        naimark_dilate(full_rank_povm(rng, 16, 8))
        assert calls == {"batched": 2, "single": 0}

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError):
            naimark_dilate(random_general_ovm(rng, 3, 3, 2))


def dense_f_reference(block_ranks):
    """Dense F tensor built the way triples used to store it: one identity
    block per atom on the diagonal, zero blocks for rank-zero atoms."""
    total = sum(block_ranks)
    f_atoms = np.zeros((len(block_ranks), total, total))
    offset = 0
    for j, rank in enumerate(block_ranks):
        f_atoms[j, offset : offset + rank, offset : offset + rank] = np.eye(rank)
        offset += rank
    return f_atoms


def triples_with_zero_atoms(rng):
    """A block and a Naimark triple, each with a rank-zero atom."""
    general = random_general_ovm(rng, 3, 3, 2, complex_field=True)
    povm = random_positive_probability_ovm(rng, 3, 3, True)
    block = Ovm(np.insert(general.atoms, 1, 0.0, axis=0))
    positive = Ovm(np.insert(povm.atoms, 2, 0.0, axis=0))
    return [
        (block, build_block_dilation(block)),
        (positive, naimark_dilate(positive).as_triple()),
    ]


class TestTriplePartition:
    def test_rejects_non_partition_block_ranks(self):
        left, right = np.zeros((2, 3)), np.zeros((3, 2))
        for ranks in [(2, -1, 2), (1, 1), (2, 1, 1)]:
            with pytest.raises(ValueError):
                DilationTriple(left=left, right=right, block_ranks=ranks)
        with pytest.raises(ValueError):
            DilationTriple(left=left, right=np.zeros((4, 2)), block_ranks=(1, 2))
        with pytest.raises(ValueError):
            DilationTriple(left=left, right=np.zeros((4, 2)), block_ranks=(2, 2))

    def test_f_atoms_match_dense_reference(self, rng):
        for _, triple in triples_with_zero_atoms(rng):
            assert 0 in triple.block_ranks
            reference = dense_f_reference(triple.block_ranks)
            assert triple.f_atoms.dtype == reference.dtype
            assert np.array_equal(triple.f_atoms, reference)
            for mask in range(1 << triple.atom_count):
                selected = [j for j in range(triple.atom_count) if mask >> j & 1]
                assert np.array_equal(triple.f_evaluate(mask), reference[selected].sum(axis=0))

    def test_f_is_an_exact_spectral_measure(self, rng):
        # F(Omega) = I, F(A)F(B) = F(A intersect B) and F* = F hold bit for
        # bit for every triple, which is why a DilationReport states none
        triples = [t for _, t in triples_with_zero_atoms(rng)]
        triples.append(build_block_dilation(induced_from_framing(example_e11(2))))
        for triple in triples:
            assert np.array_equal(triple.f_evaluate(triple.full_mask), np.eye(triple.total_dim))
            masks = range(1 << triple.atom_count)
            for a in masks:
                f_a = triple.f_evaluate(a)
                assert np.array_equal(f_a.T, f_a)
                for b in masks:
                    assert np.array_equal(f_a @ triple.f_evaluate(b), triple.f_evaluate(a & b))

    def test_slices_match_dense_products(self, rng):
        for _, triple in triples_with_zero_atoms(rng):
            f_atoms = dense_f_reference(triple.block_ranks)
            for j, product in enumerate(triple.atom_products()):
                dense = triple.left @ f_atoms[j] @ triple.right
                npt.assert_allclose(product, dense, rtol=0, atol=1e-14)
            for mask in range(1 << triple.atom_count):
                dense = triple.left @ triple.f_evaluate(mask) @ triple.right
                npt.assert_allclose(triple.evaluate(mask), dense, rtol=0, atol=1e-14)


class TestMinimality:
    def test_matches_dense_reference(self, rng):
        for (ovm, triple), term_count in itertools.product(triples_with_zero_atoms(rng), (3, 50)):
            rep = random_representation(rng, ovm, term_count, complex_field=True)
            gap = minimality_gap(ovm, rep, triple)
            masks = range(1 << triple.atom_count)
            constant = max(spectral_norm(triple.left @ triple.f_evaluate(m)) for m in masks)
            acc = sum(
                c * (triple.f_evaluate(m) @ triple.right @ v)
                for c, m, v in zip(rep.coeffs, rep.masks, rep.vectors)
            )
            assert gap.constant == pytest.approx(constant, rel=1e-12)
            assert gap.triple_norm == pytest.approx(float(np.linalg.norm(acc)), rel=1e-12)

    def test_alpha_bounded_through_block_dilation(self, rng):
        for _ in range(5):
            v = random_general_ovm(rng, 5, 3, 3, complex_field=True)
            rep = random_representation(rng, v, 3, complex_field=True)
            gap = minimality_gap(v, rep, build_block_dilation(v))
            assert gap.alpha <= gap.constant * gap.triple_norm + 1e-9

    def test_alpha_bounded_through_naimark(self, rng):
        v = random_positive_probability_ovm(rng, 5, 3)
        rep = random_representation(rng, v, 3)
        gap = minimality_gap(v, rep, naimark_dilate(v).as_triple())
        assert gap.alpha <= gap.constant * gap.triple_norm + 1e-9

    def test_seventeen_atoms_need_no_enumeration(self, rng):
        # the constant is ||left||, so only alpha_norm's term limit applies
        v = random_general_ovm(rng, 17, 2, 2, complex_field=True)
        rep = random_representation(rng, v, 3, complex_field=True)
        gap = minimality_gap(v, rep, build_block_dilation(v))
        assert gap.alpha <= gap.constant * gap.triple_norm + 1e-9

    def test_twenty_five_nonzero_images_raise(self):
        v = Ovm(np.full((25, 1, 1), 1.0 / 25))
        rep = Representation.from_terms([(1.0, v.full_mask, [1.0])])
        with pytest.raises(ExactModeTooLarge):
            minimality_gap(v, rep, build_block_dilation(v))
