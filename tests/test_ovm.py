import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from dilationkit import _subsets, ovm as ovm_module
from dilationkit import (
    AtomRankTooHigh,
    Framing,
    Ovm,
    classify,
    dual_ovm,
    framing_from_rank_one_ovm,
    induced_from_framing,
    multiplier_apply,
)

from conftest import (
    random_framing,
    random_general_ovm,
    random_positive_probability_ovm,
    random_projection_valued_probability_ovm,
    rank_one_parseval_povm,
)


def half_identity_pair():
    return Ovm(np.stack([np.eye(2) / 2, np.eye(2) / 2]))


def coordinate_partition():
    return Ovm(np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))


class TestOvmBasics:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Ovm(np.eye(2))
        with pytest.raises(ValueError):
            Ovm(np.zeros((0, 2, 2)))
        with pytest.raises(ValueError):
            Ovm([[[np.nan]]])

    def test_atoms_are_frozen(self):
        v = coordinate_partition()
        with pytest.raises(ValueError):
            v.atoms[0, 0, 0] = 5.0

    def test_one_private_copy(self):
        a = np.random.default_rng(2).normal(size=(200, 32, 32))
        tracemalloc.start()
        try:
            ovm = Ovm(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the copy plus the finiteness mask; a second copy would reach 2x
        assert peak <= 1.25 * a.nbytes
        kept = a.copy()
        a[0, 0, 0] = 7.0
        assert np.array_equal(ovm.atoms, kept)

    def test_evaluate_masks(self):
        v = coordinate_partition()
        npt.assert_array_equal(v.evaluate(0), np.zeros((2, 2)))
        npt.assert_array_equal(v.evaluate(0b01), np.diag([1.0, 0.0]))
        npt.assert_array_equal(v.evaluate(0b10), np.diag([0.0, 1.0]))
        npt.assert_array_equal(v.evaluate(0b11), np.eye(2))

    def test_evaluate_is_bitwise_the_index_order_sum(self, rng):
        for complex_field in (False, True):
            v = random_general_ovm(rng, 9, 3, 2, complex_field)

            def loop_sum(mask):
                want = np.zeros((3, 2), dtype=v.atoms.dtype)
                for i in range(v.atom_count):
                    if mask >> i & 1:
                        want += v.atoms[i]
                return want

            masks = [0, v.full_mask, *(int(m) for m in rng.integers(0, v.full_mask, 20))]
            for mask in masks:
                assert np.array_equal(v.evaluate(mask), loop_sum(mask)), mask
            # one batch: atom 0 in every mask, atom 8 in none, the rest mixed
            batch = sorted({(m | 1) & ~(1 << 8) for m in masks})
            for mask, total in zip(batch, _subsets.masked_sums(v.atoms, batch)):
                assert np.array_equal(total, loop_sum(mask)), mask

    def test_evaluate_range(self):
        v = coordinate_partition()
        with pytest.raises(ValueError):
            v.evaluate(-1)
        with pytest.raises(ValueError):
            v.evaluate(4)

    def test_dims(self, rng):
        v = random_general_ovm(rng, 3, 4, 2, complex_field=True)
        assert (v.atom_count, v.dim_out, v.dim_in) == (3, 4, 2)
        assert not v.is_square
        assert v.full_mask == 0b111


class TestDual:
    def test_involution_is_bitwise(self, rng):
        v = random_general_ovm(rng, 4, 3, 2, complex_field=True)
        back = dual_ovm(dual_ovm(v))
        assert np.array_equal(back.atoms, v.atoms)

    def test_swaps_dimensions_and_adjoints(self, rng):
        v = random_general_ovm(rng, 3, 4, 2)
        d = dual_ovm(v)
        assert (d.dim_out, d.dim_in) == (2, 4)
        for mask in range(8):
            npt.assert_array_equal(d.evaluate(mask), v.evaluate(mask).conj().T)


class TestClassify:
    def test_half_identity_pair(self):
        c = classify(half_identity_pair())
        assert c.is_probability
        assert c.is_positive
        assert c.is_self_adjoint
        assert not c.is_projection_valued
        assert not c.is_spectral
        assert not c.sampled
        assert c.ovm_norm == pytest.approx(1.0, abs=1e-12)

    def test_coordinate_partition(self):
        c = classify(coordinate_partition())
        assert c.is_probability
        assert c.is_positive
        assert c.is_projection_valued
        assert c.is_spectral
        assert c.is_self_adjoint

    def test_non_square_flags(self, rng):
        c = classify(random_general_ovm(rng, 3, 3, 2))
        assert not c.is_probability
        assert not c.is_positive
        assert not c.is_projection_valued
        assert not c.is_spectral
        assert not c.is_self_adjoint
        assert c.ovm_norm > 0

    def test_negative_atom_detected(self):
        v = Ovm(np.stack([np.diag([-1.0, 0.0]), np.diag([2.0, 1.0])]))
        c = classify(v)
        assert c.is_self_adjoint
        assert not c.is_positive

    def test_random_positive_probability(self, rng):
        for complex_field in (False, True):
            v = random_positive_probability_ovm(rng, 6, 3, complex_field)
            c = classify(v)
            assert c.is_probability
            assert c.is_positive
            assert c.is_self_adjoint

    def test_random_projection_valued(self, rng):
        v = random_projection_valued_probability_ovm(rng, 4, 5)
        c = classify(v, tol=1e-8)
        assert c.is_probability
        assert c.is_projection_valued
        assert c.is_spectral

    def test_exhaustive_limit(self):
        # above the limit classify samples, as verify_dilation does
        atoms = np.full((17, 1, 1), 1.0 / 17)
        v = Ovm(atoms)
        c = classify(v)
        assert c.sampled
        assert c.is_probability
        assert not classify(v, max_exhaustive_atoms=17).sampled

    def test_lowered_limit(self):
        v = Ovm(np.full((5, 1, 1), 0.2))
        assert classify(v, max_exhaustive_atoms=4).sampled
        c = classify(v, max_exhaustive_atoms=5)
        assert not c.sampled

    def test_sampled_catches_singleton_violation(self):
        v = Ovm(np.stack([np.diag([-1.0, 0.0])] + [np.diag([0.5, 0.25])] * 4))
        c = classify(v, max_exhaustive_atoms=0)
        assert c.sampled
        assert not c.is_positive


    def test_failing_singleton_skips_pair_defects(self, monkeypatch):
        # a rank-one POVM's singletons fail idempotency, which decides both
        # is_projection_valued and is_spectral without the n^2 pair defects
        def refuse(atoms):
            raise AssertionError("pair defects computed")

        monkeypatch.setattr(ovm_module, "_pair_defects", refuse)
        c = classify(rank_one_parseval_povm(np.random.default_rng(3), 200, 4))
        assert c.is_probability and c.is_positive
        assert not c.is_projection_valued and not c.is_spectral
        idem, norm = c.subset_sup["idempotent_defect"], c.subset_sup["ovm_norm"]
        assert idem.mode == "certified" and len(idem.witness_atoms) == 1
        assert idem.upper == pytest.approx(norm.upper ** 2 + norm.upper, rel=1e-15)

    def test_passing_singletons_reach_pair_defects(self, monkeypatch, rng):
        calls = []

        def counted(atoms):
            calls.append(atoms.shape[0])
            return pair_defects(atoms)

        pair_defects = ovm_module._pair_defects
        monkeypatch.setattr(ovm_module, "_pair_defects", counted)
        assert classify(random_projection_valued_probability_ovm(rng, 4, 5), tol=1e-8).is_spectral
        # idempotent atoms whose product is not zero: only a pair decides
        oblique = Ovm(np.stack([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)]))
        c = classify(oblique)
        assert not c.is_spectral and not c.is_projection_valued
        assert calls == [4, 2]


class TestInducedMeasure:
    def test_atoms_are_the_rank_one_terms(self, rng):
        f = random_framing(rng, 5, 2, complex_field=True)
        v = induced_from_framing(f)
        for i in range(5):
            assert np.array_equal(v.atoms[i], np.outer(f.x[i], f.y[i].conj()))

    def test_full_set_near_identity(self, rng):
        f = random_framing(rng, 6, 3)
        v = induced_from_framing(f)
        assert np.abs(v.evaluate(v.full_mask) - np.eye(3)).max() <= 1e-12

    def test_rejects_sloppy_framing(self):
        f = Framing([[1.0]], [[0.5]])
        with pytest.raises(ValueError):
            induced_from_framing(f, tol=1e-8)

    def test_multiplier_matches_evaluate_bitwise(self, rng):
        for complex_field in (False, True):
            f = random_framing(rng, 6, 3, complex_field)
            v = induced_from_framing(f)
            for mask in range(64):
                coeffs = np.array([float(mask >> i & 1) for i in range(6)])
                assert np.array_equal(multiplier_apply(f, coeffs), v.evaluate(mask))


class TestFramingRecovery:
    def test_roundtrip_atom_identity(self, rng):
        for complex_field in (False, True):
            f = random_framing(rng, 6, 3, complex_field)
            v = induced_from_framing(f)
            g = framing_from_rank_one_ovm(v)
            w = induced_from_framing(g)
            assert np.abs(w.atoms - v.atoms).max() <= 1e-10

    def test_recovered_pairs_are_norm_balanced(self, rng):
        f = random_framing(rng, 5, 2)
        g = framing_from_rank_one_ovm(induced_from_framing(f))
        nx = np.linalg.norm(g.x, axis=1)
        ny = np.linalg.norm(g.y, axis=1)
        npt.assert_allclose(nx, ny, rtol=1e-12)

    def test_phase_convention(self, rng):
        f = random_framing(rng, 5, 2, complex_field=True)
        g = framing_from_rank_one_ovm(induced_from_framing(f))
        for i in range(5):
            k = int(np.argmax(np.abs(g.x[i])))
            lead = g.x[i][k]
            assert lead.real > 0
            assert abs(lead.imag) <= 1e-12 * abs(lead)

    def test_zero_atom_gives_zero_pair(self):
        atoms = np.stack([np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 1.0])])
        g = framing_from_rank_one_ovm(Ovm(atoms))
        assert np.array_equal(g.x[1], np.zeros(2))
        assert np.array_equal(g.y[1], np.zeros(2))

    def test_rank_two_atom_rejected(self):
        with pytest.raises(AtomRankTooHigh) as info:
            framing_from_rank_one_ovm(half_identity_pair())
        assert info.value.index == 0

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError):
            framing_from_rank_one_ovm(random_general_ovm(rng, 3, 3, 2))

    def test_non_probability_rejected(self):
        atoms = np.stack([np.diag([2.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(ValueError):
            framing_from_rank_one_ovm(Ovm(atoms))
