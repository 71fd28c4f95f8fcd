"""The certify-first subset-supremum engine against brute-force enumeration.

Every reference below evaluates each subset sum with Ovm.evaluate and takes
the statistic with plain numpy, one subset at a time.
"""

import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dilationkit
from dilationkit import _subsets
from dilationkit import ovm as ovm_module
from dilationkit import (
    DilationTriple,
    Ovm,
    build_block_dilation,
    classify,
    naimark_dilate,
    verify_dilation,
)
from dilationkit._subsets import (
    SETTLE_RTOL,
    Statistic,
    batched_spectral_norms,
    sample_masks,
    subset_sup,
)
from dilationkit.rng import Xorshift

from conftest import (
    full_rank_povm,
    rank_one_parseval_povm,
    random_general_ovm,
    random_positive_probability_ovm,
    random_matrix,
    random_projection_valued_probability_ovm,
)

TOL = 1e-10
# rounding slack when comparing an enclosure with a reference value
SLACK = 1e-12

KINDS = ("positive", "projection", "non_hermitian", "rectangular")


def hermitian_part(a):
    return (a + a.conj().T) / 2


def random_positive_ovm(rng, atom_count, dim, complex_field):
    """Exactly Hermitian positive atoms of random rank."""
    atoms = []
    for _ in range(atom_count):
        b = random_matrix(rng, dim, int(rng.integers(1, dim + 1)), complex_field)
        atoms.append(hermitian_part(b @ b.conj().T))
    return Ovm(np.stack(atoms))


def random_measure(kind, seed, atom_count, dim, complex_field):
    rng = np.random.default_rng(seed)
    if kind == "positive":
        return random_positive_ovm(rng, atom_count, dim, complex_field)
    if kind == "projection":
        return random_projection_valued_probability_ovm(rng, atom_count, dim, complex_field)
    if kind == "non_hermitian":
        return random_general_ovm(rng, atom_count, dim, dim, complex_field)
    return random_general_ovm(rng, atom_count, dim, dim + 1, complex_field)


def all_subsets(ovm):
    return [ovm.evaluate(mask) for mask in range(1 << ovm.atom_count)]


def reference_maxima(ovm):
    """Brute-force supremum of every classify statistic."""
    sums = all_subsets(ovm)
    out = {"ovm_norm": max(np.linalg.norm(e, 2) for e in sums)}
    if ovm.is_square:
        out["self_adjoint_defect"] = max(np.linalg.norm(e - e.conj().T, 2) for e in sums)
        out["negativity"] = max(-np.linalg.eigvalsh(hermitian_part(e))[0] for e in sums)
        out["idempotent_defect"] = max(np.linalg.norm(e @ e - e, 2) for e in sums)
    return out


def reference_flags(ovm):
    """Brute-force classification at TOL, spectrality over all subset pairs."""
    if not ovm.is_square:
        return dict.fromkeys(
            ("is_probability", "is_positive", "is_projection_valued", "is_spectral",
             "is_self_adjoint"),
            False,
        )
    sums = np.stack(all_subsets(ovm))
    maxima = reference_maxima(ovm)
    self_adjoint = maxima["self_adjoint_defect"] <= TOL
    masks = np.arange(len(sums))
    meets = sums[:, None] @ sums[None, :] - sums[np.bitwise_and.outer(masks, masks)]
    spectral = bool(np.linalg.norm(meets, 2, axis=(-2, -1)).max() <= TOL)
    return {
        "is_probability": np.linalg.norm(sums[-1] - np.eye(ovm.dim_out), 2) <= TOL,
        "is_positive": self_adjoint and maxima["negativity"] <= TOL,
        "is_projection_valued": maxima["idempotent_defect"] <= TOL,
        "is_spectral": spectral,
        "is_self_adjoint": self_adjoint,
    }


def reference_eval_residual(ovm, triple):
    return max(
        np.linalg.norm(ovm.evaluate(mask) - triple.evaluate(mask), 2)
        for mask in range(1 << ovm.atom_count)
    )


def assert_encloses(sup, reference):
    scale = max(1.0, abs(reference))
    assert sup.lower <= reference + SLACK * scale
    assert reference <= sup.upper + SLACK * scale


measures = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 3),
    st.booleans(),
)


class TestClassifyAgainstBruteForce:
    @given(measures)
    @settings(max_examples=50, deadline=None)
    def test_flags_and_enclosures(self, params):
        ovm = random_measure(*params)
        cls = classify(ovm)
        for flag, want in reference_flags(ovm).items():
            assert getattr(cls, flag) == want, flag
        maxima = reference_maxima(ovm)
        assert set(cls.subset_sup) == set(maxima)
        for name, reference in maxima.items():
            assert_encloses(cls.subset_sup[name], reference)

    @given(measures)
    @settings(max_examples=100, deadline=None)
    def test_atom_level_bounds(self, params):
        # tol = inf certifies every thresholded statistic from the atoms, and
        # sampling keeps the atom-level bound of ovm_norm, so each upper here
        # is the proved bound rather than an enumerated maximum.
        ovm = random_measure(*params)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_subsets, "_SAMPLE_COUNT", 0)
            cls = classify(ovm, tol=math.inf, max_exhaustive_atoms=0)
        for name, reference in reference_maxima(ovm).items():
            sup = cls.subset_sup[name]
            assert sup.mode in ("certified", "sampled")
            assert_encloses(sup, reference)


class TestVerifyAgainstBruteForce:
    @given(
        measures,
        st.sampled_from(["exact", "corrupted"]),
        st.sampled_from(["block", "naimark"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_verdict_and_enclosure(self, params, state, construction):
        ovm = random_measure(*params)
        if construction == "naimark" and params[0] == "positive":
            triple = naimark_dilate(ovm).as_triple()
        else:
            triple = build_block_dilation(ovm)
        if state == "corrupted":
            rng = np.random.default_rng(params[1])
            triple = DilationTriple(
                left=triple.left + 1e-3 * random_matrix(rng, *triple.left.shape),
                right=triple.right,
                block_ranks=triple.block_ranks,
            )
        reference = reference_eval_residual(ovm, triple)
        report = verify_dilation(ovm, triple)
        assert (report.eval_residual <= TOL) == (reference <= TOL)
        assert_encloses(report.subset_sup["eval_residual"], reference)
        # the atom-level bound verify_dilation certifies against, whatever
        # mode the report's enclosure was settled in
        deltas = ovm.atoms - triple.atom_products()
        bound = float(batched_spectral_norms(deltas).sum())
        assert reference <= bound + SLACK * max(1.0, reference)


class TestEngine:
    def test_straddling_statistic_is_enumerated(self):
        # the empty set, singletons and full set reach 1 and the bound is 3,
        # so a threshold of 1.5 needs every subset; the maximum 2 is at {0, 2}
        stack = np.array([[[1.0]], [[-1.0]], [[1.0]]])
        stat = Statistic("norm", batched_spectral_norms, 3.0, 1.5)
        sup = subset_sup(stack, [stat])["norm"]
        assert sup.mode == "exhaustive"
        assert sup.subsets_examined == 8
        assert sup.lower == sup.upper == 2.0
        assert sup.witness_mask == 0b101
        assert sup.witness_atoms == [0, 2]

    def test_sampled_statistic_keeps_the_bound(self, monkeypatch):
        # the genuine subsets and the pairs reach 2 and the bound is 4, so a
        # threshold of 2.5 is open; with no draws the maximum 3 at {0, 2, 3}
        # is missed
        stack = np.array([[[1.0]], [[-1.0]], [[1.0]], [[1.0]]])
        stat = Statistic("norm", batched_spectral_norms, 4.0, 2.5)
        monkeypatch.setattr(_subsets, "_SAMPLE_COUNT", 0)
        sup = subset_sup(stack, [stat], sampled=True)["norm"]
        assert sup.mode == "sampled"
        assert sup.subsets_examined == 12
        assert sup.lower == 2.0
        assert sup.upper == 4.0

    def test_decided_statistics_are_not_enumerated(self):
        stack = np.array([[[1.0]], [[-1.0]], [[1.0]]])
        passing = Statistic("pass", batched_spectral_norms, 3.0, 3.0)
        failing = Statistic("fail", batched_spectral_norms, 3.0, 0.5)
        sup = subset_sup(stack, [passing, failing])
        assert [s.mode for s in sup.values()] == ["certified", "certified"]
        assert sup["pass"].upper == 3.0
        assert sup["fail"].lower == 1.0
        assert sup["fail"].witness_mask == 0b001


def test_sixteen_atom_povm_is_certified():
    ovm = full_rank_povm(np.random.default_rng(7), 16, 8)
    cls = classify(ovm)
    report = verify_dilation(ovm, naimark_dilate(ovm).as_triple())
    assert cls.is_probability and cls.is_positive and not cls.is_projection_valued
    assert report.eval_residual <= TOL
    sups = {**cls.subset_sup, **report.subset_sup}
    assert len(sups) == 5
    for name, sup in sups.items():
        assert sup.mode == "certified", name
        assert sup.subsets_examined <= ovm.atom_count + 2, name


def unsymmetrized_povm(rng, atom_count, dim):
    return random_positive_probability_ovm(rng, atom_count, dim, complex_field=True)


@pytest.mark.parametrize("seed", [1, 4, 7])
@pytest.mark.parametrize("build", [rank_one_parseval_povm, unsymmetrized_povm])
def test_rounding_wide_povm_is_certified(build, seed):
    # rounding-negative eigenvalues or rounding-level skew parts of the atoms
    # leave the ovm_norm enclosure a few ulps wide; SETTLE_RTOL settles it
    # without enumerating the 2^16 subsets
    ovm = build(np.random.default_rng(seed), 16, 8)
    cls = classify(ovm)
    report = verify_dilation(ovm, naimark_dilate(ovm).as_triple())
    assert cls.is_probability and cls.is_positive and not cls.is_projection_valued
    assert report.eval_residual <= TOL
    sups = {**cls.subset_sup, **report.subset_sup}
    assert len(sups) == 5
    for name, sup in sups.items():
        assert sup.mode == "certified", name
        assert sup.subsets_examined <= ovm.atom_count + 2, name
    norm = sups["ovm_norm"]
    assert cls.ovm_norm == norm.lower
    assert 0.0 <= norm.upper - norm.lower <= SETTLE_RTOL * norm.upper
    assert abs(norm.lower - 1.0) <= 1e-14


def test_wide_no_threshold_enclosure_is_still_enumerated():
    # the atom-level bound 3 exceeds the maximum 2 by far more than SETTLE_RTOL
    stack = np.array([[[1.0]], [[-1.0]], [[1.0]]])
    sup = subset_sup(stack, [Statistic("norm", batched_spectral_norms, 3.0)])["norm"]
    assert sup.mode == "exhaustive"
    assert sup.lower == sup.upper == 2.0


@pytest.mark.parametrize("atom", [0, 2])
def test_corrupted_atom_is_the_witness(atom):
    rng = np.random.default_rng(atom)
    ovm = random_measure("positive", 11, 4, 3, True)
    triple = naimark_dilate(ovm).as_triple()
    left = triple.left.copy()
    block = triple._selected(1 << atom)
    left[:, block] += 1e-3 * random_matrix(rng, left.shape[0], int(block.sum()))
    bad = DilationTriple(left=left, right=triple.right, block_ranks=triple.block_ranks)
    report = verify_dilation(ovm, bad)
    sup = report.subset_sup["eval_residual"]
    assert report.eval_residual > TOL
    assert report.eval_residual == sup.lower
    assert sup.mode == "certified"
    assert atom in sup.witness_atoms


@pytest.mark.parametrize("n", [17, 21])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_sample_masks_contain_the_earlier_policies(n, seed):
    # verify_dilation drew `count` masks; unconditionality_diagnostics drew
    # until the empty set, the singletons, the full set and its draws made
    # `count` masks.  subset_sup adds those genuine subsets itself.
    count = _subsets._SAMPLE_COUNT
    masks = sample_masks(n, seed)
    genuine = {0, (1 << n) - 1, *(1 << j for j in range(n))}
    assert {(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)} <= masks
    rng = Xorshift(seed)
    assert {rng.mask(n) for _ in range(count)} <= masks
    rng = Xorshift(seed)
    filled, draws = set(genuine), 0
    while len(filled) < count:
        filled.add(rng.mask(n))
        draws += 1
    assert draws <= count
    assert filled <= masks | genuine


@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 63, 64, 65, 1000])
def test_mask_bits_reads_bit_j_of_each_mask(n):
    draws = random.Random(n)
    masks = [0, (1 << n) - 1, *(draws.getrandbits(n) for _ in range(20))]
    bits = _subsets.mask_bits(masks, n)
    assert bits.dtype == bool
    assert bits.tolist() == [[bool(mask >> j & 1) for j in range(n)] for mask in masks]
    for bad in (-1, 1 << n):
        with pytest.raises(ValueError):
            _subsets.mask_bits([0, bad], n)


def common_union_masked_sums(stack, masks):
    """The per-atom loop masked_sums replaced, kept as its bitwise reference."""
    n = stack.shape[0]
    common, union = (1 << n) - 1, 0
    for mask in masks:
        common, union = common & mask, union | mask
    out = np.zeros((len(masks),) + stack.shape[1:], dtype=stack.dtype)
    for j in range(n):
        if common >> j & 1:
            out += stack[j]
        elif union >> j & 1:
            out[np.array([mask >> j & 1 for mask in masks], dtype=bool)] += stack[j]
    return out


@pytest.mark.parametrize("n, sampled", [(24, True), (200, True), (1000, False)])
def test_masked_sums_is_bitwise_the_reference_loop(n, sampled):
    # the sampled sets of block-sampled-write's size and of 200 atoms, and the
    # genuine subsets of the 1000-atom rank-one Parseval measure
    genuine = {0, (1 << n) - 1, *(1 << j for j in range(n))}
    masks = sorted(sample_masks(n, 1) | genuine if sampled else genuine)
    stack = rank_one_parseval_povm(np.random.default_rng(0), n, 4).atoms
    want = common_union_masked_sums(stack, masks)
    assert _subsets.masked_sums(stack, masks).tobytes() == want.tobytes()
    # the one full mask of Ovm.evaluate(full_mask): every atom is common
    full = [(1 << n) - 1]
    want = common_union_masked_sums(stack, full)
    assert _subsets.masked_sums(stack, full).tobytes() == want.tobytes()


def test_only_the_engine_enumerates_or_draws_masks():
    # and only the engine decodes them: `mask >> j & 1`, `& (1 << j)` and the like
    pattern = re.compile(
        r"\biter_subset_sum_chunks\(|\.mask\(|\bsample_masks\(|>>\s*\w+\s*&\s*1\b|&\s*\(?1\s*<<"
    )
    package = Path(dilationkit.__file__).parent
    callers = sorted(
        path.name for path in package.glob("*.py") if pattern.search(path.read_text())
    )
    assert callers == ["_subsets.py"]


def test_certified_checks_draw_no_sample(monkeypatch):
    # 40 atoms are above the exhaustive limit, but every statistic of a
    # rank-one Parseval measure is certified, so no subset is sampled
    def refuse(*args):
        raise AssertionError("a certified check drew a sample")

    monkeypatch.setattr(_subsets, "sample_masks", refuse)
    ovm = rank_one_parseval_povm(np.random.default_rng(3), 40, 4)
    report = verify_dilation(ovm, naimark_dilate(ovm).as_triple())
    cls = classify(ovm)
    assert report.sampled and cls.sampled
    assert report.eval_residual <= TOL
    assert cls.is_probability and cls.is_positive and not cls.is_projection_valued
    sups = {**cls.subset_sup, **report.subset_sup}
    assert all(sup.mode == "certified" for sup in sups.values())


@pytest.mark.parametrize("n", [5, 14, 16, 17])
@pytest.mark.parametrize("complex_field", [False, True])
def test_streamed_chunks_are_bitwise_the_one_shot_sums(n, complex_field):
    stack = random_general_ovm(np.random.default_rng(n), n, 2, 2, complex_field).atoms
    bases, chunks = zip(*_subsets.iter_subset_sum_chunks(stack))
    rows = _subsets._chunk_rows(stack)
    assert all(len(chunk) == min(rows, 1 << n) for chunk in chunks)
    # every mask once, in ascending order
    assert [base + j for base, chunk in zip(bases, chunks) for j in range(len(chunk))] == list(
        range(1 << n)
    )
    got = np.concatenate(chunks).tobytes()
    assert got == _subsets.subset_sums(stack).tobytes()
    if n <= _subsets._EXHAUSTIVE_ATOM_LIMIT:
        assert got == _subsets.masked_sums(stack, range(1 << n)).tobytes()


def test_chunk_rows_fill_the_byte_budget():
    assert _subsets._CHUNK_BYTES == 1 << 16
    assert _subsets._chunk_rows(np.zeros((3, 8, 8))) == 128
    assert _subsets._chunk_rows(np.zeros((3, 8, 8), dtype=complex)) == 64
    assert _subsets._chunk_rows(np.zeros((3, 16, 12))) == 32
    assert _subsets._chunk_rows(np.zeros((3, 128, 128))) == 1


@pytest.mark.parametrize("sampled", [False, True])
def test_tied_maximum_names_the_smaller_mask_across_chunks(monkeypatch, sampled):
    # |sum| reaches its maximum 3 only at {0, 1} (mask 3) and {2, 3} (mask
    # 12), which four-mask chunks put in different chunks
    stack = np.array([[[1.0]], [[2.0]], [[-2.0]], [[-1.0]]])
    monkeypatch.setattr(_subsets, "_CHUNK_BYTES", 4 * stack[0].nbytes)
    monkeypatch.setattr(_subsets, "_SAMPLE_COUNT", 0)
    assert _subsets._chunk_rows(stack) == 4
    sup = subset_sup(stack, [Statistic("norm", batched_spectral_norms, 6.0)], sampled)["norm"]
    assert sup.mode == ("sampled" if sampled else "exhaustive")
    assert sup.lower == 3.0
    assert sup.witness_mask == 0b0011


def gaussian_measure(seed, atom_count, dim, complex_field):
    rng = np.random.default_rng(seed)
    atoms = 0.1 * rng.standard_normal((atom_count, dim, dim))
    if complex_field:
        atoms = atoms + 0.1j * rng.standard_normal((atom_count, dim, dim))
    return Ovm(atoms)


@pytest.mark.parametrize(
    "atom_count, dim, complex_field, mode, limit_mib",
    [(16, 8, True, "exhaustive", 4), (200, 16, False, "sampled", 8)],
)
def test_classify_holds_one_chunk_of_subset_sums(atom_count, dim, complex_field, mode, limit_mib):
    # all 2^16 sums of 1 KiB take 64 MiB, and the 21,000 sampled sums of
    # 2 KiB take 41 MiB; one chunk of either takes 64 KiB
    ovm = gaussian_measure(atom_count, atom_count, dim, complex_field)
    tracemalloc.start()
    try:
        cls = classify(ovm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cls.subset_sup["ovm_norm"].mode == mode
    assert peak < limit_mib * 2**20


@pytest.mark.parametrize("n", [1, 24, 1000])
def test_genuine_rows_are_bitwise_the_masked_sums(n):
    stack = rank_one_parseval_povm(np.random.default_rng(n), n, 4).atoms.copy()
    # every entry of one atom is -0.0 in both parts, and its rows start from +0.0
    stack[n // 2] = complex(-0.0, -0.0)
    genuine = sorted({0, (1 << n) - 1, *(1 << j for j in range(n))})
    want = _subsets.masked_sums(stack, genuine)
    assert not np.signbit(want[1 + n // 2].view(float)).any()
    assert _subsets._genuine_sums(stack).tobytes() == want.tobytes()


WITNESS_STATISTICS = {
    "self_adjoint_defect": ovm_module._self_adjoint_defects,
    "negativity": ovm_module._negativity,
    "idempotent_defect": ovm_module._idempotent_defects,
    "ovm_norm": batched_spectral_norms,
    "eval_residual": batched_spectral_norms,
}


def assert_witnesses_reproduce(stack, sups):
    for name, sup in sups.items():
        value = WITNESS_STATISTICS[name](_subsets.masked_sums(stack, [sup.witness_mask]))[0]
        assert float(value).hex() == sup.lower.hex(), name


@pytest.mark.parametrize("seed", range(20))
def test_classify_witness_reproduces_its_value(seed):
    # at seeds 4, 7, 9 and 11 a pass that adds atoms 14 and up as one
    # pre-summed row reports an ovm_norm 1 ulp off its witness's value
    ovm = Ovm(np.random.default_rng(seed).standard_normal((16, 4, 4)) * 0.1)
    cls = classify(ovm)
    assert cls.subset_sup["ovm_norm"].mode == "exhaustive"
    assert_witnesses_reproduce(ovm.atoms, cls.subset_sup)


def test_verify_dilation_witness_reproduces_its_value():
    rng = np.random.default_rng(0)
    ovm = Ovm(0.1 * rng.standard_normal((16, 4, 4)))
    triple = build_block_dilation(ovm)
    error = rng.standard_normal(triple.right.shape)
    error *= 2e-11 / np.linalg.norm(error, 2)
    bad = DilationTriple(triple.left, triple.right + error, triple.block_ranks)
    report = verify_dilation(ovm, bad)
    assert report.subset_sup["eval_residual"].mode == "exhaustive"
    assert_witnesses_reproduce(ovm.atoms - bad.atom_products(), report.subset_sup)
