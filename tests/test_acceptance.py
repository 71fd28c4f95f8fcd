"""End-to-end suite: each test exercises one advertised guarantee of the
package at its stated tolerance, over randomized instances at desk scale.
Runtimes are printed, not asserted; the whole file targets well under a
minute on a laptop."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from dilationkit import (
    Representation,
    alpha_norm,
    apply_rescale,
    build_block_dilation,
    coordinate_weight_sums,
    example_e11,
    example_e11_weights,
    frame_bounds,
    frame_operator,
    framing_from_rank_one_ovm,
    induced_from_framing,
    minimality_gap,
    multiplier_apply,
    naimark_dilate,
    omega_upper_bound,
    rank_one_decompose,
    rescale_sqrt,
    spectral_norm,
    verify_dilation,
)
from dilationkit.rademacher import (
    build_block,
    MONOTONE_RTOL,
    project,
    projection_norm_bounds,
    sign_matrix,
)
from dilationkit.linalg import lp_norm

from conftest import (
    random_framing,
    random_general_ovm,
    random_positive_probability_ovm,
    random_projection_valued_probability_ovm,
    random_representation,
)


def elapsed_line(label, start, cases):
    print(f"{label}: {time.perf_counter() - start:.2f}s over {cases} cases")


def test_naimark_roundtrip_on_random_positive_probability_measures():
    rng = np.random.default_rng(9001)
    start = time.perf_counter()
    for case in range(100):
        dim = int(rng.integers(1, 9))
        atom_count = int(rng.integers(1, 11))
        v = random_positive_probability_ovm(rng, atom_count, dim, complex_field=case % 2 == 1)
        dilation = naimark_dilate(v)
        gram = dilation.isometry.conj().T @ dilation.isometry
        assert spectral_norm(gram - np.eye(dim)) <= 1e-10
        report = verify_dilation(v, dilation.as_triple())
        assert not report.sampled
        assert report.eval_residual <= 1e-10
    elapsed_line("naimark roundtrip", start, 100)


def test_block_dilation_of_general_rectangular_measures():
    rng = np.random.default_rng(9002)
    start = time.perf_counter()
    for case in range(100):
        dim_out = int(rng.integers(1, 7))
        dim_in = int(rng.integers(1, 7))
        while dim_in == dim_out:
            dim_in = int(rng.integers(1, 7))
        atom_count = int(rng.integers(1, 11))
        v = random_general_ovm(rng, atom_count, dim_out, dim_in, complex_field=case % 2 == 1)
        triple = build_block_dilation(v)
        report = verify_dilation(v, triple)
        assert not report.sampled
        assert report.eval_residual <= 1e-10
        assert report.ranks_match
        for _ in range(5):
            a = int(rng.integers(0, v.full_mask + 1))
            b = int(rng.integers(0, v.full_mask + 1))
            product = triple.f_evaluate(a) @ triple.f_evaluate(b)
            assert np.array_equal(product, triple.f_evaluate(a & b))
    elapsed_line("block dilation", start, 100)


def test_alpha_functional_properties():
    rng = np.random.default_rng(9003)
    start = time.perf_counter()
    for case in range(50):
        dim = int(rng.integers(1, 6))
        atom_count = int(rng.integers(1, 13))
        complex_field = case % 2 == 1
        v = random_general_ovm(rng, atom_count, dim, dim, complex_field=complex_field)

        rep1 = random_representation(rng, v, int(rng.integers(1, 4)), complex_field)
        rep2 = random_representation(rng, v, int(rng.integers(1, 4)), complex_field)
        a1 = alpha_norm(v, rep1).value
        a2 = alpha_norm(v, rep2).value
        combined = Representation(
            np.concatenate([rep1.coeffs, rep2.coeffs]),
            rep1.masks + rep2.masks,
            np.vstack([rep1.vectors, rep2.vectors]),
        )
        assert alpha_norm(v, combined).value <= a1 + a2 + 1e-12

        c = complex(rng.normal(), rng.normal()) if complex_field else float(rng.normal())
        scaled = alpha_norm(v, rep1.scaled(c)).value
        assert abs(scaled - abs(c) * a1) <= 1e-12 * max(1.0, a1)

        single = random_representation(rng, v, 1, complex_field)
        assert omega_upper_bound(v, single) == alpha_norm(v, single).value

        gap = minimality_gap(v, rep1, build_block_dilation(v))
        assert gap.alpha <= gap.constant * gap.triple_norm + 1e-9
    elapsed_line("alpha functional", start, 50)


def test_projection_valued_probability_gives_two_sided_isometry():
    rng = np.random.default_rng(9004)
    start = time.perf_counter()
    for case in range(20):
        dim = int(rng.integers(2, 8))
        atom_count = int(rng.integers(2, 7))
        v = random_projection_valued_probability_ovm(
            rng, atom_count, dim, complex_field=case % 2 == 1
        )
        triple = build_block_dilation(v)
        st = triple.left @ triple.right
        ts = triple.right @ triple.left
        assert spectral_norm(st - np.eye(v.dim_out)) <= 1e-12
        assert spectral_norm(ts - np.eye(triple.total_dim)) <= 1e-12
    elapsed_line("two-sided isometry", start, 20)


def test_weighted_coordinate_example_exact_sums_and_linear_growth():
    start = time.perf_counter()
    x_exact, y_exact = example_e11_weights(5)
    assert x_exact == [Fraction(j) for j in range(1, 6)]
    assert y_exact == [Fraction(1, j) for j in range(1, 6)]

    framing = example_e11(5)
    x_sums, y_sums = coordinate_weight_sums(framing)
    assert np.array_equal(x_sums, np.arange(1.0, 6.0))
    for j in range(1, 6):
        assert abs(y_sums[j - 1] - 1.0 / j) <= 4 * np.finfo(float).eps

    rescaled = apply_rescale(framing, rescale_sqrt(framing))
    x_frame, _ = rescaled.frames()
    assert spectral_norm(frame_operator(x_frame) - np.eye(5)) <= 1e-12

    ratios = {}
    for m in range(5, 11):
        bounds = frame_bounds(example_e11(m).frames()[0])
        ratios[m] = bounds.upper / bounds.lower
        assert abs(ratios[m] - m) <= 1e-9
    assert abs(ratios[10] - 2.0 * ratios[5]) <= 1e-9
    elapsed_line("weighted coordinate example", start, 6)


def test_sign_matrix_sweep_across_exponents():
    start = time.perf_counter()
    cases = 0
    for p in (4.0 / 3.0, 1.5, 4.0, 6.0):
        lowers, lifted = [], None
        for n in range(1, 9):
            block = build_block(n, p)
            eps = block.eps
            assert np.array_equal(eps @ eps.T, (1 << n) * np.eye(n, dtype=np.int64))
            proj = project(block, np.eye(1 << n))
            assert spectral_norm(proj @ proj - proj) <= 1e-10
            for i in range(n):
                assert abs(lp_norm(block.r[i], p) - 1.0) <= 1e-12
            lower, upper, maximizer = projection_norm_bounds(block, lifted)
            lifted = np.repeat(maximizer, 2)
            assert lower <= upper
            if n >= 3:
                assert lower > 1.0
            lowers.append(lower)
            cases += 1
        assert max(lowers) <= 2.0 * min(lowers)
        # P_{n+1} acts as P_n on functions of the first n signs
        assert all(b >= a * (1 - MONOTONE_RTOL) for a, b in zip(lowers, lowers[1:]))
    elapsed_line("sign-matrix sweep", start, cases)


def test_rank_one_decomposition_subset_bounds():
    rng = np.random.default_rng(9007)
    start = time.perf_counter()
    for case in range(100):
        dim = int(rng.integers(1, 9))
        rank = int(rng.integers(1, min(dim, 6) + 1))
        left = rng.normal(size=(dim, rank))
        right = rng.normal(size=(rank, dim))
        if case % 2 == 1:
            left = left + 1j * rng.normal(size=(dim, rank))
            right = right + 1j * rng.normal(size=(rank, dim))
        a = left @ right
        dec = rank_one_decompose(a)
        bound = spectral_norm(a)
        k = dec.term_count
        assert k <= 6
        for mask in range(1 << k):
            assert spectral_norm(dec.partial_sum(mask)) <= bound + 1e-10
        assert spectral_norm(dec.partial_sum((1 << k) - 1) - a) <= 1e-10
    elapsed_line("rank-one decomposition", start, 100)


def test_framing_measure_roundtrip_and_multiplier_consistency():
    rng = np.random.default_rng(9008)
    start = time.perf_counter()
    for case in range(50):
        dim = int(rng.integers(1, 5))
        count = int(rng.integers(dim, 8))
        framing = random_framing(rng, count, dim, complex_field=case % 2 == 1)

        v = induced_from_framing(framing)
        recovered = induced_from_framing(framing_from_rank_one_ovm(v))
        assert np.abs(recovered.atoms - v.atoms).max() <= 1e-10

        for mask in range(1 << count):
            coeffs = np.array([float(mask >> i & 1) for i in range(count)])
            assert np.array_equal(multiplier_apply(framing, coeffs), v.evaluate(mask))
    elapsed_line("framing roundtrip", start, 50)


def test_cli_reports_are_byte_identical_across_runs():
    start = time.perf_counter()
    argv = [sys.executable, "-m", "dilationkit.cli", "chl5", "--p", "4", "--nmax", "6", "--seed", "7"]
    outputs = []
    for hashseed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        result = subprocess.run(argv, capture_output=True, env=env, check=False)
        assert result.returncode == 0, result.stderr.decode()
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
    report = json.loads(outputs[0])
    assert report["pass"] is True
    elapsed_line("deterministic reports", start, 2)
