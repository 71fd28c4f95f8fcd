import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import dilationkit
from dilationkit import dilation, rademacher
from dilationkit.cli import (
    _digest,
    _encode_array,
    build_parser,
    load_frame,
    load_framing,
    load_ovm,
    main,
)
from dilationkit.dilation import DilationTriple
from dilationkit.frames import reconstruction_residual
from dilationkit.framings import (
    apply_rescale,
    check_reconstruction,
    is_dual_frame_pair,
    rescale_sqrt,
)
from dilationkit.linalg import DEFAULT_REL_TOL

from conftest import full_rank_povm, rank_one_parseval_povm

SQRT3_2 = float(np.sqrt(3.0) / 2.0)
# the directory holding the dilationkit package under test
SRC = os.path.dirname(os.path.dirname(os.path.abspath(dilationkit.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def write_doc(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def mercedes(tmp_path):
    doc = {"dim": 2, "vectors": [[1.0, 0.0], [-0.5, SQRT3_2], [-0.5, -SQRT3_2]]}
    return write_doc(tmp_path / "mercedes.json", doc)


@pytest.fixture
def basis(tmp_path):
    doc = {"dim": 3, "vectors": np.eye(3).tolist()}
    return write_doc(tmp_path / "basis.json", doc)


@pytest.fixture
def deficient(tmp_path):
    doc = {"dim": 2, "vectors": [[1.0, 0.0], [2.0, 0.0]]}
    return write_doc(tmp_path / "deficient.json", doc)


@pytest.fixture
def povm(tmp_path):
    doc = {
        "dim_in": 2,
        "dim_out": 2,
        "atoms": [
            [[0.5, 0.0], [0.0, 0.25]],
            [[0.5, 0.0], [0.0, 0.75]],
        ],
    }
    return write_doc(tmp_path / "povm.json", doc)


@pytest.fixture
def framing_ovm(tmp_path):
    doc = {
        "dim_in": 2,
        "dim_out": 2,
        "atoms": [
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.5]],
            [[0.0, 0.0], [0.0, 0.5]],
        ],
    }
    return write_doc(tmp_path / "framing_ovm.json", doc)


@pytest.fixture
def indefinite(tmp_path):
    doc = {
        "dim_in": 2,
        "dim_out": 2,
        "atoms": [
            [[1.5, 0.0], [0.0, -0.5]],
            [[-0.5, 0.0], [0.0, 1.5]],
        ],
    }
    return write_doc(tmp_path / "indefinite.json", doc)


def e11_doc(m):
    pairs = []
    for k in range(1, m + 1):
        e = [0.0] * m
        e[k - 1] = 1.0
        y = [v / k for v in e]
        pairs.extend({"x": e, "y": y} for _ in range(k))
    return {"dim": m, "pairs": pairs}


class TestFrameAnalyze:
    def test_mercedes_bounds(self, capsys, mercedes):
        code, report, _ = run(capsys, "frame-analyze", mercedes)
        assert code == 0
        bounds = report["artifacts"]["bounds"]
        assert abs(bounds["lower"] - 1.5) <= 1e-12
        assert abs(bounds["upper"] - 1.5) <= 1e-12
        assert report["artifacts"]["tight"] is True
        assert report["artifacts"]["parseval"] is False
        assert report["pass"] is True

    def test_basis_is_parseval(self, capsys, basis):
        code, report, _ = run(capsys, "frame-analyze", basis, "--dual", "--dilate")
        assert code == 0
        assert report["artifacts"]["parseval"] is True
        names = {c["name"]: c for c in report["checks"]}
        assert names["dual_reconstruction_residual"]["pass"]
        assert names["onb_roundtrip_residual"]["pass"]
        assert report["artifacts"]["dual_vectors"] == np.eye(3).tolist()

    def test_complex_parseval_frame_dilates(self, capsys, tmp_path):
        # rows of a matrix with orthonormal columns: 5 vectors, Parseval on C^2
        g = np.random.default_rng(5).normal(size=(5, 2, 2)) @ np.array([1.0, 1j])
        q, _ = np.linalg.qr(g)
        vectors = [[[z.real, z.imag] for z in row] for row in q]
        path = write_doc(tmp_path / "complex.json", {"dim": 2, "vectors": vectors})
        code, report, _ = run(capsys, "frame-analyze", path, "--dilate")
        assert code == 0
        assert report["artifacts"]["parseval"] is True
        names = {c["name"]: c for c in report["checks"]}
        assert names["onb_roundtrip_residual"]["value"] <= 1e-12

    def test_deficient_lower_bound(self, capsys, deficient):
        code, report, _ = run(capsys, "frame-analyze", deficient)
        assert code == 0
        assert report["artifacts"]["bounds"]["lower"] == 0.0

    def test_deficient_dual_fails(self, capsys, deficient):
        code, report, err = run(capsys, "frame-analyze", deficient, "--dual")
        assert code == 1
        assert report is None
        assert "NotAFrame" in err

    def test_mercedes_not_parseval_for_dilate(self, capsys, mercedes):
        code, _, err = run(capsys, "frame-analyze", mercedes, "--dilate")
        assert code == 1
        assert "NotParseval" in err

    @pytest.mark.parametrize("tol, parseval", [(None, True), ("1e-10", False)])
    def test_parseval_flag_and_dilate_share_tol(self, capsys, tmp_path, tol, parseval):
        scale = float(np.sqrt(1.0 + 1e-9))
        path = write_doc(tmp_path / "near.json", {"dim": 2, "vectors": (scale * np.eye(2)).tolist()})
        flags = [] if tol is None else ["--tol", tol]
        code, report, _ = run(capsys, "frame-analyze", path, *flags)
        assert code == 0
        assert report["artifacts"]["parseval"] is parseval
        code, _, err = run(capsys, "frame-analyze", path, "--dilate", *flags)
        assert code == (0 if parseval else 1)
        assert ("NotParseval" in err) is not parseval

    def test_complex_entries(self, capsys, tmp_path):
        doc = {"dim": 1, "vectors": [[[0.0, 1.0]], [[1.0, 0.0]]]}
        code, report, _ = run(capsys, "frame-analyze", write_doc(tmp_path / "c.json", doc))
        assert code == 0
        assert abs(report["artifacts"]["bounds"]["upper"] - 2.0) <= 1e-12


class TestOvmDilate:
    def test_tol_default_is_the_library_rank_cutoff(self):
        args = build_parser().parse_args(["ovm-dilate", "m.json", "--block"])
        assert args.tol == DEFAULT_REL_TOL

    @pytest.mark.parametrize("mode", ["--block", "--naimark"])
    def test_tol_reaches_the_rank_check(self, capsys, tmp_path, mode):
        # --tol 1e-12 keeps the 1e-11 direction, so rank_preservation must count it
        doc = {
            "dim_in": 2,
            "dim_out": 2,
            "atoms": [[[1.0, 0.0], [0.0, 1e-11]], [[0.0, 0.0], [0.0, 1.0]]],
        }
        path = write_doc(tmp_path / "small.json", doc)
        code, report, _ = run(capsys, "ovm-dilate", path, mode, "--tol", "1e-12")
        assert code == 0
        assert report["artifacts"]["block_ranks"] == [2, 1]
        code, report, _ = run(capsys, "ovm-dilate", path, mode)
        assert code == 0
        assert report["artifacts"]["block_ranks"] == [1, 1]

    def test_povm_naimark(self, capsys, povm):
        code, report, _ = run(capsys, "ovm-dilate", povm, "--naimark")
        assert code == 0
        names = {c["name"]: c for c in report["checks"]}
        assert names["isometry_gram_residual"]["value"] <= 1e-10
        assert names["eval_residual"]["pass"]
        assert names["rank_preservation"]["pass"]
        assert "witness" not in names["rank_preservation"]
        cls = report["artifacts"]["classification"]
        assert cls["is_positive"] is True
        assert cls["is_probability"] is True

    @pytest.mark.parametrize(
        "atoms",
        [
            np.stack([np.diag([1.0, 0.0]), np.diag([0.0, 2.0])]),
            3 * full_rank_povm(np.random.default_rng(0), 4, 3).atoms,
        ],
        ids=["diag-1-0-and-0-2", "povm-times-3"],
    )
    def test_naimark_gram_is_the_total_measure(self, capsys, tmp_path, atoms):
        # V*V = E(Omega), which is the identity only for a probability measure
        dim = atoms.shape[1]
        doc = {"dim_in": dim, "dim_out": dim, "atoms": _encode_array(atoms)}
        path = write_doc(tmp_path / "positive.json", doc)
        code, report, _ = run(capsys, "ovm-dilate", path, "--naimark")
        assert code == 0
        assert report["checks"][0]["name"] == "isometry_gram_residual"
        assert report["checks"][0]["value"] <= 1e-10
        assert report["artifacts"]["classification"]["is_probability"] is False

    def test_block_dilation_has_one_coordinate_per_atom(self, capsys, framing_ovm):
        code, report, _ = run(capsys, "ovm-dilate", framing_ovm, "--block")
        assert code == 0
        assert report["artifacts"]["block_ranks"] == [1, 1, 1]

    @pytest.mark.parametrize(
        "mode, names",
        [
            ("--block", ["eval_residual", "rank_preservation"]),
            ("--naimark", ["isometry_gram_residual", "eval_residual", "rank_preservation"]),
        ],
    )
    def test_check_list(self, capsys, povm, mode, names):
        # F's identities hold by construction of the triple, so no check restates them
        code, report, _ = run(capsys, "ovm-dilate", povm, mode)
        assert code == 0
        assert [c["name"] for c in report["checks"]] == names

    def test_rank_failure_names_the_first_mismatched_atom(self, capsys, tmp_path, monkeypatch):
        build = dilation.build_block_dilation

        def drop_one_coordinate(ovm, **kwargs):
            # block 1 loses its first coordinate, so only atom 1's ranks differ
            triple = build(ovm, **kwargs)
            ranks = list(triple.block_ranks)
            keep = [i for i in range(triple.total_dim) if i != ranks[0]]
            ranks[1] -= 1
            return DilationTriple(triple.left[:, keep], triple.right[keep], tuple(ranks))

        monkeypatch.setattr(dilation, "build_block_dilation", drop_one_coordinate)
        doc = {"dim_in": 2, "dim_out": 2, "atoms": [np.diag([1.0, 0.0]).tolist(),
                                                    np.eye(2).tolist(),
                                                    np.diag([0.0, 1.0]).tolist()]}
        code, report, _ = run(capsys, "ovm-dilate", write_doc(tmp_path / "m.json", doc), "--block")
        assert code == 1
        assert report["artifacts"]["block_ranks"] == [1, 1, 1]
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["rank_preservation"]["witness"] == {"atom": 1}
        assert not checks["rank_preservation"]["pass"]
        assert "witness" not in checks["eval_residual"]

    def test_indefinite_naimark_rejected(self, capsys, indefinite):
        code, report, err = run(capsys, "ovm-dilate", indefinite, "--naimark")
        assert code == 1
        assert report is None
        assert "NotPositive" in err

    def test_indefinite_block_still_dilates(self, capsys, indefinite):
        code, report, _ = run(capsys, "ovm-dilate", indefinite, "--block")
        assert code == 0
        assert report["artifacts"]["classification"]["is_positive"] is False

    def test_mode_is_required_and_exclusive(self, capsys, povm):
        code, _, _ = run(capsys, "ovm-dilate", povm)
        assert code == 2
        code, _, _ = run(capsys, "ovm-dilate", povm, "--naimark", "--block")
        assert code == 2

    def test_output_file(self, capsys, tmp_path, povm):
        out = tmp_path / "triple.json"
        code, report, _ = run(capsys, "ovm-dilate", povm, "--naimark", "--output", str(out))
        assert code == 0
        assert report["artifacts"]["output_path"] == str(out)
        triple = json.loads(out.read_text(encoding="utf-8"))
        assert set(triple) == {"left", "right", "f_atoms", "block_ranks"}
        left = np.array(triple["left"])
        right = np.array(triple["right"])
        f_total = np.array(triple["f_atoms"]).sum(axis=0)
        total = left @ f_total @ right
        assert np.abs(total - np.eye(2)).max() <= 1e-10

    def test_output_into_missing_directory(self, capsys, tmp_path, povm):
        out = tmp_path / "missing" / "triple.json"
        code, report, err = run(capsys, "ovm-dilate", povm, "--naimark", "--output", str(out))
        assert code == 2
        assert report is None
        assert err.startswith(f"error: cannot write {out}")
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_integer_too_large_for_a_float(self, capsys, tmp_path):
        # 401 digits overflow a float; 5000 exceed the int-to-str digit limit
        for digits in (401, 5000):
            path = tmp_path / f"big{digits}.json"
            path.write_text(
                '{"dim_in": 1, "dim_out": 1, "atoms": [[[%s]]]}' % ("9" * digits),
                encoding="utf-8",
            )
            code, report, err = run(capsys, "ovm-dilate", str(path), "--block")
            assert code == 2
            assert report is None
            assert err.startswith("error: ")

    def test_subset_sup_artifact(self, capsys, povm, framing_ovm):
        names = {
            "self_adjoint_defect", "negativity", "idempotent_defect", "ovm_norm", "eval_residual"
        }
        for path, mode in [(povm, "--naimark"), (framing_ovm, "--block")]:
            code, report, _ = run(capsys, "ovm-dilate", path, mode)
            assert code == 0
            sups = report["artifacts"]["subset_sup"]
            assert set(sups) == names
            for sup in sups.values():
                assert set(sup) == {"mode", "lower", "upper", "subsets_examined", "witness_atoms"}
                assert sup["mode"] in {"certified", "exhaustive", "sampled"}
                assert sup["lower"] <= sup["upper"]
                assert all(0 <= j < 3 for j in sup["witness_atoms"])
            checks = {c["name"]: c for c in report["checks"]}
            assert checks["eval_residual"]["value"] in (
                sups["eval_residual"]["lower"],
                sups["eval_residual"]["upper"],
            )

    def test_full_rank_povm_is_certified_from_18_subsets(self, capsys, tmp_path):
        # every statistic of a full-rank POVM is certified from the empty
        # set, the 16 singletons and the full set
        ovm = full_rank_povm(np.random.default_rng(7), 16, 3)
        doc = {
            "dim_in": 3,
            "dim_out": 3,
            "atoms": [[[[v.real, v.imag] for v in row] for row in atom] for atom in ovm.atoms],
        }
        path = write_doc(tmp_path / "povm16.json", doc)
        code, report, err = run(capsys, "ovm-dilate", path, "--naimark")
        assert code == 0
        assert err == ""
        sups = report["artifacts"]["subset_sup"].values()
        assert {s["mode"] for s in sups} == {"certified"}
        assert max(s["subsets_examined"] for s in sups) == 18

    def test_complex_atoms(self, capsys, tmp_path):
        # (I + sigma_y) / 2 and its complement, rank-one positive atoms
        atom1 = [[0.5, [0.0, -0.5]], [[0.0, 0.5], 0.5]]
        atom2 = [[0.5, [0.0, 0.5]], [[0.0, -0.5], 0.5]]
        doc = {"dim_in": 2, "dim_out": 2, "atoms": [atom1, atom2]}
        code, report, _ = run(capsys, "ovm-dilate", write_doc(tmp_path / "c.json", doc), "--naimark")
        assert code == 0
        assert report["artifacts"]["classification"]["is_probability"] is True

    def test_thousand_atom_rank_one_povm_is_fast(self, capsys, tmp_path):
        # its singletons fail idempotency, so classify skips the 10^6 pair
        # defects that took 6 s of a 7.9 s run
        ovm = rank_one_parseval_povm(np.random.default_rng(0), 1000, 4)
        doc = {
            "dim_in": 4,
            "dim_out": 4,
            "atoms": [[[[v.real, v.imag] for v in row] for row in atom] for atom in ovm.atoms],
        }
        path = write_doc(tmp_path / "povm1000.json", doc)
        start = time.perf_counter()
        code, report, _ = run(capsys, "ovm-dilate", path, "--naimark")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert report["artifacts"]["classification"]["is_spectral"] is False
        assert elapsed < 1.5


class TestFramingRescale:
    def test_e11_rescales_to_parseval(self, capsys, tmp_path):
        path = write_doc(tmp_path / "e11.json", e11_doc(4))
        code, report, _ = run(capsys, "framing-rescale", path)
        assert code == 0
        assert report["artifacts"]["rescaled_is_parseval"] is True
        assert report["artifacts"]["rescaled_parseval_residual"] <= 1e-10
        names = {c["name"]: c for c in report["checks"]}
        assert names["dual_pair_verdict"]["pass"]

    def test_balanced_pair_gets_identity_plan(self, capsys, tmp_path):
        doc = {"dim": 2, "pairs": [{"x": [1.0, 0.0], "y": [1.0, 0.0]}, {"x": [0.0, 1.0], "y": [0.0, 1.0]}]}
        path = write_doc(tmp_path / "dualpair.json", doc)
        code, report, _ = run(capsys, "framing-rescale", path)
        assert code == 0
        assert report["artifacts"]["alphas"] == [1.0, 1.0]
        assert report["artifacts"]["betas"] == [1.0, 1.0]

    def test_zero_pair_fails(self, capsys, tmp_path):
        doc = {"dim": 1, "pairs": [{"x": [1.0], "y": [1.0]}, {"x": [0.0], "y": [0.0]}]}
        path = write_doc(tmp_path / "zero.json", doc)
        code, report, err = run(capsys, "framing-rescale", path)
        assert code == 1
        assert "ZeroPair" in err


class TestChl5:
    def test_quartic_sweep_passes(self, capsys):
        code, report, _ = run(capsys, "chl5", "--p", "4", "--nmax", "8")
        assert code == 0
        assert report["pass"] is True
        names = {c["name"]: c for c in report["checks"]}
        for n in range(1, 9):
            assert names[f"n{n}_sign_orthogonality"]["value"] == 0.0
            assert names[f"n{n}_projection_fixes_r"]["value"] <= 1e-10
        lowers = []
        for n in range(1, 9):
            bounded = names[f"n{n}_projection_norm_bounded"]
            level = report["artifacts"]["levels"][str(n)]
            assert bounded["value"] == level["projection_norm_lower"]
            assert bounded["threshold"] == level["projection_norm_upper"]
            assert abs(level["projection_norm_upper"] - 3.0 ** 0.25) <= 1e-15
            assert level["projection_norm_lower"] <= level["projection_norm_upper"]
            lowers.append(level["projection_norm_lower"])
        assert all(lower > 1.0 for lower in lowers[2:])
        assert max(lowers) <= 2.0 * min(lowers)
        assert names["projection_norm_monotone"]["pass"]
        assert report["artifacts"]["pair_count"] == sum(1 << n for n in range(1, 9))

    def test_check_names_in_order(self, capsys):
        code, report, _ = run(capsys, "chl5", "--p", "4", "--nmax", "3")
        assert code == 0
        per_level = ("sign_orthogonality", "projection_fixes_r", "r_norm_defect",
                     "projection_norm_bounded")
        closing = ["projection_norm_monotone", "assembled_reconstruction_residual",
                   "assembled_rescaled_parseval_residual", "assembled_dual_pair_verdict"]
        names = [c["name"] for c in report["checks"]]
        assert names == [f"n{n}_{name}" for n in range(1, 4) for name in per_level] + closing

    def test_flipped_sign_fails_orthogonality_at_its_level(self, capsys, monkeypatch):
        # sign orthogonality is each level's one exact identity: P^2 = P and
        # the rescaled sides' Parseval property follow from it
        exact = rademacher.sign_matrix

        def flipped(n):
            eps = exact(n)
            if n >= 3:
                eps[0, 1] = -eps[0, 1]
            return eps

        monkeypatch.setattr(rademacher, "sign_matrix", flipped)
        code, report, _ = run(capsys, "chl5", "--p", "4", "--nmax", "4")
        assert code == 1
        checks = {c["name"]: c for c in report["checks"]}
        assert checks["n2_sign_orthogonality"]["value"] == 0.0
        assert checks["n3_sign_orthogonality"]["value"] == 2.0
        assert [c["name"] for c in report["checks"] if not c["pass"]] == [
            "n3_sign_orthogonality", "n3_projection_fixes_r", "n3_projection_norm_bounded",
            "n4_sign_orthogonality", "n4_projection_fixes_r", "projection_norm_monotone",
            "assembled_reconstruction_residual", "assembled_rescaled_parseval_residual",
            "assembled_dual_pair_verdict",
        ]

    def test_exponent_two_rejected(self, capsys):
        code, report, err = run(capsys, "chl5", "--p", "2")
        assert code == 2
        assert report is None
        assert "error:" in err

    def test_four_thirds_sweep_passes(self, capsys):
        code, report, _ = run(capsys, "chl5", "--p", "1.3333333333", "--nmax", "6")
        assert code == 0
        assert report["pass"] is True
        assert report["artifacts"]["dim"] == 21

    def test_nmax_validation(self, capsys):
        assert run(capsys, "chl5", "--p", "4", "--nmax", "0")[0] == 2
        assert run(capsys, "chl5", "--p", "4", "--nmax", "12")[0] == 2

    def test_trials_validation(self, capsys):
        assert run(capsys, "chl5", "--p", "4", "--trials", "99")[0] == 2

    def test_checks_do_not_depend_on_the_seed(self, capsys):
        # the sweep draws no sample: the whole report, digest included, is
        # the same bytes for every --seed and --trials
        outputs = []
        for extra in (["--seed", "1"], ["--seed", "2"], ["--trials", "100"],
                      ["--trials", "500", "--seed", "2"]):
            assert main(["chl5", "--p", "4", "--nmax", "6"] + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1

    def test_trials_and_seed_help_says_no_effect(self, capsys):
        assert main(["chl5", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag in ("--trials TRIALS ", "--seed SEED "):
            # the options list follows the usage line
            entry = text[text.rindex(flag):]
            assert "has no effect" in entry[:80], flag

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0, 6.0, 10.0])
    def test_level_checks_match_the_dense_direct_sum(self, capsys, p):
        # chl5 checks the assembled framing block by block; the dense sum
        # must give the same verdicts and, up to rounding, the same values
        for nmax in range(1, 12):
            code, report, _ = run(capsys, "chl5", "--p", str(p), "--nmax", str(nmax))
            assert code == 0
            checks = {c["name"]: c for c in report["checks"]}
            framing = rademacher.assemble_framing(p, nmax)
            x_frame, y_frame = apply_rescale(framing, rescale_sqrt(framing)).frames()
            dense = {
                "assembled_reconstruction_residual": check_reconstruction(framing),
                "assembled_rescaled_parseval_residual":
                    reconstruction_residual(x_frame.vectors, x_frame.vectors),
            }
            for name, value in dense.items():
                assert abs(checks[name]["value"] - value) <= 4094 * np.finfo(float).eps
                assert checks[name]["pass"] is bool(value <= checks[name]["threshold"])
            assert checks["assembled_dual_pair_verdict"]["pass"] is is_dual_frame_pair(
                x_frame, y_frame
            )
            assert report["artifacts"]["pair_count"] == framing.count
            assert report["artifacts"]["dim"] == framing.dim

    def test_level_eleven_stays_below_four_mib(self, capsys):
        assert main(["chl5", "--p", "4", "--nmax", "1"]) == 0
        capsys.readouterr()
        # the dense direct sum's pair arrays and their copies took 13 MiB
        tracemalloc.start()
        try:
            assert main(["chl5", "--p", "4", "--nmax", "11"]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert peak < 4 << 20

    def test_determinism(self, capsys):
        first = run(capsys, "chl5", "--p", "4", "--nmax", "3", "--seed", "7")
        second = run(capsys, "chl5", "--p", "4", "--nmax", "3", "--seed", "7")
        assert first[0] == second[0] == 0
        assert first[1] == second[1]


class TestParsing:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "frame-analyze", "/nonexistent/nope.json")
        assert code == 2
        assert "error:" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(capsys, "frame-analyze", str(path))[0] == 2

    def test_mixed_and_all_pair_entries_load_alike(self):
        mixed = [[0.5, [0.0, -1.5]], [2, 3.25]]
        pairs = [[[0.5, 0.0], [0.0, -1.5]], [[2, 0], [3.25, 0.0]]]
        real_row = [[1.0, 2.0], [[0.0, 1.0], 4.0]]
        real_row_pairs = [[[1.0, 0], [2.0, 0]], [[0.0, 1.0], [4.0, 0]]]
        loaded = [
            (load_frame({"dim": 2, "vectors": m}).vectors for m in (mixed, pairs)),
            (load_ovm({"dim_in": 2, "dim_out": 2, "atoms": [real_row, m]}).atoms
             for m in (mixed, pairs)),
            (load_ovm({"dim_in": 2, "dim_out": 2, "atoms": [m, mixed]}).atoms
             for m in (real_row, real_row_pairs)),
            (load_framing({"dim": 2, "pairs": [{"x": m[0], "y": m[1]}]}).x
             for m in (mixed, pairs)),
        ]
        for a, b in loaded:
            assert a.dtype == b.dtype == np.complex128
            assert np.array_equal(a, b)

    def test_schema_violations(self, capsys, tmp_path):
        cases = [
            {"vectors": [[1.0]]},
            {"dim": 0, "vectors": [[1.0]]},
            {"dim": 2, "vectors": [[1.0]]},
            {"dim": 1, "vectors": [[True]]},
            {"dim": 1, "vectors": [[[1.0, 2.0, 3.0]]]},
        ]
        for i, doc in enumerate(cases):
            path = write_doc(tmp_path / f"bad{i}.json", doc)
            assert run(capsys, "frame-analyze", str(path))[0] == 2

    def test_ovm_schema_violations(self, capsys, tmp_path):
        cases = [
            {"dim_in": 2, "atoms": [[[1.0, 0.0], [0.0, 1.0]]]},
            {"dim_in": 2, "dim_out": 2, "atoms": []},
            {"dim_in": 2, "dim_out": 2, "atoms": [[[1.0, 0.0]]]},
        ]
        for i, doc in enumerate(cases):
            path = write_doc(tmp_path / f"bad{i}.json", doc)
            assert run(capsys, "ovm-dilate", str(path), "--block")[0] == 2

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "1e400"])
    @pytest.mark.parametrize(
        "argv, template",
        [
            (["ovm-dilate", "--block"], '{"dim_in": 1, "dim_out": 1, "atoms": [[[%s]]]}'),
            (["frame-analyze"], '{"dim": 1, "vectors": [[%s]]}'),
            (["framing-rescale"], '{"dim": 1, "pairs": [{"x": [1.0], "y": [%s]}]}'),
        ],
        ids=["ovm-dilate", "frame-analyze", "framing-rescale"],
    )
    def test_non_finite_numbers(self, capsys, tmp_path, argv, template, number):
        # RFC 8259 has no such numbers, so the input is unparsable, not a
        # domain error
        path = tmp_path / "input.json"
        path.write_text(template % number, encoding="utf-8")
        code, report, err = run(capsys, *argv, str(path))
        assert code == 2
        assert report is None
        assert err.startswith("error: ")

    def test_framing_schema_violation(self, capsys, tmp_path):
        doc = {"dim": 1, "pairs": [{"x": [1.0]}]}
        path = write_doc(tmp_path / "bad.json", doc)
        assert run(capsys, "framing-rescale", str(path))[0] == 2

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["frame-analyze"], {"dim": True, "vectors": [[1.0], [0.0]]}),
            (["ovm-dilate", "--block"], {"dim_in": True, "dim_out": 1, "atoms": [[[1.0]]]}),
            (["ovm-dilate", "--block"], {"dim_in": 1, "dim_out": True, "atoms": [[[1.0]]]}),
            (["framing-rescale"], {"dim": True, "pairs": [{"x": [1.0], "y": [1.0]}]}),
        ],
        ids=["frame", "ovm-dim_in", "ovm-dim_out", "framing"],
    )
    def test_boolean_dimension_rejected(self, capsys, tmp_path, argv, doc):
        # JSON true is a Python bool, and bool is a subclass of int
        path = write_doc(tmp_path / "bool.json", doc)
        code, report, err = run(capsys, *argv, path)
        assert code == 2
        assert report is None
        assert "must be a positive integer" in err

    @pytest.mark.parametrize("subcommand, meaning", [
        ("frame-analyze", "absolute check threshold"),
        ("framing-rescale", "absolute check threshold"),
        ("ovm-dilate", "relative rank cutoff"),
    ])
    def test_tol_help_states_its_meaning(self, capsys, subcommand, meaning):
        assert main([subcommand, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        # the options list follows the usage line
        assert text[text.rindex("--tol TOL "):].startswith("--tol TOL " + meaning)

    def test_ovm_dilate_help_states_the_fixed_exhaustive_limit(self, capsys):
        assert main(["ovm-dilate", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "when the measure has more than 16 atoms" in text
        assert "--max-atoms" not in text

    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_flag(self, capsys, mercedes):
        assert run(capsys, "frame-analyze", mercedes, "--bogus")[0] == 2


class TestReportShape:
    def test_digest_and_keys(self, capsys, mercedes):
        code, report, _ = run(capsys, "frame-analyze", mercedes)
        assert code == 0
        assert set(report) == {"command", "inputs_digest", "checks", "artifacts", "pass"}
        assert report["command"] == "frame-analyze"
        assert len(report["inputs_digest"]) == 64
        int(report["inputs_digest"], 16)

    def test_digest_tracks_flags(self, capsys, basis):
        plain = run(capsys, "frame-analyze", basis)[1]
        dual = run(capsys, "frame-analyze", basis, "--dual")[1]
        assert plain["inputs_digest"] != dual["inputs_digest"]

    def test_digest_is_sha256_of_the_canonical_text(self):
        doc = {"dim": 2, "vectors": [[1.0, 0.0], [0.0, [0.5, -1.5]]]}
        flags = {"dual": True, "dilate": False, "tol": 1e-08}
        canonical = json.dumps({"command": "frame-analyze", "file": doc, "flags": flags},
                               sort_keys=True, separators=(",", ":"))
        digest = _digest("frame-analyze", doc, flags)
        assert digest == hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert digest == "63544e4e317464b64d84599931b239b8e63daf1d18188dbc55b7c33383cf1059"

    @pytest.mark.skipif(importlib.util.find_spec("_sha2") is None
                        and importlib.util.find_spec("_sha256") is None,
                        reason="no builtin SHA-256 module in this interpreter")
    def test_import_loads_neither_openssl_nor_decimal(self):
        # hashlib loads libcrypto and fractions loads decimal; one CLI call
        # needs neither, whichever subcommand's modules it loads
        code = ("import sys, dilationkit.cli; from dilationkit import *; "
                "print(sorted({'_hashlib', 'decimal'} & set(sys.modules)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize(
        "argv, absent",
        [
            (["chl5", "--p", "4", "--nmax", "3"], {"ovm", "dilation", "rng"}),
            (["ovm-dilate", "{povm}", "--naimark"],
             {"frames", "framings", "rademacher", "alpha"}),
            (["ovm-dilate", "{povm}", "--block"],
             {"frames", "framings", "rademacher", "alpha"}),
            (["frame-analyze", "{mercedes}", "--dual"],
             {"framings", "ovm", "dilation", "rademacher", "rng"}),
            (["framing-rescale", "{e11}"], {"ovm", "dilation", "rademacher"}),
        ],
        ids=["chl5", "ovm-dilate", "ovm-dilate-block", "frame-analyze", "framing-rescale"],
    )
    def test_subcommand_loads_only_its_modules(self, tmp_path, povm, mercedes, argv, absent):
        paths = {"povm": povm, "mercedes": mercedes,
                 "e11": write_doc(tmp_path / "e11.json", e11_doc(3))}
        code = ("import contextlib, io, sys; from dilationkit.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()): rc = main(sys.argv[1:])\n"
                "print(rc, *sorted(m for m in sys.modules if m.startswith('dilationkit.')))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code, *(a.format(**paths) for a in argv)],
                             env=env, check=True, capture_output=True, text=True).stdout
        rc, *loaded = out.split()
        assert rc == "0"
        assert "dilationkit.cli" in loaded
        assert not {f"dilationkit.{name}" for name in absent} & set(loaded)

    def test_digest_ignores_path_location(self, capsys, tmp_path):
        doc = {"dim": 1, "vectors": [[1.0]]}
        a = write_doc(tmp_path / "a.json", doc)
        b = write_doc(tmp_path / "b.json", doc)
        assert run(capsys, "frame-analyze", a)[1] == run(capsys, "frame-analyze", b)[1]

    def test_check_fields(self, capsys, povm):
        _, report, _ = run(capsys, "ovm-dilate", povm, "--naimark")
        for check in report["checks"]:
            assert set(check) == {"name", "value", "threshold", "pass"}
            assert isinstance(check["value"], float)
