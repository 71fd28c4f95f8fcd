"""Command-line front-end.

Subcommands load frames, framings and operator-valued measures from JSON
files, run the library constructions, and print a deterministic report:
sorted keys, no timestamps, all randomness drawn from --seed.  Exit code 0
means every check passed, 1 means a check failed or a domain error occurred,
2 means the invocation or an input file could not be parsed, or the output
file could not be written.

Input schemas (entries are bare reals or [re, im] pairs):
  frame    {"dim": d, "vectors": [vector, ...]}
  ovm      {"dim_in": d, "dim_out": e, "atoms": [[[entry, ...], ...], ...]}
  framing  {"dim": d, "pairs": [{"x": vector, "y": vector}, ...]}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING

import numpy as np

# `import hashlib` loads OpenSSL's libcrypto, several MB of resident memory
# for one digest per call; CPython's builtin module gives the same SHA-256.
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from ._subsets import _EXHAUSTIVE_ATOM_LIMIT
from .errors import DilationKitError
# spectral_norm is unused here; perfbench/test_perfbench.py expects cli to bind it
from .linalg import DEFAULT_REL_TOL, lp_norm, spectral_norm  # noqa: F401

if TYPE_CHECKING:
    from .frames import Frame
    from .framings import Framing
    from .ovm import Ovm

# Each handler imports the constructions it runs, so one call loads only the
# modules of its own subcommand.


class SchemaError(ValueError):
    """The invocation could not be carried out as given: an input file did
    not match the documented JSON schema or could not be read, or the output
    file could not be written."""


def _entry(value, where):
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        if (
            isinstance(value, list)
            and len(value) == 2
            and all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in value)
        ):
            return complex(value[0], value[1])
    except OverflowError as exc:
        raise SchemaError(f"{where}: entry too large for a float") from exc
    raise SchemaError(f"{where}: entries must be reals or [re, im] pairs")


def _vector(obj, dim, where):
    if not isinstance(obj, list) or len(obj) != dim:
        raise SchemaError(f"{where}: expected a vector of length {dim}")
    return np.array([_entry(v, where) for v in obj])


def _matrix(obj, rows, cols, where):
    if not isinstance(obj, list) or len(obj) != rows:
        raise SchemaError(f"{where}: expected {rows} rows")
    return np.stack([_vector(row, cols, f"{where} row {i}") for i, row in enumerate(obj)])


def _dimension(doc: dict, key: str) -> int:
    value = doc[key]
    # bool is a subclass of int, so `true` would otherwise pass as 1
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise SchemaError(f'"{key}" must be a positive integer')
    return value


# Largest input scale the loaders accept; see _check_scale
_SCALE_LIMIT = 2.0**511


def _check_scale(factor: float, label: str, *arrays) -> None:
    """Raise ValueError when an input's scale s = factor * max|entry| over
    `arrays` exceeds 2^511; `label` names the factor.

    Below the limit no check overflows.  Write M = max|entry|.
    - A measure's scale is n d M, for n atoms and d = max(dim_in, dim_out),
      so every subset sum has ||E(B)|| <= sum_j ||E_j||_F <= s.  The checks
      decompose and compare E(B), E(B) - E(B)*, sym E(B), E(Omega) - I, the
      block factors q_j* E_j (q_j orthonormal), Naimark's V_j* V_j (norm at
      most ||E_j||) and a triple's residuals E(B) - left F(B) right, each of
      norm at most 2s + 1, and the products E(B)^2 - E(B) and
      E_i E_j - delta_ij E_i, of norm at most s^2 + s.  classify's bounds
      U^2 + U and sum_ij N_ij are at most s^2 + s too, as U <= s.
    - A frame's scale sqrt(N d) M, for N vectors in dimension d, is at
      least the Frobenius norm of its vector array X, so ||X|| <= s, and
      the frame operator X^T conj(X) and a framing's sum x^T conj(y) have
      norm at most s^2.  The canonical dual's vectors S^-1 x_n have norm at
      most lambda_min(S)^(-1/2), which does not grow with s.
    - An entry of a product XY, and each partial sum forming it, is at most
      ||X|| ||Y|| (Cauchy-Schwarz on a row and a column).  The factors above
      have norm at most s, except a block triple's left, of norm at most
      sqrt(n).
    So every intermediate is at most (s + 1)^2 or sqrt(n) s, below 2^1023
    and the largest float, and the SVD and eigensolvers scale their input
    internally.  The scale does not bound framing-rescale's ratios
    ||y_i|| / ||x_i||, nor the rescale plan built from them.
    """
    peak = max(float(np.abs(a).max()) for a in arrays)
    if factor * peak > _SCALE_LIMIT:
        raise ValueError(
            f"input scale {label} * max|entry| = {factor:.6g} * {peak:.3e} "
            f"exceeds the limit 2^511 = {_SCALE_LIMIT:.3e}"
        )


def load_frame(doc) -> Frame:
    from .frames import Frame

    if not isinstance(doc, dict) or "dim" not in doc or "vectors" not in doc:
        raise SchemaError('frame files need keys "dim" and "vectors"')
    dim = _dimension(doc, "dim")
    vectors = doc["vectors"]
    if not isinstance(vectors, list) or not vectors:
        raise SchemaError('"vectors" must be a non-empty list')
    vectors = _matrix(vectors, len(vectors), dim, "vectors")
    _check_scale(math.sqrt(vectors.size), "sqrt(N*d)", vectors)
    return Frame(vectors)


def load_ovm(doc) -> Ovm:
    from .ovm import Ovm

    for key in ("dim_in", "dim_out", "atoms"):
        if not isinstance(doc, dict) or key not in doc:
            raise SchemaError('ovm files need keys "dim_in", "dim_out" and "atoms"')
    dim_in, dim_out = _dimension(doc, "dim_in"), _dimension(doc, "dim_out")
    atoms = doc["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise SchemaError('"atoms" must be a non-empty list of matrices')
    atoms = np.stack([_matrix(a, dim_out, dim_in, f"atom {i}") for i, a in enumerate(atoms)])
    _check_scale(len(atoms) * max(dim_in, dim_out), "n*d", atoms)
    return Ovm(atoms)


def load_framing(doc) -> Framing:
    from .framings import Framing

    if not isinstance(doc, dict) or "dim" not in doc or "pairs" not in doc:
        raise SchemaError('framing files need keys "dim" and "pairs"')
    dim = _dimension(doc, "dim")
    pairs = doc["pairs"]
    if not isinstance(pairs, list) or not pairs:
        raise SchemaError('"pairs" must be a non-empty list')
    xs, ys = [], []
    for i, pair in enumerate(pairs):
        if not isinstance(pair, dict) or "x" not in pair or "y" not in pair:
            raise SchemaError(f'pair {i} needs keys "x" and "y"')
        xs.append(_vector(pair["x"], dim, f"pair {i} x"))
        ys.append(_vector(pair["y"], dim, f"pair {i} y"))
    if any(np.iscomplexobj(v) for v in xs + ys):
        xs = [v.astype(complex) for v in xs]
        ys = [v.astype(complex) for v in ys]
    x, y = np.stack(xs), np.stack(ys)
    _check_scale(math.sqrt(x.size), "sqrt(N*d)", x, y)
    return Framing(x, y)


def _digest(command: str, doc, flags: dict) -> str:
    canonical = json.dumps(
        {"command": command, "file": doc, "flags": flags},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return _sha256(canonical.encode("utf-8")).hexdigest()


def _check(name: str, value: float, threshold: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "pass": bool(value <= threshold),
    }


def _as_real(arr: np.ndarray) -> np.ndarray:
    """The JSON form of an array: complex entries become [re, im] pairs
    along a new last axis.  Raises ValueError on a nan or inf entry."""
    if np.iscomplexobj(arr):
        arr = np.stack([arr.real, arr.imag], -1)
    if not np.isfinite(arr).all():
        raise ValueError("Out of range float values are not JSON compliant")
    return arr


def _encode_array(arr: np.ndarray):
    return _as_real(arr).tolist()


def _emit(report: dict) -> int:
    report["pass"] = all(c["pass"] for c in report["checks"])
    print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))
    return 0 if report["pass"] else 1


class _Partition(tuple):
    """Block ranks that _json_chunks writes as their DilationTriple's f_atoms,
    from one formatted zero row: each unit row is that row with one cell
    changed."""


def _json_chunks(obj, level: int = 0, checked: bool = False):
    """Text of json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) in
    chunks.  obj's dict keys are strings; it may hold ndarrays in place of
    their _encode_array, each checked by _as_real once (`checked` marks its
    rows) and written row by row with float.__repr__, the json module's own
    float form, and a _Partition in place of its f_atoms.tolist(), whose
    zero row of T cells is formatted once: unit row k is that row with cell
    k changed, so F's text is held one row at a time."""
    pad, close = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(obj, _Partition) and obj:
        total, inner = sum(obj), "," + pad + "  "
        cell = inner + "  "
        zero = "[" + cell[1:] + cell.join([float.__repr__(0.0)] * total) + inner[1:] + "]"
        # "0.0" and "1.0" are both 3 characters, so cell k sits at a fixed offset
        one, step = float.__repr__(1.0), len(cell) + 3
        for j, (lo, rank) in enumerate(zip(np.cumsum((0,) + obj).tolist(), obj)):
            yield ("," if j else "[") + pad + "["
            for k in range(total):
                yield inner if k else inner[1:]
                if lo <= k < lo + rank:
                    at = len(cell) + k * step
                    yield zero[:at] + one + zero[at + 3:]
                else:
                    yield zero
            yield (pad if total else "") + "]"
        yield close + "]"
        return
    if isinstance(obj, np.ndarray):
        if not checked:
            obj = _as_real(obj)
        if obj.dtype == np.float64 and obj.ndim == 1 and obj.size:
            yield "[" + pad + ("," + pad).join(map(float.__repr__, obj.tolist())) + close + "]"
            return
        if obj.dtype != np.float64 or obj.ndim == 0:
            obj = obj.tolist()
    if isinstance(obj, dict):
        brackets = "{}"
        entries = [(json.dumps(key) + ": ", obj[key]) for key in sorted(obj)]
    elif isinstance(obj, (list, tuple, np.ndarray)):
        brackets = "[]"
        entries = [("", item) for item in obj]
    else:
        yield json.dumps(obj, allow_nan=False)
        return
    if not entries:
        yield brackets
        return
    sep = brackets[0] + pad
    checked = isinstance(obj, np.ndarray)
    for prefix, item in entries:
        yield sep + prefix
        yield from _json_chunks(item, level + 1, checked)
        sep = "," + pad
    yield close + brackets[1]


def _write_json_atomic(path: str, doc) -> None:
    # write through a symlink, as open(path, "w") would: the link's target
    # is replaced and the link kept
    target = os.path.realpath(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(_json_chunks(doc))
            handle.write("\n")
        # mkstemp makes the file 0600; give it the mode open(path, "w") would:
        # an existing file keeps its own, a new one gets 0666 less the umask
        try:
            mode = os.stat(target).st_mode & 0o777
        except FileNotFoundError:
            umask = os.umask(0o077)
            os.umask(umask)
            mode = 0o666 & ~umask
        os.chmod(tmp, mode)
        os.replace(tmp, target)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def cmd_frame_analyze(args) -> int:
    from .frames import (
        canonical_dual,
        dilate_parseval_to_onb,
        frame_bounds,
        reconstruction_residual,
    )

    doc, frame = _load(args.path, load_frame)
    flags = {"dual": args.dual, "dilate": args.dilate, "tol": args.tol}
    report = {
        "command": "frame-analyze",
        "inputs_digest": _digest("frame-analyze", doc, flags),
        "checks": [],
        "artifacts": {},
    }
    bounds = frame_bounds(frame)
    report["artifacts"]["bounds"] = {"lower": bounds.lower, "upper": bounds.upper}
    report["artifacts"]["tight"] = bounds.is_tight()
    report["artifacts"]["parseval"] = bounds.is_parseval(args.tol)
    if args.dual:
        dual = canonical_dual(frame)
        residual = reconstruction_residual(dual.vectors, frame.vectors)
        report["checks"].append(_check("dual_reconstruction_residual", residual, 1e-10))
        report["artifacts"]["dual_vectors"] = _encode_array(dual.vectors)
    if args.dilate:
        dilation = dilate_parseval_to_onb(frame, tol=args.tol)
        # embedding* e_n = x_n, so the compressed basis is the frame itself
        compressed = dilation.embedding.conj().T
        roundtrip = float(np.abs(compressed - frame.vectors.T).max())
        report["checks"].append(_check("onb_roundtrip_residual", roundtrip, 1e-9))
        report["artifacts"]["embedding"] = _encode_array(dilation.embedding)
    return _emit(report)


def cmd_ovm_dilate(args) -> int:
    from .dilation import EVAL_TOL, build_block_dilation, naimark_dilate, verify_dilation
    from .ovm import classify

    doc, ovm = _load(args.path, load_ovm)
    flags = {
        "mode": "naimark" if args.naimark else "block",
        "tol": args.tol,
        "seed": args.seed,
        "output": bool(args.output),
    }
    report = {
        "command": "ovm-dilate",
        "inputs_digest": _digest("ovm-dilate", doc, flags),
        "checks": [],
        "artifacts": {},
    }
    if args.naimark:
        triple = naimark_dilate(ovm, rel_tol=args.tol).as_triple()
    else:
        triple = build_block_dilation(ovm, rel_tol=args.tol)
    verdict = verify_dilation(ovm, triple, seed=args.seed, rel_tol=args.tol)
    if args.naimark:
        # Naimark's triple is (V*, V), so st_residual is ||V*V - E(Omega)||
        report["checks"].append(_check("isometry_gram_residual", verdict.st_residual, 1e-10))
    cls = classify(ovm, seed=args.seed)
    report["artifacts"]["classification"] = {
        "is_probability": cls.is_probability,
        "is_positive": cls.is_positive,
        "is_projection_valued": cls.is_projection_valued,
        "is_spectral": cls.is_spectral,
        "is_self_adjoint": cls.is_self_adjoint,
        "ovm_norm": cls.ovm_norm,
        "sampled": cls.sampled,
    }
    report["checks"].append(_check("eval_residual", verdict.eval_residual, EVAL_TOL))
    # atoms whose block rank differs from the rank of the atom
    mismatched = [j for j, (a, b) in enumerate(verdict.block_rank_pairs) if a != b]
    rank_check = _check("rank_preservation", 1.0 if mismatched else 0.0, 0.0)
    if mismatched:
        rank_check["witness"] = {"atom": mismatched[0]}
    report["checks"].append(rank_check)
    sups = {**cls.subset_sup, **verdict.subset_sup}
    report["artifacts"]["sampled"] = verdict.sampled
    report["artifacts"]["subset_sup"] = {
        name: {
            "mode": sup.mode,
            "lower": sup.lower,
            "upper": sup.upper,
            "subsets_examined": sup.subsets_examined,
            "witness_atoms": sup.witness_atoms,
        }
        for name, sup in sups.items()
    }
    report["artifacts"]["block_ranks"] = list(triple.block_ranks)
    report["artifacts"]["total_dim"] = triple.total_dim
    if args.output:
        ranks = triple.block_ranks
        _write_json_atomic(args.output, {"left": triple.left, "right": triple.right,
                                         "f_atoms": _Partition(ranks), "block_ranks": list(ranks)})
        report["artifacts"]["output_path"] = args.output
    return _emit(report)


def cmd_framing_rescale(args) -> int:
    from .frames import frame_bounds, reconstruction_residual
    from .framings import apply_rescale, dual_pair_verdict, rescale_sqrt

    doc, framing = _load(args.path, load_framing)
    flags = {"tol": args.tol}
    report = {
        "command": "framing-rescale",
        "inputs_digest": _digest("framing-rescale", doc, flags),
        "checks": [],
        "artifacts": {},
    }
    # a Framing built without a tolerance stores its measured residual there
    residual = framing.tolerance
    report["checks"].append(_check("reconstruction_residual", residual, args.tol))
    plan = rescale_sqrt(framing)
    rescaled = apply_rescale(framing, plan)
    x_frame, y_frame = rescaled.frames()
    verdict = dual_pair_verdict(
        frame_bounds(x_frame), frame_bounds(y_frame), rescaled.tolerance, args.tol
    )
    report["checks"].append(_check("dual_pair_verdict", 0.0 if verdict else 1.0, 0.0))
    parseval_residual = reconstruction_residual(x_frame.vectors, x_frame.vectors)
    report["artifacts"]["alphas"] = plan.alphas.tolist()
    report["artifacts"]["betas"] = plan.betas.tolist()
    report["artifacts"]["rescaled_parseval_residual"] = parseval_residual
    report["artifacts"]["rescaled_is_parseval"] = bool(parseval_residual <= 1e-8)
    return _emit(report)


def cmd_chl5(args) -> int:
    from . import rademacher
    from .frames import direct_sum_bounds, frame_bounds, reconstruction_residual
    from .framings import apply_rescale, check_reconstruction, dual_pair_verdict, rescale_sqrt

    if args.nmax < 1 or args.nmax > 11:
        raise SchemaError("--nmax must be between 1 and 11")
    if not args.p > 1.0 or args.p == 2.0:
        raise SchemaError("--p must exceed 1 and differ from 2")
    if not rademacher.bounds_stay_finite(args.p, args.nmax):
        raise SchemaError(f"--p {args.p} is too far from 2: --nmax {args.nmax} overflows a float")
    if args.trials < 100:
        raise SchemaError("--trials must be at least 100")
    # --trials and --seed have no effect, so they stay out of the digest
    flags = {"p": args.p, "nmax": args.nmax}
    report = {
        "command": "chl5",
        "inputs_digest": _digest("chl5", None, flags),
        "checks": [],
        "artifacts": {"levels": {}},
    }
    lowers, start = [], None
    # The assembled framing is the direct sum of the level framings, checked
    # level by level with the identities of frames.direct_sum_bounds: each
    # residual is the largest level's, the frame bounds the extreme levels'.
    recon = parseval_residual = dual_residual = 0.0
    x_bounds, y_bounds = [], []
    for n in range(1, args.nmax + 1):
        block = rademacher.build_block(n, args.p)
        eps = block.eps
        # eps eps^T = 2^n I, exact in integer arithmetic, is the level's one
        # identity; P^2 = P and the Parseval property follow from it:
        # P^2 = eps^T (eps eps^T) eps / 4^n = eps^T eps / 2^n = P, and the
        # rescaled columns f_j = 2^(-n/2) eps[:, j] give f^T f = eps eps^T / 2^n = I.
        ortho = int(np.abs(eps @ eps.T - (1 << n) * np.eye(n, dtype=np.int64)).max())
        fixes = float(np.abs(rademacher.project(block, block.r.T) - block.r.T).max())
        r_norm_defect = float(np.abs(lp_norm(block.r, block.p) - 1.0).max())
        lower, upper, maximizer = rademacher.projection_norm_bounds(block, start)
        # a function of the first n signs, where P_{n+1} acts as P_n
        start = np.repeat(maximizer, 2)
        lowers.append(lower)
        kh = rademacher.khintchine_report(block)
        level = rademacher.level_framing(block)
        recon = max(recon, check_reconstruction(level))
        x_frame, y_frame = apply_rescale(level, rescale_sqrt(level)).frames()
        parseval_residual = max(
            parseval_residual, reconstruction_residual(x_frame.vectors, x_frame.vectors)
        )
        dual_residual = max(
            dual_residual, reconstruction_residual(x_frame.vectors, y_frame.vectors)
        )
        x_bounds.append(frame_bounds(x_frame))
        y_bounds.append(frame_bounds(y_frame))
        prefix = f"n{n}_"
        report["checks"].append(_check(prefix + "sign_orthogonality", ortho, 0.0))
        report["checks"].append(_check(prefix + "projection_fixes_r", fixes, 1e-10))
        report["checks"].append(_check(prefix + "r_norm_defect", r_norm_defect, 1e-12))
        report["checks"].append(_check(prefix + "projection_norm_bounded", lower, upper))
        report["artifacts"]["levels"][str(n)] = {
            "projection_norm_lower": lower,
            "projection_norm_upper": upper,
            "khintchine_lower": kh.lower,
            "khintchine_upper": kh.upper,
        }
    drop = max([0.0] + [(a - b) / a for a, b in zip(lowers, lowers[1:])])
    report["checks"].append(_check("projection_norm_monotone", drop, rademacher.MONOTONE_RTOL))
    report["checks"].append(_check("assembled_reconstruction_residual", recon, 1e-9))
    report["checks"].append(
        _check("assembled_rescaled_parseval_residual", parseval_residual, 1e-10)
    )
    verdict = dual_pair_verdict(
        direct_sum_bounds(x_bounds), direct_sum_bounds(y_bounds), dual_residual
    )
    report["checks"].append(_check("assembled_dual_pair_verdict", 0.0 if verdict else 1.0, 0.0))
    report["artifacts"]["pair_count"] = (1 << (args.nmax + 1)) - 2
    report["artifacts"]["dim"] = args.nmax * (args.nmax + 1) // 2
    return _emit(report)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is outside the float range")
    return value


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _load_doc(path: str):
    """Parse an input file as RFC 8259 JSON: the NaN and Infinity literals
    Python's json accepts, and numbers that overflow a float, are rejected."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(
                handle, parse_float=_finite_float, parse_constant=_reject_constant
            )
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # JSONDecodeError, a non-finite number, or an integer beyond the
        # int-to-str digit limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _load(path: str, loader):
    """The document at `path` and the object `loader` builds from it.  A
    domain error about its values, a ValueError other than SchemaError,
    gains the path."""
    doc = _load_doc(path)
    try:
        return doc, loader(doc)
    except SchemaError:
        raise
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _finite_flag(text: str) -> float:
    """argparse type of a float flag: a finite number, rejected otherwise
    with a message argparse puts after the flag's name."""
    try:
        return _finite_float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilationkit",
        description="Frame, framing and operator-valued-measure dilation toolkit",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    frame = sub.add_parser("frame-analyze", help="frame bounds, dual, ONB dilation")
    frame.add_argument("path", help="frame JSON file")
    frame.add_argument("--dual", action="store_true", help="compute the canonical dual")
    frame.add_argument(
        "--dilate", action="store_true", help="dilate a Parseval frame to an ONB"
    )
    frame.add_argument("--tol", type=_finite_flag, default=1e-8, help=(
        "absolute check threshold: the Parseval flag and --dilate need both frame "
        "bounds within tol of 1 and ||S - I|| at most tol"))
    frame.set_defaults(handler=cmd_frame_analyze)

    ovm = sub.add_parser("ovm-dilate", help="dilate a measure, verify the triple")
    ovm.add_argument("path", help="ovm JSON file")
    mode = ovm.add_mutually_exclusive_group(required=True)
    mode.add_argument("--naimark", action="store_true", help="positive-measure dilation")
    mode.add_argument("--block", action="store_true", help="general block dilation")
    ovm.add_argument("--tol", type=_finite_flag, default=DEFAULT_REL_TOL, help=(
        "relative rank cutoff: an atom's singular values (eigenvalues under --naimark) "
        "at or below tol times its largest count as zero"))
    ovm.add_argument("--seed", type=int, default=0, help=(
        f"seed of the subsets sampled for the checks the atoms leave undecided, "
        f"when the measure has more than {_EXHAUSTIVE_ATOM_LIMIT} atoms"))
    ovm.add_argument("--output", help="write the dilation triple to this JSON file")
    ovm.set_defaults(handler=cmd_ovm_dilate)

    framing = sub.add_parser("framing-rescale", help="norm-balancing rescale plan")
    framing.add_argument("path", help="framing JSON file")
    framing.add_argument("--tol", type=_finite_flag, default=1e-8, help=(
        "absolute check threshold on the reconstruction residual "
        "||sum_i x_i (x) y_i - I||, before and after the rescale"))
    framing.set_defaults(handler=cmd_framing_rescale)

    chl = sub.add_parser("chl5", help="sign-matrix framing sweep on l_p blocks")
    chl.add_argument("--p", type=_finite_flag, required=True, help="exponent, p > 1 and p != 2")
    chl.add_argument("--nmax", type=int, default=6, help="largest block level, <= 11")
    chl.add_argument("--trials", type=int, default=200,
                     help="accepted (>= 100) and has no effect: the sweep draws no sample")
    chl.add_argument("--seed", type=int, default=0,
                     help="accepted and has no effect: the sweep draws no sample")
    chl.set_defaults(handler=cmd_chl5)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DilationKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
