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
from .linalg import DEFAULT_REL_TOL, lp_norm, spectral_norm

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


def load_frame(doc) -> Frame:
    from .frames import Frame

    if not isinstance(doc, dict) or "dim" not in doc or "vectors" not in doc:
        raise SchemaError('frame files need keys "dim" and "vectors"')
    dim = _dimension(doc, "dim")
    vectors = doc["vectors"]
    if not isinstance(vectors, list) or not vectors:
        raise SchemaError('"vectors" must be a non-empty list')
    return Frame(_matrix(vectors, len(vectors), dim, "vectors"))


def load_ovm(doc) -> Ovm:
    from .ovm import Ovm

    for key in ("dim_in", "dim_out", "atoms"):
        if not isinstance(doc, dict) or key not in doc:
            raise SchemaError('ovm files need keys "dim_in", "dim_out" and "atoms"')
    dim_in, dim_out = _dimension(doc, "dim_in"), _dimension(doc, "dim_out")
    atoms = doc["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise SchemaError('"atoms" must be a non-empty list of matrices')
    return Ovm(np.stack([_matrix(a, dim_out, dim_in, f"atom {i}") for i, a in enumerate(atoms)]))


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
    return Framing(np.stack(xs), np.stack(ys))


def _digest(command: str, doc, flags: dict) -> str:
    canonical = json.dumps(
        {"command": command, "file": doc, "flags": flags},
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return _sha256(canonical.encode("utf-8")).hexdigest()


def _check(name: str, value: float, threshold: float, passed=None) -> dict:
    if passed is None:
        passed = bool(value <= threshold)
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "pass": bool(passed),
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
    """Block ranks that _json_chunks writes as their DilationTriple's f_atoms."""


def _json_chunks(obj, level: int = 0, checked: bool = False):
    """Text of json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) in
    chunks.  obj's dict keys are strings; it may hold ndarrays in place of
    their _encode_array, each checked by _as_real once (`checked` marks its
    rows) and written row by row with float.__repr__, the json module's own
    float form, and a _Partition in place of its f_atoms.tolist(), whose T
    unit rows and zero row are formatted once."""
    pad, close = "\n" + "  " * (level + 1), "\n" + "  " * level
    if isinstance(obj, _Partition) and obj:
        total, inner = sum(obj), "," + pad + "  "
        rows = ["".join(_json_chunks(r, level + 2, True)) for r in np.eye(total + 1, total)]
        for j, (lo, rank) in enumerate(zip(np.cumsum((0,) + obj).tolist(), obj)):
            yield ("," if j else "[") + pad + "["
            for k in range(total):
                yield inner if k else inner[1:]
                yield rows[k if lo <= k < lo + rank else -1]
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
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(_json_chunks(doc))
            handle.write("\n")
        os.replace(tmp, path)
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

    doc = _load_doc(args.path)
    frame = load_frame(doc)
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

    doc = _load_doc(args.path)
    ovm = load_ovm(doc)
    flags = {
        "mode": "naimark" if args.naimark else "block",
        "tol": args.tol,
        "seed": args.seed,
        "max_atoms": args.max_atoms,
        "output": bool(args.output),
    }
    report = {
        "command": "ovm-dilate",
        "inputs_digest": _digest("ovm-dilate", doc, flags),
        "checks": [],
        "artifacts": {},
    }
    if args.naimark:
        dilation = naimark_dilate(ovm, rel_tol=args.tol)
        triple = dilation.as_triple()
        gram = dilation.isometry.conj().T @ dilation.isometry
        gram_residual = spectral_norm(gram - np.eye(ovm.dim_in, dtype=gram.dtype))
        report["checks"].append(_check("isometry_gram_residual", gram_residual, 1e-10))
    else:
        triple = build_block_dilation(ovm, rel_tol=args.tol)
    verdict = verify_dilation(
        ovm, triple, seed=args.seed, max_exhaustive_atoms=args.max_atoms, rel_tol=args.tol
    )
    cls = classify(ovm, seed=args.seed, max_exhaustive_atoms=args.max_atoms)
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
    report["checks"].append(_check("f_total_residual", verdict.f_total_residual, 1e-10))
    report["checks"].append(
        _check("f_multiplicative_residual", verdict.f_multiplicative_residual, 1e-10)
    )
    report["checks"].append(
        _check(
            "rank_preservation",
            0.0 if verdict.ranks_match else 1.0,
            0.0,
            passed=verdict.ranks_match,
        )
    )
    sups = {**cls.subset_sup, **verdict.subset_sup}
    if args.max_atoms != _EXHAUSTIVE_ATOM_LIMIT:
        n = ovm.atom_count
        examined = max(sup.subsets_examined for sup in sups.values())
        print(
            f"subset checks examined at most {examined} of 2^{n} = {1 << n} "
            f"subsets (max-atoms overridden to {args.max_atoms})",
            file=sys.stderr,
        )
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
    from .frames import reconstruction_residual
    from .framings import apply_rescale, check_reconstruction, is_dual_frame_pair, rescale_sqrt

    doc = _load_doc(args.path)
    framing = load_framing(doc)
    flags = {"tol": args.tol}
    report = {
        "command": "framing-rescale",
        "inputs_digest": _digest("framing-rescale", doc, flags),
        "checks": [],
        "artifacts": {},
    }
    residual = check_reconstruction(framing)
    report["checks"].append(_check("reconstruction_residual", residual, args.tol))
    plan = rescale_sqrt(framing)
    rescaled = apply_rescale(framing, plan)
    x_frame, y_frame = rescaled.frames()
    verdict = is_dual_frame_pair(x_frame, y_frame, tol=args.tol)
    report["checks"].append(
        _check("dual_pair_verdict", 0.0 if verdict else 1.0, 0.0, passed=verdict)
    )
    parseval_residual = reconstruction_residual(x_frame.vectors, x_frame.vectors)
    report["artifacts"]["alphas"] = plan.alphas.tolist()
    report["artifacts"]["betas"] = plan.betas.tolist()
    report["artifacts"]["rescaled_parseval_residual"] = parseval_residual
    report["artifacts"]["rescaled_is_parseval"] = bool(parseval_residual <= 1e-8)
    return _emit(report)


def cmd_chl5(args) -> int:
    from . import rademacher
    from .frames import reconstruction_residual
    from .framings import apply_rescale, check_reconstruction, is_dual_frame_pair, rescale_sqrt

    if args.nmax < 1 or args.nmax > 11:
        raise SchemaError("--nmax must be between 1 and 11")
    if not args.p > 1.0 or args.p == 2.0:
        raise SchemaError("--p must exceed 1 and differ from 2")
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
    for n in range(1, args.nmax + 1):
        block = rademacher.build_block(n, args.p)
        eps = block.eps
        ortho = int(np.abs(eps @ eps.T - (1 << n) * np.eye(n, dtype=np.int64)).max())
        idem = rademacher.projection_idempotent(block)
        fixes = float(np.abs(rademacher.project(block, block.r.T) - block.r.T).max())
        parseval = rademacher.parseval_check(block)
        dual_side = rademacher.dual_side_check(block)
        r_norm_defect = float(np.abs(lp_norm(block.r, block.p) - 1.0).max())
        lower, upper, maximizer = rademacher.projection_norm_bounds(block, start)
        # a function of the first n signs, where P_{n+1} acts as P_n
        start = np.repeat(maximizer, 2)
        lowers.append(lower)
        kh = rademacher.khintchine_report(block)
        prefix = f"n{n}_"
        report["checks"].append(_check(prefix + "sign_orthogonality", ortho, 0.0))
        report["checks"].append(_check(prefix + "projection_idempotent", idem, 1e-10))
        report["checks"].append(_check(prefix + "projection_fixes_r", fixes, 1e-10))
        report["checks"].append(_check(prefix + "parseval_residual", parseval, 1e-9))
        report["checks"].append(_check(prefix + "dual_side_residual", dual_side, 1e-12))
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
    framing = rademacher.assemble_framing(args.p, args.nmax)
    recon = check_reconstruction(framing)
    report["checks"].append(_check("assembled_reconstruction_residual", recon, 1e-9))
    plan = rescale_sqrt(framing)
    rescaled = apply_rescale(framing, plan)
    x_frame, y_frame = rescaled.frames()
    parseval_residual = reconstruction_residual(x_frame.vectors, x_frame.vectors)
    report["checks"].append(
        _check("assembled_rescaled_parseval_residual", parseval_residual, 1e-10)
    )
    verdict = is_dual_frame_pair(x_frame, y_frame)
    report["checks"].append(
        _check("assembled_dual_pair_verdict", 0.0 if verdict else 1.0, 0.0, passed=verdict)
    )
    report["artifacts"]["pair_count"] = framing.count
    report["artifacts"]["dim"] = framing.dim
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
    frame.add_argument("--tol", type=float, default=1e-8, help=(
        "absolute check threshold: the Parseval flag and --dilate need both frame "
        "bounds within tol of 1 and ||S - I|| at most tol"))
    frame.set_defaults(handler=cmd_frame_analyze)

    ovm = sub.add_parser("ovm-dilate", help="dilate a measure, verify the triple")
    ovm.add_argument("path", help="ovm JSON file")
    mode = ovm.add_mutually_exclusive_group(required=True)
    mode.add_argument("--naimark", action="store_true", help="positive-measure dilation")
    mode.add_argument("--block", action="store_true", help="general block dilation")
    ovm.add_argument("--tol", type=float, default=DEFAULT_REL_TOL, help=(
        "relative rank cutoff: an atom's singular values (eigenvalues under --naimark) "
        "at or below tol times its largest count as zero"))
    ovm.add_argument("--seed", type=int, default=0)
    ovm.add_argument(
        "--max-atoms",
        type=int,
        default=_EXHAUSTIVE_ATOM_LIMIT,
        help=(
            "exhaustive subset limit; beyond it verification and classification "
            "sample subsets for the checks the atoms leave undecided"
        ),
    )
    ovm.add_argument("--output", help="write the dilation triple to this JSON file")
    ovm.set_defaults(handler=cmd_ovm_dilate)

    framing = sub.add_parser("framing-rescale", help="norm-balancing rescale plan")
    framing.add_argument("path", help="framing JSON file")
    framing.add_argument("--tol", type=float, default=1e-8, help=(
        "absolute check threshold on the reconstruction residual "
        "||sum_i x_i (x) y_i - I||, before and after the rescale"))
    framing.set_defaults(handler=cmd_framing_rescale)

    chl = sub.add_parser("chl5", help="sign-matrix framing sweep on l_p blocks")
    chl.add_argument("--p", type=float, required=True, help="exponent, p > 1 and p != 2")
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
