"""Seeded workload inputs and the ground-truth oracle for the CLI benchmark.

Each workload is one `python -m dilationkit.cli` invocation.  The benchmark
seed generates the input file (with numpy's PCG64, which the library never
uses) and is passed on as the CLI's `--seed`; the program sees only the
generated file and its flags.  Input sizes are fixed, so every seed costs
the same work.

The oracle judges one finished invocation from the outside: exit code, the
report's `pass`, classification flags against what the generator built, and,
for a written triple, an independent numpy recheck of E(B) = S F(B) T on
seeded masks.  It returns a list of failure reasons; empty means correct.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

POVM_ATOMS, POVM_DIM = 16, 8
BLOCK_ATOMS, BLOCK_DIM = 24, 8
ORACLE_MASKS = 64
ORACLE_TOL = 1e-9
TRIPLE_NAME = "triple.json"
INPUT_NAME = "ovm.json"


def _encode(matrix: np.ndarray):
    if np.iscomplexobj(matrix):
        return [[[float(v.real), float(v.imag)] for v in row] for row in matrix]
    return matrix.tolist()


def random_povm(rng: np.random.Generator) -> np.ndarray:
    """Complex probability measure: positive definite atoms summing to I.

    Each atom starts as G G* + I/2 with G complex Gaussian, so every atom has
    full rank 8 and the dilation size is the same for every seed; conjugating
    by S^(-1/2), S the total, normalizes the sum to the identity.
    """
    g = rng.standard_normal((POVM_ATOMS, POVM_DIM, POVM_DIM, 2)) @ np.array([1.0, 1j])
    raw = g @ g.conj().transpose(0, 2, 1) + 0.5 * np.eye(POVM_DIM)
    vals, vecs = np.linalg.eigh(raw.sum(axis=0))
    inv_root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    atoms = inv_root @ raw @ inv_root
    return (atoms + atoms.conj().transpose(0, 2, 1)) / 2


def random_general_measure(rng: np.random.Generator) -> np.ndarray:
    """Real measure with non-symmetric full-rank atoms U diag(s) V^T.

    Singular values lie in [0.5, 1.5], so every atom has rank 8 at any
    rank cutoff the CLI uses, and random U, V make E(B) neither self-adjoint
    nor positive.
    """
    atoms = []
    for _ in range(BLOCK_ATOMS):
        u, _ = np.linalg.qr(rng.standard_normal((BLOCK_DIM, BLOCK_DIM)))
        v, _ = np.linalg.qr(rng.standard_normal((BLOCK_DIM, BLOCK_DIM)))
        atoms.append((u * rng.uniform(0.5, 1.5, BLOCK_DIM)) @ v.T)
    return np.stack(atoms)


def _write_ovm(workdir: str, atoms: np.ndarray) -> None:
    doc = {
        "dim_in": atoms.shape[2],
        "dim_out": atoms.shape[1],
        "atoms": [_encode(a) for a in atoms],
    }
    with open(os.path.join(workdir, INPUT_NAME), "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


class Workload:
    """One benchmark workload: CLI arguments, generated input, oracle."""

    name = ""
    why = ""
    output = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.atoms = None
        self.verdicts = {}

    def prepare(self) -> None:
        """Write the input file into the work directory (none by default)."""

    def argv(self) -> list:
        raise NotImplementedError

    def check(self, returncode: int, report_text: str) -> list:
        """Failure reasons for one invocation; empty when it is correct."""
        if returncode != 0:
            return [f"exit code {returncode}"]
        try:
            report = json.loads(report_text)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]
        if report.get("pass") is not True:
            failing = [c["name"] for c in report.get("checks", []) if not c.get("pass")]
            return [f"report pass is not true (failing checks: {failing})"]
        return self.check_report(report)

    def check_report(self, report: dict) -> list:
        return []


class Chl5Sweep(Workload):
    name = "chl5-sweep"
    why = ("only path through rademacher, rng and the assembled framing (2046 pairs); "
           "level 10 dense 1024^2 projection, eye rows and SVD dominate")
    # Level 11 doubles every dense dimension, but each np.eye(2048) is a fresh
    # 32 MiB mapping, so the run is dominated by kernel page zeroing whose
    # cost swung 13-20 s between runs on a shared 2-core machine.
    nmax = 10

    def argv(self):
        return ["chl5", "--p", "4", "--nmax", str(self.nmax), "--trials", "200",
                "--seed", str(self.seed)]

    def check_report(self, report):
        art = report.get("artifacts", {})
        pairs, dim = (1 << (self.nmax + 1)) - 2, self.nmax * (self.nmax + 1) // 2
        reasons = []
        if art.get("pair_count") != pairs or art.get("dim") != dim:
            reasons.append(f"assembled framing is {art.get('pair_count')} pairs "
                           f"in dim {art.get('dim')}, expected {pairs} in {dim}")
        levels = [str(n) for n in range(1, self.nmax + 1)]
        if sorted(art.get("levels", {}), key=int) != levels:
            reasons.append(f"report does not cover levels 1..{self.nmax}")
        return reasons


class _OvmWorkload(Workload):
    mode = ""
    expect_sampled = False
    expect_flags = {}

    def generate(self, rng):
        raise NotImplementedError

    def prepare(self):
        self.atoms = self.generate(np.random.default_rng(self.seed))
        _write_ovm(self.workdir, self.atoms)

    def argv(self):
        args = ["ovm-dilate", INPUT_NAME, "--" + self.mode, "--seed", str(self.seed)]
        if self.output:
            args += ["--output", TRIPLE_NAME]
        return args

    def check_report(self, report):
        art = report.get("artifacts", {})
        cls = art.get("classification", {})
        reasons = [
            f"classification {flag} is {cls.get(flag)}, the construction gives {want}"
            for flag, want in self.expect_flags.items()
            if cls.get(flag) is not want
        ]
        n, d = self.atoms.shape[0], self.atoms.shape[1]
        if art.get("block_ranks") != [d] * n or art.get("total_dim") != n * d:
            reasons.append(f"block ranks {art.get('block_ranks')} differ from "
                           f"{n} full-rank atoms of size {d}")
        if art.get("sampled") is not self.expect_sampled:
            reasons.append(f"sampled is {art.get('sampled')}, expected {self.expect_sampled}")
        if self.output:
            reasons += self.triple_verdict(os.path.join(self.workdir, TRIPLE_NAME))
        return reasons

    def triple_verdict(self, path: str) -> list:
        """Oracle verdict on a written triple; bytes already judged in this
        run reuse their verdict, so repeated identical outputs cost a hash."""
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            return [f"cannot read triple {path}: {exc}"]
        key = hashlib.sha256(data).hexdigest()
        if key not in self.verdicts:
            try:
                doc = json.loads(data)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                self.verdicts[key] = [f"triple is not JSON: {exc}"]
            else:
                self.verdicts[key] = triple_failures(doc, self.atoms, self.seed)
        return self.verdicts[key]


class PovmNaimark(_OvmWorkload):
    name = "povm-naimark"
    why = ("exhaustive 2^16 subset enumeration: _subsets batched norms, "
           "ovm.classify and dilation.verify_dilation on a 16-atom POVM on C^8")
    mode = "naimark"
    expect_flags = {"is_probability": True, "is_positive": True}

    def generate(self, rng):
        return random_povm(rng)


class BlockSampledWrite(_OvmWorkload):
    name = "block-sampled-write"
    why = ("24 atoms, above the exhaustive limit: sampled masks, Ovm.evaluate, "
           "block dilation of a non-positive measure and an 11.7 MB triple write")
    mode = "block"
    expect_sampled = True
    expect_flags = {"is_self_adjoint": False, "is_positive": False}
    output = True

    def generate(self, rng):
        return random_general_measure(rng)


WORKLOADS = {w.name: w for w in (Chl5Sweep, PovmNaimark, BlockSampledWrite)}


def _decode(obj, ndim: int) -> np.ndarray:
    """Array from the CLI's JSON encoding, where complex entries are [re, im]."""
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim == ndim + 1 and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    return arr


def triple_failures(doc, atoms: np.ndarray, seed: int) -> list:
    """Recheck a triple {left, right, f_atoms} against the source atoms.

    On the empty set, the full set, every singleton and ORACLE_MASKS seeded
    random masks, F(B) must be idempotent and left F(B) right must equal
    E(B), both to ORACLE_TOL in the largest entry.
    """
    try:
        left = _decode(doc["left"], 2)
        right = _decode(doc["right"], 2)
        f_atoms = _decode(doc["f_atoms"], 3)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"triple file is malformed: {exc}"]
    n = atoms.shape[0]
    if f_atoms.shape[0] != n or left.shape != (atoms.shape[1], f_atoms.shape[1]):
        return [f"triple shapes {left.shape}, {f_atoms.shape} do not fit {atoms.shape}"]
    rng = np.random.default_rng([seed, 1])
    masks = np.concatenate([
        np.zeros((1, n), dtype=bool),
        np.ones((1, n), dtype=bool),
        np.eye(n, dtype=bool),
        rng.integers(0, 2, size=(ORACLE_MASKS, n)).astype(bool),
    ])
    reasons = []
    for mask in masks:
        f_b = f_atoms[mask].sum(axis=0)
        e_b = atoms[mask].sum(axis=0)
        eval_err = float(np.abs(left @ f_b @ right - e_b).max())
        idem_err = float(np.abs(f_b @ f_b - f_b).max())
        if eval_err > ORACLE_TOL or idem_err > ORACLE_TOL:
            bits = "".join("1" if b else "0" for b in mask)
            reasons.append(f"triple misses E(B) on mask {bits}: "
                           f"eval {eval_err:.3e}, idempotent {idem_err:.3e}")
            break
    return reasons

