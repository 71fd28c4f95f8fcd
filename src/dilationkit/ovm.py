"""Operator-valued measures on a finite atom set.

An Ovm holds atoms E({0}), ..., E({n-1}); the measure of a subset encoded by
a bit mask is the sum of the selected atoms.  Classification distinguishes
probability, positive, projection-valued, spectral and self-adjoint measures,
and rank-one measures convert back and forth to framings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import _subsets
from ._subsets import _EXHAUSTIVE_ATOM_LIMIT
from .errors import AtomRankTooHigh
from .linalg import DEFAULT_REL_TOL, numerical_rank, outer_pair, spectral_norm

if TYPE_CHECKING:
    # imported where used, so that measures load without the framing modules
    from .framings import Framing


@dataclass(frozen=True)
class Ovm:
    """Finitely supported operator-valued measure.

    `atoms` has shape (n, dim_out, dim_in); atom i is the measure of the
    singleton {i}.  Subsets are bit masks: bit i set means atom i included.
    """

    atoms: np.ndarray

    def __post_init__(self):
        arr = np.array(self.atoms)
        if arr.ndim != 3:
            raise ValueError(f"atoms must be a 3d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError(f"atoms must be non-empty, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("atoms contain non-finite entries")
        # np.array already made a private copy; astype converts it in place of a second one
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
        arr.flags.writeable = False
        object.__setattr__(self, "atoms", arr)

    @property
    def atom_count(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim_out(self) -> int:
        return self.atoms.shape[1]

    @property
    def dim_in(self) -> int:
        return self.atoms.shape[2]

    @property
    def is_square(self) -> bool:
        return self.dim_out == self.dim_in

    @property
    def full_mask(self) -> int:
        return (1 << self.atom_count) - 1

    def evaluate(self, mask: int) -> np.ndarray:
        """Measure of the subset encoded by `mask`, accumulated in index
        order; the empty set gives the zero operator."""
        return _subsets.masked_sums(self.atoms, [mask])[0]


def dual_ovm(ovm: Ovm) -> Ovm:
    """Measure with adjoint atoms; an involution exchanging dim_in and dim_out."""
    return Ovm(ovm.atoms.conj().transpose(0, 2, 1))


@dataclass(frozen=True)
class OvmClassification:
    """Classification flags, each meaning 'within tolerance on every subset'.

    `sampled` is True when the atom count is above the exhaustive limit, so
    that subsets are sampled instead of enumerated for any statistic the
    atoms leave open.  It does not make every flag one-sided: `subset_sup`
    maps each subset statistic behind the flags to its SubsetSup, and a flag
    whose statistic has mode "certified" or "exhaustive" is two-sided.  Only
    a flag whose statistic has mode "sampled" is one-sided: a False is
    definitive, a True only says that no sampled subset violated it.
    """

    is_probability: bool
    is_positive: bool
    is_projection_valued: bool
    is_spectral: bool
    is_self_adjoint: bool
    ovm_norm: float
    sampled: bool = False
    subset_sup: dict = field(default_factory=dict)


def classify(
    ovm: Ovm,
    tol: float = 1e-10,
    *,
    seed: int = 0,
    max_exhaustive_atoms: int = _EXHAUSTIVE_ATOM_LIMIT,
) -> OvmClassification:
    """Classify a measure by the suprema of its subset statistics.

    Each supremum is certified from the atoms when the atom-level bounds
    decide it (see the statistic functions below for the proofs), and only
    otherwise enumerated over all 2^n subsets.  Above
    `max_exhaustive_atoms` atoms, as in verify_dilation, `sampled` is set and
    the statistics left open are taken over the subsets that
    _subsets.sample_masks draws from `seed` instead.
    """
    sampled = ovm.atom_count > max_exhaustive_atoms
    atoms = ovm.atoms
    total = ovm.evaluate(ovm.full_mask)
    norm_bound = float(_subsets.batched_spectral_norms(atoms).sum())
    stats, probability, spectral = [], False, False
    if ovm.is_square:
        herm = _self_adjoint_defects(atoms)
        negativity = np.maximum(_negativity(atoms), 0.0)
        norm_bound = min(norm_bound, _norm_bound(total, herm, negativity))
        # N_ii is the idempotent defect of the singleton {i}.  If one exceeds
        # tol, max N_ij does too, so the measure is not spectral and the n^2
        # pair defects are not needed: ||E(B)^2 - E(B)|| <= U^2 + U with U
        # the ovm_norm bound, as ||E(B)|| <= U.
        if float(_idempotent_defects(atoms).max()) > tol:
            idempotent_bound, spectral = norm_bound * norm_bound + norm_bound, False
        else:
            pairs = _pair_defects(atoms)
            idempotent_bound, spectral = float(pairs.sum()), float(pairs.max()) <= tol
        stats = [
            _subsets.Statistic(
                "self_adjoint_defect", _self_adjoint_defects, float(herm.sum()), tol
            ),
            _subsets.Statistic("negativity", _negativity, float(negativity.sum()), tol),
            _subsets.Statistic(
                "idempotent_defect", _idempotent_defects, idempotent_bound, tol
            ),
        ]
        eye = np.eye(ovm.dim_out, dtype=atoms.dtype)
        probability = spectral_norm(total - eye) <= tol
    stats.append(_subsets.Statistic("ovm_norm", _subsets.batched_spectral_norms, norm_bound))
    sup = _subsets.subset_sup(atoms, stats, sampled, seed)

    def passes(name):
        return name in sup and sup[name].lower <= tol

    self_adjoint = passes("self_adjoint_defect")
    return OvmClassification(
        is_probability=probability,
        is_positive=self_adjoint and passes("negativity"),
        is_projection_valued=passes("idempotent_defect"),
        is_spectral=spectral,
        is_self_adjoint=self_adjoint,
        ovm_norm=sup["ovm_norm"].lower,
        sampled=sampled,
        subset_sup=sup,
    )


def _self_adjoint_defects(stack: np.ndarray) -> np.ndarray:
    """||E(B) - E(B)*|| for each matrix of a stack.

    Bound: E(B) - E(B)* = sum_{j in B} (E_j - E_j*), so by the triangle
    inequality every subset has defect at most sum_j ||E_j - E_j*||.
    """
    return _subsets.batched_spectral_norms(stack - stack.conj().transpose(0, 2, 1))


def _negativity(stack: np.ndarray) -> np.ndarray:
    """-lambda_min(sym E(B)) for each matrix of a stack, sym A = (A + A*) / 2.

    Bound: sym is linear, so sym E(B) = sum_{j in B} sym E_j, and Weyl's
    inequality lambda_min(X + Y) >= lambda_min(X) + lambda_min(Y) gives
    lambda_min(sym E(B)) >= sum_{j in B} lambda_min(sym E_j)
    >= sum_j min(0, lambda_min(sym E_j)).  Negated: every subset has
    negativity at most sum_j max(0, -lambda_min(sym E_j)).
    """
    sym = (stack + stack.conj().transpose(0, 2, 1)) / 2
    # 0.0 - x rather than -x, so the empty set gives 0.0 and not -0.0
    return 0.0 - np.linalg.eigvalsh(sym)[:, 0]


def _norm_bound(total: np.ndarray, herm: np.ndarray, negativity: np.ndarray) -> float:
    """Upper bound on sup_B ||E(B)|| for a square measure, from ||E(Omega)||,
    the atoms' self-adjoint defects ||E_j - E_j*|| and their negativities
    max(0, -lambda_min(sym E_j)).

    Proof, first for Hermitian atoms.  For any B with complement B^c,
    E(B) = E(Omega) - E(B^c), so by Weyl lambda_max(E(B)) <= ||E(Omega)||
    + sum_{j in B^c} max(0, -lambda_min(E_j)), and -lambda_min(E(B)) <=
    sum_{j in B} max(0, -lambda_min(E_j)); both are at most
    ||E(Omega)|| + sum_j max(0, -lambda_min(E_j)), which bounds ||E(B)||.
    For positive atoms the sum vanishes and the bound is attained at Omega.
    In general write E_j = S_j + K_j with S_j = sym E_j and K_j skew.  Then
    ||E(B)|| <= ||S(B)|| + sum_j ||K_j||, the Hermitian case bounds ||S(B)||
    by ||S(Omega)|| + sum_j max(0, -lambda_min(S_j)), and ||S(Omega)|| <=
    ||E(Omega)|| + sum_j ||K_j||.  As 2 ||K_j|| = ||E_j - E_j*||, the bound
    is ||E(Omega)|| + sum_j max(0, -lambda_min(S_j)) + sum_j ||E_j - E_j*||.
    """
    return spectral_norm(total) + float(negativity.sum()) + float(herm.sum())


def _idempotent_defects(stack: np.ndarray) -> np.ndarray:
    """||E(B)^2 - E(B)|| for each matrix of a stack.

    Bound: E(B)^2 - E(B) = sum_{i, j in B} (E_i E_j - delta_ij E_i), so by
    the triangle inequality every subset has defect at most sum_{i, j} N_ij
    with N from _pair_defects.  classify uses it only when every singleton
    passes; otherwise it takes U^2 + U, U a bound on sup_B ||E(B)||.
    """
    return _subsets.batched_spectral_norms(stack @ stack - stack)


def _pair_defects(atoms: np.ndarray) -> np.ndarray:
    """n x n matrix N_ij = ||E_i E_j - delta_ij E_i||.

    A measure is spectral, E(A)E(B) = E(A intersect B) for all subsets, iff
    every N_ij vanishes, because E(A)E(B) - E(A intersect B) =
    sum_{i in A, j in B} (E_i E_j - delta_ij E_i); so max N is the
    spectrality residual.
    """
    n = atoms.shape[0]
    out = np.empty((n, n))
    # one row at a time keeps the product stack at n matrices, not n^2
    for i in range(n):
        products = atoms[i] @ atoms
        products[i] -= atoms[i]
        out[i] = _subsets.batched_spectral_norms(products)
    return out


def induced_from_framing(framing: Framing, tol: float = 1e-8) -> Ovm:
    """Rank-one measure with atoms x_i (x) y_i.

    The framing must satisfy its reconstruction identity within `tol`, so the
    induced measure of the full set is the identity within the same bound.
    """
    from .framings import check_reconstruction

    residual = check_reconstruction(framing)
    if residual > tol:
        raise ValueError(
            f"framing reconstruction residual {residual:.3e} exceeds {tol:.1e}"
        )
    return Ovm(outer_pair(framing.x, framing.y))


def framing_from_rank_one_ovm(
    ovm: Ovm, rel_tol: float = DEFAULT_REL_TOL, tol: float = 1e-8
) -> Framing:
    """Recover a framing from a probability measure with rank-one atoms.

    Each atom factors as x_i (x) y_i; the unit-modulus freedom in the factors
    is fixed by making the largest-modulus entry of x_i real and positive.
    Atoms that vanish (largest singular value at most rel_tol times the
    global scale) yield zero pairs.

    Raises
    ------
    ValueError
        If the measure is not square or not a probability measure within tol.
    AtomRankTooHigh
        If some atom has numerical rank >= 2.
    """
    from .framings import Framing

    if not ovm.is_square:
        raise ValueError("a framing needs dim_out == dim_in")
    total_residual = spectral_norm(
        ovm.evaluate(ovm.full_mask) - np.eye(ovm.dim_out, dtype=ovm.atoms.dtype)
    )
    if total_residual > tol:
        raise ValueError(
            f"measure of the full set deviates from identity by {total_residual:.3e}"
        )
    u, s, vh = np.linalg.svd(ovm.atoms)
    scale = float(s[:, 0].max())
    xs = np.zeros((ovm.atom_count, ovm.dim_in), dtype=ovm.atoms.dtype)
    ys = np.zeros_like(xs)
    for i in range(ovm.atom_count):
        if s[i, 0] <= rel_tol * scale:
            continue
        if numerical_rank(s[i], rel_tol) > 1:
            raise AtomRankTooHigh(i)
        root = np.sqrt(s[i, 0])
        lead = u[i, :, 0]
        k = int(np.argmax(np.abs(lead)))
        phase = np.conj(lead[k]) / np.abs(lead[k])
        xs[i] = root * phase * lead
        ys[i] = root * phase * vh[i, 0].conj()
    return Framing(xs, ys)
