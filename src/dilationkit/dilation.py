"""Dilations of operator-valued measures to idempotent-valued ones.

A dilation triple (S, F, T) represents a measure as E(B) = S F(B) T where F
is a diagonal 0/1 projection-valued measure on a larger space: the dilation
coordinates are partitioned into one block per atom, and F(B) projects onto
the blocks of the atoms in B.  The partition is the stored form of F.
build_block_dilation constructs a triple for an arbitrary measure by
stacking orthonormal bases of the atom ranges; naimark_dilate specializes to
positive measures, where T can be an isometry-like factor V with S = V*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _subsets
from ._subsets import _EXHAUSTIVE_ATOM_LIMIT
from .errors import IndefiniteInput, NotPositive
from .linalg import (
    DEFAULT_REL_TOL,
    fix_column_phases,
    numerical_rank,
    psd_factor,
    spectral_norm,
)
from .ovm import Ovm, _self_adjoint_defects

# The threshold verify_dilation certifies the eval residual against; a
# caller checking DilationReport.eval_residual must use the same value.
EVAL_TOL = 1e-10


@dataclass(frozen=True)
class DilationTriple:
    """Factorization E(B) = left @ F(B) @ right with F a coordinate partition.

    The dilation space is split into consecutive coordinate blocks, with
    `block_ranks[j]` coordinates for atom j, and F(B) is the 0/1 diagonal
    projection onto the blocks of the atoms in B.  The ranks must partition
    the dilation space, so F(Omega) = I, F(A)F(B) = F(A intersect B) and
    F(B)* = F(B) hold exactly for every triple that can be constructed.

    Raises
    ------
    ValueError
        If a block rank is negative or the ranks do not sum to both the
        column count of `left` and the row count of `right`.
    """

    left: np.ndarray
    right: np.ndarray
    block_ranks: tuple

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.block_ranks)
        if any(r < 0 for r in ranks):
            raise ValueError(f"block ranks {ranks} must be non-negative")
        if not sum(ranks) == self.left.shape[1] == self.right.shape[0]:
            raise ValueError(
                f"block ranks sum to {sum(ranks)}, but left has {self.left.shape[1]} "
                f"columns and right has {self.right.shape[0]} rows"
            )
        object.__setattr__(self, "block_ranks", ranks)

    @property
    def atom_count(self) -> int:
        return len(self.block_ranks)

    @property
    def total_dim(self) -> int:
        return self.left.shape[1]

    @property
    def dim_out(self) -> int:
        return self.left.shape[0]

    @property
    def dim_in(self) -> int:
        return self.right.shape[1]

    @property
    def full_mask(self) -> int:
        return (1 << self.atom_count) - 1

    def _selected(self, mask: int) -> np.ndarray:
        """Boolean diagonal of F(mask): the coordinates of the atoms in mask."""
        return np.repeat(_subsets.mask_bits([mask], self.atom_count)[0], self.block_ranks)

    def f_evaluate(self, mask: int) -> np.ndarray:
        """Dense F(mask), the 0/1 diagonal matrix of the selected blocks."""
        return np.diag(self._selected(mask).astype(float))

    @property
    def f_atoms(self) -> np.ndarray:
        """Dense (n, T, T) stack of F({j}), built on each access for
        library callers only; the partition `block_ranks` is the stored
        form of F, and `ovm-dilate --output` writes F's text from it."""
        out = np.zeros((self.atom_count, self.total_dim, self.total_dim))
        idx = np.arange(self.total_dim)
        out[np.repeat(np.arange(self.atom_count), self.block_ranks), idx, idx] = 1.0
        return out

    def evaluate(self, mask: int) -> np.ndarray:
        keep = self._selected(mask)
        return self.left[:, keep] @ self.right[keep]

    def atom_products(self) -> np.ndarray:
        """Stack of left @ F({j}) @ right, the product of atom j's columns of
        left and rows of right; subset sums of these are the dilated measure,
        by linearity."""
        offsets = np.cumsum((0,) + self.block_ranks)
        return np.stack(
            [self.left[:, lo:hi] @ self.right[lo:hi] for lo, hi in zip(offsets, offsets[1:])]
        )


def _assemble(factors) -> DilationTriple:
    """Triple from per-atom factorizations E({j}) = a_j @ b_j.

    left places a_0, ..., a_{n-1} side by side, right stacks b_0, ...,
    b_{n-1}, and block j has the r_j coordinates of a_j (d_out x r_j) and
    b_j (r_j x d_in), so left @ F(B) @ right = sum_{j in B} a_j b_j.
    """
    return DilationTriple(
        left=np.hstack([a for a, _ in factors]),
        right=np.vstack([b for _, b in factors]),
        block_ranks=tuple(b.shape[0] for _, b in factors),
    )


def build_block_dilation(ovm: Ovm, rel_tol: float = DEFAULT_REL_TOL) -> DilationTriple:
    """Dilate an arbitrary measure to a diagonal idempotent-valued one.

    The dilation space is the direct sum over atoms of range E({j}), with an
    orthonormal basis q_j of each range.  left collects the bases side by
    side and right stacks q_j* E({j}), so left @ F(B) @ right telescopes to
    sum_{j in B} q_j q_j* E({j}) = E(B).  Atoms of rank zero contribute
    empty blocks; F of the full set is still the identity.
    """
    factors = []
    for atom, u, s in zip(ovm.atoms, *np.linalg.svd(ovm.atoms)[:2]):
        q = fix_column_phases(u[:, : numerical_rank(s, rel_tol)])
        factors.append((q, q.conj().T @ atom))
    return _assemble(factors)


@dataclass(frozen=True)
class NaimarkDilation:
    """Positive-measure dilation E(B) = isometry* @ F(B) @ isometry, with F
    the coordinate partition `block_ranks` of the isometry's rows.

    For a probability measure the stacked factor satisfies
    isometry* @ isometry = I, i.e. it embeds the space isometrically and the
    measure is the compression of the diagonal idempotent measure F.
    """

    isometry: np.ndarray
    block_ranks: tuple

    def as_triple(self) -> DilationTriple:
        return DilationTriple(
            left=self.isometry.conj().T,
            right=self.isometry,
            block_ranks=self.block_ranks,
        )


def naimark_dilate(ovm: Ovm, rel_tol: float = DEFAULT_REL_TOL) -> NaimarkDilation:
    """Dilate a positive measure through per-atom factorizations E({j}) = V_j* V_j.

    Parameters
    ----------
    ovm : Ovm
        Square measure with Hermitian positive semidefinite atoms, up to
        rel_tol relative slack.

    Raises
    ------
    ValueError
        If the measure is not square.
    NotPositive
        For the first atom j, in index order, with ||E_j - E_j*|| > rel_tol *
        max(1, ||E_j||) (ovm.classify's `self_adjoint_defect` at {j}) or with
        an eigenvalue that linalg.psd_factor rejects at rel_tol; carries j.
    """
    if not ovm.is_square:
        raise ValueError("positive measures must be square")
    herm = _self_adjoint_defects(ovm.atoms)
    norms = _subsets.batched_spectral_norms(ovm.atoms)
    factors = []
    for j, atom in enumerate(ovm.atoms):
        if herm[j] > rel_tol * max(1.0, norms[j]):
            raise NotPositive(j, f"atom {j} is not Hermitian (defect {herm[j]:.3e})")
        try:
            v, _ = psd_factor(atom, rel_tol)
        except IndefiniteInput as exc:
            raise NotPositive(j, f"atom {j} is not positive semidefinite: {exc}") from exc
        factors.append((v.conj().T, v))
    triple = _assemble(factors)
    return NaimarkDilation(isometry=triple.right, block_ranks=triple.block_ranks)


@dataclass(frozen=True)
class DilationReport:
    """Residuals and invariants of a triple checked against a measure.

    All residuals are spectral norms.  `eval_residual` bounds
    sup_B ||E(B) - left F(B) right|| against the threshold EVAL_TOL: on a
    certified pass it is the certified upper bound sum_j ||Delta_j||, with
    Delta_j = E({j}) - left F({j}) right; on a certified fail it is the
    value at the witness subset; when the subsets are enumerated it is the
    exact maximum, and when they are sampled the sampled maximum.
    `subset_sup["eval_residual"]` holds the enclosure, its mode and its
    witness.  F's identities are DilationTriple's constructor guarantee and
    are not reported.  For a square measure `st_residual` is
    ||left @ right - E(Omega)||, for Naimark's triple ||V*V - E(Omega)||;
    it is None otherwise.  `block_rank_pairs` lists
    (rank F({j}), rank E({j})); a structure-preserving dilation keeps them
    equal.  `sampled` is True when the atom count is above the exhaustive
    limit; a certified eval_residual verdict is two-sided even then.
    """

    eval_residual: float
    block_rank_pairs: tuple
    ranks_match: bool
    st_residual: float | None
    sampled: bool
    subset_sup: dict


def verify_dilation(
    ovm: Ovm,
    triple: DilationTriple,
    *,
    seed: int = 0,
    max_exhaustive_atoms: int = _EXHAUSTIVE_ATOM_LIMIT,
    rel_tol: float = DEFAULT_REL_TOL,
) -> DilationReport:
    """Measure how well a triple dilates a measure; raises nothing on bad
    triples, the residuals simply grow.  Ranks are counted by
    linalg.numerical_rank at `rel_tol`, the cutoff the triple was built with.

    The eval residual is certified against EVAL_TOL first.  By linearity
    E(B) - left F(B) right = sum_{j in B} Delta_j, so every subset's
    residual is at most sum_j ||Delta_j||, while the empty set, the
    singletons and the full set give genuine values.  Only when EVAL_TOL
    lies between the two are subsets enumerated: exhaustively for measures
    with at most `max_exhaustive_atoms` atoms, above that on the subsets
    _subsets.sample_masks draws from `seed`.  The `sampled` flag records
    that the atom count is above the limit.

    right @ left needs no idempotence check of its own.  With
    g = right @ left, g @ g - g = right @ (left @ right - I) @ left, so
    ||g @ g - g|| <= ||left|| ||right|| (st_residual + ||E(Omega) - I||),
    and ||E(Omega) - I|| is a fact about the measure, which ovm.classify
    judges for `is_probability`.
    """
    if triple.atom_count != ovm.atom_count:
        raise ValueError("triple and measure have different atom counts")
    if triple.dim_out != ovm.dim_out or triple.dim_in != ovm.dim_in:
        raise ValueError("triple and measure have mismatched dimensions")
    deltas = ovm.atoms - triple.atom_products()
    sampled = ovm.atom_count > max_exhaustive_atoms
    residual = _subsets.Statistic(
        "eval_residual",
        _subsets.batched_spectral_norms,
        float(_subsets.batched_spectral_norms(deltas).sum()),
        EVAL_TOL,
    )
    sup = _subsets.subset_sup(deltas, [residual], sampled, seed)
    result = sup["eval_residual"]
    certified_pass = result.mode == "certified" and result.upper <= EVAL_TOL
    eval_residual = result.upper if certified_pass else result.lower
    e_ranks = [numerical_rank(s, rel_tol) for s in np.linalg.svd(ovm.atoms, compute_uv=False)]
    pairs = tuple(zip(triple.block_ranks, e_ranks))
    st_residual = None
    if ovm.is_square:
        st_residual = spectral_norm(triple.left @ triple.right - ovm.evaluate(ovm.full_mask))
    return DilationReport(
        eval_residual=eval_residual,
        block_rank_pairs=pairs,
        ranks_match=all(a == b for a, b in pairs),
        st_residual=st_residual,
        sampled=sampled,
        subset_sup=sup,
    )
