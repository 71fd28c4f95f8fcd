"""Dilations of operator-valued measures to idempotent-valued ones.

A dilation triple (S, F, T) represents a measure as E(B) = S F(B) T where F
is a diagonal 0/1 projection-valued measure on a larger space: the dilation
coordinates are partitioned into one block per atom, and F(B) projects onto
the blocks of the atoms in B.  The partition is the stored form of F.
build_block_dilation constructs a triple for an arbitrary measure by
stacking orthonormal bases of the atom ranges; naimark_dilate specializes to
positive measures, where T can be an isometry-like factor V with S = V*.
The alpha functional measures the minimal norm a dilation can certify and
omega_upper_bound the maximal one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _subsets
from ._subsets import _EXHAUSTIVE_ATOM_LIMIT
from .errors import ExactModeTooLarge, IndefiniteInput, NotPositive
from .linalg import (
    DEFAULT_REL_TOL,
    fix_column_phases,
    numerical_rank,
    psd_factor,
    spectral_norm,
)
from .ovm import Ovm

_EXACT_TERM_LIMIT = 24
# The threshold verify_dilation certifies the eval residual against; a
# caller checking DilationReport.eval_residual must use the same value.
EVAL_TOL = 1e-10


@dataclass(frozen=True)
class Representation:
    """Formal sum  sum_i coeffs[i] E(. intersect masks[i]) vectors[i].

    Each term pairs a scalar coefficient, a subset mask, and a vector in the
    measure's input space.
    """

    coeffs: np.ndarray
    masks: tuple
    vectors: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs))
        vectors = np.atleast_2d(np.asarray(self.vectors))
        masks = tuple(int(m) for m in self.masks)
        if coeffs.ndim != 1 or vectors.ndim != 2:
            raise ValueError("coeffs must be a vector and vectors a 2d array")
        if not (len(coeffs) == len(masks) == vectors.shape[0]):
            raise ValueError("coeffs, masks and vectors must have equal lengths")
        if any(m < 0 for m in masks):
            raise ValueError("masks must be non-negative")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "vectors", vectors)

    @classmethod
    def from_terms(cls, terms) -> "Representation":
        coeffs, masks, vectors = [], [], []
        for coeff, mask, vector in terms:
            coeffs.append(coeff)
            masks.append(mask)
            vectors.append(np.asarray(vector))
        return cls(np.array(coeffs), tuple(masks), np.array(vectors))

    @property
    def term_count(self) -> int:
        return len(self.masks)

    def scaled(self, c) -> "Representation":
        return Representation(c * self.coeffs, self.masks, self.vectors)


def _check_rep(ovm: Ovm, rep: Representation):
    if rep.vectors.shape[1] != ovm.dim_in:
        raise ValueError(
            f"representation vectors have dimension {rep.vectors.shape[1]}, "
            f"measure expects {ovm.dim_in}"
        )
    if any(mask > ovm.full_mask for mask in rep.masks):
        raise ValueError("representation masks reference atoms beyond the measure")


def _atom_images(ovm: Ovm, rep: Representation):
    """Per-atom vectors v_j = E({j}) applied to the combined coefficient of
    atom j across all terms, sum of coeffs[i] vectors[i] over the terms whose
    mask holds j; the alpha functional is the largest euclidean norm of a
    subset sum of these."""
    bits = _subsets.mask_bits(rep.masks, ovm.atom_count)
    combined = bits.T @ (rep.coeffs[:, None] * rep.vectors)
    return (ovm.atoms @ combined[:, :, None])[:, :, 0]


@dataclass(frozen=True)
class AlphaNorm:
    """Value of the alpha functional and the subset attaining it.

    `witness` is the smallest maximizing mask, so it holds no atom with an
    exactly zero image.
    """

    value: float
    witness: int


def alpha_norm(ovm: Ovm, rep: Representation, exact_limit: int = _EXACT_TERM_LIMIT) -> AlphaNorm:
    """Exact alpha functional sup_B || sum_i coeffs[i] E(B intersect masks[i]) vectors[i] ||.

    The supremum is over all subsets; by additivity it reduces to the largest
    norm of a subset sum of the per-atom image vectors, enumerated exactly.
    Atoms with an exactly zero image are excluded before enumeration.

    Raises
    ------
    ExactModeTooLarge
        If more than `exact_limit` atoms have nonzero images; use
        alpha_norm_bounds for certified two-sided bounds instead.
    """
    _check_rep(ovm, rep)
    images = _atom_images(ovm, rep)
    nonzero = np.flatnonzero(images.any(axis=1)).tolist()
    if len(nonzero) > exact_limit:
        raise ExactModeTooLarge(
            f"{len(nonzero)} nonzero atoms exceed the exact enumeration ceiling {exact_limit}"
        )
    value, reduced = _subsets.max_subset_norm(images[nonzero])
    # dropping the zero-image atoms keeps the order of masks, so the
    # smallest reduced witness maps to the smallest witness
    witness = sum(1 << nonzero[pos] for pos in _subsets.bit_indices(reduced))
    return AlphaNorm(value=value, witness=witness)


@dataclass(frozen=True)
class AlphaBounds:
    """Certified enclosure lower <= alpha <= upper from heuristic search.

    `witness` attains `lower`; `upper` is the triangle-inequality bound
    sum_j ||v_j||.
    """

    lower: float
    upper: float
    witness: int


def alpha_norm_bounds(ovm: Ovm, rep: Representation) -> AlphaBounds:
    """Two-sided alpha bounds without exhaustive enumeration.

    The lower bound comes from a greedy pass over atoms in decreasing image
    norm, keeping an atom whenever it increases the running norm; the subset
    it builds is a genuine candidate, so the bound is certified.
    """
    _check_rep(ovm, rep)
    images = _atom_images(ovm, rep)
    norms = np.linalg.norm(images, axis=1)
    order = sorted(range(len(norms)), key=lambda j: -norms[j])
    current = np.zeros(images.shape[1], dtype=images.dtype)
    current_norm = 0.0
    witness = 0
    for j in order:
        if norms[j] == 0.0:
            break
        candidate = current + images[j]
        candidate_norm = float(np.linalg.norm(candidate))
        if candidate_norm > current_norm:
            current = candidate
            current_norm = candidate_norm
            witness |= 1 << j
    return AlphaBounds(lower=current_norm, upper=float(norms.sum()), witness=witness)


def omega_upper_bound(ovm: Ovm, rep: Representation, exact_limit: int = _EXACT_TERM_LIMIT) -> float:
    """Representation-dependent upper bound for the omega functional:
    the sum over terms of sup_B || coeffs[i] E(B intersect masks[i]) vectors[i] ||.

    Each term's supremum is alpha_norm of that term alone, summed left to
    right, so on a single-term representation this equals alpha_norm
    exactly.

    Raises
    ------
    ExactModeTooLarge
        If a term touches more than `exact_limit` atoms with nonzero images.
    """
    _check_rep(ovm, rep)
    total = 0.0
    for i in range(rep.term_count):
        single = Representation(
            rep.coeffs[i : i + 1], (rep.masks[i],), rep.vectors[i : i + 1]
        )
        total += alpha_norm(ovm, single, exact_limit).value
    return total


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

    @property
    def total_dim(self) -> int:
        return self.isometry.shape[0]

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
        If some atom is non-Hermitian or has a significantly negative
        eigenvalue; carries the atom index.
    """
    if not ovm.is_square:
        raise ValueError("positive measures must be square")
    factors = []
    for j in range(ovm.atom_count):
        atom = ovm.atoms[j]
        herm_defect = spectral_norm(atom - atom.conj().T)
        if herm_defect > rel_tol * max(1.0, spectral_norm(atom)):
            raise NotPositive(j, f"atom {j} is not Hermitian (defect {herm_defect:.3e})")
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
    witness.  The F residuals (`f_total_residual` for
    F(Omega) = I, `f_multiplicative_residual` for F(A)F(B) = F(A intersect
    B), `f_self_adjoint_residual` for F* = F) are exactly zero, because a
    triple's F is a coordinate partition.  The probability fields are None
    unless the measure of the full set is the identity, in which case they
    certify that right @ left is idempotent.  `rank_left` is the numerical
    rank of left under linalg.numerical_rank at verify_dilation's rel_tol,
    the rule behind every rank here.  `block_rank_pairs` lists (rank F({j}),
    rank E({j})); a structure-preserving dilation keeps them equal.  `sampled` is True when the atom count is above the exhaustive
    limit; a certified eval_residual verdict is two-sided even then.
    """

    eval_residual: float
    f_total_residual: float
    f_multiplicative_residual: float
    f_self_adjoint_residual: float
    rank_left: int
    right_min_singular: float
    block_rank_pairs: tuple
    ranks_match: bool
    e_total_residual: float | None
    probability_idempotent_residual: float | None
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
    rank_left = numerical_rank(np.linalg.svd(triple.left, compute_uv=False), rel_tol)
    if triple.right.size:
        right_min_singular = float(np.linalg.svd(triple.right, compute_uv=False).min())
    else:
        right_min_singular = 0.0
    atom_singular = np.linalg.svd(ovm.atoms, compute_uv=False)
    pairs = tuple(
        (f_rank, numerical_rank(s, rel_tol))
        for f_rank, s in zip(triple.block_ranks, atom_singular)
    )
    e_total_residual = None
    prob_idem = None
    st_residual = None
    if ovm.is_square:
        e_total = ovm.evaluate(ovm.full_mask)
        eye = np.eye(ovm.dim_out, dtype=ovm.atoms.dtype)
        e_total_residual = spectral_norm(e_total - eye)
        st = triple.left @ triple.right
        st_residual = spectral_norm(st - e_total)
        if e_total_residual <= 1e-8:
            # With g = right @ left, g @ g - g = right @ (st - I) @ left.  The
            # Q factors of right = Q R and left* = Q' R' have orthonormal
            # columns, so its norm is that of the small R (st - I) R'*.
            r_right = np.linalg.qr(triple.right, mode="r")
            r_left = np.linalg.qr(triple.left.conj().T, mode="r")
            prob_idem = spectral_norm(r_right @ (st - eye) @ r_left.conj().T)
    return DilationReport(
        eval_residual=eval_residual,
        f_total_residual=0.0,
        f_multiplicative_residual=0.0,
        f_self_adjoint_residual=0.0,
        rank_left=rank_left,
        right_min_singular=right_min_singular,
        block_rank_pairs=pairs,
        ranks_match=all(a == b for a, b in pairs),
        e_total_residual=e_total_residual,
        probability_idempotent_residual=prob_idem,
        st_residual=st_residual,
        sampled=sampled,
        subset_sup=sup,
    )


@dataclass(frozen=True)
class MinimalityGap:
    """alpha <= constant * triple_norm, the cost of routing a representation
    through a dilation: `constant` is max_B ||left F(B)|| and `triple_norm`
    the norm of sum_i coeffs[i] F(masks[i]) right vectors[i]."""

    alpha: float
    triple_norm: float
    constant: float


def minimality_gap(ovm: Ovm, rep: Representation, triple: DilationTriple) -> MinimalityGap:
    """Compare the alpha functional with its bound through a dilation triple.

    Raises
    ------
    ExactModeTooLarge
        From alpha_norm, if more than its exact limit of atoms have nonzero
        images.
    """
    alpha = alpha_norm(ovm, rep).value
    # row i is F(masks[i]) right vectors[i]: the lifted vector restricted to
    # the blocks of the atoms in masks[i]
    selected = np.repeat(
        _subsets.mask_bits(rep.masks, triple.atom_count), triple.block_ranks, axis=1
    )
    triple_norm = float(np.linalg.norm(rep.coeffs @ (selected * (rep.vectors @ triple.right.T))))
    # ||left F(B)|| <= ||left|| ||F(B)|| <= ||left||, with equality at
    # B = Omega because F(Omega) = I.
    constant = spectral_norm(triple.left)
    return MinimalityGap(alpha=alpha, triple_norm=triple_norm, constant=constant)
