"""The alpha functional of a representation through a measure.

A representation is a formal sum of terms coeffs[i] E(. intersect
masks[i]) vectors[i].  The alpha functional measures the minimal norm a
dilation can certify and omega_upper_bound the maximal one;
minimality_gap compares alpha with its bound through a dilation triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _subsets
from .errors import ExactModeTooLarge
from .linalg import spectral_norm

if TYPE_CHECKING:
    from .dilation import DilationTriple
    from .ovm import Ovm

_EXACT_TERM_LIMIT = 24


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


def _norm_at(images: np.ndarray, mask: int) -> float:
    """Norm of the subset sum of `images` at `mask`, summed from zero in
    index order by _subsets.masked_sums, so a reported value is what its
    witness reproduces whichever search chose the witness."""
    return float(np.linalg.norm(_subsets.masked_sums(images[:, :, None], [mask])[0, :, 0]))


@dataclass(frozen=True)
class AlphaNorm:
    """Value of the alpha functional and the subset attaining it.

    `value` is the norm at `witness`, the smallest maximizing mask, so the
    witness holds no atom with an exactly zero image.
    """

    value: float
    witness: int


def alpha_norm(ovm: Ovm, rep: Representation) -> AlphaNorm:
    """Exact alpha functional sup_B || sum_i coeffs[i] E(B intersect masks[i]) vectors[i] ||.

    The supremum is over all subsets; by additivity it reduces to the largest
    norm of a subset sum of the per-atom image vectors, enumerated exactly.
    Atoms with an exactly zero image are excluded before enumeration.

    Raises
    ------
    ExactModeTooLarge
        If more than _EXACT_TERM_LIMIT atoms have nonzero images; use
        alpha_norm_bounds for certified two-sided bounds instead.
    """
    _check_rep(ovm, rep)
    images = _atom_images(ovm, rep)
    nonzero = np.flatnonzero(images.any(axis=1)).tolist()
    if len(nonzero) > _EXACT_TERM_LIMIT:
        raise ExactModeTooLarge(
            f"{len(nonzero)} nonzero atoms exceed the exact enumeration ceiling "
            f"{_EXACT_TERM_LIMIT}"
        )
    _, reduced = _subsets.max_subset_norm(images[nonzero])
    # dropping the zero-image atoms keeps the order of masks, so the
    # smallest reduced witness maps to the smallest witness
    witness = sum(1 << nonzero[pos] for pos in _subsets.bit_indices(reduced))
    return AlphaNorm(value=_norm_at(images, witness), witness=witness)


@dataclass(frozen=True)
class AlphaBounds:
    """Certified enclosure lower <= alpha <= upper from heuristic search.

    `lower` is the norm at `witness`; `upper` is the triangle-inequality
    bound sum_j ||v_j||.
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
    lower = _norm_at(images, witness)
    return AlphaBounds(lower=lower, upper=float(norms.sum()), witness=witness)


def omega_upper_bound(ovm: Ovm, rep: Representation) -> float:
    """Representation-dependent upper bound for the omega functional:
    the sum over terms of sup_B || coeffs[i] E(B intersect masks[i]) vectors[i] ||.

    Each term's supremum is alpha_norm of that term alone, summed left to
    right, so on a single-term representation this equals alpha_norm
    exactly.

    Raises
    ------
    ExactModeTooLarge
        If a term touches more than _EXACT_TERM_LIMIT atoms with nonzero images.
    """
    _check_rep(ovm, rep)
    total = 0.0
    for i in range(rep.term_count):
        single = Representation(
            rep.coeffs[i : i + 1], (rep.masks[i],), rep.vectors[i : i + 1]
        )
        total += alpha_norm(ovm, single).value
    return total


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
