"""Framings: pairs of families (x_i, y_i) reconstructing every vector as
z = sum_i <z, y_i> x_i, together with rescalings and unconditionality
diagnostics for the associated multiplier sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _subsets
from .errors import ZeroPair
from .frames import (
    Frame,
    FrameBounds,
    _as_vector_array,
    frame_bounds,
    reconstruction_residual,
)
from .linalg import outer_pair

if TYPE_CHECKING:
    from fractions import Fraction


@dataclass(frozen=True)
class Framing:
    """Paired families of row vectors with a stored reconstruction tolerance.

    If `tolerance` is omitted it is set to the measured residual
    ||sum_i x_i (x) y_i - I||, so the stored bound always holds.  Passing an
    explicit tolerance turns it into a constructor check.
    """

    x: np.ndarray
    y: np.ndarray
    tolerance: float | None = None

    def __post_init__(self):
        x = _as_vector_array(self.x, "x")
        y = _as_vector_array(self.y, "y")
        if x.shape != y.shape:
            raise ValueError(f"x and y must share a shape, got {x.shape} and {y.shape}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        residual = reconstruction_residual(x, y)
        if self.tolerance is None:
            object.__setattr__(self, "tolerance", residual)
        elif residual > self.tolerance:
            raise ValueError(
                f"reconstruction residual {residual:.3e} exceeds tolerance {self.tolerance:.1e}"
            )

    @property
    def count(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def frames(self) -> tuple[Frame, Frame]:
        return Frame(self.x), Frame(self.y)


def multiplier_apply(framing: Framing, coeffs) -> np.ndarray:
    """Operator sum_i coeffs[i] x_i (x) y_i, accumulated in index order.

    Terms with an exactly zero coefficient are skipped, so indicator
    coefficients reproduce the corresponding subset sum bit for bit.
    """
    arr = np.asarray(coeffs)
    if arr.shape != (framing.count,):
        raise ValueError(f"need {framing.count} coefficients, got shape {arr.shape}")
    keep = np.flatnonzero(arr)
    terms = arr[keep, None, None] * outer_pair(framing.x[keep], framing.y[keep])
    return _subsets.masked_sums(terms, [(1 << keep.size) - 1])[0]


def check_reconstruction(framing: Framing) -> float:
    """Residual ||sum_i x_i (x) y_i - I|| of the reconstruction identity."""
    return reconstruction_residual(framing.x, framing.y)


@dataclass(frozen=True)
class UnconditionalityReport:
    """Bounds on the unconditional norm of the reconstruction expansion.

    K_u is the maximum of ||sum_i s_i x_i (x) y_i|| over sign patterns s,
    each pattern norm computed exactly as a spectral norm (the supremum
    over unit vectors is attained there, no sampling involved).
    subset_sup is the maximum over subsets B of ||sum_{i in B} x_i (x) y_i||.
    The two are equivalent: subset_sup <= K_u <= 2 subset_sup.  `exact`
    records whether every pattern was covered, by a certified bound or by
    enumeration; it is False only when a supremum was taken over a sample.
    """

    K_u: float
    exact: bool
    subset_sup: float


_EXHAUSTIVE_PATTERN_LIMIT = 20


def unconditionality_diagnostics(framing: Framing, seed: int = 0) -> UnconditionalityReport:
    """Sign-pattern and subset norms of the expansion, exhaustive up to 20 pairs.

    Pattern norms reuse the subset sums of T_i = x_i (x) y_i through
    sum_i s_i T_i = T_full - 2 sum_{i in B} T_i for the flip set B.  Both
    suprema go through _subsets.subset_sup with the bound sum_i ||T_i||,
    which holds by the triangle inequality: ||sum_{i in B} T_i|| and
    ||sum_i s_i T_i|| are both at most sum_i ||T_i||.  Above 20 pairs a
    supremum the bound leaves open is taken over the subsets
    _subsets.sample_masks draws from `seed`, and only then is `exact` False.
    """
    n = framing.count
    atoms = outer_pair(framing.x, framing.y)
    total = atoms.sum(axis=0)

    def flipped(sums):
        return _subsets.batched_spectral_norms(total - 2.0 * sums)

    bound = float(_subsets.batched_spectral_norms(atoms).sum())
    stats = [
        _subsets.Statistic("subset_sup", _subsets.batched_spectral_norms, bound),
        _subsets.Statistic("K_u", flipped, bound),
    ]
    sampled = n > _EXHAUSTIVE_PATTERN_LIMIT
    sup = _subsets.subset_sup(atoms, stats, sampled, seed)
    exact = all(s.mode != "sampled" for s in sup.values())
    return UnconditionalityReport(sup["K_u"].lower, exact, sup["subset_sup"].lower)


@dataclass(frozen=True)
class RescalePlan:
    """Diagonal rescaling (x_i, y_i) -> (alphas[i] x_i, betas[i] y_i).

    The products alphas[i] * conj(betas[i]) must equal 1, so the rescaled
    family is again a framing with the same rank-one terms.
    """

    alphas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        alphas = np.atleast_1d(np.asarray(self.alphas))
        betas = np.atleast_1d(np.asarray(self.betas))
        if alphas.shape != betas.shape or alphas.ndim != 1:
            raise ValueError("alphas and betas must be vectors of equal length")
        products = alphas * np.conj(betas)
        worst = float(np.abs(products - 1.0).max()) if alphas.size else 0.0
        if worst > 1e-12:
            raise ValueError(f"alphas[i] * conj(betas[i]) deviates from 1 by {worst:.3e}")
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)


def rescale_sqrt(framing: Framing) -> RescalePlan:
    """Norm-balancing plan with alphas[i] = (||y_i|| / ||x_i||) ** 0.5.

    Raises
    ------
    ZeroPair
        If x_i or y_i is exactly zero; the exception lists every such index.
    ValueError
        If a nonzero pair's norm, or its ratio ||y_i|| / ||x_i||, underflows
        to 0 or overflows; the message lists every such index.
    """
    with np.errstate(all="ignore"):
        ratio = np.linalg.norm(framing.y, axis=1) / np.linalg.norm(framing.x, axis=1)
    # a ratio of 0, inf or nan comes from a zero side, or from a norm or a
    # quotient outside the float range
    bad = np.flatnonzero(~((ratio > 0.0) & (ratio < np.inf)))
    if bad.size:
        zero = [int(i) for i in bad if not (framing.x[i].any() and framing.y[i].any())]
        if zero:
            raise ZeroPair(zero)
        raise ValueError(
            f"pairs whose norm or norm ratio ||y_i|| / ||x_i|| leaves the float range "
            f"at indices {bad.tolist()}"
        )
    alphas = np.sqrt(ratio)
    return RescalePlan(alphas=alphas, betas=1.0 / alphas)


def apply_rescale(framing: Framing, plan: RescalePlan) -> Framing:
    if plan.alphas.shape != (framing.count,):
        raise ValueError(f"plan length {plan.alphas.shape[0]} != pair count {framing.count}")
    return Framing(
        plan.alphas[:, None] * framing.x,
        np.conj(plan.betas)[:, None] * framing.y,
    )


def dual_pair_verdict(
    x_bounds: FrameBounds, y_bounds: FrameBounds, residual: float, tol: float = 1e-8
) -> bool:
    """The dual-pair rule, from both families' frame bounds and the residual
    ||sum_i x_i (x) y_i - I||: each family is a frame whose lower bound
    exceeds 1e-12 times its upper one, and the residual is at most tol."""
    for bounds in (x_bounds, y_bounds):
        if bounds.upper <= 0.0 or bounds.lower <= 1e-12 * bounds.upper:
            return False
    return residual <= tol


def is_dual_frame_pair(x_frame: Frame, y_frame: Frame, tol: float = 1e-8) -> bool:
    """True when both families are frames and sum_i x_i (x) y_i = I within
    tol, by dual_pair_verdict."""
    if x_frame.count != y_frame.count or x_frame.dim != y_frame.dim:
        raise ValueError("families must have matching vector counts and dimensions")
    residual = reconstruction_residual(x_frame.vectors, y_frame.vectors)
    return dual_pair_verdict(frame_bounds(x_frame), frame_bounds(y_frame), residual, tol)


def example_e11(m: int) -> Framing:
    """Framing of R^m with m(m+1)/2 pairs: coordinate k is covered by k
    copies of (e_k, e_k / k).  The x side piles up weight k on coordinate k
    while the y side thins it to 1/k, so the pair is a framing whose two
    sides have sharply different frame bounds.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    k = np.repeat(np.arange(1, m + 1), np.arange(1, m + 1))
    xs = np.eye(m)[k - 1]
    return Framing(xs, xs / k[:, None])


def example_e11_weights(m: int) -> tuple[list[Fraction], list[Fraction]]:
    """Exact per-coordinate weight sums of example_e11 in rational arithmetic.

    Coordinate k (1-based) receives k copies of weight 1 on the x side and k
    copies of weight (1/k)^2 on the y side, giving sums k and 1/k exactly.
    """
    # imported here: fractions loads decimal, which no other path needs
    from fractions import Fraction

    ks = range(1, m + 1)
    return [k * Fraction(1) ** 2 for k in ks], [k * Fraction(1, k) ** 2 for k in ks]


def coordinate_weight_sums(framing: Framing) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate weights (sum_i |x_i[j]|^2, sum_i |y_i[j]|^2), each sum
    compensated via math.fsum."""
    x_sums = np.array(
        [math.fsum((np.abs(framing.x[:, j]) ** 2).tolist()) for j in range(framing.dim)]
    )
    y_sums = np.array(
        [math.fsum((np.abs(framing.y[:, j]) ** 2).tolist()) for j in range(framing.dim)]
    )
    return x_sums, y_sums
