"""Finite frames: bounds, duals, and dilations to orthonormal and Riesz bases.

A frame is stored as an (N, dim) array whose row n is the vector x_n.  The
frame operator is S = sum_n x_n x_n*, the analysis operator maps z to the
coefficient vector (<z, x_n>)_n, and all dilation constructions embed the
original space isometrically into an N-dimensional superspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _subsets
from .errors import NotAFrame, NotDualPair, NotParseval, OverlappingSupports
from .linalg import (
    DEFAULT_REL_TOL,
    eig_hermitian,
    numerical_rank,
    outer_pair,
    polar_decompose,
    psd_factor,
    spectral_norm,
)


def _as_vector_array(vectors, name="vectors"):
    arr = np.array(vectors)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2d array of row vectors, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must contain at least one vector of dimension >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    # np.array already made a private copy; astype converts it in place of a second one
    arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=False)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Frame:
    """A finite family of vectors, one per row of `vectors`."""

    vectors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "vectors", _as_vector_array(self.vectors))

    @property
    def count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class FrameBounds:
    """Optimal frame bounds: the extreme eigenvalues of the frame operator.

    `lower` is positive exactly when the family spans, in which case the
    family is a frame with these as its best constants.
    """

    lower: float
    upper: float

    def is_tight(self, tol: float = 1e-10) -> bool:
        return abs(self.upper - self.lower) <= tol * max(1.0, self.upper)

    def is_parseval(self, tol: float = 1e-10) -> bool:
        return abs(self.lower - 1.0) <= tol and abs(self.upper - 1.0) <= tol


def analysis_operator(frame: Frame) -> np.ndarray:
    """Matrix of the coefficient map z -> (<z, x_n>)_n; row n is conj(x_n)."""
    return frame.vectors.conj()


def frame_operator(frame: Frame) -> np.ndarray:
    """S = sum_n x_n x_n*, a (dim, dim) positive semidefinite matrix."""
    v = frame.vectors
    return v.T @ v.conj()


def reconstruction_residual(x: np.ndarray, y: np.ndarray) -> float:
    """||sum_i x_i y_i* - I|| for (N, dim) pair arrays whose rows are x_i and
    y_i; the sum is formed as one product x^T conj(y)."""
    op = x.T @ y.conj()
    return spectral_norm(op - np.eye(op.shape[0], dtype=op.dtype))


def frame_bounds(frame: Frame) -> FrameBounds:
    eig = eig_hermitian(frame_operator(frame))
    vals = eig.eigenvalues
    return FrameBounds(lower=max(float(vals[-1]), 0.0), upper=max(float(vals[0]), 0.0))


def direct_sum_bounds(bounds) -> FrameBounds:
    """Frame bounds of a direct sum of frames, from the summands' bounds.

    A direct sum acts block by block, so the direct-sum identities hold:
    an operator A = (+)_n A_n has ||A|| = max_n ||A_n||, and the frame
    operator of the sum is (+)_n S_n, whose spectrum is the union of the
    spectra of the S_n, so the sum's bounds are (min_n lower_n,
    max_n upper_n).
    """
    bounds = list(bounds)
    return FrameBounds(lower=min(b.lower for b in bounds), upper=max(b.upper for b in bounds))


def canonical_dual(frame: Frame, rel_tol: float = DEFAULT_REL_TOL) -> Frame:
    """Frame whose vectors are S^{-1} x_n.

    Raises
    ------
    NotAFrame
        If the frame operator is numerically singular (smallest eigenvalue
        at most rel_tol times the largest).
    """
    s = frame_operator(frame)
    if numerical_rank(eig_hermitian(s).eigenvalues, rel_tol) < frame.dim:
        raise NotAFrame("frame operator is numerically singular")
    dual_vectors = np.linalg.solve(s, frame.vectors.T).T
    return Frame(dual_vectors)


@dataclass(frozen=True)
class OnbDilation:
    """Orthonormal dilation of a Parseval frame.

    The embedding is an isometry from the original dim-dimensional space
    into C^N, where the standard basis `onb` is the orthonormal dilation:
    embedding* onb_n = x_n up to the Parseval residual.  `onb` and
    `projection`, the orthogonal projection onto the embedding's range,
    are determined by the embedding and built on each access.
    """

    embedding: np.ndarray
    parseval_residual: float

    @property
    def onb(self) -> Frame:
        return Frame(np.eye(self.embedding.shape[0], dtype=self.embedding.dtype))

    @property
    def projection(self) -> np.ndarray:
        return self.embedding @ self.embedding.conj().T


def dilate_parseval_to_onb(frame: Frame, tol: float = 1e-8) -> OnbDilation:
    """Dilate a Parseval frame to an orthonormal basis of C^N.

    Parameters
    ----------
    frame : Frame
        Must be Parseval within `tol`: ||S - I|| <= tol.

    Raises
    ------
    NotParseval
        If the frame operator deviates from the identity beyond `tol`.
    """
    residual = reconstruction_residual(frame.vectors, frame.vectors)
    if residual > tol:
        raise NotParseval(f"frame operator deviates from identity by {residual:.3e} > {tol:.1e}")
    theta = analysis_operator(frame)
    q, r = np.linalg.qr(theta)
    diag = np.diagonal(r)
    phases = diag / np.abs(diag)
    q = q * phases.conj()[None, :]
    return OnbDilation(embedding=q, parseval_residual=residual)


@dataclass(frozen=True)
class RieszDilation:
    """Riesz-basis dilation of a dual frame pair.

    `riesz` and `riesz_dual` are biorthogonal bases of the N-dimensional
    superspace, `embedding` is an isometry of the original space into it,
    and `projection` (the orthogonal projection onto the embedded copy,
    built on each access) compresses riesz vectors onto the x frame and
    dual vectors onto the y frame: embedding* riesz_n = x_n and
    embedding* riesz_dual_n = y_n.  `gram_condition` is the condition
    number of the Gram matrix that realizes the construction; large values
    mean a nearly degenerate pair.
    """

    riesz: Frame
    riesz_dual: Frame
    embedding: np.ndarray
    gram_condition: float

    @property
    def projection(self) -> np.ndarray:
        return self.embedding @ self.embedding.conj().T


def dilate_dual_pair_to_riesz(x_frame: Frame, y_frame: Frame, tol: float = 1e-8) -> RieszDilation:
    """Dilate a dual frame pair to a Riesz basis and its biorthogonal dual.

    The pair must satisfy sum_n x_n y_n* = I within `tol`.  The returned
    bases are columns of G^{1/2} and G^{-1/2} for the positive definite
    Gram matrix G = X*X + I - QQ*, where X and Y have the vectors as
    columns and Q is an orthonormal basis of range Y*.  It solves Y G = X,
    and a Parseval frame paired with itself yields G = I, so the
    construction degenerates to the orthonormal dilation.

    Raises
    ------
    NotDualPair
        If the reconstruction identity fails beyond `tol`, or the pair is
        numerically degenerate.
    """
    if x_frame.count != y_frame.count or x_frame.dim != y_frame.dim:
        raise ValueError("dual pair must have matching vector counts and dimensions")
    residual = reconstruction_residual(x_frame.vectors, y_frame.vectors)
    if residual > tol:
        raise NotDualPair(f"reconstruction identity fails by {residual:.3e} > {tol:.1e}")
    x = x_frame.vectors.T
    y = y_frame.vectors.T
    dim, count = x.shape
    q, r = np.linalg.qr(y.conj().T)
    if count < dim or not np.diagonal(r).all():
        raise NotDualPair("y family does not span")
    # G = X*X + I - QQ* solves Y G = X, because Y* = QR gives Y QQ* = Y
    # and Y X* = I.  It is positive definite: v*Gv = ||Xv||^2 +
    # ||(I - QQ*)v||^2 vanishes only for v = Qw with XQw = 0, and
    # Q = Y* R^{-1} makes XQw = R^{-1} w, so v = 0.  For a Parseval
    # self-pair, Y Y* = I makes R unitary, so X*X = Q R R* Q* = QQ* and G = I.
    gram = x.conj().T @ x - q @ q.conj().T
    gram[np.diag_indices(count)] += 1.0
    eig = eig_hermitian(gram)
    vals = eig.eigenvalues
    if float(vals[-1]) <= 0.0:
        raise NotDualPair("completed Gram matrix is numerically singular")
    vecs = eig.eigenvectors
    gram_half = vecs @ (np.sqrt(vals)[:, None] * vecs.conj().T)
    gram_inv_half = vecs @ ((1.0 / np.sqrt(vals))[:, None] * vecs.conj().T)
    return RieszDilation(
        riesz=Frame(gram_half.T),
        riesz_dual=Frame(gram_inv_half.T),
        embedding=gram_half @ y.conj().T,
        gram_condition=float(vals[0] / vals[-1]),
    )


@dataclass(frozen=True)
class RankOneDecomposition:
    """Decomposition A = sum_i lefts[i] rights[i]* with uniformly bounded
    partial sums: every subset sum has spectral norm at most `source_norm`.
    """

    lefts: np.ndarray
    rights: np.ndarray
    source_norm: float

    @property
    def term_count(self) -> int:
        return self.lefts.shape[0]

    def term(self, i: int) -> np.ndarray:
        return outer_pair(self.lefts[i], self.rights[i])

    def partial_sum(self, mask: int) -> np.ndarray:
        """Sum of the terms selected by `mask`, accumulated in index order."""
        return _subsets.masked_sums(outer_pair(self.lefts, self.rights), [mask])[0]


def rank_one_decompose(a, rel_tol: float = DEFAULT_REL_TOL) -> RankOneDecomposition:
    """Split a square matrix into rank-one terms with bounded partial sums.

    Writes A = U |A| with U a partial isometry, factors |A| as a sum of
    rank-one positive terms x_i x_i*, and emits the terms (U x_i) x_i*.
    Any subset of the terms then sums to U P U* with 0 <= P <= |A| in the
    positive semidefinite order, so its norm never exceeds ||A||.
    """
    u, p = polar_decompose(a)
    v, rank = psd_factor(p, rel_tol)
    rights = v.conj()
    lefts = rights @ u.T
    return RankOneDecomposition(lefts=lefts, rights=rights, source_norm=spectral_norm(a))


def assemble_block_decomposition(blocks, rel_tol: float = DEFAULT_REL_TOL) -> RankOneDecomposition:
    """Concatenate rank-one decompositions of operators with disjoint supports.

    Each block must be a square matrix on the common ambient space, supported
    on its own coordinate set (rows and columns outside the support must
    vanish up to rounding).  The partial sums of the combined decomposition
    are bounded by the largest block norm, which equals the norm of the sum.

    Raises
    ------
    OverlappingSupports
        If two blocks act on a common coordinate.
    """
    blocks = [np.asarray(blk) for blk in blocks]
    if not blocks:
        raise ValueError("need at least one block")
    n = blocks[0].shape[0]
    for i, blk in enumerate(blocks):
        if blk.ndim != 2 or blk.shape != (n, n):
            raise ValueError(f"block {i} must be {n} x {n}, got shape {blk.shape}")
    claimed = {}
    lefts, rights = [], []
    for i, blk in enumerate(blocks):
        peak = float(np.abs(blk).max()) if blk.size else 0.0
        if peak == 0.0:
            continue
        keep = np.abs(blk) > rel_tol * peak
        support = np.flatnonzero(keep.any(axis=0) | keep.any(axis=1))
        outside = blk.copy()
        outside[np.ix_(support, support)] = 0.0
        if spectral_norm(outside) > 1e-10 * max(1.0, spectral_norm(blk)):
            raise ValueError(f"block {i} is not supported on a coordinate set")
        for c in support:
            c = int(c)
            if c in claimed:
                raise OverlappingSupports(
                    f"blocks {claimed[c]} and {i} both act on coordinate {c}"
                )
            claimed[c] = i
        dec = rank_one_decompose(blk, rel_tol)
        lefts.append(dec.lefts)
        rights.append(dec.rights)
    total = sum(blocks)
    dtype = np.result_type(*[blk.dtype for blk in blocks])
    if not lefts:
        empty = np.zeros((0, n), dtype=dtype)
        return RankOneDecomposition(empty, empty.copy(), 0.0)
    lefts_all = np.vstack([arr.astype(dtype) for arr in lefts])
    rights_all = np.vstack([arr.astype(dtype) for arr in rights])
    return RankOneDecomposition(lefts_all, rights_all, spectral_norm(total))
