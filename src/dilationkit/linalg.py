"""Dense linear-algebra primitives shared by the rest of the package.

These wrap numpy.linalg behind the exact contracts the higher layers rely on:
descending Hermitian eigensystems with a deterministic phase convention,
positive-semidefinite factorizations with an explicit numerical rank, polar
decompositions, and p-norms that are safe against overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndefiniteInput

DEFAULT_REL_TOL = 1e-10


def _require_matrix(a, name="matrix"):
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _require_square(a, name="matrix"):
    arr = _require_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def lp_norm(v, p):
    """l_p norm of a vector, or of each row of a stack of vectors.

    Parameters
    ----------
    v : array_like
        Real or complex vector, or an (m, k) array of m row vectors.
    p : float
        Norm exponent, ``1 <= p <= inf``.  ``math.inf`` gives the max norm.

    Returns
    -------
    float for a vector, numpy.ndarray of the m row norms for a stack; each
    row norm has the same bits as the norm of that row alone.

    Raises
    ------
    ValueError
        If ``p < 1`` (not a norm) or `v` is neither one- nor two-dimensional.
    """
    arr = np.asarray(v)
    if arr.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a stack of rows, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError("vector contains non-finite entries")
    p = float(p)
    if p < 1.0:
        raise ValueError(f"p must be at least 1, got {p}")
    rows = np.abs(np.atleast_2d(arr)).astype(np.float64, copy=False)
    peaks = rows.max(axis=1, initial=0.0)
    if not math.isinf(p):
        # Scale by the peak so that large exponents cannot overflow; a zero
        # row stays zero.  The root goes through Python's scalar pow: numpy's
        # vectorised pow can round differently, and a row's norm must not
        # depend on whether it is taken alone or in a stack.
        rows /= np.where(peaks == 0.0, 1.0, peaks)[:, None]
        rows **= p
        sums = rows.sum(axis=1).tolist()
        peaks = peaks * np.array([total ** (1.0 / p) for total in sums])
    return float(peaks[0]) if arr.ndim == 1 else peaks


def spectral_norm(a) -> float:
    """Largest singular value of a matrix; 0.0 for empty shapes."""
    arr = _require_matrix(a)
    if arr.size == 0:
        return 0.0
    return float(np.linalg.svd(arr, compute_uv=False)[0])


def numerical_rank(s: np.ndarray, rel_tol: float = DEFAULT_REL_TOL) -> int:
    """Count of singular values above ``rel_tol`` times the largest.

    `s` is descending, as ``numpy.linalg.svd`` returns it; an empty or zero
    spectrum has rank 0.
    """
    return int(np.count_nonzero(s > rel_tol * s[0])) if s.size and s[0] > 0 else 0


def fix_column_phases(q: np.ndarray) -> np.ndarray:
    """Return `q` with each column scaled by a unit modulus so that its
    largest-modulus entry (first such index on ties) is real and positive.

    Column spans and Gram matrices are unchanged; the convention makes
    eigenvector and orthonormal-basis output deterministic up to rounding.
    """
    q = np.array(q)
    for j in range(q.shape[1]):
        col = q[:, j]
        mags = np.abs(col)
        k = int(np.argmax(mags))
        pivot = col[k]
        if mags[k] == 0.0:
            continue
        if np.iscomplexobj(q):
            q[:, j] = col * (np.conj(pivot) / mags[k])
        elif pivot < 0:
            q[:, j] = -col
    return q


@dataclass(frozen=True)
class HermitianEig:
    """Eigensystem of a Hermitian matrix.

    Attributes
    ----------
    eigenvalues : numpy.ndarray
        Real eigenvalues in descending order.
    eigenvectors : numpy.ndarray
        Matrix whose column j is the eigenvector for ``eigenvalues[j]``,
        orthonormal, phase-fixed per `fix_column_phases`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eig_hermitian(a) -> HermitianEig:
    """Eigendecomposition of a (nearly) Hermitian matrix.

    The input is symmetrized as ``(a + a*) / 2`` before decomposition, so
    rounding-level asymmetry is tolerated silently; callers that need to
    reject asymmetric input must check it themselves.

    Returns
    -------
    HermitianEig
        Eigenvalues descending, eigenvector columns matching them.
    """
    arr = _require_square(a)
    herm = (arr + arr.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    order = slice(None, None, -1)
    return HermitianEig(vals[order].copy(), fix_column_phases(vecs[:, order]))


def polar_decompose(a):
    """Polar decomposition ``a = u @ p``.

    Parameters
    ----------
    a : array_like
        Square matrix.

    Returns
    -------
    (u, p) : tuple of numpy.ndarray
        `p` is positive semidefinite (the absolute value of `a`), `u` is a
        partial isometry acting isometrically on the range of `p`.
    """
    arr = _require_square(a)
    if arr.size == 0:
        return arr.copy(), arr.copy()
    w, s, vh = np.linalg.svd(arr)
    u = w @ vh
    p = vh.conj().T @ (s[:, None] * vh)
    return u, p


def psd_factor(a, rel_tol: float = DEFAULT_REL_TOL):
    """Factor a positive semidefinite matrix as ``v* @ v``.

    Parameters
    ----------
    a : array_like
        Hermitian positive semidefinite matrix (symmetrized internally).
    rel_tol : float
        Relative eigenvalue cutoff.  Eigenvalues above ``rel_tol * ||a||``
        count toward the rank; eigenvalues below ``-rel_tol * ||a||`` are
        rejected.

    Returns
    -------
    (v, rank) : tuple
        `v` has exactly `rank` rows and satisfies ``v.conj().T @ v == a``
        up to rounding.

    Raises
    ------
    IndefiniteInput
        If some eigenvalue is below ``-rel_tol * ||a||``.
    """
    arr = _require_square(a)
    eig = eig_hermitian(arr)
    vals = eig.eigenvalues
    scale = float(np.abs(vals).max(initial=0.0))
    if vals.size and float(vals[-1]) < -rel_tol * scale:
        raise IndefiniteInput(
            f"eigenvalue {vals[-1]:.3e} below -rel_tol * norm = {-rel_tol * scale:.3e}"
        )
    # past that check scale == vals[0], except for rel_tol >= 1, where both
    # cutoffs keep nothing; so numerical_rank counts the eigenvalues above
    # rel_tol * ||a||
    rank = numerical_rank(vals, rel_tol)
    v = np.sqrt(vals[:rank])[:, None] * eig.eigenvectors[:, :rank].conj().T
    return v, rank


def outer_pair(x, y) -> np.ndarray:
    """Rank-one operator ``z -> <z, y> x``, i.e. the matrix ``x y*``.

    For (n, d) stacks of rows the result is the (n, d, d) stack of
    ``x[i] y[i]*``; each matrix has the same bits as ``np.outer`` of its rows.
    """
    x, y = np.asarray(x), np.asarray(y)
    return x[..., :, None] * np.conj(y)[..., None, :]
