"""Sign-matrix framings on l_p coordinate blocks.

Level n uses the n x 2^n matrix of Rademacher sign patterns: entry (i, j) is
the sign of the i-th Rademacher function on dyadic interval j.  Its rows are
orthogonal with squared norm 2^n exactly, in integer arithmetic.  Scaling
rows by 2^(-n/p) gives unit l_p vectors r_i whose span is complemented in
l_p by the averaging projection P = eps^T eps / 2^n.  P is applied from eps
as eps^T (eps x) / 2^n and never formed as a 2^n x 2^n array.  The block
framing (`level_framing`) pairs 2^(-n/q)-scaled columns with
2^(-n/p)-scaled columns (1/p + 1/q = 1).
Rescaling by alpha_i = 2^(n (1/q - 1/2)) turns both sides into one Parseval
frame, the 2^(-n/2)-scaled columns.
The framing of the direct sum over levels 1 .. n_max is checked block by
block, from each level's framing, with the direct-sum identities of
`frames.direct_sum_bounds`; so the largest array a check builds is one
level's (2^n, n) pair arrays.  `assemble_framing` builds the dense sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framings import Framing
from .linalg import lp_norm

MAX_LEVEL = 14  # keeps eps^T eps integer-exact in float64 well below 2^53
# Boyd steps per start; at most 93 were taken for seven exponents p from 1.1
# to 10 at every level n <= 11.
POWER_STEPS = 100
# Relative drop allowed between consecutive levels' lower bounds.  The lifted
# maximizer np.repeat(x, 2) has exactly the previous ratio (P_{n+1} acts as
# P_n on functions of the first n signs); only summation order differs, at
# most 2.9 eps measured.  Genuine growth between odd levels is 1e-4 or more.
MONOTONE_RTOL = 64 * np.finfo(np.float64).eps


def sign_matrix(n: int) -> np.ndarray:
    """Rademacher sign pattern matrix, shape (n, 2^n), entries +-1 (int64).

    Row i (0-based) flips sign every 2^(n-1-i) columns, so row 0 is the
    coarsest split and row n-1 alternates. Rows are orthogonal:
    eps @ eps.T == 2^n I exactly.
    """
    if not 1 <= n <= MAX_LEVEL:
        raise ValueError(f"level must satisfy 1 <= n <= {MAX_LEVEL}, got {n}")
    cols = np.arange(1 << n, dtype=np.int64)
    rows = [1 - 2 * ((cols >> (n - 1 - i)) & 1) for i in range(n)]
    return np.stack(rows)


@dataclass(frozen=True)
class RademacherBlock:
    """Level-n block data for exponent p."""

    n: int
    p: float
    q: float
    eps: np.ndarray
    r: np.ndarray
    alphas: np.ndarray


def build_block(n: int, p: float) -> RademacherBlock:
    """Assemble the level-n block for exponent p (p > 1, p != 2).

    r rows are the unit l_p sign vectors 2^(-n/p) eps_i; alphas are the
    Parseval rescaling weights 2^(n (1/q - 1/2)).  The averaging idempotent
    P onto the span of the r rows is applied by `project`.
    """
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"exponent must exceed 1, got {p}")
    if p == 2.0:
        raise ValueError("exponent 2 is excluded, the block degenerates to an orthonormal one")
    q = p / (p - 1.0)
    eps = sign_matrix(n)
    alphas = np.full(n, 2.0 ** (n * (1.0 / q - 0.5)))
    return RademacherBlock(n=n, p=p, q=q, eps=eps, r=(2.0 ** (-n / p)) * eps, alphas=alphas)


def bounds_stay_finite(p: float, n_max: int) -> bool:
    """True when the magnitudes behind levels 1 .. n_max's bounds at exponent
    p stay below half the largest float, the half absorbing rounding.  Binet's
    formula bounds log Gamma(x), x = (r + 1)/2 with r = max(p, q), in
    projection_norm_bounds by (x - 1/2) log x - x + log(2 pi)/2 + 1/(12 x):
    the limit falls at r = 341.979 (math.gamma overflows above r = 342.25).
    balanced_ratios' sums of C(k, j) |k - 2j|^p are at most 2^k k^p, so at
    most 2^n_max n_max^p.  Neither log raises for any float p > 1.
    """
    x = (max(p, p / (p - 1.0)) + 1.0) / 2.0
    log_gamma = (x - 0.5) * math.log(x) - x + 0.5 * math.log(2.0 * math.pi) + 1.0 / (12.0 * x)
    log_moment = n_max * math.log(2.0) + p * math.log(n_max)
    return max(log_gamma, log_moment) <= math.log(np.finfo(np.float64).max / 2.0)


def project(block: RademacherBlock, x) -> np.ndarray:
    """P x = eps^T (eps x) / 2^n, for a vector or for each column of a matrix."""
    return block.eps.T @ (block.eps @ x) / (1 << block.n)


def projection_ratio(block: RademacherBlock, x) -> float:
    """||P x||_p / ||x||_p for one vector."""
    x = np.asarray(x, dtype=np.float64)
    num = lp_norm(project(block, x), block.p)
    den = lp_norm(x, block.p)
    if den == 0.0:
        raise ValueError("x must be nonzero")
    return num / den


def _psi(y: np.ndarray, r: float) -> np.ndarray:
    """sign(y) |y|^(r - 1), scaled to peak 1 so that no power overflows."""
    mags = np.abs(y)
    return np.sign(y) * (mags / mags.max()) ** (r - 1.0)


def projection_norm_bounds(block: RademacherBlock, start=None):
    """Enclosure lower <= ||P||_{l_p -> l_p} <= upper, and the vector whose
    ratio ||P x||_p / ||x||_p is `lower`: (lower, upper, maximizer).

    Upper bound, uniform in n.  Let mu be the uniform probability on the 2^n
    columns, so ||x||_{L_r(mu)} = 2^(-n/r) ||x||_r; the ratio is the same in
    either norm.  Then P x = sum_i c_i eps_i with c_i = E[x eps_i].  For
    p > 2, Khintchine's inequality with Haagerup's optimal constant
    B_p = sqrt(2) (Gamma((p + 1)/2) / sqrt(pi))^(1/p) gives
    ||P x||_{L_p} <= B_p ||c||_2 = B_p ||P x||_{L_2} <= B_p ||x||_{L_2}
    <= B_p ||x||_{L_p}: the rows eps_i are orthonormal in L_2(mu), P is the
    orthogonal projection onto their span, and mu is a probability measure.
    For p < 2, P is self-adjoint for the pairing E[x y] under which L_q(mu)
    is the dual of L_p(mu), so ||P||_p = ||P||_q <= B_q.  Hence
    upper = B_r with r = max(p, q); for example B_4 = 3^(1/4).

    Lower bound, from Boyd's power method for l_p operator norms (D. W.
    Boyd, Linear Algebra Appl. 9, 1974): x <- psi_q(P psi_p(P x)) with
    psi_r(y) = sign(y) |y|^(r - 1), applied through `project` only.  It runs
    from e_0 and from `start`, each while the ratio strictly increases and
    for at most POWER_STEPS steps, so `lower` is the computed ratio of a
    genuine vector.  e_0 stands for all 2^n coordinate vectors:
    eps[i, j] eps[i, k] = eps[i, j xor k], so P e_k is a rearrangement of
    P e_0 and every e_k has the ratio ||P e_0||_p.

    Without `start`, `lower` comes from e_0 alone and can be a local maximum
    below a plain sign vector's ratio: at p = 6, n = 4 it is
    1.1702959692436576, while the best sign vector reaches
    1.1913659566696366.  chl5 passes the previous level's lifted maximizer.
    """
    r = max(block.p, block.q)
    upper = math.sqrt(2.0) * (math.gamma((r + 1.0) / 2.0) / math.sqrt(math.pi)) ** (1.0 / r)
    e0 = np.zeros(1 << block.n)
    e0[0] = 1.0
    starts = [e0] if start is None else [e0, np.asarray(start, dtype=np.float64)]
    lower, maximizer = -math.inf, e0
    for x in starts:
        ratio = projection_ratio(block, x)
        for _ in range(POWER_STEPS if ratio > 0.0 else 0):
            y = _psi(project(block, _psi(project(block, x), block.p)), block.q)
            step = projection_ratio(block, y)
            if not step > ratio:
                break
            x, ratio = y, step
        if ratio > lower:
            lower, maximizer = ratio, x
    return lower, upper, maximizer


@dataclass(frozen=True)
class KhintchineReport:
    """Envelope of ||sum_i a_i r_i||_p / ||a||_2 over the balanced
    coefficient vectors of `balanced_ratios`: their least and greatest
    ratio."""

    lower: float
    upper: float


def balanced_ratios(block: RademacherBlock) -> np.ndarray:
    """Ratios ||sum_i a_i r_i||_p / ||a||_2 at a = 1_k / sqrt(k), k = 1..n,
    from exact binomial moments.

    With mu uniform on the 2^n columns, ||sum_i a_i r_i||_p^p =
    E|sum_i a_i eps_i|^p, and for a = 1_k the sum S_k = sum_{i<k} eps_i equals
    k - 2j with probability C(k, j) 2^(-k).  So the ratio at k is
    (E|S_k|^p / k^(p/2))^(1/p), with E|S_k|^p = 2^(-k) sum_j C(k, j) |k - 2j|^p:
    O(k) scalar terms, no 2^n-sized array and no sampling.
    """
    p = block.p
    ratios = []
    for k in range(1, block.n + 1):
        moment = sum(math.comb(k, j) * abs(k - 2 * j) ** p for j in range(k + 1)) / (1 << k)
        ratios.append((moment / k ** (p / 2.0)) ** (1.0 / p))
    return np.array(ratios)


def khintchine_report(block: RademacherBlock) -> KhintchineReport:
    """The least and greatest of the balanced ratios, each a genuine ratio
    ||sum_i a_i r_i||_p / ||a||_2 attained at some a.

    Where a theorem identifies the extreme over all a in R^n, the balanced
    candidates reach it:

    * p > 2: lower = 1, and p < 2: upper = 1, attained at k = 1 (r_0 is a
      unit l_p vector).  ||.||_{L_2(mu)} <= ||.||_{L_p(mu)} for p > 2 on a
      probability space, reversed for p < 2, and ||sum a_i eps_i||_{L_2} =
      ||a||_2 by orthonormality.
    * p = 4: upper = (3 - 2/n)^(1/4), attained at k = n.  On the unit sphere
      E(sum a_i eps_i)^4 = 3 - 2 sum a_i^4, and sum a_i^4 >= 1/n by
      Cauchy-Schwarz, with equality at equal coefficients.
    * p <= p_0 ~ 1.847 and n >= 2: lower = A_p = 2^(1/2 - 1/p), attained at
      k = 2; Haagerup's optimal lower Khintchine constant (U. Haagerup, The
      best constants in the Khintchine inequality, Studia Math. 70, 1981) is
      the infimum over every n and every a.

    Elsewhere a side is the extreme balanced ratio, attained at a genuine a:
    the extreme over all a lies at or beyond it.
    """
    ratios = balanced_ratios(block)
    return KhintchineReport(lower=float(ratios.min()), upper=float(ratios.max()))


def level_framing(block: RademacherBlock) -> Framing:
    """The level-n block framing on R^n: pair j (j < 2^n) is
    x_j = 2^(-n/q) eps[:, j] and y_j = 2^(-n/p) eps[:, j]."""
    n = block.n
    cols = block.eps.T.astype(np.float64)
    return Framing((2.0 ** (-n / block.q)) * cols, (2.0 ** (-n / block.p)) * cols)


def assemble_framing(p: float, n_max: int) -> Framing:
    """Framing of the direct sum of the level blocks n = 1 .. n_max, as one
    dense library object built from the `level_framing` blocks.

    Block n of the sum holds the level-n pairs; coordinates of different
    levels never interact.  The dimension is n_max (n_max + 1) / 2 with
    sum_n 2^n = 2^(n_max + 1) - 2 pairs, at most 4094 (n_max <= 11): level n
    holds pairs 2^n - 2 .. 2^(n+1) - 3 on coordinates n(n-1)/2 ..
    n(n+1)/2 - 1.  chl5 checks the sum level by level and never builds it.
    """
    if not 1 <= n_max <= 11:
        raise ValueError(f"n_max must satisfy 1 <= n_max <= 11, got {n_max}")
    dim = n_max * (n_max + 1) // 2
    xs = np.zeros(((1 << (n_max + 1)) - 2, dim))
    ys = np.zeros_like(xs)
    for n in range(1, n_max + 1):
        level = level_framing(build_block(n, p))
        at = np.s_[(1 << n) - 2 : (1 << (n + 1)) - 2, n * (n - 1) // 2 : n * (n + 1) // 2]
        xs[at] = level.x
        ys[at] = level.y
    return Framing(xs, ys)
