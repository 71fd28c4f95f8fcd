"""Internal helpers for exhaustive subset enumeration.

Masks are Python ints; bit j set means atom j is in the subset.  All
enumeration is done with the doubling construction S[2^k : 2^(k+1)] =
S[0 : 2^k] + item[k], so index m of a result array is the sum over the
subset encoded by m.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 1 << 13
_MAX_ELEMENTS = 1 << 28


def bit_indices(mask: int):
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return out


def subset_sums(stack: np.ndarray) -> np.ndarray:
    """All 2^k subset sums of stack[0], ..., stack[k-1], doubling order."""
    k = stack.shape[0]
    item_shape = stack.shape[1:]
    count = 1 << k
    if count * int(np.prod(item_shape, dtype=np.int64)) > _MAX_ELEMENTS:
        raise ValueError(f"subset enumeration over {k} items is too large")
    out = np.zeros((count,) + item_shape, dtype=stack.dtype)
    for j in range(k):
        size = 1 << j
        out[size : 2 * size] = out[:size] + stack[j]
    return out


def iter_subset_sum_chunks(stack: np.ndarray, chunk_bits: int = 14):
    """Yield (base_mask, sums) pairs covering all 2^k subset sums in chunks.

    Chunk c covers masks base_mask + j for j < 2^chunk_bits, with sums[j]
    the subset sum for mask base_mask + j.
    """
    k = stack.shape[0]
    low_bits = min(k, chunk_bits)
    low = subset_sums(stack[:low_bits])
    high = subset_sums(stack[low_bits:])
    for hi in range(high.shape[0]):
        yield hi << low_bits, (low + high[hi]) if hi else low.copy()


def batched_spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (m, r, c) stack."""
    if stack.shape[0] == 0:
        return np.zeros(0)
    if stack.shape[1] == 0 or stack.shape[2] == 0:
        return np.zeros(stack.shape[0])
    out = np.empty(stack.shape[0])
    for lo in range(0, stack.shape[0], _CHUNK):
        chunk = stack[lo : lo + _CHUNK]
        out[lo : lo + len(chunk)] = np.linalg.svd(chunk, compute_uv=False)[:, 0]
    return out


def _mask_key(mask: int):
    return tuple(bit_indices(mask))


def max_subset_norm(vectors: np.ndarray):
    """Maximum euclidean norm of a subset sum of the given row vectors.

    Returns (value, witness) where witness is the lexicographically smallest
    maximizing mask, comparing masks as ascending tuples of set bit indices.
    Meet-in-the-middle: low halves are enumerated once, high halves streamed,
    and ||l + h||^2 expands to ||l||^2 + 2 Re<l, h> + ||h||^2.
    """
    k = vectors.shape[0]
    if k == 0:
        return 0.0, 0
    low_bits = min(k, 16)
    low = subset_sums(vectors[:low_bits])
    low_sq = np.einsum("ij,ij->i", low, low.conj()).real
    if k > low_bits:
        high = subset_sums(vectors[low_bits:])
    else:
        high = np.zeros((1,) + vectors.shape[1:], dtype=vectors.dtype)
    best_sq = -1.0
    best_key = None
    best_mask = 0
    for hi_idx in range(high.shape[0]):
        h = high[hi_idx]
        h_sq = float(np.vdot(h, h).real)
        cross = 2.0 * (low @ h.conj()).real
        vals = low_sq + (cross + h_sq)
        chunk_max = float(vals.max())
        if chunk_max < best_sq:
            continue
        for lo_idx in np.flatnonzero(vals == chunk_max):
            mask = int(lo_idx) | (hi_idx << low_bits)
            key = _mask_key(mask)
            if chunk_max > best_sq or key < best_key:
                best_sq = chunk_max
                best_key = key
                best_mask = mask
    return float(np.sqrt(max(best_sq, 0.0))), best_mask
