"""Internal helpers for subset suprema.

Masks are Python ints; bit j set means atom j is in the subset.  All
enumeration is done with the doubling construction S[2^k : 2^(k+1)] =
S[0 : 2^k] + item[k], so index m of a result array is the sum over the
subset encoded by m.

`subset_sup` is the one engine behind every "for every subset B" check on
a measure: it certifies a supremum from atom-level bounds first, and
enumerates or samples subset sums only for the statistics it could not
decide.  `sample_masks` is the one sampling policy, and the engine is its
only caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .rng import Xorshift

# Above this many atoms a check samples subsets instead of enumerating all 2^n
# (subset_sup's `sampled`); callers compare the atom count against it.
_EXHAUSTIVE_ATOM_LIMIT = 16
_CHUNK = 1 << 13
_MAX_ELEMENTS = 1 << 28
# enclosure width that settles a statistic with no threshold; see subset_sup
SETTLE_RTOL = 64 * np.finfo(np.float64).eps


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


def sample_masks(n: int, count: int, seed: int) -> set:
    """The sampled subsets of an n-atom check: all pairs, then `count` draws
    of Xorshift(seed).mask(n).  subset_sup adds the empty set, the
    singletons and the full set."""
    rng = Xorshift(seed)
    masks = {(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)}
    masks.update(rng.mask(n) for _ in range(count))
    return masks


def masked_sums(stack: np.ndarray, masks) -> np.ndarray:
    """Subset sums of `stack` for each mask in `masks`, each accumulated
    from zero in atom index order; Ovm.evaluate is the one-mask case.
    Atoms no mask selects are skipped; one every mask selects is added unindexed."""
    n = stack.shape[0]
    common, union = (1 << n) - 1, 0
    for mask in masks:
        common, union = common & mask, union | mask
    out = np.zeros((len(masks),) + stack.shape[1:], dtype=stack.dtype)
    for j in range(n):
        if common >> j & 1:
            out += stack[j]
        elif union >> j & 1:
            out[np.array([mask >> j & 1 for mask in masks], dtype=bool)] += stack[j]
    return out


@dataclass(frozen=True)
class Statistic:
    """A batched subset statistic with a certified atom-level bound.

    `values` maps a (m, r, c) stack of subset sums to their m real values.
    `bound` is an upper bound on the value at every subset, proved from the
    atoms alone by the caller.  A subset passes when its value is at most
    `threshold`; None means only the supremum itself is wanted.
    """

    name: str
    values: Callable[[np.ndarray], np.ndarray]
    bound: float
    threshold: float | None = None


@dataclass(frozen=True)
class SubsetSup:
    """Enclosure lower <= sup_B value(E(B)) <= upper of one statistic.

    `lower` is the value at `witness_mask`, the smallest maximizing mask
    among the `subsets_examined` subsets.  `mode` says how the enclosure was
    settled:

    - "certified": from the empty set, the singletons, the full set and
      the atom-level bound alone;
    - "exhaustive": over all 2^n subsets, so lower == upper is the exact
      maximum;
    - "sampled": over the sampled subsets, so lower is the sampled maximum
      and upper is still the atom-level bound.

    Against a threshold t the statistic passes iff lower <= t.  The verdict
    is two-sided except in "sampled" mode, where a pass only says that no
    sampled subset failed.
    """

    lower: float
    upper: float
    witness_mask: int
    subsets_examined: int
    mode: str

    @property
    def witness_atoms(self) -> list:
        return bit_indices(self.witness_mask)


def _peak(stat: Statistic, sums: np.ndarray, masks):
    values = stat.values(sums)
    k = int(np.argmax(values))
    return float(values[k]), masks[k]


def subset_sup(
    stack: np.ndarray, stats, sampled: bool = False, sample_count: int = 1000, seed: int = 0
) -> dict:
    """Supremum over all subsets B of each statistic at sum_{j in B} stack[j].

    Every statistic is first evaluated at the genuine subsets the atoms give
    directly: the empty set, the singletons and the full set.  That
    gives `lower`, and the statistic's bound gives `upper`.  A statistic is
    settled there when its threshold lies outside [lower, upper), or, with
    no threshold, when upper - lower <= SETTLE_RTOL * upper.  The statistics
    left open share one pass over subset sums: all 2^n of them in chunks,
    or, when `sampled`, the subsets of sample_masks(n, sample_count, seed)
    together with the genuine subsets.  The sample is drawn only when some
    statistic is left open.

    SETTLE_RTOL = 64 eps: no enumerated value is known more closely, being
    a LAPACK norm of a sum with up to n roundings.  On a 16-atom rank-one
    Parseval measure on C^8 the gap is 3-4 ulps, and the exhaustive maximum
    lands up to 4 ulps above the full-set value, the supremum up to rounding.
    The rule decides no verdict: thresholded statistics ignore it.

    Returns a dict from statistic name to SubsetSup.
    """
    n = stack.shape[0]
    genuine = sorted({0, (1 << n) - 1, *(1 << j for j in range(n))})
    sums = masked_sums(stack, genuine)
    results = {}
    open_stats = []
    for stat in stats:
        lower, witness = _peak(stat, sums, genuine)
        # a bound evaluated in floating point can round below a value it
        # provably dominates
        upper = max(float(stat.bound), lower)
        results[stat.name] = SubsetSup(lower, upper, witness, len(genuine), "certified")
        if stat.threshold is None:
            undecided = upper - lower > SETTLE_RTOL * upper
        else:
            undecided = lower <= stat.threshold < upper
        if undecided:
            open_stats.append(stat)
    if not open_stats:
        return results
    if sampled:
        masks = sorted(sample_masks(n, sample_count, seed).union(genuine))
        passes = [(masks, masked_sums(stack, masks))]
        examined, mode = len(masks), "sampled"
    else:
        passes = (
            (range(base, base + len(chunk)), chunk)
            for base, chunk in iter_subset_sum_chunks(stack)
        )
        examined, mode = 1 << n, "exhaustive"
    peaks = {stat.name: (-np.inf, 0) for stat in open_stats}
    for masks, sums in passes:
        for stat in open_stats:
            peaks[stat.name] = max(
                peaks[stat.name], _peak(stat, sums, masks), key=lambda peak: peak[0]
            )
    for stat in open_stats:
        lower, witness = peaks[stat.name]
        upper = lower if mode == "exhaustive" else max(results[stat.name].upper, lower)
        results[stat.name] = SubsetSup(lower, upper, witness, examined, mode)
    return results
