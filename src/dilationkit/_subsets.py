"""Internal helpers for subset suprema.

Masks are Python ints; bit j set means atom j is in the subset.  Only
`mask_bits` reads those bits, from one packed-byte form of a mask list
(`_mask_bytes`).  Every subset sum is formed by one rule: start from zero
and add the subset's atoms in index order.  The doubling table
S[2^k : 2^(k+1)] = S[0 : 2^k] + item[k], whose index m holds the sum over
the subset encoded by m, the exhaustive and sampled passes, the genuine
rows and `masked_sums` (so Ovm.evaluate) all follow it.  A sum thus has
the same bits whichever path forms it, and a reported `lower` is its
statistic at Ovm.evaluate(witness_mask), the sum of `witness_atoms`.  A
pass over subset sums holds one chunk of `_chunk_rows` sums at a time,
whatever the atom count or sample size.

`subset_sup` is the one engine behind every "for every subset B" check on
a measure: it certifies a supremum from atom-level bounds first, and
enumerates or samples subset sums only for the statistics it could not
decide.  `sample_masks` is the one sampling policy, and the engine is its
only caller.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Above this many atoms a check samples subsets instead of enumerating all 2^n
# (subset_sup's `sampled`); callers compare the atom count against it.
_EXHAUSTIVE_ATOM_LIMIT = 16
# random subsets a sampled check draws on top of all pairs; see sample_masks
_SAMPLE_COUNT = 1000
# bytes of subset sums one chunk of a pass holds; see _chunk_rows
_CHUNK_BYTES = 1 << 16
_MAX_ELEMENTS = 1 << 28
# enclosure width that settles a statistic with no threshold; see subset_sup
SETTLE_RTOL = 64 * np.finfo(np.float64).eps


def _mask_bytes(masks, n: int) -> np.ndarray:
    """(len(masks), ceil(n / 8)) uint8 matrix whose row i is masks[i] in
    little-endian bytes: bit j of a mask is bit j % 8 of byte j // 8."""
    if len(masks) and (min(masks) < 0 or max(masks) >> n):
        raise ValueError(f"masks out of range for {n} atoms")
    width = (n + 7) // 8
    data = b"".join([operator.index(mask).to_bytes(width, "little") for mask in masks])
    return np.frombuffer(data, dtype=np.uint8).reshape(len(masks), width)


def mask_bits(masks, n: int) -> np.ndarray:
    """(len(masks), n) boolean matrix: entry [i, j] says whether atom j is
    in the subset masks[i].  Raises ValueError for a negative mask or one
    with a bit at or above n."""
    bits = np.unpackbits(_mask_bytes(masks, n), axis=1, count=n, bitorder="little")
    return bits.view(bool)


def bit_indices(mask: int) -> list:
    """Ascending atom indices of the subset `mask`."""
    return np.flatnonzero(mask_bits([mask], mask.bit_length())[0]).tolist()


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


def _chunk_rows(stack: np.ndarray) -> int:
    """Sums per chunk: the largest power of two of stack's items that fits
    in _CHUNK_BYTES, and at least one."""
    item = stack.itemsize * int(np.prod(stack.shape[1:], dtype=np.int64))
    return 1 << max(0, (_CHUNK_BYTES // max(item, 1)).bit_length() - 1)


def iter_subset_sum_chunks(stack: np.ndarray):
    """Yield (base_mask, sums) pairs covering all 2^k subset sums in
    ascending chunks of _chunk_rows(stack) masks, with sums[j] the subset
    sum for mask base_mask + j.

    A chunk starts from a copy of the doubling table of atoms 0..b-1, its
    2^b rows, and adds the atoms of base_mask, all at or above bit b, in
    index order.
    """
    k = stack.shape[0]
    bits = min(k, _chunk_rows(stack).bit_length() - 1)
    table = subset_sums(stack[:bits])
    for base in range(0, 1 << k, 1 << bits):
        chunk = table.copy()
        for j in bit_indices(base):
            chunk += stack[j]
        yield base, chunk


def batched_spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a (m, r, c) stack."""
    if stack.shape[0] == 0:
        return np.zeros(0)
    if stack.shape[1] == 0 or stack.shape[2] == 0:
        return np.zeros(stack.shape[0])
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def max_subset_norm(vectors: np.ndarray):
    """Maximum euclidean norm of a subset sum of the given row vectors.

    Returns (value, witness) where witness is the smallest maximizing mask,
    the rule subset_sup follows: the first argmax within each chunk of
    consecutive masks, and a strict > across chunks.
    Meet-in-the-middle: low halves are enumerated once, high halves streamed,
    and ||l + h||^2 expands to ||l||^2 + 2 Re<l, h> + ||h||^2.
    """
    low_bits = min(vectors.shape[0], 16)
    low = subset_sums(vectors[:low_bits])
    low_sq = np.einsum("ij,ij->i", low, low.conj()).real
    best_sq = -1.0
    best_mask = 0
    for hi_idx, h in enumerate(subset_sums(vectors[low_bits:])):
        h_sq = float(np.vdot(h, h).real)
        cross = 2.0 * (low @ h.conj()).real
        vals = low_sq + (cross + h_sq)
        lo_idx = int(np.argmax(vals))
        if vals[lo_idx] > best_sq:
            best_sq = float(vals[lo_idx])
            best_mask = lo_idx | (hi_idx << low_bits)
    return float(np.sqrt(max(best_sq, 0.0))), best_mask


def sample_masks(n: int, seed: int) -> set:
    """The sampled subsets of an n-atom check: all pairs, then _SAMPLE_COUNT
    draws of Xorshift(seed).mask(n).  subset_sup adds the empty set, the
    singletons and the full set."""
    # imported here: only a sampled check needs the generator
    from .rng import Xorshift

    rng = Xorshift(seed)
    masks = {(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)}
    masks.update(rng.mask(n) for _ in range(_SAMPLE_COUNT))
    return masks


def masked_sums(stack: np.ndarray, masks) -> np.ndarray:
    """Subset sums of `stack` for each mask in `masks`, each accumulated
    from zero in atom index order; Ovm.evaluate is the one-mask case.

    Step t adds each mask's t-th atom to its row, so a mask list costs as
    many steps as its largest subset, not one per atom.  A row whose
    subset has fewer atoms is left alone by the masked add, and one mask
    is added atom by atom, unindexed, with the same bits."""
    bits = mask_bits(masks, stack.shape[0])
    out = np.zeros((len(bits),) + stack.shape[1:], dtype=stack.dtype)
    if len(bits) == 1:
        for j in np.flatnonzero(bits[0]):
            out[0] += stack[j]
        return out
    counts = bits.sum(axis=1)
    rows, atoms = np.nonzero(bits)
    # steps[t, i] is the t-th atom of mask i, and 0 past its last
    steps = np.zeros((int(counts.max(initial=0)), len(bits)), dtype=np.intp)
    steps[np.arange(len(atoms)) - (np.cumsum(counts) - counts)[rows], rows] = atoms
    for t, picks in enumerate(steps):
        np.add(out, stack[picks], out=out, where=(counts > t)[:, None, None])
    return out


def _genuine_sums(stack: np.ndarray) -> np.ndarray:
    """masked_sums over the genuine subsets in ascending mask order: the
    empty set, the singletons, then the full set when it is not one of
    them.  Each row starts from zero, so a -0.0 entry becomes +0.0."""
    n = stack.shape[0]
    out = np.zeros((n + 1 + (n > 1),) + stack.shape[1:], dtype=stack.dtype)
    out[1 : n + 1] += stack
    if n > 1:
        out[-1] = masked_sums(stack, [(1 << n) - 1])[0]
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


def subset_sup(stack: np.ndarray, stats, sampled: bool = False, seed: int = 0) -> dict:
    """Supremum over all subsets B of each statistic at sum_{j in B} stack[j].

    Every statistic is first evaluated at the genuine subsets the atoms give
    directly: the empty set, the singletons and the full set.  That
    gives `lower`, and the statistic's bound gives `upper`.  A statistic is
    settled there when its threshold lies outside [lower, upper), or, with
    no threshold, when upper - lower <= SETTLE_RTOL * upper.  The statistics
    left open share one pass over subset sums: all 2^n of them, or, when
    `sampled`, the subsets of sample_masks(n, seed) together with the
    genuine subsets, in ascending mask order and one chunk of _chunk_rows
    sums at a time.  The sample is drawn only when some statistic is left
    open.

    SETTLE_RTOL = 64 eps: no enumerated value is known more closely, being
    a LAPACK norm of a sum with up to n roundings.  On a 16-atom rank-one
    Parseval measure on C^8 the gap is 3-4 ulps, and the exhaustive maximum
    lands up to 4 ulps above the full-set value, the supremum up to rounding.
    The rule decides no verdict: thresholded statistics ignore it.

    Returns a dict from statistic name to SubsetSup.
    """
    n = stack.shape[0]
    genuine = sorted({0, (1 << n) - 1, *(1 << j for j in range(n))})
    sums = _genuine_sums(stack)
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
        masks = sorted(sample_masks(n, seed).union(genuine))
        rows = _chunk_rows(stack)
        passes = (
            (masks[lo : lo + rows], masked_sums(stack, masks[lo : lo + rows]))
            for lo in range(0, len(masks), rows)
        )
        examined, mode = len(masks), "sampled"
    else:
        passes = (
            (range(base, base + len(chunk)), chunk)
            for base, chunk in iter_subset_sum_chunks(stack)
        )
        examined, mode = 1 << n, "exhaustive"
    # chunks come in ascending mask order and each keeps its first argmax,
    # so the strict > below keeps the smallest maximizing mask
    peaks = {stat.name: (-np.inf, 0) for stat in open_stats}
    for chunk_masks, sums in passes:
        for stat in open_stats:
            peaks[stat.name] = max(
                peaks[stat.name], _peak(stat, sums, chunk_masks), key=lambda peak: peak[0]
            )
    for stat in open_stats:
        lower, witness = peaks[stat.name]
        upper = lower if mode == "exhaustive" else max(results[stat.name].upper, lower)
        results[stat.name] = SubsetSup(lower, upper, witness, examined, mode)
    return results
