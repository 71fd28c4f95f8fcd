"""Deterministic pseudo-random sampling.

All randomized diagnostics in this package draw from the xorshift64* generator
implemented here, never from global state.  The generator is fully specified
by this file, so reports produced from the same seed are byte-identical across
platforms and processes:

* state update: ``s ^= s >> 12; s ^= s << 25; s ^= s >> 27`` (64-bit),
  output ``(s * 0x2545F4914F6CDD1D) mod 2**64``;
* seeding: the raw seed is passed through one round of splitmix64 so that
  small seeds (0, 1, 2, ...) yield well-mixed initial states;
* uniforms take the top 53 bits, normals use the Box-Muller transform.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Xorshift:
    """xorshift64* stream seeded via splitmix64.

    Parameters
    ----------
    seed : int
        Any Python integer; reduced mod 2**64.  Seeds mapping to the
        forbidden all-zero state are replaced by a fixed nonzero constant.
    """

    def __init__(self, seed: int = 0):
        state = _splitmix64(seed & _MASK)
        self._state = state if state != 0 else _MULT

    def u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s ^= (s << 25) & _MASK
        s ^= s >> 27
        self._state = s
        return (s * _MULT) & _MASK

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) * (1.0 / (1 << 53))

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, free of modulo bias."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.u64()
            if u < limit:
                return u % n

    def mask(self, bits: int) -> int:
        """Uniform subset mask over `bits` atoms."""
        out = 0
        remaining = bits
        while remaining > 0:
            take = min(remaining, 64)
            out = (out << take) | (self.u64() >> (64 - take))
            remaining -= take
        return out

    def normals(self, shape) -> np.ndarray:
        """Array of standard normal floats via Box-Muller."""
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        vals = []
        while len(vals) < count:
            u1 = self.uniform()
            u2 = self.uniform()
            if u1 <= 0.0:
                continue
            radius = math.sqrt(-2.0 * math.log(u1))
            angle = 2.0 * math.pi * u2
            vals.append(radius * math.cos(angle))
            vals.append(radius * math.sin(angle))
        return np.array(vals[:count], dtype=np.float64).reshape(shape)

    def signs(self, count: int) -> np.ndarray:
        """Array of +-1.0 floats."""
        return np.array([1.0 if self.u64() >> 63 else -1.0 for _ in range(count)])
