"""Reproducible 64-bit PRNG used for all seeded parameter / input streams.

The generator is splitmix64.  Stream element i (0-based) is

    value_i = mix64(seed + (i + 1) * 0x9E3779B97F4A7C15)   (mod 2^64)

    mix64(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
              z ^= z >> 27; z *= 0x94D049BB133111EB
              z ^= z >> 31

Doubles are (value >> 11) * 2^-53 in [0, 1).  Because element i depends only
on (seed, i), whole arrays are filled without sequential state.  Named
sub-streams derive their seed as mix64(seed XOR fnv1a64(label)) so that a
parameter tensor's values do not depend on initialisation order.  The same
description is emitted into the parameter manifest.
"""

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def mix64(z):
    """splitmix64 finalizer on uint64 scalars or arrays (an array is mixed
    in one copy)."""
    return _mix64_inplace(np.uint64(z) if np.isscalar(z) else z.astype(np.uint64))


def _mix64_inplace(z):
    """mix64 of z (uint64), an array mixed in place with one shifted
    temporary at a time."""
    with np.errstate(over="ignore"):  # wraparound is the point
        z ^= z >> np.uint64(30)
        z *= _M1
        z ^= z >> np.uint64(27)
        z *= _M2
        z ^= z >> np.uint64(31)
    return z


def fnv1a64(label: str) -> int:
    h = _FNV_OFFSET
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, label: str) -> int:
    return int(mix64(np.uint64((seed ^ fnv1a64(label)) & _MASK64)))


class SplitMix64:
    """Sequential view over the splitmix64 stream for one seed."""

    def __init__(self, seed: int):
        self.seed = np.uint64(seed & _MASK64)
        self._index = 0

    def next_uint64(self, n: int) -> np.ndarray:
        z = np.arange(self._index + 1, self._index + n + 1, dtype=np.uint64)
        self._index += n
        with np.errstate(over="ignore"):
            z *= GOLDEN
            z += self.seed
        return _mix64_inplace(z)

    def uniform(self, shape, low=0.0, high=1.0) -> np.ndarray:
        n = int(np.prod(shape)) if shape else 1
        z = self.next_uint64(n)
        z >>= np.uint64(11)
        u = z.astype(np.float64)
        u *= 2.0**-53
        u *= high - low
        u += low
        return u.reshape(shape)


def stream(seed: int, label: str) -> SplitMix64:
    """Independent sub-stream for a named tensor."""
    return SplitMix64(derive_seed(seed, label))
