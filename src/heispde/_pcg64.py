"""NumPy's SeedSequence and PCG64 (M. E. O'Neill, 2014) in Python integers.

words(seed, k) is numpy's default_rng(seed).integers(0, 2**64, size=k,
dtype=np.uint64) word for word, without importing numpy.random.  The seed's
32-bit words (least significant first) fill a pool of four or are mixed into
it; the pool is drawn as (w0, w1, w2, w3), the LCG's state w0 w1 and stream
w2 w3.  Over the whole uint64 range integers returns the XSL-RR outputs.
"""

from collections.abc import Iterator
from itertools import permutations, product

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hash of a word; each call moves const on by mult."""
    def hash_(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hash_


def words(seed: int, k: int) -> Iterator[int]:
    """The first k outputs of PCG64 seeded by SeedSequence(seed), seed an integer >= 0."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    cells = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)] + entropy[4:]
    for src, dst in [*permutations(range(4), 2), *product(range(4, len(cells)), range(4))]:
        x = (0xCA01F9DD * cells[dst] - 0x4973F715 * hashmix(cells[src])) & _M32
        cells[dst] = x ^ x >> 16
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    halves = [draw(cells[i % 4]) for i in range(8)]
    w0, w1, w2, w3 = (halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2))
    inc = (w2 << 65 | w3 << 1 | 1) & _M128
    state = ((inc + (w0 << 64 | w1)) * _MULT + inc) & _M128
    for _ in range(k):
        state = (state * _MULT + inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        yield (x >> rot | x << (64 - rot)) & _M64
