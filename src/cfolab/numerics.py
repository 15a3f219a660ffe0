"""Complex-vector primitives and seeded random streams for every other module.

Unitary DFT convention throughout: the forward transform scales by 1/sqrt(N),
the inverse by sqrt(N), so both directions preserve the squared norm.  All
model scale factors are written explicitly at the call sites instead of being
absorbed into the transforms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator

import numpy as np


def dft(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Unitary DFT of a 1-D complex vector (conjugate transpose if inverse)."""
    x = np.asarray(x, dtype=complex)
    n = x.shape[-1]
    if n < 1:
        raise ValueError("dft requires length >= 1")
    if inverse:
        return np.fft.ifft(x) * np.sqrt(n)
    return np.fft.fft(x) / np.sqrt(n)


def phase_ramp(length: int, cycles: float, n: int) -> np.ndarray:
    """Progressive phase vector: element m equals exp(j*2*pi*cycles*m/n).

    `cycles` is measured in subcarrier spacings of an n-point grid; `length`
    may differ from `n` (e.g. a pilot-length ramp on the full-grid clock).
    """
    if length < 1 or n < 1:
        raise ValueError("phase_ramp requires length >= 1 and n >= 1")
    return np.exp(2j * np.pi * cycles * np.arange(length) / n)


def cyclic_shift(x: np.ndarray, m: int) -> np.ndarray:
    """Cyclic down-shift by m positions: output[k] = x[(k - m) mod len(x)]."""
    return np.roll(np.asarray(x), m)


def complex_normal(rng: np.random.Generator, shape, variance: float = 1.0) -> np.ndarray:
    """Circularly-symmetric complex Gaussian draws with the given total variance.

    Real and imaginary parts are independent N(0, variance/2), taken from one
    draw: all real parts, then all imaginary parts.  `shape` may be an int.
    """
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = np.sqrt(variance / 2.0) * rng.standard_normal((2, *out.shape))
    return out


def _hasher(const: int, mult: int):
    """O'Neill's seed_seq_fe hash step, whose constant advances on every call."""
    def hashmix(value):
        nonlocal const
        const, value = const * mult & 0xFFFFFFFF, value ^ const
        return (value := value * const & 0xFFFFFFFF) ^ value >> 16
    return hashmix


def _state_words(seed: int, key: tuple, *tail) -> np.ndarray:
    """The (n, 4) uint64 words that numpy's `SeedSequence` of the seed and the
    spawn key key + tail hands PCG64: `mix_entropy` into a pool of 4, then
    `generate_state`.  A tail word may be a uint64 array of n keys' words; the
    uint32 arithmetic broadcasts."""
    if min(ints := [operator.index(v) for v in (seed, *key)]) < 0:
        raise ValueError(f"seeds and spawn key elements must be non-negative, got {min(ints)}")
    seed_words, *key_words = [[v >> s & 0xFFFFFFFF for s in range(0, max(v.bit_length(), 1), 32)]
                              for v in ints]
    spawn = sum(key_words, []) + [*tail]
    # numpy pads the seed's words to the pool's 4 under a spawn key
    entropy = seed_words + [0] * (4 - len(seed_words)) * bool(spawn) + spawn
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    mix = lambda x, y: (r := (0xCA01F9DD * x - 0x4973F715 * y) & 0xFFFFFFFF) ^ r >> 16
    for src, dst in permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in product(entropy[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hasher(0x8B51F9DD, 0x58F38DED)
    half = [hashmix(pool[i % 4]) for i in range(8)]  # little-endian uint64 pairs
    return np.array([lo | hi << 32 for lo, hi in zip(half[::2], half[1::2])],
                    dtype=np.uint64).T.reshape(-1, 4)


@lru_cache(maxsize=None)
def _seeded():
    """words -> a Generator whose PCG64 takes these state words and fails on any
    other request.  Built on first use: importing numpy.random takes tens of ms."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, np.dtype(dtype)) != (4, np.uint64):
                raise ValueError(f"holds 4 uint64 state words, not {n_words} {dtype}")
            return self.words.copy()
    return lambda words: np.random.Generator(np.random.PCG64(StateWords(words)))


@dataclass(frozen=True)
class RandomSource:
    """Deterministic, key-addressable randomness: a master seed and a spawn key.

    The key is a tuple of non-negative integers naming one node of the seed's
    stream tree.  Its generator is, bit for bit, numpy's `default_rng` of the
    `SeedSequence` of seed and key, with that hash computed here: `generators`
    hashes a run of keys in one vectorised pass.  Identical (seed, key) pairs
    reproduce bit-identical draws and distinct keys give statistically
    independent streams; `harness` lays out a campaign's keys.  A RandomSource
    is a factory; the generators it hands out are single-owner.
    """

    seed: int
    key: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        return _seeded()(_state_words(self.seed, self.key)[0])

    def generators(self, n: int) -> Iterator[np.random.Generator]:
        """The generators of keys key + (i,) for i < n, in order, hashed in one pass."""
        if not 0 <= n <= 2**32:  # i < 2**32 is one entropy word
            raise ValueError(f"generators takes 0 to 2**32 keys, got {n}")
        return map(_seeded(), _state_words(self.seed, self.key, np.arange(n, dtype=np.uint64)))
