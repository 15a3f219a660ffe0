"""Complex-vector primitives shared by every other module.

Unitary DFT convention throughout: the forward transform scales by 1/sqrt(N),
the inverse by sqrt(N), so both directions preserve the squared norm.  All
model scale factors are written explicitly at the call sites instead of being
absorbed into the transforms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class RandomSource:
    """Deterministic, key-addressable randomness.

    A source is a master seed plus a `SeedSequence` spawn key: a tuple of
    non-negative integers naming one node of the seed's stream tree.
    Identical (seed, key) pairs reproduce bit-identical draws; distinct keys
    give statistically independent streams, and `child` extends the key, so
    streams are laid out by purpose and index without arithmetic on ids.
    A campaign's layout (`harness`) is (0,) for the random training, (1, t)
    for trial t's channel and offset and (2, s, t) for its unit noise at SNR
    point s.  No key holds the trial count, so the draws are prefix-stable;
    the noise scale is not, as it follows the mean signal power of the whole
    campaign.  Parallel workers must each own their stream: a RandomSource is
    a factory, the generators it hands out are single-owner.
    """

    seed: int
    key: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.key)
        return np.random.default_rng(ss)

    def child(self, *key: int) -> "RandomSource":
        """Source on the stream below this one named by `key`."""
        return replace(self, key=self.key + key)
