"""Complex-vector primitives and seeded random streams for every other module.

Unitary DFT convention throughout: the forward transform scales by 1/sqrt(N),
the inverse by sqrt(N), so both directions preserve the squared norm.  All
model scale factors are written explicitly at the call sites instead of being
absorbed into the transforms.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly-symmetric complex Gaussian draws of unit total variance.

    Real and imaginary parts are independent N(0, 1/2), taken from one draw:
    all real parts, then all imaginary parts.  `shape` may be an int.
    """
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = np.sqrt(0.5) * rng.standard_normal((2, *out.shape))
    return out


@dataclass(frozen=True)
class RandomSource:
    """Deterministic, key-addressable randomness: a master seed and a spawn key.

    The key is a tuple of non-negative integers naming one stream under the
    seed.  Its generator is numpy's `default_rng` of the `SeedSequence` of
    seed and key, so identical (seed, key) pairs reproduce bit-identical
    draws and distinct keys give statistically independent streams;
    `harness` lays out a campaign's keys.  A RandomSource is a factory; the
    generators it hands out are single-owner.
    """

    seed: int
    key: tuple[int, ...] = ()

    def generator(self) -> np.random.Generator:
        # numpy.random loads on first use: importing it takes tens of ms
        return np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=self.key))
