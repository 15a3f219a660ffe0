"""Fixed reference job: how fast the machine is right now.

    python3 perfbench/reference.py SPAWN_TIME

run.py starts this script between campaigns.  It prints the time from
SPAWN_TIME, the parent's ``time.monotonic()`` just before the start, to the
end of the job.  The
machine the benchmark was built on is a shared VM whose speed drifts by up
to 1.8x over minutes, and the campaigns drift with it.  A fresh process
that imports numpy and runs a small fixed mix of what a campaign does per
frame (diagonal sums of a small correlation, a score over a candidate grid,
a convolution and FFT, a seeded generator and its Gaussian draws) drifts in
the same way, so the run's timings are reported at the reference speed:
value * REF_S / median(reference time).

The job uses nothing from cfolab, so a change to the program never moves
it.  It makes no BLAS call, so it wakes no BLAS threads.  It must not
change while the benchmark is in use.
"""

from __future__ import annotations

import sys
import time

import numpy as np

# Typical time of one reference run on a 2-core Intel Xeon VM (Python
# 3.11.7, numpy 2.4.6); it fixes only the unit of the normalised metrics.
REF_S = 0.18
ITERATIONS = 50


def reference_job() -> float:
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((16, 192)) + 1j * rng.standard_normal((16, 192))
    signal = np.exp(2j * np.pi * rng.random(1104))
    taps = rng.standard_normal(75) + 1j * rng.standard_normal(75)
    grid = np.arange(-8.0, 8.0, 0.05)
    acc = 0.0
    for k in range(ITERATIONS):
        c = np.einsum("ik,jk->ij", x, x.conj())
        d = np.array([np.trace(c, offset=q) for q in range(16)])
        z = (np.exp(2j * np.pi * np.outer(grid, np.arange(16)) / 16) * d).sum(axis=1)
        y = np.fft.fft(np.convolve(signal, taps)[80:1104] * signal[:1024])
        gen = np.random.default_rng(np.random.SeedSequence(k, spawn_key=(k,)))
        noise = gen.standard_normal((3, 1024)) + 1j * gen.standard_normal((3, 1024))
        acc += float(np.real(z).max()) + float(np.abs(y + noise[0]).sum())
        x = np.roll(x, 1, axis=1)
    return acc


if __name__ == "__main__":
    if not np.isfinite(reference_job()):
        raise SystemExit("reference job produced a non-finite result")
    print(repr(time.monotonic() - float(sys.argv[1])))
