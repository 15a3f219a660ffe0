"""Correlation-diagonal CFO estimator and the grid-search ML baseline.

The received frame is reshaped into Q period-rows.  The sample correlation
of that matrix concentrates the CFO in the phases of its diagonal sums: the
q-th upper-diagonal sum rotates by exp(-j*2*pi*cfo*q/Q) relative to the
training's own comb phases.  The simplified estimator turns the ratio of one
conjugated diagonal sum to its mirror into Q closed-form candidate offsets
(integer-spaced, identical fractional part) and picks the candidate that
maximises the likelihood score.  Cost: Q lag sums of the period rows plus Q
score evaluations - no line search, no polynomial rooting.

A stacked frame is the plain length-Q array of its lag sums (`stack`); the
estimators read nothing else.  A mirror sum counts as zero at 1e-12 of c_0.
The ML baseline, the accuracy/runtime reference, maximises the same score by
brute force on a two-stage grid over the circle [-Q/2, Q/2) (`wrap_offset`).

Both estimators score on cached read-only phase tables from a moving origin
(`likelihood`'s `origin`, which rotates the weights by the running powers of
one complex exp per origin): the simplified estimator its candidates as
integer offsets from their fractional part (`integer_offsets`), the ML
baseline its grids on `ml_tables`, which a campaign builds once.  A
simplified estimate is a dozen numpy calls on Q-element arrays (12-20 us at
the reference dimensions on a 2-core VM); (T, Q) lag sums and a sequence of
indices share them, so 15 indices of a 64-frame chunk cost 7-10 us a frame.

The score products stay on the calling thread, also where numpy loaded before
`import cfolab` (which loads OpenBLAS with one thread): `ml_tables` holds each ML
grid's phase table as equal row blocks below SERIAL_BLAS_ELEMENTS (`_row_blocks`),
so `likelihood` scores every table, and a chunk of frames row by row, in one
stacked product.  So do the gemms of `transmit_receive` (2 x 18 by 18 x 1024) and
`stack` (16 x 128 by 128 x 16) at the reference dimensions, and `analysis.emcb`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .training import SystemConfig


# grid steps of the ML baseline, in subcarrier spacings
COARSE_STEP = 0.05
FINE_STEP = 1e-4

# OpenBLAS runs a complex matrix-vector product of fewer elements than this on
# the calling thread and hands larger ones to its worker threads, which then
# spin between frames.  Measured with OpenBLAS 0.3.31 on two cores, repeated
# products with Python work between them: 255 x 16 ran at CPU/wall 0.99,
# 256 x 16 at 1.99.
SERIAL_BLAS_ELEMENTS = 4096


class DegenerateDiagonalError(RuntimeError):
    """The selected correlation diagonal carries no usable signal."""


@dataclass
class CfoEstimate:
    value: float
    diag_ratio: complex | None = None
    candidates: np.ndarray | None = field(default=None, repr=False)
    scores: np.ndarray | None = field(default=None, repr=False)


def stack(frame: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Lag sums c of an (n_rx, N) frame: row q of the Q x (n_rx * P) matrix M
    holds period q of every receive antenna, and c_k = sum over r of
    G[r + k, r] = vdot(M[r + k], M[r]) with G = conj(M) @ M^T one Gram product:
    the k-th upper-diagonal sum of the sample correlation G^T, summed by
    `np.add.reduceat`.  c_0 is the frame energy; no |c_k| exceeds it."""
    n, p, q = cfg.n_subcarriers, cfg.pilot_len, cfg.n_periods
    if frame.shape != (cfg.n_rx, n):
        raise ValueError(
            f"frame shape {frame.shape} does not match config ({cfg.n_rx}, {n})"
        )
    matrix = frame.reshape(cfg.n_rx, q, p).transpose(1, 0, 2).reshape(q, -1)
    order, starts = _lag_order(q)
    sums = np.add.reduceat((matrix.conj() @ matrix.T).ravel()[order], starts)
    sums.imag[0] = 0.0  # whatever a BLAS kernel's rounding of a_r*a_i and a_i*a_r
    return sums


@lru_cache(maxsize=16)
def _lag_order(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices of G[r + k, r], lag by lag, and each lag's start (read-only)."""
    order = np.concatenate([np.arange(k * q, q * q, q + 1) for k in range(q)])
    starts = np.r_[0, np.cumsum(np.arange(q, 1, -1))]
    order.flags.writeable = starts.flags.writeable = False
    return order, starts


@lru_cache(maxsize=16)
def _lags(n_periods: int) -> np.ndarray:
    """arange(Q) as floats, read-only, once per Q."""
    q = np.arange(float(n_periods))
    q.flags.writeable = False
    return q


def diag_ratio(c: np.ndarray, diag_index: int) -> complex:
    """Complex ratio of mirrored lag sums whose argument encodes the CFO.

    ratio = i * conj(c_i) / ((Q - i) * c_{Q-i}) for diagonal index i of the
    lag sums c (`stack`).  Raises DegenerateDiagonalError when the mirror sum
    is numerically negligible, |c_{Q-i}| at most 1e-12 of the frame energy
    c_0, since the phase would then be meaningless.  As no |c_k| exceeds c_0,
    c_0 is within sqrt(Q) of the lag sums' norm.
    """
    q = len(c)
    if not 1 <= diag_index <= q - 1:
        raise ValueError(f"diag_index must be in [1, {q - 1}], got {diag_index}")
    mirror = c[q - diag_index]
    if abs(mirror) <= 1e-12 * c[0].real:
        raise DegenerateDiagonalError(
            f"diagonal sum {q - diag_index} is numerically zero; "
            f"estimation impossible at diag_index={diag_index}"
        )
    return complex(diag_index * c[diag_index].conjugate() / ((q - diag_index) * mirror))


def candidate_grid(ratio: complex, n_periods: int) -> np.ndarray:
    """Q candidate offsets tiling [-Q/2, Q/2) with spacing exactly 1.

    The fractional part is arg(ratio)/(2*pi) taken in [0, 1); the integer
    parts enumerate the CFO ambiguity left by the period-Q structure.
    """
    if ratio == 0:
        raise DegenerateDiagonalError("zero diagonal ratio has no usable phase")
    frac = (float(np.arctan2(ratio.imag, ratio.real)) / (2 * np.pi)) % 1.0
    return frac + _lags(n_periods) - n_periods / 2.0


def _phases(eps: np.ndarray, n_periods: int) -> np.ndarray:
    """2*exp(j*2*pi*eps*q/Q) for every element of eps, along a new last axis q:
    the score's factor 2 rides on the table, where it is exact."""
    return 2.0 * np.exp(2j * np.pi * (eps[..., None] * _lags(n_periods)) / n_periods)


def _row_blocks(eps: np.ndarray, n_periods: int) -> np.ndarray:
    """`_phases(eps, Q)` for n >= 2 offsets as (k, r, Q): k equal blocks of 2 to
    max((SERIAL_BLAS_ELEMENTS - 1) // Q, 2) rows, with eps[:k*r - n] again at the end
    (k*r - n < k).  A row's score has the bits of one product over the whole table."""
    n = len(eps)
    blocks = -(-n // max((SERIAL_BLAS_ELEMENTS - 1) // n_periods, 2))
    rows = -(-n // blocks)
    padded = np.concatenate((eps, eps[:blocks * rows - n]))
    return _phases(padded, n_periods).reshape(blocks, rows, n_periods)


def likelihood(c: np.ndarray, cfo, cfg: SystemConfig, *, origin: float = 0.0,
               phases: np.ndarray | None = None) -> np.ndarray:
    """Likelihood scores of offsets origin + cfo: an array, even for a scalar cfo.

    Score(eps) = 2 * Re sum_q c_q * B_q * z^q with c the lag sums (`stack`),
    z = exp(j*2*pi*eps/Q) and B_q the comb phase sums; equal to the trace form
    up to the constant n_tx * c_0, so both have identical maximisers.  A
    nonzero `origin` rotates the weights c_q * B_q by its own z^q, so a grid
    that moves with the frame is scored on one fixed table of offsets: one
    complex exp per origin, z, and its powers as a running product along q,
    each within about q roundings of exp(j*2*pi*origin*q/Q).  A scalar origin
    and an array take z by one formula, so a row's z is its scalar call's.
    `phases`, when given, is that table, `_phases(cfo, Q)` or its row blocks
    (`_row_blocks`), held by a caller that reuses it; the scores take its shape
    less the last axis.  An (n,) array of origins gives (n, rows) scores, row r
    the bits of the call with origin r, and (T, Q) lag sums with (T, n) origins
    (T, n, rows).  Each shape is one stacked product of matrix-vector ones.
    """
    q = c.shape[-1]
    rows = isinstance(origin, np.ndarray)
    weights = (c[..., None, :] if rows else c) * cfg.comb_phase_sums
    if rows or origin:
        rotation = np.empty(np.shape(origin) + (q,), dtype=complex)
        rotation[..., 0] = 1.0
        # one formula for a scalar origin and an array: one rounded product
        # for the angle, an exact 1j * angle and numpy's complex exp
        z = np.exp(1j * (origin * (2 * np.pi / q)))
        rotation[..., 1:] = z[..., None] if rows else z
        np.multiply.accumulate(rotation, axis=-1, out=rotation)
        weights = np.multiply(weights, rotation, out=rotation)
    if phases is None:
        phases = _phases(np.atleast_1d(np.asarray(cfo, dtype=float)), q)
    return np.matmul(phases, weights[..., None])[..., 0].real


@lru_cache(maxsize=16)
def integer_offsets(n_periods: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets arange(Q) - Q/2 of the simplified estimator's candidates from
    their fractional part, and their phase table (read-only, once per Q)."""
    offsets = _lags(n_periods) - n_periods / 2.0
    tables = (offsets, _phases(offsets, n_periods))
    for table in tables:
        table.flags.writeable = False
    return tables


def estimate_simplified(c: np.ndarray, diag_index,
                        cfg: SystemConfig) -> CfoEstimate | np.ndarray:
    """Closed-form candidate construction plus a Q-point score comparison on
    the cached `integer_offsets` table: Q phases per call, not Q x Q.  Ties
    on the score break toward smaller |cfo|, then smaller candidate index.

    (T, Q) lag sums and a sequence of n indices give a (T, n) array of
    values: entry (t, j) is the int call's value on frame t and index j, bit
    for bit, or NaN where that call raises DegenerateDiagonalError.
    """
    if not isinstance(diag_index, (int, np.integer)):
        return _estimate_batch(c, diag_index, cfg)
    ratio = diag_ratio(c, diag_index)
    cand = candidate_grid(ratio, len(c))
    offsets, phases = integer_offsets(len(c))
    scores = likelihood(c, offsets, cfg, origin=cand[0] - offsets[0], phases=phases)
    listed = scores.tolist()
    best = listed.index(max(listed))
    if listed.count(listed[best]) > 1:
        best = np.lexsort((np.arange(len(cand)), np.abs(cand), -scores))[0]
    return CfoEstimate(value=float(cand[best]), diag_ratio=ratio,
                       candidates=cand, scores=scores)


def _estimate_batch(c: np.ndarray, indices, cfg: SystemConfig) -> np.ndarray:
    """`diag_ratio` and the candidates' fractional part as (T, n) arrays, one
    `likelihood` call, and the int call's rules row by row."""
    q = np.shape(c)[-1]
    if np.ndim(c) != 2 or not all(isinstance(i, (int, np.integer)) and 0 < i < q for i in indices):
        raise ValueError(f"need (T, Q) lag sums and diag_index integers in [1, {q - 1}], "
                         f"got shape {np.shape(c)} and {indices!r}")
    idx = np.array(indices, dtype=int)
    mirror = c[:, q - idx]
    usable = ~(np.abs(mirror) <= 1e-12 * c[:, :1].real)
    # a degenerate mirror divides by one instead: its value is dropped below
    ratio = idx * c[:, idx].conj() / ((q - idx) * np.where(usable, mirror, 1.0))
    usable &= ratio != 0
    frac = np.arctan2(ratio.imag, ratio.real) / (2 * np.pi) % 1.0
    offsets, phases = integer_offsets(q)
    scores = likelihood(c, offsets, cfg, origin=(frac - q / 2.0) - offsets[0], phases=phases)
    best = scores.argmax(axis=-1)
    # a row's maximum is tied when its first and last occurrences differ
    for row in zip(*np.nonzero(best != q - 1 - scores[..., ::-1].argmax(axis=-1))):
        cand = frac[row] + _lags(q) - q / 2.0
        best[row] = np.lexsort((np.arange(q), np.abs(cand), -scores[row]))[0]
    values = (frac + best) - q / 2.0  # candidate `best`, as `candidate_grid` adds it
    values[~usable] = np.nan
    return values


def ml_tables(cfg: SystemConfig) -> tuple[np.ndarray, ...]:
    """The grids and phase tables of the ML baseline (read-only): the coarse
    grid, its phase table, the fine offsets k*FINE_STEP and their phase table.
    Each table is in row blocks (`_row_blocks`): grid point i scores at
    `.ravel()[i]`.  At Q = 16 the coarse table is 2 x 160 rows, the fine 4 x 251.

    The fine offsets cover every grid `estimate_ml_grid` can scan: an arange
    over 2*COARSE_STEP has 2*COARSE_STEP/FINE_STEP points, or one more after
    rounding.  A fine grid may cross +-Q/2; its pick is wrapped into [-Q/2, Q/2).
    """
    half = cfg.cfo_half_range
    coarse = np.arange(-half, half, COARSE_STEP)
    steps = np.arange(round(2 * COARSE_STEP / FINE_STEP) + 1) * FINE_STEP
    tables = (coarse, _row_blocks(coarse, cfg.n_periods), steps,
              _row_blocks(steps, cfg.n_periods))
    for table in tables:
        table.flags.writeable = False
    return tables


def wrap_offset(x, n_periods: int):
    """x modulo Q in [-Q/2, Q/2): an ML pick, or a campaign's error, on the circle."""
    return (x + n_periods / 2.0) % n_periods - n_periods / 2.0


def estimate_ml_grid(c: np.ndarray, cfg: SystemConfig,
                     tables: tuple[np.ndarray, ...] | None = None) -> CfoEstimate:
    """Two-stage grid maximisation of the likelihood over the circle [-Q/2, Q/2).

    Coarse scan at COARSE_STEP, then a fine scan at FINE_STEP of
    +-COARSE_STEP around the best coarse point, whole even across +-Q/2, its
    pick wrapped (`wrap_offset`): about 1300 points at the reference Q = 16,
    against the simplified estimator's Q.  Fine scores are taken as offsets
    from the grid's first point: a fresh evaluation differs by rounding only.
    `tables` is `ml_tables(cfg)`: without it the call builds its own, so one
    estimate pays for every phase of its grids; a campaign builds it once.
    """
    coarse, coarse_phases, steps, step_phases = ml_tables(cfg) if tables is None else tables
    best = coarse[likelihood(c, coarse, cfg, phases=coarse_phases).ravel()[:len(coarse)].argmax()]
    fine = np.arange(best - COARSE_STEP, best + COARSE_STEP, FINE_STEP)
    n = len(fine)
    scores = likelihood(c, steps[:n], cfg, origin=fine[0], phases=step_phases).ravel()[:n]
    return CfoEstimate(value=float(wrap_offset(fine[scores.argmax()], cfg.n_periods)))
