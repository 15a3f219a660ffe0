"""Correlation-diagonal CFO estimator and the grid-search ML baseline.

The received frame is reshaped into Q period-rows.  The sample correlation
of that matrix concentrates the CFO in the phases of its diagonal sums: the
q-th upper-diagonal sum rotates by exp(-j*2*pi*cfo*q/Q) relative to the
training's own comb phases.  The simplified estimator turns the ratio of one
conjugated diagonal sum to its mirror into Q closed-form candidate offsets
(integer-spaced, identical fractional part) and picks the candidate that
maximises the likelihood score.  Cost: Q lag sums of the period rows plus Q
score evaluations - no line search, no polynomial rooting.

The ML baseline maximises the same score by brute force on a two-stage grid
and serves as the accuracy/runtime reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .training import SystemConfig


# grid steps of the ML baseline, in subcarrier spacings
COARSE_STEP = 0.05
FINE_STEP = 1e-4


class DegenerateDiagonalError(RuntimeError):
    """The selected correlation diagonal carries no usable signal."""


@dataclass(frozen=True)
class StackedFrame:
    """Period-stacked view of a received frame.

    matrix:    Q x (n_rx * P), row q holds period q of every receive antenna.
    diag_sums: length-Q vector of lag sums, element q = sum over r and n of
               matrix[r, n] * conj(matrix[r + q, n]): the q-th upper-diagonal
               sum of the sample correlation matrix @ matrix^H, which is never
               formed (element 0 = total energy, real and non-negative).
    """

    matrix: np.ndarray = field(repr=False)
    diag_sums: np.ndarray = field(repr=False)

    @property
    def n_periods(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class CfoEstimate:
    value: float
    diag_ratio: complex | None = None
    candidates: np.ndarray | None = field(default=None, repr=False)
    scores: np.ndarray | None = field(default=None, repr=False)


def stack(frame: np.ndarray, cfg: SystemConfig) -> StackedFrame:
    """Reshape an (n_rx, N) frame into period rows and take their lag sums."""
    n, p, q = cfg.n_subcarriers, cfg.pilot_len, cfg.n_periods
    if frame.shape != (cfg.n_rx, n):
        raise ValueError(
            f"frame shape {frame.shape} does not match config ({cfg.n_rx}, {n})"
        )
    matrix = np.hstack([frame[nu].reshape(q, p) for nu in range(cfg.n_rx)])
    diag_sums = np.array([np.vdot(matrix[k:], matrix[:q - k]) for k in range(q)])
    return StackedFrame(matrix=matrix, diag_sums=diag_sums)


def comb_phase_sums(cfg: SystemConfig) -> np.ndarray:
    """Element q = sum over antennas of exp(j*2*pi*offset*q/Q)."""
    q = np.arange(cfg.n_periods)
    offs = np.asarray(cfg.offsets, dtype=float)
    return np.exp(2j * np.pi * np.outer(q, offs) / cfg.n_periods).sum(axis=1)


def diag_ratio(sf: StackedFrame, diag_index: int) -> complex:
    """Complex ratio of mirrored diagonal sums whose argument encodes the CFO.

    ratio = i * conj(c_i) / ((Q - i) * c_{Q-i}) for diagonal index i.  Raises
    DegenerateDiagonalError when the mirror sum is numerically negligible
    (|c_{Q-i}| below 1e-12 of the diagonal-sum norm), since the phase would
    then be meaningless.
    """
    q = sf.n_periods
    if not 1 <= diag_index <= q - 1:
        raise ValueError(f"diag_index must be in [1, {q - 1}], got {diag_index}")
    c = sf.diag_sums
    mirror = c[q - diag_index]
    if abs(mirror) <= 1e-12 * np.linalg.norm(c):
        raise DegenerateDiagonalError(
            f"diagonal sum {q - diag_index} is numerically zero; "
            f"estimation impossible at diag_index={diag_index}"
        )
    return complex(diag_index * np.conj(c[diag_index]) / ((q - diag_index) * mirror))


def candidate_grid(ratio: complex, n_periods: int) -> np.ndarray:
    """Q candidate offsets tiling [-Q/2, Q/2) with spacing exactly 1.

    The fractional part is arg(ratio)/(2*pi) taken in [0, 1); the integer
    parts enumerate the CFO ambiguity left by the period-Q structure.
    """
    if ratio == 0:
        raise DegenerateDiagonalError("zero diagonal ratio has no usable phase")
    frac = (np.angle(ratio) / (2 * np.pi)) % 1.0
    return frac + np.arange(n_periods) - n_periods / 2.0


def likelihood(sf: StackedFrame, cfo, cfg: SystemConfig) -> np.ndarray | float:
    """Likelihood score of candidate offsets (scalar in, scalar out).

    Score(eps) = 2 * Re sum_q c_q * B_q * z^q with z = exp(j*2*pi*eps/Q) and
    B_q the comb phase sums; equal to the trace form up to the constant
    n_tx * c_0, so both have identical maximisers.
    """
    q = np.arange(sf.n_periods)
    weights = sf.diag_sums * comb_phase_sums(cfg)
    eps = np.atleast_1d(np.asarray(cfo, dtype=float))
    zq = np.exp(2j * np.pi * np.outer(eps, q) / sf.n_periods)
    vals = 2.0 * np.real(zq @ weights)
    return vals if np.ndim(cfo) else float(vals[0])


def estimate_simplified(sf: StackedFrame, diag_index: int,
                        cfg: SystemConfig) -> CfoEstimate:
    """Closed-form candidate construction plus a Q-point score comparison.

    Ties on the score break toward smaller |cfo|, then smaller candidate
    index, so the output is deterministic.
    """
    ratio = diag_ratio(sf, diag_index)
    cand = candidate_grid(ratio, sf.n_periods)
    scores = likelihood(sf, cand, cfg)
    best = min(range(len(cand)), key=lambda i: (-scores[i], abs(cand[i]), i))
    return CfoEstimate(value=float(cand[best]), diag_ratio=ratio,
                       candidates=cand, scores=scores)


def estimate_ml_grid(sf: StackedFrame, cfg: SystemConfig) -> CfoEstimate:
    """Two-stage grid maximisation of the likelihood over (-Q/2, Q/2).

    Coarse scan at COARSE_STEP, then a fine scan at FINE_STEP of
    +-COARSE_STEP around the best coarse point: about 1300 points at the
    reference Q = 16, against the simplified estimator's Q.
    """
    half = cfg.cfo_half_range
    coarse = np.arange(-half, half, COARSE_STEP)
    best = coarse[int(np.argmax(likelihood(sf, coarse, cfg)))]
    fine = np.arange(best - COARSE_STEP, best + COARSE_STEP, FINE_STEP)
    fine = fine[(fine >= -half) & (fine < half)]
    value = fine[int(np.argmax(likelihood(sf, fine, cfg)))]
    return CfoEstimate(value=float(value))
