"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (direct sums,
dense matrices, closed forms) so the production code is checked against a
second route, not against itself.
"""

import csv
from functools import lru_cache
from typing import IO

import numpy as np

from cfolab import (ChannelRealization, ConfigError, StackedFrame,
                    SystemConfig, TrainingSet, diag_ratio, period_gram)
from cfolab.channel import _check_cfo
from cfolab.estimator import comb_phase_sums
from cfolab.numerics import phase_ramp


def dft_direct(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """O(n^2) unitary DFT by explicit summation."""
    x = np.asarray(x, dtype=complex)
    n = len(x)
    k = np.arange(n)
    sign = 1j if inverse else -1j
    mat = np.exp(sign * 2 * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return mat @ x


def dft_matrix(n: int) -> np.ndarray:
    """Dense n-by-n unitary DFT matrix, entry (k, m) = exp(-j*2*pi*k*m/n)/sqrt(n)."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) / np.sqrt(n)


def periodic_autocorr(s: np.ndarray, lag: int) -> complex:
    """Brute-force periodic autocorrelation sum_p s[p] conj(s[(p+lag) mod P])."""
    p = len(s)
    return complex(sum(s[i] * np.conj(s[(i + lag) % p]) for i in range(p)))


def circular_convolve(a: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Length-preserving circular convolution via the convolution theorem."""
    n = len(a)
    return np.fft.ifft(np.fft.fft(a) * np.fft.fft(taps, n))


def shift_correlation_closed_form(cfg: SystemConfig, lag_a: int, lag_b: int,
                                  ant_a: int, ant_b: int) -> complex:
    """Closed form of the shifted-generator correlation for the cbts design.

    Derived from the geometric sum over the quadratic-phase sequence:
    with a = ant_a * stride + lag_a, b likewise, d = root*(a-b) - w and
    w = (offset_a - offset_b)/Q, the correlation equals
    exp(j*pi*root*(a^2-b^2)/P) * exp(-j*pi*(P-1)*d/P) * sin(pi*d)/sin(pi*d/P),
    with the limit P when d is a multiple of P.
    """
    p, q, root = cfg.pilot_len, cfg.n_periods, cfg.chu_root
    a = ant_a * cfg.shift_stride + lag_a
    b = ant_b * cfg.shift_stride + lag_b
    w = (cfg.offsets[ant_a] - cfg.offsets[ant_b]) / q
    d = root * (a - b) - w
    quad_phase = np.exp(1j * np.pi * root * (a * a - b * b) / p)
    den = np.sin(np.pi * d / p)
    if abs(den) < 1e-12:
        # d is a multiple of P: the geometric sum degenerates to P terms of 1
        return complex(quad_phase * p)
    return complex(quad_phase * np.exp(-1j * np.pi * (p - 1) * d / p)
                   * np.sin(np.pi * d) / den)


def kron_model_matrix(s: np.ndarray, n_rx: int) -> np.ndarray:
    """Full receive-stacked design matrix I_{n_rx} (x) S."""
    return np.kron(np.eye(n_rx), s)


def shift_correlation(ts: TrainingSet, cfg: SystemConfig,
                      lag_a: int, lag_b: int, ant_a: int, ant_b: int) -> complex:
    """Correlation between tap-shifted period sequences of two antennas.

    Recovers each antenna's length-P period sequence from its pilots, applies
    the extra cyclic shifts `lag_a`/`lag_b` (channel tap positions), and takes
    the inner product under the inter-comb phase ramp.  For the cbts kind this
    is P at (ant_a == ant_b, lag_a == lag_b), exactly zero at other lags of
    the same antenna, and small across antennas: the quantity that justifies
    treating the stacked-signal sample correlation as (scaled) identity.
    """
    return complex(period_gram(ts, cfg, (lag_a, lag_b))[ant_a, 0, ant_b, 1])


def sample_corr(sf: StackedFrame) -> np.ndarray:
    """Q x Q Hermitian sample correlation of the period rows, matrix @ matrix^H."""
    return sf.matrix @ sf.matrix.conj().T


def upper_diagonal_sums(a: np.ndarray) -> np.ndarray:
    """Element q = sum of the q-th upper diagonal of a square matrix."""
    n = a.shape[0]
    return np.array([np.trace(a, offset=q) for q in range(n)])


def steering_matrix(cfo: float, cfg: SystemConfig) -> np.ndarray:
    """Q x n_tx matrix of per-period phase progressions, column mu has
    entries exp(j*2*pi*(cfo + offset_mu)*q/Q)."""
    q = np.arange(cfg.n_periods)
    offs = np.asarray(cfg.offsets, dtype=float)
    return np.exp(2j * np.pi * np.outer(q, offs + cfo) / cfg.n_periods)


def likelihood_trace(sf: StackedFrame, cfo: float, cfg: SystemConfig) -> float:
    """Trace form of the likelihood: Tr[B(eps)^H corr B(eps)], real by symmetry."""
    b = steering_matrix(cfo, cfg)
    return float(np.real(np.trace(b.conj().T @ sample_corr(sf) @ b)))


@lru_cache(maxsize=None)
def _period_bases(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Inverse P-point DFT matrix and the n_tx comb-response matrices
    exp(-j*2*pi*lattice_mu*l/N), P x chan_len each, of one config."""
    l = np.arange(cfg.chan_len)
    responses = np.array([np.exp(-2j * np.pi * np.outer(cfg.lattice(mu), l)
                                 / cfg.n_subcarriers) for mu in range(cfg.n_tx)])
    return dft_matrix(cfg.pilot_len).conj().T, responses


def stacked_signal_matrix(ts: TrainingSet, ch: ChannelRealization, cfo: float,
                          cfg: SystemConfig) -> np.ndarray:
    """Noiseless n_tx x (n_rx * P) stacked signal matrix.

    Row mu, block nu holds the common length-P period transmitted by antenna
    mu as seen at receive antenna nu, so that
    steering_matrix(cfo) @ X reproduces the period-stacked noiseless frame.
    """
    _check_cfo(cfo, cfg)
    if ts.kind != "cbts":
        raise ConfigError("stacked signal model requires comb-structured (cbts) training")
    n, p = cfg.n_subcarriers, cfg.pilot_len
    idft, responses = _period_bases(cfg)
    front = np.sqrt(p) * np.exp(2j * np.pi * cfo * cfg.cp_len / n)
    x = np.zeros((cfg.n_tx, cfg.n_rx * p), dtype=complex)
    for mu in range(cfg.n_tx):
        ramp = phase_ramp(p, cfo + cfg.offsets[mu], n)
        # column nu: the period seen at receive antenna nu
        periods = idft @ (ts.freq_pilots[mu][:, None] * (responses[mu] @ ch.taps[:, mu].T))
        x[mu] = (front * ramp * periods.T).reshape(-1)
    return x


def frame_to_csv(frame: np.ndarray, fh: IO[str]) -> None:
    """Debug dump of an (n_rx, N) frame: one row per (antenna, sample)."""
    writer = csv.writer(fh)
    writer.writerow(["antenna", "sample", "real", "imag"])
    for nu in range(frame.shape[0]):
        for n, v in enumerate(frame[nu]):
            writer.writerow([nu, n, f"{v.real:.12g}", f"{v.imag:.12g}"])


def likelihood_derivative(sf: StackedFrame, z: complex, cfg: SystemConfig) -> complex:
    """d/dz of the likelihood score as a function of z on the unit circle."""
    q = np.arange(sf.n_periods)
    weights = sf.diag_sums * comb_phase_sums(cfg)
    forward = np.sum(weights * z ** q * q)
    backward = np.sum(np.conj(weights) * z ** (-q.astype(float)) * q)
    return complex(z ** -1.0 * (forward - backward))


def curvature_factor(sf: StackedFrame, z: complex, cfg: SystemConfig) -> complex:
    """The degree-(Q-1) polynomial factor shared by the derivative's roots.

    At the true offset's phasor this quantity is real and positive for
    comb-structured training, which is what guarantees the true offset
    appears among the closed-form candidates.
    """
    q = np.arange(sf.n_periods)
    weights = sf.diag_sums * comb_phase_sums(cfg)
    return complex(np.sum(weights * z ** q * q))


def derivative_factor_form(sf: StackedFrame, z: complex, diag_index: int,
                           cfg: SystemConfig) -> complex:
    """Factorised derivative: z^-(Q+1) * (z^Q - ratio) * curvature_factor(z)."""
    q = sf.n_periods
    ratio = diag_ratio(sf, diag_index)
    return complex(z ** (-(q + 1.0)) * (z ** q - ratio) * curvature_factor(sf, z, cfg))


def derivative_factor_residual(sf: StackedFrame, diag_index: int, cfg: SystemConfig,
                               n_points: int = 64) -> float:
    """Mismatch between the direct and factorised derivative on the unit circle.

    Returns max|direct - factorised| / max|direct| over n_points equispaced
    phasors.  Zero exactly when the stacked correlation is a scaled identity
    in the antenna domain (always true for one antenna); small for the
    structured training design.
    """
    zs = np.exp(2j * np.pi * np.arange(n_points) / n_points)
    direct = np.array([likelihood_derivative(sf, z, cfg) for z in zs])
    factored = np.array([derivative_factor_form(sf, z, diag_index, cfg) for z in zs])
    return float(np.max(np.abs(direct - factored)) / np.max(np.abs(direct)))
