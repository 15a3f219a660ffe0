"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (direct sums,
dense matrices, closed forms) so the production code is checked against a
second route, not against itself.
"""

import csv
from typing import IO

import numpy as np

from cfolab import (ChannelRealization, ConfigError, ReceivedFrame, StackedFrame,
                    SystemConfig, TrainingSet, period_gram, steering_matrix)
from cfolab.channel import _check_cfo
from cfolab.numerics import dft_matrix, phase_ramp


def dft_direct(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """O(n^2) unitary DFT by explicit summation."""
    x = np.asarray(x, dtype=complex)
    n = len(x)
    k = np.arange(n)
    sign = 1j if inverse else -1j
    mat = np.exp(sign * 2 * np.pi * np.outer(k, k) / n) / np.sqrt(n)
    return mat @ x


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


def likelihood_trace(sf: StackedFrame, cfo: float, cfg: SystemConfig) -> float:
    """Trace form of the likelihood: Tr[B(eps)^H corr B(eps)], real by symmetry."""
    b = steering_matrix(cfo, cfg)
    return float(np.real(np.trace(b.conj().T @ sample_corr(sf) @ b)))


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
    n, p, l = cfg.n_subcarriers, cfg.pilot_len, cfg.chan_len
    fp = dft_matrix(p)
    front = np.sqrt(p) * np.exp(2j * np.pi * cfo * cfg.cp_len / n)
    x = np.zeros((cfg.n_tx, cfg.n_rx * p), dtype=complex)
    for mu in range(cfg.n_tx):
        comb_response = np.exp(-2j * np.pi * np.outer(cfg.lattice(mu), np.arange(l)) / n)
        ramp = phase_ramp(p, cfo + cfg.offsets[mu], n)
        for nu in range(cfg.n_rx):
            period = fp.conj().T @ (ts.freq_pilots[mu] * (comb_response @ ch.taps[nu, mu]))
            x[mu, nu * p:(nu + 1) * p] = front * ramp * period
    return x


def frame_to_csv(frame: ReceivedFrame, fh: IO[str]) -> None:
    """Debug dump: one row per (antenna, sample)."""
    writer = csv.writer(fh)
    writer.writerow(["antenna", "sample", "real", "imag"])
    for nu in range(frame.samples.shape[0]):
        for n, v in enumerate(frame.samples[nu]):
            writer.writerow([nu, n, f"{v.real:.12g}", f"{v.imag:.12g}"])
