"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (direct sums,
dense matrices, closed forms) so the production code is checked against a
second route, not against itself.
"""

import csv
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path
from typing import IO

import numpy as np

import cfolab
from cfolab import (ChannelProfile, ConfigError, SystemConfig,
                    TrainingSet, build_training, diag_ratio, draw_channel,
                    model_matrix, optimal_diag_indices, period_gram,
                    predicted_mse, stack, transmit_receive)
from cfolab.channel import _check_cfo
from cfolab.estimator import COARSE_STEP, FINE_STEP, CfoEstimate, candidate_grid
from cfolab.numerics import complex_normal


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


def period_matrix(frame: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Q x (n_rx * P) period rows of an (n_rx, N) frame: row q holds period q of
    receive antenna 0, then of antenna 1, and so on."""
    q, p = cfg.n_periods, cfg.pilot_len
    return np.hstack([frame[nu].reshape(q, p) for nu in range(cfg.n_rx)])


def sample_corr(frame: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Q x Q sample correlation of the period rows, matrix @ matrix^H, Hermitian
    by construction: the strict upper triangle of the product, its mirror and
    the real part of its diagonal, since a BLAS kernel may round the product's
    two triangles differently."""
    matrix = period_matrix(frame, cfg)
    corr = matrix @ matrix.conj().T
    upper = np.triu(corr, 1)
    return upper + upper.conj().T + np.diag(corr.diagonal().real)


def upper_diagonal_sums(a: np.ndarray) -> np.ndarray:
    """Element q = sum of the q-th upper diagonal of a square matrix."""
    n = a.shape[0]
    return np.array([np.trace(a, offset=q) for q in range(n)])


def strict_minimisers(gamma: float, cfg: SystemConfig) -> tuple[int, ...]:
    """The members of `optimal_diag_indices`' 20% plateau whose predicted MSE
    is its minimum, to within 1e-9 relative: the strict minimiser set."""
    values = {i: predicted_mse(gamma, i, cfg) for i in optimal_diag_indices(gamma, cfg)}
    best = min(values.values())
    return tuple(i for i, v in values.items() if v <= best * (1.0 + 1e-9))


def steering_matrix(cfo: float, cfg: SystemConfig) -> np.ndarray:
    """Q x n_tx matrix of per-period phase progressions, column mu has
    entries exp(j*2*pi*(cfo + offset_mu)*q/Q)."""
    q = np.arange(cfg.n_periods)
    offs = np.asarray(cfg.offsets, dtype=float)
    return np.exp(2j * np.pi * np.outer(q, offs + cfo) / cfg.n_periods)


def likelihood_trace(corr: np.ndarray, cfo: float, cfg: SystemConfig) -> float:
    """Trace form of the likelihood of a Q x Q sample correlation:
    Tr[B(eps)^H corr B(eps)], real by symmetry."""
    b = steering_matrix(cfo, cfg)
    return float(np.real(np.trace(b.conj().T @ corr @ b)))


@lru_cache(maxsize=None)
def _period_bases(cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Inverse P-point DFT matrix and the n_tx comb-response matrices
    exp(-j*2*pi*lattice_mu*l/N), P x chan_len each, of one config."""
    l = np.arange(cfg.chan_len)
    responses = np.array([np.exp(-2j * np.pi * np.outer(cfg.lattice(mu), l)
                                 / cfg.n_subcarriers) for mu in range(cfg.n_tx)])
    return dft_matrix(cfg.pilot_len).conj().T, responses


def full_taps(profile: ChannelProfile, taps: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """The (n_rx, n_tx, chan_len) channel impulse responses of taps on the
    profile's delays: zero at every other delay."""
    full = np.zeros((cfg.n_rx, cfg.n_tx, cfg.chan_len), dtype=complex)
    full[..., list(profile.delays)] = taps
    return full


def stacked_signal_matrix(ts: TrainingSet, profile: ChannelProfile, taps: np.ndarray,
                          cfo: float, cfg: SystemConfig) -> np.ndarray:
    """Noiseless n_tx x (n_rx * P) stacked signal matrix.

    Row mu, block nu holds the common length-P period transmitted by antenna
    mu as seen at receive antenna nu, so that
    steering_matrix(cfo) @ X reproduces the period-stacked noiseless frame.
    """
    _check_cfo(cfo, cfg)
    if ts.kind != "cbts":
        raise ConfigError("stacked signal model requires comb-structured (cbts) training")
    taps = full_taps(profile, taps, cfg)
    n, p = cfg.n_subcarriers, cfg.pilot_len
    idft, responses = _period_bases(cfg)
    x = np.zeros((cfg.n_tx, cfg.n_rx * p), dtype=complex)
    for mu in range(cfg.n_tx):
        ramp = np.exp(2j * np.pi * (cfo + cfg.offsets[mu]) * np.arange(p) / n)
        # column nu: the period seen at receive antenna nu
        periods = idft @ (ts.freq_pilots[mu][:, None] * (responses[mu] @ taps[:, mu].T))
        x[mu] = (np.sqrt(p) * ramp * periods.T).reshape(-1)
    return x


def frame_to_csv(frame: np.ndarray, fh: IO[str]) -> None:
    """Debug dump of an (n_rx, N) frame: one row per (antenna, sample)."""
    writer = csv.writer(fh)
    writer.writerow(["antenna", "sample", "real", "imag"])
    for nu in range(frame.shape[0]):
        for n, v in enumerate(frame[nu]):
            writer.writerow([nu, n, f"{v.real:.12g}", f"{v.imag:.12g}"])


def likelihood_derivative(c: np.ndarray, z: complex, cfg: SystemConfig) -> complex:
    """d/dz of the likelihood score of lag sums c as a function of z on the
    unit circle."""
    q = np.arange(len(c))
    weights = c * cfg.comb_phase_sums
    forward = np.sum(weights * z ** q * q)
    backward = np.sum(np.conj(weights) * z ** (-q.astype(float)) * q)
    return complex(z ** -1.0 * (forward - backward))


def curvature_factor(c: np.ndarray, z: complex, cfg: SystemConfig) -> complex:
    """The degree-(Q-1) polynomial factor shared by the derivative's roots.

    At the true offset's phasor this quantity is real and positive for
    comb-structured training, which is what guarantees the true offset
    appears among the closed-form candidates.
    """
    q = np.arange(len(c))
    weights = c * cfg.comb_phase_sums
    return complex(np.sum(weights * z ** q * q))


def derivative_factor_form(c: np.ndarray, z: complex, diag_index: int,
                           cfg: SystemConfig) -> complex:
    """Factorised derivative: z^-(Q+1) * (z^Q - ratio) * curvature_factor(z)."""
    q = len(c)
    ratio = diag_ratio(c, diag_index)
    return complex(z ** (-(q + 1.0)) * (z ** q - ratio) * curvature_factor(c, z, cfg))


def derivative_factor_residual(c: np.ndarray, diag_index: int, cfg: SystemConfig,
                               n_points: int = 64) -> float:
    """Mismatch between the direct and factorised derivative on the unit circle.

    Returns max|direct - factorised| / max|direct| over n_points equispaced
    phasors.  Zero exactly when the stacked correlation is a scaled identity
    in the antenna domain (always true for one antenna); small for the
    structured training design.
    """
    zs = np.exp(2j * np.pi * np.arange(n_points) / n_points)
    direct = np.array([likelihood_derivative(c, z, cfg) for z in zs])
    factored = np.array([derivative_factor_form(c, z, diag_index, cfg) for z in zs])
    return float(np.max(np.abs(direct - factored)) / np.max(np.abs(direct)))


def ml_grid_fresh(c: np.ndarray, cfg: SystemConfig) -> float:
    """The two-stage ML grid search with every grid point's phases computed
    afresh: no cached table, no shift to the fine grid's first point, and
    each grid scored by one product over the whole grid, not in row blocks.
    The score is Q-periodic, so the fine grid is scored whole, across +-Q/2
    if it reaches that far, and its pick taken modulo Q into [-Q/2, Q/2)."""
    half = cfg.cfo_half_range
    q = np.arange(len(c))
    weights = c * cfg.comb_phase_sums

    def scores(grid):
        return 2.0 * np.real(np.exp(2j * np.pi * (grid[:, None] * q) / len(c)) @ weights)

    coarse = np.arange(-half, half, COARSE_STEP)
    best = coarse[int(np.argmax(scores(coarse)))]
    fine = np.arange(best - COARSE_STEP, best + COARSE_STEP, FINE_STEP)
    return float((fine[int(np.argmax(scores(fine)))] + half) % len(c) - half)


def likelihood_exp_rotation(c: np.ndarray, phases: np.ndarray, cfg: SystemConfig,
                            origin: float) -> np.ndarray:
    """Scores of the offsets origin + cfo of a phase table 2*exp(j*2*pi*cfo*q/Q),
    with the weights c_q * B_q rotated by exp(j*2*pi*origin*q/Q): one complex
    exp per lag, each within a rounding or two of the exact phase."""
    q = np.arange(len(c))
    rotation = np.exp(2j * np.pi * (origin * q) / len(c))
    return (phases @ (c * cfg.comb_phase_sums * rotation)).real


def simplified_fresh(c: np.ndarray, diag_index: int, cfg: SystemConfig) -> CfoEstimate:
    """The simplified estimator with every candidate's phases computed afresh
    (a Q x Q table per call, no origin shift) and the pick made by a full
    lexicographic sort on (-score, |cfo|, index)."""
    ratio = diag_ratio(c, diag_index)
    cand = candidate_grid(ratio, len(c))
    q = np.arange(len(c))
    weights = c * cfg.comb_phase_sums
    scores = 2.0 * np.real(np.exp(2j * np.pi * (cand[:, None] * q) / len(c)) @ weights)
    best = np.lexsort((np.arange(len(cand)), np.abs(cand), -scores))[0]
    return CfoEstimate(value=float(cand[best]), diag_ratio=ratio, candidates=cand,
                       scores=scores)


def complex_normal_two_calls(rng: np.random.Generator, shape,
                             variance: float = 1.0) -> np.ndarray:
    """Complex Gaussian draws as one `standard_normal` call for the real parts,
    a second for the imaginary parts, and complex arithmetic to join them."""
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def add_noise(frame: np.ndarray, noise_var: float, gen: np.random.Generator) -> np.ndarray:
    """`frame` plus a CN(0, 1) draw scaled by sqrt(noise_var): the unit draw is
    `complex_normal` on `gen`, all real parts, then all imaginary parts, as a
    campaign draws each trial's noise.  A zero variance leaves the samples as
    they are."""
    return frame + np.sqrt(noise_var) * complex_normal(gen, frame.shape)


def per_trial_key_frames(spec, trainings: dict[str, TrainingSet]):
    """`harness._stacked_frames` under the per-trial-key layout that the campaign
    streams replaced, as one chunk of every trial per SNR point.  Trial t draws
    its taps, then its offset, from numpy's own `SeedSequence(seed,
    spawn_key=(1, t))` and its unit noise from (2, t); the noise scale and the
    sharing of each trial's draws by every point and kind are the campaign's."""
    cfg, half = spec.config, spec.config.cfo_half_range
    cfos = np.empty(spec.trials)
    sums = [{kind: np.empty((spec.trials, cfg.n_periods), dtype=complex) for kind in trainings}
            for _ in spec.snr_points_db]
    for t in range(spec.trials):
        gen, noise = (np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(k, t)))
                      for k in (1, 2))
        taps = draw_channel(spec.profile, cfg, gen)
        cfos[t] = np.nextafter(gen.uniform(-half, half), 0.0) if spec.cfo is None else spec.cfo
        unit = complex_normal(noise, (cfg.n_rx, cfg.n_subcarriers))
        for kind, ts in trainings.items():
            frame = transmit_receive(ts, spec.profile, taps, cfos[t], cfg)
            for at_point, db in zip(sums, spec.snr_points_db):
                power = 0.0 if spec.noiseless else ts.energy / cfg.n_subcarriers
                at_point[kind][t] = stack(frame + np.sqrt(power / 10.0 ** (db / 10.0)) * unit, cfg)
    for s_idx, at_point in enumerate(sums):
        yield s_idx, slice(0, spec.trials), cfos, at_point


def draw_channel_loop(profile: ChannelProfile, cfg: SystemConfig,
                      gen: np.random.Generator) -> np.ndarray:
    """The channel draw tap by tap in delay order, one `complex_normal_two_calls`
    draw of the tap's power per tap, stacked on the last axis: (n_rx, n_tx, D)."""
    profile.check_fits(cfg)
    return np.stack([complex_normal_two_calls(gen, (cfg.n_rx, cfg.n_tx), power)
                     for power in profile.powers_linear], axis=-1)


def transmit_receive_direct(ts: TrainingSet, profile: ChannelProfile, taps: np.ndarray,
                            cfo: float, cfg: SystemConfig, ng: int) -> np.ndarray:
    """Noiseless frame sample by sample: per receive antenna, the linear
    convolution of each time sequence, extended by an explicit cyclic prefix of
    `ng` >= chan_len samples, with its chan_len-sample impulse responses
    (`full_taps`), the N samples after the prefix, rotated by the CFO ramp whose
    phase reference is the start of the prefix."""
    _check_cfo(cfo, cfg)
    n = cfg.n_subcarriers
    if not cfg.chan_len <= ng <= n:
        raise ConfigError(f"prefix length {ng} must lie in [chan_len={cfg.chan_len}, N={n}]")
    taps = full_taps(profile, taps, cfg)
    rot = np.exp(2j * np.pi * cfo * (np.arange(n) + ng) / n)
    out = np.zeros((cfg.n_rx, n), dtype=complex)
    for nu in range(cfg.n_rx):
        acc = np.zeros(n, dtype=complex)
        for mu in range(cfg.n_tx):
            with_cp = np.concatenate([ts.time_sequences[mu][-ng:], ts.time_sequences[mu]])
            acc += np.convolve(with_cp, taps[nu, mu])[ng:ng + n]
        out[nu] = rot * acc
    return out


def transmit_receive_fft(ts: TrainingSet, profile: ChannelProfile, taps: np.ndarray,
                         cfo: float, cfg: SystemConfig) -> np.ndarray:
    """Noiseless frame as one product of N-point FFTs of the time sequences
    and of every column of the chan_len-sample impulse responses
    (`full_taps`), zero or not, rotated by the CFO ramp over all N samples."""
    _check_cfo(cfo, cfg)
    n = cfg.n_subcarriers
    rot = np.exp(2j * np.pi * cfo * np.arange(n) / n)
    spectra = np.fft.fft(ts.time_sequences) * np.fft.fft(full_taps(profile, taps, cfg), n)
    return rot * np.fft.ifft(spectra.sum(axis=1))


def stack_vdot(frame: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """Lag sums of a frame, c_k = vdot(M[k:], M[:Q - k]) of the period rows M,
    one `np.vdot` per lag."""
    matrix = period_matrix(frame, cfg)
    q = cfg.n_periods
    return np.array([np.vdot(matrix[k:], matrix[:q - k]) for k in range(q)])


def edge_offsets(cfg: SystemConfig) -> tuple[float, ...]:
    """Offsets near 0 and just inside both ends of (-Q/2, Q/2)."""
    half = cfg.cfo_half_range
    return (float(np.nextafter(-half, 0.0)), -1e-9, 0.0, 1e-9, 0.37,
            float(np.nextafter(half, 0.0)))


def projection_complement(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the complement of the column space.

    Equals I - basis (basis^H basis)^-1 basis^H when the basis has full
    column rank, but is computed rank-revealing: with more taps than comb
    samples per antenna (chan_len > pilot_len, as in the reference preset)
    the design matrix is structurally rank deficient and the inverse form
    does not exist, while the column-space projector still does.
    """
    u, sv, _ = np.linalg.svd(basis, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        raise ConfigError("training design matrix is zero")
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    ur = u[:, :rank]
    return np.eye(basis.shape[0]) - ur @ ur.conj().T


def bound_core_full(cfg: SystemConfig, profile: ChannelProfile, origin: int = 0) -> np.ndarray:
    """The bound's core W^H (I - U U^H) W from the N-row model matrix S and its
    SVD projector, W = diag(n + origin) S, on the columns of the profile's delays."""
    s = model_matrix(build_training(cfg, "cbts"), cfg)
    n = cfg.n_subcarriers
    weighted = np.arange(origin, origin + n, dtype=float)[:, None] * s
    core = weighted.conj().T @ projection_complement(s) @ weighted
    cols = (cfg.chan_len * np.arange(cfg.n_tx)[:, None] + list(profile.delays)).ravel()
    return core[np.ix_(cols, cols)]


def emcb_monte_carlo(cfg: SystemConfig, profile: ChannelProfile, snr_db, n_draws: int,
                     gen: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The bound as a Monte Carlo mean over `n_draws` Rayleigh channels, all taps
    from one `complex_normal` call, with its standard error per SNR point.

    Each draw gives the quadratic form X of `bound_core_full` and the signal
    power per sample ||S h||^2 averaged over receive antennas; the estimate is
    N * mean(power) * mean(1/X) / (8 pi^2 snr), and its standard error follows
    from the two means' variances and covariance (delta method)."""
    s = model_matrix(build_training(cfg, "cbts"), cfg)
    cols = (cfg.chan_len * np.arange(cfg.n_tx)[:, None] + list(profile.delays)).ravel()
    sd = np.sqrt(np.tile(profile.powers_linear, cfg.n_tx))
    h = sd * complex_normal(gen, (n_draws, cfg.n_rx, len(cols)))
    inv = 1.0 / np.einsum("kri,ij,krj->k", h.conj(), bound_core_full(cfg, profile), h).real
    gram = s[:, cols].conj().T @ s[:, cols]
    power = np.einsum("kri,ij,krj->k", h.conj(), gram, h).real / cfg.n_rx
    mean_power, mean_inv = power.mean(), inv.mean()
    cov = np.cov(power, inv) / n_draws
    rel_se = np.sqrt(cov[0, 0] / mean_power ** 2 + cov[1, 1] / mean_inv ** 2
                     - 2.0 * cov[0, 1] / (mean_power * mean_inv))
    scale = cfg.n_subcarriers / (8.0 * np.pi ** 2 * 10.0 ** (np.asarray(snr_db) / 10.0))
    value = scale * mean_power * mean_inv
    return value, rel_se * value


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def package_env(**blas_vars: str) -> dict:
    """The environment of a child process that imports the package under test:
    this one's, with OpenBLAS's thread variables set to `blas_vars` alone."""
    src = Path(cfolab.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return {**env, **blas_vars}


def run_cli(blas_threads: int, *argv: str) -> None:
    """`python -m cfolab.cli *argv` in a child process whose OpenBLAS loads with
    `blas_threads` threads (capped at the CPU count), importing the package under test."""
    subprocess.run([sys.executable, "-m", "cfolab.cli", *argv], check=True, timeout=300,
                   env=package_env(OPENBLAS_NUM_THREADS=str(blas_threads)))
