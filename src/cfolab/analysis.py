"""Analytical MSE of the simplified estimator and the EMCB benchmark.

The estimator's error comes from noise perturbing the two diagonal sums that
form its phase ratio.  Propagating first/second noise moments through that
ratio gives a closed-form MSE in terms of the per-row SNR gamma, the system
dimensions, and the comb offsets.  The prediction assumes gamma >> 1 (cross
terms of the perturbation are dropped) and the structured-training
approximation, so expect it to drift from simulation below roughly 5 dB.

That noise-only prediction (`predicted_mse`, which also picks the optimal
index) leaves out the estimator's noiseless bias floor: channel taps beyond
the shift stride leak each antenna's period into its neighbours' and bias the
ratio's phase even without noise.  `bias_floor` derives that term to first
order in the leakage from the training, the offsets and the channel profile;
the campaign's analytic MSE is the sum of the two.  It is valid for small
relative leakage; both terms fall far short at indices where the realised
comb-weighted diagonal sum can nearly vanish (`comb_sum_can_vanish`), and the
campaign gives no analytic MSE there.

The mirrored-diagonal construction makes the estimator's output for diagonal
index i identical to that for Q - i (the phase ratio is the same), so every
quantity here is symmetric under i <-> Q - i.

The EMCB averages the single-snapshot Cramer-Rao bound over Rayleigh channels,
exactly, by one integral over the eigenvalues of the bound's core; it shows how
close the estimator gets to the best any unbiased estimator could do.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .channel import ChannelProfile
from .estimator import DegenerateDiagonalError
from .training import ConfigError, SystemConfig, TrainingSet, build_training, period_gram

# |sum of comb phasors| below this is treated as a blind diagonal.
DEGENERATE_PHASE_SUM = 1e-9


def _check_index(diag_index: int, cfg: SystemConfig) -> complex:
    q = cfg.n_periods
    if not 1 <= diag_index <= q - 1:
        raise ValueError(f"diag_index must be in [1, {q - 1}], got {diag_index}")
    s = complex(cfg.comb_phase_sums[diag_index])
    if abs(s) < DEGENERATE_PHASE_SUM:
        raise DegenerateDiagonalError(
            f"comb phase sum vanishes at diag_index={diag_index}; "
            "this diagonal is blind for these offsets"
        )
    return s


def cross_term(diag_index: int, cfg: SystemConfig) -> float:
    """Offset-dependent cross-term weight in the MSE numerator.

    2 * min(i, Q-i) * Re{ S(2i) * S(-i)^2 } / |S(i)|^2 with S(k) the comb
    phase sum.  Symmetric under i <-> Q-i, matching the estimator's exact
    mirror symmetry; collapses to 2*min(i, Q-i) for a single antenna.
    """
    s1 = _check_index(diag_index, cfg)
    q = cfg.n_periods
    sums = cfg.comb_phase_sums
    s2, sm = sums[2 * diag_index % q], sums[-diag_index % q]
    return float(2.0 * min(diag_index, q - diag_index)
                 * np.real(s2 * sm * sm) / abs(s1) ** 2)


def predicted_mse(gamma: float, diag_index: int, cfg: SystemConfig) -> float:
    """Closed-form MSE of the simplified estimator, in squared subcarrier spacings.

    The two relative diagonal-sum perturbations, combined with the cross
    term, give the ratio's phase variance var_xi; the CFO MSE is
    var_xi / (8*pi^2).
    """
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma!r}")
    s1 = _check_index(diag_index, cfg)
    q, p = cfg.n_periods, cfg.pilot_len
    rho = cross_term(diag_index, cfg)
    var_xi = ((2.0 * (cfg.n_tx * q + rho) / gamma + q / gamma ** 2)
              / (cfg.n_rx * p * diag_index * (q - diag_index) * abs(s1) ** 2))
    return var_xi / (8.0 * np.pi ** 2)


def _leakage_weights(diag_index: int, cfg: SystemConfig) -> np.ndarray:
    """Coefficient w[mu, mu'] of the normalised R[mu, mu'] in the ratio's phase.

    The k-th diagonal sum of a noiseless frame is
    exp(-j*2*pi*cfo*k/Q) * sum over (mu, mu') of R[mu, mu'] * g_k[mu, mu'],
    with g_k[mu, mu'] = exp(-j*2*pi*i_mu'*k/Q)
    * sum_{a<Q-k} exp(j*2*pi*(i_mu - i_mu')*a/Q).
    The diagonal of R cancels from the ratio; to first order in the rest the
    phase error is Im sum w[mu, mu'] * R[mu, mu'] / Rbar.
    """
    q, i = cfg.n_periods, diag_index
    offs = np.asarray(cfg.offsets, dtype=float)
    diff = offs[:, None] - offs[None, :]

    def g(k: int) -> np.ndarray:
        a = np.arange(q - k)
        geo = np.exp(2j * np.pi * diff[..., None] * a / q).sum(axis=-1)
        return geo * np.exp(-2j * np.pi * offs[None, :] * k / q)

    s1 = _check_index(diag_index, cfg)
    w = np.conj(g(i)).T / ((q - i) * s1) - g(q - i) / (i * s1)
    np.fill_diagonal(w, 0.0)
    return w


def comb_sum_can_vanish(diag_index: int, cfg: SystemConfig) -> bool:
    """Whether some positive weighting of the comb phasors at this index sums to 0.

    The realised comb-weighted diagonal sum S_R = sum_mu R[mu, mu] *
    exp(j*2*pi*i_mu*i/Q) has positive random weights, so it can nearly vanish
    exactly when 0 lies in the relative interior of the phasors' convex hull.
    The phasors sit at the integer positions i_mu*i mod Q on a circle of Q
    steps: that holds when no gap between neighbouring positions exceeds half
    the circle, or when the positions are two antipodal points.  There both
    the noise-only closed form and `bias_floor` hold S_R at its mean and fall
    far short of the estimator's heavy-tailed error.
    """
    q = cfg.n_periods
    pos = sorted({(off * diag_index) % q for off in cfg.offsets})
    gaps = np.diff(pos + [pos[0] + q])
    return 2 * int(gaps.max()) < q or (len(pos) == 2 and 2 * int(gaps.max()) == q)


def bias_floor(diag_index: int, cfg: SystemConfig, profile: ChannelProfile) -> float:
    """Noiseless MSE floor of the simplified estimator from channel leakage.

    The noise-only prediction assumes the stacked-signal correlation
    R = X X^H is diagonal across transmit antennas; a diagonal R, whatever
    its antenna powers, leaves the mirrored ratio's phase exact.  Taps at
    delays beyond the shift stride P/n_tx leak each antenna's period into
    its neighbours', and the off-diagonal R[mu, mu'] then bias that phase.
    To first order in them, with the diagonal sums' denominators at their
    means, the phase error is Im sum w[mu, mu'] R[mu, mu'] / Rbar
    (`_leakage_weights`, Rbar = E R[mu, mu] = n_rx * P).  Each R[mu, mu'] is
    a bilinear form in independent circular Rayleigh taps whose coefficients
    are `period_gram` entries up to unit-modulus factors;
    R[mu', mu] = conj(R[mu, mu']), and by Isserlis' theorem
    E R[mu, mu']^2 = 0, cross-pair moments vanish, and
    E|R[mu, mu']|^2 = Rbar^2 * V[mu, mu'] with
    V[mu, mu'] = sum_{l,l'} p_l p_l' |gram/P|^2 / n_rx.  So the mean squared
    phase error is sum over pairs mu < mu' of
    V * |w[mu, mu'] - conj(w[mu', mu])|^2 / 2, returned here divided by
    4*pi^2, in squared subcarrier spacings.

    Valid for small relative leakage: R[mu, mu'] small against the realised
    comb-weighted diagonal sum S_R = sum_mu R[mu, mu] * exp(j*2*pi*i_mu*i/Q).
    Holding S_R at its mean errs by a relative order of E|S_R/E S_R - 1|^2.
    Where some positive weighting of the comb phasors sums to zero
    (`comb_sum_can_vanish`), S_R can nearly vanish, the noiseless error is
    heavy-tailed and this term falls 2x to 33x short (offsets {3,7,14}:
    indices 1, 8, 15; {3,5,11}: 4, 12).
    Exactly zero for one transmit antenna; for two it vanishes too, leaving
    a floor of second order in the leakage.
    Symmetric under i <-> Q - i like the estimator.
    """
    w = _leakage_weights(diag_index, cfg)
    # the sum over ordered pairs counts each unordered pair twice
    return float(np.sum(_leakage_variance(cfg, profile) * np.abs(w - w.conj().T) ** 2)
                 / (16.0 * np.pi ** 2))


@lru_cache(maxsize=16)
def _leakage_variance(cfg: SystemConfig, profile: ChannelProfile) -> np.ndarray:
    """`bias_floor`'s V, which no index changes, once per (config, profile)."""
    gram = period_gram(build_training(cfg, "cbts"), cfg, profile.delays) / cfg.pilot_len
    p = profile.powers_linear
    var = np.einsum("k,akbm,m->ab", p, np.abs(gram) ** 2, p) / cfg.n_rx
    var.flags.writeable = False
    return var


def optimal_diag_indices(gamma: float, cfg: SystemConfig) -> tuple[int, ...]:
    """Diagonal indices whose predicted MSE is within 20% of the minimum.

    Blind (degenerate) indices are excluded from the search rather than
    raised.  The 20% band reports the near-optimal plateau as a set - the
    members are typically mirror pairs plus Q/2 and sit well inside a factor
    of two of each other, while the next tier is a factor ~2 away.
    """
    q = cfg.n_periods
    values: dict[int, float] = {}
    for i in range(1, q):
        try:
            values[i] = predicted_mse(gamma, i, cfg)
        except DegenerateDiagonalError:
            continue
    if not values:
        raise DegenerateDiagonalError("every diagonal index is blind for these offsets")
    best = min(values.values())
    cutoff = best * 1.2 * (1.0 + 1e-9)
    return tuple(sorted(i for i, v in values.items() if v <= cutoff))


def _bound_core(cfg: SystemConfig, profile: ChannelProfile, ts: TrainingSet) -> np.ndarray:
    """Core C of the bound's denominator X = sum_r h_r^H C h_r, h_r the taps on
    the profile's D delays, transmit-major.  C = W^H (I - U U^H) W with
    W = diag(n) S, S the model matrix (`model_matrix`) and U a basis of its
    columns: the projector removes S, so no time origin of n changes C.
    S = Fbar^H M, Fbar the comb rows of the unitary DFT and M the block-diagonal
    comb response, so C = M^H B_2 M - (B_1 M)^H Pi (B_1 M), with B_k[a, b] =
    g_k[comb_a - comb_b], g_k = fft(n^k) / N, and Pi the projector onto M's
    columns.  Each P x P block of B_k is circulant (comb = offset + Q*p), so
    B_k M is a P-point FFT convolution.  On a comb, M's columns are spanned by
    the constant-modulus pilots times the first min(L, P) P-point DFT columns,
    so Pi's factor is an inverse FFT of the phase-stripped rows (Pi = I if L >= P).
    """
    n, p, k = cfg.n_subcarriers, cfg.pilot_len, cfg.n_tx * len(profile.delays)
    offsets = np.asarray(cfg.offsets)
    combs = offsets[:, None] + cfg.n_periods * np.arange(p)
    # M's diagonal blocks on the delays, (n_tx, P, D)
    m = ts.freq_pilots[..., None] * np.exp(
        -2j * np.pi * combs[..., None] * np.asarray(profile.delays) / n)
    g = np.fft.fft(np.arange(n) ** np.array([[1.0], [2.0]])) / n
    # first column of the circulant block (mu, nu) of B_1 and B_2
    first_col = g[:, combs[:, None] - offsets[:, None]]
    b1m, b2m = np.fft.ifft(np.fft.fft(first_col)[..., None] * np.fft.fft(m, axis=1),
                           axis=3)  # [mu, nu, p, d]: block (mu, nu) of B_k times M_nu
    phases = ts.freq_pilots.conj() / np.abs(ts.freq_pilots)
    a = np.fft.ifft(phases[:, None, :, None] * b1m, axis=2, norm="ortho")  # [mu, nu, l, d]
    a = a[:, :, :min(cfg.chan_len, p)].transpose(0, 2, 1, 3).reshape(-1, k)
    return (np.einsum("mpd,mnpe->mdne", m.conj(), b2m).reshape(k, k)
            - np.einsum("ik,ij->kj", a.conj(), a))


def mean_inverse(eigenvalues: np.ndarray, n_rx: int) -> float:
    """E[1/X] for X = sum_k lambda_k G_k, the G_k independent Gamma(n_rx, 1):
    int_0^inf prod_k (1 + s*lambda_k)^(-n_rx) ds, by a 417-node trapezoid rule in
    u = log s, where the integrand decays exponentially at both ends, from 40 e-folds
    below 1/max(lambda) to 40 above 1/min(lambda).  Eigenvalues below 1e-10 of the
    largest count as zero.  With n_rx * rank <= 1 (one antenna, one eigenvalue: X
    is exponential) the mean is infinite, a ConfigError.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    lam = lam[lam > 1e-10 * lam.max(initial=0.0)]
    if n_rx * lam.size <= 1:
        raise ConfigError(f"the bound diverges: n_rx * rank = {n_rx * lam.size} <= 1, "
                          "so its mean over channels is infinite")
    log_lam = np.log(lam)
    u = np.linspace(-log_lam.max() - 40.0, -log_lam.min() + 40.0, 417)
    f = np.exp(u - n_rx * np.logaddexp(0.0, u[:, None] + log_lam).sum(axis=1))
    return float((u[1] - u[0]) * f.sum())


def emcb(cfg: SystemConfig, profile: ChannelProfile, snr_db) -> tuple[float, ...]:
    """Extended Miller-Chang bound per point of `snr_db`: the snapshot CRB
    N * sigma^2 / (8*pi^2 * X) averaged exactly over taps CN(0, p_l).  X is a
    sum of Gamma(n_rx) variables weighted by the eigenvalues of
    Sigma^(1/2) C Sigma^(1/2), C the `_bound_core` and Sigma the profile's
    powers tiled over transmit antennas; N * sigma^2 is the expected frame
    energy `TrainingSet.energy` over the SNR, as in a campaign's noise.
    """
    ts = build_training(cfg, "cbts")
    sd = np.sqrt(np.tile(profile.powers_linear, cfg.n_tx))
    inv = mean_inverse(np.linalg.eigvalsh(sd[:, None] * _bound_core(cfg, profile, ts) * sd),
                       cfg.n_rx)
    energy = ts.energy
    return tuple(float(energy * inv / (8.0 * np.pi ** 2 * 10.0 ** (db / 10.0)))
                 for db in map(float, np.atleast_1d(snr_db)))
