"""Frequency-selective Rayleigh channel and the CFO-rotated signal model.

Two independent realizations of the same noiseless received frame are
provided:

* ``transmit_receive`` works sample-by-sample in the time domain: cyclic
  prefix prepend, linear convolution with the taps, CFO rotation, prefix
  removal.
* ``model_receive`` assembles the equivalent matrix model explicitly and
  multiplies it out.

The two agree to ~1e-12 relative; that cross-check is the main correctness
oracle of the repository, so keep the paths independent.

A frame is a plain (n_rx, N) complex array.  ``add_noise`` is the one place
noise enters a frame; the caller supplies the generators and the variance.
In a campaign (``harness``) trial t's channel and offset come from spawn key
(1, t) and its unit noise at SNR point s from (2, s, t), so a trial's draws
do not depend on the trial count; the noise variance does, because it is the
mean signal power over every trial of the campaign divided by the SNR.

Conventions. The CFO `cfo` is normalised by the subcarrier spacing and the
rotation's phase reference is the start of the cyclic prefix, i.e. the kept
sample n (0-based after prefix removal) is rotated by
exp(j*2*pi*cfo*(n + cp_len)/N).  Channel taps are constant over the frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import complex_normal, phase_ramp
from .training import (ConfigError, SystemConfig, TrainingSet, is_finite_number,
                       is_integer)


@dataclass(frozen=True)
class ChannelProfile:
    """Tap delay/power profile; powers are relative dB and get normalised."""

    delays: tuple[int, ...]
    powers_db: tuple[float, ...]

    def __post_init__(self):
        for key, valid, what in (("delays", is_integer, "integers"),
                                 ("powers_db", is_finite_number, "finite numbers")):
            value = getattr(self, key)
            if not isinstance(value, (tuple, list)) or not all(map(valid, value)):
                raise ConfigError(f"profile {key} must be a list of {what}, got {value!r}")
            object.__setattr__(self, key, tuple(value))
        if len(self.delays) != len(self.powers_db) or not self.delays:
            raise ConfigError("profile needs equal-length, non-empty delay and power lists")
        if any(d < 0 for d in self.delays):
            raise ConfigError("tap delays must be non-negative")
        if any(b >= a for a, b in zip(self.delays[1:], self.delays)):
            raise ConfigError("tap delays must be strictly increasing")

    @property
    def length(self) -> int:
        return self.delays[-1] + 1

    @property
    def powers_linear(self) -> np.ndarray:
        p = 10.0 ** (np.asarray(self.powers_db) / 10.0)
        return p / p.sum()


def reference_profile() -> ChannelProfile:
    """Six-tap wideband profile used by the shipped presets."""
    return ChannelProfile(
        delays=(0, 4, 16, 24, 46, 74),
        powers_db=(0.0, -0.9, -4.9, -8.0, -7.8, -23.9),
    )


@dataclass(frozen=True)
class ChannelRealization:
    """Taps for every (receive, transmit) pair, zero off the delay grid.

    taps has shape (n_rx, n_tx, chan_len); `stacked(nu)` returns the flat
    per-receive-antenna vector in transmit-major order, matching the column
    layout of the model matrix.
    """

    taps: np.ndarray = field(repr=False)

    @property
    def length(self) -> int:
        return self.taps.shape[2]

    def stacked(self, rx: int) -> np.ndarray:
        return self.taps[rx].reshape(-1)


def draw_channel(profile: ChannelProfile, cfg: SystemConfig,
                 gen: np.random.Generator) -> ChannelRealization:
    """Independent circular Gaussian taps CN(0, p_l) on the profile's delay grid.

    Draws from a running generator, tap by tap in delay order, so a caller can
    draw the channel and other trial quantities from one stream.
    """
    if profile.length > cfg.chan_len:
        raise ConfigError(
            f"profile length {profile.length} exceeds configured chan_len {cfg.chan_len}"
        )
    taps = np.zeros((cfg.n_rx, cfg.n_tx, cfg.chan_len), dtype=complex)
    for delay, power in zip(profile.delays, profile.powers_linear):
        taps[:, :, delay] = complex_normal(gen, (cfg.n_rx, cfg.n_tx), power)
    return ChannelRealization(taps=taps)


def _check_cfo(cfo: float, cfg: SystemConfig) -> None:
    if not (-cfg.cfo_half_range < cfo < cfg.cfo_half_range):
        raise ValueError(
            f"cfo={cfo} outside the identifiable range "
            f"(-{cfg.cfo_half_range}, {cfg.cfo_half_range})"
        )


def transmit_receive(ts: TrainingSet, ch: ChannelRealization, cfo: float,
                     cfg: SystemConfig) -> np.ndarray:
    """Noiseless time-domain simulation of one training frame, (n_rx, N) complex.

    Per receive antenna: sum over transmit antennas of the linear convolution
    of the CP-extended time sequence with the taps, keep the N samples after
    the prefix, rotate by the CFO ramp.
    """
    _check_cfo(cfo, cfg)
    n, ng = cfg.n_subcarriers, cfg.cp_len
    if ch.length > ng:
        raise ConfigError("channel memory longer than the cyclic prefix")
    rot = np.exp(2j * np.pi * cfo * (np.arange(n) + ng) / n)
    out = np.zeros((cfg.n_rx, n), dtype=complex)
    for nu in range(cfg.n_rx):
        acc = np.zeros(n, dtype=complex)
        for mu in range(cfg.n_tx):
            with_cp = np.concatenate([ts.time_sequences[mu][-ng:], ts.time_sequences[mu]])
            acc += np.convolve(with_cp, ch.taps[nu, mu])[ng:ng + n]
        out[nu] = rot * acc
    return out


def add_noise(frames: dict[str, np.ndarray], noise_var: dict[str, float],
              gen: np.random.Generator) -> dict[str, np.ndarray]:
    """Add one CN(0, 1) draw to every frame, scaled by sqrt(noise_var[key]).

    The draw is `complex_normal` on `gen`: all real parts, then all imaginary
    parts.  The frames share it, so frames of different trainings see the
    same noise up to scale.  A zero variance leaves the samples unchanged.
    """
    unit = complex_normal(gen, next(iter(frames.values())).shape)
    return {key: frame + np.sqrt(noise_var[key]) * unit for key, frame in frames.items()}


def model_matrix(ts: TrainingSet, cfg: SystemConfig) -> np.ndarray:
    """Explicit N x (n_tx * chan_len) matrix mapping stacked taps to a frame.

    Columns are, per transmit antenna: take the channel's frequency response
    on that antenna's comb, weight by the pilots, and spread back to the time
    domain.  The response columns carry the sqrt(N) factor that makes
    sqrt(N) * model_matrix @ taps equal the time-domain path exactly.
    """
    if ts.kind != "cbts":
        raise ConfigError("matrix model requires comb-structured (cbts) training")
    n, p, l = cfg.n_subcarriers, cfg.pilot_len, cfg.chan_len
    lattices = [cfg.lattice(mu) for mu in range(cfg.n_tx)]
    # only the comb rows of the N-point DFT are ever touched, so build those
    # directly instead of the dense matrix
    comb_all = np.concatenate(lattices)
    f_bar = np.exp(-2j * np.pi * np.outer(comb_all, np.arange(n)) / n) / np.sqrt(n)
    pilot_diag = np.concatenate([ts.freq_pilots[mu] for mu in range(cfg.n_tx)])
    f_breve = np.zeros((cfg.n_tx * p, cfg.n_tx * l), dtype=complex)
    for mu in range(cfg.n_tx):
        # sqrt(N) * F_N[comb, :L]: the channel's frequency response columns
        f_breve[mu * p:(mu + 1) * p, mu * l:(mu + 1) * l] = np.exp(
            -2j * np.pi * np.outer(lattices[mu], np.arange(l)) / n)
    return f_bar.conj().T @ (pilot_diag[:, None] * f_breve)


def model_receive(ts: TrainingSet, ch: ChannelRealization, cfo: float,
                  cfg: SystemConfig) -> np.ndarray:
    """Noiseless (n_rx, N) frame from the assembled matrix model (the oracle path)."""
    _check_cfo(cfo, cfg)
    n, ng = cfg.n_subcarriers, cfg.cp_len
    s = model_matrix(ts, cfg)
    front = np.sqrt(n) * np.exp(2j * np.pi * cfo * ng / n)
    ramp = phase_ramp(n, cfo, n)
    return np.vstack([front * ramp * (s @ ch.stacked(nu)) for nu in range(cfg.n_rx)])
