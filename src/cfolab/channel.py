"""Frequency-selective Rayleigh channel and the CFO-rotated signal model.

Two independent realizations of the same noiseless received frame are
provided:

* ``transmit_receive`` simulates the time-domain frame: the N samples kept
  after the cyclic prefix are the circular convolution of each time sequence
  with its taps, one matrix product on the profile's delays, rotated by the CFO.
* ``model_receive`` assembles the equivalent matrix model explicitly and
  multiplies it out.

The two agree to ~1e-12 relative; that cross-check is the main correctness
oracle of the repository, so keep the paths independent.

A frame is a plain (n_rx, N) complex array, and a channel realization a
plain (n_rx, n_tx, D) array of taps on the profile's D delays
(`draw_channel`).  Frames here are noiseless; ``harness`` adds the noise.
In a campaign trial t's channel and offset come from spawn key (1, t) and its
unit noise from (2, t), shared by every SNR point as the channel and offset
are (common random numbers).  The noise variance is the expected frame power
per sample, `TrainingSet.energy` / N (the taps' powers sum to 1), over the
SNR, so no trial's frame depends on the trial count.

Conventions. The CFO `cfo` is normalised by the subcarrier spacing and the
rotation's phase reference is the start of the cyclic prefix, i.e. the kept
sample n (0-based after prefix removal) is rotated by
exp(j*2*pi*cfo*(n + cp_len)/N).  Channel taps are constant over the frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .training import (ConfigError, SystemConfig, TrainingSet, is_finite_number,
                       is_integer, json_text)


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
                raise ConfigError(f"profile {key} must be a list of {what}, "
                                  f"got {json_text(value)}")
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

    def check_fits(self, cfg: SystemConfig) -> None:
        """Refuse a profile whose last delay lies past chan_len (<= cp_len)."""
        if self.length > cfg.chan_len:
            raise ConfigError(
                f"profile length {self.length} exceeds configured chan_len {cfg.chan_len}"
            )

    @cached_property
    def powers_linear(self) -> np.ndarray:
        # relative to the strongest tap, so no finite dB list overflows to inf
        # or underflows to all zeros; a gap that overflows to -inf is power 0
        db = np.asarray(self.powers_db)
        with np.errstate(over="ignore"):
            p = 10.0 ** ((db - db.max()) / 10.0)
        p /= p.sum()
        p.flags.writeable = False
        return p

    @cached_property
    def tap_scales(self) -> np.ndarray:
        """Per-delay std of a tap's real and of its imaginary part (read-only)."""
        scales = np.sqrt(self.powers_linear / 2.0)
        scales.flags.writeable = False
        return scales


def reference_profile() -> ChannelProfile:
    """Six-tap wideband profile used by the shipped presets."""
    return ChannelProfile(
        delays=(0, 4, 16, 24, 46, 74),
        powers_db=(0.0, -0.9, -4.9, -8.0, -7.8, -23.9),
    )


def draw_channel(profile: ChannelProfile, cfg: SystemConfig,
                 gen: np.random.Generator) -> np.ndarray:
    """Independent circular Gaussian taps CN(0, p_l) on the profile's D delays, (n_rx, n_tx, D).

    Draws from a running generator, so a caller can draw the channel and other
    trial quantities from one stream.  One draw holds, tap by tap in delay
    order, all real parts and then all imaginary parts: the order of
    `complex_normal` taken per tap.
    """
    profile.check_fits(cfg)
    unit = gen.standard_normal((len(profile.delays), 2, cfg.n_rx, cfg.n_tx))
    scale = profile.tap_scales[:, None, None]
    return (scale * (unit[:, 0] + 1j * unit[:, 1])).transpose(1, 2, 0)


def _check_cfo(cfo: float, cfg: SystemConfig) -> None:
    if not (-cfg.cfo_half_range < cfo < cfg.cfo_half_range):
        raise ValueError(
            f"cfo={cfo} outside the identifiable range "
            f"(-{cfg.cfo_half_range}, {cfg.cfo_half_range})"
        )


def transmit_receive(ts: TrainingSet, profile: ChannelProfile, taps: np.ndarray,
                     cfo: float, cfg: SystemConfig) -> np.ndarray:
    """Noiseless time-domain simulation of one training frame, (n_rx, N) complex.

    Per receive antenna: the sum over transmit antennas of the time sequence
    circularly convolved with the taps (the cyclic prefix covers the channel
    memory), as the taps times the (n_tx * D, N) `TrainingSet.delayed`, rotated
    by a CFO ramp of one phase per period times one per sample of a period.
    """
    _check_cfo(cfo, cfg)
    profile.check_fits(cfg)
    n, q = cfg.n_subcarriers, cfg.n_periods
    frame = taps.reshape(cfg.n_rx, -1) @ ts.delayed(profile.delays)
    ramps = np.exp(2j * np.pi * cfo / n * cfg.ramp_samples)
    frame *= (ramps[:q, None] * ramps[q:]).reshape(n)
    return frame


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


def model_receive(ts: TrainingSet, profile: ChannelProfile, taps: np.ndarray,
                  cfo: float, cfg: SystemConfig) -> np.ndarray:
    """Noiseless (n_rx, N) frame from the assembled matrix model (the oracle path).

    Receive antenna nu's taps enter flat in transmit-major order,
    `taps[nu].reshape(-1)`, against model matrix columns chan_len * mu + delays[k].
    """
    _check_cfo(cfo, cfg)
    profile.check_fits(cfg)
    n, ng = cfg.n_subcarriers, cfg.cp_len
    cols = (cfg.chan_len * np.arange(cfg.n_tx)[:, None] + list(profile.delays)).ravel()
    s = model_matrix(ts, cfg)[:, cols]
    front = np.sqrt(n) * np.exp(2j * np.pi * cfo * ng / n)
    ramp = np.exp(2j * np.pi * cfo * np.arange(n) / n)
    return np.vstack([front * ramp * (s @ taps[nu].reshape(-1)) for nu in range(cfg.n_rx)])
