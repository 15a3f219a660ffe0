"""Training sequence design for MIMO-OFDM frequency offset estimation.

Each transmit antenna gets a pilot comb occupying every Q-th subcarrier,
starting from a per-antenna offset.  Disjoint combs keep antennas orthogonal
in frequency; the comb structure makes the time-domain frame consist of Q
repetitions of a length-P period, which is what the correlation-diagonal
estimator exploits.

Two kinds are shipped:

* ``cbts`` - pilot values derived from cyclic shifts of a single constant-
  modulus quadratic-phase (Chu) generator sequence, giving perfect periodic
  autocorrelation and flat per-subcarrier power.
* ``rs``   - a control design with i.i.d. random-phase elements across the
  whole band and matched per-antenna energy, but none of the comb/correlation
  structure.  It exists to demonstrate how much the structured design buys.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from numbers import Integral, Real
from typing import IO

import numpy as np

from .numerics import RandomSource, dft


class ConfigError(ValueError):
    """Raised for dimension or parameter combinations the model cannot support."""


def json_text(value) -> str:
    """`value` as JSON spells it (null, true, "text"), or its repr if JSON cannot."""
    try:
        return json.dumps(value)
    except TypeError:
        return repr(value)


def is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


# Offset sets used by the shipped reference experiments.
OFFSETS_A = (3, 5, 11)
OFFSETS_B = (3, 7, 14)


@dataclass(frozen=True)
class SystemConfig:
    """All dimensioning parameters of the transceiver model.

    Attributes:
        n_subcarriers: full OFDM grid size N.
        pilot_len:     pilots per antenna P; the time-domain period length.
        n_rx:          receive antenna count.
        chan_len:      maximum channel impulse response length L in samples, <= N.
        offsets:       per-antenna comb offsets, distinct, in [0, Q-1]; n_tx is their count.
        chu_root:      generator-sequence root, coprime with pilot_len.

    The repetition count Q = N/P must be even (N divisible by 2P) and larger
    than n_tx.  No cyclic shift 0 < d < Q may map the offset set onto itself
    mod Q: every estimator's score would then repeat with period d in the CFO.
    The estimator's accuracy analysis additionally assumes P >= chan_len; the
    shipped wideband preset violates that deliberately (its power profile
    concentrates energy in the first few taps, which is the condition that
    actually matters), so it is not enforced here.
    """

    n_subcarriers: int
    pilot_len: int
    n_rx: int
    chan_len: int
    offsets: tuple[int, ...]
    chu_root: int = 1

    def __post_init__(self):
        for key in ("n_subcarriers", "pilot_len", "n_rx", "chan_len", "chu_root"):
            if not is_integer(getattr(self, key)):
                raise ConfigError(f"{key} must be an integer, got {json_text(getattr(self, key))}")
        offsets = self.offsets
        if not isinstance(offsets, (tuple, list)) or not all(map(is_integer, offsets)):
            raise ConfigError(f"offsets must be a list of integers, got {json_text(offsets)}")
        object.__setattr__(self, "offsets", tuple(offsets))
        n, p = self.n_subcarriers, self.pilot_len
        if p < 2 or n < p:
            raise ConfigError(f"need n_subcarriers >= pilot_len >= 2, got {n}, {p}")
        # one (n_rx, N) frame of 2**20 samples is 16 MiB, 512 times the reference
        # config's; far larger ones end in a MemoryError traceback, not a config error
        if self.n_rx * n > 2**20:
            raise ConfigError(f"n_rx * n_subcarriers must be at most 2**20, got {self.n_rx * n}")
        if n % (2 * p) != 0:
            raise ConfigError(f"n_subcarriers must be a multiple of 2*pilot_len ({n} vs {p})")
        q = n // p
        if not (0 < self.n_tx < q):
            raise ConfigError(f"need 1 to Q-1={q - 1} comb offsets, one per transmit antenna, "
                              f"got {json_text(offsets)}")
        if self.n_rx < 1:
            raise ConfigError("n_rx must be >= 1")
        if len(set(self.offsets)) != self.n_tx:
            raise ConfigError(f"comb offsets must be distinct, got {json_text(offsets)}")
        if any(not (0 <= i <= q - 1) for i in self.offsets):
            raise ConfigError(f"comb offsets must lie in [0, {q - 1}], got {json_text(offsets)}")
        if any({(i + d) % q for i in self.offsets} == set(self.offsets) for d in range(1, q)):
            raise ConfigError(f"comb offsets {json_text(offsets)} repeat under a nonzero cyclic "
                              f"shift mod Q={q}, which aliases every estimator's score")
        if math.gcd(self.chu_root, p) != 1:
            raise ConfigError(f"chu_root={self.chu_root} must be coprime with pilot_len={p}")
        if not 1 <= self.chan_len <= n:
            raise ConfigError(f"chan_len={self.chan_len} must be in [1, n_subcarriers={n}]")

    @property
    def n_periods(self) -> int:
        """Q: number of length-P periods in one training frame."""
        return self.n_subcarriers // self.pilot_len

    @property
    def n_tx(self) -> int:
        return len(self.offsets)

    @cached_property
    def comb_phase_sums(self) -> np.ndarray:
        """Element q = sum over antennas of exp(j*2*pi*offset*q/Q), once per
        config (read-only)."""
        q = np.arange(self.n_periods)
        sums = np.exp(2j * np.pi * np.outer(q, self.offsets) / self.n_periods).sum(axis=1)
        sums.flags.writeable = False
        return sums

    @cached_property
    def ramp_samples(self) -> np.ndarray:
        """The CFO ramp's sample indices from the first kept sample: each period's
        first sample, then the offsets within a period (read-only)."""
        p = self.pilot_len
        samples = np.concatenate([p * np.arange(self.n_periods), np.arange(p)])
        samples.flags.writeable = False
        return samples

    @property
    def shift_stride(self) -> int:
        """Per-antenna cyclic shift applied to the generator sequence."""
        return self.pilot_len // self.n_tx

    @property
    def cfo_half_range(self) -> float:
        """CFO is identifiable on the open interval (-Q/2, Q/2)."""
        return self.n_periods / 2.0

    def lattice(self, antenna: int) -> np.ndarray:
        """Subcarrier indices of the given antenna's pilot comb."""
        q = self.n_periods
        return self.offsets[antenna] + q * np.arange(self.pilot_len)


def reference_config(offsets: tuple[int, ...] = OFFSETS_B) -> SystemConfig:
    """The 1024-subcarrier wideband configuration used by the shipped presets."""
    return SystemConfig(
        n_subcarriers=1024,
        pilot_len=64,
        n_rx=2,
        chan_len=75,
        offsets=offsets,
    )


def chu_sequence(length: int, root: int = 1) -> np.ndarray:
    """Constant-modulus quadratic-phase sequence: element p = exp(j*pi*root*p^2/length).

    For even lengths with gcd(root, length) = 1 the periodic autocorrelation
    vanishes at every nonzero lag, which is the property the whole training
    design rests on.  Odd lengths lose that property for the quadratic form,
    so they are rejected.
    """
    if length < 2 or length % 2 != 0:
        raise ConfigError(f"generator sequence length must be even and >= 2, got {length}")
    if math.gcd(root, length) != 1:
        raise ConfigError(f"root={root} must be coprime with length={length}")
    p = np.arange(length)
    return np.exp(1j * np.pi * root * p * p / length)


@dataclass(frozen=True)
class TrainingSet:
    """Per-antenna training in its three equivalent layouts.

    freq_pilots:    (n_tx, P) pilot values on each antenna's comb (cbts only
                    meaningful per-comb; for rs the full grid is the design).
    grid_vectors:   (n_tx, N) full-grid frequency-domain training.
    time_sequences: (n_tx, N) time-domain frame before the cyclic prefix,
                    scaled as sqrt(N) times the unitary inverse DFT of the
                    grid vector.
    """

    kind: str
    freq_pilots: np.ndarray = field(repr=False)
    grid_vectors: np.ndarray = field(repr=False)
    time_sequences: np.ndarray = field(repr=False)
    _delayed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def energy(self) -> float:
        """Expected noiseless frame energy per receive antenna, sum_mu ||s_mu||^2:
        a cyclic delay keeps a sequence's energy and the taps' powers sum to 1."""
        return float(np.vdot(self.time_sequences, self.time_sequences).real)

    def delayed(self, delays: tuple[int, ...]) -> np.ndarray:
        """(n_tx * D, N) matrix, row mu * D + k time sequence mu cyclically
        delayed by delays[k]; the last delays' matrix is held (read-only)."""
        if delays not in self._delayed:
            n = self.time_sequences.shape[-1]
            rows = (np.arange(n) - np.array(delays, dtype=int)[:, None]) % n
            self._delayed.clear()
            self._delayed[delays] = self.time_sequences[:, rows].reshape(-1, n)
            self._delayed[delays].flags.writeable = False
        return self._delayed[delays]


def build_training(cfg: SystemConfig, kind: str = "cbts",
                   rng: RandomSource | None = None) -> TrainingSet:
    """Construct a TrainingSet of the requested kind.

    cbts: antenna mu transmits sqrt(Q/n_tx) * F_P applied to the generator
    sequence cyclically shifted by mu * shift_stride, placed on its comb.
    Per-antenna grid energy is N/n_tx and combs are disjoint.

    rs: i.i.d. uniform random phases, unit modulus, on all N subcarriers,
    scaled to the same per-antenna energy N/n_tx.  Requires `rng`.
    """
    n, p, q = cfg.n_subcarriers, cfg.pilot_len, cfg.n_periods
    pilots = np.zeros((cfg.n_tx, p), dtype=complex)
    grid = np.zeros((cfg.n_tx, n), dtype=complex)
    if kind == "cbts":
        s = chu_sequence(p, cfg.chu_root)
        for mu in range(cfg.n_tx):
            pilots[mu] = np.sqrt(q / cfg.n_tx) * dft(np.roll(s, mu * cfg.shift_stride))
            grid[mu, cfg.lattice(mu)] = pilots[mu]
    elif kind == "rs":
        if rng is None:
            raise ConfigError("rs training needs a RandomSource")
        gen = rng.generator()
        for mu in range(cfg.n_tx):
            grid[mu] = np.exp(1j * gen.uniform(0.0, 2 * np.pi, n)) / np.sqrt(cfg.n_tx)
            pilots[mu] = grid[mu, cfg.lattice(mu)]
    else:
        raise ConfigError(f"unknown training kind {json_text(kind)}")
    time = np.vstack([np.sqrt(n) * dft(grid[mu], inverse=True) for mu in range(cfg.n_tx)])
    return TrainingSet(kind=kind, freq_pilots=pilots, grid_vectors=grid, time_sequences=time)


def period_gram(ts: TrainingSet, cfg: SystemConfig, lags) -> np.ndarray:
    """Correlations between every pair of tap-shifted antenna periods.

    Element [a, k, b, m] is the inner product of antenna a's period shifted
    cyclically by lags[k] with antenna b's period shifted by lags[m], under
    the inter-comb phase ramp: the Gram matrix of the periods that channel
    taps at `lags` produce from each antenna, so a channel's stacked-signal
    correlation is a bilinear form in its taps with these coefficients.  For
    the cbts kind it is P on the diagonal, exactly zero between other lags of
    the same antenna, and small across antennas.
    """
    p = cfg.pilot_len
    base = np.sqrt(cfg.n_tx / cfg.n_periods) * dft(ts.freq_pilots, inverse=True)
    # inter-comb spacing is fractional on the period clock: offset/Q cycles
    # per period, i.e. offset/N cycles per sample
    ramp = np.vstack([np.exp(2j * np.pi * i * np.arange(p) / cfg.n_subcarriers)
                      for i in cfg.offsets])
    rows = (np.arange(p) - np.asarray(lags)[:, None]) % p  # cyclic shift per lag
    periods = base[:, rows] * ramp[:, None, :]              # (n_tx, len(lags), P)
    return np.einsum("akn,bmn->akbm", periods, periods.conj())


def export_training_csv(ts: TrainingSet, cfg: SystemConfig, fh: IO[str]) -> None:
    """Write the full-grid training to CSV: one row per (subcarrier, antenna)."""
    writer = csv.writer(fh)
    writer.writerow(["subcarrier", "antenna", "real", "imag"])
    for k in range(cfg.n_subcarriers):
        for mu in range(cfg.n_tx):
            v = ts.grid_vectors[mu, k]
            writer.writerow([k, mu, f"{v.real:.12g}", f"{v.imag:.12g}"])
