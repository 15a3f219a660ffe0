import io

import numpy as np
import pytest

from cfolab import (ConfigError, SystemConfig, build_training, chu_sequence,
                    period_gram, reference_config, reference_profile)
from cfolab.numerics import RandomSource, dft
from cfolab.training import OFFSETS_A, OFFSETS_B, export_training_csv
from support import (periodic_autocorr, shift_correlation,
                     shift_correlation_closed_form)


class TestSystemConfig:
    def test_reference_config_valid(self):
        cfg = reference_config()
        assert cfg.n_periods == 16
        assert cfg.shift_stride == 21
        assert cfg.cfo_half_range == 8.0

    def test_chan_len_may_exceed_pilot_len(self):
        # the reference profile spans 75 samples against 64 pilots; the
        # design relies on early energy concentration instead of P >= L
        cfg = reference_config()
        assert cfg.chan_len > cfg.pilot_len

    def test_even_period_count_required(self):
        # N = 3P is divisible by P but not 2P; the candidate grid needs Q even
        with pytest.raises(ConfigError, match="multiple"):
            SystemConfig(n_subcarriers=24, pilot_len=8, n_tx=2, n_rx=1,
                         cp_len=8, chan_len=4, offsets=(0, 1))

    @pytest.mark.parametrize("bad", [
        dict(n_subcarriers=72),                      # 72 % (2*8) != 0
        dict(n_tx=8, offsets=tuple(range(8))),       # n_tx == Q
        dict(offsets=(1, 1)),                        # duplicate offsets
        dict(offsets=(1, 9)),                        # offset out of [0, Q-1]
        dict(offsets=(-1, 5)),                       # negative offset
        dict(chu_root=2),                            # gcd(2, 8) != 1
        dict(chan_len=11),                           # longer than cp_len
        dict(chan_len=0),
        dict(n_rx=0),
        dict(offsets=(1, 5)),                        # aliases: shift by 4 mod Q=8
        dict(n_tx=4, offsets=(0, 2, 4, 6)),          # aliases: shift by 2
        dict(n_tx=4, offsets=(1, 2, 5, 6)),          # aliases: shift by 4
    ])
    def test_invalid_configs_raise(self, bad):
        base = dict(n_subcarriers=64, pilot_len=8, n_tx=2, n_rx=2,
                    cp_len=10, chan_len=8, offsets=(1, 6))
        SystemConfig(**base)
        base.update(bad)
        with pytest.raises(ConfigError):
            SystemConfig(**base)

    def test_lattice_indices(self, toy_cfg):
        assert list(toy_cfg.lattice(0)) == [1 + 8 * k for k in range(8)]
        assert list(toy_cfg.lattice(1)) == [6 + 8 * k for k in range(8)]


class TestChuSequence:
    def test_length_four(self):
        s = chu_sequence(4, 1)
        expected = np.array([1, np.exp(1j * np.pi / 4), -1, np.exp(1j * np.pi / 4)])
        assert np.allclose(s, expected, atol=1e-15)

    def test_length_two(self):
        assert np.allclose(chu_sequence(2, 1), [1, 1j], atol=1e-15)

    @pytest.mark.parametrize("length,root", [
        (4, 1), (6, 1), (16, 1), (16, 3), (16, 5), (64, 1), (64, 7),
    ])
    def test_perfect_periodic_autocorrelation(self, length, root):
        s = chu_sequence(length, root)
        worst = max(abs(periodic_autocorr(s, lag)) for lag in range(1, length))
        assert worst <= 1e-9

    def test_unit_modulus(self):
        assert np.allclose(np.abs(chu_sequence(64)), 1.0, atol=1e-14)

    def test_odd_length_rejected(self):
        with pytest.raises(ConfigError):
            chu_sequence(15, 1)

    def test_non_coprime_root_rejected(self):
        with pytest.raises(ConfigError):
            chu_sequence(16, 4)


class TestBuildTraining:
    def test_comb_support(self):
        cfg = SystemConfig(n_subcarriers=8, pilot_len=2, n_tx=1, n_rx=1,
                           cp_len=2, chan_len=1, offsets=(1,))
        ts = build_training(cfg, "cbts")
        support = np.flatnonzero(np.abs(ts.grid_vectors[0]) > 1e-12)
        assert list(support) == [1, 5]

    def test_per_antenna_energy(self, ref_cfg_a):
        ts = build_training(ref_cfg_a, "cbts")
        for mu in range(ref_cfg_a.n_tx):
            energy = np.linalg.norm(ts.grid_vectors[mu]) ** 2
            assert energy == pytest.approx(1024 / 3, rel=1e-12)

    def test_single_antenna_no_shift(self):
        cfg = SystemConfig(n_subcarriers=32, pilot_len=4, n_tx=1, n_rx=1,
                           cp_len=4, chan_len=2, offsets=(0,))
        ts = build_training(cfg, "cbts")
        expected = np.sqrt(8) * dft(chu_sequence(4, 1))
        assert np.allclose(ts.freq_pilots[0], expected, atol=1e-13)

    def test_comb_disjointness_exact(self, toy_cfg):
        ts = build_training(toy_cfg, "cbts")
        product = ts.grid_vectors[0] * ts.grid_vectors[1]
        assert np.all(product == 0)

    def test_time_frequency_consistency(self, toy_cfg):
        ts = build_training(toy_cfg, "cbts")
        for mu in range(toy_cfg.n_tx):
            grid = dft(ts.time_sequences[mu] / np.sqrt(toy_cfg.n_subcarriers))
            assert np.max(np.abs(grid - ts.grid_vectors[mu])) < 1e-12

    def test_rs_energy_matches_cbts(self, toy_cfg):
        rs = build_training(toy_cfg, "rs", RandomSource(3, (1,)))
        cb = build_training(toy_cfg, "cbts")
        for mu in range(toy_cfg.n_tx):
            assert np.linalg.norm(rs.grid_vectors[mu]) ** 2 == pytest.approx(
                np.linalg.norm(cb.grid_vectors[mu]) ** 2, rel=1e-12)

    @pytest.mark.parametrize("kind", ["cbts", "rs"])
    def test_energy_is_the_delayed_frame_energy(self, toy_cfg, toy_profile, kind):
        # N^2 by Parseval (grid energy N/n_tx per antenna), and every cyclic
        # delay of the sequences keeps it
        ts = build_training(toy_cfg, kind, RandomSource(3, (0,)))
        n, d = toy_cfg.n_subcarriers, len(toy_profile.delays)
        assert ts.energy == pytest.approx(n * n, rel=1e-12)
        rows = np.abs(ts.delayed(toy_profile.delays)) ** 2
        assert rows.sum() / d == pytest.approx(ts.energy, rel=1e-12)

    def test_rs_reproducible_and_seed_sensitive(self, toy_cfg):
        a = build_training(toy_cfg, "rs", RandomSource(3, (1,)))
        b = build_training(toy_cfg, "rs", RandomSource(3, (1,)))
        c = build_training(toy_cfg, "rs", RandomSource(4, (1,)))
        assert np.array_equal(a.grid_vectors, b.grid_vectors)
        assert not np.array_equal(a.grid_vectors, c.grid_vectors)

    def test_rs_needs_rng(self, toy_cfg):
        with pytest.raises(ConfigError):
            build_training(toy_cfg, "rs")

    def test_unknown_kind(self, toy_cfg):
        with pytest.raises(ConfigError):
            build_training(toy_cfg, "qpsk")


class TestShiftCorrelation:
    def test_self_correlation_is_pilot_len(self, ref_cfg_b):
        ts = build_training(ref_cfg_b, "cbts")
        val = shift_correlation(ts, ref_cfg_b, 3, 3, 1, 1)
        assert abs(val) == pytest.approx(ref_cfg_b.pilot_len, rel=1e-9)

    def test_same_antenna_other_lags_vanish(self, ref_cfg_b):
        ts = build_training(ref_cfg_b, "cbts")
        for lag in (1, 2, 9, 40):
            assert abs(shift_correlation(ts, ref_cfg_b, 0, lag, 0, 0)) < 1e-9

    @pytest.mark.parametrize("offsets", [OFFSETS_A, OFFSETS_B])
    def test_matches_closed_form(self, offsets):
        cfg = reference_config(offsets)
        ts = build_training(cfg, "cbts")
        worst = 0.0
        for mu in range(cfg.n_tx):
            for mup in range(cfg.n_tx):
                for la in (0, 3, 11):
                    for lb in (0, 5, 20):
                        direct = shift_correlation(ts, cfg, la, lb, mu, mup)
                        closed = shift_correlation_closed_form(cfg, la, lb, mu, mup)
                        worst = max(worst, abs(direct - closed))
        assert worst < 1e-9

    @pytest.mark.parametrize("offsets", [OFFSETS_A, OFFSETS_B])
    def test_period_gram_matches_closed_form_on_profile_taps(self, offsets):
        # every entry the bias floor uses, including the tap at 74 > P that
        # wraps around the period
        cfg = reference_config(offsets)
        delays = reference_profile().delays
        gram = period_gram(build_training(cfg, "cbts"), cfg, delays)
        assert gram.shape == (cfg.n_tx, len(delays), cfg.n_tx, len(delays))
        for mu in range(cfg.n_tx):
            for mup in range(cfg.n_tx):
                for k, la in enumerate(delays):
                    for m, lb in enumerate(delays):
                        closed = shift_correlation_closed_form(cfg, la, lb, mu, mup)
                        assert abs(gram[mu, k, mup, m] - closed) < 1e-9

    @pytest.mark.parametrize("offsets", [OFFSETS_A, OFFSETS_B])
    def test_cross_antenna_leakage_small_on_energy_taps(self, offsets):
        # Cross-antenna correlations must stay well under the zero-lag peak P
        # wherever the channel actually carries energy.  The bound cannot hold
        # on the full lag box: lags whose effective shifts touch across the
        # stride boundary (difference +-1) reach ~0.5 P, so the test covers
        # the reference profile's taps below the stride, which is the regime
        # the near-diagonal correlation argument needs (~0.07 P measured).
        from cfolab import reference_profile

        cfg = reference_config(offsets)
        ts = build_training(cfg, "cbts")
        energy_taps = [d for d in reference_profile().delays if d < cfg.shift_stride]
        assert energy_taps  # profile concentrates energy early by design
        worst = 0.0
        for mu in range(cfg.n_tx):
            for mup in range(cfg.n_tx):
                if mu == mup:
                    continue
                for la in energy_taps:
                    for lb in energy_taps:
                        worst = max(worst, abs(shift_correlation(ts, cfg, la, lb, mu, mup)))
        assert worst <= 0.15 * cfg.pilot_len


def test_export_csv_shape(toy_cfg):
    ts = build_training(toy_cfg, "cbts")
    buf = io.StringIO()
    export_training_csv(ts, toy_cfg, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "subcarrier,antenna,real,imag"
    assert len(lines) == 1 + toy_cfg.n_subcarriers * toy_cfg.n_tx
