import numpy as np
import pytest

from cfolab import (ChannelProfile, ConfigError, RandomSource, SystemConfig,
                    add_noise, build_training, draw_channel, model_matrix,
                    model_receive, reference_config, reference_profile,
                    transmit_receive)
from cfolab.numerics import phase_ramp
from cfolab.training import OFFSETS_A, OFFSETS_B
from support import (circular_convolve, frame_to_csv, stacked_signal_matrix,
                     steering_matrix)


def stack_rows(frame, cfg):
    q, p = cfg.n_periods, cfg.pilot_len
    return np.hstack([frame[nu].reshape(q, p) for nu in range(cfg.n_rx)])


class TestChannelProfile:
    def test_reference_profile(self):
        prof = reference_profile()
        assert prof.length == 75
        assert prof.powers_linear.sum() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("delays,powers", [
        ((0, 0), (0.0, -1.0)),      # not strictly increasing
        ((2, 1), (0.0, -1.0)),      # decreasing
        ((-1, 3), (0.0, -1.0)),     # negative delay
        ((0, 1), (0.0,)),           # mismatched lengths
        ((), ()),                   # empty
    ])
    def test_invalid_profiles(self, delays, powers):
        with pytest.raises(ConfigError):
            ChannelProfile(delays=delays, powers_db=powers)


class TestDrawChannel:
    def test_support_matches_reference_delays(self, ref_cfg_b, ref_profile):
        ch = draw_channel(ref_profile, ref_cfg_b, RandomSource(1, (5,)).generator())
        active = {0, 4, 16, 24, 46, 74}
        for l in range(ch.length):
            if l in active:
                assert np.all(ch.taps[:, :, l] != 0)
            else:
                assert np.all(ch.taps[:, :, l] == 0)

    def test_unit_tap_energy(self):
        cfg = SystemConfig(64, 8, 2, 2, 10, 8, (1, 5))
        prof = ChannelProfile(delays=(0,), powers_db=(0.0,))
        gen = RandomSource(2, (0,)).generator()
        acc = 0.0
        n = 10_000
        for _ in range(n):
            ch = draw_channel(prof, cfg, gen)
            acc += np.abs(ch.taps[0, 0, 0]) ** 2
        assert acc / n == pytest.approx(1.0, rel=0.03)

    def test_seed_reproducibility(self, toy_cfg, toy_profile):
        a = draw_channel(toy_profile, toy_cfg, RandomSource(9, (3,)).generator())
        b = draw_channel(toy_profile, toy_cfg, RandomSource(9, (3,)).generator())
        assert np.array_equal(a.taps, b.taps)

    def test_profile_must_fit(self, toy_cfg):
        prof = ChannelProfile(delays=(0, 9), powers_db=(0.0, -3.0))
        with pytest.raises(ConfigError):
            draw_channel(prof, toy_cfg, RandomSource(1).generator())


class TestOracleEquivalence:
    """Time-domain path against the assembled matrix model."""

    @pytest.mark.parametrize("offsets", [OFFSETS_A, OFFSETS_B])
    @pytest.mark.parametrize("cfo", [-7.5, -2.3, 0.0, 0.5, 7.0])
    def test_reference_scale(self, offsets, cfo):
        cfg = reference_config(offsets)
        ts = build_training(cfg, "cbts")
        ch = draw_channel(reference_profile(), cfg, RandomSource(11, (1,)).generator())
        td = transmit_receive(ts, ch, cfo, cfg)
        mm = model_receive(ts, ch, cfo, cfg)
        assert np.max(np.abs(td - mm)) < 1e-9

    def test_toy_scale(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(4, (2,)).generator())
        for cfo in (-3.9, 0.0, 1.7):
            td = transmit_receive(ts, ch, cfo, toy_cfg)
            mm = model_receive(ts, ch, cfo, toy_cfg)
            assert np.max(np.abs(td - mm)) < 1e-11

    def test_identity_channel_returns_time_sequence(self):
        cfg = SystemConfig(64, 8, 1, 1, 10, 8, (0,))
        ts = build_training(cfg, "cbts")
        taps = np.zeros((1, 1, 8), complex)
        taps[0, 0, 0] = 1.0
        from cfolab.channel import ChannelRealization

        ch = ChannelRealization(taps=taps)
        frame = transmit_receive(ts, ch, 0.0, cfg)
        assert np.max(np.abs(frame[0] - ts.time_sequences[0])) < 1e-12

    def test_rotation_inverse_recovers_zero_offset(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(4, (2,)).generator())
        rotated = transmit_receive(ts, ch, 2.3, toy_cfg)
        base = transmit_receive(ts, ch, 0.0, toy_cfg)
        n, ng = toy_cfg.n_subcarriers, toy_cfg.cp_len
        counter = np.conj(np.exp(2j * np.pi * 2.3 * (np.arange(n) + ng) / n))
        assert np.max(np.abs(rotated * counter - base)) < 1e-12

    def test_cp_removal_equals_circular_convolution(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(6, (0,)).generator())
        frame = transmit_receive(ts, ch, 0.0, toy_cfg)
        for nu in range(toy_cfg.n_rx):
            ref = sum(circular_convolve(ts.time_sequences[mu], ch.taps[nu, mu])
                      for mu in range(toy_cfg.n_tx))
            assert np.max(np.abs(frame[nu] - ref)) < 1e-11

    def test_cfo_out_of_range_rejected(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(4, (2,)).generator())
        with pytest.raises(ValueError, match="identifiable"):
            transmit_receive(ts, ch, toy_cfg.cfo_half_range, toy_cfg)


class TestStackedSignalModel:
    def test_model_matrix_shape(self, ref_cfg_b):
        ts = build_training(ref_cfg_b, "cbts")
        s = model_matrix(ts, ref_cfg_b)
        assert s.shape == (1024, 3 * 75)

    def test_zero_channel_zero_matrix(self, toy_cfg):
        from cfolab.channel import ChannelRealization

        ts = build_training(toy_cfg, "cbts")
        ch = ChannelRealization(taps=np.zeros((2, 2, 8), complex))
        assert np.all(stacked_signal_matrix(ts, ch, 1.0, toy_cfg) == 0)

    @pytest.mark.parametrize("offsets", [OFFSETS_A, OFFSETS_B])
    def test_period_stacking_identity(self, offsets):
        cfg = reference_config(offsets)
        ts = build_training(cfg, "cbts")
        ch = draw_channel(reference_profile(), cfg, RandomSource(13, (1,)).generator())
        cfo = -4.2
        frame = transmit_receive(ts, ch, cfo, cfg)
        y = stack_rows(frame, cfg)
        bx = steering_matrix(cfo, cfg) @ stacked_signal_matrix(ts, ch, cfo, cfg)
        assert np.max(np.abs(y - bx)) < 1e-9

    def test_stacked_power_shortcut(self, toy_cfg, toy_profile):
        # the frame's power per sample over n_tx is mean |X|^2, the per-row
        # power behind gamma = snr / n_tx, without assembling X: the steering
        # matrix has orthogonal equal-norm columns, so frame energy is exactly
        # Q times stacked energy
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(21, (0,)).generator())
        frame = transmit_receive(ts, ch, 1.2, toy_cfg)
        x = stacked_signal_matrix(ts, ch, 1.2, toy_cfg)
        assert np.mean(np.abs(frame) ** 2) / toy_cfg.n_tx == pytest.approx(
            float(np.mean(np.abs(x) ** 2)), rel=1e-12)

    def test_steering_columns_orthogonal(self, toy_cfg):
        b = steering_matrix(0.37, toy_cfg)
        gram = b.conj().T @ b
        assert np.allclose(gram, toy_cfg.n_periods * np.eye(toy_cfg.n_tx), atol=1e-10)

    def test_rs_training_rejected(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "rs", RandomSource(1, (1,)))
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(4, (2,)).generator())
        with pytest.raises(ConfigError):
            model_receive(ts, ch, 0.0, toy_cfg)
        with pytest.raises(ConfigError):
            stacked_signal_matrix(ts, ch, 0.0, toy_cfg)


def test_frame_csv_dump(toy_cfg, toy_profile):
    import io

    ts = build_training(toy_cfg, "cbts")
    ch = draw_channel(toy_profile, toy_cfg, RandomSource(5, (1,)).generator())
    frame = transmit_receive(ts, ch, 0.7, toy_cfg)
    buf = io.StringIO()
    frame_to_csv(frame, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "antenna,sample,real,imag"
    assert len(lines) == 1 + toy_cfg.n_rx * toy_cfg.n_subcarriers


class TestNoise:
    def test_noise_calibration(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(8, (0,)).generator())
        clean = transmit_receive(ts, ch, 0.5, toy_cfg)
        target = 2.0
        acc = 0.0
        count = 0
        for k in range(800):  # 800 * 128 samples > 1e5
            noisy = add_noise({"cbts": clean}, {"cbts": target},
                              RandomSource(8, (100 + k,)).generator())["cbts"]
            acc += np.sum(np.abs(noisy - clean) ** 2)
            count += noisy.size
        assert 0.97 <= (acc / count) / target <= 1.03


class TestStackedCorrelationStructure:
    def test_diagonal_blocks_equal_in_expectation(self, ref_cfg_b, ref_profile):
        # per-antenna diagonal averages of X X^H agree within 2% over 1e4
        # draws, and the mean off-diagonal magnitude stays a small fraction
        # of the smallest diagonal entry
        ts = build_training(ref_cfg_b, "cbts")
        n = 10_000
        diag = np.zeros(ref_cfg_b.n_tx)
        off = 0.0
        for t in range(n):
            gen = RandomSource(31, (2 + 2 * t,)).generator()
            ch = draw_channel(ref_profile, ref_cfg_b, gen)
            cfo = gen.uniform(-8, 8)
            x = stacked_signal_matrix(ts, ch, cfo, ref_cfg_b)
            rxx = x @ x.conj().T
            diag += np.real(np.diag(rxx)) / n
            off += np.abs(rxx - np.diag(np.diag(rxx))).max() / n
        spread = (diag.max() - diag.min()) / diag.min()
        assert spread < 0.02
        assert off <= 0.15 * diag.min()
