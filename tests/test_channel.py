import numpy as np
import pytest

from cfolab import (ChannelProfile, ConfigError, RandomSource, SystemConfig,
                    build_training, draw_channel, model_matrix,
                    model_receive, reference_config, reference_profile,
                    transmit_receive)
from cfolab.training import OFFSETS_A, OFFSETS_B
from support import (add_noise, circular_convolve, draw_channel_loop, edge_offsets,
                     frame_to_csv, full_taps, period_matrix, stacked_signal_matrix,
                     steering_matrix, transmit_receive_direct,
                     transmit_receive_fft)


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

    def test_powers_held_read_only(self):
        prof = reference_profile()
        db = np.asarray(prof.powers_db)
        want = 10.0 ** ((db - db.max()) / 10.0)
        assert prof.powers_linear is prof.powers_linear
        assert prof.powers_linear.tobytes() == (want / want.sum()).tobytes()
        assert not prof.powers_linear.flags.writeable

    @pytest.mark.parametrize("powers", [(1e308, 1e308), (-4000.0, -4000.0),
                                        (1e308, -1e308), (0.0, -4000.0)])
    def test_extreme_powers_stay_finite(self, powers):
        p = ChannelProfile(delays=(0, 3), powers_db=powers).powers_linear
        assert np.all(np.isfinite(p)) and p.sum() == pytest.approx(1.0, rel=1e-12)


class TestDrawChannel:
    def test_support_matches_reference_delays(self, ref_cfg_b, ref_profile):
        # one tap per delay of the profile, (n_rx, n_tx, D), every one drawn
        taps = draw_channel(ref_profile, ref_cfg_b, RandomSource(1, (5,)).generator())
        assert taps.shape == (ref_cfg_b.n_rx, ref_cfg_b.n_tx, 6)
        assert np.all(taps != 0)

    def test_unit_tap_energy(self):
        cfg = SystemConfig(64, 8, 2, 8, (1, 6))
        prof = ChannelProfile(delays=(0,), powers_db=(0.0,))
        gen = RandomSource(2, (0,)).generator()
        acc = 0.0
        n = 10_000
        for _ in range(n):
            acc += np.abs(draw_channel(prof, cfg, gen)[0, 0, 0]) ** 2
        assert acc / n == pytest.approx(1.0, rel=0.03)

    def test_seed_reproducibility(self, toy_cfg, toy_profile):
        a = draw_channel(toy_profile, toy_cfg, RandomSource(9, (3,)).generator())
        b = draw_channel(toy_profile, toy_cfg, RandomSource(9, (3,)).generator())
        assert np.array_equal(a, b)

    def test_profile_must_fit(self, toy_cfg):
        # one rule, `ChannelProfile.check_fits`, for the draw and both frame paths
        ts = build_training(toy_cfg, "cbts")
        prof = ChannelProfile(delays=(0, 9), powers_db=(0.0, -3.0))
        taps = np.ones((toy_cfg.n_rx, toy_cfg.n_tx, 2), complex)
        for call in (lambda: prof.check_fits(toy_cfg),
                     lambda: draw_channel(prof, toy_cfg, RandomSource(1).generator()),
                     lambda: transmit_receive(ts, prof, taps, 0.0, toy_cfg),
                     lambda: model_receive(ts, prof, taps, 0.0, toy_cfg)):
            with pytest.raises(ConfigError, match="profile length 10 exceeds .* chan_len 8"):
                call()
        # the last delay at chan_len - 1 fits
        ChannelProfile(delays=(0, 7), powers_db=(0.0, -3.0)).check_fits(toy_cfg)


class TestOracleEquivalence:
    """Time-domain path against the assembled matrix model."""

    @pytest.mark.parametrize("offsets", [OFFSETS_A, OFFSETS_B])
    @pytest.mark.parametrize("cfo", [-7.5, -2.3, 0.0, 0.5, 7.0])
    def test_reference_scale(self, offsets, cfo):
        cfg = reference_config(offsets)
        ts = build_training(cfg, "cbts")
        ch = draw_channel(reference_profile(), cfg, RandomSource(11, (1,)).generator())
        td = transmit_receive(ts, reference_profile(), ch, cfo, cfg)
        mm = model_receive(ts, reference_profile(), ch, cfo, cfg)
        assert np.max(np.abs(td - mm)) < 1e-9

    def test_toy_scale(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(4, (2,)).generator())
        for cfo in (-3.9, 0.0, 1.7):
            td = transmit_receive(ts, toy_profile, ch, cfo, toy_cfg)
            mm = model_receive(ts, toy_profile, ch, cfo, toy_cfg)
            assert np.max(np.abs(td - mm)) < 1e-11

    def test_identity_channel_returns_time_sequence(self):
        cfg = SystemConfig(64, 8, 1, 8, (0,))
        ts = build_training(cfg, "cbts")
        unit = ChannelProfile(delays=(0,), powers_db=(0.0,))
        frame = transmit_receive(ts, unit, np.ones((1, 1, 1), complex), 0.0, cfg)
        assert np.max(np.abs(frame[0] - ts.time_sequences[0])) < 1e-12

    def test_rotation_inverse_recovers_zero_offset(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(4, (2,)).generator())
        rotated = transmit_receive(ts, toy_profile, ch, 2.3, toy_cfg)
        base = transmit_receive(ts, toy_profile, ch, 0.0, toy_cfg)
        n = toy_cfg.n_subcarriers
        counter = np.conj(np.exp(2j * np.pi * 2.3 * np.arange(n) / n))
        assert np.max(np.abs(rotated * counter - base)) < 1e-12

    def test_cp_removal_equals_circular_convolution(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(6, (0,)).generator())
        frame = transmit_receive(ts, toy_profile, ch, 0.0, toy_cfg)
        full = full_taps(toy_profile, ch, toy_cfg)
        for nu in range(toy_cfg.n_rx):
            ref = sum(circular_convolve(ts.time_sequences[mu], full[nu, mu])
                      for mu in range(toy_cfg.n_tx))
            assert np.max(np.abs(frame[nu] - ref)) < 1e-11

    def test_cfo_out_of_range_rejected(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(4, (2,)).generator())
        with pytest.raises(ValueError, match="identifiable"):
            transmit_receive(ts, toy_profile, ch, toy_cfg.cfo_half_range, toy_cfg)


# the toy profile of conftest: its last tap sits at delay 7, the toy chan_len - 1
TOY_PROFILE = ChannelProfile(delays=(0, 2, 7), powers_db=(0.0, -3.0, -6.0))


class TestFftSimulation:
    """The simulated frame against the direct linear-convolution loop and the
    FFT oracle, and the one-call channel draw against the tap-by-tap loop."""

    @pytest.mark.parametrize("kind", ["cbts", "rs"])
    @pytest.mark.parametrize("cfg,profile,prefix", [
        (SystemConfig(64, 8, 2, 8, (1, 6)), TOY_PROFILE, 10),
        (SystemConfig(64, 8, 2, 8, (1, 6)), TOY_PROFILE, 8),  # prefix == chan_len
        (reference_config(OFFSETS_A), reference_profile(), 80),
        (reference_config(OFFSETS_B), reference_profile(), 80),
    ], ids=["toy", "toy-full-prefix", "reference-a", "reference-b"])
    def test_matches_direct_convolution(self, cfg, profile, prefix, kind):
        # the loop sends an explicit prefix and rotates from its start; for any
        # prefix that covers the channel (toy: two lengths) its frame is the
        # simulated one times one common phase, which no lag sum and no bound
        # sees, so the model needs no prefix length
        ts = build_training(cfg, kind, RandomSource(3, (0,)) if kind == "rs" else None)
        for seed in range(3):
            ch = draw_channel(profile, cfg, RandomSource(seed, (1,)).generator())
            for cfo in edge_offsets(cfg):
                direct = transmit_receive_direct(ts, profile, ch, cfo, cfg, prefix)
                phase = np.exp(2j * np.pi * cfo * prefix / cfg.n_subcarriers)
                fft = phase * transmit_receive(ts, profile, ch, cfo, cfg)
                assert np.max(np.abs(fft - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize("kind", ["cbts", "rs"])
    @pytest.mark.parametrize("which", ["toy", "reference"])
    def test_frame_kernel_matches_fft_oracle(self, which, kind, toy_cfg, toy_profile,
                                             ref_cfg_b, ref_profile):
        # the product over the profile's delays with a per-period ramp against
        # the FFTs of every tap column with the ramp over all N samples
        cfg, profile = ((toy_cfg, toy_profile) if which == "toy"
                        else (ref_cfg_b, ref_profile))
        ts = build_training(cfg, kind, RandomSource(3, (0,)) if kind == "rs" else None)
        for seed in range(3):
            ch = draw_channel(profile, cfg, RandomSource(seed, (1,)).generator())
            for cfo in edge_offsets(cfg):
                want = transmit_receive_fft(ts, profile, ch, cfo, cfg)
                got = transmit_receive(ts, profile, ch, cfo, cfg)
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("kind", ["cbts", "rs"])
    def test_frame_kernel_cache_warm_and_cold_same_bits(self, kind, ref_cfg_b, ref_profile):
        ch = draw_channel(ref_profile, ref_cfg_b, RandomSource(4, (1,)).generator())
        rng = RandomSource(3, (0,)) if kind == "rs" else None
        warm = build_training(ref_cfg_b, kind, rng)
        first = transmit_receive(warm, ref_profile, ch, 2.3, ref_cfg_b)
        held = warm.delayed(ref_profile.delays)
        assert not held.flags.writeable
        assert held.shape == (ref_cfg_b.n_tx * len(ref_profile.delays), ref_cfg_b.n_subcarriers)
        assert transmit_receive(warm, ref_profile, ch, 2.3, ref_cfg_b).tobytes() == first.tobytes()
        assert warm.delayed(ref_profile.delays) is held
        # another profile's delays replace the held matrix; the next call rebuilds it
        shorter = ChannelProfile(ref_profile.delays[:-1], ref_profile.powers_db[:-1])
        transmit_receive(warm, shorter, ch[..., :-1], 2.3, ref_cfg_b)
        assert transmit_receive(warm, ref_profile, ch, 2.3, ref_cfg_b).tobytes() == first.tobytes()
        cold = build_training(ref_cfg_b, kind, rng)
        assert transmit_receive(cold, ref_profile, ch, 2.3, ref_cfg_b).tobytes() == first.tobytes()

    def test_frame_kernel_zero_delay_column(self, toy_cfg):
        # a profile delay of power 0 (a -4000 dB gap normalises to [1, 0]) draws
        # exactly zero taps, which the product multiplies like any other
        profile = ChannelProfile(delays=(0, 3), powers_db=(0.0, -4000.0))
        ts = build_training(toy_cfg, "cbts")
        for seed in range(3):
            ch = draw_channel(profile, toy_cfg, RandomSource(seed, (1,)).generator())
            assert np.all(ch[..., 1] == 0) and np.all(ch[..., 0] != 0)
            for cfo in edge_offsets(toy_cfg):
                # the direct loop's phase reference is the start of its prefix
                want = transmit_receive_direct(ts, profile, ch, cfo, toy_cfg, 8)
                got = np.exp(2j * np.pi * cfo * 8 / 64) * transmit_receive(ts, profile, ch, cfo,
                                                                           toy_cfg)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_frame_kernel_zero_taps_zero_frame(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        taps = np.zeros((toy_cfg.n_rx, toy_cfg.n_tx, len(toy_profile.delays)), complex)
        frame = transmit_receive(ts, toy_profile, taps, 0.37, toy_cfg)
        assert frame.shape == (toy_cfg.n_rx, toy_cfg.n_subcarriers)
        assert np.all(frame == 0)
        assert np.all(transmit_receive_fft(ts, toy_profile, taps, 0.37, toy_cfg) == 0)

    @pytest.mark.parametrize("which", ["toy", "reference"])
    def test_draw_matches_tap_loop(self, which, toy_cfg, toy_profile, ref_cfg_b,
                                   ref_profile):
        cfg, profile = ((toy_cfg, toy_profile) if which == "toy"
                        else (ref_cfg_b, ref_profile))
        for seed in range(5):
            gen, loop_gen = (RandomSource(seed, (1, seed)).generator() for _ in range(2))
            got = draw_channel(profile, cfg, gen)
            want = draw_channel_loop(profile, cfg, loop_gen)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            # the stream is left where the loop leaves it
            assert gen.uniform() == loop_gen.uniform()


class TestStackedSignalModel:
    def test_model_matrix_shape(self, ref_cfg_b):
        ts = build_training(ref_cfg_b, "cbts")
        s = model_matrix(ts, ref_cfg_b)
        assert s.shape == (1024, 3 * 75)

    def test_zero_channel_zero_matrix(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        taps = np.zeros((2, 2, 3), complex)
        assert np.all(stacked_signal_matrix(ts, toy_profile, taps, 1.0, toy_cfg) == 0)

    @pytest.mark.parametrize("offsets", [OFFSETS_A, OFFSETS_B])
    def test_period_stacking_identity(self, offsets):
        cfg = reference_config(offsets)
        ts = build_training(cfg, "cbts")
        ch = draw_channel(reference_profile(), cfg, RandomSource(13, (1,)).generator())
        cfo = -4.2
        frame = transmit_receive(ts, reference_profile(), ch, cfo, cfg)
        y = period_matrix(frame, cfg)
        bx = steering_matrix(cfo, cfg) @ stacked_signal_matrix(ts, reference_profile(), ch,
                                                               cfo, cfg)
        assert np.max(np.abs(y - bx)) < 1e-9

    def test_stacked_power_shortcut(self, toy_cfg, toy_profile):
        # the frame's power per sample over n_tx is mean |X|^2, the per-row
        # power behind gamma = snr / n_tx, without assembling X: the steering
        # matrix has orthogonal equal-norm columns, so frame energy is exactly
        # Q times stacked energy
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(21, (0,)).generator())
        frame = transmit_receive(ts, toy_profile, ch, 1.2, toy_cfg)
        x = stacked_signal_matrix(ts, toy_profile, ch, 1.2, toy_cfg)
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
            model_receive(ts, toy_profile, ch, 0.0, toy_cfg)
        with pytest.raises(ConfigError):
            stacked_signal_matrix(ts, toy_profile, ch, 0.0, toy_cfg)


def test_frame_csv_dump(toy_cfg, toy_profile):
    import io

    ts = build_training(toy_cfg, "cbts")
    ch = draw_channel(toy_profile, toy_cfg, RandomSource(5, (1,)).generator())
    frame = transmit_receive(ts, toy_profile, ch, 0.7, toy_cfg)
    buf = io.StringIO()
    frame_to_csv(frame, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "antenna,sample,real,imag"
    assert len(lines) == 1 + toy_cfg.n_rx * toy_cfg.n_subcarriers


class TestNoise:
    def test_noise_calibration(self, toy_cfg, toy_profile):
        ts = build_training(toy_cfg, "cbts")
        ch = draw_channel(toy_profile, toy_cfg, RandomSource(8, (0,)).generator())
        clean = transmit_receive(ts, toy_profile, ch, 0.5, toy_cfg)
        target = 2.0
        acc = 0.0
        count = 0
        for k in range(800):  # 800 * 128 samples > 1e5
            noisy = add_noise(clean, target, RandomSource(8, (100 + k,)).generator())
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
            x = stacked_signal_matrix(ts, ref_profile, ch, cfo, ref_cfg_b)
            rxx = x @ x.conj().T
            diag += np.real(np.diag(rxx)) / n
            off += np.abs(rxx - np.diag(np.diag(rxx))).max() / n
        spread = (diag.max() - diag.min()) / diag.min()
        assert spread < 0.02
        assert off <= 0.15 * diag.min()
