import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cfolab import (ChannelProfile, ConfigError, DegenerateDiagonalError,
                    RandomSource, SystemConfig, bias_floor, build_training,
                    comb_sum_can_vanish, cross_term,
                    draw_channel, emcb, estimate_simplified, model_matrix,
                    optimal_diag_indices, predicted_mse, reference_config,
                    reference_profile, stack, transmit_receive)
from cfolab.analysis import _bound_core, _check_index, mean_inverse
from cfolab.training import OFFSETS_A, OFFSETS_B
from support import (bound_core_full, emcb_monte_carlo, full_taps, kron_model_matrix,
                     projection_complement, strict_minimisers)


class TestCrossTerm:
    def test_single_antenna_collapses(self):
        cfg = SystemConfig(64, 8, 1, 8, (3,))
        for idx in range(1, 8):
            assert cross_term(idx, cfg) == pytest.approx(2 * min(idx, 8 - idx), abs=1e-12)

    def test_hand_value(self, ref_cfg_a):
        # offsets {3,5,11}, Q=16, index 8: phasors at index 8 are all -1
        # (sum -3), at 16 all +1 (sum 3); value = 16 * Re(3 * 9) / 9 = 48
        assert cross_term(8, ref_cfg_a) == pytest.approx(48.0, rel=1e-12)

    @pytest.mark.parametrize("offsets", [OFFSETS_A, OFFSETS_B])
    def test_real_and_mirror_symmetric(self, offsets):
        cfg = reference_config(offsets)
        for idx in range(1, 16):
            v = cross_term(idx, cfg)
            assert isinstance(v, float)
            assert v == pytest.approx(cross_term(16 - idx, cfg), rel=1e-12)

    def test_blind_index_raises(self):
        cfg = SystemConfig(64, 8, 2, 8, (0, 2))
        with pytest.raises(DegenerateDiagonalError):
            cross_term(2, cfg)


class TestPredictedMse:
    def test_hand_value(self):
        # one antenna each side, Q = P = 2, index 1, gamma 1:
        # (2*(2+2) + 2) / (8 pi^2 * 2 * 1 * 1 * 1) = 10 / (16 pi^2)
        cfg = SystemConfig(4, 2, 1, 1, (0,))
        assert predicted_mse(1.0, 1, cfg) == pytest.approx(10 / (16 * np.pi ** 2),
                                                           rel=1e-12)

    def test_high_snr_scaling(self, ref_cfg_b):
        # once the 1/gamma term dominates, a 10x SNR step is a 10x MSE step
        lo = predicted_mse(1e4, 7, ref_cfg_b)
        hi = predicted_mse(1e5, 7, ref_cfg_b)
        assert lo / hi == pytest.approx(10.0, rel=1e-3)

    def test_decreasing_in_gamma(self, ref_cfg_b):
        gammas = 10 ** np.linspace(-0.5, 3, 20)
        for idx in (5, 7, 9):
            vals = [predicted_mse(g, idx, ref_cfg_b) for g in gammas]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("offsets", [OFFSETS_A, OFFSETS_B])
    def test_mirror_symmetry_exact(self, offsets):
        # the estimator output is identical for mirrored indices, so the
        # prediction must be too
        cfg = reference_config(offsets)
        for idx in range(1, 16):
            assert predicted_mse(7.5, idx, cfg) == pytest.approx(
                predicted_mse(7.5, 16 - idx, cfg), rel=1e-12)

    @pytest.mark.parametrize("gamma", [0.0, float("nan")])
    def test_bad_gamma(self, ref_cfg_b, gamma):
        with pytest.raises(ValueError):
            predicted_mse(gamma, 7, ref_cfg_b)


class TestBiasFloor:
    def test_zero_for_single_antenna(self, toy_profile):
        cfg = SystemConfig(64, 8, 1, 8, (3,))
        for idx in range(1, 8):
            assert bias_floor(idx, cfg, toy_profile) == 0.0

    def test_first_order_vanishes_for_two_antennas(self, toy_cfg, toy_profile):
        # the toy profile's tap at 7 lies beyond the stride 4 and leaks, yet
        # the two antennas' first-order contributions cancel in the ratio
        for idx in (1, 2, 3, 5, 6, 7):
            assert bias_floor(idx, toy_cfg, toy_profile) == pytest.approx(0.0, abs=1e-25)

    def test_zero_where_noiseless_error_vanishes(self, ref_cfg_a, ref_profile):
        # offsets {3,5,11} at index 8: all comb phasors are -1, and the
        # leakage cancels between the mirrored sums exactly
        assert bias_floor(8, ref_cfg_a, ref_profile) == pytest.approx(0.0, abs=1e-30)
        ts = build_training(ref_cfg_a, "cbts")
        for t in range(20):
            gen = RandomSource(77, (2 + 2 * t,)).generator()
            ch = draw_channel(ref_profile, ref_cfg_a, gen)
            cfo = gen.uniform(-8, 8)
            sf = stack(transmit_receive(ts, ref_profile, ch, cfo, ref_cfg_a), ref_cfg_a)
            v = estimate_simplified(sf, 8, ref_cfg_a).value
            assert ((v - cfo + 8) % 16 - 8) ** 2 < 1e-20

    @pytest.mark.parametrize("offsets", [OFFSETS_A, OFFSETS_B])
    def test_mirror_symmetry(self, offsets, ref_profile):
        cfg = reference_config(offsets)
        for idx in range(1, 8):
            assert bias_floor(idx, cfg, ref_profile) == pytest.approx(
                bias_floor(16 - idx, cfg, ref_profile), rel=1e-9, abs=1e-30)

    @pytest.mark.parametrize("idx", [5, 7])
    def test_matches_noiseless_monte_carlo(self, idx, ref_cfg_b, ref_profile,
                                           noiseless_sq_errors):
        # The term holds the comb-weighted diagonal sum S_R at its mean; the
        # leading neglected correction is of relative order E|S_R/E S_R - 1|^2,
        # which the antennas' independent fading powers (each a sum of
        # n_rx * len(taps) exponentials) fix as n_tx * sum p^2 / (n_rx |S|^2).
        # Allow that plus three Monte Carlo standard errors.
        errs = noiseless_sq_errors[idx]
        mc = float(np.mean(errs))
        se = float(np.std(errs)) / np.sqrt(errs.size)
        p = ref_profile.powers_linear
        spread = (ref_cfg_b.n_tx * float(np.sum(p ** 2))
                  / (ref_cfg_b.n_rx * abs(ref_cfg_b.comb_phase_sums[idx]) ** 2))
        floor = bias_floor(idx, ref_cfg_b, ref_profile)
        assert abs(floor - mc) <= spread * mc + 3.0 * se, (
            f"index {idx}: floor {floor:.3e} vs Monte Carlo {mc:.3e}")

    def test_blind_index_refused(self):
        blind = SystemConfig(64, 8, 2, 8, (0, 2))
        with pytest.raises(DegenerateDiagonalError):
            bias_floor(2, blind, ChannelProfile(delays=(0,), powers_db=(0.0,)))


class TestCombSumCanVanish:
    @pytest.mark.parametrize("offsets,expected", [
        (OFFSETS_A, (4, 12)),
        (OFFSETS_B, (1, 8, 15)),
    ])
    def test_reference_heavy_tail_indices(self, offsets, expected):
        cfg = reference_config(offsets)
        got = tuple(i for i in range(1, 16) if comb_sum_can_vanish(i, cfg))
        assert got == expected

    def test_gap_rule(self):
        # Q = 8 positions: a gap of exactly half the circle counts only when
        # the phasors are two antipodal points
        def flagged(offsets, idx=1):
            cfg = SystemConfig(64, 8, 1, 8, offsets)
            return comb_sum_can_vanish(idx, cfg)
        assert not flagged((3,))
        assert flagged((0, 3, 5))          # gaps 3, 2, 3: 0 inside the hull
        assert not flagged((0, 1, 5))      # gap 4, the third point to one side
        assert flagged((0, 2, 4), idx=2)   # positions 0, 4, 0: antipodal pair
        assert not flagged((0, 1, 2))      # all in an open half-circle

    def test_flags_every_blind_index(self):
        # a comb phase sum of exactly zero puts 0 inside the phasors' hull, so
        # every index `_check_index` refuses is flagged, and a campaign never
        # asks `bias_floor` for one: every valid offset set at Q <= 12
        from itertools import combinations

        blind = 0
        for q in range(2, 13, 2):
            for n_tx in range(1, q):
                for offsets in combinations(range(q), n_tx):
                    try:
                        cfg = SystemConfig(2 * q, 2, 1, 1, offsets)
                    except ConfigError:  # a cyclic shift maps the set onto itself
                        continue
                    for idx in range(1, q):
                        try:
                            _check_index(idx, cfg)
                        except DegenerateDiagonalError:
                            blind += 1
                            assert comb_sum_can_vanish(idx, cfg), (offsets, idx)
        assert blind > 0

    def test_floor_falls_short_where_flagged(self, ref_cfg_b, ref_profile):
        # index 8 of {3,7,14}: phasors -1, -1, +1.  Noiseless frames there
        # carry an error far above the first-order floor (9.1e-4 against
        # 2.7e-5 over 1500 channels), which is why the campaign leaves the
        # analytic column empty
        assert comb_sum_can_vanish(8, ref_cfg_b)
        assert not comb_sum_can_vanish(7, ref_cfg_b)
        ts = build_training(ref_cfg_b, "cbts")
        sq = []
        for t in range(200):
            gen = RandomSource(77, (2 + 2 * t,)).generator()
            ch = draw_channel(ref_profile, ref_cfg_b, gen)
            cfo = gen.uniform(-8, 8)
            sf = stack(transmit_receive(ts, ref_profile, ch, cfo, ref_cfg_b), ref_cfg_b)
            v = estimate_simplified(sf, 8, ref_cfg_b).value
            sq.append(((v - cfo + 8) % 16 - 8) ** 2)
        assert float(np.mean(sq)) > 3.0 * bias_floor(8, ref_cfg_b, ref_profile)


class TestOptimalIndices:
    @pytest.mark.parametrize("snr_db", [10.0, 12.5, 15.0, 17.5, 20.0])
    def test_reference_plateaus(self, snr_db):
        gamma = 10 ** (snr_db / 10) / 3
        assert optimal_diag_indices(gamma, reference_config(OFFSETS_A)) == (6, 8, 10)
        assert optimal_diag_indices(gamma, reference_config(OFFSETS_B)) == (7, 9)

    def test_strict_minimisers(self):
        gamma = 10 ** 1.5 / 3
        # offsets B: the mirror pair is an exact tie
        assert strict_minimisers(gamma, reference_config(OFFSETS_B)) == (7, 9)
        # offsets A: index 8 wins strictly; 6 and 10 are ~12% above
        assert strict_minimisers(gamma, reference_config(OFFSETS_A)) == (8,)

    def test_single_antenna_minimiser(self):
        # the cross term grows with the index, pushing the strict optimum
        # below Q/2: for Q=16 the tied pair is {6, 10}, not {8}
        cfg = SystemConfig(256, 16, 1, 16, (0,))
        assert strict_minimisers(10.0, cfg) == (6, 10)
        assert predicted_mse(10.0, 6, cfg) < predicted_mse(10.0, 8, cfg)

    def test_blind_indices_excluded(self):
        cfg = SystemConfig(64, 8, 2, 8, (0, 2))
        got = optimal_diag_indices(10.0, cfg)
        assert 2 not in got and 6 not in got

    @pytest.mark.parametrize("snr_db", [5.0, 10.0, 15.0, 20.0, 25.0])
    def test_optimal_never_beaten(self, snr_db, ref_cfg_a):
        gamma = 10 ** (snr_db / 10) / ref_cfg_a.n_tx
        best = strict_minimisers(gamma, ref_cfg_a)[0]
        floor = predicted_mse(gamma, best, ref_cfg_a)
        for idx in range(1, ref_cfg_a.n_periods):
            assert predicted_mse(gamma, idx, ref_cfg_a) >= floor

    def test_all_blind_raises(self):
        # offsets (0, 4) on Q=8 blind every odd index, and a shift by 4 maps
        # them onto themselves, so every score repeats with period 4 in the
        # offset: the config is refused before any index is searched
        with pytest.raises(ConfigError, match="cyclic shift"):
            SystemConfig(64, 8, 2, 8, (0, 4))


class TestEmcb:
    def test_projector_properties_toy(self, toy_cfg):
        ts = build_training(toy_cfg, "cbts")
        s = model_matrix(ts, toy_cfg)
        full = kron_model_matrix(s, toy_cfg.n_rx)
        pi = projection_complement(full)
        assert np.max(np.abs(pi @ pi - pi)) < 1e-9
        assert np.max(np.abs(pi @ full)) < 1e-9

    def test_block_projector_equals_full(self, toy_cfg, toy_profile):
        # the per-antenna-block shortcut must agree with the full stacked
        # system on the bound's quadratic form
        ts = build_training(toy_cfg, "cbts")
        s = model_matrix(ts, toy_cfg)
        ramp = np.arange(toy_cfg.n_subcarriers, dtype=float)
        core = (s.conj().T * ramp) @ projection_complement(s) @ (ramp[:, None] * s)
        full = kron_model_matrix(s, toy_cfg.n_rx)
        ramp_full = np.tile(ramp, toy_cfg.n_rx)
        core_full = (full.conj().T * ramp_full) @ projection_complement(full) \
            @ (ramp_full[:, None] * full)
        ch = full_taps(toy_profile, draw_channel(toy_profile, toy_cfg,
                                                 RandomSource(3, (9,)).generator()), toy_cfg)
        h_full = ch.reshape(-1)
        quad_full = float(np.real(h_full.conj() @ core_full @ h_full))
        quad_block = sum(float(np.real(h.conj() @ core @ h))
                         for h in ch.reshape(toy_cfg.n_rx, -1))
        assert quad_block == pytest.approx(quad_full, rel=1e-9)

    def test_noise_scaling_exact(self, toy_cfg, toy_profile):
        res = emcb(toy_cfg, toy_profile, (0.0, 10.0, 20.0))
        assert res[0] / res[1] == pytest.approx(10.0, rel=1e-12)
        assert res[1] / res[2] == pytest.approx(10.0, rel=1e-12)

    def test_reference_regression_anchor(self, ref_cfg_b, ref_profile):
        # the exact bound draws nothing, so the anchor holds for any seed
        res = emcb(ref_cfg_b, ref_profile, (10.0, 15.0, 20.0))
        anchors = (8.119489780251081e-06,
                   2.567608114405346e-06,
                   8.119489780251082e-07)
        assert len(res) == len(anchors)
        for got, want in zip(res, anchors):
            assert got == pytest.approx(want, rel=1e-10)

    def test_core_matches_model_matrix(self, toy_cfg, toy_profile, ref_cfg_b, ref_profile):
        # the core from the pilot combs, with Pi in closed form, against the
        # N-row model matrix and its SVD projector; `short` has
        # chan_len < pilot_len, so Pi is not the identity there.  The projector
        # removes the model's columns, so the time index's origin (0 or N/2,
        # as a prefix would move it) leaves the core as it is
        short = SystemConfig(64, 16, 2, 8, (0, 1))
        rank = np.linalg.matrix_rank(model_matrix(build_training(short, "cbts"), short))
        assert rank < short.n_tx * short.pilot_len
        for cfg, profile in ((toy_cfg, toy_profile), (ref_cfg_b, ref_profile),
                             (short, ChannelProfile((0, 3, 7), (0.0, -3.0, -6.0)))):
            got = _bound_core(cfg, profile, build_training(cfg, "cbts"))
            for origin in (0, cfg.n_subcarriers // 2):
                want = bound_core_full(cfg, profile, origin)
                assert np.max(np.abs(got - want)) < 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("case", ["reference", "short", "one-rx-two-taps", "two-tx"])
    def test_exact_matches_monte_carlo(self, case, ref_cfg_b, ref_profile, toy_cfg,
                                       toy_profile):
        # 10^5 Rayleigh draws from one generator; the exact bound must lie
        # within 4 standard errors of their mean at every SNR point
        cfg, profile = {
            "reference": (ref_cfg_b, ref_profile),
            "short": (SystemConfig(64, 16, 2, 8, (0, 1)),
                      ChannelProfile((0, 3, 7), (0.0, -3.0, -6.0))),
            "one-rx-two-taps": (SystemConfig(64, 8, 1, 8, (1, 6)),
                                ChannelProfile((0, 5), (0.0, -3.0))),
            "two-tx": (toy_cfg, toy_profile),
        }[case]
        snr_db = (0.0, 20.0)
        mc, se = emcb_monte_carlo(cfg, profile, snr_db, 100_000, np.random.default_rng(5))
        assert np.all(np.abs(np.array(emcb(cfg, profile, snr_db)) - mc) < 4.0 * se)

    def test_quadrature_converged(self):
        # the trapezoid rule in log s against two closed forms, E[1/X] =
        # 1/(lambda (n_rx - 1)) for one eigenvalue and log(a/b) / (a - b) for
        # two with n_rx = 1
        assert mean_inverse([4.0], 3) == pytest.approx(1.0 / 8.0, rel=1e-12)
        assert mean_inverse([3.0, 1e-3], 1) == pytest.approx(
            np.log(3e3) / (3.0 - 1e-3), rel=1e-12)

    def test_working_set(self, ref_cfg_b, ref_profile):
        # the core's per-comb FFT blocks, (n_tx, n_tx, P, D) each: about
        # 0.55 MB at its peak, against 3.4 MB for 500 drawn channels and the
        # SVD of the comb responses
        emcb(ref_cfg_b, ref_profile, (10.0,))
        tracemalloc.start()
        try:
            emcb(ref_cfg_b, ref_profile, (10.0,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_divergent_bound_rejected(self):
        # one receive antenna and one tap on one transmit antenna: X is
        # exponential, E[1/X] is infinite, and no finite bound is reported
        cfg = SystemConfig(64, 16, 1, 8, (0,))
        with pytest.raises(ConfigError, match="diverges"):
            emcb(cfg, ChannelProfile((0,), (0.0,)), (10.0,))
        with pytest.raises(ConfigError, match="diverges"):
            mean_inverse([0.0, 0.0], 4)
        # two receive antennas make the same channel's mean finite
        assert np.isfinite(emcb(replace(cfg, n_rx=2), ChannelProfile((0,), (0.0,)), (10.0,))[0])

    def test_monotone_in_snr(self, toy_cfg, toy_profile):
        res = emcb(toy_cfg, toy_profile, (0.0, 5.0, 10.0, 15.0))
        assert all(a > b for a, b in zip(res, res[1:]))


def test_projection_complement_rejects_zero():
    with pytest.raises(ConfigError):
        projection_complement(np.zeros((4, 2)))
