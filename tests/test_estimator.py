import hashlib
from pathlib import Path

import numpy as np
import pytest

from cfolab import (ChannelProfile, DegenerateDiagonalError, RandomSource, SystemConfig, build_training, draw_channel,
                    estimate_ml_grid, estimate_simplified,
                    likelihood, reference_config, reference_profile, stack,
                    transmit_receive)
from cfolab.estimator import (COARSE_STEP, FINE_STEP, SERIAL_BLAS_ELEMENTS,
                              _phases, _row_blocks, candidate_grid,
                              diag_ratio, integer_offsets, ml_tables)
from cfolab.harness import ExperimentSpec, _stacked_frames, _trainings_for
from support import (add_noise, curvature_factor, derivative_factor_residual, edge_offsets,
                     likelihood_exp_rotation, likelihood_trace, ml_grid_fresh,
                     period_matrix, sample_corr, simplified_fresh, stack_vdot,
                     upper_diagonal_sums)


def make_frame(cfg, profile, cfo, snr_db=None, seed=5, trial=0):
    """Noisy or noiseless frame with the SNR calibrated per realization."""
    ts = build_training(cfg, "cbts")
    gen = RandomSource(seed, (2 + 2 * trial,)).generator()
    ch = draw_channel(profile, cfg, gen)
    clean = transmit_receive(ts, profile, ch, cfo, cfg)
    if snr_db is None:
        return clean, ch, ts
    nv = float(np.mean(np.abs(clean) ** 2)) / 10.0 ** (snr_db / 10.0)
    gen = RandomSource(seed, (3 + 2 * trial,)).generator()
    noisy = add_noise(clean, nv, gen)
    return noisy, ch, ts


# one unit tap at delay 0 on every antenna pair: each frame is its time sequence
UNIT_PROFILE = ChannelProfile(delays=(0,), powers_db=(0.0,))


def unit_taps(cfg):
    return np.ones((cfg.n_rx, cfg.n_tx, 1), complex)


class TestStack:
    def test_index_arithmetic(self):
        cfg = SystemConfig(4, 2, 1, 1, (0,))
        frame = np.array([[1 + 0j, 2, 3, 4]])
        c = stack(frame, cfg)
        assert np.array_equal(period_matrix(frame, cfg), [[1, 2], [3, 4]])
        corr = sample_corr(frame, cfg)
        assert corr[0, 1] == pytest.approx(1 * np.conj(3) + 2 * np.conj(4))
        assert c[0] == pytest.approx(np.trace(corr))
        assert c[1] == pytest.approx(corr[0, 1])

    def test_corr_hermitian_and_trace_real(self, toy_cfg, toy_profile):
        frame, _, _ = make_frame(toy_cfg, toy_profile, 1.3, snr_db=10.0)
        c = stack(frame, toy_cfg)
        corr = sample_corr(frame, toy_cfg)
        assert np.max(np.abs(corr - corr.conj().T)) == 0.0
        assert c[0].imag == 0.0
        assert c[0].real >= 0.0

    def test_lag_sums_match_correlation_diagonals(self, rng, toy_cfg, ref_cfg_b,
                                                  ref_profile, campaign_frames):
        # stack never forms the sample correlation; its trace-form diagonal
        # sums are the oracle, relative to the zero lag, which bounds them all
        cases = [(rng.standard_normal((2, 64)) + 1j * rng.standard_normal((2, 64)),
                  toy_cfg)
                 for _ in range(20)]
        cases.append((make_frame(ref_cfg_b, ref_profile, 2.3, snr_db=15.0)[0], ref_cfg_b))
        for frame, cfg in cases:
            oracle = upper_diagonal_sums(sample_corr(frame, cfg))
            assert np.max(np.abs(stack(frame, cfg) - oracle)) <= 1e-12 * abs(oracle[0])
        # the scale of `diag_ratio`'s threshold: no lag sum exceeds the energy c_0
        for c in campaign_frames:
            assert np.all(np.abs(c) <= c[0].real)

    @pytest.mark.parametrize("kind", ["cbts", "rs"])
    @pytest.mark.parametrize("which", ["toy", "reference"])
    def test_lag_kernel_matches_vdot_oracle(self, which, kind, toy_cfg, toy_profile,
                                            ref_cfg_b, ref_profile):
        # the Gram product's lag sums against one vdot per lag, on noiseless
        # and noisy frames, relative to the energy c_0
        cfg, profile = ((toy_cfg, toy_profile) if which == "toy"
                        else (ref_cfg_b, ref_profile))
        ts = build_training(cfg, kind, RandomSource(3, (0,)) if kind == "rs" else None)
        for seed in range(3):
            ch = draw_channel(profile, cfg, RandomSource(seed, (1,)).generator())
            for cfo in edge_offsets(cfg):
                clean = transmit_receive(ts, profile, ch, cfo, cfg)
                for var in (0.0, 0.1, 1.0):
                    gen = RandomSource(seed, (2, 0, 0)).generator()
                    frame = add_noise(clean, var, gen)
                    want = stack_vdot(frame, cfg)
                    got = stack(frame, cfg)
                    assert got[0].imag == 0.0
                    assert np.max(np.abs(got - want)) <= 1e-15 * want[0].real

    def test_shape_mismatch_rejected(self, toy_cfg):
        with pytest.raises(ValueError):
            stack(np.zeros((1, 8), complex), toy_cfg)

    def test_diagonal_sums_metamorphic(self, rng):
        # upper sums of A^H equal the conjugated lower sums of A; on the
        # Hermitian sample correlation the two coincide, so the ratio never
        # needs below-diagonal information
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        upper_of_h = upper_diagonal_sums(a.conj().T)
        lower = np.array([np.trace(a, offset=-q) for q in range(6)])
        assert np.allclose(upper_of_h, np.conj(lower), atol=1e-12)
        y = rng.standard_normal((6, 12)) + 1j * rng.standard_normal((6, 12))
        r = y @ y.conj().T
        assert np.allclose(upper_diagonal_sums(r.conj().T),
                           upper_diagonal_sums(r), atol=1e-12)


class TestDiagRatio:
    def test_arithmetic_example(self):
        c = np.zeros(4, complex)
        c[1] = 1 + 1j
        c[3] = 2.0
        assert diag_ratio(c, 1) == pytest.approx((1 - 1j) / 6)

    def test_degenerate_mirror_raises(self):
        c = np.array([4.0, 1.0, 0.0, 1e-15], complex)
        with pytest.raises(DegenerateDiagonalError):
            diag_ratio(c, 1)   # mirror sum c[3] is numerically zero
        # the threshold is 1e-12 of the frame energy c_0, inclusive
        c[3] = 1e-12 * c[0].real
        with pytest.raises(DegenerateDiagonalError):
            diag_ratio(c, 1)
        c[3] = 1.01e-12 * c[0].real
        assert diag_ratio(c, 1) == pytest.approx(1 / (3 * c[3]))

    def test_index_validation(self):
        c = np.ones(4, complex)
        for bad in (0, 4, -1):
            with pytest.raises(ValueError):
                diag_ratio(c, bad)

    def test_mirror_index_same_phase(self, toy_cfg, toy_profile):
        # the ratio for index i and Q-i is built from the same two sums, so
        # the candidate phase (hence the estimate) is identical
        frame, _, _ = make_frame(toy_cfg, toy_profile, 0.9, snr_db=12.0)
        sf = stack(frame, toy_cfg)
        r3, r5 = diag_ratio(sf, 3), diag_ratio(sf, 5)
        assert np.angle(r3) == pytest.approx(np.angle(r5), abs=1e-12)

    @pytest.mark.parametrize("cfo", [0.0, 0.5])
    def test_noiseless_phase_recovers_offset(self, cfo):
        cfg = reference_config()
        ts = build_training(cfg, "cbts")
        frame = transmit_receive(ts, UNIT_PROFILE, unit_taps(cfg), cfo, cfg)
        sf = stack(frame, cfg)
        frac = (np.angle(diag_ratio(sf, 7)) / (2 * np.pi)) % 1.0
        delta = min(abs(frac - cfo % 1.0), 1.0 - abs(frac - cfo % 1.0))
        assert delta < 1e-3


class TestCandidateGrid:
    def test_half_integer_tiling(self):
        cand = candidate_grid(np.exp(1j * np.pi), 16)
        assert np.allclose(cand, np.arange(16) - 7.5)

    def test_integer_tiling(self):
        cand = candidate_grid(1.0 + 0j, 4)
        assert np.allclose(cand, [-2, -1, 0, 1])

    def test_spacing_and_range(self, rng):
        for _ in range(20):
            ratio = rng.standard_normal() + 1j * rng.standard_normal()
            cand = candidate_grid(ratio, 8)
            assert np.allclose(np.diff(cand), 1.0)
            assert cand[0] >= -4.0 and cand[-1] < 4.0

    def test_zero_ratio_raises(self):
        with pytest.raises(DegenerateDiagonalError):
            candidate_grid(0j, 8)


class TestLikelihood:
    def test_score_is_real_part_of_conjugate_pair(self, toy_cfg, rng):
        # the two-sided sum is manifestly real: check the complex imbalance
        # of its one-sided half against the returned value
        y = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        c = upper_diagonal_sums(y @ y.conj().T)
        q = np.arange(8)
        bsum = toy_cfg.comb_phase_sums
        for eps in (-1.7, 0.0, 2.2):
            z = np.exp(2j * np.pi * eps / 8)
            one_sided = np.sum(c * bsum * z ** q)
            two_sided = one_sided + np.conj(one_sided)
            assert abs(two_sided.imag) < 1e-10 * abs(two_sided.real + 1e-30)
            assert likelihood(c, np.array([eps]), toy_cfg)[0] == pytest.approx(two_sided.real)

    def test_trace_form_same_argmax(self, toy_cfg, rng):
        grid = np.arange(-4, 4, 0.01)
        for _ in range(100):
            y = rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32))
            r = y @ y.conj().T
            c = upper_diagonal_sums(r)
            fast = likelihood(c, grid, toy_cfg)
            trace = np.array([likelihood_trace(r, e, toy_cfg) for e in grid])
            assert np.argmax(fast) == np.argmax(trace)
            # the two-sided score counts the zero diagonal twice: it exceeds
            # the trace form by exactly n_tx * c_0
            diff = fast - trace
            assert np.std(diff) < 1e-9 * np.abs(diff).mean()
            assert diff.mean() == pytest.approx(toy_cfg.n_tx * c[0].real,
                                                rel=1e-9)

    def test_noiseless_grid_peak_at_true_offset(self, ref_cfg_b, ref_profile):
        frame, _, _ = make_frame(ref_cfg_b, ref_profile, 2.3)
        sf = stack(frame, ref_cfg_b)
        grid = np.arange(-8, 8, 0.01)
        peak = grid[int(np.argmax(likelihood(sf, grid, ref_cfg_b)))]
        assert abs(peak - 2.3) <= 0.01


class TestSimplifiedEstimator:
    @pytest.mark.parametrize("cfo", [-7.5, -2.3, 0.0, 0.5, 7.0])
    def test_noiseless_recovery(self, ref_cfg_b, ref_profile, cfo):
        frame, _, _ = make_frame(ref_cfg_b, ref_profile, cfo)
        sf = stack(frame, ref_cfg_b)
        est = estimate_simplified(sf, 7, ref_cfg_b)
        assert abs(est.value - cfo) < 1e-2
        assert est.value in est.candidates

    def test_candidate_containment(self, toy_cfg, toy_profile):
        for trial in range(20):
            frame, _, _ = make_frame(toy_cfg, toy_profile, -2.7, snr_db=5.0,
                                     trial=trial)
            est = estimate_simplified(stack(frame, toy_cfg),
                                      3, toy_cfg)
            assert -4.0 <= est.value < 4.0

    @pytest.mark.parametrize("delta", [1.0, -3.0])
    def test_shift_equivariance(self, ref_cfg_b, ref_profile, delta):
        frame, _, _ = make_frame(ref_cfg_b, ref_profile, 1.4)
        n = ref_cfg_b.n_subcarriers
        shifted = frame * np.exp(2j * np.pi * delta * np.arange(n) / n)
        base = estimate_simplified(stack(frame, ref_cfg_b),
                                   7, ref_cfg_b).value
        moved = estimate_simplified(stack(shifted, ref_cfg_b),
                                    7, ref_cfg_b).value
        assert moved - base == pytest.approx(delta, abs=1e-2)

    def test_mirror_indices_identical_output(self, ref_cfg_b, ref_profile):
        # mirrored indices build their candidates from the same two diagonal
        # sums, so the estimates coincide (to the ulp of the phase extraction)
        frame, _, _ = make_frame(ref_cfg_b, ref_profile, 3.1, snr_db=10.0)
        sf = stack(frame, ref_cfg_b)
        e7 = estimate_simplified(sf, 7, ref_cfg_b).value
        e9 = estimate_simplified(sf, 9, ref_cfg_b).value
        assert e7 == pytest.approx(e9, abs=1e-12)

    def test_tie_break_matches_key_min(self, toy_cfg, toy_profile, monkeypatch):
        # scores from {0, 1, 2} and candidates from {-2, -1, 1, 2} force ties
        # on the score, then on |cfo| between mirrored candidates, so the
        # pick is decided by each key of (-score, |cfo|, index) in turn
        from cfolab import estimator

        frame, _, _ = make_frame(toy_cfg, toy_profile, 0.4)
        sf = stack(frame, toy_cfg)
        gen = np.random.default_rng(17)
        q = toy_cfg.n_periods
        for _ in range(300):
            cand = gen.choice([-2.0, -1.0, 1.0, 2.0], q)
            scores = gen.integers(0, 3, q).astype(float)
            monkeypatch.setattr(estimator, "candidate_grid", lambda ratio, n: cand)
            monkeypatch.setattr(estimator, "likelihood", lambda sf, c, cfg, **kw: scores)
            best = min(range(q), key=lambda i: (-scores[i], abs(cand[i]), i))
            assert estimate_simplified(sf, 3, toy_cfg).value == cand[best]

    def test_untied_pick_matches_key_min(self, toy_cfg, toy_profile, monkeypatch):
        # distinct scores: the argmax alone decides, with no fallback sort
        from cfolab import estimator

        frame, _, _ = make_frame(toy_cfg, toy_profile, 0.4)
        sf = stack(frame, toy_cfg)
        gen = np.random.default_rng(18)
        q = toy_cfg.n_periods
        for _ in range(300):
            cand = gen.choice([-2.0, -1.0, 1.0, 2.0], q)
            scores = gen.standard_normal(q)
            assert len(set(scores)) == q
            monkeypatch.setattr(estimator, "candidate_grid", lambda ratio, n: cand)
            monkeypatch.setattr(estimator, "likelihood", lambda sf, c, cfg, **kw: scores)
            best = min(range(q), key=lambda i: (-scores[i], abs(cand[i]), i))
            assert estimate_simplified(sf, 3, toy_cfg).value == cand[best]


class TestMlGrid:
    def test_noiseless_recovery(self, ref_cfg_b, ref_profile):
        frame, _, _ = make_frame(ref_cfg_b, ref_profile, -5.7)
        est = estimate_ml_grid(stack(frame, ref_cfg_b), ref_cfg_b)
        assert abs(est.value + 5.7) <= 1e-4

    def test_agreement_with_simplified(self, ref_cfg_b, ref_profile):
        # both estimators sit within their own error scale of the truth at
        # 20 dB; their mutual gap is bounded by the combined error, around
        # 2e-3 worst-case over 100 paired trials
        worst = 0.0
        for trial in range(100):
            gen = RandomSource(23, (2 + 2 * trial,)).generator()
            cfo = gen.uniform(-7.9, 7.9)
            frame, _, _ = make_frame(ref_cfg_b, ref_profile, cfo,
                                     snr_db=20.0, seed=23, trial=trial)
            sf = stack(frame, ref_cfg_b)
            s = estimate_simplified(sf, 7, ref_cfg_b).value
            m = estimate_ml_grid(sf, ref_cfg_b).value
            worst = max(worst, abs(s - m))
        assert worst < 5e-3


@pytest.fixture(scope="module")
def campaign_frames(ref_cfg_b, ref_profile):
    """Stacked frames of both training kinds at 0, 10 and 25 dB (30 trials)."""
    spec = ExperimentSpec(config=ref_cfg_b, profile=ref_profile,
                          estimators=("simplified:7", "simplified_rs:7"),
                          snr_points_db=(0.0, 10.0, 25.0), trials=30, seed=9)
    frames = {(trials.start + row, s_idx): {kind: c[row] for kind, c in sums.items()}
              for s_idx, trials, _, sums in _stacked_frames(spec, _trainings_for(spec))
              for row in range(trials.stop - trials.start)}
    # in (trial, SNR point, kind) order
    return [frames[key][kind] for key in sorted(frames) for kind in ("cbts", "rs")]


class TestMlTables:
    """The ML baseline on its cached tables returns the points of a grid
    search that computes every phase afresh."""

    def test_origin_shift_matches_fresh_scores(self, campaign_frames, ref_cfg_b):
        steps = np.arange(1001) * FINE_STEP
        for sf, origin in zip(campaign_frames[:6], (-7.95, -3.3, 0.0, 0.05, 2.7, 7.9)):
            fresh = likelihood(sf, origin + steps, ref_cfg_b)
            shifted = likelihood(sf, steps, ref_cfg_b, origin=origin,
                                 phases=_phases(steps, ref_cfg_b.n_periods))
            assert np.allclose(shifted, fresh, rtol=0, atol=1e-9 * np.max(np.abs(fresh)))
            assert likelihood(sf, np.array([0.0]), ref_cfg_b, origin=origin)[0] == pytest.approx(
                likelihood(sf, np.array([origin]), ref_cfg_b)[0], rel=1e-12)

    def test_same_points_as_fresh_search(self, campaign_frames, ref_cfg_b):
        tables = ml_tables(ref_cfg_b)
        own = [estimate_ml_grid(sf, ref_cfg_b).value for sf in campaign_frames]
        shared = [estimate_ml_grid(sf, ref_cfg_b, tables).value for sf in campaign_frames]
        assert own == shared == [ml_grid_fresh(sf, ref_cfg_b) for sf in campaign_frames]
        assert not any(table.flags.writeable for table in tables)

    @pytest.mark.parametrize("cfo", [7.9875, -7.9875, 7.96, -7.99])
    def test_offsets_near_the_wrap(self, cfo, ref_cfg_b, ref_profile):
        # the score is Q-periodic: a truth within a coarse step of +-Q/2 is
        # found across the wrap, and the pick lies in [-Q/2, Q/2)
        frame, _, _ = make_frame(ref_cfg_b, ref_profile, cfo)
        sf = stack(frame, ref_cfg_b)
        q = ref_cfg_b.n_periods
        value = estimate_ml_grid(sf, ref_cfg_b).value
        assert value == ml_grid_fresh(sf, ref_cfg_b)
        assert -q / 2 <= value < q / 2
        gap = abs(value - cfo) % q
        assert min(gap, q - gap) < 1e-3


class TestOffsetTable:
    """The simplified estimator on its cached integer-offset table returns the
    pick and candidates of a fresh Q x Q scoring, with scores equal to
    rounding."""

    @staticmethod
    def assert_matches_fresh(sf, cfg):
        for index in range(1, cfg.n_periods):
            try:
                fresh = simplified_fresh(sf, index, cfg)
            except DegenerateDiagonalError:
                with pytest.raises(DegenerateDiagonalError):
                    estimate_simplified(sf, index, cfg)
                continue
            est = estimate_simplified(sf, index, cfg)
            assert est.value == fresh.value
            assert est.diag_ratio == fresh.diag_ratio
            assert np.array_equal(est.candidates, fresh.candidates)
            peak = np.max(np.abs(fresh.scores))
            assert np.max(np.abs(est.scores - fresh.scores)) <= 1e-12 * peak

    def test_campaign_frames_match_fresh_scoring(self, campaign_frames, ref_cfg_b):
        for sf in campaign_frames:
            self.assert_matches_fresh(sf, ref_cfg_b)

    @pytest.mark.parametrize("which", ["toy", "ref_a", "ref_b"])
    def test_configs_match_fresh_scoring(self, which, toy_cfg, toy_profile, ref_cfg_a,
                                         ref_cfg_b, ref_profile):
        cfg, profile = {"toy": (toy_cfg, toy_profile), "ref_a": (ref_cfg_a, ref_profile),
                        "ref_b": (ref_cfg_b, ref_profile)}[which]
        half = cfg.cfo_half_range
        for trial, snr_db in enumerate((None, 0.0, 10.0, 25.0) * 3):
            cfo = -half + (trial + 0.37) * 2 * half / 12
            frame, _, _ = make_frame(cfg, profile, cfo, snr_db=snr_db, seed=31, trial=trial)
            self.assert_matches_fresh(stack(frame, cfg), cfg)

    def test_table_is_cached_and_read_only(self, ref_cfg_b):
        offsets, phases = integer_offsets(ref_cfg_b.n_periods)
        assert integer_offsets(ref_cfg_b.n_periods)[1] is phases
        assert np.array_equal(offsets, np.arange(16) - 8.0)
        assert not offsets.flags.writeable and not phases.flags.writeable
        with pytest.raises(ValueError):
            phases[0, 0] = 0.0


# sha256 over the bits of every estimate on the pinned lag sums and on two of
# them with a degenerate index (`estimator_bits`).  The golden CSVs pin only
# the values; a change that moves any score, candidate, ratio or value updates
# this digest and says so.
ESTIMATOR_BITS_SHA256 = (
    "f0a22fe5abb39f574e7ebd6ae01d81bec6a1f0eae8ab225717ad8155e8ec861d")


@pytest.fixture(scope="module")
def pinned_lag_sums():
    """The (180, 16) lag sums of `campaign_frames`, in its order, as a campaign
    drew them with fresh noise per SNR point, frozen in a file: the bit pin's
    inputs pass through no BLAS kernel and no randomness layout."""
    return list(np.load(Path(__file__).with_name("bit_pin_lag_sums.npy")))


def estimator_bits(frames, cfg, digest):
    """Feed `digest` the bytes of estimate_simplified's (value, scores,
    candidates, diag_ratio) at every index 1..Q-1 and of estimate_ml_grid's
    value, frame by frame; return the number of degenerate indices."""
    tables = ml_tables(cfg)
    degenerate = 0
    for sf in frames:
        for index in range(1, cfg.n_periods):
            try:
                est = estimate_simplified(sf, index, cfg)
            except DegenerateDiagonalError:
                digest.update(b"degenerate")
                degenerate += 1
                continue
            digest.update(np.array([est.value, est.diag_ratio]).tobytes())
            digest.update(est.scores.tobytes())
            digest.update(est.candidates.tobytes())
        digest.update(np.float64(estimate_ml_grid(sf, cfg, tables).value).tobytes())
    return degenerate


def test_estimator_bit_pin(pinned_lag_sums, ref_cfg_b):
    digest = hashlib.sha256()
    assert estimator_bits(pinned_lag_sums, ref_cfg_b, digest) == 0
    # a zero lag-9 sum makes index 7 degenerate through its mirror and
    # index 9 through a zero ratio
    cut = []
    for sf in pinned_lag_sums[:2]:
        sums = sf.copy()
        sums[9] = 0.0
        cut.append(sums)
    assert estimator_bits(cut, ref_cfg_b, digest) == 2 * len(cut)
    assert digest.hexdigest() == ESTIMATOR_BITS_SHA256


def int_path_values(frames, indices, cfg):
    """The int call's value per frame and index, NaN where it raises."""
    values = np.full((len(frames), len(indices)), np.nan)
    for t, sf in enumerate(frames):
        for j, i in enumerate(indices):
            try:
                values[t, j] = estimate_simplified(sf, i, cfg).value
            except DegenerateDiagonalError:
                pass
    return values


class TestSimplifiedIndices:
    """(T, Q) lag sums and a sequence of indices give, entry for entry, the
    int call's value on that frame and index, in chunks of any size."""

    @staticmethod
    def assert_chunks_give(frames, indices, cfg, expected):
        for chunk in (1, 7, 64, len(frames)):
            got = np.concatenate([estimate_simplified(frames[t:t + chunk], indices, cfg)
                                  for t in range(0, len(frames), chunk)])
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_index_path_bits_match_int_path(self, campaign_frames, ref_cfg_b):
        frames = np.array(campaign_frames)
        indices = list(range(1, ref_cfg_b.n_periods))
        expected = int_path_values(frames, indices, ref_cfg_b)
        assert not np.isnan(expected).any()
        for order in (indices, indices[::-1], [7], [9, 5, 7]):
            columns = [indices.index(i) for i in order]
            self.assert_chunks_give(frames, order, ref_cfg_b, expected[:, columns])

    def test_index_path_bits_degenerate_frames_nan(self, campaign_frames, ref_cfg_b):
        # frames scaled by 1e-12 to 1e12, each judged by its own c_0: the bit
        # pin's cut in every third frame (index 7 loses its mirror, 9 its
        # ratio), a lag-9 sum just below the mirror threshold in the next and
        # just above it in the third, so chunks mix all three
        scales = 1e6 ** (np.arange(len(campaign_frames)) % 5 - 2)
        frames = np.array(campaign_frames) * scales[:, None]
        frames[::3, 9] = 0.0
        frames[1::3, 9] = 0.5e-12 * frames[1::3, 0]
        frames[2::3, 9] = 2e-12 * frames[2::3, 0]
        indices = list(range(1, ref_cfg_b.n_periods))
        expected = int_path_values(frames, indices, ref_cfg_b)
        cut = np.zeros_like(expected, dtype=bool)
        cut[::3, [6, 8]] = cut[1::3, 6] = True
        assert np.array_equal(np.isnan(expected), cut)
        self.assert_chunks_give(frames, indices, ref_cfg_b, expected)

    def test_index_path_bits_match_int_path_at_q12(self, q12_cfg, toy_profile):
        # at Q = 12 the origin's step exp(j*2*pi*origin/Q) divides by a Q
        # whose reciprocal rounds: the batch path must still carry the int
        # call's bits, degenerate indices included
        half = q12_cfg.cfo_half_range
        frames = np.array([stack(make_frame(q12_cfg, toy_profile, -half + (trial + 0.37) * half / 8,
                                            snr_db=snr_db, seed=47, trial=trial)[0], q12_cfg)
                           for trial, snr_db in enumerate((None, 0.0, 10.0, 25.0) * 4)])
        indices = list(range(1, q12_cfg.n_periods))
        expected = int_path_values(frames, indices, q12_cfg)
        assert not np.isnan(expected).all(axis=0).any()
        self.assert_chunks_give(frames, indices, q12_cfg, expected)

    @pytest.mark.parametrize("indices", [[0, 3], [3, 16], [2.0, 3], [[3]]])
    def test_index_range_checked(self, campaign_frames, ref_cfg_b, indices):
        with pytest.raises(ValueError, match="diag_index"):
            estimate_simplified(np.array(campaign_frames[:2]), indices, ref_cfg_b)

    def test_index_path_needs_frames_of_lag_sums(self, campaign_frames, ref_cfg_b):
        with pytest.raises(ValueError, match=r"\(T, Q\) lag sums"):
            estimate_simplified(campaign_frames[0], [3, 5], ref_cfg_b)

    def test_index_path_bits_tie_break_row_by_row(self, campaign_frames, ref_cfg_b,
                                                  monkeypatch):
        # scores from {0, 1, 2} tie in almost every row; each row must pick
        # what the int call picks on that row's scores
        from cfolab import estimator

        frames = np.array(campaign_frames[:5])
        q = ref_cfg_b.n_periods
        indices = list(range(1, q))
        gen = np.random.default_rng(19)
        for _ in range(20):
            scores = gen.integers(0, 3, (len(frames), len(indices), q)).astype(float)
            monkeypatch.setattr(estimator, "likelihood", lambda sf, c, cfg, **kw: scores)
            got = estimate_simplified(frames, indices, ref_cfg_b)
            for (t, j), value in np.ndenumerate(got):
                monkeypatch.setattr(estimator, "likelihood",
                                    lambda sf, c, cfg, **kw: scores[t, j])
                assert value == estimate_simplified(frames[t], indices[j], ref_cfg_b).value


class TestOriginRotation:
    """`likelihood` rotates the weights by running powers of one exp per
    origin: within Q roundings of one exp per lag, and an array of origins
    scores each row with the bits of its scalar call."""

    @staticmethod
    def frames_and_origins(which, toy_cfg, q12_cfg, toy_profile, ref_cfg_b, ref_profile):
        """Lag sums of noiseless and noisy frames, and origins sweeping
        [-Q/2, Q/2), zero and the first point of every fine ML grid."""
        cfg, profile = {"toy": (toy_cfg, toy_profile), "q12": (q12_cfg, toy_profile),
                        "ref_b": (ref_cfg_b, ref_profile)}[which]
        half = cfg.cfo_half_range
        frames = [stack(make_frame(cfg, profile, -half + (trial + 0.37) * half / 2,
                                   snr_db=snr_db, seed=43, trial=trial)[0], cfg)
                  for trial, snr_db in enumerate((None, 0.0, 10.0, 25.0))]
        origins = np.r_[np.linspace(-half, half, 97, endpoint=False), 0.0,
                        ml_tables(cfg)[0] - COARSE_STEP]
        return cfg, frames, origins

    @pytest.mark.parametrize("which", ["toy", "q12", "ref_b"])
    def test_running_powers_match_per_lag_exp(self, which, toy_cfg, q12_cfg, toy_profile,
                                              ref_cfg_b, ref_profile):
        # each score within Q roundings of the score's scale 2 * sum |c_q B_q|,
        # on the simplified estimator's table and the ML fine-grid table
        cfg, frames, origins = self.frames_and_origins(which, toy_cfg, q12_cfg, toy_profile,
                                                       ref_cfg_b, ref_profile)
        q = cfg.n_periods
        assert (origins < 0).sum() > len(origins) // 3
        assert origins.min() >= -q / 2 - COARSE_STEP and origins.max() < q / 2
        offsets, phases = integer_offsets(q)
        steps, step_phases = ml_tables(cfg)[2:]
        for sf in frames:
            bound = q * np.finfo(float).eps * 2.0 * np.sum(np.abs(sf * cfg.comb_phase_sums))
            for origin in origins:
                for cfo, table in ((offsets, phases), (steps, step_phases)):
                    scores = likelihood(sf, cfo, cfg, origin=origin, phases=table)
                    oracle = likelihood_exp_rotation(sf, table, cfg, origin)
                    assert np.max(np.abs(scores - oracle)) <= bound, origin

    @pytest.mark.parametrize("which", ["toy", "q12", "ref_b"])
    def test_origin_rows_match_scalar_calls(self, which, toy_cfg, q12_cfg, toy_profile,
                                            ref_cfg_b, ref_profile):
        cfg, frames, origins = self.frames_and_origins(which, toy_cfg, q12_cfg, toy_profile,
                                                       ref_cfg_b, ref_profile)
        offsets, phases = integer_offsets(cfg.n_periods)
        scalar = np.array([[likelihood(sf, offsets, cfg, origin=origin, phases=phases)
                            for origin in origins] for sf in frames])
        for t, sf in enumerate(frames):
            rows = likelihood(sf, offsets, cfg, origin=origins, phases=phases)
            assert rows.tobytes() == scalar[t].tobytes()
        # (T, Q) lag sums with (T, n) origins, frame by frame
        grid = likelihood(np.array(frames), offsets, cfg,
                          origin=np.tile(origins, (len(frames), 1)), phases=phases)
        assert grid.tobytes() == scalar.tobytes()


class TestSerialScoring:
    """Scores on row blocks (`_row_blocks`) carry the bits of one product over
    the whole table, in blocks below SERIAL_BLAS_ELEMENTS."""

    def test_blocks_match_full_product(self, campaign_frames, ref_cfg_b):
        q = ref_cfg_b.n_periods
        max_rows = (SERIAL_BLAS_ELEMENTS - 1) // q
        counts = [2, max_rows - 1, max_rows, max_rows + 1, 2 * max_rows + 1,
                  3 * max_rows + 1, 320, 1000, 1001]
        steps = ml_tables(ref_cfg_b)[2]
        table = _phases(steps, q)
        blocks = {n: _row_blocks(steps[:n], q) for n in counts}
        assert max(counts) <= len(steps)
        for sf in campaign_frames:
            weights = sf * ref_cfg_b.comb_phase_sums
            for n in counts:
                scores = likelihood(sf, steps[:n], ref_cfg_b, phases=blocks[n])
                assert np.array_equal(scores.ravel()[:n], (table[:n] @ weights).real)
                shifted = likelihood(sf, steps[:n], ref_cfg_b, origin=-3.05, phases=blocks[n])
                whole = likelihood(sf, steps[:n], ref_cfg_b, origin=-3.05, phases=table[:n])
                assert np.array_equal(shifted.ravel()[:n], whole)

    @pytest.mark.parametrize("q", [8, 12, 16, 1024])
    def test_each_product_keeps_two_to_max_rows(self, q, toy_cfg, q12_cfg, ref_cfg_b):
        """n offsets as k equal blocks of 2 to max_rows rows, then fewer than k
        rows of the first offsets again, each score the bits of table @
        weights.  At Q = 8, 12 and 16 the grids are the ML baseline's, and
        `ml_tables` holds them so (at Q = 16, 2 x 160 and 4 x 251 rows); at
        Q = 1024 (max_rows 3) 10 synthetic offsets, where 5, 7, 8 and 10 rows
        take 1, 2, 1 and 2 more."""
        max_rows = (SERIAL_BLAS_ELEMENTS - 1) // q
        rng = np.random.default_rng(7)
        weights = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        if q == 1024:
            grids = [np.linspace(-3.0, 3.0, 10)]
            counts = [2, 3, 4, 5, 7, 8, 10]
        else:
            coarse, coarse_blocks, steps, step_blocks = ml_tables(
                {8: toy_cfg, 12: q12_cfg, 16: ref_cfg_b}[q])
            grids = [coarse, steps]
            assert np.array_equal(coarse_blocks, _row_blocks(coarse, q))
            assert np.array_equal(step_blocks, _row_blocks(steps, q))
            counts = [2, max_rows, max_rows + 1, 2 * max_rows + 1, 3 * max_rows + 1,
                      len(coarse), 1000, 1001]
            if q == 16:
                assert coarse_blocks.shape == (2, 160, q) and step_blocks.shape == (4, 251, q)
        for grid in grids:
            table = _phases(grid, q)
            for n in [n for n in counts if n <= len(grid)] + [len(grid)]:
                blocks = _row_blocks(grid[:n], q)
                k, r, _ = blocks.shape
                assert 2 <= r <= max_rows and 0 <= k * r - n < k, (n, blocks.shape)
                flat = blocks.reshape(-1, q)
                assert np.array_equal(flat, np.concatenate((table[:n], table[:k * r - n])))
                scores = np.matmul(blocks, weights[..., None])[..., 0].ravel()[:n]
                assert np.array_equal(scores, table[:n] @ weights), n

    def test_one_product_per_ml_stage(self, campaign_frames, ref_cfg_b, monkeypatch):
        """An ML estimate on shared tables takes one np.matmul per grid stage,
        on the whole blocked table, for a fine grid of 1000 points and of 1001."""
        tables = ml_tables(ref_cfg_b)
        coarse = tables[0]
        frames = {}
        for sf in campaign_frames:
            best = coarse[likelihood(sf, coarse, ref_cfg_b,
                                     phases=tables[1]).ravel()[:len(coarse)].argmax()]
            fine = np.arange(best - COARSE_STEP, best + COARSE_STEP, FINE_STEP)
            frames.setdefault(len(fine), sf)
        assert sorted(frames) == [1000, 1001]
        matmul, shapes = np.matmul, []

        def spy(a, b, *args, **kwargs):
            shapes.append(np.shape(a))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        for n, sf in frames.items():
            shapes.clear()
            estimate_ml_grid(sf, ref_cfg_b, tables)
            assert shapes == [tables[1].shape, tables[3].shape], (n, shapes)


class TestDerivativeFactorisation:
    def test_residual_small_for_structured_training(self, ref_cfg_b):
        ts = build_training(ref_cfg_b, "cbts")
        frame = transmit_receive(ts, UNIT_PROFILE, unit_taps(ref_cfg_b), 2.3, ref_cfg_b)
        sf = stack(frame, ref_cfg_b)
        assert derivative_factor_residual(sf, 7, ref_cfg_b) < 5e-2

    def test_residual_small_over_faded_channels(self, ref_cfg_b, ref_profile):
        worst = 0.0
        for trial in range(20):
            frame, _, _ = make_frame(ref_cfg_b, ref_profile,
                                     -1.0 + 0.3 * trial, seed=29, trial=trial)
            sf = stack(frame, ref_cfg_b)
            worst = max(worst, derivative_factor_residual(sf, 7, ref_cfg_b))
        assert worst < 5e-2

    def test_exact_for_single_antenna(self):
        cfg = SystemConfig(64, 8, 1, 8, (0,))
        ts = build_training(cfg, "cbts")
        frame = transmit_receive(ts, UNIT_PROFILE, unit_taps(cfg), 1.2, cfg)
        sf = stack(frame, cfg)
        assert derivative_factor_residual(sf, 5, cfg) < 1e-6

    def test_curvature_positive_at_true_offset(self, ref_cfg_b, ref_profile):
        for cfo in (0.0, 2.3, -6.1):
            frame, _, _ = make_frame(ref_cfg_b, ref_profile, cfo)
            sf = stack(frame, ref_cfg_b)
            z = np.exp(2j * np.pi * cfo / ref_cfg_b.n_periods)
            g = curvature_factor(sf, z, ref_cfg_b)
            assert g.real > 0
            assert abs(g.imag) < 1e-6 * g.real


class TestNoiselessBiasFloor:
    """The simplified estimator carries a channel-induced bias floor that
    grows as the comb phase sum weakens; index 5 of the reference design sits
    ~20x above index 7.  The noise-only closed form (`predicted_mse`) does
    not contain it; `bias_floor` derives it to first order in the channel
    leakage (valid for small relative leakage; see tests/test_analysis.py for
    its agreement with this measurement), and the campaign's analytic MSE
    adds it, which is what the acceptance gate's index-5 cells compare."""

    def test_floor_hierarchy(self, noiseless_sq_errors):
        floors = {idx: float(np.mean(e)) for idx, e in noiseless_sq_errors.items()}
        assert floors[7] < 5e-7          # keeps the bound margin at 25 dB
        assert 1e-6 < floors[5] < 1e-5   # the documented index-5 floor
        assert floors[5] > 10 * floors[7]


class TestNoiselessDiagonalStructure:
    def test_magnitudes_follow_comb_sums(self, ref_cfg_a, ref_profile):
        # averaged over 1e3 channels, |c_q| tracks
        # n_rx * P * power * (Q-q) * |comb phase sum(-q)| within 15%
        ts = build_training(ref_cfg_a, "cbts")
        n = 1000
        q_count = ref_cfg_a.n_periods
        acc = np.zeros(q_count)
        power = 0.0
        for t in range(n):
            gen = RandomSource(55, (2 + 2 * t,)).generator()
            ch = draw_channel(ref_profile, ref_cfg_a, gen)
            cfo = gen.uniform(-8, 8)
            frame = transmit_receive(ts, ref_profile, ch, cfo, ref_cfg_a)
            sf = stack(frame, ref_cfg_a)
            acc += np.abs(sf) / n
            power += float(np.mean(np.abs(frame) ** 2)) / ref_cfg_a.n_tx / n
        sums = np.abs(ref_cfg_a.comb_phase_sums)
        for q in range(1, q_count):
            pred = ref_cfg_a.n_rx * ref_cfg_a.pilot_len * power * (q_count - q) * sums[q]
            assert acc[q] == pytest.approx(pred, rel=0.15)


@pytest.fixture(scope="module")
def blind_cfg():
    return SystemConfig(64, 8, 2, 8, (0, 2))


class TestDegenerateDesignSweep:
    """Offsets (0, 2) on Q=8 make indices 2 and 6 blind: the analysis must
    refuse them and the estimator must degrade loudly, never silently."""

    def test_analysis_refuses_blind_indices(self, blind_cfg):
        from cfolab import predicted_mse

        for idx in (2, 6):
            with pytest.raises(DegenerateDiagonalError):
                predicted_mse(10.0, idx, blind_cfg)
        for idx in (1, 3, 4, 5, 7):
            assert predicted_mse(10.0, idx, blind_cfg) > 0

    def test_blind_index_mse_visibly_inflated(self, blind_cfg, toy_profile):
        ts = build_training(blind_cfg, "cbts")
        errs = {2: [], 4: []}
        for t in range(300):
            gen = RandomSource(11, (2 + 2 * t,)).generator()
            ch = draw_channel(toy_profile, blind_cfg, gen)
            cfo = gen.uniform(-4, 4)
            clean = transmit_receive(ts, toy_profile, ch, cfo, blind_cfg)
            nv = float(np.mean(np.abs(clean) ** 2)) / 10.0
            noisy = add_noise(clean, nv, RandomSource(11, (3 + 2 * t,)).generator())
            sf = stack(noisy, blind_cfg)
            for idx in errs:
                try:
                    v = estimate_simplified(sf, idx, blind_cfg).value
                    errs[idx].append(((v - cfo + 4) % 8 - 4) ** 2)
                except DegenerateDiagonalError:
                    errs[idx].append(np.nan)  # loud failure also acceptable
        blind = np.nanmean(errs[2])
        healthy = np.nanmean(errs[4])
        assert blind > 20 * healthy
