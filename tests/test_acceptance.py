"""Acceptance gate: one test per shipped claim, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion.  The Monte Carlo campaigns (criteria 2-4) share a single seeded
run of the harness at reference scale: 2000 trials, seed 42.
"""

import dataclasses
import json

import numpy as np
import pytest

from cfolab import (ChannelProfile, RandomSource, SystemConfig,
                    build_training, chu_sequence, draw_channel,
                    estimate_ml_grid, estimate_simplified, likelihood,
                    model_receive, optimal_diag_indices, reference_config,
                    reference_profile, stack, transmit_receive)
from cfolab.harness import (ExperimentSpec, rows_to_csv, run_bench, run_mse_vs_snr,
                            spec_from_json)
from cfolab.training import OFFSETS_A, OFFSETS_B
from support import (curvature_factor, derivative_factor_residual,
                     likelihood_trace, periodic_autocorr, run_cli_one_blas_thread,
                     shift_correlation, shift_correlation_closed_form,
                     stacked_signal_matrix, steering_matrix, upper_diagonal_sums)

CFO_POINTS = (-7.5, -2.3, 0.0, 0.5, 7.0)


@pytest.fixture(scope="module")
def campaign():
    """Shared reference-scale Monte Carlo: offsets {3,7,14}, 2000 trials."""
    spec = ExperimentSpec(
        config=reference_config(OFFSETS_B), profile=reference_profile(),
        estimators=("simplified:5", "simplified:7", "simplified:9",
                    "simplified_rs:7", "ml_grid", "emcb"),
        snr_points_db=(10.0, 15.0, 20.0, 25.0),
        trials=2000, seed=42)
    rows = run_mse_vs_snr(spec)
    return {(r.estimator, r.snr_db): r for r in rows}


def test_criterion_1_optimal_index_reproduction():
    """Closed-form optimum sets match the reference plateaus over 10-20 dB."""
    for snr_db in np.linspace(10.0, 20.0, 5):
        gamma = 10 ** (snr_db / 10) / 3
        got_a = optimal_diag_indices(gamma, reference_config(OFFSETS_A))
        got_b = optimal_diag_indices(gamma, reference_config(OFFSETS_B))
        assert got_a == (6, 8, 10), f"offsets A at {snr_db} dB: {got_a}"
        assert got_b == (7, 9), f"offsets B at {snr_db} dB: {got_b}"
    print("PASS criterion 1: optimal index sets {6,8,10} / {7,9} over 10-20 dB")


@pytest.mark.parametrize("idx", [5, 7, 9])
@pytest.mark.parametrize("snr_db", [10.0, 15.0, 20.0])
def test_criterion_2_analysis_matches_simulation(campaign, idx, snr_db):
    """Empirical MSE within 25% of the campaign's analytic MSE, per cell.

    The analytic column is the noise-only closed form (`predicted_mse`) plus
    the derived noiseless bias floor (`bias_floor`): correlation leakage from
    the profile's taps beyond the shift stride, to first order.  At index 5
    that floor (3.0e-6, against ~3.6e-6 noiseless Monte Carlo) exceeds
    the noise term at 20 dB, so these cells test the floor's derivation as
    much as the noise analysis; at indices 7/9 it is ~1.3e-7.
    """
    row = campaign[(f"simplified:{idx}", snr_db)]
    assert row.degenerate_count == 0
    rel = abs(row.empirical_mse - row.analytic_mse) / row.analytic_mse
    status = "PASS" if rel <= 0.25 else "FAIL"
    print(f"{status} criterion 2 cell (index {idx}, {snr_db:g} dB): "
          f"empirical {row.empirical_mse:.3e} vs analytic {row.analytic_mse:.3e} "
          f"({rel:.1%})")
    assert rel <= 0.25, (
        f"index {idx} at {snr_db} dB: empirical {row.empirical_mse:.3e} "
        f"vs analytic {row.analytic_mse:.3e} ({rel:.1%})")


def test_criterion_3_structured_training_beats_random(campaign):
    """Structured training at least 3x better than the random control."""
    for snr_db in (10.0, 15.0):
        cbts = campaign[("simplified:7", snr_db)].empirical_mse
        rs = campaign[("simplified_rs:7", snr_db)].empirical_mse
        assert rs > 3.0 * cbts, f"{snr_db} dB: rs {rs:.3e} vs cbts {cbts:.3e}"
    r10 = campaign[("simplified_rs:7", 10.0)].empirical_mse \
        / campaign[("simplified:7", 10.0)].empirical_mse
    print(f"PASS criterion 3: structured vs random training, 10 dB ratio {r10:.1e}x")


def test_criterion_4_bound_relationship(campaign):
    """Estimator sits above the EMCB but within one order of magnitude."""
    for snr_db in (15.0, 20.0, 25.0):
        bound = campaign[("emcb", snr_db)].emcb
        mse = campaign[("simplified:7", snr_db)].empirical_mse
        assert bound < mse < 10.0 * bound, (
            f"{snr_db} dB: mse {mse:.3e} vs bound {bound:.3e}")
    ratios = [campaign[("simplified:7", s)].empirical_mse / campaign[("emcb", s)].emcb
              for s in (15.0, 20.0, 25.0)]
    print(f"PASS criterion 4: MSE/EMCB ratios {[f'{r:.2f}' for r in ratios]}")


def test_bound_below_every_estimator(campaign):
    """Statistical bound property with 10% Monte Carlo slack, SNR >= 10 dB."""
    for snr_db in (10.0, 15.0, 20.0, 25.0):
        bound = campaign[("emcb", snr_db)].emcb
        for est in ("simplified:5", "simplified:7", "simplified:9", "ml_grid"):
            mse = campaign[(est, snr_db)].empirical_mse
            assert mse >= 0.9 * bound, f"{est} at {snr_db} dB under the bound"
    print("PASS bound property: every estimator above 0.9x EMCB at 10-25 dB")


def test_criterion_5_oracle_equivalence():
    """Time-domain and matrix-model paths agree to 1e-9 on both presets."""
    for offsets in (OFFSETS_A, OFFSETS_B):
        cfg = reference_config(offsets)
        ts = build_training(cfg, "cbts")
        ch = draw_channel(reference_profile(), cfg, RandomSource(101, (1,)).generator())
        for cfo in CFO_POINTS:
            td = transmit_receive(ts, reference_profile(), ch, cfo, cfg)
            mm = model_receive(ts, reference_profile(), ch, cfo, cfg)
            assert np.max(np.abs(td - mm)) < 1e-9
            y = np.hstack([td[nu].reshape(cfg.n_periods, cfg.pilot_len)
                           for nu in range(cfg.n_rx)])
            bx = steering_matrix(cfo, cfg) @ stacked_signal_matrix(
                ts, reference_profile(), ch, cfo, cfg)
            assert np.max(np.abs(y - bx)) < 1e-9
    print("PASS criterion 5: oracle equivalence and period-stacking identity at 1e-9")


def test_criterion_6_sequence_and_factorisation_properties():
    """Generator autocorrelation, closed form, derivative factorisation."""
    for length in (16, 64):
        s = chu_sequence(length, 1)
        worst = max(abs(periodic_autocorr(s, lag)) for lag in range(1, length))
        assert worst <= 1e-9
    cfg = reference_config(OFFSETS_B)
    ts = build_training(cfg, "cbts")
    worst_a = 0.0
    for mu in range(3):
        for mup in range(3):
            for la in (0, 4, 16):
                for lb in (0, 4, 16):
                    direct = shift_correlation(ts, cfg, la, lb, mu, mup)
                    closed = shift_correlation_closed_form(cfg, la, lb, mu, mup)
                    worst_a = max(worst_a, abs(direct - closed))
    assert worst_a < 1e-9

    unit = ChannelProfile(delays=(0,), powers_db=(0.0,))  # one unit tap at delay 0
    taps = np.ones((cfg.n_rx, cfg.n_tx, 1), complex)
    frame = transmit_receive(ts, unit, taps, 2.3, cfg)
    sf = stack(frame, cfg)
    assert derivative_factor_residual(sf, 7, cfg) < 5e-2
    worst_faded = 0.0
    for t in range(20):
        gen = RandomSource(29, (2 + 2 * t,)).generator()
        ch = draw_channel(reference_profile(), cfg, gen)
        cfo = gen.uniform(-8, 8)
        sf_t = stack(transmit_receive(ts, reference_profile(), ch, cfo, cfg), cfg)
        worst_faded = max(worst_faded, derivative_factor_residual(sf_t, 7, cfg))
    assert worst_faded < 5e-2

    single = SystemConfig(1024, 64, 1, 1, 80, 64, (0,))
    ts1 = build_training(single, "cbts")
    frame1 = transmit_receive(ts1, unit, np.ones((1, 1, 1), complex), 1.7, single)
    assert derivative_factor_residual(stack(frame1, single), 9, single) < 1e-6

    z = np.exp(2j * np.pi * 2.3 / cfg.n_periods)
    assert curvature_factor(sf, z, cfg).real > 0
    print(f"PASS criterion 6: autocorrelation/closed-form/factorisation "
          f"(faded residual max {worst_faded:.3f})")


def test_criterion_7_noiseless_exactness():
    """Recovery within 1e-2 at five offsets; dual likelihood forms agree."""
    cfg = reference_config(OFFSETS_B)
    ts = build_training(cfg, "cbts")
    ch = draw_channel(reference_profile(), cfg, RandomSource(7, (1,)).generator())
    for cfo in CFO_POINTS:
        frame = transmit_receive(ts, reference_profile(), ch, cfo, cfg)
        sf = stack(frame, cfg)
        simp = estimate_simplified(sf, 7, cfg).value
        ml = estimate_ml_grid(sf, cfg).value
        assert abs(simp - cfo) < 1e-2
        assert abs(ml - cfo) < 1e-2

    rng = np.random.default_rng(71)
    toy = SystemConfig(64, 8, 2, 2, 10, 8, (1, 6))
    grid = np.arange(-4, 4, 0.01)
    for _ in range(100):
        y = rng.standard_normal((8, 32)) + 1j * rng.standard_normal((8, 32))
        r = y @ y.conj().T
        fast = likelihood(upper_diagonal_sums(r), grid, toy)
        trace = np.array([likelihood_trace(r, e, toy) for e in grid])
        assert np.argmax(fast) == np.argmax(trace)
    print("PASS criterion 7: noiseless recovery at 1e-2 and dual-form argmax")


def test_criterion_8_runtime_gap():
    """Simplified estimator at least 10x faster than the grid-search ML."""
    spec = ExperimentSpec(
        config=reference_config(OFFSETS_B), profile=reference_profile(),
        estimators=("simplified:7", "ml_grid"), snr_points_db=(15.0,),
        trials=1, seed=42)
    rows = {r.estimator: r for r in run_bench(spec, repetitions=150)}
    ratio = rows["ml_grid"].median_us / rows["simplified:7"].median_us
    assert ratio >= 10.0, f"ml/simplified runtime ratio only {ratio:.1f}"
    print(f"PASS criterion 8: runtime ratio {ratio:.0f}x "
          f"({rows['simplified:7'].median_us:.0f} us vs "
          f"{rows['ml_grid'].median_us:.0f} us)")


def test_criterion_9_byte_determinism(toy_cfg, toy_profile, tmp_path):
    """Identical (config, seed) gives identical CSV bytes across runs and
    across BLAS thread counts: a child process limited to one BLAS thread
    writes the bytes of this process at the machine's default."""
    spec = ExperimentSpec(
        config=toy_cfg, profile=toy_profile,
        estimators=("simplified:3", "ml_grid"), snr_points_db=(5.0, 15.0),
        trials=60, seed=31)
    baseline = rows_to_csv(run_mse_vs_snr(spec)).encode()
    assert rows_to_csv(run_mse_vs_snr(spec)).encode() == baseline
    data = {"config": dataclasses.asdict(toy_cfg),
            "profile": dataclasses.asdict(toy_profile),
            "estimators": list(spec.estimators),
            "snr_points_db": list(spec.snr_points_db),
            "trials": spec.trials, "seed": spec.seed}
    assert spec_from_json(json.loads(json.dumps(data))) == spec
    cfg_file, single = tmp_path / "spec.json", tmp_path / "single.csv"
    cfg_file.write_text(json.dumps(data))
    run_cli_one_blas_thread("mse-vs-snr", "--config", str(cfg_file), "--out", str(single))
    assert single.read_bytes() == baseline
    print("PASS criterion 9: byte-identical CSV across runs and BLAS thread counts")
