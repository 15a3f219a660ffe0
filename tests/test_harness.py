import hashlib
import json
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cfolab import (ChannelProfile, ConfigError, RandomSource, TrainingSet, analysis,
                    bias_floor, draw_channel, estimator, harness, predicted_mse)
from cfolab.cli import main as cli_main
from cfolab.harness import (CSV_HEADER, PRESET_NAMES, ExperimentSpec, _stacked_frames,
                            _trainings_for, one_frame, parse_estimator_id,
                            preset_spec, rows_to_csv, run_bench, run_emcb,
                            run_mse_vs_iota, run_mse_vs_snr, spec_from_json)
from cfolab.numerics import complex_normal
from support import package_env, run_cli


# (field, value, text): values that must fail as a ConfigError, never be
# coerced, with the error's text, which names the field and spells the value
# as JSON does
MALFORMED_SPEC_VALUES = [
    ("noiseless", "false", 'noiseless must be true or false, got "false"'),
    ("trials", 2.7, "trials must be an integer >= 1, got 2.7"),
    ("trials", True, "trials must be an integer >= 1, got true"),
    ("snr_points_db", [], "snr_points_db must be a non-empty list of numbers in "
                          "[-300, 300] dB, got []"),
    ("snr_points_db", [float("nan")], "snr_points_db must be a non-empty list of numbers in "
                                      "[-300, 300] dB, got [NaN]"),
    ("emcb_draws", 0, "emcb_draws must be an integer >= 1, got 0"),
    ("estimators", "ml_grid", 'estimators must be a non-empty list of estimator ids, '
                              'got "ml_grid"'),
    ("snr_points_db", ["10"], "snr_points_db must be a non-empty list of numbers in "
                              '[-300, 300] dB, got ["10"]'),
    ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
    ("cfo", "0.5", 'cfo must be null or a number in (-4.0, 4.0), got "0.5"'),
    ("cfo", True, "cfo must be null or a number in (-4.0, 4.0), got true"),
    ("cfo", float("inf"), "cfo must be null or a number in (-4.0, 4.0), got Infinity"),
    ("estimators", ["simplified:3", "simplified:3"],
     'estimators repeat an id: ["simplified:3", "simplified:3"]'),
    ("snr_points_db", 15, "snr_points_db must be a non-empty list of numbers in "
                          "[-300, 300] dB, got 15"),
    ("snr_points_db", [3100], "snr_points_db must be a non-empty list of numbers in "
                              "[-300, 300] dB, got [3100]"),
    ("snr_points_db", [-3100], "snr_points_db must be a non-empty list of numbers in "
                               "[-300, 300] dB, got [-3100]"),
    ("trials", 5_000_000_000, "trials must be at most 2**32, got 5000000000"),
    # points equal as floats would write identical rows
    ("snr_points_db", [10, 10.0], "snr_points_db repeat a point: [10, 10.0]"),
    ("snr_points_db", [0, -0.0], "snr_points_db repeat a point: [0, -0.0]"),
]
MALFORMED_SPEC_IDS = [f"{f}={v!r}" for f, v, _ in MALFORMED_SPEC_VALUES]

# Full CSV of a small campaign covering both training kinds, ml_grid and the
# bound.  A change that moves any byte updates this text and says so.
GOLDEN_TOY_CSV = """\
estimator,snr_db,iota,trials,empirical_mse,analytic_mse,emcb,mean_runtime_us,degenerate_count
simplified:3,10,3,20,0.000178811064452,0.000156327767164,,,0
simplified_rs:3,10,3,20,5.21601567119,,,,0
ml_grid,10,,20,0.000149909463316,,,,0
simplified:3,20,3,20,1.72461673419e-05,1.51876324022e-05,,,0
simplified_rs:3,20,3,20,6.05479352892,,,,0
ml_grid,20,,20,1.37509187847e-05,,,,0
emcb,10,,10,,,0.000142507071733,,0
emcb,20,,10,,,1.42507071733e-05,,0
"""

# CSV of the GOLDEN_TOY_CSV campaign without noise and the bound: a noiseless
# campaign scales its unit noise by zero, so no noise layout moves these bytes.
GOLDEN_NOISELESS_TOY_CSV = """\
estimator,snr_db,iota,trials,empirical_mse,analytic_mse,emcb,mean_runtime_us,degenerate_count
simplified:3,10,3,20,2.46841542361e-07,,,,0
simplified_rs:3,10,3,20,6.12329500718,,,,0
ml_grid,10,,20,4.87404908321e-10,,,,0
simplified:3,20,3,20,2.46841542361e-07,,,,0
simplified_rs:3,20,3,20,6.12329500718,,,,0
ml_grid,20,,20,4.87404908321e-10,,,,0
"""

# sha256 of the CSV of a 30-trial reference-dimension campaign with both
# training kinds, ml_grid and the bound; the same rule as GOLDEN_TOY_CSV.
GOLDEN_REFERENCE_CSV_SHA256 = (
    "1046de0d9ea11b91cde38b976145f8da9bbfb5ac1939476fa89408942ffeca1b")

# `cfolab estimate` on the toy config of TestCli with the default flags
# (offset 2.3, 15 dB, index chosen by the closed form).
GOLDEN_ESTIMATE_TEXT = """\
true_cfo            +2.300000
estimated_cfo       +2.300915
diag_index          3
diag_ratio          -3.045069e-01+9.191564e-01j
candidates          -3.6991 -2.6991 -1.6991 -0.6991 +0.3009 +1.3009 +2.3009 +3.3009
scores              1.229453e+04 2.421783e+04 1.229299e+04 4.628914e+04 1.242440e+04 1.227492e+04 5.809986e+04 1.232990e+04
"""

TOY_SYSTEM = {"n_subcarriers": 64, "pilot_len": 8, "n_tx": 2, "n_rx": 2,
              "cp_len": 10, "chan_len": 8, "offsets": [1, 6]}
# the toy config file of TestCli; `estimate` refuses its estimators key, so the
# estimate tests drop it (estimators=None)
TOY_JSON = {"config": TOY_SYSTEM,
            "profile": {"delays": [0, 2, 7], "powers_db": [0, -3, -6]},
            "estimators": ["simplified:3"], "trials": 5, "seed": 2}
# one transmit antenna, one receive antenna and one tap: the bound's mean over
# channels is infinite
DIVERGENT_BOUND = {"config": {"n_subcarriers": 64, "pilot_len": 16, "n_tx": 1, "n_rx": 1,
                              "cp_len": 8, "chan_len": 8, "offsets": [0]},
                   "profile": {"delays": [0], "powers_db": [0]}}
# profiles of the toy config (chan_len 8, cp_len 10) whose last delay lies past
# chan_len, past the cyclic prefix and past any array index
UNFIT_DELAYS = [(0, 3, 9), (0, 3, 40), (0, 3, 10**20)]
# diagonal indices of the toy config in any spelling but the plain decimal one
NON_CANONICAL_IDS = ["simplified:03", "simplified:+3", "simplified: 3", "simplified:3 ",
                     "simplified:0_3", "simplified_rs:03"]
# The one table of command lines that must exit with status 2 and a config
# error, never a traceback.  Each case is (argv, file, text), run as
# `cfolab *argv --config FILE`.  The file is a dict of overrides of the toy
# config file, where None drops a key (mse-vs-iota and estimate take no
# estimators key), or bytes written as the whole file.  The error must hold
# `text` ("" pins none), which names the input as the user gave it: the flag or
# the file's key, its value as JSON spells it, never a Python call's words.
MALFORMED_CLI_CASES = {
    "config-unknown-key": (["mse-vs-snr"], {"config": {**TOY_SYSTEM, "bogus": 1}}, ""),
    "config-string-dimension": (["mse-vs-snr"],
                                {"config": {**TOY_SYSTEM, "n_subcarriers": "64"}}, ""),
    "config-not-object": (["mse-vs-snr"], {"config": [1]},
                          "config section must be a JSON object, got [1]"),
    "config-missing-keys": (["mse-vs-snr"], {"config": {"n_subcarriers": 64}},
                            'config section is missing keys: ["pilot_len", "n_tx", "n_rx", '
                            '"cp_len", "chan_len", "offsets"]'),
    "config-aliasing-offsets": (["mse-vs-snr"],
                                {"config": {**TOY_SYSTEM, "offsets": [0, 4]}}, ""),
    "profile-without-powers": (["mse-vs-snr"], {"profile": {"delays": [0, 2, 7]}}, ""),
    "profile-fractional-delay": (["mse-vs-snr"], {"profile": {
        "delays": [0, 0.5, 7], "powers_db": [0, -3, -6]}}, ""),
    "profile-unknown-key": (["mse-vs-snr"], {"profile": {**TOY_JSON["profile"], "bogus": 1}},
                            'unknown profile section keys: ["bogus"]'),
    # a file that holds an array is quoted as that array, not as a Python type
    "top-level-list": (["mse-vs-snr"], b"[1, 2]", "must hold a JSON object, got [1, 2]"),
    "top-level-array": (["mse-vs-snr"], b'[{"preset": "paper-fig2"}]',
                        'must hold a JSON object, got [{"preset": "paper-fig2"}]'),
    "config-not-utf8": (["mse-vs-snr"], b"\xff\xfe{}", ""),
    # a JSON number longer than Python converts, which the parser refuses before
    # any key is read
    "trials=4501 digits": (["mse-vs-snr"],
                           b'{"preset": "paper-fig2", "trials": ' + b"9" * 4501 + b"}",
                           "4501 digits"),
    # the offset's old two keys are unknown keys: a file that still names either
    # fails loudly, never runs with the key dropped
    **{f"{key}={value!r}": (["mse-vs-snr"], {key: value}, f'unknown config keys: ["{key}"]')
       for key, value in (("epsilon_mode", "fixed"), ("epsilon_value", 100.0),
                          ("epsilon_value", 0))},
    "cfo-past-half-range": (["mse-vs-snr"], {"cfo": 9.0},
                            "cfo must be null or a number in (-4.0, 4.0), got 9.0"),
    # the spec's values, with emcb requested; the spec still refuses
    # emcb_draws=0, which the exact bound never reads
    **{name: (["mse-vs-snr"], {"estimators": ["simplified:3", "emcb"], field: value}, text)
       for name, (field, value, text) in zip(MALFORMED_SPEC_IDS, MALFORMED_SPEC_VALUES)},
    # values of each JSON kind beside the toy file's estimators, which request
    # no emcb: each is spelled as the file wrote it
    "true": (["mse-vs-snr"], {"trials": True}, "trials must be an integer >= 1, got true"),
    "string": (["mse-vs-snr"], {"noiseless": "false"},
               'noiseless must be true or false, got "false"'),
    "snr-repeated": (["mse-vs-snr"], {"snr_points_db": [10, 10.0]},
                     "snr_points_db repeat a point: [10, 10.0]"),
    # a file whose one key is a null preset
    "null": (["mse-vs-snr"], b'{"preset": null}', "unknown preset null;"),
    "snr-overflows": (["mse-vs-snr"], {"snr_points_db": [3100]}, ""),
    "estimators-out-of-range": (["mse-vs-snr"], {"estimators": ["simplified:99"]},
                                'estimator "simplified:99" takes diagonal indices in [1, 7] '
                                'in plain decimal, got "99"'),
    "estimators-non-canonical": (["mse-vs-snr"], {"estimators": ["simplified:07"]}, ""),
    "noiseless-with-emcb": (["mse-vs-snr"], {"noiseless": True,
                                             "estimators": ["simplified:3", "emcb"]}, ""),
    # a preset key names a preset whatever its value, beside a full config
    # too; written whole, since a None override drops its key
    **{f"preset={value!r}": (["mse-vs-snr"],
                             json.dumps({**TOY_JSON, "preset": value}).encode(),
                             f"unknown preset {json.dumps(value)};")
       for value in ("", None, 0, False, [])},
    "estimate-diag-index": (["estimate", "--diag-index", "99"], {"estimators": None},
                            '--diag-index takes diagonal indices in [1, 7] in plain decimal, '
                            'got "99"'),
    "estimate-cfo-out-of-range": (["estimate", "--cfo", "100"], {"estimators": None},
                                  "--cfo must be a number in (-4.0, 4.0), got 100"),
    # Q = 4, so the offset 2.3 lies outside (-2, 2)
    "estimate-cfo-past-half-range": (["estimate", "--cfo", "2.3"],
                                     {**DIVERGENT_BOUND, "estimators": None},
                                     "--cfo must be a number in (-2.0, 2.0), got 2.3"),
    "estimate-snr-nan": (["estimate", "--snr-db", "nan"], {"estimators": None}, ""),
    "estimate-snr-out-of-range": (["estimate", "--snr-db", "-400"], {"estimators": None},
                                  "--snr-db must be a number in [-300, 300] dB, got -400"),
    "estimate-snr-overflows": (["estimate", "--snr-db", "3100"], {"estimators": None},
                               "--snr-db must be a number in [-300, 300] dB, got 3100"),
    # estimate's flags set these keys, so a file's values would be ignored
    "estimate-cfo-key": (["estimate"], {"noiseless": True, "cfo": 1.25, "estimators": None},
                         "estimate takes no cfo key; give --cfo"),
    "estimate-snr-key": (["estimate"], {"snr_points_db": [10], "estimators": None},
                         "estimate takes no snr_points_db key; give --snr-db"),
    "estimate-noiseless-key": (["estimate"], {"noiseless": True, "estimators": None},
                               "estimate takes no noiseless key; give --noiseless"),
    "estimate-estimators-key": (["estimate"], {"estimators": ["simplified:5"]},
                                "estimate takes no estimators key; give --diag-index"),
    "bench-zero-repetitions": (["bench", "--repetitions", "0"], {}, ""),
    "bench-without-monte-carlo": (["bench"], {"estimators": ["emcb"]}, ""),
    "emcb-snr-overflows": (["emcb"], {"snr_points_db": [3100], "emcb_draws": 10}, ""),
    "emcb-snr-underflows": (["emcb"], {"snr_points_db": [-3100], "emcb_draws": 10}, ""),
    "emcb-noiseless": (["emcb"], {"noiseless": True, "emcb_draws": 10}, ""),
    "emcb-divergent": (["emcb"], DIVERGENT_BOUND, ""),
    **{f"emcb-profile-delays-{d[-1]}": (["emcb"], {"profile": {
        "delays": list(d), "powers_db": [0, -3, -6]}, "emcb_draws": 10}, "")
       for d in UNFIT_DELAYS},
    "iota-not-integer": (["mse-vs-iota", "--iotas", "a"], {"estimators": None}, ""),
    "iotas-not-a-list": (["mse-vs-iota"], {"iotas": 5, "estimators": None}, ""),
    "iotas-repeated": (["mse-vs-iota", "--iotas", "3,3"], {"estimators": None},
                       '--iotas may not repeat an index, got "3,3"'),
    "iotas-file-repeated": (["mse-vs-iota"], {"iotas": [3, 3], "estimators": None},
                            "iotas may not repeat an index, got [3, 3]"),
    "iotas-only-commas": (["mse-vs-iota", "--iotas", ","], {"estimators": None},
                          '--iotas must be comma-separated indices, got ","'),
    "iotas-empty-list": (["mse-vs-iota"], {"iotas": [], "estimators": None}, ""),
    "iotas-empty-flag": (["mse-vs-iota", "--iotas", ""], {"estimators": None},
                         '--iotas must be comma-separated indices, got ""'),
    "iotas-out-of-range": (["mse-vs-iota"], {"iotas": [99], "estimators": None},
                           "iotas takes diagonal indices in [1, 7] in plain decimal, got 99"),
    "iotas-flag-out-of-range": (["mse-vs-iota", "--iotas", "99"], {"estimators": None},
                                '--iotas takes diagonal indices in [1, 7] in plain decimal, '
                                'got "99"'),
    # a file's iotas are JSON integers: no string or boolean stands for an
    # index, and null is no list (written whole, since a None override drops
    # its key)
    "iotas-strings": (["mse-vs-iota"], {"iotas": ["3", "5"], "estimators": None}, ""),
    "iotas-boolean": (["mse-vs-iota"], {"iotas": [True, 5], "estimators": None}, ""),
    "iotas-null": (["mse-vs-iota"], json.dumps({
        **{k: v for k, v in TOY_JSON.items() if k != "estimators"}, "iotas": None}).encode(), ""),
    "iotas-on-mse-vs-snr": (["mse-vs-snr"], {"iotas": [3]}, ""),
    "iotas-on-emcb": (["emcb"], {"iotas": [3], "emcb_draws": 10}, ""),
    "estimators-on-mse-vs-iota": (["mse-vs-iota", "--iotas", "2,7"],
                                  {"estimators": ["ml_grid", "simplified_rs:3"]}, ""),
    "iotas-non-canonical": (["mse-vs-iota", "--iotas", "3, 5,07"], {"estimators": None}, ""),
    # numeric flags take a JSON spec's spellings, none that Python's int() or
    # float() adds; the diagonal indices take the estimator ids' plain decimal
    **{f"{command}{flag}={text!r}": ([command, flag, text],
                                     {} if command in ("mse-vs-snr", "bench")
                                     else {"estimators": None}, "")
       for command, flag, spellings in (
           ("estimate", "--diag-index", ("07", "+7", " 7", "0_5", "1_5")),
           ("mse-vs-iota", "--iotas", ("1_5",)),
           ("estimate", "--cfo", ("0_3", "0_5", "+0.5", "00.5", " 0.5", ".5", "1.")),
           ("estimate", "--snr-db", ("1_5", "+15", "015", "15 ")),
           ("mse-vs-snr", "--seed", ("1_5", "015", "+15", " 15", "1e1")),
           ("estimate", "--seed", ("1_5", "015")),
           ("bench", "--repetitions", ("1_0", "010", "+10", "1e1")))
       for text in spellings},
    "seed-5000-digits": (["mse-vs-snr", "--seed", "9" * 5000], {}, ""),
}


def golden_toy_spec(toy_cfg, toy_profile) -> ExperimentSpec:
    """The campaign whose CSV is GOLDEN_TOY_CSV."""
    return ExperimentSpec(
        config=toy_cfg, profile=toy_profile,
        estimators=("simplified:3", "simplified_rs:3", "ml_grid", "emcb"),
        snr_points_db=(10.0, 20.0), trials=20, seed=7, emcb_draws=10)


@pytest.fixture()
def toy_spec(toy_cfg, toy_profile) -> ExperimentSpec:
    return ExperimentSpec(
        config=toy_cfg, profile=toy_profile,
        estimators=("simplified:3", "ml_grid"),
        snr_points_db=(10.0, 20.0), trials=40, seed=7)


class TestParseEstimatorId:
    def test_valid_ids(self, toy_cfg):
        assert parse_estimator_id("simplified:3", toy_cfg) == ("simplified", "cbts", 3)
        assert parse_estimator_id("simplified_rs:5", toy_cfg) == ("simplified", "rs", 5)
        assert parse_estimator_id("ml_grid", toy_cfg) == ("ml_grid", "cbts", None)
        assert parse_estimator_id("emcb", toy_cfg) == ("emcb", "cbts", None)

    @pytest.mark.parametrize("bad", ["simplified", "simplified:0", "simplified:8",
                                     "fancy", "simplified:x",
                                     pytest.param("simplified:" + "9" * 5000, id="5000-digits"),
                                     *NON_CANONICAL_IDS])
    def test_invalid_ids(self, toy_cfg, bad):
        with pytest.raises(ConfigError):
            parse_estimator_id(bad, toy_cfg)

    @pytest.mark.parametrize("bad", NON_CANONICAL_IDS)
    def test_non_canonical_index_rejected(self, toy_spec, bad):
        # int() would read each as index 3, which the repeat check then misses
        with pytest.raises(ConfigError, match="plain decimal"):
            replace(toy_spec, estimators=("simplified:3", bad))


class TestRunMseVsSnr:
    def test_noiseless_single_trial_near_exact(self, ref_cfg_b, ref_profile):
        spec = ExperimentSpec(
            config=ref_cfg_b, profile=ref_profile,
            estimators=("simplified:7",), snr_points_db=(15.0,),
            trials=1, seed=3, cfo=2.3, noiseless=True)
        rows = run_mse_vs_snr(spec)
        assert len(rows) == 1
        assert rows[0].empirical_mse < 1e-4
        assert rows[0].degenerate_count == 0
        assert rows[0].analytic_mse is None  # no finite-SNR prediction

    def test_rows_and_accounting(self, toy_spec):
        rows = run_mse_vs_snr(toy_spec)
        assert len(rows) == len(toy_spec.estimators) * len(toy_spec.snr_points_db)
        for r in rows:
            assert r.trials == toy_spec.trials
            assert r.degenerate_count >= 0
            assert r.empirical_mse is None or r.empirical_mse >= 0

    def test_determinism_across_runs_and_threads(self, toy_spec):
        first = rows_to_csv(run_mse_vs_snr(toy_spec))
        second = rows_to_csv(run_mse_vs_snr(toy_spec))
        assert first == second

    def test_squared_error_is_an_ieee_product(self, toy_spec, monkeypatch):
        # Python's e ** 2 calls the platform's libm pow, which may round apart
        # from the correctly rounded e * e: the campaign must square by the
        # multiply, so pick an error whose two squares differ where one exists
        spec = replace(toy_spec, estimators=("simplified:3",), snr_points_db=(10.0,),
                       trials=1, cfo=0.25)
        values = np.random.default_rng(11).uniform(-3.0, 3.0, 10000) + spec.cfo
        errors = estimator.wrap_offset(values - spec.cfo, spec.config.n_periods).tolist()
        pick = next((i for i, e in enumerate(errors) if e ** 2 != e * e), 0)
        monkeypatch.setattr(estimator, "estimate_simplified",
                            lambda c, idx, cfg: estimator.CfoEstimate(value=values[pick]))
        (row,) = run_mse_vs_snr(spec)
        assert row.empirical_mse == errors[pick] * errors[pick]

    def test_draws_are_prefix_stable(self, toy_spec, monkeypatch):
        self._check_prefix_stable(toy_spec, harness.CHUNK_FRAMES, monkeypatch)

    def test_draws_are_prefix_stable_across_chunks(self, toy_spec, monkeypatch):
        # chunks of 3 trials split both campaigns
        self._check_prefix_stable(toy_spec, 3, monkeypatch)

    @staticmethod
    def _check_prefix_stable(toy_spec, chunk, monkeypatch):
        # trials 0..T-1 draw the same channel, offset and unit noise in a
        # T-trial and a 2T-trial campaign, one unit draw per trial for every
        # SNR point, and the noise scale is the training's expected power, so
        # their lag sums are bit-identical at every point and training kind
        monkeypatch.setattr(harness, "CHUNK_FRAMES", chunk)
        toy_spec = replace(toy_spec, estimators=("simplified:3", "simplified_rs:3", "ml_grid"))
        m = len(toy_spec.snr_points_db)

        def draws(spec):
            taps, units = [], []

            def spy_channel(profile, cfg, gen):
                taps.append(draw_channel(profile, cfg, gen))
                return taps[-1]

            def spy_noise(gen, shape):
                units.append(complex_normal(gen, shape))
                return units[-1]

            monkeypatch.setattr(harness, "draw_channel", spy_channel)
            monkeypatch.setattr(harness, "complex_normal", spy_noise)
            chunks = list(_stacked_frames(spec, _trainings_for(spec)))
            # one yield per chunk and SNR point, chunk-major
            assert [(s, t) for s, t, _, _ in chunks] == [
                (s, slice(t, min(t + chunk, spec.trials)))
                for t in range(0, spec.trials, chunk) for s in range(m)]
            cfos = [cfo for s, _, at, _ in chunks if s == 0 for cfo in at.tolist()]
            # trial-major lag sums per (point, kind)
            sums = {(s, kind): np.concatenate([at[kind] for p, _, _, at in chunks if p == s])
                    for s in range(m) for kind in ("cbts", "rs")}
            return taps, cfos, units, sums

        taps, cfos, units, sums = draws(replace(toy_spec, trials=5))
        taps2, cfos2, units2, sums2 = draws(replace(toy_spec, trials=10))
        assert len(taps) == len(units) == 5 and len(units2) == 10
        assert all(np.array_equal(a, b) for a, b in zip(taps, taps2[:5]))
        assert cfos == cfos2[:5]
        assert all(np.array_equal(a, b) for a, b in zip(units, units2[:5]))
        assert all(sums[key].tobytes() == sums2[key][:5].tobytes() for key in sums)

    def test_streams_seeded_one_pass_per_key_prefix(self, toy_spec, monkeypatch):
        # the campaign hashes its (1, t) keys in one `generators` call and its
        # (2, t) keys in one more, and seeds no stream key by key
        calls = []
        generators = RandomSource.generators

        def spy(source, n):
            calls.append((source.seed, source.key, n))
            return generators(source, n)

        def per_key(source):
            raise AssertionError(f"per-key generator() for key {source.key}")

        monkeypatch.setattr(RandomSource, "generators", spy)
        monkeypatch.setattr(RandomSource, "generator", per_key)
        spec = replace(toy_spec, trials=6)
        run_mse_vs_snr(spec)
        assert calls == [(7, (1,), 6), (7, (2,), 6)]

    @staticmethod
    def _added_noise(spec, monkeypatch):
        """Each frame `stack` takes less the noiseless campaign's frame, as
        (trials, training kind (cbts, rs), SNR point, n_rx, N)."""
        lag_sums = estimator.stack

        def frames(spec):
            seen = []
            monkeypatch.setattr(estimator, "stack",
                                lambda frame, cfg: seen.append(frame) or lag_sums(frame, cfg))
            list(_stacked_frames(spec, _trainings_for(spec)))
            # one call per trial, training kind and SNR point, in that order
            return np.array(seen).reshape(spec.trials, 2, len(spec.snr_points_db),
                                          *seen[0].shape)

        return frames(spec) - frames(replace(spec, noiseless=True))

    def test_points_and_kinds_share_each_trial_unit_noise(self, toy_spec, monkeypatch):
        # each frame's added noise over its point's and kind's noise standard
        # deviation is the unit draw of key (2, t): one array for every SNR
        # point and both training kinds
        spec = replace(toy_spec, estimators=("simplified:3", "simplified_rs:3"), trials=5)
        cfg, snrs = spec.config, np.array(spec.snr_points_db)
        noise = self._added_noise(spec, monkeypatch)
        # the expected frame power per sample of each kind, of which the noise
        # variance is a fraction
        power = np.array([ts.energy for ts in _trainings_for(spec).values()]) / cfg.n_subcarriers
        scale = np.sqrt(power[:, None] / 10.0 ** (snrs / 10.0))[:, :, None, None]
        for t in range(spec.trials):
            unit = complex_normal(RandomSource(spec.seed, (2, t)).generator(),
                                  (cfg.n_rx, cfg.n_subcarriers))
            assert np.allclose(noise[t] / scale, unit, rtol=0, atol=1e-9)

    def test_noise_variance_is_the_bound_energy(self, toy_spec, monkeypatch):
        # for both training kinds, each point's noise variance times N and the
        # linear SNR is the expected frame energy that emcb reads
        energy, read = TrainingSet.energy, []
        monkeypatch.setattr(TrainingSet, "energy",
                            property(lambda ts: read.append(energy.fget(ts)) or read[-1]))
        analysis.emcb(toy_spec.config, toy_spec.profile, toy_spec.snr_points_db)
        bound_energy = read[0]
        spec = replace(toy_spec, estimators=("simplified:3", "simplified_rs:3"), trials=1)
        cfg, snrs = spec.config, 10.0 ** (np.array(spec.snr_points_db) / 10.0)
        noise = self._added_noise(spec, monkeypatch)[0].reshape(2, len(snrs), -1)
        unit = complex_normal(RandomSource(spec.seed, (2, 0)).generator(),
                              cfg.n_rx * cfg.n_subcarriers)
        std = (noise @ unit.conj()).real / np.vdot(unit, unit).real
        assert np.allclose(std ** 2 * cfg.n_subcarriers * snrs, bound_energy, rtol=1e-12, atol=0)

    def test_memory_flat_in_trials(self, ref_cfg_b, ref_profile):
        # trials stream through the campaign: it holds one chunk of lag sums
        # and grows only by the squared errors and the streams' seed words,
        # never all the frames (32 KB per trial and training kind here)
        import tracemalloc

        def peak(trials):
            spec = ExperimentSpec(config=ref_cfg_b, profile=ref_profile,
                                  estimators=("simplified:7",), snr_points_db=(15.0,),
                                  trials=trials, seed=3)
            tracemalloc.start()
            try:
                run_mse_vs_snr(spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the training and the estimator's tables are built once
        assert peak(400) - peak(100) < 100_000

    def test_golden_bytes(self, toy_cfg, toy_profile):
        spec = golden_toy_spec(toy_cfg, toy_profile)
        assert rows_to_csv(run_mse_vs_snr(spec)) == GOLDEN_TOY_CSV

    def test_golden_noiseless_bytes(self, toy_cfg, toy_profile):
        spec = replace(golden_toy_spec(toy_cfg, toy_profile), noiseless=True,
                       estimators=("simplified:3", "simplified_rs:3", "ml_grid"))
        assert rows_to_csv(run_mse_vs_snr(spec)) == GOLDEN_NOISELESS_TOY_CSV

    def test_golden_reference_bytes(self, ref_cfg_b, ref_profile):
        spec = ExperimentSpec(
            config=ref_cfg_b, profile=ref_profile,
            estimators=("simplified:7", "simplified_rs:7", "ml_grid", "emcb"),
            snr_points_db=(5.0, 20.0), trials=30, seed=23, emcb_draws=40)
        text = rows_to_csv(run_mse_vs_snr(spec))
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_REFERENCE_CSV_SHA256

    def test_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the same reference-dimension campaign in this process and in child
        # processes at one and at two BLAS threads
        cfg_file = tmp_path / "spec.json"
        cfg_file.write_text(json.dumps({
            "preset": "paper-fig3", "trials": 40, "seed": 11, "emcb_draws": 40,
            "snr_points_db": [5, 20],
            "estimators": ["simplified:7", "simplified_rs:7", "ml_grid", "emcb"]}))
        here = tmp_path / "here.csv"
        assert cli_main(["mse-vs-snr", "--config", str(cfg_file), "--out", str(here)]) == 0
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}.csv"
            run_cli(threads, "mse-vs-snr", "--config", str(cfg_file), "--out", str(out))
            assert out.read_bytes() == here.read_bytes()

    def test_bound_only_campaign(self, toy_spec):
        from dataclasses import replace

        spec = replace(toy_spec, estimators=("emcb",), emcb_draws=10)
        assert run_mse_vs_snr(spec) == run_emcb(spec)

    def test_one_frame_is_first_campaign_frame(self, toy_spec):
        from dataclasses import replace

        both = replace(toy_spec, estimators=("simplified:3", "simplified_rs:3"))
        spec = replace(both, trials=1, cfo=-1.3)
        s_idx, trials, cfos, first = next(_stacked_frames(spec, _trainings_for(spec)))
        assert (s_idx, trials, cfos.tolist()) == (0, slice(0, 1), [-1.3])
        single = one_frame(both, -1.3)
        assert set(single) == set(first) == {"cbts", "rs"}
        for kind, sums in first.items():
            assert sums.shape == (1, spec.config.n_periods)
            assert np.array_equal(single[kind], sums[0])

    def test_seed_changes_output(self, toy_spec):
        from dataclasses import replace

        a = rows_to_csv(run_mse_vs_snr(toy_spec))
        b = rows_to_csv(run_mse_vs_snr(replace(toy_spec, seed=8)))
        assert a != b

    def test_csv_schema(self, toy_spec):
        text = rows_to_csv(run_mse_vs_snr(toy_spec))
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == ("estimator,snr_db,iota,trials,empirical_mse,"
                            "analytic_mse,emcb,mean_runtime_us,degenerate_count")
        # runtime column stays empty in campaign CSVs (determinism contract)
        for line in lines[1:]:
            assert line.split(",")[7] == ""


class TestRunMseVsIota:
    def test_analytic_column_is_same_code_path(self, toy_spec):
        rows = run_mse_vs_iota(toy_spec, [1, 3])
        for r in rows:
            gamma = 10 ** (r.snr_db / 10) / toy_spec.config.n_tx
            assert r.analytic_mse == (
                predicted_mse(gamma, r.iota, toy_spec.config)
                + bias_floor(r.iota, toy_spec.config, toy_spec.profile))

    def test_analytic_column_adds_bias_floor(self, ref_cfg_b, ref_profile):
        # index 5 of offsets {3,7,14} carries a material leakage floor; the
        # random-training control has no prediction
        spec = ExperimentSpec(
            config=ref_cfg_b, profile=ref_profile,
            estimators=("simplified:5", "simplified_rs:5"),
            snr_points_db=(20.0,), trials=3, seed=7)
        cbts, rs = run_mse_vs_snr(spec)
        floor = bias_floor(5, ref_cfg_b, ref_profile)
        noise_only = predicted_mse(10.0 ** 2 / ref_cfg_b.n_tx, 5, ref_cfg_b)
        assert floor > 0.5 * noise_only
        assert cbts.analytic_mse == noise_only + floor
        assert rs.analytic_mse is None

    def test_no_analytic_where_diagonal_sum_can_vanish(self, ref_cfg_b, ref_profile):
        # index 8 of offsets {3,7,14}: phasors -1, -1, +1, so the realised
        # diagonal sum can vanish and the closed forms do not hold
        spec = ExperimentSpec(
            config=ref_cfg_b, profile=ref_profile,
            estimators=("simplified:7", "simplified:8"),
            snr_points_db=(20.0,), trials=3, seed=7)
        seven, eight = run_mse_vs_snr(spec)
        assert seven.analytic_mse is not None
        assert eight.analytic_mse is None
        assert eight.empirical_mse is not None and eight.degenerate_count == 0

    def test_blind_index_row_reports_degenerate_analytics(self, toy_spec):
        rows = run_mse_vs_iota(toy_spec, [4])  # offsets (1,6): index 4 blind
        for r in rows:
            assert r.analytic_mse is None


class TestIndexGrouping:
    """A group of simplified indices, estimated a chunk of frames per call,
    writes the bytes of one campaign per estimator."""

    @pytest.fixture()
    def spec(self, ref_cfg_b, ref_profile):
        return ExperimentSpec(config=ref_cfg_b, profile=ref_profile,
                              estimators=("simplified:1",), snr_points_db=(0.0, 15.0),
                              trials=6, seed=11)

    @staticmethod
    def one_estimator_csv(spec):
        """The CSV of `spec` assembled from one campaign per estimator."""
        alone = {e: run_mse_vs_snr(replace(spec, estimators=(e,))) for e in spec.estimators}
        return rows_to_csv([alone[e][s] for s in range(len(spec.snr_points_db))
                            for e in spec.estimators])

    def test_sweep_rows_match_one_estimator_campaigns(self, spec):
        sweep = run_mse_vs_iota(spec, range(1, 16))
        for i in range(1, 16):
            alone = run_mse_vs_snr(replace(spec, estimators=(f"simplified:{i}",)))
            assert rows_to_csv([r for r in sweep if r.iota == i]) == rows_to_csv(alone)

    def test_mixed_spec_matches_one_estimator_campaigns(self, spec):
        # the acceptance layout: three grouped cbts indices and lone rs and ML
        spec = replace(spec, estimators=("simplified:5", "simplified:7", "simplified:9",
                                         "simplified_rs:7", "ml_grid"))
        assert rows_to_csv(run_mse_vs_snr(spec)) == self.one_estimator_csv(spec)

    @pytest.mark.parametrize("chunk", [1, 7, harness.CHUNK_FRAMES])
    def test_chunk_size_moves_no_byte(self, spec, toy_cfg, toy_profile, chunk, monkeypatch):
        # 20 trials leave a partial last chunk at 7; two groups of indices,
        # one per training kind, beside the frame-by-frame ML baseline
        monkeypatch.setattr(harness, "CHUNK_FRAMES", chunk)
        golden = golden_toy_spec(toy_cfg, toy_profile)
        assert rows_to_csv(run_mse_vs_snr(golden)) == GOLDEN_TOY_CSV
        spec = replace(spec, trials=20, estimators=(
            "simplified:5", "simplified:7", "simplified:9", "simplified_rs:3",
            "simplified_rs:7", "ml_grid"))
        assert rows_to_csv(run_mse_vs_snr(spec)) == self.one_estimator_csv(spec)

    def test_degenerate_rows_counted(self, spec, monkeypatch):
        from cfolab import estimator

        lag_sums = estimator.stack

        def cut(frame, cfg):
            sums = lag_sums(frame, cfg)
            sums[9] = 0.0
            return sums

        monkeypatch.setattr(estimator, "stack", cut)
        spec = replace(spec, estimators=tuple(f"simplified:{i}" for i in (5, 7, 9, 11)))
        rows = run_mse_vs_snr(spec)
        for r in rows:
            degenerate = r.iota in (7, 9)
            assert r.degenerate_count == (spec.trials if degenerate else 0)
            assert (r.empirical_mse is None) == degenerate
        assert rows_to_csv(rows) == self.one_estimator_csv(spec)


class TestIotaSweepReferenceScale:
    """Empirical index sweeps reproduce the reference near-optimal sets."""

    @pytest.mark.parametrize("offsets,expected", [
        ((3, 5, 11), (6, 8, 10)),
        ((3, 7, 14), (7, 9)),
    ])
    def test_empirical_plateau_at_15db(self, offsets, expected, ref_profile):
        from cfolab import reference_config

        spec = ExperimentSpec(
            config=reference_config(offsets), profile=ref_profile,
            estimators=("simplified:1",), snr_points_db=(15.0,),
            trials=2000, seed=42)
        rows = run_mse_vs_iota(spec, range(1, 16))
        vals = {r.iota: r.empirical_mse for r in rows}
        best = min(vals.values())
        plateau = tuple(sorted(i for i, v in vals.items() if v <= 1.2 * best))
        assert plateau == expected
        assert min(vals, key=vals.get) in expected
        # mirror symmetry of the estimator shows up in the sweep (up to the
        # last-ulp difference of the two phase computations)
        for i in range(1, 8):
            assert vals[i] == pytest.approx(vals[16 - i], rel=1e-9)


class TestRunEmcb:
    def test_rows_monotone(self, toy_spec):
        from dataclasses import replace

        rows = run_emcb(replace(toy_spec, emcb_draws=40))
        vals = [r.emcb for r in rows]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(r.estimator == "emcb" for r in rows)

    def test_divergent_bound_fails_before_the_trials(self, monkeypatch):
        spec = spec_from_json({**DIVERGENT_BOUND, "snr_points_db": [10],
                               "estimators": ["simplified:1", "emcb"]})
        monkeypatch.setattr(harness, "_stacked_frames",
                            lambda *args: pytest.fail("the trials ran first"))
        with pytest.raises(ConfigError, match="diverges"):
            run_mse_vs_snr(spec)

    def test_merged_when_requested(self, toy_cfg, toy_profile):
        spec = ExperimentSpec(
            config=toy_cfg, profile=toy_profile,
            estimators=("simplified:3", "emcb"), snr_points_db=(10.0,),
            trials=5, seed=1, emcb_draws=10)
        rows = run_mse_vs_snr(spec)
        names = {r.estimator for r in rows}
        assert names == {"simplified:3", "emcb"}


class TestRunBench:
    def test_toy_bench_fast_and_complete(self, toy_spec):
        import time

        t0 = time.time()
        rows = run_bench(toy_spec, repetitions=100)
        assert time.time() - t0 < 1.0
        assert {r.estimator for r in rows} == {"simplified:3", "ml_grid"}
        for r in rows:
            assert r.median_us > 0 and r.repetitions == 100


class TestSpecPlumbing:
    def test_presets_construct(self):
        for name in ("paper-fig1", "paper-fig2", "paper-fig3"):
            spec = preset_spec(name)
            assert spec.trials == 2000
            assert spec.config.n_subcarriers == 1024

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_spec("paper-fig9")

    @pytest.mark.parametrize("name", [None, []], ids=repr)
    def test_non_string_preset(self, name):
        # an unhashable name too is a config error, not a lookup's TypeError
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_spec(name)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_json_preset_is_preset_spec(self, name):
        # the file's keys replace the preset's fields and nothing else; the
        # command line's iotas key changes no field
        assert preset_spec(name).seed == 42
        assert spec_from_json({"preset": name}) == preset_spec(name)
        assert spec_from_json({"preset": name, "iotas": [3]}) == preset_spec(name)
        assert spec_from_json({"preset": name, "seed": 5}) == replace(preset_spec(name), seed=5)

    def test_json_without_preset_takes_spec_defaults(self, toy_cfg, toy_profile):
        sections = {"config": TOY_SYSTEM, "profile": TOY_JSON["profile"]}
        spec = spec_from_json(sections)
        assert (spec.config, spec.profile) == (toy_cfg, toy_profile)
        assert (spec.estimators, spec.snr_points_db, spec.trials, spec.seed) == (
            ("simplified:1",), (15.0,), 1000, 42)
        assert (spec.cfo, spec.noiseless, spec.emcb_draws) == (None, False, 500)
        # a null cfo is the default: each trial draws its offset
        assert spec_from_json({**sections, "cfo": None}) == spec

    def test_json_preset_with_overrides(self):
        spec = spec_from_json({"preset": "paper-fig3", "trials": 10, "seed": 5})
        assert spec.trials == 10
        assert spec.seed == 5
        assert spec.estimators[0] == "simplified:7"

    def test_json_explicit_config(self, toy_cfg):
        data = {
            "config": {"n_subcarriers": 64, "pilot_len": 8, "n_tx": 2,
                       "n_rx": 2, "cp_len": 10, "chan_len": 8, "offsets": [1, 6]},
            "profile": {"delays": [0, 2, 7], "powers_db": [0, -3, -6]},
            "estimators": ["simplified:3"], "snr_points_db": [10],
            "trials": 3, "seed": 2,
        }
        spec = spec_from_json(data)
        assert spec.config == toy_cfg
        assert spec.trials == 3

    def test_json_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            spec_from_json({"preset": "paper-fig3", "bogus": 1})

    def test_json_requires_config_or_preset(self):
        with pytest.raises(ConfigError):
            spec_from_json({"trials": 5})

    def test_fixed_epsilon_outside_range_rejected(self, toy_spec):
        half = toy_spec.config.cfo_half_range
        for cfo in (half, -half):
            with pytest.raises(ConfigError, match="cfo"):
                replace(toy_spec, cfo=cfo)

    @pytest.mark.parametrize("delays", UNFIT_DELAYS, ids=lambda d: str(d[-1]))
    def test_profile_past_chan_len_rejected(self, toy_spec, delays):
        # the spec holds the rule for every campaign, a bound-only one too,
        # which draws no channel
        with pytest.raises(ConfigError, match="profile length .* exceeds"):
            replace(toy_spec, estimators=("emcb",),
                    profile=ChannelProfile(delays, (0.0, -3.0, -6.0)))

    @pytest.mark.parametrize("field,value,text", MALFORMED_SPEC_VALUES,
                             ids=MALFORMED_SPEC_IDS)
    def test_malformed_values_rejected(self, toy_spec, field, value, text):
        with pytest.raises(ConfigError, match=re.escape(text)):
            replace(toy_spec, **{field: value})


    def test_trials_up_to_the_key_limit(self, toy_spec):
        # keys (1, t) and (2, t) hold t in one uint32 word; only the spec is
        # built, so no campaign of that size runs
        assert replace(toy_spec, trials=2**32).trials == 2**32
        with pytest.raises(ConfigError, match=r"trials must be at most 2\*\*32, got 4294967297"):
            replace(toy_spec, trials=2**32 + 1)


class TestCli:
    def _write_toy_json(self, path, **overrides):
        data = {**TOY_JSON, **overrides}
        path.write_text(json.dumps({k: v for k, v in data.items() if v is not None}))

    def _write_case(self, path, file):
        """A MALFORMED_CLI_CASES case's config file: bytes are the whole file,
        and a dict overrides of the toy config file."""
        if isinstance(file, bytes):
            path.write_bytes(file)
        else:
            self._write_toy_json(path, **file)

    def test_estimate_runs(self, tmp_path, capsys):
        cfg_file = tmp_path / "toy.json"
        self._write_toy_json(cfg_file, estimators=None)
        rc = cli_main(["estimate", "--config", str(cfg_file), "--cfo", "1.2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "estimated_cfo" in out and "candidates" in out

    def test_mse_vs_snr_deterministic_bytes(self, tmp_path, capsys):
        cfg_file = tmp_path / "toy.json"
        self._write_toy_json(cfg_file)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli_main(["mse-vs-snr", "--config", str(cfg_file), "--out", str(out_a)]) == 0
        assert cli_main(["mse-vs-snr", "--config", str(cfg_file), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_preset_flag_overrides_file_key(self, tmp_path):
        # --preset replaces the file's preset, as --seed replaces its seed;
        # the file's other keys still override the preset's values
        def run(preset, *flags):
            cfg_file, out = tmp_path / f"{preset}.json", tmp_path / f"{preset}{len(flags)}.csv"
            cfg_file.write_text(json.dumps({"preset": preset, "trials": 2,
                                            "snr_points_db": [10],
                                            "estimators": ["simplified:7"]}))
            assert cli_main(["mse-vs-snr", "--config", str(cfg_file), *flags,
                             "--out", str(out)]) == 0
            return out.read_bytes()

        flagged = run("paper-fig1", "--preset", "paper-fig3")
        assert flagged == run("paper-fig3")
        assert flagged != run("paper-fig1")

    def test_mse_vs_iota_flag(self, tmp_path, capsys):
        cfg_file = tmp_path / "toy.json"
        self._write_toy_json(cfg_file, estimators=None)
        rc = cli_main(["mse-vs-iota", "--config", str(cfg_file), "--iotas", "1,3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == CSV_HEADER
        assert len(out.strip().splitlines()) == 3

    def test_gen_training_csv(self, tmp_path):
        cfg_file = tmp_path / "toy.json"
        self._write_toy_json(cfg_file)
        out = tmp_path / "train.csv"
        assert cli_main(["gen-training", "--config", str(cfg_file),
                         "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "subcarrier,antenna,real,imag"
        assert len(lines) == 1 + 64 * 2

    def test_missing_config_exit_code(self):
        assert cli_main(["mse-vs-snr"]) == 2

    @pytest.mark.parametrize("powers_db", [[1e308, 1e308], [-4000, -4000]])
    def test_extreme_profile_powers_give_finite_rows(self, tmp_path, powers_db):
        # 10**(dB/10) alone overflows to inf or underflows to 0, and inf/inf or
        # 0/0 would write nan rows
        cfg_file, out = tmp_path / "spec.json", tmp_path / "out.csv"
        cfg_file.write_text(json.dumps({
            "preset": "paper-fig2", "trials": 4, "snr_points_db": [10],
            "profile": {"delays": [0, 3], "powers_db": powers_db}}))
        assert cli_main(["mse-vs-snr", "--config", str(cfg_file), "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert np.isfinite(float(cells["empirical_mse"]))
        assert np.isfinite(float(cells["analytic_mse"]))

    def test_bench_prints_table(self, tmp_path, capsys):
        cfg_file = tmp_path / "toy.json"
        self._write_toy_json(cfg_file, estimators=["simplified:3", "ml_grid"])
        rc = cli_main(["bench", "--config", str(cfg_file), "--repetitions", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "median_us" in out and "speedup" in out

    def test_emcb_subcommand(self, tmp_path, capsys):
        cfg_file = tmp_path / "toy.json"
        self._write_toy_json(cfg_file, emcb_draws=10)
        rc = cli_main(["emcb", "--config", str(cfg_file)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == CSV_HEADER

    def test_estimate_has_no_out_flag(self, tmp_path):
        # estimate prints its text; an --out it never wrote is a usage error
        cfg_file = tmp_path / "toy.json"
        self._write_toy_json(cfg_file, estimators=None)
        out = tmp_path / "est.txt"
        with pytest.raises(SystemExit) as exc:
            cli_main(["estimate", "--config", str(cfg_file), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_estimate_golden_text(self, tmp_path, capsys):
        cfg_file = tmp_path / "toy.json"
        self._write_toy_json(cfg_file, estimators=None)
        assert cli_main(["estimate", "--config", str(cfg_file)]) == 0
        assert capsys.readouterr().out == GOLDEN_ESTIMATE_TEXT

    def test_numeric_flags_take_json_spellings(self, tmp_path, capsys):
        # a JSON number's other spellings of one value print the same estimate
        cfg_file = tmp_path / "toy.json"
        self._write_toy_json(cfg_file, estimators=None)
        texts = []
        for flags in (["--cfo=-1.5", "--snr-db", "15"], ["--cfo=-15e-1", "--snr-db", "1.5E1"],
                      ["--cfo", "-15e-1", "--snr-db", "15"],
                      ["--cfo=-1.5", "--snr-db=-10"], ["--cfo", "-1.5", "--snr-db", "-1e1"]):
            assert cli_main(["estimate", "--config", str(cfg_file), *flags, "--seed", "0",
                             "--diag-index", "3"]) == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == texts[2] and texts[3] == texts[4]
        assert "true_cfo            -1.500000" in texts[0] and texts[0] != texts[3]

    @pytest.mark.parametrize("argv,file,text", MALFORMED_CLI_CASES.values(),
                             ids=MALFORMED_CLI_CASES)
    def test_malformed_input_exit_code(self, tmp_path, capsys, argv, file, text):
        cfg_file = tmp_path / "bad.json"
        self._write_case(cfg_file, file)
        assert cli_main([*argv, "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and text in err
        assert "__init__()" not in err and "mapping" not in err and "None" not in err

    def test_malformed_input_in_child_process(self, tmp_path):
        # what the in-process runner cannot see: no traceback reaches stderr
        # when `python -m cfolab.cli` exits on a spec value, a flag's spelling
        # and a value that the error spells as JSON
        for name in ("trials=2.7", "estimate--diag-index='1_5'", "preset=None"):
            argv, file, text = MALFORMED_CLI_CASES[name]
            cfg_file = tmp_path / "bad.json"
            self._write_case(cfg_file, file)
            run = subprocess.run([sys.executable, "-m", "cfolab.cli", *argv,
                                  "--config", str(cfg_file)],
                                 capture_output=True, text=True, timeout=300, env=package_env())
            assert run.returncode == 2, name
            assert run.stderr.startswith("config error:") and text in run.stderr
            assert "Traceback" not in run.stderr

    def test_estimate_noiseless_recovers_offset(self, tmp_path, capsys):
        cfg_file = tmp_path / "toy.json"
        self._write_toy_json(cfg_file, estimators=None)
        rc = cli_main(["estimate", "--config", str(cfg_file), "--cfo", "1.2",
                       "--noiseless"])
        out = capsys.readouterr().out
        assert rc == 0
        est = float([l for l in out.splitlines()
                     if l.startswith("estimated_cfo")][0].split()[1])
        assert abs(est - 1.2) < 0.05
