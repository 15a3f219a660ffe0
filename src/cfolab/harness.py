"""Seeded experiment campaigns with deterministic CSV output.

Randomness is laid out here, and only here, as `SeedSequence` spawn keys
under the campaign seed, so a campaign is a pure function of (spec, seed):

* ``(0,)``: the random-training draw;
* ``(1,)``: the channel taps, trial after trial;
* ``(2,)``: the unit noise, trial after trial, scaled per SNR point and
  training kind;
* ``(3,)``: the offsets, trial after trial, unless the spec's ``cfo`` fixes
  every trial's offset.

Each stream is one generator, read in trial order, and no key depends on the
trial count or the number of SNR points.  A point's noise variance is the
training's expected frame power per sample over the SNR, as the bound takes
it, so trials are prefix-stable: trials 0..T-1 of a longer campaign give the
lag sums of a T-trial campaign, whatever the chunk size.  Rows at different
SNR points share each trial's noise, as they share its channel and offset
(common random numbers), so each row keeps its law.

`_stacked_frames` is the one path from (spec, trial, SNR point) to noisy
stacked frames: per point, a chunk of CHUNK_FRAMES trials as a (T, Q) array of
lag sums per training kind.  A campaign holds one chunk per point and kind
and its squared errors (8 B per trial, point and estimator), never all its
frames.  `bench` and `cfolab estimate` run on row 0 of the first chunk.

Campaigns estimate with the `estimate_*` functions that `bench` and `cfolab
estimate` run: a group of simplified indices one call per chunk, a lone index
and the ML baseline one call per row, which the benchmark pins.  Their errors
take one path, and no byte depends on the chunk size.

Runtime measurements are confined to the bench command; the campaign CSVs
leave the runtime column empty to keep their bytes reproducible.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, dataclass, fields, replace
from typing import IO, Iterable

import numpy as np

from . import analysis, estimator
from .channel import ChannelProfile, draw_channel, reference_profile, transmit_receive
from .numerics import RandomSource, complex_normal
from .training import (OFFSETS_A, OFFSETS_B, ConfigError, SystemConfig,
                       TrainingSet, build_training, is_finite_number, is_integer,
                       json_text, reference_config)

# SNR points a campaign accepts, in dB.  Within it every CSV field stays
# finite with a wide margin: 10**(snr/10) neither overflows nor underflows,
# and neither do the noise variance, the closed form's 1/gamma**2 term or the
# bound's noise term.
SNR_RANGE_DB = (-300.0, 300.0)

# trials per chunk of the frame stream: a group of simplified indices
# estimates a chunk of one SNR point and training kind per call, its score
# products stay small, and no byte depends on the chunk size
CHUNK_FRAMES = 64


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a campaign needs; its field defaults are a JSON spec's only ones.
    A null `cfo` draws each trial's offset on (-Q/2, Q/2); a number fixes them all."""

    config: SystemConfig
    profile: ChannelProfile
    estimators: tuple[str, ...] = ("simplified:1",)
    snr_points_db: tuple[float, ...] = (15.0,)
    trials: int = 1000
    seed: int = 42
    cfo: float | None = None
    noiseless: bool = False
    emcb_draws: int = 500  # echoed in the emcb rows' trials column, changes no value

    def __post_init__(self):
        self.profile.check_fits(self.config)
        for key, least in (("trials", 1), ("seed", 0), ("emcb_draws", 1)):
            value = getattr(self, key)
            if not is_integer(value) or value < least:
                raise ConfigError(f"{key} must be an integer >= {least}, got {json_text(value)}")
        # past it the (points, estimators, trials) squared errors need over
        # 32 GiB per point and estimator: a MemoryError traceback, not a config error
        if self.trials > 2**32:
            raise ConfigError(f"trials must be at most 2**32, got {json_text(self.trials)}")
        if not isinstance(self.noiseless, bool):
            raise ConfigError(f"noiseless must be true or false, got {json_text(self.noiseless)}")
        half = self.config.cfo_half_range
        if self.cfo is not None and not (is_finite_number(self.cfo) and -half < self.cfo < half):
            raise ConfigError(f"cfo must be null or a number in (-{half}, {half}), "
                              f"got {json_text(self.cfo)}")
        low, high = SNR_RANGE_DB
        if (not isinstance(self.snr_points_db, (tuple, list)) or not self.snr_points_db
                or not all(is_finite_number(v) and low <= v <= high
                           for v in self.snr_points_db)):
            raise ConfigError(f"snr_points_db must be a non-empty list of numbers in "
                              f"[{low:g}, {high:g}] dB, got {json_text(self.snr_points_db)}")
        if len(set(self.snr_points_db)) < len(self.snr_points_db):
            raise ConfigError(f"snr_points_db repeat a point: {json_text(self.snr_points_db)}")
        if (not isinstance(self.estimators, (tuple, list)) or not self.estimators
                or not all(isinstance(e, str) for e in self.estimators)):
            raise ConfigError("estimators must be a non-empty list of estimator "
                              f"ids, got {json_text(self.estimators)}")
        if len(set(self.estimators)) < len(self.estimators):
            raise ConfigError(f"estimators repeat an id: {json_text(self.estimators)}")
        for est_id in self.estimators:
            parse_estimator_id(est_id, self.config)
        if self.noiseless and "emcb" in self.estimators:
            raise ConfigError("a noiseless campaign has no noise for emcb to bound")
        # JSON hands over lists and integer SNRs; store the declared types
        object.__setattr__(self, "estimators", tuple(self.estimators))
        object.__setattr__(self, "snr_points_db", tuple(map(float, self.snr_points_db)))


@dataclass(frozen=True)
class ResultRow:
    estimator: str
    snr_db: float
    iota: int | None
    trials: int
    empirical_mse: float | None
    analytic_mse: float | None
    emcb: float | None
    mean_runtime_us: float | None
    degenerate_count: int


# the campaign CSV's columns, in ResultRow's field order
CSV_FIELDS = tuple(f.name for f in fields(ResultRow))
CSV_HEADER = ",".join(CSV_FIELDS)


@dataclass(frozen=True)
class BenchRow:
    estimator: str
    repetitions: int
    median_us: float
    mean_us: float


def parse_estimator_id(est_id: str, cfg: SystemConfig):
    """'simplified:7' | 'simplified_rs:7' | 'ml_grid' | 'emcb' -> (method, kind, index)."""
    name, _, arg = est_id.partition(":")
    if name == "ml_grid":
        return ("ml_grid", "cbts", None)
    if name == "emcb":
        return ("emcb", "cbts", None)
    if name in ("simplified", "simplified_rs"):
        if not arg:
            raise ConfigError(f'{name} needs a diagonal index, e.g. "{name}:7"')
        idx = diag_index(arg, cfg, f"estimator {json_text(est_id)}")
        return ("simplified", "cbts" if name == "simplified" else "rs", idx)
    raise ConfigError(f"unknown estimator id {json_text(est_id)}")


def diag_index(value, cfg: SystemConfig, name: str) -> int:
    """`value`, text or an integer, as a diagonal index of `cfg`; `name` is the
    input that gave it.  Text takes plain decimal alone, one spelling per index,
    so no two spellings of one index pass a repeat check."""
    if str(value) not in map(str, range(1, cfg.n_periods)):
        raise ConfigError(f"{name} takes diagonal indices in [1, {cfg.n_periods - 1}] "
                          f"in plain decimal, got {json_text(value)}")
    return int(value)


def campaign_training(spec: ExperimentSpec, kind: str) -> TrainingSet:
    """The campaign's training of one kind; rs draws on key (0,)."""
    rng = RandomSource(spec.seed, (0,)) if kind == "rs" else None
    return build_training(spec.config, kind, rng)


def _trainings_for(spec: ExperimentSpec) -> dict[str, TrainingSet]:
    kinds = {parse_estimator_id(e, spec.config)[1]
             for e in spec.estimators if not e.startswith("emcb")}
    return {kind: campaign_training(spec, kind) for kind in sorted(kinds)}


def _stacked_frames(spec: ExperimentSpec, trainings: dict[str, TrainingSet]):
    """Yield (snr_index, trials, cfos, {kind: (T, Q) lag sums}) per chunk of
    CHUNK_FRAMES trials and SNR point; row t is trial trials.start + t.

    Trial t draws its taps on the profile's delays from stream (1,) and its
    offset from (3,), simulates each training kind's noiseless frame once and
    adds its unit noise from (2,), scaled per point and kind: the one place
    noise enters a frame.  A point's and kind's noise variance is the expected
    noiseless power per sample, `TrainingSet.energy` over N, over the linear
    SNR, as the bound takes it, so no trial's frames depend on another's.
    Yields nothing without a training.
    """
    if not trainings:
        return
    cfg, half = spec.config, spec.config.cfo_half_range
    noise_std = [{kind: np.sqrt(0.0 if spec.noiseless
                                else ts.energy / cfg.n_subcarriers / 10.0 ** (db / 10.0))
                  for kind, ts in trainings.items()} for db in spec.snr_points_db]
    channels, noise, offsets = (RandomSource(spec.seed, (k,)).generator() for k in (1, 2, 3))
    for start in range(0, spec.trials, CHUNK_FRAMES):
        trials = slice(start, min(start + CHUNK_FRAMES, spec.trials))
        cfos = np.empty(trials.stop - start)
        sums = [{kind: np.empty((len(cfos), cfg.n_periods), dtype=complex)
                 for kind in trainings} for _ in noise_std]
        for row in range(len(cfos)):
            taps = draw_channel(spec.profile, cfg, channels)
            # uniform() is closed at the lower end; nudge the endpoint inward
            cfos[row] = (np.nextafter(offsets.uniform(-half, half), 0.0) if spec.cfo is None
                         else spec.cfo)
            frames = {kind: transmit_receive(ts, spec.profile, taps, cfos[row], cfg)
                      for kind, ts in trainings.items()}
            # after the frames: drawn before them, single-point campaigns ran about 5% slower
            unit = complex_normal(noise, (cfg.n_rx, cfg.n_subcarriers))
            for kind, frame in frames.items():
                for at_point, std in zip(sums, noise_std):
                    at_point[kind][row] = estimator.stack(frame + std[kind] * unit, cfg)
        for s_idx, at_point in enumerate(sums):
            yield s_idx, trials, cfos, at_point


def one_frame(spec: ExperimentSpec, cfo: float) -> dict[str, np.ndarray]:
    """Trial 0 of the campaign layout at the first SNR point, offset fixed at `cfo`:
    the lag sums of one frame per training kind of the spec's estimators."""
    spec = replace(spec, trials=1, cfo=cfo)
    sums = next(_stacked_frames(spec, _trainings_for(spec)))[3]
    return {kind: c[0] for kind, c in sums.items()}


def _lone_value(method: str, idx, c: np.ndarray, cfg: SystemConfig, tables) -> float:
    """One frame's estimate by a lone estimator; NaN on a degenerate diagonal."""
    try:
        return (estimator.estimate_ml_grid(c, cfg, tables) if method == "ml_grid"
                else estimator.estimate_simplified(c, idx, cfg)).value
    except estimator.DegenerateDiagonalError:
        return np.nan


def run_mse_vs_snr(spec: ExperimentSpec) -> list[ResultRow]:
    """Per (estimator, SNR point): seeded trials, squared circular error averaged.

    All estimators and SNR points see the same channels, offsets and (up to
    the per-point and per-kind noise scaling) the same noise draws, so
    comparisons between them are paired.  A group of simplified indices gives
    the bits of one call per frame and index.  Degenerate-diagonal failures
    are counted per row and excluded from the average, taken in trial order.
    The analytic MSE of a structured-training simplified row is the
    noise-only closed form plus the index's noiseless bias floor; noiseless
    campaigns, and indices where the comb-weighted diagonal sum can vanish
    (`analysis.comb_sum_can_vanish`), leave it empty.
    """
    cfg = spec.config
    parsed = [(e, *parse_estimator_id(e, cfg)) for e in spec.estimators]
    mc_ids = [p for p in parsed if p[1] != "emcb"]
    # before the trials, so a bound that diverges fails fast
    bound_rows = run_emcb(spec) if any(p[1] == "emcb" for p in parsed) else []

    # the noiseless bias floor depends on the index alone, not on the SNR;
    # indices whose diagonal sum can vanish (blind ones too) get no prediction
    floors = {idx: analysis.bias_floor(idx, cfg, spec.profile)
              for _, method, kind, idx in mc_ids
              if method == "simplified" and kind == "cbts" and not spec.noiseless
              and not analysis.comb_sum_can_vanish(idx, cfg)}

    # a group of simplified indices takes one call per chunk; a lone index and
    # the ML baseline one call per row, which perfbench's traced counts pin
    groups: dict[tuple[str, str], list] = {}
    for col, (_, method, kind, idx) in enumerate(mc_ids):
        groups.setdefault((method, kind), []).append((col, idx))
    # squared errors by point, estimator and trial; NaN where a diagonal was degenerate
    sq_errors = np.full((len(spec.snr_points_db), len(mc_ids), spec.trials), np.nan)
    tables = estimator.ml_tables(cfg) if ("ml_grid", "cbts") in groups else None
    for s_idx, trials, cfos, sums in _stacked_frames(spec, _trainings_for(spec)):
        for (method, kind), members in groups.items():
            cols, idxs = zip(*members)
            values = (estimator.estimate_simplified(sums[kind], idxs, cfg) if len(idxs) > 1
                      else np.array([[_lone_value(method, idxs[0], c, cfg, tables)]
                                     for c in sums[kind]]))
            errors = estimator.wrap_offset(values - cfos[:, None], cfg.n_periods).T
            # an IEEE multiply, the same bits everywhere; Python's ** calls libm's pow
            sq_errors[s_idx, list(cols), trials] = errors * errors

    rows: list[ResultRow] = []
    for snr_db, errors_at in zip(spec.snr_points_db, sq_errors):
        for (est_id, method, kind, idx), errors in zip(mc_ids, errors_at):
            errs = errors[~np.isnan(errors)]
            analytic = None
            if kind == "cbts" and idx in floors:
                gamma = 10.0 ** (snr_db / 10.0) / cfg.n_tx
                analytic = analysis.predicted_mse(gamma, idx, cfg) + floors[idx]
            rows.append(ResultRow(
                estimator=est_id, snr_db=float(snr_db), iota=idx,
                trials=spec.trials,
                empirical_mse=float(np.mean(errs)) if len(errs) else None,
                analytic_mse=analytic, emcb=None, mean_runtime_us=None,
                degenerate_count=spec.trials - len(errs)))

    return rows + bound_rows


def run_mse_vs_iota(spec: ExperimentSpec, iota_list: Iterable[int]) -> list[ResultRow]:
    """Sweep the simplified estimator's diagonal index on a common frame set."""
    ids = tuple(f"simplified:{i}" for i in iota_list)
    return run_mse_vs_snr(replace(spec, estimators=ids))


def run_emcb(spec: ExperimentSpec) -> list[ResultRow]:
    """Bound rows matching the campaign CSV schema (empirical column empty)."""
    if spec.noiseless:
        raise ConfigError("a noiseless campaign has no noise for emcb to bound")
    values = analysis.emcb(spec.config, spec.profile, spec.snr_points_db)
    return [ResultRow(estimator="emcb", snr_db=db, iota=None,
                      trials=spec.emcb_draws, empirical_mse=None,
                      analytic_mse=None, emcb=val, mean_runtime_us=None,
                      degenerate_count=0)
            for db, val in zip(spec.snr_points_db, values)]


def run_bench(spec: ExperimentSpec, repetitions: int) -> list[BenchRow]:
    """Wall-clock comparison of the estimators on one shared noisy frame."""
    if not is_integer(repetitions) or repetitions < 1:
        raise ConfigError(f"repetitions must be an integer >= 1, got {json_text(repetitions)}")
    if set(spec.estimators) == {"emcb"}:
        raise ConfigError("bench times Monte Carlo estimators (simplified:<i>, "
                          "simplified_rs:<i>, ml_grid); emcb alone has none")
    cfg = spec.config
    stacked = one_frame(spec, 2.3 if cfg.cfo_half_range > 2.3 else 0.3)

    rows = []
    for est_id in spec.estimators:
        method, kind, idx = parse_estimator_id(est_id, cfg)
        if method == "emcb":
            continue
        if method == "simplified":
            call = lambda sf=stacked[kind], i=idx: estimator.estimate_simplified(sf, i, cfg)
        else:
            call = lambda sf=stacked[kind]: estimator.estimate_ml_grid(sf, cfg)
        call()  # warm up
        times = np.empty(repetitions)
        for r in range(repetitions):
            t0 = time.perf_counter()
            call()
            times[r] = time.perf_counter() - t0
        rows.append(BenchRow(estimator=est_id, repetitions=repetitions,
                             median_us=float(np.median(times) * 1e6),
                             mean_us=float(np.mean(times) * 1e6)))
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_csv(rows: list[ResultRow], fh: IO[str]) -> None:
    fh.write(CSV_HEADER + "\n")
    for r in rows:
        fh.write(",".join(_fmt(getattr(r, name)) for name in CSV_FIELDS) + "\n")


def rows_to_csv(rows: list[ResultRow]) -> str:
    import io

    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Preset and JSON plumbing: `_from_object` reads the spec and its sections

# Shipped reference campaigns at the reference config and profile, 2000 trials:
# name -> (comb offsets, estimators, SNR points in dB).  paper-fig1 / paper-fig2
# sweep the diagonal index at 10/15/20 dB for the two reference offset sets;
# paper-fig3 is MSE vs SNR of both designs, the grid-search baseline and the bound.
PRESETS = {
    "paper-fig1": (OFFSETS_A, ("simplified:8",), (10.0, 15.0, 20.0)),
    "paper-fig2": (OFFSETS_B, ("simplified:7",), (10.0, 15.0, 20.0)),
    "paper-fig3": (OFFSETS_B, ("simplified:7", "simplified_rs:7", "ml_grid", "emcb"),
                   (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)),
}
PRESET_NAMES = tuple(PRESETS)


def preset_spec(name: str) -> ExperimentSpec:
    """The spec of the shipped reference campaign `name` (see PRESETS)."""
    # a tuple compares by ==, so a name of any type, unhashable too, is refused here
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {json_text(name)}; presets: {json_text(PRESET_NAMES)}")
    offsets, estimators, snr_points_db = PRESETS[name]
    return ExperimentSpec(config=reference_config(offsets), profile=reference_profile(),
                          estimators=estimators, snr_points_db=snr_points_db, trials=2000)


def _from_object(cls, name: str, obj, base=None):
    """Build `cls` from a JSON object of its fields, or replace them in `base`.
    A non-object, an unknown key and, without `base`, a missing required key
    are refused here in JSON terms; the constructor checks the values."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{name} must be a JSON object, got {json_text(obj)}")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown {name} keys: {json_text(unknown)}")
    missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in obj]
    if base is None and missing:
        raise ConfigError(f"{name} is missing keys: {json_text(missing)}")
    return replace(base, **obj) if base else cls(**obj)


def spec_from_json(data: dict) -> ExperimentSpec:
    """A spec from a JSON-shaped dict: `preset` expands first, and a value of it
    that names no preset is refused, never ignored; other keys override it and
    absent ones take ExperimentSpec's defaults.  The CLI's `iotas` is dropped.
    Values pass through uncoerced: the constructors refuse malformed ones."""
    data = {key: value for key, value in data.items() if key != "iotas"}
    base = preset_spec(data.pop("preset")) if "preset" in data else None
    for name, cls in (("config", SystemConfig), ("profile", ChannelProfile)):
        if name in data:
            data[name] = _from_object(cls, f"{name} section", data[name])
    return _from_object(ExperimentSpec, "config", data, base)
