"""Seeded experiment campaigns with deterministic CSV output.

Randomness is laid out here, and only here, as `SeedSequence` spawn keys
under the campaign seed, so a campaign is a pure function of (spec, seed):

* ``(0,)``: the random-training draw;
* ``(1, t)``: trial t's channel taps, then its offset;
* ``(2, s, t)``: the unit noise of SNR point s and trial t.

No key depends on the trial count or the number of SNR points, so the draws
are prefix-stable: trials 0..T-1 of a longer campaign draw what a T-trial
campaign draws.  The noise scale is not: a point's noise variance follows the
mean signal power over every trial of the campaign.

Campaigns estimate one frame at a time with the `estimate_*` functions that
`bench` and `cfolab estimate` run, a training kind's simplified indices in one
call; the ML baseline's phase tables are built once per campaign.

`_stacked_frames` is the one path from (spec, trial, SNR point) to a noisy
stacked frame, the (Q,) array of its lag sums, in two passes.  The first
draws every trial's taps and offset and takes the mean signal power from the
taps; the second walks the trials in order, simulates each trial's frames
once from its taps and yields them point by point.  A campaign
holds its taps and offsets, about 0.6 KB per trial at the reference
dimensions (576 B of taps and an 8 B offset), never all its frames.  The
frames that `bench` and `cfolab estimate` run on are trial 0 at the first SNR
point (`one_frame`).

Runtime measurements are confined to the bench command; the campaign CSVs
leave the runtime column empty to keep their bytes reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import IO, Iterable

import numpy as np

from . import analysis, estimator
from .channel import (ChannelProfile, add_noise, draw_channel, reference_profile,
                      signal_power, transmit_receive)
from .numerics import RandomSource
from .training import (OFFSETS_A, OFFSETS_B, ConfigError, SystemConfig,
                       TrainingSet, build_training, is_finite_number, is_integer,
                       reference_config)

# SNR points a campaign accepts, in dB.  Within it every CSV field stays
# finite with a wide margin: 10**(snr/10) neither overflows nor underflows,
# and neither do the noise variance, the closed form's 1/gamma**2 term or the
# bound's noise term.
SNR_RANGE_DB = (-300.0, 300.0)

CSV_HEADER = ("estimator,snr_db,iota,trials,empirical_mse,analytic_mse,"
              "emcb,mean_runtime_us,degenerate_count")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a campaign needs; serialisable to/from JSON."""

    config: SystemConfig
    profile: ChannelProfile
    estimators: tuple[str, ...]
    snr_points_db: tuple[float, ...]
    trials: int
    seed: int
    epsilon_mode: str = "uniform"   # "uniform" | "fixed"
    epsilon_value: float = 0.0
    noiseless: bool = False
    emcb_draws: int = 500  # echoed in the emcb rows' trials column, changes no value

    def __post_init__(self):
        self.profile.check_fits(self.config)
        for key, least in (("trials", 1), ("seed", 0), ("emcb_draws", 1)):
            value = getattr(self, key)
            if not is_integer(value) or value < least:
                raise ConfigError(f"{key} must be an integer >= {least}, got {value!r}")
        if not isinstance(self.noiseless, bool):
            raise ConfigError(f"noiseless must be true or false, got {self.noiseless!r}")
        if self.epsilon_mode not in ("uniform", "fixed"):
            raise ConfigError(f"unknown epsilon_mode {self.epsilon_mode!r}")
        half = self.config.cfo_half_range
        if not is_finite_number(self.epsilon_value) or (
                self.epsilon_mode == "fixed" and not -half < self.epsilon_value < half):
            raise ConfigError(f"epsilon_value must be a number in (-{half}, {half}), "
                              f"got {self.epsilon_value!r}")
        low, high = SNR_RANGE_DB
        if (not isinstance(self.snr_points_db, (tuple, list)) or not self.snr_points_db
                or not all(is_finite_number(v) and low <= v <= high
                           for v in self.snr_points_db)):
            raise ConfigError(f"snr_points_db must be a non-empty list of numbers in "
                              f"[{low:g}, {high:g}] dB, got {self.snr_points_db!r}")
        if (not isinstance(self.estimators, (tuple, list)) or not self.estimators
                or not all(isinstance(e, str) for e in self.estimators)):
            raise ConfigError("estimators must be a non-empty list of estimator "
                              f"ids, got {self.estimators!r}")
        if len(set(self.estimators)) < len(self.estimators):
            raise ConfigError(f"estimators must not repeat an id, got {self.estimators!r}")
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
            raise ConfigError(f"{name} needs a diagonal index, e.g. '{name}:7'")
        # one spelling per index, so no two ids of one index pass the repeat check
        if arg not in map(str, range(1, cfg.n_periods)):
            raise ConfigError(f"diagonal index must be an integer in [1, {cfg.n_periods - 1}] "
                              f"in plain decimal, got {arg!r}")
        return ("simplified", "cbts" if name == "simplified" else "rs", int(arg))
    raise ConfigError(f"unknown estimator id {est_id!r}")


def _wrap_error(err: float, n_periods: int) -> float:
    """Circular difference: the CFO is only identifiable modulo Q."""
    half = n_periods / 2.0
    return (err + half) % n_periods - half


def campaign_training(spec: ExperimentSpec, kind: str) -> TrainingSet:
    """The campaign's training of one kind; rs draws on key (0,)."""
    rng = RandomSource(spec.seed, (0,)) if kind == "rs" else None
    return build_training(spec.config, kind, rng)


def _trainings_for(spec: ExperimentSpec) -> dict[str, TrainingSet]:
    kinds = {parse_estimator_id(e, spec.config)[1]
             for e in spec.estimators if not e.startswith("emcb")}
    return {kind: campaign_training(spec, kind) for kind in sorted(kinds)}


def _stacked_frames(spec: ExperimentSpec, trainings: dict[str, TrainingSet]):
    """Yield (snr_index, cfo, {kind: lag sums of the noisy frame}), trial-major.

    Pass 1 draws each trial's taps on the profile's delays, then its offset,
    on key (1, trial) into one (trials, n_rx, n_tx, D) array: a point's noise
    variance per training kind is the mean `signal_power` of every trial over
    the SNR.  Pass 2 simulates each trial's noiseless frames once from its
    slice of that array and adds, per point, the unit noise of key
    (2, point, trial).  Yields nothing when the spec asks for no training.
    """
    if not trainings:
        return
    cfg, delays, half = spec.config, spec.profile.delays, spec.config.cfo_half_range
    cfos = np.empty(spec.trials)
    taps = np.empty((spec.trials, cfg.n_rx, cfg.n_tx, len(delays)), dtype=complex)
    for t in range(spec.trials):
        gen = RandomSource(spec.seed, (1, t)).generator()
        taps[t] = draw_channel(spec.profile, cfg, gen)
        # uniform() is closed at the lower end; nudge the endpoint inward
        cfos[t] = (spec.epsilon_value if spec.epsilon_mode == "fixed"
                   else np.nextafter(gen.uniform(-half, half), 0.0))
    mean_power = {kind: float(np.mean(signal_power(ts, spec.profile, taps)))
                  for kind, ts in trainings.items()}
    noise_var = [{k: (0.0 if spec.noiseless else mean_power[k] / 10.0 ** (db / 10.0))
                  for k in trainings} for db in spec.snr_points_db]
    for trial, cfo in enumerate(cfos.tolist()):
        frames = {kind: transmit_receive(ts, spec.profile, taps[trial], cfo, cfg)
                  for kind, ts in trainings.items()}
        for s_idx, var in enumerate(noise_var):
            gen = RandomSource(spec.seed, (2, s_idx, trial)).generator()
            yield s_idx, cfo, {kind: estimator.stack(frame, cfg)
                               for kind, frame in add_noise(frames, var, gen).items()}


def one_frame(spec: ExperimentSpec, cfo: float) -> dict[str, np.ndarray]:
    """Trial 0 of the campaign layout at the first SNR point, offset fixed at `cfo`:
    the lag sums of one frame per training kind of the spec's estimators."""
    spec = replace(spec, trials=1, epsilon_mode="fixed", epsilon_value=cfo)
    return next(_stacked_frames(spec, _trainings_for(spec)))[2]


def run_mse_vs_snr(spec: ExperimentSpec) -> list[ResultRow]:
    """Per (estimator, SNR point): seeded trials, squared circular error averaged.

    All estimators at one SNR point see the same channels, offsets and (up to
    the per-kind noise scaling) the same noise draws, so comparisons between
    them are paired.  A frame's simplified indices of one kind take one call,
    with the bits of one call per index.  Degenerate-diagonal failures are
    counted per row and excluded from the average.  The analytic MSE of a
    structured-training simplified row is the noise-only closed form plus the
    index's noiseless bias floor; noiseless campaigns, and indices where the
    comb-weighted diagonal sum can vanish (`analysis.comb_sum_can_vanish`),
    leave it empty.
    """
    cfg = spec.config
    parsed = [(e, *parse_estimator_id(e, cfg)) for e in spec.estimators]
    mc_ids = [p for p in parsed if p[1] != "emcb"]
    # before the trials, so a bound that diverges fails fast
    bound_rows = run_emcb(spec) if any(p[1] == "emcb" for p in parsed) else []

    # the noiseless bias floor depends on the index alone, not on the SNR;
    # indices whose diagonal sum can vanish get no prediction
    floors: dict[int, float] = {}
    for _, method, kind, idx in mc_ids:
        if method == "simplified" and kind == "cbts" and not spec.noiseless:
            try:
                if not analysis.comb_sum_can_vanish(idx, cfg):
                    floors[idx] = analysis.bias_floor(idx, cfg, spec.profile)
            except estimator.DegenerateDiagonalError:
                pass

    # one call per frame, method and kind; a lone simplified index passes an
    # int, the per-frame path, which is cheaper alone than a sequence
    groups: dict[tuple[str, str], list] = {}
    for est_id, method, kind, idx in mc_ids:
        groups.setdefault((method, kind), []).append((est_id, idx))
    sq_errors = [{est_id: [] for est_id, *_ in mc_ids} for _ in spec.snr_points_db]
    tables = estimator.ml_tables(cfg) if ("ml_grid", "cbts") in groups else None
    for s_idx, cfo, stacked in _stacked_frames(spec, _trainings_for(spec)):
        for (method, kind), members in groups.items():
            ids, idxs = zip(*members)
            try:
                if method == "ml_grid":
                    results = [estimator.estimate_ml_grid(stacked[kind], cfg, tables)]
                elif len(idxs) > 1:
                    results = estimator.estimate_simplified(stacked[kind], idxs, cfg)
                else:
                    results = [estimator.estimate_simplified(stacked[kind], idxs[0], cfg)]
            except estimator.DegenerateDiagonalError:
                results = [None]
            for est_id, res in zip(ids, results):
                if res is not None:
                    sq_errors[s_idx][est_id].append(
                        _wrap_error(res.value - cfo, cfg.n_periods) ** 2)

    rows: list[ResultRow] = []
    for snr_db, errors_at in zip(spec.snr_points_db, sq_errors):
        for est_id, method, kind, idx in mc_ids:
            errs = errors_at[est_id]
            analytic = None
            if kind == "cbts" and idx in floors:
                gamma = 10.0 ** (snr_db / 10.0) / cfg.n_tx
                analytic = analysis.predicted_mse(gamma, idx, cfg) + floors[idx]
            rows.append(ResultRow(
                estimator=est_id, snr_db=float(snr_db), iota=idx,
                trials=spec.trials,
                empirical_mse=float(np.mean(errs)) if errs else None,
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


def run_bench(spec: ExperimentSpec, repetitions: int = 200) -> list[BenchRow]:
    """Wall-clock comparison of the estimators on one shared noisy frame."""
    if repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {repetitions}")
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
        fh.write(",".join(_fmt(v) for v in (
            r.estimator, r.snr_db, r.iota, r.trials, r.empirical_mse,
            r.analytic_mse, r.emcb, r.mean_runtime_us, r.degenerate_count)) + "\n")


def rows_to_csv(rows: list[ResultRow]) -> str:
    import io

    buf = io.StringIO()
    write_csv(rows, buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Preset and JSON plumbing

PRESET_NAMES = ("paper-fig1", "paper-fig2", "paper-fig3")


def preset_spec(name: str, seed: int = 42) -> ExperimentSpec:
    """Shipped reference campaigns.

    paper-fig1 / paper-fig2: diagonal-index sweeps at 10/15/20 dB for the two
    reference offset sets.  paper-fig3: MSE vs SNR for the structured and
    random designs plus the grid-search baseline and the bound.
    """
    if name == "paper-fig1":
        return ExperimentSpec(
            config=reference_config(OFFSETS_A), profile=reference_profile(),
            estimators=("simplified:8",), snr_points_db=(10.0, 15.0, 20.0),
            trials=2000, seed=seed)
    if name == "paper-fig2":
        return ExperimentSpec(
            config=reference_config(OFFSETS_B), profile=reference_profile(),
            estimators=("simplified:7",), snr_points_db=(10.0, 15.0, 20.0),
            trials=2000, seed=seed)
    if name == "paper-fig3":
        return ExperimentSpec(
            config=reference_config(OFFSETS_B), profile=reference_profile(),
            estimators=("simplified:7", "simplified_rs:7", "ml_grid", "emcb"),
            snr_points_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0),
            trials=2000, seed=seed)
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def _from_section(cls, name: str, section):
    """Build `cls` from a JSON object of its fields.  A non-object, an unknown or
    a missing key is the call's TypeError; the constructors check value types."""
    try:
        return cls(**section)
    except TypeError as exc:
        raise ConfigError(f"{name} section: {exc}") from None


def spec_from_json(data: dict) -> ExperimentSpec:
    """Build a spec from a JSON-shaped dict; `preset` expands first, every
    other key overrides the expanded values."""
    data = dict(data)
    preset = data.pop("preset", None)
    base = preset_spec(preset, seed=data.get("seed", 42)) if preset else None

    if "config" in data:
        config = _from_section(SystemConfig, "config", data.pop("config"))
    elif base:
        config = base.config
    else:
        raise ConfigError("config section (or preset) is required")

    if "profile" in data:
        profile = _from_section(ChannelProfile, "profile", data.pop("profile"))
    elif base:
        profile = base.profile
    else:
        raise ConfigError("profile section (or preset) is required")

    def pick(key, default):
        if key in data:
            return data.pop(key)
        return getattr(base, key) if base else default

    # values pass through uncoerced: ExperimentSpec rejects malformed ones
    spec = ExperimentSpec(
        config=config, profile=profile,
        estimators=pick("estimators", ("simplified:1",)),
        snr_points_db=pick("snr_points_db", (15.0,)),
        trials=pick("trials", 1000),
        seed=pick("seed", 42),
        epsilon_mode=pick("epsilon_mode", "uniform"),
        epsilon_value=pick("epsilon_value", 0.0),
        noiseless=pick("noiseless", False),
        emcb_draws=pick("emcb_draws", 500),
    )
    data.pop("iotas", None)  # consumed by the CLI, not the spec
    if data:
        raise ConfigError(f"unknown config keys: {sorted(data)}")
    return spec
