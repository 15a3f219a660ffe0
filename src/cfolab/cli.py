"""Command-line entry point.

Subcommands map one-to-one onto the harness campaigns plus two utilities:
``estimate`` runs the estimator once on a synthetic frame and prints its
internals, ``gen-training`` exports the training design as CSV.  Config
errors exit with status 2; everything else that succeeds exits 0.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import replace

from . import analysis, estimator, harness
from .training import ConfigError, export_training_csv, is_integer, json_text


def _flag(name: str, text: str):
    """A numeric flag's value as a JSON spec gives it: an int in plain decimal or
    a float, never with the underscores, leading zeros, plus sign or spaces that
    Python's int() and float() take.  The spec checks the value's type and range."""
    try:
        if re.fullmatch(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?", text):
            return json.loads(text)
    except ValueError:  # an integer longer than Python converts
        pass
    raise ConfigError(f"{name} must be a JSON number, got {json_text(text)}")


# spec keys a command sets from its own flags, which its config file may not name
FLAG_KEYS = {"estimate": {"cfo": "--cfo", "snr_points_db": "--snr-db", "noiseless": "--noiseless",
                          "estimators": "--diag-index"},
             "mse-vs-iota": {"estimators": "iotas or --iotas"}}


def _spec_from_args(args) -> tuple[harness.ExperimentSpec, list | None]:
    """Resolve --config / --preset / --seed into a spec and the file's iotas or None."""
    raw: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except ValueError as exc:  # not UTF-8, not JSON, or an integer past int()'s limit
            raise ConfigError(f"{args.config} is not a JSON config: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{args.config} must hold a JSON object, got {json_text(raw)}")
    if args.preset:
        raw["preset"] = args.preset
    if args.seed is not None:
        raw["seed"] = _flag("--seed", args.seed)
    if not raw:
        raise ConfigError("provide --config FILE and/or --preset NAME")
    iotas = raw.get("iotas")
    if "iotas" in raw and args.command != "mse-vs-iota":
        raise ConfigError(f"iotas applies to mse-vs-iota only, not to {args.command}")
    if "iotas" in raw and not (isinstance(iotas, list) and iotas and all(map(is_integer, iotas))):
        raise ConfigError(f"iotas must be a non-empty list of JSON integers: {json_text(iotas)}")
    for key, flag in FLAG_KEYS.get(args.command, {}).items():
        if key in raw:  # the command's flag sets it, so the file's value would be ignored
            raise ConfigError(f"{args.command} takes no {key} key; give {flag}")
    return harness.spec_from_json(raw), iotas


def _emit(rows, out_path: str | None) -> None:
    text = harness.rows_to_csv(rows)
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_estimate(args) -> int:
    spec, _ = _spec_from_args(args)
    cfg = spec.config
    cfo, snr_db = _flag("--cfo", args.cfo), _flag("--snr-db", args.snr_db)
    spec = replace(spec, estimators=("simplified:1",), snr_points_db=(snr_db,),
                   noiseless=args.noiseless)
    sf = harness.one_frame(spec, cfo)["cbts"]
    if args.diag_index is not None:
        idx = harness.parse_estimator_id(f"simplified:{args.diag_index}", cfg)[2]
    else:
        gamma = 1e6 if args.noiseless else 10.0 ** (snr_db / 10.0) / cfg.n_tx
        idx = analysis.optimal_diag_indices(gamma, cfg)[0]
    res = estimator.estimate_simplified(sf, idx, cfg)
    print(f"true_cfo            {cfo:+.6f}")
    print(f"estimated_cfo       {res.value:+.6f}")
    print(f"diag_index          {idx}")
    print(f"diag_ratio          {res.diag_ratio.real:+.6e}{res.diag_ratio.imag:+.6e}j")
    print("candidates          " + " ".join(f"{c:+.4f}" for c in res.candidates))
    print("scores              " + " ".join(f"{s:.6e}" for s in res.scores))
    return 0


def _cmd_mse_vs_snr(args) -> int:
    spec, _ = _spec_from_args(args)
    _emit(harness.run_mse_vs_snr(spec), args.out)
    return 0


def _cmd_mse_vs_iota(args) -> int:
    spec, iotas = _spec_from_args(args)
    if args.iotas is not None:  # text items: the estimator ids take only plain decimal
        iotas = args.iotas.split(",")
    _emit(harness.run_mse_vs_iota(spec, iotas or range(1, spec.config.n_periods)), args.out)
    return 0


def _cmd_emcb(args) -> int:
    spec, _ = _spec_from_args(args)
    _emit(harness.run_emcb(spec), args.out)
    return 0


def _cmd_bench(args) -> int:
    spec, _ = _spec_from_args(args)
    bench = harness.run_bench(spec, repetitions=_flag("--repetitions", args.repetitions))
    print(f"{'estimator':<20} {'reps':>6} {'median_us':>12} {'mean_us':>12}")
    for row in bench:
        print(f"{row.estimator:<20} {row.repetitions:>6} "
              f"{row.median_us:>12.1f} {row.mean_us:>12.1f}")
    medians = {r.estimator: r.median_us for r in bench}
    simplified = [v for k, v in medians.items() if k.startswith("simplified")]
    if "ml_grid" in medians and simplified:
        print(f"speedup ml_grid/simplified: {medians['ml_grid'] / min(simplified):.1f}x")
    if args.out:
        _emit([harness.ResultRow(
            estimator=r.estimator, snr_db=spec.snr_points_db[0], iota=None,
            trials=r.repetitions, empirical_mse=None, analytic_mse=None,
            emcb=None, mean_runtime_us=r.mean_us, degenerate_count=0)
            for r in bench], args.out)
    return 0


def _cmd_gen_training(args) -> int:
    spec, _ = _spec_from_args(args)
    ts = harness.campaign_training(spec, args.kind)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            export_training_csv(ts, spec.config, fh)
    else:
        export_training_csv(ts, spec.config, sys.stdout)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfolab",
        description="MIMO-OFDM carrier frequency offset estimation lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, writes_csv=True):
        # -15e-1 after a flag is its value, not an option: argparse's own
        # pattern takes only -1, -1.5 and -.5 for negative numbers
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.add_argument("--config", help="JSON experiment file")
        p.add_argument("--preset", choices=harness.PRESET_NAMES,
                       help="shipped reference campaign")
        p.add_argument("--seed", default=None, help="master seed")
        if writes_csv:
            p.add_argument("--out", help="write CSV here instead of stdout")

    p = sub.add_parser("estimate", help="run one frame and print the estimate")
    common(p, writes_csv=False)
    p.add_argument("--cfo", default="2.3", help="true offset in spacings")
    p.add_argument("--snr-db", default="15.0",
                   help="SNR in dB; omit noise with --noiseless")
    p.add_argument("--noiseless", action="store_true")
    p.add_argument("--diag-index", default=None)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("mse-vs-snr", help="MSE-vs-SNR campaign")
    common(p)
    p.set_defaults(func=_cmd_mse_vs_snr)

    p = sub.add_parser("mse-vs-iota", help="diagonal-index sweep campaign")
    common(p)
    p.add_argument("--iotas", help="comma-separated indices (default: all)")
    p.set_defaults(func=_cmd_mse_vs_iota)

    p = sub.add_parser("emcb", help="bound-only campaign")
    common(p)
    p.set_defaults(func=_cmd_emcb)

    p = sub.add_parser("bench", help="runtime comparison of the estimators")
    common(p)
    p.add_argument("--repetitions", default="200")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("gen-training", help="export the training design as CSV")
    common(p)
    p.add_argument("--kind", choices=("cbts", "rs"), default="cbts")
    p.set_defaults(func=_cmd_gen_training)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
