"""Campaign benchmark of cfolab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each campaign runs in a fresh
process (perfbench/worker.py) through ``cfolab.cli.main`` on a JSON config
generated from the seed; campaigns repeat one after another for S seconds.
Every CSV is checked (check.py) and hashed.  With ``--trace 0`` the last
line of stdout holds the end-to-end metrics; with ``--trace 1`` traced and
untraced campaigns alternate and it holds the per-layer metrics.  The line
before it is the full result with the machine and provenance block; the same
is written under ``.bench_build/perfbench/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import check_csv  # noqa: E402
from reference import REF_S  # noqa: E402
from workloads import WORKLOADS, campaign_config  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
MIN_CAMPAIGNS = 5       # per run, even past --seconds
HARD_LIMIT_S = 160.0    # stop launching campaigns after this, whatever happens

TIMINGS = ("wall_s", "frames_per_s", "cpu_s", "setup_s", "peak_rss_mb")
LAYER_STATS = (
    "channel.draw_channel", "channel.transmit_receive", "estimator.stack",
    "estimator.estimate_simplified", "estimator.estimate_ml_grid",
    "estimator.likelihood", "analysis.emcb", "analysis.predicted_mse",
    "training.build_training", "numerics.RandomSource.generator",
)


def tail(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    if n >= 11:
        out["tail_pct"] = 100.0 * (n - 10) / n
        out["tail"] = xs[n - 11]
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cfolab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    """BLAS name and version from numpy, thread count from the loaded library."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy without config dicts: record what is missing
        info["blas"] = None
    np.ones((2, 2)) @ np.ones((2, 2))
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                info["blas_library"] = os.path.basename(lib_path)
                info["blas_threads"] = int(fn())
                return info
    return info


def provenance(workload: str, seed: int, campaign_seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {"nproc": os.cpu_count(), "cpu_model": cpu or platform.processor(),
            "python": platform.python_version(), **blas_info(),
            "CFOLAB_THREADS": None, "git_commit": commit,
            "source_sha256": source_digest(), "workload": workload,
            "seed": seed, "campaign_seed": campaign_seed}


def compare_earlier_runs(source: str, config: dict, digest: str) -> list[str]:
    """The CSV of one (source tree, campaign config) must not change between runs."""
    sha_dir = WORK / "sha256"
    sha_dir.mkdir(parents=True, exist_ok=True)
    key = hashlib.sha256((source + json.dumps(config, sort_keys=True)).encode()).hexdigest()
    sha_file = sha_dir / key[:32]
    if not sha_file.exists():
        sha_file.write_text(digest + "\n")
        return []
    if sha_file.read_text().strip() != digest:
        return ["CSV bytes differ from an earlier run of this seed"]
    return []


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".points", ".bytes", ".spans")):
        return "count"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith((".share", "_per_call", "_per_estimate", "ml_over_simplified")):
        return "ratio"
    return "s"


def time_reference(env: dict) -> float:
    """Time of one fresh reference process, from its start to its job's end."""
    proc = subprocess.run([sys.executable, str(HERE / "reference.py"),
                           repr(time.monotonic())], env=env, cwd=ROOT, check=True,
                          timeout=60, capture_output=True, text=True)
    return float(proc.stdout)


def run_campaign(spec_path: Path, command: str, out_csv: Path, result: Path,
                 trace: bool, env: dict, timeout: float) -> dict | None:
    args = [sys.executable, str(HERE / "worker.py"), repr(time.monotonic()), str(SRC),
            str(spec_path), command, str(out_csv), str(result), "1" if trace else "0"]
    proc = subprocess.run(args, env=env, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    with open(result, "r", encoding="utf-8") as fh:
        return json.load(fh)


def layer_metrics(traced: list[dict], untraced_wall: list[float]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced campaigns of the run."""

    def med(fn) -> float:
        return float(statistics.median(fn(r) for r in traced))

    def stat(r, layer, key, default=0.0):
        return r["layers"].get(layer, {}).get(key, default)

    out: dict[str, float] = {}
    for layer in LAYER_STATS:
        out[f"{layer}.calls"] = med(lambda r: stat(r, layer, "calls"))
        out[f"{layer}.busy_s"] = med(lambda r: stat(r, layer, "busy_s"))
        out[f"{layer}.self_s"] = med(lambda r: stat(r, layer, "self_s"))
        out[f"{layer}.us_per_call"] = med(lambda r: stat(r, layer, "median_s") * 1e6)
        out[f"{layer}.share"] = med(lambda r: stat(r, layer, "busy_s") / r["wall_s"])
    out["estimator.likelihood.points"] = med(lambda r: stat(r, "estimator.likelihood", "count"))
    for est in ("estimate_ml_grid", "estimate_simplified"):
        out[f"estimator.{est}.points_per_call"] = med(
            lambda r: r["points_within"][f"estimator.{est}"]
            / max(1, stat(r, f"estimator.{est}", "calls")))
    out["estimator.likelihood.points_per_estimate"] = med(
        lambda r: stat(r, "estimator.likelihood", "count")
        / max(1, stat(r, "estimator.estimate_ml_grid", "calls")
              + stat(r, "estimator.estimate_simplified", "calls")))
    out["estimator.ml_over_simplified"] = med(
        lambda r: stat(r, "estimator.estimate_ml_grid", "median_s")
        / stat(r, "estimator.estimate_simplified", "median_s", float("inf")))
    out["harness.self_s"] = med(lambda r: stat(r, "harness.run_mse_vs_snr", "self_s")
                                + stat(r, "harness.run_mse_vs_iota", "self_s"))
    out["harness.busy_s"] = med(lambda r: stat(r, "harness.run_mse_vs_snr", "busy_s"))
    for layer in ("harness.rows_to_csv", "harness.write_csv"):
        out[f"{layer}.calls"] = med(lambda r: stat(r, layer, "calls"))
        out[f"{layer}.busy_s"] = med(lambda r: stat(r, layer, "busy_s"))
    out["harness.rows_to_csv.bytes"] = med(lambda r: stat(r, "harness.rows_to_csv", "count"))
    out["cli.self_s"] = med(lambda r: stat(r, "cli.main", "self_s"))
    out["trace.wall_s"] = med(lambda r: r["wall_s"])
    out["trace.untraced_wall_s"] = float(statistics.median(untraced_wall))
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.spans"] = med(lambda r: len(r["spans"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cfolab" / "__init__.py").is_file():
        print(f"no cfolab sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    config = campaign_config(wl, args.seed)
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec_path = run_dir / "spec.json"
    spec_path.write_text(json.dumps(config, indent=1, sort_keys=True), encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k != "CFOLAB_THREADS"}
    started = time.monotonic()

    # compile the package's bytecode once, untimed: users do not pay it per run
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import cfolab.cli", str(SRC)], env=env, cwd=ROOT, check=True,
                   timeout=HARD_LIMIT_S)

    results: list[tuple[bool, dict]] = []
    problems: list[str] = []
    failed = attempted = 0
    checks: dict[str, tuple[list[str], int]] = {}
    refs = [time_reference(env)]
    t_measure = time.monotonic()
    while True:
        elapsed = time.monotonic() - t_measure
        cycles = [r["setup_s"] + r["wall_s"] for _, r in results]
        typical = statistics.median(cycles) + statistics.median(refs) if cycles else 0.0
        if len(results) >= MIN_CAMPAIGNS and elapsed + typical > args.seconds:
            break
        if time.monotonic() - started > HARD_LIMIT_S:
            problems.append("hard time limit reached before the minimum campaigns")
            break
        traced = bool(args.trace) and len(results) % 2 == 1
        i = len(results)
        out_csv, res_path = run_dir / f"c{i}.csv", run_dir / f"c{i}.json"
        attempted += wl.operations
        try:
            res = run_campaign(spec_path, wl.command, out_csv, res_path, traced, env,
                               timeout=HARD_LIMIT_S + 10 - (time.monotonic() - started))
        except subprocess.TimeoutExpired:
            res = None
        if res is None or res["status"] != 0 or (traced and not res["restored"]):
            failed += wl.operations
            problems.append(f"campaign {i} failed"
                            + (f" (exit {res['status']})" if res else ""))
            break
        refs.append(time_reference(env))
        data = out_csv.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if digest not in checks:
            checks[digest] = check_csv(data.decode("utf-8"), wl)
            problems.extend(checks[digest][0])
        out_csv.unlink()
        failed += wl.operations if problems else checks[digest][1]
        if traced:
            negative = [k for k, v in res["layers"].items() if v["min_self_s"] < 0.0]
            if negative:
                problems.append(f"negative self time in {negative}")
        results.append((traced, res))
        if problems:
            break

    digests = sorted(checks)
    if len(digests) > 1:
        problems.append(f"CSV bytes differ between campaigns: {digests}")
    prov = provenance(args.workload, args.seed, config["seed"])
    if len(digests) == 1:
        problems.extend(compare_earlier_runs(prov["source_sha256"], config, digests[0]))

    plain = [r for t, r in results if not t]
    traced_runs = [r for t, r in results if t]
    correct = not problems and bool(plain) and (not args.trace or bool(traced_runs))
    detail = {"workload": args.workload, "why": wl.why, "trials": wl.trials,
              "snr_points": len(wl.snr_points_db), "estimators": list(wl.estimators),
              "campaigns": len(results), "problems": problems,
              "csv_sha256": digests, "error_rate": failed / max(1, attempted),
              "reference_s": tail(refs), "provenance": prov}
    for r in plain:
        r["frames_per_s"] = wl.frames / r["wall_s"]
    if plain:
        for key in TIMINGS:
            detail[key] = tail([r[key] for r in plain])
        detail["samples"] = {key: [r[key] for r in plain] for key in TIMINGS}
        detail["samples"]["reference_s"] = refs

    # Normalised timings are raw timings at the reference speed (reference.py).
    # Campaign time and CPU time: the run's mean over the mean reference time,
    # because campaign times are bimodal while the machine drifts and a median
    # jumps between the modes.  Set-up time: median over median.
    speed = detail["reference_speed"] = REF_S / statistics.mean(refs)
    metrics: dict[str, tuple[float, str]] = {}
    if plain and not args.trace:
        wall = statistics.mean(r["wall_s"] for r in plain) * speed
        metrics = {"wall_norm_s": (wall, "s"),
                   "frames_per_s_norm": (wl.frames / wall, "1/s"),
                   "cpu_norm_s": (statistics.mean(r["cpu_s"] for r in plain) * speed, "s"),
                   "setup_s": (detail["setup_s"]["median"] * REF_S
                               / statistics.median(refs), "s"),
                   "peak_rss_mb": (detail["peak_rss_mb"]["median"], "MB")}
    elif plain and traced_runs:
        detail["missing_layers"] = traced_runs[0]["missing"]
        layers = layer_metrics(traced_runs, [r["wall_s"] for r in plain])
        metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
        (WORK / f"trace-{args.workload}-{args.seed}.json").write_text(json.dumps(
            {"fields": ["id", "parent", "layer", "start_s", "end_s", "count"],
             "spans": traced_runs[-1]["spans"]}))
    detail["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
