"""Output check of one campaign CSV, independent of the randomness layout.

It checks what any correct campaign must produce whatever bytes its random
streams give: the schema, the exact row set, no degenerate trials, the
simplified estimator against its closed-form MSE, and the bound below every
estimator.  The statistical slack comes from the trial count T: a mean of T
squared errors has a relative standard error of CV / sqrt(T), where CV is
the coefficient of variation of one trial's squared error.  For a Gaussian
error CV = sqrt(2); Rayleigh fading widens it, and 1.4-1.7 was measured per
estimator and SNR point at 1000 trials of paper-fig3, so CV = 2 is used with
Z = 5 standard errors.
"""

from __future__ import annotations

import math
from collections import Counter

HEADER = ("estimator,snr_db,iota,trials,empirical_mse,analytic_mse,"
          "emcb,mean_runtime_us,degenerate_count")
CV = 2.0
Z = 5.0
# The closed-form prediction's own error for index 7 at 10-20 dB, as in the
# acceptance gate (criterion 2).  Above 20 dB it omits the estimator's
# noiseless bias floor, so that comparison is made at 10-20 dB only.
MODEL_TOLERANCE = 0.25
ANALYTIC_SNR_DB = (10.0, 20.0)


def statistical_slack(trials: int) -> float:
    return Z * CV / math.sqrt(trials)


def _num(field: str) -> float | None:
    return float(field) if field else None


def parse(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError(f"header is {lines[0] if lines else ''!r}")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != 9:
            raise ValueError(f"row has {len(f)} fields: {line!r}")
        rows.append({"estimator": f[0], "snr_db": float(f[1]),
                     "iota": int(f[2]) if f[2] else None, "trials": int(f[3]),
                     "empirical_mse": _num(f[4]), "analytic_mse": _num(f[5]),
                     "emcb": _num(f[6]), "mean_runtime_us": f[7],
                     "degenerate_count": int(f[8])})
    return rows


def check_csv(text: str, workload) -> tuple[list[str], int]:
    """Return (problems, degenerate estimates).  No problems means correct."""
    try:
        rows = parse(text)
    except ValueError as exc:
        return [f"schema: {exc}"], 0
    problems: list[str] = []
    expected = Counter((e, s) for s in workload.snr_points_db
                       for e in workload.estimators)
    if workload.has_emcb:
        expected.update(("emcb", s) for s in workload.snr_points_db)
    got = Counter((r["estimator"], r["snr_db"]) for r in rows)
    if got != expected:
        problems.append(f"row set: extra {sorted(got - expected)}, "
                        f"missing {sorted(expected - got)}")

    degenerate = 0
    mse: dict[float, dict[str, float]] = {}
    slack = statistical_slack(workload.trials)
    for r in rows:
        name, snr = r["estimator"], r["snr_db"]
        if r["mean_runtime_us"]:
            problems.append(f"{name} {snr} dB: runtime column is not empty")
        if name == "emcb":
            if not (r["emcb"] is not None and 0.0 < r["emcb"] < math.inf):
                problems.append(f"emcb {snr} dB: bound {r['emcb']} not positive")
            continue
        degenerate += r["degenerate_count"]
        if r["degenerate_count"]:
            problems.append(f"{name} {snr} dB: {r['degenerate_count']} degenerate trials")
        if r["trials"] != workload.trials:
            problems.append(f"{name} {snr} dB: trials {r['trials']} != {workload.trials}")
        emp = r["empirical_mse"]
        if emp is None or not 0.0 < emp < math.inf:
            problems.append(f"{name} {snr} dB: empirical MSE {emp} not positive")
            continue
        mse.setdefault(snr, {})[name] = emp
        lo, hi = ANALYTIC_SNR_DB
        if name == "simplified:7" and lo <= snr <= hi:
            an = r["analytic_mse"]
            tol = MODEL_TOLERANCE + slack
            if an is None or an <= 0.0:
                problems.append(f"{name} {snr} dB: no analytic MSE")
            elif abs(emp / an - 1.0) > tol:
                problems.append(f"{name} {snr} dB: empirical {emp:.4g} vs analytic "
                                f"{an:.4g} beyond {tol:.3f}")
    if workload.has_emcb:
        for r in rows:
            if r["estimator"] != "emcb" or not r["emcb"]:
                continue
            for name, emp in mse.get(r["snr_db"], {}).items():
                if emp < r["emcb"] * (1.0 - slack):
                    problems.append(f"{name} {r['snr_db']} dB: MSE {emp:.4g} below "
                                    f"the bound {r['emcb']:.4g} by more than {slack:.3f}")
    return problems, degenerate
