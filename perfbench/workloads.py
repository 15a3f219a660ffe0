"""The three campaign workloads and the inputs each one generates from a seed.

Every workload is a paper-shaped campaign run through the ``cfolab`` CLI
from a JSON config.  The benchmark seed only picks the campaign's master
seed; the shape (dimensions, estimators, SNR points, trial count) is fixed
per workload so that the work done per campaign does not depend on the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                      # cfolab CLI subcommand
    preset: str
    estimators: tuple[str, ...]       # Monte Carlo estimator ids the CSV holds
    snr_points_db: tuple[float, ...]
    trials: int
    has_emcb: bool = False
    extra: dict = field(default_factory=dict)   # further JSON config keys

    @property
    def frames(self) -> int:
        """Noisy frames estimated per campaign: trials x SNR points."""
        return self.trials * len(self.snr_points_db)

    @property
    def operations(self) -> int:
        """(trial, SNR point, Monte Carlo estimator) estimates per campaign."""
        return self.frames * len(self.estimators)


IOTAS = tuple(range(1, 16))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="fig3-snr",
        why="paper-fig3 shape: the headline campaign and the only one that "
            "runs ml_grid and emcb",
        command="mse-vs-snr", preset="paper-fig3",
        estimators=("simplified:7", "simplified_rs:7", "ml_grid"),
        snr_points_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0), trials=150,
        has_emcb=True, extra={"emcb_draws": 500}),
    Workload(
        name="fig2-iota",
        why="paper-fig2 shape: 15 simplified estimates per stacked frame and "
            "no ML, so per-estimate work dominates",
        command="mse-vs-iota", preset="paper-fig2",
        estimators=tuple(f"simplified:{i}" for i in IOTAS),
        snr_points_db=(10.0, 15.0, 20.0), trials=200,
        extra={"iotas": list(IOTAS)}),
    Workload(
        name="single-point",
        why="many trials at 15 dB with one cheap estimate per frame, so "
            "channel simulation, randomness, noise and stack dominate",
        command="mse-vs-snr", preset="paper-fig2",
        estimators=("simplified:7",), snr_points_db=(15.0,), trials=1000),
)}


def campaign_seed(workload: str, seed: int) -> int:
    """Master seed of the campaign: a fixed hash of (workload, seed)."""
    digest = hashlib.sha256(f"cfolab-perfbench/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def campaign_config(workload: Workload, seed: int) -> dict:
    """The JSON config the CLI receives for this workload and seed."""
    config = {"preset": workload.preset, "trials": workload.trials,
              "snr_points_db": list(workload.snr_points_db),
              "seed": campaign_seed(workload.name, seed), **workload.extra}
    if workload.command == "mse-vs-snr":
        config["estimators"] = list(workload.estimators) + ["emcb"] * workload.has_emcb
    return config
