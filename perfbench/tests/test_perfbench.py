"""Tests of the benchmark itself on a tiny campaign (3 trials, 2 SNR points)."""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from check import check_csv  # noqa: E402
from run import tail  # noqa: E402
from tracer import Tracer, count_within, summary  # noqa: E402
from workloads import WORKLOADS, campaign_config  # noqa: E402

TRIALS = 3
SNR_DB = (10.0, 20.0)


def tiny_fig3():
    return replace(WORKLOADS["fig3-snr"], trials=TRIALS, snr_points_db=SNR_DB,
                   extra={"emcb_draws": 4})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = WORKLOADS[name]
    assert campaign_config(wl, 7) == campaign_config(wl, 7)
    assert json.dumps(campaign_config(wl, 7)) == json.dumps(campaign_config(wl, 7))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_different_inputs(name):
    wl = WORKLOADS[name]
    assert campaign_config(wl, 7) != campaign_config(wl, 8)
    assert campaign_config(wl, 7)["seed"] != campaign_config(wl, 8)["seed"]


@pytest.fixture(scope="module")
def traced_tiny(tmp_path_factory):
    from cfolab import cli, estimator, harness, numerics

    wl = tiny_fig3()
    tmp = tmp_path_factory.mktemp("tiny")
    spec, out = tmp / "spec.json", tmp / "out.csv"
    spec.write_text(json.dumps(campaign_config(wl, 1)))
    originals = (cli.main, harness.draw_channel, estimator.stack,
                 vars(numerics.RandomSource)["generator"])
    tracer = Tracer()
    assert tracer.install() == []
    try:
        assert cli.main([wl.command, "--config", str(spec), "--out", str(out)]) == 0
    finally:
        restored = tracer.restore()
    current = (cli.main, harness.draw_channel, estimator.stack,
               vars(numerics.RandomSource)["generator"])
    return wl, tracer.spans, out.read_text(), restored, originals, current


def test_trace_restores_every_attribute(traced_tiny):
    _, _, _, restored, originals, current = traced_tiny
    assert restored
    assert all(a is b for a, b in zip(originals, current))


def test_traced_counts_match_loop_structure(traced_tiny):
    wl, spans, _, _, _, _ = traced_tiny
    layers = summary(spans)
    frames = TRIALS * len(SNR_DB)
    kinds = 2  # cbts and rs training
    assert layers["estimator.stack"]["calls"] == frames * kinds
    assert layers["estimator.estimate_ml_grid"]["calls"] == frames
    assert layers["estimator.estimate_simplified"]["calls"] == frames * 2
    assert layers["channel.draw_channel"]["calls"] == TRIALS
    assert layers["channel.transmit_receive"]["calls"] == TRIALS * kinds
    assert layers["analysis.emcb"]["calls"] == 1
    assert layers["cli.main"]["calls"] == 1
    simplified_points = count_within(spans, "estimator.likelihood",
                                     "estimator.estimate_simplified")
    assert simplified_points == frames * 2 * 16
    ml_points = count_within(spans, "estimator.likelihood", "estimator.estimate_ml_grid")
    assert 1000 * frames < ml_points < 2000 * frames


def test_self_times_are_not_negative(traced_tiny):
    _, spans, _, _, _, _ = traced_tiny
    layers = summary(spans)
    assert all(st["min_self_s"] >= 0.0 for st in layers.values())
    root = layers["cli.main"]
    assert root["self_s"] <= root["busy_s"]


def test_check_accepts_the_campaign_and_flags_a_missing_row(traced_tiny):
    wl, _, text, _, _, _ = traced_tiny
    assert check_csv(text, wl) == ([], 0)
    lines = text.splitlines()
    broken = "\n".join(l for l in lines if not l.startswith("ml_grid,20")) + "\n"
    problems, _ = check_csv(broken, wl)
    assert any(p.startswith("row set") for p in problems)


def test_check_flags_degenerate_trials(traced_tiny):
    wl, _, text, _, _, _ = traced_tiny
    head, first, *rest = text.splitlines()
    first = ",".join(first.split(",")[:-1] + ["1"])
    problems, degenerate = check_csv("\n".join([head, first, *rest]) + "\n", wl)
    assert degenerate == 1 and problems


def test_tail_keeps_ten_samples_beyond():
    t = tail([float(v) for v in range(30)])
    assert t["n"] == 30 and t["median"] == 14.5
    assert t["tail"] == 19.0 and sum(v > t["tail"] for v in range(30)) == 10
    assert "tail" not in tail([1.0] * 10)
