import numpy as np
import pytest

from cfolab import (ChannelProfile, RandomSource, SystemConfig,
                    build_training, draw_channel, estimate_simplified,
                    reference_config, reference_profile, stack,
                    transmit_receive)
from cfolab.training import OFFSETS_A, OFFSETS_B


@pytest.fixture(scope="session")
def toy_cfg() -> SystemConfig:
    """Small config for fast structural tests: N=64, P=8, Q=8.

    Offsets (1, 6) keep every mirror pair of diagonal indices usable (only
    index 4 is blind); offsets a Q/2 apart would alias the likelihood, and
    `SystemConfig` refuses them.
    """
    return SystemConfig(n_subcarriers=64, pilot_len=8, n_rx=2, chan_len=8, offsets=(1, 6))


@pytest.fixture(scope="session")
def q12_cfg() -> SystemConfig:
    """The toy config at N=96: Q=12, an even Q whose 1/Q is not exact in
    binary, so a division by Q and a product with 1/Q can round apart."""
    return SystemConfig(n_subcarriers=96, pilot_len=8, n_rx=2, chan_len=8, offsets=(1, 6))


@pytest.fixture(scope="session")
def toy_profile() -> ChannelProfile:
    return ChannelProfile(delays=(0, 2, 7), powers_db=(0.0, -3.0, -6.0))


@pytest.fixture(scope="session")
def ref_cfg_a() -> SystemConfig:
    return reference_config(OFFSETS_A)


@pytest.fixture(scope="session")
def ref_cfg_b() -> SystemConfig:
    return reference_config(OFFSETS_B)


@pytest.fixture(scope="session")
def ref_profile() -> ChannelProfile:
    return reference_profile()


@pytest.fixture(scope="session")
def noiseless_sq_errors(ref_cfg_b, ref_profile) -> dict[int, np.ndarray]:
    """Squared noiseless errors of the simplified estimator at indices 5 and 7.

    Offsets {3,7,14} over 1500 reference channels (seed 77) with the offset
    drawn uniformly on (-8, 8): the Monte Carlo measurement of the
    estimator's noiseless bias floor.
    """
    ts = build_training(ref_cfg_b, "cbts")
    errs = {5: [], 7: []}
    for t in range(1500):
        gen = RandomSource(77, (2 + 2 * t,)).generator()
        ch = draw_channel(ref_profile, ref_cfg_b, gen)
        cfo = gen.uniform(-8, 8)
        sf = stack(transmit_receive(ts, ref_profile, ch, cfo, ref_cfg_b), ref_cfg_b)
        for idx, out in errs.items():
            v = estimate_simplified(sf, idx, ref_cfg_b).value
            out.append(((v - cfo + 8) % 16 - 8) ** 2)
    return {idx: np.array(out) for idx, out in errs.items()}


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
