import subprocess
import sys

import numpy as np
import pytest

from cfolab.numerics import RandomSource, complex_normal, dft
from support import complex_normal_two_calls, dft_direct, dft_matrix, package_env


class TestDft:
    def test_impulse_goes_flat(self):
        out = dft(np.array([1, 0, 0, 0], dtype=complex))
        assert np.allclose(out, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_constant_goes_to_scaled_impulse(self):
        out = dft(np.array([1, 1, 1, 1], dtype=complex))
        assert np.allclose(out, [2, 0, 0, 0], atol=1e-14)

    def test_round_trip_identity(self, rng):
        x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        back = dft(dft(x), inverse=True)
        assert np.max(np.abs(back - x)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 37, 64, 100])
    def test_parseval(self, rng, n):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.linalg.norm(dft(x)) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 8, 17])
    def test_matches_direct_summation(self, rng, n):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.max(np.abs(dft(x) - dft_direct(x))) < 1e-12
        assert np.max(np.abs(dft(x, inverse=True) - dft_direct(x, inverse=True))) < 1e-12

    def test_matrix_is_unitary(self):
        f = dft_matrix(12)
        assert np.max(np.abs(f @ f.conj().T - np.eye(12))) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dft(np.array([]))


class TestRandomSource:
    def test_same_stream_bit_identical(self):
        a = RandomSource(123, (7,)).generator().standard_normal(100)
        b = RandomSource(123, (7,)).generator().standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RandomSource(123, (7,)).generator().standard_normal(100)
        b = RandomSource(123, (8,)).generator().standard_normal(100)
        assert not np.array_equal(a, b)
        c = RandomSource(123, (7, 0)).generator().standard_normal(100)
        assert not np.array_equal(a, c)

    def test_stream_helper(self):
        # the key is the SeedSequence spawn key
        ss = np.random.SeedSequence(5, spawn_key=(1, 2))
        assert np.array_equal(RandomSource(5, (1, 2)).generator().standard_normal(8),
                              np.random.default_rng(ss).standard_normal(8))

    def test_complex_normal_moments(self):
        gen = RandomSource(99).generator()
        z = complex_normal(gen, 100_000)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.03)
        assert np.var(z.real) == pytest.approx(np.var(z.imag), rel=0.05)

    @pytest.mark.parametrize("shape", [7, (2, 64), (2, 1024), (4, 2, 24)])
    def test_complex_normal_matches_two_call_draws(self, shape):
        # toy (2, 64) and reference (2, 1024) frames, a channel-tap batch and
        # an int shape: the same bits and the same stream position afterwards
        gen, ref = RandomSource(41).generator(), RandomSource(41).generator()
        z = complex_normal(gen, shape)
        assert np.array_equal(z, complex_normal_two_calls(ref, shape))
        assert z.dtype == complex and z.shape == np.empty(shape).shape
        assert gen.uniform() == ref.uniform()


# seeds of 1 to 5 words: numpy pads a seed under 4 words when the key is not
# empty, so 2**130 + 5 is the case without padding
ORACLE_SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 5]
# the empty key, the training key, a two- and a three-element key and a key
# element of two words
ORACLE_KEYS = [(), (0,), (1, 17), (2, 3, 17), (5, 2**32 + 7)]


def oracle(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def assert_same_stream(gen, ref):
    assert gen.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(gen.standard_normal(64), ref.standard_normal(64))


class TestSeedingOracle:
    """`generator` against numpy's own SeedSequence."""

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("key", ORACLE_KEYS)
    def test_generator_matches_seed_sequence(self, seed, key):
        assert_same_stream(RandomSource(seed, key).generator(), oracle(seed, key))

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("key", ORACLE_KEYS)
    @pytest.mark.parametrize("n", [0, 1, 1000])
    def test_generators_match_seed_sequence(self, seed, key, n):
        # a campaign reads each stream one trial at a time; n trials' draws are
        # numpy's stream filled in one call, so a chunk of trials may be drawn
        # at once, and the stream is where the oracle's is afterwards
        gen, ref = RandomSource(seed, key).generator(), oracle(seed, key)
        taps = [gen.standard_normal((2, 3)) for _ in range(n)]
        offsets = [gen.uniform(-2.0, 2.0) for _ in range(n)]
        assert np.array_equal(np.reshape(taps, (n, 2, 3)), ref.standard_normal((n, 2, 3)))
        assert np.array_equal(offsets, ref.uniform(-2.0, 2.0, n))
        assert_same_stream(gen, ref)

    @pytest.mark.parametrize("seed,key", [(-1, ()), (-1, (1,)), (3, (-1,)), (3, (2, -5)),
                                          (2**64 + 3, (1, -1))])
    def test_negative_seed_or_key_element_rejected(self, seed, key):
        with pytest.raises(ValueError):
            RandomSource(seed, key).generator()

    def test_import_leaves_numpy_random_unloaded(self):
        # `generator` loads numpy.random on first use, since importing it
        # takes tens of milliseconds of every command's start-up
        code = "import sys, cfolab; assert 'numpy.random' not in sys.modules, sorted(sys.modules)"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=package_env(), timeout=120)
        assert run.returncode == 0, run.stderr
