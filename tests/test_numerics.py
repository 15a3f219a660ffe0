import numpy as np
import pytest

from cfolab.numerics import (RandomSource, complex_normal, cyclic_shift, dft,
                             phase_ramp)
from support import complex_normal_two_calls, dft_direct, dft_matrix


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


class TestPhaseRamp:
    def test_zero_offset_is_ones(self):
        assert np.allclose(phase_ramp(4, 0.0, 8), np.ones(4))

    def test_direct_value(self):
        out = phase_ramp(2, 2.0, 8)
        assert np.allclose(out, [1.0, 1j], atol=1e-15)

    def test_full_cycle_periodicity(self):
        n = 16
        assert np.allclose(phase_ramp(n, float(n), n), np.ones(n), atol=1e-12)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            phase_ramp(0, 1.0, 8)


class TestCyclicShift:
    def test_definition(self):
        out = cyclic_shift(np.array([1, 2, 3, 4]), 1)
        assert list(out) == [4, 1, 2, 3]

    def test_identity_and_period(self, rng):
        x = rng.standard_normal(7)
        assert np.array_equal(cyclic_shift(x, 0), x)
        assert np.array_equal(cyclic_shift(x, 7), x)

    @pytest.mark.parametrize("a,b", [(1, 2), (3, 5), (-2, 4)])
    def test_shift_additivity(self, rng, a, b):
        x = rng.standard_normal(9)
        assert np.array_equal(cyclic_shift(cyclic_shift(x, a), b),
                              cyclic_shift(x, a + b))


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
        z = complex_normal(gen, 100_000, variance=2.5)
        assert np.mean(np.abs(z) ** 2) == pytest.approx(2.5, rel=0.03)
        assert np.var(z.real) == pytest.approx(np.var(z.imag), rel=0.05)

    @pytest.mark.parametrize("shape", [7, (2, 64), (2, 1024), (4, 2, 24)])
    def test_complex_normal_matches_two_call_draws(self, shape):
        # toy (2, 64) and reference (2, 1024) frames, a channel-tap batch and
        # an int shape: the same bits and the same stream position afterwards
        for variance in (1.0, 0.37, 2.5, 1e-6):
            gen, ref = RandomSource(41).generator(), RandomSource(41).generator()
            z = complex_normal(gen, shape, variance)
            assert np.array_equal(z, complex_normal_two_calls(ref, shape, variance))
            assert z.dtype == complex and z.shape == np.empty(shape).shape
            assert gen.uniform() == ref.uniform()
