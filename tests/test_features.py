import math

import numpy as np
import pytest

from tinyasr import features
from tinyasr.audio import AudioBuffer
from tinyasr.errors import DataError
from tinyasr.features import (
    DIMS,
    append_deltas,
    build_mel_filterbank,
    extract_features,
    frame_count,
    frame_signal,
    frame_sizes,
    hz_to_mel,
    mel_filterbank,
    normalize_cmvn,
    power_spectrum,
    preemphasize,
)


def naive_dft_power(frame, nfft):
    """Direct O(n^2) DFT magnitude-squared, bins 0..nfft/2."""
    padded = np.zeros(nfft)
    padded[:len(frame)] = frame
    out = np.zeros(nfft // 2 + 1)
    for k in range(nfft // 2 + 1):
        re = sum(padded[n] * math.cos(-2 * math.pi * k * n / nfft) for n in range(nfft))
        im = sum(padded[n] * math.sin(-2 * math.pi * k * n / nfft) for n in range(nfft))
        out[k] = re * re + im * im
    return out


class TestPreemphasis:
    def test_alpha_zero_is_identity(self):
        buf = AudioBuffer(np.array([0.1, -0.2, 0.3]), 16000)
        out = preemphasize(buf.samples, 0.0)
        assert np.array_equal(out, buf.samples)

    def test_constant_signal(self):
        buf = AudioBuffer(np.full(5, 0.5), 16000)
        out = preemphasize(buf.samples, 0.97)
        assert out[0] == pytest.approx(0.5)
        assert np.allclose(out[1:], 0.03 * 0.5)

    def test_impulse(self):
        buf = AudioBuffer(np.array([1.0, 0.0, 0.0]), 16000)
        out = preemphasize(buf.samples, 0.97)
        assert np.allclose(out, [1.0, -0.97, 0.0])


class TestPowerSpectrum:
    def test_zero_frame(self):
        assert np.array_equal(power_spectrum(np.zeros(8), 8), np.zeros(5))

    def test_unit_impulse_flat(self):
        frame = np.zeros(8)
        frame[0] = 1.0
        assert np.allclose(power_spectrum(frame, 8), np.ones(5))

    def test_sine_at_bin3_concentrates(self):
        n = 64
        frame = np.sin(2 * np.pi * 3 * np.arange(n) / n)
        spec = power_spectrum(frame, n)
        oracle = naive_dft_power(frame, n)
        assert np.allclose(spec, oracle, atol=1e-9)
        others = np.delete(spec, 3)
        assert spec[3] > 1.0
        assert np.all(others < 1e-10)

    def test_matches_naive_dft_on_random_frames(self):
        rng = np.random.default_rng(4)
        for nfft in (8, 16, 32):
            frame = rng.normal(size=nfft)
            spec = power_spectrum(frame, nfft)
            oracle = naive_dft_power(frame, nfft)
            scale = max(oracle.max(), 1.0)
            assert np.abs(spec - oracle).max() / scale < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            nfft = 64
            x = rng.normal(size=nfft)
            half = power_spectrum(x, nfft)
            full = np.concatenate([half, half[-2:0:-1]])  # hermitian mirror
            lhs = (x * x).sum()
            rhs = full.sum() / nfft
            assert abs(lhs - rhs) / abs(lhs) < 1e-9

    def test_frame_matrix_rows_match_single_frames(self):
        # extract_features takes the spectra of a whole frame matrix at once
        rng = np.random.default_rng(6)
        frames = rng.normal(size=(7, 400))
        matrix = power_spectrum(frames, 512)
        rows = np.stack([power_spectrum(frame, 512) for frame in frames])
        assert matrix.tobytes() == rows.tobytes()
        bank = build_mel_filterbank(40, 512, 16000)
        energies = mel_filterbank(matrix, bank)
        assert energies.shape == (7, 40)
        for row, spectrum in zip(energies, rows):
            assert np.allclose(row, mel_filterbank(spectrum, bank), rtol=1e-12, atol=0)


class TestMelScale:
    def test_mel_of_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_mel_of_700(self):
        assert abs(hz_to_mel(700.0) - 2595.0 * math.log10(2.0)) < 1e-9

    def test_zero_spectrum_floors_to_log_epsilon(self):
        bank = build_mel_filterbank(4, 64, 16000)
        out = mel_filterbank(np.zeros(33), bank)
        assert np.allclose(out, math.log(1e-10))


class TestFrameSizes:
    @pytest.mark.parametrize("rate,sizes", [(8000, (200, 80, 256)),
                                            (16000, (400, 160, 512)),
                                            (44100, (1102, 441, 2048))])
    def test_rates_whose_frames_hold_the_mel_bands(self, rate, sizes):
        assert frame_sizes(rate) == sizes
        buf = AudioBuffer(np.random.default_rng(4).uniform(-0.3, 0.3, size=rate // 10), rate)
        assert extract_features(buf, rate).frames.shape == (
            frame_count(rate // 10, *sizes[:2]), DIMS)

    @pytest.mark.parametrize("rate", [2000, 0, -16000])
    def test_rates_too_low_for_the_mel_bands(self, rate):
        with pytest.raises(DataError, match=f"sample rate {rate} Hz is too low"):
            frame_sizes(rate)

    def test_floor_is_the_smallest_frame_of_n_mels_bins(self):
        # 40 bands need a 128-point FFT (65 bins), so a frame of more than
        # 64 samples: 25 ms at 2580 Hz is 64.5 samples, rounded to 64
        with pytest.raises(DataError):
            frame_sizes(2580)
        assert frame_sizes(2581)[2] == 128


class TestFraming:
    def test_frame_count_formula_random_lengths(self):
        rng = np.random.default_rng(6)
        frame_len, shift = 400, 160
        for _ in range(1000):
            n = int(rng.integers(frame_len, 50000))
            expected = 1 + (n - frame_len) // shift
            assert frame_count(n, frame_len, shift) == expected

    def test_frames_are_strided_copies(self):
        x = np.arange(20, dtype=float)
        frames = frame_signal(x, 8, 4)
        assert frames.shape == (4, 8)
        assert np.array_equal(frames[1], x[4:12])

    def test_too_short_signal_rejected(self):
        with pytest.raises(DataError):
            frame_signal(np.zeros(10), 16, 4)


class TestCmvn:
    def matrix(self, data):
        return np.array(data, dtype=float)

    def test_two_frame_column(self):
        out = normalize_cmvn(self.matrix([[1.0], [3.0]]))
        assert np.allclose(out, [[-1.0], [1.0]])

    def test_idempotent_within_1e12(self):
        rng = np.random.default_rng(8)
        first = normalize_cmvn(self.matrix(rng.normal(size=(50, 7))))
        second = normalize_cmvn(first)
        assert np.abs(second - first).max() < 1e-12

    def test_constant_column_zeroed(self):
        out = normalize_cmvn(self.matrix([[2.0, 1.0], [2.0, 3.0], [2.0, 5.0]]))
        assert np.allclose(out[:, 0], 0.0)

    def test_single_frame_rejected(self):
        with pytest.raises(DataError):
            normalize_cmvn(self.matrix([[1.0, 2.0]]))


class TestDeltas:
    def test_linear_ramp_has_constant_delta(self):
        base = np.arange(10.0)[:, None]
        out = append_deltas(base)
        assert out.shape == (10, 3)
        # away from the replicated edges the slope is exactly 1; the
        # delta-delta interior shrinks by another window because edge
        # replication bends the delta track first
        assert np.allclose(out[2:-2, 1], 1.0)
        assert np.allclose(out[4:-4, 2], 0.0)


class TestExtraction:
    def test_shapes_and_determinism(self):
        rng = np.random.default_rng(9)
        buf = AudioBuffer(rng.uniform(-0.3, 0.3, size=16000), 16000)
        a = extract_features(buf, 16000)
        b = extract_features(buf, 16000)
        assert a.frames.shape == (frame_count(16000, 400, 160), DIMS)
        assert DIMS == 123
        assert a.frames.tobytes() == b.frames.tobytes()
        assert np.all(np.isfinite(a.frames))

    def test_sample_rate_mismatch_is_error(self):
        buf = AudioBuffer(np.zeros(8000), 8000)
        with pytest.raises(DataError, match="sample rate 8000 does not match the run's 16000"):
            extract_features(buf, 16000)

    def test_uses_the_checked_spectrum_functions(self, monkeypatch):
        # criterion 3 checks power_spectrum and mel_filterbank; extraction
        # must run them, once each, over the whole frame matrix
        calls = []

        def recording(name):
            original = getattr(features, name)

            def wrapper(x, *args, **kwargs):
                calls.append((name, x.ndim))
                return original(x, *args, **kwargs)
            return wrapper

        for name in ("power_spectrum", "mel_filterbank"):
            monkeypatch.setattr(features, name, recording(name))
        buf = AudioBuffer(np.random.default_rng(12).uniform(-0.3, 0.3, 8000), 16000)
        extract_features(buf, 16000)
        assert calls == [("power_spectrum", 2), ("mel_filterbank", 2)]
