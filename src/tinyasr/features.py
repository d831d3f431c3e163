"""Log-mel filterbank feature extraction.

One fixed pipeline: pre-emphasis, framing, Hamming window, power spectrum,
log mel filterbank energies plus log frame energy, delta and delta-delta
appendage, per-utterance mean/variance normalization.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .errors import DataError

PREEMPHASIS = 0.97
LOG_FLOOR = 1e-10  # energies are floored here before the log
FRAME_LENGTH_S = 0.025
FRAME_SHIFT_S = 0.010
N_MELS = 40
DIMS = 3 * (N_MELS + 1)  # mel energies plus frame energy, with deltas and delta-deltas


def frame_sizes(sample_rate: int) -> tuple:
    """Frame length, frame shift and FFT size in samples at a sample rate.

    A rate whose frames have fewer spectrum bins than N_MELS (below about
    2.6 kHz, or not positive) is a DataError.
    """
    frame_length = round(FRAME_LENGTH_S * sample_rate)
    nfft = 1
    while nfft < frame_length:
        nfft *= 2
    if nfft // 2 + 1 < N_MELS:
        raise DataError(f"sample rate {sample_rate} Hz is too low: its "
                        f"{FRAME_LENGTH_S * 1000:g} ms frames have {nfft // 2 + 1} spectrum "
                        f"bins, fewer than the {N_MELS} mel bands")
    return frame_length, round(FRAME_SHIFT_S * sample_rate), nfft


@dataclass
class FeatureMatrix:
    """T x D feature frames for one utterance."""

    frames: np.ndarray


def preemphasize(x: np.ndarray, alpha: float) -> np.ndarray:
    """y[0] = x[0]; y[n] = x[n] - alpha * x[n-1]."""
    return np.concatenate(([x[0]], x[1:] - alpha * x[:-1])) if len(x) else x.copy()


def frame_count(n_samples: int, frame_length: int, frame_shift: int) -> int:
    if n_samples < frame_length:
        return 0
    return 1 + (n_samples - frame_length) // frame_shift


def frame_signal(samples: np.ndarray, frame_length: int, frame_shift: int) -> np.ndarray:
    """Cut the signal into full frames; trailing samples that do not fill
    a frame are dropped."""
    n_frames = frame_count(len(samples), frame_length, frame_shift)
    if n_frames == 0:
        raise DataError(
            f"signal of {len(samples)} samples is shorter than one frame "
            f"({frame_length} samples)"
        )
    idx = np.arange(frame_length)[None, :] + frame_shift * np.arange(n_frames)[:, None]
    return samples[idx]


def power_spectrum(frames: np.ndarray, nfft: int) -> np.ndarray:
    """|DFT(zero-padded frame)|^2 for bins 0 .. nfft/2, unscaled, of one
    frame or of each row of a frame matrix."""
    return np.abs(np.fft.rfft(frames, n=nfft)) ** 2


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.cache
def build_mel_filterbank(n_mels: int, nfft: int, sample_rate: int) -> np.ndarray:
    """Triangular filters (n_mels x nfft/2+1), evenly spaced on the mel
    scale from 0 Hz to Nyquist; cached, so read-only."""
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(sample_rate / 2.0), n_mels + 2))
    bin_freqs = np.arange(nfft // 2 + 1) * (sample_rate / nfft)
    bank = np.zeros((n_mels, nfft // 2 + 1))
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        bank[m] = np.maximum(0.0, np.minimum(rising, falling))
    bank.flags.writeable = False
    return bank


def mel_filterbank(spectrum: np.ndarray, bank: np.ndarray) -> np.ndarray:
    """Log filterbank energies of one power spectrum, or of each row of a
    spectrum matrix, floored before the log."""
    return np.log(np.maximum(spectrum @ bank.T, LOG_FLOOR))


def append_deltas(frames: np.ndarray) -> np.ndarray:
    """Append delta and delta-delta columns (regression window of 2,
    edge frames replicated)."""
    def regress(x):
        padded = np.concatenate([x[:1], x[:1], x, x[-1:], x[-1:]], axis=0)
        return (padded[3:-1] - padded[1:-3] + 2.0 * (padded[4:] - padded[:-4])) / 10.0

    d = regress(frames)
    return np.concatenate([frames, d, regress(d)], axis=1)


def normalize_cmvn(x: np.ndarray) -> np.ndarray:
    """Per-utterance, per-dimension zero mean and unit variance.

    The variance step is skipped for constant dimensions.
    """
    if x.shape[0] < 2:
        raise DataError(f"CMVN needs at least 2 frames, got {x.shape[0]}")
    centered = x - x.mean(axis=0)
    std = centered.std(axis=0)
    return centered / np.where(std > 1e-20, std, 1.0)


def extract_features(audio: AudioBuffer, sample_rate: int) -> FeatureMatrix:
    """Full pipeline from audio samples at sample_rate to a normalized
    FeatureMatrix."""
    if audio.sample_rate != sample_rate:
        raise DataError(
            f"audio sample rate {audio.sample_rate} does not match the run's "
            f"{sample_rate} (resampling is unsupported)"
        )
    frame_length, frame_shift, nfft = frame_sizes(sample_rate)
    emphasized = preemphasize(audio.samples, PREEMPHASIS)
    frames = frame_signal(emphasized, frame_length, frame_shift)
    spectra = power_spectrum(frames * np.hamming(frame_length), nfft)
    bank = build_mel_filterbank(N_MELS, nfft, sample_rate)
    mels = mel_filterbank(spectra, bank)
    energy = np.log(np.maximum(spectra.sum(axis=1), LOG_FLOOR))
    feats = append_deltas(np.concatenate([mels, energy[:, None]], axis=1))
    return FeatureMatrix(normalize_cmvn(feats))
