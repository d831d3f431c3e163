"""Log-mel filterbank feature extraction.

Pipeline: pre-emphasis, framing, Hamming window, power spectrum, mel
filterbank energies plus frame energy, log compression, delta and
delta-delta appendage, per-utterance mean/variance normalization.
"""

import math
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .errors import ConfigError, DataError


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 16000
    frame_length_s: float = 0.025
    frame_shift_s: float = 0.010
    preemphasis: float = 0.97
    n_mels: int = 40
    fmin: float = 0.0
    fmax: float | None = None  # None means Nyquist
    log_floor: float = 1e-10
    append_energy: bool = True
    deltas: bool = True
    cmvn: bool = True

    def __post_init__(self):
        if self.sample_rate < 1 or self.n_mels < 1:
            raise ConfigError("sample_rate and n_mels must be at least 1")
        for key in ("frame_length_s", "frame_shift_s"):
            seconds = getattr(self, key)
            if not math.isfinite(seconds) or round(seconds * self.sample_rate) < 1:
                raise ConfigError(f"{key} {seconds} is shorter than one sample")
        if not self.log_floor > 0:
            raise ConfigError("log_floor must be positive")

    @property
    def frame_length(self) -> int:
        return int(round(self.frame_length_s * self.sample_rate))

    @property
    def frame_shift(self) -> int:
        return int(round(self.frame_shift_s * self.sample_rate))

    @property
    def nfft(self) -> int:
        n = 1
        while n < self.frame_length:
            n *= 2
        return n

    @property
    def dims(self) -> int:
        base = self.n_mels + (1 if self.append_energy else 0)
        return base * 3 if self.deltas else base


@dataclass
class FeatureMatrix:
    """T x D feature frames for one utterance."""

    frames: np.ndarray
    frame_shift_s: float
    frame_length_s: float

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dims(self) -> int:
        return self.frames.shape[1]


def preemphasize(audio: AudioBuffer, alpha: float) -> AudioBuffer:
    """y[0] = x[0]; y[n] = x[n] - alpha * x[n-1]."""
    if not 0.0 <= alpha < 1.0:
        raise ConfigError(f"pre-emphasis coefficient {alpha} outside [0, 1)")
    x = audio.samples
    y = np.concatenate(([x[0]], x[1:] - alpha * x[:-1])) if len(x) else x.copy()
    return AudioBuffer(samples=y, sample_rate=audio.sample_rate)


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
    if nfft < frames.shape[-1] or nfft & (nfft - 1):
        raise ConfigError(f"nfft {nfft} must be a power of two >= frame length")
    return np.abs(np.fft.rfft(frames, n=nfft)) ** 2


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def build_mel_filterbank(n_mels: int, nfft: int, sample_rate: int,
                         fmin: float = 0.0, fmax: float | None = None) -> np.ndarray:
    """Triangular filters (n_mels x nfft/2+1), evenly spaced on the mel scale."""
    nyquist = sample_rate / 2.0
    if fmax is None:
        fmax = nyquist
    if fmax > nyquist:
        raise ConfigError(f"filterbank fmax {fmax} Hz exceeds Nyquist {nyquist} Hz")
    if not 0 <= fmin < fmax:
        raise ConfigError(f"invalid filterbank band [{fmin}, {fmax}]")
    edges = mel_to_hz(np.linspace(hz_to_mel(fmin), hz_to_mel(fmax), n_mels + 2))
    bin_freqs = np.arange(nfft // 2 + 1) * (sample_rate / nfft)
    bank = np.zeros((n_mels, nfft // 2 + 1))
    for m in range(n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        bank[m] = np.maximum(0.0, np.minimum(rising, falling))
    return bank


def mel_filterbank(spectrum: np.ndarray, bank: np.ndarray,
                   log_floor: float = 1e-10) -> np.ndarray:
    """Log filterbank energies of one power spectrum, or of each row of a
    spectrum matrix, floored before the log."""
    return np.log(np.maximum(spectrum @ bank.T, log_floor))


def append_deltas(frames: np.ndarray) -> np.ndarray:
    """Append delta and delta-delta columns (regression window of 2,
    edge frames replicated)."""
    def regress(x):
        padded = np.concatenate([x[:1], x[:1], x, x[-1:], x[-1:]], axis=0)
        return (padded[3:-1] - padded[1:-3] + 2.0 * (padded[4:] - padded[:-4])) / 10.0

    d = regress(frames)
    return np.concatenate([frames, d, regress(d)], axis=1)


def normalize_cmvn(features: FeatureMatrix) -> FeatureMatrix:
    """Per-utterance, per-dimension zero mean and unit variance.

    The variance step is skipped for constant dimensions.
    """
    x = features.frames
    if x.shape[0] < 2:
        raise DataError(f"CMVN needs at least 2 frames, got {x.shape[0]}")
    centered = x - x.mean(axis=0)
    std = centered.std(axis=0)
    scale = np.where(std > 1e-20, std, 1.0)
    return FeatureMatrix(centered / scale, features.frame_shift_s, features.frame_length_s)


def extract_features(audio: AudioBuffer, config: FeatureConfig = FeatureConfig()) -> FeatureMatrix:
    """Full pipeline from audio samples to a normalized FeatureMatrix."""
    if audio.sample_rate != config.sample_rate:
        raise DataError(
            f"audio sample rate {audio.sample_rate} does not match configured "
            f"{config.sample_rate} (resampling is unsupported)"
        )
    emphasized = preemphasize(audio, config.preemphasis)
    frames = frame_signal(emphasized.samples, config.frame_length, config.frame_shift)
    windowed = frames * np.hamming(config.frame_length)
    spectra = power_spectrum(windowed, config.nfft)
    bank = build_mel_filterbank(config.n_mels, config.nfft, config.sample_rate,
                                config.fmin, config.fmax)
    feats = mel_filterbank(spectra, bank, log_floor=config.log_floor)
    if config.append_energy:
        energy = np.log(np.maximum(spectra.sum(axis=1), config.log_floor))
        feats = np.concatenate([feats, energy[:, None]], axis=1)
    if config.deltas:
        feats = append_deltas(feats)
    matrix = FeatureMatrix(feats, config.frame_shift_s, config.frame_length_s)
    if config.cmvn:
        matrix = normalize_cmvn(matrix)
    return matrix
