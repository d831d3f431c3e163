"""Mono 16-bit PCM WAV reading, writing, and sample-accurate slicing."""

import math
import wave
from dataclasses import dataclass

import numpy as np

from .errors import DataError

INT16_SCALE = 32768.0
# wave raises these without a message
_SILENT_ERRORS = {
    EOFError: "the file ends inside its header",
    RuntimeError: "a chunk size runs past the end of the file",
}


@dataclass
class AudioBuffer:
    """Audio samples as float64 in [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate: int

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def _check_format(params, path):
    if params.nchannels != 1:
        raise DataError(f"{path}: expected mono audio, got {params.nchannels} channels")
    if params.sampwidth != 2 or params.comptype != "NONE":
        raise DataError(f"{path}: expected 16-bit PCM encoding")


def _read(path, frames):
    """The header's params, the format validated, and the raw PCM when
    frames is set; a file wave cannot parse is a DataError."""
    try:
        with wave.open(str(path), "rb") as wav:
            params = wav.getparams()
            _check_format(params, path)
            return params, wav.readframes(params.nframes) if frames else b""
    # ValueError: NUL in path; RuntimeError: a chunk size past the file's end
    except (wave.Error, EOFError, OSError, ValueError, RuntimeError) as exc:
        reason = str(exc) or _SILENT_ERRORS.get(type(exc), type(exc).__name__)
        raise DataError(f"{path}: not a readable WAV file ({reason})") from exc


def wav_info(path):
    """Return (sample_rate, n_samples) from the header, validating the format."""
    params, _ = _read(path, False)
    return params.framerate, params.nframes


def read_wav(path) -> AudioBuffer:
    params, raw = _read(path, True)
    # a file cut inside its last sample loses that partial sample
    samples = np.frombuffer(raw[:len(raw) // 2 * 2], dtype="<i2")
    return AudioBuffer(samples=samples.astype(np.float64) / INT16_SCALE,
                       sample_rate=params.framerate)


def write_wav(path, buffer: AudioBuffer) -> None:
    clipped = np.clip(buffer.samples, -1.0, 32767.0 / INT16_SCALE)
    pcm = np.round(clipped * INT16_SCALE).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(buffer.sample_rate)
        wav.writeframes(pcm.tobytes())


def slice_audio(buffer: AudioBuffer, start_s: float, end_s: float) -> AudioBuffer:
    """Cut [start_s, end_s) out of a session buffer.

    Start is rounded down and end up to sample boundaries, so the slice
    always covers the requested span.
    """
    if start_s < 0 or end_s <= start_s:
        raise DataError(f"invalid audio span [{start_s}, {end_s}]")
    rate = buffer.sample_rate
    # tolerate float noise around exact sample boundaries before rounding;
    # check the end while it is a float, which a huge span overflows to inf
    end = end_s * rate - 1e-9
    if end > len(buffer.samples):
        raise DataError(
            f"audio span [{start_s}, {end_s}] ends beyond buffer ({buffer.duration:.3f} s)"
        )
    first = math.floor(start_s * rate + 1e-9)
    last = math.ceil(end)
    return AudioBuffer(samples=buffer.samples[first:last].copy(), sample_rate=rate)
