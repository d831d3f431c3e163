import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tinyasr.audio import AudioBuffer, read_wav, slice_audio, wav_info, write_wav
from tinyasr.errors import DataError


def make_buffer(seconds=2.0, rate=16000, seed=0):
    rng = np.random.default_rng(seed)
    return AudioBuffer(rng.uniform(-0.5, 0.5, size=int(seconds * rate)), rate)


def test_wav_round_trip(tmp_path):
    buf = make_buffer()
    path = tmp_path / "x.wav"
    write_wav(path, buf)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert len(back.samples) == len(buf.samples)
    # PCM16 quantization error is at most one step
    assert np.abs(back.samples - buf.samples).max() <= 1.0 / 32768.0 + 1e-12


@pytest.mark.parametrize("reader", [read_wav, wav_info])
def test_directory_is_data_error(tmp_path, reader):
    with pytest.raises(DataError, match="not a readable WAV file"):
        reader(tmp_path)


@pytest.mark.parametrize("reader", [read_wav, wav_info])
def test_path_with_nul_byte_is_data_error(tmp_path, reader):
    with pytest.raises(DataError, match="not a readable WAV file"):
        reader(tmp_path / "a\x00b.wav")


def test_wav_info_matches_header(tmp_path):
    buf = make_buffer(seconds=0.5)
    path = tmp_path / "x.wav"
    write_wav(path, buf)
    rate, n = wav_info(path)
    assert (rate, n) == (16000, 8000)


def test_read_rejects_non_wav(tmp_path):
    path = tmp_path / "bad.wav"
    path.write_bytes(b"not a wav at all")
    with pytest.raises(DataError):
        read_wav(path)


def test_slice_one_second_is_16000_samples():
    buf = make_buffer(seconds=2.0)
    clip = slice_audio(buf, 0.0, 1.0)
    assert len(clip.samples) == 16000
    assert np.array_equal(clip.samples, buf.samples[:16000])


def test_slice_rounds_start_down_end_up():
    buf = make_buffer(seconds=1.0)
    clip = slice_audio(buf, 0.00003, 0.00013)  # 0.48 .. 2.08 samples
    assert len(clip.samples) == 3
    assert np.array_equal(clip.samples, buf.samples[0:3])


def test_slice_rejects_inverted_span():
    with pytest.raises(DataError):
        slice_audio(make_buffer(), 1.0, 0.5)


def test_slice_rejects_span_beyond_buffer():
    with pytest.raises(DataError):
        slice_audio(make_buffer(seconds=1.0), 0.5, 1.5)


def test_slice_far_beyond_buffer_is_data_error():
    with pytest.raises(DataError, match="ends beyond buffer"):
        slice_audio(make_buffer(seconds=1.0), 1e305, 1e306)


def test_cut_inside_a_sample_reads_like_a_cut_between(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(path, make_buffer(seconds=0.1))
    data = path.read_bytes()
    path.write_bytes(data[:1001])
    inside = read_wav(path)
    path.write_bytes(data[:1000])
    assert np.array_equal(inside.samples, read_wav(path).samples)
    assert len(inside.samples) == (1000 - 44) // 2


@pytest.mark.parametrize("empty,reason", [
    pytest.param(False, "a chunk size runs past the end of the file", id="fmt-size-173"),
    pytest.param(True, "the file ends inside its header", id="empty")])
@pytest.mark.parametrize("reader", [read_wav, wav_info])
def test_error_without_a_message_still_gives_a_reason(tmp_path, reader, empty, reason):
    # wave raises a bare RuntimeError or EOFError for these two
    path = tmp_path / "x.wav"
    write_wav(path, make_buffer(seconds=0.05))
    data = path.read_bytes()
    # header byte 17 is the second byte of the fmt chunk size
    path.write_bytes(b"" if empty else data[:17] + bytes([173]) + data[18:])
    with pytest.raises(DataError) as info:
        reader(path)
    assert str(info.value) == f"{path}: not a readable WAV file ({reason})"


class TestAnyDamagedHeader:
    # bytes set within the first 64, then the file cut at some length or kept
    @settings(max_examples=200, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 255)),
                          min_size=1, max_size=4),
           cut=st.none() | st.integers(0, 2000))
    @example(edits=[(17, 1)], cut=None)  # fmt chunk size past the end of the file
    @example(edits=[(0, ord("R"))], cut=1001)  # cut inside the last sample
    def test_wav_info_and_read_wav_raise_only_data_errors(self, edits, cut):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.wav"
            write_wav(path, make_buffer(seconds=0.05))
            data = bytearray(path.read_bytes())
            for index, value in edits:
                data[index] = value
            path.write_bytes(bytes(data if cut is None else data[:cut]))
            for reader in (wav_info, read_wav):
                try:
                    reader(path)
                except DataError:
                    pass
