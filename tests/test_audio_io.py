import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwarn.audio_io import (SampleBuffer, UnsupportedWavError, WavFormatError,
                               frame_signal, load_wav, write_wav)


def _wav_bytes(audio_format, channels, sample_rate, bits, body):
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, sample_rate,
                      (sample_rate * block) % 2 ** 32, block, bits)
    return (b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(body)) + b"WAVE"
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(body)) + body)


def _pcm16_wav_bytes(samples_int16, sample_rate=16000, channels=1):
    return _wav_bytes(1, channels, sample_rate, 16,
                      np.asarray(samples_int16, dtype="<i2").tobytes())


class TestLoadWav:
    def test_pcm16_mono_roundtrip(self, tmp_path):
        path = tmp_path / "mono.wav"
        values = np.arange(1600, dtype="<i2") - 800
        path.write_bytes(_pcm16_wav_bytes(values))
        buf = load_wav(path)
        assert buf.sample_rate == 16000
        assert len(buf.samples) == 1600
        np.testing.assert_allclose(buf.samples, values / 32768.0)

    def test_stereo_averages_to_mono(self, tmp_path):
        # +0.5 / -0.5 in every frame cancels exactly
        path = tmp_path / "stereo.wav"
        interleaved = np.empty(200, dtype="<i2")
        interleaved[0::2] = 16384
        interleaved[1::2] = -16384
        path.write_bytes(_pcm16_wav_bytes(interleaved, channels=2))
        buf = load_wav(path)
        assert len(buf.samples) == 100
        assert np.all(buf.samples == 0.0)

    def test_float32_wav(self, tmp_path):
        path = tmp_path / "float.wav"
        values = np.linspace(-1, 1, 64).astype("<f4")
        body = values.tobytes()
        fmt = struct.pack("<HHIIHH", 3, 1, 8000, 8000 * 4, 4, 32)
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(body))
                         + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                         + b"data" + struct.pack("<I", len(body)) + body)
        buf = load_wav(path)
        np.testing.assert_allclose(buf.samples, values.astype(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(channels=st.integers(1, 2),
           values=st.lists(st.one_of(st.sampled_from([-32768, -32767, -1, 0, 1, 32767]),
                                     st.integers(-32768, 32767)), max_size=64))
    @example(channels=2, values=[-32768, 32767, 32767, -32768, -32768, -32768])
    def test_pcm16_samples_equal_float_scaling_reference(self, tmp_path_factory, channels,
                                                         values):
        # whole stereo frames only; the stereo mean is of the two scaled channels
        pcm = np.array(values[:len(values) - len(values) % channels], dtype="<i2")
        path = tmp_path_factory.getbasetemp() / "scale.wav"
        path.write_bytes(_pcm16_wav_bytes(pcm, channels=channels))
        want = pcm.astype(np.float64) / 32768.0
        if channels == 2:
            want = want.reshape(-1, 2).mean(axis=1)
        assert load_wav(path).samples.tobytes() == want.tobytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_text_file_renamed_wav(self, tmp_path):
        path = tmp_path / "fake.wav"
        path.write_text("this is definitely not audio\n" * 10)
        with pytest.raises(WavFormatError):
            load_wav(path)

    def test_unsupported_codec(self, tmp_path):
        path = tmp_path / "alaw.wav"
        body = b"\x00" * 64
        fmt = struct.pack("<HHIIHH", 6, 1, 8000, 8000, 1, 8)  # A-law
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(body))
                         + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                         + b"data" + struct.pack("<I", len(body)) + body)
        with pytest.raises(UnsupportedWavError):
            load_wav(path)

    def test_deterministic(self, tmp_path):
        path = tmp_path / "det.wav"
        path.write_bytes(_pcm16_wav_bytes(np.arange(320, dtype="<i2")))
        a, b = load_wav(path), load_wav(path)
        assert np.array_equal(a.samples, b.samples) and a.sample_rate == b.sample_rate

    @settings(max_examples=300, deadline=None)
    @given(codec=st.sampled_from([(1, 16), (3, 32), (1, 8), (1, 32), (3, 64), (6, 8)]),
           channels=st.integers(0, 3),
           sample_rate=st.one_of(st.sampled_from([0, 1, 16000, 2 ** 32 - 1]),
                                 st.integers(0, 2 ** 32 - 1)),
           body=st.one_of(st.binary(max_size=40),
                          st.lists(st.floats(width=32), max_size=10).map(
                              lambda xs: np.array(xs, dtype="<f4").tobytes())))
    def test_any_header_loads_or_raises_a_wav_error(self, tmp_path_factory, codec, channels,
                                                    sample_rate, body):
        path = tmp_path_factory.getbasetemp() / "fuzz.wav"
        path.write_bytes(_wav_bytes(codec[0], channels, sample_rate, codec[1], body))
        try:
            buf = load_wav(path)
        except (WavFormatError, UnsupportedWavError):
            return
        assert isinstance(buf, SampleBuffer)
        assert len(buf.samples) * channels * codec[1] // 8 == len(body)

    @settings(max_examples=300, deadline=None)
    @given(codec=st.sampled_from([(1, 16), (3, 32)]), channels=st.integers(1, 2),
           frames=st.integers(0, 6), edit=st.sampled_from(["cut", "overwrite", "insert"]),
           junk=st.binary(min_size=1, max_size=8), data=st.data())
    def test_any_corrupted_container_loads_or_raises_a_wav_error(self, tmp_path_factory, codec,
                                                                 channels, frames, edit, junk,
                                                                 data):
        # a valid file with bytes cut out of it, overwritten or inserted anywhere,
        # chunk headers and sizes included
        valid = _wav_bytes(codec[0], channels, 16000, codec[1],
                           bytes(frames * channels * codec[1] // 8))
        # most edits spare the RIFF/WAVE header, so that the chunks behind it are read
        start = data.draw(st.integers(12, len(valid)) | st.integers(0, 11))
        if edit == "cut":
            corrupted = valid[:start] + valid[data.draw(st.integers(start + 1, len(valid) + 1)):]
        elif edit == "overwrite":
            corrupted = valid[:start] + junk + valid[start + len(junk):]
        else:
            corrupted = valid[:start] + junk + valid[start:]
        path = tmp_path_factory.getbasetemp() / "corrupted.wav"
        path.write_bytes(corrupted)
        try:
            buf = load_wav(path)
        except (WavFormatError, UnsupportedWavError):
            return
        assert isinstance(buf, SampleBuffer)

    @pytest.mark.parametrize("corrupt,message", [
        (lambda wav: wav[:-1], "truncated chunk b'data'"),
        (lambda wav: wav.replace(b"data", b"junk"), "missing fmt or data chunk"),
        (lambda wav: wav.replace(b"fmt \x10", b"fmt \x0e").replace(b"\x10\x00data", b"data"),
         "fmt chunk too short"),
    ])
    def test_broken_container_names_the_fault(self, tmp_path, corrupt, message):
        path = tmp_path / "broken.wav"
        path.write_bytes(corrupt(_pcm16_wav_bytes(np.arange(8))))
        with pytest.raises(WavFormatError, match=f"^{message}$"):
            load_wav(path)

    def test_writer_reader_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        buf = SampleBuffer(rng.uniform(-0.9, 0.9, 4000), 16000)
        path = tmp_path / "rt.wav"
        write_wav(path, buf)
        back = load_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, buf.samples, atol=0.51 / 32768)


class TestFraming:
    def test_two_second_buffer(self):
        buf = SampleBuffer(np.arange(32000) / 32000, 16000)
        frames = frame_signal(buf)
        assert frames.shape == (20, 1600) and frames.dtype == np.float64
        # row i starts at sample i * 1600, i.e. at t = 0.1 * i
        assert np.array_equal(frames[:, 0], buf.samples[1600 * np.arange(20)])

    def test_trailing_samples_dropped(self):
        buf = SampleBuffer(np.zeros(7600), 8000)  # 0.95 s
        frames = frame_signal(buf)
        assert frames.shape == (9, 800)  # last 400 dropped

    def test_too_short(self):
        with pytest.raises(ValueError):
            frame_signal(SampleBuffer(np.zeros(800), 16000))  # 0.05 s
        with pytest.raises(ValueError):
            frame_signal(SampleBuffer(np.zeros(10), 4))  # 0.1 s holds 0.4 samples

    def test_partition_property(self):
        # concatenated frames reproduce the kept prefix sample-for-sample
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1600, 50000))
            buf = SampleBuffer(rng.uniform(-1, 1, n), 16000)
            frames = frame_signal(buf)
            assert len(frames) == int(buf.duration / 0.1)
            glued = frames.ravel()
            np.testing.assert_array_equal(glued, buf.samples[:len(glued)])


class TestSampleBufferInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SampleBuffer(np.array([0.0, np.nan]), 16000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SampleBuffer(np.zeros(10), 0)
