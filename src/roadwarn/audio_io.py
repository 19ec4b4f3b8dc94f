"""Mono audio loading and fixed-length framing.

Everything downstream of this module works on one frame matrix per
buffer: row i holds the samples of the i-th 0.1 s, non-overlapping slice
of a `SampleBuffer`, starting at i * 0.1 s.  Only RIFF/WAVE containers with
16-bit PCM or 32-bit IEEE-float samples are understood; anything else is
rejected with a distinct error so callers can report the exact problem.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

DEFAULT_FRAME_SECONDS = 0.1


class WavFormatError(ValueError):
    """The file is not a RIFF/WAVE container (or it is truncated/corrupt)."""


class UnsupportedWavError(ValueError):
    """The container is WAVE but the codec/bit depth is not supported."""


@dataclass(frozen=True)
class SampleBuffer:
    """Mono audio: amplitudes in [-1, 1] at a fixed sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        object.__setattr__(self, "samples", samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def _parse_wav_chunks(data: bytes):
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise WavFormatError("not a RIFF/WAVE file")
    chunks = {}
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8:pos + 8 + size]
        if len(body) < size:
            raise WavFormatError("truncated chunk %r" % cid)
        if cid in (b"fmt ", b"data") and cid not in chunks:
            chunks[cid] = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned
    if b"fmt " not in chunks or b"data" not in chunks:
        raise WavFormatError("missing fmt or data chunk")
    return chunks[b"fmt "], chunks[b"data"]


def load_wav(path) -> SampleBuffer:
    """Read a WAV file as a mono buffer with samples in [-1, 1].

    Accepts 16-bit PCM and 32-bit float, 1 or 2 channels (stereo is averaged
    to mono).  Raises FileNotFoundError, WavFormatError (also for a partial
    sample frame, a sample rate of 0 or a non-finite float) or UnsupportedWavError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    fmt, body = _parse_wav_chunks(data)
    if len(fmt) < 16:
        raise WavFormatError("fmt chunk too short")
    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if n_channels not in (1, 2):
        raise UnsupportedWavError(f"{n_channels} channels not supported")
    if (audio_format, bits) not in ((1, 16), (3, 32)):
        raise UnsupportedWavError(f"codec (format={audio_format}, bits={bits}) not supported")
    if len(body) % (n_channels * bits // 8):
        raise WavFormatError(f"data chunk of {len(body)} bytes is not a whole number "
                             f"of {n_channels}-channel {bits}-bit sample frames")
    if sample_rate == 0:
        raise WavFormatError("sample rate is 0")
    if audio_format == 1:
        # int16 -> float64 and division by 2**15 are both exact
        samples = np.frombuffer(body, dtype="<i2") / 32768.0
    else:
        raw = np.frombuffer(body, dtype="<f4")
        if not np.isfinite(raw).all():
            raise WavFormatError("non-finite float sample")
        samples = np.clip(raw.astype(np.float64), -1.0, 1.0)
    if n_channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return SampleBuffer(samples=samples, sample_rate=sample_rate)


def write_wav(path, buffer: SampleBuffer) -> None:
    """Write a mono buffer as 16-bit PCM WAV (same 1/32768 scale as the reader)."""
    pcm = np.clip(np.round(buffer.samples * 32768.0), -32768, 32767).astype("<i2")
    body = pcm.tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, buffer.sample_rate, buffer.sample_rate * 2, 2, 16)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(body)) + b"WAVE")
        fh.write(b"fmt " + struct.pack("<I", len(fmt)) + fmt)
        fh.write(b"data" + struct.pack("<I", len(body)) + body)


def frame_signal(buffer: SampleBuffer) -> np.ndarray:
    """Cut a buffer into floor(duration / 0.1 s) non-overlapping frames.

    Returns the (frames x samples) float64 matrix, a view of the buffer's
    samples; trailing samples that do not fill a whole frame are
    discarded.  A buffer shorter than one frame is an error.
    """
    n = int(round(DEFAULT_FRAME_SECONDS * buffer.sample_rate))
    if n < 1:
        raise ValueError(f"a {DEFAULT_FRAME_SECONDS} s frame holds no whole sample "
                         f"at {buffer.sample_rate} Hz")
    count = len(buffer.samples) // n
    if count < 1:
        raise ValueError(
            f"buffer of {buffer.duration:.4f} s is shorter than one "
            f"{DEFAULT_FRAME_SECONDS} s frame"
        )
    return buffer.samples[:count * n].reshape(count, n)
