import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from roadwarn import synth
from roadwarn.decision import band_peak_hz
from roadwarn.features import fft_magnitude
from roadwarn.labels import DIRECTIONS, SoundClass
from roadwarn.warnd import ProtocolError

# pinned output sums; see its "about"
GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    """The full seeded 210-clip corpus, generated once per session."""
    out = tmp_path_factory.mktemp("corpus")
    synth.generate_corpus(out, seed=0)
    return out


@pytest.fixture(scope="session")
def features_csv(tmp_path_factory, corpus_dir):
    """Per-frame feature CSV extracted from the session corpus."""
    from roadwarn.cli import main

    path = tmp_path_factory.mktemp("features") / "features.csv"
    assert main(["extract", str(corpus_dir), str(path)]) == 0
    return path


def sine_frame(freq_hz, sample_rate=16000, n=1600, amplitude=1.0):
    """The samples of one frame holding a sine."""
    t = np.arange(n) / sample_rate
    return amplitude * np.sin(2 * np.pi * freq_hz * t)


def doppler_hz(f0, v, approaching, c=343.0):
    """Received frequency (Hz) of an `f0` Hz source moving at `v` m/s
    straight at (`approaching`) or away from the receiver: f0 c / (c -+ v).
    Raises ValueError unless f0 > 0 and 0 <= v < c."""
    if f0 <= 0:
        raise ValueError("f0 must be positive")
    if not 0 <= v < c:
        raise ValueError("need 0 <= v < c")
    return f0 * c / (c - v if approaching else c + v)


def measure_tone_frequency(buffer, t0, t1, band):
    """Dominant frequency (Hz) of buffer[t0:t1] within band: the tracker's
    refined peak of the hann-windowed spectrum."""
    i0, i1 = int(t0 * buffer.sample_rate), int(t1 * buffer.sample_rate)
    segment = buffer.samples[i0:i1]
    mags = fft_magnitude(segment * np.hanning(len(segment)))
    return float(band_peak_hz(mags[np.newaxis], band, buffer.sample_rate / len(segment))[0])


def members_in_area_reference(area, registry, now, freshness_window):
    """client_ids of `registry` (client_id -> record with x, y, t) whose
    position lies in `area`, boundary included, stamped at most
    `freshness_window` before or after `now`: the geofence and freshness
    rule over the whole registry, which a dispatch must agree with."""
    return [cid for cid, record in registry.items()
            if area.contains(record.x, record.y)
            and -freshness_window <= now - record.t <= freshness_window]


def registry_positions(dispatcher):
    """A dispatcher's registry as client_id -> (x, y, t)."""
    return {cid: (r.x, r.y, r.t) for cid, r in dispatcher._clients.items()}


def read_warn_line(line):
    """A WARN line as a client reads it: (processor_id, SoundClass, direction,
    event_time), or ProtocolError naming the first fault.  The package writes
    WARN lines and reads none; this is the reader they must satisfy."""
    parts = line.strip().split(" ")
    if parts[0] != "WARN":
        raise ProtocolError(f"unknown verb {parts[0]!r}")
    if len(parts) != 5:
        raise ProtocolError("WARN needs 4 fields")
    _, processor_id, sound_class, direction, event_time = parts
    if not re.fullmatch(r"[0-9]+", processor_id):
        raise ProtocolError(f"bad processor_id {processor_id!r}")
    try:
        sound_class = SoundClass(sound_class)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from None
    if direction not in DIRECTIONS:
        raise ProtocolError(f"bad direction {direction!r}")
    if not re.fullmatch(r"-?[0-9]+(\.[0-9]{1,3})?", event_time):
        raise ProtocolError(f"bad t {event_time!r}")
    if not math.isfinite(float(event_time)):
        raise ProtocolError(f"bad t {event_time[:16]}... (not finite)")
    if sound_class not in (SoundClass.H, SoundClass.LH):
        raise ProtocolError("only risky classes (H, LH) are ever dispatched")
    return int(processor_id), sound_class, direction, float(event_time)
