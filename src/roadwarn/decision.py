"""Pass-by decision logic: frequency tracking, climax point, final vote.

The climax point is the frame where the vehicle is closest to the
microphone.  The received frequency of a moving source falls through its
rest value exactly there, while the received level peaks, so the detector
uses the energy maximum as the primary cue and the frequency descent as
its validity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import features
from .classifiers import SoundClass, most_dangerous

APPROACHING = "approaching"
RECEDING = "receding"
UNKNOWN = "unknown"

DIRECTIONS = (APPROACHING, RECEDING, UNKNOWN)

VOTE_WINDOW = 8  # final frames voted on, climax frame included

TRACK_BAND = (50.0, 2000.0)  # Hz searched for the dominant frequency

# relative before/after energy imbalance below which direction is "unknown"
_DIRECTION_THRESHOLD = 0.2


class TrackTooShortError(ValueError):
    """The frame track is too short for the requested decision."""


@dataclass(frozen=True)
class DopplerParams:
    f0: float          # source frequency, Hz
    v: float           # source speed, m/s
    c: float = 343.0   # speed of sound, m/s

    def __post_init__(self):
        if self.f0 <= 0:
            raise ValueError("f0 must be positive")
        if not (0 <= self.v < self.c):
            raise ValueError("need 0 <= v < c")


def doppler_observed(params: DopplerParams, phase: str) -> float:
    """Received frequency of a source moving straight at/away from the receiver."""
    if phase == APPROACHING:
        return params.f0 * params.c / (params.c - params.v)
    if phase == RECEDING:
        return params.f0 * params.c / (params.c + params.v)
    raise ValueError(f"phase must be approaching or receding, got {phase!r}")


@dataclass(frozen=True)
class FrameTrack:
    dominant_freq: np.ndarray  # Hz per frame, median-smoothed
    rms_energy: np.ndarray
    labels: list               # SoundClass per frame
    bin_hz: float

    def __post_init__(self):
        if not (len(self.dominant_freq) == len(self.rms_energy) == len(self.labels)):
            raise ValueError("track sequences must have equal lengths")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class DetectionResult:
    climax_index: int
    sound_type: SoundClass
    direction: str

    def to_line(self) -> str:
        return f"DET {self.climax_index} {self.sound_type.value} {self.direction}"


def band_peak_hz(mags: np.ndarray, band: tuple[float, float], bin_hz: float) -> np.ndarray:
    """Per row of a (frames x bins) magnitude stack: the frequency of the
    strongest bin inside `band` (Hz), parabolically refined.

    The refinement needs both neighbours (0 < k < last bin) and a curved
    top (|alpha - 2 beta + gamma| > 1e-30); other rows keep k * bin_hz.
    """
    last = mags.shape[1] - 1
    lo_bin = int(np.ceil(band[0] / bin_hz))
    hi_bin = min(int(np.floor(band[1] / bin_hz)), last)
    if lo_bin > hi_bin:
        raise ValueError(f"band {band} holds no spectrum bins at {bin_hz} Hz spacing")
    k = lo_bin + np.argmax(mags[:, lo_bin:hi_bin + 1], axis=1)
    rows = np.arange(len(k))
    # at k = 0 and k = last a neighbour index wraps around; `refine` drops those rows
    alpha = mags[rows, k - 1]
    beta = mags[rows, k]
    gamma = mags[rows, (k + 1) % (last + 1)]
    denom = alpha - 2.0 * beta + gamma
    refine = (0 < k) & (k < last) & (np.abs(denom) > 1e-30)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        delta = 0.5 * (alpha - gamma) / denom
    freq = np.where(refine, (k + np.clip(delta, -0.5, 0.5)) * bin_hz, k * bin_hz)
    return np.clip(freq, lo_bin * bin_hz, hi_bin * bin_hz)


def track_frames(frames: np.ndarray, sample_rate: int, labels: list) -> FrameTrack:
    """Per-frame dominant frequency (within TRACK_BAND) and RMS energy of a
    (frames x samples) matrix.

    The frequency comes from hann-windowed spectra, which give cleaner
    peaks than the rectangular spectra the scalar features are defined on.
    The track is median-smoothed over 3 frames to knock out single-frame
    spikes; the first and last frames keep their raw values.
    """
    X = np.asarray(frames, dtype=np.float64)
    if X.ndim != 2 or not len(X) or len(X) != len(labels):
        raise ValueError("frames must be a non-empty matrix with one label per row")
    n = X.shape[1]
    bin_hz = sample_rate / n
    raw = band_peak_hz(features.fft_magnitude(X * np.hanning(n)), TRACK_BAND, bin_hz)
    smoothed = raw.copy()
    if len(raw) > 2:
        smoothed[1:-1] = np.median(np.lib.stride_tricks.sliding_window_view(raw, 3), axis=1)
    rms = np.sqrt(np.mean(X ** 2, axis=1))
    return FrameTrack(dominant_freq=smoothed, rms_energy=rms, labels=list(labels), bin_hz=bin_hz)


def _descent_score(freq: np.ndarray, idx: int) -> float | None:
    """Mean frequency over the 3 frames before idx minus the 3 after.

    None when either side window is incomplete.
    """
    if idx < 3 or idx + 3 >= len(freq):
        return None
    return float(np.mean(freq[idx - 3:idx]) - np.mean(freq[idx + 1:idx + 4]))


def detect_climax(track: FrameTrack) -> int:
    """Frame index of the closest approach.

    Primary cue: the RMS energy maximum, accepted when the frequency track
    descends across it (or when a side window is missing, or when the whole
    track is flat to within 2 bins).  Otherwise the index with the steepest
    3-frame frequency drop across it wins.
    """
    if len(track) < VOTE_WINDOW:
        raise TrackTooShortError(f"need >= {VOTE_WINDOW} frames, got {len(track)}")
    freq = track.dominant_freq
    energy_peak = int(np.argmax(track.rms_energy))
    if float(freq.max() - freq.min()) < 2.0 * track.bin_hz:
        return energy_peak
    score = _descent_score(freq, energy_peak)
    if score is None or score > 0.0:
        return energy_peak
    candidates = range(3, len(freq) - 3)
    scores = [_descent_score(freq, i) for i in candidates]
    return 3 + int(np.argmax(scores))


def infer_direction(track: FrameTrack, climax: int) -> str:
    """Direction of travel from the energy balance around the climax.

    The directional microphone hears the side it faces, so a vehicle coming
    from the front is loud long before the climax and nearly silent after,
    and one passing the other way mirrors that.  Near the climax the
    1/distance peak swamps the lobe difference, so the comparison uses the
    outer wings of the track, taken symmetrically about the climax (which
    makes the verdict flip exactly under time reversal).  Comparable wings,
    or no symmetric context at all, mean no call.
    """
    if not (0 <= climax < len(track)):
        raise ValueError(f"climax {climax} outside track of {len(track)} frames")
    rms = track.rms_energy
    reach = min(climax, len(rms) - 1 - climax)
    if reach < 2:
        return UNKNOWN
    wing = min(VOTE_WINDOW, max(2, reach // 2))
    before = rms[climax - reach:climax - reach + wing]
    after = rms[climax + reach - wing + 1:climax + reach + 1]
    mean_before, mean_after = float(np.mean(before)), float(np.mean(after))
    denom = max(mean_before, mean_after)
    if denom <= 1e-12:
        return UNKNOWN
    imbalance = (mean_before - mean_after) / denom
    if imbalance > _DIRECTION_THRESHOLD:
        return APPROACHING
    if imbalance < -_DIRECTION_THRESHOLD:
        return RECEDING
    return UNKNOWN


def vote_final_frames(labels: list) -> SoundClass:
    """Majority over the final-frame labels; ties go to the riskier class."""
    counts = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    top = max(counts.values())
    return most_dangerous([c for c, n in counts.items() if n == top])


def finalize_detection(track: FrameTrack, climax: int) -> DetectionResult:
    """Phase-3 decision: NV at the climax short-circuits, else the 8-frame vote."""
    if climax < VOTE_WINDOW - 1:
        raise TrackTooShortError(
            f"climax {climax} leaves fewer than {VOTE_WINDOW} frames to vote on")
    direction = infer_direction(track, climax)
    if track.labels[climax] == SoundClass.NV:
        return DetectionResult(climax_index=climax, sound_type=SoundClass.NV,
                               direction=direction)
    window = track.labels[climax - (VOTE_WINDOW - 1):climax + 1]
    return DetectionResult(climax_index=climax, sound_type=vote_final_frames(window),
                           direction=direction)
