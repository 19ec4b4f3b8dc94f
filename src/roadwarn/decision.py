"""Pass-by decision logic: frequency tracking, climax point, final vote.

The climax point is the frame where the vehicle is closest to the
microphone.  The received frequency of a moving source falls through its
rest value exactly there, while the received level peaks, so the detector
uses the energy maximum as the primary cue and the frequency descent as
its validity check.  The track and the climax need no frame labels: only
the VOTE_WINDOW frames that end at the climax are classified, and their
labels decide the sound type.  Nor does the climax need every frame's
frequency: each frequency read computes the hann spectra it needs and
nothing is cached, so most clips are decided from the 9 spectra around
the energy peak.
"""

from __future__ import annotations

import numpy as np

from . import features
from .labels import APPROACHING, RECEDING, UNKNOWN, DetectionResult, SoundClass, most_dangerous

VOTE_WINDOW = 8  # final frames voted on, climax frame included

TRACK_BAND = (50.0, 2000.0)  # Hz searched for the dominant frequency

# relative before/after energy imbalance below which direction is "unknown"
_DIRECTION_THRESHOLD = 0.2


class TrackTooShortError(ValueError):
    """The frame track is too short for the requested decision."""


class FrameTrack:
    """Per-frame dominant frequency and RMS energy of a clip: what the
    climax search and the direction call read.  Frame labels are not part
    of it; `finalize_detection` takes those of the vote window.

    Built from arrays, the track holds them.  `track_frames` builds one
    from the frames instead: it holds the frames and every frame's RMS,
    and each frequency read computes the hann spectra it needs, with
    nothing cached.  Either way a frequency read gives the same bits.
    """

    def __init__(self, dominant_freq: np.ndarray, rms_energy: np.ndarray, bin_hz: float):
        if len(dominant_freq) != len(rms_energy):
            raise ValueError("track sequences must have equal lengths")
        self._smoothed = dominant_freq  # Hz per frame, median-smoothed
        self._frames = None
        self.rms_energy = rms_energy
        self.bin_hz = bin_hz

    @classmethod
    def _of_frames(cls, frames: np.ndarray, bin_hz: float) -> FrameTrack:
        track = cls.__new__(cls)
        track._frames = frames
        track.rms_energy = np.sqrt(np.mean(frames ** 2, axis=1))
        track.bin_hz = bin_hz
        return track

    def __len__(self) -> int:
        return len(self.rms_energy)

    @property
    def dominant_freq(self) -> np.ndarray:
        """Hz per frame, median-smoothed over 3 frames."""
        return self.freq_slice(0, len(self))

    def freq_slice(self, lo: int, hi: int) -> np.ndarray:
        """`dominant_freq[lo:hi]` (0 <= lo < hi <= len).  Built from frames,
        the track computes the spectra of frames lo-1..hi in one
        `fft_magnitude` call at each read."""
        if self._frames is None:
            return self._smoothed[lo:hi]
        start, stop = max(lo - 1, 0), min(hi + 1, len(self))
        rows = self._frames[start:stop] * features.hann_window(self._frames.shape[1])
        raw = band_peak_hz(features.fft_magnitude(rows), TRACK_BAND, self.bin_hz)
        return _median3(raw)[lo - start:hi - start]


def _band_bins(n_bins: int, band: tuple[float, float], bin_hz: float) -> tuple[int, int]:
    """First and last of `n_bins` spectrum bins, `bin_hz` apart, inside
    `band` (Hz); ValueError when there are none."""
    lo_bin = int(np.ceil(band[0] / bin_hz))
    hi_bin = min(int(np.floor(band[1] / bin_hz)), n_bins - 1)
    if lo_bin > hi_bin:
        raise ValueError(f"band {band} holds no spectrum bins at {bin_hz} Hz spacing")
    return lo_bin, hi_bin


def band_peak_hz(mags: np.ndarray, band: tuple[float, float], bin_hz: float) -> np.ndarray:
    """Per row of a (frames x bins) magnitude stack: the frequency of the
    strongest bin inside `band` (Hz), parabolically refined.

    The refinement needs both neighbours (0 < k < last bin) and a curved
    top (|alpha - 2 beta + gamma| > 1e-30); other rows keep k * bin_hz.
    """
    last = mags.shape[1] - 1
    lo_bin, hi_bin = _band_bins(mags.shape[1], band, bin_hz)
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


def _median3(raw: np.ndarray) -> np.ndarray:
    """`raw` median-smoothed over 3 frames, its first and last values kept.

    The median is max(min(a, b), min(max(a, b), c)), which picks out the
    middle one of three finite values exactly, as `np.median` does,
    without its per-call cost.
    """
    smoothed = raw.copy()
    a, b, c = raw[:-2], raw[1:-1], raw[2:]
    smoothed[1:-1] = np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))
    return smoothed


def track_frames(frames: np.ndarray, sample_rate: int) -> FrameTrack:
    """Per-frame dominant frequency (within TRACK_BAND) and RMS energy of a
    (frames x samples) matrix.

    The frequency comes from hann-windowed spectra, which give cleaner
    peaks than the rectangular spectra the scalar features are defined on.
    The track is median-smoothed over 3 frames to knock out single-frame
    spikes; the first and last frames keep their raw values.  The RMS is
    computed here; the spectra are computed at each frequency read (see
    `FrameTrack`), so the track keeps the matrix, which must not change
    while the track is read.  A band without spectrum bins fails here,
    before any read.
    """
    X = np.asarray(frames, dtype=np.float64)
    if X.ndim != 2 or not len(X):
        raise ValueError("frames must be a non-empty matrix")
    bin_hz = sample_rate / X.shape[1]
    _band_bins(X.shape[1] // 2 + 1, TRACK_BAND, bin_hz)
    return FrameTrack._of_frames(X, bin_hz)


def _descent_scores(freq: np.ndarray) -> np.ndarray:
    """The descent score of each frame i, 3 <= i <= len - 4, of `freq`:
    the mean frequency over frames i-3..i-1 minus the mean over i+1..i+3.

    All of them come from one array of 3-frame means, each summed as
    (a + b) + c and divided by 3, the order `np.mean` takes on a 3-value
    slice, so every score equals the per-frame `np.mean` difference bit
    for bit, and a frame's score is the same from any slice that holds
    frames i-3..i+3.
    """
    means = (freq[:-2] + freq[1:-1] + freq[2:]) / 3.0
    return means[:-4] - means[4:]  # [i - 3] is frame i's


def detect_climax(track: FrameTrack) -> int:
    """Frame index of the closest approach.

    Primary cue: the RMS energy maximum, accepted when the frequency track
    descends across it (or when a side window is missing, or when the whole
    track is flat to within 2 bins).  Otherwise the index with the steepest
    3-frame frequency drop across it wins, if the track drops anywhere; if
    it drops nowhere, the energy maximum stands.

    The rule is evaluated in the order that reads the fewest frequencies:
    an energy peak within 3 frames of either end returns with none read;
    then the peak's own descent score, from frames peak-3..peak+3 (the
    spectra of peak-4..peak+4); only then the flatness check and the
    fallback, over the whole track.  Each early exit returns the energy
    peak, as the flatness check does, so the order gives the same frame.
    """
    n = len(track)
    if n < VOTE_WINDOW:
        raise TrackTooShortError(f"need >= {VOTE_WINDOW} frames, got {n}")
    energy_peak = int(np.argmax(track.rms_energy))
    if not 3 <= energy_peak < n - 3:
        return energy_peak
    if _descent_scores(track.freq_slice(energy_peak - 3, energy_peak + 4))[0] > 0.0:
        return energy_peak
    freq = track.dominant_freq
    if float(freq.max() - freq.min()) < 2.0 * track.bin_hz:
        return energy_peak
    scores = _descent_scores(freq)
    best = int(np.argmax(scores))
    return 3 + best if scores[best] > 0.0 else energy_peak


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


def vote_window(climax: int) -> slice:
    """The frames voted on: the VOTE_WINDOW that end at the climax.

    Raises TrackTooShortError when the climax leaves fewer frames.
    """
    if climax < VOTE_WINDOW - 1:
        raise TrackTooShortError(
            f"climax {climax} leaves fewer than {VOTE_WINDOW} frames to vote on")
    return slice(climax - (VOTE_WINDOW - 1), climax + 1)


def finalize_detection(track: FrameTrack, climax: int, labels: list) -> DetectionResult:
    """Phase-3 decision from the labels of the `vote_window(climax)` frames,
    the climax frame last: NV at the climax short-circuits, else the
    8-frame vote.  A climax that leaves fewer frames raises
    TrackTooShortError, as `vote_window` does."""
    vote_window(climax)
    if len(labels) != VOTE_WINDOW:
        raise ValueError(f"need the {VOTE_WINDOW} labels of the vote window, got {len(labels)}")
    direction = infer_direction(track, climax)
    sound = SoundClass.NV if labels[-1] is SoundClass.NV else vote_final_frames(labels)
    return DetectionResult(climax_index=climax, sound_type=sound, direction=direction)
