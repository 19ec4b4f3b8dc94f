import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roadwarn import audio_io, features, synth
from roadwarn.decision import (VOTE_WINDOW, FrameTrack, TrackTooShortError, band_peak_hz,
                               detect_climax, finalize_detection, infer_direction, track_frames,
                               vote_final_frames, vote_window)
from roadwarn.labels import APPROACHING, RECEDING, UNKNOWN, DetectionResult, SoundClass

from conftest import doppler_hz


def build_track(freqs, energies, bin_hz=10.0):
    return FrameTrack(dominant_freq=np.asarray(freqs, dtype=float),
                      rms_energy=np.asarray(energies, dtype=float), bin_hz=bin_hz)


class TestDoppler:
    def test_stationary_source(self):
        assert doppler_hz(220.0, 0.0, approaching=True) == 220.0
        assert doppler_hz(220.0, 0.0, approaching=False) == 220.0

    def test_75_kmh_values(self):
        assert doppler_hz(100.0, 20.833, approaching=True) == pytest.approx(106.47, abs=0.01)
        assert doppler_hz(100.0, 20.833, approaching=False) == pytest.approx(94.27, abs=0.01)

    def test_ordering_for_all_speeds(self):
        for v in np.linspace(0.5, 340.0, 40):
            assert (doppler_hz(150.0, float(v), approaching=True) > 150.0
                    > doppler_hz(150.0, float(v), approaching=False))

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            doppler_hz(100.0, 400.0, approaching=True)


def interpolated_peak_hz_reference(magnitudes, lo_bin, hi_bin, bin_hz):
    """Frequency of the strongest bin in [lo_bin, hi_bin], parabolically
    refined: the per-frame peak pick as first written, the oracle for
    `_band_peak_hz`."""
    window = magnitudes[lo_bin:hi_bin + 1]
    k = lo_bin + int(np.argmax(window))
    freq = k * bin_hz
    if 0 < k < len(magnitudes) - 1:
        alpha, beta, gamma = magnitudes[k - 1], magnitudes[k], magnitudes[k + 1]
        denom = alpha - 2.0 * beta + gamma
        if abs(denom) > 1e-30:
            delta = 0.5 * (alpha - gamma) / denom
            freq = (k + np.clip(delta, -0.5, 0.5)) * bin_hz
    return float(np.clip(freq, lo_bin * bin_hz, hi_bin * bin_hz))


def track_frames_reference(frames, sample_rate, band=(50.0, 2000.0)):
    """(smoothed dominant Hz, RMS, bin_hz) from the per-frame tracking loop as
    first written, fed one hann-windowed spectrum per frame."""
    spectra = [np.abs(np.fft.rfft(x * np.hanning(len(x)))) for x in frames]
    bin_hz = sample_rate / len(frames[0])
    lo_bin = int(np.ceil(band[0] / bin_hz))
    hi_bin = int(np.floor(band[1] / bin_hz))
    hi_bin = min(hi_bin, len(spectra[0]) - 1)
    if lo_bin > hi_bin:
        raise ValueError(f"band {band} holds no spectrum bins at {bin_hz} Hz spacing")
    raw = np.array([interpolated_peak_hz_reference(s, lo_bin, hi_bin, bin_hz)
                    for s in spectra])
    smoothed = raw.copy()
    for i in range(1, len(raw) - 1):
        smoothed[i] = np.median(raw[i - 1:i + 2])
    rms = np.array([np.sqrt(np.mean(x ** 2)) for x in frames])
    return smoothed, rms, bin_hz


@st.composite
def magnitude_stacks(draw):
    """(mags, lo_bin, hi_bin): few distinct values, so flat tops (denom == 0),
    ties and peaks on bin 0, the last bin and the band edges are common."""
    mags = draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(3, 16)),
                           elements=st.one_of(st.sampled_from([0.0, 1.0, 2.0]),
                                              st.floats(0.0, 1e3))))
    last = mags.shape[1] - 1
    lo_bin = draw(st.integers(0, last))
    return mags, lo_bin, draw(st.integers(lo_bin, last))


@st.composite
def frame_matrices(draw):
    """(frames, sample_rate): 0.1 s frames, with Nyquist below, at and above
    the band's top, made of silence, noise, tones anywhere, and cosines on
    the band-edge bins and the last bin."""
    rate = draw(st.sampled_from([400, 1000, 4000, 16000]))
    n = rate // 10
    t = np.arange(n) / rate
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    edges = [50.0, min(2000.0, rate / 2), rate / 2]
    frames = []
    for kind in draw(st.lists(st.sampled_from(["zero", "noise", "tone", "edge"]),
                              min_size=1, max_size=10)):
        if kind == "zero":
            x = np.zeros(n)
        elif kind == "noise":
            x = rng.uniform(-1, 1, n)
        elif kind == "tone":
            x = np.sin(2 * np.pi * rng.uniform(0, rate / 2) * t)
        else:
            x = np.cos(2 * np.pi * edges[rng.integers(3)] * t)
        frames.append(x)
    return np.array(frames), rate


class TestTrackFrames:
    def test_pure_tone_track(self):
        t = np.arange(1600) / 16000
        frames = np.tile(np.sin(2 * np.pi * 440.0 * t), (10, 1))
        track = track_frames(frames, 16000)
        assert np.all(np.abs(track.dominant_freq - 440.0) <= track.bin_hz / 2)

    def test_silence_has_zero_energy(self):
        track = track_frames(np.zeros((8, 1600)), 16000)
        assert np.all(track.rms_energy == 0.0)

    def test_median_removes_single_spike(self):
        t = np.arange(1600) / 16000
        frames = np.sin(2 * np.pi * np.c_[[300, 300, 900, 300, 300]] * t)
        track = track_frames(frames, 16000)
        assert np.all(np.abs(track.dominant_freq[1:-1] - 300.0) <= track.bin_hz)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            track_frames(np.zeros((0, 1600)), 16000)
        with pytest.raises(ValueError):
            track_frames(np.zeros(1600), 16000)

    def test_band_without_bins_rejected(self):
        # 8 samples at 80 Hz: bins every 10 Hz up to 40 Hz, all below the band
        with pytest.raises(ValueError):
            track_frames(np.ones((1, 8)), 80)

    @settings(max_examples=300, deadline=None)
    @given(case=magnitude_stacks(), bin_hz=st.sampled_from([0.5, 10.0, 15.625]))
    @example(case=(np.zeros((2, 6)), 0, 5), bin_hz=10.0)
    @example(case=(np.array([[3.0, 1, 0, 0, 1, 2], [0, 0, 1, 2, 1, 4.0]]), 0, 5), bin_hz=10.0)
    def test_peak_pick_matches_per_frame_reference(self, case, bin_hz):
        # bin_hz values are exact in binary, so the band maps back to the same bins
        mags, lo_bin, hi_bin = case
        got = band_peak_hz(mags, (lo_bin * bin_hz, hi_bin * bin_hz), bin_hz)
        want = [interpolated_peak_hz_reference(m, lo_bin, hi_bin, bin_hz) for m in mags]
        assert np.array_equal(got, want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_refinement_row_is_quiet(self):
        # denom is 5e-324, so (alpha - gamma) / denom overflows; the row is not
        # refined, and computing its unused delta must not warn
        mags = np.array([[1.0, 0.5, 5e-324, 0.0]])
        assert band_peak_hz(mags, (1.0, 1.0), 1.0).tolist() == [1.0]

    @settings(max_examples=150, deadline=None)
    @given(case=frame_matrices())
    def test_matches_per_frame_reference(self, case):
        frames, rate = case
        track = track_frames(frames, rate)
        smoothed, rms, bin_hz = track_frames_reference(frames, rate)
        assert np.array_equal(track.dominant_freq, smoothed)
        assert np.array_equal(track.rms_energy, rms)
        assert track.bin_hz == bin_hz


def descent_score_reference(freq, idx):
    """Mean frequency over the 3 frames before idx minus the 3 after, None
    when either side window is incomplete: the per-frame score as first
    written."""
    if idx < 3 or idx + 3 >= len(freq):
        return None
    return float(np.mean(freq[idx - 3:idx]) - np.mean(freq[idx + 1:idx + 4]))


def detect_climax_reference(track):
    """The climax search as first written, one `descent_score_reference`
    call per frame."""
    freq = track.dominant_freq
    energy_peak = int(np.argmax(track.rms_energy))
    if float(freq.max() - freq.min()) < 2.0 * track.bin_hz:
        return energy_peak
    score = descent_score_reference(freq, energy_peak)
    if score is None or score > 0.0:
        return energy_peak
    scores = [descent_score_reference(freq, i) for i in range(3, len(freq) - 3)]
    best = int(np.argmax(scores))
    return 3 + best if scores[best] > 0.0 else energy_peak


@st.composite
def climax_tracks(draw):
    """8-60 frame tracks of few distinct values, so that energy ties, score
    ties, tracks flat to within 2 bins and energy peaks within 3 frames of
    either end are common; the free floats make means that round, and
    sorted tracks drop nowhere."""
    n = draw(st.integers(8, 60))
    freq = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([100.0, 110.0, 120.0, 100.1, 300.3]), st.floats(50.0, 2000.0))))
    if draw(st.booleans()):
        freq.sort()
    energy = draw(hnp.arrays(np.float64, n, elements=st.one_of(
        st.sampled_from([0.0, 1.0, 2.0]), st.floats(0.0, 1.0))))
    return build_track(freq, energy, bin_hz=draw(st.sampled_from([5.0, 10.0, 100.0])))


class TestDetectClimax:
    @settings(max_examples=500, deadline=None)
    @given(track=climax_tracks())
    @example(track=build_track([300.0, 300, 300, 320, 340, 360, 330, 260, 240, 235, 233, 232],
                               [1.0, 1, 1, 1, 9, 1, 1, 1, 1, 1, 1, 1]))
    # the energy peak scores 0, and frames 5, 6 and 11 tie for the best score
    @example(track=build_track([100.0, 100, 100, 120, 120, 120] * 2 + [100.0] * 3,
                               [0.0] * 4 + [1.0] + [0.0] * 10))
    # no frame's score is above 0, and frame 3's is 0: the energy peak stands
    @example(track=build_track([100.0] * 8 + [200.0] * 8, [0.0] * 8 + [1.0] + [0.0] * 7))
    def test_matches_per_frame_reference(self, track):
        assert detect_climax(track) == detect_climax_reference(track)

    def test_needs_eight_frames(self):
        with pytest.raises(TrackTooShortError):
            detect_climax(build_track([100] * 7, [1] * 7))

    def test_flat_track_returns_first_energy_max(self):
        energies = [1, 2, 5, 5, 3, 2, 1, 1]
        track = build_track([100] * 8, energies)
        assert detect_climax(track) == 2  # earliest of the tied maxima

    def test_energy_peak_with_descending_frequency(self):
        freqs = [260, 260, 258, 250, 230, 214, 206, 204, 203, 203]
        energies = [1, 2, 4, 7, 10, 7, 4, 2, 1, 1]
        assert detect_climax(build_track(freqs, energies)) == 4

    def test_last_frame_peak_skips_missing_post_context(self):
        freqs = [200, 230, 260, 290, 320, 350, 380, 410]  # rising the whole way
        energies = [1, 2, 3, 4, 5, 6, 7, 8]
        assert detect_climax(build_track(freqs, energies)) == 7

    def test_rejected_peak_falls_back_to_steepest_drop(self):
        # energy maximum sits where frequency still rises; the true descent
        # happens later
        freqs = [300.0, 300, 300, 320, 340, 360, 330, 260, 240, 235, 233, 232]
        energies = [1.0, 1, 1, 1, 9, 1, 1, 1, 1, 1, 1, 1]
        idx = detect_climax(build_track(freqs, energies))
        scores = [np.mean(freqs[i - 3:i]) - np.mean(freqs[i + 1:i + 4])
                  for i in range(3, len(freqs) - 3)]
        assert idx == 3 + int(np.argmax(scores))
        assert idx in (6, 7)

    @pytest.mark.parametrize("approach_from", ["front", "back"])
    def test_no_descent_anywhere_keeps_the_energy_peak(self, approach_from):
        # a slow H clip whose fundamental sits under the tracking band: the
        # track reads the 50 Hz band edge but for a 2-frame spike, so no
        # frame's descent score is above 0; the fallback used to take the
        # first of those zeros, frame 3, and leave too few frames to vote on
        profile, scenario = synth.corpus_clip_params(SoundClass.H, 1010)
        scenario = dataclasses.replace(scenario, approach_from=approach_from)
        buffer, truth = synth.synth_passby(profile, scenario)
        frames = audio_io.frame_signal(buffer)
        track = track_frames(frames, buffer.sample_rate)
        energy_peak = int(np.argmax(track.rms_energy))
        assert energy_peak == {"front": 20, "back": 22}[approach_from]
        assert detect_climax(track) == energy_peak
        assert abs(energy_peak - truth.t_closest / 0.1) <= 2
        assert finalize_detection(track, energy_peak, [SoundClass.H] * 8).sound_type == SoundClass.H

    def test_invariance_to_energy_scale_and_frequency_offset(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            freqs = 300 + 60 * np.tanh(np.linspace(2, -2, 16)) + rng.normal(0, 2, 16)
            energies = np.exp(-0.5 * ((np.arange(16) - 8) / 3.0) ** 2) + 0.01
            track = build_track(freqs, energies)
            base = detect_climax(track)
            scaled = build_track(freqs + 500.0, energies * 73.0)
            assert detect_climax(scaled) == base

    def test_synthetic_passby_within_two_frames(self):
        prof = synth.VehicleProfile(sound_class=SoundClass.LL, fundamental=130.0,
                                    n_harmonics=8, broadband_level=0.2)
        scen = synth.PassbyScenario(speed_kmh=50.0, closest_distance=4.0,
                                    duration=4.0, seed=77)
        buffer, truth = synth.synth_passby(prof, scen)
        frames = audio_io.frame_signal(buffer)
        track = track_frames(frames, buffer.sample_rate)
        climax = detect_climax(track)
        assert abs(climax - int(truth.t_closest / 0.1)) <= 2


def tone_frames(freqs, amps, rate=4000):
    """0.1 s frames of sine tones: frame i at freqs[i] Hz and amplitude amps[i]."""
    t = np.arange(rate // 10) / rate
    return np.c_[amps] * np.sin(2 * np.pi * np.c_[freqs] * t)


@st.composite
def climax_frame_stacks(draw):
    """(frames, sample_rate): 1-40 frames of tones at few distinct
    frequencies and levels, some with noise, so that tracks shorter than 8
    frames, energy ties, flat tracks, energy peaks within 3 frames of
    either end and peaks whose local descent check fails are all common."""
    count = draw(st.integers(1, 40))
    freqs = draw(st.lists(st.one_of(st.sampled_from([300.0, 320.0, 600.0]),
                                    st.floats(50.0, 1900.0)), min_size=count, max_size=count))
    amps = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                         min_size=count, max_size=count))
    rate = draw(st.sampled_from([4000, 16000]))
    frames = tone_frames(freqs, amps, rate)
    if draw(st.booleans()):
        frames += np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(
            0.0, 0.1, frames.shape)
    return frames, rate


_RISING_AT_THE_PEAK = [300.0, 300, 300, 320, 340, 360, 330, 260, 240, 235, 233, 232]


class TestClimaxFromFrames:
    """`track_frames` computes a frame's spectrum where `detect_climax` first
    reads its frequency; the climax and the track stay those of the
    per-frame references."""

    @settings(max_examples=150, deadline=None)
    @given(case=climax_frame_stacks())
    # energy peaks within 3 frames of the start and at the last frame
    @example(case=(tone_frames([300.0] * 12, [1.0, 2, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1]), 4000))
    @example(case=(tone_frames([300.0] * 12, np.linspace(0.1, 1.0, 12)), 4000))
    # a flat tone: the peak's descent score is 0, and the flatness check keeps it
    @example(case=(tone_frames([440.0] * 16, np.hanning(16) + 0.1), 4000))
    # the frequency rises across the energy peak, so the fallback runs
    @example(case=(tone_frames(_RISING_AT_THE_PEAK, [1.0, 1, 1, 1, 9, 1, 1, 1, 1, 1, 1, 1]),
                   4000))
    @example(case=(tone_frames([300.0] * 7, [1.0] * 7), 4000))  # too short
    def test_climax_and_track_match_per_frame_references(self, case):
        frames, rate = case
        track = track_frames(frames, rate)
        smoothed, rms, bin_hz = track_frames_reference(frames, rate)
        if len(frames) < VOTE_WINDOW:
            with pytest.raises(TrackTooShortError):
                detect_climax(track)
        else:
            assert detect_climax(track) == detect_climax_reference(
                build_track(smoothed, rms, bin_hz))
        assert np.array_equal(track.dominant_freq, smoothed)
        assert np.array_equal(track.rms_energy, rms)

    @pytest.fixture
    def transformed(self, monkeypatch):
        """The row count of each `features.fft_magnitude` call."""
        transform = features.fft_magnitude
        rows = []

        def counting(x):
            rows.append(len(x))
            return transform(x)

        monkeypatch.setattr(features, "fft_magnitude", counting)
        return rows

    def test_local_descent_reads_nine_spectra(self, transformed):
        profile, scenario = synth.corpus_clip_params(SoundClass.H, clip_seed=160)
        buffer = synth.synth_passby(profile, scenario)[0]
        frames = audio_io.frame_signal(buffer)
        track = track_frames(frames, buffer.sample_rate)
        assert transformed == []
        climax = detect_climax(track)
        assert transformed == [9]  # frames climax-4..climax+4
        smoothed, rms, bin_hz = track_frames_reference(frames, buffer.sample_rate)
        assert climax == detect_climax_reference(build_track(smoothed, rms, bin_hz))
        for _ in range(2):
            assert np.array_equal(track.dominant_freq, smoothed)
        assert transformed == [9, 31]  # the other frames, on the first read only

    def test_edge_peak_reads_no_spectrum(self, transformed):
        # seed-0 corpus clip 165: ambient audio loudest in frame 1
        buffer = synth.render_corpus_clip(SoundClass.NV, 1, 165)[0]
        frames = audio_io.frame_signal(buffer)
        track = track_frames(frames, buffer.sample_rate)
        assert detect_climax(track) == 1
        assert transformed == []
        smoothed, _, _ = track_frames_reference(frames, buffer.sample_rate)
        assert np.array_equal(track.dominant_freq, smoothed)
        assert transformed == [40]

    def test_fallback_reads_every_spectrum_once(self, transformed):
        frames = tone_frames(_RISING_AT_THE_PEAK, [1.0, 1, 1, 1, 9, 1, 1, 1, 1, 1, 1, 1])
        track = track_frames(frames, 4000)
        assert detect_climax(track) != 4
        assert transformed == [9, 3]  # frames 0..8 for the peak's score, then 9..11


class TestInferDirection:
    def test_constant_track_is_unknown(self):
        track = build_track([100] * 16, [1.0] * 16)
        assert infer_direction(track, 8) == UNKNOWN

    def test_front_approach_and_reversal(self):
        prof = synth.VehicleProfile(sound_class=SoundClass.LH, fundamental=150.0,
                                    n_harmonics=6, broadband_level=0.2)
        scen = synth.PassbyScenario(speed_kmh=60.0, closest_distance=4.0,
                                    duration=4.0, seed=5)
        buffer, truth = synth.synth_passby(prof, scen)
        frames = audio_io.frame_signal(buffer)
        track = track_frames(frames, buffer.sample_rate)
        climax = int(np.argmax(track.rms_energy))
        assert infer_direction(track, climax) == APPROACHING
        # reversing the track mirrors the energy balance exactly
        reversed_track = build_track(track.dominant_freq[::-1],
                                     track.rms_energy[::-1], track.bin_hz)
        mirrored = len(track) - 1 - climax
        assert infer_direction(reversed_track, mirrored) == RECEDING

    def test_back_approach_renders_as_receding(self):
        # a vehicle coming from behind the mic recedes into the front lobe
        prof = synth.VehicleProfile(sound_class=SoundClass.LH, fundamental=150.0,
                                    n_harmonics=6, broadband_level=0.2)
        scen = synth.PassbyScenario(speed_kmh=60.0, closest_distance=4.0,
                                    duration=4.0, seed=6, approach_from="back")
        buffer, truth = synth.synth_passby(prof, scen)
        frames = audio_io.frame_signal(buffer)
        track = track_frames(frames, buffer.sample_rate)
        climax = int(np.argmax(track.rms_energy))
        assert infer_direction(track, climax) == RECEDING

    def test_silence_is_unknown(self):
        track = build_track([100] * 10, [0.0] * 10)
        assert infer_direction(track, 8) == UNKNOWN


def oracle_vote(window):
    """Independent majority + danger-order tie-break used by the 4^8 sweep."""
    danger = [SoundClass.LH, SoundClass.H, SoundClass.LL, SoundClass.NV]
    counts = {c: window.count(c) for c in set(window)}
    top = max(counts.values())
    for c in danger:
        if counts.get(c, 0) == top:
            return c
    raise AssertionError("unreachable")


class TestFinalize:
    def test_unanimous(self):
        track = build_track([100] * 8, [1] * 8)
        assert finalize_detection(track, 7, [SoundClass.H] * 8).sound_type == SoundClass.H

    def test_majority(self):
        # 5 LL vs 3 NV; the NV frames sit before the climax so no gate fires
        labels = [SoundClass.NV] * 3 + [SoundClass.LL] * 5
        track = build_track([100] * 8, [1] * 8)
        assert finalize_detection(track, 7, labels).sound_type == SoundClass.LL

    def test_tie_goes_to_danger(self):
        labels = [SoundClass.H] * 4 + [SoundClass.LH] * 4
        track = build_track([100] * 8, [1] * 8)
        assert finalize_detection(track, 7, labels).sound_type == SoundClass.LH

    def test_nv_climax_gates_without_vote(self):
        labels = [SoundClass.H] * 7 + [SoundClass.NV]
        track = build_track([100] * 8, [1] * 8)
        assert finalize_detection(track, 7, labels).sound_type == SoundClass.NV

    def test_insufficient_frames(self):
        track = build_track([100] * 10, [1] * 10)
        with pytest.raises(TrackTooShortError,
                           match="climax 5 leaves fewer than 8 frames to vote on"):
            finalize_detection(track, 5, [SoundClass.H] * 8)
        with pytest.raises(TrackTooShortError):
            vote_window(6)
        assert vote_window(7) == slice(0, 8)
        assert vote_window(9) == slice(2, 10)

    @pytest.mark.parametrize("n_labels", [0, 7, 9, 10])
    def test_labels_other_than_the_vote_window_rejected(self, n_labels):
        track = build_track([100] * 10, [1] * 10)
        with pytest.raises(ValueError, match="need the 8 labels of the vote window"):
            finalize_detection(track, 9, [SoundClass.H] * n_labels)

    def test_vote_matches_oracle_on_sample(self):
        rng = np.random.default_rng(1)
        classes = list(SoundClass)
        for _ in range(300):
            window = [classes[i] for i in rng.integers(0, 4, 8)]
            assert vote_final_frames(window) == oracle_vote(window)

    def test_serialization_roundtrip(self):
        result = DetectionResult(climax_index=17, sound_type=SoundClass.LH,
                                 direction=APPROACHING)
        assert result.to_line() == "DET 17 LH approaching"
