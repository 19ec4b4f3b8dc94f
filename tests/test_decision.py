import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roadwarn import audio_io, synth
from roadwarn.classifiers import SoundClass
from roadwarn.decision import (APPROACHING, RECEDING, UNKNOWN, DetectionResult,
                               DopplerParams, FrameTrack, TrackTooShortError, band_peak_hz,
                               detect_climax, doppler_observed, finalize_detection,
                               infer_direction, track_frames, vote_final_frames)


def build_track(freqs, energies, labels=None, bin_hz=10.0):
    n = len(freqs)
    return FrameTrack(dominant_freq=np.asarray(freqs, dtype=float),
                      rms_energy=np.asarray(energies, dtype=float),
                      labels=list(labels) if labels else [SoundClass.H] * n,
                      bin_hz=bin_hz)


class TestDoppler:
    def test_stationary_source(self):
        p = DopplerParams(f0=220.0, v=0.0)
        assert doppler_observed(p, APPROACHING) == 220.0
        assert doppler_observed(p, RECEDING) == 220.0

    def test_75_kmh_values(self):
        p = DopplerParams(f0=100.0, v=20.833)
        assert doppler_observed(p, APPROACHING) == pytest.approx(106.47, abs=0.01)
        assert doppler_observed(p, RECEDING) == pytest.approx(94.27, abs=0.01)

    def test_ordering_for_all_speeds(self):
        for v in np.linspace(0.5, 340.0, 40):
            p = DopplerParams(f0=150.0, v=float(v))
            assert doppler_observed(p, APPROACHING) > 150.0 > doppler_observed(p, RECEDING)

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            DopplerParams(f0=100.0, v=400.0)


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
        track = track_frames(frames, 16000, [SoundClass.LL] * 10)
        assert np.all(np.abs(track.dominant_freq - 440.0) <= track.bin_hz / 2)

    def test_silence_has_zero_energy(self):
        track = track_frames(np.zeros((8, 1600)), 16000, [SoundClass.NV] * 8)
        assert np.all(track.rms_energy == 0.0)

    def test_median_removes_single_spike(self):
        t = np.arange(1600) / 16000
        frames = np.sin(2 * np.pi * np.c_[[300, 300, 900, 300, 300]] * t)
        track = track_frames(frames, 16000, [SoundClass.H] * 5)
        assert np.all(np.abs(track.dominant_freq[1:-1] - 300.0) <= track.bin_hz)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            track_frames(np.zeros((0, 1600)), 16000, [])
        with pytest.raises(ValueError):
            track_frames(np.zeros((2, 1600)), 16000, [SoundClass.H])

    def test_band_without_bins_rejected(self):
        # 8 samples at 80 Hz: bins every 10 Hz up to 40 Hz, all below the band
        with pytest.raises(ValueError):
            track_frames(np.ones((1, 8)), 80, [SoundClass.H])

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
        track = track_frames(frames, rate, [SoundClass.H] * len(frames))
        smoothed, rms, bin_hz = track_frames_reference(frames, rate)
        assert np.array_equal(track.dominant_freq, smoothed)
        assert np.array_equal(track.rms_energy, rms)
        assert track.bin_hz == bin_hz


class TestDetectClimax:
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
        track = track_frames(frames, buffer.sample_rate, [SoundClass.LL] * len(frames))
        climax = detect_climax(track)
        assert abs(climax - int(truth.t_closest / 0.1)) <= 2


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
        track = track_frames(frames, buffer.sample_rate, [SoundClass.LH] * len(frames))
        climax = int(np.argmax(track.rms_energy))
        assert infer_direction(track, climax) == APPROACHING
        # reversing the track mirrors the energy balance exactly
        reversed_track = build_track(track.dominant_freq[::-1],
                                     track.rms_energy[::-1],
                                     track.labels[::-1], track.bin_hz)
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
        track = track_frames(frames, buffer.sample_rate, [SoundClass.LH] * len(frames))
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
        track = build_track([100] * 8, [1] * 8, [SoundClass.H] * 8)
        assert finalize_detection(track, 7).sound_type == SoundClass.H

    def test_majority(self):
        # 5 LL vs 3 NV; the NV frames sit before the climax so no gate fires
        labels = [SoundClass.NV] * 3 + [SoundClass.LL] * 5
        track = build_track([100] * 8, [1] * 8, labels)
        assert finalize_detection(track, 7).sound_type == SoundClass.LL

    def test_tie_goes_to_danger(self):
        labels = [SoundClass.H] * 4 + [SoundClass.LH] * 4
        track = build_track([100] * 8, [1] * 8, labels)
        assert finalize_detection(track, 7).sound_type == SoundClass.LH

    def test_nv_climax_gates_without_vote(self):
        labels = [SoundClass.H] * 7 + [SoundClass.NV]
        track = build_track([100] * 8, [1] * 8, labels)
        assert finalize_detection(track, 7).sound_type == SoundClass.NV

    def test_insufficient_frames(self):
        track = build_track([100] * 10, [1] * 10)
        with pytest.raises(TrackTooShortError):
            finalize_detection(track, 5)

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
