import numpy as np
import pytest

from roadwarn import audio_io
from roadwarn.labels import SoundClass
from roadwarn.synth import (CORPUS_COUNTS, MIC_HEIGHT, PassbyScenario, VehicleProfile,
                            corpus_clip_params, corpus_plan, load_manifest, synth_nv,
                            synth_passby)

from conftest import measure_tone_frequency


def spectral_energy_split(buffer, split_hz):
    mags = np.abs(np.fft.rfft(buffer.samples))
    freqs = np.fft.rfftfreq(len(buffer.samples), 1.0 / buffer.sample_rate)
    total = np.sum(mags ** 2)
    return np.sum(mags[freqs >= split_hz] ** 2) / total


class TestPassby:
    def test_stationary_source_keeps_fundamental(self):
        prof = VehicleProfile(sound_class=SoundClass.LL, fundamental=100.0,
                              n_harmonics=1, broadband_level=0.0)
        scen = PassbyScenario(speed_kmh=0.0, closest_distance=3.0, duration=2.0, seed=2)
        buffer, truth = synth_passby(prof, scen)
        assert measure_tone_frequency(buffer, 0.2, 1.8, (80, 130)) == pytest.approx(
            100.0, abs=0.5)
        np.testing.assert_allclose(truth.received_hz, 100.0, atol=1e-9)

    def test_approach_frequency_matches_closed_form(self):
        prof = VehicleProfile(sound_class=SoundClass.LH, fundamental=100.0,
                              n_harmonics=1, broadband_level=0.0)
        scen = PassbyScenario(speed_kmh=75.0, closest_distance=3.0, duration=12.0,
                              seed=1)
        buffer, truth = synth_passby(prof, scen)
        expected = 100.0 * 343.0 / (343.0 - 75.0 / 3.6)
        assert measure_tone_frequency(buffer, 0.5, 2.5, (80, 130)) == pytest.approx(
            expected, abs=0.5)
        receding = 100.0 * 343.0 / (343.0 + 75.0 / 3.6)
        assert measure_tone_frequency(buffer, 9.5, 11.5, (80, 130)) == pytest.approx(
            receding, abs=0.5)
        # a tone just above the band reads as the band's top, never beyond it
        assert 80.0 <= measure_tone_frequency(buffer, 0.5, 2.5, (80, 106.2)) <= 106.2

    def test_energy_peak_near_closest_approach(self):
        prof = VehicleProfile(sound_class=SoundClass.LL, fundamental=120.0,
                              broadband_level=0.3)
        scen = PassbyScenario(speed_kmh=50.0, closest_distance=4.0, duration=4.0,
                              seed=9)
        buffer, truth = synth_passby(prof, scen)
        energies = np.sqrt(np.mean(audio_io.frame_signal(buffer) ** 2, axis=1))
        peak_frame = int(np.argmax(energies))
        assert abs(peak_frame - int(truth.t_closest / 0.1)) <= 2

    def test_inverse_distance_amplitude(self):
        # matched windows where the source sits 100 m and 200 m out, still
        # nearly on-axis: RMS halves when the distance doubles
        prof = VehicleProfile(sound_class=SoundClass.LH, fundamental=120.0,
                              n_harmonics=4, broadband_level=0.0)
        scen = PassbyScenario(speed_kmh=75.0, closest_distance=3.0, duration=24.0,
                              seed=3)
        buffer, _ = synth_passby(prof, scen)
        v = 75.0 / 3.6

        def rms_around(distance):
            center = 12.0 - distance / v
            i0 = int((center - 0.15) * buffer.sample_rate)
            i1 = int((center + 0.15) * buffer.sample_rate)
            return np.sqrt(np.mean(buffer.samples[i0:i1] ** 2))

        ratio = rms_around(100.0) / rms_around(200.0)
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_deterministic(self):
        prof = VehicleProfile(sound_class=SoundClass.H, fundamental=60.0)
        scen = PassbyScenario(speed_kmh=40.0, closest_distance=4.0, duration=2.0,
                              seed=11)
        a, _ = synth_passby(prof, scen)
        b, _ = synth_passby(prof, scen)
        assert np.array_equal(a.samples, b.samples)

    def test_invalid_scenarios(self):
        with pytest.raises(ValueError):
            PassbyScenario(speed_kmh=150.0)
        with pytest.raises(ValueError):
            PassbyScenario(speed_kmh=50.0, closest_distance=0.0)


class TestNv:
    def test_birds_energy_sits_high(self):
        buf = synth_nv("birds", 4.0, seed=1)
        assert spectral_energy_split(buf, 1500.0) > 0.8

    def test_crowd_has_no_climax(self):
        buf = synth_nv("crowd", 4.0, seed=2)
        energies = np.sum(audio_io.frame_signal(buf) ** 2, axis=1)
        assert energies.max() / energies.sum() < 0.10

    def test_airplane_is_low_rumble(self):
        buf = synth_nv("airplane", 4.0, seed=3)
        assert spectral_energy_split(buf, 500.0) < 0.1

    def test_seed_determinism(self):
        a = synth_nv("birds", 2.0, seed=5)
        b = synth_nv("birds", 2.0, seed=5)
        assert np.array_equal(a.samples, b.samples)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            synth_nv("thunder", 1.0, seed=0)


class TestCorpus:
    def test_plan_counts(self):
        plan = corpus_plan(seed=0)
        assert len(plan) == 210
        counts = {}
        for cls, _, _ in plan:
            counts[cls] = counts.get(cls, 0) + 1
        assert counts == CORPUS_COUNTS

    def test_class_speed_and_band_rules(self):
        heavy_f, light_f = [], []
        for cls, _, clip_seed in corpus_plan(seed=0):
            if cls == SoundClass.NV:
                continue
            profile, scenario = corpus_clip_params(cls, clip_seed)
            if cls == SoundClass.LL:
                assert 20.0 <= scenario.speed_kmh <= 50.0
                light_f.append(profile.fundamental)
            elif cls == SoundClass.LH:
                assert 50.0 < scenario.speed_kmh <= 75.0
                light_f.append(profile.fundamental)
            else:
                assert 20.0 <= scenario.speed_kmh <= 75.0
                heavy_f.append(profile.fundamental)
        assert max(heavy_f) < min(light_f)

    def test_manifest_matches_sweep(self, corpus_dir):
        entries = load_manifest(corpus_dir / "manifest.csv")
        assert len(entries) == 210
        counts = {}
        for e in entries:
            counts[e.sound_class] = counts.get(e.sound_class, 0) + 1
        assert counts == CORPUS_COUNTS
        # t_closest recorded in the manifest equals the scenario's distance
        # minimum (plus the propagation delay of the closest wavefront)
        for e in entries[:10] + entries[-10:]:
            if e.sound_class == SoundClass.NV:
                assert e.speed_kmh is None and e.t_closest is None
            else:
                profile, scen = corpus_clip_params(e.sound_class, e.seed)
                r0 = np.hypot(scen.closest_distance, MIC_HEIGHT)
                assert e.t_closest == pytest.approx(scen.closest_time + r0 / 343.0,
                                                    abs=1e-4)
                assert e.speed_kmh == pytest.approx(scen.speed_kmh, abs=1e-4)

    def test_wavs_readable_and_mono_16k(self, corpus_dir):
        entries = load_manifest(corpus_dir / "manifest.csv")
        buf = audio_io.load_wav(corpus_dir / entries[0].file)
        assert buf.sample_rate == 16000
        assert 3.9 < buf.duration < 4.1
