"""Acceptance gate: one test per shipping criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The corpus-backed criteria reuse the session fixtures, so the
whole module stays inside a few minutes end to end.
"""

import itertools

import numpy as np
import pytest

from roadwarn import audio_io, classifiers, features, synth
from roadwarn.classifiers import LabeledDataset, evaluate_cv, f_measure, train_mlp
from roadwarn.decision import FrameTrack, detect_climax, finalize_detection, track_frames
from roadwarn.deployment import DeploymentPlan, warning_lead_time
from roadwarn.labels import APPROACHING, RECEDING, DetectionResult, SoundClass
from roadwarn.warnd import Dispatcher, warn_line

from conftest import doppler_hz, measure_tone_frequency, read_warn_line
from test_classifiers import blobs
from test_features import direct_dft, mfcc_reference, toeplitz_lpc_oracle


def _ok(n, text):
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def test_criterion_01_f_measure_reproduces_printed_table():
    cells = [((98.30, 93.54), 95.86), ((95.87, 93.93), 94.89),
             ((98.38, 98.38), 98.38), ((93.47, 98.85), 96.08)]
    for (p, r), expected in cells:
        assert f_measure(p, r) == pytest.approx(expected, abs=0.01)
    _ok(1, "f-measure formula matches all four printed class columns within 0.01")


def test_criterion_02_corpus_accuracy_and_feature_set_ordering(features_csv):
    matrix, labels, _ = features.load_dataset_csv(features_csv)
    data = LabeledDataset(matrix, labels)
    # the larger step size is safe under the halving control and converges
    # within the run budget; architecture and seed handling stay at defaults
    trainer = lambda d: train_mlp(d, learning_rate=0.5, epochs=300, seed=0)
    acc_all = evaluate_cv(data, trainer, folds=6, seed=0).overall_accuracy
    acc_five = evaluate_cv(data.select_columns(classifiers.FEATURE_SETS["five"]),
                           trainer, folds=6, seed=0).overall_accuracy
    assert acc_all >= 90.0
    assert acc_all >= acc_five
    _ok(2, f"6-fold MLP frame accuracy {acc_all:.2f}% (>= 90) and "
           f"all-features >= first-five ({acc_five:.2f}%)")


def test_criterion_03_dft_matches_direct_oracle_and_parseval():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(8, 512))
        x = rng.uniform(-1.0, 1.0, n)
        got = features.fft_magnitude(x)
        oracle = np.abs(direct_dft(x))[:n // 2 + 1]
        scale = max(oracle.max(), 1e-30)
        assert np.max(np.abs(got - oracle)) <= 1e-6 * scale
        full_power = np.sum(got ** 2) + np.sum(got[1:(n + 1) // 2] ** 2)
        energy = np.sum(x ** 2)
        assert abs(energy - full_power / n) <= 1e-6 * energy
    _ok(3, "100 random frames match the direct O(N^2) DFT and Parseval within 1e-6")


def test_criterion_04_lpc_toeplitz_and_ar1():
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.standard_normal(int(rng.integers(100, 1200)))
        a, _ = features.lpc(x, features.LpcConfig(order=8))
        oracle = toeplitz_lpc_oracle(x, 8)
        assert np.max(np.abs(a - oracle)) <= 1e-6 * max(1.0, np.abs(oracle).max())
    x = np.zeros(10000)
    e = np.random.default_rng(7).standard_normal(10000)
    for i in range(1, 10000):
        x[i] = 0.9 * x[i - 1] + e[i]
    a, _ = features.lpc(x, features.LpcConfig(order=1))
    assert abs(a[0] - 0.9) <= 0.05
    _ok(4, "LPC equals the Toeplitz solve on 100 frames (1e-6); AR(1) 0.9 recovered")


def test_criterion_05_mfcc_reference_and_scale_invariance():
    rng = np.random.default_rng(5)
    for n, rate in ((512, 16000), (400, 8000)):
        x = rng.uniform(-1.0, 1.0, n)
        got = features.mfcc(x, rate)
        ref = mfcc_reference(x, rate)
        assert np.max(np.abs(got - ref)) <= 1e-6
    for _ in range(20):
        x = rng.uniform(-0.9, 0.9, 1600)
        c = float(rng.uniform(0.1, 10.0))
        a = features.mfcc(x, 16000)
        b = features.mfcc(c * x, 16000)
        assert np.max(np.abs(a[1:] - b[1:])) <= 1e-6
    _ok(5, "MFCC matches the from-definition reference (1e-6); "
           "coefficients 1..12 are scale-invariant (1e-6)")


def test_criterion_06_mlp_gradients_match_finite_differences():
    data = blobs(seed=6, per_class=15)
    model = train_mlp(data, epochs=4, seed=2)
    Xs = (data.X - model.mean) / model.std
    codes = classifiers._codes(data.y)
    _, grads = model.loss_and_gradients(Xs, codes)
    rng = np.random.default_rng(66)
    params = [model.w1, model.b1, model.w2, model.b2]
    checked = 0
    while checked < 12:
        which = int(rng.integers(0, 4))
        W = params[which]
        idx = tuple(int(rng.integers(0, s)) for s in W.shape)
        h = 1e-5
        orig = W[idx]
        W[idx] = orig + h
        lp = model.loss(Xs, codes)
        W[idx] = orig - h
        lm = model.loss(Xs, codes)
        W[idx] = orig
        fd = (lp - lm) / (2.0 * h)
        if abs(fd) < 1e-10:
            continue  # skip numerically dead directions
        assert abs(fd - grads[which][idx]) <= 1e-4 * abs(fd)
        checked += 1
    _ok(6, "analytic MLP gradients match central differences within 1e-4 relative")


def test_criterion_07_doppler_closed_form_and_rendered_audio():
    assert doppler_hz(100.0, 20.833, approaching=True, c=343.0) == pytest.approx(106.47, abs=0.01)
    assert doppler_hz(100.0, 20.833, approaching=False, c=343.0) == pytest.approx(94.27, abs=0.01)
    prof = synth.VehicleProfile(sound_class=SoundClass.LH, fundamental=100.0,
                                n_harmonics=1, broadband_level=0.0)
    scen = synth.PassbyScenario(speed_kmh=75.0, closest_distance=3.0,
                                duration=12.0, seed=7)
    buffer, _ = synth.synth_passby(prof, scen)
    expected = 100.0 * 343.0 / (343.0 - 75.0 / 3.6)
    measured = measure_tone_frequency(buffer, 0.5, 2.5, (80.0, 130.0))
    assert measured == pytest.approx(expected, abs=0.5)
    _ok(7, f"closed form 106.47/94.27 Hz within 0.01; rendered approach "
           f"{measured:.2f} Hz within 0.5 of {expected:.2f}")


def test_criterion_08_climax_within_two_frames():
    hits, total = 0, 0
    for v_kmh in (30, 40, 50, 60, 75):
        for trial in range(20):
            rng = np.random.default_rng([v_kmh, trial])
            prof = synth.VehicleProfile(
                sound_class=SoundClass.LL, fundamental=rng.uniform(90.0, 180.0),
                n_harmonics=8, harmonic_rolloff=0.7,
                broadband_level=rng.uniform(0.1, 0.5))
            scen = synth.PassbyScenario(
                speed_kmh=float(v_kmh), closest_distance=rng.uniform(2.5, 5.0),
                duration=4.0, seed=trial,
                closest_time=2.0 + rng.uniform(-0.25, 0.25))
            buffer, truth = synth.synth_passby(prof, scen)
            frames = audio_io.frame_signal(buffer)
            track = track_frames(frames, buffer.sample_rate)
            climax = detect_climax(track)
            total += 1
            hits += abs(climax - int(truth.t_closest / 0.1)) <= 2
    assert total == 100
    assert hits >= 95
    _ok(8, f"climax within +/-2 frames in {hits}/100 seeded pass-bys (30-75 km/h)")


def test_criterion_09_vote_equals_exhaustive_oracle():
    danger = [SoundClass.LH, SoundClass.H, SoundClass.LL, SoundClass.NV]
    freqs = np.full(8, 100.0)
    energies = np.ones(8)
    mismatches = 0
    for combo in itertools.product(list(SoundClass), repeat=8):
        track = FrameTrack(dominant_freq=freqs, rms_energy=energies, bin_hz=10.0)
        got = finalize_detection(track, 7, list(combo)).sound_type
        if combo[7] == SoundClass.NV:
            expected = SoundClass.NV
        else:
            counts = {c: combo.count(c) for c in set(combo)}
            top = max(counts.values())
            expected = next(c for c in danger if counts.get(c, 0) == top)
        mismatches += got != expected
    assert mismatches == 0
    _ok(9, "eight-frame decision matches the exhaustive oracle on all 65536 sequences")


def test_criterion_10_timing_arithmetic():
    assert warning_lead_time(75.0, 75.0) == 3.6
    assert warning_lead_time(100.0, 75.0) == 4.8
    for distance in np.arange(75.0, 100.0 + 0.25, 0.5):
        lead = warning_lead_time(float(distance), 75.0)
        assert 3.6 <= lead <= 4.8
    _ok(10, "75 m -> 3.6 s and 100 m -> 4.8 s exactly; window holds over the span")


def test_criterion_11_dispatch_exactness_and_protocol():
    plan = DeploymentPlan(100.0)
    dispatcher = Dispatcher(plan)
    rng = np.random.default_rng(11)
    classes = list(SoundClass)
    directions = [APPROACHING, RECEDING, "unknown"]
    shadow = {}
    sinks = {}
    forbidden = 0
    for round_no in range(1000):
        for _ in range(int(rng.integers(0, 4))):
            cid = f"c{rng.integers(0, 50)}"
            x = float(rng.integers(-100, 1300)) / 10.0
            y = float(rng.integers(-10, 80)) / 10.0
            verb = "REG" if cid not in shadow or rng.random() < 0.25 else "POS"
            line = f"{verb} {cid} {x} {y} {float(round_no)}"
            response = dispatcher.handle_line(line, sinks.setdefault(cid, []).append)
            if response.startswith("OK"):
                shadow[cid] = (x, y, float(round_no))
        cls = classes[rng.integers(0, 4)]
        direction = directions[rng.integers(0, 3)]
        pid = int(rng.integers(0, plan.processor_count))
        t = float(round_no)
        result = DetectionResult(climax_index=9, sound_type=cls, direction=direction)
        delivered = dispatcher.dispatch(result, pid, t)
        area = plan.processor(pid)
        warnable = cls in (SoundClass.H, SoundClass.LH) and direction != RECEDING
        expected = {cid for cid, (x, y, ts) in shadow.items()
                    if warnable and t - ts <= plan.freshness_window
                    and area.contains(x, y)}
        assert delivered == expected
        if not warnable:
            forbidden += len(delivered)
    assert forbidden == 0
    # protocol round-trip over generated messages: a client reads back what warn_line wrote
    for _ in range(500):
        line = (f"WARN {rng.integers(0, 9)} "
                f"{['H', 'LH'][rng.integers(0, 2)]} "
                f"{directions[rng.integers(0, 3)]} "
                f"{rng.integers(0, 99999) / 1000.0:.3f}")
        pid, cls, direction, t = read_warn_line(line)
        result = DetectionResult(climax_index=9, sound_type=cls, direction=direction)
        assert warn_line(result, pid, t) == line
    _ok(11, "1000 randomized dispatches equal the brute-force oracle; "
            "no LL/NV/receding deliveries; protocol round-trips")


def test_criterion_12_end_to_end_simulation():
    from roadwarn.cli import run_simulation

    plan = DeploymentPlan(200.0)
    lh_script = ["PED walker 87.5 2.0 9.0", "VEHICLE LH 75 0 10.0"]
    log = run_simulation(plan, lh_script)
    warns = [ln for ln in log if ln.startswith("WARN")]
    assert len(warns) == 1
    lead = float(warns[0].split("lead=")[1].rstrip("s"))
    assert 3.6 <= lead <= 4.8
    nv_script = ["PED walker 87.5 2.0 9.0", "VEHICLE NV 75 0 10.0"]
    nv_warns = [ln for ln in run_simulation(plan, nv_script) if ln.startswith("WARN")]
    assert nv_warns == []
    _ok(12, f"scripted LH pass yields exactly one WARN with lead {lead:.2f} s; "
            "NV script yields none")
