#!/usr/bin/env python3
"""The full three-phase pipeline on freshly rendered clips.

Phase 1 tracks the energy and the received frequency of every 0.1 s
frame, phase 2 finds the climax (closest approach) from the energy peak
and the falling frequency, and phase 3 classifies the eight final frames
and votes over them.  A heavy pass, an opposite-lane pass and a birds
clip show the three interesting outcomes.
"""

import numpy as np

from roadwarn import audio_io, features, synth
from roadwarn.classifiers import LabeledDataset, train_dt
from roadwarn.cli import detect_buffer
from roadwarn.deployment import warning_decision
from roadwarn.labels import SoundClass

# --- quick frame classifier off a small training set ------------------------

print("training a frame classifier on a reduced corpus...")
rows, labels = [], []
for cls in (SoundClass.LH, SoundClass.LL, SoundClass.H, SoundClass.NV):
    for i in range(6):
        buffer, _, _ = synth.render_corpus_clip(cls, i, clip_seed=900 + 13 * i + ord(cls.value[-1]))
        rows.append(features.extract_features(audio_io.frame_signal(buffer),
                                              buffer.sample_rate))
        labels.extend([cls] * (len(rows[-1])))
model = train_dt(LabeledDataset(np.vstack(rows), labels))

# --- a heavy vehicle passing the mic front ----------------------------------

profile, scenario = synth.corpus_clip_params(SoundClass.H, clip_seed=4242)
buffer, truth = synth.synth_passby(profile, scenario)
result, track = detect_buffer(buffer, model)
print(f"\nheavy pass at {scenario.speed_kmh:.0f} km/h, "
      f"closest approach t = {truth.t_closest:.2f} s")
print("  received fundamental in the first frame:", round(truth.received_hz[0], 2), "Hz")
print("  detection line:", result.to_line())
print("  climax at t =", round(result.climax_index * 0.1, 1), "s")
print("  warn?", "YES" if warning_decision(result) else "no")

# --- the same vehicle coming from behind the mic ----------------------------

back = synth.PassbyScenario(speed_kmh=scenario.speed_kmh,
                            closest_distance=scenario.closest_distance,
                            duration=scenario.duration, seed=scenario.seed,
                            approach_from="back",
                            closest_time=scenario.closest_time)
buffer_back, _ = synth.synth_passby(profile, back)
result_back, _ = detect_buffer(buffer_back, model)
print("\nsame vehicle, opposite lane:", result_back.to_line())
print("  warn?", "YES" if warning_decision(result_back) else "no",
      "(receding vehicles never warn)")

# --- no vehicle at all -------------------------------------------------------

birds = synth.synth_nv("birds", 4.0, seed=8)
result_birds, _ = detect_buffer(birds, model)
print("\nbirds clip:", result_birds.to_line())
print("  warn?", "YES" if warning_decision(result_birds) else "no")
