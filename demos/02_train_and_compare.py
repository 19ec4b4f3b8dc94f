#!/usr/bin/env python3
"""Train the four frame classifiers on a small corpus and compare them.

Uses a reduced in-memory corpus (8 clips per class) so the whole script
runs in under a minute; the shipped CLI does the same thing on the full
210-clip corpus via `roadwarn synth / extract / eval`.
"""

from collections import Counter

import numpy as np

from roadwarn import audio_io, features, synth
from roadwarn.classifiers import (LabeledDataset, compare_feature_sets, evaluate_cv,
                                  make_trainer)
from roadwarn.cli import render_grid, render_metrics
from roadwarn.labels import SoundClass

PER_CLASS = 8
FOLDS = 4

print(f"rendering {4 * PER_CLASS} clips...")
rows, labels = [], []
for cls in (SoundClass.LH, SoundClass.LL, SoundClass.H, SoundClass.NV):
    for i in range(PER_CLASS):
        buffer, _, _ = synth.render_corpus_clip(cls, i, clip_seed=500 + 37 * i + ord(cls.value[0]))
        frames = audio_io.frame_signal(buffer)
        rows.append(features.extract_features(frames, buffer.sample_rate))
        labels.extend([cls] * len(frames))
data = LabeledDataset(np.vstack(rows), labels)
print(f"dataset: {data.X.shape[0]} frames, counts "
      f"{ {c.value: n for c, n in Counter(data.y).items()} }")

# --- per-class metrics for the strongest model ------------------------------

trainer = make_trainer("mlp", seed=0, learning_rate=0.5, epochs=200)
metrics = evaluate_cv(data, trainer, folds=FOLDS, seed=0)
print(f"\nMLP, all features, {FOLDS}-fold CV:")
print(render_metrics(metrics))

# --- classifier x feature-set grid ------------------------------------------

print("\naccuracy grid (rows: classifier, columns: feature subset):")
grid = compare_feature_sets(data, folds=FOLDS,
                            classifier_kwargs={"mlp": {"learning_rate": 0.5, "epochs": 200}})
print(render_grid(grid))
print("\nthe cepstral features carry most of the signal; "
      "the spectral scalars alone trail behind")
