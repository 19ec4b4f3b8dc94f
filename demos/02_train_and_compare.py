#!/usr/bin/env python3
"""Train the four frame classifiers on a small corpus and compare them.

Uses a reduced in-memory corpus (8 clips per class) so the whole script
runs in under a minute; the shipped CLI does the same thing on the full
210-clip corpus via `roadwarn synth / extract / eval`.
"""

from collections import Counter

import numpy as np

from roadwarn import audio_io, features, synth
from roadwarn.classifiers import (FEATURE_SETS, LabeledDataset, MlpConfig, SoundClass,
                                  evaluate_cv, make_trainer, train_mlp)
from roadwarn.cli import render_grid, render_metrics

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

trainer = lambda d: train_mlp(d, MlpConfig(learning_rate=0.5, epochs=200, seed=0))
metrics = evaluate_cv(data, trainer, folds=FOLDS, seed=0)
print(f"\nMLP, all features, {FOLDS}-fold CV:")
print(render_metrics(metrics))

# --- classifier x feature-set grid ------------------------------------------

print("\naccuracy grid (rows: classifier, columns: feature subset):")
grid = {}
for name in ("mlp", "knn", "nb", "dt"):
    kwargs = {"learning_rate": 0.5, "epochs": 200} if name == "mlp" else {}
    grid[name] = {}
    for set_name, cols in FEATURE_SETS.items():
        m = evaluate_cv(data.select_columns(cols),
                        make_trainer(name, seed=0, **kwargs), folds=FOLDS, seed=0)
        grid[name][set_name] = m.overall_accuracy
print(render_grid(grid))
print("\nthe cepstral features carry most of the signal; "
      "the spectral scalars alone trail behind")
