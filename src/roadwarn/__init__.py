"""Roadside acoustic vehicle detection and pedestrian warning toolkit.

Pipeline: load or synthesize audio (`audio_io`, `synth`), extract per-frame
features (`features`), classify frames (`classifiers`), find the pass-by
climax and vote (`decision`), and dispatch geofenced warnings
(`deployment`, `warnd`).  The roadside stages and the dispatcher speak the
names in `labels` (sound classes, directions, the detection result), which
needs no numpy, so the warning service runs on the standard library alone.
`cli` ties the stages together.
"""

__version__ = "0.1.0"
