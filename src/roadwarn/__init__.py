"""Roadside acoustic vehicle detection and pedestrian warning toolkit.

Pipeline: load or synthesize audio (`audio_io`, `synth`), extract per-frame
features (`features`), classify frames (`classifiers`), find the pass-by
climax and vote (`decision`), and dispatch geofenced warnings
(`deployment`, `warnd`).  `cli` ties the stages together.
"""

__version__ = "0.1.0"
