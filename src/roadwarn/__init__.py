"""Roadside acoustic vehicle detection and pedestrian warning toolkit.

Pipeline: load or synthesize audio (`audio_io`, `synth`), extract per-frame
features (`features`), classify frames (`classifiers`), find the pass-by
climax and vote (`decision`), and dispatch geofenced warnings
(`deployment`, `warnd`).  `cli` ties the stages together.
"""

__version__ = "0.1.0"

from .audio_io import SampleBuffer, frame_signal, load_wav, write_wav
from .classifiers import SoundClass
from .decision import DetectionResult, DopplerParams, doppler_observed
from .deployment import DeploymentPlan, build_plan, warning_decision, warning_lead_time

__all__ = [
    "SampleBuffer", "frame_signal", "load_wav", "write_wav",
    "SoundClass", "DetectionResult", "DopplerParams", "doppler_observed",
    "DeploymentPlan", "build_plan", "warning_decision", "warning_lead_time",
    "__version__",
]
