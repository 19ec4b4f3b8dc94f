"""Roadside geometry, danger areas, timing arithmetic and the warning policy.

Positions live in a road-local planar frame: x runs along the road in the
travel direction of the monitored lane, y across it, both in meters.
Processors sit every `processor_spacing` meters, each owning the danger
area that starts at its own position.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .labels import RECEDING, DetectionResult, SoundClass

WARN_CLASSES = (SoundClass.H, SoundClass.LH)

# The DeploymentPlan fields a plan file may set; each must be finite and positive.
_PLAN_KEYS = ("processor_spacing", "danger_length", "road_width",
              "max_design_speed", "min_warning_time", "freshness_window")


@dataclass(frozen=True)
class DangerArea:
    """Axis-aligned rectangle [x0, x0+length] x [0, width], boundary included."""

    x0: float
    length: float
    width: float

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x0 + self.length and 0.0 <= y <= self.width


@dataclass(frozen=True)
class Processor:
    processor_id: int
    area: DangerArea


@dataclass(frozen=True)
class DeploymentPlan:
    processor_spacing: float = 25.0
    danger_length: float = 25.0
    road_width: float = 7.0
    max_design_speed: float = 75.0   # km/h
    min_warning_time: float = 3.0    # seconds
    freshness_window: float = 5.0    # seconds a position stays usable
    processors: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for name in _PLAN_KEYS:
            value = getattr(self, name)
            if not 0 < value < math.inf:  # False for NaN too
                raise ValueError(f"{name} must be finite and positive, got {value}")

    def processor(self, processor_id: int) -> Processor:
        for p in self.processors:
            if p.processor_id == processor_id:
                return p
        raise KeyError(f"no processor {processor_id} in plan")

    @property
    def warning_offset_areas(self) -> int:
        """How many areas downstream of a detection the warning targets.

        The warned pedestrians must get at least `min_warning_time` even at
        the design speed, so the target area starts
        ceil(min_warning_time * v_max / spacing) spacings past the detector
        (3 areas, i.e. 75 m, with the defaults).
        """
        v_mps = self.max_design_speed / 3.6
        distance = self.min_warning_time * v_mps
        return math.ceil(distance / self.processor_spacing - 1e-9)


def build_plan(road_length: float, **overrides) -> DeploymentPlan:
    """Plan with processors at x = 0, spacing, 2*spacing, ... <= road_length."""
    base = DeploymentPlan(**overrides)
    if not math.isfinite(road_length):
        raise ValueError(f"road_length must be finite, got {road_length}")
    if road_length < base.processor_spacing:
        raise ValueError(
            f"road of {road_length} m is shorter than one {base.processor_spacing} m spacing")
    count = int(road_length / base.processor_spacing) + 1
    processors = tuple(
        Processor(processor_id=i,
                  area=DangerArea(x0=i * base.processor_spacing,
                                  length=base.danger_length, width=base.road_width))
        for i in range(count))
    return DeploymentPlan(**{**overrides, "processors": processors})


def read_ini(path, schema: dict) -> dict:
    """section -> {key: value} of an INI file, each value cast by `schema`
    (section -> {key: cast}).  A section or key the schema lacks, a value its
    cast rejects (its ValueError's message follows the key) and a non-finite
    number are errors that name the file and the key."""
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)
    if parser.defaults():
        raise ValueError(f"{path}: unknown section [{parser.default_section}]")
    values = {}
    for name in parser.sections():
        if name not in schema:
            raise ValueError(f"{path}: unknown section [{name}]")
        values[name] = {}
        for key, text in parser[name].items():
            if key not in schema[name]:
                raise ValueError(f"{path}: unknown [{name}] key {key!r}")
            try:
                value = schema[name][key](text)
                if not math.isfinite(value):
                    raise ValueError(f"must be finite, got {text}")
            except ValueError as exc:
                raise ValueError(f"{path}: [{name}] {key} {exc}") from None
            values[name][key] = value
    return values


def _positive(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # False for NaN too
        raise ValueError(f"must be finite and positive, got {text}")
    return value


def load_plan_config(path) -> DeploymentPlan:
    """Build a plan from an INI file: a [plan] section with road_length plus
    any of the DeploymentPlan fields as overrides; anything else is an error."""
    values = read_ini(path, {"plan": dict.fromkeys(("road_length", *_PLAN_KEYS), _positive)})
    if "plan" not in values:
        raise ValueError(f"{path}: missing [plan] section")
    overrides = values["plan"]
    if "road_length" not in overrides:
        raise ValueError(f"{path}: plan needs a road_length")
    return build_plan(overrides.pop("road_length"), **overrides)


def warning_lead_time(distance_m: float, speed_kmh: float) -> float:
    """Seconds until a vehicle `distance_m` away arrives at `speed_kmh`."""
    if speed_kmh <= 0:
        raise ValueError("speed must be positive")
    return distance_m * 3.6 / speed_kmh


def warning_decision(result: DetectionResult) -> bool:
    """Warn only for risky classes (H, LH) that are not moving away."""
    return result.sound_type in WARN_CLASSES and result.direction != RECEDING
