"""Roadside geometry, danger areas, timing arithmetic and the warning policy.

Positions live in a road-local planar frame: x runs along the road in the
travel direction of the monitored lane, y across it, both in meters.
Processors sit every `processor_spacing` meters, each owning the danger
area that starts at its own position.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields
from functools import cached_property

from .labels import RECEDING, DetectionResult, SoundClass, open_text

WARN_CLASSES = (SoundClass.H, SoundClass.LH)
# Plan bounds: warnd keeps a bucket per processor, and a REG or POS reads each
# area at its point.  danger_length is at most 7 spacings, so a point lies in at
# most 8 areas, also where rounding puts one area's end on another's start.
MAX_PROCESSORS = 100_000
MAX_AREAS_AT_A_POINT = 8


@dataclass(frozen=True)
class DangerArea:
    """Axis-aligned rectangle [x0, x0+length] x [0, width], boundary included."""

    x0: float
    length: float
    width: float

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x0 + self.length and 0.0 <= y <= self.width


@dataclass(frozen=True)
class DeploymentPlan:
    """The numbers of a plan file, each finite and positive.  Processors sit
    at x = 0, spacing, 2*spacing, ... <= road_length, and processor i owns
    the danger area [i*spacing, i*spacing + danger_length] x [0, road_width]."""

    road_length: float
    processor_spacing: float = 25.0
    danger_length: float = 25.0
    road_width: float = 7.0
    max_design_speed: float = 75.0   # km/h
    min_warning_time: float = 3.0    # seconds
    freshness_window: float = 5.0    # seconds a position stays usable

    def __post_init__(self):
        for name in (f.name for f in fields(self)):  # the keys of a plan file
            value = getattr(self, name)
            if not 0 < value < math.inf:  # False for NaN too
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.road_length < self.processor_spacing:
            raise ValueError(f"road of {self.road_length} m is shorter than one "
                             f"{self.processor_spacing} m spacing")
        if self.road_length / self.processor_spacing >= MAX_PROCESSORS:  # also for inf
            raise ValueError(f"road of {self.road_length} m at {self.processor_spacing} m spacing "
                             f"needs more than {MAX_PROCESSORS} processors")
        if self.danger_length > (MAX_AREAS_AT_A_POINT - 1) * self.processor_spacing:
            raise ValueError(f"danger_length of {self.danger_length} m is longer than "
                             f"{MAX_AREAS_AT_A_POINT - 1} spacings of {self.processor_spacing} m")
        if not math.isfinite(self.warning_distance / self.processor_spacing):
            raise ValueError(f"warning distance min_warning_time * max_design_speed / 3.6 "
                             f"is {self.warning_distance} m, not a finite number of "
                             f"{self.processor_spacing} m spacings")

    @cached_property
    def processor_count(self) -> int:
        return int(self.road_length / self.processor_spacing) + 1

    def processor(self, processor_id: int) -> DangerArea:
        """The danger area of processor `processor_id`."""
        if not 0 <= processor_id < self.processor_count:
            raise KeyError(f"no processor {processor_id} in plan")
        return DangerArea(processor_id * self.processor_spacing, self.danger_length,
                          self.road_width)

    def areas_at(self, x: float, y: float) -> tuple[int, ...]:
        """Ids of the danger areas that hold (x, y), ascending, by the
        comparisons of `DangerArea.contains`."""
        spacing, length = self.processor_spacing, self.danger_length
        last = self.processor_count - 1
        # also keeps x / spacing finite for any finite x
        if not (0.0 <= y <= self.road_width and 0.0 <= x <= last * spacing + length):
            return ()
        i = int(x / spacing)
        if i >= last:
            i = last
        elif (i + 1) * spacing <= x:  # x / spacing rounded down across an integer
            i += 1
        # No area above i starts at or before x.  The areas' ends grow with
        # their ids, so the walk down stops at the first one that ends before x.
        found = ()
        while i >= 0:
            x0 = i * spacing
            if x0 + length < x:
                break
            if x0 <= x:
                found = (i,) + found
            i -= 1
        return found

    @property
    def warning_distance(self) -> float:
        """Meters a vehicle at the design speed covers in `min_warning_time`."""
        return self.min_warning_time * (self.max_design_speed / 3.6)

    @property
    def warning_offset_areas(self) -> int:
        """How many areas downstream of a detection the warning targets.

        The warned pedestrians must get at least `min_warning_time` even at
        the design speed, so the target area starts
        ceil(warning_distance / spacing) spacings past the detector
        (3 areas, i.e. 75 m, with the defaults).
        """
        return math.ceil(self.warning_distance / self.processor_spacing - 1e-9)


def read_ini(path, schema: dict) -> dict:
    """section -> {key: value} of an INI file, each value cast by `schema`
    (section -> {key: cast}).  A section or key the schema lacks, a value its
    cast rejects (its ValueError's message follows the key) and a non-finite
    number are errors that name the file and the key; a `%` is not special.
    A file configparser cannot read (a key given twice, say) or that is not
    UTF-8 is an error naming it."""
    parser = configparser.ConfigParser(interpolation=None)
    with open_text(path) as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:  # its message spans lines
            raise ValueError(f"{path}: {' '.join(str(exc).split())}") from None
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
            except (ValueError, OverflowError) as exc:  # an int past the float range
                raise ValueError(f"{path}: [{name}] {key} {exc}") from None
            values[name][key] = value
    return values


def load_plan_config(path) -> DeploymentPlan:
    """Build a plan from an INI file: a [plan] section with road_length plus
    any of the other DeploymentPlan fields as overrides; anything else, and
    numbers past the plan bounds, are errors that name the file."""
    values = read_ini(path, {"plan": {f.name: float for f in fields(DeploymentPlan)}})
    if "plan" not in values:
        raise ValueError(f"{path}: missing [plan] section")
    if "road_length" not in values["plan"]:
        raise ValueError(f"{path}: plan needs a road_length")
    try:
        return DeploymentPlan(**values["plan"])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def warning_lead_time(distance_m: float, speed_kmh: float) -> float:
    """Seconds until a vehicle `distance_m` away arrives at `speed_kmh`."""
    if speed_kmh <= 0:
        raise ValueError("speed must be positive")
    return distance_m * 3.6 / speed_kmh


def warning_decision(result: DetectionResult) -> bool:
    """Warn only for risky classes (H, LH) that are not moving away."""
    return result.sound_type in WARN_CLASSES and result.direction != RECEDING
