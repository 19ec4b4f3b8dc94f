"""The names the roadside processor and the warning service share.

A processor classifies frames into a `SoundClass`, calls the direction of
travel and ends a pass-by in a `DetectionResult`; the warning service
parses, judges and sends those same names.  This module imports nothing
beyond the standard library, so `deployment` and `warnd`, which need only
these names, start without numpy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class SoundClass(enum.Enum):
    H = "H"    # heavy vehicle
    LL = "LL"  # light vehicle, low speed
    LH = "LH"  # light vehicle, high speed
    NV = "NV"  # no vehicle (birds, airplane, crowd)


CLASS_ORDER = [SoundClass.H, SoundClass.LL, SoundClass.LH, SoundClass.NV]
DANGER_ORDER = [SoundClass.LH, SoundClass.H, SoundClass.LL, SoundClass.NV]


def most_dangerous(classes) -> SoundClass:
    """Tie-break helper: the riskiest class among the candidates."""
    return min(classes, key=DANGER_ORDER.index)


APPROACHING = "approaching"
RECEDING = "receding"
UNKNOWN = "unknown"

DIRECTIONS = (APPROACHING, RECEDING, UNKNOWN)


@dataclass(frozen=True)
class DetectionResult:
    climax_index: int
    sound_type: SoundClass
    direction: str

    def to_line(self) -> str:
        return f"DET {self.climax_index} {self.sound_type.value} {self.direction}"
