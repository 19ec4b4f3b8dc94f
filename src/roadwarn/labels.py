"""The names the roadside processor and the warning service share.

A processor classifies frames into a `SoundClass`, calls the direction of
travel and ends a pass-by in a `DetectionResult`; the warning service
parses, judges and sends those same names.  This module imports nothing
beyond the standard library, so `deployment` and `warnd`, which need only
these names, start without numpy.  `open_text` is the one way every text
input (a plan, a run config, a feature CSV, a manifest, a script) is read.
"""

from __future__ import annotations

import contextlib
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


@contextlib.contextmanager
def open_text(path):
    """`path` opened for reading as UTF-8 text; a byte that is not UTF-8,
    read anywhere in the `with` block, raises a ValueError that names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc})") from None
