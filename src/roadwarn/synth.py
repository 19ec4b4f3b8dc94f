"""Physically-motivated pass-by and ambient-sound synthesis.

Rendering solves the retarded-time equation t = tau + d(tau)/c in closed
form for every output sample, so the frequency shift, the 1/distance
amplitude law and the directional-microphone gain are exact by
construction.  That makes the generated clips usable as ground truth for
the climax and direction logic, and `generate_corpus` builds the labeled
210-clip training set from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import DEFAULT_FRAME_SECONDS, SampleBuffer, write_wav
from .labels import SoundClass, open_text

SPEED_OF_SOUND = 343.0
DEFAULT_SAMPLE_RATE = 16000

# the mic's front axis leans this far from road-perpendicular toward the
# side vehicles approach from; enough lean to hear the approach loudly and
# the departure faintly, little enough that the received energy still peaks
# at the closest approach
MIC_TILT_RAD = math.radians(30.0)
MIC_HEIGHT = 3.0  # meters above the vehicle's sound source

_AMBIENT_RMS = 2e-4  # receiver noise floor, keeps quantized frames non-silent

# class boundary between "low" and "high" speed for light vehicles, km/h
SPEED_BOUNDARY_KMH = 50.0


@dataclass(frozen=True)
class VehicleProfile:
    sound_class: SoundClass
    fundamental: float       # Hz of the lowest engine harmonic
    n_harmonics: int = 8
    harmonic_rolloff: float = 0.7   # amplitude factor per successive harmonic
    broadband_level: float = 0.3    # noise fraction of the source mix

    def __post_init__(self):
        if self.fundamental <= 0:
            raise ValueError("fundamental must be positive")
        if not (0 <= self.broadband_level <= 1):
            raise ValueError("broadband_level must be in [0, 1]")
        if self.n_harmonics < 1:
            raise ValueError("need at least one harmonic")


@dataclass(frozen=True)
class PassbyScenario:
    speed_kmh: float
    closest_distance: float = 4.0   # lateral offset from the mic, meters
    approach_from: str = "front"    # or "back"
    duration: float = 4.0
    seed: int = 0
    closest_time: float | None = None  # default: mid-clip

    def __post_init__(self):
        if not (0.0 <= self.speed_kmh <= 120.0):
            raise ValueError("speed must be in [0, 120] km/h")
        if self.closest_distance <= 0:
            raise ValueError("closest_distance must be positive")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.approach_from not in ("front", "back"):
            raise ValueError("approach_from must be 'front' or 'back'")


@dataclass(frozen=True)
class PassbyTruth:
    """What the renderer knows exactly about its own clip."""

    t_closest: float           # receive time of the closest-approach wavefront
    received_hz: np.ndarray    # true received fundamental at frame centres 0.05 + 0.1 i s


def _emission_times(t: np.ndarray, t_c: float, v: float, r0: float, c: float) -> np.ndarray:
    """Solve t = tau + d(tau)/c for tau, with d(tau)^2 = v^2 (tau-t_c)^2 + r0^2."""
    T = t - t_c
    disc = c * c * (r0 * r0 + v * v * T * T) - v * v * r0 * r0
    w = (c * c * T - np.sqrt(disc)) / (c * c - v * v)
    return t_c + w


def _source_harmonics(tau: np.ndarray, profile: VehicleProfile, rng) -> np.ndarray:
    amps = profile.harmonic_rolloff ** np.arange(profile.n_harmonics)
    phases = rng.uniform(0.0, 2.0 * np.pi, profile.n_harmonics)
    out = np.zeros_like(tau)
    for h in range(profile.n_harmonics):
        out += amps[h] * np.sin(2.0 * np.pi * profile.fundamental * (h + 1) * tau + phases[h])
    rms = np.sqrt(np.mean(out ** 2))
    return out / rms if rms > 0 else out


def _band_noise(n: int, sample_rate: int, f_lo: float, f_hi: float, rng,
                shape_power: float = 0.0) -> np.ndarray:
    """Unit-RMS noise band-limited to [f_lo, f_hi] with a smooth 1/f^shape tilt."""
    white = rng.standard_normal(n)
    spec = np.fft.rfft(white)
    freqs = np.fft.rfftfreq(n, 1.0 / sample_rate)
    mask = ((freqs >= f_lo) & (freqs <= f_hi)).astype(np.float64)
    if shape_power > 0:
        mask = mask / (1.0 + freqs / max(f_lo, 1.0)) ** shape_power
    shaped = np.fft.irfft(spec * mask, n)
    rms = np.sqrt(np.mean(shaped ** 2))
    return shaped / rms if rms > 0 else shaped


def synth_passby(profile: VehicleProfile,
                 scenario: PassbyScenario) -> tuple[SampleBuffer, PassbyTruth]:
    """Render one vehicle pass and return the audio plus its ground truth.

    The source is a harmonic stack mixed with band-limited noise; the
    propagation delay, the 1/distance amplitude and the cardioid gain
    (1 + cos(theta))/2 are all evaluated at the exact emission time of each
    output sample.  The harmonic part is evaluated analytically at those
    times, so the received frequency carries no interpolation error.
    """
    rng = np.random.default_rng(scenario.seed)
    v = scenario.speed_kmh / 3.6
    c = SPEED_OF_SOUND
    r0 = math.hypot(scenario.closest_distance, MIC_HEIGHT)
    t_c = scenario.duration / 2.0 if scenario.closest_time is None else scenario.closest_time
    sign = 1.0 if scenario.approach_from == "front" else -1.0

    n = int(round(scenario.duration * DEFAULT_SAMPLE_RATE))
    t = np.arange(n) / DEFAULT_SAMPLE_RATE
    tau = _emission_times(t, t_c, v, r0, c)
    d = c * (t - tau)
    x = sign * v * (tau - t_c)  # along-road source position at emission

    # cardioid gain; the front axis leans MIC_TILT_RAD toward the -x side,
    # which is where "front" approaches come from
    cos_theta = (math.cos(MIC_TILT_RAD) * r0 - math.sin(MIC_TILT_RAD) * x) / d
    gain = 0.5 * (1.0 + cos_theta)

    source = _source_harmonics(tau, profile, rng)
    if profile.broadband_level > 0:
        grid_tau = np.linspace(tau[0], tau[-1], n)
        noise = _band_noise(n, DEFAULT_SAMPLE_RATE, 50.0, 2500.0, rng)
        source = ((1.0 - profile.broadband_level) * source
                  + profile.broadband_level * np.interp(tau, grid_tau, noise))
    rendered = gain / d * source
    peak = np.max(np.abs(rendered))
    if peak > 0:
        rendered = rendered / peak * 0.9
    rendered = rendered + _AMBIENT_RMS * rng.standard_normal(n)

    frame_times = np.arange(DEFAULT_FRAME_SECONDS / 2, scenario.duration, DEFAULT_FRAME_SECONDS)
    tau_f = _emission_times(frame_times, t_c, v, r0, c)
    d_rate = v * v * (tau_f - t_c) / np.sqrt(v * v * (tau_f - t_c) ** 2 + r0 * r0)
    received = profile.fundamental * c / (c + d_rate)
    truth = PassbyTruth(t_closest=t_c + r0 / c, received_hz=received)
    return SampleBuffer(np.clip(rendered, -1.0, 1.0), DEFAULT_SAMPLE_RATE), truth


def synth_nv(kind: str, duration: float, seed: int) -> SampleBuffer:
    """Ambient clips for the no-vehicle class: birds, airplane or crowd."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(seed)
    n = int(round(duration * DEFAULT_SAMPLE_RATE))
    t = np.arange(n) / DEFAULT_SAMPLE_RATE
    if kind == "birds":
        out = np.zeros(n)
        for _ in range(max(3, int(duration * 3))):
            length = int(rng.uniform(0.08, 0.2) * DEFAULT_SAMPLE_RATE)
            start = rng.integers(0, max(1, n - length))
            f_start = rng.uniform(2000.0, 5500.0)
            f_end = float(np.clip(f_start + rng.uniform(-1200.0, 1200.0), 2000.0, 6000.0))
            seg_t = np.arange(length) / DEFAULT_SAMPLE_RATE
            freq = np.linspace(f_start, f_end, length)
            phase = 2.0 * np.pi * np.cumsum(freq) / DEFAULT_SAMPLE_RATE
            out[start:start + length] += (rng.uniform(0.4, 1.0)
                                          * np.hanning(length) * np.sin(phase))
        out += 1e-4 * rng.standard_normal(n)
    elif kind == "airplane":
        rumble = _band_noise(n, DEFAULT_SAMPLE_RATE, 20.0, 300.0, rng, shape_power=1.0)
        slow = 1.0 + 0.25 * np.sin(2.0 * np.pi * rng.uniform(0.05, 0.12) * t
                                   + rng.uniform(0, 2 * np.pi))
        out = rumble * slow
    elif kind == "crowd":
        babble = _band_noise(n, DEFAULT_SAMPLE_RATE, 300.0, 3000.0, rng)
        mod = np.ones(n)
        for _ in range(3):
            mod += 0.15 * np.sin(2.0 * np.pi * rng.uniform(0.3, 2.0) * t
                                 + rng.uniform(0, 2 * np.pi))
        out = babble * mod
    else:
        raise ValueError(f"unknown ambient kind {kind!r}")
    peak = np.max(np.abs(out))
    if peak > 0:
        out = out / peak * 0.7
    return SampleBuffer(samples=out, sample_rate=DEFAULT_SAMPLE_RATE)


# ---------------------------------------------------------------------------
# Corpus generation

CORPUS_COUNTS = {SoundClass.LH: 70, SoundClass.LL: 50, SoundClass.H: 44, SoundClass.NV: 46}
NV_KINDS = ("birds", "airplane", "crowd")
CLIP_SECONDS = 4.0  # length of every corpus clip
_MANIFEST_HEADER = "file,class,speed_kmh,t_closest_s,seed"


@dataclass(frozen=True)
class ManifestEntry:
    file: str
    sound_class: SoundClass
    speed_kmh: float | None
    t_closest: float | None
    seed: int


# One row per vehicle class: the speed range in km/h, the fundamental (Hz) at
# the low end of that range and its rise across it, the noise fraction of the
# source mix likewise, and the number of harmonics.  Heavy engines occupy
# 40-80 Hz, light ones 90 Hz and up; within the light band the fundamental
# and the noise fraction both grow with speed, with a deliberate gap at the
# 50 km/h class boundary so the frame classes stay separable even under the
# worst-case frequency shift of a fast approach.
_SIGNATURES = {
    SoundClass.H: ((20.0, 75.0), 40.0, 38.0, 0.20, 0.20, 10),
    SoundClass.LL: ((20.0, SPEED_BOUNDARY_KMH), 90.0, 33.0, 0.10, 0.15, 8),
    SoundClass.LH: ((SPEED_BOUNDARY_KMH, 75.0), 145.0, 33.0, 0.35, 0.15, 8),  # speeds in (50, 75]
}


def corpus_clip_params(sound_class: SoundClass,
                       clip_seed: int) -> tuple[VehicleProfile, PassbyScenario]:
    """Deterministic profile + scenario for one vehicle clip of the corpus."""
    if sound_class not in _SIGNATURES:
        raise ValueError("no vehicle profile for NV")
    (low, high), f0, f0_rise, noise, noise_rise, n_harmonics = _SIGNATURES[sound_class]
    rng = np.random.default_rng(clip_seed)
    speed = (high - rng.uniform(0.0, high - low) if sound_class == SoundClass.LH
             else rng.uniform(low, high))
    jitter = rng.uniform(0.0, 2.0)
    position = (speed - low) / (high - low)  # 0 at the low end of the range, 1 at the high
    profile = VehicleProfile(sound_class, fundamental=f0 + position * f0_rise + jitter,
                             n_harmonics=n_harmonics, harmonic_rolloff=rng.uniform(0.65, 0.8),
                             broadband_level=noise + position * noise_rise)
    scenario = PassbyScenario(
        speed_kmh=speed,
        closest_distance=rng.uniform(2.5, 6.0),
        approach_from="front",
        duration=CLIP_SECONDS,
        seed=clip_seed,
        closest_time=CLIP_SECONDS / 2.0 + rng.uniform(-0.25, 0.25),
    )
    return profile, scenario


def render_corpus_clip(sound_class: SoundClass, index: int, clip_seed: int):
    """(buffer, speed, t_closest) for one corpus clip; NV fields are None."""
    if sound_class == SoundClass.NV:
        kind = NV_KINDS[index % len(NV_KINDS)]
        return synth_nv(kind, CLIP_SECONDS, clip_seed), None, None
    profile, scenario = corpus_clip_params(sound_class, clip_seed)
    buffer, truth = synth_passby(profile, scenario)
    return buffer, scenario.speed_kmh, truth.t_closest


def corpus_plan(seed: int) -> list[tuple[SoundClass, int, int]]:
    """Deterministic (class, per-class index, clip seed) for all 210 clips."""
    plan = []
    position = 0
    for sound_class, count in CORPUS_COUNTS.items():
        for i in range(count):
            plan.append((sound_class, i, seed * 100003 + position))
            position += 1
    return plan


def generate_corpus(out_dir, seed: int = 0) -> list[ManifestEntry]:
    """Write the 210-clip corpus (70 LH / 50 LL / 44 H / 46 NV) plus manifest.csv.

    Fully deterministic for a given seed; the manifest is written last, in
    one atomic step, so a failed run never leaves a usable-looking corpus.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for n, (sound_class, i, clip_seed) in enumerate(corpus_plan(seed)):
        buffer, speed, t_closest = render_corpus_clip(sound_class, i, clip_seed)
        name = f"clip_{n:03d}_{sound_class.value}.wav"
        write_wav(os.path.join(out_dir, name), buffer)
        entries.append(ManifestEntry(file=name, sound_class=sound_class,
                                     speed_kmh=speed, t_closest=t_closest,
                                     seed=clip_seed))
    lines = [_MANIFEST_HEADER]
    for e in entries:
        speed = "%.6g" % e.speed_kmh if e.speed_kmh is not None else ""
        t_closest = "%.6g" % e.t_closest if e.t_closest is not None else ""
        lines.append(f"{e.file},{e.sound_class.value},{speed},{t_closest},{e.seed}")
    manifest_path = os.path.join(out_dir, "manifest.csv")
    tmp_path = manifest_path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    os.replace(tmp_path, manifest_path)
    return entries


def load_manifest(path) -> list[ManifestEntry]:
    """The entries of a corpus manifest, at least one; a bad row's ValueError
    starts `<path>:<line>:`."""
    with open_text(path) as fh:
        lines = [(lineno, ln.rstrip("\n")) for lineno, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or lines[0][1] != _MANIFEST_HEADER:
        raise ValueError(f"{path}: not a corpus manifest")
    if len(lines) == 1:
        raise ValueError(f"{path}: no clip rows")
    entries = []
    for lineno, ln in lines[1:]:
        if ln.count(",") != 4:
            raise ValueError(f"{path}:{lineno}: ragged row with {ln.count(',') + 1} fields")
        file, cls, *numbers = ln.split(",")
        try:
            sound_class = SoundClass(cls)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unknown class {cls!r}, expected one of "
                             f"{', '.join(c.value for c in SoundClass)}") from None
        for i, (name, text) in enumerate(zip(_MANIFEST_HEADER.split(",")[2:], numbers)):
            try:  # an NV clip leaves speed_kmh and t_closest_s empty
                numbers[i] = int(text) if name == "seed" else float(text) if text else None
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {name} is not a number: {text!r}") from None
        entries.append(ManifestEntry(file, sound_class, *numbers))
    return entries
