#!/usr/bin/env python3
"""A walk through the per-frame features on one synthetic vehicle pass.

Renders a single light-vehicle pass-by, slices it into 0.1 s frames, and
prints every feature group for the loudest frame: the five spectral
scalars, the 13 MFCCs, the order-12 LPC fit, and finally the shape of
the whole clip's feature matrix.
"""

import numpy as np

from roadwarn import audio_io, features, synth
from roadwarn.labels import SoundClass

# --- render a pass-by ------------------------------------------------------

profile = synth.VehicleProfile(sound_class=SoundClass.LL, fundamental=120.0,
                               n_harmonics=8, broadband_level=0.25)
scenario = synth.PassbyScenario(speed_kmh=45.0, closest_distance=4.0,
                                duration=4.0, seed=1)
buffer, truth = synth.synth_passby(profile, scenario)
print(f"rendered {buffer.duration:.1f} s at {buffer.sample_rate} Hz, "
      f"closest approach at t = {truth.t_closest:.2f} s")

frames = audio_io.frame_signal(buffer)  # one row per 0.1 s frame
index = int(np.argmax(np.sqrt(np.mean(frames ** 2, axis=1))))
loudest = frames[index]
print(f"loudest frame: #{index} (t = {index * audio_io.DEFAULT_FRAME_SECONDS:.1f} s)")

# --- the five spectral scalars ---------------------------------------------

bin_hz = buffer.sample_rate / frames.shape[1]
p1, p2, f1, f2, peak = features.spectral_features(features.fft_magnitude(frames),
                                                  bin_hz)[index]
print("\nspectral scalars (halves split at", 0.25 * buffer.sample_rate, "Hz):")
print(f"  p1 = {p1:.4g}   p2 = {p2:.4g}")
print(f"  f1 = {f1:.0f} Hz  f2 = {f2:.0f} Hz  peak = {peak:.4g}")
print(f"  (source fundamental was {profile.fundamental:.0f} Hz; "
      f"f1 lands on its strongest harmonic)")

# --- MFCC -------------------------------------------------------------------

coeffs = features.mfcc(loudest, buffer.sample_rate)
print("\nfirst five MFCCs:", np.round(coeffs[:5], 3))

# rescaling the frame only moves coefficient 0 (the loudness axis)
delta = features.mfcc(2 * loudest, buffer.sample_rate) - coeffs
print("after doubling the amplitude, coefficient deltas:", np.round(delta[:5], 6))

# --- LPC --------------------------------------------------------------------

a, gain = features.lpc(loudest)
print("\nLPC coefficients a_1..a_4:", np.round(a[:4], 4), " gain:", round(gain, 6))
pred = np.convolve(loudest, np.r_[0.0, a])[:len(loudest)]
residual = loudest - pred
print(f"prediction drops the frame power {np.mean(loudest**2) / np.mean(residual**2):.1f}x")

# --- the full 31-dim vector ------------------------------------------------

matrix = features.extract_features(frames, buffer.sample_rate)
print(f"\nfeature matrix for the clip: {matrix.shape[0]} frames x {matrix.shape[1]} dims")
