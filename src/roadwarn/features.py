"""Per-frame feature extraction: spectral scalars, MFCC and LPC.

A full feature vector concatenates, in this fixed order:

    [p1, p2, f1, f2, peak, mfcc_0..mfcc_{m-1}, lpc_1..lpc_p, lpc_gain]

which is 31 dimensions with the defaults (13 MFCC coefficients, order-12
LPC).  The five spectral scalars come from the unwindowed magnitude
spectrum; the MFCC path applies its own pre-emphasis and hann window.
Every extractor, `extract_features` included, works along the last axis
with `...` indexing: it takes one frame or a (frames x samples) stack,
works on the whole stack at once and keeps the input's leading shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .labels import SoundClass, open_text


class SilentFrameError(ValueError):
    """Raised when an extractor needs a non-silent frame and got all zeros."""


def _check_numbers(config) -> None:
    """Each field of an extraction config holds a finite number of its
    annotated type: an int for `int`, an int or a float for `float`, and
    None too for `float | None`.  A bool is neither."""
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None and f.type.endswith("None"):
            continue
        if isinstance(value, bool) or not isinstance(value, int if f.type == "int" else (int, float)):
            raise ValueError(f"{f.name} must be {'an integer' if f.type == 'int' else 'a number'}, "
                             f"got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class MfccConfig:
    n_filters: int = 26
    n_coeffs: int = 13
    pre_emphasis: float = 0.97
    fmin: float = 0.0
    fmax: float | None = None  # None = Nyquist of the frame being processed
    log_floor: float = 1e-10

    def __post_init__(self):
        _check_numbers(self)
        if not (0 < self.n_coeffs <= self.n_filters):
            raise ValueError("need 0 < n_coeffs <= n_filters")
        if self.fmin < 0:  # no frequency is below 0 Hz; the mel scale is NaN below -700
            raise ValueError(f"fmin must be >= 0, got {self.fmin}")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    def resolve_fmax(self, sample_rate: int) -> float:
        nyquist = sample_rate / 2.0
        fmax = nyquist if self.fmax is None else self.fmax
        if not (self.fmin < fmax <= nyquist):
            raise ValueError(f"need fmin < fmax <= Nyquist, got [{self.fmin}, {fmax}]")
        return fmax


@dataclass(frozen=True)
class LpcConfig:
    order: int = 12

    def __post_init__(self):
        _check_numbers(self)
        if self.order < 0:
            raise ValueError("order must be >= 0")


# The [features] settings of a run config and a feature CSV's record: key -> type.
SETTINGS = {"n_filters": int, "n_coeffs": int, "pre_emphasis": float, "fmin": float,
            "fmax": float, "log_floor": float, "lpc_order": int}


def settings_of(mfcc_cfg: MfccConfig = MfccConfig(), lpc_cfg: LpcConfig = LpcConfig()) -> dict:
    """The [features] settings (key -> value) of two extraction configs."""
    return {**asdict(mfcc_cfg), "lpc_order": lpc_cfg.order}


def configs_of(settings: dict) -> tuple[MfccConfig, LpcConfig]:
    """The extraction configs of [features] settings; a key not given keeps its default."""
    settings = dict(settings)
    lpc_cfg = LpcConfig(order=settings.pop("lpc_order", LpcConfig.order))
    return MfccConfig(**settings), lpc_cfg


def fft_magnitude(samples: np.ndarray) -> np.ndarray:
    """One-sided DFT magnitudes |X_k|, k = 0..N/2, along the last axis.

    Takes one frame's samples or a (frames x N) stack of them.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.shape[-1] < 2:
        raise ValueError("frame too short for a spectrum")
    return np.abs(np.fft.rfft(x, axis=-1))


def spectral_features(mags: np.ndarray, bin_hz: float) -> np.ndarray:
    """The five scalar features [p1, p2, f1, f2, peak] of one-sided spectra.

    `mags` holds one spectrum or a (frames x bins) stack; the scalars
    replace its last axis.  Each spectrum is split at its midpoint bin
    (i.e. at half the Nyquist frequency); p1/p2 are the power sums of the
    two halves, f1/f2 the frequencies of each half's strongest bin, and
    peak the largest magnitude anywhere.  A half that is identically zero
    reports frequency 0.
    """
    m = np.asarray(mags, dtype=np.float64)
    if m.shape[-1] < 4:
        raise ValueError("spectrum too short to split")
    mid = m.shape[-1] // 2
    lo, hi = m[..., :mid], m[..., mid:]
    p1 = np.sum(lo ** 2, axis=-1)
    p2 = np.sum(hi ** 2, axis=-1)
    f1 = np.where(lo.max(axis=-1) > 0, np.argmax(lo, axis=-1) * bin_hz, 0.0)
    f2 = np.where(hi.max(axis=-1) > 0, (mid + np.argmax(hi, axis=-1)) * bin_hz, 0.0)
    return np.stack([p1, p2, f1, f2, m.max(axis=-1)], axis=-1)


@functools.lru_cache(maxsize=32)
def hann_window(n: int) -> np.ndarray:
    """The n-point hann window (`np.hanning`), computed once per length and
    read-only, since every caller shares the cached array."""
    window = np.hanning(n)
    window.flags.writeable = False
    return window


@functools.lru_cache(maxsize=32)
def _mel_filterbank(n_filters: int, n_bins: int, bin_hz: float, fmin: float, fmax: float) -> np.ndarray:
    """Triangular filters with peaks equally spaced on the mel scale.

    Filter weights are evaluated at the exact bin frequencies (no snapping
    of edges to bins), which keeps an independent from-definition
    reimplementation bit-comparable.
    """
    def mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def inv_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges_hz = inv_mel(np.linspace(mel(fmin), mel(fmax), n_filters + 2))
    freqs = np.arange(n_bins) * bin_hz
    bank = np.zeros((n_filters, n_bins))
    for j in range(n_filters):
        lo, center, hi = edges_hz[j], edges_hz[j + 1], edges_hz[j + 2]
        rising = (freqs >= lo) & (freqs <= center)
        falling = (freqs > center) & (freqs <= hi)
        if center > lo:
            bank[j, rising] = (freqs[rising] - lo) / (center - lo)
        if hi > center:
            bank[j, falling] = (hi - freqs[falling]) / (hi - center)
    return bank


@functools.lru_cache(maxsize=32)
def _dct_matrix(n_coeffs: int, n_filters: int) -> np.ndarray:
    """The first n_coeffs rows of the orthonormal type-II DCT of length n_filters."""
    k, j = np.arange(n_coeffs)[:, None], np.arange(n_filters)
    basis = np.sqrt(2.0 / n_filters) * np.cos(np.pi * k * (2 * j + 1) / (2 * n_filters))
    basis[0] /= np.sqrt(2.0)
    return basis


def mfcc(frames: np.ndarray, sample_rate: int, config: MfccConfig = MfccConfig()) -> np.ndarray:
    """Mel-frequency cepstral coefficients of one frame or a stack of them.

    Pipeline: pre-emphasis, hann window, power spectrum, triangular mel
    filterbank, log(energy + log_floor), orthonormal type-II DCT truncated
    to n_coeffs, which is a product by a cached (n_coeffs x n_filters)
    matrix.  The floor keeps silent channels finite; as long as filter
    energies dominate the floor, rescaling the frame only moves
    coefficient 0.  Returns n_coeffs values per frame.
    """
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[-1]
    if n < 2:
        raise ValueError("frame too short for MFCC")
    fmax = config.resolve_fmax(sample_rate)
    emphasized = np.empty_like(x)
    emphasized[..., 0] = x[..., 0]
    emphasized[..., 1:] = x[..., 1:] - config.pre_emphasis * x[..., :-1]
    windowed = emphasized * hann_window(n)
    power = np.abs(np.fft.rfft(windowed, axis=-1)) ** 2
    bank = _mel_filterbank(config.n_filters, power.shape[-1], sample_rate / n, config.fmin, fmax)
    log_energy = np.log(power @ bank.T + config.log_floor)
    return log_energy @ _dct_matrix(config.n_coeffs, config.n_filters).T


def autocorrelation(frames: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation estimates r[0..max_lag] (normalized by the
    frame length N, max_lag < N) along the last axis of one frame or a stack.

    Each lag is one stacked product of (1 x N-k) and (N-k x 1) row views,
    which numpy computes with the BLAS dot product, as `np.dot` does for a
    single frame, so every estimate equals the per-frame one exactly.
    """
    x = np.asarray(frames, dtype=np.float64)
    n = x.shape[-1]
    r = np.empty(x.shape[:-1] + (max_lag + 1,))
    for k in range(max_lag + 1):
        r[..., k] = np.matmul(x[..., None, k:], x[..., :n - k, None])[..., 0, 0] / n
    return r


def lpc(frames: np.ndarray, config: LpcConfig = LpcConfig()):
    """Linear prediction coefficients via the Levinson-Durbin recursion.

    Works along the last axis: takes one frame or a (frames x N) stack and
    returns (a, gain) with the input's leading shape, so one frame gives a
    numpy float gain.  `a` holds `order` coefficients per frame in the
    positive-predictor convention ``x_hat[n] = sum_i a[i-1] * x[n-i]``, and
    the gain is the mean-square prediction error left after the final order.

    The recursion runs once per order over every frame (Makhoul 1975,
    *Linear prediction: a tutorial review*).  A frame whose error has
    fallen to 1e-15 of its power is perfectly predicted: from there on its
    reflection coefficient k is 0, so its higher taps stay 0 and its other
    taps and error keep their bits.  The order-update inner products are
    BLAS dot products of contiguous rows, like the lags, so each frame's
    result equals a frame-by-frame recursion bit for bit.
    """
    x = np.asarray(frames, dtype=np.float64)
    p = config.order
    if p >= x.shape[-1]:
        raise ValueError("LPC order must be smaller than the frame length")
    r = autocorrelation(x, p)
    r0 = r[..., 0]
    if p and np.any(r0 <= 0.0):
        raise SilentFrameError("cannot fit LPC to a silent frame")
    # lags in reverse order, rows C-contiguous: rev[..., p - j] = r[..., j]; a
    # reversed view has a negative stride, which numpy multiplies outside BLAS
    rev = r[..., ::-1].copy()
    a = np.zeros(x.shape[:-1] + (p,))
    err = r0.copy()
    floor = 1e-15 * r0
    for i in range(1, p + 1):
        dot = np.matmul(a[..., None, :i - 1], rev[..., p - i + 1:p, None])[..., 0, 0]
        k = np.divide(r[..., i] - dot, err, out=np.zeros_like(err), where=err > floor)
        # the product is a new array, so it reads the taps of order i - 1
        a[..., :i - 1] -= k[..., None] * a[..., :i - 1][..., ::-1]
        a[..., i - 1] = k
        err *= 1.0 - k * k
    return a, err[()]


def feature_names(mfcc_cfg: MfccConfig = MfccConfig(), lpc_cfg: LpcConfig = LpcConfig()) -> list[str]:
    return (["p1", "p2", "f1", "f2", "peak"]
            + [f"mfcc{i}" for i in range(mfcc_cfg.n_coeffs)]
            + [f"lpc{i}" for i in range(1, lpc_cfg.order + 1)]
            + ["lpc_gain"])


def extract_features(frames: np.ndarray, sample_rate: int,
                     mfcc_cfg: MfccConfig = MfccConfig(),
                     lpc_cfg: LpcConfig = LpcConfig()) -> np.ndarray:
    """The feature vector of one frame, or a (frames x dim) matrix of a
    (frames x samples) stack."""
    x = np.asarray(frames, dtype=np.float64)
    scalars = spectral_features(fft_magnitude(x), sample_rate / x.shape[-1])
    a, gain = lpc(x, lpc_cfg)
    return np.concatenate([scalars, mfcc(x, sample_rate, mfcc_cfg), a, gain[..., None]], axis=-1)


# ---------------------------------------------------------------------------
# Dataset CSV persistence

_RECORD = "# [features]"


def save_dataset_csv(path, matrix: np.ndarray, labels, names: list[str],
                     settings: dict | None = None) -> None:
    """Write a feature dataset: header, %.9g values, final label column.

    The [features] `settings` it was extracted with that differ from the
    defaults go first, as the record line `# [features] key=value ...`;
    with none, there is no record line.  The fixed 9-significant-digit
    formatting makes re-runs byte-identical.
    """
    matrix = np.asarray(matrix)
    if matrix.shape[1] != len(names):
        raise ValueError("header does not match matrix width")
    defaults = settings_of()
    record = [f"{key}={value!r}" for key, value in (settings or {}).items()
              if value != defaults[key]]
    lines = [" ".join([_RECORD] + record)] if record else []
    lines.append(",".join(names + ["label"]))
    for row, label in zip(matrix, labels):
        text = ",".join("%.9g" % v for v in row)
        lines.append(text + "," + (label.value if label is not None else ""))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_dataset_settings(path) -> dict:
    """All the [features] settings a feature CSV was extracted with (key ->
    value): the ones its record names, n_coeffs and lpc_order as its mfcc and
    lpc columns show them, the defaults for the rest.  A record that makes no
    extraction configs, or a header that is not their `feature_names`, is an error."""
    with open_text(path) as fh:
        lines = (ln.rstrip("\n") for ln in fh if ln.strip())
        first = next(lines, "")
        names = (next(lines, "") if first.startswith("#") else first).split(",")[:-1]
    record = first.split()
    recorded = {}
    for item in record[2:] if record[:2] == _RECORD.split() else []:
        key, _, text = item.partition("=")
        try:
            recorded[key] = SETTINGS[key](text)
        except (KeyError, ValueError):
            raise ValueError(f"{path}: bad [features] record item {item!r}") from None
    try:
        configs_of(recorded)
    except ValueError as exc:
        raise ValueError(f"{path}: bad [features] record: {exc}") from None
    settings = {**settings_of(), "n_coeffs": sum(name.startswith("mfcc") for name in names),
                "lpc_order": sum(name.startswith("lpc") and name != "lpc_gain" for name in names),
                **recorded}
    try:
        if names == feature_names(*configs_of(settings)):
            return settings
    except ValueError:  # sizes no extraction has, such as no mfcc column
        pass
    raise ValueError(f"{path}: its header is not the feature columns of [features] "
                     f"n_coeffs = {settings['n_coeffs']}, lpc_order = {settings['lpc_order']}")


def load_dataset_csv(path):
    """Read back (matrix, labels, names); labels are SoundClass or None.
    The settings record, if any, is skipped: `load_dataset_settings` reads it.
    A bad row raises a ValueError that starts with `<path>:<line>:`."""
    with open_text(path) as fh:
        lines = [(lineno, ln.rstrip("\n")) for lineno, ln in enumerate(fh, 1) if ln.strip()]
    if lines and lines[0][1].startswith("#"):
        del lines[0]
    if not lines:
        raise ValueError(f"{path}: empty dataset")
    header = lines[0][1].split(",")
    if header[-1] != "label":
        raise ValueError(f"{path}: missing label column")
    names = header[:-1]
    rows, labels = [], []
    for lineno, ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{lineno}: ragged row with {len(parts)} fields")
        try:
            rows.append([float(v) for v in parts[:-1]])
        except ValueError:
            name, text = next((name, v) for name, v in zip(names, parts) if not _is_float(v))
            raise ValueError(f"{path}:{lineno}: {name} is not a number: {text!r}") from None
        try:
            labels.append(SoundClass(parts[-1]) if parts[-1] else None)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unknown label {parts[-1]!r}, expected one of "
                             f"{', '.join(c.value for c in SoundClass)}") from None
    matrix = np.array(rows)
    if matrix.size and not np.isfinite(matrix).all():
        row, col = np.argwhere(~np.isfinite(matrix))[0]
        raise ValueError(f"{path}:{lines[1 + row][0]}: {names[col]} must be finite, "
                         f"got {lines[1 + row][1].split(',')[col]!r}")
    return matrix, labels, names


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
