import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roadwarn import features
from roadwarn.features import (LpcConfig, MfccConfig, SilentFrameError, autocorrelation,
                               fft_magnitude, lpc, mfcc, spectral_features)

from conftest import sine_frame


def direct_dft(x):
    """O(N^2) DFT straight from the definition; the oracle for all FFT checks."""
    n = len(x)
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return w @ np.asarray(x, dtype=complex)


class TestFftMagnitude:
    def test_unit_impulse(self):
        mags = fft_magnitude(np.r_[1.0, np.zeros(7)])
        np.testing.assert_allclose(mags, np.ones(5), atol=1e-12)

    def test_dc_only(self):
        mags = fft_magnitude(np.ones(8))
        np.testing.assert_allclose(mags, [8, 0, 0, 0, 0], atol=1e-12)

    def test_matches_direct_dft(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(8, 400))
            x = rng.uniform(-1, 1, n)
            oracle = np.abs(direct_dft(x))[:n // 2 + 1]
            np.testing.assert_allclose(fft_magnitude(x), oracle,
                                       rtol=1e-6, atol=1e-9 * n)

    def test_parseval(self):
        # frame energy == (1/N) * sum over the full spectrum of |X_k|^2,
        # with the full spectrum rebuilt from the one-sided output
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(16, 600))
            x = rng.uniform(-1, 1, n)
            mags = fft_magnitude(x)
            # interior bins appear twice in the two-sided spectrum
            full = np.sum(mags ** 2) + np.sum(mags[1:(n + 1) // 2] ** 2)
            energy = np.sum(x ** 2)
            assert abs(energy - full / n) <= 1e-6 * energy

    def test_stack_rows_equal_single_frames(self):
        rng = np.random.default_rng(12)
        stack = rng.uniform(-1, 1, (6, 1600))
        mags = fft_magnitude(stack)
        assert mags.shape == (6, 801)
        for row, x in zip(mags, stack):
            assert np.array_equal(row, fft_magnitude(x))

    def test_empty_frame_rejected(self):
        with pytest.raises(ValueError):
            fft_magnitude(np.array([1.0]))


def spectral_features_reference(m, bin_hz):
    """The per-frame scalar features as first written, one spectrum at a
    time; the oracle for the batched `spectral_features`."""
    if len(m) < 4:
        raise ValueError("spectrum too short to split")
    mid = len(m) // 2
    lo, hi = m[:mid], m[mid:]
    p1 = float(np.sum(lo ** 2))
    p2 = float(np.sum(hi ** 2))
    f1 = float(np.argmax(lo) * bin_hz) if lo.max() > 0 else 0.0
    f2 = float((mid + np.argmax(hi)) * bin_hz) if hi.max() > 0 else 0.0
    return np.array([p1, p2, f1, f2, float(m.max())])


# few distinct values, so ties, flat stretches and all-zero halves are common
_magnitude = st.one_of(st.sampled_from([0.0, 0.0, 1.0, 2.5]),
                       st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))


class TestSpectralFeatures:
    def test_pure_sine_lands_in_first_half(self):
        mags = fft_magnitude(sine_frame(1000.0))
        p1, p2, f1, _, peak = spectral_features(mags, 10.0)
        assert abs(f1 - 1000.0) <= 10.0
        assert p1 > 100 * p2
        # oracle: strongest bin of the direct DFT in the lower half
        oracle = np.abs(direct_dft(sine_frame(1000.0)))[:801]
        assert f1 == np.argmax(oracle[:400]) * 10.0
        assert peak == pytest.approx(oracle.max(), rel=1e-9)

    def test_all_zero(self):
        p1, p2, f1, f2, peak = spectral_features(np.zeros(64), 10.0)
        assert p1 == 0.0 and p2 == 0.0 and peak == 0.0
        assert f1 == 0.0 and f2 == 0.0

    def test_two_sines_straddling_the_split(self):
        # equal sines either side of the midpoint (4 kHz at a 16 kHz rate)
        t = np.arange(1600) / 16000.0
        x = np.sin(2 * np.pi * 500 * t) + np.sin(2 * np.pi * 5000 * t)
        p1, p2, f1, f2, _ = spectral_features(fft_magnitude(x), 10.0)
        assert abs(f1 - 500.0) <= 10.0
        assert abs(f2 - 5000.0) <= 10.0
        assert p1 == pytest.approx(p2, rel=0.05)
        # verify both halves against the direct DFT oracle
        oracle = np.abs(direct_dft(x))[:801]
        assert p1 == pytest.approx(np.sum(oracle[:400] ** 2), rel=1e-9)
        assert p2 == pytest.approx(np.sum(oracle[400:] ** 2), rel=1e-9)

    def test_degenerate_spectrum(self):
        with pytest.raises(ValueError):
            spectral_features(np.ones(3), 10.0)
        with pytest.raises(ValueError):
            spectral_features(np.ones((5, 3)), 10.0)

    @settings(max_examples=300, deadline=None)
    @given(mags=hnp.arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(4, 24)),
                           elements=_magnitude),
           bin_hz=st.sampled_from([0.1, 3.0, 10.0, 15.625]))
    @example(mags=np.zeros((2, 8)), bin_hz=10.0)
    @example(mags=np.array([[0, 0, 0, 0, 0, 0, 0, 2.0], [3.0, 0, 0, 0, 0, 0, 0, 0]]),
             bin_hz=10.0)
    def test_stack_matches_per_frame_reference(self, mags, bin_hz):
        got = spectral_features(mags, bin_hz)
        assert got.shape == (len(mags), 5)
        for row, m in zip(got, mags):
            assert np.array_equal(row, spectral_features_reference(m, bin_hz))
            assert np.array_equal(spectral_features(m, bin_hz), row)


def mfcc_reference(samples, sample_rate, n_filters=26, n_coeffs=13,
                   pre_emphasis=0.97, fmin=0.0, fmax=None, log_floor=1e-10):
    """From-definition MFCC, scalar loops throughout; shares no code with
    the implementation."""
    x = [float(v) for v in samples]
    n = len(x)
    y = [x[0]] + [x[i] - pre_emphasis * x[i - 1] for i in range(1, n)]
    windowed = [y[i] * (0.5 - 0.5 * math.cos(2 * math.pi * i / (n - 1))) for i in range(n)]
    n_bins = n // 2 + 1
    power = []
    for k in range(n_bins):
        re = sum(windowed[i] * math.cos(2 * math.pi * k * i / n) for i in range(n))
        im = -sum(windowed[i] * math.sin(2 * math.pi * k * i / n) for i in range(n))
        power.append(re * re + im * im)
    if fmax is None:
        fmax = sample_rate / 2.0
    mel = lambda f: 2595.0 * math.log10(1.0 + f / 700.0)
    inv = lambda m: 700.0 * (10.0 ** (m / 2595.0) - 1.0)
    mel_lo, mel_hi = mel(fmin), mel(fmax)
    edges = [inv(mel_lo + (mel_hi - mel_lo) * j / (n_filters + 1))
             for j in range(n_filters + 2)]
    log_energy = []
    for j in range(n_filters):
        lo, center, hi = edges[j], edges[j + 1], edges[j + 2]
        total = 0.0
        for k in range(n_bins):
            f = k * sample_rate / n
            if lo <= f <= center and center > lo:
                total += power[k] * (f - lo) / (center - lo)
            elif center < f <= hi and hi > center:
                total += power[k] * (hi - f) / (hi - center)
        log_energy.append(math.log(total + log_floor))
    out = []
    for k in range(n_coeffs):
        scale = math.sqrt(1.0 / n_filters) if k == 0 else math.sqrt(2.0 / n_filters)
        out.append(scale * sum(log_energy[j] * math.cos(math.pi * k * (2 * j + 1)
                                                        / (2 * n_filters))
                               for j in range(n_filters)))
    return np.array(out)


class TestMfcc:
    def test_silence(self):
        coeffs = mfcc(np.zeros(512), 16000)
        # constant log-floor energies: only coefficient 0 survives the DCT
        expected0 = math.sqrt(26) * math.log(1e-10)
        assert coeffs[0] == pytest.approx(expected0, rel=1e-12)
        np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-9)

    def test_scaling_moves_only_coefficient_zero(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-0.8, 0.8, 1600)
        a = mfcc(x, 16000)
        b = mfcc(2.0 * x, 16000)
        np.testing.assert_allclose(a[1:], b[1:], atol=1e-6)
        assert abs(b[0] - a[0]) > 1.0

    def test_matches_independent_reference(self):
        frame = sine_frame(440.0, n=512)
        got = mfcc(frame, 16000)
        want = mfcc_reference(frame, 16000)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    def test_reference_also_agrees_on_noise(self):
        rng = np.random.default_rng(17)
        samples = rng.uniform(-1, 1, 400)
        got = mfcc(samples, 8000)
        want = mfcc_reference(samples, 8000)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("sample_rate", [8000, 16000])
    @pytest.mark.parametrize("n_filters, n_coeffs",
                             [(26, 1), (26, 13), (26, 26), (8, 3), (40, 20)])
    def test_dct_matches_reference_at_every_shape(self, n_filters, n_coeffs, sample_rate):
        rng = np.random.default_rng(n_filters * 100 + n_coeffs)
        samples = rng.uniform(-1, 1, 400)
        got = mfcc(samples, sample_rate, MfccConfig(n_filters=n_filters, n_coeffs=n_coeffs))
        want = mfcc_reference(samples, sample_rate, n_filters, n_coeffs)
        assert got.shape == (n_coeffs,)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            MfccConfig(n_coeffs=30, n_filters=26)
        with pytest.raises(ValueError):
            mfcc(sine_frame(440.0), 16000, MfccConfig(fmin=5000.0, fmax=4000.0))


def toeplitz_lpc_oracle(x, order):
    """Solve the normal equations R a = r directly (independent of Levinson)."""
    r = autocorrelation(np.asarray(x, dtype=float), order)
    R = np.empty((order, order))
    for i in range(order):
        for j in range(order):
            R[i, j] = r[abs(i - j)]
    return np.linalg.solve(R, r[1:order + 1])


class TestLpc:
    def test_order_zero(self):
        frame = sine_frame(100.0, n=256)
        a, gain = lpc(frame, LpcConfig(order=0))
        assert len(a) == 0
        assert gain == pytest.approx(np.mean(frame ** 2))

    def test_ar1_recovery(self):
        rng = np.random.default_rng(7)
        x = np.zeros(10000)
        e = rng.standard_normal(10000)
        for i in range(1, 10000):
            x[i] = 0.9 * x[i - 1] + e[i]
        a, _ = lpc(x, LpcConfig(order=1))
        assert a[0] == pytest.approx(0.9, abs=0.05)

    def test_matches_toeplitz_solve(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            x = rng.standard_normal(int(rng.integers(200, 2000)))
            a, _ = lpc(x, LpcConfig(order=8))
            np.testing.assert_allclose(a, toeplitz_lpc_oracle(x, 8), rtol=1e-6, atol=1e-9)

    def test_silent_frame(self):
        with pytest.raises(SilentFrameError):
            lpc(np.zeros(256), LpcConfig(order=4))

    def test_optimality(self):
        # nudging any coefficient cannot reduce the prediction error the
        # recursion minimizes (zero-padded residual, matching the biased
        # autocorrelation method)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(800)
        order = 6
        a, _ = lpc(x, LpcConfig(order=order))

        def padded_mse(coeffs):
            padded = np.r_[np.zeros(order), x, np.zeros(order)]
            err = 0.0
            for n in range(order, len(padded)):
                pred = np.dot(coeffs, padded[n - 1::-1][:order])
                err += (padded[n] - pred) ** 2
            return err

        base = padded_mse(a)
        for i in range(order):
            for delta in (+1e-3, -1e-3):
                tweaked = a.copy()
                tweaked[i] += delta
                assert padded_mse(tweaked) >= base - 1e-12 * base


def autocorrelation_reference(x, max_lag):
    """The per-frame lag sums as first written; `lpc_reference` uses them."""
    n = len(x)
    r = np.empty(max_lag + 1)
    for k in range(max_lag + 1):
        r[k] = np.dot(x[k:], x[:n - k]) / n
    return r


def lpc_reference(x, p):
    """The per-frame Levinson-Durbin recursion as first written; the oracle
    for the batched `lpc`."""
    if p >= len(x):
        raise ValueError("LPC order must be smaller than the frame length")
    r = autocorrelation_reference(x, p)
    if p == 0:
        return np.zeros(0), float(r[0])
    if r[0] <= 0.0:
        raise SilentFrameError("cannot fit LPC to a silent frame")
    a = np.zeros(p)
    err = float(r[0])
    for i in range(1, p + 1):
        if err <= 1e-15 * r[0]:
            break  # signal already perfectly predicted; higher taps stay 0
        k = (r[i] - np.dot(a[:i - 1], r[i - 1:0:-1])) / err
        a_new = a.copy()
        a_new[i - 1] = k
        if i > 1:
            a_new[:i - 1] = a[:i - 1] - k * a[i - 2::-1]
        a = a_new
        err *= (1.0 - k * k)
    return a, float(err)


def _bump(n, power):
    """sin(pi j / (n - 1)) ** power: smooth and zero at both ends, so the
    recursion predicts it perfectly within a few orders once n >= 100."""
    return np.sin(np.pi * np.arange(n) / (n - 1)) ** power


@st.composite
def lpc_stacks(draw):
    """(stack, order): 1-60 frames of 2-2,048 samples scaled by 1e-6..1e3,
    each row noise, noise quantised to int16 steps, a constant, a cosine
    (an exact AR(2) sequence), a smooth bump that stops the recursion
    early, or, rarely, silence; order 0-12 and below the frame length."""
    n = draw(st.integers(2, 2048))
    kinds = draw(st.lists(st.sampled_from(["noise", "int16", "const", "cosine", "bump"] * 4
                                          + ["zero"]), min_size=1, max_size=60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    j = np.arange(n)
    rows = []
    for kind in kinds:
        scale = 10.0 ** rng.uniform(-6, 3)
        if kind == "noise":
            x = scale * rng.standard_normal(n)
        elif kind == "int16":
            peak = int(rng.integers(1, 32768))
            x = rng.integers(-peak, peak + 1, n) / 32768.0
            x[rng.integers(n)] = peak / 32768.0  # never all zero
        elif kind == "const":
            x = np.full(n, scale)
        elif kind == "cosine":
            x = scale * np.cos(rng.uniform(0, np.pi) * j + rng.uniform(0, 2 * np.pi))
        elif kind == "bump":
            x = scale * _bump(n, int(rng.choice([4, 6, 8])))
        else:
            x = np.zeros(n)
        rows.append(x)
    return np.array(rows), draw(st.integers(0, min(12, n - 1)))


class TestLpcStack:
    @settings(max_examples=250, deadline=None)
    @given(case=lpc_stacks())
    @example(case=(np.array([_bump(1600, 4), np.cos(0.3 * np.arange(1600)),
                             np.ones(1600), _bump(1600, 6)]), 12))
    @example(case=(np.array([[1.0, -1.0], [0.5, 0.5]]), 1))
    def test_matches_per_frame_reference(self, case):
        stack, order = case
        config = LpcConfig(order=order)
        for row, r in zip(stack, autocorrelation(stack, order)):
            assert np.array_equal(r, autocorrelation_reference(row, order))
        if order and not np.all(np.any(stack, axis=1)):
            with pytest.raises(SilentFrameError):
                lpc(stack, config)
            return
        a, gain = lpc(stack, config)
        assert a.shape == (len(stack), order) and gain.shape == (len(stack),)
        # bytes, not values: the CSV writes -0.0 as -0, and array_equal has -0.0 == 0.0
        for row, got_a, got_gain in zip(stack, a, gain):
            want_a, want_gain = lpc_reference(row, order)
            assert got_a.tobytes() == want_a.tobytes()
            assert got_gain.tobytes() == np.float64(want_gain).tobytes()
        one_a, one_gain = lpc(stack[0], config)
        assert one_a.tobytes() == a[0].tobytes() and one_gain.tobytes() == gain[0].tobytes()

    def test_bump_rows_stop_early(self):
        # rows predicted perfectly within a few orders get k = 0 from there, so
        # their higher taps are exactly 0, in a stack whose other row runs every order
        rng = np.random.default_rng(8)
        stack = np.array([rng.standard_normal(1600), _bump(1600, 4), _bump(1600, 8)])
        a, gain = lpc(stack)
        assert np.all(a[0] != 0)
        for row in a[1:]:
            stop = np.argmin(row != 0)  # the first tap left at 0
            assert 0 < stop < 12 and not np.any(row[stop:])
        for row, got_a, got_gain in zip(stack, a, gain):
            want_a, want_gain = lpc_reference(row, 12)
            assert got_a.tobytes() == want_a.tobytes()
            assert got_gain.tobytes() == np.float64(want_gain).tobytes()

    def test_silent_row_in_stack(self):
        stack = np.random.default_rng(1).standard_normal((5, 400))
        stack[3] = 0.0
        with pytest.raises(SilentFrameError):
            lpc(stack, LpcConfig(order=4))
        a, gain = lpc(stack, LpcConfig(order=0))  # order 0 only measures power
        assert a.shape == (5, 0) and gain[3] == 0.0

    def test_order_not_below_frame_length(self):
        for n in (2, 12):
            with pytest.raises(ValueError, match="smaller than the frame length"):
                lpc(np.ones((3, n)), LpcConfig(order=n))
            with pytest.raises(ValueError):
                lpc_reference(np.ones(n), n)


class TestAssemble:
    def test_default_dimensionality(self):
        frame = sine_frame(300.0, amplitude=0.5)
        matrix = features.extract_features(frame[None], 16000)
        assert matrix.shape == (1, 31)
        one = features.extract_features(frame, 16000)  # one frame gives one row
        assert one.shape == (31,) and one.tobytes() == matrix[0].tobytes()
        assert len(features.feature_names()) == 31

    def test_deterministic(self):
        frames = sine_frame(250.0, amplitude=0.4)[None]
        assert np.array_equal(features.extract_features(frames, 16000),
                              features.extract_features(frames, 16000))

    def test_silent_frame_propagates(self):
        with pytest.raises(SilentFrameError):
            features.extract_features(np.zeros((1, 1600)), 16000)

    def test_batch_matches_per_frame(self):
        # the scalars and LPC are exact; a 1-row and a many-row MFCC batch may
        # differ by float noise in the filterbank product
        rng = np.random.default_rng(2)
        frames = rng.uniform(-1, 1, (4, 1600))
        batch = features.extract_features(frames, 16000)
        assert batch.shape == (4, 31)
        for i, frame in enumerate(frames):
            spec = spectral_features_reference(np.abs(np.fft.rfft(frame)), 10.0)
            assert np.array_equal(batch[i, :5], spec)
            np.testing.assert_allclose(batch[i, 5:18], mfcc(frame, 16000),
                                       rtol=1e-9, atol=1e-12)
            assert np.array_equal(batch[i, 18:], np.append(*lpc(frame)))

    def test_no_frames(self):
        assert features.extract_features(np.zeros((0, 1600)), 16000).shape == (0, 31)


class TestDatasetCsv:
    def test_roundtrip_and_stability(self, tmp_path):
        from roadwarn.labels import SoundClass

        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 4))
        labels = [SoundClass.H, SoundClass.LL, SoundClass.LH, SoundClass.NV,
                  None, SoundClass.H]
        names = ["a", "b", "c", "d"]
        p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
        features.save_dataset_csv(p1, X, labels, names)
        features.save_dataset_csv(p2, X, labels, names)
        assert p1.read_bytes() == p2.read_bytes()
        back, labels2, names2 = features.load_dataset_csv(p1)
        assert names2 == names and labels2 == labels
        np.testing.assert_allclose(back, X, rtol=1e-8)
        # any columns load, but only feature columns hold [features] settings
        with pytest.raises(ValueError) as error:
            features.load_dataset_settings(p1)
        assert str(error.value) == (f"{p1}: its header is not the feature columns of "
                                    "[features] n_coeffs = 0, lpc_order = 0")

    def test_settings_record_holds_the_non_defaults_only(self, tmp_path):
        X = np.arange(62.0).reshape(2, 31)
        labels = [None, None]
        names = features.feature_names()
        extracted = MfccConfig(pre_emphasis=0.5, fmin=300.0, n_filters=40, fmax=8000.0)
        plain, recorded = tmp_path / "plain.csv", tmp_path / "recorded.csv"
        features.save_dataset_csv(plain, X, labels, names)
        features.save_dataset_csv(recorded, X, labels, names,
                                  features.settings_of(extracted, LpcConfig(order=12)))
        # all defaults, or no settings: no record line, the same bytes as before it existed
        features.save_dataset_csv(tmp_path / "defaults.csv", X, labels, names,
                                  features.settings_of())
        assert (tmp_path / "defaults.csv").read_bytes() == plain.read_bytes()
        assert recorded.read_text().splitlines()[0] == \
            "# [features] n_filters=40 pre_emphasis=0.5 fmin=300.0 fmax=8000.0"
        assert recorded.read_text().splitlines()[1:] == plain.read_text().splitlines()
        # the reader gives every setting: the record's, the header's and the defaults
        assert features.load_dataset_settings(plain) == features.settings_of()
        assert features.load_dataset_settings(recorded) == features.settings_of(extracted)
        back, _, back_names = features.load_dataset_csv(recorded)
        assert back_names == names and np.array_equal(back, X)

    @pytest.mark.parametrize("item", ["n_filter=40", "n_filters=4.5", "fmin"])
    def test_bad_record_item_names_it(self, tmp_path, item):
        path = tmp_path / "bad.csv"
        path.write_text(f"# [features] {item}\na,label\n1,H\n")
        with pytest.raises(ValueError, match=f"bad.csv: bad \\[features\\] record item '{item}'"):
            features.load_dataset_settings(path)

    @pytest.mark.parametrize("item,message", [
        ("fmin=nan", "bad [features] record: fmin must be finite, got nan"),
        ("log_floor=inf", "bad [features] record: log_floor must be finite, got inf"),
        ("lpc_order=-1", "bad [features] record: order must be >= 0"),
        ("fmin=-800", "bad [features] record: fmin must be >= 0, got -800.0"),
        ("n_coeffs=10", "its header is not the feature columns of [features] "
                        "n_coeffs = 10, lpc_order = 12"),
    ])
    def test_record_that_makes_no_config_names_the_file(self, tmp_path, item, message):
        # NaN and infinity used to reach the model file's meta, which then was
        # not JSON; a record that contradicts the 31 columns is refused too
        path = tmp_path / "bad.csv"
        path.write_text(f"# [features] {item}\n{','.join(features.feature_names())},label\n")
        with pytest.raises(ValueError) as error:
            features.load_dataset_settings(path)
        assert str(error.value) == f"{path}: {message}"


class TestConfigTypes:
    @pytest.mark.parametrize("kwargs", [{"n_filters": 26.0}, {"n_coeffs": True},
                                        {"pre_emphasis": "0.97"}, {"fmax": [1]}])
    def test_mfcc_settings_of_the_wrong_type(self, kwargs):
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be"):
            MfccConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"fmin": math.nan}, {"fmax": math.inf},
                                        {"log_floor": math.inf}, {"pre_emphasis": -math.inf}])
    def test_mfcc_settings_must_be_finite(self, kwargs):
        name, value = next(iter(kwargs.items()))
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            MfccConfig(**kwargs)

    def test_fmin_must_not_be_negative(self):
        # below -700 Hz the mel scale is NaN: every MFCC frame came out the same
        with pytest.raises(ValueError, match="fmin must be >= 0, got -800.0"):
            MfccConfig(fmin=-800.0)
        assert MfccConfig(fmin=-0.0).fmin == 0

    def test_lpc_order_must_be_an_integer(self):
        with pytest.raises(ValueError, match="order must be an integer"):
            LpcConfig(order=12.0)

    def test_ints_stand_for_floats_and_fmax_may_be_none(self):
        assert MfccConfig(fmin=300, fmax=None, log_floor=1).fmin == 300
