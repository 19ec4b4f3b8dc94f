import json
import math
import re
import tempfile
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roadwarn import classifiers as C
from roadwarn.classifiers import (FEATURE_SETS, LabeledDataset, compare_feature_sets,
                                  compute_metrics, evaluate_cv, f_measure, load_model,
                                  load_model_and_meta, load_model_meta, make_trainer,
                                  save_model, train_dt, train_gnb, train_knn, train_mlp)
from roadwarn.features import LpcConfig, MfccConfig, settings_of
from roadwarn.labels import CLASS_ORDER, SoundClass, most_dangerous


def blobs(seed=0, spread=0.3, per_class=50, dim=2):
    """Four well-separated Gaussian clusters, one per class."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [6, 0], [0, 6], [6, 6]], dtype=float)
    if dim > 2:
        centers = np.c_[centers, np.zeros((4, dim - 2))]
    X = np.vstack([c + spread * rng.standard_normal((per_class, dim)) for c in centers])
    y = [cls for cls in CLASS_ORDER for _ in range(per_class)]
    return LabeledDataset(X, y)


def mlp_reference_forward(Xs, w1, b1, w2, b2):
    """(hidden activations, class probabilities) of z-scored rows by the
    plain formulas, kept as the oracle for the in-place forward pass."""
    hidden = 1.0 / (1.0 + np.exp(-np.clip(Xs @ w1 + b1, -500, 500)))
    z = hidden @ w2 + b2
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return hidden, e / e.sum(axis=1, keepdims=True)


def mlp_reference_fit(data, hidden_units=32, learning_rate=0.5, epochs=300, seed=0):
    """train_mlp before a step kept its own loss and gradients: two forward
    passes per epoch and activations that allocate.  Kept as the oracle for
    the weights; returns (w1, b1, w2, b2) and the number of rate halvings."""
    mean, std, _ = C._fit_standardizer(data.X)
    Xs = (data.X - mean) / std
    codes = C._codes(data.y)
    n = Xs.shape[0]

    def loss(params):
        _, probs = mlp_reference_forward(Xs, *params)
        return -np.mean(np.log(probs[np.arange(n), codes] + 1e-300))

    def loss_and_gradients(params):
        hidden, probs = mlp_reference_forward(Xs, *params)
        value = -np.mean(np.log(probs[np.arange(n), codes] + 1e-300))
        delta_out = probs.copy()
        delta_out[np.arange(n), codes] -= 1.0
        delta_out /= n
        gw2 = hidden.T @ delta_out
        gb2 = delta_out.sum(axis=0)
        delta_hidden = (delta_out @ params[2].T) * hidden * (1.0 - hidden)
        gw1 = Xs.T @ delta_hidden
        gb1 = delta_hidden.sum(axis=0)
        return value, (gw1, gb1, gw2, gb2)

    dim, hidden, n_out = Xs.shape[1], hidden_units, len(CLASS_ORDER)
    rng = np.random.default_rng(seed)
    params = (rng.uniform(-0.5, 0.5, (dim, hidden)), rng.uniform(-0.5, 0.5, hidden),
              rng.uniform(-0.5, 0.5, (hidden, n_out)), rng.uniform(-0.5, 0.5, n_out))
    rate, halvings = learning_rate, 0
    value, grads = loss_and_gradients(params)
    for _ in range(epochs):
        while True:
            candidate = tuple(p - rate * g for p, g in zip(params, grads))
            if loss(candidate) <= value or rate <= 1e-12:
                break
            rate *= 0.5
            halvings += 1
        params = candidate
        value, grads = loss_and_gradients(params)
    return params, halvings


def knn_reference(model, X):
    """KnnModel.predict_batch as a per-query loop over every exact distance,
    kept as the oracle for the candidate filter."""
    Q = (np.asarray(X, dtype=np.float64) - model.mean) / model.std
    out = []
    codes = C._codes(model.labels)
    for q in Q:
        d = np.sqrt(((model.Xs - q) ** 2).sum(axis=1))
        nearest = np.argsort(d, kind="stable")[:model.k]
        near_codes = codes[nearest]
        counts = np.bincount(near_codes, minlength=len(CLASS_ORDER))
        top = counts.max()
        tied = [c for c in range(len(CLASS_ORDER)) if counts[c] == top]
        if len(tied) > 1:
            # closer class (smaller mean distance) wins, then danger order
            means = {c: d[nearest[near_codes == c]].mean() for c in tied}
            closest = min(means.values())
            tied = [c for c in tied if means[c] <= closest]
        out.append(most_dangerous([CLASS_ORDER[c] for c in tied]))
    return out


def argmax_danger_reference(scores):
    """MlpModel's per-row pick before it was vectorized (`_argmax_danger`):
    argmax over CLASS_ORDER scores, exact ties going to the riskier class."""
    best = scores.max()
    return most_dangerous([CLASS_ORDER[i] for i in np.flatnonzero(scores == best)])


def gnb_pick_reference(classes, post):
    """GnbModel.predict_batch's row loop before it was vectorized: the
    riskiest class within 1e-9 of each row's best log posterior."""
    out = []
    for row in post:
        best = row.max()
        tied = [classes[i] for i in np.flatnonzero(row >= best - 1e-9)]
        out.append(most_dangerous(tied))
    return out


def dt_predict_reference(model, X):
    """DtModel.predict_batch as the per-row tree walk it replaced, kept as
    the oracle for the descent of row-index arrays."""
    def predict(vector):
        x = (np.asarray(vector, dtype=np.float64) - model.mean) / model.std
        node = model.tree
        while "label" not in node:
            node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
        return SoundClass(node["label"])

    return [predict(row) for row in np.asarray(X)]


# Multiples of 1/4: with means in {0, 1, -3} and stds in {0.5, 1, 2}, a raw
# value mean + g * std standardizes back to exactly g.
_TREE_GRID = [k / 4 for k in range(-8, 9)]


@st.composite
def dt_cases(draw):
    """A random tree whose thresholds and queries share one coarse grid, so
    many query values sit exactly on a split's threshold."""
    dim = draw(st.integers(1, 3))

    def grow(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            return {"label": draw(st.sampled_from(CLASS_ORDER)).value}
        return {"feature": draw(st.integers(0, dim - 1)),
                "threshold": draw(st.sampled_from(_TREE_GRID)),
                "left": grow(depth - 1), "right": grow(depth - 1)}

    mean = np.array(draw(st.lists(st.sampled_from([0.0, 1.0, -3.0]),
                                  min_size=dim, max_size=dim)))
    std = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                 min_size=dim, max_size=dim)))
    grid_rows = draw(st.lists(st.lists(st.sampled_from(_TREE_GRID), min_size=dim, max_size=dim),
                              max_size=30))
    queries = mean + np.array(grid_rows).reshape(-1, dim) * std
    return C.DtModel(mean, std, grow(5)), queries


@st.composite
def gnb_posteriors(draw):
    """Log posteriors for any subset of the classes, in any column order,
    with entries exactly at, within and just outside 1e-9 of a row's best."""
    classes = draw(st.permutations(CLASS_ORDER))[:draw(st.integers(1, 4))]
    base = draw(st.sampled_from([-50.0, -3.5, 0.0, 120.0]))
    offset = st.sampled_from([0.0, 3e-10, -4e-10, -1e-9, -1.5e-9, -2e-9, -1.0])
    rows = draw(st.lists(st.lists(offset, min_size=len(classes), max_size=len(classes)),
                         max_size=10))
    return classes, base + np.array(rows).reshape(-1, len(classes))


@st.composite
def knn_cases(draw):
    """Training rows on a coarse grid (duplicates and equal distances are
    common), columns scaled by 1e-3 .. 1e6, k anywhere in 1..n, and queries
    that are training rows, grid points or arbitrary points."""
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 30))
    grid = st.integers(-3, 3).map(float)
    rows = draw(st.lists(st.lists(grid, min_size=dim, max_size=dim), min_size=1, max_size=n))
    rows += draw(st.lists(st.sampled_from(rows), max_size=n - len(rows)))  # duplicates
    labels = draw(st.lists(st.sampled_from(CLASS_ORDER), min_size=len(rows), max_size=len(rows)))
    scales = np.array(draw(st.lists(st.sampled_from([1e-3, 0.37, 1.0, 1e3, 1e6]),
                                    min_size=dim, max_size=dim)))
    k = draw(st.integers(1, len(rows)))
    free = st.floats(-5.0, 5.0, allow_nan=False)
    queries = draw(st.lists(st.one_of(st.sampled_from(rows),
                                      st.lists(grid, min_size=dim, max_size=dim),
                                      st.lists(free, min_size=dim, max_size=dim)),
                            min_size=1, max_size=12))
    return (np.array(rows) * scales, labels, k, np.array(queries) * scales)


class TestDangerOrdering:
    def test_ranking(self):
        assert most_dangerous(list(SoundClass)) == SoundClass.LH
        assert most_dangerous([SoundClass.LL, SoundClass.NV]) == SoundClass.LL
        assert most_dangerous([SoundClass.H, SoundClass.LL]) == SoundClass.H


class TestMlp:
    def test_separable_blobs_reach_full_training_accuracy(self):
        data = blobs(seed=11)
        model = train_mlp(data)  # spec defaults
        acc = compute_metrics(data.y, model.predict_batch(data.X)).overall_accuracy
        assert acc == 100.0

    def test_seeded_fit_is_deterministic(self):
        data = blobs(seed=1)
        a = train_mlp(data, epochs=1, seed=9).predict_batch(data.X)
        b = train_mlp(data, epochs=1, seed=9).predict_batch(data.X)
        assert a == b

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
    def test_untrainable_learning_rate_rejected(self, rate):
        # a NaN or infinite rate would never leave train_mlp's step-halving loop
        data = blobs(seed=1, per_class=5)
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            train_mlp(data, learning_rate=rate)
        trainer = make_trainer("mlp", learning_rate=rate)  # refused at the first fit
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            trainer(data)

    def test_gradients_match_finite_differences(self):
        data = blobs(seed=3, per_class=20)
        model = train_mlp(data, epochs=3, seed=5)
        Xs = (data.X - model.mean) / model.std
        codes = C._codes(data.y)
        _, grads = model.loss_and_gradients(Xs, codes)
        rng = np.random.default_rng(17)
        params = [model.w1, model.b1, model.w2, model.b2]
        for _ in range(10):
            which = int(rng.integers(0, 4))
            W = params[which]
            idx = tuple(int(rng.integers(0, s)) for s in W.shape)
            h = 1e-5
            orig = W[idx]
            W[idx] = orig + h
            lp = model.loss(Xs, codes)
            W[idx] = orig - h
            lm = model.loss(Xs, codes)
            W[idx] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grads[which][idx]) <= 1e-4 * max(abs(fd), 1e-8)

    def test_loss_never_increases(self):
        data = blobs(seed=2, per_class=25)
        mean, std = data.X.mean(0), data.X.std(0)
        Xs = (data.X - mean) / std
        codes = C._codes(data.y)
        losses = []
        for epochs in (1, 5, 20, 60):
            model = train_mlp(data, epochs=epochs, seed=4)
            losses.append(model.loss(Xs, codes))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(ValueError):
            train_mlp(LabeledDataset(X, [SoundClass.H] * 10))


    @pytest.mark.parametrize("config, per_class, dim", [
        (dict(epochs=30, seed=3), 30, 3),
        (dict(hidden_units=5, learning_rate=0.5, epochs=30, seed=1), 30, 3),
        (dict(learning_rate=50.0, epochs=30, seed=2), 30, 3),  # forces rate halvings
        # 4,000 rows x 31 columns, the corpus's width: sizes at which OpenBLAS
        # splits the matrix products across its threads
        (dict(epochs=20, seed=0), 1000, 31),
        (dict(learning_rate=50.0, epochs=20, seed=0), 1000, 31),
    ])
    def test_weights_equal_reference_loop(self, config, per_class, dim, monkeypatch):
        data = blobs(seed=8, spread=1.5, per_class=per_class, dim=dim)
        ref, halvings = mlp_reference_fit(data, **config)
        rate = config.get("learning_rate", 0.5)  # train_mlp's default
        if rate == 50.0:
            assert halvings > 0
        calls = []
        inner = C.MlpModel.loss_and_gradients

        def counted(model, Xs, codes, *work):
            calls.append(1)
            return inner(model, Xs, codes, *work)

        monkeypatch.setattr(C.MlpModel, "loss_and_gradients", counted)
        model = train_mlp(data, **config)
        for got, want in zip((model.w1, model.b1, model.w2, model.b2), ref):
            assert np.array_equal(got, want)
        assert len(calls) == 1 + config["epochs"] + halvings
        assert model.convergence.halvings == halvings
        assert model.convergence.rate == rate * 0.5 ** halvings

    def test_pass_without_workspace_equals_the_fits(self, monkeypatch):
        # a pass that builds its own workspace gives the bytes of the fit's;
        # predict batches of 1 and 40 rows add the hidden bias plainly, one of
        # 7,000 rows over whole 256-row blocks and then its last 88 rows
        data = blobs(seed=8, spread=1.5, per_class=1000, dim=31)
        passes = []
        inner = C.MlpModel.loss_and_gradients

        def kept(model, Xs, codes, *work):
            passes.append((Xs, codes, *work))
            return inner(model, Xs, codes, *work)

        monkeypatch.setattr(C.MlpModel, "loss_and_gradients", kept)
        model = train_mlp(data, epochs=3, seed=0)
        monkeypatch.undo()
        Xs, codes, work = passes[-1]
        loss, grads = model.loss_and_gradients(Xs, codes, work)
        alone_loss, alone_grads = model.loss_and_gradients(Xs, codes)
        assert loss == alone_loss == model.convergence.loss
        assert [g.tobytes() for g in grads] == [g.tobytes() for g in alone_grads]
        queries = np.random.default_rng(8).uniform(-4, 10, (7000, 31))
        for rows in (1, 40, 7000):
            Q = queries[:rows]
            Qs = (Q - model.mean) / model.std
            _, probs = mlp_reference_forward(Qs, model.w1, model.b1, model.w2, model.b2)
            assert model._forward(Qs)[1].tobytes() == probs.tobytes()
            assert model.predict_batch(Q) == [argmax_danger_reference(p) for p in probs]

class TestKnn:
    def test_query_on_training_point(self):
        data = blobs(seed=5, per_class=10)
        model = train_knn(data, k=1)
        assert model.predict_batch(data.X[3][None])[0] == data.y[3]

    def test_k_equal_to_dataset_size_gives_majority(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
        y = [SoundClass.LL] * 3 + [SoundClass.H] * 2
        model = train_knn(LabeledDataset(X, y), k=5)
        assert model.predict_batch(np.array([5.0])[None])[0] == SoundClass.LL

    def test_three_point_fixture_matches_brute_force(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        y = [SoundClass.H, SoundClass.LL, SoundClass.LH]
        model = train_knn(LabeledDataset(X, y), k=1)
        rng = np.random.default_rng(23)
        mean, std = model.mean, model.std
        for _ in range(50):
            q = rng.uniform(-1, 3, 2)
            qs = (q - mean) / std
            dists = np.sqrt(((model.Xs - qs) ** 2).sum(axis=1))
            assert model.predict_batch(q[None])[0] == y[int(np.argmin(dists))]

    def test_tie_breaks_by_mean_distance(self):
        # k=4 splits the vote 2 NV / 2 LL; NV members sit much closer to the
        # query, so NV wins even though LL outranks it in danger
        X = np.array([[1.0], [-2.0], [2.0], [30.0]])
        y = [SoundClass.NV, SoundClass.NV, SoundClass.LL, SoundClass.LL]
        model = train_knn(LabeledDataset(X, y), k=4)
        assert model.predict_batch(np.array([0.0])[None])[0] == SoundClass.NV

    def test_k1_has_zero_training_error(self):
        data = blobs(seed=19, per_class=12)  # distinct points w.p. 1
        model = train_knn(data, k=1)
        assert model.predict_batch(data.X) == data.y

    def test_k_validation(self):
        data = blobs(per_class=3)
        with pytest.raises(ValueError):
            train_knn(data, k=0)
        with pytest.raises(ValueError):
            train_knn(data, k=13)


    @settings(max_examples=300, deadline=None)
    @given(knn_cases())
    def test_matches_per_query_oracle(self, case):
        X, labels, k, queries = case
        model = train_knn(LabeledDataset(X, labels), k)
        assert model.predict_batch(queries) == knn_reference(model, queries)

    def test_matches_oracle_across_query_blocks(self):
        data = blobs(seed=29, spread=2.5, per_class=40, dim=3)
        model = train_knn(data, k=7)
        queries = np.random.default_rng(29).uniform(-3, 9, (600, 3))
        queries[::50] = data.X[:12]  # queries that sit on training rows
        assert model.predict_batch(queries) == knn_reference(model, queries)

    # past _QUERY_Z_MAX a squared distance could overflow; every model shares it
    @pytest.mark.parametrize("name", C.CLASSIFIER_NAMES)
    def test_query_beyond_squared_range_is_refused(self, name):
        tiny = 1e-160  # a std that training writes
        X = np.array([[-tiny, 0.0], [tiny, 1.0]] * 3)
        model = make_trainer(name, **({"epochs": 20} if name == "mlp" else {}))(
            LabeledDataset(X, [SoundClass.H, SoundClass.LL] * 3))
        assert model.std[0] < 1e-150 and len(model.predict_batch(X)) == 6
        for far in (1.0, 1e200):
            with pytest.raises(ValueError, match=r"^query features must be finite and within "
                                                 r"1.16e\+77 standard deviations of the "
                                                 r"training mean, got (1e\+160|inf)$"):
                model.predict_batch(np.array([[0.0, 0.0], [far, 0.0]]))

    # every model shares KNN's check; the KNN cases keep their bare ids
    @pytest.mark.parametrize("name,bad", [
        pytest.param(name, bad, id=str(bad) if name == "knn" else f"{name}-{bad}")
        for name in C.CLASSIFIER_NAMES for bad in (np.nan, np.inf, -np.inf)])
    def test_nonfinite_query_rejected(self, name, bad):
        model = make_trainer(name, **({"epochs": 20} if name == "mlp" else {}))(
            blobs(per_class=5))
        X = np.zeros((3, 2))
        X[1, 0] = bad
        with pytest.raises(ValueError, match="query features must be finite"):
            model.predict_batch(X)


class TestPredictBatch:
    @pytest.mark.parametrize("name", C.CLASSIFIER_NAMES)
    def test_wrong_width_rejected(self, name):
        model = make_trainer(name, **({"epochs": 20} if name == "mlp" else {}))(
            blobs(per_class=5))
        with pytest.raises(ValueError, match=r"rows of 2 features.*\(3, 3\)"):
            model.predict_batch(np.zeros((3, 3)))

    @settings(max_examples=300, deadline=None)
    @given(dt_cases())
    def test_tree_descent_matches_per_row_walk(self, case):
        model, queries = case
        assert model.predict_batch(queries) == dt_predict_reference(model, queries)

    def test_trained_tree_matches_per_row_walk(self):
        rng = np.random.default_rng(21)
        X = np.round(rng.standard_normal((300, 3)), 1)
        y = [CLASS_ORDER[i] for i in rng.integers(0, 4, 300)]
        model = train_dt(LabeledDataset(X, y))
        queries = np.round(rng.standard_normal((2000, 3)), 1)
        assert model.predict_batch(queries) == dt_predict_reference(model, queries)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 20), st.just(4)),
                      elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    def test_exact_ties_match_mlp_reference(self, scores):
        assert C._danger_argmax(scores, CLASS_ORDER) == [argmax_danger_reference(row)
                                                         for row in scores]

    @settings(max_examples=300, deadline=None)
    @given(gnb_posteriors())
    def test_near_ties_match_gnb_reference(self, case):
        classes, post = case
        k = len(classes)
        model = C.GnbModel(np.zeros(1), np.ones(1), classes,
                           np.zeros((k, 1)), np.ones((k, 1)), np.zeros(k))
        model.log_posteriors = lambda Xs: post  # the drawn posteriors, one row per query
        assert model.predict_batch(np.zeros((len(post), 1))) == gnb_pick_reference(classes, post)

    def test_mlp_model_matches_reference(self):
        data = blobs(seed=13, spread=2.0, per_class=30)
        model = train_mlp(data, epochs=40, seed=2)
        queries = np.random.default_rng(13).uniform(-3, 9, (500, 2))
        _, probs = model._forward((queries - model.mean) / model.std)
        assert model.predict_batch(queries) == [argmax_danger_reference(p) for p in probs]

    @pytest.mark.parametrize("present", [CLASS_ORDER[:1], CLASS_ORDER[1:3],
                                         [SoundClass.H, SoundClass.NV], CLASS_ORDER])
    def test_gnb_on_some_classes_matches_reference(self, present):
        data = blobs(seed=17, spread=2.0, per_class=20)
        keep = [i for i, label in enumerate(data.y) if label in present]
        model = train_gnb(data.subset(keep))
        assert model.classes == [c for c in CLASS_ORDER if c in present]
        queries = np.random.default_rng(17).uniform(-3, 9, (500, 2))
        post = model.log_posteriors((queries - model.mean) / model.std)
        assert model.predict_batch(queries) == gnb_pick_reference(model.classes, post)

class TestGnb:
    def test_symmetric_tie_resolves_to_danger(self):
        rng = np.random.default_rng(31)
        offsets = rng.standard_normal(30)
        X = np.r_[-1.0 + offsets, 1.0 - offsets].reshape(-1, 1)
        y = [SoundClass.LL] * 30 + [SoundClass.H] * 30
        model = train_gnb(LabeledDataset(X, y))
        post = model.log_posteriors(np.array([[0.0 - model.mean[0]]]) / model.std[0])
        i_ll = model.classes.index(SoundClass.LL)
        i_h = model.classes.index(SoundClass.H)
        assert abs(post[0, i_ll] - post[0, i_h]) < 1e-9
        assert model.predict_batch(np.array([0.0])[None])[0] == SoundClass.H  # H outranks LL

    def test_query_at_class_mean(self):
        data = blobs(seed=7)
        model = train_gnb(data)
        for c, center in zip(CLASS_ORDER, [[0, 0], [6, 0], [0, 6], [6, 6]]):
            assert model.predict_batch(np.array(center, dtype=float)[None])[0] == c

    def test_hand_computed_posterior(self):
        X = np.array([[0.0], [2.0], [10.0], [14.0]])
        y = [SoundClass.LL, SoundClass.LL, SoundClass.H, SoundClass.H]
        model = train_gnb(LabeledDataset(X, y))
        q = 4.0
        qs = (q - X.mean()) / X.std()
        Xs = (X[:, 0] - X.mean()) / X.std()
        expected = []
        for rows in (Xs[:2], Xs[2:]):
            mu, var = rows.mean(), max(rows.var(), 1e-9)
            ll = -0.5 * (math.log(2 * math.pi * var) + (qs - mu) ** 2 / var)
            expected.append(math.log(0.5) + ll)
        got = model.log_posteriors(np.array([[qs]]))[0]
        i_ll = model.classes.index(SoundClass.LL)
        i_h = model.classes.index(SoundClass.H)
        assert got[i_ll] == pytest.approx(expected[0], abs=1e-9)
        assert got[i_h] == pytest.approx(expected[1], abs=1e-9)

    def test_floored_variance_loads(self, tmp_path):
        # a column constant within each class fits the floor itself
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 2.0], [1.0, 4.0]])
        y = [SoundClass.LL, SoundClass.LL, SoundClass.H, SoundClass.H]
        model = train_gnb(LabeledDataset(X, y))
        assert model.class_vars.min() == C._VAR_FLOOR
        save_model(tmp_path / "nb.json", model)
        assert load_model(tmp_path / "nb.json").class_vars.tolist() == model.class_vars.tolist()

    def test_small_class_rejected(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = [SoundClass.H, SoundClass.H, SoundClass.LL]
        with pytest.raises(ValueError):
            train_gnb(LabeledDataset(X, y))


def exhaustive_best_split(Xs, codes):
    """All (feature, threshold) pairs, scored by Gini decrease; the oracle
    mirrors the documented tie rules (lowest feature, lowest threshold)."""
    def gini(group):
        if len(group) == 0:
            return 0.0
        _, counts = np.unique(group, return_counts=True)
        p = counts / len(group)
        return 1.0 - np.sum(p ** 2)

    n = len(codes)
    parent = gini(codes)
    best = None
    for f in range(Xs.shape[1]):
        values = np.unique(Xs[:, f])
        for lo, hi in zip(values[:-1], values[1:]):
            threshold = (lo + hi) / 2.0
            mask = Xs[:, f] <= threshold
            decrease = parent - (mask.sum() / n) * gini(codes[mask]) \
                - ((~mask).sum() / n) * gini(codes[~mask])
            if best is None or decrease > best[0] + 1e-15:
                best = (decrease, f, threshold)
    return best


class TestDecisionTree:
    def test_pure_data_gives_leaf(self):
        X = np.random.default_rng(0).standard_normal((8, 3))
        model = train_dt(LabeledDataset(X, [SoundClass.NV] * 8))
        assert model.tree == {"label": "NV"}

    def test_single_split_1d(self):
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = [SoundClass.LL] * 3 + [SoundClass.H] * 3
        model = train_dt(LabeledDataset(X, y))
        root = model.tree
        assert "label" not in root and root["feature"] == 0
        # threshold separates the classes on the standardized axis
        z = (X[:, 0] - X.mean()) / X.std()
        assert z[2] < root["threshold"] <= z[3]
        assert root["left"] == {"label": "LL"} and root["right"] == {"label": "H"}
        assert all(model.predict_batch(row[None])[0] == label for row, label in zip(X, y))

    def test_root_split_matches_exhaustive_search(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            X = rng.standard_normal((8, 2))
            y = [CLASS_ORDER[i] for i in rng.integers(0, 4, 8)]
            if len(set(y)) < 2:
                continue
            model = train_dt(LabeledDataset(X, y), max_depth=1)
            Xs = (X - model.mean) / model.std
            oracle = exhaustive_best_split(Xs, C._codes(y))
            if oracle is None or "label" in model.tree:
                assert oracle is None or oracle[0] <= 1e-15
                continue
            assert model.tree["feature"] == oracle[1]
            assert model.tree["threshold"] == pytest.approx(oracle[2], abs=1e-12)

    def test_max_depth_respected(self, tmp_path):
        data = blobs(seed=9, spread=2.0)
        model = train_dt(data, max_depth=2)

        def depth(node):
            if "label" in node:
                return 0
            return 1 + max(depth(node["left"]), depth(node["right"]))

        assert depth(model.tree) <= 2
        # below 1 a depth trained a one-leaf model; far above 500 _grow ran
        # out of recursion, and a file past about 990 levels does not load
        for bad in (-3, 0, 501, 5000):
            with pytest.raises(ValueError, match=f"max_depth must be in 1..500, got {bad}"):
                train_dt(data, max_depth=bad)
        # interleaved labels on one column: every level splits off one row
        X = np.arange(1000.0)[:, np.newaxis]
        deepest = train_dt(LabeledDataset(X, [CLASS_ORDER[i % 4] for i in range(1000)]),
                           max_depth=500)
        assert depth(deepest.tree) == 500
        save_model(tmp_path / "deep.json", deepest)
        assert load_model(tmp_path / "deep.json").tree == deepest.tree


class TestMetrics:
    def test_table_style_f_measures(self):
        assert f_measure(98.30, 93.54) == pytest.approx(95.86, abs=0.01)
        assert f_measure(95.87, 93.93) == pytest.approx(94.89, abs=0.01)
        assert f_measure(98.38, 98.38) == pytest.approx(98.38, abs=0.01)
        assert f_measure(93.47, 98.85) == pytest.approx(96.08, abs=0.01)

    def test_hand_computed_confusion(self):
        # TP=9, FP=1, FN=3 for class H inside a 20-sample set
        y_true = ([SoundClass.H] * 12 + [SoundClass.LL] * 8)
        y_pred = ([SoundClass.H] * 9 + [SoundClass.LL] * 3
                  + [SoundClass.H] + [SoundClass.LL] * 7)
        m = compute_metrics(y_true, y_pred).per_class[SoundClass.H]
        assert m.precision == pytest.approx(90.0, abs=1e-9)
        assert m.recall == pytest.approx(75.0, abs=1e-9)
        assert m.f_measure == pytest.approx(81.82, abs=0.01)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(CLASS_ORDER), st.sampled_from(CLASS_ORDER)),
                    max_size=60))
    def test_confusion_counts_every_pair(self, pairs):
        # rows are true classes, columns predicted ones, both in CLASS_ORDER
        y_true = [t for t, _ in pairs]
        y_pred = [p for _, p in pairs]
        metrics = compute_metrics(y_true, y_pred)
        want = [[sum(1 for t, p in pairs if (t, p) == (a, b)) for b in CLASS_ORDER]
                for a in CLASS_ORDER]
        assert metrics.confusion.dtype == np.int64
        assert metrics.confusion.tolist() == want
        if not pairs:
            assert metrics.overall_accuracy == 0.0
            for cm in metrics.per_class.values():
                assert (cm.precision, cm.recall, cm.accuracy, cm.f_measure) == (0.0,) * 4

    def test_percent_ranges(self):
        data = blobs(seed=13, spread=3.0, per_class=12)
        metrics = evaluate_cv(data, make_trainer("dt"), folds=3, seed=0)
        for cm in metrics.per_class.values():
            for v in (cm.precision, cm.recall, cm.accuracy, cm.f_measure):
                assert 0.0 <= v <= 100.0
        assert 0.0 <= metrics.overall_accuracy <= 100.0


class TestCrossValidation:
    def test_stratified_assignment_is_balanced(self):
        data = blobs(per_class=12)
        assignment = C.stratified_folds(data.y, 6, seed=3)
        for c in CLASS_ORDER:
            members = [a for a, label in zip(assignment, data.y) if label == c]
            counts = np.bincount(members, minlength=6)
            assert counts.min() == 2 and counts.max() == 2

    @staticmethod
    def per_class_scan_folds(labels, folds, seed):
        """Fold assignment by a Python scan of the labels per class, kept as
        the reference that the code-based assignment must deal alike."""
        labels = list(labels)
        assignment = np.empty(len(labels), dtype=np.intp)
        rng = np.random.default_rng(seed)
        for c in CLASS_ORDER:
            members = np.array([i for i, label in enumerate(labels) if label == c],
                               dtype=np.intp)
            if len(members) == 0:
                continue
            if len(members) < folds:
                raise ValueError(f"class {c.value} has {len(members)} samples, "
                                 f"fewer than {folds} folds")
            rng.shuffle(members)
            for j, sample in enumerate(members):
                assignment[sample] = j % folds
        return assignment

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(CLASS_ORDER), max_size=80),
           st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_folds_match_per_class_scan(self, labels, folds, seed):
        # drawn lists miss classes and hold uneven counts, some below `folds`
        try:
            want = self.per_class_scan_folds(labels, folds, seed)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                C.stratified_folds(labels, folds, seed)
            return
        got = C.stratified_folds(labels, folds, seed)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()

    def test_class_smaller_than_folds_rejected(self):
        data = blobs(per_class=4)
        with pytest.raises(ValueError):
            evaluate_cv(data, make_trainer("dt"), folds=6, seed=0)

    def test_deterministic_given_seed(self):
        data = blobs(seed=21, spread=1.5, per_class=12)
        a = evaluate_cv(data, make_trainer("dt"), folds=3, seed=5)
        b = evaluate_cv(data, make_trainer("dt"), folds=3, seed=5)
        assert a.overall_accuracy == b.overall_accuracy
        assert np.array_equal(a.confusion, b.confusion)


class TestMakeTrainer:
    def test_parameter_the_classifier_does_not_take(self):
        with pytest.raises(ValueError, match="classifier 'knn' takes no parameter 'max_depth'"):
            make_trainer("knn", max_depth=3)
        with pytest.raises(ValueError, match="takes no parameter 'k'"):
            make_trainer("nb", k=3)

    def test_unknown_classifier(self):
        with pytest.raises(ValueError, match="unknown classifier 'svm'"):
            make_trainer("svm")

    def test_parameters_reach_the_trainer(self):
        data = blobs(seed=4, per_class=10)
        assert make_trainer("knn", k=7)(data).k == 7
        assert make_trainer("knn")(data).k == 5  # train_knn's default


class TestScaleInvariance:
    def test_argmax_predictions_survive_feature_scaling(self):
        data = blobs(seed=6, spread=1.0, per_class=15, dim=3)
        scaled = LabeledDataset(data.X * np.array([1.0, 250.0, 0.004]), data.y)
        rng = np.random.default_rng(2)
        queries = rng.uniform(-2, 8, (25, 3))
        for name in ("mlp", "knn", "nb", "dt"):
            kwargs = {"epochs": 40} if name == "mlp" else {}
            base = make_trainer(name, seed=0, **kwargs)(data)
            other = make_trainer(name, seed=0, **kwargs)(scaled)
            got = base.predict_batch(queries)
            got_scaled = other.predict_batch(queries * np.array([1.0, 250.0, 0.004]))
            assert got == got_scaled


class TestCompareGrid:
    def test_grid_shape_and_determinism(self):
        rng = np.random.default_rng(14)
        # small 31-dim dataset with class-dependent structure
        X = rng.standard_normal((72, 31))
        y = [CLASS_ORDER[i % 4] for i in range(72)]
        for i, label in enumerate(y):
            X[i, :5] += 4 * CLASS_ORDER.index(label)
        data = LabeledDataset(X, y)
        kwargs = {"mlp": {"epochs": 30}}
        grid = compare_feature_sets(data, seed=0, folds=3, classifier_kwargs=kwargs)
        again = compare_feature_sets(data, seed=0, folds=3, classifier_kwargs=kwargs)
        assert set(grid) == {"mlp", "knn", "nb", "dt"}
        cells = [grid[m][s] for m in grid for s in ("five", "cepstral", "all")]
        assert len(cells) == 12
        assert all(0.0 <= v <= 100.0 for v in cells)
        assert grid == again

    def test_wrong_width_rejected(self):
        data = blobs()
        with pytest.raises(ValueError):
            compare_feature_sets(data)


class TestPersistence:
    @pytest.mark.parametrize("name,kwargs", [
        ("mlp", {"epochs": 20}), ("knn", {}), ("nb", {}), ("dt", {})])
    def test_roundtrip_identical_predictions(self, tmp_path, name, kwargs):
        data = blobs(seed=8, per_class=12)
        model = make_trainer(name, seed=1, **kwargs)(data)
        path = tmp_path / f"{name}.json"
        save_model(path, model, "five", MfccConfig(n_coeffs=8), LpcConfig(order=6))
        loaded = load_model(path)
        probes = np.random.default_rng(9).uniform(-2, 8, (40, 2))
        assert model.predict_batch(probes) == loaded.predict_batch(probes)
        assert load_model_meta(path) == {"feature_set": "five",
                                         "mfcc": asdict(MfccConfig(n_coeffs=8)),
                                         "lpc": {"order": 6}}
        assert load_model_and_meta(path)[1:] == (
            "five", settings_of(MfccConfig(n_coeffs=8), LpcConfig(order=6)))

    def test_a_model_that_is_not_json_is_not_written(self, tmp_path):
        model = make_trainer("knn")(blobs(seed=8, per_class=12))
        model.Xs[0, 0] = math.nan  # beyond what any trainer fits
        path = tmp_path / "knn.json"
        with pytest.raises(ValueError, match="Out of range float values"):
            save_model(path, model)
        assert not path.exists()

    def test_legacy_gnb_kind_loads(self, tmp_path):
        data = blobs(seed=8, per_class=12)
        model = make_trainer("nb")(data)
        path = tmp_path / "nb.json"
        save_model(path, model)
        doc = json.loads(path.read_text())
        assert doc["kind"] == "nb"
        doc["kind"] = "gnb"  # the name files carried before it matched the CLI
        path.write_text(json.dumps(doc))
        probes = np.random.default_rng(9).uniform(-2, 8, (40, 2))
        assert load_model(path).predict_batch(probes) == model.predict_batch(probes)

    def test_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "null", '"roadwarn-model"'])
    def test_rejects_json_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="not a roadwarn model file"):
            load_model(path)
        with pytest.raises(ValueError, match="not a roadwarn model file"):
            load_model_meta(path)

    def test_tree_nested_past_the_recursion_limit(self):
        # where the JSON reader nests deeper than Python, the tree's reader runs out
        tree = {"label": "H"}
        for _ in range(5000):
            tree = {"feature": 0, "threshold": 0.0, "left": tree, "right": {"label": "NV"}}
        with pytest.raises(ValueError, match=re.escape(
                "deep.json: not a roadwarn model file (nested too deep)")):
            C.DtModel.from_dict({"mean": [0.0], "std": [1.0], "tree": tree}, "deep.json")

    @pytest.mark.parametrize("name,field", [("knn", "labels"), ("dt", "threshold")])
    def test_missing_field_names_path_and_field(self, tmp_path, name, field):
        path = tmp_path / f"{name}.json"
        save_model(path, make_trainer(name)(blobs(seed=8, per_class=12)))
        doc = json.loads(path.read_text())
        if field == "threshold":  # a key of the tree's root split
            del doc["tree"][field]
        else:
            del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{name}.json: {name} model has no field '{field}'"):
            load_model(path)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _extraction_configs(draw):
    n_filters = draw(st.integers(1, 40))
    mfcc = MfccConfig(n_filters=n_filters, n_coeffs=draw(st.integers(1, n_filters)),
                      pre_emphasis=draw(_FINITE), fmin=draw(st.floats(0.0, 1e308)),
                      fmax=draw(st.none() | _FINITE),
                      log_floor=draw(st.floats(min_value=5e-324, allow_infinity=False)))
    return mfcc, LpcConfig(order=draw(st.integers(0, 64)))


class TestModelFileRoundTrip:
    # rows over the whole finite range: magnitudes near 1e308 overflow z-scoring
    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(C.CLASSIFIER_NAMES), per_class=st.integers(2, 4),
           dim=st.integers(1, 3), data=st.data(),
           feature_set=st.sampled_from(list(FEATURE_SETS)), configs=_extraction_configs())
    def test_a_trained_model_saves_and_loads_whole_or_training_refuses(
            self, name, per_class, dim, data, feature_set, configs):
        X = data.draw(hnp.arrays(np.float64, (4 * per_class, dim),
                                 elements=st.floats(-10, 10) | _FINITE))
        y = data.draw(st.permutations([c for c in CLASS_ORDER for _ in range(per_class)]))
        kwargs = {"hidden_units": 4, "epochs": 5} if name == "mlp" else {}
        try:
            model = make_trainer(name, **kwargs)(LabeledDataset(X, y))
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.json"
            save_model(path, model, feature_set, *configs)
            loaded, loaded_set, loaded_settings = load_model_and_meta(path)
        assert loaded.predict_batch(X) == model.predict_batch(X)
        assert loaded_set == feature_set
        assert loaded_settings == settings_of(*configs)


GOLDEN = Path(__file__).resolve().parent / "data"


class TestGoldenModelFiles:
    """Tiny model files of each kind, written by the codec before it was
    shared: 8 training rows in 2 columns, 2 per class, trained by
    train_mlp(hidden_units=2, epochs=100, seed=0), train_knn(k=3), train_gnb
    and train_dt(max_depth=2), saved with meta {"feature_set": "all"}, from
    before the extraction settings were recorded."""

    PROBES = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0], [2.0, 2.0], [-1.0, 5.0]])

    @pytest.mark.parametrize("kind,labels", [
        ("mlp", "H LL LH NV H LH"), ("knn", "H LL LH NV LL LH"),
        ("nb", "H LL LH NV H LH"), ("dt", "H LL LH NV H LH")])
    def test_loads_predicts_and_saves_the_same_bytes(self, tmp_path, kind, labels):
        path = GOLDEN / f"model_{kind}.json"
        model = load_model(path)
        assert model.kind == kind
        assert [c.value for c in model.predict_batch(self.PROBES)] == labels.split()
        assert load_model_and_meta(path)[1:] == ("all", settings_of())
        # the fields re-save to the same bytes, then a meta with every key
        again = tmp_path / path.name
        save_model(again, model)
        head, meta = again.read_bytes().split(b', "meta": ')
        assert head == path.read_bytes().split(b', "meta": ')[0]
        assert json.loads(meta[:-1]) == {"feature_set": "all", "mfcc": asdict(MfccConfig()),
                                         "lpc": asdict(LpcConfig())}


_GOLDEN_DOCS = {kind: json.loads((GOLDEN / f"model_{kind}.json").read_text())
                for kind in ("mlp", "knn", "nb", "dt")}

# Any JSON value, with the names a model file uses among the strings and keys
# and every golden field's own value among the leaves, so that some of the
# values load and reach the model constructors.
_NAMES = ["H", "LL", "LH", "NV", "mlp", "knn", "nb", "dt", "gnb", "all", "five", "label",
          "feature", "threshold", "left", "right", "feature_set", "mfcc", "lpc", "order"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(_NAMES)
    | st.sampled_from([v for doc in _GOLDEN_DOCS.values() for v in doc.values()]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(_NAMES) | st.text(max_size=3), inner,
                                     max_size=4)),
    max_leaves=12)


class TestModelFileFieldTypes:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_any_json_value_in_any_field_loads_or_is_a_value_error(self, data):
        kind = data.draw(st.sampled_from(sorted(_GOLDEN_DOCS)))
        doc = dict(_GOLDEN_DOCS[kind])
        field = data.draw(st.sampled_from(sorted(doc)))
        doc[field] = data.draw(_JSON)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"model_{kind}.json"
            path.write_text(json.dumps(doc))
            for load in (load_model, load_model_meta):
                try:
                    load(path)
                except ValueError as exc:
                    assert str(exc).startswith(f"{path}: ")

    @pytest.mark.parametrize("kind,field,value,message", [
        ("mlp", "kind", ["mlp"], "unknown model kind ['mlp']"),
        ("mlp", "w1", [[1.0], [1.0, 2.0]], "mlp model field 'w1': must be a list of"),
        ("mlp", "b2", ["1.0", 1.0, 1.0, 1.0], "mlp model field 'b2': must be a list of finite"),
        ("mlp", "b2", [float("nan"), 1.0, 1.0, 1.0], "mlp model field 'b2': must be a list of"),
        ("mlp", "b2", [True, 1.0, 1.0, 1.0], "mlp model field 'b2': must be a list of finite"),
        ("knn", "Xs", [[1.0, False]] * 8, "knn model field 'Xs': must be a list of equal-length"),
        ("knn", "labels", 5, "knn model field 'labels': must be a list of class names"),
        ("knn", "labels", ["H", "XX"], "knn model field 'labels': 'XX' is not a valid"),
        ("knn", "k", 3.0, "knn model field 'k': must be a positive integer"),
        ("nb", "class_vars", "1", "nb model field 'class_vars': must be a list of"),
        ("dt", "tree", [1], "dt model field 'tree': tree nodes must be objects"),
        ("dt", "tree", {"feature": "0", "threshold": 0.5, "left": {}, "right": {}},
         "dt model field 'tree': a split's feature must be a column index"),
    ])
    def test_wrong_type_names_the_file_and_the_field(self, tmp_path, kind, field, value,
                                                     message):
        doc = dict(_GOLDEN_DOCS[kind], **{field: value})
        path = tmp_path / f"model_{kind}.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("meta,message", [
        ([1], "field 'meta' must be an object"),
        ({"feature_set": ["all"]}, "meta feature_set must be one of five, cepstral, all"),
        ({"feature_set": "none"}, "meta feature_set must be one of"),
        ({"mfcc": 3}, "meta mfcc must be an object"),
    ])
    def test_wrong_meta_names_the_file_and_the_field(self, tmp_path, meta, message):
        path = tmp_path / "model_mlp.json"
        path.write_text(json.dumps(dict(_GOLDEN_DOCS["mlp"], meta=meta)))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_model_meta(path)


_SPLIT_ON_7 = {"feature": 7, "threshold": 0.5, "left": {"label": "H"}, "right": {"label": "NV"}}


class TestModelFileFieldAgreement:
    """Fields of the right types whose sizes disagree, and a std or a
    variance at or below 0, are refused at load, naming the field, before a
    prediction can index past an array, label every frame with the one class
    named, or divide by it."""

    @pytest.mark.parametrize("kind,edits,message", [
        ("mlp", {"std": [1.0, 1.0, 1.0]},
         "'std': has shape (3,), which does not fit 'mean' of shape (2,)"),
        ("mlp", {"w1": [[1.0, 2.0, 3.0]] * 2},
         "'b1': has shape (2,), which does not fit 'w1' of shape (2, 3)"),
        ("mlp", {"w2": [[1.0, 2.0, 3.0]] * 2, "b2": [0.0, 0.0, 0.0]},
         "'w2': has shape (2, 3), which does not fit 4 classes"),
        ("knn", {"labels": ["H", "LL", "LH"]},
         "'labels': has shape (3,), which does not fit 'Xs' of shape (8, 2)"),
        ("knn", {"Xs": [[1.0, 2.0, 3.0]] * 8},
         "'Xs': has shape (8, 3), which does not fit 'mean' of shape (2,)"),
        ("knn", {"k": 9}, "'k': must be at most the 8 training rows, got 9"),
        ("nb", {"classes": ["H"]},
         "'class_means': has shape (4, 2), which does not fit 'classes' of shape (1,)"),
        ("nb", {"log_priors": [-1.0, -1.0]},
         "'log_priors': has shape (2,), which does not fit 'classes' of shape (4,)"),
        ("nb", {"class_vars": [[1.0]] * 4},
         "'class_vars': has shape (4, 1), which does not fit 'mean' of shape (2,)"),
        ("dt", {"tree": _SPLIT_ON_7}, "'tree': a split's feature 7 is not one of 2 columns"),
        ("dt", {"tree": dict(_SPLIT_ON_7, feature=0, right=dict(_SPLIT_ON_7, feature=2))},
         "'tree': a split's feature 2 is not one of 2 columns"),
        ("mlp", {"std": [1.0, 0.0]}, "'std': must be a list of positive finite numbers"),
        ("knn", {"std": [0.0, 1.0]}, "'std': must be a list of positive finite numbers"),
        ("nb", {"std": [1.0, -2.0]}, "'std': must be a list of positive finite numbers"),
        ("dt", {"std": [-0.0, 1.0]}, "'std': must be a list of positive finite numbers"),
        ("nb", {"class_vars": [[0.0, 0.0], [-1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]},
         "'class_vars': must be a list of equal-length lists of positive finite numbers"),
        ("nb", {"class_vars": [[1.0, 1.0]] * 3 + [[1.0, -1e-300]]},
         "'class_vars': must be a list of equal-length lists of positive finite numbers"),
        # training floors a variance at 1e-9; below it the divisions overflow
        ("nb", {"class_vars": [[1.0, 1.0]] * 3 + [[1.0, 1e-320]]},
         "'class_vars': must hold no number below 1e-09, got 1e-320"),
    ])
    def test_sizes_that_disagree_name_the_file_and_the_field(self, tmp_path, kind, edits,
                                                              message):
        path = tmp_path / f"model_{kind}.json"
        path.write_text(json.dumps(dict(_GOLDEN_DOCS[kind], **edits)))
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: {kind} model field {message}"

    @pytest.mark.parametrize("kind,edits", [
        ("knn", {"k": 8}),
        ("dt", {"tree": dict(_SPLIT_ON_7, feature=1)}),
        ("nb", {"classes": ["NV", "LH", "LL", "H"]}),
    ])
    def test_sizes_that_agree_load(self, tmp_path, kind, edits):
        path = tmp_path / f"model_{kind}.json"
        path.write_text(json.dumps(dict(_GOLDEN_DOCS[kind], **edits)))
        assert load_model(path).predict_batch(TestGoldenModelFiles.PROBES)

    def test_models_trained_at_the_std_floor_load(self, tmp_path):
        # column 0 has the least positive variance, so its std is the floor;
        # column 1's one outlier is as many stds out as 6 rows allow
        a = math.sqrt(math.ulp(0.0))
        X = np.array([[-a, 0.0], [a, 0.0], [-a, 0.0], [a, 0.0], [-a, 0.0], [a, 1.0]])
        data = LabeledDataset(X, [SoundClass.H] * 3 + [SoundClass.LL] * 3)
        for model in (train_knn(data, k=1), train_gnb(data)):
            assert model.std[0] == C._STD_FLOOR
            save_model(tmp_path / "model.json", model)
            loaded = load_model(tmp_path / "model.json")
            assert loaded.predict_batch(X) == model.predict_batch(X)
            with pytest.raises(ValueError, match="standard deviations of the training mean"):
                loaded.predict_batch([[1.0, 0.0]])  # 2**537 stds out
