import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from roadwarn import classifiers as C
from roadwarn.classifiers import (CLASS_ORDER, LabeledDataset, MlpConfig, SoundClass,
                                  compare_feature_sets, compute_metrics, evaluate_cv,
                                  f_measure, load_model, load_model_meta, make_trainer,
                                  most_dangerous, save_model, train_dt, train_gnb,
                                  train_knn, train_mlp)


def blobs(seed=0, spread=0.3, per_class=50, dim=2):
    """Four well-separated Gaussian clusters, one per class."""
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [6, 0], [0, 6], [6, 6]], dtype=float)
    if dim > 2:
        centers = np.c_[centers, np.zeros((4, dim - 2))]
    X = np.vstack([c + spread * rng.standard_normal((per_class, dim)) for c in centers])
    y = [cls for cls in CLASS_ORDER for _ in range(per_class)]
    return LabeledDataset(X, y)


def mlp_reference_fit(data, config):
    """train_mlp before a step kept its own loss and gradients: two forward
    passes per epoch and activations that allocate.  Kept as the oracle for
    the weights; returns (w1, b1, w2, b2) and the number of rate halvings."""
    mean, std, _ = C._fit_standardizer(data.X)
    Xs = (data.X - mean) / std
    codes = C._codes(data.y)
    n = Xs.shape[0]

    def forward(w1, b1, w2, b2):
        hidden = 1.0 / (1.0 + np.exp(-np.clip(Xs @ w1 + b1, -500, 500)))
        z = hidden @ w2 + b2
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return hidden, e / e.sum(axis=1, keepdims=True)

    def loss(params):
        _, probs = forward(*params)
        return -np.mean(np.log(probs[np.arange(n), codes] + 1e-300))

    def loss_and_gradients(params):
        hidden, probs = forward(*params)
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

    dim, hidden, n_out = Xs.shape[1], config.hidden_units, len(CLASS_ORDER)
    rng = np.random.default_rng(config.seed)
    params = (rng.uniform(-0.5, 0.5, (dim, hidden)), rng.uniform(-0.5, 0.5, hidden),
              rng.uniform(-0.5, 0.5, (hidden, n_out)), rng.uniform(-0.5, 0.5, n_out))
    rate, halvings = config.learning_rate, 0
    value, grads = loss_and_gradients(params)
    for _ in range(config.epochs):
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
        node = model.root
        while node.label is None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.label

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
            return C._TreeNode(label=draw(st.sampled_from(CLASS_ORDER)))
        return C._TreeNode(feature=draw(st.integers(0, dim - 1)),
                           threshold=draw(st.sampled_from(_TREE_GRID)),
                           left=grow(depth - 1), right=grow(depth - 1))

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
        cfg = MlpConfig(epochs=1, seed=9)
        a = train_mlp(data, cfg).predict_batch(data.X)
        b = train_mlp(data, cfg).predict_batch(data.X)
        assert a == b

    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
    def test_untrainable_learning_rate_rejected(self, rate):
        # a NaN or infinite rate would never leave train_mlp's step-halving loop
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            MlpConfig(learning_rate=rate)
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            make_trainer("mlp", learning_rate=rate)

    def test_gradients_match_finite_differences(self):
        data = blobs(seed=3, per_class=20)
        model = train_mlp(data, MlpConfig(epochs=3, seed=5))
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
            model = train_mlp(data, MlpConfig(epochs=epochs, seed=4))
            losses.append(model.loss(Xs, codes))
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((10, 3))
        with pytest.raises(ValueError):
            train_mlp(LabeledDataset(X, [SoundClass.H] * 10))


    @pytest.mark.parametrize("config", [
        MlpConfig(epochs=30, seed=3),
        MlpConfig(hidden_units=5, learning_rate=0.5, epochs=30, seed=1),
        MlpConfig(learning_rate=50.0, epochs=30, seed=2),  # forces rate halvings
    ])
    def test_weights_equal_reference_loop(self, config, monkeypatch):
        data = blobs(seed=8, spread=1.5, per_class=30, dim=3)
        ref, halvings = mlp_reference_fit(data, config)
        if config.learning_rate == 50.0:
            assert halvings > 0
        calls = []
        inner = C.MlpModel.loss_and_gradients

        def counted(model, Xs, codes):
            calls.append(1)
            return inner(model, Xs, codes)

        monkeypatch.setattr(C.MlpModel, "loss_and_gradients", counted)
        model = train_mlp(data, config)
        for got, want in zip((model.w1, model.b1, model.w2, model.b2), ref):
            assert np.array_equal(got, want)
        assert len(calls) == 1 + config.epochs + halvings

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

    def test_query_beyond_squared_range_measures_every_row(self):
        data = blobs(seed=4, per_class=5)
        model = train_knn(data, k=3)
        far = np.array([[1e200, 0.0], [0.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert model.predict_batch(far) == knn_reference(model, far)

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
        model = train_mlp(data, MlpConfig(epochs=40, seed=2))
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
        assert model.root.label == SoundClass.NV

    def test_single_split_1d(self):
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = [SoundClass.LL] * 3 + [SoundClass.H] * 3
        model = train_dt(LabeledDataset(X, y))
        root = model.root
        assert root.label is None and root.feature == 0
        # threshold separates the classes on the standardized axis
        z = (X[:, 0] - X.mean()) / X.std()
        assert z[2] < root.threshold <= z[3]
        assert root.left.label == SoundClass.LL and root.right.label == SoundClass.H
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
            if oracle is None or model.root.label is not None:
                assert oracle is None or oracle[0] <= 1e-15
                continue
            assert model.root.feature == oracle[1]
            assert model.root.threshold == pytest.approx(oracle[2], abs=1e-12)

    def test_max_depth_respected(self):
        data = blobs(seed=9, spread=2.0)
        model = train_dt(data, max_depth=2)

        def depth(node):
            if node.label is not None:
                return 0
            return 1 + max(depth(node.left), depth(node.right))

        assert depth(model.root) <= 2


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
        save_model(path, model, extra={"feature_set": "all"})
        loaded = load_model(path)
        probes = np.random.default_rng(9).uniform(-2, 8, (40, 2))
        assert model.predict_batch(probes) == loaded.predict_batch(probes)
        assert load_model_meta(path) == {"feature_set": "all"}

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


GOLDEN = Path(__file__).resolve().parent / "data"


class TestGoldenModelFiles:
    """Tiny model files of each kind, written by the codec before it was
    shared: 8 training rows in 2 columns, 2 per class, trained by
    MlpConfig(hidden_units=2, epochs=100, seed=0), train_knn(k=3), train_gnb
    and train_dt(max_depth=2), saved with meta {"feature_set": "all"}."""

    PROBES = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0], [2.0, 2.0], [-1.0, 5.0]])

    @pytest.mark.parametrize("kind,labels", [
        ("mlp", "H LL LH NV H LH"), ("knn", "H LL LH NV LL LH"),
        ("nb", "H LL LH NV H LH"), ("dt", "H LL LH NV H LH")])
    def test_loads_predicts_and_saves_the_same_bytes(self, tmp_path, kind, labels):
        path = GOLDEN / f"model_{kind}.json"
        model = load_model(path)
        assert model.kind == kind
        assert [c.value for c in model.predict_batch(self.PROBES)] == labels.split()
        again = tmp_path / path.name
        save_model(again, model, extra=load_model_meta(path))
        assert again.read_bytes() == path.read_bytes()
