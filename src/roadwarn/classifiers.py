"""The four frame classifiers, 6-fold evaluation and per-class metrics.

`CLASSIFIERS` declares each classifier once: its model class, its trainer
and the run-config parameters the trainer takes.  All models z-score their
inputs with statistics frozen at training time, so rescaling any raw input
dimension by a positive constant never changes a prediction.  The models
share one predict path and one file codec (`_Model`): `predict_batch` takes
a (rows x features) array, rejects a width other than the model's and rows
that are not finite once z-scored, and hands the z-scored rows to the
model's own `_predict`; `to_dict`/`from_dict` write and read the fields a
model class lists, in that order.  Ties anywhere (vote counts, equal
posteriors, equal leaf majorities) resolve toward the more dangerous class:
LH > H > LL > NV.  A warning system should err on the side of warning.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np


class SoundClass(enum.Enum):
    H = "H"    # heavy vehicle
    LL = "LL"  # light vehicle, low speed
    LH = "LH"  # light vehicle, high speed
    NV = "NV"  # no vehicle (birds, airplane, crowd)


CLASS_ORDER = [SoundClass.H, SoundClass.LL, SoundClass.LH, SoundClass.NV]
DANGER_ORDER = [SoundClass.LH, SoundClass.H, SoundClass.LL, SoundClass.NV]
_DANGER_RANK = {c: len(DANGER_ORDER) - i for i, c in enumerate(DANGER_ORDER)}


def most_dangerous(classes) -> SoundClass:
    """Tie-break helper: the riskiest class among the candidates."""
    return max(classes, key=_DANGER_RANK.__getitem__)


@dataclass
class LabeledDataset:
    X: np.ndarray
    y: list  # SoundClass per row

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2 or self.X.shape[0] != len(self.y):
            raise ValueError("X must be (n_samples, dim) with one label per row")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("features must be finite")

    def subset(self, indices) -> "LabeledDataset":
        return LabeledDataset(self.X[indices], [self.y[i] for i in indices])

    def select_columns(self, cols) -> "LabeledDataset":
        return LabeledDataset(self.X[:, cols], list(self.y))


def _fit_standardizer(X: np.ndarray):
    """(mean, std, z-scored X) of the training rows; constant columns keep std 1."""
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0.0] = 1.0
    return mean, std, (X - mean) / std


def _standardize(X, mean, std) -> np.ndarray:
    """The query rows of a predict_batch, z-scored with the model's statistics."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(mean):
        raise ValueError(f"model expects rows of {len(mean)} features, "
                         f"got an array of shape {X.shape}")
    Xs = (X - mean) / std
    if not np.all(np.isfinite(Xs)):
        raise ValueError("query features must be finite")
    return Xs


def _codes(labels) -> np.ndarray:
    index = {c: i for i, c in enumerate(CLASS_ORDER)}
    return np.array([index[label] for label in labels], dtype=np.intp)


def _danger_argmax(scores: np.ndarray, classes, tolerance: float = 0.0) -> list:
    """Per row of `scores` (one column per entry of `classes`): the riskiest
    class whose score is at least the row's best minus `tolerance`."""
    order = sorted(range(len(classes)), key=lambda i: _DANGER_RANK[classes[i]], reverse=True)
    ranked = scores[:, order]
    near_best = ranked >= ranked.max(axis=1, keepdims=True) - tolerance
    # argmax of a boolean row is its first True: the riskiest candidate
    return [classes[order[j]] for j in np.argmax(near_best, axis=1)]


def _classes(values) -> list:
    return [SoundClass(v) for v in values]


def _jsonable(value):
    """A persisted field as JSON: arrays as lists, classes by value, a tree as dicts."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, _TreeNode):
        return _tree_to_dict(value)
    if isinstance(value, list):
        return [c.value for c in value]
    return value


class _Model:
    """A subclass sets `kind`, implements `_predict` on z-scored rows and
    lists its persisted fields in `_FIELDS` as (name, reader) pairs in file
    key order.  The constructor takes the fields in that order and keeps each
    as an attribute; the reader rebuilds a field from its JSON form."""

    kind: str
    _FIELDS: tuple

    def __init__(self, *fields):
        for (name, _), value in zip(self._FIELDS, fields, strict=True):
            setattr(self, name, value)

    def predict_batch(self, X) -> list:
        return self._predict(_standardize(X, self.mean, self.std))

    def to_dict(self) -> dict:
        doc = {"kind": self.kind}
        doc.update((name, _jsonable(getattr(self, name))) for name, _ in self._FIELDS)
        return doc

    @classmethod
    def from_dict(cls, doc: dict, path="model"):
        try:
            return cls(*(read(doc[name]) for name, read in cls._FIELDS))
        except KeyError as exc:
            raise ValueError(f"{path}: {cls.kind} model has no field {exc.args[0]!r}") from None


# ---------------------------------------------------------------------------
# MLP

@dataclass(frozen=True)
class MlpConfig:
    hidden_units: int = 32
    learning_rate: float = 0.5
    epochs: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.hidden_units < 1 or self.epochs < 1:
            raise ValueError("hidden_units and epochs must be >= 1")
        if not 0 < self.learning_rate < np.inf:  # False for NaN too
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")


# The activations overwrite their argument: the same ufuncs in the same order
# as 1 / (1 + exp(-clip(z))) and exp(z - max) / sum, without a temporary per
# operation.

def _sigmoid_inplace(z):
    np.clip(z, -500, 500, out=z)
    np.negative(z, out=z)
    np.exp(z, out=z)
    np.add(1.0, z, out=z)
    return np.divide(1.0, z, out=z)


def _softmax_inplace(z):
    # the row maxima column by column: max is exact in any order, and numpy
    # reduces along a 4-wide row axis about 20 times slower
    top = z[:, 0].copy()
    for j in range(1, z.shape[1]):
        np.maximum(top, z[:, j], out=top)
    z -= top[:, np.newaxis]
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


class MlpModel(_Model):
    """One sigmoid hidden layer, softmax over the four classes."""

    kind = "mlp"
    _FIELDS = (("mean", np.array), ("std", np.array), ("w1", np.array), ("b1", np.array),
               ("w2", np.array), ("b2", np.array))

    def _forward(self, Xs):
        hidden = Xs @ self.w1
        hidden += self.b1
        _sigmoid_inplace(hidden)
        logits = hidden @ self.w2
        logits += self.b2
        return hidden, _softmax_inplace(logits)

    def loss_and_gradients(self, Xs, codes):
        """Mean cross-entropy and its analytic gradients at the current weights."""
        n = Xs.shape[0]
        rows = np.arange(n)
        hidden, delta_out = self._forward(Xs)
        loss = -np.mean(np.log(delta_out[rows, codes] + 1e-300))
        # from here on the buffers of probs and hidden hold the deltas
        delta_out[rows, codes] -= 1.0
        delta_out /= n
        gw2 = hidden.T @ delta_out
        gb2 = delta_out.sum(axis=0)
        delta_hidden = delta_out @ self.w2.T
        delta_hidden *= hidden
        delta_hidden *= np.subtract(1.0, hidden, out=hidden)
        gw1 = Xs.T @ delta_hidden
        gb1 = delta_hidden.sum(axis=0)
        return loss, (gw1, gb1, gw2, gb2)

    def loss(self, Xs, codes):
        _, probs = self._forward(Xs)
        return -np.mean(np.log(probs[np.arange(Xs.shape[0]), codes] + 1e-300))

    def _predict(self, Xs) -> list:
        _, probs = self._forward(Xs)
        return _danger_argmax(probs, CLASS_ORDER)


def train_mlp(data: LabeledDataset, config: MlpConfig = MlpConfig()) -> MlpModel:
    """Full-batch gradient descent with a halving step control.

    Weights and biases start from a seeded uniform(-0.5, 0.5) draw.  Each
    epoch takes one descent step; if the step would increase the loss the
    rate is halved (persistently) until the step no longer hurts, so the
    training loss is non-increasing by construction.  Each candidate step is
    evaluated once, loss and gradients together, and an accepted candidate
    keeps both, so a fit costs 1 + epochs + halvings forward passes.
    """
    if len(set(data.y)) < 2:
        raise ValueError("training data must contain at least 2 classes")
    mean, std, Xs = _fit_standardizer(data.X)
    codes = _codes(data.y)
    dim, hidden, n_out = Xs.shape[1], config.hidden_units, len(CLASS_ORDER)
    rng = np.random.default_rng(config.seed)
    model = MlpModel(mean, std,
                     rng.uniform(-0.5, 0.5, (dim, hidden)),
                     rng.uniform(-0.5, 0.5, hidden),
                     rng.uniform(-0.5, 0.5, (hidden, n_out)),
                     rng.uniform(-0.5, 0.5, n_out))
    rate = config.learning_rate
    loss, grads = model.loss_and_gradients(Xs, codes)
    for _ in range(config.epochs):
        while True:
            candidate = MlpModel(mean, std,
                                 model.w1 - rate * grads[0], model.b1 - rate * grads[1],
                                 model.w2 - rate * grads[2], model.b2 - rate * grads[3])
            candidate_loss, candidate_grads = candidate.loss_and_gradients(Xs, codes)
            if candidate_loss <= loss or rate <= 1e-12:
                break
            rate *= 0.5
        model, loss, grads = candidate, candidate_loss, candidate_grads
    return model


# ---------------------------------------------------------------------------
# KNN

class KnnModel(_Model):
    """k nearest training rows by Euclidean distance, majority vote.

    Ties in the ranking go to the lower training index; ties in the vote go
    to the class with the smaller mean distance, then to the riskier class.

    _predict gives exactly these answers without measuring every
    distance exactly.  One matrix product gives approximate squared distances
    |q|^2 + |x|^2 - 2 q.x for a block of queries; only the training rows within
    a margin of the k-th smallest of those are measured again with the exact
    per-row expression, and those exact distances alone decide the ranking
    and the vote.  Why the margin is safe: over `dim` columns, either way of
    computing a squared distance errs by at most about
    (dim + 3) * 2**-53 * (|q| + |x|)^2, which is 4e-15 * (|q| + max|x|)^2 for
    the 31 features.  A row in the exact top k has an approximate value at
    most twice the sum of both errors above the approximate k-th value, since
    the k rows that are approximately nearest are also nearly so exactly.
    The margin, 1e-9 * (|q| + max|x|)^2, is over 10**5 times either error and
    over 6 * 10**4 times what is needed, and still enough at a million columns.
    """

    kind = "knn"
    _FIELDS = (("k", int), ("mean", np.array), ("std", np.array), ("Xs", np.array),
               ("labels", _classes))

    _QUERY_BLOCK = 256  # a 256 x 7,000 distance block is 14 MB
    _MARGIN = 1e-9

    def __init__(self, *fields):
        super().__init__(*fields)
        self._codes = _codes(self.labels)
        self._sq_norms = (self.Xs ** 2).sum(axis=1)
        self._max_norm = float(np.sqrt(self._sq_norms.max()))

    def _predict(self, Q) -> list:
        out = []
        for start in range(0, len(Q), self._QUERY_BLOCK):
            block = Q[start:start + self._QUERY_BLOCK]
            q_sq = (block ** 2).sum(axis=1)
            approx = block @ self.Xs.T
            approx *= -2.0
            approx += q_sq[:, np.newaxis]
            approx += self._sq_norms
            kth = np.partition(approx, self.k - 1, axis=1)[:, self.k - 1]
            limits = kth + self._MARGIN * (np.sqrt(q_sq) + self._max_norm) ** 2
            for q, row, limit in zip(block, approx, limits):
                if np.isfinite(limit):
                    candidates = np.flatnonzero(row <= limit)
                else:  # |q| near the float range: measure every row
                    candidates = np.arange(len(row))
                out.append(self._vote(q, candidates))
        return out

    def _vote(self, q, candidates) -> SoundClass:
        d = np.sqrt(((self.Xs[candidates] - q) ** 2).sum(axis=1))
        nearest = np.argsort(d, kind="stable")[:self.k]
        near_codes = self._codes[candidates[nearest]]
        counts = np.bincount(near_codes, minlength=len(CLASS_ORDER))
        top = counts.max()
        tied = [c for c in range(len(CLASS_ORDER)) if counts[c] == top]
        if len(tied) > 1:
            # closer class (smaller mean distance) wins, then danger order
            means = {c: d[nearest[near_codes == c]].mean() for c in tied}
            closest = min(means.values())
            tied = [c for c in tied if means[c] <= closest]
        return most_dangerous([CLASS_ORDER[c] for c in tied])


def train_knn(data: LabeledDataset, k: int = 5) -> KnnModel:
    if not (1 <= k <= len(data.y)):
        raise ValueError("need 1 <= k <= dataset size")
    return KnnModel(k, *_fit_standardizer(data.X), list(data.y))


# ---------------------------------------------------------------------------
# Gaussian Naive Bayes

class GnbModel(_Model):
    kind = "nb"
    _FIELDS = (("mean", np.array), ("std", np.array), ("classes", _classes),
               ("class_means", np.array), ("class_vars", np.array), ("log_priors", np.array))

    def log_posteriors(self, Xs):
        out = np.empty((Xs.shape[0], len(self.classes)))
        for i in range(len(self.classes)):
            mu, var = self.class_means[i], self.class_vars[i]
            ll = -0.5 * (np.log(2.0 * np.pi * var) + (Xs - mu) ** 2 / var).sum(axis=1)
            out[:, i] = self.log_priors[i] + ll
        return out

    def _predict(self, Xs) -> list:
        return _danger_argmax(self.log_posteriors(Xs), self.classes, tolerance=1e-9)


def train_gnb(data: LabeledDataset, var_floor: float = 1e-9) -> GnbModel:
    """Per-class per-dimension Gaussians (MLE variance, floored) + count priors."""
    mean, std, Xs = _fit_standardizer(data.X)
    present = [c for c in CLASS_ORDER if c in set(data.y)]
    means, variances, priors = [], [], []
    for c in present:
        rows = Xs[np.array([label == c for label in data.y])]
        if rows.shape[0] < 2:
            raise ValueError(f"class {c.value} needs >= 2 samples for a variance")
        means.append(rows.mean(axis=0))
        variances.append(np.maximum(rows.var(axis=0), var_floor))
        priors.append(np.log(rows.shape[0] / Xs.shape[0]))
    return GnbModel(mean, std, present, np.array(means), np.array(variances), np.array(priors))


# ---------------------------------------------------------------------------
# Decision tree

@dataclass
class _TreeNode:
    label: SoundClass | None = None
    feature: int = -1
    threshold: float = 0.0
    left: "_TreeNode | None" = None
    right: "_TreeNode | None" = None


def _tree_to_dict(node: _TreeNode) -> dict:
    if node.label is not None:
        return {"label": node.label.value}
    return {"feature": node.feature, "threshold": node.threshold,
            "left": _tree_to_dict(node.left), "right": _tree_to_dict(node.right)}


def _tree_from_dict(doc: dict) -> _TreeNode:
    if "label" in doc:
        return _TreeNode(label=SoundClass(doc["label"]))
    return _TreeNode(feature=doc["feature"], threshold=doc["threshold"],
                     left=_tree_from_dict(doc["left"]), right=_tree_from_dict(doc["right"]))


def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p ** 2).sum())


def _best_split(Xs: np.ndarray, codes: np.ndarray):
    """Exhaustive (feature, threshold) search maximizing Gini decrease.

    Ties resolve to the lowest feature index, then the lowest threshold.
    Returns None when no split separates anything.
    """
    n, dim = Xs.shape
    total = np.bincount(codes, minlength=len(CLASS_ORDER)).astype(np.float64)
    parent = _gini(total)
    best = None  # (decrease, feature, threshold)
    onehot = np.zeros((n, len(CLASS_ORDER)))
    onehot[np.arange(n), codes] = 1.0
    for f in range(dim):
        order = np.argsort(Xs[:, f], kind="stable")
        xs = Xs[order, f]
        left_counts = np.cumsum(onehot[order], axis=0)  # after i+1 items
        cut = np.flatnonzero(xs[1:] > xs[:-1])  # split between cut and cut+1
        if len(cut) == 0:
            continue
        nl = (cut + 1).astype(np.float64)
        lc = left_counts[cut]
        rc = total - lc
        gl = 1.0 - ((lc / nl[:, None]) ** 2).sum(axis=1)
        gr = 1.0 - ((rc / (n - nl)[:, None]) ** 2).sum(axis=1)
        decrease = parent - (nl / n) * gl - ((n - nl) / n) * gr
        j = int(np.argmax(decrease))  # first max = lowest threshold
        if decrease[j] > 1e-15 and (best is None or decrease[j] > best[0] + 1e-15):
            threshold = 0.5 * (xs[cut[j]] + xs[cut[j] + 1])
            best = (float(decrease[j]), f, float(threshold))
    return best


def _grow(Xs, codes, depth, max_depth) -> _TreeNode:
    counts = np.bincount(codes, minlength=len(CLASS_ORDER))
    top = counts.max()
    majority = most_dangerous([CLASS_ORDER[i] for i in np.flatnonzero(counts == top)])
    if depth >= max_depth or top == len(codes):
        return _TreeNode(label=majority)
    split = _best_split(Xs, codes)
    if split is None:
        return _TreeNode(label=majority)
    _, f, threshold = split
    mask = Xs[:, f] <= threshold
    return _TreeNode(feature=f, threshold=threshold,
                     left=_grow(Xs[mask], codes[mask], depth + 1, max_depth),
                     right=_grow(Xs[~mask], codes[~mask], depth + 1, max_depth))


class DtModel(_Model):
    kind = "dt"
    _FIELDS = (("mean", np.array), ("std", np.array), ("tree", _tree_from_dict))

    @property
    def root(self) -> _TreeNode:
        return self.tree

    def _predict(self, Xs) -> list:
        """Send arrays of row indices down the tree: at each split the rows
        with value <= threshold go left, the rest right; a leaf labels its rows."""
        out = np.empty(len(Xs), dtype=object)
        pending = [(self.tree, np.arange(len(Xs)))]
        while pending:
            node, rows = pending.pop()
            if node.label is not None:
                out[rows] = node.label
            elif len(rows):
                left = Xs[rows, node.feature] <= node.threshold
                pending += [(node.left, rows[left]), (node.right, rows[~left])]
        return out.tolist()


def train_dt(data: LabeledDataset, max_depth: int = 10) -> DtModel:
    if len(data.y) == 0:
        raise ValueError("empty dataset")
    mean, std, Xs = _fit_standardizer(data.X)
    return DtModel(mean, std, _grow(Xs, _codes(data.y), 0, max_depth))


# ---------------------------------------------------------------------------
# Metrics and cross-validation

def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (both as percent)."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    accuracy: float
    f_measure: float


@dataclass(frozen=True)
class Metrics:
    per_class: dict       # SoundClass -> ClassMetrics, percent values
    overall_accuracy: float
    confusion: np.ndarray  # rows = true class, cols = predicted, CLASS_ORDER


def compute_metrics(y_true, y_pred) -> Metrics:
    n = len(y_true)
    idx = {c: i for i, c in enumerate(CLASS_ORDER)}
    confusion = np.zeros((len(CLASS_ORDER), len(CLASS_ORDER)), dtype=np.int64)
    for t, p in zip(y_true, y_pred):
        confusion[idx[t], idx[p]] += 1
    per_class = {}
    for c in CLASS_ORDER:
        i = idx[c]
        tp = confusion[i, i]
        fp = confusion[:, i].sum() - tp
        fn = confusion[i, :].sum() - tp
        tn = n - tp - fp - fn
        precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
        recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
        accuracy = 100.0 * (tp + tn) / n if n else 0.0
        per_class[c] = ClassMetrics(precision, recall, accuracy, f_measure(precision, recall))
    overall = 100.0 * np.trace(confusion) / n if n else 0.0
    return Metrics(per_class=per_class, overall_accuracy=overall, confusion=confusion)


def stratified_folds(labels, folds: int, seed: int) -> np.ndarray:
    """Seeded fold assignment, one entry per sample, each class dealt evenly."""
    labels = list(labels)
    assignment = np.empty(len(labels), dtype=np.intp)
    rng = np.random.default_rng(seed)
    for c in CLASS_ORDER:
        members = np.array([i for i, label in enumerate(labels) if label == c], dtype=np.intp)
        if len(members) == 0:
            continue
        if len(members) < folds:
            raise ValueError(f"class {c.value} has {len(members)} samples, fewer than {folds} folds")
        rng.shuffle(members)
        for j, sample in enumerate(members):
            assignment[sample] = j % folds
    return assignment


def evaluate_cv(data: LabeledDataset, trainer, folds: int = 6, seed: int = 0) -> Metrics:
    """Stratified k-fold CV; predictions pooled over folds into one Metrics."""
    assignment = stratified_folds(data.y, folds, seed)
    y_true, y_pred = [], []
    for fold in range(folds):
        test_idx = np.flatnonzero(assignment == fold)
        train_idx = np.flatnonzero(assignment != fold)
        model = trainer(data.subset(train_idx))
        y_pred.extend(model.predict_batch(data.X[test_idx]))
        y_true.extend(data.y[i] for i in test_idx)
    return compute_metrics(y_true, y_pred)


# Column subsets of a feature vector, valid for any [features] dimensions:
# the five spectral scalars always lead, MFCC + LPC + gain follow.
FEATURE_SETS = {
    "five": slice(0, 5),
    "cepstral": slice(5, None),
    "all": slice(None),
}

# The narrowest vector extraction can produce: 5 scalars, 1 MFCC, the LPC gain.
MIN_FEATURE_DIM = 7


@dataclass(frozen=True)
class Classifier:
    model: type       # the _Model subclass whose kind is the classifier's name
    trainer: str      # name of the module's train function
    params: dict      # run-config parameter -> type, passed to the trainer


CLASSIFIERS = {
    "mlp": Classifier(MlpModel, "train_mlp",
                      {"hidden_units": int, "learning_rate": float, "epochs": int}),
    "knn": Classifier(KnnModel, "train_knn", {"k": int}),
    "nb": Classifier(GnbModel, "train_gnb", {}),
    "dt": Classifier(DtModel, "train_dt", {"max_depth": int}),
}
CLASSIFIER_NAMES = list(CLASSIFIERS)


def make_trainer(name: str, seed: int = 0, **params):
    """data -> fitted model for classifier `name`; `params` go to its trainer,
    which holds their defaults, and `seed` seeds the MLP."""
    if name not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {name!r}")
    spec = CLASSIFIERS[name]
    for key in params:
        if key not in spec.params:
            raise ValueError(f"classifier {name!r} takes no parameter {key!r}")
    if name == "mlp":
        params = {"config": MlpConfig(seed=seed, **params)}
    # looked up at each fit, not bound here, so that a wrapper installed on
    # the module attribute (as the benchmark's span recorder does) sees it
    return lambda data: globals()[spec.trainer](data, **params)


def compare_feature_sets(data: LabeledDataset, seed: int = 0, folds: int = 6,
                         classifier_kwargs: dict | None = None) -> dict:
    """Overall CV accuracy for every classifier x feature-set combination.

    Returns {classifier: {set_name: percent}} over the sets 'five',
    'cepstral' and 'all'; expects whole feature vectors of any dimensions.
    `classifier_kwargs` maps a classifier name to its `make_trainer` kwargs.
    """
    if data.X.shape[1] < MIN_FEATURE_DIM:
        raise ValueError(f"compare_feature_sets expects whole feature vectors "
                         f"(>= {MIN_FEATURE_DIM} columns), got {data.X.shape[1]}")
    grid = {}
    for name in CLASSIFIERS:
        kwargs = (classifier_kwargs or {}).get(name, {})
        grid[name] = {}
        for set_name, cols in FEATURE_SETS.items():
            trainer = make_trainer(name, seed=seed, **kwargs)
            metrics = evaluate_cv(data.select_columns(cols), trainer, folds=folds, seed=seed)
            grid[name][set_name] = metrics.overall_accuracy
    return grid


# ---------------------------------------------------------------------------
# Persistence

def save_model(path, model, extra: dict | None = None) -> None:
    """JSON persistence; floats round-trip exactly through repr."""
    doc = {"format": "roadwarn-model", "version": 1}
    doc.update(model.to_dict())
    if extra:
        doc["meta"] = dict(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_doc(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not (isinstance(doc, dict) and doc.get("format") == "roadwarn-model"
            and doc.get("version") == 1):
        raise ValueError(f"{path}: not a roadwarn model file")
    return doc


def load_model(path):
    doc = _read_doc(path)
    kind = doc.get("kind")
    if kind == "gnb":  # Naive Bayes files saved before the kind took the CLI name
        kind = "nb"
    if kind not in CLASSIFIERS:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    return CLASSIFIERS[kind].model.from_dict(doc, path)


def load_model_meta(path) -> dict:
    return _read_doc(path).get("meta", {})
