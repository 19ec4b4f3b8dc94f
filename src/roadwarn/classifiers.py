"""The four frame classifiers, 6-fold evaluation and per-class metrics.

`CLASSIFIERS` declares each classifier once: its model class, its trainer
and the run-config parameters the trainer takes.  All models z-score their
inputs with statistics frozen at training time, so rescaling any raw input
dimension by a positive constant never changes a prediction.  The models
share one predict path and one file codec (`_Model`): `predict_batch` takes
a (rows x features) array, rejects a width other than the model's and rows
that, z-scored, are not finite or exceed `_QUERY_Z_MAX`, and hands the
z-scored rows to the model's own `_predict`; `to_dict`/`from_dict` write
and read the fields a model class lists, in that order.  Ties anywhere
(vote counts, equal posteriors, equal leaf majorities) resolve toward the
more dangerous class: LH > H > LL > NV.  A warning system should err on
the side of warning.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .features import LpcConfig, MfccConfig, settings_of
from .labels import CLASS_ORDER, DANGER_ORDER, SoundClass, most_dangerous


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
    """(mean, std, z-scored X) of the training rows; constant columns keep std 1.
    A column whose mean, std or z-scored values overflow is a ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0.0] = 1.0
        Xs = (X - mean) / std
    finite = np.isfinite(mean) & np.isfinite(std) & np.isfinite(Xs).all(axis=0)
    if not finite.all():
        raise ValueError(f"training column {np.argmin(finite)} cannot be z-scored: "
                         "its mean, std or z-scored values are not finite")
    return mean, std, Xs


def _standardize(X, mean, std) -> np.ndarray:
    """The query rows of a predict_batch, z-scored with the model's statistics."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(mean):
        raise ValueError(f"model expects rows of {len(mean)} features, "
                         f"got an array of shape {X.shape}")
    with np.errstate(over="ignore"):  # an infinite z-score is refused below
        Xs = (X - mean) / std
    if not np.all(np.abs(Xs) <= _QUERY_Z_MAX):  # nor is NaN
        raise ValueError(f"query features must be finite and within {_QUERY_Z_MAX:.3g} standard "
                         f"deviations of the training mean, got {np.abs(Xs).max():.3g}")
    return Xs


def _codes(labels) -> np.ndarray:
    index = {c: i for i, c in enumerate(CLASS_ORDER)}
    return np.array([index[label] for label in labels], dtype=np.intp)


def _danger_argmax(scores: np.ndarray, classes, tolerance: float = 0.0) -> list:
    """Per row of `scores` (one column per entry of `classes`): the riskiest
    class whose score is at least the row's best minus `tolerance`."""
    order = sorted(range(len(classes)), key=lambda i: DANGER_ORDER.index(classes[i]))
    ranked = scores[:, order]
    near_best = ranked >= ranked.max(axis=1, keepdims=True) - tolerance
    # argmax of a boolean row is its first True: the riskiest candidate
    return [classes[order[j]] for j in np.argmax(near_best, axis=1)]


# Readers of the persisted fields: each rebuilds a field from its JSON form
# and raises ValueError when that form has the wrong type.

def _numbers(ndim: int, positive: bool = False, least: float = -math.inf, most: float = math.inf):
    """Reader of a field that holds finite numbers, all above 0 if
    `positive`, none below `least` and none above `most` in magnitude, in
    lists nested `ndim` deep."""
    numbers = "positive finite numbers" if positive else "finite numbers"
    what = f"a list of {numbers}" if ndim == 1 else f"a list of equal-length lists of {numbers}"

    def read(value) -> np.ndarray:
        try:
            array = np.array(value)
        except ValueError:  # lists of unequal lengths
            array = None
        if (array is None or array.ndim != ndim or array.dtype.kind not in "iuf"
                or not np.all(np.isfinite(array))
                or positive and not np.all(array > 0)
                # numpy reads true/false beside numbers as 1.0/0.0
                or any(bool in map(type, row) for row in (value if ndim == 2 else [value]))):
            raise ValueError(f"must be {what}")
        if not np.all(array >= least):
            raise ValueError(f"must hold no number below {least}, got {float(array.min())}")
        if not np.all(np.abs(array) <= most):
            raise ValueError(f"must hold no magnitude above {most}, got {np.abs(array).max()}")
        return array
    return read


_VAR_FLOOR = 1e-9  # lower bound of a Gaussian's variance, fitted or loaded
# What training writes: a nonzero std is at least sqrt(2**-1074), and a z-score
# (one term of its column's sum of squares, n), a class mean and the root of a
# class variance are at most sqrt(n) < 2**30, with room for rounding.  Queries
# are held to 2**256: squared, over _VAR_FLOOR, summed over under 2**60 columns,
# that is finite, and a constant column's rounding-size std gives about 1e17.
_STD_FLOOR, _Z_MAX, _QUERY_Z_MAX = 2.0 ** -537, 2.0 ** 31, 2.0 ** 256

_VECTOR, _MATRIX, _Z_MATRIX = _numbers(1), _numbers(2), _numbers(2, most=_Z_MAX)
# divisors: a standardizer's std and a Gaussian's variances
_POSITIVE_VECTOR = _numbers(1, positive=True, least=_STD_FLOOR)
_VARIANCES = _numbers(2, positive=True, least=_VAR_FLOOR, most=_Z_MAX ** 2)


def _positive_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"must be a positive integer, got {value!r}")
    return value


def _classes(values) -> list:
    if not isinstance(values, list):
        raise ValueError(f"must be a list of class names, got {values!r}")
    return [SoundClass(v) for v in values]


def _jsonable(value):
    """A persisted field as JSON: arrays as lists, classes by value."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list):
        return [c.value for c in value]
    return value


class _Model:
    """A subclass sets `kind`, implements `_predict` on z-scored rows and
    lists its persisted fields in `_FIELDS` as (name, reader, axes) triples
    in file key order.  The constructor takes the fields in that order and
    keeps each as an attribute; the reader rebuilds a field from its JSON
    form, and raises ValueError when the form has the wrong type.  `axes`
    names the size of each axis of an array or list field (None for other
    fields): axes of the same name must have the same size in every field,
    and an int axis has that size."""

    kind: str
    _FIELDS: tuple

    def __init__(self, *fields):
        for (name, _, _), value in zip(self._FIELDS, fields, strict=True):
            setattr(self, name, value)

    def predict_batch(self, X) -> list:
        return self._predict(_standardize(X, self.mean, self.std))

    def to_dict(self) -> dict:
        doc = {"kind": self.kind}
        doc.update((name, _jsonable(getattr(self, name))) for name, _, _ in self._FIELDS)
        return doc

    @classmethod
    def from_dict(cls, doc: dict, path="model"):
        fields = {}
        for name, read, _ in cls._FIELDS:
            try:
                fields[name] = read(doc[name])
            except KeyError as exc:  # the field, or a key of a tree node inside it
                raise ValueError(f"{path}: {cls.kind} model has no field {exc.args[0]!r}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: {cls.kind} model field {name!r}: {exc}") from None
            except RecursionError:  # a tree nested past the recursion limit
                raise ValueError(f"{path}: not a roadwarn model file (nested too deep)") from None
        mismatch = cls._mismatch(fields)
        if mismatch is not None:
            name, what = mismatch
            raise ValueError(f"{path}: {cls.kind} model field {name!r}: {what}")
        return cls(*fields.values())

    @classmethod
    def _mismatch(cls, fields: dict):
        """(name, what) of the first field, in file order, whose size along
        an axis of `_FIELDS` differs from an earlier field's along the axis
        of the same name, or from an int axis; None when all agree."""
        sizes, shapes = {}, {}  # axis name -> (size, the first field with it); field -> shape
        for name, _, axes in cls._FIELDS:
            if axes is None:
                continue
            value = fields[name]
            shape = shapes[name] = value.shape if isinstance(value, np.ndarray) else (len(value),)
            for axis, size in zip(axes, shape):
                want, source = ((axis, None) if isinstance(axis, int)
                                else sizes.setdefault(axis, (size, name)))
                if size != want:
                    fit = f"{source!r} of shape {shapes[source]}" if source else f"{axis} classes"
                    return name, f"has shape {shape}, which does not fit {fit}"
        return None


# ---------------------------------------------------------------------------
# MLP

# The MLP's passes overwrite their arrays in place and give the bytes of the
# plain formulas, 1 / (1 + exp(-clip(Xs @ w1 + b1, -500, 500))) for the hidden
# layer and exp(z - max) / sum for the softmax: train_mlp's docstring lists
# the identities that make the cheaper forms bit-equal.

def _sigmoid_of_negated(t):
    """Overwrite t = -z with sigmoid(z) = 1 / (1 + exp(-clip(z, -500, 500)))."""
    np.minimum(t, 500.0, out=t)
    np.exp(t, out=t)
    np.add(t, 1.0, out=t)
    return np.divide(1.0, t, out=t)


def _softmax_inplace(z, b):
    """Overwrite the logits z (rows x classes) with softmax(z + b) per row.

    The work runs on a classes x rows copy, where each operation is a few
    contiguous loops; numpy's loop per 4-wide row of z costs more than its
    arithmetic."""
    zt = z.T.copy()
    zt += b[:, np.newaxis]
    zt -= zt.max(axis=0)
    np.exp(zt, out=zt)
    zt /= zt.sum(axis=0)
    z[...] = zt.T
    return z


class _MlpWork:
    """What the training passes of one fit share, built from its z-scored
    rows and their class codes (see train_mlp)."""

    def __init__(self, Xs, codes, hidden_units):
        n, n_out = Xs.shape[0], len(CLASS_ORDER)
        self.XT = np.ascontiguousarray(Xs.T)
        self.targets = np.arange(n) * n_out + codes
        self.onehot = np.zeros((n, n_out))
        self.onehot.ravel()[self.targets] = 1.0
        self.hidden = np.empty((n, hidden_units))
        self.logits = np.empty((n, n_out))
        self.delta_hidden = np.empty((n, hidden_units))


class MlpModel(_Model):
    """One sigmoid hidden layer, softmax over the four classes."""

    kind = "mlp"
    _FIELDS = (("mean", _VECTOR, ("d",)), ("std", _POSITIVE_VECTOR, ("d",)),
               ("w1", _MATRIX, ("d", "h")), ("b1", _VECTOR, ("h",)),
               ("w2", _MATRIX, ("h", len(CLASS_ORDER))), ("b2", _VECTOR, (len(CLASS_ORDER),)))
    convergence = None  # an MlpConvergence on a model train_mlp returns; not persisted

    def _forward(self, Xs, hidden=None, logits=None):
        """(hidden activations, class probabilities) of the rows, written into
        `hidden` (rows x hidden units) and `logits` (rows x 4) when given.
        The hidden layer is computed negated, then turned into sigmoids."""
        hidden = np.matmul(Xs, -self.w1, out=hidden)
        hidden += -self.b1
        _sigmoid_of_negated(hidden)
        logits = np.matmul(hidden, self.w2, out=logits)
        return hidden, _softmax_inplace(logits, self.b2)

    def loss_and_gradients(self, Xs, codes, work=None):
        """Mean cross-entropy and its analytic gradients at the current weights.

        `work` is the fit's _MlpWork for these rows and codes; by default
        the pass builds its own.  The gradients never share memory with it."""
        if work is None:
            work = _MlpWork(Xs, codes, self.w1.shape[1])
        hidden, delta_out = self._forward(Xs, work.hidden, work.logits)
        loss = -np.mean(np.log(delta_out.take(work.targets) + 1e-300))
        # from here on the buffers of probs and hidden hold the deltas
        delta_out -= work.onehot
        delta_out /= Xs.shape[0]
        gw2 = hidden.T @ delta_out
        gb2 = np.einsum("ij->j", delta_out)
        delta_hidden = np.matmul(delta_out, self.w2.T, out=work.delta_hidden)
        delta_hidden *= hidden
        delta_hidden *= np.subtract(1.0, hidden, out=hidden)
        gw1 = work.XT @ delta_hidden
        gb1 = np.einsum("ij->j", delta_hidden)
        return loss, (gw1, gb1, gw2, gb2)

    def loss(self, Xs, codes):
        return self.loss_and_gradients(Xs, codes)[0]

    def _predict(self, Xs) -> list:
        _, probs = self._forward(Xs)
        return _danger_argmax(probs, CLASS_ORDER)


@dataclass(frozen=True)
class MlpConvergence:
    """How a fit ended: the training loss at the returned weights, the
    number of rate halvings and the rate of the last step."""
    loss: float
    halvings: int
    rate: float


def train_mlp(data: LabeledDataset, hidden_units: int = 32, learning_rate: float = 0.5,
              epochs: int = 300, seed: int = 0) -> MlpModel:
    """Full-batch gradient descent with a halving step control.

    Weights and biases start from a uniform(-0.5, 0.5) draw seeded by
    `seed`, and the first step's rate is `learning_rate`.  Each epoch
    takes one descent step; if the step would increase the loss the rate
    is halved (persistently) until the step no longer hurts.  Once the
    rate is at or below 1e-12 the step is taken even if the loss rises, so
    the training loss is non-increasing only while the rate stays above
    that floor.  Each candidate step is evaluated once, loss and gradients
    together, and an accepted candidate keeps both, so a fit costs
    1 + epochs + halvings forward passes.  The returned model's
    `convergence` holds the final loss, the halvings and the final rate.

    The passes share one _MlpWork, built once per fit: the z-scored rows
    transposed into contiguous memory, each row's flat index at its true
    class into the rows x 4 probabilities, the one-hot matrix of the
    classes, and the arrays each pass overwrites (the hidden layer, the
    logits and the hidden delta).  A pass sweeps those arrays fewer times
    than the plain formulas would, and these identities keep every weight
    bit for bit what the plain formulas give:
    - Xs @ (-w1) + (-b1) is -(Xs @ w1 + b1): negation is exact and rounding
      symmetric, so no sweep negates the hidden layer.
    - Of the clip only the bound at 500 is kept: 1 + exp(t) is 1.0 for
      every t <= -500.
    - The softmax's row maxima are exact in any order, and adding the
      rows of its classes x rows copy gives ((e0 + e1) + e2) + e3, the
      order of sum(axis=1) over 4 columns.
    - take() at the flat indices gathers what probs[rows, codes] does, and
      subtracting the one-hot matrix subtracts 1.0 or 0.0 exactly.
    - einsum('ij->j') adds each column's rows in the order sum(axis=0)
      does (numpy 2.4), without its loop per row.
    - The contiguous transpose times the hidden delta is the product
      Xs.T @ delta at the same OpenBLAS thread count.
    """
    if hidden_units < 1 or epochs < 1:
        raise ValueError("hidden_units and epochs must be >= 1")
    if not 0 < learning_rate < np.inf:  # False for NaN too
        raise ValueError(f"learning_rate must be finite and positive, got {learning_rate}")
    if len(set(data.y)) < 2:
        raise ValueError("training data must contain at least 2 classes")
    mean, std, Xs = _fit_standardizer(data.X)
    codes = _codes(data.y)
    dim, hidden, n_out = Xs.shape[1], hidden_units, len(CLASS_ORDER)
    rng = np.random.default_rng(seed)
    model = MlpModel(mean, std,
                     rng.uniform(-0.5, 0.5, (dim, hidden)),
                     rng.uniform(-0.5, 0.5, hidden),
                     rng.uniform(-0.5, 0.5, (hidden, n_out)),
                     rng.uniform(-0.5, 0.5, n_out))
    rate, halvings = learning_rate, 0
    work = _MlpWork(Xs, codes, hidden)
    loss, grads = model.loss_and_gradients(Xs, codes, work)
    for _ in range(epochs):
        while True:
            candidate = MlpModel(mean, std,
                                 model.w1 - rate * grads[0], model.b1 - rate * grads[1],
                                 model.w2 - rate * grads[2], model.b2 - rate * grads[3])
            candidate_loss, candidate_grads = candidate.loss_and_gradients(Xs, codes, work)
            if candidate_loss <= loss or rate <= 1e-12:
                break
            rate *= 0.5
            halvings += 1
        model, loss, grads = candidate, candidate_loss, candidate_grads
    model.convergence = MlpConvergence(float(loss), halvings, rate)
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
    _FIELDS = (("k", _positive_int, None), ("mean", _VECTOR, ("d",)),
               ("std", _POSITIVE_VECTOR, ("d",)),
               ("Xs", _Z_MATRIX, ("n", "d")), ("labels", _classes, ("n",)))

    _QUERY_BLOCK = 256  # a 256 x 7,000 distance block is 14 MB
    _MARGIN = 1e-9

    def __init__(self, *fields):
        super().__init__(*fields)
        self._codes = _codes(self.labels)
        self._sq_norms = (self.Xs ** 2).sum(axis=1)
        self._max_norm = float(np.sqrt(self._sq_norms.max()))

    @classmethod
    def _mismatch(cls, fields: dict):
        mismatch = super()._mismatch(fields)
        rows = len(fields["labels"])
        if mismatch is None and fields["k"] > rows:
            mismatch = "k", f"must be at most the {rows} training rows, got {fields['k']}"
        return mismatch

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
                out.append(self._vote(q, np.flatnonzero(row <= limit)))
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
    _FIELDS = (("mean", _VECTOR, ("d",)), ("std", _POSITIVE_VECTOR, ("d",)),
               ("classes", _classes, ("c",)), ("class_means", _Z_MATRIX, ("c", "d")),
               ("class_vars", _VARIANCES, ("c", "d")), ("log_priors", _VECTOR, ("c",)))

    def log_posteriors(self, Xs):
        out = np.empty((Xs.shape[0], len(self.classes)))
        for i in range(len(self.classes)):
            mu, var = self.class_means[i], self.class_vars[i]
            ll = -0.5 * (np.log(2.0 * np.pi * var) + (Xs - mu) ** 2 / var).sum(axis=1)
            out[:, i] = self.log_priors[i] + ll
        return out

    def _predict(self, Xs) -> list:
        return _danger_argmax(self.log_posteriors(Xs), self.classes, tolerance=1e-9)


def train_gnb(data: LabeledDataset) -> GnbModel:
    """Per-class per-dimension Gaussians (MLE variance, floored) + count priors."""
    mean, std, Xs = _fit_standardizer(data.X)
    codes = _codes(data.y)
    present = [c for i, c in enumerate(CLASS_ORDER) if np.any(codes == i)]
    means, variances, priors = [], [], []
    for c in present:
        rows = Xs[codes == CLASS_ORDER.index(c)]
        if rows.shape[0] < 2:
            raise ValueError(f"class {c.value} needs >= 2 samples for a variance")
        means.append(rows.mean(axis=0))
        variances.append(np.maximum(rows.var(axis=0), _VAR_FLOOR))
        priors.append(np.log(rows.shape[0] / Xs.shape[0]))
    return GnbModel(mean, std, present, np.array(means), np.array(variances), np.array(priors))


# ---------------------------------------------------------------------------
# Decision tree

def _tree_from_dict(doc) -> dict:
    """A tree as its file holds it, rebuilt with only these keys in this order:
    a leaf is {"label": <class name>}, a split {"feature": <column>,
    "threshold": <number>, "left": <node>, "right": <node>}."""
    if not isinstance(doc, dict):
        raise ValueError(f"tree nodes must be objects, got {doc!r}")
    if "label" in doc:
        return {"label": SoundClass(doc["label"]).value}
    feature, threshold = doc["feature"], doc["threshold"]
    if isinstance(feature, bool) or not isinstance(feature, int) or feature < 0:
        raise ValueError(f"a split's feature must be a column index, got {feature!r}")
    if (isinstance(threshold, bool) or not isinstance(threshold, (int, float))
            or not math.isfinite(threshold)):
        raise ValueError(f"a split's threshold must be a finite number, got {threshold!r}")
    return {"feature": feature, "threshold": threshold,
            "left": _tree_from_dict(doc["left"]), "right": _tree_from_dict(doc["right"])}


def _best_split(Xs: np.ndarray, codes: np.ndarray):
    """Exhaustive (feature, threshold) search maximizing Gini decrease.

    Ties resolve to the lowest feature index, then the lowest threshold.
    Returns None when no split separates anything.
    """
    n, dim = Xs.shape
    total = np.bincount(codes, minlength=len(CLASS_ORDER)).astype(np.float64)
    # the node's Gini impurity; _grow never splits an empty node
    parent = float(1.0 - ((total / n) ** 2).sum())
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


def _grow(Xs, codes, depth, max_depth) -> dict:
    counts = np.bincount(codes, minlength=len(CLASS_ORDER))
    top = counts.max()
    majority = most_dangerous([CLASS_ORDER[i] for i in np.flatnonzero(counts == top)])
    if depth >= max_depth or top == len(codes):
        return {"label": majority.value}
    split = _best_split(Xs, codes)
    if split is None:
        return {"label": majority.value}
    _, f, threshold = split
    mask = Xs[:, f] <= threshold
    return {"feature": f, "threshold": threshold,
            "left": _grow(Xs[mask], codes[mask], depth + 1, max_depth),
            "right": _grow(Xs[~mask], codes[~mask], depth + 1, max_depth)}


class DtModel(_Model):
    kind = "dt"
    _FIELDS = (("mean", _VECTOR, ("d",)), ("std", _POSITIVE_VECTOR, ("d",)),
               ("tree", _tree_from_dict, None))

    @classmethod
    def _mismatch(cls, fields: dict):
        mismatch = super()._mismatch(fields)
        width = len(fields["mean"])
        pending = [fields["tree"]]
        while pending and mismatch is None:
            node = pending.pop()
            if "label" not in node:
                if node["feature"] >= width:
                    mismatch = ("tree",
                                f"a split's feature {node['feature']} is not one of {width} columns")
                pending += [node["left"], node["right"]]
        return mismatch

    def _predict(self, Xs) -> list:
        """Send arrays of row indices down the tree: at each split the rows
        with value <= threshold go left, the rest right; a leaf labels its rows."""
        out = np.empty(len(Xs), dtype=object)
        pending = [(self.tree, np.arange(len(Xs)))]
        while pending:
            node, rows = pending.pop()
            if "label" in node:
                out[rows] = SoundClass(node["label"])
            elif len(rows):
                left = Xs[rows, node["feature"]] <= node["threshold"]
                pending += [(node["left"], rows[left]), (node["right"], rows[~left])]
        return out.tolist()


def train_dt(data: LabeledDataset, max_depth: int = 10) -> DtModel:
    # a model file nested about 990 levels deep exhausts the JSON reader's recursion
    if not 1 <= max_depth <= 500:
        raise ValueError(f"max_depth must be in 1..500, got {max_depth}")
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
    n, k = len(y_true), len(CLASS_ORDER)
    confusion = np.bincount(_codes(y_true) * k + _codes(y_pred), minlength=k * k).reshape(k, k)
    per_class = {}
    for i, c in enumerate(CLASS_ORDER):
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
    if folds < 2:
        raise ValueError(f"folds must be at least 2, got {folds}")
    codes = _codes(labels)
    assignment = np.empty(len(codes), dtype=np.intp)
    rng = np.random.default_rng(seed)
    for i, c in enumerate(CLASS_ORDER):
        members = np.flatnonzero(codes == i)
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
    """data -> fitted model for classifier `name`; `params` go to its trainer
    as keyword arguments, and `seed` to the MLP's.  The trainer holds their
    defaults and refuses a value out of range at the first fit."""
    if name not in CLASSIFIERS:
        raise ValueError(f"unknown classifier {name!r}")
    spec = CLASSIFIERS[name]
    for key in params:
        if key not in spec.params:
            raise ValueError(f"classifier {name!r} takes no parameter {key!r}")
    if name == "mlp":
        params = {**params, "seed": seed}
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

def save_model(path, model, feature_set: str = "all", mfcc_cfg: MfccConfig = MfccConfig(),
               lpc_cfg: LpcConfig = LpcConfig()) -> None:
    """JSON persistence, with the `meta` that records what the model was trained on;
    floats round-trip exactly through repr, and a non-finite one is a ValueError."""
    doc = {"format": "roadwarn-model", "version": 1, **model.to_dict(), "meta": {
        "feature_set": feature_set, "mfcc": asdict(mfcc_cfg), "lpc": asdict(lpc_cfg)}}
    text = json.dumps(doc, allow_nan=False)  # before the file is opened
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _read_doc(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValueError(f"{path}: not a roadwarn model file ({exc})") from None
        except RecursionError:
            raise ValueError(f"{path}: not a roadwarn model file (nested too deep)") from None
    if not (isinstance(doc, dict) and doc.get("format") == "roadwarn-model"
            and doc.get("version") == 1):
        raise ValueError(f"{path}: not a roadwarn model file")
    return doc


def _model_of(doc: dict, path):
    kind = doc.get("kind")
    if kind == "gnb":  # Naive Bayes files saved before the kind took the CLI name
        kind = "nb"
    if not isinstance(kind, str) or kind not in CLASSIFIERS:
        raise ValueError(f"{path}: unknown model kind {kind!r}")
    return CLASSIFIERS[kind].model.from_dict(doc, path)


def _meta_of(doc: dict, path) -> tuple:
    """(meta, feature_set, [features] settings) of a model file, once every
    check of `meta` holds.  A key `meta` lacks reads as its default: "all",
    or the field of the default MfccConfig/LpcConfig."""
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: field 'meta' must be an object, got {meta!r}")
    feature_set = meta.get("feature_set", "all")
    if not isinstance(feature_set, str) or feature_set not in FEATURE_SETS:
        raise ValueError(f"{path}: meta feature_set must be one of {', '.join(FEATURE_SETS)}, "
                         f"got {feature_set!r}")
    for key in ("mfcc", "lpc"):
        if not isinstance(meta.get(key, {}), dict):
            raise ValueError(f"{path}: meta {key} must be an object, got {meta[key]!r}")
    try:
        configs = MfccConfig(**meta.get("mfcc", {})), LpcConfig(**meta.get("lpc", {}))
    except (TypeError, ValueError) as exc:  # an unknown key, or a value of the wrong type
        raise ValueError(f"{path}: meta mfcc/lpc: {exc}") from None
    return meta, feature_set, settings_of(*configs)


def load_model(path):
    return _model_of(_read_doc(path), path)


def load_model_meta(path) -> dict:
    """The `meta` object of a model file, as recorded, once `_meta_of` checked it."""
    return _meta_of(_read_doc(path), path)[0]


def load_model_and_meta(path) -> tuple:
    """(model, feature_set, complete [features] settings) of a model file, read once."""
    doc = _read_doc(path)
    return (_model_of(doc, path), *_meta_of(doc, path)[1:])
