"""In-repo supervised learners.

These back the iterative imputers, the dependency graphs, and the
detectability audit: ridge regression, CART regression trees, bagged forests,
and gradient-boosted trees with squared or logistic loss.  They are written
against plain float64 matrices with no missing cells; callers are responsible
for completing the data first.

Split thresholds always sit exactly on an observed value with a `<=`
comparison, so tree predictions are invariant under strictly increasing
transforms of a predictor applied identically at fit and predict time.  All
tie-breaking is deterministic (lowest feature index, then lowest threshold)
and every stochastic choice flows from an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidArgument

_MAX_DEPTH_CAP = 64  # stands in for "unlimited"


def _as_matrix(Xm) -> np.ndarray:
    X = np.asarray(Xm, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InvalidArgument("design matrix must be 1- or 2-dimensional")
    return X


def _check_complete(X: np.ndarray, y: np.ndarray) -> None:
    if X.shape[0] == 0:
        raise DegenerateInput("no training rows")
    if X.shape[0] != y.shape[0]:
        raise InvalidArgument("X and y row counts differ")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise InvalidArgument("estimators require complete, finite data")


# ---------------------------------------------------------------------------
# ridge regression


@dataclass(frozen=True)
class RidgeModel:
    weights: np.ndarray
    intercept: float
    reg_strength: float

    def to_jsonable(self) -> dict:
        return {
            "type": "ridge",
            "weights": self.weights.tolist(),
            "intercept": self.intercept,
            "reg_strength": self.reg_strength,
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "RidgeModel":
        return cls(
            np.asarray(d["weights"], dtype=float),
            float(d["intercept"]),
            float(d["reg_strength"]),
        )


def ridge_fit(Xm, y, reg: float = 1.0) -> RidgeModel:
    """L2-regularized least squares on centered data.

    Solves (Xc'Xc + reg*I) w = Xc'y; the intercept comes from the column
    means, so the penalty never shrinks it.
    """
    X = _as_matrix(Xm)
    y = np.asarray(y, dtype=float)
    _check_complete(X, y)
    if reg < 0:
        raise InvalidArgument("reg must be non-negative")
    xm = X.mean(axis=0)
    ym = float(y.mean())
    Xc = X - xm
    yc = y - ym
    A = Xc.T @ Xc + reg * np.eye(X.shape[1])
    b = Xc.T @ yc
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        w = np.linalg.lstsq(A, b, rcond=None)[0]
    return RidgeModel(w, ym - float(xm @ w), reg)


def ridge_predict(model: RidgeModel, Xm) -> np.ndarray:
    X = _as_matrix(Xm)
    return X @ model.weights + model.intercept


# ---------------------------------------------------------------------------
# CART regression trees (flat-array representation)


@dataclass(frozen=True)
class TreeModel:
    """Binary tree in parallel arrays; feature == -1 marks a leaf."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def to_jsonable(self) -> dict:
        return {
            "type": "tree",
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "TreeModel":
        return cls(
            np.asarray(d["feature"], dtype=np.int64),
            np.asarray(d["threshold"], dtype=float),
            np.asarray(d["left"], dtype=np.int64),
            np.asarray(d["right"], dtype=np.int64),
            np.asarray(d["value"], dtype=float),
        )


class _TreeBuilder:
    """Grows one regression tree depth-first.

    Splits minimize squared error of the response; with a hessian array the
    leaf values become Newton steps (sum of residuals over sum of hessians)
    while the split search still runs on the residuals.  Each node searches
    all its candidate features in one block: a stable argsort per feature
    row, running sums of the response in that order, and the gain of every
    threshold that separates distinct values.
    """

    def __init__(self, max_depth, rng=None, mtry=None):
        self.max_depth = _MAX_DEPTH_CAP if max_depth is None else max_depth
        self.rng = rng
        self.mtry = mtry

    def build(self, X, y, hess=None):
        """The tree, and the leaf value of each training row."""
        XT = np.ascontiguousarray(X.T)
        # left-child sizes 1..n-1 of any node; reversed they are n-k
        ks = np.arange(1.0, X.shape[0])
        feature, threshold, left, right, value = [-1], [0.0], [-1], [-1], [0.0]
        row_value = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]), 0)]
        while stack:
            node, idx, depth = stack.pop()
            ysub = y[idx]
            split = None
            if depth < self.max_depth and ysub.max() != ysub.min():
                split = self._best_split(XT, ysub, idx, ks)
            if split is None:
                if hess is None:
                    v = float(ysub.sum()) / idx.size
                else:
                    v = float(ysub.sum()) / max(float(hess[idx].sum()), 1e-12)
                value[node] = v
                row_value[idx] = v
                continue
            feat, thr, left_idx, right_idx = split
            feature[node] = feat
            threshold[node] = thr
            # children are numbered left then right and the left subtree is
            # grown first, so node numbering and the forest's per-node feature
            # draws follow a fixed order regardless of data
            left[node] = len(feature)
            right[node] = len(feature) + 1
            feature += [-1, -1]
            threshold += [0.0, 0.0]
            left += [-1, -1]
            right += [-1, -1]
            value += [0.0, 0.0]
            stack.append((right[node], right_idx, depth + 1))
            stack.append((left[node], left_idx, depth + 1))
        tree = TreeModel(
            np.asarray(feature, dtype=np.int64),
            np.asarray(threshold, dtype=float),
            np.asarray(left, dtype=np.int64),
            np.asarray(right, dtype=np.int64),
            np.asarray(value, dtype=float),
        )
        return tree, row_value

    def _candidate_features(self, p):
        if self.mtry is None or self.mtry >= p:
            return np.arange(p)
        return np.sort(self.rng.choice(p, size=self.mtry, replace=False))

    def _best_split(self, XT, ysub, idx, ks):
        """(feature, threshold, left rows, right rows), or None.

        Within a feature the first maximal gain (lowest threshold) wins;
        across features a later one wins only when strictly better by 1e-12.
        """
        total = ysub.sum()
        n = idx.size
        base = total * total / n
        fs = self._candidate_features(XT.shape[0])
        rows = np.arange(fs.size)[:, None]
        xs = XT[fs[:, None], idx]
        order = xs.argsort(axis=1, kind="stable")
        xv = xs[rows, order]
        csum = ysub[order].cumsum(axis=1)[:, :-1]
        rest = total - csum
        gains = np.square(csum, out=csum)
        gains /= ks[: n - 1]
        np.square(rest, out=rest)
        rest /= ks[n - 2 :: -1]
        gains += rest
        gains[xv[:, 1:] == xv[:, :-1]] = -np.inf
        best, best_gain = -1, -np.inf
        for j, gain in enumerate((gains.max(axis=1) - base).tolist()):
            if gain > best_gain + 1e-12:
                best, best_gain = j, gain
        if best < 0:
            return None
        thr = float(xv[best, gains[best].argmax()])
        go_left = xs[best] <= thr
        return int(fs[best]), thr, idx[go_left], idx[~go_left]


def tree_fit(Xm, y, max_depth=None) -> TreeModel:
    X = _as_matrix(Xm)
    y = np.asarray(y, dtype=float)
    _check_complete(X, y)
    return _TreeBuilder(max_depth).build(X, y)[0]


# (tree, row) cells that one traversal pass moves at most; a larger walk runs
# in blocks of this many cells, which bounds its index and mask arrays
_WALK_CELLS = 4096


def _leaf_values(trees, X: np.ndarray) -> np.ndarray:
    """The leaf value that each row of `X` reaches in each tree, as a
    (len(trees), rows) array.

    The trees are laid end to end (their arrays concatenated, child links
    shifted to the concatenated numbering), and every (tree, row) cell steps
    down one level per pass, so a walk takes as many passes as its deepest
    path rather than the sum of the trees' depths.
    """
    n, p = X.shape
    out = np.empty(len(trees) * n)
    if out.size == 0:
        return out.reshape(len(trees), n)
    sizes = [t.feature.size for t in trees]
    root = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(root, sizes)
    feature = np.concatenate([t.feature for t in trees])
    if feature.max() >= p:
        # the flat walk below would read another row's cell
        raise InvalidArgument(
            f"model reads column {feature.max()} of a {p}-column matrix")
    leaf = feature < 0
    # each node's children as the pair (right, left), so that
    # `2 * node + (x <= threshold)` picks the child; a leaf is its own child
    # on both sides (and reads column 0, which it ignores), so it stays put
    # while deeper cells are still walking
    child = np.column_stack([np.concatenate([t.right for t in trees]),
                             np.concatenate([t.left for t in trees])])
    child += shift[:, None]
    child[leaf] = np.flatnonzero(leaf)[:, None]
    child = child.ravel()
    feature = np.maximum(feature, 0)
    threshold = np.concatenate([t.threshold for t in trees])
    value = np.concatenate([t.value for t in trees])
    Xf = np.ascontiguousarray(X).ravel()
    for start in range(0, out.size, _WALK_CELLS):
        stop = min(start + _WALK_CELLS, out.size)
        tree, row = np.divmod(np.arange(start, stop), n)
        node = root[tree]
        base = row * p
        while not leaf[node].all():
            go_left = Xf[base + feature[node]] <= threshold[node]
            node = child[2 * node + go_left]
        out[start:stop] = value[node]
    return out.reshape(len(trees), n)


def tree_predict(model: TreeModel, Xm) -> np.ndarray:
    return _leaf_values((model,), _as_matrix(Xm))[0]


# ---------------------------------------------------------------------------
# random forest


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[TreeModel, ...]
    max_depth: int | None
    seed: int

    def to_jsonable(self) -> dict:
        return {
            "type": "forest",
            "trees": [t.to_jsonable() for t in self.trees],
            "max_depth": self.max_depth,
            "seed": self.seed,
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "ForestModel":
        return cls(
            tuple(TreeModel.from_jsonable(t) for t in d["trees"]),
            d["max_depth"],
            int(d["seed"]),
        )


def forest_fit(
    Xm,
    y,
    n_estimators: int = 100,
    max_depth=None,
    seed: int = 0,
    bootstrap: bool = True,
    mtry: int | None = None,
) -> ForestModel:
    """Bagged CART trees with per-split feature subsampling.

    mtry defaults to ceil(p / 3) as is usual for regression forests.
    """
    X = _as_matrix(Xm)
    y = np.asarray(y, dtype=float)
    _check_complete(X, y)
    if n_estimators < 1:
        raise InvalidArgument("n_estimators must be >= 1")
    p = X.shape[1]
    if mtry is None:
        mtry = max(1, math.ceil(p / 3))
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_estimators):
        idx = rng.integers(0, X.shape[0], X.shape[0]) if bootstrap else None
        Xb = X if idx is None else X[idx]
        yb = y if idx is None else y[idx]
        builder = _TreeBuilder(max_depth, rng=rng, mtry=mtry)
        trees.append(builder.build(Xb, yb)[0])
    return ForestModel(tuple(trees), max_depth, seed)


def forest_predict(model: ForestModel, Xm) -> np.ndarray:
    X = _as_matrix(Xm)
    out = np.zeros(X.shape[0])
    for v in _leaf_values(model.trees, X):
        out += v
    return out / len(model.trees)


# ---------------------------------------------------------------------------
# gradient-boosted trees

_LOSSES = ("squared", "logistic")


@dataclass(frozen=True)
class GbtModel:
    trees: tuple[TreeModel, ...]
    base_score: float
    learning_rate: float
    loss: str
    max_depth: int | None
    seed: int

    def to_jsonable(self) -> dict:
        return {
            "type": "gbt",
            "trees": [t.to_jsonable() for t in self.trees],
            "base_score": self.base_score,
            "learning_rate": self.learning_rate,
            "loss": self.loss,
            "max_depth": self.max_depth,
            "seed": self.seed,
        }

    @classmethod
    def from_jsonable(cls, d: dict) -> "GbtModel":
        return cls(
            tuple(TreeModel.from_jsonable(t) for t in d["trees"]),
            float(d["base_score"]),
            float(d["learning_rate"]),
            d["loss"],
            d["max_depth"],
            int(d["seed"]),
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_grad_hess(y: np.ndarray, margin: np.ndarray):
    """Gradient and hessian of the log-loss wrt the margin."""
    p = _sigmoid(margin)
    return p - y, p * (1.0 - p)


def gbt_fit(
    Xm,
    y,
    n_estimators: int = 100,
    max_depth: int | None = 6,
    learning_rate: float = 0.1,
    loss: str = "squared",
    seed: int = 0,
) -> GbtModel:
    """Stagewise boosting on negative gradients.

    Squared loss fits plain residuals with mean-valued leaves; logistic loss
    fits (y - p) with Newton leaf values sum(r)/sum(p(1-p)) and a log-odds
    base score.  learning_rate 0 degenerates to the constant base score.
    Every round fits all rows and all columns, so the fit draws no random
    numbers: `seed` is recorded in the model, never drawn from, and two
    seeds give the same trees.
    """
    X = _as_matrix(Xm)
    y = np.asarray(y, dtype=float)
    _check_complete(X, y)
    if loss not in _LOSSES:
        raise InvalidArgument(f"loss must be one of {_LOSSES}, got {loss!r}")
    if n_estimators < 0:
        raise InvalidArgument("n_estimators must be >= 0")
    if loss == "logistic":
        uniq = np.unique(y)
        if not np.isin(uniq, (0.0, 1.0)).all():
            raise InvalidArgument("logistic loss expects targets in {0, 1}")
        pbar = min(max(float(y.mean()), 1e-6), 1.0 - 1e-6)
        base = math.log(pbar / (1.0 - pbar))
    else:
        base = float(y.mean())

    margin = np.full(X.shape[0], base)
    trees = []
    if learning_rate != 0.0:
        for _ in range(n_estimators):
            if loss == "logistic":
                grad, hess = logistic_grad_hess(y, margin)
                resid = -grad
            else:
                resid = y - margin
                hess = None
            tree, fitted = _TreeBuilder(max_depth).build(X, resid, hess=hess)
            margin = margin + learning_rate * fitted
            trees.append(tree)
    return GbtModel(tuple(trees), base, learning_rate, loss, max_depth, seed)


def gbt_raw_score(model: GbtModel, Xm) -> np.ndarray:
    X = _as_matrix(Xm)
    out = np.full(X.shape[0], model.base_score)
    if model.learning_rate != 0.0:
        for v in model.learning_rate * _leaf_values(model.trees, X):
            out += v
    return out


def gbt_predict(model: GbtModel, Xm) -> np.ndarray:
    """Regression values for squared loss, 0/1 labels for logistic."""
    raw = gbt_raw_score(model, Xm)
    if model.loss == "logistic":
        return (raw >= 0.0).astype(float)
    return raw


def gbt_predict_proba(model: GbtModel, Xm) -> np.ndarray:
    if model.loss != "logistic":
        raise InvalidArgument("probabilities only defined for logistic loss")
    return _sigmoid(gbt_raw_score(model, Xm))


MODEL_TYPES = {
    "ridge": RidgeModel,
    "tree": TreeModel,
    "forest": ForestModel,
    "gbt": GbtModel,
}


def model_from_jsonable(d: dict):
    kind = d.get("type")
    if kind not in MODEL_TYPES:
        raise InvalidArgument(f"unknown model type {kind!r}")
    return MODEL_TYPES[kind].from_jsonable(d)


def model_predict(model, Xm) -> np.ndarray:
    if isinstance(model, RidgeModel):
        return ridge_predict(model, Xm)
    if isinstance(model, TreeModel):
        return tree_predict(model, Xm)
    if isinstance(model, ForestModel):
        return forest_predict(model, Xm)
    if isinstance(model, GbtModel):
        return gbt_predict(model, Xm)
    raise InvalidArgument(f"not a model: {type(model).__name__}")


# ---------------------------------------------------------------------------
# permutation importance


def permutation_importance(
    predict, Xm_test, y_test, scorer, seed: int = 0, n_repeats: int = 5
) -> np.ndarray:
    """Mean score drop when each column is shuffled, one column at a time.

    `predict` is any fitted-model prediction callable; `scorer(y, yhat)` must
    be higher-is-better.  Deterministic per seed.
    """
    X = _as_matrix(Xm_test)
    y = np.asarray(y_test, dtype=float)
    if n_repeats < 1:
        raise InvalidArgument("n_repeats must be >= 1")
    rng = np.random.default_rng(seed)
    baseline = scorer(y, predict(X))
    importances = np.zeros(X.shape[1])
    for f in range(X.shape[1]):
        drop = 0.0
        for _ in range(n_repeats):
            Xp = X.copy()
            Xp[:, f] = Xp[rng.permutation(X.shape[0]), f]
            drop += baseline - scorer(y, predict(Xp))
        importances[f] = drop / n_repeats
    return importances
