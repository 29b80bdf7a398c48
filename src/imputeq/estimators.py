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
import numbers
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


def _is_integer(v, lo: int) -> bool:
    """An integer (a numpy one too, not a bool) of at least `lo`."""
    return (isinstance(v, numbers.Integral) and not isinstance(v, bool)
            and v >= lo)


def _check_tree_params(max_depth=None, mtry=None) -> None:
    for name, v in (("max_depth", max_depth), ("mtry", mtry)):
        if not (v is None or _is_integer(v, 1)):
            raise InvalidArgument(
                f"{name} must be None or an integer >= 1, got {v!r}")


def _check_n_estimators(n_estimators, lo: int) -> None:
    if not _is_integer(n_estimators, lo):
        raise InvalidArgument(
            f"n_estimators must be an integer >= {lo}, got {n_estimators!r}")


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


# a node whose candidate features times rows is below this is searched in
# plain Python floats, and so is its whole subtree: below it a split costs
# less in Python than numpy's per-call overhead (about 25 calls per split)
_PLAIN_CELLS = 128


class _TreeBuilder:
    """Grows one regression tree depth-first.

    Splits minimize squared error of the response; with a hessian array the
    leaf values become Newton steps (sum of residuals over sum of hessians)
    while the split search still runs on the residuals.  A large node
    searches all its candidate features in one numpy block: a stable argsort
    per feature row, running sums of the response in that order, and the
    gain of every threshold that separates distinct values.  A small node
    (see `_PLAIN_CELLS`) runs the same search, operation for operation, in
    plain Python floats, so both give the same tree bit for bit.
    """

    def __init__(self, max_depth, rng=None, mtry=None):
        self.max_depth = _MAX_DEPTH_CAP if max_depth is None else max_depth
        self.rng = rng
        self.mtry = mtry

    def build(self, X, y, hess=None):
        """The tree, and the leaf value of each training row."""
        n, p = X.shape
        XT = np.ascontiguousarray(X.T)
        # left-child sizes 1..n-1 of any node; reversed they are n-k
        ks = np.arange(1.0, n)
        n_candidates = p if self.mtry is None else min(self.mtry, p)
        nodes = ([-1], [0.0], [-1], [-1], [0.0])
        value = nodes[4]
        row_value = np.empty(n)
        stack = [(0, np.arange(n), 0)]
        while stack:
            node, idx, depth = stack.pop()
            if idx.size * n_candidates < _PLAIN_CELLS:
                # the whole subtree now, which is the order the stack would
                # grow it in
                row_value[idx] = self._grow_plain(
                    nodes, node, depth, XT[:, idx].tolist(), y[idx].tolist(),
                    None if hess is None else hess[idx].tolist())
                continue
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
            left, right = _add_children(nodes, node, *split[:2])
            stack.append((right, split[3], depth + 1))
            stack.append((left, split[2], depth + 1))
        feature, threshold, left, right, value = nodes
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

    def _grow_plain(self, nodes, root, depth, cols, y, hess):
        """Grow the subtree at `root` from the node's own rows: `cols` holds
        each feature's values and `y` (and `hess`) the responses, as lists.
        Gives the leaf value of each of those rows."""
        value = nodes[4]
        row_value = [0.0] * len(y)
        stack = [(root, list(range(len(y))), depth)]
        while stack:
            node, rows, depth = stack.pop()
            ys = [y[i] for i in rows]
            total = _float_sum(ys)
            split = None
            if depth < self.max_depth and max(ys) != min(ys):
                split = self._plain_split(cols, y, rows, total)
            if split is None:
                if hess is None:
                    v = total / len(rows)
                else:
                    v = total / max(_float_sum([hess[i] for i in rows]), 1e-12)
                value[node] = v
                for i in rows:
                    row_value[i] = v
                continue
            left, right = _add_children(nodes, node, *split[:2])
            stack.append((right, split[3], depth + 1))
            stack.append((left, split[2], depth + 1))
        return row_value

    def _plain_split(self, cols, y, rows, total):
        """`_best_split` of the node `rows` (ascending) in Python floats,
        with the same operations in the same order: a stable sort, running
        sums, gains c*c/k + r*r/(n-k) and the first maximal threshold.

        Where numpy's max meets a NaN gain, this one may skip it, but no
        such feature can win either way: a NaN gain needs a NaN or infinite
        total, which makes `base` NaN or inf.  Likewise a NaN response,
        which Python's max and min may miss, ends in a leaf either way; it
        arises only in boosting, which draws no features."""
        n = len(rows)
        base = total * total / n
        best, best_gain, best_thr = -1, -math.inf, 0.0
        for f in self._candidate_features(len(cols)).tolist():
            col = cols[f]
            order = sorted(rows, key=col.__getitem__)
            # c is the sum of the first k responses; started at 0.0, not at
            # the first response, it can differ only in the sign of a zero,
            # which the squares below drop
            c, prev = 0.0, col[order[0]]
            top, thr = -math.inf, 0.0
            for k, i in enumerate(order):
                x = col[i]
                if x != prev:
                    r = total - c
                    g = c * c / k + r * r / (n - k)
                    if g > top:
                        top, thr = g, prev
                c += y[i]
                prev = x
            gain = top - base
            if gain > best_gain + 1e-12:
                best, best_gain, best_thr = f, gain, thr
        if best < 0:
            return None
        col = cols[best]
        return (best, best_thr, [i for i in rows if col[i] <= best_thr],
                [i for i in rows if not col[i] <= best_thr])


def _add_children(nodes, node, feat, thr):
    """Split `node` on (feat, thr) and append its two leaf children, left
    then right; gives their numbers.  Children are numbered left then right
    and the left subtree is grown first, so node numbering and the forest's
    per-node feature draws follow a fixed order regardless of data."""
    feature, threshold, left, right, value = nodes
    feature[node] = feat
    threshold[node] = thr
    left[node], right[node] = len(feature), len(feature) + 1
    feature += [-1, -1]
    threshold += [0.0, 0.0]
    left += [-1, -1]
    right += [-1, -1]
    value += [0.0, 0.0]
    return left[node], right[node]


def _running_sum(terms: list):
    """terms[0] + terms[1] + ..., left to right: a fresh array (for array
    terms) unless `terms` has one member."""
    if len(terms) == 1:
        return terms[0]
    out = terms[0] + terms[1]
    for a in terms[2:]:
        out += a
    return out


def _pairwise_sum(terms: list):
    """The sum of `terms` (floats, or arrays summed elementwise) in numpy's
    pairwise order for a sum of len(terms) values: a running sum below 8,
    eight running accumulators up to 128, and halves cut at a multiple of 8
    above.  An array result is fresh, unless `terms` has one member; at
    most four (plus one per halving) arrays of its size are alive."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        out = _pairwise_sum(terms[:half])
        out += _pairwise_sum(terms[half:])
        return out
    if n < 8:
        return _running_sum(terms)
    m = n - n % 8

    def pair(i):  # accumulators i and i + 1, added
        a, b = _running_sum(terms[i:m:8]), _running_sum(terms[i + 1:m:8])
        if m > 8:  # `a` is fresh
            a += b
            return a
        return a + b

    out = pair(0)
    out += pair(2)
    right = pair(4)
    right += pair(6)
    out += right
    for a in terms[m:]:
        out += a
    return out


def _float_sum(values: list) -> float:
    """`np.sum(values)` bit for bit: numpy's pairwise order, and numpy's
    own sign for a zero total (all terms -0.0), where numpy versions may
    differ."""
    s = _pairwise_sum(values)
    return s if s != 0.0 else float(np.sum(values))


def tree_fit(Xm, y, max_depth=None) -> TreeModel:
    X = _as_matrix(Xm)
    y = np.asarray(y, dtype=float)
    _check_complete(X, y)
    _check_tree_params(max_depth)
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
    _check_n_estimators(n_estimators, 1)
    _check_tree_params(max_depth, mtry)
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
    _check_n_estimators(n_estimators, 0)
    _check_tree_params(max_depth)
    if not (isinstance(learning_rate, numbers.Real)
            and not isinstance(learning_rate, bool)
            and 0.0 <= learning_rate < math.inf):
        raise InvalidArgument(
            f"learning_rate must be a finite number >= 0, got {learning_rate!r}")
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
