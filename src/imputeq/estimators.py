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
import sys
from dataclasses import dataclass
from typing import Annotated, NamedTuple, Union

import numpy as np

from .errors import DegenerateInput, InvalidArgument, SchemaError, _require
from .report import Jsonable, Vector

_MAX_DEPTH_CAP = 64  # stands in for "unlimited"
IntVector = Annotated[np.ndarray, list[int]]  # read back as int64


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


def _mean(values: np.ndarray) -> float:
    """The mean of finite `values`.  Where their sum overflows (a column
    near the float maximum), the mean of the values scaled by 2**-k, with
    2**k at least their count, scaled back and held to their range."""
    with np.errstate(over="ignore", invalid="ignore"):
        m = float(values.mean())
    if math.isfinite(m):
        return m
    k = values.size.bit_length()
    m = np.ldexp(np.ldexp(values, -k).mean(), k)
    return float(min(max(m, values.min()), values.max()))


def _is_int(v, lo: int) -> bool:
    """A Python int (not a bool) of at least `lo`: an integer that a config
    or plan document can hold."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= lo


def _is_number(v, lo: float, hi: float = sys.float_info.max) -> bool:
    """An int or float (not a bool) in [lo, hi]: the one rule of a number
    that a document gives.  Its default `hi` refuses an inf, a NaN and an
    int too large for a float."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and lo <= v <= hi)


def _check_seed(seed) -> None:
    if not _is_int(seed, 0):
        raise InvalidArgument(f"seed must be an integer >= 0, got {seed!r}")


# ---------------------------------------------------------------------------
# ridge regression


@dataclass(frozen=True)
class RidgeModel(Jsonable):
    weights: Vector
    intercept: float
    reg_strength: float
    json_tags = {"type": "ridge"}


@np.errstate(all="ignore")
def ridge_fit(Xm, y, reg: float = 1.0) -> RidgeModel:
    """L2-regularized least squares on centered data.

    Solves (Xc'Xc + reg*I) w = Xc'y; the intercept comes from the column
    means, so the penalty never shrinks it.  A mean is the sum over n, as
    `ndarray.mean` takes it, and the sums judge the data: a NaN or inf cell
    makes its sum non-finite, so the cells are scanned only then.  The fit
    warns of nothing: finite data whose sums or products overflow end in
    DegenerateInput.
    """
    X = _as_matrix(Xm)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    xs = np.add.reduce(X, axis=0)
    xm, ym = xs / n, float(np.add.reduce(y, axis=None) / n)
    # a NaN or inf cell makes its sum, so this total, non-finite (and so
    # may an overflow, which the scan then passes)
    if not (n and n == y.shape[0] and math.isfinite(sum(xs.tolist(), ym))):
        _check_complete(X, y)
    check_estimator_params("ridge", {"reg": reg}, "ridge_fit")
    reg = float(reg)
    Xc = X - xm
    yc = y - ym
    A = Xc.T @ Xc
    A.flat[:: p + 1] += reg
    b = Xc.T @ yc
    try:
        w = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        w = np.linalg.lstsq(A, b, rcond=None)[0]
    return _finite(RidgeModel(w, ym - float(xm @ w), reg))


def ridge_predict(model: RidgeModel, Xm) -> np.ndarray:
    X = _as_matrix(Xm)
    return X @ model.weights + model.intercept


# ---------------------------------------------------------------------------
# CART regression trees (flat-array representation)


@dataclass(frozen=True)
class TreeModel(Jsonable):
    """Binary tree in parallel arrays; feature == -1 marks a leaf."""

    feature: IntVector
    threshold: Vector
    left: IntVector
    right: IntVector
    value: Vector
    json_tags = {"type": "tree"}


# a node whose candidate features times rows is below this is searched in
# plain Python floats, and so is its whole subtree: below it a split costs
# less in Python than numpy's per-call overhead (about 25 calls per split)
_PLAIN_CELLS = 128


class _TreeBuilder:
    """Grows regression trees depth-first on one matrix.

    The builder sorts each feature of its matrix once: a stable argsort, so
    tied values keep their row order (SLIQ's presorted attribute lists,
    Mehta, Agrawal & Rissanen 1996; XGBoost's sorted column blocks, Chen &
    Guestrin 2016).  Each `build` grows one tree on it for a response, and
    a boosting fit calls it once per round.  A node carries its rows in
    ascending order and, for each feature, the same rows in ascending value
    order; each child gets its parent's order filtered by side, which keeps
    the order and the row-id tie-breaks of a stable sort of the child alone.

    Splits minimize squared error of the response; with a hessian array the
    leaf values become Newton steps (sum of residuals over sum of hessians)
    while the split search still runs on the residuals.  A large node
    searches all its candidate features in one numpy block: the values and
    responses in each feature's order, running sums of the response, and
    the gain of every threshold that separates distinct values.  A small
    node (see `_PLAIN_CELLS`) runs the same search, operation for operation,
    in plain Python floats, so both give the same tree bit for bit.

    Every sum is a running sum, left to right from its first term: a node's
    response total (and hessian sum) over its own rows in ascending row
    order, summed afresh at each node, so rounding does not build up down a
    path, and a one-row leaf is its target exactly.  A mean leaf whose total
    overflows takes `_mean` of its responses instead.
    """

    def __init__(self, X, max_depth, rng=None, mtry=None):
        n, p = X.shape
        self.max_depth = _MAX_DEPTH_CAP if max_depth is None else max_depth
        self.rng = rng
        self.mtry = mtry
        self.n_candidates = p if mtry is None else min(mtry, p)
        self.XT = np.ascontiguousarray(X.T)
        self.order = self.XT.argsort(axis=1, kind="stable")
        self.cols = self.XT.tolist()
        # each feature's first cell in XT.ravel()
        self.offsets = np.arange(p)[:, None] * n
        # left-child sizes 1..n-1 of any node; reversed they are n-k
        self.ks = np.arange(1.0, n)
        # the side of each row of the node being split; a child's order
        # reads only the node's own rows
        self.goes_left = np.empty(n, dtype=bool)

    def build(self, y, hess=None):
        """The tree for response `y`, and the leaf value of each row."""
        n = y.size
        nodes = ([-1], [0.0], [-1], [-1], [0.0])
        value = nodes[4]
        row_value = np.empty(n)
        # plain subtrees read the responses as lists by row id, write their
        # rows' leaf values to `plain_value`, and keep their rows in `plain`
        ys, hs = y.tolist(), None if hess is None else hess.tolist()
        plain, plain_value = [], [0.0] * n
        stack = [(0, np.arange(n), self.order, 0)]
        while stack:
            node, idx, order, depth = stack.pop()
            if idx.size * self.n_candidates < _PLAIN_CELLS:
                # the whole subtree now, which is the order the stack would
                # grow it in
                plain.append(idx)
                self._grow_plain(nodes, node, depth, idx.tolist(), ys, hs,
                                 plain_value)
                continue
            ysub = y[idx]
            total = float(ysub.cumsum()[-1])
            split = None
            if depth < self.max_depth and ysub.max() != ysub.min():
                split = self._best_split(y, total, idx, order)
            if split is None:
                if hess is None:
                    v = (total / idx.size if math.isfinite(total)
                         else _mean(ysub))
                else:
                    v = total / max(float(hess[idx].cumsum()[-1]), 1e-12)
                value[node] = v
                row_value[idx] = v
                continue
            feat, thr, go_left = split
            left, right = _add_children(nodes, node, feat, thr)
            (li, lo), (ri, ro) = self._children(idx, order, go_left, depth + 1)
            stack.append((right, ri, ro, depth + 1))
            stack.append((left, li, lo, depth + 1))
        if plain:
            rows = np.concatenate(plain)
            row_value[rows] = np.array(plain_value)[rows]
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
        if self.mtry == 1:
            # the value, and the share of the stream, of the `choice` below
            # at a fraction of its cost
            return np.array([self.rng.integers(0, p)])
        return np.sort(self.rng.choice(p, size=self.mtry, replace=False))

    def _best_split(self, y, total, idx, order):
        """(feature, threshold, whether each of `idx` goes left), or None;
        `total` is the running sum of `y[idx]` and `order` the node's rows
        in each feature's order.

        Within a feature the first maximal gain (lowest threshold) wins;
        across features a later one wins only when strictly better by 1e-12.
        """
        n = idx.size
        base = total * total / n
        fs = self._candidate_features(order.shape[0])
        if fs.size < order.shape[0]:
            order = order[fs]
        xv = self.XT.take(order + self.offsets[fs])
        csum = y.take(order).cumsum(axis=1)[:, :-1]
        rest = total - csum
        gains = np.square(csum, out=csum)
        gains /= self.ks[: n - 1]
        np.square(rest, out=rest)
        rest /= self.ks[n - 2 :: -1]
        gains += rest
        gains[xv[:, 1:] == xv[:, :-1]] = -np.inf
        best, best_gain = -1, -np.inf
        for j, gain in enumerate((gains.max(axis=1) - base).tolist()):
            if gain > best_gain + 1e-12:
                best, best_gain = j, gain
        if best < 0:
            return None
        thr = float(xv[best, gains[best].argmax()])
        feat = int(fs[best])
        return feat, thr, self.XT[feat].take(idx) <= thr

    def _children(self, idx, order, go_left, depth):
        """Each child's (rows, order), left then right, for children at
        `depth`; a child that the block search will not split (a leaf by
        depth, or the root of a plain subtree) gets no order."""
        kids = [[idx[go_left], None], [idx[~go_left], None]]
        need = [depth < self.max_depth
                and rows.size * self.n_candidates >= _PLAIN_CELLS
                for rows, _ in kids]
        if any(need):
            self.goes_left[idx] = go_left
            side = self.goes_left.take(order)
            for kid, keep, s in zip(kids, need, (side, ~side)):
                if keep:
                    kid[1] = order[s].reshape(order.shape[0], kid[0].size)
        return kids

    def _grow_plain(self, nodes, root, depth, rows, y, hess, row_value):
        """Grow the subtree at `root` from its rows (ascending row ids):
        `y` (and `hess`) hold the responses as lists by row id, and each
        leaf writes its value to `row_value` at its rows."""
        value = nodes[4]
        stack = [(root, rows, depth)]
        while stack:
            node, rows, depth = stack.pop()
            ys = [y[i] for i in rows]
            total = _running_sum(ys)
            split = None
            if depth < self.max_depth and max(ys) != min(ys):
                split = self._plain_split(y, rows, total)
            if split is None:
                if hess is None:
                    v = (total / len(rows) if math.isfinite(total)
                         else _mean(np.array(ys)))
                else:
                    v = total / max(_running_sum([hess[i] for i in rows]),
                                    1e-12)
                value[node] = v
                for i in rows:
                    row_value[i] = v
                continue
            left, right = _add_children(nodes, node, *split[:2])
            stack.append((right, split[3], depth + 1))
            stack.append((left, split[2], depth + 1))

    def _plain_split(self, y, rows, total):
        """`_best_split` of the node `rows` (ascending) in Python floats,
        with the same operations in the same order: a stable sort, running
        sums, gains c*c/k + r*r/(n-k) and the first maximal threshold.
        `total` is the running sum of the node's responses in row order, the
        adds of the block search's `cumsum`; it is never the builtin `sum`,
        whose float result changed in Python 3.12.

        Where numpy's max meets a NaN gain, this one may skip it, but no
        such feature can win either way: a NaN gain needs a NaN or infinite
        total, which makes `base` NaN or inf.  Likewise a NaN response,
        which Python's max and min may miss, ends in a leaf either way; it
        arises only in boosting, which draws no features."""
        cols = self.cols
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


def _running_sum(terms):
    """terms[0] + terms[1] + ..., left to right from the first term: the one
    summation order of every tree node and kNN distance.  Floats give a
    float; arrays (summed elementwise) give a fresh array unless `terms` has
    one member."""
    if len(terms) == 1:
        return terms[0]
    out = terms[0] + terms[1]
    for a in terms[2:]:
        out += a
    return out


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


# ---------------------------------------------------------------------------
# random forest


@dataclass(frozen=True)
class ForestModel(Jsonable):
    trees: tuple[TreeModel, ...]
    max_depth: int | None
    seed: int
    json_tags = {"type": "forest"}


@np.errstate(over="ignore", invalid="ignore")  # `_finite` refuses an inf
def forest_fit(Xm, y, n_estimators: int = 100, max_depth=None,
               seed: int = 0) -> ForestModel:
    """Bagged CART trees with per-split feature subsampling: each tree is
    grown on a bootstrap draw of the rows, and each split searches
    ceil(p / 3) features, the regression-forest default of randomForest."""
    X = _as_matrix(Xm)
    y = np.asarray(y, dtype=float)
    _check_complete(X, y)
    check_estimator_params("forest", {"n_estimators": n_estimators,
                                      "max_depth": max_depth}, "forest_fit")
    _check_seed(seed)
    n, p = X.shape
    mtry = max(1, math.ceil(p / 3))
    rng = np.random.default_rng(seed)
    trees = []
    for _ in range(n_estimators):
        idx = rng.integers(0, n, n)
        builder = _TreeBuilder(X[idx], max_depth, rng=rng, mtry=mtry)
        trees.append(builder.build(y[idx])[0])
    return _finite(ForestModel(tuple(trees), max_depth, seed))


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
class GbtModel(Jsonable):
    trees: tuple[TreeModel, ...]
    base_score: float
    learning_rate: float
    loss: str
    max_depth: int | None
    seed: int
    json_tags = {"type": "gbt"}


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


@np.errstate(over="ignore", invalid="ignore")  # `_finite` refuses an inf
def gbt_fit(Xm, y, n_estimators: int = 100, max_depth: int | None = 6,
            learning_rate: float = 0.1, loss: str = "squared",
            seed: int = 0) -> GbtModel:
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
    check_estimator_params("gbt", {"n_estimators": n_estimators,
                                   "max_depth": max_depth,
                                   "learning_rate": learning_rate}, "gbt_fit")
    _check_seed(seed)
    learning_rate = float(learning_rate)
    if loss == "logistic":
        uniq = np.unique(y)
        if not np.isin(uniq, (0.0, 1.0)).all():
            raise InvalidArgument("logistic loss expects targets in {0, 1}")
        pbar = min(max(_mean(y), 1e-6), 1.0 - 1e-6)
        base = math.log(pbar / (1.0 - pbar))
    else:
        base = _mean(y)

    margin = np.full(X.shape[0], base)
    trees = []
    if learning_rate != 0.0:
        builder = _TreeBuilder(X, max_depth)
        for _ in range(n_estimators):
            if loss == "logistic":
                grad, hess = logistic_grad_hess(y, margin)
                resid = -grad
            else:
                resid = y - margin
                hess = None
            tree, fitted = builder.build(resid, hess=hess)
            margin = margin + learning_rate * fitted
            trees.append(tree)
    return _finite(
        GbtModel(tuple(trees), base, learning_rate, loss, max_depth, seed))


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


# ---------------------------------------------------------------------------
# the estimator table: what a chain or a dependency graph may fit, and the
# rules of each hyperparameter; its default is the one in the fit signature


class Estimator(NamedTuple):
    model: type
    params: dict  # each key the fit reads -> (accepts(value), what it accepts)


_COUNT = (lambda v: _is_int(v, 1), "an integer >= 1")
_DEPTH = (lambda v: v is None or _is_int(v, 1), "null or an integer >= 1")
_RATE = (lambda v: _is_number(v, 0.0), "a finite number >= 0")

ESTIMATORS = {
    "ridge": Estimator(RidgeModel, {"reg": _RATE}),
    "forest": Estimator(ForestModel, {"n_estimators": _COUNT,
                                      "max_depth": _DEPTH}),
    "gbt": Estimator(GbtModel, {"n_estimators": _COUNT, "max_depth": _DEPTH,
                                "learning_rate": _RATE}),
}

# the model of a chain column: one of the estimators' models, told apart by
# its "type" tag
ChainModel = Union[tuple(e.model for e in ESTIMATORS.values())]

# a dependency graph's one default that is not its fit's: 50 forest trees
GRAPH_DEFAULTS = {"forest": {"n_estimators": 50}}


def is_estimator(v) -> bool:
    """Whether `v` names an estimator (a str: an unhashable key raises)."""
    return isinstance(v, str) and v in ESTIMATORS


def check_estimator_params(estimator: str, params: dict, path: str) -> None:
    """Raise SchemaError at `path` unless `params` is a dict, and at
    `path.<key>` for a key that the fit of `estimator` does not read or a
    value that its rule refuses."""
    if not isinstance(params, dict):
        raise SchemaError(path, "expected a dict")
    rules = ESTIMATORS[estimator].params
    for name, v in params.items():
        if name not in rules:
            raise SchemaError(f"{path}.{name}",
                              f"not a parameter of the {estimator} estimator")
        accepts, what = rules[name]
        if not accepts(v):
            raise SchemaError(f"{path}.{name}", f"expected {what}")


def _finite(model):
    """`model`, unless a number that its fit computed (not a threshold,
    which is an input cell) overflowed to an inf or a NaN.  The tree fits
    let such a sum overflow silently, so that it ends here."""
    if isinstance(model, RidgeModel):
        # the intercept, ym - xm @ w, reads every weight and mean, so a
        # non-finite one makes it non-finite too
        ok = math.isfinite(model.intercept)
    else:
        ok = math.isfinite(getattr(model, "base_score", 0.0)) and all(
            np.isfinite(t.value).all() for t in model.trees)
    if not ok:
        raise DegenerateInput(
            f"the fitted {type(model).__name__} holds a non-finite number")
    return model


def check_chain_model(m, estimator: str, p: int, path: str) -> None:
    """Raise SchemaError unless a loaded chain model `m` is a model of
    `estimator` that reads `p` inputs, with sound trees (a forest, which
    averages them, has at least one, and a GBT has the squared loss that
    chains fit): at `path` for a model of another estimator, and at the
    key that fails otherwise."""
    _require(isinstance(m, ESTIMATORS[estimator].model), path,
             f"expected a {estimator} model")
    if isinstance(m, RidgeModel):
        _require(m.weights.shape == (p,), f"{path}.weights",
                 f"expected one weight per other column of the chain ({p})")
        return
    if isinstance(m, GbtModel):
        _require(m.loss == "squared", f"{path}.loss",
                 "expected 'squared', the loss that chains fit")
    else:
        _require(m.trees, f"{path}.trees", "expected at least one tree")
    for i, t in enumerate(m.trees):
        _check_tree(t, p, f"{path}.trees[{i}]")


def _check_tree(t: TreeModel, p: int, path: str) -> None:
    """Raise SchemaError at the failing key of tree `t` unless it reads at
    most `p` inputs and prediction ends: its five arrays have one non-zero
    length n, and each split node i has both children in (i, n), so every
    path descends to a leaf."""
    n = t.value.size
    _require(n, f"{path}.value", "expected a non-empty list")
    for key in ("feature", "threshold", "left", "right"):
        _require(getattr(t, key).shape == (n,), f"{path}.{key}",
                 f"expected one entry per node ({n})")
    _require((t.feature < p).all(), f"{path}.feature",
             f"expected indices of the chain's {p} other columns")
    split = np.flatnonzero(t.feature >= 0)
    for key in ("left", "right"):
        c = getattr(t, key)[split]
        _require(((c > split) & (c < n)).all(), f"{path}.{key}",
                 "expected each split node's child after it")


def model_predict(model, Xm) -> np.ndarray:
    if isinstance(model, RidgeModel):
        return ridge_predict(model, Xm)
    if isinstance(model, ForestModel):
        return forest_predict(model, Xm)
    if isinstance(model, GbtModel):
        return gbt_predict(model, Xm)
    raise InvalidArgument(f"not a model: {type(model).__name__}")


# ---------------------------------------------------------------------------
# permutation importance


def permutation_importance(
    predict, Xm_test, y_test, scorer, seed: int = 0
) -> np.ndarray:
    """Mean score drop over five shuffles of each column, one column at a
    time.

    `predict` is any fitted-model prediction callable; `scorer(y, yhat)` must
    be higher-is-better.  Deterministic per seed.
    """
    X = _as_matrix(Xm_test)
    y = np.asarray(y_test, dtype=float)
    rng = np.random.default_rng(seed)
    baseline = scorer(y, predict(X))
    importances = np.zeros(X.shape[1])
    for f in range(X.shape[1]):
        drop = 0.0
        for _ in range(5):
            Xp = X.copy()
            Xp[:, f] = Xp[rng.permutation(X.shape[0]), f]
            drop += baseline - scorer(y, predict(Xp))
        importances[f] = drop / 5
    return importances
