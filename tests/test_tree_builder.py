"""The tree builder, with both of its split searches (the numpy block
search of large nodes and the plain-float search of small ones), against
the per-feature reference.

`_ReferenceBuilder` is the builder the estimators used before the split
search was vectorized: one Python pass per candidate feature per node.  It
defines the trees every fit must keep reproducing, bit for bit.  Like the
estimators, it sums each node's responses (and hessians) as a running sum
in ascending row order, from the first term.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imputeq import estimators
from imputeq.estimators import (
    _TreeBuilder,
    forest_fit,
    gbt_fit,
    logistic_grad_hess,
    tree_fit,
    tree_predict,
)

# targets near 1e154-1e300 overflow squares and sums on purpose, and numpy
# says so on each
pytestmark = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


def _running_sum(a):
    """a[0] + a[1] + ..., left to right."""
    return np.cumsum(a)[-1]


class _ReferenceBuilder:
    """Depth-first CART growth with a per-feature split loop."""

    def __init__(self, max_depth, rng=None, mtry=None):
        self.max_depth = 64 if max_depth is None else max_depth
        self.rng = rng
        self.mtry = mtry
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def _new_node(self):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _leaf_value(self, idx, y, hess):
        total = float(_running_sum(y[idx]))
        if hess is None:
            return total / idx.size
        return total / max(float(_running_sum(hess[idx])), 1e-12)

    def build(self, X, y, hess=None):
        """Same interface as `_TreeBuilder.build`; the per-row values come
        from `tree_predict`, as the boosting loop used to compute them."""
        root = self._new_node()
        stack = [(root, np.arange(X.shape[0]), 0)]
        while stack:
            node, idx, depth = stack.pop()
            if depth >= self.max_depth or idx.size < 2 or np.ptp(y[idx]) == 0.0:
                self.value[node] = self._leaf_value(idx, y, hess)
                continue
            feat, thr, left_idx, right_idx = self._best_split(X, y, idx)
            if feat < 0:
                self.value[node] = self._leaf_value(idx, y, hess)
                continue
            self.feature[node] = feat
            self.threshold[node] = thr
            left = self._new_node()
            right = self._new_node()
            self.left[node] = left
            self.right[node] = right
            stack.append((right, right_idx, depth + 1))
            stack.append((left, left_idx, depth + 1))
        tree = estimators.TreeModel(
            np.asarray(self.feature, dtype=np.int64),
            np.asarray(self.threshold, dtype=float),
            np.asarray(self.left, dtype=np.int64),
            np.asarray(self.right, dtype=np.int64),
            np.asarray(self.value, dtype=float),
        )
        return tree, tree_predict(tree, X)

    def _candidate_features(self, p):
        if self.mtry is None or self.mtry >= p:
            return np.arange(p)
        return np.sort(self.rng.choice(p, size=self.mtry, replace=False))

    def _best_split(self, X, y, idx):
        best_gain = -np.inf
        best = (-1, 0.0, None, None)
        ysub = y[idx]
        total = _running_sum(ysub)
        n = idx.size
        base = total * total / n
        for f in self._candidate_features(X.shape[1]):
            xs = X[idx, f]
            order = np.argsort(xs, kind="mergesort")
            xv = xs[order]
            if xv[0] == xv[-1]:
                continue
            ys = ysub[order]
            csum = np.cumsum(ys)
            k = np.arange(1, n)
            gains = csum[:-1] ** 2 / k + (total - csum[:-1]) ** 2 / (n - k)
            valid = xv[1:] != xv[:-1]
            if not valid.any():
                continue
            gains = np.where(valid, gains, -np.inf)
            pos = int(np.argmax(gains))  # first max -> lowest threshold
            gain = gains[pos] - base
            if gain > best_gain + 1e-12:
                thr = float(xv[pos])
                go_left = xs <= thr
                best = (int(f), thr, idx[go_left], idx[~go_left])
                best_gain = gain
        return best


def _bits(a):
    a = np.asarray(a)
    return a.view(np.int64) if a.dtype == np.float64 else a


def _assert_trees_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        for field in ("feature", "threshold", "left", "right", "value"):
            a, b = getattr(g, field), getattr(w, field)
            assert a.dtype == b.dtype, field
            np.testing.assert_array_equal(_bits(a), _bits(b), err_msg=field)


@st.composite
def tables(draw, min_rows=2):
    """Random (X, y) with ties, duplicated rows, constant columns, binary
    columns and columns of signed zeros.  y is binary, a rounded signal, a
    signal with signed zeros (or all -0.0), or a signal scaled to
    1e154-1e300, where squares and sums overflow to inf."""
    n = draw(st.integers(min_rows, 300))
    p = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(p):
        kind = draw(st.sampled_from(
            ["normal", "ties", "binary", "constant", "signed_zeros"]))
        if kind == "normal":
            cols.append(rng.normal(size=n))
        elif kind == "signed_zeros":  # -0.0 and 0.0 tie; thresholds keep sign
            cols.append(rng.choice(np.array([-0.0, 0.0, 1.0]), n))
        elif kind == "ties":
            cols.append(rng.integers(0, draw(st.integers(2, 6)), n) * 0.5)
        elif kind == "binary":
            cols.append(rng.integers(0, 2, n).astype(float))
        else:
            cols.append(np.full(n, 3.0))
    X = np.column_stack(cols)
    if draw(st.booleans()):
        X[rng.integers(0, n, n // 3)] = X[rng.integers(0, n, n // 3)]
    target = draw(st.sampled_from(["binary", "signal", "zeros", "huge"]))
    if target == "binary":
        return X, rng.integers(0, 2, n).astype(float)
    y = np.round(X[:, 0] + rng.normal(size=n), draw(st.integers(0, 3)))
    if target == "zeros":
        y[rng.random(n) < 0.5] = 0.0
        y[rng.random(n) < 0.5] *= -1.0
        if draw(st.booleans()):
            y[:] = -0.0
    elif target == "huge":
        y *= 10.0 ** draw(st.sampled_from([154, 200, 300]))
    return X, y


@settings(max_examples=120, deadline=None)
@given(data=tables(), depth=st.sampled_from([None, 1, 3, 6]))
def test_tree_fit_matches_reference(data, depth):
    X, y = data
    got = tree_fit(X, y, max_depth=depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_TreeBuilder", _ReferenceBuilder)
        want = tree_fit(X, y, max_depth=depth)
    _assert_trees_identical([got], [want])


# every node on the numpy block search, and every node on the plain search
@pytest.mark.parametrize("plain_cells", [0, 10**9])
@settings(max_examples=120, deadline=None)
@given(data=tables(), depth=st.sampled_from([None, 1, 3, 6]))
def test_each_search_alone_matches_reference(plain_cells, data, depth):
    X, y = data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_PLAIN_CELLS", plain_cells)
        got = tree_fit(X, y, max_depth=depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_TreeBuilder", _ReferenceBuilder)
        want = tree_fit(X, y, max_depth=depth)
    _assert_trees_identical([got], [want])


@settings(max_examples=120, deadline=None)
@given(
    data=tables(),
    depth=st.sampled_from([None, 2, 5]),
    mtry=st.one_of(st.none(), st.integers(1, 12)),
    bootstrap=st.booleans(),
    seed=st.integers(0, 1000),
)
def test_forest_fit_matches_reference(data, depth, mtry, bootstrap, seed):
    X, y = data
    kwargs = dict(n_estimators=3, max_depth=depth, seed=seed,
                  bootstrap=bootstrap, mtry=mtry)
    got = forest_fit(X, y, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_TreeBuilder", _ReferenceBuilder)
        want = forest_fit(X, y, **kwargs)
    _assert_trees_identical(got.trees, want.trees)


@settings(max_examples=40, deadline=None)
@given(data=tables(min_rows=200), depth=st.sampled_from([None, 8]),
       seed=st.integers(0, 1000))
def test_forest_switches_search_mid_tree(data, depth, seed):
    # one candidate feature: the root (200 rows or more) is searched in
    # numpy, and its descendants below the size rule in plain floats
    X, y = data
    assert 0 < estimators._PLAIN_CELLS <= X.shape[0]
    kwargs = dict(n_estimators=2, max_depth=depth, seed=seed, mtry=1)
    got = forest_fit(X, y, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_TreeBuilder", _ReferenceBuilder)
        want = forest_fit(X, y, **kwargs)
    _assert_trees_identical(got.trees, want.trees)


@settings(max_examples=120, deadline=None)
@given(
    data=tables(),
    depth=st.sampled_from([1, 3, 6]),
    loss=st.sampled_from(["squared", "logistic"]),
    rate=st.sampled_from([0.1, 0.7]),
)
def test_gbt_fit_matches_reference(data, depth, loss, rate):
    X, y = data
    if loss == "logistic":
        y = (y > np.median(y)).astype(float)
    kwargs = dict(n_estimators=5, max_depth=depth, learning_rate=rate,
                  loss=loss)
    got = gbt_fit(X, y, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_TreeBuilder", _ReferenceBuilder)
        want = gbt_fit(X, y, **kwargs)
    _assert_trees_identical(got.trees, want.trees)


@settings(max_examples=120, deadline=None)
@given(data=tables(), depth=st.sampled_from([None, 2, 6]),
       newton=st.booleans())
def test_row_values_equal_tree_predict(data, depth, newton):
    X, y = data
    hess = None
    if newton:
        y = (y > np.median(y)).astype(float)
        grad, hess = logistic_grad_hess(y, np.zeros(y.size))
        y = -grad
    tree, fitted = _TreeBuilder(depth).build(X, y, hess=hess)
    np.testing.assert_array_equal(_bits(fitted), _bits(tree_predict(tree, X)))


@pytest.mark.parametrize("plain_cells", [0, 10**9])
def test_leaf_sums_rows_left_to_right(plain_cells):
    # one leaf of ten rows: the first target is 1 and the nine others
    # 2**-53, which each round away left to right (numpy's pairwise order
    # would keep pairs of them); a one-row leaf is its target, -0.0 too
    y = np.array([1.0] + [2.0**-53] * 9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimators, "_PLAIN_CELLS", plain_cells)
        assert tree_fit(np.zeros((10, 1)), y).value.tolist() == [1.0 / 10]
        tree = tree_fit(np.array([[0.0], [1.0]]), np.array([-0.0, 1.0]))
    assert _bits(tree.value).tolist() == _bits([0.0, -0.0, 1.0]).tolist()
