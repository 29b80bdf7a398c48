import json
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imputeq import estimators
from imputeq.errors import DegenerateInput, InvalidArgument
from imputeq.estimators import (
    _leaf_values,
    _TreeBuilder,
    forest_fit,
    forest_predict,
    gbt_fit,
    gbt_predict,
    gbt_predict_proba,
    gbt_raw_score,
    logistic_grad_hess,
    model_predict,
    permutation_importance,
    ridge_fit,
    ridge_predict,
)
from imputeq.metrics import auroc, nrmse_score, r2
from imputeq.report import from_jsonable


class TestRidge:
    def test_recovers_exact_linear(self):
        x = np.linspace(-2, 2, 40)[:, None]
        y = 3.0 * x[:, 0]
        m = ridge_fit(x, y, reg=1e-9)
        assert m.weights[0] == pytest.approx(3.0, abs=1e-6)
        assert m.intercept == pytest.approx(0.0, abs=1e-6)

    def test_constant_target(self):
        x = np.random.default_rng(0).normal(size=(20, 3))
        m = ridge_fit(x, np.full(20, 5.0), reg=1.0)
        np.testing.assert_allclose(m.weights, 0.0, atol=1e-10)
        assert m.intercept == pytest.approx(5.0)

    def test_doubled_data_doubled_reg(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 4))
        y = rng.normal(size=30)
        m1 = ridge_fit(X, y, reg=0.7)
        m2 = ridge_fit(np.vstack([X, X]), np.concatenate([y, y]), reg=1.4)
        np.testing.assert_allclose(m1.weights, m2.weights, atol=1e-10)
        assert m1.intercept == pytest.approx(m2.intercept)

    def test_residual_orthogonality_unregularized(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        m = ridge_fit(X, y, reg=0.0)
        resid = y - ridge_predict(m, X)
        Xc = X - X.mean(axis=0)
        np.testing.assert_allclose(Xc.T @ resid, 0.0, atol=1e-8)

    def test_empty_rejected(self):
        with pytest.raises(DegenerateInput):
            ridge_fit(np.empty((0, 2)), np.empty(0))

    def test_nan_rejected(self):
        with pytest.raises(InvalidArgument):
            ridge_fit(np.array([[np.nan]]), np.array([1.0]))


def grow_tree(X, y, max_depth=None):
    """One tree, grown by the builder of every forest and GBT."""
    return _TreeBuilder(X, max_depth).build(y)[0]


def tree_values(tree, X):
    return _leaf_values((tree,), X)[0]


class TestTree:
    def test_recovers_step_function(self):
        x = np.linspace(0, 1, 100)[:, None]
        y = (x[:, 0] > 0.5).astype(float)
        m = grow_tree(x, y, max_depth=1)
        assert r2(y, tree_values(m, x)) > 0.9

    def test_memorizes_without_depth_limit(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        m = grow_tree(X, y, max_depth=None)
        np.testing.assert_allclose(tree_values(m, X), y, atol=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = X[:, 0] * 2 + np.sin(X[:, 1])
        Xt = X.copy()
        Xt[:, 1] = np.exp(X[:, 1])  # strictly increasing
        test = rng.normal(size=(25, 3))
        test_t = test.copy()
        test_t[:, 1] = np.exp(test[:, 1])
        m1 = grow_tree(X, y, max_depth=4)
        m2 = grow_tree(Xt, y, max_depth=4)
        np.testing.assert_allclose(
            tree_values(m1, test), tree_values(m2, test_t), atol=1e-12
        )

    def test_constant_features_give_leaf(self):
        X = np.ones((10, 2))
        y = np.arange(10.0)
        m = grow_tree(X, y)
        assert (m.feature == -1).all()
        assert tree_values(m, X)[0] == pytest.approx(y.mean())


class TestForest:
    def test_step_function_r2(self):
        x = np.linspace(0, 1, 200)[:, None]
        y = (x[:, 0] > 0.5).astype(float)
        m = forest_fit(x, y, n_estimators=20, max_depth=2, seed=0)
        assert r2(y, forest_predict(m, x)) > 0.9

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 4))
        y = rng.normal(size=50)
        m1 = forest_fit(X, y, n_estimators=5, max_depth=3, seed=42)
        m2 = forest_fit(X, y, n_estimators=5, max_depth=3, seed=42)
        grid = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(
            forest_predict(m1, grid), forest_predict(m2, grid)
        )


class TestGbt:
    def test_squared_loss_fits_linear(self):
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, size=(150, 1))
        y = 2.0 * x[:, 0] + 1.0
        m = gbt_fit(x, y, n_estimators=100, max_depth=3, learning_rate=0.1)
        assert nrmse_score(y, gbt_predict(m, x)) > 0.95

    def test_logistic_separable_auroc(self):
        x = np.concatenate([np.linspace(0, 1, 30), np.linspace(2, 3, 30)])
        y = np.concatenate([np.zeros(30), np.ones(30)])
        m = gbt_fit(
            x[:, None], y, n_estimators=20, max_depth=2,
            learning_rate=0.3, loss="logistic",
        )
        p = gbt_predict_proba(m, x[:, None])
        assert auroc(y, p) == 1.0
        assert ((p > 0) & (p < 1)).all()

    def test_zero_learning_rate_is_constant(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 2))
        y = rng.normal(size=40)
        m = gbt_fit(x, y, n_estimators=10, learning_rate=0.0)
        np.testing.assert_allclose(gbt_predict(m, x), y.mean())

    def test_logistic_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(9)
        y = rng.integers(0, 2, size=12).astype(float)
        margin = rng.normal(size=12)
        grad, hess = logistic_grad_hess(y, margin)

        def loss(mg):
            p = 1.0 / (1.0 + np.exp(-mg))
            return -(y * np.log(p) + (1 - y) * np.log(1 - p))

        eps = 1e-6
        fd = (loss(margin + eps) - loss(margin - eps)) / (2 * eps)
        np.testing.assert_allclose(grad, fd, atol=1e-6)
        fd2 = (loss(margin + eps) - 2 * loss(margin) + loss(margin - eps)) / eps**2
        np.testing.assert_allclose(hess, fd2, atol=1e-3)

    def test_logistic_requires_binary(self):
        with pytest.raises(InvalidArgument):
            gbt_fit(np.ones((3, 1)), np.array([0.0, 1.0, 2.0]), loss="logistic")

    def test_raw_score_additivity(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(30, 2))
        y = rng.normal(size=30)
        m = gbt_fit(x, y, n_estimators=5, max_depth=2, learning_rate=0.5)
        manual = np.full(30, m.base_score)
        for t in m.trees:
            manual += m.learning_rate * tree_values(t, x)
        np.testing.assert_allclose(gbt_raw_score(m, x), manual)

    @pytest.mark.parametrize("loss", ["squared", "logistic"])
    def test_seed_is_recorded_never_drawn(self, loss):
        # assess shares one GBT chain among the features of a view because
        # the fit draws no random numbers; row or column subsampling would
        # break that
        rng = np.random.default_rng(11)
        X = rng.integers(0, 4, size=(80, 3)).astype(float)
        X = np.column_stack([X, X[:, 0]])  # a tied copy of column 0
        y = X[:, 0] + rng.normal(size=80)
        if loss == "logistic":
            y = (y > np.median(y)).astype(float)
        a, b = (gbt_fit(X, y, n_estimators=8, max_depth=3, loss=loss,
                        seed=s) for s in (1, 2))
        assert (a.seed, b.seed) == (1, 2)
        assert a.base_score == b.base_score and len(a.trees) == len(b.trees)
        for ta, tb in zip(a.trees, b.trees):
            for key in ("feature", "threshold", "left", "right", "value"):
                np.testing.assert_array_equal(getattr(ta, key),
                                              getattr(tb, key))
        np.testing.assert_array_equal(gbt_raw_score(a, X), gbt_raw_score(b, X))


class TestHyperparameters:
    @pytest.mark.parametrize("fit, name, value", [
        (forest_fit, "max_depth", 0),
        (forest_fit, "max_depth", -2),
        (forest_fit, "max_depth", 1.5),
        (forest_fit, "max_depth", True),
        (forest_fit, "n_estimators", 0),
        (forest_fit, "n_estimators", 2.5),
        (gbt_fit, "max_depth", 0),
        (gbt_fit, "max_depth", -2),
        (gbt_fit, "max_depth", "6"),
        (gbt_fit, "n_estimators", 0),
        (gbt_fit, "n_estimators", -1),
        (gbt_fit, "n_estimators", 2.5),
        (gbt_fit, "learning_rate", float("nan")),
        (gbt_fit, "learning_rate", float("inf")),
        (gbt_fit, "learning_rate", -0.5),
        (gbt_fit, "learning_rate", True),
        (ridge_fit, "reg", float("nan")),
        (ridge_fit, "reg", float("inf")),
        (ridge_fit, "reg", -1.0),
        (ridge_fit, "reg", True),
        (ridge_fit, "reg", "1"),
        # an int too large for a float
        pytest.param(ridge_fit, "reg", 10**400, id="ridge_fit-reg-10**400"),
        pytest.param(gbt_fit, "learning_rate", 10**400,
                     id="gbt_fit-learning_rate-10**400"),
        (forest_fit, "seed", -1),
        (forest_fit, "seed", 1.0),
        (forest_fit, "seed", None),
        (gbt_fit, "seed", -1),
        (gbt_fit, "seed", True),
        (gbt_fit, "seed", "1"),
        # a document holds no numpy integer, so the table refuses one
        pytest.param(forest_fit, "max_depth", np.int64(2),
                     id="forest_fit-max_depth-int64"),
        pytest.param(forest_fit, "n_estimators", np.int64(2),
                     id="forest_fit-n_estimators-int64"),
        pytest.param(gbt_fit, "seed", np.int64(1), id="gbt_fit-seed-int64"),
        pytest.param(ridge_fit, "reg", np.int64(1), id="ridge_fit-reg-int64"),
    ])
    def test_bad_values_are_refused(self, fit, name, value):
        X = np.random.default_rng(15).normal(size=(20, 3))
        with pytest.raises(InvalidArgument, match=name):
            fit(X, X[:, 0], **{name: value})

    def test_edge_values_are_taken(self):
        X = np.random.default_rng(16).normal(size=(20, 3))
        y = X[:, 0]
        stump = gbt_fit(X, y, n_estimators=1, max_depth=1).trees[0]
        assert stump.feature.size == 3
        assert len(forest_fit(X, y, n_estimators=2).trees) == 2
        assert gbt_fit(X, y, n_estimators=2, learning_rate=0).trees == ()
        # a rate is stored as a float, whatever number type it came as
        ridge = ridge_fit(X, y, reg=1)
        gbt = gbt_fit(X, y, n_estimators=1, learning_rate=np.float64(1))
        for got in (ridge.reg_strength, gbt.learning_rate):
            assert type(got) is float and got == 1.0

    @pytest.mark.parametrize("fit, scale_x, scale_y", [
        (forest_fit, 1.0, 1e307),
        (gbt_fit, 1.0, [8e307, -8e307] * 20),
        (ridge_fit, 1e200, 1.0),
    ])
    def test_a_model_that_overflows_is_refused(self, fit, scale_x, scale_y):
        # positive targets near the float maximum overflow a leaf mean;
        # targets of both signs there overflow the sums of the boosting
        # residuals; huge inputs overflow ridge's Gram matrix
        rng = np.random.default_rng(17)
        X = rng.normal(size=(40, 3))
        y = rng.random(40) + 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInput, match="non-finite"):
                fit(X * scale_x, y * np.asarray(scale_y))

    def test_tree_fits_near_the_float_maximum_warn_of_nothing(self):
        # the boosting base score is the mean of targets whose sum
        # overflows; a sum that overflows in a tree refuses the model
        rng = np.random.default_rng(17)
        X = rng.normal(size=(300, 3))
        y = 1.4e308 + rng.random(300) * 3e307
        fits = [
            gbt_fit(np.arange(8.0)[:, None],
                    [1.5e308, 1.6e308, 1.4e308, 1.7e308] * 2, n_estimators=2),
            gbt_fit(X, y, n_estimators=3),
            gbt_fit(X[:40], (rng.random(40) + 1.0) * 1e307),
        ]
        for m in fits:
            assert 1e307 < m.base_score < 1.7e308
            assert all(np.isfinite(t.value).all() for t in m.trees)
        with pytest.raises(DegenerateInput, match="non-finite"):
            forest_fit(X, y, n_estimators=3)


class TestPermutationImportance:
    def test_copy_feature_takes_all_importance(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(200, 3))
        y = X[:, 0].copy()
        m = grow_tree(X, y, max_depth=None)
        imp = permutation_importance(
            lambda Z: tree_values(m, Z), X, y, r2, seed=0
        )
        assert imp[0] > 0.9
        assert abs(imp[1]) < 0.1 and abs(imp[2]) < 0.1

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(80, 2))
        y = X[:, 0] + rng.normal(scale=0.1, size=80)
        m = ridge_fit(X, y, reg=0.1)
        f = lambda Z: ridge_predict(m, Z)
        a = permutation_importance(f, X, y, r2, seed=7)
        b = permutation_importance(f, X, y, r2, seed=7)
        np.testing.assert_array_equal(a, b)


class TestSerialization:
    def test_all_models_roundtrip(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        yb = (y > 0).astype(float)
        models = [
            ridge_fit(X, y, reg=0.5),
            forest_fit(X, y, n_estimators=3, max_depth=2, seed=1),
            gbt_fit(X, y, n_estimators=3, max_depth=2),
            gbt_fit(X, yb, n_estimators=3, max_depth=2, loss="logistic"),
        ]
        grid = rng.normal(size=(15, 3))
        for m in models:
            doc = json.loads(json.dumps(m.to_jsonable()))
            m2 = from_jsonable(type(m), doc, "model")
            assert m2.to_jsonable() == doc
            np.testing.assert_allclose(
                model_predict(m, grid), model_predict(m2, grid), atol=1e-15
            )


def reference_tree_predict(tree, X):
    """One row and one tree at a time: descend until a leaf."""
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        node = 0
        while tree.feature[node] >= 0:
            go_left = x[tree.feature[node]] <= tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out[i] = tree.value[node]
    return out


def reference_predictions(m, X):
    """entry point -> the value it must return, summed tree by tree."""
    if isinstance(m, estimators.ForestModel):
        out = np.zeros(X.shape[0])
        for t in m.trees:
            out += reference_tree_predict(t, X)
        v = out / len(m.trees)
        return {"forest_predict": v, "model_predict": v}
    raw = np.full(X.shape[0], m.base_score)
    if m.learning_rate != 0.0:
        for t in m.trees:
            raw += m.learning_rate * reference_tree_predict(t, X)
    if m.loss == "squared":
        return {"gbt_raw_score": raw, "model_predict": raw}
    return {"gbt_raw_score": raw,
            "gbt_predict_proba": estimators._sigmoid(raw),
            "model_predict": (raw >= 0.0).astype(float)}


@st.composite
def fitted_models(draw):
    """A forest or GBT fit to a small table whose cells come from a
    few levels, so that features tie, plus query rows from the same
    levels (so that queries land on thresholds)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([2, 3, 50]))
    n, p = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    X = rng.integers(0, levels, size=(n, p)) / 2.0
    y = X.sum(axis=1) + rng.normal(size=n)
    max_depth = draw(st.sampled_from([None, 1, 2, 5]))
    kind = draw(st.sampled_from(["forest", "squared", "logistic"]))
    if kind == "forest":
        m = forest_fit(X, y, n_estimators=draw(st.integers(1, 6)),
                       max_depth=max_depth, seed=draw(st.integers(0, 9)))
    else:
        if kind == "logistic":
            y = (y > np.median(y)).astype(float)
        m = gbt_fit(X, y, n_estimators=draw(st.integers(1, 6)),
                    max_depth=max_depth, loss=kind,
                    learning_rate=draw(st.sampled_from([0.0, 0.1, 0.5])))
    rows = draw(st.sampled_from([0, 1, 2, 97]))
    return m, rng.integers(-1, levels + 1, size=(rows, p)) / 2.0


class TestLockstepWalk:
    @settings(max_examples=120, deadline=None)
    @given(fitted_models(), st.sampled_from([1, 7, 4096]))
    def test_predictions_match_tree_by_tree_loop(self, fitted, cells):
        # the walk moves every (tree, row) cell one level per pass, in
        # blocks of at most _WALK_CELLS cells; each entry point must return
        # the bits of a loop over the trees, whatever the block size, on
        # the model and on its serialized copy
        m, X = fitted
        copy = from_jsonable(type(m), m.to_jsonable(), "model")
        with mock.patch.object(estimators, "_WALK_CELLS", cells):
            for name, want in reference_predictions(m, X).items():
                for model in (m, copy):
                    got = getattr(estimators, name)(model, X)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes(), name

    def test_matrix_narrower_than_model_rejected(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(30, 3))
        m = forest_fit(X, X[:, 2], n_estimators=2, seed=0)
        with pytest.raises(InvalidArgument):
            forest_predict(m, X[:, :2])
