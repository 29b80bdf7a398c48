"""The blockwise kNN fill against the per-row reference it replaced.

`_knn_one` and `_knn_distances` below are the original one-row-at-a-time
implementation, kept as the oracle: the blockwise path must pick the same
neighbours and sum them in the same order, so every fill is bit-identical,
also when one block's distances serve several neighbour counts.  The fold
pass of `engine.Folds`, which fills every view of a fold from one set of
distance planes, is held to the same oracle view by view.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imputeq import imputers
from imputeq.engine import (
    AssessConfig,
    Folds,
    _predictors_for,
    assess,
    imputation_score,
)
from imputeq.errors import ImputeQWarning, InvalidArgument
from imputeq.imputers import ImputerSpec, fit, knn_fill, knn_fills
from imputeq.table import (
    Column,
    ColumnKind,
    Table,
    infer_column_kinds,
    kfold_split,
    label_encode,
    load_csv,
)


def _knn_distances(ref_X, row):
    p = ref_X.shape[1]
    shared = ~np.isnan(ref_X) & ~np.isnan(row)[None, :]
    counts = shared.sum(axis=1)
    diff = np.where(shared, ref_X - row[None, :], 0.0)
    ss = (diff * diff).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.sqrt(p / counts * ss)
    d[counts == 0] = np.inf
    return d


def _knn_one(state, row):
    d = _knn_distances(state["ref_X"], row)
    finite = np.isfinite(d)
    if not finite.any():
        return state["global_mean"]
    k = min(state["k"], int(finite.sum()))
    order = np.argsort(d, kind="mergesort")  # stable: ties keep row order
    return float(state["ref_y"][order[:k]].mean())


def oracle(state, X):
    return np.array([_knn_one(state, row) for row in X], dtype=float)


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_heart_every_feature_k_and_fold(heart_csv):
    t = infer_column_kinds(label_encode(load_csv(heart_csv)))
    names = t.column_names
    n_rows = 0
    for feature in names:
        preds = tuple(n for n in names if n != feature)
        X = np.column_stack([t.column(n).values for n in preds])
        for train_idx, test_idx in kfold_split(t.n_rows, 5, 0):
            spec = ImputerSpec("knn3", "knn", {"n_neighbors": 3})
            state = fit(spec, t.select_rows(train_idx), feature, preds).state
            fills = knn_fills(state, X[test_idx], (3, 5, 10))
            for k in (3, 5, 10):
                want = oracle(dict(state, k=k), X[test_idx])
                assert_bits_equal(fills[k], want)
                n_rows += len(test_idx)
    assert n_rows == 13 * 3 * t.n_rows


@st.composite
def knn_cases(draw):
    n_ref = draw(st.integers(1, 30))
    p = draw(st.integers(1, 20))
    m = draw(st.integers(1, 25))
    codes = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if codes:
        ref_X = rng.integers(0, 4, (n_ref, p)).astype(float)
        X = rng.integers(0, 4, (m, p)).astype(float)
        ref_y = rng.integers(0, 3, n_ref).astype(float)
    else:
        ref_X = rng.normal(0, 1, (n_ref, p)) * 10.0 ** rng.integers(-3, 4)
        X = rng.normal(0, 1, (m, p))
        ref_y = rng.normal(0, 1, n_ref)
    if draw(st.booleans()):  # duplicated reference rows give exact ties
        ref_X[rng.integers(0, n_ref, n_ref // 2)] = ref_X[0]
        X[rng.integers(0, m, m // 2)] = ref_X[0]
    ref_X[rng.random((n_ref, p)) < draw(st.floats(0.0, 0.9))] = np.nan
    X[rng.random((m, p)) < draw(st.floats(0.0, 0.9))] = np.nan
    if draw(st.booleans()):  # a row sharing no coordinate with any reference
        X[0] = np.nan
    # counts up to n_ref + 5 leave rows with fewer finite distances than k
    ks = draw(st.lists(st.integers(1, n_ref + 5), min_size=1, max_size=4))
    rows_per_block = draw(st.integers(1, m))
    state = {"ref_X": ref_X, "ref_y": ref_y, "k": ks[0], "global_mean": 0.25}
    return state, X, ks, rows_per_block


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(knn_cases())
def test_matches_per_row_oracle(case):
    state, X, ks, rows_per_block = case
    n_ref, p = state["ref_X"].shape
    block_bytes = 8 * n_ref * p * rows_per_block
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ImputeQWarning)
        with mock.patch.object(imputers, "_KNN_BLOCK_BYTES", block_bytes):
            one = knn_fill(state, X)
            got = knn_fills(state, X, ks)
        assert_bits_equal(one, oracle(state, X))
        for k in ks:
            assert_bits_equal(got[k], oracle(dict(state, k=k), X))


def test_shared_blocks_with_short_rows_and_uneven_blocks():
    # row 1 has two finite distances, fewer than k = 3 and 10; blocks of
    # two query rows leave a last block of one
    state = {
        "ref_X": np.array([[0.0, np.nan], [1.0, np.nan], [np.nan, 2.0],
                           [np.nan, 3.0], [4.0, np.nan]]),
        "ref_y": np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
        "k": 1,
        "global_mean": 0.0,
    }
    X = np.array([[0.5, 1.0], [np.nan, 2.5], [3.0, np.nan]])
    with mock.patch.object(imputers, "_KNN_BLOCK_BYTES", 8 * 5 * 2 * 2):
        got = knn_fills(state, X, (1, 3, 10))
    for k in (1, 3, 10):
        assert_bits_equal(got[k], oracle(dict(state, k=k), X))
    assert got[10][1] == 3.5  # the mean of its two reachable references


def test_finite_count_between_requested_ks():
    # one selection for k = 10 serves every k; row 0 reaches 4 references
    # (3 < 4 < 5), row 1 reaches 8 (5 < 8 < 10), row 2 all 12, and
    # references 0 and 1 tie for row 0
    rng = np.random.default_rng(5)
    ref_X = np.full((12, 2), np.nan)
    ref_X[:4, 0] = [0.5, 0.5, 2.0, -1.0]
    ref_X[4:, 1] = rng.normal(size=8)
    state = {"ref_X": ref_X, "ref_y": rng.normal(size=12), "k": 3,
             "global_mean": 0.0}
    X = np.array([[0.4, np.nan], [np.nan, 0.1], [0.3, -0.2]])
    for rows_per_block in (1, 2, 3):
        with mock.patch.object(imputers, "_KNN_BLOCK_BYTES",
                               8 * 12 * 2 * rows_per_block):
            got = knn_fills(state, X, (3, 5, 10))
        for k in (3, 5, 10):
            assert_bits_equal(got[k], oracle(dict(state, k=k), X))
        assert got[5][0] == got[10][0]
        assert got[10][0] == pytest.approx(state["ref_y"][:4].mean())
        assert got[10][1] == pytest.approx(state["ref_y"][4:].mean())


def test_fallback_warns_once_per_call():
    state = {
        "ref_X": np.array([[np.nan, 1.0], [np.nan, 2.0]]),
        "ref_y": np.array([1.0, 2.0]),
        "k": 1,
        "global_mean": 42.0,
    }
    X = np.array([[1.0, np.nan], [0.0, 1.9], [5.0, np.nan]])
    with pytest.warns(ImputeQWarning, match="global mean") as record:
        out = knn_fill(state, X)
    assert len(record) == 1
    assert out.tolist() == [42.0, 2.0, 42.0]


def test_block_temporaries_stay_near_the_cap():
    rng = np.random.default_rng(0)
    n_ref, p, m = 2000, 10, 200  # unblocked: a 32 MB difference array
    state = {"ref_X": rng.normal(size=(n_ref, p)), "ref_y": rng.normal(size=n_ref),
             "k": 5, "global_mean": 0.0}
    X = rng.normal(size=(m, p))
    tracemalloc.start()
    try:
        knn_fills(state, X, (3, 5, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * imputers._KNN_BLOCK_BYTES


# ---------------------------------------------------------------------------
# the pairwise sum of coordinate-major planes


def test_pairwise_sum_is_numpys_last_axis_sum():
    # lengths 1-300 take the running sum (< 8), the eight accumulators
    # (8-128) and one or two halvings above 128
    rng = np.random.default_rng(0)
    for n in range(1, 301):
        a = rng.random((40, n)) * 10.0 ** rng.integers(-6, 7, (40, n))
        a[rng.random((40, n)) < 0.2] = 0.0
        planes = list(np.ascontiguousarray(a.T))
        assert_bits_equal(imputers._pairwise_sum(planes),
                          np.add.reduce(a, axis=-1))


# ---------------------------------------------------------------------------
# the fold pass of `engine.Folds`: every view of a fold from one pass


def coded_table(n, rates, seed):
    """Columns A, B, ... of small integer codes, so that distances tie,
    each cell missing with its column's rate."""
    rng = np.random.default_rng(seed)
    cols = []
    for name, rate in zip("ABCDEFGH", rates):
        values = rng.integers(0, 4, n).astype(float)
        mask = rng.random(n) < rate
        values[mask] = np.nan
        cols.append(Column(name, values, mask, kind=ColumnKind.CONTINUOUS))
    return Table(tuple(cols), n)


KS = (3, 5, 10)
ROSTER = tuple(ImputerSpec(f"knn{k}", "knn", {"n_neighbors": k}) for k in KS)


def read_fold(folds, t, deps, fold, target):
    """Every roster k's fills of `target`'s view on `fold` through `folds`,
    each fit as `imputation_score` fits it."""
    train_idx, _ = folds.splits.folds[fold]
    predictors = tuple(_predictors_for(t, target, deps))
    train = t.select_rows(train_idx).select_columns([*predictors, target])
    return {spec.params["n_neighbors"]: folds.knn_fills(
        fold, folds.fit(fold, spec, train, target, predictors), t, deps)
        for spec in ROSTER}


def assert_fold_pass_is_per_view(t, deps, folds):
    """Every view of `t` under `deps` that has a kNN fit gets, on every
    fold, the fills of its own fit: bit for bit `knn_fills` and the per-row
    oracle.  Returns the number of (view, fold) pairs checked."""
    checked = 0
    for fold, (train_idx, test_idx) in enumerate(folds.splits):
        train = t.select_rows(train_idx)
        for target in t.column_names:
            predictors = tuple(_predictors_for(t, target, deps))
            if not predictors or train.column(target).mask.all():
                continue
            own = fit(ROSTER[0], train, target, predictors).state
            X = np.column_stack(
                [t.column(n).values[test_idx] for n in predictors])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ImputeQWarning)
                want = knn_fills(own, X, KS)
                got = read_fold(folds, t, deps, fold, target)
            for k in KS:
                assert_bits_equal(got[k], want[k])
                assert_bits_equal(got[k], oracle(dict(own, k=k), X))
            checked += 1
    return checked


@st.composite
def dependency_dicts(draw, names):
    """Each target reads a drawn subset of the others in a drawn order, so
    views overlap and share columns in different orders."""
    deps = {}
    for target in names:
        others = draw(st.permutations([n for n in names if n != target]))
        deps[target] = list(others[:draw(st.integers(0, len(others)))])
    return deps


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(deps=st.one_of(st.none(), dependency_dicts("ABCDE")),
       rates=st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9]), min_size=5,
                      max_size=5),
       seed=st.integers(0, 2**32 - 1), rows_per_block=st.integers(1, 20))
def test_fold_pass_is_each_views_own_fill(deps, rates, seed, rows_per_block):
    t = coded_table(40, rates, seed)
    folds = Folds(kfold_split(t.n_rows, 3, seed % 7), AssessConfig(ROSTER))
    # the widest block, all five planes over a fold's <= 27 training rows
    with mock.patch.object(imputers, "_KNN_BLOCK_BYTES",
                           8 * 27 * (5 + 4) * rows_per_block):
        assert_fold_pass_is_per_view(t, deps, folds)


def test_same_target_under_two_dicts_on_one_folds():
    # one Folds serves each dict's view of A, and the views of every other
    # target, in other orders too
    t = coded_table(60, (0.1, 0.0, 0.25, 0.3), 1)
    folds = Folds(kfold_split(t.n_rows, 3, 0), AssessConfig(ROSTER))
    for deps in ({"A": ["B", "C"], "C": ["D", "A"]},
                 {"A": ["C", "B"], "C": ["A", "D"]},
                 {"A": ["D"]},
                 None):
        assert assert_fold_pass_is_per_view(t, deps, folds) > 0


@pytest.mark.filterwarnings("ignore::imputeq.errors.ImputeQWarning")
def test_pass_skips_views_without_a_fit():
    # E has no predictors; F is observed only in fold 0's test rows, so
    # fold 0 has no reference row for it
    t = coded_table(45, (0.1, 0.2, 0.0, 0.3, 0.0, 0.0), 2)
    splits = kfold_split(t.n_rows, 3, 0)
    f_mask = np.ones(t.n_rows, dtype=bool)
    f_mask[splits.folds[0][1][:6]] = False
    f = t.column("F")
    t = t.with_column(Column("F", np.where(f_mask, np.nan, f.values), f_mask,
                             kind=ColumnKind.CONTINUOUS))
    deps = {"A": ["F", "B"], "B": ["A", "C"], "E": [], "F": ["A", "D"]}
    folds = Folds(splits, AssessConfig(ROSTER))
    # 3 folds of A and B, 2 of F; C and D have no dependencies either
    assert assert_fold_pass_is_per_view(t, deps, folds) == 8
    records = assess(t, AssessConfig(ROSTER, n_folds=3, dependencies=deps))
    skipped = {r.feature: [e.skipped for e in r.evaluations][:3]
               for r in records}
    assert skipped == {"A": [False] * 3, "B": [False] * 3, "C": [True] * 3,
                       "D": [True] * 3, "E": [True] * 3, "F": [True] * 3}


def test_unmatched_rows_warn_once_per_feature_and_fold():
    # row 7 observes only A, so under the full views only A's view (B, C)
    # leaves it with no reference sharing a coordinate
    rng = np.random.default_rng(3)
    values = rng.integers(0, 4, (30, 3)).astype(float)
    mask = np.zeros((30, 3), dtype=bool)
    mask[7, 1:] = True
    mask[[2, 12, 21], [1, 2, 0]] = True  # one missing cell per other row
    values[mask] = np.nan
    t = Table(tuple(Column(n, values[:, j], mask[:, j],
                           kind=ColumnKind.CONTINUOUS)
                    for j, n in enumerate("ABC")), 30)
    splits = kfold_split(t.n_rows, 3, 0)
    folds = Folds(splits, AssessConfig(ROSTER))
    for fold, (_, test_idx) in enumerate(splits):
        for target in "ABC":
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                fills = read_fold(folds, t, None, fold, target)
                read_fold(folds, t, None, fold, target)  # read again
            unmatched = target == "A" and 7 in test_idx
            assert [str(w.message) for w in seen] == unmatched * [
                "no reference row shares an observed coordinate; falling "
                "back to the global mean"]
            if unmatched:
                a = t.column("A").take(splits.folds[fold][0])
                row = np.searchsorted(test_idx, 7)
                assert all(fills[k][row] == a.observed_values().mean()
                           for k in KS)


def test_knn_outside_the_roster_is_invalid():
    # the pass fills the roster's neighbour counts only
    t = coded_table(30, (0.1, 0.1, 0.1), 5)
    knn7 = ImputerSpec("knn7", "knn", {"n_neighbors": 7})
    folds = Folds(kfold_split(t.n_rows, 3, 0), AssessConfig(ROSTER))
    with pytest.raises(InvalidArgument):
        imputation_score(t, "A", knn7, folds)


def test_fold_pass_temporaries_stay_near_the_cap():
    # 40 views of 39 predictors; unblocked, one fold's planes alone would
    # take 40 x 100 x 200 x 8 bytes = 6.4 MB
    rng = np.random.default_rng(4)
    t = Table(tuple(
        Column(f"c{j}", v, np.isnan(v), kind=ColumnKind.CONTINUOUS)
        for j, v in enumerate(np.where(rng.random((40, 300)) < 0.1, np.nan,
                                       rng.normal(size=(40, 300))))), 300)
    folds = Folds(kfold_split(t.n_rows, 3, 0), AssessConfig(ROSTER))
    train_idx, _ = folds.splits.folds[0]
    predictors = tuple(t.column_names[1:])
    fitted = folds.fit(0, ROSTER[0], t.select_rows(train_idx), "c0",
                       predictors)
    tracemalloc.start()
    try:
        folds.knn_fills(0, fitted, t, None)  # the pass for all 40 views
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * imputers._KNN_BLOCK_BYTES
