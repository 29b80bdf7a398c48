"""The blockwise kNN fill against the per-row reference it replaced.

`_knn_one` and `_knn_distances` below are the original one-row-at-a-time
implementation, kept as the oracle: the blockwise path must pick the same
neighbours and sum them in the same order, so every fill is bit-identical,
also when one block's distances serve several neighbour counts.  A kNN
state is read through `knn_view_fills` with its one view of every
predictor and reference (`view_fills`), and served through `transform`
(`served`).  Every sum is a running sum, left to right: a distance over
the predictors in order, a fill over the neighbours nearest first.  The
fold pass of `engine.Folds`, which fills every view of a fold from one set
of distance planes, is held to the same oracle view by view.
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
    assess,
    imputation_score,
)
from imputeq.errors import ImputeQWarning, InvalidArgument
from imputeq.imputers import (
    FittedImputer,
    ImputerSpec,
    fit,
    knn_view_fills,
    transform,
)
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
    ss = np.cumsum(diff * diff, axis=1)[:, -1]
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
    return float(np.cumsum(state["ref_y"][order[:k]])[-1] / k)


def oracle(state, X):
    return np.array([_knn_one(state, row) for row in X], dtype=float)


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def view_fills(state, X, ks):
    """The fills of query rows `X` by k under `state`'s one view, which
    reads every predictor and reference."""
    view = (range(state["ref_X"].shape[1]), None, state["ref_y"],
            state["global_mean"])
    [(fills, _)] = knn_view_fills(state["ref_X"], X, [view], ks)
    return fills


def served(state, X):
    """The fills that `transform` writes for query rows `X`, each a row of
    a table whose continuous target is missing, by a kNN imputer with
    `state` and its k."""
    names = tuple(f"p{j}" for j in range(X.shape[1]))
    cols = [Column(n, X[:, j], np.isnan(X[:, j]), kind=ColumnKind.CONTINUOUS)
            for j, n in enumerate(names)]
    cols.append(Column("y", np.full(len(X), np.nan), np.ones(len(X), bool),
                       kind=ColumnKind.CONTINUOUS))
    spec = ImputerSpec("knn", "knn", {"n_neighbors": state["k"]})
    f = FittedImputer(spec, "y", names, state, np.empty(0))
    return transform(f, Table(tuple(cols), len(X))).column("y").values


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
            fills = view_fills(state, X[test_idx], (3, 5, 10))
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
            one = served(state, X)
            got = view_fills(state, X, ks)
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
        got = view_fills(state, X, (1, 3, 10))
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
            got = view_fills(state, X, (3, 5, 10))
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
        out = served(state, X)
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
        view_fills(state, X, (3, 5, 10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * imputers._KNN_BLOCK_BYTES


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


def read_fold(folds, fold, target):
    """Every roster k's fills of `target`'s view on `fold` through `folds`,
    each fit as `imputation_score` fits it."""
    return {spec.params["n_neighbors"]: folds.knn_fills(
        fold, folds.fit(fold, spec, target)) for spec in ROSTER}


def assessment(t, splits, deps=None):
    """The `Folds` of the kNN roster's assessment of `t` under `deps`."""
    return Folds(t, splits, AssessConfig(ROSTER, dependencies=deps))


def assert_fold_pass_is_per_view(folds):
    """Every view of the table of `folds` that has a kNN fit gets, on every
    fold, the fills of its own fit: bit for bit `view_fills` and the
    per-row oracle.  Returns the number of (view, fold) pairs checked."""
    t = folds.t
    checked = 0
    for fold, (train_idx, test_idx) in enumerate(folds.splits):
        train = t.select_rows(train_idx)
        for target in t.column_names:
            predictors = folds.predictors(target)
            if not predictors or train.column(target).mask.all():
                continue
            own = fit(ROSTER[0], train, target, predictors).state
            X = np.column_stack(
                [t.column(n).values[test_idx] for n in predictors])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ImputeQWarning)
                want = view_fills(own, X, KS)
                got = read_fold(folds, fold, target)
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
    folds = assessment(t, kfold_split(t.n_rows, 3, seed % 7), deps)
    # the widest block, all five planes over a fold's <= 27 training rows
    with mock.patch.object(imputers, "_KNN_BLOCK_BYTES",
                           8 * 27 * (5 + 4) * rows_per_block):
        assert_fold_pass_is_per_view(folds)


def test_same_target_under_two_dicts():
    # each dict's Folds gives its view of A, and the views of every other
    # target, in other orders too, the fills of their own fits
    t = coded_table(60, (0.1, 0.0, 0.25, 0.3), 1)
    splits = kfold_split(t.n_rows, 3, 0)
    for deps in ({"A": ["B", "C"], "C": ["D", "A"]},
                 {"A": ["C", "B"], "C": ["A", "D"]},
                 {"A": ["D"]},
                 None):
        assert assert_fold_pass_is_per_view(assessment(t, splits, deps)) > 0


@pytest.mark.filterwarnings("ignore::imputeq.errors.ImputeQWarning")
def test_pass_skips_views_without_a_fit():
    # E has no predictors; F is observed only in fold 0's test rows, so
    # fold 0 has no reference row for it
    t = coded_table(45, (0.1, 0.2, 0.0, 0.3, 0.0, 0.0), 2)
    splits = kfold_split(t.n_rows, 3, 0)
    f_mask = np.ones(t.n_rows, dtype=bool)
    f_mask[splits[0][1][:6]] = False
    f = t.column("F")
    t = t.with_column(Column("F", np.where(f_mask, np.nan, f.values), f_mask,
                             kind=ColumnKind.CONTINUOUS))
    deps = {"A": ["F", "B"], "B": ["A", "C"], "E": [], "F": ["A", "D"]}
    # 3 folds of A and B, 2 of F; C and D have no dependencies either
    assert assert_fold_pass_is_per_view(assessment(t, splits, deps)) == 8
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
    folds = assessment(t, splits)
    for fold, (_, test_idx) in enumerate(splits):
        for target in "ABC":
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                fills = read_fold(folds, fold, target)
                read_fold(folds, fold, target)  # read again
            unmatched = target == "A" and 7 in test_idx
            assert [str(w.message) for w in seen] == unmatched * [
                "no reference row shares an observed coordinate; falling "
                "back to the global mean"]
            if unmatched:
                a = t.column("A").take(splits[fold][0])
                row = np.searchsorted(test_idx, 7)
                assert all(fills[k][row] == a.observed_values().mean()
                           for k in KS)


def test_knn_outside_the_roster_is_invalid():
    # the pass fills the roster's neighbour counts only
    t = coded_table(30, (0.1, 0.1, 0.1), 5)
    knn7 = ImputerSpec("knn7", "knn", {"n_neighbors": 7})
    folds = assessment(t, kfold_split(t.n_rows, 3, 0))
    with pytest.raises(InvalidArgument):
        imputation_score("A", knn7, folds)


def test_fold_pass_temporaries_stay_near_the_cap():
    # 40 views of 39 predictors; unblocked, one fold's planes alone would
    # take 40 x 100 x 200 x 8 bytes = 6.4 MB
    rng = np.random.default_rng(4)
    t = Table(tuple(
        Column(f"c{j}", v, np.isnan(v), kind=ColumnKind.CONTINUOUS)
        for j, v in enumerate(np.where(rng.random((40, 300)) < 0.1, np.nan,
                                       rng.normal(size=(40, 300))))), 300)
    folds = assessment(t, kfold_split(t.n_rows, 3, 0))
    fitted = folds.fit(0, ROSTER[0], "c0")
    tracemalloc.start()
    try:
        folds.knn_fills(0, fitted)  # the pass for all 40 views
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * imputers._KNN_BLOCK_BYTES


# ---------------------------------------------------------------------------
# the summation order: left to right, not numpy's pairwise order

# Eight predictors.  Left to right, each of reference A's seven small
# squared terms rounds against a running total near 1, and A's squared
# distance to the all-zero row ends above B's; numpy's pairwise order adds
# the small terms to one another first and ends below B's, so there A would
# be the nearer one.
FLIP_REFS = np.array([[1.0] + [5 * 2.0**-28] * 7,  # A
                      [1.0, 7 * 2.0**-27] + [0.0] * 6])  # B
FLIP_Y = np.array([10.0, 20.0])


def test_distance_sums_predictors_left_to_right():
    state = {"ref_X": FLIP_REFS, "ref_y": FLIP_Y, "k": 1, "global_mean": 0.0}
    assert served(state, np.zeros((1, 8))).tolist() == [20.0]  # B


def test_fold_pass_sums_predictors_left_to_right():
    # rows A and B train fold 0, the all-zero row is its test row, and T
    # reads the eight predictors
    names = [f"P{j}" for j in range(8)]
    X = np.vstack([FLIP_REFS, np.zeros(8)])
    no_mask = np.zeros(3, dtype=bool)
    t = Table(tuple(Column(n, X[:, j], no_mask, kind=ColumnKind.CONTINUOUS)
                    for j, n in enumerate(names))
              + (Column("T", np.array([10.0, 20.0, 0.0]), no_mask,
                        kind=ColumnKind.CONTINUOUS),), 3)
    splits = ((np.array([0, 1]), np.array([2])),
              (np.array([2]), np.array([0, 1])))
    knn1 = ImputerSpec("knn1", "knn", {"n_neighbors": 1})
    folds = Folds(t, splits, AssessConfig((knn1,), dependencies={"T": names}))
    assert folds.knn_fills(0, folds.fit(0, knn1, "T")).tolist() == [20.0]


def test_neighbour_mean_sums_nearest_first_left_to_right():
    # the nearest target is 1, the nine others 2**-53 each: left to right
    # each of them rounds away, while numpy's pairwise order for ten terms
    # keeps pairs of them and ends at 1 + 4 * 2**-52
    state = {"ref_X": np.arange(10.0)[:, None],
             "ref_y": np.array([1.0] + [2.0**-53] * 9), "k": 10,
             "global_mean": 0.0}
    got = view_fills(state, np.zeros((1, 1)), (3, 10))
    assert got[10].tolist() == [1.0 / 10]
    assert got[3].tolist() == [1.0 / 3]
