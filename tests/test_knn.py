"""The blockwise kNN fill against the per-row reference it replaced.

`_knn_one` and `_knn_distances` below are the original one-row-at-a-time
implementation, kept as the oracle: the blockwise path must pick the same
neighbours and sum them in the same order, so every fill is bit-identical.
"""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imputeq import imputers
from imputeq.errors import ImputeQWarning
from imputeq.imputers import ImputerSpec, fit, knn_fill
from imputeq.table import infer_column_kinds, kfold_split, label_encode, load_csv


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
            train = t.select_rows(train_idx)
            for k in (3, 5, 10):
                spec = ImputerSpec(f"knn{k}", "knn", {"n_neighbors": k})
                state = fit(spec, train, feature, preds).state
                want = oracle(state, X[test_idx])
                assert_bits_equal(knn_fill(state, X[test_idx]), want)
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
    k = draw(st.integers(1, n_ref + 5))
    rows_per_block = draw(st.integers(1, m))
    state = {"ref_X": ref_X, "ref_y": ref_y, "k": k, "global_mean": 0.25}
    return state, X, rows_per_block


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(knn_cases())
def test_matches_per_row_oracle(case):
    state, X, rows_per_block = case
    n_ref, p = state["ref_X"].shape
    block_bytes = 8 * n_ref * p * rows_per_block
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ImputeQWarning)
        want = oracle(state, X)
        with mock.patch.object(imputers, "_KNN_BLOCK_BYTES", block_bytes):
            got = knn_fill(state, X)
    assert_bits_equal(got, want)


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
        knn_fill(state, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * imputers._KNN_BLOCK_BYTES
