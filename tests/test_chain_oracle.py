"""The chained-equation fit and the ridge fit against their reference bodies.

`_reference_iterative_fit` is the chain loop as it was before the chain
kept its matrix column-major: boolean masks rebuilt every round, and each
design matrix gathered in two steps, `M[rows][:, other]`.
`_reference_ridge_fit` is the ridge body of the same time: a full finiteness
scan of X and y, `ndarray.mean`, and `reg * np.eye(p)`.  Together they
define the chain state every fit must keep reproducing, bit for bit: each
model, the converged matrix, the deltas, the visiting order and the initial
fills, and the model that `retarget` gives each column.
"""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from imputeq.errors import DegenerateInput, InvalidArgument, UntrainableImputer
from imputeq.estimators import ESTIMATORS, forest_fit, gbt_fit, ridge_fit
from imputeq.imputers import (
    ITERATIVE_DEFAULTS,
    ImputerSpec,
    _EARLY_STOP_REL_TOL,
    _init_fill,
    fit,
    model_predict,
    retarget,
    task_seed,
)
from imputeq.report import to_jsonable
from imputeq.table import Column, ColumnKind, Table


def _reference_ridge_fit(X, y, reg=1.0):
    """(weights, intercept) of the ridge body before its sums judged the
    data; raises as `ridge_fit` does."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] == 0:
        raise DegenerateInput("no training rows")
    if X.shape[0] != y.shape[0]:
        raise InvalidArgument("X and y row counts differ")
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise InvalidArgument("estimators require complete, finite data")
    reg = float(reg)
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
    intercept = ym - float(xm @ w)
    if not (math.isfinite(intercept) and np.isfinite(w).all()):
        raise DegenerateInput("the fitted RidgeModel holds a non-finite number")
    return w, intercept


def _reference_fit_column(spec, X, y, col_idx, round_idx):
    est = spec.params["estimator"]
    given = {k: v for k, v in spec.params.items()
             if k in ESTIMATORS[est].params}
    if est == "ridge":
        # the model's bytes: weights, intercept and the given reg
        w, b = _reference_ridge_fit(X, y, **given)
        return {"intercept": b, "reg_strength": float(given.get("reg", 1.0)),
                "type": "ridge", "weights": w.tolist()}
    fit_fn = forest_fit if est == "forest" else gbt_fit
    return fit_fn(X, y, seed=task_seed(spec.seed, col_idx, round_idx),
                  **given)


def _reference_predict(model, X):
    if isinstance(model, dict):
        return X @ np.array(model["weights"]) + model["intercept"]
    return model_predict(model, X)


def _reference_iterative_fit(spec, train, target, predictors):
    """The chain state (without the target's extra model) and its masks."""
    names = sorted([*predictors, target])
    cols = [train.column(n) for n in names]
    M = np.column_stack([c.values for c in cols])
    masks = np.column_stack([c.mask for c in cols])
    params = {**ITERATIVE_DEFAULTS, **spec.params}
    init_values = np.array([_init_fill(M[:, j], masks[:, j],
                                       params["init_strategy"])
                            for j in range(M.shape[1])])
    for j in range(M.shape[1]):
        M[masks[:, j], j] = init_values[j]
    miss_counts = masks.sum(axis=0)
    visit = [int(j) for j in np.argsort(-miss_counts, kind="mergesort")
             if 0 < miss_counts[j] < M.shape[0]]
    scales = np.array([
        float(np.std(M[~masks[:, j], j])) if (~masks[:, j]).any() else 1.0
        for j in range(M.shape[1])])
    scales[scales == 0.0] = 1.0
    models = {}
    other = {j: [i for i in range(M.shape[1]) if i != j] for j in visit}
    deltas = []
    for round_idx in range(params["max_iter"]):
        max_delta = 0.0
        for j in visit:
            rows_obs = ~masks[:, j]
            model = _reference_fit_column(
                spec, M[rows_obs][:, other[j]], M[rows_obs, j], j, round_idx)
            models[j] = model
            rows_mis = masks[:, j]
            pred = _reference_predict(model, M[rows_mis][:, other[j]])
            delta = np.abs(pred - M[rows_mis, j]).max() if pred.size else 0.0
            max_delta = max(max_delta, delta / scales[j])
            M[rows_mis, j] = pred
        deltas.append(max_delta)
        if max_delta < _EARLY_STOP_REL_TOL:
            break
    return {"columns": tuple(names), "init_values": init_values,
            "visit": tuple(visit), "models": models, "deltas": deltas,
            "matrix": M}, masks


def _reference_target_model(spec, state, t_idx, rows_obs):
    """The model that column `t_idx` gets: its chain model if visited, else
    one fit on the converged matrix."""
    if t_idx in state["visit"]:
        return state["models"][t_idx]
    M = state["matrix"]
    other = [i for i in range(M.shape[1]) if i != t_idx]
    return _reference_fit_column(
        spec, M[rows_obs][:, other], M[rows_obs, t_idx], t_idx,
        {**ITERATIVE_DEFAULTS, **spec.params}["max_iter"])


def _bytes(x) -> str:
    return json.dumps(to_jsonable(x), sort_keys=True)


def _same_array(a, b) -> bool:
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


@st.composite
def chain_cases(draw):
    """A table of 2-5 columns and 2-30 rows, with one fully observed column
    and one with a single observed cell among the rest, and a chain spec."""
    n = draw(st.integers(2, 30))
    m = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # columns share a factor, so the chain has signal to converge on;
    # discrete columns give the mode start ties to break
    base = rng.normal(size=n)
    columns = []
    for j in range(m):
        values = base * rng.normal() + rng.normal(size=n)
        if draw(st.booleans()):
            values = np.round(values * 2.0)
        rate = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.95]))
        mask = rng.random(n) < rate
        if j == 0:
            mask[:] = False  # fully observed
        elif j == 1 and m > 2:
            mask[:] = True
            mask[rng.integers(n)] = False  # nearly empty
        values = np.where(mask, np.nan, values)
        columns.append(Column(f"c{j}", values, mask,
                              kind=ColumnKind.CONTINUOUS))
    est = draw(st.sampled_from(["ridge", "forest", "gbt"]))
    params = {"estimator": est,
              "init_strategy": draw(st.sampled_from(["mode", "mean"])),
              "max_iter": draw(st.integers(1, 5))}
    if est == "ridge":
        params["reg"] = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    else:
        params.update(n_estimators=2, max_depth=3)
    spec = ImputerSpec("chain", "iterative", params,
                       seed=draw(st.integers(0, 2**31 - 1)))
    t = Table(tuple(columns))
    target = draw(st.sampled_from([c.name for c in columns]))
    return spec, t, target


@settings(max_examples=80, deadline=None)
@given(case=chain_cases())
def test_chain_state_matches_the_reference_bit_for_bit(case):
    spec, t, target = case
    predictors = tuple(c.name for c in t.columns if c.name != target)
    if not (~t.column(target).mask).any():
        with pytest.raises(UntrainableImputer):
            fit(spec, t, target, predictors)
        return
    chain = fit(spec, t, target, predictors)
    want, masks = _reference_iterative_fit(spec, t, target, predictors)
    got = chain.state
    assert got["columns"] == want["columns"]
    assert got["visit"] == want["visit"]
    assert _same_array(got["init_values"], want["init_values"])
    assert _same_array(got["matrix"], want["matrix"])
    assert got["matrix"].flags.c_contiguous
    assert _bytes(got["deltas"]) == _bytes(want["deltas"])
    for j in want["visit"]:
        assert _bytes(got["models"][j]) == _bytes(want["models"][j]), j

    # every column's imputer through `retarget`: its model, and the state
    # it shares with the chain
    for c_idx, name in enumerate(want["columns"]):
        others = tuple(n for n in want["columns"] if n != name)
        if masks[:, c_idx].all():
            with pytest.raises(UntrainableImputer):
                retarget(chain, t, name, others)
            continue
        f = retarget(chain, t, name, others)
        assert set(f.state["models"]) == {*want["visit"], c_idx}
        model = _reference_target_model(spec, want, c_idx, ~masks[:, c_idx])
        assert _bytes(f.state["models"][c_idx]) == _bytes(model), name
        assert f.state["matrix"] is chain.state["matrix"]


# ---------------------------------------------------------------------------
# the ridge fit's checks


def _outcome(fn, X, y, reg):
    """(weights and intercept bytes, or the error's type and message)."""
    try:
        m = fn(X, y, reg)
    except (InvalidArgument, DegenerateInput, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    if isinstance(m, tuple):
        w, b = m
    else:
        w, b = m.weights, m.intercept
    assert type(b) is float
    return w.tobytes(), b.hex()


@st.composite
def ridge_cases(draw):
    n = draw(st.integers(1, 30))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.asfortranarray(rng.normal(size=(n, p)))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, p - 1))] = rng.normal()  # a constant column
    y = rng.normal(size=n)
    # scaled by powers of two: exact, up to the overflow and underflow the
    # test is after (a cell may overflow to inf here already)
    with np.errstate(over="ignore"):
        X *= 2.0 ** draw(st.integers(-1070, 1023))
        y *= 2.0 ** draw(st.integers(-1070, 1023))
    bad = draw(st.sampled_from([None, math.nan, math.inf, -math.inf]))
    if bad is not None:
        a = X if draw(st.booleans()) else y
        a.flat[draw(st.integers(0, a.size - 1))] = bad
    return X, y, draw(st.sampled_from([0.0, 1e-6, 1.0]))


@settings(max_examples=300, deadline=None)
@given(case=ridge_cases())
def test_ridge_fit_matches_the_reference_and_warns_of_nothing(case):
    X, y, reg = case
    with np.errstate(all="ignore"):
        want = _outcome(_reference_ridge_fit, X, y, reg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(ridge_fit, X, y, reg)
    assert got == want
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        assert got[0] is InvalidArgument


@pytest.mark.parametrize("where", ["X", "y"])
def test_ridge_fit_refuses_finite_data_whose_sum_overflows(where):
    rng = np.random.default_rng(3)
    X, y = rng.random((6, 2)) + 1.0, rng.random(6) + 1.0
    if where == "X":
        X[:, 1] = 2.0 ** 1023  # finite cells, an infinite column sum
    else:
        y[:] = 2.0 ** 1023
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInput, match="non-finite"):
            ridge_fit(X, y)
