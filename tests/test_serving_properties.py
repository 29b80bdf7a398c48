"""Assessment and serving contracts on random small tables.

`assess` either fails with a named `ImputeQError` or scores every delta and
omega in [0, 1].  Every plan must survive a serialize/deserialize round trip
byte for byte, and applying it must leave no missing cell in any feature it
keeps, for the whole table and for a single row.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from imputeq.engine import (
    AssessConfig,
    apply_pipeline,
    assess,
    deserialize_pipeline,
    fit_pipeline,
    serialize_pipeline,
)
from imputeq.errors import ImputeQError
from imputeq.imputers import ImputerSpec
from imputeq.table import Column, ColumnKind, Table

ROSTER = (
    ImputerSpec("mean", "simple", {"statistic": "mean"}),
    ImputerSpec("apprandom", "apprandom", {}),
    ImputerSpec("iter_ridge", "iterative", {"estimator": "ridge"}),
)

KINDS = [ColumnKind.CONTINUOUS, ColumnKind.DISCRETE, ColumnKind.BINARY,
         ColumnKind.CATEGORICAL]
PATTERNS = ["random", "all_missing", "constant", "single_observed", "complete"]


@st.composite
def tables(draw):
    n = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for j in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(KINDS))
        pattern = draw(st.sampled_from(PATTERNS))
        labels = None
        if kind is ColumnKind.CONTINUOUS:
            values = np.round(rng.normal(10.0, 3.0, n), 3)
        elif kind is ColumnKind.DISCRETE:
            values = rng.integers(0, 9, n).astype(float)
        elif kind is ColumnKind.BINARY:
            values = rng.integers(0, 2, n).astype(float)
        else:
            k = draw(st.integers(2, 4))
            values = rng.integers(0, k, n).astype(float)
            labels = {c: f"c{c}" for c in range(k)}
        if pattern == "constant":
            values[:] = values[0]
        mask = np.zeros(n, dtype=bool)
        if pattern == "random":
            mask = rng.random(n) < draw(st.sampled_from([0.1, 0.3, 0.6]))
        elif pattern == "all_missing":
            mask[:] = True
        elif pattern == "single_observed":
            mask[:] = True
            mask[rng.integers(0, n)] = False
        values[mask] = np.nan
        cols.append(Column(f"f{j}", values, mask, kind=kind, labels=labels))
    return Table(tuple(cols), n)


def _assert_kept_complete(out: Table) -> None:
    for col in out.columns:
        assert not col.mask.any(), col.name
        assert np.isfinite(col.values).all(), col.name


@settings(max_examples=80, deadline=None)
@given(t=tables(), n_folds=st.integers(2, 5), seed=st.integers(0, 1000))
def test_assess_scores_stay_in_unit_interval(t, n_folds, seed):
    cfg = AssessConfig(imputers=ROSTER, n_folds=n_folds, seed=seed)
    try:
        records = assess(t, cfg)
    except ImputeQError:
        return
    for r in records:
        assert 0.0 <= r.delta <= 1.0, r.feature
        assert 0.0 <= r.omega <= 1.0, r.feature
        for e in r.evaluations:
            assert 0.0 <= e.delta_mean <= 1.0, (r.feature, e.imputer_id)


@settings(max_examples=80, deadline=None)
@given(t=tables(), threshold=st.sampled_from([None, 0.5]),
       seed=st.integers(0, 1000))
def test_plan_round_trips_and_fills_every_kept_cell(t, threshold, seed):
    cfg = AssessConfig(imputers=ROSTER, n_folds=3, seed=seed,
                       threshold=threshold)
    plan = fit_pipeline(t, assess(t, cfg), cfg)
    blob = serialize_pipeline(plan)
    assert serialize_pipeline(deserialize_pipeline(blob)) == blob

    out = apply_pipeline(plan, t)
    assert set(out.column_names) == set(t.column_names) - set(plan.drop_list)
    _assert_kept_complete(out)
    _assert_kept_complete(
        apply_pipeline(deserialize_pipeline(blob), t.select_rows(np.array([0])))
    )
