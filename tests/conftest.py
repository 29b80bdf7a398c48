"""Shared fixtures: a heart-disease-shaped benchmark CSV, and a small
table with two plans: one with kNN and a ridge chain, one with forest and
GBT chains, both with the mean and empirical sampling.

The file mimics the pooled 920-row cardiology dataset this kind of tooling
is usually demonstrated on: 13 mixed-type features with a fixed, realistic
per-feature missing-cell count (dominated by the vessel-count and stress
measurements).  Counts are exact so ingestion tests can assert fractions
tightly.
"""

import csv

import numpy as np
import pytest

from imputeq.engine import (
    AssessConfig,
    ImputerEvaluation,
    QualityRecord,
    fit_pipeline,
    serialize_pipeline,
)
from imputeq.imputers import ImputerSpec
from imputeq.stattests import TestKind, TestResult
from imputeq.table import ColumnKind, infer_column_kinds, label_encode, load_csv

N_ROWS = 920

# feature -> (generator kind, missing cell count)
HEART_MISSING_COUNTS = {
    "age": 0,
    "sex": 0,
    "cp": 0,
    "trestbps": 59,
    "chol": 30,
    "fbs": 90,
    "restecg": 2,
    "thalch": 55,
    "exang": 55,
    "oldpeak": 62,
    "slope": 309,
    "ca": 611,
    "thal": 486,
}


def _heart_rows(rng):
    age = rng.integers(29, 78, N_ROWS)
    sex = rng.choice(["Male", "Female"], N_ROWS, p=[0.79, 0.21])
    cp = rng.choice(
        ["typical angina", "atypical angina", "non-anginal", "asymptomatic"],
        N_ROWS,
    )
    trestbps = np.round(rng.normal(132, 18, N_ROWS), 1)
    chol = np.round(rng.normal(200, 110, N_ROWS), 1)
    fbs = rng.choice(["TRUE", "FALSE"], N_ROWS, p=[0.16, 0.84])
    restecg = rng.choice(["normal", "st-t abnormality", "lv hypertrophy"],
                         N_ROWS)
    thalch = np.round(rng.normal(138, 26, N_ROWS), 1)
    exang = rng.choice(["TRUE", "FALSE"], N_ROWS, p=[0.39, 0.61])
    oldpeak = np.round(rng.normal(0.9, 1.1, N_ROWS), 1)
    slope = rng.choice(["upsloping", "flat", "downsloping"], N_ROWS)
    ca = rng.integers(0, 4, N_ROWS)
    thal = rng.choice(["normal", "fixed defect", "reversable defect"],
                      N_ROWS)
    return {
        "age": [str(v) for v in age],
        "sex": list(sex),
        "cp": list(cp),
        "trestbps": [f"{v:g}" for v in trestbps],
        "chol": [f"{v:g}" for v in chol],
        "fbs": list(fbs),
        "restecg": list(restecg),
        "thalch": [f"{v:g}" for v in thalch],
        "exang": list(exang),
        "oldpeak": [f"{v:g}" for v in oldpeak],
        "slope": list(slope),
        "ca": [str(v) for v in ca],
        "thal": list(thal),
    }


@pytest.fixture(scope="session")
def heart_csv(tmp_path_factory):
    """Path to the benchmark CSV with exact per-feature missing counts."""
    rng = np.random.default_rng(920)
    columns = _heart_rows(rng)
    for name, count in HEART_MISSING_COUNTS.items():
        if count == 0:
            continue
        holes = rng.choice(N_ROWS, size=count, replace=False)
        col = columns[name]
        for i in holes:
            col[i] = ""
    path = tmp_path_factory.mktemp("data") / "heart.csv"
    names = list(HEART_MISSING_COUNTS)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(N_ROWS):
            writer.writerow([columns[n][i] for n in names])
    return str(path)


# column -> (kind, the roster imputer its plan entry uses)
MIXED_PLAN_COLUMNS = {
    "x": (ColumnKind.CONTINUOUS, "knn3"),
    "y": (ColumnKind.CONTINUOUS, "iter_ridge"),
    "n": (ColumnKind.DISCRETE, "mean"),
    "c": (ColumnKind.CATEGORICAL, "random"),
    "b": (ColumnKind.BINARY, "iter_ridge"),
}
# the same table with tree chains where the mixed plan has kNN and ridge
TREE_PLAN_COLUMNS = dict(
    MIXED_PLAN_COLUMNS,
    x=(ColumnKind.CONTINUOUS, "iter_forest"),
    y=(ColumnKind.CONTINUOUS, "iter_gbt"),
    b=(ColumnKind.BINARY, "iter_forest"),
)
PLAN_ROSTER = (
    ImputerSpec("mean", "simple", {"statistic": "mean"}),
    ImputerSpec("random", "apprandom", {}),
    ImputerSpec("knn3", "knn", {"n_neighbors": 3}),
    ImputerSpec("iter_ridge", "iterative", {"estimator": "ridge"}),
    # two trees of depth 3 keep the tree plan small
    ImputerSpec("iter_forest", "iterative", {
        "estimator": "forest", "n_estimators": 2, "max_depth": 3,
        "max_iter": 2}),
    ImputerSpec("iter_gbt", "iterative", {
        "estimator": "gbt", "n_estimators": 2, "max_depth": 3,
        "max_iter": 2}),
)


@pytest.fixture(scope="session")
def mixed_csv(tmp_path_factory):
    """The path of a 60-row CSV of the `MIXED_PLAN_COLUMNS` columns, with a
    fifth of each column blank."""
    rng = np.random.default_rng(3)
    n = 60
    x = rng.normal(0.0, 1.0, n)
    cells = {
        "x": [f"{v:.3f}" for v in x],
        "y": [f"{v:.3f}" for v in 2.0 * x + rng.normal(0.0, 0.3, n)],
        "n": [str(v) for v in rng.integers(0, 4, n)],
        "c": list(rng.choice(["red", "green", "blue"], n)),
        "b": list(rng.choice(["yes", "no"], n)),
    }
    for col in cells.values():
        for i in rng.choice(n, n // 5, replace=False):
            col[i] = ""
    path = tmp_path_factory.mktemp("mixed") / "data.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(cells))
        writer.writerows(zip(*cells.values()))
    return str(path)


def picked(feature, chosen, kept=True):
    """A record that picks imputer `chosen` for `feature` and keeps it or
    not: what `fit_pipeline` reads of a record, around one passing
    evaluation of `chosen`."""
    bias = TestResult(0.0, 1.0, TestKind.KS, rejected=False)
    scored = ImputerEvaluation(chosen, 0.5, 0.0, 0, bias, False)
    return QualityRecord(feature, 0.8, (scored,), chosen, 0.5, 0.9, kept,
                         False)


def _write_plan(csv_path, columns, out):
    """Fit a plan on `csv_path` that imputes each column with the imputer
    `columns` names for it, and write it to `out`."""
    t = infer_column_kinds(label_encode(load_csv(csv_path)))
    assert [c.kind for c in t.columns] == [kind for kind, _ in columns.values()]
    records = [picked(name, chosen) for name, (_, chosen) in columns.items()]
    config = AssessConfig(imputers=PLAN_ROSTER, seed=4)
    out.write_bytes(serialize_pipeline(fit_pipeline(t, records, config)))
    return str(out)


@pytest.fixture(scope="session")
def mixed_plan(mixed_csv, tmp_path_factory):
    """The paths of a plan file and of the `mixed_csv` table; the plan
    imputes each column with the imputer `MIXED_PLAN_COLUMNS` names for it:
    kNN, a ridge chain, the mean and empirical sampling."""
    out = tmp_path_factory.mktemp("mixed_plan") / "pipe.json"
    return _write_plan(mixed_csv, MIXED_PLAN_COLUMNS, out), mixed_csv


@pytest.fixture(scope="session")
def tree_plan(mixed_csv, tmp_path_factory):
    """Like `mixed_plan`, with the `TREE_PLAN_COLUMNS` imputers: a forest
    chain, a GBT chain, the mean and empirical sampling."""
    out = tmp_path_factory.mktemp("tree_plan") / "pipe.json"
    return _write_plan(mixed_csv, TREE_PLAN_COLUMNS, out), mixed_csv
