"""Input generators and the three benchmark workloads.

Each workload is one user session: write the workload CSV, load and encode
it, assess every feature, fit and serve a pipeline, and, where the workload
asks for them, build a dependency graph first or audit how detectable the
imputations are at the end.  The workloads differ in the data and in the
candidate roster, so each one puts a different layer on the critical path
(see README.md for the reasons).

The program under test only ever sees the generated CSV file.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

HEART_ROWS = 920
MISSING_RATE = 0.2  # latent tables: share of each column's cells left blank

# feature -> missing cell count; copied from tests/conftest.py, which the
# benchmark may not import (it is not a package and pulls in pytest)
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
HEART_CONFTEST_SEED = 920


def heart_columns(seed: int) -> dict[str, list[str]]:
    """The heart-shaped table of tests/conftest.py as CSV cell strings.

    The draws are made in the same order as the fixture, so seed 920 gives
    the fixture's file byte for byte; every seed gives its missing counts.
    """
    rng = np.random.default_rng(seed)
    n = HEART_ROWS
    age = rng.integers(29, 78, n)
    sex = rng.choice(["Male", "Female"], n, p=[0.79, 0.21])
    cp = rng.choice(
        ["typical angina", "atypical angina", "non-anginal", "asymptomatic"], n
    )
    trestbps = np.round(rng.normal(132, 18, n), 1)
    chol = np.round(rng.normal(200, 110, n), 1)
    fbs = rng.choice(["TRUE", "FALSE"], n, p=[0.16, 0.84])
    restecg = rng.choice(["normal", "st-t abnormality", "lv hypertrophy"], n)
    thalch = np.round(rng.normal(138, 26, n), 1)
    exang = rng.choice(["TRUE", "FALSE"], n, p=[0.39, 0.61])
    oldpeak = np.round(rng.normal(0.9, 1.1, n), 1)
    slope = rng.choice(["upsloping", "flat", "downsloping"], n)
    ca = rng.integers(0, 4, n)
    thal = rng.choice(["normal", "fixed defect", "reversable defect"], n)
    columns = {
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
    for name, count in HEART_MISSING_COUNTS.items():
        if count == 0:
            continue
        for i in rng.choice(n, size=count, replace=False):
            columns[name][i] = ""
    return columns


LATENT_NAMES = ("x0", "x1", "x2", "x3", "flag_a", "flag_b", "grade", "region")


def latent_columns(seed: int, n_rows: int) -> dict[str, list[str]]:
    """Mixed-kind table driven by three latent factors, with MCAR holes.

    Four continuous columns, two binary and two categorical ones; the
    binary and categorical columns are written as strings so that label
    encoding and kind inference do real work.  The columns form three
    groups, one per factor: x0, x1 and flag_a (linear), x2 and grade, and
    x3, flag_b and region (non-linear), so model-based imputers can beat
    the constants and the dependency graph has structure to find.  Each
    column loses exactly MISSING_RATE of its cells, at uniform positions.
    """
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n_rows, 3))

    def noise(scale):
        return rng.normal(0.0, scale, n_rows)

    columns = {
        "x0": 50.0 + 10.0 * (z[:, 0] + noise(0.3)),
        "x1": 5.0 + 2.0 * (-0.8 * z[:, 0] + noise(0.4)),
        "x2": 120.0 + 25.0 * (z[:, 1] + noise(0.3)),
        "x3": np.sin(2.0 * z[:, 2]) + noise(0.2),
    }
    columns = {k: [f"{x:.4f}" for x in v] for k, v in columns.items()}
    columns["flag_a"] = ["yes" if x > 0 else "no"
                         for x in z[:, 0] + noise(0.5)]
    columns["flag_b"] = ["on" if x > 1.0 else "off"
                         for x in z[:, 2] ** 2 + noise(0.3)]
    grade = np.digitize(z[:, 1] + noise(0.5), [-0.8, 0.0, 0.8])
    columns["grade"] = [["D", "C", "B", "A"][g] for g in grade]
    region = np.digitize(z[:, 2] + noise(0.5), [-0.5, 0.5])
    columns["region"] = [["north", "centre", "south"][g] for g in region]

    n_holes = round(MISSING_RATE * n_rows)
    for name in columns:
        for i in rng.choice(n_rows, size=n_holes, replace=False):
            columns[name][i] = ""
    return columns


def write_columns(columns: dict[str, list[str]], path) -> None:
    names = list(columns)
    n = len(columns[names[0]])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(n):
            writer.writerow([columns[c][i] for c in names])


def missing_counts(columns: dict[str, list[str]]) -> dict[str, int]:
    return {name: sum(1 for v in cells if v == "") for name, cells in
            columns.items()}


# ---------------------------------------------------------------------------
# workload definitions; specs are built on demand because they need imputeq

# Each workload's table is fixed.  Which graph edges, winning imputers and
# tree shapes the program picks is a discrete function of the data, so a
# table drawn per seed changes the work itself: with an earlier two-factor
# version of the signal-trees generator, five seeds gave assess times of
# 22.9 to 36.1 s and plans of 0.7 to 3.6 MB.  The run's seed orders the
# one-row calls instead.
SIGNAL_DATA_SEED = 400
AUDIT_DATA_SEED = 300


@dataclass(frozen=True)
class Workload:
    """One user session.  `assess` runs `assess_calls` times, as one
    call is too noisy a sample on a shared machine; then come `rounds`
    serving rounds, each one fit, serialize/deserialize, batch apply and CLI
    apply call plus a slice of the one-row calls, so that those samples spread
    over seconds instead of sitting in one burst.  The counts are fixed,
    never time-based, so the traced run's per-layer counts repeat
    exactly."""

    make_columns: Callable[[], dict]
    expected_missing: dict
    config: object  # imputeq.AssessConfig
    rounds: int
    assess_calls: int
    graph: dict | None = None  # build_dependency_graph keyword arguments;
    # its transitive closure becomes the dependency dict for assess
    audit_strategies: dict | None = None


def _heart_knn(iq):
    roster = [
        s for s in iq.default_imputer_roster(0)
        if s.id not in ("iter_forest", "iter_gbt")
    ]
    return Workload(
        make_columns=lambda: heart_columns(HEART_CONFTEST_SEED),
        expected_missing=dict(HEART_MISSING_COUNTS),
        config=iq.AssessConfig(tuple(roster), n_folds=5, threshold=0.5),
        rounds=20,
        assess_calls=2,
    )


def _latent_missing(n_rows):
    return {name: round(MISSING_RATE * n_rows) for name in LATENT_NAMES}


def _signal_trees(iq):
    it = {"init_strategy": "mode"}
    Spec = iq.ImputerSpec
    roster = (
        Spec("mean", "simple", {"statistic": "mean"}),
        Spec("random", "apprandom", {}),
        Spec("knn5", "knn", {"n_neighbors": 5}),
        Spec("iter_ridge", "iterative",
             dict(it, estimator="ridge", reg=1.0, max_iter=20)),
        Spec("iter_forest", "iterative",
             dict(it, estimator="forest", n_estimators=5, max_depth=8,
                  max_iter=2)),
        Spec("iter_gbt", "iterative",
             dict(it, estimator="gbt", n_estimators=10, max_depth=4,
                  learning_rate=0.1, max_iter=2)),
    )
    return Workload(
        make_columns=lambda: latent_columns(SIGNAL_DATA_SEED, 400),
        expected_missing=_latent_missing(400),
        config=iq.AssessConfig(roster, n_folds=3, threshold=0.5),
        rounds=40,
        assess_calls=3,
        graph={"regressor": "forest", "top_n": 3,
               "regressor_params": {"n_estimators": 10},
               "min_importance": 0.1},
    )


def _audit(iq):
    Spec = iq.ImputerSpec
    roster = (
        Spec("mean", "simple", {"statistic": "mean"}),
        Spec("iter_ridge", "iterative",
             {"init_strategy": "mode", "max_iter": 20, "estimator": "ridge",
              "reg": 1.0}),
        Spec("random", "apprandom", {}),
    )
    config = iq.AssessConfig(roster, n_folds=5)
    mean = iq.single_imputer_strategy("simple", {"statistic": "mean"})
    return Workload(
        make_columns=lambda: latent_columns(AUDIT_DATA_SEED, 300),
        expected_missing=_latent_missing(300),
        config=config,
        rounds=20,
        assess_calls=5,
        audit_strategies={"mean": mean, "iqa": iq.pipeline_strategy(config)},
    )


WORKLOADS = {
    "heart-knn": _heart_knn,
    "signal-trees": _signal_trees,
    "audit": _audit,
}
